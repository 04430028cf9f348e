//! Graph generation (PageRank input, BDGS substitute).
//!
//! The paper's PageRank evaluation uses a 2^26-vertex graph generated by
//! BDGS.  BDGS produces graphs with skewed (power-law-like) degree
//! distributions, which is the property that drives PageRank's memory
//! behaviour.  [`GraphGenerator`] produces either uniform random graphs or
//! power-law graphs (preferential-attachment style), stored in compressed
//! sparse row (CSR) form, which is what the graph motifs and the PageRank
//! workload model operate on.

use rand::Rng;

use crate::chunks::{granule_seed, CHUNK_GRANULE};
use crate::descriptor::{DataClass, DataDescriptor, Distribution};
use crate::distributions::Zipf;
use crate::rng::{derive_seed, seeded_rng};

/// A directed graph in compressed sparse row form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph from an edge list over `num_vertices` vertices.
    ///
    /// Self-loops are allowed; duplicate edges are kept.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; num_vertices];
        for &(src, dst) in edges {
            assert!((src as usize) < num_vertices, "source {src} out of range");
            assert!((dst as usize) < num_vertices, "target {dst} out of range");
            degree[src as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(src, dst) in edges {
            let s = src as usize;
            targets[cursor[s]] = dst;
            cursor[s] += 1;
        }
        // Sort each adjacency list for deterministic traversal order.
        for v in 0..num_vertices {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub(crate) fn out_degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum out-degree across all vertices (0 for an empty graph).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Breadth-first traversal from `start`, returning the vertices in
    /// visit order.  Unreachable vertices are not included.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn bfs(&self, start: usize) -> Vec<u32> {
        assert!(start < self.num_vertices(), "start vertex out of range");
        let mut visited = vec![false; self.num_vertices()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &n in self.neighbors(v as usize) {
                if !visited[n as usize] {
                    visited[n as usize] = true;
                    queue.push_back(n);
                }
            }
        }
        order
    }
}

/// Degree-distribution shape of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// Every edge endpoint chosen uniformly at random.
    Uniform,
    /// Edge targets chosen from a zipf distribution (skewed in-degrees),
    /// approximating the BDGS generator's power-law output.
    PowerLaw {
        /// Zipf exponent controlling the skew.
        exponent: f64,
    },
}

/// Specification of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSpec {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Average out-degree (total edges = vertices * avg_degree).
    pub avg_degree: usize,
    /// Degree-distribution shape.
    pub kind: GraphKind,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl GraphSpec {
    /// A BDGS-like power-law graph, the PageRank default.
    pub fn power_law(num_vertices: usize, avg_degree: usize, seed: u64) -> Self {
        Self {
            num_vertices,
            avg_degree,
            kind: GraphKind::PowerLaw { exponent: 1.0 },
            seed,
        }
    }

    /// Descriptor for this graph (8 bytes per edge: two 4-byte vertex ids).
    pub fn descriptor(&self) -> DataDescriptor {
        let edges = (self.num_vertices * self.avg_degree) as u64;
        let distribution = match self.kind {
            GraphKind::Uniform => Distribution::Uniform,
            GraphKind::PowerLaw { exponent } => Distribution::PowerLaw { exponent },
        };
        DataDescriptor::new(DataClass::Graph, edges * 8, 8, 0.0, distribution)
    }
}

/// Deterministic graph generator.
#[derive(Debug, Clone)]
pub struct GraphGenerator {
    spec: GraphSpec,
}

impl GraphGenerator {
    /// Creates a generator for the given specification.
    pub fn new(spec: GraphSpec) -> Self {
        Self { spec }
    }

    /// Generates the graph (all `num_vertices * avg_degree` edges).
    pub fn generate(&self) -> CsrGraph {
        let num_edges = self.spec.num_vertices * self.spec.avg_degree;
        let edges = self.generate_edge_range(0, num_edges);
        CsrGraph::from_edges(self.spec.num_vertices, &edges)
    }

    /// Generates edges `[start, end)` of the logical edge list.
    ///
    /// Each [`CHUNK_GRANULE`]-edge granule draws from its own RNG stream
    /// seeded with `granule_seed(base, granule_index)`, so any
    /// granule-aligned chunking of the edge list concatenates to exactly
    /// the edges of a monolithic generation; unaligned ranges fast-forward
    /// within their first granule.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub(crate) fn generate_edge_range(&self, start: usize, end: usize) -> Vec<(u32, u32)> {
        assert!(start <= end, "invalid edge range {start}..{end}");
        let spec = self.spec;
        let base = derive_seed(spec.seed, 0x6772_6170);
        let zipf = match spec.kind {
            GraphKind::PowerLaw { exponent } => Some(Zipf::new(spec.num_vertices.max(1), exponent)),
            GraphKind::Uniform => None,
        };
        let mut edges = Vec::with_capacity(end - start);
        if start == end {
            return edges;
        }
        for g in start / CHUNK_GRANULE..=(end - 1) / CHUNK_GRANULE {
            let mut rng = seeded_rng(granule_seed(base, g as u64));
            let g_start = g * CHUNK_GRANULE;
            for i in g_start..(g_start + CHUNK_GRANULE).min(end) {
                let src = rng.gen_range(0..spec.num_vertices) as u32;
                let dst = match &zipf {
                    Some(z) => z.sample(&mut rng) as u32,
                    None => rng.gen_range(0..spec.num_vertices) as u32,
                };
                // Edges before `start` are still drawn so an unaligned
                // start stays in phase with the granule's stream.
                if i >= start {
                    edges.push((src, dst));
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-degree of every vertex of `g`.
    fn in_degrees(g: &CsrGraph) -> Vec<usize> {
        let mut deg = vec![0usize; g.num_vertices()];
        for v in 0..g.num_vertices() {
            for &t in g.neighbors(v) {
                deg[t as usize] += 1;
            }
        }
        deg
    }

    #[test]
    fn csr_from_edges_preserves_counts() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (3, 0)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(in_degrees(&g), vec![1, 1, 1, 1]);
    }

    #[test]
    fn bfs_visits_reachable_vertices_once() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let order = g.bfs(0);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), order.len());
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = GraphSpec::power_law(500, 4, 17);
        let a = GraphGenerator::new(spec).generate();
        let b = GraphGenerator::new(spec).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn generated_edge_count_matches_spec() {
        let g = GraphGenerator::new(GraphSpec {
            num_vertices: 300,
            avg_degree: 5,
            kind: GraphKind::Uniform,
            seed: 2,
        })
        .generate();
        assert_eq!(g.num_vertices(), 300);
        assert_eq!(g.num_edges(), 1500);
    }

    #[test]
    fn power_law_graph_is_more_skewed_than_uniform() {
        let pl = GraphGenerator::new(GraphSpec::power_law(2000, 8, 3)).generate();
        let un = GraphGenerator::new(GraphSpec {
            kind: GraphKind::Uniform,
            ..GraphSpec::power_law(2000, 8, 3)
        })
        .generate();
        let max_in_pl = *in_degrees(&pl).iter().max().unwrap();
        let max_in_un = *in_degrees(&un).iter().max().unwrap();
        assert!(
            max_in_pl > 4 * max_in_un,
            "power-law max in-degree {max_in_pl} not clearly larger than uniform {max_in_un}"
        );
    }

    #[test]
    fn chunked_edge_generation_concatenates_to_monolithic() {
        let spec = GraphSpec::power_law(700, 8, 21);
        let generator = GraphGenerator::new(spec);
        let total = spec.num_vertices * spec.avg_degree;
        let whole = generator.generate_edge_range(0, total);
        assert_eq!(whole.len(), total);
        for chunk in [CHUNK_GRANULE, 3 * CHUNK_GRANULE] {
            let mut edges = Vec::new();
            let mut start = 0;
            while start < total {
                let end = (start + chunk).min(total);
                edges.extend(generator.generate_edge_range(start, end));
                start = end;
            }
            assert_eq!(edges, whole, "chunk={chunk}");
        }
        // Unaligned ranges are sub-slices of the same logical edge list.
        let part = generator.generate_edge_range(CHUNK_GRANULE - 3, CHUNK_GRANULE + 3);
        assert_eq!(part, whole[CHUNK_GRANULE - 3..CHUNK_GRANULE + 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_bad_endpoint() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn descriptor_counts_edges() {
        let d = GraphSpec::power_law(1000, 4, 1).descriptor();
        assert_eq!(d.class, DataClass::Graph);
        assert_eq!(d.element_count(), 4000);
    }
}
