//! Declarative fork/join DAG topologies for proxy benchmarks.
//!
//! The paper models a proxy benchmark as a *DAG* of weighted data motifs —
//! and real frameworks produce genuinely branching DAGs: TensorFlow
//! Inception's parallel towers join at a filter concatenation, Spark wide
//! dependencies fan shuffle blocks out and join them at the next stage.
//! A [`DagPlan`] is how a workload model declares that structure: a set of
//! named data nodes plus one motif edge per involved motif implementation.
//!
//! The plan is purely *topological* — it carries no weights, descriptors
//! or parameters.  The proxy-generation pipeline combines it with the
//! decomposition's motif weights and the proxy's scaled input descriptor
//! to build the executable DAG (`dmpb-core`'s `ProxyDag`), which is why
//! the type lives here in `dmpb-motifs`: both the workload models and the
//! core pipeline speak it, without a dependency cycle.
//!
//! Plans are validated at construction: edges must reference declared
//! nodes, each motif appears on exactly one edge, and the topology must be
//! acyclic (checked by Kahn's algorithm).

use crate::class::MotifKind;

/// Node ids of an index graph in deterministic topological order (Kahn's
/// algorithm; among ready nodes the smallest id is taken first).  Returns
/// fewer than `num_nodes` ids iff the graph contains a cycle.
///
/// Shared by [`DagPlan`] and `dmpb-core`'s `ProxyDag` so the tie-break —
/// which downstream determinism guarantees rest on — lives in one place.
pub fn topological_order(num_nodes: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut in_degree = vec![0usize; num_nodes];
    for &(_, to) in edges {
        in_degree[to] += 1;
    }
    let mut ready: Vec<usize> = (0..num_nodes).filter(|&n| in_degree[n] == 0).collect();
    let mut order = Vec::with_capacity(num_nodes);
    while !ready.is_empty() {
        ready.sort_unstable();
        let node = ready.remove(0);
        order.push(node);
        for &(from, to) in edges {
            if from == node {
                in_degree[to] -= 1;
                if in_degree[to] == 0 {
                    ready.push(to);
                }
            }
        }
    }
    order
}

/// One edge of a [`DagPlan`]: `motif` transforms the data at node `from`
/// into the data at node `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEdge {
    /// Index of the source node in [`DagPlan::node_labels`].
    pub from: usize,
    /// Index of the destination node.
    pub to: usize,
    /// The motif implementation on this edge.
    pub motif: MotifKind,
}

/// A declarative fork/join topology over named data nodes (see the
/// [module documentation](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct DagPlan {
    nodes: Vec<String>,
    edges: Vec<PlanEdge>,
}

/// Incremental builder for a [`DagPlan`].
#[derive(Debug, Default)]
pub struct DagPlanBuilder {
    nodes: Vec<String>,
    edges: Vec<PlanEdge>,
}

impl DagPlanBuilder {
    /// Declares a data node and returns its index.
    pub fn node(&mut self, label: impl Into<String>) -> usize {
        self.nodes.push(label.into());
        self.nodes.len() - 1
    }

    /// Declares a motif edge between two previously declared nodes.
    pub fn edge(&mut self, from: usize, to: usize, motif: MotifKind) -> &mut Self {
        self.edges.push(PlanEdge { from, to, motif });
        self
    }

    /// Validates and finishes the plan.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an undeclared node, a motif appears on
    /// more than one edge, or the topology contains a cycle.
    pub fn build(self) -> DagPlan {
        let plan = DagPlan {
            nodes: self.nodes,
            edges: self.edges,
        };
        plan.validate();
        plan
    }
}

impl DagPlan {
    /// Starts building a plan.
    pub fn builder() -> DagPlanBuilder {
        DagPlanBuilder::default()
    }

    /// The degenerate (but always valid) topology: a straight pipeline
    /// `input → stage-1 → … → stage-k`, one stage per motif.
    pub fn chain(motifs: &[MotifKind]) -> DagPlan {
        let mut b = Self::builder();
        let mut previous = b.node("input");
        for (i, &motif) in motifs.iter().enumerate() {
            let node = b.node(format!("stage-{}", i + 1));
            b.edge(previous, node, motif);
            previous = node;
        }
        b.build()
    }

    fn validate(&self) {
        let mut seen: Vec<MotifKind> = Vec::new();
        for edge in &self.edges {
            assert!(
                edge.from < self.nodes.len() && edge.to < self.nodes.len(),
                "plan edge {} references an undeclared node",
                edge.motif
            );
            assert!(
                !seen.contains(&edge.motif),
                "motif {} appears on more than one plan edge",
                edge.motif
            );
            seen.push(edge.motif);
        }
        assert!(
            self.topological_node_order().len() == self.nodes.len(),
            "plan topology contains a cycle"
        );
    }

    /// Node labels, indexed by the node ids the edges use.
    pub fn node_labels(&self) -> &[String] {
        &self.nodes
    }

    /// The motif edges.
    pub fn edges(&self) -> &[PlanEdge] {
        &self.edges
    }

    /// The motifs the plan places, in edge order.
    pub fn motifs(&self) -> Vec<MotifKind> {
        self.edges.iter().map(|e| e.motif).collect()
    }

    /// Whether the plan covers exactly the given motif set (order
    /// insensitive; plans carry each motif at most once by construction).
    pub fn covers_exactly(&self, motifs: &[MotifKind]) -> bool {
        let mut ours = self.motifs();
        let mut theirs = motifs.to_vec();
        ours.sort_unstable();
        theirs.sort_unstable();
        ours == theirs
    }

    /// Largest out-degree over all nodes (≥ 2 means the plan forks).
    pub(crate) fn max_out_degree(&self) -> usize {
        self.degree(|e| e.from)
    }

    /// Largest in-degree over all nodes (≥ 2 means the plan joins).
    pub fn max_in_degree(&self) -> usize {
        self.degree(|e| e.to)
    }

    fn degree(&self, end: impl Fn(&PlanEdge) -> usize) -> usize {
        let mut counts = vec![0usize; self.nodes.len()];
        for edge in &self.edges {
            counts[end(edge)] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Whether any node forks (≥ 2 outgoing edges) or joins (≥ 2 incoming
    /// edges) — i.e. the plan is a genuine DAG rather than a chain.
    pub fn is_branching(&self) -> bool {
        self.max_out_degree() >= 2 || self.max_in_degree() >= 2
    }

    /// A one-line shape summary for reports, e.g.
    /// `"6 nodes / 6 edges, fork x2, join x2"` or `"4 nodes / 3 edges, chain"`.
    pub fn shape_summary(&self) -> String {
        let shape = if self.is_branching() {
            format!(
                "fork x{}, join x{}",
                self.max_out_degree(),
                self.max_in_degree()
            )
        } else {
            "chain".to_string()
        };
        format!(
            "{} nodes / {} edges, {}",
            self.nodes.len(),
            self.edges.len(),
            shape
        )
    }

    /// Node ids in a deterministic topological order
    /// ([`topological_order`]).  Shorter than `nodes.len()` iff the plan
    /// has a cycle — which [`DagPlanBuilder::build`] rejects.
    fn topological_node_order(&self) -> Vec<usize> {
        let pairs: Vec<(usize, usize)> = self.edges.iter().map(|e| (e.from, e.to)).collect();
        topological_order(self.nodes.len(), &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DagPlan {
        let mut b = DagPlan::builder();
        let input = b.node("input");
        let left = b.node("left");
        let right = b.node("right");
        let out = b.node("out");
        b.edge(input, left, MotifKind::QuickSort);
        b.edge(input, right, MotifKind::RandomSampling);
        b.edge(left, out, MotifKind::MergeSort);
        b.edge(right, out, MotifKind::GraphConstruct);
        b.build()
    }

    #[test]
    fn diamond_plan_forks_and_joins() {
        let plan = diamond();
        assert!(plan.is_branching());
        assert_eq!(plan.max_out_degree(), 2);
        assert_eq!(plan.max_in_degree(), 2);
        assert_eq!(plan.edges().len(), 4);
        assert!(plan.shape_summary().contains("fork x2"));
    }

    #[test]
    fn chain_plan_is_linear_and_covers_its_motifs() {
        let motifs = [MotifKind::QuickSort, MotifKind::MergeSort, MotifKind::Fft];
        let plan = DagPlan::chain(&motifs);
        assert!(!plan.is_branching());
        assert_eq!(plan.node_labels().len(), 4);
        assert!(plan.covers_exactly(&motifs));
        assert!(!plan.covers_exactly(&motifs[..2]));
        assert_eq!(plan.shape_summary(), "4 nodes / 3 edges, chain");
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_plans_are_rejected() {
        let mut b = DagPlan::builder();
        let a = b.node("a");
        let c = b.node("b");
        b.edge(a, c, MotifKind::QuickSort);
        b.edge(c, a, MotifKind::MergeSort);
        b.build();
    }

    #[test]
    #[should_panic(expected = "more than one plan edge")]
    fn duplicate_motifs_are_rejected() {
        let mut b = DagPlan::builder();
        let a = b.node("a");
        let c = b.node("b");
        let d = b.node("c");
        b.edge(a, c, MotifKind::QuickSort);
        b.edge(c, d, MotifKind::QuickSort);
        b.build();
    }

    #[test]
    #[should_panic(expected = "undeclared node")]
    fn edges_to_undeclared_nodes_are_rejected() {
        let mut b = DagPlan::builder();
        let a = b.node("a");
        b.edge(a, 9, MotifKind::QuickSort);
        b.build();
    }
}
