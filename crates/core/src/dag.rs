//! The DAG structure of a proxy benchmark.
//!
//! The paper represents a proxy benchmark as a directed acyclic graph whose
//! nodes are original or intermediate data sets and whose edges are data
//! motifs transforming one data set into the next, each with a weight.
//!
//! The graph accepts **arbitrary acyclic topologies** — forks (one data
//! set feeding several motifs), joins (several motifs producing one data
//! set) and diamonds — not just forward chains.  Acyclicity is enforced at
//! [`ProxyDag::add_edge`] time by a reachability check, and the execution
//! order is derived by Kahn's algorithm with a deterministic smallest-id
//! tie-break, so it is stable run to run.

use dmpb_datagen::DataDescriptor;
use dmpb_motifs::MotifKind;

/// Identifier of a data node within a proxy DAG.
pub type NodeId = usize;

/// A data node: an original or intermediate data set.
#[derive(Debug, Clone, PartialEq)]
pub struct DataNode {
    /// Human-readable label, e.g. `"input"` or `"sorted-runs"`.
    pub label: String,
    /// Descriptor of the data at this node.
    pub descriptor: DataDescriptor,
}

/// An edge: one data motif applied to the data at `from`, producing the
/// data at `to`, contributing `weight` of the proxy's work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifEdge {
    /// Source data node.
    pub from: NodeId,
    /// Destination data node.
    pub to: NodeId,
    /// The motif implementation on this edge.
    pub motif: MotifKind,
    /// Relative weight (execution ratio) of this edge.
    pub weight: f64,
}

/// A DAG of data motifs over named data nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProxyDag {
    nodes: Vec<DataNode>,
    edges: Vec<MotifEdge>,
}

impl ProxyDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a data node and returns its id.
    pub fn add_node<S: Into<String>>(&mut self, label: S, descriptor: DataDescriptor) -> NodeId {
        self.nodes.push(DataNode {
            label: label.into(),
            descriptor,
        });
        self.nodes.len() - 1
    }

    /// Adds a motif edge.  Any forward-reachable topology is accepted —
    /// edges may fork, join, and point "backwards" in node-id order, as
    /// long as the graph stays acyclic.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint does not exist, if the edge would close a
    /// cycle (including self-loops), or if the weight is not a positive
    /// finite number.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, motif: MotifKind, weight: f64) {
        assert!(from < self.nodes.len(), "unknown source node {from}");
        assert!(to < self.nodes.len(), "unknown target node {to}");
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        assert!(
            from != to,
            "edge {} --[{motif}]--> {} is a self-loop, which would create a cycle",
            self.nodes[from].label,
            self.nodes[to].label
        );
        assert!(
            !self.is_reachable(to, from),
            "edge {} --[{motif}]--> {} would create a cycle: {} is already reachable from {}",
            self.nodes[from].label,
            self.nodes[to].label,
            self.nodes[from].label,
            self.nodes[to].label
        );
        self.edges.push(MotifEdge {
            from,
            to,
            motif,
            weight,
        });
    }

    /// Whether `target` can be reached from `start` along existing edges.
    fn is_reachable(&self, start: NodeId, target: NodeId) -> bool {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if node == target {
                return true;
            }
            if std::mem::replace(&mut visited[node], true) {
                continue;
            }
            stack.extend(self.edges.iter().filter(|e| e.from == node).map(|e| e.to));
        }
        false
    }

    /// The data nodes.
    pub fn nodes(&self) -> &[DataNode] {
        &self.nodes
    }

    /// The motif edges.
    pub fn edges(&self) -> &[MotifEdge] {
        &self.edges
    }

    /// Number of motif edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edges with their weights renormalised to sum to one.
    pub fn normalized_edges(&self) -> Vec<MotifEdge> {
        let total: f64 = self.edges.iter().map(|e| e.weight).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        self.edges
            .iter()
            .map(|e| MotifEdge {
                weight: e.weight / total,
                ..*e
            })
            .collect()
    }

    /// Node ids in topological order ([`dmpb_motifs::topology`]'s shared
    /// Kahn implementation; among ready nodes the smallest id is taken
    /// first, so the order is deterministic).
    pub fn topological_order(&self) -> Vec<NodeId> {
        let pairs: Vec<(usize, usize)> = self.edges.iter().map(|e| (e.from, e.to)).collect();
        let order = dmpb_motifs::topology::topological_order(self.nodes.len(), &pairs);
        assert!(
            order.len() == self.nodes.len(),
            "proxy DAG contains a cycle"
        );
        order
    }

    /// Edges in a deterministic topological (execution) order: sorted by
    /// the topological position of their source, then of their target,
    /// then insertion order.  Every edge into a node sorts before every
    /// edge out of it, and an edge's index in this order derives its
    /// execution seed.
    pub fn topological_edges(&self) -> Vec<MotifEdge> {
        let mut position = vec![0usize; self.nodes.len()];
        for (pos, node) in self.topological_order().into_iter().enumerate() {
            position[node] = pos;
        }
        let mut indexed: Vec<(usize, &MotifEdge)> = self.edges.iter().enumerate().collect();
        indexed.sort_by_key(|(i, e)| (position[e.from], position[e.to], *i));
        indexed.into_iter().map(|(_, e)| *e).collect()
    }

    /// Largest number of edges leaving one node (≥ 2 means a fork).
    pub fn max_out_degree(&self) -> usize {
        self.degree(|e| e.from)
    }

    /// Largest number of edges entering one node (≥ 2 means a join).
    pub fn max_in_degree(&self) -> usize {
        self.degree(|e| e.to)
    }

    fn degree(&self, end: impl Fn(&MotifEdge) -> NodeId) -> usize {
        let mut counts = vec![0usize; self.nodes.len()];
        for edge in &self.edges {
            counts[end(edge)] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Whether the DAG genuinely forks or joins anywhere (false for a
    /// straight chain).
    pub fn is_branching(&self) -> bool {
        self.max_out_degree() >= 2 || self.max_in_degree() >= 2
    }

    /// Renders the DAG as a small text description for reports.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for edge in self.topological_edges() {
            out.push_str(&format!(
                "{} --[{} w={:.2}]--> {}\n",
                self.nodes[edge.from].label, edge.motif, edge.weight, self.nodes[edge.to].label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::{DataClass, Distribution};

    fn descriptor() -> DataDescriptor {
        DataDescriptor::new(DataClass::Text, 1 << 20, 100, 0.0, Distribution::Uniform)
    }

    fn sample_dag() -> ProxyDag {
        let mut dag = ProxyDag::new();
        let input = dag.add_node("input", descriptor());
        let sampled = dag.add_node("sampled", descriptor().scaled_to(1 << 16));
        let sorted = dag.add_node("sorted", descriptor());
        dag.add_edge(input, sampled, MotifKind::RandomSampling, 0.1);
        dag.add_edge(input, sorted, MotifKind::QuickSort, 0.7);
        dag.add_edge(sampled, sorted, MotifKind::GraphConstruct, 0.2);
        dag
    }

    /// input forks to left/right which join at out: the canonical diamond.
    fn diamond_dag() -> ProxyDag {
        let mut dag = ProxyDag::new();
        let input = dag.add_node("input", descriptor());
        let left = dag.add_node("left", descriptor());
        let right = dag.add_node("right", descriptor());
        let out = dag.add_node("out", descriptor());
        dag.add_edge(input, left, MotifKind::QuickSort, 0.4);
        dag.add_edge(input, right, MotifKind::RandomSampling, 0.1);
        dag.add_edge(left, out, MotifKind::MergeSort, 0.3);
        dag.add_edge(right, out, MotifKind::GraphConstruct, 0.2);
        dag
    }

    #[test]
    fn dag_construction_and_accessors() {
        let dag = sample_dag();
        assert_eq!(dag.nodes().len(), 3);
        assert_eq!(dag.num_edges(), 3);
        assert!(dag.describe().contains("quick-sort"));
    }

    #[test]
    fn normalized_edge_weights_sum_to_one() {
        let dag = sample_dag();
        let total: f64 = dag.normalized_edges().iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn topological_order_follows_node_ids() {
        let dag = sample_dag();
        let edges = dag.topological_edges();
        assert!(edges.windows(2).all(|w| w[0].from <= w[1].from));
        assert_eq!(dag.topological_order(), vec![0, 1, 2]);
    }

    #[test]
    fn diamond_topology_is_accepted_and_ordered() {
        let dag = diamond_dag();
        assert!(dag.is_branching());
        assert_eq!(dag.max_out_degree(), 2, "input forks");
        assert_eq!(dag.max_in_degree(), 2, "out joins");
        let order: Vec<(NodeId, NodeId)> = dag
            .topological_edges()
            .iter()
            .map(|e| (e.from, e.to))
            .collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn join_edges_wait_for_every_predecessor() {
        // Two parallel edges into one node, one edge out, declared out
        // edge first: the out edge still runs after both in-edges.
        let mut dag = ProxyDag::new();
        let a = dag.add_node("a", descriptor());
        let b = dag.add_node("b", descriptor());
        let c = dag.add_node("c", descriptor());
        dag.add_edge(b, c, MotifKind::MinMax, 0.2);
        dag.add_edge(a, b, MotifKind::QuickSort, 0.4);
        dag.add_edge(a, b, MotifKind::MergeSort, 0.4);
        let motifs: Vec<MotifKind> = dag.topological_edges().iter().map(|e| e.motif).collect();
        assert_eq!(
            motifs,
            vec![
                MotifKind::QuickSort,
                MotifKind::MergeSort,
                MotifKind::MinMax
            ]
        );
    }

    #[test]
    fn fan_out_topology_is_accepted() {
        let mut dag = ProxyDag::new();
        let input = dag.add_node("input", descriptor());
        for i in 0..3 {
            let sink = dag.add_node(format!("sink-{i}"), descriptor());
            dag.add_edge(input, sink, MotifKind::ALL[i], 0.2);
        }
        assert_eq!(dag.max_out_degree(), 3);
        assert_eq!(dag.topological_edges(), dag.edges());
    }

    #[test]
    fn backward_pointing_edges_are_fine_when_acyclic() {
        // Declare nodes "out of order": the edge points from a higher to a
        // lower node id, which the old `from < to` shortcut rejected.
        let mut dag = ProxyDag::new();
        let out = dag.add_node("out", descriptor());
        let input = dag.add_node("input", descriptor());
        dag.add_edge(input, out, MotifKind::QuickSort, 1.0);
        assert_eq!(dag.topological_order(), vec![1, 0]);
        assert_eq!(dag.topological_edges().len(), 1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_closing_edges_are_rejected() {
        let mut dag = sample_dag();
        dag.add_edge(2, 0, MotifKind::MergeSort, 0.5);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn diamond_back_edge_is_rejected() {
        let mut dag = diamond_dag();
        dag.add_edge(3, 1, MotifKind::MinMax, 0.1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_are_rejected() {
        let mut dag = sample_dag();
        dag.add_edge(1, 1, MotifKind::MergeSort, 0.5);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn unknown_nodes_are_rejected() {
        let mut dag = sample_dag();
        dag.add_edge(0, 9, MotifKind::MergeSort, 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weights_are_rejected() {
        let mut dag = sample_dag();
        dag.add_edge(0, 1, MotifKind::MergeSort, 0.0);
    }
}
