//! Graph motif: graph construction and traversal.
//!
//! Construction turns an edge list into the CSR adjacency structure from
//! `dmpb-datagen`; traversal is breadth-first search.

use dmpb_datagen::graph::CsrGraph;

/// Builds a CSR graph from an edge list (the "graph construct" motif).
///
/// # Panics
///
/// Panics if an endpoint is out of range.
pub(crate) fn construct(num_vertices: usize, edges: &[(u32, u32)]) -> CsrGraph {
    CsrGraph::from_edges(num_vertices, edges)
}

/// Breadth-first traversal from `start` (the "graph traversal" motif),
/// returning the number of reachable vertices.
pub(crate) fn traversal_reach(graph: &CsrGraph, start: usize) -> usize {
    graph.bfs(start).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> CsrGraph {
        construct(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn construct_and_traverse() {
        let g = triangle_with_tail();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(traversal_reach(&g, 0), 4);
        assert_eq!(traversal_reach(&g, 3), 1, "vertex 3 has no out-edges");
    }
}
