//! Models of the three Hadoop workloads: TeraSort, K-means and PageRank.

pub(crate) mod kmeans;
pub(crate) mod pagerank;
pub(crate) mod terasort;

pub use kmeans::KMeans;
pub use pagerank::PageRank;
pub use terasort::TeraSort;
