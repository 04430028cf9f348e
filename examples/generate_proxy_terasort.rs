//! End-to-end proxy generation for Hadoop TeraSort: decomposition,
//! feature selection, decision-tree auto-tuning, and the final accuracy /
//! speedup report (the Section III pipeline for one workload).
//!
//! Run with: `cargo run --release --example generate_proxy_terasort`

use data_motif_proxy::core::generator::ProxyGenerator;
use data_motif_proxy::metrics::MetricId;
use data_motif_proxy::workloads::{ClusterConfig, WorkloadKind};

fn main() {
    let cluster = ClusterConfig::five_node_westmere();
    let generator = ProxyGenerator::new(cluster);
    let report = generator.generate_kind(WorkloadKind::TeraSort);

    println!("== {} ==", report.proxy.name());
    println!("decomposition:");
    for c in &report.decomposition.components {
        println!(
            "  {:<22} class={:<10} weight={:.2}",
            c.motif.name(),
            c.class.name(),
            c.weight
        );
    }
    let dag = report.proxy.dag();
    println!(
        "\nproxy DAG ({}):\n{}",
        report.proxy.plan().shape_summary(),
        dag.describe()
    );
    println!("tuned parameters: {:?}", report.proxy.parameters());
    println!("\nreal vs proxy metrics (accuracy per Equation 3):");
    for id in MetricId::TUNABLE {
        println!(
            "  {:<12} real={:>12.3} proxy={:>12.3} accuracy={:>5.1}%",
            id.name(),
            report.real_metrics.get(id),
            report.proxy_metrics.get(id),
            report.accuracy.get(id).unwrap_or(1.0) * 100.0
        );
    }
    println!(
        "\naverage accuracy = {:.1}%",
        report.accuracy.average() * 100.0
    );
    println!(
        "runtime speedup  = {:.0}x ({:.0}s -> {:.2}s)",
        report.speedup, report.real_metrics.runtime_secs, report.proxy_metrics.runtime_secs
    );
    println!("qualified within 15% on every metric: {}", report.qualified);

    // The proxy is also a real program: run its DAG's kernels on sample
    // data, in topological order.
    use data_motif_proxy::core::executor::DagExecutor;
    let execution = report.proxy.execute_dag(&DagExecutor::new(), 10_000, 7);
    println!(
        "\nexecuted {} motif kernels for real, checksum {:#x}",
        execution.kernels_run(),
        execution.checksum
    );
}
