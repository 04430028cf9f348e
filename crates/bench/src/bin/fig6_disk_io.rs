//! Fig. 6: disk I/O bandwidth of real workloads vs proxies.
use dmpb_core::ProxySuite;
use dmpb_metrics::table::TextTable;
use dmpb_workloads::ClusterConfig;

fn main() {
    let suite = ProxySuite::generate(ClusterConfig::five_node_westmere());
    let mut t = TextTable::new(
        "Fig. 6 — Disk I/O bandwidth (MB/s), real vs proxy",
        &["workload", "real", "proxy"],
    );
    for r in suite.reports() {
        t.add_row(&[
            r.kind.to_string(),
            format!("{:.2}", r.real_metrics.disk_io_bw_mbps),
            format!("{:.2}", r.proxy_metrics.disk_io_bw_mbps),
        ]);
    }
    println!("{}", t.render());
    println!("Paper reference: TeraSort 33.99 vs 32.04 MB/s; AI workloads ~0.2-0.5 MB/s.");
}
