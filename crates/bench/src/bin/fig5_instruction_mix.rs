//! Fig. 5: instruction mix breakdown, real vs proxy.
use dmpb_core::ProxySuite;
use dmpb_metrics::table::{fmt_percent, TextTable};
use dmpb_workloads::ClusterConfig;

fn main() {
    let suite = ProxySuite::generate(ClusterConfig::five_node_westmere());
    let mut t = TextTable::new(
        "Fig. 5 — Instruction mix breakdown (real vs proxy)",
        &[
            "workload", "side", "integer", "fp", "load", "store", "branch",
        ],
    );
    for r in suite.reports() {
        for (side, mix) in [
            ("real", r.real_metrics.instruction_mix),
            ("proxy", r.proxy_metrics.instruction_mix),
        ] {
            t.add_row(&[
                r.kind.to_string(),
                side.to_string(),
                fmt_percent(mix.integer),
                fmt_percent(mix.floating_point),
                fmt_percent(mix.load),
                fmt_percent(mix.store),
                fmt_percent(mix.branch),
            ]);
        }
    }
    println!("{}", t.render());
}
