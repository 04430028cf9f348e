//! # dmpb-bench — experiment harness
//!
//! One binary per table / figure of the paper's evaluation, each named
//! after what it renders (`table6_execution_time`, `fig4_accuracy`, …),
//! plus the `campaign` driver.  This library holds the shared plumbing: the
//! scenario-campaign path the paper-table binaries render from, table
//! rendering, and the paper's reference numbers so every binary prints
//! "paper vs. measured" side by side.
//!
//! The sweep loops themselves live in `dmpb_scenario` — a paper-table
//! binary declares *which* built-in scenario it renders and how to format
//! a row, nothing else.

#![warn(missing_docs)]

use dmpb_core::generator::GenerationReport;
use dmpb_metrics::table::TextTable;
use dmpb_metrics::MetricId;
use dmpb_scenario::{CampaignReport, CampaignRunner, Scenario};
use dmpb_workloads::WorkloadKind;

/// Paper-reported runtimes (seconds) on the five-node Westmere cluster
/// (Table VI): `(real, proxy)` per workload.  The paper evaluates exactly
/// the five workloads of [`WorkloadKind::PAPER_FIVE`]; the Spark variants
/// have no published numbers, so lookups for them return `None` /
/// [`f64::NAN`].
pub const PAPER_TABLE6: [(WorkloadKind, f64, f64); 5] = [
    (WorkloadKind::TeraSort, 1500.0, 11.02),
    (WorkloadKind::KMeans, 5971.0, 8.03),
    (WorkloadKind::PageRank, 1444.0, 9.03),
    (WorkloadKind::AlexNet, 1556.0, 10.02),
    (WorkloadKind::InceptionV3, 6782.0, 18.0),
];

/// Paper-reported runtimes on the re-configured three-node cluster
/// (Table VII).
pub const PAPER_TABLE7: [(WorkloadKind, f64, f64); 5] = [
    (WorkloadKind::TeraSort, 2721.0, 16.04),
    (WorkloadKind::KMeans, 7143.0, 14.03),
    (WorkloadKind::PageRank, 1693.0, 14.07),
    (WorkloadKind::AlexNet, 1333.0, 11.03),
    (WorkloadKind::InceptionV3, 5839.0, 19.04),
];

/// Paper-reported average accuracy per workload on the five-node cluster
/// (Fig. 4).
pub const PAPER_FIG4_ACCURACY: [(WorkloadKind, f64); 5] = [
    (WorkloadKind::TeraSort, 0.94),
    (WorkloadKind::KMeans, 0.91),
    (WorkloadKind::PageRank, 0.93),
    (WorkloadKind::AlexNet, 0.937),
    (WorkloadKind::InceptionV3, 0.926),
];

/// Paper-reported average accuracy on the new cluster configuration
/// (Fig. 9).
pub const PAPER_FIG9_ACCURACY: [(WorkloadKind, f64); 5] = [
    (WorkloadKind::TeraSort, 0.91),
    (WorkloadKind::KMeans, 0.91),
    (WorkloadKind::PageRank, 0.93),
    (WorkloadKind::AlexNet, 0.94),
    (WorkloadKind::InceptionV3, 0.93),
];

/// Paper-reported Westmere→Haswell runtime speedups (Fig. 10), real
/// workloads (the proxies track them closely).
pub const PAPER_FIG10_SPEEDUP: [(WorkloadKind, f64); 5] = [
    (WorkloadKind::TeraSort, 1.6),
    (WorkloadKind::KMeans, 1.8),
    (WorkloadKind::PageRank, 1.5),
    (WorkloadKind::AlexNet, 1.1),
    (WorkloadKind::InceptionV3, 1.3),
];

/// Runs a built-in scenario through the campaign engine on a fresh
/// in-memory result store — the one campaign-expansion path every
/// paper-table binary shares.  Returns the runner too so callers can
/// re-run (warm) and inspect store statistics.
pub fn run_campaign(scenario: &Scenario) -> (CampaignRunner, CampaignReport) {
    let runner = CampaignRunner::new();
    let report = runner.run(scenario);
    (runner, report)
}

/// Formats a metric id with value for table cells.
pub fn fmt_metric(report: &GenerationReport, id: MetricId) -> (String, String, String) {
    let real = report.real_metrics.get(id);
    let proxy = report.proxy_metrics.get(id);
    let acc = report.accuracy.get(id).unwrap_or(1.0);
    (
        format!("{real:.3}"),
        format!("{proxy:.3}"),
        format!("{:.1}%", acc * 100.0),
    )
}

/// Renders and prints a table.
pub fn print_table(table: &TextTable) {
    println!("{}", table.render());
}

/// The paper value lookup helper (`NaN` for workloads the paper does not
/// report, i.e. the Spark variants).
pub fn paper_value<const N: usize>(table: &[(WorkloadKind, f64); N], kind: WorkloadKind) -> f64 {
    table
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, v)| *v)
        .unwrap_or(f64::NAN)
}

/// Formats a paper-reported value with `fmt`, rendering workloads without
/// published numbers (the Spark variants, looked up as `NaN`) as an em
/// dash.
pub fn fmt_paper_or_dash(value: f64, fmt: impl Fn(f64) -> String) -> String {
    if value.is_nan() {
        "—".to_string()
    } else {
        fmt(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_cover_the_paper_workloads() {
        for kind in WorkloadKind::PAPER_FIVE {
            assert!(PAPER_TABLE6.iter().any(|(k, _, _)| *k == kind));
            assert!(PAPER_TABLE7.iter().any(|(k, _, _)| *k == kind));
            assert!(paper_value(&PAPER_FIG4_ACCURACY, kind) > 0.9);
            assert!(paper_value(&PAPER_FIG10_SPEEDUP, kind) >= 1.1);
        }
    }

    #[test]
    fn spark_workloads_have_no_paper_numbers() {
        for kind in WorkloadKind::ALL {
            let published = !paper_value(&PAPER_FIG4_ACCURACY, kind).is_nan();
            assert_eq!(
                published,
                WorkloadKind::PAPER_FIVE.contains(&kind),
                "{kind}"
            );
        }
        assert_eq!(fmt_paper_or_dash(f64::NAN, |v| format!("{v:.0} s")), "—");
        assert_eq!(fmt_paper_or_dash(1.5, |v| format!("{v:.2}x")), "1.50x");
    }

    #[test]
    fn paper_speedups_match_the_quoted_ratios() {
        // Table VI quotes 136x / 743x / 160x / 155x / 376x.
        let expected = [136.0, 743.0, 160.0, 155.0, 376.0];
        for ((_, real, proxy), expect) in PAPER_TABLE6.iter().zip(expected) {
            let speedup = real / proxy;
            assert!(
                (speedup - expect).abs() / expect < 0.01,
                "{speedup} vs {expect}"
            );
        }
    }
}
