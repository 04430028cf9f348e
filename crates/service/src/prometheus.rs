//! Prometheus text-format exposition for the campaign service.
//!
//! Hand-rendered `text/plain; version=0.0.4` output: counters and gauges
//! over the shared result store, the admission queue and the campaign
//! lifecycle, plus the per-cell latency histogram in the cumulative
//! `le`-labelled convention Prometheus expects.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use dmpb_metrics::histogram::LATENCY_BUCKET_BOUNDS_NS;
use dmpb_motifs::KernelProfiler;

use crate::service::ServiceState;

fn metric(out: &mut String, name: &str, kind: &str, help: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders the full `/metrics` page.
pub(crate) fn render_metrics(state: &ServiceState) -> String {
    let stats = state.runner.store_stats();
    let latency = state.latency.snapshot();
    let uptime = state.started.elapsed();
    let mut out = String::new();

    metric(
        &mut out,
        "dmpb_store_hits_total",
        "counter",
        "Result-store lookups served from the store.",
        stats.hits,
    );
    metric(
        &mut out,
        "dmpb_store_misses_total",
        "counter",
        "Result-store lookups that required computation.",
        stats.misses,
    );
    metric(
        &mut out,
        "dmpb_store_lookups_total",
        "counter",
        "Total result-store lookups (hits + misses).",
        stats.lookups(),
    );
    metric(
        &mut out,
        "dmpb_store_hit_ratio",
        "gauge",
        "Hit ratio over all lookups so far (0 before any lookup).",
        format_args!("{:.6}", stats.hit_ratio()),
    );
    metric(
        &mut out,
        "dmpb_store_entries",
        "gauge",
        "Distinct cell results currently held by the store.",
        stats.entries,
    );
    metric(
        &mut out,
        "dmpb_store_persist_errors_total",
        "counter",
        "Failed appends to the store's backing file (store degrades to in-memory after the first).",
        stats.persist_errors,
    );

    // Per-shard breakdowns of the same store counters (shard =
    // fingerprint % N, one series per segment file).  They sum exactly
    // to the aggregates above — the daemon test pins that.
    let shard_stats = state.runner.store().shard_stats();
    type ShardValue = fn(&dmpb_scenario::StoreStats) -> u64;
    let shard_families: [(&str, &str, &str, ShardValue); 4] = [
        (
            "dmpb_store_shard_hits_total",
            "counter",
            "Result-store lookups served from the store, by shard.",
            |s| s.hits,
        ),
        (
            "dmpb_store_shard_misses_total",
            "counter",
            "Result-store lookups that required computation, by shard.",
            |s| s.misses,
        ),
        (
            "dmpb_store_shard_entries",
            "gauge",
            "Distinct cell results currently held, by shard.",
            |s| s.entries as u64,
        ),
        (
            "dmpb_store_shard_persist_errors_total",
            "counter",
            "Failed appends to the shard's segment file, by shard.",
            |s| s.persist_errors,
        ),
    ];
    for (name, kind, help, value) in shard_families {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (shard, stats) in shard_stats.iter().enumerate() {
            let _ = writeln!(out, "{name}{{shard=\"{shard}\"}} {}", value(stats));
        }
    }

    let counters = &state.counters;
    metric(
        &mut out,
        "dmpb_campaigns_submitted_total",
        "counter",
        "Campaigns accepted into the admission queue.",
        counters.submitted.load(Ordering::Relaxed),
    );
    metric(
        &mut out,
        "dmpb_campaigns_completed_total",
        "counter",
        "Campaigns that finished successfully.",
        counters.completed.load(Ordering::Relaxed),
    );
    metric(
        &mut out,
        "dmpb_campaigns_failed_total",
        "counter",
        "Campaigns that finished with cell failures.",
        counters.failed.load(Ordering::Relaxed),
    );
    metric(
        &mut out,
        "dmpb_campaigns_rejected_total",
        "counter",
        "Submissions bounced with 429 because the queue was full.",
        counters.rejected.load(Ordering::Relaxed),
    );
    metric(
        &mut out,
        "dmpb_campaigns_running",
        "gauge",
        "Campaigns currently executing (0 or 1: one dispatcher).",
        counters.running.load(Ordering::Relaxed),
    );
    // Synthetic population cells finished, one series per concrete
    // topology family — fixed, small cardinality, so all four series
    // are always exposed (a family that never ran reads 0).
    {
        let name = "dmpb_population_cells_total";
        let _ = writeln!(
            out,
            "# HELP {name} Synthetic population cells finished (computed or store-served), by topology family."
        );
        let _ = writeln!(out, "# TYPE {name} counter");
        for (index, family) in dmpb_population::TopologyFamily::CONCRETE.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name}{{family=\"{}\"}} {}",
                family.name(),
                counters.population_cells[index].load(Ordering::Relaxed)
            );
        }
    }
    metric(
        &mut out,
        "dmpb_queue_depth",
        "gauge",
        "Campaigns waiting in the admission queue.",
        state.queue_len(),
    );
    metric(
        &mut out,
        "dmpb_queue_capacity",
        "gauge",
        "Admission-queue capacity (submissions beyond it get 429).",
        state.queue_depth,
    );
    metric(
        &mut out,
        "dmpb_pool_workers",
        "gauge",
        "The most cells a campaign runs at once.",
        state.workers,
    );

    // Cumulative busy time over cumulative capacity: an approximation
    // (cells overlap), but monotone inputs make it cheap and
    // rate()-friendly.
    let capacity_ns = uptime.as_nanos().max(1) as f64 * state.workers as f64;
    metric(
        &mut out,
        "dmpb_pool_utilization_ratio",
        "gauge",
        "Cumulative cell wall-time over cumulative cell capacity since start.",
        format_args!("{:.6}", (latency.sum_ns as f64 / capacity_ns).min(1.0)),
    );
    metric(
        &mut out,
        "dmpb_uptime_seconds",
        "gauge",
        "Seconds since the daemon started.",
        format_args!("{:.3}", uptime.as_secs_f64()),
    );

    let name = "dmpb_cell_latency_seconds";
    let _ = writeln!(
        out,
        "# HELP {name} Per-cell campaign latency (store-served and computed)."
    );
    let _ = writeln!(out, "# TYPE {name} histogram");
    let cumulative = latency.cumulative();
    for (bound_ns, count) in LATENCY_BUCKET_BOUNDS_NS.iter().zip(cumulative.iter()) {
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {count}",
            format_bound_seconds(*bound_ns)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", latency.count);
    let _ = writeln!(out, "{name}_sum {:.9}", latency.sum_ns as f64 / 1e9);
    let _ = writeln!(out, "{name}_count {}", latency.count);

    // Per-kind kernel execution counters from the process-global
    // profiler (`serve` turns it on at startup).  Only kinds that have
    // actually run appear — 33 all-zero series per family would be
    // exposition noise.
    let profile = KernelProfiler::global().snapshot();
    let invoked: Vec<_> = profile.kinds.iter().filter(|k| k.invocations > 0).collect();
    if !invoked.is_empty() {
        type EntryValue = fn(&dmpb_motifs::profile::KernelProfileEntry) -> String;
        let families: [(&str, &str, EntryValue); 3] = [
            (
                "dmpb_kernel_invocations_total",
                "Motif kernel executions by kind.",
                |k| k.invocations.to_string(),
            ),
            (
                "dmpb_kernel_elements_total",
                "Elements processed by motif kernels, by kind.",
                |k| k.elements.to_string(),
            ),
            (
                "dmpb_kernel_seconds_total",
                "Wall time spent in motif kernels, by kind.",
                |k| format!("{:.9}", k.ns as f64 / 1e9),
            ),
        ];
        for (name, help, value) in families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for entry in &invoked {
                let _ = writeln!(
                    out,
                    "{name}{{kind=\"{}\",class=\"{}\"}} {}",
                    entry.kind.name(),
                    entry.kind.class().name(),
                    value(entry)
                );
            }
        }
    }

    out
}

/// Formats a nanosecond bound as seconds without trailing zeros
/// (`10_000` → `0.00001`, `5_000_000_000` → `5`).
fn format_bound_seconds(ns: u64) -> String {
    let mut s = format!("{:.9}", ns as f64 / 1e9);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::format_bound_seconds;

    #[test]
    fn bounds_render_as_trimmed_seconds() {
        assert_eq!(format_bound_seconds(10_000), "0.00001");
        assert_eq!(format_bound_seconds(1_000_000), "0.001");
        assert_eq!(format_bound_seconds(1_000_000_000), "1");
        assert_eq!(format_bound_seconds(5_000_000_000), "5");
    }
}
