//! Emits `BENCH_PR8.json` — the PR 8 point of the repo's performance
//! trajectory: streaming data-plane scaling.  One tuned TeraSort proxy is
//! executed as a streamed cell across element counts from 10^5 up to
//! 10^8, pinning that wall time scales linearly while peak RSS stays
//! flat (the chunk budget, not the cell size, sets the high-water mark).
//!
//! Captured metrics, one JSON object per line (parseable with
//! `dmpb_metrics::json::parse_object`):
//!
//! * `record:"bench"` — chunk size, fan-out, and the chunked-vs-monolithic
//!   wall-time ratio at 10^6 elements (the streaming-overhead gate, with
//!   the checksum-identity assertion built in);
//! * `record:"scale"` ×N — per-element-count wall time, throughput
//!   (elements/second) and the process `VmHWM` peak RSS after the run.
//!
//! ```text
//! bench_pr8 [--out <path>] [--check <baseline>] [--max-elements <N>]
//!           [--max-rss-mb <MB>]
//!   --out <path>       where to write the report (default BENCH_PR8.json)
//!   --check <baseline> compare per-scale throughput against a stored
//!                      report; exit 1 if any shared point regressed by
//!                      more than 25%
//!   --max-elements <N> cap the sweep (CI smoke runs stop at 10^7)
//!   --max-rss-mb <MB>  exit 1 if VmHWM exceeds this after any point
//!                      (the constant-RSS gate)
//! ```
//!
//! Setting `DMPB_PERF_SKIP` (to anything but `0` or the empty string)
//! skips the run with a notice and exit code 0 — the escape hatch for
//! congested CI runners.

use std::time::Instant;

use dmpb_core::executor::DagExecutor;
use dmpb_core::runner::SuiteRunner;
use dmpb_metrics::json::{parse_object, ObjectWriter};
use dmpb_workloads::{ClusterConfig, WorkloadKind};

/// Streaming chunk size for the sweep: one binary megachunk, 256
/// granules — large enough to amortise task scheduling, small enough
/// that fan-out × chunk scratch stays tens of megabytes.
const CHUNK_ELEMENTS: usize = 1 << 20;

/// Executor fan-out for the sweep.
const WORKERS: usize = 8;

/// The element-count axis (capped by `--max-elements`).
const SCALES: [usize; 4] = [100_000, 1_000_000, 10_000_000, 100_000_000];

/// A scale point regresses the `--check` gate when its throughput falls
/// below this fraction of the baseline's.
const REGRESSION_FLOOR: f64 = 0.75;

/// The process's peak resident set size in kB (`VmHWM`, never
/// decreasing) from `/proc/self/status`, or 0 off Linux.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
            })
        })
        .unwrap_or(0)
}

fn main() -> std::process::ExitCode {
    if std::env::var("DMPB_PERF_SKIP").is_ok_and(|v| !v.is_empty() && v != "0") {
        println!("bench_pr8: skipped (DMPB_PERF_SKIP is set); no report written, no gate applied");
        return std::process::ExitCode::SUCCESS;
    }

    let mut out_path = "BENCH_PR8.json".to_string();
    let mut check_path = None;
    let mut max_elements = usize::MAX;
    let mut max_rss_mb = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_pr8: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            "--max-elements" => match value("--max-elements").parse() {
                Ok(n) => max_elements = n,
                Err(e) => {
                    eprintln!("bench_pr8: bad --max-elements: {e}");
                    return std::process::ExitCode::from(2);
                }
            },
            "--max-rss-mb" => match value("--max-rss-mb").parse::<u64>() {
                Ok(n) => max_rss_mb = Some(n),
                Err(e) => {
                    eprintln!("bench_pr8: bad --max-rss-mb: {e}");
                    return std::process::ExitCode::from(2);
                }
            },
            _ => return usage(),
        }
    }

    // One tuned TeraSort proxy; tuning is not part of any timed window.
    let runner = SuiteRunner::new(ClusterConfig::five_node_westmere()).with_intra_parallel(WORKERS);
    let run = runner.run_kind(WorkloadKind::TeraSort);
    let dag = run.report.proxy.dag();
    let streamed = DagExecutor::new()
        .with_max_parallel(WORKERS)
        .with_chunk_elements(Some(CHUNK_ELEMENTS));
    let monolithic = DagExecutor::new().with_max_parallel(WORKERS);

    // Streaming-overhead ratio at 10^6 elements, with the checksum
    // identity asserted on the same executions.
    let probe = 1_000_000.min(max_elements.max(SCALES[0]));
    let start = Instant::now();
    let streamed_exec = streamed.execute(&dag, probe, run.seed);
    let streamed_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mono_exec = monolithic.execute(&dag, probe, run.seed);
    let mono_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        streamed_exec.checksum, mono_exec.checksum,
        "streaming must not change the execution checksum"
    );

    let mut lines = String::new();
    let mut header = ObjectWriter::new();
    header.field_str("record", "bench");
    header.field_int("pr", 8);
    header.field_str("workload", &WorkloadKind::TeraSort.to_string());
    header.field_int("chunk_elements", CHUNK_ELEMENTS as i64);
    header.field_int("workers", WORKERS as i64);
    header.field_int("probe_elements", probe as i64);
    header.field_f64("streamed_secs", streamed_secs);
    header.field_f64("monolithic_secs", mono_secs);
    header.field_f64(
        "streaming_overhead_ratio",
        streamed_secs / mono_secs.max(1e-12),
    );
    header.field_u64_hex("checksum", streamed_exec.checksum);
    lines.push_str(&header.finish());
    lines.push('\n');

    // The scaling sweep: one streamed execution per point (10^8 runs for
    // minutes; repetition windows would be prohibitive and the linearity
    // across four decades is the signal, not microsecond noise).
    let mut current = Vec::new();
    let mut rss_failed = false;
    for elements in SCALES.into_iter().filter(|&n| n <= max_elements) {
        let start = Instant::now();
        let execution = streamed.execute(&dag, elements, run.seed);
        let wall_secs = start.elapsed().as_secs_f64();
        let throughput = execution.total_elements() as f64 / wall_secs.max(1e-12);
        let hwm_kb = vm_hwm_kb();
        current.push((elements, throughput));

        let mut w = ObjectWriter::new();
        w.field_str("record", "scale");
        w.field_int("elements", elements as i64);
        w.field_int("total_elements", execution.total_elements() as i64);
        w.field_int("kernels", execution.kernels_run() as i64);
        w.field_f64("wall_secs", wall_secs);
        w.field_f64("elements_per_sec", throughput);
        w.field_int("vm_hwm_kb", hwm_kb as i64);
        w.field_u64_hex("checksum", execution.checksum);
        lines.push_str(&w.finish());
        lines.push('\n');
        println!(
            "bench_pr8: {elements} elements in {wall_secs:.2}s \
             ({throughput:.0} elements/sec, VmHWM {} MB)",
            hwm_kb / 1024
        );

        if let Some(ceiling) = max_rss_mb {
            if hwm_kb > ceiling * 1024 {
                eprintln!(
                    "bench_pr8: RSS gate failed at {elements} elements: \
                     VmHWM {} MB > ceiling {ceiling} MB",
                    hwm_kb / 1024
                );
                rss_failed = true;
            }
        }
    }

    std::fs::write(&out_path, &lines).expect("failed to write the bench report");
    eprintln!("wrote {out_path}");

    if rss_failed {
        return std::process::ExitCode::from(1);
    }
    if let Some(baseline) = check_path {
        return check(&baseline, &current);
    }
    std::process::ExitCode::SUCCESS
}

/// The `--check` gate: every scale point present in both reports must
/// keep at least [`REGRESSION_FLOOR`] of its baseline throughput.
/// Points only one side ran (a capped smoke run against a full
/// baseline) are skipped — the cap must not read as a regression.
fn check(baseline_path: &str, current: &[(usize, f64)]) -> std::process::ExitCode {
    let source = match std::fs::read_to_string(baseline_path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("bench_pr8: cannot read baseline {baseline_path}: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut baseline = Vec::new();
    for line in source.lines().filter(|l| !l.trim().is_empty()) {
        let fields = match parse_object(line) {
            Ok(fields) => fields,
            Err(e) => {
                eprintln!("bench_pr8: malformed baseline line: {e}");
                return std::process::ExitCode::from(2);
            }
        };
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, value)| value)
        };
        if get("record").and_then(|v| v.as_str()) != Some("scale") {
            continue;
        }
        match (
            get("elements").and_then(|v| v.as_int()),
            get("elements_per_sec").and_then(|v| v.as_f64()),
        ) {
            (Some(elements), Some(throughput)) => {
                baseline.push((elements as usize, throughput));
            }
            _ => {
                eprintln!("bench_pr8: baseline scale line is missing elements/elements_per_sec");
                return std::process::ExitCode::from(2);
            }
        }
    }
    if baseline.is_empty() {
        eprintln!("bench_pr8: baseline {baseline_path} has no scale records");
        return std::process::ExitCode::from(2);
    }

    let mut failed = false;
    let mut compared = 0;
    for (elements, was) in &baseline {
        let Some((_, now)) = current.iter().find(|(n, _)| n == elements) else {
            continue;
        };
        compared += 1;
        let ratio = now / was.max(1e-12);
        let verdict = if ratio < REGRESSION_FLOOR {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_pr8: {verdict} {elements} elements: {now:.0} vs baseline {was:.0} \
             elements/sec ({:+.1}%)",
            (ratio - 1.0) * 100.0
        );
    }
    if compared == 0 {
        eprintln!("bench_pr8: no scale points shared with baseline {baseline_path}");
        return std::process::ExitCode::from(2);
    }
    if failed {
        eprintln!(
            "bench_pr8: throughput regression gate failed (floor: {:.0}% of baseline)",
            REGRESSION_FLOOR * 100.0
        );
        std::process::ExitCode::from(1)
    } else {
        println!("bench_pr8: throughput gate passed for {compared} scale point(s)");
        std::process::ExitCode::SUCCESS
    }
}

fn usage() -> std::process::ExitCode {
    eprintln!(
        "usage: bench_pr8 [--out <path>] [--check <baseline>] [--max-elements <N>] \
         [--max-rss-mb <MB>]"
    );
    std::process::ExitCode::from(2)
}
