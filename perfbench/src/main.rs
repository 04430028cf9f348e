//! `perfbench`: the end-to-end and per-layer benchmark of proxy
//! generation, cold campaigns and data sweeps.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload gen-serial|campaign-cold|data-sweep \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it times whole passes and prints the end-to-end
//! metrics; with `--trace 1` it alternates untraced passes with a traced
//! replay and prints the per-layer metrics.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.  See `README.md` for the workloads and metrics.

mod gate;
mod meta;
mod pass;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dmpb_core::fnv::hash_bytes;
use dmpb_metrics::json::ObjectWriter;

use crate::gate::{Gate, PassOutcome};
use crate::meta::{Baseline, RunMeta};
use crate::pass::{run_pass, setup_rep};
use crate::stats::{geomean, median, percentile, tail_percentile};
use crate::trace::{layer_metrics, replay_pass, share_report, Recorder};
use crate::workload::{Workload, DEFAULT_SEED};

/// Set-up repetitions whose median is `setup_s`, for workloads without
/// set-up campaigns (the sweep's set-up runs once per pass).
const SETUP_REPS: usize = 3;

/// Where runs keep their stores, traces and result records.
const OUT_DIR: &str = ".perfbench";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = parse_u64(&value)?,
            "--seconds" => {
                seconds = parse_u64(&value)?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn parse_u64(value: &str) -> Result<u64, String> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    }
    .map_err(|e| format!("`{value}` is not a whole number: {e}"))
}

/// What a run reports.
#[derive(Debug)]
struct Report {
    gate: Gate,
    metrics: Vec<Metric>,
}

/// A per-run work directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload gen-serial|campaign-cold|data-sweep \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", result_line(&report));
            if report.gate.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let meta = RunMeta::collect(workload.width(dmpb_motifs::workers::hardware_parallelism()));
    let width = meta.scale.width;
    let baseline = Baseline::load()?;
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} width={} commit={} \
         code_model_version={} engine_samples={}/{}/{}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        meta.nproc,
        width,
        meta.commit,
        meta.scale.code_model_version,
        meta.scale.engine_data_accesses,
        meta.scale.engine_instruction_fetches,
        meta.scale.engine_branches,
    );

    // The pinned digest gates the default seed; any other seed is gated
    // on run-to-run equality.
    let pinned = match (args.seed == DEFAULT_SEED, baseline.pin(workload.name())?) {
        (false, _) => None,
        (true, None) => {
            println!(
                "gate: no pinned digest for {}; checking run-to-run",
                workload.name()
            );
            None
        }
        (true, Some(pin)) if pin.code_model_version != meta.scale.code_model_version => {
            return Err(format!(
                "the pinned digest of {} is for code model version {}, this build is {}: \
                 re-pin baseline.jsonl together with the version bump",
                workload.name(),
                pin.code_model_version,
                meta.scale.code_model_version
            ))
        }
        (true, Some(pin)) => Some(pin.digest),
    };

    let out = Path::new(OUT_DIR);
    let work = WorkDir(out.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("creating {}: {e}", work.0.display()))?;
    let report = if args.trace {
        traced_run(args, width, &work.0, Gate::new(pinned))?
    } else {
        timed_run(args, width, &work.0, Gate::new(pinned))?
    };

    for m in &report.metrics {
        if !stats::valid_metric_name(m.name) || !m.value.is_finite() {
            return Err(format!(
                "metric `{}` = {} is not reportable",
                m.name, m.value
            ));
        }
    }
    println!("{:<30} {:>16}  unit", "metric", "value");
    for m in &report.metrics {
        println!("{:<30} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    // Zero whenever the program is correct, so `BENCHMARK.json` leaves it
    // out; `failed` and `attempted` carry it in the result line.
    let failed_ratio = report.gate.failed_ratio();
    println!("{:<30} {:>16.6}  ratio", "failed_ratio", failed_ratio);
    for error in &report.gate.errors {
        println!("FAILED {error}");
    }
    compare_with_baseline(&baseline, workload, &meta, &report.metrics)?;

    let mut record = ObjectWriter::new();
    record.field_str("record", "result");
    record.field_str("workload", workload.name());
    record.field_u64_hex("seed", args.seed);
    record.field_int("seconds", args.seconds as i64);
    record.field_bool("trace", args.trace);
    meta.write(&mut record);
    record.field_bool("correct", report.gate.correct());
    record.field_int("attempted", report.gate.attempted as i64);
    record.field_int("failed", report.gate.failed as i64);
    for m in &report.metrics {
        record.field_f64(m.name, m.value);
    }
    append_line(&out.join("results.jsonl"), &record.finish())?;
    Ok(report)
}

/// The timed run: set-up, then whole passes until `--seconds` have
/// passed and the workload's minimum pass count is reached.
fn timed_run(args: &Args, width: usize, work: &Path, mut gate: Gate) -> Result<Report, String> {
    let workload = args.workload;
    let plan = workload.plan(args.seed, width);
    let mut setup_secs = Vec::new();
    if workload.warms_up() {
        for rep in 0..SETUP_REPS {
            setup_secs.push(setup_rep(
                workload,
                args.seed,
                width,
                &work.join(format!("setup-{rep}")),
            )?);
        }
    }

    let cells_per_pass: usize = plan.timed.iter().map(|s| s.expand().len()).sum();
    let tail_p = tail_percentile(workload.min_passes() * cells_per_pass)
        .ok_or("too few cells for a tail percentile")?;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < workload.min_passes() || start.elapsed() < window {
        let index = passes.len();
        let pass = run_pass(&plan, width, &work.join(format!("pass-{index}")))?;
        let ok = gate.check(&format!("pass {}", index + 1), &pass.outcome);
        println!(
            "pass {}: {} cells, setup {:.3} s, timed {:.3} s, p50 {:.3} ms, peak {} KiB, {}",
            index + 1,
            pass.latencies_ms.len(),
            pass.setup_secs,
            pass.timed_secs,
            if pass.latencies_ms.is_empty() {
                0.0
            } else {
                median(&pass.latencies_ms)
            },
            pass.peak_rss_kb,
            describe(&pass.outcome, ok),
        );
        passes.push(pass);
    }
    if setup_secs.is_empty() {
        setup_secs = passes.iter().map(|p| p.setup_secs).collect();
    }

    if passes.iter().any(|p| p.latencies_ms.is_empty()) {
        return Err("a pass completed no cells".to_string());
    }
    // Per-pass figures and their median across passes, so a burst of
    // load from outside that slows one pass does not move the result.
    let per_pass =
        |f: &dyn Fn(&pass::Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let cells = &passes
        .iter()
        .find(|p| !p.cells.is_empty())
        .ok_or("no pass completed a campaign")?
        .cells;
    // The process peak after set-up and one pass: each later pass's
    // fresh runner threads only add allocator-arena noise.
    let peak_rss_kb = passes[0].peak_rss_kb;
    let accuracy: Vec<f64> = cells.iter().map(|c| c.accuracy_avg).collect();
    let speedup: Vec<f64> = cells.iter().map(|c| c.speedup).collect();
    println!(
        "cell_ms_tail is p{tail_p} of {} cells ({} beyond it)",
        latencies.len(),
        latencies.len() - stats::nearest_rank(tail_p, latencies.len()),
    );
    let metrics = vec![
        Metric::new(
            "cells_per_s",
            per_pass(&|p| p.latencies_ms.len() as f64 / p.timed_secs),
            "1/s",
        ),
        Metric::new("cell_ms_p50", per_pass(&|p| median(&p.latencies_ms)), "ms"),
        Metric::new("cell_ms_tail", percentile(&latencies, tail_p), "ms"),
        Metric::new("setup_s", median(&setup_secs), "s"),
        Metric::new("peak_rss_mb", peak_rss_kb / 1024.0, "MB"),
        Metric::new(
            "accuracy_avg",
            stats::mean(&accuracy).unwrap_or(0.0),
            "ratio",
        ),
        Metric::new("speedup_geomean", geomean(&speedup), "x"),
    ];
    Ok(Report { gate, metrics })
}

/// The traced run: untraced passes alternate with traced replays of the
/// same plan until `--seconds` have passed; every replayed cell line must
/// equal the untraced one.
fn traced_run(args: &Args, width: usize, work: &Path, mut gate: Gate) -> Result<Report, String> {
    let workload = args.workload;
    let plan = workload.plan(args.seed, width);
    if workload.warms_up() {
        setup_rep(workload, args.seed, width, &work.join("setup"))?;
    }
    let mut rec = Recorder::new(Instant::now());
    let mut overhead = Vec::new();
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while overhead.is_empty() || start.elapsed() < window {
        let round = overhead.len();
        let untraced = run_pass(&plan, width, &work.join(format!("untraced-{round}")))?;
        let ok = gate.check(&format!("untraced pass {}", round + 1), &untraced.outcome);
        println!(
            "untraced pass {}: {:.3} s, {}",
            round + 1,
            untraced.wall_secs,
            describe(&untraced.outcome, ok)
        );

        let first_id = (round as u64) << 40;
        let traced = replay_pass(
            &plan,
            width,
            &work.join(format!("traced-{round}")),
            &mut rec,
            first_id,
        )?;
        let cells = untraced.outcome.cells();
        let outcome = if !traced.failures.is_empty() {
            PassOutcome::Failed {
                cells,
                reason: traced.failures.join("; "),
            }
        } else if let Some(diff) = first_difference(&untraced.lines, &traced.lines) {
            PassOutcome::Failed {
                cells,
                reason: format!("replay differs from the untraced run: {diff}"),
            }
        } else {
            PassOutcome::Done {
                cells,
                digest: hash_bytes(traced.lines.concat().as_bytes()),
            }
        };
        let ok = gate.check(&format!("traced pass {}", round + 1), &outcome);
        overhead.push(traced.wall_secs / untraced.wall_secs - 1.0);
        println!(
            "traced pass {}: {:.3} s, {}",
            round + 1,
            traced.wall_secs,
            describe(&outcome, ok),
        );
    }

    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
    rec.write(&trace_path)?;
    println!("spans written to {}", trace_path.display());
    for (scope, shares) in share_report(&rec) {
        let listed: Vec<String> = shares.iter().map(|(l, s)| format!("{l} {s:.4}")).collect();
        println!("layer shares ({scope}): {}", listed.join(", "));
        let mut record = ObjectWriter::new();
        record.field_str("record", "shares");
        record.field_str("workload", workload.name());
        record.field_str("scope", &scope);
        for (layer, share) in &shares {
            record.field_f64(layer, *share);
        }
        append_line(&Path::new(OUT_DIR).join("results.jsonl"), &record.finish())?;
    }
    let events = meta::Scale::current(width).engine_events_per_run();
    Ok(Report {
        metrics: layer_metrics(&rec, &overhead, events),
        gate,
    })
}

fn describe(outcome: &PassOutcome, ok: bool) -> String {
    match (outcome, ok) {
        (PassOutcome::Done { digest, .. }, true) => format!("digest {digest:016x} ok"),
        (PassOutcome::Done { digest, .. }, false) => format!("digest {digest:016x} MISMATCH"),
        (PassOutcome::Failed { reason, .. }, _) => format!("FAILED: {reason}"),
    }
}

/// The first cell line that differs between two runs' campaigns.
fn first_difference(expected: &[String], actual: &[String]) -> Option<String> {
    if expected.len() != actual.len() {
        return Some(format!("{} campaigns vs {}", actual.len(), expected.len()));
    }
    for (campaign, (e, a)) in expected.iter().zip(actual).enumerate() {
        let (e_lines, a_lines): (Vec<&str>, Vec<&str>) = (e.lines().collect(), a.lines().collect());
        if e_lines.len() != a_lines.len() {
            return Some(format!(
                "campaign {campaign}: {} cells vs {}",
                a_lines.len(),
                e_lines.len()
            ));
        }
        if let Some(cell) = e_lines.iter().zip(&a_lines).position(|(x, y)| x != y) {
            return Some(format!(
                "campaign {campaign} cell {cell}: {} vs {}",
                a_lines[cell], e_lines[cell]
            ));
        }
    }
    None
}

/// Prints each metric's change from the committed baseline median,
/// unless the baseline was measured at another scale.
fn compare_with_baseline(
    baseline: &Baseline,
    workload: Workload,
    meta: &RunMeta,
    metrics: &[Metric],
) -> Result<(), String> {
    let Some(scale) = baseline.scale(workload.name())? else {
        println!("baseline: none recorded for {}", workload.name());
        return Ok(());
    };
    if let Some(reason) = meta.scale.incomparable(&scale) {
        println!("baseline: not compared, different scale ({reason})");
        return Ok(());
    }
    for m in metrics {
        if let Some(reference) = baseline.reference(workload.name(), m.name) {
            println!(
                "baseline {:<28} median {:>14.6}, this run {:+.2}% (baseline spread {:.2}%)",
                m.name,
                reference.median,
                (m.value / reference.median - 1.0) * 100.0,
                reference.spread * 100.0
            );
        }
    }
    Ok(())
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The result object the last line of standard output carries.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.gate.correct(),
        report.gate.attempted.max(1),
        report.gate.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "data-sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            parsed,
            Ok(Args {
                workload: Workload::DataSweep,
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        assert_eq!(
            args(&["--workload", "gen-serial", "--seed", "0xff"])
                .unwrap()
                .seed,
            255
        );
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "gen-serial", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "gen-serial", "--seconds"]).is_err());
    }

    /// The names this binary reports, from `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let body = &json[json.find(&format!("\"{section}\"")).expect(section)..];
        let body = &body[..body.find(']').expect("closing bracket")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn reported_metric_names_match_the_benchmark_file_and_grammar() {
        let e2e = [
            "cells_per_s",
            "cell_ms_p50",
            "cell_ms_tail",
            "setup_s",
            "peak_rss_mb",
            "accuracy_avg",
            "speedup_geomean",
        ];
        assert_eq!(declared("end_to_end"), e2e);
        let rec = Recorder::new(Instant::now());
        let layer: Vec<&str> = layer_metrics(&rec, &[0.0], 1.0)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(declared("per_layer"), layer);
        for name in e2e.iter().chain(&layer) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut gate = Gate::new(None);
        gate.check(
            "pass",
            &PassOutcome::Done {
                cells: 3,
                digest: 1,
            },
        );
        let line = result_line(&Report {
            gate,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
        });
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
