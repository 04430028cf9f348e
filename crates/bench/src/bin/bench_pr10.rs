//! Emits `BENCH_PR10.json` — the PR 10 point of the repo's performance
//! trajectory: synthetic workload populations.  Three phases pin the
//! population subsystem's cost profile:
//!
//! * **Synthesis throughput** — how fast `PopulationGenerator` samples
//!   members from a spec (pure parameter synthesis, no execution).
//!   Population expansion sits on the campaign planner's critical path
//!   (`matrix_size`, `--describe-population`, budget planning), so it
//!   must stay orders of magnitude cheaper than running a cell.
//! * **Campaign throughput** — cold population-only campaigns at sizes
//!   10 / 100 / 500 against a sharded store, reported as cells/second.
//!   Each synthetic member tunes and executes like a named workload, so
//!   this is the end-to-end cost of breaking out of the 8 paper
//!   workloads.
//! * **Warm hit ratio** — the size-500 campaign re-run against the same
//!   store through a fresh open must be served ≥ [`MIN_WARM_HIT_RATIO`]
//!   from disk with a byte-identical digest (the store-keyed
//!   fingerprint round-trips synthetic cells).
//!
//! Captured metrics, one JSON object per line (parseable with
//! `dmpb_metrics::json::parse_object`):
//!
//! * `record:"bench"` — synthesis member count, campaign sizes, seed;
//! * `record:"synthesis"` — members synthesized per second;
//! * `record:"campaign_<size>"` — cold wall seconds and cells/second
//!   at each population size;
//! * `record:"warm"` — warm-run wall seconds, cells/second and the
//!   hit ratio for the largest size.
//!
//! ```text
//! bench_pr10 [--out <path>] [--check <baseline>]
//!   --out <path>       where to write the report (default BENCH_PR10.json)
//!   --check <baseline> compare throughput against a stored report; exit 1
//!                      if a shared metric regressed by more than 25%
//! ```
//!
//! The warm-hit-ratio gate applies on every run; `--check` layers the
//! relative regression gate on top.  Setting `DMPB_PERF_SKIP` (to
//! anything but `0` or the empty string) skips the run with a notice and
//! exit code 0 — the escape hatch for congested CI runners.

use std::path::PathBuf;
use std::time::Instant;

use dmpb_metrics::json::{parse_object, ObjectWriter};
use dmpb_population::{PopulationGenerator, PopulationSpec};
use dmpb_scenario::{CampaignRunner, ResultStore, Scenario};

/// Campaign phase population sizes, smallest first; the last (largest)
/// one doubles as the warm-run subject.
const SIZES: [u32; 3] = [10, 100, 500];

/// Members sampled in the synthesis phase — large enough that the
/// per-member cost dominates the two `Instant` reads.
const SYNTHESIS_MEMBERS: u32 = 20_000;

/// Every phase uses this base seed, so the report is reproducible.
const BASE_SEED: u64 = 0xB10C_DA7A;

/// The warm run's absolute gate: fraction of cells served from the
/// store (matches the CI population-smoke job's `--expect-hit-ratio`).
const MIN_WARM_HIT_RATIO: f64 = 0.9;

/// A metric regresses the `--check` gate when it falls below this
/// fraction of the baseline's (matches `bench_pr8`).
const REGRESSION_FLOOR: f64 = 0.75;

/// Segment count for the campaign stores: the sharded layout is the
/// one CI exercises, and PR 9 made it the performance default.
const SHARDS: usize = 8;

/// A population-only scenario: no named workloads, one axis
/// combination, small sample executions so the phase measures
/// per-cell overhead (tuning + synthesis + reduction), not data scale.
fn population_scenario(size: u32) -> Scenario {
    let mut scenario = Scenario::with_defaults("bench-pr10");
    scenario.workloads = Vec::new();
    scenario.elements = vec![500];
    scenario.population = Some(PopulationSpec {
        size,
        base_seed: BASE_SEED,
        ..PopulationSpec::default()
    });
    scenario
}

fn main() -> std::process::ExitCode {
    if std::env::var("DMPB_PERF_SKIP").is_ok_and(|v| !v.is_empty() && v != "0") {
        println!("bench_pr10: skipped (DMPB_PERF_SKIP is set); no report written, no gate applied");
        return std::process::ExitCode::SUCCESS;
    }

    let mut out_path = "BENCH_PR10.json".to_string();
    let mut check_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_pr10: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            _ => return usage(),
        }
    }

    // Phase 1: pure synthesis throughput.  The XOR fold keeps the
    // member materialization observable to the optimizer.
    let spec = PopulationSpec {
        size: SYNTHESIS_MEMBERS,
        base_seed: BASE_SEED,
        ..PopulationSpec::default()
    };
    let generator = PopulationGenerator::new(spec).expect("bench spec is valid");
    let start = Instant::now();
    let mut checksum = 0u64;
    for rank in 0..SYNTHESIS_MEMBERS {
        checksum ^= generator.member(rank).member_hash();
    }
    let synthesis_rate = SYNTHESIS_MEMBERS as f64 / start.elapsed().as_secs_f64().max(1e-12);
    println!(
        "bench_pr10: synthesis: {synthesis_rate:.0} members/sec \
         ({SYNTHESIS_MEMBERS} members, checksum {checksum:016x})"
    );

    // Phase 2: cold campaign throughput at each population size, each
    // against its own fresh sharded store.
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("dmpb-bench-pr10-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("bench scratch dir");
    let mut campaigns = Vec::new();
    let mut cold_digest = 0u64;
    let mut cold_lines = String::new();
    for size in SIZES {
        let scenario = population_scenario(size);
        let store_dir = scratch.join(format!("store-{size}"));
        let store = ResultStore::open_sharded(&store_dir, SHARDS).expect("bench store opens");
        let start = Instant::now();
        let report = CampaignRunner::with_store(store).run(&scenario);
        let cold_secs = start.elapsed().as_secs_f64();
        assert_eq!(report.cells().count(), size as usize, "every member ran");
        assert_eq!(report.cache_hits(), 0, "cold store serves nothing");
        let rate = size as f64 / cold_secs.max(1e-12);
        println!("bench_pr10: campaign size {size}: cold {cold_secs:.2}s ({rate:.1} cells/sec)");
        campaigns.push((size, cold_secs, rate));
        if size == *SIZES.last().unwrap() {
            cold_digest = report.digest();
            cold_lines = report.to_lines();
        }
    }

    // Phase 3: warm re-run of the largest campaign through a fresh
    // store open — the hit-ratio and byte-identity gates.
    let largest = *SIZES.last().unwrap();
    let scenario = population_scenario(largest);
    let store_dir = scratch.join(format!("store-{largest}"));
    let store = ResultStore::open_sharded(&store_dir, SHARDS).expect("bench store reopens");
    let start = Instant::now();
    let warm = CampaignRunner::with_store(store).run(&scenario);
    let warm_secs = start.elapsed().as_secs_f64();
    let warm_rate = largest as f64 / warm_secs.max(1e-12);
    let hit_ratio = warm.hit_ratio();
    println!(
        "bench_pr10: warm size {largest}: {warm_secs:.2}s ({warm_rate:.1} cells/sec), \
         hit ratio {hit_ratio:.2}"
    );
    assert_eq!(
        warm.digest(),
        cold_digest,
        "warm digest must byte-match the cold run"
    );
    assert_eq!(warm.to_lines(), cold_lines, "warm cells must byte-match");
    std::fs::remove_dir_all(&scratch).ok();

    let mut lines = String::new();
    let mut header = ObjectWriter::new();
    header.field_str("record", "bench");
    header.field_int("pr", 10);
    header.field_int("synthesis_members", SYNTHESIS_MEMBERS as i64);
    header.field_str("campaign_sizes", &SIZES.map(|s| s.to_string()).join("/"));
    header.field_str("base_seed", &format!("{BASE_SEED:#x}"));
    lines.push_str(&header.finish());
    lines.push('\n');
    let mut w = ObjectWriter::new();
    w.field_str("record", "synthesis");
    w.field_int("members", SYNTHESIS_MEMBERS as i64);
    w.field_f64("members_per_sec", synthesis_rate);
    lines.push_str(&w.finish());
    lines.push('\n');
    for (size, cold_secs, rate) in &campaigns {
        let mut w = ObjectWriter::new();
        w.field_str("record", &format!("campaign_{size}"));
        w.field_int("size", *size as i64);
        w.field_f64("cold_secs", *cold_secs);
        w.field_f64("cells_per_sec", *rate);
        lines.push_str(&w.finish());
        lines.push('\n');
    }
    let mut w = ObjectWriter::new();
    w.field_str("record", "warm");
    w.field_int("size", largest as i64);
    w.field_f64("warm_secs", warm_secs);
    w.field_f64("cells_per_sec", warm_rate);
    w.field_f64("hit_ratio", hit_ratio);
    lines.push_str(&w.finish());
    lines.push('\n');
    std::fs::write(&out_path, &lines).expect("failed to write the bench report");
    eprintln!("wrote {out_path}");

    let mut failed = false;
    if hit_ratio < MIN_WARM_HIT_RATIO {
        eprintln!(
            "bench_pr10: warm gate failed: hit ratio {hit_ratio:.2} < required \
             {MIN_WARM_HIT_RATIO:.2}"
        );
        failed = true;
    }
    if let Some(baseline) = check_path {
        let mut rates = vec![("synthesis".to_string(), "members_per_sec", synthesis_rate)];
        for (size, _, rate) in &campaigns {
            rates.push((format!("campaign_{size}"), "cells_per_sec", *rate));
        }
        rates.push(("warm".to_string(), "cells_per_sec", warm_rate));
        if !check(&baseline, &rates) {
            failed = true;
        }
    }
    if failed {
        std::process::ExitCode::from(1)
    } else {
        println!("bench_pr10: all gates passed");
        std::process::ExitCode::SUCCESS
    }
}

/// The `--check` gate: every metric present in both reports must keep
/// at least [`REGRESSION_FLOOR`] of its baseline value.
fn check(baseline_path: &str, rates: &[(String, &str, f64)]) -> bool {
    let source = match std::fs::read_to_string(baseline_path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("bench_pr10: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let mut compared = 0;
    let mut ok = true;
    for line in source.lines().filter(|l| !l.trim().is_empty()) {
        let fields = match parse_object(line) {
            Ok(fields) => fields,
            Err(e) => {
                eprintln!("bench_pr10: malformed baseline line: {e}");
                return false;
            }
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(record) = get("record").and_then(|v| v.as_str()) else {
            continue;
        };
        for (kind, key, now) in rates {
            if record != kind {
                continue;
            }
            let Some(was) = get(key).and_then(|v| v.as_f64()) else {
                eprintln!("bench_pr10: baseline {kind} record is missing {key}");
                return false;
            };
            compared += 1;
            let ratio = now / was.max(1e-12);
            let verdict = if ratio < REGRESSION_FLOOR {
                ok = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "bench_pr10: {verdict} {kind}.{key}: {now:.1} vs baseline {was:.1} ({:+.1}%)",
                (ratio - 1.0) * 100.0
            );
        }
    }
    if compared == 0 {
        eprintln!("bench_pr10: no metrics shared with baseline {baseline_path}");
        return false;
    }
    ok
}

fn usage() -> std::process::ExitCode {
    eprintln!("usage: bench_pr10 [--out <path>] [--check <baseline>]");
    std::process::ExitCode::from(2)
}
