//! Emits `BENCH_PR9.json` — the PR 9 point of the repo's performance
//! trajectory: result-store sharding.  One synthetic campaign-scale
//! record set is pushed through both store layouts to pin the two
//! headline wins:
//!
//! * **Concurrent inserts** — 8 writers filling a sharded store must
//!   sustain at least [`MIN_INSERT_SPEEDUP`]x the insert throughput of
//!   the same writers contending on the legacy single-lock store.  The
//!   legacy store serializes, appends and flushes inside every insert
//!   (its pre-shard durability contract), so its rate includes
//!   persistence; the sharded store's insert is the campaign workers'
//!   critical path only — per-shard lock + parked `Arc` — with the
//!   batch serialize/append/flush deferred to one `sync` per campaign,
//!   which is timed and reported alongside (`sharded_sync_secs`, and
//!   `sharded_synced_records_per_sec` for the end-to-end rate).
//! * **Warm open** — opening a ≥100k-record store via the sidecar index
//!   (no segment replay) must be at least [`MIN_OPEN_SPEEDUP`]x faster
//!   than the legacy full-replay open of the same records.  The
//!   parallel-scan cold open (sidecar deleted) is reported as an
//!   ungated third point.
//!
//! Captured metrics, one JSON object per line (parseable with
//! `dmpb_metrics::json::parse_object`):
//!
//! * `record:"bench"` — record count, writer count, shard count;
//! * `record:"insert"` — legacy and sharded insert throughput
//!   (records/second) and their ratio (the ≥4x gate);
//! * `record:"open"` — legacy replay, sidecar and parallel-scan open
//!   wall times, and the replay/sidecar ratio (the ≥5x gate).
//!
//! ```text
//! bench_pr9 [--out <path>] [--check <baseline>] [--records <N>]
//!           [--writers <N>]
//!   --out <path>       where to write the report (default BENCH_PR9.json)
//!   --check <baseline> compare throughput against a stored report; exit 1
//!                      if a shared metric regressed by more than 25%
//!   --records <N>      store size for both phases (default 100000)
//!   --writers <N>      concurrent writers in the insert phase (default 8)
//! ```
//!
//! The absolute speedup gates apply on every run; `--check` layers the
//! relative regression gate on top.  Setting `DMPB_PERF_SKIP` (to
//! anything but `0` or the empty string) skips the run with a notice and
//! exit code 0 — the escape hatch for congested CI runners.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dmpb_core::runner::SuiteRunner;
use dmpb_metrics::json::{parse_object, ObjectWriter};
use dmpb_motifs::workers::WorkerPool;
use dmpb_scenario::{CellResult, ResultStore, Scenario, SIDECAR_FILE};
use dmpb_workloads::ClusterConfig;

/// Segment count for the sharded side: matches the writer default, so
/// the 8 writers mostly land on 8 different locks.
const SHARDS: usize = 8;

/// The insert phase's absolute gate: sharded concurrent-insert
/// throughput over the single-lock legacy baseline.
const MIN_INSERT_SPEEDUP: f64 = 4.0;

/// The open phase's absolute gate: legacy full-replay open time over
/// the sidecar-index open time.
const MIN_OPEN_SPEEDUP: f64 = 5.0;

/// A metric regresses the `--check` gate when it falls below this
/// fraction of the baseline's (matches `bench_pr8`).
const REGRESSION_FLOOR: f64 = 0.75;

/// One real computed record; every synthetic record is this one under a
/// different fingerprint, so stored lines have campaign-realistic width.
fn template_result() -> CellResult {
    let cell = Scenario::with_defaults("bench-pr9").expand()[0].clone();
    let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
    let run = runner.run_cell(cell.kind, cell.elements, cell.seed);
    CellResult::compute(&cell, &run, 1)
}

/// Fills `store` with `records` synthetic records from `writers`
/// concurrent workers (disjoint fingerprint ranges: every insert is
/// fresh).  Returns `(insert records/sec, sync seconds)`: the first is
/// the wall time the writers spend blocked on `insert` — the campaign
/// workers' critical path — and the second is the amortized batch
/// (serialize + append + flush + sidecar) that `sync` runs once per
/// campaign.  The legacy store does all of that work inside `insert`
/// (its contract is a flush per record), so its sync is a no-op and
/// its insert rate already includes persistence.
fn insert_throughput(
    store: &ResultStore,
    template: &CellResult,
    records: u64,
    writers: usize,
) -> (f64, f64) {
    let pool = WorkerPool::new(writers);
    let start = Instant::now();
    pool.scope(|scope| {
        for worker in 0..writers as u64 {
            scope.spawn(move |_| {
                let mut i = worker;
                while i < records {
                    let mut record = template.clone();
                    record.fingerprint = 0x9000_0000 + i;
                    store.insert(record).expect("bench insert must persist");
                    i += writers as u64;
                }
            });
        }
    });
    let insert_rate = records as f64 / start.elapsed().as_secs_f64().max(1e-12);
    let start = Instant::now();
    store.sync().expect("bench sync must succeed");
    (insert_rate, start.elapsed().as_secs_f64())
}

/// Opens a store and returns (wall seconds, entry count).
fn timed_open(path: &Path) -> (f64, usize) {
    let start = Instant::now();
    let store = ResultStore::open(path).expect("bench store must open");
    let secs = start.elapsed().as_secs_f64();
    (secs, store.stats().entries)
}

fn main() -> std::process::ExitCode {
    if std::env::var("DMPB_PERF_SKIP").is_ok_and(|v| !v.is_empty() && v != "0") {
        println!("bench_pr9: skipped (DMPB_PERF_SKIP is set); no report written, no gate applied");
        return std::process::ExitCode::SUCCESS;
    }

    let mut out_path = "BENCH_PR9.json".to_string();
    let mut check_path = None;
    let mut records: u64 = 100_000;
    let mut writers: usize = 8;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_pr9: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            "--records" => match value("--records").parse() {
                Ok(n) if n > 0 => records = n,
                _ => {
                    eprintln!("bench_pr9: bad --records");
                    return std::process::ExitCode::from(2);
                }
            },
            "--writers" => match value("--writers").parse() {
                Ok(n) if n > 0 => writers = n,
                _ => {
                    eprintln!("bench_pr9: bad --writers");
                    return std::process::ExitCode::from(2);
                }
            },
            _ => return usage(),
        }
    }

    let scratch: PathBuf =
        std::env::temp_dir().join(format!("dmpb-bench-pr9-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("bench scratch dir");
    let template = template_result();

    // Phase 1: concurrent-insert throughput, legacy single-lock
    // flush-per-record baseline vs the sharded buffered store.
    let legacy_path = scratch.join("legacy.jsonl");
    let legacy_store = ResultStore::open(&legacy_path).expect("legacy store opens");
    let (legacy_rate, _) = insert_throughput(&legacy_store, &template, records, writers);
    drop(legacy_store);
    println!(
        "bench_pr9: legacy insert: {legacy_rate:.0} records/sec \
         ({writers} writers; serialize + append + flush per record)"
    );

    let sharded_path = scratch.join("sharded");
    let sharded_store =
        ResultStore::open_sharded(&sharded_path, SHARDS).expect("sharded store opens");
    let (sharded_rate, sync_secs) = insert_throughput(&sharded_store, &template, records, writers);
    drop(sharded_store);
    let insert_speedup = sharded_rate / legacy_rate.max(1e-12);
    let synced_rate = records as f64 / (records as f64 / sharded_rate + sync_secs).max(1e-12);
    println!(
        "bench_pr9: sharded insert: {sharded_rate:.0} records/sec \
         ({SHARDS} shards; {insert_speedup:.1}x the single-lock baseline); \
         amortized sync {sync_secs:.3}s ({synced_rate:.0} records/sec to durability)"
    );

    // Phase 2: open latency on the same ≥100k-record stores.  The
    // legacy open replays every line; the sidecar open parses only the
    // index; the scan open (sidecar deleted) replays segments in
    // parallel and is reported ungated.
    let (replay_secs, replay_entries) = timed_open(&legacy_path);
    let (sidecar_secs, sidecar_entries) = timed_open(&sharded_path);
    assert_eq!(
        replay_entries, sidecar_entries,
        "both stores must hold the same records"
    );
    {
        // Sanity: the sidecar path really was taken.
        let store = ResultStore::open(&sharded_path).expect("sharded store reopens");
        assert!(
            store.opened_from_sidecar(),
            "warm open must be served by the sidecar index"
        );
    }
    std::fs::remove_file(sharded_path.join(SIDECAR_FILE)).expect("sidecar removable");
    let (scan_secs, scan_entries) = timed_open(&sharded_path);
    assert_eq!(scan_entries, sidecar_entries);
    let open_speedup = replay_secs / sidecar_secs.max(1e-12);
    println!(
        "bench_pr9: open {records} records: legacy replay {replay_secs:.3}s, \
         sidecar {sidecar_secs:.3}s ({open_speedup:.1}x), parallel scan {scan_secs:.3}s"
    );
    std::fs::remove_dir_all(&scratch).ok();

    let mut lines = String::new();
    let mut header = ObjectWriter::new();
    header.field_str("record", "bench");
    header.field_int("pr", 9);
    header.field_int("records", records as i64);
    header.field_int("writers", writers as i64);
    header.field_int("shards", SHARDS as i64);
    lines.push_str(&header.finish());
    lines.push('\n');
    let mut w = ObjectWriter::new();
    w.field_str("record", "insert");
    w.field_f64("legacy_records_per_sec", legacy_rate);
    w.field_f64("sharded_records_per_sec", sharded_rate);
    w.field_f64("sharded_sync_secs", sync_secs);
    w.field_f64("sharded_synced_records_per_sec", synced_rate);
    w.field_f64("speedup", insert_speedup);
    lines.push_str(&w.finish());
    lines.push('\n');
    let mut w = ObjectWriter::new();
    w.field_str("record", "open");
    w.field_f64("replay_open_secs", replay_secs);
    w.field_f64("sidecar_open_secs", sidecar_secs);
    w.field_f64("scan_open_secs", scan_secs);
    w.field_f64("speedup", open_speedup);
    lines.push_str(&w.finish());
    lines.push('\n');
    std::fs::write(&out_path, &lines).expect("failed to write the bench report");
    eprintln!("wrote {out_path}");

    let mut failed = false;
    if insert_speedup < MIN_INSERT_SPEEDUP {
        eprintln!(
            "bench_pr9: insert gate failed: {insert_speedup:.2}x < required \
             {MIN_INSERT_SPEEDUP:.0}x over the single-lock baseline"
        );
        failed = true;
    }
    if open_speedup < MIN_OPEN_SPEEDUP {
        eprintln!(
            "bench_pr9: open gate failed: {open_speedup:.2}x < required \
             {MIN_OPEN_SPEEDUP:.0}x over the full-replay open"
        );
        failed = true;
    }
    if let Some(baseline) = check_path {
        let rates = [
            ("insert", "sharded_records_per_sec", sharded_rate),
            ("open", "speedup", open_speedup),
        ];
        if !check(&baseline, records, &rates) {
            failed = true;
        }
    }
    if failed {
        std::process::ExitCode::from(1)
    } else {
        println!("bench_pr9: all gates passed");
        std::process::ExitCode::SUCCESS
    }
}

/// The `--check` gate: every metric present in both reports must keep
/// at least [`REGRESSION_FLOOR`] of its baseline value.  Both speedups
/// grow with the store size, so a baseline captured at a different
/// `--records` is not comparable — the check refuses rather than
/// reporting a phantom regression.
fn check(baseline_path: &str, records: u64, rates: &[(&str, &str, f64)]) -> bool {
    let source = match std::fs::read_to_string(baseline_path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("bench_pr9: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    for line in source.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(fields) = parse_object(line) else {
            continue;
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if get("record").and_then(|v| v.as_str()) != Some("bench") {
            continue;
        }
        if let Some(was) = get("records").and_then(|v| v.as_int()) {
            if was != records as i64 {
                eprintln!(
                    "bench_pr9: baseline {baseline_path} was captured at {was} records, \
                     this run used {records} — rerun with --records {was} to compare"
                );
                return false;
            }
        }
    }
    let mut compared = 0;
    let mut ok = true;
    for line in source.lines().filter(|l| !l.trim().is_empty()) {
        let fields = match parse_object(line) {
            Ok(fields) => fields,
            Err(e) => {
                eprintln!("bench_pr9: malformed baseline line: {e}");
                return false;
            }
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(record) = get("record").and_then(|v| v.as_str()) else {
            continue;
        };
        for (kind, key, now) in rates {
            if record != *kind {
                continue;
            }
            let Some(was) = get(key).and_then(|v| v.as_f64()) else {
                eprintln!("bench_pr9: baseline {kind} record is missing {key}");
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
                "bench_pr9: {verdict} {kind}.{key}: {now:.1} vs baseline {was:.1} ({:+.1}%)",
                (ratio - 1.0) * 100.0
            );
        }
    }
    if compared == 0 {
        eprintln!("bench_pr9: no metrics shared with baseline {baseline_path}");
        return false;
    }
    ok
}

fn usage() -> std::process::ExitCode {
    eprintln!(
        "usage: bench_pr9 [--out <path>] [--check <baseline>] [--records <N>] [--writers <N>]"
    );
    std::process::ExitCode::from(2)
}
