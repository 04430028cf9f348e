//! End-to-end tests of the `campaign` binary's gate semantics, pinned
//! through the real CLI so exit codes and messages are covered.

use std::process::Command;

/// A scenario whose filters exclude every matrix cell — legitimate (a
/// sweep axis can exclude everything on some configurations), so the
/// hit-ratio gate must be *skipped with a notice*, not failed with a
/// misleading "cold store" message.
const FULLY_FILTERED: &str = r#"
[scenario]
name = "fully-filtered"
description = "every cell excluded"

[axes]
workloads = ["TeraSort"]
clusters = ["five-node-westmere"]

[[exclude]]
workload = "TeraSort"
"#;

fn campaign() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

fn scenario_file(tag: &str, source: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dmpb-campaign-cli-{tag}-{}.toml",
        std::process::id()
    ));
    std::fs::write(&path, source).unwrap();
    path
}

#[test]
fn empty_campaign_passes_the_hit_ratio_gate_with_a_notice() {
    let path = scenario_file("empty-gate", FULLY_FILTERED);
    let output = campaign()
        .arg(&path)
        .args(["--expect-hit-ratio", "1.0"])
        .output()
        .expect("campaign binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "a fully filtered campaign must not fail the hit-ratio gate\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("gate skipped") && stdout.contains("0 hits, 0 misses"),
        "the skip must be announced with the hit/miss counts\nstdout: {stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn cold_run_fails_the_hit_ratio_gate_with_counts_in_the_message() {
    let source = r#"
[scenario]
name = "one-cell"

[axes]
workloads = ["TeraSort"]
clusters = ["five-node-westmere"]
"#;
    let path = scenario_file("cold-gate", source);
    let output = campaign()
        .arg(&path)
        .args(["--expect-hit-ratio", "0.9"])
        .output()
        .expect("campaign binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "a cold run must fail a 0.9 hit-ratio gate\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("0 of 1 cells store-served") && stderr.contains("misses"),
        "the failure must say hits/misses, not just a ratio\nstderr: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn zero_is_rejected_for_every_positive_integer_flag() {
    let path = scenario_file("zero-flags", FULLY_FILTERED);
    for flag in ["--workers", "--store-shards"] {
        let output = campaign()
            .arg(&path)
            .args([flag, "0"])
            .output()
            .expect("campaign binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "`{flag} 0` must be a usage error\nstderr: {stderr}"
        );
        assert!(
            stderr.contains(&format!("{flag} needs a positive integer")),
            "the error must name the flag\nstderr: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Two cells, small enough for a debug-build CLI run.
const TWO_CELLS: &str = r#"
[scenario]
name = "sharded-cli"

[axes]
workloads = ["TeraSort"]
clusters = ["five-node-westmere"]
elements = [600]
seeds = [7, 8]
"#;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dmpb-campaign-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_success(output: &std::process::Output, what: &str) {
    assert!(
        output.status.success(),
        "{what} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn store_flag_creates_a_directory_and_migrates_a_single_file_store() {
    let path = scenario_file("store-dir", TWO_CELLS);
    let dir = fresh_dir("store-dir");

    // Without --store-shards, a new --store is still a store directory.
    let store = dir.join("store");
    let baseline = dir.join("baseline.jsonl");
    let output = campaign()
        .arg(&path)
        .arg("--store")
        .arg(&store)
        .arg("--write-baseline")
        .arg(&baseline)
        .output()
        .expect("campaign binary runs");
    assert_success(&output, "cold run");
    assert!(store.is_dir(), "--store must create a store directory");

    // A baseline file has the single-file store format older releases
    // wrote: pointed at by --store, it is migrated and fully served.
    let output = campaign()
        .arg(&path)
        .arg("--store")
        .arg(&baseline)
        .args(["--expect-hit-ratio", "1.0"])
        .output()
        .expect("campaign binary runs");
    assert_success(&output, "warm run over a migrated single-file store");
    assert!(baseline.is_dir(), "the file must be migrated in place");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_shards_flag_runs_sharded_end_to_end_with_compaction() {
    let path = scenario_file("sharded", TWO_CELLS);
    let dir = fresh_dir("shards");
    let store = dir.join("store");

    // Cold run creates the sharded layout (segments + sidecar).
    let output = campaign()
        .arg(&path)
        .args(["--store", store.to_str().unwrap(), "--store-shards", "4"])
        .output()
        .expect("campaign binary runs");
    assert_success(&output, "cold sharded run");
    assert!(
        store.is_dir(),
        "--store-shards must create a store directory"
    );
    assert!(store.join("index.jsonl").exists(), "sidecar index missing");
    assert!(
        store.join("segment-0.jsonl").exists(),
        "segment files missing"
    );

    // Warm run is fully store-served — sharding must not cost a hit.
    let output = campaign()
        .arg(&path)
        .args([
            "--store",
            store.to_str().unwrap(),
            "--expect-hit-ratio",
            "1.0",
        ])
        .output()
        .expect("campaign binary runs");
    assert_success(&output, "warm sharded run");

    // Maintenance mode: sharded compaction reports per-segment stats.
    let output = campaign()
        .args(["--compact-store", store.to_str().unwrap()])
        .output()
        .expect("campaign binary runs");
    assert_success(&output, "sharded compaction");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("segment 0:") && stdout.contains("sidecar index rebuilt"),
        "compaction must report per-segment stats\nstdout: {stdout}"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_out_writes_a_parseable_kernel_profile() {
    use dmpb_metrics::json::{parse_object, JsonScalar};
    use std::collections::HashMap;

    let source = r#"
[scenario]
name = "one-cell-profiled"

[axes]
workloads = ["TeraSort"]
clusters = ["five-node-westmere"]
"#;
    let path = scenario_file("profile-out", source);
    let dir = fresh_dir("profile-out");
    let profile = dir.join("kernel-profile.jsonl");
    let output = campaign()
        .arg(&path)
        .arg("--profile-out")
        .arg(&profile)
        .output()
        .expect("campaign binary runs");
    assert_success(&output, "profiled run");

    let dump = std::fs::read_to_string(&profile).expect("profile written");
    let records: Vec<HashMap<String, JsonScalar>> = dump
        .lines()
        .map(|line| {
            parse_object(line)
                .unwrap_or_else(|e| panic!("bad line {line}: {e}"))
                .into_iter()
                .collect()
        })
        .collect();
    let record = |r: &HashMap<String, JsonScalar>| r["record"].as_str().unwrap().to_string();
    let int = |r: &HashMap<String, JsonScalar>, name: &str| r[name].as_int().unwrap();

    let (header, kinds) = records.split_first().expect("profile has a header");
    assert_eq!(record(header), "profile");
    assert!(!kinds.is_empty(), "a run executes kernels:\n{dump}");
    assert!(
        kinds.iter().all(|r| record(r) == "kind"),
        "only per-kind lines follow the header, no lease lines:\n{dump}"
    );
    for total in ["invocations", "elements"] {
        assert_eq!(
            int(header, total),
            kinds.iter().map(|r| int(r, total)).sum::<i64>(),
            "header {total} is the sum over kinds:\n{dump}"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}
