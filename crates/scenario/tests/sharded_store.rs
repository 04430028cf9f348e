//! Gates for the sharded result store: concurrency under 8 writer
//! threads, sidecar-vs-scan open equivalence, per-segment torn-tail
//! isolation, deterministic shard routing, campaign byte-identity
//! across fresh, reopened and migrated stores, and the cross-shard
//! compaction round trip.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dmpb_core::runner::ProxyRun;
use dmpb_core::{DagExecutor, ProxyGenerator};
use dmpb_scenario::{
    compact_sharded_store, read_records, read_store_records, segment_path, shard_for,
    CampaignRunner, CellResult, ResultStore, Scenario, DEFAULT_STORE_SHARDS, SIDECAR_FILE,
};
use dmpb_workloads::WorkloadKind;
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmpb-sharded-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One real computed record, cloned into synthetic variants per
/// fingerprint so the tests don't pay for hundreds of real runs.
fn template_result() -> CellResult {
    let cell = Scenario::with_defaults("sharded").expand()[0].clone();
    let report = ProxyGenerator::new(cell.tuning_cluster()).generate_kind(cell.kind);
    let run = ProxyRun::execute(report, &DagExecutor::new(), cell.elements, cell.seed);
    CellResult::compute(&cell, &run, 1)
}

fn small_scenario() -> Scenario {
    let mut s = Scenario::with_defaults("sharded-campaign");
    s.workloads = vec![WorkloadKind::TeraSort, WorkloadKind::AlexNet];
    s
}

/// Fills a fresh sharded store at `dir` with `count` synthetic records
/// (fingerprints `base..base + count`), synced and closed.
fn filled_store(dir: &Path, shards: usize, base: u64, count: u64) -> Vec<CellResult> {
    let template = template_result();
    let store = ResultStore::open_sharded(dir, shards).unwrap();
    let mut records = Vec::new();
    for i in 0..count {
        let mut record = template.clone();
        record.fingerprint = base + i;
        store.insert(record.clone()).unwrap();
        records.push(record);
    }
    store.sync().unwrap();
    records
}

#[test]
fn eight_pool_workers_hammer_one_sharded_store() {
    let dir = temp_dir("hammer");
    let store_dir = dir.join("store");
    let store = ResultStore::open_sharded(&store_dir, DEFAULT_STORE_SHARDS).unwrap();
    let template = template_result();

    // 8 scoped threads x 64 operations over 48 distinct fingerprints:
    // plenty of insert/insert and insert/lookup collisions, spread over
    // every shard.
    const WORKERS: usize = 8;
    const OPS_PER_WORKER: u64 = 64;
    const DISTINCT: u64 = 48;
    const BASE: u64 = 0x2000;

    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..WORKERS as u64 {
            let store = &store;
            let template = &template;
            let hits = &hits;
            let misses = &misses;
            scope.spawn(move || {
                for op in 0..OPS_PER_WORKER {
                    let fingerprint = BASE + (worker * OPS_PER_WORKER + op) % DISTINCT;
                    if op % 3 == 0 {
                        match store.lookup(fingerprint) {
                            Some(found) => {
                                assert_eq!(found.fingerprint, fingerprint);
                                hits.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                misses.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        let mut record = template.clone();
                        record.fingerprint = fingerprint;
                        record.seed = worker; // differs per worker: first insert must win
                        store.insert(record).unwrap();
                    }
                }
            });
        }
    });

    // Counters add up exactly: the aggregate matches the hammer's own
    // bookkeeping, and the per-shard counters sum to the aggregate.
    let stats = store.stats();
    assert_eq!(stats.entries, DISTINCT as usize);
    assert_eq!(stats.hits, hits.load(Ordering::Relaxed));
    assert_eq!(stats.misses, misses.load(Ordering::Relaxed));
    assert_eq!(stats.persist_errors, 0);
    let shard_stats = store.shard_stats();
    assert_eq!(shard_stats.len(), DEFAULT_STORE_SHARDS);
    assert_eq!(shard_stats.iter().map(|s| s.hits).sum::<u64>(), stats.hits);
    assert_eq!(
        shard_stats.iter().map(|s| s.misses).sum::<u64>(),
        stats.misses
    );
    assert_eq!(
        shard_stats.iter().map(|s| s.entries).sum::<usize>(),
        stats.entries
    );

    // After a sync, every segment parses under the STRICT reader —
    // concurrent buffered appends must never interleave bytes or tear
    // lines — and every record sits in the segment its fingerprint
    // routes to.
    store.sync().unwrap();
    let mut persisted = 0;
    for k in 0..DEFAULT_STORE_SHARDS {
        let records = read_records(&segment_path(&store_dir, k))
            .expect("hammered segment must stay strictly parseable");
        for record in &records {
            assert_eq!(shard_for(record.fingerprint, DEFAULT_STORE_SHARDS), k);
        }
        persisted += records.len();
    }
    assert_eq!(persisted, DISTINCT as usize);

    // Reopen-with-sidecar == reopen-without-sidecar == in-memory state.
    let in_memory: Vec<CellResult> = (BASE..BASE + DISTINCT)
        .map(|f| store.lookup(f).unwrap())
        .collect();
    drop(store);
    let with_sidecar = ResultStore::open(&store_dir).unwrap();
    assert!(
        with_sidecar.opened_from_sidecar(),
        "a cleanly closed sharded store must reopen via the sidecar index"
    );
    assert!(with_sidecar.recovered_tails().is_empty());
    assert_eq!(with_sidecar.stats().entries, DISTINCT as usize);
    for (i, fingerprint) in (BASE..BASE + DISTINCT).enumerate() {
        assert_eq!(with_sidecar.lookup(fingerprint).unwrap(), in_memory[i]);
    }
    drop(with_sidecar);
    std::fs::remove_file(store_dir.join(SIDECAR_FILE)).unwrap();
    let scanned = ResultStore::open(&store_dir).unwrap();
    assert!(!scanned.opened_from_sidecar());
    assert!(
        scanned.recovered_tails().is_empty(),
        "hammered segments must have no torn tail to recover"
    );
    assert_eq!(scanned.stats().entries, DISTINCT as usize);
    for (i, fingerprint) in (BASE..BASE + DISTINCT).enumerate() {
        assert_eq!(scanned.lookup(fingerprint).unwrap(), in_memory[i]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_in_one_segment_recovers_without_touching_the_others() {
    let dir = temp_dir("torn");
    let store_dir = dir.join("store");
    const SHARDS: usize = 4;
    const COUNT: u64 = 16; // 4 records per segment
    let records = filled_store(&store_dir, SHARDS, 0x3000, COUNT);

    // Snapshot every segment, then tear the tail of segment 2 only: a
    // crash mid-append leaves a partial line with no newline.
    let clean: Vec<Vec<u8>> = (0..SHARDS)
        .map(|k| std::fs::read(segment_path(&store_dir, k)).unwrap())
        .collect();
    let victim = segment_path(&store_dir, 2);
    let torn_line = template_result().to_line();
    let mut torn_bytes = clean[2].clone();
    torn_bytes.extend_from_slice(&torn_line.as_bytes()[..25]);
    std::fs::write(&victim, &torn_bytes).unwrap();

    // The sidecar is now stale for segment 2 (its length drifted), so
    // the open falls back to a scan — which truncates the torn tail of
    // that one segment and leaves the other three byte-untouched.
    let reopened = ResultStore::open(&store_dir).unwrap();
    assert!(!reopened.opened_from_sidecar());
    assert_eq!(reopened.recovered_tails().len(), 1);
    assert_eq!(reopened.stats().entries, COUNT as usize);
    for record in &records {
        assert_eq!(reopened.lookup(record.fingerprint).unwrap(), *record);
    }
    drop(reopened);
    for (k, bytes) in clean.iter().enumerate() {
        assert_eq!(
            &std::fs::read(segment_path(&store_dir, k)).unwrap(),
            bytes,
            "segment {k} must be byte-identical to its pre-crash state"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaigns_are_byte_identical_across_store_layouts() {
    let dir = temp_dir("campaign");
    let scenario = small_scenario();

    // A cold run filling a fresh store, and a sidecar-served warm
    // reopen that reads the same bytes back identically.
    let sharded_dir = dir.join("sharded-store");
    let cold = CampaignRunner::with_store(ResultStore::open(&sharded_dir).unwrap()).run(&scenario);
    assert_eq!(cold.cache_hits(), 0);
    let reopened = ResultStore::open(&sharded_dir).unwrap();
    assert!(reopened.opened_from_sidecar());
    let warm_sharded = CampaignRunner::with_store(reopened).run(&scenario);
    assert_eq!(warm_sharded.cache_hits(), cold.outcomes.len());
    assert_eq!(cold.to_lines(), warm_sharded.to_lines());
    assert_eq!(cold.digest(), warm_sharded.digest());

    // A single-file store as older releases wrote it, holding the
    // cold run's cells: opening it migrates it in place, and a campaign
    // served from the migrated store must still be byte-identical.
    let legacy_path = dir.join("store.jsonl");
    std::fs::write(&legacy_path, cold.to_lines()).unwrap();
    let migrated = ResultStore::open(&legacy_path).unwrap();
    assert!(legacy_path.is_dir(), "migration replaces the file in place");
    assert_eq!(migrated.shard_count(), DEFAULT_STORE_SHARDS);
    let warm_migrated = CampaignRunner::with_store(migrated).run(&scenario);
    assert_eq!(warm_migrated.cache_hits(), cold.outcomes.len());
    assert_eq!(cold.to_lines(), warm_migrated.to_lines());
    assert_eq!(cold.digest(), warm_migrated.digest());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_compaction_drops_cross_shard_duplicates_and_round_trips() {
    let dir = temp_dir("compact");
    let store_dir = dir.join("store");
    const SHARDS: usize = 4;
    const COUNT: u64 = 12;
    let records = filled_store(&store_dir, SHARDS, 0x4000, COUNT);

    // Hand-assemble the degenerate shapes compaction exists to heal:
    // * a same-segment duplicate with drifted payload (first wins);
    // * a *cross-shard* duplicate parked in a later segment (the
    //   earlier, correctly-routed copy wins in segment-major order);
    // * a misrouted but unique record (re-routed to its home segment);
    // * a torn tail (dropped).
    let append = |k: usize, text: &str| {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(segment_path(&store_dir, k))
            .unwrap();
        file.write_all(text.as_bytes()).unwrap();
    };
    let home0 = records
        .iter()
        .find(|r| shard_for(r.fingerprint, SHARDS) == 0)
        .unwrap();
    let mut same_segment_dup = home0.clone();
    same_segment_dup.checksum ^= 0xbad;
    append(0, &format!("{}\n", same_segment_dup.to_line()));
    let home1 = records
        .iter()
        .find(|r| shard_for(r.fingerprint, SHARDS) == 1)
        .unwrap();
    let mut cross_shard_dup = home1.clone();
    cross_shard_dup.checksum ^= 0xbad;
    append(3, &format!("{}\n", cross_shard_dup.to_line()));
    let mut misrouted = records[0].clone();
    misrouted.fingerprint = 0x4000 + COUNT; // routes to some home segment
    let misrouted_home = shard_for(misrouted.fingerprint, SHARDS);
    let parked_in = (misrouted_home + 1) % SHARDS;
    append(parked_in, &format!("{}\n", misrouted.to_line()));
    append(2, &records[0].to_line()[..25]); // torn tail, no newline

    let stats = compact_sharded_store(&store_dir).unwrap();
    assert_eq!(stats.len(), SHARDS);
    let kept: usize = stats.iter().map(|s| s.kept).sum();
    let dropped: usize = stats.iter().map(|s| s.dropped).sum();
    assert_eq!(
        kept,
        COUNT as usize + 1,
        "originals plus the misrouted record"
    );
    // Dropped: both duplicates, the torn tail, and the misrouted record
    // leaving the segment it was found in (it is kept in its home).
    assert_eq!(dropped, 4);
    assert_eq!(stats[2].dropped, 1, "segment 2 drops only its torn tail");

    // Strict round trip: every segment parses, every record sits in its
    // home segment, and the surviving payloads are the first-written
    // ones (the drifted duplicates are gone).
    let compacted = read_store_records(&store_dir).unwrap();
    assert_eq!(compacted.len(), COUNT as usize + 1);
    for k in 0..SHARDS {
        for record in read_records(&segment_path(&store_dir, k)).unwrap() {
            assert_eq!(shard_for(record.fingerprint, SHARDS), k);
        }
    }
    let reopened = ResultStore::open(&store_dir).unwrap();
    assert!(
        reopened.opened_from_sidecar(),
        "compaction must leave a fresh, consistent sidecar behind"
    );
    for record in records.iter().chain([&misrouted]) {
        assert_eq!(reopened.lookup(record.fingerprint).unwrap(), *record);
    }
    drop(reopened);

    // Compacting a compacted store is a no-op.
    let stats = compact_sharded_store(&store_dir).unwrap();
    assert_eq!(
        stats.iter().map(|s| s.kept).sum::<usize>(),
        COUNT as usize + 1
    );
    assert_eq!(stats.iter().map(|s| s.dropped).sum::<usize>(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shard routing is a pure function of (fingerprint, shard count):
    /// deterministic across calls, always in range, and exactly the
    /// documented `fingerprint % shards` — so a store's segment
    /// assignment can never drift between sessions.
    #[test]
    fn shard_routing_is_deterministic_and_in_range(
        fingerprint in 0u64..u64::MAX,
        shards in 1usize..64,
    ) {
        let first = shard_for(fingerprint, shards);
        let again = shard_for(fingerprint, shards);
        prop_assert_eq!(first, again);
        prop_assert!(first < shards);
        prop_assert_eq!(first as u64, fingerprint % shards as u64);
    }
}
