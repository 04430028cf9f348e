//! The content-addressed result store.
//!
//! Every campaign cell's result is addressed by its
//! [`CampaignCell::fingerprint`] — a hash of everything that determines
//! the result (workload, stack, full cluster and tuning-cluster
//! configurations, sample size, derived seed and the
//! [`CODE_MODEL_VERSION`](crate::CODE_MODEL_VERSION)).  A store maps
//! fingerprints to [`CellResult`]s and optionally persists them as JSON
//! lines, one object per cell, via [`dmpb_metrics::json`]; re-running a
//! campaign against a warm store skips every already-computed cell.
//!
//! The serialization round-trips byte-exactly (floats use
//! shortest-round-trip formatting, `u64` identities travel as hex
//! strings), so a result served from disk is indistinguishable — field
//! for field and byte for byte — from one computed cold.  The campaign
//! determinism tests pin that invariant.
//!
//! # Store layout
//!
//! A persistent store is one directory: `segment-<k>.jsonl` × N with
//! `shard = fingerprint % N` ([`shard_for`]), a `store-meta.json`
//! manifest pinning N, and a sidecar `index.jsonl` mapping
//! fingerprint → (segment, byte offset, line digest).  `N = 1` covers
//! small stores.  Each shard has its own index mutex and its own writer
//! mutex, so concurrent campaign workers appending to different shards
//! share no lock — and an insert only parks the record on its shard's
//! pending queue; the serialization, the appends and the flush all
//! happen in one batch per [`ResultStore::sync`] per campaign (and on
//! drop) instead of once per record.
//!
//! A warm [`ResultStore::open`] loads only the sidecar — records stay
//! on disk until a lookup touches them, at which point the line is read
//! at its recorded offset, digest-verified and cached as an `Arc`.
//! When the sidecar is missing or stale (segment lengths drifted — the
//! footprint of a crash before `sync`), `open` falls back to scanning
//! all segments in parallel, with the torn-tail recovery applied per
//! segment.
//!
//! Older releases wrote a single append-only `*.jsonl` file.  Opening
//! such a file migrates it into a store directory in place, crash-safely;
//! that migration is the only way the old format is still read as a
//! store.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dmpb_core::fnv::hash_bytes;
use dmpb_core::runner::ProxyRun;
use dmpb_metrics::json::{parse_object, JsonScalar, ObjectWriter};
use dmpb_workloads::{workload_by_kind, Framework, Workload, WorkloadKind};

use crate::matrix::CampaignCell;

/// The synthetic-population identity persisted with a cell result, when
/// the cell ran a population member.  Mirrors
/// [`PopulationCell`](crate::matrix::PopulationCell) but carries only
/// the hashes (the spec itself lives in the scenario), so stored lines
/// stay flat and old readers that ignore unknown keys keep working.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationResult {
    /// Hash of the generative [`PopulationSpec`](dmpb_population::PopulationSpec).
    pub spec_hash: u64,
    /// The member's rank within the population.
    pub rank: u32,
    /// FNV hash of the member's full sampled identity.
    pub member_hash: u64,
    /// The member's concrete topology-family slug.
    pub family: String,
    /// The member's display label.
    pub label: String,
}

/// The persisted result of one campaign cell: tuning outcome, accuracy,
/// runtime model measurements on the cell's cluster, and the kernel
/// execution checksum.  Everything needed by the report renderers, and
/// nothing that differs between a cold computation and a store hit.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's content address (see [`CampaignCell::fingerprint`]).
    pub fingerprint: u64,
    /// Code-model version the result was computed under.
    pub version: u32,
    /// The cell's workload.
    pub workload: WorkloadKind,
    /// The workload's software stack.
    pub framework: Framework,
    /// Measurement-cluster slug.
    pub cluster: String,
    /// Architecture override slug (`"default"` = the cluster's own).
    pub architecture: String,
    /// Tuning-cluster slug (equals `cluster` unless the scenario pinned
    /// one).
    pub tuning_cluster: String,
    /// Sample-execution size.
    pub elements: usize,
    /// Base seed of the cell's axis point.
    pub base_seed: u64,
    /// Derived per-cell sample seed.
    pub seed: u64,
    /// Whether the tuned proxy met the deviation bound on every metric.
    pub qualified: bool,
    /// Auto-tuning iterations spent.
    pub iterations: usize,
    /// Average accuracy across tracked metrics (tuning cluster).
    pub accuracy_avg: f64,
    /// Name of the worst-matching metric.
    pub worst_metric: String,
    /// Its accuracy.
    pub worst_accuracy: f64,
    /// Runtime speedup of the proxy over the original (tuning cluster).
    pub speedup: f64,
    /// Original workload's modelled runtime on the tuning cluster.
    pub real_runtime_secs: f64,
    /// Proxy's modelled runtime on the tuning cluster.
    pub proxy_runtime_secs: f64,
    /// Original workload's modelled runtime on the *cell's* cluster
    /// (differs from `real_runtime_secs` when a tuning cluster is pinned
    /// or an architecture override is in play).
    pub cell_real_runtime_secs: f64,
    /// Proxy's modelled runtime on the cell's architecture.
    pub cell_proxy_runtime_secs: f64,
    /// Motif kernels executed by the sample run.
    pub kernels_run: usize,
    /// Folded checksum over all kernel outputs.
    pub checksum: u64,
    /// Per-metric accuracies in the tuner's tracked-metric order.
    pub accuracies: Vec<(String, f64)>,
    /// Synthetic-population identity, when the cell ran a population
    /// member ([`Self::workload`] is then the member's carrier).
    pub population: Option<PopulationResult>,
}

impl CellResult {
    /// Computes a cell's result from its [`ProxyRun`] (tuning + sample
    /// execution on the cell's [`CampaignCell::tuning_cluster`]) plus the
    /// pure performance-model measurements on the cell's own cluster.
    /// The run already holds those measurements when the two clusters
    /// agree: the workload's when they are equal, the proxy's when their
    /// node architectures are (a proxy runs on one node).  Only the
    /// others are measured again.
    pub fn compute(cell: &CampaignCell, run: &ProxyRun, version: u32) -> CellResult {
        Self::compute_for(cell, run, version, workload_by_kind(cell.kind).as_ref())
    }

    /// Like [`CellResult::compute`], but measuring the given workload
    /// instance on the cell's cluster instead of resolving it from
    /// [`CampaignCell::kind`] — the entry point for synthetic population
    /// members, whose carrier kind is *not* the workload that ran.
    pub fn compute_for(
        cell: &CampaignCell,
        run: &ProxyRun,
        version: u32,
        workload: &dyn Workload,
    ) -> CellResult {
        let cluster = cell.cluster();
        let tuning_cluster = cell.tuning_cluster();
        let cell_real_runtime_secs = if cluster == tuning_cluster {
            run.report.real_metrics.runtime_secs
        } else {
            workload.measure(&cluster).runtime_secs
        };
        let cell_proxy_runtime_secs = if cluster.node.arch == tuning_cluster.node.arch {
            run.report.proxy_metrics.runtime_secs
        } else {
            run.report.proxy.measure(&cluster.node.arch).runtime_secs
        };
        let (worst_metric, worst_accuracy) = run
            .report
            .accuracy
            .worst_metric()
            .map(|(id, acc)| (id.name().to_string(), acc))
            .unwrap_or_else(|| ("none".to_string(), 1.0));
        CellResult {
            fingerprint: cell.fingerprint(version),
            version,
            workload: cell.kind,
            framework: cell.kind.framework(),
            cluster: cell.cluster_name.clone(),
            architecture: cell.architecture.clone(),
            tuning_cluster: cell
                .tuning_cluster_name
                .clone()
                .unwrap_or_else(|| cell.cluster_name.clone()),
            elements: cell.elements,
            base_seed: cell.base_seed,
            seed: cell.seed,
            qualified: run.report.qualified,
            iterations: run.report.iterations,
            accuracy_avg: run.report.accuracy.average(),
            worst_metric,
            worst_accuracy,
            speedup: run.report.speedup,
            real_runtime_secs: run.report.real_metrics.runtime_secs,
            proxy_runtime_secs: run.report.proxy_metrics.runtime_secs,
            cell_real_runtime_secs,
            cell_proxy_runtime_secs,
            kernels_run: run.execution.kernels_run,
            checksum: run.execution.checksum,
            accuracies: run
                .report
                .accuracy
                .entries()
                .iter()
                .map(|(id, acc)| (id.name().to_string(), *acc))
                .collect(),
            population: cell.population.as_ref().map(|p| PopulationResult {
                spec_hash: p.spec.spec_hash(),
                rank: p.rank,
                member_hash: p.member_hash,
                family: p.family.clone(),
                label: p.label.clone(),
            }),
        }
    }

    /// Looks up a per-metric accuracy by metric name.
    pub fn accuracy_for(&self, metric: &str) -> Option<f64> {
        self.accuracies
            .iter()
            .find(|(name, _)| name == metric)
            .map(|(_, acc)| *acc)
    }

    /// Serializes the result as one flat JSON line.  The inverse of
    /// [`CellResult::from_line`]; `from_line(to_line(r)) == r` exactly.
    pub fn to_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_u64_hex("fingerprint", self.fingerprint);
        w.field_int("version", i64::from(self.version));
        w.field_str("workload", self.workload.short_name());
        w.field_str("framework", self.framework.name());
        w.field_str("cluster", &self.cluster);
        w.field_str("architecture", &self.architecture);
        w.field_str("tuning_cluster", &self.tuning_cluster);
        w.field_int("elements", self.elements as i64);
        w.field_u64_hex("base_seed", self.base_seed);
        w.field_u64_hex("seed", self.seed);
        w.field_bool("qualified", self.qualified);
        w.field_int("iterations", self.iterations as i64);
        w.field_f64("accuracy_avg", self.accuracy_avg);
        w.field_str("worst_metric", &self.worst_metric);
        w.field_f64("worst_accuracy", self.worst_accuracy);
        w.field_f64("speedup", self.speedup);
        w.field_f64("real_runtime_secs", self.real_runtime_secs);
        w.field_f64("proxy_runtime_secs", self.proxy_runtime_secs);
        w.field_f64("cell_real_runtime_secs", self.cell_real_runtime_secs);
        w.field_f64("cell_proxy_runtime_secs", self.cell_proxy_runtime_secs);
        w.field_int("kernels_run", self.kernels_run as i64);
        w.field_u64_hex("checksum", self.checksum);
        if let Some(p) = &self.population {
            w.field_u64_hex("pop_spec", p.spec_hash);
            w.field_int("pop_rank", i64::from(p.rank));
            w.field_u64_hex("pop_member", p.member_hash);
            w.field_str("pop_family", &p.family);
            w.field_str("pop_label", &p.label);
        }
        for (metric, acc) in &self.accuracies {
            w.field_f64(&format!("acc:{metric}"), *acc);
        }
        w.finish()
    }

    /// A stable digest over the serialized result.
    pub fn digest(&self) -> u64 {
        hash_bytes(self.to_line().as_bytes())
    }

    /// Parses a result from its JSON line.
    pub fn from_line(line: &str) -> Result<CellResult, String> {
        let fields = parse_object(line)?;
        let mut map: HashMap<&str, &JsonScalar> = HashMap::new();
        let mut accuracies = Vec::new();
        for (key, value) in &fields {
            if let Some(metric) = key.strip_prefix("acc:") {
                let acc = value
                    .as_f64()
                    .ok_or_else(|| format!("field `{key}` is not a number"))?;
                accuracies.push((metric.to_string(), acc));
            } else {
                map.insert(key.as_str(), value);
            }
        }
        let get = |key: &str| {
            map.get(key)
                .copied()
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let str_field = |key: &str| -> Result<String, String> {
            Ok(get(key)?
                .as_str()
                .ok_or_else(|| format!("field `{key}` is not a string"))?
                .to_string())
        };
        let hex_field = |key: &str| -> Result<u64, String> {
            let s = str_field(key)?;
            u64::from_str_radix(&s, 16).map_err(|e| format!("field `{key}`: {e}"))
        };
        // Reject negatives instead of `as`-wrapping them into huge
        // unsigned values — a corrupt line must error, not round-trip.
        let uint_field = |key: &str| -> Result<u64, String> {
            let value = get(key)?
                .as_int()
                .ok_or_else(|| format!("field `{key}` is not an integer"))?;
            u64::try_from(value).map_err(|_| format!("field `{key}` is negative: {value}"))
        };
        let f64_field = |key: &str| -> Result<f64, String> {
            get(key)?
                .as_f64()
                .ok_or_else(|| format!("field `{key}` is not a number"))
        };
        Ok(CellResult {
            fingerprint: hex_field("fingerprint")?,
            version: u32::try_from(uint_field("version")?)
                .map_err(|_| "field `version` exceeds u32".to_string())?,
            workload: str_field("workload")?.parse::<WorkloadKind>()?,
            framework: str_field("framework")?.parse::<Framework>()?,
            cluster: str_field("cluster")?,
            architecture: str_field("architecture")?,
            tuning_cluster: str_field("tuning_cluster")?,
            elements: uint_field("elements")? as usize,
            base_seed: hex_field("base_seed")?,
            seed: hex_field("seed")?,
            qualified: get("qualified")?
                .as_bool()
                .ok_or("field `qualified` is not a bool")?,
            iterations: uint_field("iterations")? as usize,
            accuracy_avg: f64_field("accuracy_avg")?,
            worst_metric: str_field("worst_metric")?,
            worst_accuracy: f64_field("worst_accuracy")?,
            speedup: f64_field("speedup")?,
            real_runtime_secs: f64_field("real_runtime_secs")?,
            proxy_runtime_secs: f64_field("proxy_runtime_secs")?,
            cell_real_runtime_secs: f64_field("cell_real_runtime_secs")?,
            cell_proxy_runtime_secs: f64_field("cell_proxy_runtime_secs")?,
            kernels_run: uint_field("kernels_run")? as usize,
            checksum: hex_field("checksum")?,
            accuracies,
            // Population fields travel as a group: a line either has all
            // five or none (absence = a named-workload cell).
            population: if map.contains_key("pop_spec") {
                Some(PopulationResult {
                    spec_hash: hex_field("pop_spec")?,
                    rank: u32::try_from(uint_field("pop_rank")?)
                        .map_err(|_| "field `pop_rank` exceeds u32".to_string())?,
                    member_hash: hex_field("pop_member")?,
                    family: str_field("pop_family")?,
                    label: str_field("pop_label")?,
                })
            } else {
                None
            },
        })
    }
}

/// Reads a JSON-lines campaign report / store file into its records.
/// Blank lines are skipped; a malformed line is an error (a corrupt store
/// must not silently shrink a baseline).
pub fn read_records(path: &Path) -> Result<Vec<CellResult>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(
            CellResult::from_line(&line)
                .map_err(|e| format!("{} line {}: {e}", path.display(), idx + 1))?,
        );
    }
    Ok(records)
}

/// A malformed final line found (and discarded) while loading a store
/// file — the footprint of a crash or kill mid-append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the discarded line.
    pub line: usize,
    /// Why the line did not parse.
    pub error: String,
    /// Bytes of the torn tail (from the end of the last good line to
    /// end-of-file).
    pub discarded_bytes: u64,
}

/// The outcome of loading a store file with torn-tail recovery.
#[derive(Debug)]
pub struct LoadedRecords {
    /// The successfully parsed records, in file order.
    pub records: Vec<CellResult>,
    /// Byte offset of each record's line start, index-aligned with
    /// [`LoadedRecords::records`] — the sidecar index of a sharded store
    /// is built from these.
    pub offsets: Vec<u64>,
    /// FNV digest of each record's serialized line (newline excluded),
    /// index-aligned with [`LoadedRecords::records`].
    pub digests: Vec<u64>,
    /// Length in bytes of the valid prefix (every parsed record plus its
    /// newline, plus any interior blank lines).  Truncating the file to
    /// this length removes a torn tail.
    pub valid_len: u64,
    /// Whether the last *valid* line is missing its trailing newline
    /// (a tear that landed between the payload and the `\n`).  Appending
    /// to the file without fixing this would glue two records together.
    pub missing_newline: bool,
    /// The discarded torn tail, if the final line was malformed.
    pub torn_tail: Option<TornTail>,
}

/// Loads a store file, recovering from a torn *final* line: a crash or
/// kill mid-append leaves a partial last line, and refusing to open the
/// store forever over it would brick every later run.  The torn tail is
/// reported (so [`ResultStore::open`] can truncate it away with a
/// warning); a malformed line in the *interior* of the file is still a
/// hard error — that is corruption, not a tear.
pub fn load_records_recovering(path: &Path) -> Result<LoadedRecords, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = BufReader::new(file);
    // Split into raw byte chunks first so "is this the final line?" is
    // known when a parse fails.
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    loop {
        let mut chunk = Vec::new();
        let n = reader
            .read_until(b'\n', &mut chunk)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if n == 0 {
            break;
        }
        chunks.push(chunk);
    }
    let is_blank = |chunk: &[u8]| chunk.iter().all(|b| b.is_ascii_whitespace());
    let last_content = chunks.iter().rposition(|c| !is_blank(c));

    let mut loaded = LoadedRecords {
        records: Vec::new(),
        offsets: Vec::new(),
        digests: Vec::new(),
        valid_len: 0,
        missing_newline: false,
        torn_tail: None,
    };
    let mut offset = 0u64;
    for (idx, chunk) in chunks.iter().enumerate() {
        let end = offset + chunk.len() as u64;
        if is_blank(chunk) {
            loaded.valid_len = end;
            loaded.missing_newline = false;
            offset = end;
            continue;
        }
        let payload = {
            let mut bytes: &[u8] = chunk;
            while bytes.last().is_some_and(|b| matches!(b, b'\n' | b'\r')) {
                bytes = &bytes[..bytes.len() - 1];
            }
            bytes
        };
        let parsed = std::str::from_utf8(payload)
            .map_err(|e| format!("invalid UTF-8: {e}"))
            .and_then(CellResult::from_line);
        match parsed {
            Ok(record) => {
                loaded.records.push(record);
                loaded.offsets.push(offset);
                loaded.digests.push(hash_bytes(payload));
                loaded.valid_len = end;
                loaded.missing_newline = !chunk.ends_with(b"\n");
                offset = end;
            }
            Err(error) if Some(idx) == last_content => {
                loaded.torn_tail = Some(TornTail {
                    line: idx + 1,
                    error,
                    discarded_bytes: chunks[idx..].iter().map(|c| c.len() as u64).sum(),
                });
                break;
            }
            Err(error) => {
                return Err(format!("{} line {}: {error}", path.display(), idx + 1));
            }
        }
    }
    Ok(loaded)
}

/// Outcome of a [`compact_sharded_store`] rewrite, for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records surviving compaction (one per distinct fingerprint).
    pub kept: usize,
    /// Records dropped: appends shadowed by an earlier record with the
    /// same fingerprint (first wins, matching [`ResultStore`] load
    /// semantics), plus a torn final line if the segment had one.
    pub dropped: usize,
}

/// Hit/miss counters of a [`ResultStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
    /// Results currently held.
    pub entries: usize,
    /// Appends that failed at the I/O layer (after the first failure the
    /// store degrades to in-memory, so this is 0 or 1 in practice).
    pub persist_errors: u64,
}

impl StoreStats {
    /// Total lookups answered (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the store, or `None` when there
    /// were no lookups at all.  An idle store has no hit ratio — gates
    /// must treat the zero-lookup case explicitly instead of reading the
    /// `0.0` that [`StoreStats::hit_ratio`] reports for it.
    pub fn try_hit_ratio(&self) -> Option<f64> {
        let total = self.lookups();
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Fraction of lookups served from the store (`0.0` when idle — use
    /// [`StoreStats::try_hit_ratio`] anywhere a zero-lookup run must not
    /// be confused with an all-miss run).
    pub fn hit_ratio(&self) -> f64 {
        self.try_hit_ratio().unwrap_or(0.0)
    }
}

/// Default segment count for sharded stores: matches the default
/// campaign worker width, so eight concurrent writers usually land on
/// eight different segment locks.
pub const DEFAULT_STORE_SHARDS: usize = 8;

/// Sidecar index file name inside a sharded store directory.
pub const SIDECAR_FILE: &str = "index.jsonl";

/// Manifest file name inside a sharded store directory (records the
/// segment count; written once at creation and never rewritten).
pub const META_FILE: &str = "store-meta.json";

/// Sidecar/manifest format version.
const STORE_LAYOUT_VERSION: i64 = 1;

/// The segment a fingerprint routes to in a `shards`-segment store.
/// Pure and deterministic (`fingerprint % shards`): the same fingerprint
/// always lands in the same segment, so per-shard first-wins dedup is
/// exactly global first-wins dedup.
pub fn shard_for(fingerprint: u64, shards: usize) -> usize {
    (fingerprint % shards.max(1) as u64) as usize
}

/// Path of segment `k` inside a sharded store directory.
pub fn segment_path(dir: &Path, segment: usize) -> PathBuf {
    dir.join(format!("segment-{segment}.jsonl"))
}

/// Reads the shard count from a sharded store directory's manifest.
pub fn read_store_meta(dir: &Path) -> Result<usize, String> {
    let path = dir.join(META_FILE);
    let source = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let fields = parse_object(source.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let shards = fields
        .iter()
        .find(|(k, _)| k == "shards")
        .and_then(|(_, v)| v.as_int())
        .ok_or_else(|| format!("{}: missing `shards` field", path.display()))?;
    usize::try_from(shards)
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{}: bad shard count {shards}", path.display()))
}

fn write_store_meta(dir: &Path, shards: usize) -> Result<(), String> {
    let mut w = ObjectWriter::new();
    w.field_int("version", STORE_LAYOUT_VERSION);
    w.field_int("shards", shards as i64);
    let path = dir.join(META_FILE);
    std::fs::write(&path, format!("{}\n", w.finish()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One entry of the in-memory per-shard index.
#[derive(Debug)]
enum Slot {
    /// Record held in memory (fresh insert, scan load, or lazy load).
    /// `offset` is the record's byte offset in its segment (`None` when
    /// the store is unpersisted or the append was degraded away);
    /// `digest` is the FNV hash of the serialized line.
    Loaded {
        record: Arc<CellResult>,
        offset: Option<u64>,
        digest: u64,
    },
    /// Known from the sidecar index but not yet read from the segment —
    /// this is what makes a warm `open` cheap: the record's ~0.7 kB JSON
    /// line is only parsed if some campaign actually asks for it.
    OnDisk { offset: u64, digest: u64 },
}

#[derive(Debug)]
struct ShardWriter {
    file: BufWriter<File>,
    /// Byte length of the segment *including* buffered-but-unflushed
    /// appends — the offset the next record lands at.
    offset: u64,
    /// Records accepted but not yet serialized or written.  `insert`
    /// just parks the `Arc` here; the next
    /// [`ResultStore::sync`] serializes, appends and flushes the whole
    /// batch — that is what keeps the insert critical path off the
    /// serialization and syscall costs.
    pending: Vec<Arc<CellResult>>,
}

/// One shard: an index partition plus its own segment writer, so
/// concurrent campaign workers appending to different shards share no
/// lock at all.
#[derive(Debug)]
struct Shard {
    index: Mutex<HashMap<u64, Slot>>,
    writer: Option<Mutex<ShardWriter>>,
    path: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    persist_errors: AtomicU64,
}

impl Shard {
    fn memory() -> Self {
        Self {
            index: Mutex::new(HashMap::new()),
            writer: None,
            path: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
        }
    }

    fn lock_index(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Slot>> {
        // A poisoned index lock is recovered, not propagated: the index
        // is a content-addressed map filled first-wins, so whatever a
        // panicking thread managed to insert is a complete, valid record.
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Everything a segment scan recovers for one shard.
struct SegmentLoad {
    index: HashMap<u64, Slot>,
    recovered: Option<TornTail>,
}

/// A content-addressed map from cell fingerprints to results, optionally
/// backed by a store directory (`segment-<k>.jsonl` segments, shard =
/// `fingerprint % N`, plus a sidecar `index.jsonl` that makes reopening
/// O(index) instead of O(records)).
///
/// Thread-safe: campaign workers probe and fill it concurrently, and
/// writers on different shards never contend.  On a fingerprint
/// collision between an existing and a new entry the existing one wins —
/// results are deterministic functions of their address, so the two are
/// identical anyway.
#[derive(Debug)]
pub struct ResultStore {
    shards: Vec<Shard>,
    /// The store directory; `None` for an in-memory store.
    path: Option<PathBuf>,
    /// Set after the first failed append: the store keeps serving (and
    /// accepting) results in memory but stops touching the sick files.
    persist_disabled: AtomicBool,
    persist_error: Mutex<Option<String>>,
    recovered_tails: Vec<TornTail>,
    /// Whether `open` was served by the sidecar index (telemetry for the
    /// open-latency bench and the staleness tests).
    opened_from_sidecar: bool,
    /// Whether the sidecar no longer reflects the segments (fresh
    /// appends, or an open that had to fall back to a scan).  `sync`
    /// rewrites the sidecar only when this is set.
    sidecar_stale: AtomicBool,
}

impl ResultStore {
    /// An unpersisted store (results live for the process only), sharded
    /// [`DEFAULT_STORE_SHARDS`] ways so concurrent lookups and inserts
    /// spread over independent locks.
    pub fn in_memory() -> Self {
        Self::in_memory_with_shards(DEFAULT_STORE_SHARDS)
    }

    /// An unpersisted store with an explicit shard count (≥ 1; `shards =
    /// 1` puts every fingerprint behind one index lock).
    pub fn in_memory_with_shards(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Shard::memory()).collect(),
            path: None,
            persist_disabled: AtomicBool::new(false),
            persist_error: Mutex::new(None),
            recovered_tails: Vec::new(),
            opened_from_sidecar: false,
            sidecar_stale: AtomicBool::new(false),
        }
    }

    /// Opens (or creates) a persistent store at `path`; a new store gets
    /// [`DEFAULT_STORE_SHARDS`] segments.  See
    /// [`ResultStore::open_sharded`].
    ///
    /// A malformed *final* line (the footprint of a crash mid-append) is
    /// truncated away with a warning instead of bricking the store;
    /// malformed interior lines are still hard errors.  See
    /// [`ResultStore::recovered_tails`] for the discarded tails, if any.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_sharded(path, DEFAULT_STORE_SHARDS)
    }

    /// Opens (or creates) a persistent store at `path`; a new store gets
    /// `shards` segments.  When the sidecar index is missing or stale,
    /// every segment is scanned, one scoped thread per segment.
    ///
    /// * `path` missing — a fresh store directory with `shards` segments
    ///   is created.
    /// * `path` is an existing store directory — its manifest's shard
    ///   count wins and `shards` is ignored.
    /// * `path` is a single JSONL file written by an older release — it
    ///   is migrated in place into `shards` segments: the file is renamed
    ///   to `<name>.migrating`, the directory is built at `path`, and the
    ///   backup is removed.  If a crash interrupts that, the next open
    ///   finds the backup, removes the half-built directory, restores
    ///   the file and migrates again.
    pub fn open_sharded(path: impl Into<PathBuf>, shards: usize) -> Result<Self, String> {
        let path = path.into();
        if shards == 0 {
            return Err("store shard count must be at least 1".to_string());
        }
        restore_interrupted_migration(&path)?;
        if path.is_file() {
            migrate_legacy_store(&path, shards)?;
        }
        Self::open_dir(path, shards)
    }

    /// Opens a store directory, creating it with `shards` segments if
    /// absent.  The sidecar index is used when it is present and
    /// consistent with the segments; otherwise every segment is scanned
    /// (in parallel) with per-segment torn-tail recovery.
    fn open_dir(dir: PathBuf, shards: usize) -> Result<Self, String> {
        let shards = if dir.is_dir() {
            read_store_meta(&dir)?
        } else {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            write_store_meta(&dir, shards)?;
            for k in 0..shards {
                let path = segment_path(&dir, k);
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            shards
        };

        let mut recovered_tails = Vec::new();
        let (indexes, opened_from_sidecar) = match load_sidecar(&dir, shards)? {
            Some(indexes) => (indexes, true),
            None => {
                let loads = scan_segments(&dir, shards)?;
                let mut indexes = Vec::with_capacity(shards);
                for load in loads {
                    if let Some(tail) = load.recovered {
                        recovered_tails.push(tail);
                    }
                    indexes.push(load.index);
                }
                (indexes, false)
            }
        };

        let mut store_shards = Vec::with_capacity(shards);
        for (k, index) in indexes.into_iter().enumerate() {
            let path = segment_path(&dir, k);
            let writer = open_segment_writer(&path)?;
            store_shards.push(Shard {
                index: Mutex::new(index),
                writer: Some(Mutex::new(writer)),
                path: Some(path),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                persist_errors: AtomicU64::new(0),
            });
        }
        Ok(Self {
            shards: store_shards,
            path: Some(dir),
            persist_disabled: AtomicBool::new(false),
            persist_error: Mutex::new(None),
            recovered_tails,
            opened_from_sidecar,
            // A scan-opened store heals its sidecar at the next sync.
            sidecar_stale: AtomicBool::new(!opened_from_sidecar),
        })
    }

    /// Number of shards (for a persistent store, its segment count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether `open` was served by the sidecar index (no segment
    /// replay).  Always `false` for in-memory stores.
    pub fn opened_from_sidecar(&self) -> bool {
        self.opened_from_sidecar
    }

    /// The first torn tail `open` truncated away, if any backing segment
    /// had one.
    pub fn recovered_tail(&self) -> Option<&TornTail> {
        self.recovered_tails.first()
    }

    /// Every torn tail `open` truncated away, one per affected segment.
    pub fn recovered_tails(&self) -> &[TornTail] {
        &self.recovered_tails
    }

    /// The first append error, if persistence has degraded to in-memory.
    pub fn persist_error(&self) -> Option<String> {
        self.persist_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The store directory, if the store persists.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Looks up a result by fingerprint, counting a hit or miss on the
    /// fingerprint's shard.  The record is cloned *outside* the shard's
    /// index lock (the index holds `Arc`s), so a large result never
    /// extends the critical section concurrent inserters wait on.
    pub fn lookup(&self, fingerprint: u64) -> Option<CellResult> {
        let shard_idx = shard_for(fingerprint, self.shards.len());
        let shard = &self.shards[shard_idx];
        match self.slot_record(shard_idx, fingerprint) {
            Some(record) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some((*record).clone())
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Resolves a fingerprint to its record, lazily reading sidecar-only
    /// entries from their segment (outside the index lock — two threads
    /// racing to load the same cold entry both parse identical bytes).
    fn slot_record(&self, shard_idx: usize, fingerprint: u64) -> Option<Arc<CellResult>> {
        let shard = &self.shards[shard_idx];
        let (offset, digest) = {
            let index = shard.lock_index();
            match index.get(&fingerprint) {
                None => return None,
                Some(Slot::Loaded { record, .. }) => return Some(Arc::clone(record)),
                Some(Slot::OnDisk { offset, digest }) => (*offset, *digest),
            }
        };
        match self.read_segment_record(shard_idx, fingerprint, offset, digest) {
            Ok(record) => {
                let record = Arc::new(record);
                shard.lock_index().insert(
                    fingerprint,
                    Slot::Loaded {
                        record: Arc::clone(&record),
                        offset: Some(offset),
                        digest,
                    },
                );
                Some(record)
            }
            Err(error) => {
                // A sidecar entry that does not match its segment bytes:
                // the sidecar lied (manual edits, a replaced segment).
                // Rescan the one affected segment and serve from truth.
                eprintln!(
                    "warning: result store {}: sidecar entry {fingerprint:016x} \
                     does not match segment {shard_idx} ({error}); rescanning the segment",
                    self.path.as_deref().unwrap_or(Path::new("?")).display()
                );
                self.rescan_shard(shard_idx);
                let index = shard.lock_index();
                match index.get(&fingerprint) {
                    Some(Slot::Loaded { record, .. }) => Some(Arc::clone(record)),
                    _ => None,
                }
            }
        }
    }

    /// Reads and verifies one record at a known segment offset.
    fn read_segment_record(
        &self,
        shard_idx: usize,
        fingerprint: u64,
        offset: u64,
        digest: u64,
    ) -> Result<CellResult, String> {
        let path = self.shards[shard_idx]
            .path
            .as_deref()
            .ok_or("no backing segment")?;
        let mut file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| format!("{}: seek {offset}: {e}", path.display()))?;
        let mut line = Vec::new();
        BufReader::new(file)
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        while line.last().is_some_and(|b| matches!(b, b'\n' | b'\r')) {
            line.pop();
        }
        if hash_bytes(&line) != digest {
            return Err(format!("digest mismatch at offset {offset}"));
        }
        let text = std::str::from_utf8(&line).map_err(|e| format!("invalid UTF-8: {e}"))?;
        let record = CellResult::from_line(text)?;
        if record.fingerprint != fingerprint {
            return Err(format!(
                "fingerprint mismatch at offset {offset}: found {:016x}",
                record.fingerprint
            ));
        }
        Ok(record)
    }

    /// Rebuilds one shard's index from its segment file, keeping every
    /// in-memory (`Loaded`) entry — those are this session's inserts,
    /// possibly still buffered in the writer, and must not be lost.
    fn rescan_shard(&self, shard_idx: usize) {
        let shard = &self.shards[shard_idx];
        let Some(path) = shard.path.clone() else {
            return;
        };
        // Write out anything still pending or buffered so the reload
        // sees the complete segment (a drain failure degrades the store
        // and leaves the remainder served from memory).
        let _ = self.drain_shard(shard_idx);
        let mut tails = Vec::new();
        match load_segment(&path, &mut tails) {
            Ok(load) => {
                let mut index = shard.lock_index();
                let mut rebuilt = load.index;
                for (fingerprint, slot) in index.drain() {
                    if matches!(slot, Slot::Loaded { .. }) {
                        rebuilt.insert(fingerprint, slot);
                    }
                }
                *index = rebuilt;
                self.sidecar_stale.store(true, Ordering::Release);
            }
            Err(error) => {
                eprintln!(
                    "warning: result store segment {} failed to rescan: {error}",
                    path.display()
                );
            }
        }
    }

    /// Stores a result under its fingerprint.  A result already present
    /// under the same fingerprint is kept and not re-appended.
    ///
    /// Serialization and the append itself are deferred to
    /// [`ResultStore::sync`] (one batch per campaign): the insert
    /// critical path is a shard-index insert plus parking the `Arc` on
    /// the shard's pending queue, so concurrent writers spend no time
    /// on JSON formatting, digests or syscalls.  A failed append (full
    /// disk, EIO, revoked handle) surfaces at `sync` and must not kill a
    /// batch run or a daemon: the error is recorded, a warning is
    /// printed and the store degrades to in-memory.  The in-memory
    /// insert always succeeds, so this currently always returns `Ok`.
    pub fn insert(&self, record: CellResult) -> Result<(), String> {
        let shard = &self.shards[shard_for(record.fingerprint, self.shards.len())];
        let record = Arc::new(record);
        {
            let mut index = shard.lock_index();
            match index.entry(record.fingerprint) {
                std::collections::hash_map::Entry::Occupied(_) => return Ok(()),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(Slot::Loaded {
                        record: Arc::clone(&record),
                        offset: None,
                        digest: 0,
                    });
                }
            }
        }
        if self.persist_disabled.load(Ordering::Acquire) {
            return Ok(());
        }
        if let Some(writer) = &shard.writer {
            writer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pending
                .push(record);
            self.sidecar_stale.store(true, Ordering::Release);
        }
        Ok(())
    }

    /// Registers a persistence failure on a shard: counts it, degrades
    /// the whole store to in-memory (first failure wins) and returns the
    /// formatted message.
    fn record_persist_failure(&self, shard_idx: usize, error: &str) -> String {
        let shard = &self.shards[shard_idx];
        let message = match shard.path.as_deref().or(self.path.as_deref()) {
            Some(path) => format!("{}: {error}", path.display()),
            None => error.to_string(),
        };
        shard.persist_errors.fetch_add(1, Ordering::Relaxed);
        if !self.persist_disabled.swap(true, Ordering::AcqRel) {
            eprintln!(
                "warning: result store append failed ({message}); \
                 degrading to in-memory for the rest of this process"
            );
            *self
                .persist_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(message.clone());
        }
        message
    }

    /// Drains one shard's pending queue — serializes each parked
    /// record, appends it, backfills its slot's offset and digest —
    /// then flushes the segment writer.  This is where a sharded
    /// store's per-record serialization, digest and I/O costs actually
    /// land, amortized to one batch per [`ResultStore::sync`].
    fn drain_shard(&self, shard_idx: usize) -> Result<(), String> {
        let shard = &self.shards[shard_idx];
        let Some(writer) = &shard.writer else {
            return Ok(());
        };
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let pending = std::mem::take(&mut w.pending);
        let mut written: Vec<(u64, u64, u64)> = Vec::with_capacity(pending.len());
        let mut failed = None;
        for record in pending {
            let line = record.to_line();
            let digest = hash_bytes(line.as_bytes());
            let offset = w.offset;
            let result = w
                .file
                .write_all(line.as_bytes())
                .and_then(|()| w.file.write_all(b"\n"));
            match result {
                Ok(()) => {
                    w.offset = offset + line.len() as u64 + 1;
                    written.push((record.fingerprint, offset, digest));
                }
                Err(e) => {
                    // Undrained records stay `Loaded` with no offset:
                    // served from memory, excluded from the sidecar.
                    failed = Some(e.to_string());
                    break;
                }
            }
        }
        if failed.is_none() {
            if let Err(e) = w.file.flush() {
                failed = Some(e.to_string());
            }
        }
        drop(w);
        if !written.is_empty() {
            let mut index = shard.lock_index();
            for (fingerprint, offset, digest) in written {
                if let Some(Slot::Loaded {
                    offset: slot_offset,
                    digest: slot_digest,
                    ..
                }) = index.get_mut(&fingerprint)
                {
                    *slot_offset = Some(offset);
                    *slot_digest = digest;
                }
            }
        }
        match failed {
            Some(error) => Err(self.record_persist_failure(shard_idx, &error)),
            None => Ok(()),
        }
    }

    /// Serializes, appends and flushes every shard's pending records
    /// and, when the sidecar index is stale, atomically rewrites it
    /// (tmp + rename) so the next `open` skips the segment replay.
    /// Called by the campaign runner at the end of every campaign and
    /// by `Drop`; safe (and cheap) to call at any time.
    pub fn sync(&self) -> Result<(), String> {
        if self.persist_disabled.load(Ordering::Acquire) {
            return Ok(());
        }
        for shard_idx in 0..self.shards.len() {
            self.drain_shard(shard_idx)?;
        }
        let Some(dir) = self.path.as_deref() else {
            return Ok(());
        };
        if self.sidecar_stale.load(Ordering::Acquire) {
            self.write_sidecar(dir).map_err(|e| {
                let message = format!("sidecar index: {e}");
                eprintln!(
                    "warning: result store {}: {message} — the next open will \
                     fall back to a segment scan",
                    dir.display()
                );
                message
            })?;
            self.sidecar_stale.store(false, Ordering::Release);
        }
        Ok(())
    }

    /// Writes the sidecar index: a header, one length line per segment
    /// (the staleness check), and one entry per persisted record, sorted
    /// by (segment, offset) so rewrites are deterministic.
    fn write_sidecar(&self, dir: &Path) -> Result<(), String> {
        let mut lengths = Vec::with_capacity(self.shards.len());
        let mut entries: Vec<(usize, u64, u64, u64)> = Vec::new();
        for (k, shard) in self.shards.iter().enumerate() {
            let length = match &shard.writer {
                Some(writer) => writer.lock().unwrap_or_else(PoisonError::into_inner).offset,
                None => 0,
            };
            lengths.push(length);
            let index = shard.lock_index();
            for (fingerprint, slot) in index.iter() {
                match slot {
                    Slot::Loaded {
                        offset: Some(offset),
                        digest,
                        ..
                    }
                    | Slot::OnDisk { offset, digest } => {
                        entries.push((k, *offset, *fingerprint, *digest));
                    }
                    // Never persisted (append degraded away): the record
                    // is not in any segment, so it must not be indexed.
                    Slot::Loaded { offset: None, .. } => {}
                }
            }
        }
        entries.sort_unstable();
        let mut out = String::new();
        let mut header = ObjectWriter::new();
        header.field_str("record", "header");
        header.field_int("version", STORE_LAYOUT_VERSION);
        header.field_int("shards", self.shards.len() as i64);
        header.field_int("entries", entries.len() as i64);
        out.push_str(&header.finish());
        out.push('\n');
        for (k, length) in lengths.iter().enumerate() {
            let mut w = ObjectWriter::new();
            w.field_str("record", "segment");
            w.field_int("segment", k as i64);
            w.field_int("bytes", *length as i64);
            out.push_str(&w.finish());
            out.push('\n');
        }
        for (segment, offset, fingerprint, digest) in entries {
            out.push_str(&sidecar_entry_line(fingerprint, segment, offset, digest));
            out.push('\n');
        }
        let tmp = dir.join(format!("{SIDECAR_FILE}.tmp"));
        std::fs::write(&tmp, out).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, dir.join(SIDECAR_FILE)).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            format!("renaming {}: {e}", tmp.display())
        })
    }

    /// Snapshot of the aggregate hit/miss counters and entry count,
    /// summed over every shard.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for stats in self.shard_stats() {
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.entries += stats.entries;
            total.persist_errors += stats.persist_errors;
        }
        total
    }

    /// Per-shard counter snapshots, index-aligned with the segment
    /// files; the aggregate [`ResultStore::stats`] is their sum.
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards
            .iter()
            .map(|shard| StoreStats {
                hits: shard.hits.load(Ordering::Relaxed),
                misses: shard.misses.load(Ordering::Relaxed),
                entries: shard.lock_index().len(),
                persist_errors: shard.persist_errors.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        // Close = flush + sidecar rebuild.  Failures already degraded
        // and warned inside sync; a drop must never panic over them.
        let _ = self.sync();
    }
}

/// Formats one sidecar entry line.
fn sidecar_entry_line(fingerprint: u64, segment: usize, offset: u64, digest: u64) -> String {
    let mut w = ObjectWriter::new();
    w.field_str("record", "entry");
    w.field_u64_hex("fingerprint", fingerprint);
    w.field_int("segment", segment as i64);
    w.field_int("offset", offset as i64);
    w.field_u64_hex("digest", digest);
    w.finish()
}

/// Opens a segment file for appending, returning its writer positioned
/// at the current end.
fn open_segment_writer(path: &Path) -> Result<ShardWriter, String> {
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let offset = file
        .metadata()
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok(ShardWriter {
        file: BufWriter::new(file),
        offset,
        pending: Vec::new(),
    })
}

/// Loads one segment with torn-tail recovery applied *to the file*:
/// a torn final line is truncated away (with a warning), a torn-off
/// final newline is completed.  Recovered tails are appended to `tails`.
fn load_segment(path: &Path, tails: &mut Vec<TornTail>) -> Result<SegmentLoad, String> {
    if !path.exists() {
        return Ok(SegmentLoad {
            index: HashMap::new(),
            recovered: None,
        });
    }
    let loaded = load_records_recovering(path)?;
    if let Some(tail) = &loaded.torn_tail {
        eprintln!(
            "warning: result store segment {}: discarding torn final line {} \
             ({} bytes; {}) — truncating to the last good record",
            path.display(),
            tail.line,
            tail.discarded_bytes,
            tail.error
        );
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        file.set_len(loaded.valid_len)
            .map_err(|e| format!("{}: truncating torn tail: {e}", path.display()))?;
    }
    if loaded.missing_newline {
        // The last record is intact but its newline was torn off;
        // complete the line so the next append starts fresh.
        let mut file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(b"\n")
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: completing final line: {e}", path.display()))?;
    }
    let mut index = HashMap::with_capacity(loaded.records.len());
    for ((record, offset), digest) in loaded
        .records
        .into_iter()
        .zip(loaded.offsets)
        .zip(loaded.digests)
    {
        index.entry(record.fingerprint).or_insert(Slot::Loaded {
            record: Arc::new(record),
            offset: Some(offset),
            digest,
        });
    }
    let recovered = loaded.torn_tail;
    if let Some(tail) = &recovered {
        tails.push(tail.clone());
    }
    Ok(SegmentLoad { index, recovered })
}

/// Scans every segment of a sharded store, one scoped thread per segment.
fn scan_segments(dir: &Path, shards: usize) -> Result<Vec<SegmentLoad>, String> {
    let paths: Vec<PathBuf> = (0..shards).map(|k| segment_path(dir, k)).collect();
    let slots: Vec<OnceLock<Result<SegmentLoad, String>>> =
        (0..shards).map(|_| OnceLock::new()).collect();
    let scan = |k: usize| {
        let mut tails = Vec::new();
        let result = load_segment(&paths[k], &mut tails).map(|mut load| {
            load.recovered = tails.into_iter().next();
            load
        });
        assert!(slots[k].set(result).is_ok(), "segment scanned twice");
    };
    std::thread::scope(|s| {
        for k in 0..shards {
            let scan = &scan;
            s.spawn(move || scan(k));
        }
    });
    let mut loads = Vec::with_capacity(shards);
    for (k, slot) in slots.into_iter().enumerate() {
        loads.push(
            slot.into_inner()
                .expect("every segment was scanned")
                .map_err(|e| format!("segment {k}: {e}"))?,
        );
    }
    Ok(loads)
}

/// Loads the sidecar index of a sharded store, returning per-shard index
/// maps of [`Slot::OnDisk`] entries — or `None` when the sidecar is
/// missing or stale (segment lengths drifted, shard count mismatch, a
/// misrouted entry), in which case the caller falls back to a scan.
fn load_sidecar(dir: &Path, shards: usize) -> Result<Option<Vec<HashMap<u64, Slot>>>, String> {
    let path = dir.join(SIDECAR_FILE);
    let source = match std::fs::read_to_string(&path) {
        Ok(source) => source,
        Err(_) => return Ok(None),
    };
    let mut lines = source.lines().filter(|l| !l.trim().is_empty());
    let Some(header) = lines.next() else {
        return Ok(None);
    };
    let Ok(fields) = parse_object(header) else {
        return Ok(None);
    };
    let field = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_int())
    };
    if field("version") != Some(STORE_LAYOUT_VERSION) || field("shards") != Some(shards as i64) {
        return Ok(None);
    }
    let Some(entry_count) = field("entries").and_then(|n| usize::try_from(n).ok()) else {
        return Ok(None);
    };

    // Staleness check: every segment must be exactly as long as the
    // sidecar remembers — longer means un-indexed appends (a crash
    // before sync), shorter means truncation.  Either way: scan.
    let mut lengths = vec![None::<u64>; shards];
    let mut indexes: Vec<HashMap<u64, Slot>> = (0..shards).map(|_| HashMap::new()).collect();
    let mut entries_seen = 0usize;
    for line in lines {
        let Ok(fields) = parse_object(line) else {
            return Ok(None);
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match get("record").and_then(|v| v.as_str()) {
            Some("segment") => {
                let (Some(segment), Some(bytes)) = (
                    get("segment").and_then(|v| v.as_int()),
                    get("bytes").and_then(|v| v.as_int()),
                ) else {
                    return Ok(None);
                };
                let Ok(segment) = usize::try_from(segment) else {
                    return Ok(None);
                };
                if segment >= shards || bytes < 0 {
                    return Ok(None);
                }
                lengths[segment] = Some(bytes as u64);
            }
            Some("entry") => {
                let (Some(fingerprint), Some(segment), Some(offset), Some(digest)) = (
                    get("fingerprint")
                        .and_then(|v| v.as_str())
                        .and_then(|s| u64::from_str_radix(s, 16).ok()),
                    get("segment").and_then(|v| v.as_int()),
                    get("offset").and_then(|v| v.as_int()),
                    get("digest")
                        .and_then(|v| v.as_str())
                        .and_then(|s| u64::from_str_radix(s, 16).ok()),
                ) else {
                    return Ok(None);
                };
                let Ok(segment) = usize::try_from(segment) else {
                    return Ok(None);
                };
                // A misrouted entry would be invisible to lookups (which
                // route by fingerprint): reject the whole sidecar.
                if segment != shard_for(fingerprint, shards) || offset < 0 {
                    return Ok(None);
                }
                entries_seen += 1;
                indexes[segment].entry(fingerprint).or_insert(Slot::OnDisk {
                    offset: offset as u64,
                    digest,
                });
            }
            _ => return Ok(None),
        }
    }
    if entries_seen != entry_count {
        return Ok(None);
    }
    for (k, expected) in lengths.iter().enumerate() {
        let Some(expected) = expected else {
            return Ok(None);
        };
        let actual = std::fs::metadata(segment_path(dir, k))
            .map(|m| m.len())
            .unwrap_or(u64::MAX);
        if actual != *expected {
            return Ok(None);
        }
    }
    Ok(Some(indexes))
}

/// Where [`migrate_legacy_store`] parks a single-file store while the
/// directory is built in its place.
fn migration_backup(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".migrating");
    path.with_file_name(name)
}

/// Undoes a migration a crash interrupted: while the backup exists, the
/// directory at `path` may lack segments or the sidecar, so it is
/// removed and the single file is put back for a fresh migration.
fn restore_interrupted_migration(path: &Path) -> Result<(), String> {
    let backup = migration_backup(path);
    if !backup.is_file() {
        return Ok(());
    }
    if path.is_dir() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    } else if path.exists() {
        return Err(format!(
            "{} and the interrupted-migration backup {} both exist; remove one",
            path.display(),
            backup.display()
        ));
    }
    std::fs::rename(&backup, path)
        .map_err(|e| format!("{} -> {}: {e}", backup.display(), path.display()))?;
    eprintln!(
        "note: result store {}: redoing a migration that was interrupted",
        path.display()
    );
    Ok(())
}

/// Migrates a single-file store into a store directory, in place:
/// records are routed to `segment-<k>.jsonl` by fingerprint, the
/// manifest and sidecar are written, and the file is removed.  The file
/// is first renamed to its [`migration_backup`], which is removed only
/// once the directory is complete; a crash in between is undone by
/// [`restore_interrupted_migration`] at the next open.
fn migrate_legacy_store(path: &Path, shards: usize) -> Result<(), String> {
    let loaded = load_records_recovering(path)?;
    if let Some(tail) = &loaded.torn_tail {
        eprintln!(
            "warning: result store {}: dropping torn final line {} ({} bytes; {}) \
             during migration to {} segment(s)",
            path.display(),
            tail.line,
            tail.discarded_bytes,
            tail.error,
            shards
        );
    }
    let backup = migration_backup(path);
    std::fs::rename(path, &backup)
        .map_err(|e| format!("{} -> {}: {e}", path.display(), backup.display()))?;
    let built = write_sharded_layout(path, shards, &loaded.records);
    match built {
        Ok(()) => {
            // A backup left behind would make the next open redo the
            // migration over records added since, so failing is safer.
            std::fs::remove_file(&backup).map_err(|e| format!("{}: {e}", backup.display()))?;
            eprintln!(
                "note: migrated legacy result store {} into {} segment(s)",
                path.display(),
                shards
            );
            Ok(())
        }
        Err(e) => {
            // Roll back: the legacy file returns, the half-built
            // directory goes.
            std::fs::remove_dir_all(path).ok();
            std::fs::rename(&backup, path).ok();
            Err(format!("migrating {}: {e}", path.display()))
        }
    }
}

/// Writes a complete sharded store directory (manifest, segments,
/// sidecar) from an ordered record list.  Records keep their relative
/// order within each segment; sidecar entries are first-wins per
/// fingerprint, matching load semantics.
fn write_sharded_layout(dir: &Path, shards: usize, records: &[CellResult]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    write_store_meta(dir, shards)?;
    let mut segments: Vec<String> = vec![String::new(); shards];
    let mut entries: Vec<(usize, u64, u64, u64)> = Vec::new();
    let mut seen = std::collections::HashSet::with_capacity(records.len());
    for record in records {
        let k = shard_for(record.fingerprint, shards);
        let line = record.to_line();
        let offset = segments[k].len() as u64;
        if seen.insert(record.fingerprint) {
            entries.push((k, offset, record.fingerprint, hash_bytes(line.as_bytes())));
        }
        segments[k].push_str(&line);
        segments[k].push('\n');
    }
    for (k, contents) in segments.iter().enumerate() {
        let path = segment_path(dir, k);
        let tmp = dir.join(format!("segment-{k}.jsonl.tmp"));
        std::fs::write(&tmp, contents).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            format!("renaming {}: {e}", tmp.display())
        })?;
    }
    entries.sort_unstable();
    let mut out = String::new();
    let mut header = ObjectWriter::new();
    header.field_str("record", "header");
    header.field_int("version", STORE_LAYOUT_VERSION);
    header.field_int("shards", shards as i64);
    header.field_int("entries", entries.len() as i64);
    out.push_str(&header.finish());
    out.push('\n');
    for (k, contents) in segments.iter().enumerate() {
        let mut w = ObjectWriter::new();
        w.field_str("record", "segment");
        w.field_int("segment", k as i64);
        w.field_int("bytes", contents.len() as i64);
        out.push_str(&w.finish());
        out.push('\n');
    }
    for (segment, offset, fingerprint, digest) in entries {
        out.push_str(&sidecar_entry_line(fingerprint, segment, offset, digest));
        out.push('\n');
    }
    let tmp = dir.join(format!("{SIDECAR_FILE}.tmp"));
    std::fs::write(&tmp, out).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, dir.join(SIDECAR_FILE)).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        format!("renaming {}: {e}", tmp.display())
    })
}

/// Compacts a store directory: every segment is rewritten with
/// first-wins fingerprint dedup applied *across* shards (in segment,
/// then offset order), records sitting in the wrong segment (the
/// footprint of a hand-assembled store) are re-routed home, torn tails
/// are dropped, and the sidecar index is rebuilt atomically.  Given a
/// single-file store from an older release, it first migrates the file
/// into [`DEFAULT_STORE_SHARDS`] segments, as [`ResultStore::open`]
/// would.
///
/// Returns one [`CompactionStats`] per shard: `kept` counts the records
/// the segment holds *after* compaction, `dropped` counts the records
/// removed *from* that segment (shadowed duplicates, its torn tail, and
/// records re-routed elsewhere are accounted where they were found).
///
/// Do not compact a store another process has open for appending — the
/// renames strand that process's handles on the replaced inodes.
pub fn compact_sharded_store(dir: &Path) -> Result<Vec<CompactionStats>, String> {
    restore_interrupted_migration(dir)?;
    if dir.is_file() {
        migrate_legacy_store(dir, DEFAULT_STORE_SHARDS)?;
    }
    let shards = read_store_meta(dir)?;
    let mut routed: Vec<Vec<CellResult>> = (0..shards).map(|_| Vec::new()).collect();
    let mut kept_from = vec![0usize; shards];
    let mut found_in = vec![0usize; shards];
    let mut torn = vec![0usize; shards];
    let mut seen = std::collections::HashSet::new();
    for k in 0..shards {
        let path = segment_path(dir, k);
        if !path.exists() {
            continue;
        }
        let loaded = load_records_recovering(&path)?;
        torn[k] = usize::from(loaded.torn_tail.is_some());
        found_in[k] = loaded.records.len();
        for record in loaded.records {
            if seen.insert(record.fingerprint) {
                let home = shard_for(record.fingerprint, shards);
                if home == k {
                    kept_from[k] += 1;
                }
                routed[home].push(record);
            }
        }
    }
    let ordered: Vec<CellResult> = {
        // write_sharded_layout routes by fingerprint itself; feed it the
        // records in global first-wins order, flattened per segment so
        // relative order within a segment is preserved.
        routed.into_iter().flatten().collect()
    };
    write_sharded_layout(dir, shards, &ordered)?;
    let mut stats = Vec::with_capacity(shards);
    let mut kept_in = vec![0usize; shards];
    for record in &ordered {
        kept_in[shard_for(record.fingerprint, shards)] += 1;
    }
    for k in 0..shards {
        stats.push(CompactionStats {
            kept: kept_in[k],
            dropped: found_in[k] + torn[k] - kept_from[k],
        });
    }
    Ok(stats)
}

/// Reads every record of a store directory (or of a single JSONL file)
/// with the strict reader (any malformed line is an error).  A
/// directory is read segment by segment in segment order.
pub fn read_store_records(path: &Path) -> Result<Vec<CellResult>, String> {
    if !path.is_dir() {
        return read_records(path);
    }
    let shards = read_store_meta(path)?;
    let mut records = Vec::new();
    for k in 0..shards {
        let segment = segment_path(path, k);
        if segment.exists() {
            records.extend(read_records(&segment)?);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::Scenario;
    use dmpb_core::{DagExecutor, ProxyGenerator};
    use dmpb_workloads::ClusterConfig;

    fn sample_result() -> CellResult {
        let cell = Scenario::with_defaults("store-test").expand()[0].clone();
        let report = ProxyGenerator::new(cell.tuning_cluster()).generate_kind(cell.kind);
        let run = ProxyRun::execute(report, &DagExecutor::new(), cell.elements, cell.seed);
        CellResult::compute(&cell, &run, 1)
    }

    #[test]
    fn cell_runtimes_equal_fresh_measurements_bit_for_bit() {
        let same_cluster = Scenario::with_defaults("same-cluster").expand()[0].clone();
        let mut cross = Scenario::with_defaults("cross-architecture");
        cross.workloads = vec![same_cluster.kind];
        cross.clusters = vec!["three-node-westmere-64gb".to_string()];
        cross.architectures = vec!["westmere".to_string(), "haswell".to_string()];
        cross.tuning_cluster = Some(ClusterConfig::NAMES[0].to_string());
        let mut cells = vec![same_cluster];
        cells.extend(cross.expand());
        assert_eq!(cells.len(), 3);

        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let report = generator.generate_kind(cells[0].kind);
        for cell in &cells {
            assert_eq!(cell.tuning_cluster(), generator.cluster);
            let run = ProxyRun::execute(
                report.clone(),
                &DagExecutor::new(),
                cell.elements,
                cell.seed,
            );
            let result = CellResult::compute(cell, &run, 1);
            let cluster = cell.cluster();
            let real = workload_by_kind(cell.kind).measure(&cluster).runtime_secs;
            let proxy = run.report.proxy.measure(&cluster.node.arch).runtime_secs;
            let name = format!("{} on {}", cell.cluster_name, cell.architecture);
            assert_eq!(
                result.cell_real_runtime_secs.to_bits(),
                real.to_bits(),
                "{name}"
            );
            assert_eq!(
                result.cell_proxy_runtime_secs.to_bits(),
                proxy.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn serialization_round_trips_exactly() {
        let result = sample_result();
        let line = result.to_line();
        let back = CellResult::from_line(&line).unwrap();
        assert_eq!(back, result);
        assert_eq!(
            back.to_line(),
            line,
            "re-serialization must be byte-identical"
        );
        assert_eq!(back.digest(), result.digest());
        assert!(!result.accuracies.is_empty());
        assert_eq!(
            result.accuracy_for(&result.worst_metric),
            Some(result.worst_accuracy)
        );
    }

    #[test]
    fn population_results_round_trip_and_tolerate_absence() {
        let mut result = sample_result();
        result.population = Some(PopulationResult {
            spec_hash: 0xABCD_EF01_2345_6789,
            rank: 42,
            member_hash: 0x1122_3344_5566_7788,
            family: "fork-join".to_string(),
            label: "synthetic-fork-join-0042".to_string(),
        });
        let line = result.to_line();
        assert!(line.contains("\"pop_spec\""), "{line}");
        let back = CellResult::from_line(&line).unwrap();
        assert_eq!(back, result);
        assert_eq!(back.to_line(), line);

        // A line with no pop_* fields parses as a named-workload cell.
        let named = sample_result();
        let back = CellResult::from_line(&named.to_line()).unwrap();
        assert_eq!(back.population, None);

        // A partial population group is corruption, not a named cell.
        let partial = line.replace("\"pop_rank\":42,", "");
        let err = CellResult::from_line(&partial).unwrap_err();
        assert!(err.contains("pop_rank"), "{err}");
    }

    /// A synthetic cell that matches a named cell on every non-population
    /// axis (carrier kind, cluster, architecture, elements, seed) must
    /// neither be served the named cell's stored result nor shadow it —
    /// in memory and on disk.
    #[test]
    fn synthetic_cells_never_shadow_named_results_in_either_store_layout() {
        use dmpb_population::PopulationSpec;

        let mut scenario = Scenario::with_defaults("no-shadow");
        scenario.population = Some(PopulationSpec {
            size: 1,
            ..PopulationSpec::default()
        });
        let cells = scenario.expand();
        let synthetic = cells.last().unwrap().clone();
        assert!(synthetic.population.is_some());
        // The named twin: identical on every axis the old fingerprint saw.
        let mut named = synthetic.clone();
        named.population = None;
        let named_fp = named.fingerprint(crate::CODE_MODEL_VERSION);
        let synthetic_fp = synthetic.fingerprint(crate::CODE_MODEL_VERSION);
        assert_ne!(named_fp, synthetic_fp);

        let template = sample_result();
        let dir = temp_store_dir("no-shadow");
        let memory = ResultStore::in_memory();
        let sharded = ResultStore::open_sharded(dir.join("sharded"), 4).unwrap();
        for store in [&memory, &sharded] {
            // Direction 1: a stored named result is not served to the
            // synthetic cell.
            let mut named_result = template.clone();
            named_result.fingerprint = named_fp;
            store.insert(named_result.clone()).unwrap();
            assert_eq!(store.lookup(synthetic_fp), None);

            // Direction 2: storing the synthetic result afterwards does
            // not shadow (or mutate) the named one.
            let mut synthetic_result = template.clone();
            synthetic_result.fingerprint = synthetic_fp;
            synthetic_result.checksum ^= 0xFFFF;
            store.insert(synthetic_result.clone()).unwrap();
            assert_eq!(store.lookup(named_fp).unwrap(), named_result);
            assert_eq!(store.lookup(synthetic_fp).unwrap(), synthetic_result);
            store.sync().unwrap();
        }

        // Persistence keeps them distinct too.
        drop(sharded);
        let reopened = ResultStore::open(dir.join("sharded")).unwrap();
        assert_ne!(
            reopened.lookup(named_fp).unwrap().checksum,
            reopened.lookup(synthetic_fp).unwrap().checksum
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(CellResult::from_line("{}").is_err());
        assert!(CellResult::from_line("not json").is_err());
        let line = sample_result().to_line();
        let bad_workload = line.replace("\"workload\":\"TeraSort\"", "\"workload\":\"Quicksort\"");
        assert!(CellResult::from_line(&bad_workload).is_err());
        // Negative counts must error, not wrap into huge unsigned values.
        let negative = line.replace("\"elements\":2000", "\"elements\":-1");
        let err = CellResult::from_line(&negative).unwrap_err();
        assert!(err.contains("negative"), "{err}");
    }

    #[test]
    fn store_persists_and_reloads() {
        let result = sample_result();
        let dir = std::env::temp_dir().join(format!(
            "dmpb-store-test-{}-{:016x}",
            std::process::id(),
            result.digest()
        ));
        let path = dir.join("results");
        let store = ResultStore::open(&path).unwrap();
        assert!(path.is_dir(), "a new store is a directory");
        assert_eq!(store.lookup(result.fingerprint), None);
        store.insert(result.clone()).unwrap();
        store.insert(result.clone()).unwrap(); // dedup: not re-appended
        assert_eq!(store.stats().entries, 1);
        drop(store);

        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.stats().entries, 1);
        let served = reopened.lookup(result.fingerprint).unwrap();
        assert_eq!(served, result);
        assert_eq!(served.to_line(), result.to_line());
        let stats = reopened.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!(read_store_records(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hit_ratio_counts_lookups() {
        let store = ResultStore::in_memory();
        let result = sample_result();
        assert!(store.lookup(result.fingerprint).is_none());
        store.insert(result.clone()).unwrap();
        assert!(store.lookup(result.fingerprint).is_some());
        assert!(store.lookup(result.fingerprint).is_some());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_store_has_no_hit_ratio() {
        let idle = StoreStats::default();
        assert_eq!(idle.lookups(), 0);
        assert_eq!(idle.try_hit_ratio(), None);
        assert_eq!(idle.hit_ratio(), 0.0);
    }

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dmpb-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A fresh one-segment store directory with its sidecar removed, so
    /// the next open scans the segment.
    fn one_segment_store(tag: &str) -> (PathBuf, PathBuf) {
        let dir = temp_store_dir(tag);
        let store = dir.join("store");
        drop(ResultStore::open_sharded(&store, 1).unwrap());
        std::fs::remove_file(store.join(SIDECAR_FILE)).unwrap();
        (dir, store)
    }

    #[test]
    fn torn_newline_only_is_completed_on_reopen() {
        // The tear can land between the payload and its '\n': the record
        // is intact but appending blindly would glue two lines together.
        let result = sample_result();
        let (dir, store_dir) = one_segment_store("torn-newline");
        let segment = segment_path(&store_dir, 0);
        std::fs::write(&segment, result.to_line()).unwrap(); // no trailing '\n'

        let store = ResultStore::open(&store_dir).unwrap();
        assert_eq!(store.stats().entries, 1);
        assert!(store.recovered_tail().is_none());
        let mut second = result.clone();
        second.fingerprint ^= 0xbeef;
        store.insert(second).unwrap();
        drop(store);
        assert_eq!(read_records(&segment).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interior_corruption_is_still_a_hard_error() {
        let result = sample_result();
        let (dir, store_dir) = one_segment_store("interior");
        std::fs::write(
            segment_path(&store_dir, 0),
            format!("garbage not json\n{}\n", result.to_line()),
        )
        .unwrap();
        let err = ResultStore::open(&store_dir).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_failure_degrades_to_in_memory_without_panicking() {
        let result = sample_result();
        let dir = temp_store_dir("io-degrade");
        let path = segment_path(&dir, 0);
        std::fs::write(&path, "").unwrap();
        // A read-only handle makes every append fail with a real I/O
        // error (EBADF), standing in for a full disk or EIO.
        let shard = Shard {
            writer: Some(Mutex::new(ShardWriter {
                file: BufWriter::new(File::open(&path).unwrap()),
                offset: 0,
                pending: Vec::new(),
            })),
            path: Some(path.clone()),
            ..Shard::memory()
        };
        let store = ResultStore {
            shards: vec![shard],
            path: Some(dir.clone()),
            persist_disabled: AtomicBool::new(false),
            persist_error: Mutex::new(None),
            recovered_tails: Vec::new(),
            opened_from_sidecar: false,
            sidecar_stale: AtomicBool::new(false),
        };
        // The insert only parks the record; the append fails at sync.
        store.insert(result.clone()).unwrap();
        let err = store.sync().unwrap_err();
        assert!(err.contains("segment-0.jsonl"), "{err}");
        // The result is still served from memory; the error is recorded.
        assert_eq!(store.lookup(result.fingerprint).unwrap(), result);
        assert_eq!(store.stats().persist_errors, 1);
        assert!(store.persist_error().is_some());
        // Later inserts and syncs silently stay in memory (degraded, not
        // dead).
        let mut second = result.clone();
        second.fingerprint ^= 1;
        store.insert(second.clone()).unwrap();
        store.sync().unwrap();
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.stats().persist_errors, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sums per-segment compaction stats into `(kept, dropped)`.
    fn compaction_totals(stats: &[CompactionStats]) -> (usize, usize) {
        stats.iter().fold((0, 0), |(kept, dropped), s| {
            (kept + s.kept, dropped + s.dropped)
        })
    }

    #[test]
    fn compaction_drops_shadowed_records_and_round_trips_strictly() {
        let result = sample_result();
        let dir = temp_store_dir("compact");
        let path = dir.join("results.jsonl");

        // A single-file store from an older release.  First-wins
        // shadowing: a record re-appended under the same fingerprint
        // with *different* payload (e.g. two concatenated store
        // generations) must lose to the first occurrence.
        let mut shadowed = result.clone();
        shadowed.checksum ^= 0xbad;
        let mut second = result.clone();
        second.fingerprint ^= 0x5eed;
        let mut contents = String::new();
        for r in [&result, &shadowed, &second, &result] {
            contents.push_str(&r.to_line());
            contents.push('\n');
        }
        contents.push('\n'); // interior blank line, legal but noise
        contents.push_str(&second.to_line());
        contents.push('\n');
        // ... and a torn tail from a crash mid-append.
        contents.push_str(&result.to_line()[..25]);
        std::fs::write(&path, &contents).unwrap();

        // Opening the file migrates it into a directory that serves the
        // first-wins records; the torn tail is dropped on the way.
        let store = ResultStore::open(&path).unwrap();
        assert!(path.is_dir(), "migration replaces the file in place");
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.lookup(result.fingerprint).unwrap(), result);
        assert_eq!(store.lookup(second.fingerprint).unwrap(), second);
        drop(store);

        // The segments still carry the three shadowed appends until
        // compaction drops them.
        assert_eq!(
            compaction_totals(&compact_sharded_store(&path).unwrap()),
            (2, 3)
        );
        let records = read_store_records(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(records.contains(&result) && records.contains(&second));

        // Compacting a compacted store is a no-op.
        assert_eq!(
            compaction_totals(&compact_sharded_store(&path).unwrap()),
            (2, 0)
        );

        // Compacting the file directly migrates it first, to the same end.
        let direct = dir.join("direct.jsonl");
        std::fs::write(&direct, &contents).unwrap();
        assert_eq!(
            compaction_totals(&compact_sharded_store(&direct).unwrap()),
            (2, 3)
        );
        assert_eq!(read_store_records(&direct).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_migration_is_rolled_back_and_redone() {
        let template = sample_result();
        let records: Vec<CellResult> = (0..16u64)
            .map(|i| {
                let mut record = template.clone();
                record.fingerprint = 0x7000 + i;
                record
            })
            .collect();
        let lines = |keep: &dyn Fn(&CellResult) -> bool| -> String {
            records
                .iter()
                .filter(|r| keep(r))
                .map(|r| format!("{}\n", r.to_line()))
                .collect()
        };
        let dir = temp_store_dir("interrupted-migration");
        let path = dir.join("results.jsonl");
        let backup = dir.join("results.jsonl.migrating");

        // A kill mid-migration, after the file was renamed aside: either
        // before the manifest (nothing at `path`) or after the manifest
        // and one segment (a directory that would scan as a partial
        // store).
        for half_built in [false, true] {
            std::fs::remove_dir_all(&path).ok();
            std::fs::write(&backup, lines(&|_| true)).unwrap();
            if half_built {
                std::fs::create_dir_all(&path).unwrap();
                write_store_meta(&path, DEFAULT_STORE_SHARDS).unwrap();
                std::fs::write(
                    segment_path(&path, 0),
                    lines(&|r| shard_for(r.fingerprint, DEFAULT_STORE_SHARDS) == 0),
                )
                .unwrap();
            }
            let store = ResultStore::open(&path).unwrap();
            for record in &records {
                assert_eq!(store.lookup(record.fingerprint).as_ref(), Some(record));
            }
            assert!(!backup.exists(), "the backup goes once the store is whole");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_locks_are_recovered_not_cascaded() {
        let result = sample_result();
        let store = std::sync::Arc::new(ResultStore::in_memory_with_shards(1));
        store.insert(result.clone()).unwrap();
        // A worker panicking while holding the index lock poisons it.
        let poisoner = std::sync::Arc::clone(&store);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].index.lock().unwrap();
            panic!("worker died mid-insert");
        })
        .join();
        assert!(panicked.is_err());
        assert!(
            store.shards[0].index.lock().is_err(),
            "the lock really is poisoned"
        );
        // Every other worker and later request keeps working.
        assert_eq!(store.lookup(result.fingerprint).unwrap(), result);
        let mut second = result.clone();
        second.fingerprint ^= 2;
        store.insert(second).unwrap();
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn lookup_stays_consistent_under_a_concurrent_inserter() {
        // Satellite pin for the shrunken lookup critical section: the
        // record is cloned from an `Arc` *outside* the index lock, so a
        // reader hammering one fingerprint while a writer streams fresh
        // inserts into the same shard always sees the full, unchanged
        // record — and the counters still add up exactly.
        let result = sample_result();
        let store = std::sync::Arc::new(ResultStore::in_memory_with_shards(1));
        store.insert(result.clone()).unwrap();

        const INSERTS: u64 = 500;
        const LOOKUPS: u64 = 2_000;
        let writer = {
            let store = std::sync::Arc::clone(&store);
            let template = result.clone();
            std::thread::spawn(move || {
                for i in 1..=INSERTS {
                    let mut fresh = template.clone();
                    fresh.fingerprint = template.fingerprint.wrapping_add(i);
                    store.insert(fresh).unwrap();
                }
            })
        };
        for _ in 0..LOOKUPS {
            let hit = store.lookup(result.fingerprint).expect("pinned record");
            assert_eq!(hit, result, "lookup must never observe a torn record");
        }
        writer.join().unwrap();

        let stats = store.stats();
        assert_eq!(stats.entries as u64, INSERTS + 1);
        assert_eq!(stats.hits, LOOKUPS);
        assert_eq!(stats.misses, 0);
    }
}
