//! The batch campaign runner: expands a scenario and executes its cells
//! concurrently, short-circuiting through the content-addressed
//! [`ResultStore`].
//!
//! This is the one path a proxy is tuned and executed by.  A cell that
//! misses the store is tuned through the runner's single
//! [`TuningCache`] — keyed on the tuning cluster, so eight cells of one
//! suite slice share eight tunes, a second seed or element-count axis
//! value re-tunes nothing, and a later campaign reuses an earlier one's
//! tunes — and its DAG runs on the runner's one serial [`DagExecutor`].
//! Cells are the unit of parallelism: a width-`n` campaign runs `n`
//! copies of one cell loop under a single [`std::thread::scope`] — `n - 1`
//! spawned threads plus the caller — so its threads live exactly as long
//! as the campaign, and a width-1 campaign spawns none.
//!
//! Determinism: cells are executed with their pre-derived seeds and
//! collected into their matrix positions, so the produced
//! [`CampaignReport`] is byte-for-byte identical for any worker count,
//! and a warm run (every cell served from the store) is byte-identical
//! to the cold run that filled it.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dmpb_core::fnv::hash_bytes;
use dmpb_core::runner::{ProxyRun, TuningKey};
use dmpb_core::{DagExecutor, ProxyGenerator, TuningCache};
use dmpb_metrics::table::{fmt_percent, fmt_speedup, TextTable};
use dmpb_motifs::{KernelProfile, KernelProfiler};
use dmpb_population::PopulationGenerator;
use dmpb_workloads::{workload_by_kind, Workload};

use crate::dsl::Scenario;
use crate::matrix::{CampaignCell, PopulationPlan};
use crate::store::{CellResult, ResultStore, StoreStats};
use crate::CODE_MODEL_VERSION;

/// Default number of cells run at once when neither the scenario nor the
/// caller picks one.
pub const DEFAULT_WORKERS: usize = 8;

/// One executed (or store-served) cell of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The result payload (identical whether computed or served).
    pub result: CellResult,
    /// Whether the result came out of the store.
    pub cached: bool,
}

/// The structured result of one campaign run.
///
/// Only [`CampaignReport::cells`] participates in the digest — the
/// cached-ness of a cell is telemetry, not payload, so cold and warm runs
/// digest identically.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The scenario's name.
    pub scenario: String,
    /// Per-cell results in matrix order.
    pub outcomes: Vec<CellOutcome>,
    /// How the scenario's population expanded (spec, per-combination
    /// budget, truncation), when it swept one.  Telemetry like
    /// cached-ness: not part of the digest.
    pub population: Option<PopulationPlan>,
}

impl CampaignReport {
    /// The cell results in matrix order.
    pub fn cells(&self) -> impl Iterator<Item = &CellResult> {
        self.outcomes.iter().map(|o| &o.result)
    }

    /// Number of cells served from the result store.
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Fraction of cells served from the result store (`0.0` for an
    /// empty campaign).
    pub fn hit_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.cache_hits() as f64 / self.outcomes.len() as f64
        }
    }

    /// A stable digest over every cell's serialized result.  Identical
    /// for cold and warm runs and for any worker count.
    pub fn digest(&self) -> u64 {
        hash_bytes(self.to_lines().as_bytes())
    }

    /// The report as JSON lines (the baseline/store interchange format).
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for cell in self.cells() {
            out.push_str(&cell.to_line());
            out.push('\n');
        }
        out
    }

    /// Renders the campaign as a summary table, one row per cell.
    pub fn summary_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!("Campaign `{}`", self.scenario),
            &[
                "workload", "cluster", "arch", "elements", "seed", "accuracy", "speedup",
                "checksum", "source",
            ],
        );
        for outcome in &self.outcomes {
            let c = &outcome.result;
            t.add_row(&[
                c.population
                    .as_ref()
                    .map(|p| p.label.clone())
                    .unwrap_or_else(|| c.workload.to_string()),
                c.cluster.clone(),
                c.architecture.clone(),
                c.elements.to_string(),
                format!("{:016x}", c.seed),
                fmt_percent(c.accuracy_avg),
                fmt_speedup(c.speedup),
                format!("{:016x}", c.checksum),
                if outcome.cached { "store" } else { "computed" }.to_string(),
            ]);
        }
        t
    }

    /// Diffs this run against a stored baseline (cells matched by
    /// fingerprint).
    pub fn diff(&self, baseline: &[CellResult]) -> CampaignDiff {
        let ours: HashMap<u64, &CellResult> = self.cells().map(|c| (c.fingerprint, c)).collect();
        let theirs: HashMap<u64, &CellResult> =
            baseline.iter().map(|c| (c.fingerprint, c)).collect();
        let mut diff = CampaignDiff::default();
        for cell in self.cells() {
            match theirs.get(&cell.fingerprint) {
                None => diff.added.push(cell.clone()),
                Some(base) => {
                    if cell.accuracy_avg < base.accuracy_avg - ACCURACY_EPSILON {
                        diff.regressed
                            .push((cell.clone(), base.accuracy_avg, cell.accuracy_avg));
                    } else if *base != cell {
                        diff.changed.push((cell.clone(), (*base).clone()));
                    }
                }
            }
        }
        for base in baseline {
            if !ours.contains_key(&base.fingerprint) {
                diff.missing.push(base.clone());
            }
        }
        diff
    }
}

/// Accuracy slack below which a baseline comparison counts as a
/// regression rather than noise.  The model is deterministic, so any
/// drop at all is a real change; the epsilon only absorbs decimal
/// re-parsing of hand-edited baselines.
pub const ACCURACY_EPSILON: f64 = 1e-9;

/// The outcome of diffing a campaign run against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CampaignDiff {
    /// Cells present now but absent from the baseline (benign).
    pub added: Vec<CellResult>,
    /// Baseline cells this run did not produce.
    pub missing: Vec<CellResult>,
    /// Cells whose accuracy dropped below the baseline: `(now, baseline
    /// accuracy, current accuracy)`.
    pub regressed: Vec<(CellResult, f64, f64)>,
    /// Cells that differ from the baseline in some other field: `(now,
    /// baseline)`.
    pub changed: Vec<(CellResult, CellResult)>,
}

impl CampaignDiff {
    /// Whether the diff should gate (fail) a campaign: an accuracy
    /// regression, a changed result, or a baseline cell that went
    /// missing.  Added cells are fine — campaigns grow.
    pub fn is_regression(&self) -> bool {
        !self.regressed.is_empty() || !self.changed.is_empty() || !self.missing.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "baseline diff: {} regressed, {} changed, {} missing, {} added",
            self.regressed.len(),
            self.changed.len(),
            self.missing.len(),
            self.added.len()
        )
    }
}

/// Callback invoked after every cell with its outcome and wall-clock
/// latency — the hook the campaign daemon hangs its per-cell latency
/// histogram on.  Called for computed and store-served cells alike.
pub type CellObserver = Arc<dyn Fn(&CellOutcome, Duration) + Send + Sync>;

/// A campaign that could not produce every cell: the cells that did
/// complete are not reported (a partial campaign report would silently
/// shrink baselines), only the per-cell failures.
#[derive(Debug, Clone)]
pub struct CampaignError {
    /// The scenario that failed.
    pub scenario: String,
    /// One message per failed cell.
    pub failures: Vec<String>,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign `{}`: {} cell(s) failed: {}",
            self.scenario,
            self.failures.len(),
            self.failures.join("; ")
        )
    }
}

impl std::error::Error for CampaignError {}

/// Batch executor for scenario campaigns.
pub struct CampaignRunner {
    version: u32,
    workers: usize,
    profile_kernels: bool,
    store: Arc<ResultStore>,
    tunes: TuningCache,
    executor: DagExecutor,
    observer: Option<CellObserver>,
}

impl std::fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("version", &self.version)
            .field("workers", &self.workers)
            .field("store", &self.store)
            .field("observer", &self.observer.as_ref().map(|_| "…"))
            .finish_non_exhaustive()
    }
}

impl Default for CampaignRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignRunner {
    /// A runner with an in-memory (process-lifetime) result store.
    pub fn new() -> Self {
        Self::with_store(ResultStore::in_memory())
    }

    /// A runner over an explicit (typically persistent) result store.
    pub fn with_store(store: ResultStore) -> Self {
        Self {
            version: CODE_MODEL_VERSION,
            workers: DEFAULT_WORKERS,
            profile_kernels: false,
            store: Arc::new(store),
            tunes: TuningCache::new(),
            executor: DagExecutor::new(),
            observer: None,
        }
    }

    /// Enables kernel-execution profiling for campaigns run through this
    /// runner: [`CampaignRunner::try_run`] turns the process-global
    /// [`KernelProfiler`] on before executing (and leaves it on, so a
    /// sequence of campaigns accumulates one profile — read it with
    /// [`CampaignRunner::kernel_profile`]).  Profiling never changes
    /// results: the executor only timestamps each executed edge, so reports
    /// and digests stay byte-identical.
    pub fn with_kernel_profiling(mut self, enabled: bool) -> Self {
        self.profile_kernels = enabled;
        self
    }

    /// A point-in-time snapshot of the process-global kernel profile
    /// (all executors in this process record into it while profiling is
    /// enabled).
    pub fn kernel_profile(&self) -> KernelProfile {
        KernelProfiler::global().snapshot()
    }

    /// Registers a per-cell observer, called with every cell's outcome
    /// and wall-clock latency (from possibly-concurrent worker threads).
    pub fn with_cell_observer(mut self, observer: CellObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Bounds the number of concurrently executed cells (≥ 1).  A
    /// scenario's `[executor] workers` takes precedence for its own run.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The backing result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Snapshot of the store's cumulative hit/miss counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Executes one cell: store lookup first, then tune + execute +
    /// measure and store the result.  A panicking cell becomes an error
    /// naming the cell instead of unwinding through the campaign's scope
    /// into every sibling; the tuning cache and the store recover from a
    /// mid-cell panic by construction (both insert whole entries).
    fn run_cell(&self, cell: &CampaignCell, executor: &DagExecutor) -> Result<CellOutcome, String> {
        let start = Instant::now();
        let fingerprint = cell.fingerprint(self.version);
        let outcome = match self.store.lookup(fingerprint) {
            Some(result) => CellOutcome {
                result,
                cached: true,
            },
            None => {
                let result = catch_unwind(AssertUnwindSafe(|| self.compute(cell, executor)))
                    .unwrap_or_else(|payload| Err(panic_failure(cell, payload.as_ref())))?;
                debug_assert_eq!(result.fingerprint, fingerprint);
                // A failed append already degraded the store to
                // in-memory with a recorded warning; the result itself
                // is good and the campaign goes on.
                let _ = self.store.insert(result.clone());
                CellOutcome {
                    result,
                    cached: false,
                }
            }
        };
        if let Some(observer) = &self.observer {
            observer(&outcome, start.elapsed());
        }
        Ok(outcome)
    }

    /// Tunes (or reuses the tune of) a cell's workload on its tuning
    /// cluster, executes the proxy DAG on the cell's sample size and
    /// seed, and measures the cell's result.
    fn compute(&self, cell: &CampaignCell, executor: &DagExecutor) -> Result<CellResult, String> {
        let generator = ProxyGenerator::new(cell.tuning_cluster());
        let (key, workload): (_, Box<dyn Workload>) = match &cell.population {
            Some(pop) => {
                // Re-synthesize the member from its spec + rank — cheap,
                // deterministic, and it keeps cells (which cross thread
                // and queue boundaries) plain data.
                let member = PopulationGenerator::new(pop.spec)
                    .map_err(|e| format!("invalid population spec: {e}"))?
                    .member(pop.rank);
                let key = TuningKey::for_synthetic(member.kind(), &generator, pop.member_hash);
                (key, Box::new(member))
            }
            None => (
                TuningKey::new(cell.kind, &generator),
                workload_by_kind(cell.kind),
            ),
        };
        let report = self
            .tunes
            .get_or_tune(key, || generator.generate(workload.as_ref()));
        let run = ProxyRun::execute(report, executor, cell.elements, cell.seed);
        Ok(CellResult::compute_for(
            cell,
            &run,
            self.version,
            workload.as_ref(),
        ))
    }

    /// Runs a whole campaign: expands the scenario and runs its cells, up
    /// to the campaign's width at once.  The report lists cells in matrix
    /// order and is identical run to run regardless of worker count and
    /// of which cells the store served.
    ///
    /// A failing cell fails the whole campaign (the other cells still
    /// complete — their results stay in the store, so a re-run after a
    /// fix is warm).  Long-running hosts should prefer this over
    /// [`CampaignRunner::run`], which panics on the same condition.
    pub fn try_run(&self, scenario: &Scenario) -> Result<CampaignReport, CampaignError> {
        if self.profile_kernels {
            KernelProfiler::global().set_enabled(true);
        }
        let cells = scenario.expand();
        let width = scenario
            .workers
            .unwrap_or(self.workers)
            .clamp(1, cells.len().max(1));

        let slots: Vec<OnceLock<Result<CellOutcome, String>>> =
            cells.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let cell_loop = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(index) else { break };
            assert!(
                slots[index]
                    .set(self.run_cell(cell, &self.executor))
                    .is_ok(),
                "campaign slot filled twice"
            );
        };
        std::thread::scope(|scope| {
            // `width - 1` spawned loops plus the caller's.  A failed spawn
            // only narrows the campaign: the caller's loop still drains
            // the cursor.
            for k in 1..width {
                let spawned = std::thread::Builder::new()
                    .name(format!("dmpb-cell-{k}"))
                    .spawn_scoped(scope, cell_loop);
                if spawned.is_err() {
                    break;
                }
            }
            cell_loop();
        });

        // Amortized persistence: one flush (and, for sharded stores, one
        // sidecar rebuild) per campaign instead of one per record.  A
        // sync failure already degraded the store and warned; the
        // campaign's results are all still served from memory.
        let _ = self.store.sync();

        let mut outcomes = Vec::with_capacity(slots.len());
        let mut failures = Vec::new();
        for slot in slots {
            match slot.into_inner().expect("every cell produced an outcome") {
                Ok(outcome) => outcomes.push(outcome),
                Err(failure) => failures.push(failure),
            }
        }
        if !failures.is_empty() {
            return Err(CampaignError {
                scenario: scenario.name.clone(),
                failures,
            });
        }
        Ok(CampaignReport {
            scenario: scenario.name.clone(),
            outcomes,
            population: scenario.population_plan(),
        })
    }

    /// [`CampaignRunner::try_run`], panicking on a failed cell — the
    /// one-shot CLI surface, where unwinding to `main` is the right
    /// failure mode.
    pub fn run(&self, scenario: &Scenario) -> CampaignReport {
        self.try_run(scenario).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The failure message of a cell whose computation panicked: the cell
/// (workload kind, or member hash and carrier), its elements and seed,
/// and the panic's message.
fn panic_failure(cell: &CampaignCell, payload: &(dyn Any + Send)) -> String {
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    let name = match &cell.population {
        Some(pop) => format!(
            "synthetic cell {:016x} (carrier {}, ",
            pop.member_hash, cell.kind
        ),
        None => format!("cell {} (", cell.kind),
    };
    format!(
        "{name}elements {}, seed {:016x}) panicked: {message}",
        cell.elements, cell.seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_core::runner::DEFAULT_BASE_SEED;
    use dmpb_workloads::WorkloadKind;

    fn small_scenario() -> Scenario {
        let mut s = Scenario::with_defaults("small");
        s.workloads = vec![WorkloadKind::TeraSort, WorkloadKind::AlexNet];
        s
    }

    #[test]
    fn cold_then_warm_runs_are_byte_identical_and_store_served() {
        let runner = CampaignRunner::new();
        let scenario = small_scenario();
        let cold = runner.run(&scenario);
        assert_eq!(cold.cells().count(), 2);
        assert_eq!(cold.cache_hits(), 0);

        let warm = runner.run(&scenario);
        assert_eq!(warm.cache_hits(), 2);
        assert!((warm.hit_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(cold.to_lines(), warm.to_lines());
        assert_eq!(cold.digest(), warm.digest());
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let scenario = small_scenario();
        let serial = CampaignRunner::new().with_workers(1).run(&scenario);
        let parallel = CampaignRunner::new().with_workers(8).run(&scenario);
        assert_eq!(serial.to_lines(), parallel.to_lines());
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn tuning_cache_memoizes_across_seed_axis_values() {
        // Serial, so the second seed's cells deterministically find the
        // first seed's tunes in the cache (parallel cells may race to
        // tune the same key — harmless duplicate work, same results).
        let runner = CampaignRunner::new().with_workers(1);
        let mut scenario = small_scenario();
        scenario.seeds = vec![DEFAULT_BASE_SEED, 99];
        let report = runner.run(&scenario);
        assert_eq!(report.cells().count(), 4);
        // 2 workloads × 2 seeds, but only 2 tunes: the second seed's
        // cells reuse the first seed's tunes.
        let stats = runner.tunes.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn a_later_campaign_with_a_new_seed_reuses_the_earlier_tunes() {
        let runner = CampaignRunner::new().with_workers(1);
        let _ = runner.run(&small_scenario());
        let misses = runner.tunes.stats().misses;
        assert_eq!(misses, 2);

        // A new seed misses the store, but the seed never changes a tune,
        // so every cell reuses the first campaign's tunes.
        let mut reseeded = small_scenario();
        reseeded.seeds = vec![99];
        let report = runner.run(&reseeded);
        assert_eq!(report.cache_hits(), 0, "the new seed must miss the store");
        assert_eq!(
            runner.tunes.stats().misses,
            misses,
            "a re-seeded campaign re-tuned a workload"
        );
    }

    #[test]
    fn a_panicking_cell_fails_with_a_message_naming_it() {
        let mut scenario = small_scenario();
        scenario.workloads.clear();
        scenario.population = Some(dmpb_population::PopulationSpec {
            size: 1,
            ..Default::default()
        });
        let mut cell = scenario.expand().remove(0);
        // Zero is the named workloads' reserved tuning discriminator, so
        // keying this member's tune panics.
        cell.population.as_mut().unwrap().member_hash = 0;

        let runner = CampaignRunner::new();
        let failure = runner
            .run_cell(&cell, &DagExecutor::new())
            .expect_err("the cell panics");
        assert!(
            failure.starts_with(&format!(
                "synthetic cell 0000000000000000 (carrier {}, elements {}, seed {:016x}) panicked:",
                cell.kind, cell.elements, cell.seed
            )),
            "{failure}"
        );
        assert!(
            failure.contains("reserved for named workloads"),
            "{failure}"
        );
        assert_eq!(
            runner.store_stats().entries,
            0,
            "a failed cell stores nothing"
        );
    }

    #[test]
    fn seed_axis_changes_execution_but_not_tuning_metrics() {
        let runner = CampaignRunner::new();
        let mut scenario = small_scenario();
        scenario.seeds = vec![DEFAULT_BASE_SEED, 99];
        let report = runner.run(&scenario);
        let cells: Vec<_> = report.cells().collect();
        // Same workload under two seeds: same accuracy, different checksum.
        assert_eq!(cells[0].workload, cells[2].workload);
        assert_eq!(cells[0].accuracy_avg, cells[2].accuracy_avg);
        assert_ne!(cells[0].seed, cells[2].seed);
        assert_ne!(cells[0].checksum, cells[2].checksum);
        assert_ne!(cells[0].fingerprint, cells[2].fingerprint);
    }

    #[test]
    fn diff_flags_regressions_changes_and_missing_cells() {
        let runner = CampaignRunner::new();
        let scenario = small_scenario();
        let report = runner.run(&scenario);
        let baseline: Vec<CellResult> = report.cells().cloned().collect();

        let clean = report.diff(&baseline);
        assert!(!clean.is_regression(), "{}", clean.summary());

        let mut worse = baseline.clone();
        worse[0].accuracy_avg += 0.05; // the baseline was better than us
        let diff = report.diff(&worse);
        assert_eq!(diff.regressed.len(), 1);
        assert!(diff.is_regression());

        let mut changed = baseline.clone();
        changed[1].checksum ^= 1;
        let diff = report.diff(&changed);
        assert_eq!(diff.changed.len(), 1);
        assert!(diff.is_regression());

        let mut extra = baseline.clone();
        extra.push({
            let mut cell = baseline[0].clone();
            cell.fingerprint ^= 0xdead_beef;
            cell
        });
        let diff = report.diff(&extra);
        assert_eq!(diff.missing.len(), 1);
        assert!(diff.is_regression());

        let diff = report.diff(&baseline[..1]);
        assert_eq!(diff.added.len(), 1);
        assert!(!diff.is_regression(), "added cells are benign");
    }

    #[test]
    fn scenario_executor_workers_override_the_runner_default() {
        let scenario = {
            let mut s = small_scenario();
            s.workers = Some(1);
            s
        };
        // No panic / deadlock with a 1-wide scenario on an 8-wide runner,
        // and the output matches the parallel run.
        let a = CampaignRunner::new().with_workers(8).run(&scenario);
        let b = CampaignRunner::new().run(&small_scenario());
        assert_eq!(a.to_lines(), b.to_lines());
    }

    #[test]
    fn summary_table_lists_every_cell() {
        let report = CampaignRunner::new().run(&small_scenario());
        let rendered = report.summary_table().render();
        assert!(rendered.contains("TeraSort"), "{rendered}");
        assert!(rendered.contains("AlexNet"), "{rendered}");
        assert!(rendered.contains("computed"), "{rendered}");
    }
}
