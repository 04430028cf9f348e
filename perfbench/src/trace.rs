//! The traced run: replays every cell through the public calls
//! `CampaignRunner::run_cell` makes, recording a span around each.
//!
//! Per cell: store lookup, then the tuning cache (`TuningKey` /
//! `TuningCache`), then on a miss target profiling (`Workload::measure`),
//! `decompose`, `initial_parameters` and `AutoTuner::tune`, then
//! `execute_dag`, `CellResult::compute[_for]` and the store insert; one
//! sync per campaign.  Two extra calls per tune measure what the replay
//! cannot see inside `tune`: `impact::analyze` (the impact half of a
//! tune) and one `ProxyBenchmark::measure` of the tuned proxy (one
//! perf-model run).  They run after the replayed pass, outside its wall
//! time, and their spans, named `extra.*`, are outside reconciliation.
//! Spans stay in memory until the run writes them out.  The kernel profiler stays off: it suppresses fusion
//! and would measure a different program.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dmpb_core::decompose::decompose;
use dmpb_core::features::initial_parameters;
use dmpb_core::impact::analyze;
use dmpb_core::proxy::ExecutionSummary;
use dmpb_core::runner::{fingerprint_cluster, ProxyRun, TuningKey};
use dmpb_core::{DagExecutor, GenerationReport, ProxyBenchmark, ProxyGenerator, TuningCache};
use dmpb_metrics::json::ObjectWriter;
use dmpb_metrics::MetricId;
use dmpb_motifs::workers::WorkerPool;
use dmpb_perfmodel::ArchProfile;
use dmpb_population::PopulationGenerator;
use dmpb_scenario::{
    CampaignCell, CellResult, ResultStore, Scenario, CODE_MODEL_VERSION, DEFAULT_STORE_SHARDS,
};
use dmpb_workloads::{workload_by_kind, Workload};

use crate::stats::{mean, median};
use crate::workload::{population_spec, Plan, GEN_POPULATION, SWEEP_ELEMENTS};
use crate::Metric;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, `layer.call`; `extra.*` marks calls outside the replay.
    pub name: &'static str,
    /// Start, from the run's origin.
    pub start: Duration,
    /// End, from the run's origin.
    pub end: Duration,
    /// The enclosing span's index.
    pub parent: Option<usize>,
    /// The cell the span belongs to.
    pub cell: Option<u64>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }

    fn is_extra(&self) -> bool {
        self.name.starts_with("extra.")
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    tunes: usize,
    qualified: usize,
    tune_iterations: usize,
    impact_probes: usize,
    dags: usize,
    kernels: usize,
    elements: usize,
    cache_lookups: usize,
    cache_hits: usize,
    store_lookups: usize,
    store_hits: usize,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.tunes += other.tunes;
        self.qualified += other.qualified;
        self.tune_iterations += other.tune_iterations;
        self.impact_probes += other.impact_probes;
        self.dags += other.dags;
        self.kernels += other.kernels;
        self.elements += other.elements;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.store_lookups += other.store_lookups;
        self.store_hits += other.store_hits;
    }
}

/// What a cell was, for filtering layer shares.
#[derive(Debug, Clone, Copy)]
struct CellTag {
    id: u64,
    elements: usize,
    timed: bool,
}

/// A tune whose extra calls run after its pass.
#[derive(Debug)]
struct Deferred {
    cell: Option<u64>,
    initial: ProxyBenchmark,
    tuned: ProxyBenchmark,
    arch: ArchProfile,
    metrics: Vec<MetricId>,
}

/// Spans and counts of one thread (or, merged, of a whole run).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    counts: Counts,
    cells: Vec<CellTag>,
    deferred: Vec<Deferred>,
}

impl Recorder {
    /// An empty recorder timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            counts: Counts::default(),
            cells: Vec::new(),
            deferred: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, cell: Option<u64>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, cell);
        let value = f();
        self.close(id);
        value
    }

    /// [`Recorder::time`] for a call inside the cell whose span is `root`.
    fn child<T>(&mut self, name: &'static str, root: usize, f: impl FnOnce() -> T) -> T {
        let cell = self.spans[root].cell;
        self.time(name, Some(root), cell, f)
    }

    /// Moves `other`'s spans, counts and cells into `self`.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        self.counts.add(&other.counts);
        self.cells.extend(other.cells);
        self.deferred.extend(other.deferred);
    }

    /// Runs the extra calls of every deferred tune.
    fn run_deferred(&mut self) {
        for d in std::mem::take(&mut self.deferred) {
            let impact = self.time("extra.impact_analyze", None, d.cell, || {
                analyze(&d.initial, &d.arch, &d.metrics)
            });
            self.counts.impact_probes += 1 + impact.entries.len();
            self.time("extra.perfmodel_run", None, d.cell, || {
                d.tuned.measure(&d.arch)
            });
        }
    }

    /// Writes every span as one flat JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for span in &self.spans {
            let mut w = ObjectWriter::new();
            w.field_str("name", span.name);
            w.field_f64("start_us", span.start.as_secs_f64() * 1e6);
            w.field_f64("end_us", span.end.as_secs_f64() * 1e6);
            w.field_int("parent", span.parent.map_or(-1, |p| p as i64));
            w.field_int("cell", span.cell.map_or(-1, |c| c as i64));
            out.push_str(&w.finish());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// The per-tuning-cluster state a `SuiteRunner` keeps.
struct Tuner {
    generator: ProxyGenerator,
    cache: TuningCache,
    executor: DagExecutor,
}

/// One pass's replay state: the store, the shared pool and the tuners.
struct Replay {
    store: ResultStore,
    pool: Arc<WorkerPool>,
    tuners: Mutex<HashMap<u64, Arc<Tuner>>>,
}

/// Either a cell's result or why it failed.
type CellOutcome = Result<CellResult, String>;

impl Replay {
    fn tuner(&self, cell: &CampaignCell) -> Arc<Tuner> {
        let cluster = cell.tuning_cluster();
        let mut tuners = self.tuners.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            tuners
                .entry(fingerprint_cluster(&cluster))
                .or_insert_with(|| {
                    Arc::new(Tuner {
                        generator: ProxyGenerator::new(cluster),
                        cache: TuningCache::new(),
                        executor: DagExecutor::new()
                            .with_max_parallel(1)
                            .with_chunk_elements(None)
                            .with_worker_pool(Arc::clone(&self.pool)),
                    })
                }),
        )
    }

    /// Replays one campaign; returns its cell lines and failures.
    fn campaign(
        &self,
        scenario: &Scenario,
        timed: bool,
        rec: &mut Recorder,
        first_id: u64,
    ) -> (String, Vec<String>) {
        let cells = rec.time("scenario.expand", None, None, || {
            let cells = scenario.expand();
            let _ = scenario.population_plan();
            cells
        });
        let width = scenario.workers.unwrap_or(1).clamp(1, cells.len().max(1));
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; cells.len()];
        if width == 1 {
            for (slot, cell) in outcomes.iter_mut().zip(&cells) {
                *slot = Some(self.guarded_cell(cell, first_id, timed, rec));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let origin = rec.origin;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..width)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Recorder::new(origin);
                            let mut done = Vec::new();
                            loop {
                                let index = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(cell) = cells.get(index) else { break };
                                done.push((
                                    index,
                                    self.guarded_cell(cell, first_id, timed, &mut local),
                                ));
                            }
                            (local, done)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (local, done) = handle.join().expect("replay workers catch cell panics");
                    rec.absorb(local);
                    for (index, outcome) in done {
                        outcomes[index] = Some(outcome);
                    }
                }
            });
        }
        // A failed sync degrades the store to memory, as in the runner.
        rec.time("store.sync", None, None, || {
            let _ = self.store.sync();
        });

        let mut lines = String::new();
        let mut failures = Vec::new();
        for outcome in outcomes {
            match outcome.expect("every cell was replayed") {
                Ok(result) => {
                    lines.push_str(&result.to_line());
                    lines.push('\n');
                }
                Err(failure) => failures.push(failure),
            }
        }
        (lines, failures)
    }

    /// [`Replay::cell`], with a panic turned into the cell's failure.
    fn guarded_cell(
        &self,
        cell: &CampaignCell,
        first_id: u64,
        timed: bool,
        rec: &mut Recorder,
    ) -> CellOutcome {
        let id = first_id + cell.index as u64;
        rec.cells.push(CellTag {
            id,
            elements: cell.elements,
            timed,
        });
        let open_spans = rec.spans.len();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.cell(cell, id, rec)))
                .unwrap_or_else(|_| Err(format!("cell {} panicked", cell.index)));
        // Spans a panic left open end now.
        let now = rec.origin.elapsed();
        for span in &mut rec.spans[open_spans..] {
            if span.end == span.start {
                span.end = now;
            }
        }
        outcome
    }

    fn cell(&self, cell: &CampaignCell, id: u64, rec: &mut Recorder) -> CellOutcome {
        let root = rec.open("cell", None, Some(id));
        let fingerprint = cell.fingerprint(CODE_MODEL_VERSION);
        rec.counts.store_lookups += 1;
        if let Some(result) = rec.child("store.lookup", root, || self.store.lookup(fingerprint)) {
            rec.counts.store_hits += 1;
            rec.close(root);
            return Ok(result);
        }
        let tuner = rec.child("runner.tuning_cache", root, || self.tuner(cell));
        let result = match &cell.population {
            Some(pop) => {
                let member = rec
                    .child("population.member", root, || {
                        PopulationGenerator::new(pop.spec).map(|g| g.member(pop.rank))
                    })
                    .map_err(|e| format!("invalid population spec: {e}"))?;
                let key =
                    TuningKey::for_synthetic(member.kind(), &tuner.generator, pop.member_hash);
                let run = self.run(&tuner, &member, key, cell, rec, root);
                rec.child("scenario.cell_result", root, || {
                    CellResult::compute_for(cell, &run, CODE_MODEL_VERSION, &member)
                })
            }
            None => {
                let workload = workload_by_kind(cell.kind);
                let key = TuningKey::new(cell.kind, &tuner.generator);
                let run = self.run(&tuner, workload.as_ref(), key, cell, rec, root);
                rec.child("scenario.cell_result", root, || {
                    CellResult::compute(cell, &run, CODE_MODEL_VERSION)
                })
            }
        };
        // A failed append degrades the store to memory, as in the runner.
        rec.child("store.insert", root, || {
            let _ = self.store.insert(result.clone());
        });
        rec.close(root);
        Ok(result)
    }

    fn run(
        &self,
        tuner: &Tuner,
        workload: &dyn Workload,
        key: TuningKey,
        cell: &CampaignCell,
        rec: &mut Recorder,
        root: usize,
    ) -> ProxyRun {
        rec.counts.cache_lookups += 1;
        let report = match rec.child("runner.tuning_cache", root, || tuner.cache.lookup(&key)) {
            Some(report) => {
                rec.counts.cache_hits += 1;
                report
            }
            None => {
                let report = generate(&tuner.generator, workload, rec, root);
                rec.child("runner.tuning_cache", root, || {
                    tuner.cache.insert(key, report.clone())
                });
                report
            }
        };
        let execution = rec.child("executor.execute_dag", root, || {
            report
                .proxy
                .execute_dag(&tuner.executor, cell.elements, cell.seed)
        });
        rec.counts.dags += 1;
        rec.counts.kernels += execution.kernels_run();
        rec.counts.elements += execution.total_elements();
        ProxyRun {
            kind: workload.kind(),
            seed: cell.seed,
            report,
            execution: ExecutionSummary::from(&execution),
        }
    }
}

/// `ProxyGenerator::generate`, one public call per span.
fn generate(
    generator: &ProxyGenerator,
    workload: &dyn Workload,
    rec: &mut Recorder,
    root: usize,
) -> GenerationReport {
    let cluster = &generator.cluster;
    let arch = &cluster.node.arch;
    let metrics = &generator.features.metrics;
    let real_metrics = rec.child("core.target_profile", root, || workload.measure(cluster));
    let decomposition = rec.child("core.decompose", root, || decompose(workload));
    let initial = rec.child("core.initial_parameters", root, || {
        ProxyBenchmark::from_decomposition(&decomposition, initial_parameters(workload, cluster))
    });
    let outcome = rec.child("core.tune", root, || {
        generator
            .tuner
            .tune(initial.clone(), &real_metrics, arch, metrics)
    });
    rec.counts.tunes += 1;
    rec.counts.qualified += usize::from(outcome.qualified);
    rec.counts.tune_iterations += outcome.iterations;
    rec.deferred.push(Deferred {
        cell: rec.spans[root].cell,
        initial,
        tuned: outcome.proxy.clone(),
        arch: *arch,
        metrics: metrics.clone(),
    });

    let speedup = if outcome.metrics.runtime_secs > 0.0 {
        real_metrics.runtime_secs / outcome.metrics.runtime_secs
    } else {
        f64::INFINITY
    };
    GenerationReport {
        kind: workload.kind(),
        decomposition,
        proxy: outcome.proxy,
        real_metrics,
        proxy_metrics: outcome.metrics,
        accuracy: outcome.accuracy,
        qualified: outcome.qualified,
        iterations: outcome.iterations,
        speedup,
    }
}

/// One replayed pass.
#[derive(Debug)]
pub struct ReplayPass {
    /// Host seconds from store open to the last sync.
    pub wall_secs: f64,
    /// Each timed campaign's cell lines.
    pub lines: Vec<String>,
    /// Failed cells.
    pub failures: Vec<String>,
}

/// Replays one pass of `plan` in a fresh store under `dir`, recording
/// into `rec`; cell ids start at `first_id`.
pub fn replay_pass(
    plan: &Plan,
    width: usize,
    dir: &Path,
    rec: &mut Recorder,
    first_id: u64,
) -> Result<ReplayPass, String> {
    let mut pass = Recorder::new(rec.origin);
    let start = Instant::now();
    let store = pass.time("store.open", None, None, || {
        ResultStore::open_sharded(dir, DEFAULT_STORE_SHARDS)
    })?;
    let replay = Replay {
        store,
        pool: Arc::new(WorkerPool::new(width.saturating_sub(1))),
        tuners: Mutex::new(HashMap::new()),
    };
    let mut next_id = first_id;
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    let campaigns = plan.setup.iter().map(|s| (s, false));
    for (scenario, timed) in campaigns.chain(plan.timed.iter().map(|s| (s, true))) {
        let (campaign_lines, campaign_failures) =
            replay.campaign(scenario, timed, &mut pass, next_id);
        next_id += 1 << 20;
        failures.extend(campaign_failures);
        if timed {
            lines.push(campaign_lines);
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();

    pass.run_deferred();
    // A plan without population cells still guards member synthesis.
    if !pass.spans.iter().any(|s| s.name == "population.member") {
        let generator = PopulationGenerator::new(population_spec(GEN_POPULATION))?;
        for rank in 0..generator.spec().size {
            pass.time("extra.population_member", None, None, || {
                generator.member(rank)
            });
        }
    }
    rec.absorb(pass);
    Ok(ReplayPass {
        wall_secs,
        lines,
        failures,
    })
}

/// Host time per layer over the cells `keep` selects, as a share of
/// their cell time; the rest of the cell time is unattributed.
fn layer_shares(rec: &Recorder, keep: impl Fn(&CellTag) -> bool) -> Vec<(&'static str, f64)> {
    let kept: HashSet<u64> = rec.cells.iter().filter(|c| keep(c)).map(|c| c.id).collect();
    let mut by_layer: HashMap<&'static str, f64> = HashMap::new();
    let mut cell_secs = 0.0;
    for span in &rec.spans {
        if span.is_extra() || !span.cell.is_some_and(|c| kept.contains(&c)) {
            continue;
        }
        match span.parent {
            None => cell_secs += span.secs(),
            Some(_) => *by_layer.entry(layer_of(span.name)).or_default() += span.secs(),
        }
    }
    let mut shares: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&layer| {
            let secs = by_layer.get(layer).copied().unwrap_or(0.0);
            (layer, secs / cell_secs.max(1e-12))
        })
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

const LAYERS: [&str; 7] = [
    "perfmodel",
    "core.tuning",
    "core.runner",
    "executor",
    "scenario.cells",
    "scenario.store",
    "population",
];

/// The module a replay span times.
fn layer_of(name: &str) -> &'static str {
    match name {
        "core.target_profile" => "perfmodel",
        "core.decompose" | "core.initial_parameters" | "core.tune" => "core.tuning",
        "runner.tuning_cache" => "core.runner",
        "executor.execute_dag" => "executor",
        "scenario.cell_result" => "scenario.cells",
        "store.lookup" | "store.insert" => "scenario.store",
        "population.member" => "population",
        _ => "unattributed",
    }
}

/// The layer shares printed and recorded for a workload: over every
/// cell, and for the sweep over its timed 2^22-element cells.
pub fn share_report(rec: &Recorder) -> Vec<(String, Vec<(&'static str, f64)>)> {
    let mut report = vec![("all cells".to_string(), layer_shares(rec, |_| true))];
    let large = SWEEP_ELEMENTS[1];
    if rec.cells.iter().any(|c| c.timed && c.elements == large) {
        report.push((
            format!("timed {large}-element cells"),
            layer_shares(rec, |c| c.timed && c.elements == large),
        ));
    }
    report
}

/// The per-layer metrics of a traced run.
pub fn layer_metrics(rec: &Recorder, overhead: &[f64], events_per_run: f64) -> Vec<Metric> {
    let mut secs: HashMap<&str, Vec<f64>> = HashMap::new();
    for span in &rec.spans {
        secs.entry(span.name).or_default().push(span.secs());
    }
    let mean_of = |names: &[&str], scale: f64| {
        let all: Vec<f64> = names
            .iter()
            .flat_map(|n| secs.get(n).into_iter().flatten().copied())
            .collect();
        mean(&all).map_or(0.0, |m| m * scale)
    };
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let c = &rec.counts;
    let run_ms = mean_of(&["core.target_profile", "extra.perfmodel_run"], 1e3);
    let dag_secs: f64 = secs.get("executor.execute_dag").into_iter().flatten().sum();
    let member = if secs.contains_key("population.member") {
        mean_of(&["population.member"], 1e6)
    } else {
        mean_of(&["extra.population_member"], 1e6)
    };
    let shares: HashMap<&str, f64> = layer_shares(rec, |_| true).into_iter().collect();
    let unattributed = 1.0 - shares.values().sum::<f64>();

    vec![
        Metric::new("perfmodel.run_ms", run_ms, "ms"),
        Metric::new(
            "perfmodel.events_per_s",
            if run_ms > 0.0 {
                events_per_run / (run_ms / 1e3)
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new(
            "core.target_profile_ms",
            mean_of(&["core.target_profile"], 1e3),
            "ms",
        ),
        Metric::new("core.decompose_ms", mean_of(&["core.decompose"], 1e3), "ms"),
        Metric::new(
            "core.impact_ms",
            mean_of(&["extra.impact_analyze"], 1e3),
            "ms",
        ),
        Metric::new(
            "core.impact_probes",
            ratio(c.impact_probes, c.tunes),
            "count",
        ),
        Metric::new("core.tune_ms", mean_of(&["core.tune"], 1e3), "ms"),
        Metric::new(
            "core.tune_iterations",
            ratio(c.tune_iterations, c.tunes),
            "count",
        ),
        Metric::new("core.qualified_ratio", ratio(c.qualified, c.tunes), "ratio"),
        Metric::new(
            "core.tuning_cache_hit_ratio",
            ratio(c.cache_hits, c.cache_lookups),
            "ratio",
        ),
        Metric::new(
            "executor.dag_ms",
            mean_of(&["executor.execute_dag"], 1e3),
            "ms",
        ),
        Metric::new(
            "executor.elements_per_s",
            if dag_secs > 0.0 {
                c.elements as f64 / dag_secs
            } else {
                0.0
            },
            "1/s",
        ),
        Metric::new("executor.kernels_run", ratio(c.kernels, c.dags), "count"),
        Metric::new(
            "scenario.store_open_ms",
            mean_of(&["store.open"], 1e3),
            "ms",
        ),
        Metric::new(
            "scenario.store_lookup_us",
            mean_of(&["store.lookup"], 1e6),
            "us",
        ),
        Metric::new(
            "scenario.store_insert_us",
            mean_of(&["store.insert"], 1e6),
            "us",
        ),
        Metric::new(
            "scenario.store_sync_ms",
            mean_of(&["store.sync"], 1e3),
            "ms",
        ),
        Metric::new(
            "scenario.store_hit_ratio",
            ratio(c.store_hits, c.store_lookups),
            "ratio",
        ),
        Metric::new(
            "scenario.expand_ms",
            mean_of(&["scenario.expand"], 1e3),
            "ms",
        ),
        Metric::new(
            "scenario.cell_result_ms",
            mean_of(&["scenario.cell_result"], 1e3),
            "ms",
        ),
        Metric::new("population.member_us", member, "us"),
        Metric::new("trace.overhead_ratio", median(overhead), "ratio"),
        Metric::new("trace.unattributed_ratio", unattributed.max(0.0), "ratio"),
        Metric::new(
            "share.perfmodel_core",
            shares["perfmodel"] + shares["core.tuning"],
            "ratio",
        ),
        Metric::new("share.executor", shares["executor"], "ratio"),
        Metric::new(
            "share.scenario",
            shares["scenario.cells"] + shares["scenario.store"],
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut main = Recorder::new(origin);
        main.time("scenario.expand", None, None, || ());
        let mut local = Recorder::new(origin);
        let root = local.open("cell", None, Some(7));
        local.time("store.lookup", Some(root), Some(7), || ());
        local.close(root);
        main.absorb(local);
        assert_eq!(main.spans.len(), 3);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[1].name, "cell");
    }

    #[test]
    fn shares_exclude_extra_calls_and_leave_self_time_unattributed() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin);
        rec.cells.push(CellTag {
            id: 1,
            elements: 2000,
            timed: true,
        });
        let span = |name, start: u64, end: u64, parent| Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            cell: Some(1),
        };
        rec.spans = vec![
            span("cell", 0, 80, None),
            span("core.tune", 0, 40, Some(0)),
            span("executor.execute_dag", 40, 60, Some(0)),
            span("extra.impact_analyze", 90, 190, None),
        ];
        let shares: HashMap<&str, f64> = layer_shares(&rec, |_| true).into_iter().collect();
        assert!((shares["core.tuning"] - 0.5).abs() < 1e-9);
        assert!((shares["executor"] - 0.25).abs() < 1e-9);
        assert_eq!(shares["perfmodel"], 0.0);
        let total: f64 = shares.values().sum();
        assert!((total - 0.75).abs() < 1e-9, "unattributed is the rest");
    }
}
