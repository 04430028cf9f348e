//! The campaign service: shared state, bounded admission, the dispatcher
//! and the HTTP front end.
//!
//! One [`CampaignRunner`] — and therefore one warm
//! [`ResultStore`](dmpb_scenario::ResultStore) and one tuning cache —
//! serves every client for the daemon's lifetime.  Submissions land in a
//! fixed-depth queue (`429` once it is full: bounded admission, not
//! unbounded memory growth) and a single dispatcher thread drains it, so
//! campaigns run one at a time while results stream out of the store to
//! any number of concurrent readers.  Each campaign runs at most
//! `--workers` cells at once, a scenario's own `[executor] workers`
//! capped at that width, on threads that end with the campaign.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dmpb_core::fnv::hash_bytes;
use dmpb_metrics::histogram::LatencyHistogram;
use dmpb_metrics::json::ObjectWriter;
use dmpb_population::TopologyFamily;
use dmpb_scenario::{
    CampaignReport, CampaignRunner, ResultStore, Scenario, StoreStats, DEFAULT_STORE_SHARDS,
};

use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::prometheus::render_metrics;

/// Configuration of a [`serve`] call.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum number of campaigns waiting in the admission queue;
    /// submissions beyond it are answered `429`.
    pub queue_depth: usize,
    /// The most cells a campaign runs at once.
    pub workers: usize,
    /// Directory of the shared result store, created if missing (a
    /// single-file store from an older release is migrated in place);
    /// `None` keeps results in memory for the daemon's lifetime.
    pub store_path: Option<PathBuf>,
    /// Segment count of a new store at `store_path`; `None` means
    /// [`DEFAULT_STORE_SHARDS`].  An existing store keeps its own
    /// segment count.
    pub store_shards: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 16,
            workers: dmpb_scenario::runner::DEFAULT_WORKERS,
            store_path: None,
            store_shards: None,
        }
    }
}

/// Lifecycle of one submitted campaign.
#[derive(Debug, Clone)]
pub enum CampaignStatus {
    /// Waiting in the admission queue.
    Queued,
    /// Currently executing.
    Running,
    /// Finished; the JSONL report is ready to stream.
    Done {
        /// The report as JSON lines (one cell per line).
        body: String,
        /// Number of cells in the report.
        cells: usize,
        /// Cells served from the result store.
        served: usize,
        /// The report digest (worker-count- and cache-independent).
        digest: u64,
        /// Wall-clock milliseconds the campaign took.
        wall_ms: u64,
    },
    /// Failed; submitting again after a fix re-uses every completed cell.
    Failed {
        /// Why the campaign failed.
        error: String,
    },
}

impl CampaignStatus {
    fn name(&self) -> &'static str {
        match self {
            CampaignStatus::Queued => "queued",
            CampaignStatus::Running => "running",
            CampaignStatus::Done { .. } => "done",
            CampaignStatus::Failed { .. } => "failed",
        }
    }
}

#[derive(Debug)]
struct CampaignEntry {
    scenario: Scenario,
    cells: usize,
    status: CampaignStatus,
}

/// Cumulative service counters (all monotonic).
#[derive(Debug, Default)]
pub(crate) struct ServiceCounters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
    pub running: AtomicU64,
    /// Synthetic population cells finished (computed or store-served),
    /// indexed by the member's concrete family's position in
    /// [`TopologyFamily::CONCRETE`].
    pub population_cells: [AtomicU64; 4],
}

impl ServiceCounters {
    /// Accumulates a completed report's synthetic cells into the
    /// per-family counters.
    fn record_population_cells(&self, report: &CampaignReport) {
        for cell in report.cells() {
            let Some(pop) = &cell.population else {
                continue;
            };
            if let Some(index) = pop
                .family
                .parse::<TopologyFamily>()
                .ok()
                .and_then(|family| TopologyFamily::CONCRETE.iter().position(|f| *f == family))
            {
                self.population_cells[index].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

pub(crate) struct ServiceState {
    pub(crate) runner: CampaignRunner,
    pub(crate) latency: Arc<LatencyHistogram>,
    pub(crate) counters: ServiceCounters,
    pub(crate) queue_depth: usize,
    pub(crate) workers: usize,
    pub(crate) started: Instant,
    queue: Mutex<VecDeque<String>>,
    wake: Condvar,
    campaigns: Mutex<HashMap<String, CampaignEntry>>,
    submissions: Mutex<Vec<String>>,
    shutdown: AtomicBool,
}

impl ServiceState {
    /// The service's shared state over `store`, with no thread started.
    fn new(config: &ServiceConfig, store: ResultStore) -> Self {
        let latency = Arc::new(LatencyHistogram::new());
        let recorder = Arc::clone(&latency);
        let workers = config.workers.max(1);
        let runner = CampaignRunner::with_store(store)
            .with_workers(workers)
            .with_kernel_profiling(true)
            .with_cell_observer(Arc::new(move |_outcome, wall| recorder.record(wall)));
        Self {
            runner,
            latency,
            counters: ServiceCounters::default(),
            queue_depth: config.queue_depth,
            workers,
            started: Instant::now(),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            campaigns: Mutex::new(HashMap::new()),
            submissions: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn lock_campaigns(&self) -> std::sync::MutexGuard<'_, HashMap<String, CampaignEntry>> {
        self.campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running campaign service; dropping it shuts the service down.
pub struct ServiceHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the shared result store's counters.
    pub fn store_stats(&self) -> StoreStats {
        self.state.runner.store_stats()
    }

    /// Stops accepting, drains the in-flight campaign, and joins the
    /// service threads.  Queued-but-unstarted campaigns are abandoned.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.wake.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || self.dispatcher.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Binds the service and spawns its accept and dispatcher threads.
pub fn serve(config: ServiceConfig) -> Result<ServiceHandle, String> {
    let store = match &config.store_path {
        Some(path) => {
            ResultStore::open_sharded(path, config.store_shards.unwrap_or(DEFAULT_STORE_SHARDS))?
        }
        None => ResultStore::in_memory(),
    };
    // A daemon exists to be observed: kernel profiling is always on, so
    // `/metrics` can expose per-kind execution counters.  Profiling never
    // changes results (reports and digests are profile-independent).
    dmpb_motifs::KernelProfiler::global().set_enabled(true);
    let state = Arc::new(ServiceState::new(&config, store));

    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new()
        .name("campaignd-accept".to_string())
        .spawn(move || accept_loop(listener, accept_state))
        .map_err(|e| format!("spawning accept thread: {e}"))?;

    let dispatch_state = Arc::clone(&state);
    let dispatcher = std::thread::Builder::new()
        .name("campaignd-dispatch".to_string())
        .spawn(move || dispatch_loop(dispatch_state))
        .map_err(|e| format!("spawning dispatcher thread: {e}"))?;

    Ok(ServiceHandle {
        addr,
        state,
        accept: Some(accept),
        dispatcher: Some(dispatcher),
    })
}

fn accept_loop(listener: TcpListener, state: Arc<ServiceState>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let state = Arc::clone(&state);
                // One thread per connection: requests are short-lived
                // (submit / poll / scrape) and read/write under timeouts,
                // so a slow client ties up one thread, never the service.
                let _ = std::thread::Builder::new()
                    .name("campaignd-conn".to_string())
                    .spawn(move || handle_connection(stream, &state));
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

fn dispatch_loop(state: Arc<ServiceState>) {
    loop {
        let id = {
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = state
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let scenario = {
            let mut campaigns = state.lock_campaigns();
            let entry = campaigns
                .get_mut(&id)
                .expect("queued campaign is registered");
            entry.status = CampaignStatus::Running;
            entry.scenario.clone()
        };
        state.counters.running.store(1, Ordering::Relaxed);
        let start = Instant::now();
        let status = match state.runner.try_run(&scenario) {
            Ok(report) => {
                state.counters.completed.fetch_add(1, Ordering::Relaxed);
                state.counters.record_population_cells(&report);
                CampaignStatus::Done {
                    cells: report.outcomes.len(),
                    served: report.cache_hits(),
                    digest: report.digest(),
                    wall_ms: start.elapsed().as_millis() as u64,
                    body: report.to_lines(),
                }
            }
            Err(e) => {
                state.counters.failed.fetch_add(1, Ordering::Relaxed);
                CampaignStatus::Failed {
                    error: e.to_string(),
                }
            }
        };
        state.counters.running.store(0, Ordering::Relaxed);
        state
            .lock_campaigns()
            .get_mut(&id)
            .expect("running campaign is registered")
            .status = status;
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServiceState) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok();
    let response = match read_request(&mut stream) {
        Ok(request) => route(&request, state),
        Err(HttpError { status, message }) => Response::text(status, message),
    };
    let _ = write_response(&mut stream, &response);
}

fn route(request: &Request, state: &ServiceState) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => Response::text(200, render_metrics(state)),
        ("POST", "/campaigns") => submit_campaign(request, state),
        ("GET", "/campaigns") => list_campaigns(state),
        ("GET", path) if path.starts_with("/campaigns/") => {
            campaign_status(&path["/campaigns/".len()..], state)
        }
        ("GET" | "POST", _) => Response::text(404, format!("no route for {}\n", request.path)),
        (method, _) => Response::text(405, format!("method {method} not allowed\n")),
    }
}

fn status_line(id: &str, entry: &CampaignEntry) -> String {
    let mut w = ObjectWriter::new();
    w.field_str("id", id);
    w.field_str("scenario", &entry.scenario.name);
    w.field_str("status", entry.status.name());
    w.field_int("cells", entry.cells as i64);
    match &entry.status {
        CampaignStatus::Done {
            served,
            digest,
            wall_ms,
            ..
        } => {
            w.field_int("served", *served as i64);
            w.field_u64_hex("digest", *digest);
            w.field_int("wall_ms", *wall_ms as i64);
        }
        CampaignStatus::Failed { error } => w.field_str("error", error),
        _ => {}
    }
    w.finish()
}

fn submit_campaign(request: &Request, state: &ServiceState) -> Response {
    if state.shutdown.load(Ordering::SeqCst) {
        return Response::text(503, "shutting down\n");
    }
    let source = match std::str::from_utf8(&request.body) {
        Ok(source) => source,
        Err(e) => return Response::text(400, format!("body is not UTF-8: {e}\n")),
    };
    let mut scenario = match Scenario::parse(source) {
        Ok(scenario) => scenario,
        Err(e) => return Response::text(400, format!("scenario: {e}\n")),
    };
    // A client picks at most the daemon's width: `--workers` bounds the
    // threads any campaign spawns, whatever the body asks for.
    scenario.workers = Some(
        scenario
            .workers
            .map_or(state.workers, |w| w.min(state.workers)),
    );
    let cells = scenario.expand().len();

    // Bounded admission: the queue has a fixed depth, and a full queue
    // answers 429 instead of growing without bound.
    let id = {
        let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= state.queue_depth {
            state.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let mut w = ObjectWriter::new();
            w.field_str("error", "admission queue full");
            w.field_int("queue_depth", state.queue_depth as i64);
            return Response::json(429, w.finish()).with_header("retry-after", "1");
        }
        let seq = state.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let id = format!("{seq:04x}-{:016x}", hash_bytes(request.body.as_slice()));
        queue.push_back(id.clone());
        state.lock_campaigns().insert(
            id.clone(),
            CampaignEntry {
                scenario: scenario.clone(),
                cells,
                status: CampaignStatus::Queued,
            },
        );
        state
            .submissions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(id.clone());
        id
    };
    state.wake.notify_one();

    let mut w = ObjectWriter::new();
    w.field_str("id", &id);
    w.field_str("scenario", &scenario.name);
    w.field_str("status", "queued");
    w.field_int("cells", cells as i64);
    Response::json(202, w.finish()).with_header("location", format!("/campaigns/{id}"))
}

fn list_campaigns(state: &ServiceState) -> Response {
    let submissions = state
        .submissions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let campaigns = state.lock_campaigns();
    let mut body = String::new();
    for id in &submissions {
        if let Some(entry) = campaigns.get(id) {
            body.push_str(&status_line(id, entry));
            body.push('\n');
        }
    }
    Response::jsonl(200, body)
}

fn campaign_status(id: &str, state: &ServiceState) -> Response {
    let campaigns = state.lock_campaigns();
    let Some(entry) = campaigns.get(id) else {
        return Response::text(404, format!("unknown campaign {id}\n"));
    };
    match &entry.status {
        CampaignStatus::Done {
            body,
            cells,
            served,
            digest,
            wall_ms,
        } => Response::jsonl(200, body.clone())
            .with_header("x-dmpb-cells", cells.to_string())
            .with_header("x-dmpb-store-served", served.to_string())
            .with_header("x-dmpb-digest", format!("{digest:016x}"))
            .with_header("x-dmpb-wall-ms", wall_ms.to_string()),
        CampaignStatus::Failed { .. } => Response::json(500, status_line(id, entry)),
        CampaignStatus::Queued | CampaignStatus::Running => {
            Response::json(202, status_line(id, entry))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A POSTed scenario cannot ask for more cells at once than the
    /// daemon's `--workers`: the queued campaign carries the capped width.
    #[test]
    fn a_submitted_campaign_is_capped_at_the_daemon_width() {
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let state = ServiceState::new(&config, ResultStore::in_memory());
        let source = r#"
[scenario]
name = "wide-request"

[axes]
workloads = ["TeraSort", "KMeans"]
clusters = ["five-node-westmere"]
elements = [64]
seeds = [7]

[executor]
workers = 64
"#;
        let request = Request {
            method: "POST".to_string(),
            path: "/campaigns".to_string(),
            headers: Vec::new(),
            body: source.as_bytes().to_vec(),
        };
        let response = submit_campaign(&request, &state);
        assert_eq!(
            response.status,
            202,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let campaigns = state.lock_campaigns();
        let entry = campaigns.values().next().expect("one queued campaign");
        assert!(matches!(entry.status, CampaignStatus::Queued));
        assert!(entry.cells <= 2, "{} cells", entry.cells);
        assert_eq!(entry.scenario.workers, Some(1));
    }
}
