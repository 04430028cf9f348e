//! Integration tests of the campaign daemon over real TCP: concurrent
//! clients, warm store-served re-submission, `/metrics` consistency with
//! the store's own counters, and bounded-admission rejection.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dmpb_service::http::{http_request, ClientResponse};
use dmpb_service::{serve, ServiceConfig, MAX_CONNECTIONS};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A small two-workload sweep: 2 workloads x 2 seeds = 4 cells.
const SCENARIO: &str = r#"
[scenario]
name = "daemon-it"
description = "small sweep for the daemon integration test"

[axes]
workloads = ["TeraSort", "KMeans"]
clusters = ["five-node-westmere"]
elements = [600]
seeds = [7, 8]
"#;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmpb-daemon-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.jsonl")
}

fn get(addr: &str, path: &str) -> ClientResponse {
    http_request(addr, "GET", path, b"", TIMEOUT).expect("GET succeeds at the transport level")
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> &'a str {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("response missing header {name}"))
}

fn submit(addr: &str, source: &str) -> String {
    let (status, _, body) =
        http_request(addr, "POST", "/campaigns", source.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(
        status,
        202,
        "submission should be accepted: {}",
        String::from_utf8_lossy(&body)
    );
    let text = String::from_utf8(body).unwrap();
    let fields = dmpb_metrics::json::parse_object(text.trim()).unwrap();
    fields
        .iter()
        .find(|(k, _)| k == "id")
        .and_then(|(_, v)| v.as_str().map(str::to_string))
        .expect("submission response carries an id")
}

/// Polls until the campaign stops being queued/running.
fn wait_done(addr: &str, id: &str) -> ClientResponse {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let (status, headers, body) = get(addr, &format!("/campaigns/{id}"));
        if status != 202 {
            return (status, headers, body);
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} still pending after {TIMEOUT:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn metric_value(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metrics page missing {name}\n{page}"))
}

#[test]
fn concurrent_clients_then_warm_resubmission_is_store_served() {
    let store = temp_store("warm");
    let handle = serve(ServiceConfig {
        store_path: Some(store.clone()),
        queue_depth: 8,
        workers: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let (status, _, body) = get(&addr, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    // Two clients race their submissions from separate threads over real
    // TCP; both campaigns must complete (the second waits in the queue).
    let cold: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let id = submit(&addr, SCENARIO);
                    wait_done(&addr, &id)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, _, body) in &cold {
        assert_eq!(
            *status,
            200,
            "campaign failed: {}",
            String::from_utf8_lossy(body)
        );
    }
    // Whichever client ran second was fully served from the store, so
    // both reports are byte-identical.
    assert_eq!(cold[0].2, cold[1].2, "concurrent reports must agree");

    // A warm re-submission is >= 90% store-served and byte-identical.
    let id = submit(&addr, SCENARIO);
    let (status, headers, warm_body) = wait_done(&addr, &id);
    assert_eq!(status, 200);
    let cells: usize = header(&headers, "x-dmpb-cells").parse().unwrap();
    let served: usize = header(&headers, "x-dmpb-store-served").parse().unwrap();
    assert_eq!(cells, 4, "2 workloads x 2 seeds should expand to 4 cells");
    assert!(
        served as f64 >= 0.9 * cells as f64,
        "warm run should be store-served: {served}/{cells}"
    );
    assert_eq!(warm_body, cold[0].2, "warm report must be byte-identical");

    // /metrics must agree with the store's own counters.
    let (status, _, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let page = String::from_utf8(metrics).unwrap();
    let stats = handle.store_stats();
    assert_eq!(
        metric_value(&page, "dmpb_store_hits_total") as u64,
        stats.hits
    );
    assert_eq!(
        metric_value(&page, "dmpb_store_misses_total") as u64,
        stats.misses
    );
    assert_eq!(
        metric_value(&page, "dmpb_store_entries") as usize,
        stats.entries
    );
    assert_eq!(metric_value(&page, "dmpb_campaigns_completed_total"), 3.0);
    assert_eq!(metric_value(&page, "dmpb_campaigns_submitted_total"), 3.0);
    // The page renders the ratio at 6 decimal places.
    assert!((metric_value(&page, "dmpb_store_hit_ratio") - stats.hit_ratio()).abs() < 1e-5);
    // The histogram saw every cell of every campaign.
    assert_eq!(
        metric_value(&page, "dmpb_cell_latency_seconds_count") as u64,
        3 * cells as u64
    );
    // The daemon runs with kernel profiling always on, so per-kind
    // execution counters are exposed once kernels have run.
    assert!(
        page.contains("dmpb_kernel_invocations_total{kind=\""),
        "per-kind kernel counters missing:\n{page}"
    );
    assert!(page.contains("dmpb_kernel_elements_total{kind=\""));
    assert!(page.contains("dmpb_kernel_seconds_total{kind=\""));

    // The submission list shows all three campaigns done, in order.
    let (status, _, list) = get(&addr, "/campaigns");
    assert_eq!(status, 200);
    let list = String::from_utf8(list).unwrap();
    assert_eq!(list.lines().count(), 3);
    assert!(list
        .lines()
        .all(|line| line.contains("\"status\":\"done\"")));

    handle.shutdown();
    std::fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn full_admission_queue_answers_429() {
    // Depth 0 makes every submission an overflow, deterministically.
    let handle = serve(ServiceConfig {
        queue_depth: 0,
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let (status, headers, body) =
        http_request(&addr, "POST", "/campaigns", SCENARIO.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert_eq!(header(&headers, "retry-after"), "1");
    assert!(String::from_utf8_lossy(&body).contains("admission queue full"));

    let (_, _, metrics) = get(&addr, "/metrics");
    let page = String::from_utf8(metrics).unwrap();
    assert_eq!(metric_value(&page, "dmpb_campaigns_rejected_total"), 1.0);
    assert_eq!(metric_value(&page, "dmpb_campaigns_submitted_total"), 0.0);

    handle.shutdown();
}

#[test]
fn bad_requests_get_specific_statuses() {
    let handle = serve(ServiceConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    let (status, _, body) =
        http_request(&addr, "POST", "/campaigns", b"[scenario", TIMEOUT).unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).starts_with("scenario:"));

    let (status, _, _) = get(&addr, "/campaigns/0000-ffffffffffffffff");
    assert_eq!(status, 404);

    let (status, _, _) = get(&addr, "/nope");
    assert_eq!(status, 404);

    let (status, _, _) = http_request(&addr, "DELETE", "/campaigns", b"", TIMEOUT).unwrap();
    assert_eq!(status, 405);

    handle.shutdown();
}

/// A population-only sweep: 3 synthesized workloads, no named ones.
const POPULATION_SCENARIO: &str = r#"
[scenario]
name = "daemon-population"
description = "population sweep for the daemon integration test"

[axes]
workloads = []
elements = [600]

[population]
size = 3
base-seed = 0xDA7A
family = "mixed"
"#;

#[test]
fn population_campaigns_run_and_export_per_family_counters() {
    let handle = serve(ServiceConfig {
        queue_depth: 8,
        workers: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let id = submit(&addr, POPULATION_SCENARIO);
    let (status, headers, cold_body) = wait_done(&addr, &id);
    assert_eq!(
        status,
        200,
        "population campaign failed: {}",
        String::from_utf8_lossy(&cold_body)
    );
    let cells: usize = header(&headers, "x-dmpb-cells").parse().unwrap();
    assert_eq!(cells, 3);
    let body = String::from_utf8(cold_body).unwrap();
    assert!(
        body.contains("\"pop_label\":\"synthetic-"),
        "report lines must carry the synthetic identity:\n{body}"
    );

    // A warm re-submission is store-served and still counted per family.
    let id = submit(&addr, POPULATION_SCENARIO);
    let (status, headers, warm_body) = wait_done(&addr, &id);
    assert_eq!(status, 200);
    let served: usize = header(&headers, "x-dmpb-store-served").parse().unwrap();
    assert_eq!(served, 3, "warm population run must be store-served");
    assert_eq!(String::from_utf8(warm_body).unwrap(), body);

    let (status, _, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let page = String::from_utf8(metrics).unwrap();
    // All four concrete families are always exposed, and their series
    // sum to the synthetic cells of both campaigns.
    let mut total = 0.0;
    for family in ["chain", "fork-join", "diamond", "layered"] {
        let name = format!("dmpb_population_cells_total{{family=\"{family}\"}}");
        total += metric_value(&page, &name);
    }
    assert_eq!(total as usize, 2 * cells, "{page}");

    handle.shutdown();
}

/// Sums every series of a labelled per-shard metric family on the page.
fn shard_family_sum(page: &str, family: &str) -> f64 {
    let mut series = 0;
    let sum = page
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(family)?;
            let rest = rest.strip_prefix("{shard=\"")?;
            let (_, value) = rest.split_once("\"} ")?;
            series += 1;
            value.trim().parse::<f64>().ok()
        })
        .sum();
    assert!(series > 0, "metrics page has no {family} series:\n{page}");
    sum
}

#[test]
fn sharded_store_daemon_exports_per_shard_metrics_that_sum_to_aggregates() {
    let store_dir =
        std::env::temp_dir().join(format!("dmpb-daemon-shards-{}/store", std::process::id()));
    std::fs::remove_dir_all(store_dir.parent().unwrap()).ok();
    let handle = serve(ServiceConfig {
        store_path: Some(store_dir.clone()),
        store_shards: Some(4),
        queue_depth: 8,
        workers: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // A cold then a warm submission: the warm one turns lookups into
    // hits, so every per-shard family carries real, non-zero traffic.
    let cold_id = submit(&addr, SCENARIO);
    let (status, _, cold_body) = wait_done(&addr, &cold_id);
    assert_eq!(status, 200);
    let warm_id = submit(&addr, SCENARIO);
    let (status, _, warm_body) = wait_done(&addr, &warm_id);
    assert_eq!(status, 200);
    assert_eq!(
        cold_body, warm_body,
        "sharded warm report must be byte-identical"
    );

    let (status, _, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let page = String::from_utf8(metrics).unwrap();
    let stats = handle.store_stats();
    assert!(stats.hits > 0, "warm run must have produced store hits");
    let families = [
        ("dmpb_store_shard_hits_total", stats.hits),
        ("dmpb_store_shard_misses_total", stats.misses),
        ("dmpb_store_shard_entries", stats.entries as u64),
        (
            "dmpb_store_shard_persist_errors_total",
            stats.persist_errors,
        ),
    ];
    for (family, aggregate) in families {
        assert_eq!(
            shard_family_sum(&page, family) as u64,
            aggregate,
            "{family} series must sum to the aggregate counter"
        );
    }
    // One series per configured shard.
    assert_eq!(
        page.lines()
            .filter(|l| l.starts_with("dmpb_store_shard_entries{"))
            .count(),
        4
    );

    handle.shutdown();
    std::fs::remove_dir_all(store_dir.parent().unwrap()).ok();
}

#[test]
fn connections_beyond_the_cap_get_503_until_some_close() {
    let handle = serve(ServiceConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    // Idle clients: each holds a connection thread in its read timeout.
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    let (status, headers, _) = get(&addr, "/healthz");
    assert_eq!(
        status,
        503,
        "connection {} is beyond the cap",
        MAX_CONNECTIONS + 1
    );
    assert_eq!(header(&headers, "retry-after"), "1");

    drop(idle);
    // Once the idle connections' threads end, only the scrape is open.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let (status, _, body) = get(&addr, "/metrics");
        if status == 200
            && metric_value(&String::from_utf8(body).unwrap(), "dmpb_open_connections") == 1.0
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle connections still open after {TIMEOUT:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(get(&addr, "/healthz").0, 200);
    handle.shutdown();
}
