//! Lock-free kernel execution profiling at the registry dispatch boundary.
//!
//! The [`KernelProfiler`] answers the question the analytic cost models
//! cannot: where does *sample execution* actually spend its time?  Every
//! [`MotifKind`] gets a cache-line-padded slot of
//! relaxed atomic counters — invocations, elements processed, cumulative
//! nanoseconds — plus a lock-free
//! [`LatencyHistogram`].
//!
//! Three properties make the profiler safe to leave compiled into the
//! hot dispatch path:
//!
//! * **Near-zero overhead when disabled.**  The executor hoists one
//!   relaxed [`KernelProfiler::enabled`] load per DAG execution; disabled
//!   runs take no timestamps and touch no counters.  Enabled runs record
//!   once per DAG edge.
//! * **Lock-free when enabled.**  Recording is a handful of relaxed
//!   atomic adds on a `#[repr(align(128))]` slot owned by the executed
//!   kind, so concurrent workers executing different motifs never share
//!   a cache line, and workers executing the same motif contend only on
//!   that motif's counters.
//! * **No effect on results.**  Profiling changes *how execution is
//!   observed*, never what it computes: kernel checksums, report bytes
//!   and campaign digests are byte-identical with profiling on or off.
//!
//! A [`KernelProfile`] snapshot serializes to JSON lines via
//! [`dmpb_metrics::json`] (`campaign --profile-out`; the `campaignd`
//! `/metrics` page renders the same counters).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use dmpb_metrics::histogram::{HistogramSnapshot, LatencyHistogram};
use dmpb_metrics::json::ObjectWriter;

use crate::class::MotifKind;

/// Number of profiled kinds (one slot per [`MotifKind`]).
const KINDS: usize = MotifKind::ALL.len();

/// One motif kind's counters, padded to two cache lines so concurrent
/// recorders of *different* kinds never bounce a line between cores.
#[repr(align(128))]
#[derive(Debug, Default)]
struct KindSlot {
    invocations: AtomicU64,
    elements: AtomicU64,
    ns: AtomicU64,
    latency: LatencyHistogram,
}

/// Lock-free, per-[`MotifKind`] execution counters (see the
/// [module documentation](self)).
///
/// Most callers use the process-wide [`KernelProfiler::global`]; tests
/// construct private instances.
#[derive(Debug)]
pub struct KernelProfiler {
    enabled: AtomicBool,
    slots: [KindSlot; KINDS],
}

impl Default for KernelProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelProfiler {
    /// A disabled profiler with zeroed counters.
    pub(crate) fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            slots: std::array::from_fn(|_| KindSlot::default()),
        }
    }

    /// The process-wide profiler the executor samples into.
    pub fn global() -> &'static KernelProfiler {
        static PROFILER: OnceLock<KernelProfiler> = OnceLock::new();
        PROFILER.get_or_init(KernelProfiler::new)
    }

    /// Whether sampling is on.  One relaxed load — the *only* cost the
    /// profiler imposes on a disabled hot path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns sampling on or off, returning the previous state so a
    /// scoped caller can restore it.  Counters are kept either way; a
    /// measurement window is the difference of two snapshots.
    pub fn set_enabled(&self, enabled: bool) -> bool {
        self.enabled.swap(enabled, Ordering::Relaxed)
    }

    /// Records one kernel execution (one DAG edge).  Callers check
    /// [`KernelProfiler::enabled`] first (and so avoid taking the
    /// timestamp at all when sampling is off).
    pub fn record(&self, kind: MotifKind, elements: usize, elapsed: Duration) {
        let slot = &self.slots[kind as usize];
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        slot.invocations.fetch_add(1, Ordering::Relaxed);
        slot.elements.fetch_add(elements as u64, Ordering::Relaxed);
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        slot.latency.record_ns(ns);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> KernelProfile {
        KernelProfile {
            kinds: MotifKind::ALL
                .iter()
                .zip(&self.slots)
                .map(|(&kind, slot)| KernelProfileEntry {
                    kind,
                    invocations: slot.invocations.load(Ordering::Relaxed),
                    elements: slot.elements.load(Ordering::Relaxed),
                    ns: slot.ns.load(Ordering::Relaxed),
                    latency: slot.latency.snapshot(),
                })
                .collect(),
        }
    }
}

/// One [`MotifKind`]'s share of a [`KernelProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelProfileEntry {
    /// The profiled motif implementation.
    pub kind: MotifKind,
    /// Kernel executions recorded.
    pub invocations: u64,
    /// Elements processed across all invocations.
    pub elements: u64,
    /// Cumulative execution time in nanoseconds.
    pub ns: u64,
    /// Per-invocation latency distribution.
    pub latency: HistogramSnapshot,
}

/// A point-in-time snapshot of a [`KernelProfiler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Per-kind counters in [`MotifKind::ALL`] order (all 33 entries,
    /// including never-invoked kinds).
    pub kinds: Vec<KernelProfileEntry>,
}

impl KernelProfile {
    /// Total kernel invocations across all kinds.
    pub fn total_invocations(&self) -> u64 {
        self.kinds.iter().map(|e| e.invocations).sum()
    }

    /// Total elements processed across all kinds.
    pub fn total_elements(&self) -> u64 {
        self.kinds.iter().map(|e| e.elements).sum()
    }

    /// Total recorded execution time in nanoseconds.
    pub(crate) fn total_ns(&self) -> u64 {
        self.kinds.iter().map(|e| e.ns).sum()
    }

    /// Invoked kinds ordered by cumulative time, hottest first (ties
    /// break on invocations, then [`MotifKind::ALL`] order, so the
    /// ranking is deterministic).
    pub(crate) fn hottest(&self) -> Vec<&KernelProfileEntry> {
        let mut hot: Vec<&KernelProfileEntry> =
            self.kinds.iter().filter(|e| e.invocations > 0).collect();
        hot.sort_by(|a, b| (b.ns, b.invocations, a.kind).cmp(&(a.ns, a.invocations, b.kind)));
        hot
    }

    /// Serializes the profile as JSON lines: one `record:"profile"`
    /// header with the totals and one `record:"kind"` line per *invoked*
    /// kind (hottest first).  Every line is a flat object readable by
    /// [`dmpb_metrics::json::parse_object`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = ObjectWriter::new();
        header.field_str("record", "profile");
        header.field_int(
            "kinds_invoked",
            self.kinds.iter().filter(|e| e.invocations > 0).count() as i64,
        );
        header.field_int("invocations", self.total_invocations() as i64);
        header.field_int("elements", self.total_elements() as i64);
        header.field_int("ns", self.total_ns() as i64);
        out.push_str(&header.finish());
        out.push('\n');
        for entry in self.hottest() {
            let mut w = ObjectWriter::new();
            w.field_str("record", "kind");
            w.field_str("kind", entry.kind.name());
            w.field_str("class", entry.kind.class().name());
            w.field_int("invocations", entry.invocations as i64);
            w.field_int("elements", entry.elements as i64);
            w.field_int("ns", entry.ns as i64);
            w.field_f64("mean_ns", entry.latency.mean_ns().unwrap_or(0.0));
            w.field_int("p50_ns", entry.latency.quantile_ns(0.5).unwrap_or(0) as i64);
            w.field_int(
                "p95_ns",
                entry.latency.quantile_ns(0.95).unwrap_or(0) as i64,
            );
            w.field_int(
                "p99_ns",
                entry.latency.quantile_ns(0.99).unwrap_or(0) as i64,
            );
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_metrics::json::parse_object;

    #[test]
    fn disabled_profiler_reports_empty_profile() {
        let p = KernelProfiler::new();
        assert!(!p.enabled());
        let profile = p.snapshot();
        assert_eq!(profile.kinds.len(), MotifKind::ALL.len());
        assert_eq!(profile.total_invocations(), 0);
        assert!(profile.hottest().is_empty());
    }

    #[test]
    fn recording_accumulates_per_kind() {
        let p = KernelProfiler::new();
        p.set_enabled(true);
        p.record(MotifKind::QuickSort, 100, Duration::from_micros(50));
        p.record(MotifKind::QuickSort, 200, Duration::from_micros(70));
        p.record(MotifKind::Fft, 64, Duration::from_micros(5));
        let profile = p.snapshot();
        let qs = &profile.kinds[MotifKind::QuickSort as usize];
        assert_eq!(qs.invocations, 2);
        assert_eq!(qs.elements, 300);
        assert_eq!(qs.ns, 120_000);
        assert_eq!(qs.latency.count, 2);
        assert_eq!(profile.kinds[MotifKind::Fft as usize].invocations, 1);
        assert_eq!(profile.kinds[MotifKind::MergeSort as usize].invocations, 0);
        assert_eq!(profile.total_invocations(), 3);
        assert_eq!(profile.total_elements(), 364);
    }

    #[test]
    fn hottest_orders_by_cumulative_time() {
        let p = KernelProfiler::new();
        p.record(MotifKind::Fft, 1, Duration::from_micros(10));
        p.record(MotifKind::QuickSort, 1, Duration::from_millis(5));
        p.record(MotifKind::MinMax, 1, Duration::from_nanos(500));
        let hot = p.snapshot();
        let hot = hot.hottest();
        let kinds: Vec<MotifKind> = hot.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![MotifKind::QuickSort, MotifKind::Fft, MotifKind::MinMax]
        );
    }

    #[test]
    fn jsonl_dump_parses_line_by_line() {
        let p = KernelProfiler::new();
        p.record(MotifKind::QuickSort, 512, Duration::from_micros(80));
        p.record(MotifKind::GraphTraversal, 256, Duration::from_micros(40));
        let dump = p.snapshot().to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 kinds: {dump}");
        for line in &lines {
            parse_object(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        }
        assert!(lines[0].contains("\"record\":\"profile\""));
        assert!(
            lines[1].contains("\"kind\":\"quick-sort\""),
            "hottest first"
        );
    }
}
