//! Execution metrics: the flame-graph substitute.
//!
//! The paper's Fig. 1 contrasts where vanilla Spark and the Indexed
//! DataFrame spend time across repeated joins (hash-table building and
//! shuffles vs. local probes). Without a JVM profiler we reproduce the
//! breakdown with wall-time phase counters (`phase.build_ns`,
//! `phase.probe_ns`, `phase.recompute_ns`, `shuffle.ns`) that the operators
//! feed.
//!
//! Everything the engine counts lives in one [`Registry`]: named counters,
//! gauges and log₂-bucket histograms, sharded per worker (plus one driver
//! shard) so hot-path increments never contend across workers, merged on
//! read. Per-query deltas come from two [`Registry::merged`] snapshots and
//! [`RegistrySnapshot::since`]. [`Trace`] records `operator → stage → task`
//! spans into a bounded buffer that dumps as JSON.
//! `Cluster::metrics_json()` / `Cluster::trace_report()` serialize both;
//! the schema is documented in DESIGN.md.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Named-metric registry: counters, gauges, log₂ histograms
// ---------------------------------------------------------------------

/// A monotonically increasing named counter. Lock-free after the first
/// registry lookup: callers hold an `Arc<Counter>` and `fetch_add` on it.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Time `f` and add the elapsed nanoseconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(start.elapsed().as_nanos() as u64);
        r
    }
}

/// A named last-value gauge. Shards are merged by `max`, which is correct
/// for the watermark-style values we publish (generation counters, high
/// water marks); set gauges from one place if you need exact semantics.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]`; bucket 64 tops out at `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A lock-free log₂-bucket histogram (count/sum/min/max plus 65 buckets).
/// Recording is a handful of relaxed atomic RMWs; snapshots are not
/// atomic across fields, which is fine for monitoring.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive value range covered by bucket `b`.
    pub fn bucket_range(b: usize) -> (u64, u64) {
        match b {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (b - 1), (1 << b) - 1),
        }
    }

    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Time `f` and record the elapsed nanoseconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(start.elapsed().as_nanos() as u64);
        r
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: Vec::new(),
        };
        if snap.count == 0 {
            snap.min = 0;
        }
        for (b, c) in self.buckets.iter().enumerate() {
            let c = c.load(Relaxed);
            if c > 0 {
                snap.buckets.push((b as u32, c));
            }
        }
        snap
    }

    fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

/// Plain-value copy of a [`Histogram`]; `buckets` lists only occupied
/// buckets as `(log2_index, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile from the log₂ buckets: the upper edge of
    /// the bucket holding the `⌈q·count⌉`-th value, clamped to the observed
    /// `[min, max]` so single-bucket histograms report exact values and
    /// `q = 1.0` never reports the unbounded top-bucket edge. `q` itself is
    /// clamped into `0.0 ..= 1.0`. Returns `None` for an empty histogram —
    /// an empty distribution has no quantiles, and the previous `0` return
    /// was indistinguishable from a real all-zero sample.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(b, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                let (_, hi) = Histogram::bucket_range(b as usize);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another snapshot into this one (shard merge on read).
    fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for (b, c) in &other.buckets {
            *merged.entry(*b).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// One shard of the registry: name → metric maps. The mutex guards only
/// registration (first lookup of a name); increments go through the
/// returned `Arc` handles without touching the shard again.
#[derive(Default)]
struct MetricShard {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

/// Registry of named metrics, sharded per worker plus one driver shard
/// (index `num_workers`). Reads merge all shards: counters and histogram
/// buckets sum, gauges take the max.
pub struct Registry {
    shards: Vec<MetricShard>,
}

impl Registry {
    pub fn new(num_workers: usize) -> Registry {
        Registry {
            shards: (0..=num_workers).map(|_| MetricShard::default()).collect(),
        }
    }

    fn driver_shard(&self) -> usize {
        self.shards.len() - 1
    }

    fn shard_index(&self, worker: Option<usize>) -> usize {
        match worker {
            Some(w) if w < self.shards.len() - 1 => w,
            _ => self.driver_shard(),
        }
    }

    /// Counter on the driver shard.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_on(None, name)
    }

    /// Counter on a worker's shard (`None` → driver shard).
    pub fn counter_on(&self, worker: Option<usize>, name: &str) -> Arc<Counter> {
        let shard = &self.shards[self.shard_index(worker)];
        let mut map = shard.counters.lock();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_on(None, name)
    }

    pub fn gauge_on(&self, worker: Option<usize>, name: &str) -> Arc<Gauge> {
        let shard = &self.shards[self.shard_index(worker)];
        let mut map = shard.gauges.lock();
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_on(None, name)
    }

    pub fn histogram_on(&self, worker: Option<usize>, name: &str) -> Arc<Histogram> {
        let shard = &self.shards[self.shard_index(worker)];
        let mut map = shard.histograms.lock();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Merged value of a named counter across all shards.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.counters.lock().get(name).map(|c| c.get()))
            .sum()
    }

    /// Merged (max) value of a named gauge across all shards.
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.gauges.lock().get(name).map(|g| g.get()))
            .max()
            .unwrap_or(0)
    }

    /// Merged snapshot of a named histogram, if it was ever registered.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut out: Option<HistogramSnapshot> = None;
        for s in &self.shards {
            if let Some(h) = s.histograms.lock().get(name) {
                let snap = h.snapshot();
                match &mut out {
                    Some(acc) => acc.merge(&snap),
                    None => out = Some(snap),
                }
            }
        }
        out
    }

    /// Merge every shard into deterministic name-sorted maps.
    pub fn merged(&self) -> RegistrySnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for s in &self.shards {
            for (name, c) in s.counters.lock().iter() {
                *counters.entry(name.clone()).or_insert(0) += c.get();
            }
            for (name, g) in s.gauges.lock().iter() {
                let e = gauges.entry(name.clone()).or_insert(0);
                *e = (*e).max(g.get());
            }
            for (name, h) in s.histograms.lock().iter() {
                histograms
                    .entry(name.clone())
                    .or_default()
                    .merge(&h.snapshot());
            }
        }
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset(&self) {
        for s in &self.shards {
            for c in s.counters.lock().values() {
                c.0.store(0, Relaxed);
            }
            for g in s.gauges.lock().values() {
                g.0.store(0, Relaxed);
            }
            for h in s.histograms.lock().values() {
                h.reset();
            }
        }
    }
}

/// Merged, plain-value view of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Per-counter growth since an `earlier` snapshot of the same registry
    /// (per-query deltas for Fig. 1 and `DataFrame::analyze`). Saturating:
    /// a [`Registry::reset`] between the two reads yields 0, not a panic
    /// or a wrapped ~2⁶⁴.
    pub fn since(&self, earlier: &RegistrySnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(name, &v)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(before))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Span trace: operator → stage → task
// ---------------------------------------------------------------------

/// What level of the execution hierarchy a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A physical operator's own work (driver side, children excluded).
    Operator,
    /// One `Cluster::run_stage` invocation.
    Stage,
    /// One task attempt on an executor thread.
    Task,
}

impl SpanKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Operator => "operator",
            SpanKind::Stage => "stage",
            SpanKind::Task => "task",
        }
    }
}

/// One completed span. `parent == 0` means a root span. `worker` and
/// `partition` are `-1` when not applicable (driver-side spans).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    pub name: String,
    /// Microseconds since the trace epoch (cluster construction).
    pub start_us: u64,
    pub dur_us: u64,
    pub worker: i64,
    pub partition: i64,
}

/// Bounded span buffer. Spans past the cap are counted in `dropped`
/// instead of growing without bound. The `current_parent` register lets
/// driver-side operator spans adopt the stages they launch: operators
/// execute sequentially on the driver thread, so a single register (saved
/// and restored around each operator body) reconstructs the nesting.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    current_parent: AtomicU64,
    dropped: AtomicU64,
    cap: usize,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Trace {
    pub const DEFAULT_CAP: usize = 65_536;

    pub fn new(cap: usize) -> Trace {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_parent: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cap,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Microseconds since the trace epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Install `id` as the parent for spans recorded until `set_parent` is
    /// called again; returns the previous parent for restoration.
    pub fn set_parent(&self, id: u64) -> u64 {
        self.current_parent.swap(id, Relaxed)
    }

    pub fn current_parent(&self) -> u64 {
        self.current_parent.load(Relaxed)
    }

    pub fn record(&self, rec: SpanRecord) {
        let mut spans = self.spans.lock();
        if spans.len() < self.cap {
            spans.push(rec);
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    pub fn reset(&self) {
        self.spans.lock().clear();
        self.dropped.store(0, Relaxed);
        self.current_parent.store(0, Relaxed);
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(Trace::DEFAULT_CAP)
    }
}

// ---------------------------------------------------------------------
// Hand-rolled JSON (no serde in the offline shim set)
// ---------------------------------------------------------------------

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl HistogramSnapshot {
    /// `{"count":..,"sum":..,"min":..,"max":..,"buckets":[{"log2":b,"lo":..,"hi":..,"count":..}]}`
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count, self.sum, self.min, self.max
        );
        for (i, (b, c)) in self.buckets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (lo, hi) = Histogram::bucket_range(*b as usize);
            s.push_str(&format!(
                "{{\"log2\":{b},\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}"
            ));
        }
        s.push_str("]}");
        s
    }
}

impl RegistrySnapshot {
    /// The `"counters"` / `"gauges"` / `"histograms"` JSON fragment (an
    /// object body without the enclosing braces, for embedding).
    pub fn to_json_fields(&self) -> String {
        let mut s = String::from("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", json_escape(name), h.to_json()));
        }
        s.push('}');
        s
    }
}

impl SpanRecord {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"name\":\"{}\",\
             \"start_us\":{},\"dur_us\":{},\"worker\":{},\"partition\":{}}}",
            self.id,
            self.parent,
            self.kind.as_str(),
            json_escape(&self.name),
            self.start_us,
            self.dur_us,
            self.worker,
            self.partition
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_range(b);
            assert_eq!(Histogram::bucket_of(lo), b);
            assert_eq!(Histogram::bucket_of(hi), b);
        }
    }

    #[test]
    fn histogram_snapshot_tracks_stats() {
        let h = Histogram::default();
        for v in [0u64, 1, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1_001_004);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets.len(), 5, "five distinct buckets occupied");
        assert!(s.mean() > 200_000.0);
    }

    #[test]
    fn histogram_percentiles_from_buckets() {
        // 90 fast values (bucket of 100) + 10 slow ones (bucket of 10_000):
        // p50 lands in the fast bucket, p99 in the slow one.
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot();
        let p50 = s.percentile(0.50).unwrap();
        let p99 = s.percentile(0.99).unwrap();
        assert!((100..=127).contains(&p50), "p50 in the fast bucket: {p50}");
        assert!(
            (8192..=10_000).contains(&p99),
            "p99 in the slow bucket: {p99}"
        );
        assert!(s.percentile(1.0).unwrap() >= p99);
    }

    /// Regression: an empty histogram has no quantiles (the old code
    /// returned a fake 0), and `p = 1.0` must report the observed max, not
    /// the unbounded top-bucket edge.
    #[test]
    fn histogram_percentile_edge_cases() {
        // Empty: every quantile is None.
        for q in [0.0, 0.5, 1.0, -3.0, 7.0] {
            assert_eq!(HistogramSnapshot::default().percentile(q), None);
        }

        // Single sample: p0, p50 and p100 are all exactly the sample,
        // thanks to the min/max clamp.
        let h = Histogram::default();
        h.record(777);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.0), Some(777));
        assert_eq!(s.percentile(0.5), Some(777));
        assert_eq!(s.percentile(1.0), Some(777));
        // Out-of-range q clamps rather than panicking or extrapolating.
        assert_eq!(s.percentile(-1.0), Some(777));
        assert_eq!(s.percentile(2.0), Some(777));

        // Saturated histogram: u64::MAX lands in the open-ended top bucket
        // whose `hi` is u64::MAX; the max clamp keeps p100 exact and p0
        // pinned to the observed minimum.
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.percentile(1.0), Some(u64::MAX));
        assert_eq!(s.percentile(0.0), Some(1));
        // The p100 of a 1-sample saturated histogram is the sample itself.
        let h = Histogram::default();
        h.record(u64::MAX - 3);
        assert_eq!(h.snapshot().percentile(1.0), Some(u64::MAX - 3));
    }

    #[test]
    fn registry_merges_shards() {
        let r = Registry::new(2);
        r.counter_on(Some(0), "x").add(3);
        r.counter_on(Some(1), "x").add(4);
        r.counter("x").add(5); // driver shard
        assert_eq!(r.counter_value("x"), 12);
        r.gauge_on(Some(0), "g").set(7);
        r.gauge_on(Some(1), "g").set(9);
        assert_eq!(r.gauge_value("g"), 9, "gauges merge by max");
        r.histogram_on(Some(0), "h").record(1);
        r.histogram_on(Some(1), "h").record(100);
        let h = r.histogram_snapshot("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets.len(), 2);
        let merged = r.merged();
        assert_eq!(merged.counters["x"], 12);
        assert_eq!(merged.gauges["g"], 9);
        assert_eq!(merged.histograms["h"].count, 2);
    }

    #[test]
    fn registry_handles_survive_reset() {
        let r = Registry::new(1);
        let c = r.counter("c");
        c.add(10);
        r.reset();
        assert_eq!(r.counter_value("c"), 0);
        c.add(2);
        assert_eq!(r.counter_value("c"), 2);
    }

    #[test]
    fn counter_time_accumulates() {
        let c = Counter::default();
        let out = c.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(c.get() >= 1_000_000);
    }

    /// `since` is the per-counter growth; a counter registered between the
    /// two reads counts from 0. Regression: a reset between the reads used
    /// to underflow the raw `u64` subtraction (a debug panic, a ~2⁶⁴ delta
    /// in release); it now saturates at 0.
    #[test]
    fn since_saturates_across_reset() {
        let r = Registry::new(1);
        r.counter_on(Some(0), "rows").add(10);
        r.counter("ns").add(1_000);
        let before = r.merged();
        r.counter("rows").add(5);
        r.counter("fresh").add(3);
        let d = r.merged().since(&before);
        assert_eq!((d["rows"], d["ns"], d["fresh"]), (5, 0, 3));

        let before = r.merged();
        r.reset();
        r.counter("rows").add(4);
        let d = r.merged().since(&before);
        assert_eq!((d["rows"], d["ns"], d["fresh"]), (0, 0, 0));
    }

    #[test]
    fn registry_out_of_range_worker_lands_on_driver_shard() {
        let r = Registry::new(2);
        r.counter_on(Some(99), "c").add(1);
        assert_eq!(r.counter_value("c"), 1);
    }

    #[test]
    fn trace_caps_and_counts_drops() {
        let t = Trace::new(2);
        for i in 0..4 {
            t.record(SpanRecord {
                id: t.next_span_id(),
                parent: 0,
                kind: SpanKind::Stage,
                name: format!("s{i}"),
                start_us: t.now_us(),
                dur_us: 1,
                worker: -1,
                partition: -1,
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn trace_parent_register_nests() {
        let t = Trace::default();
        assert_eq!(t.current_parent(), 0);
        let outer = t.next_span_id();
        let prev = t.set_parent(outer);
        assert_eq!(prev, 0);
        assert_eq!(t.current_parent(), outer);
        let restored = t.set_parent(prev);
        assert_eq!(restored, outer);
        assert_eq!(t.current_parent(), 0);
    }

    #[test]
    fn json_escaping_and_shapes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let h = Histogram::default();
        h.record(5);
        let j = h.snapshot().to_json();
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"log2\":3"));
        assert!(j.contains("\"lo\":4"));
        assert!(j.contains("\"hi\":7"));
        let r = Registry::new(1);
        r.counter("a.b").add(2);
        let frag = r.merged().to_json_fields();
        assert!(frag.starts_with("\"counters\":{"));
        assert!(frag.contains("\"a.b\":2"));
    }
}
