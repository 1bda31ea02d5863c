//! Gauge timelines sampled on the simulated clock, with sliding-window
//! latency percentiles.
//!
//! A [`Recorder`] rides inside a serving event loop: the loop calls
//! [`Recorder::gauge`] at its event boundaries (batch commits, arrival
//! routing) with the *simulated* event time, [`Recorder::observe_latency`]
//! for every served request, and [`Recorder::sample_window`] to emit the
//! current sliding-window p50/p95/p99 as gauges. Everything the recorder
//! captures is a pure function of the loop's own state — no wall clock,
//! no global counters — so the finished [`MetricsTimeline`] is
//! bit-identical across `MEMCNN_THREADS`, like every other report in the
//! workspace.
//!
//! The timeline exports two ways: [`MetricsTimeline::to_json`] for the
//! machine-readable `metrics.json` per run, and
//! [`MetricsTimeline::emit_trace_counters`] to push every series into the
//! active `memcnn-trace` collection window as Perfetto counter tracks.

use crate::histogram::{bucket_value, Histogram};
use memcnn_trace as trace;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// Default sliding-window size for latency percentiles (samples).
pub const DEFAULT_WINDOW: usize = 64;

/// One gauge sample on the simulated clock.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Sample {
    /// Simulated time, seconds.
    pub t: f64,
    /// Sampled value.
    pub value: f64,
}

/// One named gauge series, samples in record order (non-decreasing `t`).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Series {
    /// Series name (dotted lowercase, e.g. `queue.depth`, `dev0.util`).
    pub name: String,
    /// The samples.
    pub samples: Vec<Sample>,
}

/// A sliding window over the last `cap` latency samples, backed by a
/// histogram so percentile queries never sort. `unrecord` on expiry keeps
/// the histogram in lockstep with the deque.
#[derive(Clone, Debug)]
pub struct SlidingWindow {
    cap: usize,
    buf: VecDeque<f64>,
    hist: Histogram,
}

impl SlidingWindow {
    /// A window holding at most `cap` samples (`cap` ≥ 1).
    pub fn new(cap: usize) -> SlidingWindow {
        SlidingWindow { cap: cap.max(1), buf: VecDeque::new(), hist: Histogram::new() }
    }

    /// Push a sample, expiring the oldest when full.
    pub fn push(&mut self, v: f64) {
        if self.buf.len() == self.cap {
            if let Some(old) = self.buf.pop_front() {
                self.hist.unrecord(old);
            }
        }
        self.buf.push_back(v);
        self.hist.record(v);
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bucket-resolution nearest-rank percentile over the window.
    pub fn percentile(&self, p: f64) -> f64 {
        self.hist.percentile(p)
    }

    /// [`percentile`](Self::percentile) for several ascending `ps`, in one
    /// pass over the window's buckets.
    pub fn percentiles<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        self.hist.percentile_indices(ps).map(|i| i.map_or(0.0, bucket_value))
    }
}

/// The finished timeline of one run: every gauge series plus the
/// whole-run latency histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsTimeline {
    /// Gauge series, ascending by name.
    pub series: Vec<Series>,
    /// Every served latency of the run (shed sentinels excluded by the
    /// recording loop).
    pub latency_hist: Histogram,
    /// Keyed latency histograms (per-tenant in the SLO scheduler),
    /// ascending by key. Empty unless the recording loop observed keyed
    /// latencies.
    pub keyed_hists: Vec<(String, Histogram)>,
}

// Manual impl: `keyed_hists` is omitted when empty so timelines recorded
// by loops that never key a latency (every pre-SLO run) serialize to the
// exact bytes the derived impl produced before the field existed.
impl Serialize for MetricsTimeline {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"series\":");
        self.series.serialize_json(out);
        out.push_str(",\"latency_hist\":");
        self.latency_hist.serialize_json(out);
        if !self.keyed_hists.is_empty() {
            out.push_str(",\"keyed_hists\":");
            self.keyed_hists.serialize_json(out);
        }
        out.push('}');
    }
}

impl MetricsTimeline {
    /// Look up one series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Every series name, in the timeline's (ascending) order.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.iter().map(|s| s.name.as_str())
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty() && self.latency_hist.is_empty() && self.keyed_hists.is_empty()
    }

    /// Look up one keyed latency histogram (per-tenant in SLO runs).
    pub fn keyed_hist(&self, key: &str) -> Option<&Histogram> {
        self.keyed_hists.iter().find(|(k, _)| k == key).map(|(_, h)| h)
    }

    /// The timeline as a JSON document (the `metrics.json` payload).
    /// Bit-identical runs serialize to identical strings — the scenario
    /// harness and the determinism tests compare these directly.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.serialize_json(&mut out);
        out
    }

    /// Push every series into the active trace collection window as
    /// Perfetto counter-track samples on `track` (seconds become the
    /// trace's microseconds). A no-op when collection is inactive.
    pub fn emit_trace_counters(&self, track: trace::Track) {
        for s in &self.series {
            for sample in &s.samples {
                trace::record_counter(|| trace::CounterEvent {
                    name: s.name.clone(),
                    track,
                    ts_us: sample.t * 1e6,
                    value: sample.value,
                });
            }
        }
    }
}

/// A pre-registered gauge series handle: an index into the recorder's
/// slot table, resolved once by [`Recorder::gauge_id`]. Hot recording
/// loops hold these so a sample costs one `Vec::push` — no name lookup
/// and no `String` allocation per event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// A pre-registered keyed-latency-histogram handle, resolved once by
/// [`Recorder::latency_key`] (per-tenant in the SLO scheduler).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyId(usize);

/// Accumulates gauges and latencies during a run; [`Recorder::finish`]
/// produces the immutable [`MetricsTimeline`].
///
/// Series live in an index-addressed slot table; the name map is only
/// consulted when a series is first referenced (or on every call of the
/// string-keyed convenience [`Recorder::gauge`]). Registering a series
/// that never receives a sample is free: empty slots are dropped by
/// [`Recorder::finish`], so pre-registration cannot perturb the
/// serialized timeline.
#[derive(Clone, Debug)]
pub struct Recorder {
    names: BTreeMap<String, usize>,
    slots: Vec<Vec<Sample>>,
    window: SlidingWindow,
    window_ids: Option<[GaugeId; 3]>,
    hist: Histogram,
    keyed_names: BTreeMap<String, usize>,
    keyed_slots: Vec<Histogram>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new(DEFAULT_WINDOW)
    }
}

impl Recorder {
    /// A recorder whose latency window holds `window` samples.
    pub fn new(window: usize) -> Recorder {
        Recorder {
            names: BTreeMap::new(),
            slots: Vec::new(),
            window: SlidingWindow::new(window),
            window_ids: None,
            hist: Histogram::new(),
            keyed_names: BTreeMap::new(),
            keyed_slots: Vec::new(),
        }
    }

    /// Resolve (registering on first use) the series named `name`. The
    /// returned id is stable for the recorder's lifetime.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        if let Some(&i) = self.names.get(name) {
            return GaugeId(i);
        }
        let i = self.slots.len();
        self.slots.push(Vec::new());
        self.names.insert(name.to_string(), i);
        GaugeId(i)
    }

    /// Append one sample to a pre-registered series at simulated time
    /// `t` — the allocation-free hot path.
    pub fn gauge_at(&mut self, id: GaugeId, t: f64, value: f64) {
        self.slots[id.0].push(Sample { t, value });
    }

    /// Append one sample to the named series at simulated time `t`
    /// (resolves the name each call; hot loops should pre-register with
    /// [`Recorder::gauge_id`] and use [`Recorder::gauge_at`]).
    pub fn gauge(&mut self, name: &str, t: f64, value: f64) {
        let id = self.gauge_id(name);
        self.gauge_at(id, t, value);
    }

    /// Feed one served latency into the run histogram and the sliding
    /// window (callers exclude shed sentinels).
    pub fn observe_latency(&mut self, latency: f64) {
        self.hist.record(latency);
        self.window.push(latency);
    }

    /// Resolve (registering on first use) the keyed latency histogram
    /// for `key`.
    pub fn latency_key(&mut self, key: &str) -> KeyId {
        if let Some(&i) = self.keyed_names.get(key) {
            return KeyId(i);
        }
        let i = self.keyed_slots.len();
        self.keyed_slots.push(Histogram::new());
        self.keyed_names.insert(key.to_string(), i);
        KeyId(i)
    }

    /// Feed one served latency into a pre-registered keyed histogram —
    /// the allocation-free hot path. Does *not* touch the run histogram
    /// or the sliding window — callers pair it with
    /// [`Recorder::observe_latency`].
    pub fn observe_latency_keyed_at(&mut self, id: KeyId, latency: f64) {
        self.keyed_slots[id.0].record(latency);
    }

    /// Feed one served latency into the keyed histogram for `key`
    /// (per-tenant in SLO runs), resolving the key each call. Does *not*
    /// touch the run histogram or the sliding window — callers pair it
    /// with [`Recorder::observe_latency`].
    pub fn observe_latency_keyed(&mut self, key: &str, latency: f64) {
        let id = self.latency_key(key);
        self.observe_latency_keyed_at(id, latency);
    }

    /// Emit the window's current p50/p95/p99 as gauges at time `t`
    /// (`latency.window.p50` etc.). A no-op before the first latency.
    pub fn sample_window(&mut self, t: f64) {
        if self.window.is_empty() {
            return;
        }
        let ids = match self.window_ids {
            Some(ids) => ids,
            None => {
                let ids = [
                    self.gauge_id("latency.window.p50"),
                    self.gauge_id("latency.window.p95"),
                    self.gauge_id("latency.window.p99"),
                ];
                self.window_ids = Some(ids);
                ids
            }
        };
        for (id, v) in ids.into_iter().zip(self.window.percentiles([50.0, 95.0, 99.0])) {
            self.gauge_at(id, t, v);
        }
    }

    /// Freeze into the finished timeline (series ascending by name,
    /// keyed histograms ascending by key). Registered series and keys
    /// that never received a sample are dropped, so pre-registration is
    /// invisible in the output.
    pub fn finish(self) -> MetricsTimeline {
        let mut slots = self.slots;
        let mut keyed_slots = self.keyed_slots;
        MetricsTimeline {
            series: self
                .names
                .into_iter()
                .filter_map(|(name, i)| {
                    let samples = std::mem::take(&mut slots[i]);
                    (!samples.is_empty()).then_some(Series { name, samples })
                })
                .collect(),
            latency_hist: self.hist,
            keyed_hists: self
                .keyed_names
                .into_iter()
                .filter_map(|(key, i)| {
                    let hist = std::mem::take(&mut keyed_slots[i]);
                    (!hist.is_empty()).then_some((key, hist))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::bucket_index;

    #[test]
    fn recorder_builds_sorted_series_and_run_histogram() {
        let mut r = Recorder::new(4);
        r.gauge("queue.depth", 0.0, 2.0);
        r.gauge("util", 0.1, 0.5);
        r.gauge("queue.depth", 0.2, 5.0);
        for l in [0.002, 0.004, 0.003] {
            r.observe_latency(l);
        }
        r.sample_window(0.2);
        let t = r.finish();
        assert!(!t.is_empty());
        // Ascending by name; samples in record order.
        let names: Vec<&str> = t.series.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(t.series("queue.depth").unwrap().samples.len(), 2);
        assert_eq!(t.latency_hist.count(), 3);
        let p99 = t.series("latency.window.p99").unwrap();
        assert_eq!(p99.samples.len(), 1);
        assert_eq!(bucket_index(p99.samples[0].value), bucket_index(0.004));
        // JSON is valid-looking and stable across identical recordings.
        let json = t.to_json();
        assert!(json.contains("\"queue.depth\""));
        assert!(json.contains("\"latency_hist\""));
    }

    #[test]
    fn keyed_hists_serialize_only_when_observed() {
        let mut r = Recorder::new(4);
        r.observe_latency(0.002);
        let plain = r.clone().finish();
        assert!(!plain.to_json().contains("keyed_hists"), "unkeyed timelines keep the old shape");
        r.observe_latency_keyed("chat", 0.002);
        r.observe_latency_keyed("batch", 0.004);
        r.observe_latency_keyed("chat", 0.003);
        let t = r.finish();
        assert_eq!(t.keyed_hist("chat").unwrap().count(), 2);
        assert_eq!(t.keyed_hist("batch").unwrap().count(), 1);
        assert!(t.keyed_hist("nope").is_none());
        // Ascending by key, and present in the JSON.
        let keys: Vec<&str> = t.keyed_hists.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["batch", "chat"]);
        assert!(t.to_json().contains("\"keyed_hists\":[[\"batch\""));
        // The run histogram is untouched by keyed observations.
        assert_eq!(t.latency_hist.count(), 1);
    }

    #[test]
    fn id_handles_match_string_paths_and_empty_registrations_vanish() {
        // Two recorders, one using the string API and one pre-registering
        // ids, must freeze to identical timelines — including when some
        // registered series/keys never receive a sample.
        let mut by_name = Recorder::new(4);
        by_name.gauge("queue.depth", 0.0, 2.0);
        by_name.gauge("util", 0.1, 0.5);
        by_name.gauge("queue.depth", 0.2, 5.0);
        by_name.observe_latency(0.002);
        by_name.observe_latency_keyed("chat", 0.002);

        let mut by_id = Recorder::new(4);
        let unused = by_id.gauge_id("never.sampled");
        let depth = by_id.gauge_id("queue.depth");
        let util = by_id.gauge_id("util");
        assert_eq!(depth, by_id.gauge_id("queue.depth"), "ids are stable across lookups");
        assert_ne!(unused, depth);
        by_id.gauge_at(depth, 0.0, 2.0);
        by_id.gauge_at(util, 0.1, 0.5);
        by_id.gauge_at(depth, 0.2, 5.0);
        by_id.observe_latency(0.002);
        let silent = by_id.latency_key("batch"); // registered, never observed
        let chat = by_id.latency_key("chat");
        assert_eq!(chat, by_id.latency_key("chat"));
        assert_ne!(silent, chat);
        by_id.observe_latency_keyed_at(chat, 0.002);

        let a = by_name.finish();
        let b = by_id.finish();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(b.series("never.sampled").is_none(), "empty registrations are dropped");
        assert!(b.keyed_hist("batch").is_none());
    }

    #[test]
    fn window_percentiles_in_one_pass_equal_one_at_a_time() {
        // Latencies over six octaves, ties included, through a window
        // small enough to expire most of them.
        let mut w = SlidingWindow::new(37);
        for i in 0..500u64 {
            w.push(1e-3 * (1.0 + ((i * 7919) % 997) as f64 / 16.0));
            let ps = [0.0, 0.1, 50.0, 95.0, 99.0, 100.0];
            assert_eq!(w.percentiles(ps), ps.map(|p| w.percentile(p)), "after {i} pushes");
        }
        assert_eq!(SlidingWindow::new(4).percentiles([50.0, 99.0]), [0.0, 0.0]);
    }

    #[test]
    fn sliding_window_expires_oldest_samples() {
        let mut w = SlidingWindow::new(3);
        for l in [0.100, 0.001, 0.001, 0.001] {
            w.push(l);
        }
        assert_eq!(w.len(), 3);
        // The 100 ms outlier expired: the window max is now 1 ms.
        assert_eq!(bucket_index(w.percentile(100.0)), bucket_index(0.001));
    }

    #[test]
    fn emit_trace_counters_lands_on_the_requested_track() {
        let mut r = Recorder::new(8);
        r.gauge("queue.depth", 0.0, 1.0);
        r.gauge("queue.depth", 0.5, 3.0);
        let t = r.finish();
        trace::start();
        t.emit_trace_counters(trace::Track::Fleet);
        let tr = trace::finish().unwrap();
        assert_eq!(tr.counters.len(), 2);
        assert_eq!(tr.counters[0].track, trace::Track::Fleet);
        assert_eq!(tr.counters[0].ts_us, 0.0);
        assert_eq!(tr.counters[1].ts_us, 0.5e6);
        // Inactive collection: a clean no-op.
        t.emit_trace_counters(trace::Track::Fleet);
    }
}
