//! memcnn-trace: structured tracing for the simulator and engine.
//!
//! A thread-local collector records typed spans (layers, transforms,
//! backward passes on the engine's simulated-time timeline; functional
//! execution on wall clock), per-kernel performance counters, and layout
//! decisions. Collection is off by default and every recording entry
//! point takes a closure, so the disabled path costs one thread-local
//! check — no allocation, no formatting, and no effect on simulated
//! timings.
//!
//! ```
//! use memcnn_trace as trace;
//! trace::start();
//! {
//!     let _net = trace::scope(trace::Scope::Network("lenet".into()));
//!     trace::record_span(|| trace::SpanEvent {
//!         name: "CV1".into(),
//!         track: trace::Track::Layers,
//!         ts_us: 0.0,
//!         dur_us: 10.0,
//!         args: vec![("impl".into(), "mm".into())],
//!     });
//! }
//! let t = trace::finish().unwrap();
//! assert_eq!(t.spans.len(), 1);
//! ```
#![forbid(unsafe_code)]

pub mod counters;
pub mod export;
pub mod intern;
pub mod perf;

pub use counters::{Aggregate, KernelCounters};
pub use intern::{intern, ArgValue, Sym};

use std::cell::RefCell;

/// One frame of the collector's scope stack. Kernel records snapshot the
/// stack, which is how the exporter attributes kernels to layers,
/// candidate implementations, planning, autotuning, or backward passes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scope {
    /// A whole-network simulation.
    Network(String),
    /// One named layer.
    Layer(String),
    /// A candidate implementation being timed (name matches the
    /// `impl_name` the engine reports for the layer if chosen).
    Candidate(String),
    /// A layout transformation kernel.
    Transform,
    /// Layout planning (the heuristic + DP probing pass).
    Plan,
    /// Pooling autotune sweeps.
    Autotune,
    /// Backward-pass simulation.
    Backward,
    /// Functional (on-CPU) execution of a network.
    Run(String),
    /// Speculative work on a parallel probe worker (the index is the
    /// worker's job index within its fan-out). Records carrying this
    /// frame are cache prewarms, not part of the deterministic
    /// orchestrator timeline.
    Worker(usize),
}

impl Scope {
    /// Short label for display.
    pub fn label(&self) -> String {
        match self {
            Scope::Network(n) => format!("net:{n}"),
            Scope::Layer(n) => format!("layer:{n}"),
            Scope::Candidate(n) => format!("cand:{n}"),
            Scope::Transform => "transform".to_string(),
            Scope::Plan => "plan".to_string(),
            Scope::Autotune => "autotune".to_string(),
            Scope::Backward => "backward".to_string(),
            Scope::Run(n) => format!("run:{n}"),
            Scope::Worker(i) => format!("worker:{i}"),
        }
    }
}

/// Timeline tracks of the exported trace. `Layers`..`Backward` use the
/// engine's simulated clock; `Exec` uses the host's wall clock and is
/// exported as a separate process so the two time bases never mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Track {
    /// Chosen per-layer forward work (simulated time).
    Layers,
    /// Inserted layout transformations (simulated time).
    Transforms,
    /// Individual kernels of the chosen implementations (simulated time).
    Kernels,
    /// Backward-pass work (simulated time).
    Backward,
    /// Fault-handling events on the serving clock: injected-fault
    /// retries (the span covers the backoff), OOM bucket downshifts,
    /// sheds, and degraded-mode transitions.
    Faults,
    /// Fleet serving (simulated serving-clock time): one span per
    /// launched batch, tagged with its device and network, and the
    /// run's metrics timeline as counter series.
    Fleet,
    /// Functional execution on the host (wall clock).
    Exec,
}

impl Track {
    /// Thread id in the Chrome trace.
    pub fn tid(self) -> u64 {
        match self {
            Track::Layers => 1,
            Track::Transforms => 2,
            Track::Kernels => 3,
            Track::Backward => 4,
            Track::Faults => 6,
            Track::Fleet => 7,
            Track::Exec => 1,
        }
    }

    /// Process id in the Chrome trace (simulated vs wall clock).
    pub fn pid(self) -> u64 {
        match self {
            Track::Exec => 2,
            _ => 1,
        }
    }

    /// Human-readable track name.
    pub fn name(self) -> &'static str {
        match self {
            Track::Layers => "layers",
            Track::Transforms => "transforms",
            Track::Kernels => "kernels",
            Track::Backward => "backward",
            Track::Faults => "faults",
            Track::Fleet => "fleet",
            Track::Exec => "exec (wall clock)",
        }
    }
}

/// A completed interval on one track.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name (layer name, kernel name, ...).
    pub name: String,
    /// Track the span lives on.
    pub track: Track,
    /// Start, microseconds on the track's time base.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Key/value annotations (layout, impl, ...). Keys and values are
    /// [`ArgValue`]s so hot recording loops can pass interned [`Sym`]s
    /// for the bounded name-like strings (devices, networks, tenants)
    /// instead of allocating fresh `String`s per event.
    pub args: Vec<(ArgValue, ArgValue)>,
}

/// One sample of a named counter series on one track — exported as a
/// Chrome/Perfetto counter-track event (`"ph": "C"`), so gauges like
/// queue depth or device utilization render as stepped area charts under
/// the span tracks. Samples of the same `name` form one series; their
/// timestamps are expected to be non-decreasing in record order.
#[derive(Clone, Debug)]
pub struct CounterEvent {
    /// Series name (e.g. `queue.depth`, `dev0.util`).
    pub name: String,
    /// Track whose time base the sample rides (pid/tid grouping).
    pub track: Track,
    /// Sample time, microseconds on the track's time base.
    pub ts_us: f64,
    /// Sampled value.
    pub value: f64,
}

/// Counters of one simulated kernel plus the scope path it ran under.
#[derive(Clone, Debug)]
pub struct KernelRecord {
    /// The counters, copied from the simulator's report.
    pub counters: KernelCounters,
    /// Scope stack at record time, outermost first.
    pub path: Vec<Scope>,
}

impl KernelRecord {
    /// Whether the path contains a given scope frame.
    pub fn in_scope(&self, s: &Scope) -> bool {
        self.path.contains(s)
    }

    /// The layer name on the path, if any.
    pub fn layer(&self) -> Option<&str> {
        self.path.iter().find_map(|s| match s {
            Scope::Layer(n) => Some(n.as_str()),
            _ => None,
        })
    }

    /// The candidate implementation on the path, if any.
    pub fn candidate(&self) -> Option<&str> {
        self.path.iter().find_map(|s| match s {
            Scope::Candidate(n) => Some(n.as_str()),
            _ => None,
        })
    }
}

/// One layout decision with its stated reason (heuristic rule firing, or
/// a profiled-DP override of the heuristic).
#[derive(Clone, Debug)]
pub struct Decision {
    /// Layer the decision applies to.
    pub layer: String,
    /// Chosen layout name.
    pub layout: String,
    /// `"heuristic"` or `"profiled"`.
    pub policy: String,
    /// Why (rule values, or what the DP overrode).
    pub reason: String,
}

/// Everything one collection window captured.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Timeline spans.
    pub spans: Vec<SpanEvent>,
    /// Per-kernel counter records.
    pub kernels: Vec<KernelRecord>,
    /// Layout decisions.
    pub decisions: Vec<Decision>,
    /// Counter-series samples (gauges over simulated time).
    pub counters: Vec<CounterEvent>,
    /// Free-form metadata (network, mechanism, device, ...).
    pub meta: Vec<(String, String)>,
}

impl Trace {
    /// Total number of recorded events of all kinds.
    pub fn event_count(&self) -> usize {
        self.spans.len()
            + self.kernels.len()
            + self.decisions.len()
            + self.counters.len()
            + self.meta.len()
    }

    /// The samples of one counter series, in record order.
    pub fn counter_series(&self, name: &str) -> Vec<&CounterEvent> {
        self.counters.iter().filter(|c| c.name == name).collect()
    }

    /// Metadata value by key.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Sum of span durations on one track, milliseconds.
    pub fn track_total_ms(&self, track: Track) -> f64 {
        // `+ 0.0` normalizes the empty sum: `Sum for f64` folds from -0.0.
        self.spans.iter().filter(|s| s.track == track).map(|s| s.dur_us).sum::<f64>() / 1e3 + 0.0
    }

    /// Sum of all simulated-timeline span durations (layers, transforms
    /// and backward), milliseconds. For a traced `simulate_network` run
    /// this equals `NetworkReport::total_time()` in ms.
    pub fn timeline_total_ms(&self) -> f64 {
        self.track_total_ms(Track::Layers)
            + self.track_total_ms(Track::Transforms)
            + self.track_total_ms(Track::Backward)
    }

    /// Aggregate counters over kernels selected by `filter`.
    pub fn aggregate_kernels<F: Fn(&KernelRecord) -> bool>(&self, filter: F) -> Aggregate {
        let mut agg = Aggregate::default();
        for k in self.kernels.iter().filter(|k| filter(k)) {
            agg.add(&k.counters);
        }
        agg
    }
}

#[derive(Default)]
struct Collector {
    trace: Trace,
    stack: Vec<Scope>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Begin collecting on this thread. Replaces any trace in progress.
pub fn start() {
    COLLECTOR.with(|c| *c.borrow_mut() = Some(Collector::default()));
}

/// Stop collecting and return the captured trace, or `None` if
/// collection was never started on this thread.
pub fn finish() -> Option<Trace> {
    COLLECTOR.with(|c| c.borrow_mut().take()).map(|col| col.trace)
}

/// Whether collection is active on this thread.
pub fn active() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Push a scope frame; the returned guard pops it on drop. A no-op when
/// collection is inactive. Frames that carry a name (a `String`) should
/// go through [`scope_with`], which builds them only when collecting.
#[must_use = "the scope pops when this guard drops"]
pub fn scope(s: Scope) -> ScopeGuard {
    scope_with(|| s)
}

/// Push the scope frame `frame` builds; the returned guard pops it on
/// drop. The closure only runs when collection is active, so a disabled
/// call site allocates nothing.
#[must_use = "the scope pops when this guard drops"]
pub fn scope_with<F: FnOnce() -> Scope>(frame: F) -> ScopeGuard {
    let pushed = COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.stack.push(frame());
            true
        } else {
            false
        }
    });
    ScopeGuard { pushed }
}

/// Guard returned by [`scope`] and [`scope_with`].
pub struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.stack.pop();
                }
            });
        }
    }
}

fn with_active<F: FnOnce(&mut Collector)>(f: F) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            f(col);
        }
    });
}

/// Record a timeline span. The closure only runs when collection is
/// active, so disabled call sites do no work.
pub fn record_span<F: FnOnce() -> SpanEvent>(f: F) {
    with_active(|col| {
        let s = f();
        col.trace.spans.push(s);
    });
}

/// Record one simulated kernel's counters, tagged with the current scope
/// path. The closure only runs when collection is active.
pub fn record_kernel<F: FnOnce() -> KernelCounters>(f: F) {
    with_active(|col| {
        let counters = f();
        let path = col.stack.clone();
        col.trace.kernels.push(KernelRecord { counters, path });
    });
}

/// Record a layout decision. The closure only runs when collection is
/// active.
pub fn record_decision<F: FnOnce() -> Decision>(f: F) {
    with_active(|col| {
        let d = f();
        col.trace.decisions.push(d);
    });
}

/// Record one counter-series sample. The closure only runs when
/// collection is active, so disabled call sites do no work.
pub fn record_counter<F: FnOnce() -> CounterEvent>(f: F) {
    with_active(|col| {
        let c = f();
        col.trace.counters.push(c);
    });
}

/// Attach a metadata key/value to the trace in progress.
pub fn set_meta(key: &str, value: &str) {
    with_active(|col| {
        col.trace.meta.push((key.to_string(), value.to_string()));
    });
}

/// Capture the active collection window for a parallel fan-out.
///
/// `fork()` snapshots the orchestrator's scope stack; each worker calls
/// [`Fork::attach`] to record into its own collector seeded with that
/// stack plus a [`Scope::Worker`] frame, and [`Fork::merge`] folds every
/// worker's records back into the orchestrator's trace in worker-index
/// order. When collection is inactive the whole cycle is a no-op, so
/// call sites need no `if trace::active()` gate.
pub fn fork() -> Fork {
    let seed = COLLECTOR.with(|c| c.borrow().as_ref().map(|col| col.stack.clone()));
    Fork { seed, sink: std::sync::Mutex::new(Vec::new()) }
}

/// A parallel fan-out's collection state: the orchestrator's scope stack
/// at fork time plus the sink worker traces merge into. See [`fork`].
pub struct Fork {
    /// Orchestrator stack at fork time; `None` when collection was
    /// inactive (attach/merge become no-ops).
    seed: Option<Vec<Scope>>,
    /// Completed worker traces, tagged with their worker index.
    sink: std::sync::Mutex<Vec<(usize, Trace)>>,
}

impl Fork {
    /// Begin collecting on the calling worker thread under a
    /// `Scope::Worker(index)` frame. Drop the guard when the worker's
    /// job finishes; its records then wait in the fork until
    /// [`Fork::merge`]. If the caller *is* the orchestrator (the
    /// parallel runtime fell back to inline execution), the frame is
    /// pushed onto the live collector instead and the records land
    /// directly.
    #[must_use = "the worker's records are captured while this guard lives"]
    pub fn attach(&self, index: usize) -> WorkerGuard<'_> {
        let Some(seed) = &self.seed else {
            return WorkerGuard { fork: self, index, mode: WorkerMode::Inactive };
        };
        let installed = COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            match slot.as_mut() {
                Some(col) => {
                    // Inline fallback: the orchestrator itself runs the
                    // job. Tag its records with the worker frame only.
                    col.stack.push(Scope::Worker(index));
                    false
                }
                None => {
                    let mut stack = seed.clone();
                    stack.push(Scope::Worker(index));
                    *slot = Some(Collector { trace: Trace::default(), stack });
                    true
                }
            }
        });
        let mode = if installed { WorkerMode::Installed } else { WorkerMode::Pushed };
        WorkerGuard { fork: self, index, mode }
    }

    /// Fold every detached worker's records into the active collector,
    /// ordered by worker index so merged traces are independent of
    /// thread scheduling. A no-op when collection is inactive.
    pub fn merge(self) {
        let mut parts = match self.sink.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        parts.sort_by_key(|(i, _)| *i);
        with_active(move |col| {
            for (_, t) in parts {
                col.trace.spans.extend(t.spans);
                col.trace.kernels.extend(t.kernels);
                col.trace.decisions.extend(t.decisions);
                col.trace.counters.extend(t.counters);
                col.trace.meta.extend(t.meta);
            }
        });
    }
}

enum WorkerMode {
    /// Collection inactive at fork time: nothing to do.
    Inactive,
    /// Inline fallback on the orchestrator: pop the worker frame.
    Pushed,
    /// Detached worker: take the collector and park its trace in the
    /// fork's sink.
    Installed,
}

/// Guard returned by [`Fork::attach`]; finishing the worker's collection
/// window on drop.
pub struct WorkerGuard<'f> {
    fork: &'f Fork,
    index: usize,
    mode: WorkerMode,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        match self.mode {
            WorkerMode::Inactive => {}
            WorkerMode::Pushed => {
                COLLECTOR.with(|c| {
                    if let Some(col) = c.borrow_mut().as_mut() {
                        col.stack.pop();
                    }
                });
            }
            WorkerMode::Installed => {
                if let Some(col) = COLLECTOR.with(|c| c.borrow_mut().take()) {
                    let mut sink = match self.fork.sink.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    sink.push((self.index, col.trace));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, track: Track, ts: f64, dur: f64) -> SpanEvent {
        SpanEvent { name: name.to_string(), track, ts_us: ts, dur_us: dur, args: vec![] }
    }

    #[test]
    fn disabled_collection_records_nothing_and_runs_no_closures() {
        assert!(finish().is_none());
        assert!(!active());
        record_span(|| unreachable!("closure must not run while disabled"));
        record_kernel(|| unreachable!("closure must not run while disabled"));
        record_decision(|| unreachable!("closure must not run while disabled"));
        let _g = scope(Scope::Plan);
        assert!(finish().is_none());
    }

    #[test]
    fn collects_spans_kernels_and_scopes() {
        start();
        assert!(active());
        set_meta("network", "test-net");
        {
            let _n = scope(Scope::Network("test-net".to_string()));
            let _l = scope(Scope::Layer("CV1".to_string()));
            {
                let _c = scope(Scope::Candidate("mm".to_string()));
                record_kernel(|| KernelCounters {
                    name: "gemm".to_string(),
                    time_s: 1e-3,
                    ..Default::default()
                });
            }
            record_span(|| span("CV1", Track::Layers, 0.0, 1000.0));
        }
        record_span(|| span("transform", Track::Transforms, 1000.0, 50.0));
        let t = finish().unwrap();
        assert!(!active());
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.kernels.len(), 1);
        assert_eq!(t.meta("network"), Some("test-net"));
        let k = &t.kernels[0];
        assert_eq!(k.layer(), Some("CV1"));
        assert_eq!(k.candidate(), Some("mm"));
        assert!(k.in_scope(&Scope::Network("test-net".to_string())));
        assert!((t.timeline_total_ms() - 1.05).abs() < 1e-12);
        assert_eq!(t.aggregate_kernels(|k| k.layer() == Some("CV1")).kernels, 1);
        assert_eq!(t.aggregate_kernels(|k| k.in_scope(&Scope::Plan)).kernels, 0);
    }

    #[test]
    fn scope_with_builds_its_frame_only_while_collecting() {
        let built = std::cell::Cell::new(0);
        let frame = || {
            built.set(built.get() + 1);
            Scope::Layer("CV1".to_string())
        };
        assert!(!active());
        {
            let _off = scope_with(frame);
        }
        assert_eq!(built.get(), 0, "no collector: the frame is never built");
        start();
        {
            let _on = scope_with(frame);
            record_kernel(|| KernelCounters { name: "k".into(), ..Default::default() });
        }
        let t = finish().unwrap();
        assert_eq!(built.get(), 1);
        assert_eq!(t.kernels[0].path, vec![Scope::Layer("CV1".to_string())]);
    }

    #[test]
    fn scope_guard_pops_in_reverse_order() {
        start();
        {
            let _a = scope(Scope::Plan);
            {
                let _b = scope(Scope::Autotune);
                record_kernel(KernelCounters::default);
            }
            record_kernel(KernelCounters::default);
        }
        record_kernel(KernelCounters::default);
        let t = finish().unwrap();
        assert_eq!(t.kernels[0].path, vec![Scope::Plan, Scope::Autotune]);
        assert_eq!(t.kernels[1].path, vec![Scope::Plan]);
        assert!(t.kernels[2].path.is_empty());
    }

    #[test]
    fn counters_record_and_read_back_as_series() {
        record_counter(|| unreachable!("closure must not run while disabled"));
        start();
        for (i, v) in [(0, 3.0), (1, 5.0), (2, 2.0)] {
            record_counter(|| CounterEvent {
                name: "queue.depth".to_string(),
                track: Track::Fleet,
                ts_us: i as f64 * 10.0,
                value: v,
            });
        }
        record_counter(|| CounterEvent {
            name: "util".to_string(),
            track: Track::Fleet,
            ts_us: 0.0,
            value: 0.5,
        });
        let t = finish().unwrap();
        assert_eq!(t.counters.len(), 4);
        assert_eq!(t.event_count(), 4);
        let depth = t.counter_series("queue.depth");
        assert_eq!(depth.len(), 3);
        assert_eq!(depth[1].value, 5.0);
        assert!(depth.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn start_resets_previous_window() {
        start();
        record_span(|| span("a", Track::Layers, 0.0, 1.0));
        start();
        let t = finish().unwrap();
        assert_eq!(t.event_count(), 0);
    }

    /// What one synthetic worker job records under a fork.
    fn worker_job(i: usize) {
        record_kernel(|| KernelCounters {
            name: format!("probe-{i}"),
            time_s: 1e-3,
            ..Default::default()
        });
        record_span(|| span(&format!("w{i}"), Track::Kernels, i as f64, 1.0));
    }

    #[test]
    fn forked_workers_merge_in_index_order_with_seeded_stacks() {
        start();
        let _p = scope(Scope::Plan);
        let fork = fork();
        std::thread::scope(|s| {
            // Spawn in reverse so scheduling order differs from index
            // order; merge must still sort by index.
            for i in (0..4).rev() {
                let fork = &fork;
                s.spawn(move || {
                    let _w = fork.attach(i);
                    worker_job(i);
                });
            }
        });
        fork.merge();
        worker_job(99); // orchestrator record, after the merge
        drop(_p);
        let t = finish().unwrap();
        assert_eq!(t.kernels.len(), 5);
        assert_eq!(t.spans.len(), 5);
        for i in 0..4 {
            assert_eq!(t.kernels[i].counters.name, format!("probe-{i}"));
            assert_eq!(t.kernels[i].path, vec![Scope::Plan, Scope::Worker(i)]);
        }
        assert_eq!(t.kernels[4].path, vec![Scope::Plan]);
    }

    #[test]
    fn inline_fallback_tags_orchestrator_records_with_worker_frame() {
        start();
        let _p = scope(Scope::Autotune);
        let fork = fork();
        {
            let _w = fork.attach(7);
            record_kernel(KernelCounters::default);
        }
        record_kernel(KernelCounters::default);
        fork.merge();
        drop(_p);
        let t = finish().unwrap();
        assert_eq!(t.kernels[0].path, vec![Scope::Autotune, Scope::Worker(7)]);
        assert_eq!(t.kernels[1].path, vec![Scope::Autotune]);
    }

    #[test]
    fn fork_is_a_noop_when_collection_is_inactive() {
        assert!(!active());
        let fork = fork();
        std::thread::scope(|s| {
            let fork = &fork;
            s.spawn(move || {
                let _w = fork.attach(0);
                record_kernel(|| unreachable!("collection must stay inactive"));
            });
        });
        fork.merge();
        assert!(finish().is_none());
    }
}
