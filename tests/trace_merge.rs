//! Per-worker trace collection under the engine's parallel probe
//! fan-out: with tracing active the fan-out now RUNS (the old
//! tracing-disables-fan-out special case is gone) and the merged trace
//! is indistinguishable — span for span, bit for bit — from a
//! sequential run's.
//!
//! This binary reads process-global state (the perf registry), so
//! everything lives in ONE `#[test]`. It runs under a 4-thread budget
//! (`rayon::with_max_threads`) to actually exercise the fan-out path
//! whatever the host's core count.

use memcnn::core::Mechanism;
use memcnn::gpusim::SimOptions;
use memcnn::trace::perf;
use memcnn::trace::{self, Scope};
use memcnn_bench::util::Ctx;

/// Sortable digest of one span: everything the exporters consume. Args
/// compare by their string contents, so an interned `Sym` and an owned
/// `String` with the same text digest identically — exactly what the
/// exporters serialize.
fn span_key(sp: &trace::SpanEvent) -> (String, String, u64, u64, Vec<(String, String)>) {
    (
        sp.name.clone(),
        format!("{:?}", sp.track),
        sp.ts_us.to_bits(),
        sp.dur_us.to_bits(),
        sp.args.iter().map(|(k, v)| (k.as_str().to_string(), v.as_str().to_string())).collect(),
    )
}

#[test]
fn traced_fanout_merges_to_the_sequential_trace() {
    rayon::with_max_threads(4, fanout_checks);
}

fn fanout_checks() {
    let net = memcnn::models::cifar10().unwrap();

    // (1) Traced run with the fan-out enabled (default options: the
    // cache is on, so `parallel_probes_enabled` holds at 4 threads).
    let fanout_before = perf::get("engine.probe.fanout");
    let ctx = Ctx::titan_black();
    trace::start();
    let fan_report = ctx.engine.simulate_network(&net, Mechanism::Opt).unwrap();
    let fan_trace = trace::finish().unwrap();
    let fanned = perf::get("engine.probe.fanout") - fanout_before;
    assert!(fanned > 0, "tracing must no longer disable the probe fan-out");

    // (2) Sequential traced baseline in the same process: disabling the
    // sim cache disables the fan-out (its prewarm exists to warm that
    // cache), so the probes run inline on the orchestrator thread.
    let seq_engine = Ctx::titan_black()
        .engine
        .with_sim_options(SimOptions { use_cache: false, ..SimOptions::default() });
    let fanout_before = perf::get("engine.probe.fanout");
    trace::start();
    let seq_report = seq_engine.simulate_network(&net, Mechanism::Opt).unwrap();
    let seq_trace = trace::finish().unwrap();
    assert_eq!(perf::get("engine.probe.fanout"), fanout_before, "baseline must not fan out");

    // Same simulation either way.
    assert_eq!(fan_report.total_time().to_bits(), seq_report.total_time().to_bits());

    // (3) The span multiset is identical: worker-side records never
    // become spans, and the orchestrator's sequential re-read emits the
    // same timeline a cold sequential run would.
    let mut fan_spans: Vec<_> = fan_trace.spans.iter().map(span_key).collect();
    let mut seq_spans: Vec<_> = seq_trace.spans.iter().map(span_key).collect();
    fan_spans.sort();
    seq_spans.sort();
    assert_eq!(fan_spans.len(), seq_spans.len(), "span count diverged under fan-out");
    assert_eq!(fan_spans, seq_spans, "span multiset diverged under fan-out");

    // (4) Worker-side kernel records are tagged with a `worker:<i>` scope
    // frame (classified speculative by the exporter); everything NOT so
    // tagged — the records the timeline and text profile are built from —
    // matches the sequential run's exactly, in order. The one legitimate
    // exception is the pool-autotune sweep (`Scope::Autotune`): the
    // fan-out run sweeps on workers and memoizes the winner, so its
    // orchestrator replays only the winning configuration, while the
    // sequential run records every swept candidate inline. Those sweep
    // records are planning overhead (never timeline), so they are
    // excluded from the exact comparison and checked separately.
    let on_worker = |k: &&trace::KernelRecord| k.path.iter().any(|f| matches!(f, Scope::Worker(_)));
    let in_autotune = |k: &&trace::KernelRecord| k.in_scope(&Scope::Autotune);
    let fan_main: Vec<String> = fan_trace
        .kernels
        .iter()
        .filter(|k| !on_worker(k) && !in_autotune(k))
        .map(|k| format!("{k:?}"))
        .collect();
    let seq_main: Vec<String> = seq_trace
        .kernels
        .iter()
        .filter(|k| !on_worker(k) && !in_autotune(k))
        .map(|k| format!("{k:?}"))
        .collect();
    assert_eq!(fan_main, seq_main, "non-speculative kernel records diverged under fan-out");
    assert!(
        fan_trace.kernels.iter().any(|k| on_worker(&k)),
        "the fan-out run must actually have recorded worker-side kernels"
    );
    assert!(
        !seq_trace.kernels.iter().any(|k| on_worker(&k)),
        "the sequential baseline must have no worker-side records"
    );
    assert!(
        seq_trace.kernels.iter().any(|k| in_autotune(&k)),
        "the sequential baseline records its autotune sweeps inline"
    );
    assert!(
        !fan_trace.kernels.iter().any(|k| !on_worker(&k) && in_autotune(&k)),
        "the fan-out orchestrator must replay memoized autotune winners, not re-sweep"
    );

    // (5) Layout decisions — the planner's observable output — agree.
    assert_eq!(fan_trace.decisions.len(), seq_trace.decisions.len());
    for (a, b) in fan_trace.decisions.iter().zip(&seq_trace.decisions) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
