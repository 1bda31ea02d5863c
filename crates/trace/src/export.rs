//! Trace exporters: Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and a human-readable text profile.

use crate::counters::Aggregate;
use crate::intern::ArgValue;
use crate::{KernelRecord, Scope, SpanEvent, Trace, Track};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn n(v: f64) -> Value {
    Value::Number(v)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn args_obj(args: &[(ArgValue, ArgValue)]) -> Value {
    Value::Object(args.iter().map(|(k, v)| (k.as_str().to_string(), s(v.as_str()))).collect())
}

fn meta_obj(meta: &[(String, String)]) -> Value {
    Value::Object(meta.iter().map(|(k, v)| (k.clone(), s(v))).collect())
}

/// How one recorded kernel is classified for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelClass {
    /// Part of a chosen implementation on the forward timeline
    /// (including chosen transform kernels).
    Timeline,
    /// Simulated while evaluating a candidate that was not chosen.
    Candidate,
    /// Simulated during layout planning (heuristic/DP probing).
    Planning,
    /// Simulated during pooling autotune sweeps.
    Autotune,
    /// Simulated for the backward pass.
    Backward,
    /// Simulated speculatively on a parallel probe worker (cache
    /// prewarms carrying a [`Scope::Worker`] frame). Never paired to a
    /// timeline span; counts may vary with thread scheduling because
    /// workers race to warm shared memoization, so they are reported
    /// separately and excluded from the deterministic timeline.
    Speculative,
}

/// Classify every kernel record and, for timeline kernels, pair it with
/// the index of the span it executes under. Pairing is by scope: a
/// kernel belongs to a layer span when its path carries that layer and
/// the span's chosen `impl` (or the `Transform` frame for transform
/// spans). Each kernel is consumed by at most one span, in order.
pub fn classify_kernels(trace: &Trace) -> Vec<(KernelClass, Option<usize>)> {
    let mut out: Vec<(KernelClass, Option<usize>)> = trace
        .kernels
        .iter()
        .map(|k| {
            if k.path.iter().any(|f| matches!(f, Scope::Worker(_))) {
                (KernelClass::Speculative, None)
            } else if k.in_scope(&Scope::Plan) {
                (KernelClass::Planning, None)
            } else if k.in_scope(&Scope::Autotune) {
                (KernelClass::Autotune, None)
            } else if k.in_scope(&Scope::Backward) {
                (KernelClass::Backward, None)
            } else {
                (KernelClass::Candidate, None)
            }
        })
        .collect();

    let arg =
        |sp: &SpanEvent, key: &str| sp.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    for (si, sp) in trace.spans.iter().enumerate() {
        let matcher: Box<dyn Fn(&KernelRecord) -> bool> = match sp.track {
            Track::Layers => {
                let Some(imp) = arg(sp, "impl") else { continue };
                let layer = sp.name.clone();
                Box::new(move |k: &KernelRecord| {
                    k.layer() == Some(layer.as_str()) && k.candidate() == Some(imp.as_str())
                })
            }
            Track::Transforms => {
                if arg(sp, "phase").is_some_and(|v| v == "backward") {
                    continue; // arithmetic double of the forward transform
                }
                let Some(layer) = arg(sp, "layer") else { continue };
                Box::new(move |k: &KernelRecord| {
                    k.layer() == Some(layer.as_str()) && k.in_scope(&Scope::Transform)
                })
            }
            _ => continue,
        };
        for (ki, k) in trace.kernels.iter().enumerate() {
            if out[ki].0 == KernelClass::Candidate && out[ki].1.is_none() && matcher(k) {
                out[ki] = (KernelClass::Timeline, Some(si));
            }
        }
    }
    out
}

/// Render a Chrome trace-event JSON document. Layers, transforms and
/// backward spans ride the engine's simulated clock (pid 1); functional
/// execution spans ride the wall clock as a separate process (pid 2);
/// kernels of each chosen implementation are laid back-to-back inside
/// their layer's span on a dedicated track; layout decisions appear as
/// instant events at the start of the layer they settle.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::new();

    let process_meta = |pid: u64, name: &str| {
        obj(vec![
            ("ph", s("M")),
            ("name", s("process_name")),
            ("pid", n(pid as f64)),
            ("tid", n(0.0)),
            ("args", obj(vec![("name", s(name))])),
        ])
    };
    let thread_meta = |track: Track| {
        obj(vec![
            ("ph", s("M")),
            ("name", s("thread_name")),
            ("pid", n(track.pid() as f64)),
            ("tid", n(track.tid() as f64)),
            ("args", obj(vec![("name", s(track.name()))])),
        ])
    };
    let uses_track = |track: Track| {
        trace.spans.iter().any(|sp| sp.track == track)
            || trace.counters.iter().any(|c| c.track == track)
    };
    events.push(process_meta(1, "memcnn simulated timeline"));
    for track in [Track::Layers, Track::Transforms, Track::Kernels, Track::Backward] {
        events.push(thread_meta(track));
    }
    for track in [Track::Faults, Track::Fleet] {
        if uses_track(track) {
            events.push(thread_meta(track));
        }
    }
    if uses_track(Track::Exec) {
        events.push(process_meta(2, "memcnn functional execution"));
        events.push(thread_meta(Track::Exec));
    }

    let span_event = |name: &str, track: Track, ts_us: f64, dur_us: f64, args: Value| {
        obj(vec![
            ("ph", s("X")),
            ("name", s(name)),
            ("cat", s(track.name())),
            ("pid", n(track.pid() as f64)),
            ("tid", n(track.tid() as f64)),
            ("ts", n(ts_us)),
            ("dur", n(dur_us)),
            ("args", args),
        ])
    };

    for sp in &trace.spans {
        events.push(span_event(&sp.name, sp.track, sp.ts_us, sp.dur_us, args_obj(&sp.args)));
    }

    // Counter series as Perfetto counter tracks ("C" phase): one stepped
    // area chart per series name, under the track's process.
    for c in &trace.counters {
        events.push(obj(vec![
            ("ph", s("C")),
            ("name", s(&c.name)),
            ("cat", s(c.track.name())),
            ("pid", n(c.track.pid() as f64)),
            ("tid", n(c.track.tid() as f64)),
            ("ts", n(c.ts_us)),
            ("args", obj(vec![("value", n(c.value))])),
        ]));
    }

    // Kernels of chosen implementations, back-to-back inside their span.
    let classes = classify_kernels(trace);
    let mut cursor: BTreeMap<usize, f64> = BTreeMap::new();
    for (ki, (_, span_idx)) in classes.iter().enumerate() {
        let Some(si) = span_idx else { continue };
        let sp = &trace.spans[*si];
        let c = &trace.kernels[ki].counters;
        let ts = *cursor.entry(*si).or_insert(sp.ts_us);
        let dur = c.time_s * 1e6;
        cursor.insert(*si, ts + dur);
        events.push(span_event(
            &c.name,
            Track::Kernels,
            ts,
            dur,
            obj(vec![
                ("layer", s(&sp.name)),
                ("bound", s(&c.bound)),
                ("dram_bytes", n(c.dram_bytes)),
                ("transaction_bytes", n(c.transaction_bytes)),
                ("requested_bytes", n(c.requested_bytes)),
                ("overfetch", n(c.overfetch())),
                ("l2_hit_rate", n(c.l2_hit_rate)),
                ("dram_gbs", n(c.dram_gbs())),
                ("flops", n(c.flops)),
                ("occupancy", n(c.occupancy)),
                ("occupancy_limiter", s(&c.occupancy_limiter)),
                ("smem_passes", n(c.smem_passes)),
                ("grid_blocks", n(c.grid_blocks as f64)),
                ("sampled_blocks", n(c.sampled_blocks as f64)),
            ]),
        ));
    }

    // Layout decisions as instants at the start of their layer's span.
    for d in &trace.decisions {
        let ts = trace
            .spans
            .iter()
            .find(|sp| sp.track == Track::Layers && sp.name == d.layer)
            .map(|sp| sp.ts_us)
            .unwrap_or(0.0);
        events.push(obj(vec![
            ("ph", s("i")),
            ("name", s(&format!("{}: {} ({})", d.layer, d.layout, d.policy))),
            ("cat", s("layout-decision")),
            ("pid", n(1.0)),
            ("tid", n(Track::Layers.tid() as f64)),
            ("ts", n(ts)),
            ("s", s("t")),
            ("args", obj(vec![("reason", s(&d.reason)), ("policy", s(&d.policy))])),
        ]));
    }

    let mut top = vec![("traceEvents", Value::Array(events)), ("displayTimeUnit", s("ms"))];
    if !trace.meta.is_empty() {
        top.push(("otherData", meta_obj(&trace.meta)));
    }
    serde_json::to_string(&obj(top)).expect("serializing a trace cannot fail")
}

struct RankedKernel<'a> {
    record: &'a KernelRecord,
    span_name: String,
}

/// Render a human-readable text profile: summary, bound breakdown,
/// top-`top_n` kernel tables, per-layer rollup, and the layout decisions
/// with their reasons. All kernel numbers are the simulator's own
/// counters, unmodified.
pub fn text_profile(trace: &Trace, top_n: usize) -> String {
    let mut out = String::new();
    let classes = classify_kernels(trace);

    let mut timeline: Vec<RankedKernel> = Vec::new();
    let mut agg = BTreeMap::new();
    for class in [
        KernelClass::Timeline,
        KernelClass::Candidate,
        KernelClass::Planning,
        KernelClass::Autotune,
        KernelClass::Backward,
        KernelClass::Speculative,
    ] {
        agg.insert(format!("{class:?}"), Aggregate::default());
    }
    for (ki, (class, span_idx)) in classes.iter().enumerate() {
        let record = &trace.kernels[ki];
        agg.get_mut(&format!("{class:?}")).expect("all classes present").add(&record.counters);
        if *class == KernelClass::Timeline {
            let span_name = span_idx.map(|si| trace.spans[si].name.clone()).unwrap_or_default();
            timeline.push(RankedKernel { record, span_name });
        }
    }
    let tl = &agg["Timeline"];

    writeln!(out, "memcnn profile").unwrap();
    for (k, v) in &trace.meta {
        writeln!(out, "  {k}: {v}").unwrap();
    }
    writeln!(out).unwrap();

    writeln!(out, "== timeline ==").unwrap();
    writeln!(
        out,
        "  total {:.3} ms  (layers {:.3} ms, transforms {:.3} ms in {} kernels, backward {:.3} ms)",
        trace.timeline_total_ms(),
        trace.track_total_ms(Track::Layers),
        trace.track_total_ms(Track::Transforms),
        trace.spans.iter().filter(|sp| sp.track == Track::Transforms).count(),
        trace.track_total_ms(Track::Backward),
    )
    .unwrap();
    writeln!(out).unwrap();

    writeln!(out, "== kernels ==").unwrap();
    writeln!(
        out,
        "  {:<10} {:>8} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "class", "kernels", "time(ms)", "dram(MB)", "bw(GB/s)", "overfetch", "l2(%)"
    )
    .unwrap();
    for (name, a) in &agg {
        if a.kernels == 0 {
            continue;
        }
        writeln!(
            out,
            "  {:<10} {:>8} {:>12.3} {:>12.2} {:>10.1} {:>10.2} {:>8.1}",
            name.to_lowercase(),
            a.kernels,
            a.time_s * 1e3,
            a.dram_bytes / 1e6,
            a.dram_gbs(),
            a.overfetch(),
            a.l2_hit_rate() * 100.0
        )
        .unwrap();
    }
    writeln!(out).unwrap();

    writeln!(out, "== bound breakdown (timeline kernels) ==").unwrap();
    for (bound, t) in &tl.time_by_bound {
        writeln!(
            out,
            "  {:<14} {:>6.1}%  {:>10.3} ms",
            bound,
            if tl.time_s > 0.0 { t / tl.time_s * 100.0 } else { 0.0 },
            t * 1e3
        )
        .unwrap();
    }
    writeln!(out).unwrap();

    let kernel_table = |out: &mut String, title: &str, ranked: &[&RankedKernel]| {
        writeln!(out, "== {title} ==").unwrap();
        writeln!(
            out,
            "  {:<28} {:<10} {:>10} {:>10} {:>9} {:>9} {:>6} {:<14} {:>5} {:<9}",
            "kernel",
            "layer",
            "time(us)",
            "dram(MB)",
            "bw(GB/s)",
            "overfetch",
            "l2(%)",
            "bound",
            "occ%",
            "limiter"
        )
        .unwrap();
        for rk in ranked {
            let c = &rk.record.counters;
            writeln!(
                out,
                "  {:<28} {:<10} {:>10.2} {:>10.3} {:>9.1} {:>9.2} {:>6.1} {:<14} {:>5.0} {:<9}",
                c.name,
                rk.span_name,
                c.time_s * 1e6,
                c.dram_bytes / 1e6,
                c.dram_gbs(),
                c.overfetch(),
                c.l2_hit_rate * 100.0,
                c.bound,
                c.occupancy * 100.0,
                c.occupancy_limiter
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    };

    let mut by_time: Vec<&RankedKernel> = timeline.iter().collect();
    by_time.sort_by(|a, b| b.record.counters.time_s.total_cmp(&a.record.counters.time_s));
    by_time.truncate(top_n);
    kernel_table(&mut out, &format!("top {} kernels by time", by_time.len()), &by_time);

    let mut by_dram: Vec<&RankedKernel> = timeline.iter().collect();
    by_dram.sort_by(|a, b| b.record.counters.dram_bytes.total_cmp(&a.record.counters.dram_bytes));
    by_dram.truncate(top_n);
    kernel_table(&mut out, &format!("top {} kernels by DRAM traffic", by_dram.len()), &by_dram);

    writeln!(out, "== layers ==").unwrap();
    writeln!(
        out,
        "  {:<10} {:<6} {:<16} {:>10} {:>8} {:>10} {:>10} {:>6}",
        "layer", "layout", "impl", "time(ms)", "kernels", "dram(MB)", "overfetch", "l2(%)"
    )
    .unwrap();
    for sp in trace.spans.iter().filter(|sp| sp.track == Track::Layers) {
        let arg = |key: &str| {
            sp.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str()).unwrap_or("-")
        };
        let a: Aggregate = {
            let mut a = Aggregate::default();
            for rk in timeline.iter().filter(|rk| rk.span_name == sp.name) {
                a.add(&rk.record.counters);
            }
            a
        };
        writeln!(
            out,
            "  {:<10} {:<6} {:<16} {:>10.3} {:>8} {:>10.3} {:>10.2} {:>6.1}",
            sp.name,
            arg("layout"),
            arg("impl"),
            sp.dur_us / 1e3,
            a.kernels,
            a.dram_bytes / 1e6,
            a.overfetch(),
            a.l2_hit_rate() * 100.0
        )
        .unwrap();
    }
    writeln!(out).unwrap();

    if !trace.decisions.is_empty() {
        writeln!(out, "== layout decisions ==").unwrap();
        for d in &trace.decisions {
            writeln!(out, "  {:<10} {:<5} [{}] {}", d.layer, d.layout, d.policy, d.reason).unwrap();
        }
    }

    // Process-wide perf counters (cache hits, parallel-worker kernel counts,
    // ...) — the per-thread collector above cannot see work done on rayon
    // workers, but the global registry can.
    let perf = crate::perf::render();
    if !perf.is_empty() {
        writeln!(out).unwrap();
        writeln!(out, "== perf counters (process-wide) ==").unwrap();
        out.push_str(&perf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelCounters;

    fn sample_trace() -> Trace {
        crate::start();
        crate::set_meta("network", "t");
        {
            let _n = crate::scope(Scope::Network("t".to_string()));
            {
                let _p = crate::scope(Scope::Plan);
                crate::record_kernel(|| KernelCounters {
                    name: "probe".to_string(),
                    time_s: 5e-6,
                    bound: "Compute".to_string(),
                    ..Default::default()
                });
            }
            crate::record_decision(|| crate::Decision {
                layer: "CV1".to_string(),
                layout: "CHWN".to_string(),
                policy: "heuristic".to_string(),
                reason: "ci < ct".to_string(),
            });
            {
                let _l = crate::scope(Scope::Layer("CV1".to_string()));
                {
                    let _c = crate::scope(Scope::Candidate("mm".to_string()));
                    crate::record_kernel(|| KernelCounters {
                        name: "im2col".to_string(),
                        time_s: 4e-6,
                        dram_bytes: 1e6,
                        transaction_bytes: 2e6,
                        requested_bytes: 1e6,
                        bound: "DramBandwidth".to_string(),
                        ..Default::default()
                    });
                    crate::record_kernel(|| KernelCounters {
                        name: "gemm".to_string(),
                        time_s: 6e-6,
                        flops: 1e9,
                        bound: "Compute".to_string(),
                        ..Default::default()
                    });
                }
                {
                    let _c = crate::scope(Scope::Candidate("fft".to_string()));
                    crate::record_kernel(|| KernelCounters {
                        name: "fft-fwd".to_string(),
                        time_s: 9e-6,
                        bound: "Compute".to_string(),
                        ..Default::default()
                    });
                }
                crate::record_span(|| SpanEvent {
                    name: "CV1".to_string(),
                    track: Track::Layers,
                    ts_us: 0.0,
                    dur_us: 10.0,
                    args: vec![("impl".into(), "mm".into()), ("layout".into(), "CHWN".into())],
                });
            }
        }
        crate::finish().unwrap()
    }

    #[test]
    fn classification_separates_timeline_from_overhead() {
        let t = sample_trace();
        let classes = classify_kernels(&t);
        assert_eq!(classes[0].0, KernelClass::Planning);
        assert_eq!(classes[1], (KernelClass::Timeline, Some(0)));
        assert_eq!(classes[2], (KernelClass::Timeline, Some(0)));
        assert_eq!(classes[3].0, KernelClass::Candidate); // fft not chosen
    }

    #[test]
    fn worker_frame_classifies_speculative_and_stays_off_the_timeline() {
        let mut t = sample_trace();
        // A speculative prewarm of the very kernel the chosen impl runs:
        // the Worker frame must win over layer/candidate matching.
        let mut spec = t.kernels[1].clone();
        spec.path.push(Scope::Worker(0));
        t.kernels.push(spec);
        let classes = classify_kernels(&t);
        assert_eq!(classes[4], (KernelClass::Speculative, None));
        // Timeline pairing of the orchestrator's records is unchanged.
        assert_eq!(classes[1], (KernelClass::Timeline, Some(0)));
        let text = text_profile(&t, 10);
        assert!(text.contains("speculative"), "missing speculative row:\n{text}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let t = sample_trace();
        let json = chrome_trace(&t);
        let doc = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let spans: Vec<_> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).collect();
        // 1 layer span + 2 timeline kernels (im2col, gemm); the fft
        // candidate and the planning probe stay off the timeline.
        assert_eq!(spans.len(), 3);
        let kernels: Vec<_> =
            spans.iter().filter(|e| e.get("cat").unwrap().as_str() == Some("kernels")).collect();
        assert_eq!(kernels.len(), 2);
        // Back-to-back inside the layer span, monotonic, non-overlapping.
        let (k0, k1) = (&kernels[0], &kernels[1]);
        let end0 =
            k0.get("ts").unwrap().as_f64().unwrap() + k0.get("dur").unwrap().as_f64().unwrap();
        assert!((end0 - k1.get("ts").unwrap().as_f64().unwrap()).abs() < 1e-9);
        // One decision instant.
        assert_eq!(events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("i")).count(), 1);
    }

    #[test]
    fn counter_samples_export_as_counter_track_events() {
        let mut t = sample_trace();
        for (ts, v) in [(0.0, 1.0), (5.0, 3.0), (9.0, 0.0)] {
            t.counters.push(crate::CounterEvent {
                name: "queue.depth".to_string(),
                track: Track::Fleet,
                ts_us: ts,
                value: v,
            });
        }
        let json = chrome_trace(&t);
        let doc = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<_> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("C")).collect();
        assert_eq!(counters.len(), 3);
        // Non-decreasing timestamps, value carried in args, and the fleet
        // track's thread metadata present (referenced only by counters).
        let ts: Vec<f64> =
            counters.iter().map(|e| e.get("ts").unwrap().as_f64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(counters[1].get("args").unwrap().get("value").unwrap().as_f64(), Some(3.0));
        assert!(
            events.iter().any(|e| e.get("ph").unwrap().as_str() == Some("M")
                && e.get("args").unwrap().get("name").unwrap().as_str() == Some("fleet")),
            "fleet thread metadata missing"
        );
    }

    #[test]
    fn text_profile_reports_counters_and_decisions() {
        let t = sample_trace();
        let text = text_profile(&t, 10);
        for needle in [
            "== timeline ==",
            "== bound breakdown",
            "top 2 kernels by time",
            "im2col",
            "gemm",
            "== layout decisions ==",
            "ci < ct",
            "planning",
            "candidate",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The over-fetch factor of im2col (2e6 / 1e6) is printed as-is.
        assert!(text.contains("2.00"), "overfetch column missing:\n{text}");
    }
}
