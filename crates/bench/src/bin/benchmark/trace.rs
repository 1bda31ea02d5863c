//! The benchmark's own spans: one around every public library call it
//! makes in a traced run, kept in memory and written when the run ends as
//! a Chrome trace plus a self-time table. The library itself is not
//! instrumented here; a span's layer is the crate whose function it
//! wraps.

use crate::clock::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Crate the call went into (`core`, `gpu-sim`, `serve`, ...), or
    /// `bench` for the benchmark's own phases.
    pub layer: &'static str,
    /// What was called, with its arguments (`Engine::plan AlexNet Opt`).
    pub name: String,
    /// Repetition (or request) the call belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, CPU microseconds since the tracer was created.
    pub start_us: f64,
    /// End, CPU microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Duration, CPU microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing, so traced and untraced runs execute the same code. Span times
/// are process CPU time (see [`crate::clock`]).
pub struct Tracer {
    enabled: bool,
    t0: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { enabled: false, t0: Stopwatch::start(), spans: Vec::new(), stack: Vec::new() }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { enabled: true, ..Tracer::off() }
    }

    /// Run `f` inside a span named `name` on `layer`. Spans opened inside
    /// `f` (through the tracer it receives) become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            id,
            parent: self.stack.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.t0.secs() * 1e6
    }

    /// Total CPU seconds of the spans whose name starts with `prefix`.
    pub fn total_secs(&self, prefix: &str) -> f64 {
        self.spans.iter().filter(|s| s.name.starts_with(prefix)).map(|s| s.dur_us() / 1e6).sum()
    }

    /// Write `<dir>/<workload>.trace.json` (Chrome trace-event format)
    /// and `<dir>/<workload>.selftime.txt`.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{workload}.trace.json")), self.chrome_json(workload))?;
        std::fs::write(dir.join(format!("{workload}.selftime.txt")), self.self_time_table())
    }

    fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":{}}}}}",
            json_str(&format!("benchmark {workload}"))
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"span\":{i},\"id\":{},\"parent\":{}}}}}",
                json_str(&s.name),
                json_str(s.layer),
                s.start_us,
                s.dur_us(),
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Per-layer self time, then per-call self time, largest first.
    pub fn self_time_table(&self) -> String {
        let own = self_times(&self.spans);
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        let mut by_call: BTreeMap<(&str, &str), (usize, f64, f64)> = BTreeMap::new();
        for (s, own_us) in self.spans.iter().zip(&own) {
            *by_layer.entry(s.layer).or_default() += own_us;
            let e = by_call.entry((s.layer, call_name(&s.name))).or_default();
            e.0 += 1;
            e.1 += s.dur_us();
            e.2 += own_us;
        }
        let mut layers: Vec<_> = by_layer.into_iter().collect();
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut calls: Vec<_> = by_call.into_iter().collect();
        calls.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = String::from("self time by layer\n");
        for (layer, us) in layers {
            let _ = writeln!(out, "  {layer:<10} {:>12.3} ms", us / 1e3);
        }
        out.push_str("\nself time by call\n");
        let _ = writeln!(
            out,
            "  {:<8} {:<28} {:>7} {:>12} {:>12}",
            "layer", "call", "calls", "total ms", "self ms"
        );
        for ((layer, name), (n, total, own)) in calls {
            let _ = writeln!(
                out,
                "  {layer:<8} {name:<28} {n:>7} {:>12.3} {:>12.3}",
                total / 1e3,
                own / 1e3
            );
        }
        out
    }
}

/// Work done and CPU time taken by one kind of traced call.
#[derive(Default)]
pub struct Tally {
    work: f64,
    secs: f64,
}

impl Tally {
    /// Run `f` in a span on `layer` and count `work` for it.
    pub fn time<R>(
        &mut self,
        tr: &mut Tracer,
        layer: &'static str,
        name: &str,
        work: f64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Stopwatch::start();
        let r = tr.span(layer, name, 0, |_| std::hint::black_box(f()));
        self.secs += t.secs();
        self.work += work;
        r
    }

    /// Work per CPU second; 0 before any call.
    pub fn rate(&self) -> f64 {
        crate::stats::rate(self.work, self.secs)
    }
}

/// The called function of a span name: the part before the first space
/// (`Engine::plan AlexNet Opt` -> `Engine::plan`).
fn call_name(name: &str) -> &str {
    name.split(' ').next().unwrap_or(name)
}

/// Self time of every span, microseconds: its duration minus the part of
/// its interval covered by its children. Children may overlap each other
/// (the covered part is their union) and may stick out of the parent (only
/// the overlap counts).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { layer: "core", name: "x".into(), id: 0, parent, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] with children [10,30] and [50,60]; the first child
        // has a grandchild [15,20] that must not count against the root.
        let spans = vec![
            span(None, 0.0, 100.0),
            span(Some(0), 10.0, 30.0),
            span(Some(1), 15.0, 20.0),
            span(Some(0), 50.0, 60.0),
        ];
        assert_eq!(self_times(&spans), vec![70.0, 15.0, 5.0, 10.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children [10,40] and [30,50] overlap on [30,40]: the union is 40.
        // A child sticking out of the parent only counts inside it.
        let spans = vec![
            span(None, 0.0, 100.0),
            span(Some(0), 10.0, 40.0),
            span(Some(0), 30.0, 50.0),
            span(Some(0), 90.0, 120.0),
            span(Some(0), 35.0, 38.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100.0 - 40.0 - 10.0);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let mut tr = Tracer::on();
        let v = tr.span("bench", "outer", 1, |tr| tr.span("core", "Engine::plan LeNet", 1, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[0].end_us >= tr.spans[1].end_us);
        assert!(tr.total_secs("Engine::plan") >= 0.0);
        let table = tr.self_time_table();
        assert!(table.contains("Engine::plan"), "{table}");
        let json = tr.chrome_json("demo");
        assert!(json.starts_with("{\"traceEvents\":[") && json.contains("\"parent\":0"));

        let mut off = Tracer::off();
        assert_eq!(off.span("core", "x", 0, |_| 3), 3);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
