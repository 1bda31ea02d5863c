//! The memcnn benchmark: four workloads that load different layers of the
//! stack, each measured end to end (host time, memory, and the simulated
//! results the paper's claims rest on) and, in a traced run, layer by
//! layer. See `README.md` next to this file for the metrics, the
//! workloads and how to compare two commits.
//!
//! ```text
//! cargo run --release -q -p memcnn-bench --bin benchmark -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]
//! benchmark --compare PARENT_RESULTS CHANGE_RESULTS
//! benchmark --print-benchmark-json
//! ```
//!
//! Each workload runs in a fresh child process with the library's oracle
//! and cache knobs cleared and `MEMCNN_THREADS` set to 1 (or to the
//! caller's value, capped at `min(nproc, 4)`). The last line of output is one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics (untraced)
//! or the per-layer metrics (`--trace 1`, or `--trace DIR` to choose where
//! the Chrome trace and self-time table go; the default is
//! `bench-traces/`).

mod catalog;
mod clock;
mod cpu_forward;
mod fleet_stream;
mod paper_plan;
mod serve_mixed;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Library knobs that switch on test oracles or resize the simulation
/// cache; cleared in the child so the shipping path is measured.
const CLEARED_ENV: [&str; 5] = [
    "MEMCNN_FLEET_SEQUENTIAL",
    "MEMCNN_FLEET_LINEAR",
    "MEMCNN_SLO_DISABLE",
    "MEMCNN_HEALTH_DISABLE",
    "MEMCNN_SIMCACHE_CAP",
];

/// Cold set-ups of an untraced run repeat until they have taken this many
/// seconds (or [`MAX_SETUPS`] ran); `setup_s` is their median. Cheap
/// set-ups so rest on many samples, and one that alone takes longer
/// (`serve-mixed`, 8 s or more) is timed once, which keeps the run short.
const SETUP_BUDGET_S: f64 = 2.0;
const MAX_SETUPS: usize = 30;

/// Pairs `--compare` needs: a gain is nine wins in ten.
const MIN_PAIRS: usize = 10;

/// Where `--trace 1` writes traces.
const DEFAULT_TRACE_DIR: &str = "bench-traces";

/// One workload run's settings.
pub struct RunCfg {
    /// Seed of the workload's generated inputs.
    pub seed: u64,
    /// Host seconds the measured repetitions may take.
    pub seconds: f64,
    /// Trace directory of a traced run.
    pub trace: Option<PathBuf>,
}

impl RunCfg {
    /// Whether to time another cold set-up after those that took `setups`
    /// seconds: as many as fit in [`SETUP_BUDGET_S`] for `setup_s`, one in
    /// a traced run (which reports per-layer metrics only).
    pub fn more_setups(&self, setups: &[f64]) -> bool {
        if setups.is_empty() {
            return true;
        }
        self.trace.is_none()
            && setups.iter().sum::<f64>() < SETUP_BUDGET_S
            && setups.len() < MAX_SETUPS
    }

    /// Whether to run another repetition: always until `min` are done,
    /// then while one more (as long as the last) fits in the budget.
    pub fn more(&self, start: Instant, done: usize, min: usize, last_secs: f64) -> bool {
        done < min || start.elapsed().as_secs_f64() + last_secs <= self.seconds
    }
}

/// What a workload run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (plans, forward passes or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks run.
    pub checks: usize,
    /// Checks that failed, with what was wrong.
    pub failures: Vec<String>,
    /// Catalog metrics measured.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further named results, printed for the reader.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a correctness check; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Record a catalog metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = catalog::metric(name).unwrap_or_else(|| panic!("{name} is not in the catalog"));
        self.metrics.insert(m.name, value);
    }

    /// Record a host-timed catalog metric as the median of its samples,
    /// and note the samples' spread.
    pub fn set_host(&mut self, name: &str, samples: &[f64]) {
        let unit = catalog::metric(name).map_or("", |m| m.unit);
        self.note_host(&format!("{name} (all samples)"), unit, samples);
        self.set(name, stats::median(samples));
    }

    /// Record a named result for the reader.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("{name} = {value:.6} {unit}"));
    }

    /// Record a host timing: the median of the repetitions, with min, max
    /// and the repetition count.
    pub fn note_host(&mut self, name: &str, unit: &str, samples: &[f64]) {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.notes.push(format!(
            "{name} = {:.6} {unit} (median of R={}; min {min:.6}, max {max:.6})",
            stats::median(samples),
            samples.len()
        ));
    }

    /// Write a traced run's spans; a write error fails the run.
    pub fn write_trace(&mut self, tr: &trace::Tracer, dir: &Path, workload: &str) {
        let written = tr.write(dir, workload);
        self.check("trace files are written", written.is_ok(), || format!("{written:?}"));
        println!("{}", tr.self_time_table());
    }
}

/// Test helper: a workload run passed its checks and measured every
/// end-to-end metric (bar the child's `peak_rss_mb`).
#[cfg(test)]
pub fn assert_complete(out: &Outcome) {
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    for m in catalog::END_TO_END.iter().filter(|m| m.name != "peak_rss_mb") {
        assert!(out.metrics.contains_key(m.name), "{} not measured", m.name);
    }
}

fn run_workload(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "paper-plan" => paper_plan::run(cfg, &paper_plan::Size::full()),
        "cpu-forward" => cpu_forward::run(cfg, &cpu_forward::Size::full()),
        "fleet-stream" => fleet_stream::run(cfg, &fleet_stream::Size::full()),
        "serve-mixed" => serve_mixed::run(cfg, &serve_mixed::Size::full()),
        _ => return None,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker threads the library may use: one, unless `MEMCNN_THREADS` asks
/// for more, and never more than `min(nproc, 4)`. Host time is CPU time
/// summed over workers, so one worker makes every host metric a single-core
/// number whatever the machine; ask for more to measure the parallel paths.
fn thread_cap() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("MEMCNN_THREADS").ok().and_then(|v| v.parse::<usize>().ok());
    asked.filter(|&n| n > 0).unwrap_or(1).min(nproc).min(4)
}

/// The result line: the catalog's end-to-end metrics, or its per-layer
/// metrics for a traced run (a layer the workload does not use reads 0).
fn result_line(out: &mut Outcome, traced: bool) -> String {
    let list = if traced { &catalog::PER_LAYER[..] } else { &catalog::END_TO_END[..] };
    let mut metrics = Vec::new();
    for m in list {
        let value = match out.metrics.get(m.name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => {
                out.failures.push(format!("end-to-end metric {} was not measured", m.name));
                0.0
            }
        };
        if !value.is_finite() {
            out.failures.push(format!("metric {} is not finite: {value}", m.name));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            trace::json_str(m.name),
            trace::json_str(m.unit)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// The child: run one workload in this process and report it.
fn child(workload: &str, cfg: &RunCfg) -> ExitCode {
    let threads = std::env::var("MEMCNN_THREADS").unwrap_or_default();
    let mode =
        cfg.trace.as_ref().map_or("untraced".to_string(), |d| format!("traced -> {}", d.display()));
    println!(
        "== benchmark {workload}: seed {}, {} s, MEMCNN_THREADS={threads}, {mode} ==",
        cfg.seed, cfg.seconds
    );
    let t = Instant::now();
    let Some(mut out) = run_workload(workload, cfg) else {
        eprintln!("unknown workload {workload:?}");
        return ExitCode::from(2);
    };
    match peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.check("peak RSS is readable from /proc/self/status", false, String::new),
    }
    for note in &out.notes {
        println!("{note}");
    }
    let traced = cfg.trace.is_some();
    let list = if traced { &catalog::PER_LAYER[..] } else { &catalog::END_TO_END[..] };
    for m in list {
        if let Some(v) = out.metrics.get(m.name) {
            println!("{} = {v} {}", m.name, m.unit);
        }
    }
    let line = result_line(&mut out, traced);
    println!(
        "checks: {} run, {} failed; attempted {}, failed {}; {:.1} s",
        out.checks,
        out.failures.len(),
        out.attempted,
        out.failed,
        t.elapsed().as_secs_f64()
    );
    for f in &out.failures {
        eprintln!("CHECK FAILED [{workload}]: {f}");
    }
    println!("{line}");
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The parent: run each workload in a fresh child process and relay its
/// output.
fn parent(workloads: &[&str], seed: u64, seconds: f64, trace: &str) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = thread_cap();
    let mut code = ExitCode::SUCCESS;
    for w in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", w, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", trace])
            .env("MEMCNN_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in CLEARED_ENV {
            cmd.env_remove(var);
        }
        match cmd.output() {
            Ok(o) => {
                print!("{}", String::from_utf8_lossy(&o.stdout));
                if !o.status.success() {
                    eprintln!("benchmark: workload {w} failed ({})", o.status);
                    code = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("benchmark: cannot start workload {w}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// One run's result line, as `--compare` reads it.
struct RunResult {
    /// Operations that failed.
    failed: u64,
    /// Metric values by name.
    metrics: BTreeMap<String, f64>,
}

/// The result lines of a file, in run order; other lines are ignored. A
/// run that failed its correctness checks is refused: its numbers do not
/// measure a working program.
fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().filter(|l| l.starts_with("{\"correct\"")).enumerate() {
        let v = serde_json::from_str(line).map_err(|e| format!("run {i}: {e:?}"))?;
        if v.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            return Err(format!("run {i} failed its correctness checks"));
        }
        let failed = v.get("failed").and_then(|f| f.as_u64());
        let metrics = v.get("metrics").and_then(|m| m.as_object());
        let (Some(failed), Some(metrics)) = (failed, metrics) else {
            return Err(format!("run {i}: no failed count or metrics"));
        };
        let metrics = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(RunResult { failed, metrics });
    }
    Ok(runs)
}

/// Judge paired runs (`parent[i]` ran next to `change[i]`) metric by
/// metric: the report, or why the runs cannot be judged. A gain does not
/// count when the change failed more operations than the parent.
fn judge(parent: &[RunResult], change: &[RunResult]) -> Result<String, String> {
    if parent.len() != change.len() {
        return Err(format!(
            "{} parent runs but {} change runs: runs must come in pairs",
            parent.len(),
            change.len()
        ));
    }
    let pairs = parent.len();
    if pairs < MIN_PAIRS {
        return Err(format!("{pairs} pairs; the gain rule needs at least {MIN_PAIRS}"));
    }
    let failed = |runs: &[RunResult]| runs.iter().map(|r| r.failed).sum::<u64>();
    let (parent_failed, change_failed) = (failed(parent), failed(change));
    let mut out = format!(
        "{pairs} pairs; gain = >=9/10 wins and a median gap beyond the parent's IQR; \
         operations failed: parent {parent_failed}, change {change_failed}\n"
    );
    for m in catalog::END_TO_END.iter().chain(catalog::PER_LAYER.iter()) {
        let series = |runs: &[RunResult]| -> Vec<f64> {
            runs.iter().filter_map(|r| r.metrics.get(m.name).copied()).collect()
        };
        let (p, c) = (series(parent), series(change));
        if p.len() != pairs || c.len() != pairs {
            continue;
        }
        let floor = if m.name == "setup_s" { catalog::SETUP_FLOOR_S } else { 0.0 };
        let bound = m.bound.unwrap_or(f64::INFINITY);
        let mut verdict = stats::compare(&p, &c, m.better, bound, floor);
        if verdict == stats::Verdict::Gain && change_failed > parent_failed {
            verdict = stats::Verdict::Withheld;
        }
        let _ = writeln!(
            out,
            "{:<32} parent {:.6} (spread {:.1}%)  change {:.6} {}  {verdict:?}",
            m.name,
            stats::median(&p),
            100.0 * stats::relative_iqr(&p),
            stats::median(&c),
            m.unit
        );
    }
    Ok(out)
}

/// `--compare`: paired result lines of two commits, judged metric by
/// metric.
fn compare(parent: &Path, change: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_results(&text))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match load(parent).and_then(|a| Ok((a, load(change)?))).and_then(|(a, b)| judge(&a, &b)) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark --compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]\n       \
         benchmark --compare PARENT_RESULTS CHANGE_RESULTS\n       \
         benchmark --print-benchmark-json\nworkloads: {}",
        catalog::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut is_child) =
        (None, 42u64, catalog::RUN_SECONDS as f64, "0".to_string(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned();
        match arg.as_str() {
            "--print-benchmark-json" => {
                print!("{}", catalog::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--compare" => {
                return match (value(), value()) {
                    (Some(p), Some(c)) => compare(Path::new(&p), Path::new(&c)),
                    _ => usage(),
                }
            }
            "--child" => is_child = true,
            "--workload" => workload = value(),
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s >= 0.0 => seconds = s,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some(t) => trace = t,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "benchmark: refusing to measure a debug build (its debug_assert cross-checks distort \
             timing); build with --release"
        );
        return ExitCode::from(2);
    }
    let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
    let chosen: Vec<&str> = match workload.as_deref() {
        None => names.clone(),
        Some(w) if names.contains(&w) => vec![w],
        Some(_) => return usage(),
    };
    if !is_child {
        return parent(&chosen, seed, seconds, &trace);
    }
    let trace_dir = match trace.as_str() {
        "0" => None,
        "1" => Some(PathBuf::from(DEFAULT_TRACE_DIR)),
        dir => Some(PathBuf::from(dir)),
    };
    child(chosen[0], &RunCfg { seed, seconds, trace: trace_dir })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(correct: bool, failed: u64, ops: f64) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": 100, \"failed\": {failed}, \"metrics\": \
             {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}"
        )
    }

    /// Parsed runs, each line followed by other output `--compare` skips.
    fn runs(failed: u64, ops: &[f64]) -> Vec<RunResult> {
        let text: String =
            ops.iter().map(|&o| line(true, failed, o) + "\nops_per_s = 1\n").collect();
        parse_results(&text).expect("well-formed result lines")
    }

    fn verdict(report: &str) -> &str {
        let row = report.lines().find(|l| l.starts_with("ops_per_s")).expect("ops_per_s judged");
        row.split_whitespace().last().expect("a verdict")
    }

    #[test]
    fn compare_needs_ten_correct_pairs_and_no_more_failures() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let judged = |pf: u64, p: &[f64], cf: u64, c: &[f64]| judge(&runs(pf, p), &runs(cf, c));
        assert_eq!(verdict(&judged(0, &parent, 0, &faster).expect("ten pairs")), "Gain");
        // The change failed operations the parent did not: no gain.
        assert_eq!(verdict(&judged(0, &parent, 1, &faster).expect("ten pairs")), "Withheld");
        assert_eq!(verdict(&judged(1, &parent, 1, &faster).expect("ten pairs")), "Gain");
        // One pair, nine pairs, or unpaired runs are refused.
        assert!(judged(0, &parent[..1], 0, &faster[..1]).is_err());
        assert!(judged(0, &parent[..9], 0, &faster[..9]).is_err());
        assert!(judged(0, &parent, 0, &faster[..9]).is_err());
        // So is a run that failed its correctness checks.
        assert!(parse_results(&line(false, 0, 1.0)).is_err());
        assert_eq!(runs(0, &parent).len(), 10);
    }

    #[test]
    fn set_ups_repeat_within_their_budget() {
        let untraced = RunCfg { seed: 1, seconds: 1.0, trace: None };
        assert!(untraced.more_setups(&[]));
        assert!(untraced.more_setups(&[0.5, 0.5]));
        assert!(!untraced.more_setups(&[0.5; 4]));
        assert!(!untraced.more_setups(&[SETUP_BUDGET_S + 6.0]), "a long set-up is timed once");
        assert!(!untraced.more_setups(&[0.001; MAX_SETUPS]));
        let traced = RunCfg { trace: Some(PathBuf::from("t")), ..untraced };
        assert!(traced.more_setups(&[]) && !traced.more_setups(&[0.001]));
    }
}
