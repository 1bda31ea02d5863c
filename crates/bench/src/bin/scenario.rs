//! Scenario harness orchestrator. `memcnn_bench::scenario` documents the
//! file format, the runs, the identity check and the gates.
//!
//! ```text
//! cargo run -p memcnn-bench --release --bin scenario
//! cargo run -p memcnn-bench --release --bin scenario -- --update-baselines
//! MEMCNN_THREADS=1 cargo run -p memcnn-bench --release --bin scenario -- \
//!     run scenarios/stream-k16.toml --oracle linear
//! ```
//!
//! Without a subcommand, replays every `scenarios/*.toml` as fresh agent
//! processes (`scenario run <file>` on a release-built copy of this
//! binary), one per run, each with its `MEMCNN_THREADS` set on the child
//! and its oracle passed as `--oracle`. Per
//! scenario it prints `NONDETERMINISM scenario=... run=...` for a run that
//! differs from the base run, `GATE FAILED ...` or `GATE SKIPPED ...` per
//! gate, and `REGRESSION scenario=... metric=...` per baseline drift. Any
//! failure exits 1, which is the CI gate. `--update-baselines` rewrites
//! `baselines/<name>.json` from the base run instead, but never for a
//! scenario whose identity check or gates failed.
//!
//! `run <file>` is the agent mode: execute one scenario in-process, under
//! the oracle named by `--oracle linear` if given, and
//! print `{"result": ..., "digest": ..., "host": {"wall_ms": ...}}` as the
//! last stdout line. With `--metrics-dir DIR` it also writes the metrics
//! timeline, thinned to at most [`TIMELINE_SAMPLES`] samples, to
//! `DIR/<name>.metrics.json`, and `--record-perfetto` adds an execution
//! trace as a Chrome/Perfetto timeline, `DIR/<name>.trace.json`. The
//! orchestrator asks only the base run for these files.

use memcnn_bench::scenario::{self, AgentLine, Drift, Run, Verdict, BASE_RUN};
use memcnn_bench::util::Table;
use memcnn_metrics::{Histogram, MetricsTimeline, Sample};
use memcnn_trace as trace;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Sample budget of a written metrics timeline. A timeline with more
/// samples keeps every `n`-th sample of each series (and its last), with
/// one `n` for the whole timeline; the latency histograms are kept whole.
/// A million-request stream records about two million samples (~80 MB of
/// JSON); a timeline within the budget is written whole.
const TIMELINE_SAMPLES: usize = 4096;

#[derive(Serialize)]
struct Outcome {
    scenario: String,
    suite: String,
    /// `ok`, `nondeterministic`, `gate-failed`, `drift`, or `error`.
    status: String,
    drifts: Vec<Drift>,
    gate_failures: Vec<String>,
    /// Run name → wall time of its `serve_fleet` call, milliseconds.
    wall_ms: BTreeMap<String, f64>,
}

#[derive(Serialize)]
struct Summary {
    bench: &'static str,
    /// Cores the host offered (arms the `threadsN` wall-ratio gates).
    cores: usize,
    scenarios: Vec<Outcome>,
    /// Latency histograms merged across each suite's scenarios.
    suite_hist: BTreeMap<String, Histogram>,
    /// Latency histogram merged across every scenario.
    merged_hist: Histogram,
}

fn usage() -> ! {
    eprintln!(
        "usage: scenario [--scenarios DIR] [--baselines DIR] [--metrics-dir DIR] \
         [--out PATH] [--agent PATH] [--update-baselines] [--record-perfetto]\n       \
         scenario run FILE [--oracle linear] [--metrics-dir DIR] \
         [--record-perfetto]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("run") {
        run_agent(&args[1..]);
    }

    let mut scenarios_dir = PathBuf::from("scenarios");
    let mut baselines_dir = PathBuf::from("baselines");
    let mut metrics_dir = PathBuf::from("target/metrics");
    let mut out = PathBuf::from("BENCH_scenario.json");
    let mut agent: Option<PathBuf> = None;
    let mut update = false;
    let mut record_perfetto = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenarios" => scenarios_dir = next_path(&mut it),
            "--baselines" => baselines_dir = next_path(&mut it),
            "--metrics-dir" => metrics_dir = next_path(&mut it),
            "--out" => out = next_path(&mut it),
            "--agent" => agent = Some(next_path(&mut it)),
            "--update-baselines" => update = true,
            "--record-perfetto" => record_perfetto = true,
            _ => usage(),
        }
    }
    let agent = agent.unwrap_or_else(|| std::env::current_exe().expect("current_exe"));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut files: Vec<PathBuf> = std::fs::read_dir(&scenarios_dir)
        .unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", scenarios_dir.display());
            std::process::exit(1);
        })
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("no *.toml scenarios under {}", scenarios_dir.display());
        std::process::exit(1);
    }
    std::fs::create_dir_all(&metrics_dir).expect("create metrics dir");
    if update {
        std::fs::create_dir_all(&baselines_dir).expect("create baselines dir");
    }

    let mut outcomes = Vec::new();
    let mut suite_hist: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut merged_hist = Histogram::new();
    let mut table = Table::new(
        format!("scenario harness ({cores} cores)"),
        &["scenario", "suite", "runs", "requests", "p99 ms", "base ms", "digest", "status"],
    );
    let mut failed = false;

    for file in &files {
        let spec = match std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|t| scenario::parse_spec(&t).map_err(|e| e.to_string()))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ERROR scenario={} parse: {e}", file.display());
                failed = true;
                continue;
            }
        };
        let mut outcome = Outcome {
            scenario: spec.name.clone(),
            suite: spec.suite.clone(),
            status: "ok".to_string(),
            drifts: Vec::new(),
            gate_failures: Vec::new(),
            wall_ms: BTreeMap::new(),
        };
        let runs = spec.runs();
        let lines: Result<Vec<AgentLine>, String> = runs
            .iter()
            .map(|run| {
                spawn_agent(&agent, file, &metrics_dir, record_perfetto, run)
                    .map_err(|e| format!("run={}: {e}", run.name))
            })
            .collect();
        let lines = match lines {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("ERROR scenario={} {e}", spec.name);
                outcome.status = "error".to_string();
                outcomes.push(outcome);
                failed = true;
                continue;
            }
        };
        let base = &lines[0].result;
        outcome.wall_ms =
            runs.iter().zip(&lines).map(|(r, l)| (r.name.clone(), l.host.wall_ms)).collect();
        suite_hist.entry(spec.suite.clone()).or_default().merge(&base.hist);
        merged_hist.merge(&base.hist);

        let mut fail = |outcome: &mut Outcome, status: &str| {
            if outcome.status == "ok" {
                outcome.status = status.to_string();
            }
            failed = true;
        };
        for (run, line) in runs.iter().zip(&lines).skip(1) {
            if let Some(field) = line.differs_from(&lines[0]) {
                eprintln!(
                    "NONDETERMINISM scenario={} run={} field={field}: differs from run={BASE_RUN}",
                    spec.name, run.name
                );
                fail(&mut outcome, "nondeterministic");
            }
        }
        for (verdict, line) in scenario::check_gates(&spec, &base.metrics, &outcome.wall_ms, cores)
        {
            match verdict {
                Verdict::Pass => println!("gate ok scenario={} {line}", spec.name),
                Verdict::Skipped => println!("GATE SKIPPED scenario={} {line}", spec.name),
                Verdict::Fail => {
                    eprintln!("GATE FAILED scenario={} {line}", spec.name);
                    outcome.gate_failures.push(line);
                    fail(&mut outcome, "gate-failed");
                }
            }
        }

        let path = baselines_dir.join(format!("{}.json", spec.name));
        if update && outcome.status == "ok" {
            let pretty = serde_json::to_string_pretty(base).expect("serialize baseline");
            std::fs::write(&path, format!("{pretty}\n")).expect("write baseline");
            eprintln!("updated {}", path.display());
        } else if update {
            eprintln!("not updating {}: the scenario failed", path.display());
        } else {
            let diff = std::fs::read_to_string(&path)
                .map_err(|e| format!("no {} ({e}); run --update-baselines", path.display()))
                .and_then(|text| scenario::parse_result(&text))
                .and_then(|b| scenario::diff_metrics(&b.metrics, &base.metrics, &spec.tolerances));
            match diff {
                Ok(drifts) => {
                    for d in &drifts {
                        eprintln!(
                            "REGRESSION scenario={} metric={} baseline={} current={} \
                             drift={:.2}% tol={:.2}%",
                            spec.name,
                            d.metric,
                            d.baseline,
                            d.current,
                            d.rel * 100.0,
                            d.tol * 100.0
                        );
                    }
                    if !drifts.is_empty() {
                        fail(&mut outcome, "drift");
                    }
                    outcome.drifts = drifts;
                }
                Err(e) => {
                    eprintln!("ERROR scenario={} baseline: {e}", spec.name);
                    fail(&mut outcome, "error");
                }
            }
        }

        let metric = |name: &str, prec: usize| {
            base.metrics.get(name).map_or("-".to_string(), |v| format!("{v:.prec$}"))
        };
        table.row(vec![
            spec.name.clone(),
            spec.suite.clone(),
            runs.len().to_string(),
            metric("requests", 0),
            metric("latency.p99", 3),
            format!("{:.0}", lines[0].host.wall_ms),
            lines[0].digest.clone(),
            outcome.status.clone(),
        ]);
        outcomes.push(outcome);
    }
    table.print();

    let summary =
        Summary { bench: "scenario", cores, scenarios: outcomes, suite_hist, merged_hist };
    let line = serde_json::to_string(&summary).expect("serialize summary");
    println!("\n{line}");
    if let Err(e) = std::fs::write(&out, format!("{line}\n")) {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", out.display());
    if failed {
        std::process::exit(1);
    }
}

/// Agent mode: run one scenario file in-process.
fn run_agent(args: &[String]) -> ! {
    let mut file: Option<PathBuf> = None;
    let mut metrics_dir: Option<PathBuf> = None;
    let mut oracle = None;
    let mut record_perfetto = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics-dir" => metrics_dir = Some(next_path(&mut it)),
            "--oracle" => {
                let name = it.next().map(String::as_str).unwrap_or_else(|| usage());
                oracle = Some(scenario::oracle_named(name).unwrap_or_else(|| usage()));
            }
            "--record-perfetto" => record_perfetto = true,
            _ if file.is_none() && !arg.starts_with('-') => file = Some(PathBuf::from(arg)),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    if record_perfetto && metrics_dir.is_none() {
        usage();
    }
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", file.display());
        std::process::exit(1);
    });
    let spec = scenario::parse_spec(&text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", file.display());
        std::process::exit(1);
    });
    if record_perfetto {
        trace::start();
    }
    let (line, timeline) = scenario::run(&spec, oracle).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    if let Some(dir) = &metrics_dir {
        std::fs::create_dir_all(dir).expect("create metrics dir");
        if let Some(captured) = trace::finish() {
            let tpath = dir.join(format!("{}.trace.json", spec.name));
            std::fs::write(&tpath, trace::export::chrome_trace(&captured))
                .expect("write perfetto trace");
            eprintln!("wrote {}", tpath.display());
        }
        let mpath = dir.join(format!("{}.metrics.json", spec.name));
        std::fs::write(&mpath, format!("{}\n", thin(timeline).to_json()))
            .expect("write metrics timeline");
        eprintln!("wrote {}", mpath.display());
    }
    // The agent line must be the last stdout line: the orchestrator
    // parses stdout from the bottom.
    println!("{}", serde_json::to_string(&line).expect("serialize agent line"));
    std::process::exit(0);
}

/// Thin `timeline` to about [`TIMELINE_SAMPLES`] samples.
fn thin(mut timeline: MetricsTimeline) -> MetricsTimeline {
    let total: usize = timeline.series.iter().map(|s| s.samples.len()).sum();
    let stride = total.div_ceil(TIMELINE_SAMPLES).max(1);
    for series in &mut timeline.series {
        let last = series.samples.len().saturating_sub(1);
        let keep = |(i, _): &(usize, &Sample)| i % stride == 0 || *i == last;
        series.samples = series.samples.iter().enumerate().filter(keep).map(|(_, s)| *s).collect();
    }
    timeline
}

fn next_path(it: &mut std::slice::Iter<'_, String>) -> PathBuf {
    match it.next() {
        Some(p) => PathBuf::from(p),
        None => usage(),
    }
}

/// Spawn one run's agent as a fresh OS process and parse its last stdout
/// line. Only the base run writes its metrics timeline (and, with
/// `--record-perfetto`, its trace): every other run's timeline must be
/// the same. The run's `MEMCNN_THREADS` is set on the child, and its
/// oracle, if any, is passed as `--oracle`.
fn spawn_agent(
    agent: &Path,
    file: &Path,
    metrics_dir: &Path,
    record_perfetto: bool,
    run: &Run,
) -> Result<AgentLine, String> {
    let mut cmd = Command::new(agent);
    cmd.arg("run").arg(file);
    if run.name == BASE_RUN {
        cmd.arg("--metrics-dir").arg(metrics_dir);
        if record_perfetto {
            cmd.arg("--record-perfetto");
        }
    }
    cmd.env("MEMCNN_THREADS", run.threads.to_string());
    if let Some(oracle) = run.oracle {
        let (name, _) = scenario::ORACLES
            .iter()
            .find(|(_, o)| *o == oracle)
            .expect("ORACLES names every oracle");
        cmd.arg("--oracle").arg(name);
    }
    let output = cmd.output().map_err(|e| format!("spawn {}: {e}", agent.display()))?;
    if !output.status.success() {
        let err = String::from_utf8_lossy(&output.stderr);
        return Err(format!("agent exited {}: {}", output.status, err.trim()));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("agent printed no result line")?;
    scenario::parse_agent_line(line)
}
