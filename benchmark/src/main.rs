//! `aelite-benchmark`: one repeatable end-to-end + per-layer benchmark
//! of the admission, fault-recovery and turbo-simulation paths. See
//! `benchmark/README.md`.

mod api;
mod compare;
mod e2e;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use e2e::Rep;
use json::{obj, Value};
use metrics::{END_TO_END, PER_LAYER, SECONDARY};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// Seconds one run measures for unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;
/// Where traces and the per-workload results of a full run go.
const OUT_DIR: &str = "benchmark/out";
const USAGE: &str = "usage:
  aelite-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  aelite-benchmark compare A.json B.json";

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => o.smoke = true,
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The machine and build a result was taken on.
fn environment() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    obj([
        ("available_parallelism", Value::from(parallelism())),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("cpu", cpu.into()),
    ])
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A metric's summary over `values`, with the values themselves in the
/// order measured: every repetition made is reported.
fn summary_json(unit: &str, values: &[f64]) -> (Summary, Value) {
    let s = stats::summarize(values);
    let json = obj([
        ("unit", Value::from(unit)),
        ("median", s.median.into()),
        ("q1", s.q1.into()),
        ("q3", s.q3.into()),
        ("min", s.min.into()),
        ("max", s.max.into()),
        ("n", s.n.into()),
        (
            "values",
            Value::Arr(values.iter().map(|&v| v.into()).collect()),
        ),
    ]);
    (s, json)
}

fn print_summary(name: &str, unit: &str, s: &Summary) {
    println!(
        "  {name:<18} {:>16.4} {unit:<5} (q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4}, n {})",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    );
}

/// One workload, measured or traced; prints every metric and returns
/// the result object.
fn run_workload(w: &Workload, o: &Options) -> Value {
    println!("{}: {}", w.name, w.why);
    let started = Instant::now();
    let budget = Duration::from_secs(o.seconds);
    let mut failures: Vec<String> = Vec::new();
    let mut result = vec![
        ("schema".to_string(), Value::from("aelite-benchmark/1")),
        ("environment".to_string(), environment()),
        ("workload".to_string(), w.name.into()),
        ("seed".to_string(), o.seed.into()),
        ("seconds".to_string(), o.seconds.into()),
        ("smoke".to_string(), o.smoke.into()),
    ];
    let mut line_metrics = Vec::new();
    let attempted;
    let repetitions;

    if o.trace {
        // Rounds of the workload's layer sections until the time is
        // used; the first round's spans are the ones written out.
        let mut rounds: Vec<layers::Round> = Vec::new();
        let mut kept: Option<trace::Tracer> = None;
        loop {
            let round_started = Instant::now();
            let mut tracer = trace::Tracer::new();
            rounds.push(layers::round(w, o.seed, &mut tracer));
            kept.get_or_insert(tracer);
            let next_ends = started.elapsed() + round_started.elapsed();
            if o.smoke || next_ends > budget {
                break;
            }
        }
        let tracer = kept.expect("at least one round ran");
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_jsonl(&path)) {
            Ok(()) => println!("{} spans -> {}", tracer.len(), path.display()),
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }
        for (name, _) in &rounds[0].values {
            if !PER_LAYER.iter().any(|m| m.0 == *name) {
                failures.push(format!("{name} is not in the per-layer table"));
            }
        }
        let mut per_layer = Vec::new();
        for &(name, unit, _) in &PER_LAYER {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            if values.is_empty() {
                // The layer is not on this workload's path: no call, no time.
                line_metrics.push((
                    name.to_string(),
                    obj([("value", 0.0.into()), ("unit", unit.into())]),
                ));
                continue;
            }
            if values.len() != rounds.len() || values.iter().any(|v| !v.is_finite()) {
                failures.push(format!("{name} was not measured in every round"));
                continue;
            }
            let (s, json) = summary_json(unit, &values);
            println!(
                "  {name:<44} {:>16.4} {unit:<6} (min {:.4}, max {:.4}, rounds {})",
                s.median, s.min, s.max, s.n
            );
            if unit == "count" && s.min != s.max {
                failures.push(format!("{name} differs between rounds"));
            }
            per_layer.push((name.to_string(), json));
            line_metrics.push((
                name.to_string(),
                obj([("value", s.median.into()), ("unit", unit.into())]),
            ));
        }
        println!(
            "  {} of {} per-layer rows are on this workload's path; the others read 0",
            per_layer.len(),
            PER_LAYER.len()
        );
        for r in &mut rounds {
            failures.append(&mut r.failures);
        }
        attempted = tracer.len() as u64;
        repetitions = rounds.len();
        result.push(("per_layer".to_string(), Value::Obj(per_layer)));
    } else {
        if w.kind == workloads::Kind::Turbo {
            if let Err(e) = e2e::turbo_golden(o.seed, 2_000) {
                failures.push(e);
            }
        }
        let mut reps: Vec<Rep> = Vec::new();
        loop {
            let rep_started = Instant::now();
            reps.push(e2e::repetition(w, o.seed, reps.is_empty()));
            let enough = reps.len() >= 3;
            let next_ends = started.elapsed() + rep_started.elapsed();
            if enough && (o.smoke || next_ends > budget) {
                break;
            }
        }
        // Outcomes are a function of the seed alone: every repetition
        // must count the same.
        for (i, r) in reps.iter().enumerate() {
            if r.counts != reps[0].counts || r.served != reps[0].served {
                failures.push(format!(
                    "repetition {i} counted differently: {:?} vs {:?}",
                    r.counts, reps[0].counts
                ));
            }
        }
        // Every timing metric is the median over all repetitions.
        let over_reps = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
        let (served, of) = reps[0].served;
        let columns = [
            over_reps(&|r| r.work as f64 / r.window_s),
            vec![served as f64 / of as f64],
            over_reps(&|r| r.setup_s),
            vec![peak_rss_mb()],
        ];
        println!("  throughput_per_s is {}", w.rate);
        let mut end_to_end = Vec::new();
        for (m, values) in END_TO_END.iter().zip(columns) {
            let (s, json) = summary_json(m.unit, &values);
            print_summary(m.name, m.unit, &s);
            if !s.median.is_finite() || s.median <= 0.0 {
                failures.push(format!("{} is not a positive number", m.name));
            }
            end_to_end.push((m.name.to_string(), json));
            line_metrics.push((
                m.name.to_string(),
                obj([("value", s.median.into()), ("unit", m.unit.into())]),
            ));
        }
        let mut secondary = Vec::new();
        for &(name, unit, _) in &SECONDARY {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| {
                    r.secondary
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| *v)
                })
                .collect();
            if values.len() == reps.len() {
                let (s, json) = summary_json(unit, &values);
                print_summary(name, unit, &s);
                secondary.push((name.to_string(), json));
            }
        }
        for (name, v) in &reps[0].counts {
            println!("  {name:<18} {v:>16}");
        }
        for r in &mut reps {
            failures.append(&mut r.failures);
        }
        attempted = reps.iter().map(|r| r.attempted).sum();
        repetitions = reps.len();
        result.push(("end_to_end".to_string(), Value::Obj(end_to_end)));
        result.push(("secondary".to_string(), Value::Obj(secondary)));
        result.push((
            "counts".to_string(),
            obj(reps[0].counts.iter().map(|&(k, v)| (k, Value::from(v)))),
        ));
    }

    failures.sort();
    failures.dedup();
    for f in &failures {
        eprintln!("FAILED CHECK [{}]: {f}", w.name);
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!(
        "{}: {repetitions} {} in {wall_s:.1} s, {}",
        w.name,
        if o.trace {
            "traced round(s)"
        } else {
            "repetitions"
        },
        if failures.is_empty() {
            "outputs correct"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    result.push(("repetitions".to_string(), repetitions.into()));
    result.push(("wall_s".to_string(), wall_s.into()));
    result.push(("correct".to_string(), failures.is_empty().into()));
    result.push(("attempted".to_string(), attempted.max(1).into()));
    result.push(("failed".to_string(), failures.len().into()));
    result.push(("metrics".to_string(), Value::Obj(line_metrics)));
    Value::Obj(result)
}

/// The last line of standard output: exactly these four keys.
fn result_line(result: &Value) -> String {
    obj(["correct", "attempted", "failed", "metrics"]
        .into_iter()
        .map(|k| (k, result.get(k).cloned().unwrap_or(Value::Null))))
    .compact()
}

fn write_out(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// A full run: this executable once per workload (and once more traced
/// with `--trace`), so that `peak_rss_mb` is each workload's own.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged = Vec::new();
    let mut correct = true;
    let mut measured: Vec<String> = Vec::new();
    for w in &WORKLOADS {
        let mut entry: Vec<(String, Value)> = Vec::new();
        for traced in [false, true] {
            if traced && !o.trace {
                continue;
            }
            let part = Path::new(OUT_DIR).join(format!(
                "{}{}.json",
                w.name,
                if traced { ".trace" } else { "" }
            ));
            println!("== {}{}", w.name, if traced { " (traced)" } else { "" });
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if o.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            correct &= status.success();
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let Value::Obj(members) = json::parse(&text)? else {
                return Err(format!("{}: not an object", part.display()));
            };
            if !traced {
                // The run header is written once, at the top of the document.
                const HEADER: [&str; 6] = [
                    "schema",
                    "environment",
                    "seed",
                    "seconds",
                    "smoke",
                    "metrics",
                ];
                entry = members;
                entry.retain(|(k, _)| !HEADER.contains(&k.as_str()));
                continue;
            }
            // The traced run adds its layer rows and folds its time and
            // verdict into the workload's.
            let part = Value::Obj(members);
            if let Some(rows) = part.get("per_layer").and_then(Value::as_obj) {
                measured.extend(rows.iter().map(|(k, _)| k.clone()));
            }
            let number = |v: &Value| v.as_f64().unwrap_or(0.0);
            for (k, old) in &mut entry {
                match (k.as_str(), part.get(k)) {
                    ("wall_s" | "failed", Some(v)) => *old = Value::Num(number(old) + number(v)),
                    ("correct", Some(v)) => {
                        *old = Value::Bool(*old == *v && *v == Value::Bool(true))
                    }
                    _ => {}
                }
            }
            for (from, to) in [("per_layer", "per_layer"), ("repetitions", "traced_rounds")] {
                entry.push((
                    to.to_string(),
                    part.get(from).cloned().unwrap_or(Value::Null),
                ));
            }
        }
        merged.push(Value::Obj(entry));
    }
    // Each per-layer row must be on some workload's path.
    if o.trace {
        for m in PER_LAYER
            .iter()
            .filter(|m| !measured.iter().any(|n| n == m.0))
        {
            eprintln!("FAILED CHECK: no workload measured {}", m.0);
            correct = false;
        }
    }
    let doc = obj([
        ("schema", Value::from("aelite-benchmark/1")),
        ("environment", environment()),
        ("seed", o.seed.into()),
        ("seconds", o.seconds.into()),
        ("workloads", Value::Arr(merged)),
        ("claim", Value::Null),
    ]);
    match (&o.out, o.smoke) {
        // Smoke runs check outputs and schema; their numbers are not kept.
        (Some(path), false) => {
            write_out(path, &doc)?;
            println!("wrote {}", path.display());
        }
        _ => println!("no result file written"),
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|o| {
            let Some(name) = &o.workload else {
                return run_all(&o);
            };
            let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let threads = w.kind.threads();
            if threads > parallelism() {
                return Err(format!(
                    "{name} keeps {threads} threads busy; this host offers {}",
                    parallelism()
                ));
            }
            let w = if o.smoke { w.smoke() } else { *w };
            let result = run_workload(&w, &o);
            if let Some(path) = &o.out {
                write_out(path, &result)?;
            }
            println!("{}", result_line(&result));
            Ok(result.get("correct") == Some(&Value::Bool(true)))
        }),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
