//! `e2e`: run one workload, or compare whole sets of runs.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! e2e repeat   [--seed <u64>] [--seconds <n>]
//! e2e baseline [--seed <u64>] [--seconds <n>] [--runs <n>] [--rev <git rev>]
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, every metric printed by name with its unit, the result object
//! as the last line. `repeat` and `baseline` run that form as child
//! processes (so `peak_rss_mb` is per workload) and compare or summarise.

use revere_e2e::metrics::{Measure, RunResult, END_TO_END, PER_LAYER};
use revere_e2e::workloads::Scale;
use revere_e2e::{run, Workload};
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 1013;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 24;
/// Set-up runs this many times in an untraced run; the median is reported.
const SETUPS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("repeat") => Options::parse(&args[1..]).and_then(|o| repeat(&o)),
        Some("baseline") => Options::parse(&args[1..]).and_then(|o| baseline(&o)),
        _ => Options::parse(&args).and_then(|o| run_one(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    rev: String,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            runs: 5,
            rev: "unknown".into(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    o.workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => o.seed = number()?,
                "--seconds" => o.seconds = number()?.max(1),
                "--trace" => o.trace = number()? != 0,
                "--runs" => o.runs = number()?.max(1) as usize,
                "--rev" => o.rev = value.clone(),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(o)
    }
}

/// One workload in this process.
fn run_one(o: &Options) -> Result<bool, String> {
    let workload = o
        .workload
        .ok_or("--workload <query_warm|query_churn|update_fanout|ingest_site> is required")?;
    let done = run(
        workload,
        &Scale::full(),
        o.seed,
        Measure::Seconds(o.seconds as f64),
        o.trace,
        SETUPS,
    )?;
    if let Some(trace) = &done.trace {
        // Relative to the checkout root the benchmark is run from.
        let dir = std::path::Path::new("crates/e2e/out");
        let path = dir.join(format!("trace-{}.json", workload.name()));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace.to_json())) {
            Ok(()) => println!("{} spans written to {}", trace.spans.len(), path.display()),
            Err(e) => eprintln!("e2e: could not write {}: {e}", path.display()),
        }
    }
    let r = &done.result;
    println!(
        "workload {} seed {} trace {} ({} latency samples)",
        workload.name(),
        o.seed,
        u8::from(o.trace),
        r.samples
    );
    for m in &r.metrics {
        println!("{:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<48} {:>16.4} (end-to-end times are wall-clock times divided by it)",
        "reference slowdown", r.slowdown
    );
    println!(
        "{:<48} {:>16.6} ratio ({} of {})",
        "failed_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    println!("{}", r.to_json());
    Ok(r.correct)
}

/// Run one workload in a child process and read its result line back.
fn child(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(RunResult::from_json)
        .ok_or_else(|| {
            format!(
                "{} printed no result: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// The full set — every workload, untraced and traced — twice, back to
/// back; fails when a wall-clock end-to-end metric worsens or improves by
/// more than its bound between the sets, when any count differs at all,
/// or when any operation failed.
fn repeat(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<44} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in Workload::ALL {
        for trace in [false, true] {
            let a = child(workload, o.seed, o.seconds, trace)?;
            let b = child(workload, o.seed, o.seconds, trace)?;
            if !(a.correct && b.correct) {
                println!(
                    "{:<14} FAILED: {} + {} operations failed or a check did not hold",
                    workload.name(),
                    a.failed,
                    b.failed
                );
                ok = false;
            }
            for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
                let diff = if ma.value == mb.value {
                    0.0
                } else {
                    (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE)
                };
                // Counts must repeat exactly; per-layer timings have no bound.
                let bound = match (
                    END_TO_END.iter().find(|m| m.name == ma.name),
                    PER_LAYER.iter().find(|m| m.name == ma.name),
                ) {
                    (Some(m), _) => Some(m.bound),
                    (_, Some(m)) if m.exact => Some(0.0),
                    _ => None,
                };
                let verdict = match bound {
                    Some(b) if diff.abs() > b => {
                        ok = false;
                        "EXCEEDED"
                    }
                    _ => "",
                };
                let bound = bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
                println!(
                    "{:<14} {:<44} {:>14.4} {:>14.4} {:>8.2}% {:>7} {verdict}",
                    workload.name(),
                    ma.name,
                    ma.value,
                    mb.value,
                    diff * 100.0,
                    bound
                );
            }
        }
    }
    println!(
        "{}",
        if ok {
            "repeat: the two sets agree"
        } else {
            "repeat: the two sets DISAGREE"
        }
    );
    Ok(ok)
}

/// First, second (median) and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    [1, 2, 3].map(|k| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        values[lo - 1] + (values[hi - 1] - values[lo - 1]) * (pos - pos.floor()).min(1.0)
    })
}

/// `--runs` runs of every workload, untraced and traced, each with its
/// own seed; prints one JSON document: every metric × workload with its
/// unit and quartiles — a point of the `BENCH_<n>.json` trajectory.
fn baseline(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut runs: Vec<RunResult> = Vec::new();
        for seed in o.seed..o.seed + o.runs as u64 {
            // One record per seed: the untraced run's metrics, then the
            // traced run's.
            let mut both = child(workload, seed, o.seconds, false)?;
            let traced = child(workload, seed, o.seconds, true)?;
            eprintln!(
                "{} seed {seed}: correct={}",
                workload.name(),
                both.correct && traced.correct
            );
            ok &= both.correct && traced.correct;
            both.metrics.extend(traced.metrics);
            both.attempted += traced.attempted;
            both.failed += traced.failed;
            runs.push(both);
        }
        let mut metrics = Vec::new();
        for (i, m) in runs[0].metrics.iter().enumerate() {
            let mut values: Vec<f64> = runs.iter().map(|r| r.metrics[i].value).collect();
            let [q1, median, q3] = quartiles(&mut values);
            let kind = if END_TO_END.iter().any(|e| e.name == m.name) {
                "end_to_end"
            } else {
                "per_layer"
            };
            metrics.push(format!(
                "        {{\"name\": \"{}\", \"kind\": \"{kind}\", \"unit\": \"{}\", \"runs\": {}, \"q1\": {q1}, \"median\": {median}, \"q3\": {q3}}}",
                m.name, m.unit, values.len()
            ));
        }
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        workloads.push(format!(
            "    {{\n      \"workload\": \"{}\",\n      \"operations_attempted\": {attempted},\n      \"operations_failed\": {failed},\n      \"metrics\": [\n{}\n      ]\n    }}",
            workload.name(),
            metrics.join(",\n")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\n  \"benchmark\": \"revere-e2e\",\n  \"claim\": null,\n  \"git_rev\": \"{}\",\n  \"nproc\": {nproc},\n  \"first_seed\": {},\n  \"runs_per_workload\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ]\n}}",
        o.rev,
        o.seed,
        o.runs,
        o.seconds,
        workloads.join(",\n")
    );
    Ok(ok)
}
