//! `perf` — the repository's benchmark: four workloads through the public
//! engine API, end to end and layer by layer. See `README.md` in the package
//! directory for the metrics and why each workload exists.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run, one process
//! perf run [--all | --workload W]... [--runs N] [--seed N] [--seconds S] [--smoke] [--out F]
//! perf compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: it prints the
//! run's detail as one JSON line and then, as the last line, the result
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes `perf-trace.<workload>.json`). It exits non-zero when a statement
//! failed or returned rows that differ from the interpreter's.

mod compare;
mod harness;
mod json;
mod layers;
mod pairs;
mod spec;
mod stats;
mod trace;
mod window;
mod workload;

use std::process::{Command, ExitCode};

use json::Json;
use spec::{Metric, Spec};

/// The seed used when none is given. `perf run --runs N` uses this and the
/// `N - 1` seeds after it.
const DEFAULT_SEED: u64 = 1;
/// `--smoke`: seconds per run, enough to pass through every phase.
const SMOKE_SECONDS: f64 = 0.4;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<String>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{arg}: bad number {v}"))
        };
        match arg.as_str() {
            "--workload" => a.workloads.push(value("a workload name")?),
            "--all" => a.workloads.clear(),
            "--seed" => a.seed = number(value("a number")?)? as u64,
            "--seconds" => a.seconds = Some(number(value("a number")?)?),
            "--trace" => a.trace = number(value("0 or 1")?)? != 0.0,
            "--runs" => a.runs = (number(value("a number")?)? as usize).max(1),
            "--out" => a.out = Some(value("a path")?),
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

fn exit_code(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process: the driver's contract.
fn run_here(spec: &Spec, a: &Args) -> Result<ExitCode, String> {
    let [name] = a.workloads.as_slice() else {
        return Err("give exactly one --workload".into());
    };
    if !spec.workloads.iter().any(|(w, _)| w == name) {
        return Err(format!("unknown workload {name}"));
    }
    let (sizes, default_seconds) = if a.smoke {
        (workload::SMOKE, SMOKE_SECONDS)
    } else {
        (workload::FULL, spec.run_seconds)
    };
    let seconds = a.seconds.unwrap_or(default_seconds);
    let (outcome, declared) = if a.trace {
        (
            harness::per_layer(name, a.seed, seconds, sizes),
            &spec.per_layer,
        )
    } else {
        (
            harness::end_to_end(name, a.seed, seconds, sizes),
            &spec.end_to_end,
        )
    };
    if let Some(spans) = &outcome.spans {
        let path = format!("perf-trace.{name}.json");
        std::fs::write(&path, format!("{spans}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.detail);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.failed == 0)),
            ("attempted", Json::num(outcome.attempted as f64)),
            ("failed", Json::num(outcome.failed as f64)),
            ("metrics", Spec::render(declared, &outcome.metrics)),
        ])
    );
    Ok(exit_code(outcome.failed == 0))
}

/// Run one workload in a child process (so `peak_rss_mb` is that
/// workload's alone) and return its detail and result lines.
fn run_child(a: &Args, workload: &str, seed: u64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut line = |what: &str| {
        lines
            .next()
            .ok_or_else(|| format!("{workload}: no {what} line (exit {})", out.status))
            .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: {what} line: {e}")))
    };
    let result = line("result")?;
    let detail = line("detail")?;
    Ok((detail, result))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn env_json() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // The last cache index is the last-level cache.
    let llc = (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    Json::obj([
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("threads", Json::num(workload::threads() as f64)),
        ("cpu_model", Json::str(cpu)),
        ("llc_size", Json::str(llc)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// `{name: value}` from a result line's `metrics` object.
fn metric_values(result: &Json) -> Json {
    Json::Obj(
        result
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.clone())))
            .collect(),
    )
}

/// `perf run`: every metric of every chosen workload, by name with its
/// unit, as median and quartiles over `--runs` whole-workload runs.
fn run_many(spec: &Spec, a: &Args) -> Result<ExitCode, String> {
    let chosen: Vec<&(String, String)> = spec
        .workloads
        .iter()
        .filter(|(w, _)| a.workloads.is_empty() || a.workloads.contains(w))
        .collect();
    if chosen.is_empty() {
        return Err("no such workload".into());
    }
    let mut clean = true;
    let mut records = Vec::new();
    println!(
        "{:<15} {:<46} {:<6} {:>14} {:>14} {:>14}",
        "workload", "metric", "unit", "median", "q1", "q3"
    );
    for (name, why) in chosen {
        let mut runs = Vec::new();
        for i in 0..a.runs {
            let seed = a.seed + i as u64;
            let (detail, e2e) = run_child(a, name, seed, false)?;
            let (traced_detail, layers) = run_child(a, name, seed, true)?;
            let count = |key: &str| -> f64 {
                [&e2e, &layers]
                    .iter()
                    .filter_map(|r| r.get(key)?.as_f64())
                    .sum()
            };
            clean &= count("failed") == 0.0;
            runs.push(Json::obj([
                ("seed", Json::num(seed as f64)),
                ("attempted", Json::num(count("attempted"))),
                ("failed", Json::num(count("failed"))),
                ("end_to_end", metric_values(&e2e)),
                ("per_layer", metric_values(&layers)),
                ("detail", detail),
                ("traced_detail", traced_detail),
            ]));
        }
        let mut summary = Vec::new();
        for (section, declared) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            for Metric {
                name: metric, unit, ..
            } in declared
            {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.get(section)?.get(metric)?.as_f64())
                    .collect();
                let [q1, med, q3] = stats::quartiles(&values);
                println!("{name:<15} {metric:<46} {unit:<6} {med:>14.5} {q1:>14.5} {q3:>14.5}");
                summary.push((
                    metric.clone(),
                    Json::obj([
                        ("unit", Json::str(unit)),
                        ("median", Json::num(med)),
                        ("q1", Json::num(q1)),
                        ("q3", Json::num(q3)),
                    ]),
                ));
            }
        }
        records.push(Json::obj([
            ("name", Json::str(name)),
            ("why", Json::str(why)),
            ("runs", Json::Arr(runs)),
            ("summary", Json::Obj(summary)),
        ]));
    }
    if let Some(path) = &a.out {
        let record = Json::obj([
            ("schema", Json::num(1.0)),
            ("env", env_json()),
            ("workloads", Json::Arr(records)),
            // The benchmark measures; a claim belongs to the change that
            // makes one.
            ("claim", Json::Null),
        ]);
        std::fs::write(path, format!("{record}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(exit_code(clean))
}

fn compare_files(spec: &Spec, a: &Args) -> Result<ExitCode, String> {
    let [left, right] = a.files.as_slice() else {
        return Err("compare needs two record files".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(exit_code(compare::compare(
        spec,
        &read(left)?,
        &read(right)?,
    )))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare")) => (c, &args[1..]),
        _ => ("", &args[..]),
    };
    let outcome = parse_args(rest).and_then(|a| match command {
        "run" => run_many(&spec, &a),
        "compare" => compare_files(&spec, &a),
        _ => run_here(&spec, &a),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("perf: {e}; see the module docs for usage");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, at smoke size, prints exactly the metrics
    /// `BENCHMARK.json` declares (`Spec::render` panics otherwise), every
    /// statement checks out, and every declared name is well-formed.
    #[test]
    fn smoke_prints_the_declared_metrics() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 4);
        for (name, _) in &spec.workloads {
            let e2e = harness::end_to_end(name, DEFAULT_SEED, SMOKE_SECONDS, workload::SMOKE);
            let layers = harness::per_layer(name, DEFAULT_SEED, SMOKE_SECONDS, workload::SMOKE);
            assert_eq!((e2e.failed, layers.failed), (0, 0), "{name}");
            Spec::render(&spec.end_to_end, &e2e.metrics);
            Spec::render(&spec.per_layer, &layers.metrics);
        }
        let names = spec.workloads.iter().map(|(w, _)| w).chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| &m.name),
        );
        for name in names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {name}"
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}: unit", m.name);
        }
        // The driver refuses a bound above a quarter, and wants set-up time
        // declared, with the widest bound of all.
        let bound = |m: &Metric| m.bound.expect("end-to-end metrics have a bound");
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| bound(m) > 0.0 && bound(m) <= 0.25));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert!(spec.end_to_end.iter().all(|m| bound(m) <= bound(setup)));
    }
}
