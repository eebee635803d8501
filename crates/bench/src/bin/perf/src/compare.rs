//! `perf compare A.json B.json`: judge two records written by `perf run`
//! metric by metric against the declared bounds.

use crate::json::Json;
use crate::spec::{Metric, Spec};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the baseline `a` for one metric.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = metric.bound.expect("end-to-end metrics have a bound");
    let ([a1, am, a3], [b1, bm, b3]) = (quartiles(a), quartiles(b));
    // Positive when B is worse than A, as a share of A's median.
    let worse = if metric.lower_is_better {
        (bm - am) / am
    } else {
        (am - bm) / am
    };
    let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn runs<'a>(record: &'a Json, workload: &str) -> &'a [Json] {
    record
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .and_then(|w| w.get("runs"))
        .map(Json::as_arr)
        .unwrap_or_default()
}

/// What two sets of runs must share to be comparable: the seeds, the
/// measured seconds and the table sizes (which also tell a `--smoke` run
/// from a full one), one entry per run, sorted.
fn settings(runs: &[Json]) -> Vec<String> {
    let mut all: Vec<String> = runs
        .iter()
        .map(|r| {
            let detail = |key| r.get("detail").and_then(|d| d.get(key)).cloned();
            Json::obj([
                ("seed", r.get("seed").cloned().unwrap_or(Json::Null)),
                ("seconds", detail("seconds").unwrap_or(Json::Null)),
                ("sizes", detail("sizes").unwrap_or(Json::Null)),
            ])
            .to_string()
        })
        .collect();
    all.sort();
    all
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

fn failed_share(runs: &[Json]) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Print the comparison; `true` when every declared workload and metric is
/// in both records, the two were run with the same settings, and nothing
/// regressed.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> bool {
    let mut clean = true;
    println!(
        "{:<15} {:<22} {:>10} {:>21} {:>10} {:>21} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse",
        "bound"
    );
    for (workload, _) in &spec.workloads {
        let (ra, rb) = (runs(a, workload), runs(b, workload));
        if ra.is_empty() || rb.is_empty() {
            println!("{workload:<15} missing from one record");
            clean = false;
            continue;
        }
        if settings(ra) != settings(rb) {
            println!("{workload:<15} not comparable: seeds, seconds or sizes differ");
            clean = false;
            continue;
        }
        for metric in &spec.end_to_end {
            let (va, vb) = (values(ra, &metric.name), values(rb, &metric.name));
            if va.len() != ra.len() || vb.len() != rb.len() {
                println!("{workload:<15} {:<22} missing from one record", metric.name);
                clean = false;
                continue;
            }
            let (verdict, worse) = judge(metric, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            let ([a1, am, a3], [b1, bm, b3]) = (quartiles(&va), quartiles(&vb));
            println!(
                "{workload:<15} {:<22} {am:>10.4} {:>21} {bm:>10.4} {:>21} {:>+7.2}% {:>5.0}%  {}",
                metric.name,
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                worse * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        let verdict = if fb > fa { "regressed" } else { "ok" };
        clean &= fb <= fa;
        println!(
            "{workload:<15} {:<22} {fa:>10.6} {:>21} {fb:>10.6} {:>21} {:>8} {:>6}  {verdict}",
            "failed_share", "", "", "", "0"
        );
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: Some(0.1),
        }
    }

    fn record(workloads: &[&str], seed: f64, seconds: f64, value: Option<f64>) -> Json {
        let spec = Spec::load();
        let metrics = Json::obj(
            spec.end_to_end
                .iter()
                .filter_map(|m| Some((m.name.clone(), Json::num(value?)))),
        );
        let run = Json::obj([
            ("seed", Json::num(seed)),
            ("attempted", Json::num(10.0)),
            ("failed", Json::num(0.0)),
            ("end_to_end", metrics),
            ("detail", Json::obj([("seconds", Json::num(seconds))])),
        ]);
        Json::obj([(
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(*w)),
                            ("runs", Json::Arr(vec![run.clone()])),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn partial_or_differently_run_records_fail() {
        let spec = Spec::load();
        let names: Vec<&str> = spec.workloads.iter().map(|(w, _)| w.as_str()).collect();
        let full = record(&names, 1.0, 20.0, Some(5.0));
        assert!(compare(&spec, &full, &full));
        // A workload missing, a metric missing, another seed, other seconds.
        assert!(!compare(
            &spec,
            &full,
            &record(&names[1..], 1.0, 20.0, Some(5.0))
        ));
        assert!(!compare(&spec, &full, &record(&names, 1.0, 20.0, None)));
        assert!(!compare(
            &spec,
            &full,
            &record(&names, 2.0, 20.0, Some(5.0))
        ));
        assert!(!compare(&spec, &full, &record(&names, 1.0, 0.4, Some(5.0))));
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        assert_eq!(judge(&metric(true), &base, &base).0, Verdict::Ok);
        assert_eq!(judge(&metric(true), &base, &slower).0, Verdict::Regressed);
        assert_eq!(judge(&metric(false), &base, &slower).0, Verdict::Ok);
        assert_eq!(judge(&metric(false), &slower, &base).0, Verdict::Regressed);
        assert_eq!(judge(&metric(true), &base, &noisy).0, Verdict::Unresolved);
    }
}
