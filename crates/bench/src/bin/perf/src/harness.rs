//! One run of one workload: set-up, warm-up, the measured window, and either
//! the end-to-end metrics (tracing off) or the per-layer metrics (the
//! traced pass and the direct layer probes).

use std::sync::Arc;
use std::time::Instant;

use swole::cost::choose::choose_agg;
use swole::cost::AggProfile;
use swole::plan::parse_sql;
use swole::plan::physical::PhysicalPlan;
use swole::prelude::*;

use crate::json::Json;
use crate::stats::{geomean, median, quantile, time_ns};
use crate::trace::{self, OP_KINDS};
use crate::window::{self, Paired, Window};
use crate::workload::{self, Data, Micro, Sizes, Text, Workload};
use crate::{layers, stats};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up: full statement cycles before anything is timed.
const WARMUP_CYCLES: usize = 2;
/// Timed calls of each small engine probe.
const PROBE_REPS: usize = 31;
/// Shares of `--seconds` the traced run gives its phases: the workload's
/// own window, the traced pass, the windows of one and of T sessions on
/// the pooled engine, and the pre-planned execution loops on the
/// one-thread and on the pooled engine. The fixed-count probes come on top.
const SHARE_WINDOW: f64 = 0.4;
const SHARE_TRACED: f64 = 0.15;
const SHARE_ALONE: f64 = 0.1;
const SHARE_CROWD: f64 = 0.15;
const SHARE_EXECUTE: f64 = 0.1;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; rendered against the declaration by `Spec::render`.
    pub metrics: Vec<(String, f64)>,
    /// Everything else worth keeping from the run (the `statements` array,
    /// sample counts, sizes).
    pub detail: Json,
    /// Spans of the traced pass, for `perf-trace.<workload>.json`.
    pub spans: Option<Json>,
}

fn setup(name: &str, seed: u64, sizes: Sizes) -> (Workload, Window) {
    let w = Workload::build(name, seed, sizes);
    let warm = window::run_cycles(&w, &w.engine, WARMUP_CYCLES);
    (w, warm)
}

/// Per-class rows of the `statements` array common to both kinds of run:
/// sample count, median and p90 of `query_sql`, and for a class with paired
/// texts the geometric means over them of `Paired`'s three numbers.
fn statement_rows(w: &Workload, win: &Window) -> Vec<Vec<(&'static str, Json)>> {
    let (class_ms, paired) = (win.class_ms(w), win.paired(w));
    w.classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let of_class = |f: fn(&Paired) -> f64| {
                let values: Vec<f64> = paired.iter().filter(|p| p.class == i).map(f).collect();
                if values.is_empty() {
                    Json::Null
                } else {
                    Json::num(geomean(&values))
                }
            };
            vec![
                ("name", Json::str(&c.name)),
                ("samples", Json::num(class_ms[i].len() as f64)),
                ("engine_p50_ms", Json::num(median(&class_ms[i]))),
                ("engine_p90_ms", Json::num(quantile(&class_ms[i], 0.9))),
                ("paired_engine_p50_ms", of_class(|p| p.engine_ms)),
                ("handcoded_p50_ms", of_class(|p| p.handcoded_ms)),
                ("engine_over_handcoded", of_class(|p| p.ratio)),
                ("plan", Json::str(&c.shape)),
            ]
        })
        .collect()
}

/// Geometric mean over the paired texts of engine over hand-coded time.
fn engine_over_handcoded(paired: &[Paired]) -> f64 {
    geomean(&paired.iter().map(|p| p.ratio).collect::<Vec<_>>())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

fn common_detail(w: &Workload, seconds: f64) -> Vec<(String, Json)> {
    let s = w.sizes;
    vec![
        ("workload".into(), Json::str(&w.name)),
        ("seed".into(), Json::num(w.seed as f64)),
        ("seconds".into(), Json::num(seconds)),
        (
            "sizes".into(),
            Json::obj([
                ("scan_r", Json::num(s.scan_r as f64)),
                ("scan_s", Json::num(s.scan_s as f64)),
                ("hash_r", Json::num(s.hash_r as f64)),
                ("hash_s", Json::num(s.hash_s as f64)),
                ("tpch_sf", Json::num(s.tpch_sf)),
                ("mixed_r", Json::num(s.mixed_r as f64)),
                ("mixed_s", Json::num(s.mixed_s as f64)),
            ]),
        ),
    ]
}

/// Tracing off: the metrics a user of the engine would see.
pub fn end_to_end(name: &str, seed: u64, seconds: f64, sizes: Sizes) -> Outcome {
    let timed_setup = || {
        let t0 = Instant::now();
        let (w, warm) = setup(name, seed, sizes);
        (t0.elapsed().as_secs_f64(), w, warm)
    };
    let (first_setup, w, warm) = timed_setup();
    let win = window::run(&w, &w.engine, 1, true, seconds);
    // Read before the repeat set-ups: how much of a dropped set-up's memory
    // the allocator reuses for the next differs from seed to seed, and
    // would give the peak three values.
    let peak_rss = peak_rss_mib();
    let ratio = engine_over_handcoded(&win.paired(&w));
    let mut detail = common_detail(&w, seconds);
    detail.extend([
        (
            "samples_min".to_string(),
            Json::num(win.samples_min(&w) as f64),
        ),
        // The traced run reports these two as metrics, from its shorter
        // window; here they are kept from the full one.
        (
            "stmt_geomean_ms".to_string(),
            Json::num(geomean(&win.quantiles_ms(&w, 0.5))),
        ),
        ("queries_per_s".to_string(), Json::num(win.queries_per_s())),
        (
            "statements".to_string(),
            Json::Arr(
                statement_rows(&w, &win)
                    .into_iter()
                    .map(Json::obj)
                    .collect(),
            ),
        ),
    ]);
    drop(w);

    let (mut attempted, mut failed) = (warm.attempted + win.attempted, warm.failed + win.failed);
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        let (setup_seconds, _, warm) = timed_setup();
        setups.push(setup_seconds);
        attempted += warm.attempted;
        failed += warm.failed;
    }
    detail.push((
        "setup_s_each".to_string(),
        Json::Arr(setups.iter().map(|&s| Json::num(s)).collect()),
    ));
    let metrics = vec![
        ("setup_s".to_string(), median(&setups)),
        ("engine_over_handcoded".to_string(), ratio),
        ("peak_rss_mb".to_string(), peak_rss),
    ];
    Outcome {
        attempted,
        failed,
        metrics,
        detail: Json::Obj(detail),
        spans: None,
    }
}

/// Median `Engine::execute` time in ms of each class's first text,
/// pre-planned on `engine`, cycling for `seconds` (at least five cycles).
/// Wrong results are counted into `failed`.
fn execute_loop(w: &Workload, engine: &Engine, seconds: f64, failed: &mut u64) -> Vec<f64> {
    let plans: Vec<(&Text, PhysicalPlan)> = w
        .first_texts()
        .map(|text| {
            let logical = parse_sql(&text.sql).expect("workload SQL parses").plan;
            (text, engine.plan(&logical).expect("workload SQL plans"))
        })
        .collect();
    let mut ms = vec![Vec::new(); plans.len()];
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < 5 || started.elapsed().as_secs_f64() < seconds {
        for (i, (text, plan)) in plans.iter().enumerate() {
            let t0 = Instant::now();
            let result = engine.execute(plan);
            ms[i].push(t0.elapsed().as_nanos() as f64 / 1e6);
            if result.as_ref() != Ok(&text.reference) {
                *failed += 1;
                eprintln!("perf: wrong pre-planned result: {}", text.sql);
            }
        }
        cycles += 1;
    }
    ms.iter().map(|s| median(s)).collect()
}

/// Median µs of a public call on each class's first text, in a warm loop.
fn call_medians_us<R>(w: &Workload, mut call: impl FnMut(&str) -> R) -> Vec<f64> {
    w.first_texts()
        .map(|text| time_ns(PROBE_REPS, || (), |()| call(&text.sql)) / 1e3)
        .collect()
}

/// Median µs of `query_sql` on the one-morsel statement, and of what it
/// takes beyond `parse_sql` plus the pre-planned `execute` run right after.
fn one_morsel(engine: &Engine, failed: &mut u64) -> (f64, f64) {
    let sql = "select sum(v) as s from probe1";
    let logical = parse_sql(sql).expect("probe statement parses").plan;
    let plan = engine.plan(&logical).expect("probe statement plans");
    let session = engine.session();
    let (mut query_us, mut around_us) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS * 8 {
        let t0 = Instant::now();
        let result = session.query_sql(sql, &Params::new());
        let query = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let parsed = parse_sql(sql);
        let executed = engine.execute(&plan);
        let inner = t0.elapsed().as_nanos() as f64;
        *failed += u64::from(result.is_err() || parsed.is_err() || result != executed);
        query_us.push(query / 1e3);
        around_us.push((query - inner) / 1e3);
    }
    (median(&query_us), median(&around_us))
}

/// Mean over statements of `a − b`.
fn mean_difference(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a - b).sum::<f64>() / a.len() as f64
}

fn ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a / b).collect()
}

/// Tracing on: the per-layer metrics.
pub fn per_layer(name: &str, seed: u64, seconds: f64, sizes: Sizes) -> Outcome {
    let (w, warm) = setup(name, seed, sizes);
    let scratch = workload::scratch_engine(&w.data);
    // Whichever of the one-thread and the pooled engine does not serve the
    // workload is built beside the one that does.
    let other = if w.pooled {
        workload::single_engine(&w.data)
    } else {
        workload::pooled_engine(&w.data)
    };
    let (single, pooled) = if w.pooled {
        (&other, &w.engine)
    } else {
        (&w.engine, &other)
    };
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    // The workload as it runs untraced; then on the pooled engine, first
    // from one session (which also warms its plan cache), then from T.
    let own = window::run(&w, &w.engine, 1, true, seconds * SHARE_WINDOW);
    let alone = window::run(&w, pooled, 1, false, seconds * SHARE_ALONE);
    let crowd = window::run(
        &w,
        pooled,
        workload::threads(),
        false,
        seconds * SHARE_CROWD,
    );
    for win in [&own, &alone, &crowd] {
        attempted += win.attempted;
        failed += win.failed;
    }
    // Per statement, not per lookup: `query_sql` looks a plan up when it
    // prepares and again when it executes, so a miss is followed by a hit.
    put(
        "plan.cache.hit_ratio",
        1.0 - own.cache.misses as f64 / own.completed().max(1) as f64,
    );
    put("plan.cache.evictions", own.cache.evictions as f64);
    put("plan.cache.invalidations", own.cache.invalidations as f64);
    put(
        "runtime.admission.refused",
        (own.refused + alone.refused + crowd.refused) as f64,
    );
    let own_ms = own.quantiles_ms(&w, 0.5);
    let (alone_ms, crowd_ms) = (alone.quantiles_ms(&w, 0.5), crowd.quantiles_ms(&w, 0.5));
    // The three the end-to-end set could not keep (see the README): too
    // unsteady on a shared host for any bound worth declaring.
    put("stmt_geomean_ms", geomean(&own_ms));
    put("stmt_p90_ms", geomean(&own.quantiles_ms(&w, 0.9)));
    put("queries_per_s", own.queries_per_s());
    put(
        "handcoded.geomean_ms",
        geomean(
            &own.paired(&w)
                .iter()
                .map(|p| p.handcoded_ms)
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "runtime.admission.wait_us",
        mean_difference(&crowd_ms, &alone_ms) * 1e3,
    );
    let crowd_all_ms: Vec<f64> = crowd
        .samples
        .iter()
        .flat_map(|s| stats::ns_to_ms(s))
        .collect();
    put("runtime.pool.p99_ms", quantile(&crowd_all_ms, 0.99));

    // The traced pass: spans, operator walls and access counts.
    let (tracer, seen) = trace::pass(&w, seconds * SHARE_TRACED);
    attempted += seen.attempted;
    failed += seen.failed;
    let stmt_us: Vec<f64> = (0..w.classes.len())
        .map(|c| median(&tracer.durations_us(c, "stmt")))
        .collect();
    put(
        "tracing_overhead",
        geomean(&ratios(&stmt_us, &own_ms)) / 1e3,
    );
    let rows_in = seen.rows_in.max(1) as f64;
    put(
        "plan.exec.wasted_lane_share",
        seen.wasted_lanes as f64 / rows_in,
    );
    put(
        "plan.exec.ht_probes_per_row",
        seen.ht_probes as f64 / rows_in,
    );
    put(
        "plan.exec.predicate_evals_per_row",
        seen.predicate_evals as f64 / rows_in,
    );
    let execute_ns = seen.execute_ns.max(1) as f64;
    for (kind, ns) in OP_KINDS.iter().zip(seen.op_ns) {
        put(
            &format!("plan.exec.op_wall_share.{kind}"),
            ns as f64 / execute_ns,
        );
    }
    put(
        "plan.exec.op_wall_share.other",
        1.0 - seen.op_ns.iter().sum::<u64>() as f64 / execute_ns,
    );
    put("runtime.gauge.bytes_charged", median(&seen.bytes_charged));
    put(
        "verify.bounds.tightness",
        if seen.tightness.is_empty() {
            // No statement of the workload charged its gauge: the bound
            // has nothing to be loose against.
            1.0
        } else {
            geomean(&seen.tightness)
        },
    );

    // The cold path's public calls, each in a warm loop of its own.
    let parse = call_medians_us(&w, parse_sql);
    let logical = |sql: &str| parse_sql(sql).expect("workload SQL parses").plan;
    let plan = call_medians_us(&w, |sql| w.engine.plan(&logical(sql)));
    let verify = call_medians_us(&w, |sql| w.engine.verify_plan(&logical(sql)));
    let certify = call_medians_us(&w, |sql| w.engine.certificate(&logical(sql)));
    put("plan.sql.parse_us", geomean(&parse));
    // The three calls above parse, and the last two plan, before their own
    // work: each layer's cost is what it adds to the one before.
    put("plan.planner.plan_us", mean_difference(&plan, &parse));
    put("verify.passes.full_us", mean_difference(&verify, &plan));
    put("verify.bounds.certify_us", mean_difference(&certify, &plan));
    // `prepare_sql` parses and looks the plan up; without a plan cache it
    // also plans, certifies and inserts, which is what a miss adds.
    let session = w.engine.session();
    let scratch_session = scratch.session();
    let prepare_warm = call_medians_us(&w, |sql| session.prepare_sql(sql).is_ok());
    let prepare_cold = call_medians_us(&w, |sql| scratch_session.prepare_sql(sql).is_ok());
    put(
        "plan.session.cold_stmt_us",
        mean_difference(&prepare_cold, &prepare_warm),
    );

    // Pre-planned execution on one thread and through the pool.
    let exec_single = execute_loop(&w, single, seconds * SHARE_EXECUTE, &mut failed);
    let exec_pooled = execute_loop(&w, pooled, seconds * SHARE_EXECUTE, &mut failed);
    let exec = if w.pooled { &exec_pooled } else { &exec_single };
    let ns_row: Vec<f64> = exec
        .iter()
        .zip(&w.classes)
        .map(|(ms, c)| ms * 1e6 / c.base_rows as f64)
        .collect();
    put("plan.exec.execute_ms", geomean(exec));
    put("plan.exec.ns_row", geomean(&ns_row));
    put(
        "runtime.pool.speedup_t",
        geomean(&ratios(&exec_single, &exec_pooled)),
    );

    // The one-morsel statement: all of it is dispatch, merge and session
    // work. Through the pool it is the floor of any pooled statement; on
    // the served engine, taking `query_sql`, `parse_sql` and the
    // pre-planned `execute` back to back leaves what the session adds
    // around the two: prepare, fingerprint, cache and certificate lookup,
    // admission, result assembly. (On the workload's own statements that
    // difference drowns in the run-to-run noise of their execution.)
    let (_, around_us) = one_morsel(&w.engine, &mut failed);
    let (query_us, _) = one_morsel(pooled, &mut failed);
    put("plan.session.overhead_us", around_us);
    put("runtime.pool.min_query_us", query_us);

    // Small fixed-count probes.
    let profile = AggProfile {
        rows: w.classes[0].base_rows,
        selectivity: 0.5,
        comp: 1.5,
        n_cols: 3,
        group_keys: Some(workload::C_CARDINALITY),
        n_aggs: 1,
    };
    put(
        "cost.choose_us",
        time_ns(
            PROBE_REPS * 8,
            || (),
            |()| choose_agg(&CostParams::default(), &profile),
        ) / 1e3,
    );
    let [child, fk, parent] = w.data.dimension().1;
    put(
        "storage.table.load_ms",
        time_ns(
            PROBE_REPS,
            || w.data.dimension().0,
            |table| scratch.load_table(table),
        ) / 1e6,
    );
    put(
        "storage.fk_index.build_ms",
        time_ns(
            PROBE_REPS,
            || scratch.load_table(w.data.dimension().0),
            |_| scratch.register_fk(child, fk, parent),
        ) / 1e6,
    );
    // Direct calls into kernels, ht and bitmap, on the workload's own micro
    // columns. `tpch_sql` has none (its column types differ): there the
    // probes run on a micro table of `sessions_mixed`'s size, cheap to make,
    // and give the layers' cache-resident speed on this machine.
    let micro = match &w.data {
        Data::Micro(micro) => Arc::clone(micro),
        Data::Tpch(_) => Arc::new(Micro::generate(sizes.mixed_r, sizes.mixed_s, seed)),
    };
    m.extend(layers::probe(&micro));

    let statements = statement_rows(&w, &own)
        .into_iter()
        .enumerate()
        .map(|(i, mut row)| {
            row.extend([
                ("pooled_one_session_p50_ms", Json::num(alone_ms[i])),
                ("pooled_t_sessions_p50_ms", Json::num(crowd_ms[i])),
                ("parse_us", Json::num(parse[i])),
                ("parse_plan_us", Json::num(plan[i])),
                ("parse_plan_verify_us", Json::num(verify[i])),
                ("parse_plan_certify_us", Json::num(certify[i])),
                ("prepare_cold_us", Json::num(prepare_cold[i])),
                ("prepare_warm_us", Json::num(prepare_warm[i])),
                ("traced_stmt_us", Json::num(stmt_us[i])),
                ("execute_one_thread_ms", Json::num(exec_single[i])),
                ("execute_pooled_ms", Json::num(exec_pooled[i])),
                ("execute_ns_row", Json::num(ns_row[i])),
            ]);
            Json::obj(row)
        })
        .collect();
    let mut detail = common_detail(&w, seconds);
    detail.extend([
        (
            "samples_min".to_string(),
            Json::num(own.samples_min(&w) as f64),
        ),
        (
            "traced_statements".to_string(),
            Json::num(seen.attempted as f64),
        ),
        ("statements".to_string(), Json::Arr(statements)),
    ]);
    Outcome {
        attempted,
        failed,
        metrics: m,
        detail: Json::Obj(detail),
        spans: Some(tracer.to_json(&w)),
    }
}
