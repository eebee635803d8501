//! Regenerate every table/figure of the paper's evaluation as CSV.
//!
//! ```text
//! cargo run --release -p swole-bench --bin figures -- --all
//! cargo run --release -p swole-bench --bin figures -- --fig 8a --fig 9c
//! cargo run --release -p swole-bench --bin figures -- --fig 6 --runs 5
//! ```
//!
//! Output: `figure,series,x,runtime_ms` rows on stdout (progress on
//! stderr). `x` is the selectivity (%) for the microbenchmarks, the query
//! name for Fig. 6, the group count for the `4g` sweep, `<G>@<σ>` for the
//! `4r` regret grid (whose `regret:…` rows hold a ratio, not ms) and σ (%)
//! for the `4s` density sweep (whose `…/…` row is a ratio). Scale via
//! `SWOLE_R_ROWS` / `SWOLE_S_SMALL` / `SWOLE_S_LARGE` / `SWOLE_SF` (see
//! `swole-bench` docs).

use swole_bench::{median_ms, r_rows, s_large, s_small, tpch_sf};
use swole_cost::{AggStrategy, BitmapBuild, CostParams};
use swole_ht::{AggTable, GroupTable, MergeOp};
use swole_kernels::agg::{self, Div, Mul};
use swole_kernels::groupby::{self, Folds, Fused, Lanes};
use swole_kernels::{predicate, selvec, tiles, TILE};
use swole_micro::{generate, q1, q2, q3, q4, q5, MicroParams, RTable};
use swole_plan::{AggSpec, CmpOp, Database, Engine, Expr, QueryBuilder, StrategyOverrides};
use swole_storage::{ColumnData, Table};
use swole_tpch::queries as tq;

struct Opts {
    figs: Vec<String>,
    points: usize,
    runs: usize,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        figs: Vec::new(),
        points: 11,
        runs: 3,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fig" => opts
                .figs
                .push(args.next().expect("--fig needs a value").to_lowercase()),
            "--all" => opts.figs.push("all".into()),
            "--points" => {
                opts.points = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--points needs a number")
            }
            "--runs" => {
                opts.runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--runs needs a number")
            }
            other => {
                eprintln!("unknown argument {other}; see module docs");
                std::process::exit(2);
            }
        }
    }
    if opts.figs.is_empty() {
        opts.figs.push("all".into());
    }
    opts
}

fn wanted(opts: &Opts, id: &str) -> bool {
    opts.figs.iter().any(|f| f == "all" || f == id)
}

fn selectivities(points: usize) -> Vec<i8> {
    // 1..=99 inclusive sweep plus the endpoints the paper plots.
    let points = points.max(2);
    (0..points)
        .map(|i| (1 + i * 98 / (points - 1)) as i8)
        .collect()
}

fn emit(fig: &str, series: &str, x: &str, ms: f64) {
    println!("{fig},{series},{x},{ms:.3}");
}

fn micro_db(s_rows: usize, card: usize) -> swole_micro::MicroDb {
    generate(MicroParams {
        r_rows: r_rows(),
        s_rows,
        r_c_cardinality: card,
        seed: 0xF1605,
    })
}

/// The selectivity the group-count sweep holds fixed.
const SWEEP_SEL: i8 = 50;

/// The hand-coded side of the `4g` sweep: the paper's grouped loops over an
/// `N`-aggregate list — predicate prepass, then the strategy's instance of
/// the upsert family into an `AggTable`, as a pipeline written by hand (no
/// certificate, no catalog) runs them. Sorted rows.
fn groupby_handcoded<const N: usize>(
    strategy: AggStrategy,
    r: &RTable,
    inputs: [&[i32]; N],
    card: usize,
) -> Vec<Vec<i64>> {
    let mut ht = AggTable::with_capacity(N, card);
    let (mut cmp, mut idx, mut keys) = ([0u8; TILE], [0u32; TILE], [0i64; TILE]);
    for (s, l) in tiles(r.len()) {
        predicate::cmp_lt(&r.x[s..s + l], SWEEP_SEL, &mut cmp[..l]);
        let (c, ins) = (&r.c[s..s + l], inputs.map(|v| &v[s..s + l]));
        match strategy {
            AggStrategy::Hybrid => {
                let k = selvec::fill_nobranch(&cmp[..l], 0, &mut idx[..l]);
                groupby::upsert(c, Lanes::Selected(&idx[..k]), &ins, 0, &mut ht);
            }
            AggStrategy::ValueMasking => {
                groupby::upsert(c, Lanes::Masked(&cmp[..l]), &ins, 0, &mut ht);
            }
            AggStrategy::KeyMasking => {
                groupby::mask_keys(c, &cmp[..l], &mut keys[..l]);
                groupby::upsert(&keys[..l], Lanes::Every, &ins, 0, &mut ht);
            }
        }
    }
    sorted_rows(&ht)
}

/// The hand-coded side of the `4g` sweep's `min` / `max` series:
/// `min(a), max(b), sum(a), count(*)` through the hybrid gather of the
/// family's folding instance, over whole `i64` columns by global row id.
fn minmax_handcoded(r: &RTable, cols: &[Vec<i64>; 2], card: usize) -> Vec<Vec<i64>> {
    let slots = [
        (MergeOp::Min, Some(0)),
        (MergeOp::Max, Some(1)),
        (MergeOp::Add, Some(0)),
        (MergeOp::Add, None),
    ];
    let inputs = Folds(&slots, cols);
    let mut ht = AggTable::with_capacity(slots.len(), card);
    let (mut cmp, mut idx) = ([0u8; TILE], [0u32; TILE]);
    for (s, l) in tiles(r.len()) {
        predicate::cmp_lt(&r.x[s..s + l], SWEEP_SEL, &mut cmp[..l]);
        let k = selvec::fill_nobranch(&cmp[..l], s as u32, &mut idx[..l]);
        groupby::upsert(&r.c, Lanes::Selected(&idx[..k]), &inputs, 0, &mut ht);
    }
    sorted_rows(&ht)
}

/// The valid entries of a finished table as sorted `[key, state..]` rows.
fn sorted_rows(ht: &AggTable) -> Vec<Vec<i64>> {
    let valid = GroupTable::iter(ht).filter(|&(_, _, valid)| valid);
    let mut rows: Vec<Vec<i64>> = valid
        .map(|(k, state, _)| std::iter::once(k).chain(state.iter().copied()).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// Fig. 4 as a sweep over the group count: the three grouped strategies at
/// a fixed 50 % selectivity, G ∈ {2, 3, 4, 16, 1 024, 256 Ki} ×
/// {1, 2, 4} aggregates, engine-planned (the strategy pinned, everything
/// else — group table, sink, proof — the planner's) against hand-coded,
/// plus a `min` / `max` list under the hybrid pin (the one grouped loop
/// that folds). `x` is G; the series is `<side>:<strategy>:a<aggregates>`
/// and `<side>:hybrid:minmax`.
fn group_count_sweep(runs: usize) {
    let ones = vec![1i32; r_rows()];
    for card in [2usize, 3, 4, 16, 1 << 10, 256 << 10] {
        eprintln!("fig 4g: group-by (G = {card})");
        let db = micro_db(s_small(), card);
        let r = &db.r;
        let catalog = || {
            let mut out = Database::new();
            out.add_table(
                Table::new("R")
                    .with_column("a", ColumnData::I32(r.a.clone()))
                    .with_column("b", ColumnData::I32(r.b.clone()))
                    .with_column("c", ColumnData::I32(r.c.clone()))
                    .with_column("x", ColumnData::I8(r.x.clone())),
            );
            out
        };
        let (a, b) = (Expr::col("a"), Expr::col("b"));
        let lists = [
            vec![AggSpec::sum(a.clone(), "sa")],
            vec![AggSpec::sum(a.clone(), "sa"), AggSpec::count("n")],
            vec![
                AggSpec::sum(a.clone(), "sa"),
                AggSpec::sum(b, "sb"),
                AggSpec::sum(a, "sa2"),
                AggSpec::count("n"),
            ],
        ];
        for strategy in [
            AggStrategy::Hybrid,
            AggStrategy::ValueMasking,
            AggStrategy::KeyMasking,
        ] {
            let engine = Engine::builder(catalog())
                .threads(1)
                .strategies(StrategyOverrides::pin_agg(strategy))
                .build();
            for aggs in &lists {
                let plan = QueryBuilder::scan("R")
                    .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(SWEEP_SEL as i64)))
                    .aggregate(Some("c"), aggs.clone());
                let handcoded = || match aggs.len() {
                    1 => groupby_handcoded(strategy, r, [&r.a], card),
                    2 => groupby_handcoded(strategy, r, [&r.a, &ones], card),
                    _ => groupby_handcoded(strategy, r, [&r.a, &r.b, &r.a, &ones], card),
                };
                let planned = || engine.query(&plan).expect("the sweep's plans run").rows;
                assert_eq!(planned(), handcoded(), "{} G={card}", strategy.name());
                let (x, series) = (
                    card.to_string(),
                    format!("{}:a{}", strategy.name(), aggs.len()),
                );
                emit(
                    "4g",
                    &format!("engine:{series}"),
                    &x,
                    median_ms(runs, planned),
                );
                emit(
                    "4g",
                    &format!("handcoded:{series}"),
                    &x,
                    median_ms(runs, handcoded),
                );
            }
        }
        let engine = Engine::builder(catalog())
            .threads(1)
            .strategies(StrategyOverrides::pin_agg(AggStrategy::Hybrid))
            .build();
        let (a, b) = (Expr::col("a"), Expr::col("b"));
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(SWEEP_SEL as i64)))
            .aggregate(
                Some("c"),
                vec![
                    AggSpec::min(a.clone(), "lo"),
                    AggSpec::max(b, "hi"),
                    AggSpec::sum(a, "sa"),
                    AggSpec::count("n"),
                ],
            );
        let widen = |v: &[i32]| v.iter().map(|&x| x as i64).collect::<Vec<_>>();
        let cols = [widen(&r.a), widen(&r.b)];
        let handcoded = || minmax_handcoded(r, &cols, card);
        let planned = || engine.query(&plan).expect("the sweep's plans run").rows;
        assert_eq!(planned(), handcoded(), "min / max G={card}");
        let x = card.to_string();
        emit("4g", "engine:hybrid:minmax", &x, median_ms(runs, planned));
        emit(
            "4g",
            "handcoded:hybrid:minmax",
            &x,
            median_ms(runs, handcoded),
        );
    }
}

/// The planner's regret over the dense-table slice of the grouped scan:
/// G ∈ {3, 16, 1 024, 256 Ki} × {`sum(a*b)`, `sum(a), count(*)`} × σ ∈ {5,
/// 20, 40, 60, 80, 95} %, on one thread. Per cell the three strategies run
/// pinned and the plan runs unpinned, interleaved run by run, and all four
/// results are asserted equal. `x` is `<G>@<σ>`; the series are
/// `engine:<strategy>:a<n>`, `engine:chosen:a<n>` and
/// `regret:a<n>:<chosen strategy>`, whose value is the pinned time of the
/// chosen strategy over the fastest pinned time (the unpinned plan runs the
/// same loop; its own time is the `chosen` row).
fn regret_sweep(runs: usize) {
    const STRATEGIES: [AggStrategy; 3] = [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ];
    for card in [3usize, 16, 1 << 10, 256 << 10] {
        eprintln!("fig 4r: planner regret (G = {card})");
        let db = micro_db(s_small(), card);
        let r = &db.r;
        let catalog = || {
            let mut out = Database::new();
            out.add_table(
                Table::new("R")
                    .with_column("a", ColumnData::I32(r.a.clone()))
                    .with_column("b", ColumnData::I32(r.b.clone()))
                    .with_column("c", ColumnData::I32(r.c.clone()))
                    .with_column("x", ColumnData::I8(r.x.clone())),
            );
            out
        };
        let engine = |pins| {
            Engine::builder(catalog())
                .threads(1)
                .strategies(pins)
                .build()
        };
        let chosen = engine(StrategyOverrides::default());
        let pinned = STRATEGIES.map(|s| engine(StrategyOverrides::pin_agg(s)));
        let (a, b) = (Expr::col("a"), Expr::col("b"));
        let lists = [
            vec![AggSpec::sum(a.clone().mul(b), "sab")],
            vec![AggSpec::sum(a, "sa"), AggSpec::count("n")],
        ];
        for aggs in &lists {
            for sel in [5i64, 20, 40, 60, 80, 95] {
                let plan = QueryBuilder::scan("R")
                    .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel)))
                    .aggregate(Some("c"), aggs.clone());
                let pick = chosen.plan(&plan).expect("the sweep's plans plan");
                let pick = pick.agg_strategy().expect("a scan aggregation");
                let rows = |e: &Engine| e.query(&plan).expect("the sweep's plans run").rows;
                let expected = rows(&chosen);
                for (s, e) in STRATEGIES.iter().zip(&pinned) {
                    assert_eq!(rows(e), expected, "{} G={card} σ={sel}", s.name());
                }
                // One run of every variant per round, so a change of host
                // speed lands on all four alike.
                let mut times: [Vec<f64>; 4] = Default::default();
                for _ in 0..runs {
                    for (t, e) in times.iter_mut().zip(pinned.iter().chain([&chosen])) {
                        t.push(median_ms(1, || rows(e)));
                    }
                }
                let ms = times.map(|mut t| {
                    t.sort_by(f64::total_cmp);
                    t[t.len() / 2]
                });
                let (x, n) = (format!("{card}@{sel}"), aggs.len());
                for (s, t) in STRATEGIES.iter().zip(&ms) {
                    emit("4r", &format!("engine:{}:a{n}", s.name()), &x, *t);
                }
                emit("4r", &format!("engine:chosen:a{n}"), &x, ms[3]);
                let best = ms[..3].iter().copied().fold(f64::INFINITY, f64::min);
                let at = STRATEGIES
                    .iter()
                    .position(|&s| s == pick)
                    .expect("pinnable");
                emit(
                    "4r",
                    &format!("regret:a{n}:{}", pick.name()),
                    &x,
                    ms[at] / best,
                );
            }
        }
    }
}

/// The density sweep behind `selvec::SPARSE_ONE_IN`, on one thread. Per σ:
/// the compactions of one mask of `r_rows()` lanes, tile by tile — the
/// served choice (`fill_adaptive`), `fill_sparse`, `fill_dense`,
/// `fill_nobranch` and `fill_branch` — then the engine's hybrid scan `sum(a * b) … where x < σ`
/// against that scan hand-coded with `fill_nobranch` and with
/// `fill_adaptive`. Each round runs every variant once and the results are
/// asserted equal. `x` is σ in %; the series are `kernel:<fill>`,
/// `scan:<side>` and `kernel:adaptive/nobranch`, a ratio.
fn density_sweep(runs: usize) {
    use rand::{Rng, SeedableRng};
    let n = r_rows();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xD5);
    let a: Vec<i32> = (0..n).map(|_| rng.gen_range(1..=50)).collect();
    let b: Vec<i32> = (0..n).map(|_| rng.gen_range(1..=50)).collect();
    // Per mille, so that σ reaches below 1 %.
    let x: Vec<i16> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    let mut catalog = Database::new();
    catalog.add_table(
        Table::new("R")
            .with_column("a", ColumnData::I32(a.clone()))
            .with_column("b", ColumnData::I32(b.clone()))
            .with_column("x", ColumnData::I16(x.clone())),
    );
    let engine = Engine::builder(catalog)
        .threads(1)
        .strategies(StrategyOverrides::pin_agg(AggStrategy::Hybrid))
        .build();
    type Fill<'f> = &'f dyn Fn(&[u8], u32, &mut [u32]) -> usize;
    // The served choice carries one tile's density to the next, as a
    // worker's register file does.
    let sparse = std::cell::Cell::new(false);
    let adaptive = |cmp: &[u8], base: u32, idx: &mut [u32]| {
        let mut s = sparse.get();
        let k = selvec::fill_adaptive(cmp, base, idx, &mut s);
        sparse.set(s);
        k
    };
    let fills: [(&str, Fill<'_>); 5] = [
        ("adaptive", &adaptive),
        ("sparse", &selvec::fill_sparse),
        ("dense", &selvec::fill_dense),
        ("nobranch", &selvec::fill_nobranch),
        ("branch", &selvec::fill_branch),
    ];
    for per_mille in [1i16, 5, 10, 20, 50, 100, 200, 350, 500, 800, 990] {
        eprintln!(
            "fig 4s: tile compaction (σ = {} %)",
            f64::from(per_mille) / 10.0
        );
        let cmp: Vec<u8> = x.iter().map(|&v| (v < per_mille) as u8).collect();
        let compact = |fill: Fill| {
            let mut idx = [0u32; TILE];
            tiles(n)
                .map(|(s, l)| fill(&cmp[s..s + l], 0, &mut idx))
                .sum::<usize>()
        };
        let scan = |fill: Fill| {
            let (mut cmp, mut idx, mut sum) = ([0u8; TILE], [0u32; TILE], 0i64);
            for (s, l) in tiles(n) {
                predicate::cmp_lt(&x[s..s + l], per_mille, &mut cmp[..l]);
                let k = fill(&cmp[..l], 0, &mut idx);
                let (a, b) = (&a[s..s + l], &b[s..s + l]);
                sum = sum.wrapping_add(agg::sum_op_gather::<_, _, Mul>(a, b, &idx[..k]));
            }
            vec![vec![sum]]
        };
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(i64::from(per_mille))))
            .aggregate(
                None,
                vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
            );
        let planned = || engine.query(&plan).expect("the sweep's plans run").rows;
        let want = compact(&selvec::fill_branch);
        for (name, fill) in fills {
            assert_eq!(compact(fill), want, "{name} σ={per_mille}‰");
        }
        assert_eq!(planned(), scan(&selvec::fill_nobranch), "σ={per_mille}‰");
        assert_eq!(
            scan(&adaptive),
            scan(&selvec::fill_nobranch),
            "σ={per_mille}‰"
        );
        let mut times: [Vec<f64>; 8] = Default::default();
        for _ in 0..runs {
            for (t, (_, fill)) in times.iter_mut().zip(fills) {
                t.push(median_ms(1, || compact(fill)));
            }
            times[5].push(median_ms(1, planned));
            times[6].push(median_ms(1, || scan(&selvec::fill_nobranch)));
            times[7].push(median_ms(1, || scan(&adaptive)));
        }
        let ms = times.map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        });
        let x = format!("{}", f64::from(per_mille) / 10.0);
        for ((name, _), t) in fills.iter().zip(&ms) {
            emit("4s", &format!("kernel:{name}"), &x, *t);
        }
        emit("4s", "scan:engine", &x, ms[5]);
        emit("4s", "scan:handcoded-nobranch", &x, ms[6]);
        emit("4s", "scan:handcoded-adaptive", &x, ms[7]);
        emit("4s", "kernel:adaptive/nobranch", &x, ms[0] / ms[3]);
    }
}

/// Lane width of the served value-masking loops, on one thread, over
/// `scan_micro`'s data (a, b ∈ [1, 50], σ = 25 %) at 16 Ki rows (cache
/// resident) and at 4 Mi rows: `sum(a * b)` as `agg::fold`'s masked
/// instance in `i64` lanes and in the certificate-licensed `i32` ones
/// (`masked:*`, which serve access merging too), the yardstick's two-loop
/// access merging (`merged:i64`, `mask_values` + `sum_product_tmp`), the
/// masked probe — the fold with a bitmap membership — without and with
/// its count (`probe:i64`, `probe:count`, the pass TPC-H Q3 runs), the
/// probe of a stage with no filter, which reads no mask (`probe:every`),
/// TPC-H Q4's `sum(col), count(*)` probe as it runs — every lane, the
/// one-slice input (`probe:one`) — and as it ran before: an all-ones mask
/// and the column times a register of ones (`probe:ones`), a plain read of
/// the same `a`, `b` and mask bytes (`stream`, the DRAM floor), and the
/// membership's two representations over a 1 Ki-row parent of which half
/// qualifies: its bitmap in the fused `i64` loop the engine runs
/// (`probe:bits`), its byte map in the same loop (`probe:bytes`) and in the
/// two loops of the `i32` proof, the membership's then Fig. 3's
/// (`probe:bytes-i32`).
/// Every loop runs tile by tile, as the engine calls it, and the sums are
/// asserted equal: the masked ones to each other, `probe:every` to the
/// same fold under an all-ones mask, `probe:one` and `probe:ones` to the
/// plain sum of `a`, the three membership rows to the bitmap's fold. `x`
/// is the row count; each value is ms per 4 Mi rows.
fn lane_width_sweep(runs: usize) {
    use rand::{Rng, SeedableRng};
    use swole_bitmap::PositionalBitmap;
    use swole_kernels::join;
    const PER: usize = 4 << 20;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x4A);
    for n in [16 << 10, PER] {
        eprintln!("fig 4w: lane width ({n} rows)");
        let a: Vec<i32> = (0..n).map(|_| rng.gen_range(1..=50)).collect();
        let b: Vec<i32> = (0..n).map(|_| rng.gen_range(1..=50)).collect();
        let cmp: Vec<u8> = (0..n).map(|_| rng.gen_bool(0.25) as u8).collect();
        let fk: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1024)).collect();
        let bitmap = PositionalBitmap::from_predicate_bytes(&[1u8; 1024]);
        let half: Vec<u8> = (0..1024).map(|_| rng.gen_bool(0.5) as u8).collect();
        let half_bits = PositionalBitmap::from_predicate_bytes(&half);
        // A stage with no filter: before, an all-ones mask and a register
        // of ones multiplied into a sum of one column.
        let (all, ones) = (vec![1u8; n], vec![1i64; n]);
        let member = |s: usize, l: usize| (&fk[s..s + l], bitmap.bits());
        /// A probe pass that counts, its count kept live.
        fn probe<I: agg::Fold>(
            lanes: Lanes<'_>,
            member: (&[u32], swole_bitmap::Bits<'_>),
            inputs: &I,
        ) -> i64 {
            let f = agg::fold::<_, _, agg::Wrapping, true>(lanes, member, inputs);
            std::hint::black_box(f.count);
            f.value
        }
        let over_tiles = |f: &dyn Fn(usize, usize) -> i64| {
            // Cache-resident sizes repeat until 4 Mi rows have streamed by.
            let sum = (0..PER / n).map(|_| tiles(n).map(|(s, l)| f(s, l)).sum::<i64>());
            sum.last().unwrap_or(0)
        };
        let mut tmp = vec![0i64; TILE];
        let tmp = std::cell::RefCell::new(&mut tmp[..]);
        type Loop<'l> = &'l dyn Fn(usize, usize) -> i64;
        let fused = |s: usize, l: usize| {
            Fused::<_, _, Mul>(&a[s..s + l], &b[s..s + l], std::marker::PhantomData)
        };
        let loops: [(&str, Loop<'_>); 12] = [
            ("masked:i64", &|s, l| {
                agg::sum_op_masked::<_, _, Mul>(&a[s..s + l], &b[s..s + l], &cmp[s..s + l])
            }),
            ("masked:i32", &|s, l| {
                let lanes = Lanes::Masked(&cmp[s..s + l]);
                agg::fold::<_, _, agg::I32Tile, false>(lanes, (), &fused(s, l)).value
            }),
            ("merged:i64", &|s, l| {
                let tmp = &mut tmp.borrow_mut()[..l];
                agg::mask_values(&a[s..s + l], &cmp[s..s + l], tmp);
                agg::sum_product_tmp(&b[s..s + l], tmp)
            }),
            ("probe:i64", &|s, l| {
                let (a, b, c) = (&a[s..s + l], &b[s..s + l], &cmp[s..s + l]);
                join::semijoin_sum_bitmap_masked::<_, _, Mul>(&fk[s..s + l], a, b, c, &bitmap)
            }),
            ("probe:count", &|s, l| {
                probe(Lanes::Masked(&cmp[s..s + l]), member(s, l), &fused(s, l))
            }),
            ("probe:every", &|s, l| {
                probe(Lanes::Every, member(s, l), &fused(s, l))
            }),
            ("probe:one", &|s, l| {
                probe(Lanes::Every, member(s, l), &[&a[s..s + l]])
            }),
            ("probe:ones", &|s, l| {
                let (lanes, ones) = (Lanes::Masked(&all[s..s + l]), &ones[s..s + l]);
                let inputs = Fused::<_, _, Mul>(&a[s..s + l], ones, std::marker::PhantomData);
                probe(lanes, member(s, l), &inputs)
            }),
            ("probe:bits", &|s, l| {
                let (lanes, member) = (
                    Lanes::Masked(&cmp[s..s + l]),
                    (&fk[s..s + l], half_bits.bits()),
                );
                agg::fold::<_, _, agg::Wrapping, false>(lanes, member, &fused(s, l)).value
            }),
            ("probe:bytes", &|s, l| {
                let (lanes, member) = (Lanes::Masked(&cmp[s..s + l]), (&fk[s..s + l], &half[..]));
                agg::fold::<_, _, agg::Wrapping, false>(lanes, member, &fused(s, l)).value
            }),
            ("probe:bytes-i32", &|s, l| {
                let (lanes, member) = (Lanes::Masked(&cmp[s..s + l]), (&fk[s..s + l], &half[..]));
                agg::fold::<_, _, agg::I32Tile, false>(lanes, member, &fused(s, l)).value
            }),
            ("stream", &|s, l| {
                let lanes = a[s..s + l].iter().zip(&b[s..s + l]).zip(&cmp[s..s + l]);
                let x = lanes.fold(0i32, |x, ((&a, &b), &c)| x ^ a ^ b ^ i32::from(c));
                i64::from(x)
            }),
        ];
        let masked = over_tiles(loops[0].1);
        let every = over_tiles(&|s, l| {
            let lanes = Lanes::Masked(&all[s..s + l]);
            agg::fold::<_, _, agg::Wrapping, false>(lanes, member(s, l), &fused(s, l)).value
        });
        let plain = over_tiles(&|s, l| a[s..s + l].iter().map(|&v| i64::from(v)).sum());
        let bits = over_tiles(loops[8].1);
        let wants = [[masked; 5].as_slice(), &[every, plain, plain], &[bits; 3]].concat();
        for ((name, f), want) in loops.iter().zip(wants) {
            assert_eq!(over_tiles(*f), want, "{name} at {n} rows");
        }
        let mut times: [Vec<f64>; 12] = Default::default();
        for _ in 0..runs {
            for (t, (_, f)) in times.iter_mut().zip(&loops) {
                t.push(median_ms(1, || over_tiles(*f)));
            }
        }
        for ((name, _), mut t) in loops.iter().zip(times) {
            t.sort_by(f64::total_cmp);
            emit("4w", name, &n.to_string(), t[t.len() / 2]);
        }
    }
}

fn main() {
    let opts = parse_args();
    println!("figure,series,x,runtime_ms");

    if wanted(&opts, "4w") {
        lane_width_sweep(opts.runs);
    }

    if wanted(&opts, "4g") {
        group_count_sweep(opts.runs);
    }
    if wanted(&opts, "4r") {
        regret_sweep(opts.runs);
    }
    if wanted(&opts, "4s") {
        density_sweep(opts.runs);
    }

    // ---- Fig. 8: micro Q1, value masking --------------------------------
    for (id, div) in [("8a", false), ("8b", true)] {
        if !wanted(&opts, id) {
            continue;
        }
        eprintln!("fig {id}: micro Q1 ({})", if div { "/" } else { "*" });
        let db = micro_db(s_small(), 1 << 10);
        for sel in selectivities(opts.points) {
            let x = sel.to_string();
            if div {
                emit(
                    id,
                    "datacentric",
                    &x,
                    median_ms(opts.runs, || q1::datacentric::<Div>(&db.r, sel)),
                );
                emit(
                    id,
                    "hybrid",
                    &x,
                    median_ms(opts.runs, || q1::hybrid::<Div>(&db.r, sel)),
                );
                emit(
                    id,
                    "value-masking",
                    &x,
                    median_ms(opts.runs, || q1::value_masking::<Div>(&db.r, sel)),
                );
            } else {
                emit(
                    id,
                    "datacentric",
                    &x,
                    median_ms(opts.runs, || q1::datacentric::<Mul>(&db.r, sel)),
                );
                emit(
                    id,
                    "hybrid",
                    &x,
                    median_ms(opts.runs, || q1::hybrid::<Mul>(&db.r, sel)),
                );
                emit(
                    id,
                    "value-masking",
                    &x,
                    median_ms(opts.runs, || q1::value_masking::<Mul>(&db.r, sel)),
                );
            }
        }
    }

    // ---- Fig. 9: micro Q2, key masking ----------------------------------
    let cards = swole_bench::q2_cardinalities();
    for (i, id) in ["9a", "9b", "9c", "9d"].iter().enumerate() {
        if !wanted(&opts, id) {
            continue;
        }
        let card = cards[i];
        eprintln!("fig {id}: micro Q2 (|r_c| = {card})");
        let db = micro_db(s_small(), card);
        for sel in selectivities(opts.points) {
            let x = sel.to_string();
            emit(
                id,
                "datacentric",
                &x,
                median_ms(opts.runs, || q2::datacentric(&db.r, sel)),
            );
            emit(
                id,
                "hybrid",
                &x,
                median_ms(opts.runs, || q2::hybrid(&db.r, sel)),
            );
            emit(
                id,
                "value-masking",
                &x,
                median_ms(opts.runs, || q2::value_masking(&db.r, sel)),
            );
            emit(
                id,
                "key-masking",
                &x,
                median_ms(opts.runs, || q2::key_masking(&db.r, sel)),
            );
        }
    }

    // ---- Fig. 10: micro Q3, access merging ------------------------------
    for (id, col) in [("10a", q3::Q3Col::A), ("10b", q3::Q3Col::X)] {
        if !wanted(&opts, id) {
            continue;
        }
        eprintln!("fig {id}: micro Q3 (COL = {col:?})");
        let db = micro_db(s_small(), 1 << 10);
        for sel in selectivities(opts.points) {
            let x = sel.to_string();
            emit(
                id,
                "datacentric",
                &x,
                median_ms(opts.runs, || q3::datacentric(&db.r, col, sel)),
            );
            emit(
                id,
                "hybrid",
                &x,
                median_ms(opts.runs, || q3::hybrid(&db.r, col, sel)),
            );
            emit(
                id,
                "value-masking",
                &x,
                median_ms(opts.runs, || q3::value_masking(&db.r, col, sel)),
            );
            emit(
                id,
                "access-merging",
                &x,
                median_ms(opts.runs, || q3::access_merging(&db.r, col, sel)),
            );
        }
    }

    // ---- Fig. 11: micro Q4, positional bitmaps --------------------------
    // (a) SEL1=10 sweep SEL2; (b) SEL1=90 sweep SEL2;
    // (c) SEL2=10 sweep SEL1; (d) SEL2=90 sweep SEL1. |S| = large.
    let q4_configs: [(&str, Option<i8>, Option<i8>); 4] = [
        ("11a", Some(10), None),
        ("11b", Some(90), None),
        ("11c", None, Some(10)),
        ("11d", None, Some(90)),
    ];
    if q4_configs.iter().any(|(id, _, _)| wanted(&opts, id)) {
        let db = micro_db(s_large(), 1 << 10);
        for (id, fixed1, fixed2) in q4_configs {
            if !wanted(&opts, id) {
                continue;
            }
            eprintln!("fig {id}: micro Q4 (|S| = {})", s_large());
            for sel in selectivities(opts.points) {
                let (sel1, sel2) = (fixed1.unwrap_or(sel), fixed2.unwrap_or(sel));
                let x = sel.to_string();
                emit(
                    id,
                    "datacentric",
                    &x,
                    median_ms(opts.runs, || q4::datacentric(&db.r, &db.s, sel1, sel2)),
                );
                emit(
                    id,
                    "hybrid",
                    &x,
                    median_ms(opts.runs, || q4::hybrid(&db.r, &db.s, sel1, sel2)),
                );
                emit(
                    id,
                    "positional-bitmap",
                    &x,
                    median_ms(opts.runs, || {
                        q4::bitmap_masked(&db, sel1, sel2, BitmapBuild::Unconditional)
                    }),
                );
            }
        }
    }

    // ---- Fig. 12: micro Q5, eager aggregation ---------------------------
    for (id, s_rows) in [("12a", s_small()), ("12b", s_large())] {
        if !wanted(&opts, id) {
            continue;
        }
        eprintln!("fig {id}: micro Q5 (|S| = {s_rows})");
        let db = micro_db(s_rows, 1 << 10);
        for sel in selectivities(opts.points) {
            let x = sel.to_string();
            emit(
                id,
                "datacentric",
                &x,
                median_ms(opts.runs, || q5::groupjoin_datacentric(&db.r, &db.s, sel)),
            );
            emit(
                id,
                "hybrid",
                &x,
                median_ms(opts.runs, || q5::groupjoin_hybrid(&db.r, &db.s, sel)),
            );
            emit(
                id,
                "eager-aggregation",
                &x,
                median_ms(opts.runs, || q5::eager_aggregation(&db.r, &db.s, sel)),
            );
        }
    }

    // ---- Fig. 6: TPC-H ---------------------------------------------------
    if wanted(&opts, "6") {
        let sf = tpch_sf();
        eprintln!("fig 6: TPC-H (SF = {sf})");
        let db = swole_tpch::generate(sf, 0x70C4);
        let params = CostParams::default();
        let runs = opts.runs;
        let row = |q: &str, strat: &str, ms: f64| emit("6", strat, q, ms);
        row(
            "Q1",
            "datacentric",
            median_ms(runs, || tq::q1::datacentric(&db)),
        );
        row("Q1", "hybrid", median_ms(runs, || tq::q1::hybrid(&db)));
        row("Q1", "swole", median_ms(runs, || tq::q1::swole(&db)));
        row(
            "Q3",
            "datacentric",
            median_ms(runs, || tq::q3::datacentric(&db)),
        );
        row("Q3", "hybrid", median_ms(runs, || tq::q3::hybrid(&db)));
        row("Q3", "swole", median_ms(runs, || tq::q3::swole(&db)));
        row(
            "Q4",
            "datacentric",
            median_ms(runs, || tq::q4::datacentric(&db)),
        );
        row("Q4", "hybrid", median_ms(runs, || tq::q4::hybrid(&db)));
        row("Q4", "swole", median_ms(runs, || tq::q4::swole(&db)));
        row(
            "Q5",
            "datacentric",
            median_ms(runs, || tq::q5::datacentric(&db)),
        );
        row("Q5", "hybrid", median_ms(runs, || tq::q5::hybrid(&db)));
        row("Q5", "swole", median_ms(runs, || tq::q5::swole(&db)));
        row(
            "Q6",
            "datacentric",
            median_ms(runs, || tq::q6::datacentric(&db)),
        );
        row("Q6", "hybrid", median_ms(runs, || tq::q6::hybrid(&db)));
        row("Q6", "swole", median_ms(runs, || tq::q6::swole(&db)));
        row(
            "Q13",
            "datacentric",
            median_ms(runs, || tq::q13::datacentric(&db)),
        );
        row("Q13", "hybrid", median_ms(runs, || tq::q13::hybrid(&db)));
        row("Q13", "swole", median_ms(runs, || tq::q13::swole(&db)));
        row(
            "Q14",
            "datacentric",
            median_ms(runs, || tq::q14::datacentric(&db)),
        );
        row("Q14", "hybrid", median_ms(runs, || tq::q14::hybrid(&db)));
        row(
            "Q14",
            "swole",
            median_ms(runs, || tq::q14::swole(&db, &params)),
        );
        row(
            "Q19",
            "datacentric",
            median_ms(runs, || tq::q19::datacentric(&db)),
        );
        row("Q19", "hybrid", median_ms(runs, || tq::q19::hybrid(&db)));
        row("Q19", "swole", median_ms(runs, || tq::q19::swole(&db)));
    }
    eprintln!("done");
}
