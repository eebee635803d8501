//! The grouped-aggregation chooser on a dense group table, against the
//! measured grid it was fitted to: `figures --fig 4r` (one thread, 1 Mi
//! rows, each strategy pinned and its result checked), G ∈ {3, 16, 1 024,
//! 256 Ki} × {`sum(a*b)`, `sum(a), count(*)`} × σ ∈ {5, 20, 40, 60, 80,
//! 95} %, the medians of six sweeps of 15 runs on a 2-vCPU Intel Xeon
//! (2 MiB L2 per core, 105 MiB shared L3).
//! Key masking won no cell. EXPERIMENTS.md has the timings.

use swole_cost::choose::choose_agg_mt;
use swole_cost::{AggProfile, AggStrategy, CostParams, GroupTableCost};

const H: &[AggStrategy] = &[AggStrategy::Hybrid];
const V: &[AggStrategy] = &[AggStrategy::ValueMasking];
/// The two best measured within 10 % of each other: either is right.
const HV: &[AggStrategy] = &[AggStrategy::Hybrid, AggStrategy::ValueMasking];

const SELECTIVITIES: [u32; 6] = [5, 20, 40, 60, 80, 95];

/// One aggregate list as the planner profiles it: `comp` (each aggregate's
/// expression cycles plus 0.5), the columns read (inputs plus the key) and
/// the aggregate count.
struct List {
    name: &'static str,
    comp: f64,
    n_cols: usize,
    n_aggs: usize,
}

const SUM_AB: List = List {
    name: "sum(a*b)",
    comp: 1.5,
    n_cols: 3,
    n_aggs: 1,
};
const SUM_COUNT: List = List {
    name: "sum(a), count(*)",
    comp: 1.0,
    n_cols: 2,
    n_aggs: 2,
};

/// The measured winners per (list, G), one entry per selectivity.
#[allow(clippy::type_complexity)]
const MEASURED: [(&List, usize, [&[AggStrategy]; 6]); 8] = [
    (&SUM_AB, 3, [H, H, H, H, HV, V]),
    (&SUM_AB, 16, [H, H, H, H, HV, V]),
    (&SUM_AB, 1 << 10, [H, H, H, HV, V, V]),
    (&SUM_AB, 256 << 10, [H, H, H, H, HV, HV]),
    (&SUM_COUNT, 3, [H, H, H, H, HV, HV]),
    (&SUM_COUNT, 16, [H, H, H, H, HV, V]),
    (&SUM_COUNT, 1 << 10, [H, H, H, HV, HV, V]),
    (&SUM_COUNT, 256 << 10, [H, H, H, H, H, HV]),
];

fn profile(list: &List, keys: usize, sel: f64) -> AggProfile {
    AggProfile {
        rows: 1 << 20,
        selectivity: sel,
        comp: list.comp,
        n_cols: list.n_cols,
        group_keys: Some(keys),
        n_aggs: list.n_aggs,
    }
}

/// The executor's dense array over `keys` keys: one 8-byte state and one
/// flag byte per aggregate, for every key and the throwaway entry.
fn dense(keys: usize, n_aggs: usize) -> GroupTableCost {
    GroupTableCost::Dense {
        bytes: (keys + 1) * n_aggs * 9,
    }
}

#[test]
fn the_dense_chooser_picks_the_measured_winner_in_every_cell() {
    let p = CostParams::default();
    for (list, keys, winners) in MEASURED {
        for (sel, accepted) in SELECTIVITIES.iter().zip(winners) {
            let prof = profile(list, keys, f64::from(*sel) / 100.0);
            let table = dense(keys, list.n_aggs);
            for threads in [1, 2, 8] {
                let c = choose_agg_mt(&p, &prof, threads, table);
                assert!(
                    accepted.contains(&c.strategy),
                    "{} G={keys} σ={sel}% T={threads}: picked {}, measured {:?} ({})",
                    list.name,
                    c.strategy.name(),
                    accepted,
                    c.explanation
                );
            }
        }
    }
}

#[test]
fn on_a_dense_table_key_masking_never_prices_below_value_masking() {
    let p = CostParams::default();
    for keys in [1usize, 3, 16, 1 << 10, 256 << 10, 1 << 24] {
        for n_aggs in 1..=8 {
            for n_cols in 1..=8 {
                for comp in [0.5, 1.0, 1.5, 6.0, 12.0, 26.0, 60.0] {
                    for sel in (0..=20).map(|i| f64::from(i) / 20.0) {
                        let prof = AggProfile {
                            rows: 1 << 20,
                            selectivity: sel,
                            comp,
                            n_cols,
                            group_keys: Some(keys),
                            n_aggs,
                        };
                        for threads in [1, 2, 8] {
                            let c = choose_agg_mt(&p, &prof, threads, dense(keys, n_aggs));
                            let km = c.cost_key_masking.expect("a grouped profile");
                            assert!(km >= c.cost_value_masking, "{prof:?} T={threads}");
                            assert_ne!(c.strategy, AggStrategy::KeyMasking, "{prof:?}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn the_dense_explanation_names_the_array_it_priced() {
    let p = CostParams::default();
    let prof = profile(&SUM_AB, 1 << 10, 0.2);
    let c = choose_agg_mt(&p, &prof, 1, dense(1 << 10, 1));
    assert_eq!(c.strategy, AggStrategy::Hybrid);
    assert!(
        c.explanation.ends_with(", dense 9225 B)"),
        "{}",
        c.explanation
    );
    let prof = profile(&SUM_AB, 1 << 10, 0.95);
    let c = choose_agg_mt(&p, &prof, 1, dense(1 << 10, 1));
    assert_eq!(c.strategy, AggStrategy::ValueMasking);
    assert!(
        c.explanation.ends_with(" (dense 9225 B)"),
        "{}",
        c.explanation
    );
}
