//! The hand-coded yardsticks (`swole_micro::q1/q2::swole`, TPC-H Q14, the
//! `advisor` example, `perf`'s `cost.choose_us`) call [`choose_agg`], which
//! prices every grouped profile on the paper's hash table. Its strategy, its
//! three costs and its explanation are frozen here for the profiles those
//! callers and Fig. 9 use: a change to them moves a yardstick, not just the
//! engine.
//!
//! Costs are written with `{:?}` (the shortest text that parses back to the
//! same `f64`), so the comparison is exact. To regenerate after a change
//! that is meant to move the yardsticks:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p swole-cost --test yardstick_freeze
//! ```

use std::fmt::Write;

use swole_cost::choose::{choose_agg, choose_agg_mt};
use swole_cost::comp::{simple_agg_comp, ArithOp};
use swole_cost::{AggProfile, CostParams, GroupTableCost};

/// Every frozen profile, labelled.
fn profiles() -> Vec<(String, AggProfile)> {
    let mut out = Vec::new();
    let rows = 1 << 20;
    // `swole_micro::q1::swole`: scalar `sum(a OP b)`, σ 1–99 %.
    for (op, name) in [(ArithOp::Mul, "mul"), (ArithOp::Div, "div")] {
        for sel in 1..=99 {
            let prof = AggProfile {
                rows,
                selectivity: sel as f64 / 100.0,
                comp: simple_agg_comp(op),
                n_cols: 2,
                group_keys: None,
                n_aggs: 1,
            };
            out.push((format!("micro q1 {name} sel={sel}"), prof));
        }
    }
    // `swole_micro::q2::swole`: `sum(a*b) group by c`, |r_c| 1 K and 256 Ki.
    for keys in [1 << 10, 256 << 10] {
        for sel in 1..=99 {
            let prof = AggProfile {
                rows,
                selectivity: sel as f64 / 100.0,
                comp: simple_agg_comp(ArithOp::Mul),
                n_cols: 3,
                group_keys: Some(keys),
                n_aggs: 1,
            };
            out.push((format!("micro q2 keys={keys} sel={sel}"), prof));
        }
    }
    // Fig. 9 as the `advisor` grid prints it (R = 100 M).
    for keys in [10, 1_000, 100_000, 10_000_000] {
        for sel in [10, 50, 90] {
            let prof = AggProfile {
                rows: 100_000_000,
                selectivity: sel as f64 / 100.0,
                comp: simple_agg_comp(ArithOp::Mul),
                n_cols: 3,
                group_keys: Some(keys),
                n_aggs: 1,
            };
            out.push((format!("fig9 keys={keys} sel={sel}"), prof));
        }
    }
    // The TPC-H Q1 profile `advisor` prints.
    let q1 = AggProfile {
        rows: 60_000_000,
        selectivity: 0.98,
        comp: 6.0,
        n_cols: 7,
        group_keys: Some(4),
        n_aggs: 8,
    };
    out.push(("advisor q1".to_string(), q1));
    out
}

#[test]
fn choose_agg_prices_the_yardstick_profiles_as_it_did() {
    let p = CostParams::default();
    let mut got = String::new();
    for (label, prof) in profiles() {
        let c = choose_agg(&p, &prof);
        // The engine's chooser on a hash table at one thread is the same
        // function, explanation included.
        let mt = choose_agg_mt(&p, &prof, 1, GroupTableCost::Hash);
        assert_eq!(
            (mt.strategy, mt.cost_hybrid, mt.cost_value_masking),
            (c.strategy, c.cost_hybrid, c.cost_value_masking),
            "{label}"
        );
        assert_eq!(
            (mt.cost_key_masking, &mt.explanation),
            (c.cost_key_masking, &c.explanation),
            "{label}"
        );
        writeln!(
            got,
            "{label}: {} hybrid={:?} vm={:?} km={:?}\n  {}",
            c.strategy.name(),
            c.cost_hybrid,
            c.cost_value_masking,
            c.cost_key_masking,
            c.explanation
        )
        .expect("write to a String");
    }
    let path = format!(
        "{}/tests/golden/choose_agg_yardsticks.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        got, want,
        "choose_agg moved a yardstick profile (tests/golden/choose_agg_yardsticks.txt)"
    );
}
