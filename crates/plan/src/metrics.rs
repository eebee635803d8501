//! EXPLAIN ANALYZE: per-operator access-pattern metrics.
//!
//! The paper's entire argument is about access patterns — sequential vs
//! conditional reads, probe locality, the wasted work a pullup accepts —
//! yet a cost model alone can only *predict* them. This module measures
//! them: every operator accumulates [`AccessCounters`] per worker (plain
//! `u64` adds on paths the tile loops already touch), workers merge by
//! field-wise addition exactly like the aggregate accumulators, and the
//! engine attaches a [`QueryMetrics`] snapshot to the result.
//!
//! ## Determinism
//!
//! Tiles partition the input identically regardless of which worker claims
//! which morsel, so every counter that is a sum of per-tile contributions —
//! `rows_in`, `rows_out`, `predicate_evals`, `wasted_lanes`, `ht_probes`,
//! `morsels` — is **bit-identical at any thread count**
//! (`tests/metrics_invariants.rs` asserts this). Hash-table *internals* are
//! not: each worker builds a private table, so probe-chain lengths, resizes
//! and allocation traffic depend on how rows landed per worker. Those are
//! reported ([`OpMetrics::ht`]) but documented as partition-dependent;
//! `ht.inserts` is overridden with the *merged* table's final key count,
//! which is deterministic again.
//!
//! ## Overhead
//!
//! [`MetricsLevel::Off`] adds nothing to the hot loops (every counter add
//! is gated on the level, a predictable branch). [`MetricsLevel::Counters`]
//! adds the gated `u64` adds plus one extra `mask_count` per tile on the
//! masked group-by paths (the only counters not derivable from work the
//! kernel already did) — bounded at <5% on the scaling bench, which
//! measures it. [`MetricsLevel::Timings`] additionally reads a monotonic
//! clock per operator phase (not per tile).

use std::fmt;

use swole_ht::HtCounters;
use swole_kernels::AccessCounters;

/// How much the engine measures while executing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricsLevel {
    /// Measure nothing (default): counter code is branch-predicted away.
    #[default]
    Off,
    /// Per-operator access counters, merged deterministically.
    Counters,
    /// Counters plus wall-clock time per operator phase and per query.
    Timings,
}

impl MetricsLevel {
    /// Lowercase name, as rendered by `EXPLAIN ANALYZE` and JSON.
    pub fn name(self) -> &'static str {
        match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Counters => "counters",
            MetricsLevel::Timings => "timings",
        }
    }

    /// True when access counters are collected.
    #[inline(always)]
    pub fn counting(self) -> bool {
        self >= MetricsLevel::Counters
    }

    /// True when wall-clock phases are measured.
    #[inline(always)]
    pub fn timing(self) -> bool {
        self >= MetricsLevel::Timings
    }
}

/// Counters for one physical operator (one build or probe-aggregate pass).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpMetrics {
    /// Operator name, stable across runs (e.g. `multijoin-agg(lineitem)`).
    pub name: String,
    /// Deterministic access-pattern counters (see module docs).
    pub access: AccessCounters,
    /// Hash-table internals. `inserts` is the merged table's final key
    /// count (deterministic); `probes`, `probe_steps`, `resizes` and
    /// `bytes_allocated` are summed over per-worker private tables and
    /// depend on the morsel partition.
    pub ht: HtCounters,
    /// `true` when the operator's group table was the dense array rather
    /// than the hash table: every probe is then one array access, with no
    /// probe steps and no resizes.
    pub ht_dense: bool,
    /// Positions set in a positional bitmap or byte map this operator
    /// built (0 otherwise).
    pub bitmap_bits_set: u64,
    /// 64-bit words backing that bitmap.
    pub bitmap_words: u64,
    /// Bytes of that byte map, one per parent row.
    pub byte_map_bytes: u64,
    /// Wall-clock nanoseconds for this operator phase
    /// ([`MetricsLevel::Timings`] only, else 0). A statement's operator
    /// walls are disjoint: they sum to at most [`QueryMetrics::elapsed_nanos`].
    pub wall_nanos: u64,
    /// A join edge's probe, run inside its aggregation's loop: the
    /// aggregation's wall holds its time.
    pub fused: bool,
}

impl OpMetrics {
    /// Fresh counters for a named operator.
    pub fn named(name: impl Into<String>) -> OpMetrics {
        OpMetrics {
            name: name.into(),
            ..OpMetrics::default()
        }
    }

    /// Observed selectivity `rows_out / rows_in`, or `None` before any row
    /// was scanned.
    pub fn observed_selectivity(&self) -> Option<f64> {
        self.access.observed_selectivity()
    }
}

/// A complete metrics snapshot for one query execution, attached to
/// [`crate::QueryResult`] and to `EXPLAIN ANALYZE` output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// The level the query executed under.
    pub level: MetricsLevel,
    /// Per-operator counters in pipeline order (build phases first).
    pub operators: Vec<OpMetrics>,
    /// Fallback retries (1 when the SWOLE strategy failed a runtime
    /// precondition and the data-centric interpreter re-ran the query; its
    /// counters then *replace* the failed attempt's, so rows are never
    /// double-counted).
    pub retries: u32,
    /// Peak bytes charged to the query's memory gauge.
    pub bytes_charged: u64,
    /// The plan certificate's statically proven peak-memory bound, when a
    /// certificate was derived. Soundness invariant (asserted by the
    /// conformance harness): `bytes_charged <= bytes_bound`.
    pub bytes_bound: Option<u64>,
    /// End-to-end wall-clock nanoseconds ([`MetricsLevel::Timings`] only).
    pub elapsed_nanos: u64,
    /// The cost model's predicted cycles for the strategy that ran.
    pub predicted_cost: Option<f64>,
    /// The same formula re-evaluated with observed selectivity and observed
    /// group-key count — how the model would have scored this strategy with
    /// perfect estimates.
    pub observed_cost: Option<f64>,
    /// The selectivity the planner priced the primary filter with: the
    /// sampled estimate, or the observed σ after a drift re-plan.
    pub estimated_selectivity: Option<f64>,
}

impl QueryMetrics {
    /// The named operator's counters, if present.
    pub fn op(&self, name: &str) -> Option<&OpMetrics> {
        self.operators.iter().find(|o| o.name == name)
    }

    /// Sum of the deterministic access counters across all operators.
    pub fn total(&self) -> AccessCounters {
        let mut t = AccessCounters::default();
        for o in &self.operators {
            t.merge(&o.access);
        }
        t
    }

    /// Relative error `|predicted - observed| / observed` of the cost
    /// model, when both sides were evaluated.
    pub fn cost_relative_error(&self) -> Option<f64> {
        match (self.predicted_cost, self.observed_cost) {
            (Some(p), Some(o)) => swole_cost::observed::relative_error(p, o),
            _ => None,
        }
    }

    /// Machine-readable JSON (hand-rolled; the workspace has no serde).
    /// Stable key order, suitable for `BENCH_*.json` counter trajectories.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 256 * self.operators.len());
        s.push_str("{\"level\":\"");
        s.push_str(self.level.name());
        s.push_str("\",\"retries\":");
        s.push_str(&self.retries.to_string());
        s.push_str(",\"bytes_charged\":");
        s.push_str(&self.bytes_charged.to_string());
        s.push_str(",\"bytes_bound\":");
        match self.bytes_bound {
            Some(b) => s.push_str(&b.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"elapsed_nanos\":");
        s.push_str(&self.elapsed_nanos.to_string());
        s.push_str(",\"predicted_cost\":");
        push_json_f64(&mut s, self.predicted_cost);
        s.push_str(",\"observed_cost\":");
        push_json_f64(&mut s, self.observed_cost);
        s.push_str(",\"estimated_selectivity\":");
        push_json_f64(&mut s, self.estimated_selectivity);
        s.push_str(",\"operators\":[");
        for (i, o) in self.operators.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_string(&mut s, &o.name);
            for (key, v) in [
                ("rows_in", o.access.rows_in),
                ("rows_out", o.access.rows_out),
                ("predicate_evals", o.access.predicate_evals),
                ("wasted_lanes", o.access.wasted_lanes),
                ("ht_probes", o.access.ht_probes),
                ("morsels", o.access.morsels),
                ("ht_inserts", o.ht.inserts),
                ("ht_probe_steps", o.ht.probe_steps),
                ("ht_resizes", o.ht.resizes),
                ("ht_bytes_allocated", o.ht.bytes_allocated),
                ("bitmap_bits_set", o.bitmap_bits_set),
                ("bitmap_words", o.bitmap_words),
                ("byte_map_bytes", o.byte_map_bytes),
                ("wall_nanos", o.wall_nanos),
            ] {
                s.push_str(",\"");
                s.push_str(key);
                s.push_str("\":");
                s.push_str(&v.to_string());
            }
            s.push_str(",\"ht_dense\":");
            s.push_str(if o.ht_dense { "true" } else { "false" });
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn push_json_f64(s: &mut String, v: Option<f64>) {
    match v {
        Some(x) if x.is_finite() => s.push_str(&format!("{x}")),
        _ => s.push_str("null"),
    }
}

fn push_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

/// `EXPLAIN ANALYZE`'s `analyze` section. Deterministic except the lines
/// containing `ns` (wall-clock), which golden tests normalize away.
impl fmt::Display for QueryMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyze[{}]:", self.level.name())?;
        for o in &self.operators {
            write!(
                f,
                "\n    {}: rows {} -> {}",
                o.name, o.access.rows_in, o.access.rows_out
            )?;
            if let Some(sel) = o.observed_selectivity() {
                write!(f, " (sel {sel:.4})")?;
            }
            write!(
                f,
                ", pred evals {}, wasted lanes {}, ht probes {}, morsels {}",
                o.access.predicate_evals,
                o.access.wasted_lanes,
                o.access.ht_probes,
                o.access.morsels
            )?;
            if o.ht != HtCounters::default() {
                write!(
                    f,
                    "\n      ht{}: {} keys, {} probe steps, {} resizes, {} B allocated",
                    if o.ht_dense { "[dense]" } else { "" },
                    o.ht.inserts,
                    o.ht.probe_steps,
                    o.ht.resizes,
                    o.ht.bytes_allocated
                )?;
            }
            if o.bitmap_words > 0 {
                write!(
                    f,
                    "\n      bitmap: {} bits set, {} words",
                    o.bitmap_bits_set, o.bitmap_words
                )?;
            }
            if o.byte_map_bytes > 0 {
                write!(
                    f,
                    "\n      byte map: {} bytes set, {} bytes",
                    o.bitmap_bits_set, o.byte_map_bytes
                )?;
            }
            if o.wall_nanos > 0 {
                write!(f, "\n      wall: {} ns", o.wall_nanos)?;
            } else if o.fused && self.level.timing() {
                write!(f, "\n      wall: in the aggregation's")?;
            }
        }
        if let Some(p) = self.predicted_cost {
            write!(f, "\n    cost: predicted {p:.3e} cyc")?;
            if let Some(o) = self.observed_cost {
                write!(f, ", observed {o:.3e} cyc")?;
                if let Some(err) = self.cost_relative_error() {
                    write!(f, " (rel err {:.1}%)", err * 100.0)?;
                }
            }
        }
        if let Some(est) = self.estimated_selectivity {
            write!(f, "\n    selectivity: est {est:.4}")?;
            if let Some(obs) = self.operators.iter().find_map(|o| o.observed_selectivity()) {
                write!(f, ", observed {obs:.4}")?;
            }
        }
        write!(
            f,
            "\n    retries: {}, bytes charged: {}",
            self.retries, self.bytes_charged
        )?;
        if let Some(bound) = self.bytes_bound {
            write!(f, ", bytes bound: {bound}")?;
        }
        if self.elapsed_nanos > 0 {
            write!(f, "\n    elapsed: {} ns", self.elapsed_nanos)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates_work() {
        assert!(!MetricsLevel::Off.counting());
        assert!(MetricsLevel::Counters.counting());
        assert!(!MetricsLevel::Counters.timing());
        assert!(MetricsLevel::Timings.counting() && MetricsLevel::Timings.timing());
        assert_eq!(MetricsLevel::default(), MetricsLevel::Off);
    }

    #[test]
    fn json_is_well_formed_and_escapes() {
        let m = QueryMetrics {
            level: MetricsLevel::Counters,
            operators: vec![OpMetrics {
                name: "agg(\"t\\1\")".into(),
                access: AccessCounters {
                    rows_in: 10,
                    rows_out: 3,
                    ..Default::default()
                },
                ..Default::default()
            }],
            retries: 1,
            bytes_charged: 4096,
            predicted_cost: Some(1.5e3),
            ..Default::default()
        };
        let j = m.to_json();
        assert!(j.starts_with("{\"level\":\"counters\""));
        assert!(j.contains("\"retries\":1"));
        assert!(j.contains("\"predicted_cost\":1500"));
        assert!(j.contains("\"observed_cost\":null"));
        assert!(j.contains("\\\"t\\\\1\\\""));
        assert!(j.contains("\"rows_in\":10"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn total_sums_operators() {
        let mut m = QueryMetrics::default();
        for rows in [5u64, 7] {
            m.operators.push(OpMetrics {
                access: AccessCounters {
                    rows_in: rows,
                    ..Default::default()
                },
                ..Default::default()
            });
        }
        assert_eq!(m.total().rows_in, 12);
    }

    #[test]
    fn display_skips_empty_sections() {
        let m = QueryMetrics {
            level: MetricsLevel::Counters,
            operators: vec![OpMetrics::named("agg(t)")],
            ..Default::default()
        };
        let text = m.to_string();
        assert!(text.contains("analyze[counters]:"));
        assert!(!text.contains("ht:"), "empty ht section must be omitted");
        assert!(!text.contains("bitmap:"));
        assert!(!text.contains("wall:"));
        assert!(!text.contains("elapsed:"));
    }
}
