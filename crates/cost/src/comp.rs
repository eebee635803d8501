//! Estimating the `comp` term by introspection.
//!
//! § III-A: "if the aggregation is compute-bound, the model will use the
//! cost `comp` (in cycles) of that computation, which can be estimated
//! through introspection \[4\]". Tupleware's introspection inspects the
//! operation mix of the UDF/expression; here the planner walks the
//! aggregate expression and feeds per-operator throughput costs into
//! [`comp_cycles`].

/// Arithmetic operator classes with distinct throughput costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Integer add/subtract (and the accumulate itself).
    AddSub,
    /// Integer multiply.
    Mul,
    /// Integer divide/modulo — the expensive one (Fig. 8b exists because of
    /// this).
    Div,
    /// Comparison / boolean logic.
    Cmp,
}

impl ArithOp {
    /// Approximate reciprocal throughput in cycles on a modern x86-64 core
    /// (throughput, not latency: aggregation loops pipeline independent
    /// tuples).
    pub fn cycles(self) -> f64 {
        match self {
            ArithOp::AddSub | ArithOp::Cmp => 0.5,
            ArithOp::Mul => 1.0,
            ArithOp::Div => 25.0,
        }
    }
}

/// Estimate the per-tuple computation cost of an expression from its
/// operator histogram.
pub fn comp_cycles(ops: &[(ArithOp, usize)]) -> f64 {
    ops.iter()
        .map(|&(op, count)| op.cycles() * count as f64)
        .sum()
}

/// Convenience: the `a OP b` aggregate of the microbenchmarks (one binary
/// op plus the accumulate).
pub fn simple_agg_comp(op: ArithOp) -> f64 {
    comp_cycles(&[(op, 1), (ArithOp::AddSub, 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn division_dominates() {
        assert!(simple_agg_comp(ArithOp::Div) > 10.0 * simple_agg_comp(ArithOp::Mul));
        assert!(simple_agg_comp(ArithOp::Mul) < simple_agg_comp(ArithOp::Div));
    }

    #[test]
    fn histogram_sums() {
        let c = comp_cycles(&[(ArithOp::Mul, 2), (ArithOp::AddSub, 3)]);
        assert_eq!(c, 2.0 * 1.0 + 3.0 * 0.5);
        assert_eq!(comp_cycles(&[]), 0.0);
    }
}
