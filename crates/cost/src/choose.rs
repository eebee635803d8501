//! The strategy chooser — Fig. 2's technique/operator/heuristic matrix as
//! executable decisions.
//!
//! Every chooser returns the evaluated model costs alongside the decision so
//! callers (the planner's `EXPLAIN`, the `advisor` example) can show *why*
//! a strategy was picked.

use std::fmt;

use crate::{model, CostParams};

/// Aggregation strategies the chooser can pick between (§§ III-A, III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggStrategy {
    /// Prepass + selection vector + conditional aggregation (the fallback
    /// when pullups don't pay: "we can simply fall back to generating code
    /// using the hybrid strategy").
    Hybrid,
    /// Value masking (§ III-A): unconditional aggregation, masked values.
    ValueMasking,
    /// Key masking (§ III-B): unconditional aggregation, masked group keys
    /// routed to the throwaway entry.
    KeyMasking,
}

impl AggStrategy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AggStrategy::Hybrid => "hybrid",
            AggStrategy::ValueMasking => "value-masking",
            AggStrategy::KeyMasking => "key-masking",
        }
    }

    /// The cost-term label under which plans record this strategy's price.
    /// Single source of truth for the planner's `cost_terms` entries and the
    /// static verifier's cost-term cross-check.
    pub fn cost_term(self) -> &'static str {
        match self {
            AggStrategy::Hybrid => "agg.hybrid",
            AggStrategy::ValueMasking => "agg.value-masking",
            AggStrategy::KeyMasking => "agg.key-masking",
        }
    }
}

/// What the chooser needs to know about an aggregation pipeline.
#[derive(Debug, Clone, Copy)]
pub struct AggProfile {
    /// Input rows (R).
    pub rows: usize,
    /// Estimated predicate selectivity σ_R in `[0, 1]`.
    pub selectivity: f64,
    /// Estimated per-tuple computation cycles (see [`crate::comp`]).
    pub comp: f64,
    /// Columns the aggregation reads (group key + aggregate inputs) — the
    /// width of the wasted work a pullup performs.
    pub n_cols: usize,
    /// Estimated distinct group keys; `None` for a scalar aggregate.
    pub group_keys: Option<usize>,
    /// Aggregate state slots per group (drives hash-table size, and the
    /// masking overhead of value masking: "the complexity of the
    /// aggregation would require masking many individual aggregate values"
    /// — § IV-A Q1).
    pub n_aggs: usize,
}

/// The chooser's decision plus the evidence.
#[derive(Debug, Clone)]
pub struct AggChoice {
    /// Winning strategy.
    pub strategy: AggStrategy,
    /// Modelled cost of the hybrid fallback.
    pub cost_hybrid: f64,
    /// Modelled cost of value masking.
    pub cost_value_masking: f64,
    /// Modelled cost of key masking (group-by only).
    pub cost_key_masking: Option<f64>,
    /// One-line justification for EXPLAIN output.
    pub explanation: String,
}

/// The group table a grouped aggregation upserts into, as the chooser
/// prices it (a scalar aggregate has none, and ignores this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupTableCost {
    /// The open-addressing hash table of § III-B, sized from the profile's
    /// keys by [`CostParams::agg_table_bytes`]: the paper's model.
    Hash,
    /// An array of `bytes` indexed by the key itself, over a key domain the
    /// catalog gives exactly (priced by [`CostParams::dense_upsert`]).
    Dense {
        /// Size of the array, as the executor allocates it per worker.
        bytes: usize,
    },
}

/// The group table a decision's explanation names, written into it
/// without a string of its own.
#[derive(Clone, Copy)]
enum TableNote {
    Scalar,
    Hash(usize),
    Dense(usize),
}

impl fmt::Display for TableNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TableNote::Scalar => Ok(()),
            TableNote::Hash(bytes) => write!(f, "ht={}KB", bytes / 1024),
            TableNote::Dense(bytes) => write!(f, "dense {bytes} B"),
        }
    }
}

/// Choose among hybrid / value masking / key masking for an aggregation,
/// a grouped one priced on the paper's hash table
/// ([`GroupTableCost::Hash`]).
pub fn choose_agg(p: &CostParams, prof: &AggProfile) -> AggChoice {
    choose_agg_on(p, prof, GroupTableCost::Hash)
}

/// [`choose_agg`] for a grouped aggregation that upserts into `table`.
///
/// On a dense array every strategy's upsert is priced at
/// [`CostParams::dense_upsert`], and key masking is priced as value
/// masking: § III-B's saving is that masked lanes hit a cached throwaway
/// entry instead of missing on a large hash table, but an array indexed by
/// the key has no miss to save, and its masked lanes all upsert one slot —
/// a serial chain. Every lane upserts under both, so key masking is never
/// cheaper, and a tie goes to value masking.
fn choose_agg_on(p: &CostParams, prof: &AggProfile, table: GroupTableCost) -> AggChoice {
    let (rows, sel, comp, n_cols) = (prof.rows as f64, prof.selectivity, prof.comp, prof.n_cols);
    // Value masking masks every individual aggregate value; its effective
    // comp grows with the number of aggregates (§ IV-A Q1).
    let vm_comp = comp + prof.n_aggs.saturating_sub(1) as f64;
    let (cost_hybrid, cost_vm, cost_km, note) = match (prof.group_keys, table) {
        (Some(_), GroupTableCost::Dense { bytes }) => {
            let upsert = p.dense_upsert(bytes);
            let cost_vm = model::est_value_masking(p, rows, vm_comp, n_cols, upsert);
            (
                model::est_hybrid(p, rows, sel, comp, n_cols, upsert),
                cost_vm,
                Some(cost_vm),
                TableNote::Dense(bytes),
            )
        }
        (Some(keys), GroupTableCost::Hash) => {
            let ht_bytes = CostParams::agg_table_bytes(keys, prof.n_aggs);
            let ht_lookup = p.ht_lookup(ht_bytes);
            (
                model::est_hybrid(p, rows, sel, comp, n_cols, ht_lookup),
                model::est_value_masking(p, rows, vm_comp, n_cols, ht_lookup),
                Some(model::est_key_masking(
                    p, rows, sel, comp, n_cols, ht_lookup,
                )),
                TableNote::Hash(ht_bytes),
            )
        }
        (None, _) => (
            model::est_hybrid(p, rows, sel, comp, n_cols, 0.0),
            model::est_value_masking(p, rows, vm_comp, n_cols, 0.0),
            None,
            TableNote::Scalar,
        ),
    };

    let mut best = (AggStrategy::Hybrid, cost_hybrid);
    if cost_vm < best.1 {
        best = (AggStrategy::ValueMasking, cost_vm);
    }
    if let Some(km) = cost_km {
        if km < best.1 {
            best = (AggStrategy::KeyMasking, km);
        }
    }
    let (sel_pct, wasted_pct) = (sel * 100.0, (1.0 - sel) * 100.0);
    let explanation = match (best.0, note) {
        (AggStrategy::Hybrid, TableNote::Scalar) => {
            format!("hybrid: early filtering pays off (sel={sel_pct:.0}%, comp={comp:.1} cyc)")
        }
        (AggStrategy::Hybrid, _) => format!(
            "hybrid: early filtering pays off (sel={sel_pct:.0}%, comp={comp:.1} cyc, {note})"
        ),
        // The paper's line names no hash table; a dense one is named.
        (AggStrategy::ValueMasking, TableNote::Dense(_)) => format!(
            "value-masking: aggregation is memory-bound; sequential access beats \
             filtering despite {wasted_pct:.0}% wasted work ({note})"
        ),
        (AggStrategy::ValueMasking, _) => format!(
            "value-masking: aggregation is memory-bound; sequential access beats \
             filtering despite {wasted_pct:.0}% wasted work"
        ),
        (AggStrategy::KeyMasking, _) => format!(
            "key-masking: masked keys hit the cached throwaway entry instead of \
             {} unconditional value maskings ({note})",
            prof.n_aggs,
        ),
    };
    AggChoice {
        strategy: best.0,
        cost_hybrid,
        cost_value_masking: cost_vm,
        cost_key_masking: cost_km,
        explanation,
    }
}

/// How the build side of a positional bitmap is written (§ III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitmapBuild {
    /// Unconditionally assign the predicate result bit per tuple.
    Unconditional,
    /// Set bits through a selection vector (for selective predicates).
    SelectionVector,
}

/// Semijoin strategies (§ III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemiJoinStrategy {
    /// Build + probe a hash key set (the baseline).
    Hash,
    /// Positional bitmap probed through the FK index.
    PositionalBitmap(BitmapBuild),
}

impl SemiJoinStrategy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SemiJoinStrategy::Hash => "hash",
            SemiJoinStrategy::PositionalBitmap(_) => "positional-bitmap",
        }
    }
}

/// Inputs for the semijoin chooser.
#[derive(Debug, Clone, Copy)]
pub struct SemiJoinProfile {
    /// Build-side rows (the side the bitmap/key-set is built over).
    pub build_rows: usize,
    /// Build-side predicate selectivity.
    pub build_selectivity: f64,
    /// `true` if a foreign-key index maps probe rows to build positions —
    /// the precondition for positional bitmaps.
    pub has_fk_index: bool,
}

/// Decision + evidence for a semijoin.
#[derive(Debug, Clone)]
pub struct SemiJoinChoice {
    /// Winning strategy.
    pub strategy: SemiJoinStrategy,
    /// One-line justification.
    pub explanation: String,
}

/// Choose the semijoin implementation. Per Fig. 2 the positional bitmap is
/// "always better" whenever the FK index exists; the build variant is
/// decided by the value-masking cost model applied to the build scan.
pub fn choose_semijoin(p: &CostParams, prof: &SemiJoinProfile) -> SemiJoinChoice {
    if !prof.has_fk_index {
        return SemiJoinChoice {
            strategy: SemiJoinStrategy::Hash,
            explanation: "hash semijoin: no foreign-key index, positional probe impossible".into(),
        };
    }
    let rows = prof.build_rows as f64;
    // Build-side writes: unconditional assignment is a sequential store
    // (VM-style); selection-vector sets are conditional stores (hybrid).
    let uncond = model::paper_value_masking(p, rows, 0.0, 0.0);
    let selvec = model::paper_hybrid(p, rows, prof.build_selectivity, 0.0);
    let build = if uncond <= selvec {
        BitmapBuild::Unconditional
    } else {
        BitmapBuild::SelectionVector
    };
    SemiJoinChoice {
        strategy: SemiJoinStrategy::PositionalBitmap(build),
        explanation: format!(
            "positional bitmap (build: {}): FK-index probe replaces hash lookups",
            match build {
                BitmapBuild::Unconditional => "unconditional assign",
                BitmapBuild::SelectionVector => "selection vector",
            }
        ),
    }
}

/// Groupjoin strategies (§ III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupJoinStrategy {
    /// Traditional groupjoin: filtered build, per-probe lookup.
    GroupJoin,
    /// Eager aggregation: unconditional aggregate on the probe side, then
    /// delete non-qualifying keys.
    EagerAggregation,
}

impl GroupJoinStrategy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            GroupJoinStrategy::GroupJoin => "groupjoin",
            GroupJoinStrategy::EagerAggregation => "eager-aggregation",
        }
    }

    /// The cost-term label under which plans record this strategy's price
    /// (see [`AggStrategy::cost_term`]).
    pub fn cost_term(self) -> &'static str {
        match self {
            GroupJoinStrategy::GroupJoin => "groupjoin",
            GroupJoinStrategy::EagerAggregation => "eager-aggregation",
        }
    }
}

/// Inputs for the groupjoin chooser.
#[derive(Debug, Clone, Copy)]
pub struct GroupJoinProfile {
    /// Probe-side rows (R — the side that gets aggregated).
    pub r_rows: usize,
    /// Probe-side predicate selectivity σ_R.
    pub r_selectivity: f64,
    /// Build-side rows (S).
    pub s_rows: usize,
    /// Build-side predicate selectivity σ_S.
    pub s_selectivity: f64,
    /// Probability a probe tuple finds a match (⋈).
    pub join_match_prob: f64,
    /// Distinct group/join keys.
    pub group_keys: usize,
    /// Per-tuple aggregation computation cycles.
    pub comp: f64,
    /// Aggregate slots per group.
    pub n_aggs: usize,
}

/// Decision + evidence for a groupjoin.
#[derive(Debug, Clone)]
pub struct GroupJoinChoice {
    /// Winning strategy.
    pub strategy: GroupJoinStrategy,
    /// Modelled traditional-groupjoin cost.
    pub cost_groupjoin: f64,
    /// Modelled eager-aggregation cost.
    pub cost_eager: f64,
    /// One-line justification.
    pub explanation: String,
}

/// Choose between the traditional groupjoin and eager aggregation.
pub fn choose_groupjoin(p: &CostParams, prof: &GroupJoinProfile) -> GroupJoinChoice {
    // Traditional groupjoin builds only over qualifying S keys...
    let gj_keys = ((prof.group_keys as f64) * prof.s_selectivity).ceil() as usize;
    let gj_bytes = CostParams::agg_table_bytes(gj_keys.max(1), prof.n_aggs);
    let cost_gj = model::paper_groupjoin(
        p,
        prof.s_rows as f64,
        prof.s_selectivity,
        prof.r_rows as f64,
        prof.r_selectivity,
        prof.join_match_prob,
        prof.comp,
        gj_bytes,
    );
    // ...while eager aggregation's table holds every group key.
    let ea_bytes = CostParams::agg_table_bytes(prof.group_keys.max(1), prof.n_aggs);
    let cost_ea = model::paper_eager_aggregation(
        p,
        prof.r_rows as f64,
        prof.r_selectivity,
        prof.s_rows as f64,
        prof.s_selectivity,
        prof.comp,
        ea_bytes,
    );
    let (strategy, explanation) = if cost_ea < cost_gj {
        (
            GroupJoinStrategy::EagerAggregation,
            format!(
                "eager aggregation: unconditional aggregate ({} keys, {}KB table) then \
                 delete {:.0}% non-qualifying keys",
                prof.group_keys,
                ea_bytes / 1024,
                (1.0 - prof.s_selectivity) * 100.0
            ),
        )
    } else {
        (
            GroupJoinStrategy::GroupJoin,
            format!(
                "groupjoin: too many keys filtered by the join for eager \
                 aggregation to pay (σ_S={:.0}%, {} keys)",
                prof.s_selectivity * 100.0,
                prof.group_keys
            ),
        )
    };
    GroupJoinChoice {
        strategy,
        cost_groupjoin: cost_gj,
        cost_eager: cost_ea,
        explanation,
    }
}

/// Window-function strategies: how the per-row frame state is produced
/// once the qualifying rows are sorted into partition/order position.
///
/// This is the paper's sequential-vs-conditional access trade transplanted
/// to window frames: a running accumulator touches each input value exactly
/// once in sorted (sequential) order, while re-evaluation walks every frame
/// row again for every output row (conditional, frame-dependent access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowStrategy {
    /// One sequential pass per partition: accumulate on entry, and for
    /// bounded `ROWS k PRECEDING` frames subtract the evicted value —
    /// wrapping add/sub are exact inverses, so the running state is
    /// bit-identical to recomputing the frame from scratch.
    SequentialFrameScan,
    /// Re-evaluate the frame for every output row: no carried state, frame
    /// values are re-read (conditionally, per output row) each time.
    ConditionalReeval,
}

impl WindowStrategy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            WindowStrategy::SequentialFrameScan => "seq-frame-scan",
            WindowStrategy::ConditionalReeval => "frame-reeval",
        }
    }

    /// The cost-term label under which plans record this strategy's price
    /// (see [`AggStrategy::cost_term`]).
    pub fn cost_term(self) -> &'static str {
        match self {
            WindowStrategy::SequentialFrameScan => "window.seq-frame",
            WindowStrategy::ConditionalReeval => "window.reeval",
        }
    }
}

/// Inputs for the window-strategy chooser.
#[derive(Debug, Clone, Copy)]
pub struct WindowProfile {
    /// Input rows before the filter.
    pub rows: usize,
    /// Estimated filter selectivity (qualifying fraction).
    pub selectivity: f64,
    /// Estimated distinct partition keys (1 when unpartitioned).
    pub partitions: usize,
    /// Frame rows per output row: `Some(k+1)` for `ROWS k PRECEDING`,
    /// `None` for an unbounded (growing or whole-partition) frame.
    pub frame_rows: Option<usize>,
    /// Number of window functions sharing the frame.
    pub n_funcs: usize,
}

/// Decision + evidence for a window operator.
#[derive(Debug, Clone)]
pub struct WindowChoice {
    /// Winning strategy.
    pub strategy: WindowStrategy,
    /// Modelled sequential-frame-scan cost.
    pub cost_seq_frame: f64,
    /// Modelled conditional-re-evaluation cost.
    pub cost_reeval: f64,
    /// One-line justification.
    pub explanation: String,
}

/// Choose between the sequential frame scan and per-row frame
/// re-evaluation. Both run on the *sorted* qualifying rows, so the
/// decision is purely about frame-state access: the sequential scan pays a
/// constant number of sequential touches per row (accumulate, plus an
/// evict for bounded frames), re-evaluation pays one conditional read per
/// frame row per output row. Re-evaluation can only win when frames are
/// tiny; the chooser keeps it honest rather than hard-coding the winner.
pub fn choose_window(p: &CostParams, prof: &WindowProfile) -> WindowChoice {
    let nq = (prof.rows as f64 * prof.selectivity).max(1.0);
    let funcs = prof.n_funcs.max(1) as f64;
    // Average frame length re-evaluation walks per output row.
    let avg_frame = match prof.frame_rows {
        Some(k) => k.max(1) as f64,
        // A growing (unbounded-preceding) frame averages half the
        // partition; a whole-partition frame reads all of it. Half is the
        // conservative (cheaper) figure, so re-eval is not unfairly ruled
        // out.
        None => (nq / prof.partitions.max(1) as f64 / 2.0).max(1.0),
    };
    // Sequential scan: accumulate each row once; bounded frames also evict
    // one value per row (the subtract-on-evict touch).
    let touches = if prof.frame_rows.is_some() { 2.0 } else { 1.0 };
    let cost_seq = nq * touches * p.read_seq * funcs;
    let cost_reeval = nq * avg_frame * p.read_cond * funcs;
    let (strategy, explanation) = if cost_seq <= cost_reeval {
        (
            WindowStrategy::SequentialFrameScan,
            format!(
                "seq-frame-scan: running state touches each value {}x sequentially \
                 vs {avg_frame:.1} conditional frame reads per row",
                touches as u64
            ),
        )
    } else {
        (
            WindowStrategy::ConditionalReeval,
            format!(
                "frame-reeval: frames are tiny ({avg_frame:.1} rows), re-reading \
                 beats carrying running state"
            ),
        )
    };
    WindowChoice {
        strategy,
        cost_seq_frame: cost_seq,
        cost_reeval,
        explanation,
    }
}

/// Modelled cost of sorting `rows` qualifying rows on `keys` sort keys —
/// the `sort.rows` cost term attached to ORDER BY (and the window
/// operator's internal partition/order sort).
pub fn sort_cost(p: &CostParams, rows: usize, keys: usize) -> f64 {
    let n = rows.max(1) as f64;
    n * n.log2().max(1.0) * p.read_seq * keys.max(1) as f64
}

/// Thread-aware aggregation chooser for the morsel-parallel executor.
///
/// Each candidate's scan cost divides across `threads` workers, and the
/// fixed parallelism overhead ([`CostParams::parallel_overhead`]: worker
/// spawn/join plus merging every thread-local accumulator) adds on top.
/// The overhead is identical for every strategy — each worker's local table
/// holds the same groups regardless of masking flavour — so the *decision*
/// is stable across thread counts by construction; only the reported costs
/// change. That stability is deliberate: a chooser that flipped strategies
/// with the thread count would make parallel speedups incomparable across
/// strategies.
///
/// A grouped aggregation is priced on the `table` the plan runs on (see
/// [`GroupTableCost`]); with [`GroupTableCost::Hash`] and one thread this
/// is exactly [`choose_agg`].
pub fn choose_agg_mt(
    p: &CostParams,
    prof: &AggProfile,
    threads: usize,
    table: GroupTableCost,
) -> AggChoice {
    let mut c = choose_agg_on(p, prof, table);
    if threads > 1 {
        let t = threads as f64;
        let overhead = p.parallel_overhead(threads, prof.group_keys.unwrap_or(1));
        c.cost_hybrid = c.cost_hybrid / t + overhead;
        c.cost_value_masking = c.cost_value_masking / t + overhead;
        c.cost_key_masking = c.cost_key_masking.map(|km| km / t + overhead);
        c.explanation = format!("{} [{}T +{overhead:.1e} cyc par]", c.explanation, threads);
    }
    c
}

/// Thread-aware groupjoin chooser; see [`choose_agg_mt`] for the model.
/// Eager aggregation's thread-local tables hold every group key while the
/// traditional groupjoin's hold only qualifying ones, so here the overhead
/// terms *do* differ — the merge term uses each strategy's own table size.
pub fn choose_groupjoin_mt(
    p: &CostParams,
    prof: &GroupJoinProfile,
    threads: usize,
) -> GroupJoinChoice {
    let mut c = choose_groupjoin(p, prof);
    if threads > 1 {
        let t = threads as f64;
        let gj_keys = ((prof.group_keys as f64) * prof.s_selectivity).ceil() as usize;
        let gj_overhead = p.parallel_overhead(threads, gj_keys.max(1));
        let ea_overhead = p.parallel_overhead(threads, prof.group_keys.max(1));
        c.cost_groupjoin = c.cost_groupjoin / t + gj_overhead;
        c.cost_eager = c.cost_eager / t + ea_overhead;
        // Re-pick with the per-strategy overheads; at realistic sizes the
        // scan term dominates, so this matches the sequential decision.
        let (strategy, note) = if c.cost_eager < c.cost_groupjoin {
            (GroupJoinStrategy::EagerAggregation, "eager aggregation")
        } else {
            (GroupJoinStrategy::GroupJoin, "groupjoin")
        };
        if strategy != c.strategy {
            c.explanation = format!(
                "{note}: parallel merge overhead overturns the sequential pick at {threads} threads"
            );
        } else {
            c.explanation = format!("{} [{}T par]", c.explanation, threads);
        }
        c.strategy = strategy;
    }
    c
}

/// Largest join-edge count for which the order enumerator runs exact
/// subset dynamic programming; beyond it the greedy rank order is used.
pub const JOIN_DP_LIMIT: usize = 6;

/// How a multi-way join probe order was determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrderMethod {
    /// Exact subset-DP enumeration (≤ [`JOIN_DP_LIMIT`] edges).
    Dp,
    /// Greedy rank order (cheapest selectivity-per-cycle first).
    Greedy,
    /// Order pinned by a caller override.
    Pinned,
}

impl JoinOrderMethod {
    /// Short name used by `EXPLAIN` ("order: dp/greedy/pinned").
    pub fn name(self) -> &'static str {
        match self {
            JoinOrderMethod::Dp => "dp",
            JoinOrderMethod::Greedy => "greedy",
            JoinOrderMethod::Pinned => "pinned",
        }
    }
}

/// One join edge (fact → parent membership test) as the order enumerator
/// prices it.
#[derive(Debug, Clone)]
pub struct JoinEdgeProfile {
    /// Build-side (parent) table name — for explanations.
    pub parent: String,
    /// Fraction of probe rows expected to survive this edge's membership
    /// test (clamped to `[0, 1]`).
    pub selectivity: f64,
    /// `true` if the probe goes through a foreign-key index (positional
    /// bitmap); `false` means a hash key-set probe.
    pub has_fk_index: bool,
    /// Bytes of the build-side membership structure — decides the cache
    /// level a hash probe hits.
    pub build_bytes: usize,
}

/// The whole join graph from the fact table's point of view.
#[derive(Debug, Clone)]
pub struct JoinGraphProfile {
    /// Fact-table rows.
    pub fact_rows: usize,
    /// Selectivity of the fact table's own filter.
    pub fact_selectivity: f64,
    /// The edges to order.
    pub edges: Vec<JoinEdgeProfile>,
}

/// Decision + evidence for a join probe order.
#[derive(Debug, Clone)]
pub struct JoinOrderChoice {
    /// Probe order as indices into [`JoinGraphProfile::edges`].
    pub order: Vec<usize>,
    /// How the order was found.
    pub method: JoinOrderMethod,
    /// Modelled probe cycles of the chosen order.
    pub cost: f64,
    /// Modelled probe cycles of the worst enumerated order (DP) or the
    /// reversed greedy order (fallback) — the spread EXPLAIN reports.
    pub worst_cost: f64,
    /// One-line justification.
    pub explanation: String,
}

/// Per-candidate-row probe cycles for one edge: a positional-bitmap probe
/// is an indexed gather plus a bit test; a hash probe pays the lookup at
/// whatever cache level the key set occupies.
fn edge_probe_cycles(p: &CostParams, e: &JoinEdgeProfile) -> f64 {
    if e.has_fk_index {
        p.read_cond + p.read_seq
    } else {
        p.read_cond + p.ht_lookup(e.build_bytes)
    }
}

/// Cost of probing the edges in `order`: each edge is paid once per row
/// still alive when it runs, so selective edges want to run early and
/// expensive edges late.
fn order_cost(p: &CostParams, prof: &JoinGraphProfile, order: &[usize]) -> f64 {
    let mut alive = prof.fact_rows as f64 * prof.fact_selectivity.clamp(0.0, 1.0);
    let mut total = 0.0;
    for &i in order {
        let e = &prof.edges[i];
        total += alive * edge_probe_cycles(p, e);
        alive *= e.selectivity.clamp(0.0, 1.0);
    }
    total
}

/// Cost (cycles) of probing the graph's edges in an explicit `order` —
/// the same formula [`choose_join_order`] optimizes, exposed so callers
/// can re-score a pinned or already-chosen order against observed
/// selectivities.
pub fn join_order_cost(p: &CostParams, prof: &JoinGraphProfile, order: &[usize]) -> f64 {
    order_cost(p, prof, order)
}

/// Greedy rank order: ascending `cycles / (1 − selectivity)` — the classic
/// predicate-sequencing rank, cheap-and-selective first.
fn greedy_order(p: &CostParams, prof: &JoinGraphProfile) -> Vec<usize> {
    let mut order: Vec<usize> = (0..prof.edges.len()).collect();
    order.sort_by(|&a, &b| {
        let rank = |i: usize| {
            let e = &prof.edges[i];
            let drop = (1.0 - e.selectivity.clamp(0.0, 1.0)).max(1e-9);
            edge_probe_cycles(p, e) / drop
        };
        rank(a)
            .partial_cmp(&rank(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| prof.edges[a].parent.cmp(&prof.edges[b].parent))
    });
    order
}

/// Choose a probe order for a multi-way FK join: exact subset DP for up to
/// [`JOIN_DP_LIMIT`] edges, greedy rank order beyond. The DP state is the
/// set of edges already probed; the surviving cardinality entering the next
/// edge is order-independent (a product of selectivities), which makes the
/// subset recurrence exact for this cost shape.
pub fn choose_join_order(p: &CostParams, prof: &JoinGraphProfile) -> JoinOrderChoice {
    let n = prof.edges.len();
    if n == 0 {
        return JoinOrderChoice {
            order: Vec::new(),
            method: JoinOrderMethod::Dp,
            cost: 0.0,
            worst_cost: 0.0,
            explanation: "no join edges".into(),
        };
    }
    if n > JOIN_DP_LIMIT {
        let order = greedy_order(p, prof);
        let cost = order_cost(p, prof, &order);
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        let worst_cost = order_cost(p, prof, &reversed);
        return JoinOrderChoice {
            order,
            method: JoinOrderMethod::Greedy,
            cost,
            worst_cost,
            explanation: format!(
                "greedy rank order over {n} edges (> dp limit {JOIN_DP_LIMIT}): \
                 {cost:.1e} cyc vs {worst_cost:.1e} reversed"
            ),
        };
    }

    // Subset DP, simultaneously tracking the cheapest and the most
    // expensive completion so EXPLAIN can report the enumerated spread.
    let base = prof.fact_rows as f64 * prof.fact_selectivity.clamp(0.0, 1.0);
    let full = (1usize << n) - 1;
    let mut best = vec![f64::INFINITY; 1 << n];
    let mut worst = vec![f64::NEG_INFINITY; 1 << n];
    let mut best_last = vec![usize::MAX; 1 << n];
    best[0] = 0.0;
    worst[0] = 0.0;
    for mask in 1..=full {
        // Cardinality alive after probing the edges *not* in `mask` is
        // irrelevant; what matters is the rows alive *entering* the last
        // edge of `mask`, i.e. after the edges of `mask \ {e}` ran.
        for e in 0..n {
            if mask & (1 << e) == 0 {
                continue;
            }
            let prev = mask & !(1 << e);
            let mut alive = base;
            for o in 0..n {
                if prev & (1 << o) != 0 {
                    alive *= prof.edges[o].selectivity.clamp(0.0, 1.0);
                }
            }
            let step = alive * edge_probe_cycles(p, &prof.edges[e]);
            if best[prev] + step < best[mask] {
                best[mask] = best[prev] + step;
                best_last[mask] = e;
            }
            if worst[prev] + step > worst[mask] {
                worst[mask] = worst[prev] + step;
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let e = best_last[mask];
        order.push(e);
        mask &= !(1 << e);
    }
    order.reverse();
    JoinOrderChoice {
        order,
        method: JoinOrderMethod::Dp,
        cost: best[full],
        worst_cost: worst[full],
        explanation: format!(
            "dp over {} orders of {n} edges: best {:.1e} cyc, worst {:.1e} cyc",
            (1..=n).product::<usize>(),
            best[full],
            worst[full]
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::{simple_agg_comp, ArithOp};

    fn p() -> CostParams {
        CostParams::default()
    }

    fn edge(
        parent: &str,
        selectivity: f64,
        has_fk_index: bool,
        build_bytes: usize,
    ) -> JoinEdgeProfile {
        JoinEdgeProfile {
            parent: parent.into(),
            selectivity,
            has_fk_index,
            build_bytes,
        }
    }

    #[test]
    fn join_order_puts_selective_edges_first() {
        let prof = JoinGraphProfile {
            fact_rows: 1_000_000,
            fact_selectivity: 1.0,
            edges: vec![
                edge("wide", 0.9, true, 1024),
                edge("narrow", 0.01, true, 1024),
                edge("mid", 0.5, true, 1024),
            ],
        };
        let c = choose_join_order(&p(), &prof);
        assert_eq!(c.method, JoinOrderMethod::Dp);
        // Equal probe cost per edge → pure selectivity ordering.
        assert_eq!(c.order, vec![1, 2, 0], "{}", c.explanation);
        assert!(c.cost < c.worst_cost, "{}", c.explanation);
    }

    #[test]
    fn join_order_defers_expensive_probes() {
        // A selective but expensive hash probe (big key set, no FK index)
        // can lose the front slot to a slightly less selective bitmap probe.
        let prof = JoinGraphProfile {
            fact_rows: 1_000_000,
            fact_selectivity: 1.0,
            edges: vec![
                edge("hash_big", 0.4, false, 64 << 20),
                edge("bitmap", 0.5, true, 1024),
            ],
        };
        let c = choose_join_order(&p(), &prof);
        assert_eq!(c.order[0], 1, "{}", c.explanation);
    }

    #[test]
    fn join_order_dp_matches_brute_force() {
        let prof = JoinGraphProfile {
            fact_rows: 500_000,
            fact_selectivity: 0.7,
            edges: vec![
                edge("a", 0.3, true, 512),
                edge("b", 0.8, false, 2 << 20),
                edge("c", 0.1, false, 256),
                edge("d", 0.6, true, 4096),
            ],
        };
        let c = choose_join_order(&p(), &prof);
        // Brute-force all 24 permutations.
        let mut best = f64::INFINITY;
        let mut worst = f64::NEG_INFINITY;
        let idx = [0usize, 1, 2, 3];
        for a in idx {
            for b in idx {
                for cc in idx {
                    for d in idx {
                        let perm = [a, b, cc, d];
                        let mut seen = [false; 4];
                        if perm.iter().any(|&i| std::mem::replace(&mut seen[i], true)) {
                            continue;
                        }
                        let cost = order_cost(&p(), &prof, &perm);
                        best = best.min(cost);
                        worst = worst.max(cost);
                    }
                }
            }
        }
        assert!((c.cost - best).abs() < best * 1e-9, "{} vs {best}", c.cost);
        assert!(
            (c.worst_cost - worst).abs() < worst * 1e-9,
            "{} vs {worst}",
            c.worst_cost
        );
        assert!((order_cost(&p(), &prof, &c.order) - best).abs() < best * 1e-9);
    }

    #[test]
    fn join_order_greedy_beyond_dp_limit() {
        let edges: Vec<JoinEdgeProfile> = (0..8)
            .map(|i| edge(&format!("t{i}"), 0.1 + 0.1 * i as f64, true, 1024))
            .collect();
        let prof = JoinGraphProfile {
            fact_rows: 100_000,
            fact_selectivity: 1.0,
            edges,
        };
        let c = choose_join_order(&p(), &prof);
        assert_eq!(c.method, JoinOrderMethod::Greedy);
        assert_eq!(c.order, (0..8).collect::<Vec<_>>(), "{}", c.explanation);
        assert!(c.cost <= c.worst_cost);
    }

    #[test]
    fn join_order_empty_graph() {
        let prof = JoinGraphProfile {
            fact_rows: 10,
            fact_selectivity: 1.0,
            edges: vec![],
        };
        let c = choose_join_order(&p(), &prof);
        assert!(c.order.is_empty());
        assert_eq!(c.cost, 0.0);
    }

    #[test]
    fn scalar_memory_bound_picks_value_masking() {
        // Fig. 8a: multiplication, mid selectivity — VM wins.
        let choice = choose_agg(
            &p(),
            &AggProfile {
                rows: 100_000_000,
                selectivity: 0.5,
                comp: simple_agg_comp(ArithOp::Mul),
                n_cols: 2,
                group_keys: None,
                n_aggs: 1,
            },
        );
        assert_eq!(
            choice.strategy,
            AggStrategy::ValueMasking,
            "{}",
            choice.explanation
        );
        assert!(choice.cost_key_masking.is_none());
    }

    #[test]
    fn scalar_memory_bound_low_selectivity_picks_hybrid() {
        // Fig. 8a left edge: a near-empty result still favours filtering.
        let choice = choose_agg(
            &p(),
            &AggProfile {
                rows: 100_000_000,
                selectivity: 0.02,
                comp: simple_agg_comp(ArithOp::Mul),
                n_cols: 2,
                group_keys: None,
                n_aggs: 1,
            },
        );
        assert_eq!(choice.strategy, AggStrategy::Hybrid);
    }

    #[test]
    fn scalar_compute_bound_picks_hybrid() {
        // Fig. 8b: division — per the cost model hybrid wins across the
        // range ("if the aggregation is compute-bound, the hybrid approach
        // is superior"); the measured VM advantage at ≥95% comes from
        // unmodelled selection-vector overheads and stays within a few
        // percent.
        for sel in [0.1, 0.5, 0.95] {
            let choice = choose_agg(
                &p(),
                &AggProfile {
                    rows: 100_000_000,
                    selectivity: sel,
                    comp: simple_agg_comp(ArithOp::Div),
                    n_cols: 2,
                    group_keys: None,
                    n_aggs: 1,
                },
            );
            assert_eq!(choice.strategy, AggStrategy::Hybrid, "sel={sel}");
        }
    }

    #[test]
    fn groupby_small_table_prefers_masking_over_hybrid() {
        // Fig. 9a/9b: 10–1K keys — masking beats hybrid at mid selectivity.
        for keys in [10usize, 1000] {
            let choice = choose_agg(
                &p(),
                &AggProfile {
                    rows: 100_000_000,
                    selectivity: 0.5,
                    comp: simple_agg_comp(ArithOp::Mul),
                    n_cols: 3,
                    group_keys: Some(keys),
                    n_aggs: 1,
                },
            );
            assert_ne!(choice.strategy, AggStrategy::Hybrid, "keys={keys}");
        }
    }

    #[test]
    fn groupby_large_table_low_selectivity_picks_hybrid_then_km() {
        // Fig. 9d: 10M keys — hybrid at low selectivity, KM at high.
        let prof = AggProfile {
            rows: 100_000_000,
            selectivity: 0.2,
            comp: simple_agg_comp(ArithOp::Mul),
            n_cols: 3,
            group_keys: Some(10_000_000),
            n_aggs: 1,
        };
        assert_eq!(choose_agg(&p(), &prof).strategy, AggStrategy::Hybrid);
        let high = AggProfile {
            selectivity: 0.9,
            ..prof
        };
        let c = choose_agg(&p(), &high);
        assert_eq!(c.strategy, AggStrategy::KeyMasking, "{}", c.explanation);
    }

    #[test]
    fn groupby_large_table_km_beats_vm() {
        // Fig. 9c/9d: for big tables "value masking becomes markedly worse
        // than key masking".
        let c = choose_agg(
            &p(),
            &AggProfile {
                rows: 100_000_000,
                selectivity: 0.6,
                comp: simple_agg_comp(ArithOp::Mul),
                n_cols: 3,
                group_keys: Some(10_000_000),
                n_aggs: 1,
            },
        );
        assert!(c.cost_key_masking.unwrap() < c.cost_value_masking);
    }

    #[test]
    fn many_aggregates_penalise_value_masking() {
        // § IV-A Q1: complex aggregation (8 aggregates, 4 groups, 98%
        // selectivity) → mask the single key, not 8 values.
        let c = choose_agg(
            &p(),
            &AggProfile {
                rows: 60_000_000,
                selectivity: 0.98,
                comp: 6.0,
                n_cols: 7,
                group_keys: Some(4),
                n_aggs: 8,
            },
        );
        assert_eq!(c.strategy, AggStrategy::KeyMasking, "{}", c.explanation);
        assert!(c.cost_key_masking.unwrap() < c.cost_value_masking);
    }

    #[test]
    fn semijoin_requires_fk_index_for_bitmap() {
        let without = choose_semijoin(
            &p(),
            &SemiJoinProfile {
                build_rows: 1_000_000,
                build_selectivity: 0.5,
                has_fk_index: false,
            },
        );
        assert_eq!(without.strategy, SemiJoinStrategy::Hash);
        let with = choose_semijoin(
            &p(),
            &SemiJoinProfile {
                build_rows: 1_000_000,
                build_selectivity: 0.5,
                has_fk_index: true,
            },
        );
        assert!(matches!(
            with.strategy,
            SemiJoinStrategy::PositionalBitmap(_)
        ));
    }

    #[test]
    fn bitmap_build_variant_follows_selectivity() {
        let selective = choose_semijoin(
            &p(),
            &SemiJoinProfile {
                build_rows: 1_000_000,
                build_selectivity: 0.01,
                has_fk_index: true,
            },
        );
        assert_eq!(
            selective.strategy,
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector)
        );
        let broad = choose_semijoin(
            &p(),
            &SemiJoinProfile {
                build_rows: 1_000_000,
                build_selectivity: 0.9,
                has_fk_index: true,
            },
        );
        assert_eq!(
            broad.strategy,
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional)
        );
    }

    #[test]
    fn groupjoin_chooser_matches_fig12() {
        // |S| = 1K: EA wins across the range (Fig. 12a).
        let small = GroupJoinProfile {
            r_rows: 100_000_000,
            r_selectivity: 1.0,
            s_rows: 1_000,
            s_selectivity: 0.5,
            join_match_prob: 0.5,
            group_keys: 1_000,
            comp: simple_agg_comp(ArithOp::Mul),
            n_aggs: 1,
        };
        assert_eq!(
            choose_groupjoin(&p(), &small).strategy,
            GroupJoinStrategy::EagerAggregation
        );
        // |S| = 1M at low selectivity: groupjoin wins (Fig. 12b).
        let large_low = GroupJoinProfile {
            s_rows: 1_000_000,
            group_keys: 1_000_000,
            s_selectivity: 0.05,
            join_match_prob: 0.05,
            ..small
        };
        let c = choose_groupjoin(&p(), &large_low);
        assert_eq!(
            c.strategy,
            GroupJoinStrategy::GroupJoin,
            "{}",
            c.explanation
        );
        // |S| = 1M at high selectivity: EA takes over (crossover ~30%).
        let large_high = GroupJoinProfile {
            s_selectivity: 0.9,
            join_match_prob: 0.9,
            ..large_low
        };
        assert_eq!(
            choose_groupjoin(&p(), &large_high).strategy,
            GroupJoinStrategy::EagerAggregation
        );
    }

    #[test]
    fn thread_aware_agg_choice_is_stable_and_cheaper() {
        let prof = AggProfile {
            rows: 100_000_000,
            selectivity: 0.5,
            comp: simple_agg_comp(ArithOp::Mul),
            n_cols: 3,
            group_keys: Some(1000),
            n_aggs: 1,
        };
        for table in [GroupTableCost::Hash, GroupTableCost::Dense { bytes: 9009 }] {
            let seq = choose_agg_mt(&p(), &prof, 1, table);
            for threads in [1usize, 2, 4, 8, 64] {
                let mt = choose_agg_mt(&p(), &prof, threads, table);
                assert_eq!(mt.strategy, seq.strategy, "threads={threads}");
                if threads > 1 {
                    assert!(
                        mt.cost_value_masking < seq.cost_value_masking,
                        "big scans must get cheaper with threads"
                    );
                }
            }
        }
        // On the hash table, one thread is exactly the sequential model.
        let mt = choose_agg_mt(&p(), &prof, 1, GroupTableCost::Hash);
        assert_eq!(mt.cost_hybrid, choose_agg(&p(), &prof).cost_hybrid);
    }

    #[test]
    fn thread_aware_groupjoin_choice_is_stable_at_scale() {
        let prof = GroupJoinProfile {
            r_rows: 100_000_000,
            r_selectivity: 1.0,
            s_rows: 1_000_000,
            s_selectivity: 0.9,
            join_match_prob: 0.9,
            group_keys: 1_000_000,
            comp: simple_agg_comp(ArithOp::Mul),
            n_aggs: 1,
        };
        let seq = choose_groupjoin(&p(), &prof);
        for threads in [2usize, 8] {
            let mt = choose_groupjoin_mt(&p(), &prof, threads);
            assert_eq!(mt.strategy, seq.strategy, "threads={threads}");
        }
    }

    #[test]
    fn explanations_are_populated() {
        let c = choose_agg(
            &p(),
            &AggProfile {
                rows: 1000,
                selectivity: 0.5,
                comp: 1.0,
                n_cols: 2,
                group_keys: Some(10),
                n_aggs: 1,
            },
        );
        assert!(!c.explanation.is_empty());
    }
}
