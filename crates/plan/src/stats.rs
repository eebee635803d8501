//! Sampling-based statistics for the planner.
//!
//! The cost models need σ (predicate selectivity) and the group-key
//! cardinality. A real optimizer would use catalog statistics; here the
//! planner samples a bounded number of rows — deterministic (stride
//! sampling) so plans are reproducible.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};

use crate::catalog::Database;
use crate::expr::{Expr, BLOCK};
use swole_storage::Table;

/// Rows examined per estimate.
pub const SAMPLE_SIZE: usize = 2048;

/// Row-count threshold below which NDV is computed exactly (full scan with a
/// hash set) instead of extrapolated from a sample.
const NDV_EXACT_LIMIT: usize = 65_536;

/// How the engine collects and maintains table statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// No catalog statistics: the planner falls back to per-query sampling.
    Off,
    /// Collect statistics when a table is registered or reloaded; refresh
    /// lazily when a table's generation counter moves.
    #[default]
    OnLoad,
    /// [`StatsMode::OnLoad`] plus feedback: observed selectivities from
    /// `EXPLAIN ANALYZE` / metered runs are folded back into the stats so
    /// later plans are costed against reality.
    Adaptive,
}

impl StatsMode {
    /// Short name used by `EXPLAIN` decisions.
    pub fn name(self) -> &'static str {
        match self {
            StatsMode::Off => "off",
            StatsMode::OnLoad => "on-load",
            StatsMode::Adaptive => "adaptive",
        }
    }
}

/// Per-column statistics: value bounds, distinct count, dictionary size.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Minimum value (dictionary columns: minimum code). Exact.
    pub min: i64,
    /// Maximum value (dictionary columns: maximum code). Exact.
    pub max: i64,
    /// Number of distinct values; exact iff [`ColumnStats::ndv_exact`].
    pub ndv: usize,
    /// `true` when `ndv` was computed by full scan (small tables and
    /// dictionary columns), `false` when extrapolated from a sample.
    pub ndv_exact: bool,
    /// [`estimate_distinct`] of the column: the planner's group and
    /// partition counts. Equal to `ndv` when that is not exact; sampled
    /// once per table generation instead of once per plan.
    pub sampled_ndv: usize,
    /// Dictionary size for dictionary-encoded columns, `None` otherwise.
    pub dict_cardinality: Option<usize>,
}

/// Table-level statistics snapshot, tied to a table generation.
///
/// Collected by [`collect_table_stats`] at load time (see
/// [`StatsMode::OnLoad`]), refreshed when the generation counter moves, and
/// — under [`StatsMode::Adaptive`] — annotated with observed filter
/// selectivities from metered executions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Exact row count at collection time.
    pub rows: usize,
    /// Generation of the table contents these stats describe.
    pub generation: u64,
    /// Per-column statistics, keyed by column name.
    pub columns: BTreeMap<String, ColumnStats>,
    /// Most recent observed filter selectivity over this table, fed back
    /// from executed plans under [`StatsMode::Adaptive`].
    pub observed_selectivity: Option<f64>,
}

impl TableStats {
    /// Statistics for one column, if collected.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// `true` when these stats describe `generation` exactly — the
    /// precondition for answering aggregates straight from the catalog.
    pub fn fresh_for(&self, generation: u64) -> bool {
        self.generation == generation
    }
}

/// An engine's statistics snapshots, one [`TableStats`] per table, kept as
/// its [`StatsMode`] says: collected at registration and reload, refreshed
/// lazily when a table's generation counter has moved past the snapshot's,
/// and — under [`StatsMode::Adaptive`] — annotated with what runs observed.
#[derive(Debug)]
pub(crate) struct StatsCatalog {
    mode: StatsMode,
    tables: RwLock<HashMap<String, Arc<TableStats>>>,
}

impl StatsCatalog {
    /// Snapshot every table of `db` (none under [`StatsMode::Off`]).
    pub(crate) fn new(mode: StatsMode, db: &Database) -> StatsCatalog {
        let stats = StatsCatalog {
            mode,
            tables: RwLock::default(),
        };
        for name in db.table_names() {
            stats.reload(db.table(name).expect("registered"));
        }
        stats
    }

    /// How the snapshots are collected and maintained.
    pub(crate) fn mode(&self) -> StatsMode {
        self.mode
    }

    /// Replace `table`'s snapshot after it was (re)loaded.
    pub(crate) fn reload(&self, table: &Table) {
        if self.mode != StatsMode::Off {
            let fresh = Arc::new(collect_table_stats(table));
            let mut map = self.tables.write().unwrap_or_else(|e| e.into_inner());
            map.insert(table.name().to_string(), fresh);
        }
    }

    /// Current snapshot for `name`, refreshed if the table's generation
    /// moved past the snapshot's. `None` when statistics are off or the
    /// table is unknown. Shared, not copied: a plan reads it several times.
    pub(crate) fn for_table(&self, db: &Database, name: &str) -> Option<Arc<TableStats>> {
        if self.mode == StatsMode::Off {
            return None;
        }
        let generation = db.generation(name)?;
        {
            let map = self.tables.read().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = map.get(name) {
                if s.fresh_for(generation) {
                    return Some(s.clone());
                }
            }
        }
        let fresh = Arc::new(collect_table_stats(db.table(name).ok()?));
        let mut map = self.tables.write().unwrap_or_else(|e| e.into_inner());
        let entry = map.entry(name.to_string()).or_insert_with(|| fresh.clone());
        if !entry.fresh_for(generation) {
            *entry = fresh.clone();
        }
        Some(entry.clone())
    }

    /// Fold an observed filter selectivity back into `name`'s snapshot
    /// ([`StatsMode::Adaptive`] only).
    pub(crate) fn observe_selectivity(&self, name: &str, observed: f64) {
        if self.mode != StatsMode::Adaptive {
            return;
        }
        let mut map = self.tables.write().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = map.get_mut(name) {
            Arc::make_mut(s).observed_selectivity = Some(observed);
        }
    }
}

/// Collect a full [`TableStats`] snapshot: exact min/max per column (one
/// sequential scan), exact NDV for small tables and dictionary columns,
/// sampled NDV otherwise.
pub fn collect_table_stats(table: &Table) -> TableStats {
    let n = table.len();
    let mut columns = BTreeMap::new();
    for name in table.column_names() {
        let col = table.column_required(name);
        let dict_cardinality = col.as_dict().map(|d| d.cardinality());
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for i in 0..n {
            let v = col.get_i64(i);
            min = min.min(v);
            max = max.max(v);
        }
        if n == 0 {
            min = 0;
            max = 0;
        }
        let sampled_ndv = estimate_distinct(table, name);
        let (ndv, ndv_exact) = match dict_cardinality {
            Some(card) => (card, true),
            None if n <= NDV_EXACT_LIMIT => {
                let mut seen = std::collections::HashSet::new();
                for i in 0..n {
                    seen.insert(col.get_i64(i));
                }
                (seen.len(), true)
            }
            None => (sampled_ndv, false),
        };
        columns.insert(
            name.to_string(),
            ColumnStats {
                min,
                max,
                ndv,
                ndv_exact,
                sampled_ndv,
                dict_cardinality,
            },
        );
    }
    TableStats {
        rows: n,
        generation: table.generation(),
        columns,
        observed_selectivity: None,
    }
}

/// Estimate the selectivity of `predicate` over `table` by evaluating it,
/// compiled once, on a deterministic sample, a block of row ids at a time.
/// Returns a value in `[0, 1]`; an empty table estimates 0.
///
/// # Panics
/// If `predicate` does not [`Expr::validate`] against `table`.
pub fn estimate_selectivity(table: &Table, predicate: &Expr) -> f64 {
    let n = table.len();
    if n == 0 {
        return 0.0;
    }
    let mut predicate = predicate.compile(table).expect("validated predicate");
    let mut sample = sample_rows(n).map(|r| r as u32);
    let (mut rows, mut hit) = ([0u32; BLOCK], [0i64; BLOCK]);
    let mut hits = 0;
    loop {
        let len = rows
            .iter_mut()
            .zip(&mut sample)
            .map(|(r, s)| *r = s)
            .count();
        if len == 0 {
            break;
        }
        predicate.eval(&rows[..len], &mut hit[..len]);
        hits += hit[..len].iter().filter(|&&h| h != 0).count();
    }
    hits as f64 / SAMPLE_SIZE.min(n) as f64
}

/// Deterministic pseudo-random sample of up to [`SAMPLE_SIZE`] row ids.
///
/// Multiplicative (Fibonacci) hashing of the sample index decorrelates the
/// sample from any periodic structure in the data — a fixed stride would
/// alias badly with, e.g., a `i % k` key column.
///
/// Sample `k` is row `(k · φ mod 2^64) mod n`, kept incrementally rather
/// than divided out per row: adding φ to the product adds `φ mod n` to the
/// row, less `2^64 mod n` when the product wraps.
fn sample_rows(n: usize) -> impl Iterator<Item = usize> {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    // `max(1)`: an empty table takes no sample, but still computes these.
    let (take, m) = (SAMPLE_SIZE.min(n), (n as u64).max(1));
    let (step, wrap) = (PHI % m, (u64::MAX % m + 1) % m);
    let (mut product, mut row) = (0u64, 0u64);
    (0..take).map(move |k| {
        if n <= SAMPLE_SIZE {
            return k;
        }
        let this = row;
        let (next, wrapped) = product.overflowing_add(PHI);
        product = next;
        // Below 3n (no overflow for any table under 2^62 rows) before it
        // is brought back into [0, n).
        row += step + if wrapped { m - wrap } else { 0 };
        row -= m * (row >= m) as u64;
        row -= m * (row >= m) as u64;
        this as usize
    })
}

/// Estimate the number of distinct values in `column` from a strided
/// sample.
///
/// If the sample's distinct count saturates well below the sample size the
/// column is low-cardinality and the sample count is (approximately) the
/// answer; otherwise distinct values keep appearing and we extrapolate
/// linearly — crude, but it only needs to land the hash table in the right
/// cache level for the cost model.
pub fn estimate_distinct(table: &Table, column: &str) -> usize {
    let col = table.column_required(column);
    let n = col.len();
    if n == 0 {
        return 0;
    }
    let sampled = SAMPLE_SIZE.min(n);
    let seen: std::collections::HashSet<i64> = sample_rows(n).map(|r| col.get_i64(r)).collect();
    let d = seen.len();
    if d * 2 < sampled {
        // Saturated: low cardinality.
        d
    } else {
        // Still growing: extrapolate the distinct ratio to the full table.
        ((d as f64 / sampled as f64) * n as f64).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use swole_storage::ColumnData;

    /// The incremental sample is the product formula's, row for row.
    #[test]
    fn sample_rows_are_the_hashed_indexes() {
        let sizes = [1, 2047, 2048, 2049, 65_536, 1_000_003, 3 << 30, 1 << 40];
        for n in sizes {
            let want: Vec<usize> = (0..SAMPLE_SIZE.min(n))
                .map(|k| match n <= SAMPLE_SIZE {
                    true => k,
                    false => ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64) as usize,
                })
                .collect();
            assert_eq!(sample_rows(n).collect::<Vec<_>>(), want, "{n} rows");
        }
    }

    fn table(n: usize, card: i64) -> Table {
        Table::new("t").with_column(
            "x",
            ColumnData::I64((0..n as i64).map(|i| i % card).collect()),
        )
    }

    #[test]
    fn selectivity_estimates_are_close() {
        let t = table(100_000, 100);
        for lit in [0i64, 25, 50, 100] {
            let pred = Expr::col("x").cmp(CmpOp::Lt, Expr::lit(lit));
            let est = estimate_selectivity(&t, &pred);
            let truth = lit as f64 / 100.0;
            assert!((est - truth).abs() < 0.05, "lit={lit} est={est}");
        }
    }

    #[test]
    fn empty_table_is_zero() {
        let t = table(0, 1);
        let pred = Expr::col("x").cmp(CmpOp::Lt, Expr::lit(5));
        assert_eq!(estimate_selectivity(&t, &pred), 0.0);
        assert_eq!(estimate_distinct(&t, "x"), 0);
    }

    #[test]
    fn distinct_low_cardinality_is_exactish() {
        let t = table(100_000, 10);
        let d = estimate_distinct(&t, "x");
        assert!((8..=12).contains(&d), "d={d}");
    }

    #[test]
    fn distinct_high_cardinality_extrapolates() {
        // All-distinct column: the estimate must land near n, certainly the
        // right order of magnitude for cache-level decisions.
        let t = Table::new("t").with_column("x", ColumnData::I64((0..100_000i64).collect()));
        let d = estimate_distinct(&t, "x");
        assert!(d > 50_000, "d={d}");
    }

    #[test]
    fn collected_stats_are_exact_on_small_tables() {
        let t = Table::new("t")
            .with_column("x", ColumnData::I64(vec![5, -3, 9, 5, 0]))
            .with_column("y", ColumnData::I8(vec![1, 1, 2, 2, 2]));
        let s = collect_table_stats(&t);
        assert_eq!(s.rows, 5);
        let x = s.column("x").unwrap();
        assert_eq!((x.min, x.max, x.ndv, x.ndv_exact), (-3, 9, 4, true));
        let y = s.column("y").unwrap();
        assert_eq!((y.min, y.max, y.ndv), (1, 2, 2));
        assert!(y.dict_cardinality.is_none());
        assert!(s.fresh_for(0));
        assert!(!s.fresh_for(1));
    }

    #[test]
    fn collected_stats_cover_dict_columns() {
        use swole_storage::DictColumn;
        let t = Table::new("t").with_column(
            "tag",
            ColumnData::Dict(DictColumn::encode(&["a", "b", "a", "c"])),
        );
        let s = collect_table_stats(&t);
        let tag = s.column("tag").unwrap();
        assert_eq!(tag.dict_cardinality, Some(3));
        assert_eq!(tag.ndv, 3);
        assert!(tag.ndv_exact);
    }

    #[test]
    fn collected_stats_sample_large_ndv() {
        let t = Table::new("t").with_column("x", ColumnData::I64((0..100_000i64).collect()));
        let s = collect_table_stats(&t);
        let x = s.column("x").unwrap();
        assert_eq!((x.min, x.max), (0, 99_999));
        assert!(!x.ndv_exact);
        assert!(x.ndv > 50_000, "ndv={}", x.ndv);
        assert_eq!(x.sampled_ndv, x.ndv);
    }

    /// 50 000 seeded rows, one column of every storage type: more rows
    /// than one sample, few enough that every `ndv` is exact.
    fn seeded_table() -> Table {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use swole_storage::DictColumn;
        const N: usize = 50_000;
        let mut rng = SmallRng::seed_from_u64(36);
        let mut col = |f: &mut dyn FnMut(&mut SmallRng) -> i64| -> Vec<i64> {
            (0..N).map(|_| f(&mut rng)).collect()
        };
        let a = col(&mut |r| r.gen_range(-50i64..50));
        let b = col(&mut |r| r.gen_range(0i64..1000));
        let c = col(&mut |r| r.gen_range(-1_000_000i64..1_000_000));
        let d = col(&mut |r| r.gen_range(0i64..10));
        let e = col(&mut |r| r.gen_range(0i64..40_000));
        let s = col(&mut |r| r.gen_range(0i64..5));
        let words = [
            "PROMO BRUSHED",
            "STANDARD",
            "PROMO PLATED",
            "ECONOMY",
            "LARGE",
        ];
        Table::new("t")
            .with_column("a", ColumnData::I8(a.iter().map(|&v| v as i8).collect()))
            .with_column("b", ColumnData::I16(b.iter().map(|&v| v as i16).collect()))
            .with_column("c", ColumnData::I32(c.iter().map(|&v| v as i32).collect()))
            .with_column("d", ColumnData::I64(d))
            .with_column("e", ColumnData::U32(e.iter().map(|&v| v as u32).collect()))
            .with_column(
                "s",
                ColumnData::Dict(DictColumn::encode(
                    &s.iter().map(|&v| words[v as usize]).collect::<Vec<_>>(),
                )),
            )
    }

    /// The planner's choices rest on these numbers: the sampled σ of every
    /// expression kind over every column type, and the sampled distinct
    /// counts, pinned bit for bit to what the row-wise evaluator the
    /// compiled one replaced computed.
    #[test]
    fn estimates_are_pinned() {
        use crate::expr::CmpOp::*;
        let t = seeded_table();
        let c = Expr::col;
        let bx = Box::new;
        let like = |p: &str| Expr::Like {
            col: "s".into(),
            pattern: p.into(),
        };
        let not = |e: Expr| Expr::Not(bx(e));
        let div = |a: Expr, b: Expr| Expr::Div(bx(a), bx(b));
        let add = |a: Expr, b: Expr| Expr::Add(bx(a), bx(b));
        let sub = |a: Expr, b: Expr| Expr::Sub(bx(a), bx(b));
        let cases: [(Expr, f64); 10] = [
            (c("a").cmp(Lt, Expr::lit(0)), PINNED_SIGMA[0]),
            (
                c("b")
                    .cmp(Ge, Expr::lit(500))
                    .and(c("d").cmp(Eq, Expr::lit(3))),
                PINNED_SIGMA[1],
            ),
            (like("PROMO%"), PINNED_SIGMA[2]),
            (
                Expr::InList {
                    col: "s".into(),
                    values: vec!["STANDARD".into(), "LARGE".into(), "NONE".into()],
                },
                PINNED_SIGMA[3],
            ),
            (not(c("c").cmp(Gt, Expr::lit(0))), PINNED_SIGMA[4]),
            (
                c("a")
                    .cmp(Gt, Expr::lit(40))
                    .or(c("e").cmp(Lt, Expr::lit(1000))),
                PINNED_SIGMA[5],
            ),
            (
                Expr::Case {
                    when: bx(c("d").cmp(Lt, Expr::lit(5))),
                    then: bx(c("b")),
                    otherwise: bx(c("c")),
                }
                .cmp(Gt, Expr::lit(300)),
                PINNED_SIGMA[6],
            ),
            (
                div(c("c"), add(c("d"), Expr::lit(1))).cmp(Gt, Expr::lit(1000)),
                PINNED_SIGMA[7],
            ),
            (
                div(sub(c("a").mul(c("b")), c("c")), Expr::lit(7)).cmp(Le, c("e")),
                PINNED_SIGMA[8],
            ),
            (
                not(like("%PLATED").or(c("d").cmp(Eq, Expr::lit(9))))
                    .and(c("b").cmp(Lt, Expr::lit(700)))
                    .and(c("s").cmp(Ne, Expr::lit(3))),
                PINNED_SIGMA[9],
            ),
        ];
        for (i, (pred, want)) in cases.iter().enumerate() {
            let got = estimate_selectivity(&t, pred);
            assert_eq!(got.to_bits(), want.to_bits(), "σ #{i} {pred:?}: {got:?}");
        }
        let stats = collect_table_stats(&t);
        for (name, want) in ["a", "b", "c", "d", "e", "s"].iter().zip(PINNED_DISTINCT) {
            assert_eq!(estimate_distinct(&t, name), want, "distinct {name}");
            let col = stats.column(name).unwrap();
            assert_eq!(col.sampled_ndv, want, "snapshot of {name}");
            assert!(col.ndv_exact, "{name}: every ndv here is exact");
        }
    }

    /// Computed by the row-wise evaluator at the parent commit.
    const PINNED_SIGMA: [f64; 10] = [
        0.5107421875,
        0.04638671875,
        0.41162109375,
        0.39892578125,
        0.49560546875,
        0.10595703125,
        0.595703125,
        0.50244140625,
        0.5703125,
        0.494140625,
    ];
    const PINNED_DISTINCT: [usize; 6] = [100, 862, 49_976, 10, 48_608, 5];

    #[test]
    fn empty_table_stats_are_sane() {
        let t = Table::new("t").with_column("x", ColumnData::I64(vec![]));
        let s = collect_table_stats(&t);
        assert_eq!(s.rows, 0);
        let x = s.column("x").unwrap();
        assert_eq!((x.min, x.max, x.ndv), (0, 0, 0));
    }

    #[test]
    fn small_table_sampled_fully() {
        let t = table(100, 7);
        assert_eq!(estimate_distinct(&t, "x"), 7);
        let pred = Expr::col("x").cmp(CmpOp::Lt, Expr::lit(3));
        let est = estimate_selectivity(&t, &pred);
        assert!((est - 3.0 / 7.0).abs() < 0.02);
    }
}
