//! File-driven conformance corpus with interpreter-oracle differential
//! testing.
//!
//! The harness discovers plain-text `.slt`-style scripts from
//! `tests/conformance/` at the repository root and runs every record five
//! ways over one deterministic fixture catalog:
//!
//! 1. compiled engine, 1 thread (every stage inline),
//! 2. compiled engine, 2 threads (a 2-worker pool),
//! 3. compiled engine, 4 threads (a 4-worker pool),
//! 4. compiled engine, 8 threads (an 8-worker pool),
//! 5. the row-at-a-time interpreter oracle ([`swole_plan::interp`]).
//!
//! All engine runs execute with [`VerifyLevel::Full`], so every corpus
//! plan also passes static verification before it runs. The contract per
//! `query` record is **bit-identical** results across all five runs *and*
//! agreement with the expected text stored in the file; per `statement`
//! record it is a uniform outcome (all five succeed, or all five fail
//! with a typed error).
//!
//! # Script format
//!
//! Records are separated by blank lines; `#` starts a comment line.
//!
//! ```text
//! # A statement that must plan and execute on every runner.
//! statement ok
//! select count(*) as n from T
//!
//! # A statement that must fail on every runner; the rest of the line is
//! # an optional substring the engine error must contain.
//! statement error unknown table
//! select count(*) as n from nope
//!
//! # A query with expected results: one type char per output column
//! # (I = integer, T = dictionary-decoded text), then a sort mode.
//! query II rowsort
//! select g, count(*) as n from T group by g
//! ----
//! 0 141
//! 1 167
//! ```
//!
//! Sort modes match sqllogictest: `nosort` compares rows in result order
//! (only deterministic outputs may use it — the engine's `ORDER BY` breaks
//! ties by pre-sort position, so ordered queries qualify), `rowsort` sorts
//! the *rendered* rows lexicographically before comparing, `valuesort`
//! sorts every value independently. Set `UPDATE_CONFORM=1` to regenerate
//! every expected block from the (cross-checked) engine output.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use swole_plan::interp;
use swole_plan::{
    parse_sql, Database, Engine, LogicalPlan, QueryOptions, QueryResult, StatsMode, Value,
    VerifyLevel,
};
use swole_storage::{ColumnData, DictColumn, Table};

/// One parsed conformance record.
#[derive(Debug, Clone)]
pub struct Record {
    /// 1-based line of the directive in the script.
    pub line: usize,
    /// Comment/blank lines preceding the directive, kept verbatim so
    /// `UPDATE_CONFORM=1` rewrites round-trip.
    pub prefix: Vec<String>,
    /// What to run and what to expect.
    pub kind: RecordKind,
}

/// The record kinds the harness understands.
#[derive(Debug, Clone)]
pub enum RecordKind {
    /// `control budget <bytes>` / `control budget off`: set (or clear) a
    /// per-query memory budget for every *following* record in the file.
    ///
    /// The budget applies to the engine runners only — the interpreter
    /// oracle has no admission layer, so budgeted records are compared
    /// across the four engines and the oracle is skipped. This is how the
    /// corpus pins admission-certificate behaviour (e.g. a plan whose
    /// proven bound cannot fit is rejected with `BudgetInfeasible`).
    Control {
        /// `Some(bytes)` to impose a budget, `None` to clear it.
        budget: Option<usize>,
    },
    /// `statement ok` / `statement error [substring]`.
    Statement {
        /// The SQL text (possibly joined from multiple lines).
        sql: String,
        /// `None` for `statement ok`; `Some(substring)` for
        /// `statement error` (empty substring matches any error).
        expect_error: Option<String>,
    },
    /// `query <types> [sortmode]` with an expected block.
    Query {
        /// One char per output column: `I` integer, `T` text.
        types: String,
        /// How rendered rows are normalized before comparison.
        sort: SortMode,
        /// The SQL text.
        sql: String,
        /// Expected lines (already normalized under `sort`).
        expected: Vec<String>,
    },
}

/// Row normalization applied before comparing to the expected block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMode {
    /// Compare rows in result order.
    NoSort,
    /// Sort rendered rows lexicographically.
    RowSort,
    /// Sort every rendered value independently, one per line.
    ValueSort,
}

impl SortMode {
    fn name(self) -> &'static str {
        match self {
            SortMode::NoSort => "nosort",
            SortMode::RowSort => "rowsort",
            SortMode::ValueSort => "valuesort",
        }
    }
}

/// Outcome of one script file.
#[derive(Debug)]
pub struct FileOutcome {
    /// Script path.
    pub path: PathBuf,
    /// Records executed.
    pub records: usize,
    /// One message per failed record (empty = file passed).
    pub failures: Vec<String>,
    /// `true` when `UPDATE_CONFORM=1` rewrote the file.
    pub rewritten: bool,
}

/// The five-way differential runner over the shared fixture catalog.
pub struct Harness {
    engines: Vec<(&'static str, Engine)>,
    oracle_db: Database,
}

/// A tiny deterministic PRNG (LCG) so the fixture catalog is identical on
/// every run and platform without pulling in a random-number dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// The conformance fixture catalog: the TPC-H tables at a tiny scale
/// factor (dates, decimals, dictionary strings, FK indexes) plus these
/// purpose-built tables:
///
/// * `R` (5000 rows) / `S` (64 rows) — the microbenchmark shape: value
///   columns `r_a`/`r_b`, group key `r_c`, selection columns `r_x`/`r_y`,
///   and `r_fk` with a registered FK index into `S`.
/// * `T` (1200 rows) — `k` (dense unique), `v` (signed values), `g`
///   (8 groups), `h` (i16 coverage), `tag` (dictionary strings).
/// * `big` (64 rows) — `m` near `i64::MAX / 64`, so `SUM(m)` wraps
///   deterministically on every execution path.
/// * `spike` (2048 rows) — `x = i % 100`; `m` is small where `x < 90` and
///   near `i64::MAX / 2` where `x >= 90`, so the wasted work a masked
///   strategy does on the rows a filter `x < 90` drops wraps, while the
///   kept rows' sums do not; group key `g` (8 groups) and `fk` with a
///   registered FK index into `S`.
/// * `fact` (4000 rows) with dimensions `dim1` (16 rows), `dim2`
///   (200 rows), `dim3` (8 rows) and grandparent `dim4` (32 rows) — the
///   multi-way join fixture. `f_d1` is skewed (nine of ten rows land on
///   three dim1 keys), `f_d2`/`f_d3` are uniform, and `dim2.d2_fk`
///   chains into `dim4` so star, chain, and mixed join shapes all have
///   registered FK paths.
pub fn fixture_db() -> Database {
    let mut db = swole_tpch::catalog::to_database(&swole_tpch::generate(0.002, 42));
    let mut rng = Lcg(0x5eed_c0ff_ee00_0001);

    let n = 5000usize;
    let mut r_a = Vec::with_capacity(n);
    let mut r_b = Vec::with_capacity(n);
    let mut r_c = Vec::with_capacity(n);
    let mut r_x = Vec::with_capacity(n);
    let mut r_y = Vec::with_capacity(n);
    let mut r_fk = Vec::with_capacity(n);
    for _ in 0..n {
        r_a.push(rng.below(100) as i32);
        r_b.push((rng.below(100) - 50) as i32);
        r_c.push(rng.below(16) as i32);
        r_x.push(rng.below(100) as i8);
        r_y.push(rng.below(4) as i8);
        r_fk.push(rng.below(64) as u32);
    }
    db.add_table(
        Table::new("R")
            .with_column("r_a", ColumnData::I32(r_a))
            .with_column("r_b", ColumnData::I32(r_b))
            .with_column("r_c", ColumnData::I32(r_c))
            .with_column("r_x", ColumnData::I8(r_x))
            .with_column("r_y", ColumnData::I8(r_y))
            .with_column("r_fk", ColumnData::U32(r_fk)),
    );
    let s_x: Vec<i8> = (0..64).map(|_| rng.below(100) as i8).collect();
    db.add_table(Table::new("S").with_column("s_x", ColumnData::I8(s_x)));
    db.add_fk("R", "r_fk", "S").expect("R.r_fk -> S registers");

    let m = 1200usize;
    let tags = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let mut k = Vec::with_capacity(m);
    let mut v = Vec::with_capacity(m);
    let mut g = Vec::with_capacity(m);
    let mut h = Vec::with_capacity(m);
    let mut tag_rows = Vec::with_capacity(m);
    for i in 0..m {
        k.push(i as i32);
        v.push((rng.below(2000) - 1000) as i32);
        g.push(rng.below(8) as i32);
        h.push(rng.below(500) as i16);
        tag_rows.push(tags[rng.below(tags.len() as u64) as usize]);
    }
    db.add_table(
        Table::new("T")
            .with_column("k", ColumnData::I32(k))
            .with_column("v", ColumnData::I32(v))
            .with_column("g", ColumnData::I32(g))
            .with_column("h", ColumnData::I16(h))
            .with_column("tag", ColumnData::Dict(DictColumn::encode(&tag_rows))),
    );

    let big: Vec<i64> = (0..64).map(|i| i64::MAX / 64 + i).collect();
    db.add_table(Table::new("big").with_column("m", ColumnData::I64(big)));

    // Multi-way join fixture: one fact table over three dimensions plus a
    // grandparent chained off dim2. Appended after every existing table so
    // the shared LCG stream (and therefore all prior expected blocks)
    // stays byte-stable.
    let f = 4000usize;
    let mut f_v = Vec::with_capacity(f);
    let mut f_x = Vec::with_capacity(f);
    let mut f_d1 = Vec::with_capacity(f);
    let mut f_d2 = Vec::with_capacity(f);
    let mut f_d3 = Vec::with_capacity(f);
    for _ in 0..f {
        f_v.push(rng.below(100) as i32);
        f_x.push(rng.below(100) as i32);
        // Skewed NDV: nine of ten foreign keys land on three dim1 rows.
        let d1 = if rng.below(10) < 9 {
            rng.below(3)
        } else {
            rng.below(16)
        };
        f_d1.push(d1 as u32);
        f_d2.push(rng.below(200) as u32);
        f_d3.push(rng.below(8) as u32);
    }
    db.add_table(
        Table::new("fact")
            .with_column("f_v", ColumnData::I32(f_v))
            .with_column("f_x", ColumnData::I32(f_x))
            .with_column("f_d1", ColumnData::U32(f_d1))
            .with_column("f_d2", ColumnData::U32(f_d2))
            .with_column("f_d3", ColumnData::U32(f_d3)),
    );
    let d1_v: Vec<i32> = (0..16).map(|_| rng.below(100) as i32).collect();
    db.add_table(Table::new("dim1").with_column("d1_v", ColumnData::I32(d1_v)));
    let mut d2_v = Vec::with_capacity(200);
    let mut d2_fk = Vec::with_capacity(200);
    for _ in 0..200 {
        d2_v.push(rng.below(100) as i32);
        d2_fk.push(rng.below(32) as u32);
    }
    db.add_table(
        Table::new("dim2")
            .with_column("d2_v", ColumnData::I32(d2_v))
            .with_column("d2_fk", ColumnData::U32(d2_fk)),
    );
    let d3_v: Vec<i32> = (0..8).map(|_| rng.below(100) as i32).collect();
    db.add_table(Table::new("dim3").with_column("d3_v", ColumnData::I32(d3_v)));
    let d4_v: Vec<i32> = (0..32).map(|_| rng.below(100) as i32).collect();
    db.add_table(Table::new("dim4").with_column("d4_v", ColumnData::I32(d4_v)));
    db.add_fk("fact", "f_d1", "dim1")
        .expect("fact.f_d1 -> dim1 registers");
    db.add_fk("fact", "f_d2", "dim2")
        .expect("fact.f_d2 -> dim2 registers");
    db.add_fk("fact", "f_d3", "dim3")
        .expect("fact.f_d3 -> dim3 registers");
    db.add_fk("dim2", "d2_fk", "dim4")
        .expect("dim2.d2_fk -> dim4 registers");

    // Huge values on dropped rows only; computed, not drawn from the LCG,
    // so every table above stays byte-stable.
    let rows = || 0..2048i64;
    let m = rows().map(|i| {
        if i % 100 < 90 {
            i % 7
        } else {
            i64::MAX / 2 + i
        }
    });
    db.add_table(
        Table::new("spike")
            .with_column(
                "x",
                ColumnData::I8(rows().map(|i| (i % 100) as i8).collect()),
            )
            .with_column("m", ColumnData::I64(m.collect()))
            .with_column(
                "g",
                ColumnData::I16(rows().map(|i| (i % 8) as i16).collect()),
            )
            .with_column(
                "fk",
                ColumnData::U32(rows().map(|i| (i % 64) as u32).collect()),
            ),
    );
    db.add_fk("spike", "fk", "S")
        .expect("spike.fk -> S registers");
    db
}

/// The corpus directory at the repository root (`tests/conformance/`).
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/conformance")
}

/// All `.slt` scripts in the corpus, sorted by name.
pub fn corpus_files() -> Vec<PathBuf> {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().map(|x| x == "slt") == Some(true)).then_some(path)
        })
        .collect();
    files.sort();
    files
}

/// `true` when the caller asked for expected blocks to be regenerated.
pub fn update_requested() -> bool {
    std::env::var("UPDATE_CONFORM").map(|v| v == "1") == Ok(true)
}

/// Parse a script into records. Errors carry the offending line number.
pub fn parse_script(text: &str) -> Result<Vec<Record>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut records = Vec::new();
    let mut prefix: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        let raw = lines[i];
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            prefix.push(line.to_string());
            i += 1;
            continue;
        }
        let at = i + 1;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["control", "budget", value] => {
                let budget = if *value == "off" {
                    None
                } else {
                    Some(value.parse::<usize>().map_err(|_| {
                        format!("line {at}: `control budget` takes a byte count or `off`")
                    })?)
                };
                i += 1;
                records.push(Record {
                    line: at,
                    prefix: std::mem::take(&mut prefix),
                    kind: RecordKind::Control { budget },
                });
            }
            ["statement", rest @ ..] => {
                let expect_error = match rest {
                    ["ok"] => None,
                    ["error", sub @ ..] => Some(sub.join(" ")),
                    _ => return Err(format!("line {at}: expected `statement ok|error`")),
                };
                i += 1;
                let mut sql = Vec::new();
                while i < lines.len() && !lines[i].trim().is_empty() {
                    sql.push(lines[i].trim_end());
                    i += 1;
                }
                if sql.is_empty() {
                    return Err(format!("line {at}: statement with no SQL"));
                }
                records.push(Record {
                    line: at,
                    prefix: std::mem::take(&mut prefix),
                    kind: RecordKind::Statement {
                        sql: sql.join("\n"),
                        expect_error,
                    },
                });
            }
            ["query", types, rest @ ..] => {
                let sort = match rest {
                    [] | ["nosort"] => SortMode::NoSort,
                    ["rowsort"] => SortMode::RowSort,
                    ["valuesort"] => SortMode::ValueSort,
                    other => return Err(format!("line {at}: unknown sort mode {other:?}")),
                };
                if types.is_empty() || !types.chars().all(|c| c == 'I' || c == 'T') {
                    return Err(format!(
                        "line {at}: types must be a non-empty string of I/T, got {types:?}"
                    ));
                }
                i += 1;
                let mut sql = Vec::new();
                while i < lines.len() && lines[i].trim() != "----" && !lines[i].trim().is_empty() {
                    sql.push(lines[i].trim_end());
                    i += 1;
                }
                if sql.is_empty() {
                    return Err(format!("line {at}: query with no SQL"));
                }
                let mut expected = Vec::new();
                if i < lines.len() && lines[i].trim() == "----" {
                    i += 1;
                    while i < lines.len() && !lines[i].trim().is_empty() {
                        expected.push(lines[i].trim_end().to_string());
                        i += 1;
                    }
                }
                records.push(Record {
                    line: at,
                    prefix: std::mem::take(&mut prefix),
                    kind: RecordKind::Query {
                        types: types.to_string(),
                        sort,
                        sql: sql.join("\n"),
                        expected,
                    },
                });
            }
            _ => return Err(format!("line {at}: unknown directive {line:?}")),
        }
    }
    Ok(records)
}

/// Render one result cell: dictionary-decoded text for the key column,
/// plain integers elsewhere.
fn cell(result: &QueryResult, row: usize, col: usize) -> String {
    match result.value(row, col) {
        Ok(Value::Str(s)) => s,
        Ok(Value::Int(i)) => i.to_string(),
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("<{e}>"),
    }
}

/// Render a result under a sort mode: the lines that go in (or compare
/// against) the expected block.
pub fn render(result: &QueryResult, sort: SortMode) -> Vec<String> {
    let mut rows: Vec<Vec<String>> = (0..result.rows.len())
        .map(|r| {
            (0..result.columns.len())
                .map(|c| cell(result, r, c))
                .collect()
        })
        .collect();
    match sort {
        SortMode::NoSort => rows.iter().map(|r| r.join(" ")).collect(),
        SortMode::RowSort => {
            let mut lines: Vec<String> = rows.iter().map(|r| r.join(" ")).collect();
            lines.sort();
            lines
        }
        SortMode::ValueSort => {
            let mut values: Vec<String> = rows.drain(..).flatten().collect();
            values.sort();
            values
        }
    }
}

/// Derive the `query` type string (`I`/`T` per column) from a result.
pub fn types_of(result: &QueryResult) -> String {
    (0..result.columns.len())
        .map(|c| {
            if matches!(result.value(0, c), Ok(Value::Str(_))) {
                'T'
            } else {
                'I'
            }
        })
        .collect()
}

/// Check the declared type string against an actual result. Returns an
/// error message on mismatch.
fn check_types(result: &QueryResult, types: &str) -> Result<(), String> {
    if types.len() != result.columns.len() {
        return Err(format!(
            "declared {} column types, result has {} columns ({:?})",
            types.len(),
            result.columns.len(),
            result.columns,
        ));
    }
    if result.rows.is_empty() {
        return Ok(());
    }
    for (c, want) in types.chars().enumerate() {
        let is_text = matches!(result.value(0, c), Ok(Value::Str(_)));
        let got = if is_text { 'T' } else { 'I' };
        if got != want {
            return Err(format!(
                "column {c} ({}) declared {want} but renders as {got}",
                result.columns[c]
            ));
        }
    }
    Ok(())
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::new()
    }
}

impl Harness {
    /// Build the four engines (all at [`VerifyLevel::Full`]) and the
    /// oracle catalog.
    pub fn new() -> Harness {
        Harness::with_stats(StatsMode::default())
    }

    /// [`Harness::new`] with the engines' statistics mode chosen: the
    /// catalog decides the group-table representation, so `StatsMode::Off`
    /// (integer keys stay on the hash table; FK and dictionary keys still
    /// go dense) is how the corpus covers both.
    pub fn with_stats(stats: StatsMode) -> Harness {
        let engine = |threads: usize| {
            Engine::builder(fixture_db())
                .threads(threads)
                .verify(VerifyLevel::Full)
                .stats(stats)
                .build()
        };
        Harness {
            engines: vec![
                ("engine-t1", engine(1)),
                ("engine-t2", engine(2)),
                ("engine-t4", engine(4)),
                ("engine-t8", engine(8)),
            ],
            oracle_db: fixture_db(),
        }
    }

    /// Run one plan five ways (four engine configurations plus the
    /// interpreter oracle). `Ok` holds the (verified bit-identical)
    /// result; `Err` holds per-runner failure messages (uniform-error
    /// statements land here with an empty vector).
    ///
    /// An active `control budget` applies to the engines as a per-query
    /// memory budget; the oracle has no admission layer, so budgeted
    /// records compare the four engines only.
    fn run_all_ways(
        &self,
        plan: &LogicalPlan,
        budget: Option<usize>,
    ) -> Result<QueryResult, Vec<String>> {
        let opts = budget.map_or_else(QueryOptions::new, |b| QueryOptions::new().memory_budget(b));
        let mut outcomes: Vec<(&'static str, Result<QueryResult, String>)> = self
            .engines
            .iter()
            .map(|(name, e)| {
                (
                    *name,
                    e.query_with(plan, &opts).map_err(|err| err.to_string()),
                )
            })
            .collect();
        if budget.is_none() {
            outcomes.push((
                "interp",
                interp::run(&self.oracle_db, plan).map_err(|err| err.to_string()),
            ));
        }

        let errors: Vec<String> = outcomes
            .iter()
            .filter_map(|(name, o)| o.as_ref().err().map(|e| format!("{name}: {e}")))
            .collect();
        if errors.len() == outcomes.len() {
            // Uniformly failed — the statement-error path.
            return Err(Vec::new());
        }
        if !errors.is_empty() {
            return Err(vec![format!(
                "runners disagree on success: {}",
                errors.join("; ")
            )]);
        }
        let (base_name, base) = (outcomes[0].0, outcomes[0].1.clone().unwrap());
        let mut failures = Vec::new();
        for (name, o) in &outcomes[1..] {
            let got = o.as_ref().unwrap();
            if *got != base {
                failures.push(format!(
                    "{name} differs from {base_name}: {} vs {} rows",
                    got.rows.len(),
                    base.rows.len()
                ));
            }
        }
        if failures.is_empty() {
            Ok(base)
        } else {
            Err(failures)
        }
    }

    /// Execute one record. Returns `Ok(actual_lines)` for queries (for
    /// update mode), `Ok(empty)` for statements and controls,
    /// `Err(message)` on failure.
    fn run_record(&self, record: &Record, budget: Option<usize>) -> Result<Vec<String>, String> {
        let sql = match &record.kind {
            RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. } => sql,
            RecordKind::Control { .. } => return Ok(Vec::new()),
        };
        let parsed = match parse_sql(sql) {
            Ok(p) => p,
            Err(e) => {
                // A parse error is a uniform typed failure on every runner.
                return match &record.kind {
                    RecordKind::Statement {
                        expect_error: Some(sub),
                        ..
                    } if e.to_string().contains(sub.as_str()) => Ok(Vec::new()),
                    RecordKind::Statement {
                        expect_error: Some(sub),
                        ..
                    } => Err(format!("error {e} does not contain {sub:?}")),
                    _ => Err(format!("parse error: {e}")),
                };
            }
        };
        if parsed.explain.is_some() {
            return Err("EXPLAIN prefixes are not allowed in conformance scripts".into());
        }
        if !parsed.param_slots.is_empty() {
            return Err("placeholders are not allowed in conformance scripts".into());
        }

        let opts = budget.map_or_else(QueryOptions::new, |b| QueryOptions::new().memory_budget(b));
        match &record.kind {
            RecordKind::Control { .. } => unreachable!("controls return above"),
            RecordKind::Statement { expect_error, .. } => {
                match (self.run_all_ways(&parsed.plan, budget), expect_error) {
                    (Ok(_), None) => Ok(Vec::new()),
                    (Ok(_), Some(_)) => Err("expected an error, every runner succeeded".into()),
                    (Err(msgs), None) if msgs.is_empty() => {
                        Err("expected success, every runner failed".into())
                    }
                    (Err(msgs), Some(sub)) if msgs.is_empty() => {
                        // Uniform failure; check the substring on engine-t1.
                        let err = self.engines[0]
                            .1
                            .query_with(&parsed.plan, &opts)
                            .unwrap_err();
                        if err.to_string().contains(sub.as_str()) {
                            Ok(Vec::new())
                        } else {
                            Err(format!("error {err} does not contain {sub:?}"))
                        }
                    }
                    (Err(msgs), _) => Err(msgs.join("; ")),
                }
            }
            RecordKind::Query {
                types,
                sort,
                expected,
                ..
            } => {
                let result = match self.run_all_ways(&parsed.plan, budget) {
                    Ok(r) => r,
                    Err(msgs) if msgs.is_empty() => {
                        let err = self.engines[0]
                            .1
                            .query_with(&parsed.plan, &opts)
                            .unwrap_err();
                        return Err(format!("query failed on every runner: {err}"));
                    }
                    Err(msgs) => return Err(msgs.join("; ")),
                };
                check_types(&result, types)?;
                let actual = render(&result, *sort);
                if update_requested() || actual == *expected {
                    Ok(actual)
                } else {
                    Err(format!(
                        "expected {} line(s), got {}:\n  expected: {:?}\n  actual:   {:?}",
                        expected.len(),
                        actual.len(),
                        expected,
                        actual,
                    ))
                }
            }
        }
    }

    /// Differentially check one SQL text across all five runners.
    ///
    /// `Ok(Some(result))` — every runner succeeded with bit-identical
    /// results; `Ok(None)` — every runner failed with a typed error (a
    /// consistent outcome); `Err(message)` — the runners disagree. Used
    /// by the fuzz suite's corpus-generator mode.
    pub fn differential_check(&self, sql: &str) -> Result<Option<QueryResult>, String> {
        let parsed = match parse_sql(sql) {
            Ok(p) => p,
            Err(_) => return Ok(None), // uniform parse failure
        };
        if parsed.explain.is_some() || !parsed.param_slots.is_empty() {
            return Err("EXPLAIN/placeholders are not differentially checkable".into());
        }
        match self.run_all_ways(&parsed.plan, None) {
            Ok(result) => Ok(Some(result)),
            Err(msgs) if msgs.is_empty() => Ok(None),
            Err(msgs) => Err(msgs.join("; ")),
        }
    }

    /// The 1-thread engine's result for one SQL text (used to render
    /// emitted `.slt` records even when the runners disagree).
    pub fn engine_result(&self, sql: &str) -> Result<QueryResult, String> {
        let parsed = parse_sql(sql).map_err(|e| e.to_string())?;
        self.engines[0]
            .1
            .query(&parsed.plan)
            .map_err(|e| e.to_string())
    }

    /// The 1-thread engine's `EXPLAIN` decision lines for one SQL text.
    pub fn decisions(&self, sql: &str) -> Result<Vec<String>, String> {
        let parsed = parse_sql(sql).map_err(|e| e.to_string())?;
        let explain = self.engines[0].1.explain(&parsed.plan);
        explain.map(|e| e.decisions).map_err(|e| e.to_string())
    }

    /// Run one script file; under `UPDATE_CONFORM=1` rewrite its expected
    /// blocks from the cross-checked engine output.
    pub fn run_file(&self, path: &Path) -> FileOutcome {
        let text = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let records = match parse_script(&text) {
            Ok(r) => r,
            Err(e) => {
                return FileOutcome {
                    path: path.to_path_buf(),
                    records: 0,
                    failures: vec![format!("script parse error: {e}")],
                    rewritten: false,
                }
            }
        };
        let mut failures = Vec::new();
        let mut updated: Vec<Record> = Vec::new();
        let mut budget: Option<usize> = None;
        for record in &records {
            if let RecordKind::Control { budget: b } = &record.kind {
                budget = *b;
            }
            match self.run_record(record, budget) {
                Ok(actual) => {
                    let mut r = record.clone();
                    if let RecordKind::Query { expected, .. } = &mut r.kind {
                        *expected = actual;
                    }
                    updated.push(r);
                }
                Err(msg) => {
                    failures.push(format!("line {}: {msg}", record.line));
                    updated.push(record.clone());
                }
            }
        }
        let mut rewritten = false;
        if update_requested() && failures.is_empty() {
            let new_text = render_script(&updated);
            if new_text != text {
                fs::write(path, &new_text)
                    .unwrap_or_else(|e| panic!("cannot rewrite {}: {e}", path.display()));
                rewritten = true;
            }
        }
        FileOutcome {
            path: path.to_path_buf(),
            records: records.len(),
            failures,
            rewritten,
        }
    }

    /// Run the whole corpus, returning per-file outcomes sorted by name.
    pub fn run_corpus(&self) -> Vec<FileOutcome> {
        corpus_files().iter().map(|p| self.run_file(p)).collect()
    }
}

/// Serialize records back to script text (used by `UPDATE_CONFORM=1`).
fn render_script(records: &[Record]) -> String {
    let mut out = String::new();
    for (i, record) in records.iter().enumerate() {
        let mut prefix = record.prefix.clone();
        // Keep comments, but normalize the blank line between records.
        prefix.retain(|l| !l.trim().is_empty());
        if i > 0 {
            out.push('\n');
        }
        for l in &prefix {
            out.push_str(l);
            out.push('\n');
        }
        match &record.kind {
            RecordKind::Control { budget } => match budget {
                Some(b) => out.push_str(&format!("control budget {b}\n")),
                None => out.push_str("control budget off\n"),
            },
            RecordKind::Statement { sql, expect_error } => {
                match expect_error {
                    None => out.push_str("statement ok\n"),
                    Some(sub) if sub.is_empty() => out.push_str("statement error\n"),
                    Some(sub) => {
                        out.push_str("statement error ");
                        out.push_str(sub);
                        out.push('\n');
                    }
                }
                out.push_str(sql);
                out.push('\n');
            }
            RecordKind::Query {
                types,
                sort,
                sql,
                expected,
            } => {
                out.push_str(&format!("query {types} {}\n", sort.name()));
                out.push_str(sql);
                out.push_str("\n----\n");
                for l in expected {
                    out.push_str(l);
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Write a pass/fail summary (one line per file) to `path` — the CI
/// failure artifact.
pub fn write_summary(outcomes: &[FileOutcome], path: &Path) -> std::io::Result<()> {
    let mut out = String::new();
    let mut by_status: BTreeMap<&str, usize> = BTreeMap::new();
    for o in outcomes {
        let name = o
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if o.failures.is_empty() {
            *by_status.entry("ok").or_default() += 1;
            out.push_str(&format!("ok   {name} ({} records)\n", o.records));
        } else {
            *by_status.entry("FAIL").or_default() += 1;
            out.push_str(&format!("FAIL {name}\n"));
            for f in &o.failures {
                out.push_str(&format!("     {f}\n"));
            }
        }
    }
    out.push_str(&format!(
        "\n{} files: {} ok, {} failed\n",
        outcomes.len(),
        by_status.get("ok").copied().unwrap_or(0),
        by_status.get("FAIL").copied().unwrap_or(0),
    ));
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_parse_round_trip() {
        let text = "# header\nstatement ok\nselect count(*) as n from T\n\n\
                    query II rowsort\nselect g, count(*) as n from T group by g\n\
                    ----\n0 1\n1 2\n";
        let records = parse_script(text).unwrap();
        assert_eq!(records.len(), 2);
        assert!(matches!(
            records[0].kind,
            RecordKind::Statement {
                expect_error: None,
                ..
            }
        ));
        let RecordKind::Query {
            ref types,
            sort,
            ref expected,
            ..
        } = records[1].kind
        else {
            panic!()
        };
        assert_eq!(types, "II");
        assert_eq!(sort, SortMode::RowSort);
        assert_eq!(expected, &["0 1", "1 2"]);
        // Round-trip through the update-mode serializer.
        assert_eq!(render_script(&records), text);
    }

    #[test]
    fn script_errors_name_lines() {
        assert!(parse_script("statement maybe\nselect 1\n")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_script("query ZZ\nselect 1\n----\n")
            .unwrap_err()
            .contains("I/T"));
        assert!(parse_script("query I upsidedown\nselect 1\n----\n")
            .unwrap_err()
            .contains("sort mode"));
    }

    #[test]
    fn render_sort_modes() {
        let result = QueryResult::new(vec!["a".into(), "b".into()], vec![vec![3, 1], vec![1, 2]]);
        assert_eq!(render(&result, SortMode::NoSort), vec!["3 1", "1 2"]);
        assert_eq!(render(&result, SortMode::RowSort), vec!["1 2", "3 1"]);
        assert_eq!(
            render(&result, SortMode::ValueSort),
            vec!["1", "1", "2", "3"]
        );
    }
}
