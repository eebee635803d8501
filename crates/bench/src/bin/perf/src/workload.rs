//! The four workloads: data, engine, SQL texts, interpreter references and
//! hand-coded pairs. Everything here is a pure function of the seed.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::plan::{interp, parse_sql};
use swole::prelude::*;
use swole_micro::{MicroDb, MicroParams, RTable};
use swole_tpch::TpchDb;

use crate::pairs::{self, Rows};

/// Domain of the bench-generated group key `r_c2`: large enough that an
/// aggregation table over it (~9 MB) falls out of the 2 MiB L2.
pub const C2_CARDINALITY: usize = 256 << 10;
/// Domain of the generator's own group key `r_c`: a cache-resident table.
pub const C_CARDINALITY: usize = 1 << 10;
/// Rows of the `probe1` table: one tile, so a statement over it is one
/// morsel and costs only dispatch and merge.
const PROBE1_ROWS: usize = 1024;
/// `sessions_mixed`: client 0 reloads `S` after this many of its statements.
pub const RELOAD_EVERY: usize = 250;
/// `sessions_mixed`: share of draws taken from the hot texts, in percent.
pub const HOT_PERCENT: u32 = 80;
const HOT_LITERALS: [i64; 4] = [20, 40, 60, 80];

/// Table sizes. Constants of the source, identical on every commit.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub scan_r: usize,
    pub scan_s: usize,
    pub hash_r: usize,
    pub hash_s: usize,
    pub tpch_sf: f64,
    pub mixed_r: usize,
    pub mixed_s: usize,
}

pub const FULL: Sizes = Sizes {
    scan_r: 4 << 20,
    scan_s: 1 << 10,
    hash_r: 768 << 10,
    hash_s: 256 << 10,
    tpch_sf: 0.1,
    mixed_r: 64 << 10,
    mixed_s: 1 << 10,
};

/// `--smoke`: every code path, no meaningful timing.
pub const SMOKE: Sizes = Sizes {
    scan_r: 64 << 10,
    scan_s: 256,
    hash_r: 32 << 10,
    hash_s: 4 << 10,
    tpch_sf: 0.004,
    mixed_r: 8 << 10,
    mixed_s: 256,
};

/// The micro schema plus the bench's second group key.
pub struct Micro {
    pub db: MicroDb,
    pub c2: Vec<i32>,
}

impl Micro {
    pub fn generate(r_rows: usize, s_rows: usize, seed: u64) -> Micro {
        let db = swole_micro::generate(MicroParams {
            r_rows,
            s_rows,
            r_c_cardinality: C_CARDINALITY,
            seed,
        });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC2C2_C2C2);
        let c2 = (0..r_rows)
            .map(|_| rng.gen_range(0..C2_CARDINALITY as i32))
            .collect();
        Micro { db, c2 }
    }

    fn s_table(&self) -> Table {
        Table::new("S").with_column("s_x", ColumnData::I8(self.db.s.x.clone()))
    }
}

pub enum Data {
    Micro(Arc<Micro>),
    Tpch(Arc<TpchDb>),
}

impl Data {
    /// A fresh catalog over the data (columns are copied: the engine owns
    /// its tables), plus the one-tile `probe1` table.
    pub fn database(&self) -> Database {
        let mut db = match self {
            Data::Micro(m) => {
                let r = &m.db.r;
                let mut db = Database::new();
                db.add_table(
                    Table::new("R")
                        .with_column("r_a", ColumnData::I32(r.a.clone()))
                        .with_column("r_b", ColumnData::I32(r.b.clone()))
                        .with_column("r_c", ColumnData::I32(r.c.clone()))
                        .with_column("r_c2", ColumnData::I32(m.c2.clone()))
                        .with_column("r_x", ColumnData::I8(r.x.clone()))
                        .with_column("r_y", ColumnData::I8(r.y.clone()))
                        .with_column("r_fk", ColumnData::U32(r.fk.clone())),
                );
                db.add_table(m.s_table());
                db.add_fk("R", "r_fk", "S").expect("generated FK is valid");
                db
            }
            Data::Tpch(t) => swole_tpch::catalog::to_database(t),
        };
        db.add_table(
            Table::new("probe1")
                .with_column("v", ColumnData::I32((0..PROBE1_ROWS as i32).collect())),
        );
        db
    }

    /// The workload's small dimension table and the FK that targets it:
    /// what `sessions_mixed` reloads and the load probe measures.
    pub fn dimension(&self) -> (Table, [&'static str; 3]) {
        match self {
            Data::Micro(m) => (m.s_table(), ["R", "r_fk", "S"]),
            Data::Tpch(t) => (
                Table::new("supplier").with_column(
                    "s_nationkey",
                    ColumnData::U32(t.supplier.nation_key.clone()),
                ),
                ["lineitem", "l_suppkey", "supplier"],
            ),
        }
    }
}

/// One SQL text a client may submit, with the result it must return.
pub struct Text {
    pub sql: String,
    pub class: usize,
    pub reference: QueryResult,
    /// The hand-coded pipeline computing the same rows, single-threaded, on
    /// the same columns.
    pub pair: Option<pairs::Pair>,
}

/// A statement as reported: latencies of all texts of a class pool into one
/// sample set. On the single-session workloads a class is one text.
pub struct Class {
    pub name: String,
    /// Rows of the base table the class scans.
    pub base_rows: usize,
    /// Plan shape and strategy, from `Engine::explain`.
    pub shape: String,
}

pub struct Workload {
    pub name: String,
    /// The served engine: every end-to-end metric is measured on it.
    pub engine: Engine,
    /// Whether the served engine is the pooled one.
    pub pooled: bool,
    pub data: Data,
    pub texts: Vec<Text>,
    pub classes: Vec<Class>,
    /// `sessions_mixed` draws 80 % from `hot` and 20 % from `cold`; the
    /// other workloads leave both empty and cycle through `texts`.
    pub hot: Vec<usize>,
    pub cold: Vec<usize>,
    /// Whether client 0 reloads the dimension table every `RELOAD_EVERY`.
    pub reloads: bool,
    pub seed: u64,
    pub sizes: Sizes,
}

/// `T = min(nproc, 4)`: workers of the pooled engine, and clients of the
/// crowded window of the traced run.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// One thread, statements executed on the caller's, every other setting at
/// its default: what the three scan-heavy workloads are served by. A shared
/// 2-vCPU host gives the two vCPUs the capacity of two processors at some
/// times and of one at others, for minutes at a stretch, so a statement
/// whose morsels keep two threads busy has two speeds; one busy thread has
/// one.
pub fn single_engine(data: &Data) -> Engine {
    Engine::builder(data.database()).threads(1).build()
}

/// The same data behind `T` pool workers. `sessions_mixed` is served by it:
/// its statements are one morsel each, which the submitting thread or one
/// woken worker claims, so with one client one thread is busy at a time,
/// while stage registration, worker wake-up, the merge of per-worker
/// partials and admission are all inside the timed call. The traced run
/// measures parallel speed-up and concurrent sessions on it for every
/// workload.
pub fn pooled_engine(data: &Data) -> Engine {
    let t = threads();
    Engine::builder(data.database())
        .threads(t)
        .worker_pool(t)
        .build()
}

/// A single-threaded engine without a plan cache: the always-missing side
/// of the cold-statement probe, and the engine the load probes reload
/// tables on.
pub fn scratch_engine(data: &Data) -> Engine {
    Engine::builder(data.database())
        .threads(1)
        .plan_cache_bytes(0)
        .build()
}

struct Draft {
    class: String,
    sql: String,
    pair: Option<pairs::Pair>,
}

fn draft(class: impl Into<String>, sql: impl Into<String>, pair: Option<pairs::Pair>) -> Draft {
    Draft {
        class: class.into(),
        sql: sql.into(),
        pair,
    }
}

fn q1_sql(op: &str, lit: i64) -> String {
    format!("select sum(r_a {op} r_b) as s from R where r_x < {lit} and r_y = 1")
}

fn q2_sql(key: &str, lit: i64) -> String {
    format!("select {key}, sum(r_a * r_b) as s from R where r_x < {lit} and r_y = 1 group by {key}")
}

fn q4_sql(lit: i64) -> String {
    format!(
        "select sum(R.r_a * R.r_b) as s from R, S \
         where R.r_fk = S.rowid and R.r_x < {lit} and S.s_x < 50"
    )
}

const Q3_SQL: &str = "select sum(r_x * r_a) as s from R where r_x < 50 and r_y = 1";
const Q5_SQL: &str = "select R.r_fk, sum(R.r_a * R.r_b) as s from R, S \
     where R.r_fk = S.rowid and S.s_x < 50 group by R.r_fk";

/// A pair that runs `f` on the workload's shared data.
fn pair_on<T: Send + Sync + 'static>(data: &Arc<T>, f: fn(&T) -> Rows) -> Option<pairs::Pair> {
    let data = Arc::clone(data);
    Some(Box::new(move || f(&data)))
}

fn scan_micro(m: &Arc<Micro>) -> Vec<Draft> {
    let pair = |f| pair_on(m, f);
    vec![
        draft(
            "q1_mul_s01",
            q1_sql("*", 1),
            pair(|m| pairs::micro_q1_mul(m, 1)),
        ),
        draft(
            "q1_mul_s50",
            q1_sql("*", 50),
            pair(|m| pairs::micro_q1_mul(m, 50)),
        ),
        draft(
            "q1_mul_s99",
            q1_sql("*", 99),
            pair(|m| pairs::micro_q1_mul(m, 99)),
        ),
        draft("q1_div_s50", q1_sql("/", 50), pair(pairs::micro_q1_div)),
        draft("q3_s50", Q3_SQL, pair(pairs::micro_q3)),
    ]
}

fn hash_micro(m: &Arc<Micro>) -> Vec<Draft> {
    let pair = |f| pair_on(m, f);
    // The generator's hand-coded Q2 groups by `RTable::c`, so the pair on
    // the second key runs on a copy of R whose `c` is `c2`.
    let r_c2 = RTable {
        c: m.c2.clone(),
        ..m.db.r.clone()
    };
    vec![
        draft(
            "q2_g1k",
            q2_sql("r_c", 50),
            pair(|m| pairs::micro_q2(&m.db.r, 50, C_CARDINALITY)),
        ),
        draft(
            "q2_g256k",
            q2_sql("r_c2", 50),
            Some(Box::new(move || pairs::micro_q2(&r_c2, 50, C2_CARDINALITY))),
        ),
        draft("q4_s50_s50", q4_sql(50), pair(|m| pairs::micro_q4(m, 50))),
        draft("q5_s50", Q5_SQL, pair(pairs::micro_q5)),
    ]
}

fn tpch_sql(t: &Arc<TpchDb>) -> Vec<Draft> {
    use swole_tpch as d;
    let pair = |f| pair_on(t, f);
    let q3 = d::q3_date().days();
    vec![
        draft(
            "q1",
            format!(
                "select l_returnflag, sum(l_quantity) as sum_qty, count(*) as n from lineitem \
                 where l_shipdate <= {} group by l_returnflag",
                d::q1_ship_cutoff().days()
            ),
            pair(pairs::tpch_q1_lite),
        ),
        draft(
            "q3",
            format!(
                "select sum(lineitem.l_extendedprice) as revenue, count(*) as n \
                 from lineitem, orders where lineitem.l_orderkey = orders.rowid \
                 and lineitem.l_shipdate > {q3} and orders.o_orderdate < {q3}"
            ),
            None,
        ),
        draft(
            "q4",
            format!(
                "select sum(lineitem.l_extendedprice) as s, count(*) as n \
                 from lineitem, orders where lineitem.l_orderkey = orders.rowid \
                 and orders.o_orderdate >= {} and orders.o_orderdate < {}",
                d::q4_date_lo().days(),
                d::q4_date_hi().days()
            ),
            pair(pairs::tpch_q4_semijoin),
        ),
        draft(
            "q5",
            format!(
                "select sum(lineitem.l_extendedprice) as revenue from lineitem, supplier \
                 where lineitem.l_suppkey = supplier.rowid and lineitem.l_shipdate >= {} \
                 and lineitem.l_shipdate < {} and supplier.s_nationkey < 5",
                d::q5_date_lo().days(),
                d::q5_date_hi().days()
            ),
            None,
        ),
        draft(
            "q6",
            format!(
                "select sum(l_extendedprice * l_discount) as revenue from lineitem \
                 where l_shipdate >= {} and l_shipdate < {} \
                 and l_discount between 5 and 7 and l_quantity < 24",
                d::q6_date_lo().days(),
                d::q6_date_hi().days()
            ),
            pair(|t| vec![vec![d::queries::q6::swole(t)]]),
        ),
        draft(
            "q13",
            "select orders.o_custkey, count(*) as n from orders, customer \
             where orders.o_custkey = customer.rowid \
             and customer.c_mktsegment in ('BUILDING') group by orders.o_custkey",
            None,
        ),
        draft(
            "q14",
            format!(
                "select sum(case when l_discount > 5 then l_extendedprice else 0 end) as promo, \
                 sum(l_extendedprice) as total from lineitem \
                 where l_shipdate >= {} and l_shipdate < {}",
                d::q14_date_lo().days(),
                d::q14_date_hi().days()
            ),
            None,
        ),
        draft(
            "q19",
            "select sum(lineitem.l_extendedprice) as revenue from lineitem, part \
             where lineitem.l_partkey = part.rowid \
             and part.p_container in ('SM CASE', 'SM BOX') and lineitem.l_quantity < 11",
            None,
        ),
        draft(
            "star5",
            format!(
                "select sum(lineitem.l_quantity) as q, count(*) as n \
                 from lineitem, orders, part, supplier, customer \
                 where lineitem.l_orderkey = orders.rowid and lineitem.l_partkey = part.rowid \
                 and lineitem.l_suppkey = supplier.rowid and orders.o_custkey = customer.rowid \
                 and orders.o_orderdate < {q3} and part.p_size < 30 \
                 and supplier.s_nationkey < 15 and customer.c_nationkey < 12"
            ),
            None,
        ),
        // The golden test's window top-N with a bounded frame: the
        // interpreter computes an unbounded running sum in time quadratic in
        // the partition, which at this size would take longer than the run.
        draft(
            "window_topn",
            "select l_orderkey, \
             row_number() over (partition by l_returnflag order by l_orderkey \
             rows 100 preceding) as rn, \
             sum(l_quantity) over (partition by l_returnflag order by l_orderkey \
             rows 100 preceding) as rq \
             from lineitem where l_shipdate < 9000 order by l_orderkey, rn limit 12",
            None,
        ),
    ]
}

/// Q1/Q2/Q4 shapes, four hot literals each (12 texts, each with its
/// hand-coded pair) and every other literal in `0..100` as a cold text
/// (288): the 64 KiB plan cache holds about 59 plans, so the cold fifth of
/// the draws keeps evicting.
fn sessions_mixed(m: &Arc<Micro>) -> Vec<Draft> {
    type Shape = (&'static str, fn(i64) -> String, fn(&Micro, i8) -> Rows);
    let shapes: [Shape; 3] = [
        ("q1", |l| q1_sql("*", l), pairs::micro_q1_mul),
        (
            "q2",
            |l| q2_sql("r_c", l),
            |m, l| pairs::micro_q2(&m.db.r, l, C_CARDINALITY),
        ),
        ("q4", q4_sql, pairs::micro_q4),
    ];
    let mut drafts = Vec::new();
    for (name, sql, pair) in shapes {
        for lit in 0..100 {
            let hot = HOT_LITERALS.contains(&lit);
            let pair = hot.then(|| {
                let m = Arc::clone(m);
                Box::new(move || pair(&m, lit as i8)) as pairs::Pair
            });
            let class = format!("{name}.{}", if hot { "hot" } else { "cold" });
            drafts.push(draft(class, sql(lit), pair));
        }
    }
    drafts
}

impl Workload {
    /// Generate the data, build the engine, compute every text's reference
    /// with the interpreter and check each hand-coded pair against it.
    pub fn build(name: &str, seed: u64, sizes: Sizes) -> Workload {
        let micro = |r, s| Arc::new(Micro::generate(r, s, seed));
        let (data, drafts) = match name {
            "scan_micro" => {
                let m = micro(sizes.scan_r, sizes.scan_s);
                let drafts = scan_micro(&m);
                (Data::Micro(m), drafts)
            }
            "hash_micro" => {
                let m = micro(sizes.hash_r, sizes.hash_s);
                let drafts = hash_micro(&m);
                (Data::Micro(m), drafts)
            }
            "tpch_sql" => {
                let t = Arc::new(swole_tpch::generate(sizes.tpch_sf, seed));
                let drafts = tpch_sql(&t);
                (Data::Tpch(t), drafts)
            }
            "sessions_mixed" => {
                let m = micro(sizes.mixed_r, sizes.mixed_s);
                let drafts = sessions_mixed(&m);
                (Data::Micro(m), drafts)
            }
            other => panic!("unknown workload {other}"),
        };
        let mixed = name == "sessions_mixed";
        let engine = if mixed {
            pooled_engine(&data)
        } else {
            single_engine(&data)
        };
        let mut texts = Vec::new();
        let mut classes: Vec<Class> = Vec::new();
        {
            let db = engine.database();
            for d in drafts {
                let plan = parse_sql(&d.sql).expect("workload SQL parses").plan;
                let reference = interp::run(&db, &plan).expect("interpreter runs workload SQL");
                let class = match classes.iter().position(|c| c.name == d.class) {
                    Some(i) => i,
                    None => {
                        let ex = engine.explain(&plan).expect("workload SQL plans");
                        classes.push(Class {
                            name: d.class,
                            base_rows: db.table(plan.base_table()).expect("base table").len(),
                            shape: format!("{} / {}", ex.shape, ex.strategy),
                        });
                        classes.len() - 1
                    }
                };
                if let Some(pair) = &d.pair {
                    assert_eq!(
                        pair(),
                        reference.rows,
                        "hand-coded pair disagrees with the interpreter: {}",
                        d.sql
                    );
                }
                texts.push(Text {
                    sql: d.sql,
                    class,
                    reference,
                    pair: d.pair,
                });
            }
        }
        let of = |suffix: &str| -> Vec<usize> {
            (0..texts.len())
                .filter(|&i| mixed && classes[texts[i].class].name.ends_with(suffix))
                .collect()
        };
        Workload {
            name: name.to_string(),
            hot: of(".hot"),
            cold: of(".cold"),
            reloads: mixed,
            pooled: mixed,
            engine,
            data,
            texts,
            classes,
            seed,
            sizes,
        }
    }

    /// The first text of each class, in class order: what the traced run's
    /// per-statement loops submit.
    pub fn first_texts(&self) -> impl Iterator<Item = &Text> {
        (0..self.classes.len()).map(|class| {
            self.texts
                .iter()
                .find(|t| t.class == class)
                .expect("class has a text")
        })
    }

    /// The statement order of one client: a seeded 80/20 draw on
    /// `sessions_mixed`, a round-robin over the texts elsewhere. Either
    /// way a client starts with one text of every class, so that even a
    /// very short window samples them all.
    pub fn schedule(&self, client: usize) -> impl FnMut() -> usize + '_ {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ (client as u64 + 1).wrapping_mul(0x9E37));
        let mut next = 0usize;
        move || {
            if next < self.classes.len() && !self.hot.is_empty() {
                next += 1;
                let class = next - 1;
                self.texts
                    .iter()
                    .position(|t| t.class == class)
                    .expect("class has a text")
            } else if self.hot.is_empty() {
                let text = next;
                next = (next + 1) % self.texts.len();
                text
            } else if rng.gen_range(0..100u32) < HOT_PERCENT {
                self.hot[rng.gen_range(0..self.hot.len())]
            } else {
                self.cold[rng.gen_range(0..self.cold.len())]
            }
        }
    }

    /// Reload the dimension table with identical contents and register its
    /// FK index again (a reload drops it), as a loader would.
    pub fn reload_dimension(&self, engine: &Engine) {
        let (table, [child, fk, parent]) = self.data.dimension();
        engine.load_table(table);
        engine
            .register_fk(child, fk, parent)
            .expect("reloaded table keeps its FK");
    }
}
