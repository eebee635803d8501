//! The traced pass. Each statement is performed as separately timed public
//! calls — parse, plan, verify, certify, execute — and the harness records a
//! span around each, in memory, from outside the engine; on a workload that
//! reloads its dimension table, also around `load_table` and `register_fk`.
//! Spans inside the engine are a later change.

use std::time::Instant;

use swole::plan::parse_sql;
use swole::prelude::*;

use crate::json::Json;
use crate::workload::Workload;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The statement's class: spans of one statement share it. `None` for
    /// the spans of a reload, which belongs to no statement.
    pub stmt: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, parent: Option<usize>, stmt: Option<usize>, name: &str) -> usize {
        let start_ns = self.now();
        self.push(parent, stmt, name, start_ns, start_ns)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    pub fn push(
        &mut self,
        parent: Option<usize>,
        stmt: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Run `work` inside a span called `name`: a child of `parent`, or a
    /// root span of no statement.
    pub fn scoped<R>(&mut self, parent: Option<usize>, name: &str, work: impl FnOnce() -> R) -> R {
        let stmt = parent.and_then(|p| self.spans[p].stmt);
        let id = self.begin(parent, stmt, name);
        let out = work();
        self.end(id);
        out
    }

    /// Durations in µs of the spans called `name` of statement `stmt`.
    pub fn durations_us(&self, stmt: usize, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.stmt == Some(stmt) && s.name == name)
            .map(Span::us)
            .collect()
    }

    /// The spans as JSON, each with its self time: its duration minus the
    /// part its child spans cover.
    pub fn to_json(&self, w: &Workload) -> Json {
        let mut children_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                children_us[parent] += s.us();
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        ),
                        (
                            "stmt",
                            s.stmt.map_or(Json::Null, |c| Json::str(&w.classes[c].name)),
                        ),
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::num(s.start_ns as f64)),
                        ("end_ns", Json::num(s.end_ns as f64)),
                        ("self_us", Json::num(s.us() - children_us[s.id])),
                    ])
                })
                .collect(),
        )
    }
}

/// What one metered execution observed, summed over the traced pass.
#[derive(Default)]
pub struct Observed {
    pub rows_in: u64,
    pub wasted_lanes: u64,
    pub ht_probes: u64,
    pub predicate_evals: u64,
    /// Wall nanoseconds of the `execute` spans, and of their operators by
    /// kind (`scan`, `build`, `probe`, `sort`).
    pub execute_ns: u64,
    pub op_ns: [u64; 4],
    /// `bytes_charged` of each metered execution.
    pub bytes_charged: Vec<f64>,
    /// Certificate bound over bytes charged, for executions that charged.
    pub tightness: Vec<f64>,
    pub failed: u64,
    pub attempted: u64,
}

pub const OP_KINDS: [&str; 4] = ["scan", "build", "probe", "sort"];

/// The kind of an engine operator, from its stable name: single-table
/// aggregation loops are `scan`; join build sides `build`; probe passes
/// `probe`; window, ORDER BY and LIMIT stages `sort`.
fn op_kind(name: &str) -> usize {
    let kind = if name.contains("build") {
        "build"
    } else if name.contains("probe") {
        "probe"
    } else if ["window", "sort", "limit"]
        .iter()
        .any(|p| name.starts_with(p))
    {
        "sort"
    } else {
        "scan"
    };
    OP_KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("known kind")
}

/// Trace every class's first text, cycling until `seconds` have passed
/// (at least three cycles). A workload that reloads its dimension table
/// does so after every cycle, in spans of its own.
pub fn pass(w: &Workload, seconds: f64) -> (Tracer, Observed) {
    let mut tracer = Tracer::new();
    let mut seen = Observed::default();
    let metered = QueryOptions::new().metrics(MetricsLevel::Timings);
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < 3 || started.elapsed().as_secs_f64() < seconds {
        for text in w.first_texts() {
            let class = Some(text.class);
            let stmt = tracer.begin(None, class, "stmt");
            let plan = tracer
                .scoped(Some(stmt), "parse", || parse_sql(&text.sql))
                .expect("workload SQL parses")
                .plan;
            let physical = tracer
                .scoped(Some(stmt), "plan", || w.engine.plan(&plan))
                .expect("workload SQL plans");
            tracer
                .scoped(Some(stmt), "verify", || w.engine.verify_plan(&plan))
                .expect("workload plan verifies");
            let cert = tracer
                .scoped(Some(stmt), "certify", || w.engine.certificate(&plan))
                .expect("workload plan certifies");
            let exec = tracer.begin(Some(stmt), class, "execute");
            let result = w.engine.execute_with(&physical, &metered);
            tracer.end(exec);
            tracer.end(stmt);
            seen.attempted += 1;
            match result {
                Ok(rows) if rows == text.reference => {
                    let m = rows.metrics().expect("metered execution carries metrics");
                    // Operators report a duration, not a start: lay their
                    // spans end to end from the start of `execute`.
                    let mut at = tracer.spans[exec].start_ns;
                    for op in &m.operators {
                        tracer.push(Some(exec), class, &op.name, at, at + op.wall_nanos);
                        at += op.wall_nanos;
                        seen.op_ns[op_kind(&op.name)] += op.wall_nanos;
                    }
                    let total = m.total();
                    seen.rows_in += total.rows_in;
                    seen.wasted_lanes += total.wasted_lanes;
                    seen.ht_probes += total.ht_probes;
                    seen.predicate_evals += total.predicate_evals;
                    seen.execute_ns += tracer.spans[exec].end_ns - tracer.spans[exec].start_ns;
                    seen.bytes_charged.push(m.bytes_charged as f64);
                    if m.bytes_charged > 0 {
                        seen.tightness
                            .push(cert.peak_bytes_bound as f64 / m.bytes_charged as f64);
                    }
                }
                Ok(_) => {
                    seen.failed += 1;
                    eprintln!("perf: wrong traced result: {}", text.sql);
                }
                Err(e) => {
                    seen.failed += 1;
                    eprintln!("perf: {e}: {}", text.sql);
                }
            }
        }
        if w.reloads {
            let (table, [child, fk, parent]) = w.data.dimension();
            tracer.scoped(None, "load_table", || w.engine.load_table(table));
            tracer
                .scoped(None, "register_fk", || {
                    w.engine.register_fk(child, fk, parent)
                })
                .expect("reloaded table keeps its FK");
        }
        cycles += 1;
    }
    (tracer, seen)
}
