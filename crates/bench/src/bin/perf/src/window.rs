//! The measured window: closed-loop clients submitting SQL text through
//! `Session::query_sql`, every result compared with its reference outside
//! the timed call.

use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use swole::prelude::*;

use crate::stats;
use crate::workload::{Workload, RELOAD_EVERY};

/// A text's hand-coded pair is timed after every `PAIR_EVERY`-th of its
/// statements: often enough for a few dozen samples of each pair in a
/// window, seldom enough that the pairs of `hash_micro`, the dearest, take a
/// fifth of it.
const PAIR_EVERY: usize = 3;

/// A text that has a hand-coded pair, over the occasions on which the pair
/// was timed right after the statement: its class, the medians of the two
/// times in milliseconds, and the median of statement time over pair time
/// taken occasion by occasion.
///
/// A shared host slows a busy thread by a quarter or a half for seconds at
/// a time, in episodes that cover anything from none to all of a window, so
/// a window's median time is the program's speed times however much of the
/// window the episodes covered. A statement and the pair that follows it
/// within milliseconds are slowed alike, so their ratio barely moves.
pub struct Paired {
    pub class: usize,
    pub engine_ms: f64,
    pub handcoded_ms: f64,
    pub ratio: f64,
}

#[derive(Default)]
pub struct Window {
    /// `query_sql` latencies in nanoseconds, per text.
    pub samples: Vec<Vec<u64>>,
    /// Per text, for every interleaved call of its hand-coded pair: the
    /// nanoseconds of the statement before it, and its own.
    pub occasions: Vec<Vec<(u64, u64)>>,
    pub attempted: u64,
    /// Errors, refusals and results that differ from the reference.
    pub failed: u64,
    /// The part of `failed` that admission control refused.
    pub refused: u64,
    /// The longest any client ran, without its pair calls.
    pub wall: Duration,
    /// Plan-cache activity over the window.
    pub cache: PlanCacheStats,
}

impl Window {
    fn new(texts: usize) -> Window {
        Window {
            samples: vec![Vec::new(); texts],
            occasions: vec![Vec::new(); texts],
            ..Window::default()
        }
    }

    fn merge(&mut self, other: Window) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.occasions.iter_mut().zip(other.occasions) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.wall = self.wall.max(other.wall);
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn queries_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64()
    }

    /// Latencies in milliseconds per class: those of all its texts.
    pub fn class_ms(&self, w: &Workload) -> Vec<Vec<f64>> {
        let mut pooled = vec![Vec::new(); w.classes.len()];
        for (text, ns) in w.texts.iter().zip(&self.samples) {
            pooled[text.class].extend(stats::ns_to_ms(ns));
        }
        pooled
    }

    /// Per-class latency in milliseconds at quantile `q`.
    pub fn quantiles_ms(&self, w: &Workload, q: f64) -> Vec<f64> {
        self.class_ms(w)
            .iter()
            .map(|ms| stats::quantile(ms, q))
            .collect()
    }

    /// Every text whose pair was timed in this window.
    pub fn paired(&self, w: &Workload) -> Vec<Paired> {
        let median_of = |f: fn(&(u64, u64)) -> f64, of: &[(u64, u64)]| {
            stats::median(&of.iter().map(f).collect::<Vec<_>>())
        };
        (0..w.texts.len())
            .filter(|&t| !self.occasions[t].is_empty())
            .map(|t| Paired {
                class: w.texts[t].class,
                engine_ms: median_of(|o| o.0 as f64 / 1e6, &self.occasions[t]),
                handcoded_ms: median_of(|o| o.1 as f64 / 1e6, &self.occasions[t]),
                ratio: median_of(|o| o.0 as f64 / o.1 as f64, &self.occasions[t]),
            })
            .collect()
    }

    /// The fewest samples any class has.
    pub fn samples_min(&self, w: &Workload) -> usize {
        self.class_ms(w).iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Submit one text and check its result; the latency in nanoseconds is
/// kept, and returned, when the statement succeeded with the right rows.
fn submit(w: &Workload, session: &Session, text: usize, out: &mut Window) -> Option<u64> {
    let t0 = Instant::now();
    let result = session.query_sql(&w.texts[text].sql, &Params::new());
    let ns = t0.elapsed().as_nanos() as u64;
    out.attempted += 1;
    match result {
        Ok(rows) if rows == w.texts[text].reference => {
            out.samples[text].push(ns);
            return Some(ns);
        }
        Ok(_) => eprintln!("perf: wrong result: {}", w.texts[text].sql),
        Err(e) => {
            out.refused += u64::from(matches!(e, PlanError::Admission(_)));
            eprintln!("perf: {e}: {}", w.texts[text].sql);
        }
    }
    out.failed += 1;
    None
}

/// One closed-loop client. With `pairs`, every `PAIR_EVERY`-th statement of
/// a paired text is followed at once by its hand-coded pair (the texts
/// staggered, so that the pairs do not all fall into the same round).
fn client(
    w: &Workload,
    engine: &Engine,
    id: usize,
    pairs: bool,
    stop: impl Fn(usize) -> bool,
) -> Window {
    let mut out = Window::new(w.texts.len());
    let session = engine.session();
    let mut next = w.schedule(id);
    let mut ops = 0usize;
    let started = Instant::now();
    let mut in_pairs = Duration::ZERO;
    while !stop(ops) {
        let text = next();
        let took = submit(w, &session, text, &mut out);
        ops += 1;
        let pair = w.texts[text].pair.as_ref().filter(|_| pairs);
        if let (Some(pair), Some(statement_ns)) = (pair, took) {
            if (out.samples[text].len() + text).is_multiple_of(PAIR_EVERY) {
                let t0 = Instant::now();
                std::hint::black_box(pair());
                let pair_took = t0.elapsed();
                out.occasions[text].push((statement_ns, pair_took.as_nanos() as u64));
                in_pairs += pair_took;
            }
        }
        if w.reloads && id == 0 && ops.is_multiple_of(RELOAD_EVERY) {
            w.reload_dimension(engine);
        }
    }
    out.wall = started.elapsed() - in_pairs;
    out
}

/// Run `clients` closed-loop clients against `engine` until `seconds` have
/// passed (each finishes the statement it is in, and at least its opening
/// round of one statement per class).
pub fn run(w: &Workload, engine: &Engine, clients: usize, pairs: bool, seconds: f64) -> Window {
    run_until(w, engine, clients, pairs, |started, done| {
        done >= w.classes.len() && started.elapsed().as_secs_f64() >= seconds
    })
}

/// Run every text `cycles` times on one client: the warm-up.
pub fn run_cycles(w: &Workload, engine: &Engine, cycles: usize) -> Window {
    let ops = cycles * w.texts.len();
    run_until(w, engine, 1, false, |_, done| done >= ops)
}

fn run_until(
    w: &Workload,
    engine: &Engine,
    clients: usize,
    pairs: bool,
    stop: impl Fn(Instant, usize) -> bool + Sync,
) -> Window {
    let before = engine.plan_cache_stats();
    let barrier = Barrier::new(clients);
    let mut total = Window::new(w.texts.len());
    thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    client(w, engine, id, pairs, |ops| stop(started, ops))
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    let after = engine.plan_cache_stats();
    total.cache = PlanCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        ..after
    };
    total
}
