//! Bounded, cost-keyed plan cache behind prepared statements.
//!
//! Planning is not free: the planner samples base tables to estimate
//! selectivities and group counts before pricing strategies, so repeating a
//! query re-pays the sampling pass every time. The cache memoizes the chosen
//! [`PhysicalPlan`] under a 64-bit fingerprint of the logical plan plus the
//! strategy-relevant execution parameters (thread count, strategy pins),
//! under a byte budget counted under the cache's lock, where every insert
//! and eviction already happens. A fingerprint match is confirmed with `==`
//! on the stored logical plan, so a hash collision cannot make two
//! statements share an entry. A plan is canonical by construction — the SQL binder and
//! [`crate::QueryBuilder::filter`] put one conjunction in one `Filter` — so
//! nothing is normalised per statement, and a hand-built `Filter` chain
//! costs its own entry and nothing else.
//!
//! An entry also keeps the SQL texts that parsed to its plan: parsing is
//! syntactic, so a text maps to one logical plan forever, and a warm text is
//! found by its bytes without being parsed again.
//!
//! Entries are invalidated three ways:
//!
//! - **Generation counters** — every table carries a load generation that
//!   [`crate::Database::load_table`] bumps. A cached plan remembers the
//!   generations of the tables it touches; a mismatch at lookup drops the
//!   entry (the data changed, so the sampled statistics are void).
//! - **The FK epoch** — registering or dropping an FK index changes which
//!   join strategies the planner may pick, so a plan with a join edge
//!   remembers the catalog's FK epoch too.
//! - **Observed drift** — after a metered execution the engine compares the
//!   planner's estimated selectivity against the measured one (the same
//!   observed-vs-predicted signal `EXPLAIN ANALYZE` reports). Past the
//!   drift threshold the entry is marked stale; the next lookup misses and
//!   re-plans with the observed selectivity as an override, so one skewed
//!   load cannot make the cache thrash between plan and re-plan.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

use swole_verify::{PlanCertificate, VerifyLevel};

use crate::catalog::Database;
use crate::logical::LogicalPlan;
use crate::physical::PhysicalPlan;

/// Relative-error threshold past which an observed selectivity invalidates
/// a cached plan (|predicted − observed| / observed). Generous on purpose:
/// strategy break-evens are shallow near the observed point, and a small
/// mis-estimate rarely changes the winning strategy.
pub(crate) const DRIFT_REL_THRESHOLD: f64 = 0.5;

/// Absolute floor on |predicted − observed| before drift can trigger.
/// Keeps tiny selectivities (where relative error is noisy) from churning
/// the cache.
pub(crate) const DRIFT_ABS_THRESHOLD: f64 = 0.02;

/// Default byte budget for a session's plan cache (see
/// [`crate::EngineBuilder::plan_cache_bytes`]).
pub(crate) const DEFAULT_PLAN_CACHE_BYTES: usize = 64 * 1024;

/// Consecutive interpreter-fallback executions of one plan fingerprint
/// after which its circuit opens: the engine then skips the doomed primary
/// strategy and goes straight to the data-centric interpreter, so a
/// persistently failing query class stops paying double execution cost.
pub(crate) const BREAKER_OPEN_AFTER: u32 = 3;

/// While a circuit is open, every Nth arrival probes the primary strategy
/// again (half-open); a probe success closes the circuit.
pub(crate) const BREAKER_PROBE_EVERY: u64 = 8;

/// Cap on tracked failing fingerprints; closed entries are swept when the
/// map would grow past this.
const BREAKER_MAX_TRACKED: usize = 256;

/// Verdict for one query arriving at its plan's fallback circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Circuit closed: run the primary strategy normally.
    Closed,
    /// Circuit open: skip the primary, go straight to the interpreter.
    Open,
    /// Circuit open, but this arrival re-tries the primary (half-open
    /// probe); success closes the circuit.
    Probe,
}

/// Per-fingerprint circuit state. Only *failing* fingerprints are tracked:
/// a plan that has never fallen back carries no entry.
#[derive(Debug, Default, Clone)]
struct BreakerState {
    consecutive_fallbacks: u32,
    open: bool,
    /// Arrivals since the circuit opened (drives the probe cadence).
    open_hits: u64,
}

/// Activity of the interpreter-fallback circuit breaker, from
/// [`crate::Engine::fallback_breaker_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackBreakerStats {
    /// Plan fingerprints whose circuit is currently open.
    pub open_circuits: usize,
    /// Executions that skipped their primary strategy because the circuit
    /// was open (probes not included).
    pub short_circuits: u64,
}

/// The 64-bit hash of `value`: a plan's fingerprint, a text's key.
/// Deterministic (fixed keys), so two engines fingerprint alike.
pub(crate) fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A SQL text an entry's plan was parsed from, with its hash.
type Text = (u64, Box<str>);

/// A statement's plans through the plan and certify phases: what an entry
/// keeps and a hit hands back, and what a run is admitted from.
#[derive(Clone)]
pub(crate) struct Planned {
    /// The key the entry is found under.
    pub(crate) fingerprint: u64,
    /// The plan the entry was planned from: what confirms a fingerprint
    /// match, and what a warm text runs (its fallback included).
    pub(crate) logical: Arc<LogicalPlan>,
    pub(crate) physical: Arc<PhysicalPlan>,
    /// Strongest [`VerifyLevel`] the plan has passed. Verification runs
    /// once per fingerprint: a hit at or below this level skips it, a hit
    /// above re-verifies and upgrades via [`PlanCache::note_verified`].
    pub(crate) verified: VerifyLevel,
    /// Admission certificate derived from the same statistics generations
    /// as the entry's — the generation check that invalidates the plan
    /// therefore invalidates its certificate with it (the stale-stats
    /// soundness edge).
    pub(crate) cert: Arc<PlanCertificate>,
}

/// One cached plan.
struct CacheEntry {
    planned: Planned,
    /// The texts that parsed to the entry's logical plan.
    texts: Vec<Text>,
    /// `(table, generation)` for every table the plan reads.
    generations: Vec<(String, u64)>,
    /// The catalog's FK epoch at planning, for a plan with a join edge.
    fk_epoch: Option<u64>,
    /// Bytes this entry counts against the cache budget.
    bytes: usize,
    /// The cache's use clock at this entry's insert or latest hit; the
    /// lowest is evicted first.
    used: u64,
    /// `Some(observed)` once drift marked the entry stale; the next lookup
    /// evicts it and hands the observed selectivity to the re-plan.
    stale: Option<f64>,
}

impl CacheEntry {
    /// Whether the catalog still is what the entry was planned against.
    /// Compares in place: nothing is allocated to check.
    fn current(&self, db: &Database) -> bool {
        self.generations
            .iter()
            .all(|(table, g)| db.generation(table).unwrap_or(0) == *g)
            && self.fk_epoch.is_none_or(|e| e == db.fk_epoch())
    }

    /// Current, and not marked stale by drift: a lookup would hit it.
    fn usable(&self, db: &Database) -> bool {
        self.current(db) && self.stale.is_none()
    }

    fn holds(&self, hash: u64, text: &str) -> bool {
        self.texts.iter().any(|(h, t)| *h == hash && **t == *text)
    }

    /// Whether the entry keeps `plan` under `fingerprint`.
    fn is(&self, fingerprint: u64, plan: &LogicalPlan) -> bool {
        self.planned.fingerprint == fingerprint && *self.planned.logical == *plan
    }
}

/// A point-in-time snapshot of plan-cache activity, from
/// [`crate::Engine::plan_cache_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to plan fresh.
    pub misses: u64,
    /// Entries dropped to make room under the byte budget.
    pub evictions: u64,
    /// Entries dropped because a table generation or the FK epoch changed,
    /// or observed selectivity drifted past the threshold.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes the resident entries count against the cache budget.
    pub bytes: usize,
}

/// Result of a cache probe.
pub(crate) enum CacheLookup {
    /// A valid entry (its certificate valid because the validity check
    /// just passed): reuse its plan.
    Hit(Planned),
    /// No usable entry; plan fresh.
    Miss {
        /// Observed selectivity from the drift-invalidated entry, if any,
        /// so the re-plan can substitute measurement for estimation.
        drift_hint: Option<f64>,
        /// The invalidated entry's plan and texts, for its replacement.
        invalidated: Option<(Arc<LogicalPlan>, Vec<Text>)>,
    },
}

/// Result of a probe by text ([`PlanCache::lookup_text`]).
pub(crate) enum TextLookup {
    /// A valid entry holds the text.
    Hit(Planned),
    /// The entry holding the text is no longer valid; this is its plan.
    Invalid(Arc<LogicalPlan>),
    /// No entry holds the text.
    Unknown,
}

/// The bounded LRU plan cache. One per [`crate::Engine`]; shared by all
/// clones of the engine and all prepared statements.
pub(crate) struct PlanCache {
    /// Byte budget of the resident entries; eviction makes room. `0`
    /// disables caching.
    budget: usize,
    inner: Mutex<Inner>,
    /// Fallback circuit breakers, keyed by plan fingerprint. Independent
    /// of the plan entries (and of whether caching is on): breaker state
    /// must survive cache eviction, or an evicted-but-broken plan would
    /// re-pay the doomed primary on every execution.
    breakers: Mutex<HashMap<u64, BreakerState>>,
    short_circuits: std::sync::atomic::AtomicU64,
}

#[derive(Default)]
struct Inner {
    entries: Vec<CacheEntry>,
    /// The counters of [`PlanCache::stats`], resident bytes included (the
    /// entry count is read there).
    counters: PlanCacheStats,
    /// Ticks once per hit or insert.
    clock: u64,
}

impl PlanCache {
    /// A cache with the given byte budget; `0` disables caching entirely
    /// (every lookup misses, inserts are dropped).
    pub(crate) fn new(budget_bytes: usize) -> PlanCache {
        PlanCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner::default()),
            breakers: Mutex::new(HashMap::new()),
            short_circuits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Probe for `plan` under `fingerprint`, validating the entry against
    /// `db`. A hit remembers `text`, a text that parsed to `plan`, on the
    /// entry.
    pub(crate) fn lookup(
        &self,
        fingerprint: u64,
        plan: &LogicalPlan,
        text: Option<(u64, &str)>,
        db: &Database,
    ) -> CacheLookup {
        let miss = CacheLookup::Miss {
            drift_hint: None,
            invalidated: None,
        };
        if self.budget == 0 {
            return miss;
        }
        let mut inner = self.lock();
        let Some(idx) = inner.entries.iter().position(|e| e.is(fingerprint, plan)) else {
            inner.counters.misses += 1;
            return miss;
        };
        let current = inner.entries[idx].current(db);
        if !current || inner.entries[idx].stale.is_some() {
            let dead = Self::remove(&mut inner, idx);
            inner.counters.invalidations += 1;
            inner.counters.misses += 1;
            return CacheLookup::Miss {
                // Changed data voids the observation along with the plan.
                drift_hint: dead.stale.filter(|_| current),
                invalidated: Some((dead.planned.logical, dead.texts)),
            };
        }
        let hit = Self::hit(&mut inner, idx);
        if let Some((hash, text)) = text {
            self.remember(&mut inner, idx, hash, text);
        }
        CacheLookup::Hit(hit)
    }

    /// Probe for the entry holding `text`, by its bytes: no parse, no
    /// fingerprint. Counts a hit only for a valid entry; an invalid one is
    /// [`PlanCache::lookup`]'s to count and drop.
    pub(crate) fn lookup_text(&self, hash: u64, text: &str, db: &Database) -> TextLookup {
        let mut inner = self.lock();
        let Some(idx) = inner.entries.iter().position(|e| e.holds(hash, text)) else {
            return TextLookup::Unknown;
        };
        let entry = &inner.entries[idx];
        if !entry.usable(db) {
            return TextLookup::Invalid(Arc::clone(&entry.planned.logical));
        }
        TextLookup::Hit(Self::hit(&mut inner, idx))
    }

    /// Count a hit on the valid entry at `idx` and stamp its use.
    fn hit(inner: &mut Inner, idx: usize) -> Planned {
        inner.counters.hits += 1;
        inner.clock += 1;
        let entry = &mut inner.entries[idx];
        entry.used = inner.clock;
        entry.planned.clone()
    }

    /// Keep `text` on the entry at `idx`, counted to it.
    fn remember(&self, inner: &mut Inner, idx: usize, hash: u64, text: &str) {
        if inner.entries[idx].holds(hash, text) {
            return;
        }
        let mut entry = Self::remove(inner, idx);
        entry.texts.push((hash, text.into()));
        entry.bytes += text.len();
        self.keep(inner, entry);
    }

    /// Keep `entry`, evicting the least recently used entries until it
    /// fits. An entry bigger than the whole budget is not kept.
    fn keep(&self, inner: &mut Inner, entry: CacheEntry) {
        while inner.counters.bytes + entry.bytes > self.budget {
            let oldest = (0..inner.entries.len()).min_by_key(|&i| inner.entries[i].used);
            let Some(oldest) = oldest else {
                return;
            };
            Self::remove(inner, oldest);
            inner.counters.evictions += 1;
        }
        inner.counters.bytes += entry.bytes;
        inner.entries.push(entry);
    }

    /// Take the entry at `idx` out, with its bytes.
    fn remove(inner: &mut Inner, idx: usize) -> CacheEntry {
        let dead = inner.entries.swap_remove(idx);
        inner.counters.bytes -= dead.bytes;
        dead
    }

    /// What [`PlanCache::lookup`] would find, without counting, stamping or
    /// dropping anything: a hit on a valid entry, or a miss with the drift
    /// hint the lookup would hand its re-plan. Used by `EXPLAIN` to show
    /// the plan the next run would execute.
    pub(crate) fn peek(&self, fingerprint: u64, plan: &LogicalPlan, db: &Database) -> CacheLookup {
        let inner = self.lock();
        let entry = inner.entries.iter().find(|e| e.is(fingerprint, plan));
        match entry {
            Some(e) if e.usable(db) => CacheLookup::Hit(e.planned.clone()),
            _ => CacheLookup::Miss {
                drift_hint: entry.and_then(|e| e.stale.filter(|_| e.current(db))),
                invalidated: None,
            },
        }
    }

    /// Insert `planned`, reached by `texts`, valid for `db` as it is now
    /// (see [`PlanCache::keep`]).
    pub(crate) fn insert(&self, planned: &Planned, texts: Vec<Text>, db: &Database) {
        if self.budget == 0 {
            return;
        }
        let logical = &planned.logical;
        let bytes = entry_bytes(logical, &planned.physical, &texts, &planned.cert);
        let generations = table_generations(db, logical);
        let mut join = false;
        logical.visit(&mut |node| join |= matches!(node, LogicalPlan::SemiJoin { .. }));
        let fk_epoch = join.then(|| db.fk_epoch());
        let mut inner = self.lock();
        // Replace any existing entry for the plan (e.g. a racing clone of the
        // engine planned the same statement).
        if let Some(idx) = (inner.entries.iter()).position(|e| e.is(planned.fingerprint, logical)) {
            Self::remove(&mut inner, idx);
        }
        inner.clock += 1;
        let entry = CacheEntry {
            planned: planned.clone(),
            texts,
            generations,
            fk_epoch,
            bytes,
            used: inner.clock,
            stale: None,
        };
        self.keep(&mut inner, entry);
    }

    /// The resident entry `plan` is, under `fingerprint`.
    fn entry_of<'a>(
        inner: &'a mut Inner,
        fingerprint: u64,
        plan: &Arc<PhysicalPlan>,
    ) -> Option<&'a mut CacheEntry> {
        (inner.entries.iter_mut()).find(|e| {
            e.planned.fingerprint == fingerprint && Arc::ptr_eq(&e.planned.physical, plan)
        })
    }

    /// Record that `planned`, a hit, has now passed verification at
    /// `level`. Levels only ratchet upward.
    pub(crate) fn note_verified(&self, planned: &Planned, level: VerifyLevel) {
        let mut inner = self.lock();
        if let Some(entry) = Self::entry_of(&mut inner, planned.fingerprint, &planned.physical) {
            entry.planned.verified = entry.planned.verified.max(level);
        }
    }

    /// Feed a measured selectivity of `plan`, cached under `fingerprint`,
    /// back into the cache. If it diverges from the σ the plan was priced
    /// with past the drift thresholds, the entry is marked stale; the next
    /// lookup misses and re-plans with `observed` as a hint.
    pub(crate) fn observe(&self, fingerprint: u64, plan: &Arc<PhysicalPlan>, observed: f64) {
        let mut inner = self.lock();
        let Some(entry) = Self::entry_of(&mut inner, fingerprint, plan) else {
            return;
        };
        let Some(estimated) = entry.planned.physical.estimates.selectivity else {
            return;
        };
        let abs = (estimated - observed).abs();
        let drifted = match swole_cost::observed::relative_error(estimated, observed) {
            Some(rel) => rel > DRIFT_REL_THRESHOLD && abs > DRIFT_ABS_THRESHOLD,
            // observed ≤ 0 (planner expected rows, none qualified): drift
            // iff the estimate was materially non-zero.
            None => abs > DRIFT_ABS_THRESHOLD,
        };
        if drifted {
            entry.stale = Some(observed);
        }
    }

    /// Consult the fallback circuit for `fingerprint` before running its
    /// primary strategy. An untracked (never-fallen-back) fingerprint is
    /// `Closed` without allocating an entry.
    pub(crate) fn breaker_check(&self, fingerprint: u64) -> BreakerDecision {
        let mut map = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        let Some(st) = map.get_mut(&fingerprint) else {
            return BreakerDecision::Closed;
        };
        if !st.open {
            return BreakerDecision::Closed;
        }
        st.open_hits += 1;
        if st.open_hits % BREAKER_PROBE_EVERY == 0 {
            BreakerDecision::Probe
        } else {
            self.short_circuits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            BreakerDecision::Open
        }
    }

    /// The primary strategy succeeded for `fingerprint`: close (and forget)
    /// its circuit. A successful half-open probe lands here too.
    pub(crate) fn breaker_primary_ok(&self, fingerprint: u64) {
        let mut map = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        map.remove(&fingerprint);
    }

    /// The query fell back to the interpreter (the primary failed a
    /// retryable runtime precondition). Returns `true` when this consecutive
    /// failure is the one that opened the circuit.
    pub(crate) fn breaker_fallback_ran(&self, fingerprint: u64) -> bool {
        let mut map = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        if !map.contains_key(&fingerprint) && map.len() >= BREAKER_MAX_TRACKED {
            map.retain(|_, st| st.open);
        }
        let st = map.entry(fingerprint).or_default();
        st.consecutive_fallbacks += 1;
        if !st.open && st.consecutive_fallbacks >= BREAKER_OPEN_AFTER {
            st.open = true;
            return true;
        }
        false
    }

    /// Point-in-time breaker activity.
    pub(crate) fn breaker_stats(&self) -> FallbackBreakerStats {
        let map = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        FallbackBreakerStats {
            open_circuits: map.values().filter(|s| s.open).count(),
            short_circuits: self
                .short_circuits
                .load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Current counters plus residency.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            entries: inner.entries.len(),
            ..inner.counters.clone()
        }
    }
}

/// Estimated resident size of a cache entry. The plans' `Debug` renderings
/// track their structural size (shape, decision strings, cost terms, the
/// estimates the plan was priced with) closely enough for budget
/// accounting, without a hand-maintained `size_of` walk; a text counts its
/// bytes.
fn entry_bytes(
    logical: &LogicalPlan,
    plan: &PhysicalPlan,
    texts: &[Text],
    certificate: &PlanCertificate,
) -> usize {
    let texts: usize = texts.iter().map(|(_, t)| t.len()).sum();
    format!("{logical:?}").len()
        + format!("{plan:?}").len()
        + texts
        + 128
        + 64
        + certificate.per_op_bounds.len() * 96
}

/// The generation counter of every table a plan reads (depth-first, each
/// table once — a statement names a handful, so duplicates are found by
/// scanning), for an entry's validity check.
fn table_generations(db: &Database, plan: &LogicalPlan) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    plan.visit(&mut |node| {
        if let LogicalPlan::Scan { table } = node {
            if !out.iter().any(|(seen, _)| seen == table) {
                out.push((table.clone(), db.generation(table).unwrap_or(0)));
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{
        AggMode, AggShape, CostProfile, Estimates, GroupTableRepr, Instance, PhysicalPlan, Shape,
    };
    use crate::tile::TileProgram;
    use swole_cost::{AggStrategy, JoinOrderMethod};
    use swole_storage::Table;
    use swole_verify::OverflowProof;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(Table::new("T"));
        db
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan { table: "T".into() }
    }

    /// A plan other than [`scan`] (and its own fingerprint's).
    fn limit(n: usize) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(scan()),
            n,
        }
    }

    fn plan() -> Arc<PhysicalPlan> {
        plan_estimating(None)
    }

    fn plan_estimating(selectivity: Option<f64>) -> Arc<PhysicalPlan> {
        let mode = AggMode::By(AggStrategy::Hybrid);
        let program = Arc::new(
            TileProgram::lower(&Table::new("T"), None, &[]).expect("empty program lowers"),
        );
        Arc::new(PhysicalPlan::new(
            Shape::Agg(AggShape {
                table: "T".into(),
                filter: None,
                edges: Vec::new(),
                order_method: JoinOrderMethod::Dp,
                group: None,
                aggs: Vec::new(),
                mode,
                instance: Instance::lower(mode, false, &program, &[]),
                group_table: GroupTableRepr::Hash,
                program,
            }),
            vec!["test".into()],
            Vec::new(),
            None,
            Estimates {
                selectivity,
                result_rows: 1,
                profile: CostProfile::Unmodelled,
            },
        ))
    }

    fn certificate() -> Arc<PlanCertificate> {
        Arc::new(PlanCertificate {
            peak_bytes_bound: 0,
            primary_bytes_bound: 0,
            fallback_bytes: 0,
            per_op_bounds: Vec::new(),
            overflow_proof: OverflowProof::I64,
            workers: 1,
            stats_generations: Vec::new(),
            lines: Vec::new(),
        })
    }

    /// `physical` planned for `logical`, under `fingerprint`.
    fn planned(fingerprint: u64, logical: &LogicalPlan, physical: &Arc<PhysicalPlan>) -> Planned {
        Planned {
            fingerprint,
            logical: Arc::new(logical.clone()),
            physical: Arc::clone(physical),
            verified: VerifyLevel::Off,
            cert: certificate(),
        }
    }

    /// Insert `physical` for `logical` under its own fingerprint.
    fn put(cache: &PlanCache, db: &Database, logical: &LogicalPlan, physical: Arc<PhysicalPlan>) {
        let planned = planned(hash_of(logical), logical, &physical);
        cache.insert(&planned, Vec::new(), db);
    }

    fn get(cache: &PlanCache, db: &Database, logical: &LogicalPlan) -> CacheLookup {
        cache.lookup(hash_of(logical), logical, None, db)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let (cache, db) = (PlanCache::new(1 << 20), db());
        assert!(matches!(
            get(&cache, &db, &scan()),
            CacheLookup::Miss {
                drift_hint: None,
                invalidated: None
            }
        ));
        put(&cache, &db, &scan(), plan());
        assert!(matches!(get(&cache, &db, &scan()), CacheLookup::Hit(..)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn generation_mismatch_invalidates() {
        let (cache, mut db) = (PlanCache::new(1 << 20), db());
        put(&cache, &db, &scan(), plan());
        db.load_table(Table::new("T"));
        match get(&cache, &db, &scan()) {
            CacheLookup::Miss {
                drift_hint: None,
                invalidated: Some((logical, _)),
            } => assert_eq!(*logical, scan()),
            _ => panic!("expected an invalidation"),
        }
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn drift_marks_stale_and_hints_replan() {
        let (cache, db) = (PlanCache::new(1 << 20), db());
        let priced = plan_estimating(Some(0.5));
        put(&cache, &db, &scan(), Arc::clone(&priced));
        let fp = hash_of(&scan());
        cache.observe(fp, &priced, 0.49); // within threshold: still a hit
        assert!(matches!(get(&cache, &db, &scan()), CacheLookup::Hit(..)));
        cache.observe(fp, &plan(), 0.05); // another plan's run: no effect
        assert!(matches!(get(&cache, &db, &scan()), CacheLookup::Hit(..)));
        cache.observe(fp, &priced, 0.05); // way off: stale
        match get(&cache, &db, &scan()) {
            CacheLookup::Miss {
                drift_hint: Some(h),
                ..
            } => assert!((h - 0.05).abs() < 1e-12),
            _ => panic!("expected drift miss"),
        }
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn lru_eviction_under_tiny_budget() {
        let one = entry_bytes(&limit(1), &plan(), &[], &certificate());
        let db = db();
        let cache = PlanCache::new(one + one / 2); // room for one entry only
        put(&cache, &db, &limit(1), plan());
        put(&cache, &db, &limit(2), plan());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert!(matches!(
            get(&cache, &db, &limit(1)),
            CacheLookup::Miss { .. }
        ));
        assert!(matches!(get(&cache, &db, &limit(2)), CacheLookup::Hit(..)));
    }

    /// A hit, not an insert order, is what keeps an entry: the entry used
    /// last survives the next insert.
    #[test]
    fn a_hit_keeps_its_entry_from_eviction() {
        let one = entry_bytes(&limit(1), &plan(), &[], &certificate());
        let db = db();
        let cache = PlanCache::new(2 * one + one / 2); // room for two
        put(&cache, &db, &limit(1), plan());
        put(&cache, &db, &limit(2), plan());
        assert!(matches!(get(&cache, &db, &limit(1)), CacheLookup::Hit(..)));
        put(&cache, &db, &limit(3), plan());
        assert!(matches!(get(&cache, &db, &limit(1)), CacheLookup::Hit(..)));
        assert!(matches!(
            get(&cache, &db, &limit(2)),
            CacheLookup::Miss { .. }
        ));
    }

    #[test]
    fn zero_budget_disables() {
        let (cache, db) = (PlanCache::new(0), db());
        put(&cache, &db, &scan(), plan());
        assert!(matches!(
            get(&cache, &db, &scan()),
            CacheLookup::Miss { .. }
        ));
        assert_eq!(cache.stats().entries, 0);
        assert!(matches!(
            cache.peek(hash_of(&scan()), &scan(), &db),
            CacheLookup::Miss { .. }
        ));
    }

    /// The fingerprint only finds candidates; the stored plan decides. Two
    /// plans forced under one `u64` are two entries, each found by its own
    /// plan.
    #[test]
    fn two_plans_under_one_fingerprint_are_found_by_their_own_plan() {
        let (cache, db) = (PlanCache::new(1 << 20), db());
        let (a, b) = (plan(), plan());
        for (logical, physical) in [(limit(1), &a), (limit(2), &b)] {
            cache.insert(&planned(7, &logical, physical), Vec::new(), &db);
        }
        assert_eq!(cache.stats().entries, 2);
        for (logical, physical) in [(limit(1), &a), (limit(2), &b)] {
            match cache.lookup(7, &logical, None, &db) {
                CacheLookup::Hit(hit) => {
                    assert!(Arc::ptr_eq(&hit.physical, physical));
                    assert_eq!(*hit.logical, logical);
                }
                CacheLookup::Miss { .. } => panic!("{logical:?} is cached"),
            }
        }
        assert!(matches!(
            cache.lookup(7, &limit(3), None, &db),
            CacheLookup::Miss { .. }
        ));
    }

    /// A text rides on the entry its plan hit, is then found by its bytes
    /// alone, and is handed to the replacement when the entry dies.
    #[test]
    fn a_text_is_found_by_its_bytes_until_its_entry_dies() {
        let (cache, mut db) = (PlanCache::new(1 << 20), db());
        let text = "select * from T";
        let hash = hash_of(text);
        assert!(matches!(
            cache.lookup_text(hash, text, &db),
            TextLookup::Unknown
        ));
        put(&cache, &db, &scan(), plan());
        let before = cache.stats().bytes;
        let fp = hash_of(&scan());
        assert!(matches!(
            cache.lookup(fp, &scan(), Some((hash, text)), &db),
            CacheLookup::Hit(..)
        ));
        assert_eq!(
            cache.stats().bytes,
            before + text.len(),
            "the text is charged"
        );
        match cache.lookup_text(hash, text, &db) {
            TextLookup::Hit(hit) => assert_eq!(hit.fingerprint, fp),
            _ => panic!("the text is held"),
        }
        assert!(matches!(
            cache.lookup_text(hash, "select * from  T", &db),
            TextLookup::Unknown
        ));
        db.load_table(Table::new("T"));
        assert!(matches!(
            cache.lookup_text(hash, text, &db),
            TextLookup::Invalid(..)
        ));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0), "{stats:?}");
        match cache.lookup(fp, &scan(), None, &db) {
            CacheLookup::Miss {
                invalidated: Some((_, texts)),
                ..
            } => assert_eq!(texts, vec![(hash, text.into())]),
            _ => panic!("expected an invalidation"),
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_fallbacks_probes_and_closes() {
        let cache = PlanCache::new(1 << 20);
        assert_eq!(cache.breaker_check(1), BreakerDecision::Closed);
        for _ in 0..BREAKER_OPEN_AFTER - 1 {
            assert!(!cache.breaker_fallback_ran(1));
            assert_eq!(cache.breaker_check(1), BreakerDecision::Closed);
        }
        assert!(cache.breaker_fallback_ran(1), "third failure opens");
        let mut probes = 0;
        for i in 1..=(2 * BREAKER_PROBE_EVERY) {
            match cache.breaker_check(1) {
                BreakerDecision::Probe => {
                    probes += 1;
                    assert_eq!(i % BREAKER_PROBE_EVERY, 0);
                }
                BreakerDecision::Open => {}
                BreakerDecision::Closed => panic!("open circuit reported closed"),
            }
        }
        assert_eq!(probes, 2);
        let stats = cache.breaker_stats();
        assert_eq!(stats.open_circuits, 1);
        assert_eq!(stats.short_circuits, 2 * BREAKER_PROBE_EVERY - 2);
        // A primary success (e.g. a half-open probe) closes the circuit.
        cache.breaker_primary_ok(1);
        assert_eq!(cache.breaker_check(1), BreakerDecision::Closed);
        assert_eq!(cache.breaker_stats().open_circuits, 0);
        // Other fingerprints were never affected.
        assert_eq!(cache.breaker_check(2), BreakerDecision::Closed);
    }

    #[test]
    fn peek_does_not_perturb() {
        let (cache, mut db) = (PlanCache::new(1 << 20), db());
        let cached = plan_estimating(Some(0.5));
        put(&cache, &db, &scan(), Arc::clone(&cached));
        let fp = hash_of(&scan());
        let miss = |lookup| {
            matches!(
                lookup,
                CacheLookup::Miss {
                    drift_hint: None,
                    ..
                }
            )
        };
        match cache.peek(fp, &scan(), &db) {
            CacheLookup::Hit(hit) => assert!(
                Arc::ptr_eq(&hit.physical, &cached),
                "peek hands out the entry's plan"
            ),
            CacheLookup::Miss { .. } => panic!("the entry is valid"),
        }
        assert!(miss(cache.peek(fp, &limit(1), &db)));
        assert!(miss(cache.peek(fp + 1, &scan(), &db)));
        // A stale entry is a miss with the hint the lookup would hand on.
        cache.observe(fp, &cached, 0.05);
        match cache.peek(fp, &scan(), &db) {
            CacheLookup::Miss {
                drift_hint: Some(h),
                ..
            } => assert!((h - 0.05).abs() < 1e-12),
            _ => panic!("expected a drift miss"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        // Changed data voids the observation along with the plan.
        db.load_table(Table::new("T"));
        assert!(miss(cache.peek(fp, &scan(), &db)));
        assert_eq!(cache.stats().entries, 1, "peek drops nothing");
    }
}
