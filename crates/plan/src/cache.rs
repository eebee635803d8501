//! Bounded, cost-keyed plan cache behind prepared statements.
//!
//! Planning is not free: the planner samples base tables to estimate
//! selectivities and group counts before pricing strategies, so repeating a
//! query re-pays the sampling pass every time. The cache memoizes the chosen
//! [`PhysicalPlan`] keyed on the logical plan plus the strategy-relevant
//! execution parameters (thread count), under a byte budget enforced with
//! the same [`MemGauge`] machinery that hardens execution. The key renders
//! the plan as given: a plan is canonical by construction — the SQL binder
//! and [`crate::QueryBuilder::filter`] put one conjunction in one `Filter` —
//! so nothing is normalised per statement, and a hand-built `Filter` chain
//! costs its own entry and nothing else.
//!
//! Entries are invalidated two ways:
//!
//! - **Generation counters** — every table carries a load generation that
//!   [`crate::Database::load_table`] bumps. A cached plan remembers the
//!   generations of the tables it touches; a mismatch at lookup drops the
//!   entry (the data changed, so the sampled statistics are void).
//! - **Observed drift** — after a metered execution the engine compares the
//!   planner's estimated selectivity against the measured one (the same
//!   observed-vs-predicted signal `EXPLAIN ANALYZE` reports). Past the
//!   drift threshold the entry is marked stale; the next lookup misses and
//!   re-plans with the observed selectivity as an override, so one skewed
//!   load cannot make the cache thrash between plan and re-plan.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use swole_verify::{PlanCertificate, VerifyLevel};

use crate::physical::PhysicalPlan;
use swole_runtime::MemGauge;

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

/// One cached plan.
struct CacheEntry {
    key: String,
    plan: Arc<PhysicalPlan>,
    /// `(table, generation)` for every table the plan reads.
    generations: Vec<(String, u64)>,
    /// Bytes charged against the cache gauge for this entry.
    bytes: usize,
    /// `Some(observed)` once drift marked the entry stale; the next lookup
    /// evicts it and hands the observed selectivity to the re-plan.
    stale: Option<f64>,
    /// Strongest [`VerifyLevel`] this plan has passed. Verification runs
    /// once per fingerprint: a hit at or below this level skips it, a hit
    /// above re-verifies and upgrades via [`PlanCache::note_verified`].
    verified: VerifyLevel,
    /// Admission certificate derived from the same statistics generations
    /// as `generations` — the generation check that invalidates the plan
    /// therefore invalidates its certificate with it (the stale-stats
    /// soundness edge).
    certificate: Option<Arc<PlanCertificate>>,
}

/// Counters behind [`PlanCacheStats`].
#[derive(Debug, Default, Clone)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
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
    /// Entries dropped because a table generation changed or observed
    /// selectivity drifted past the threshold.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the cache budget.
    pub bytes: usize,
}

/// Result of a cache probe.
pub(crate) enum CacheLookup {
    /// A valid entry: reuse its plan. Carries the strongest verification
    /// level the plan has already passed and the cached admission
    /// certificate (valid because the generation check just passed).
    Hit(Arc<PhysicalPlan>, VerifyLevel, Option<Arc<PlanCertificate>>),
    /// No usable entry; plan fresh. `drift_hint` carries the observed
    /// selectivity when the miss was caused by drift invalidation, so the
    /// re-plan can substitute measurement for estimation.
    Miss {
        /// Observed selectivity from the drift-invalidated entry, if any.
        drift_hint: Option<f64>,
    },
}

/// The bounded LRU plan cache. One per [`crate::Engine`]; shared by all
/// clones of the engine and all prepared statements.
pub(crate) struct PlanCache {
    /// Byte budget, enforced with the hardened-execution gauge (quiet
    /// charges: cache bookkeeping must not consume injected faults).
    gauge: MemGauge,
    /// `entries` is LRU-ordered: front = least recent, back = most recent.
    inner: Mutex<Inner>,
    enabled: bool,
    /// Fallback circuit breakers, keyed by plan fingerprint. Independent
    /// of the plan entries (and of `enabled`): breaker state must survive
    /// cache eviction, or an evicted-but-broken plan would re-pay the
    /// doomed primary on every execution.
    breakers: Mutex<HashMap<String, BreakerState>>,
    short_circuits: std::sync::atomic::AtomicU64,
}

#[derive(Default)]
struct Inner {
    entries: Vec<CacheEntry>,
    counters: Counters,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("enabled", &self.enabled)
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .finish()
    }
}

impl PlanCache {
    /// A cache with the given byte budget; `0` disables caching entirely
    /// (every lookup misses, inserts are dropped).
    pub(crate) fn new(budget_bytes: usize) -> PlanCache {
        PlanCache {
            gauge: MemGauge::new(Some(budget_bytes.max(1))),
            inner: Mutex::new(Inner::default()),
            enabled: budget_bytes > 0,
            breakers: Mutex::new(HashMap::new()),
            short_circuits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Probe for `key`, validating table generations. A hit moves the entry
    /// to the back of the LRU order.
    pub(crate) fn lookup(&self, key: &str, generations: &[(String, u64)]) -> CacheLookup {
        if !self.enabled {
            return CacheLookup::Miss { drift_hint: None };
        }
        let mut inner = self.lock();
        let Some(idx) = inner.entries.iter().position(|e| e.key == key) else {
            inner.counters.misses += 1;
            return CacheLookup::Miss { drift_hint: None };
        };
        let entry = &inner.entries[idx];
        if entry.generations != generations {
            let dead = inner.entries.remove(idx);
            self.gauge.release(dead.bytes);
            inner.counters.invalidations += 1;
            inner.counters.misses += 1;
            return CacheLookup::Miss { drift_hint: None };
        }
        if let Some(observed) = entry.stale {
            let dead = inner.entries.remove(idx);
            self.gauge.release(dead.bytes);
            inner.counters.invalidations += 1;
            inner.counters.misses += 1;
            return CacheLookup::Miss {
                drift_hint: Some(observed),
            };
        }
        let entry = inner.entries.remove(idx);
        let plan = Arc::clone(&entry.plan);
        let verified = entry.verified;
        let certificate = entry.certificate.clone();
        inner.entries.push(entry);
        inner.counters.hits += 1;
        CacheLookup::Hit(plan, verified, certificate)
    }

    /// Non-mutating probe: the plan `lookup` would hit, if it would. Used by
    /// `EXPLAIN` to report `plan: cached` — and to show that plan — without
    /// perturbing LRU order or counters.
    pub(crate) fn peek(
        &self,
        key: &str,
        generations: &[(String, u64)],
    ) -> Option<Arc<PhysicalPlan>> {
        if !self.enabled {
            return None;
        }
        let inner = self.lock();
        inner
            .entries
            .iter()
            .find(|e| e.key == key && e.generations == generations && e.stale.is_none())
            .map(|e| Arc::clone(&e.plan))
    }

    /// Insert a freshly planned entry, evicting least-recently-used entries
    /// until it fits the byte budget. An entry bigger than the whole budget
    /// is silently not cached.
    pub(crate) fn insert(
        &self,
        key: String,
        plan: Arc<PhysicalPlan>,
        generations: Vec<(String, u64)>,
        verified: VerifyLevel,
        certificate: Option<Arc<PlanCertificate>>,
    ) {
        if !self.enabled {
            return;
        }
        let bytes = entry_bytes(&key, &plan)
            + certificate
                .as_ref()
                .map_or(0, |c| 64 + c.per_op_bounds.len() * 96);
        let mut inner = self.lock();
        // Replace any existing entry for the key (e.g. a racing clone of the
        // engine planned the same statement).
        if let Some(idx) = inner.entries.iter().position(|e| e.key == key) {
            let dead = inner.entries.remove(idx);
            self.gauge.release(dead.bytes);
        }
        while self.gauge.try_charge_quiet(bytes).is_err() {
            if inner.entries.is_empty() {
                return; // larger than the whole budget: skip caching
            }
            let dead = inner.entries.remove(0);
            self.gauge.release(dead.bytes);
            inner.counters.evictions += 1;
        }
        inner.entries.push(CacheEntry {
            key,
            plan,
            generations,
            bytes,
            stale: None,
            verified,
            certificate,
        });
    }

    /// Record that the plan cached under `key` has now passed verification
    /// at `level`. Levels only ratchet upward.
    pub(crate) fn note_verified(&self, key: &str, level: VerifyLevel) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) {
            entry.verified = entry.verified.max(level);
        }
    }

    /// Feed a measured selectivity back into the cache. If it diverges from
    /// the σ the entry's plan was priced with past the drift thresholds, the
    /// entry is marked stale; the next lookup misses and re-plans with
    /// `observed` as a hint.
    pub(crate) fn observe(&self, key: &str, observed: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) else {
            return;
        };
        let Some(estimated) = entry.plan.estimates.selectivity else {
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

    /// Consult the fallback circuit for `key` before running its primary
    /// strategy. An untracked (never-fallen-back) fingerprint is `Closed`
    /// without allocating an entry.
    pub(crate) fn breaker_check(&self, key: &str) -> BreakerDecision {
        let mut map = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        // Empty until some statement has fallen back: do not hash the
        // several-hundred-byte key to learn that.
        if map.is_empty() {
            return BreakerDecision::Closed;
        }
        let Some(st) = map.get_mut(key) else {
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

    /// The primary strategy succeeded for `key`: close (and forget) its
    /// circuit. A successful half-open probe lands here too.
    pub(crate) fn breaker_primary_ok(&self, key: &str) {
        let mut map = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        if !map.is_empty() {
            map.remove(key);
        }
    }

    /// The query fell back to the interpreter (the primary failed a
    /// retryable runtime precondition). Returns `true` when this consecutive
    /// failure is the one that opened the circuit.
    pub(crate) fn breaker_fallback_ran(&self, key: &str) -> bool {
        let mut map = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        if !map.contains_key(key) && map.len() >= BREAKER_MAX_TRACKED {
            map.retain(|_, st| st.open);
        }
        let st = map.entry(key.to_string()).or_default();
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
            hits: inner.counters.hits,
            misses: inner.counters.misses,
            evictions: inner.counters.evictions,
            invalidations: inner.counters.invalidations,
            entries: inner.entries.len(),
            bytes: self.gauge.used(),
        }
    }
}

/// Estimated resident size of a cache entry. The plan's `Debug` rendering
/// tracks its structural size (shape, decision strings, cost terms, the
/// estimates it was priced with) closely enough for budget accounting,
/// without a hand-maintained `size_of` walk.
fn entry_bytes(key: &str, plan: &PhysicalPlan) -> usize {
    key.len() + format!("{plan:?}").len() + 128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{
        AggMode, AggShape, CostProfile, Estimates, GroupTableRepr, PhysicalPlan, Shape,
    };
    use crate::tile::TileProgram;
    use swole_cost::{AggStrategy, JoinOrderMethod};

    fn plan() -> Arc<PhysicalPlan> {
        plan_estimating(None)
    }

    fn plan_estimating(selectivity: Option<f64>) -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan::new(
            Shape::Agg(AggShape {
                table: "T".into(),
                filter: None,
                edges: Vec::new(),
                order_method: JoinOrderMethod::Dp,
                group: None,
                aggs: Vec::new(),
                mode: AggMode::By(AggStrategy::Hybrid),
                group_sink: None,
                group_table: GroupTableRepr::Hash,
                program: Arc::new(
                    TileProgram::lower(&swole_storage::Table::new("T"), None, &[])
                        .expect("empty program lowers"),
                ),
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

    fn gens(g: u64) -> Vec<(String, u64)> {
        vec![("T".to_string(), g)]
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = PlanCache::new(1 << 20);
        assert!(matches!(
            cache.lookup("q1", &gens(0)),
            CacheLookup::Miss { drift_hint: None }
        ));
        cache.insert("q1".into(), plan(), gens(0), VerifyLevel::Off, None);
        assert!(matches!(cache.lookup("q1", &gens(0)), CacheLookup::Hit(..)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn generation_mismatch_invalidates() {
        let cache = PlanCache::new(1 << 20);
        cache.insert("q1".into(), plan(), gens(0), VerifyLevel::Off, None);
        assert!(matches!(
            cache.lookup("q1", &gens(1)),
            CacheLookup::Miss { drift_hint: None }
        ));
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn drift_marks_stale_and_hints_replan() {
        let cache = PlanCache::new(1 << 20);
        cache.insert(
            "q1".into(),
            plan_estimating(Some(0.5)),
            gens(0),
            VerifyLevel::Off,
            None,
        );
        cache.observe("q1", 0.49); // within threshold: still a hit
        assert!(matches!(cache.lookup("q1", &gens(0)), CacheLookup::Hit(..)));
        cache.observe("q1", 0.05); // way off: stale
        match cache.lookup("q1", &gens(0)) {
            CacheLookup::Miss {
                drift_hint: Some(h),
            } => assert!((h - 0.05).abs() < 1e-12),
            _ => panic!("expected drift miss"),
        }
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn lru_eviction_under_tiny_budget() {
        let one = entry_bytes("a", &plan());
        let cache = PlanCache::new(one + one / 2); // room for one entry only
        cache.insert("a".into(), plan(), gens(0), VerifyLevel::Off, None);
        cache.insert("b".into(), plan(), gens(0), VerifyLevel::Off, None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert!(matches!(
            cache.lookup("a", &gens(0)),
            CacheLookup::Miss { .. }
        ));
        assert!(matches!(cache.lookup("b", &gens(0)), CacheLookup::Hit(..)));
    }

    #[test]
    fn zero_budget_disables() {
        let cache = PlanCache::new(0);
        cache.insert("a".into(), plan(), gens(0), VerifyLevel::Off, None);
        assert!(matches!(
            cache.lookup("a", &gens(0)),
            CacheLookup::Miss { .. }
        ));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.peek("a", &gens(0)).is_none());
    }

    #[test]
    fn breaker_opens_after_consecutive_fallbacks_probes_and_closes() {
        let cache = PlanCache::new(1 << 20);
        assert_eq!(cache.breaker_check("q"), BreakerDecision::Closed);
        for _ in 0..BREAKER_OPEN_AFTER - 1 {
            assert!(!cache.breaker_fallback_ran("q"));
            assert_eq!(cache.breaker_check("q"), BreakerDecision::Closed);
        }
        assert!(cache.breaker_fallback_ran("q"), "third failure opens");
        let mut probes = 0;
        for i in 1..=(2 * BREAKER_PROBE_EVERY) {
            match cache.breaker_check("q") {
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
        cache.breaker_primary_ok("q");
        assert_eq!(cache.breaker_check("q"), BreakerDecision::Closed);
        assert_eq!(cache.breaker_stats().open_circuits, 0);
        // Other fingerprints were never affected.
        assert_eq!(cache.breaker_check("other"), BreakerDecision::Closed);
    }

    #[test]
    fn peek_does_not_perturb() {
        let cache = PlanCache::new(1 << 20);
        let cached = plan();
        cache.insert(
            "a".into(),
            Arc::clone(&cached),
            gens(0),
            VerifyLevel::Off,
            None,
        );
        let peeked = cache.peek("a", &gens(0)).expect("the entry is valid");
        assert!(
            Arc::ptr_eq(&peeked, &cached),
            "peek hands out the entry's plan"
        );
        assert!(cache.peek("a", &gens(9)).is_none());
        assert!(cache.peek("zzz", &gens(0)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }
}
