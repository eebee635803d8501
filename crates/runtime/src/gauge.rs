//! Hierarchical memory accounting: per-query gauges under a global budget.
//!
//! Modeled on DataFusion's memory-pool split: a [`GlobalMemoryPool`] owns
//! the server-wide byte budget and a [`MemoryPolicy`] deciding how
//! concurrent queries share it; each query charges a private [`MemGauge`]
//! which forwards every charge to the pool first. A charge that either
//! budget cannot absorb fails with a typed
//! [`RuntimeError::BudgetExceeded`] *before* the allocation happens, so an
//! over-committed server degrades into per-query errors instead of an OOM
//! kill.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::RuntimeError;
use crate::faults::ArmedPlan;

/// How concurrent queries divide the global memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryPolicy {
    /// First come, first served: any query may take any free budget. One
    /// hungry query can starve the others, but total throughput is highest
    /// when queries rarely collide.
    #[default]
    Greedy,
    /// Each of the `n` registered queries may hold at most `budget / n`
    /// bytes. A query that stays under its fair share can never be failed
    /// by a neighbour's appetite.
    FairShare,
}

/// Point-in-time snapshot of a [`GlobalMemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPoolStats {
    /// Bytes currently charged across all registered queries.
    pub used: usize,
    /// High-water mark of `used` over the pool's lifetime.
    pub peak: usize,
    /// The configured global budget in bytes.
    pub budget: usize,
    /// Queries currently registered (in flight).
    pub active: usize,
    /// The sharing policy.
    pub policy: MemoryPolicy,
}

/// The server-wide memory budget that per-query [`MemGauge`]s draw from.
///
/// The check-then-add is a single atomic `fetch_update`, so `used` can
/// never exceed `budget` — the invariant the armed-fault acceptance tests
/// assert via [`MemoryPoolStats::peak`]. FairShare limits are advisory
/// reads of the registration count (a query racing a register/unregister
/// may see a slightly stale share), but the global cap itself is exact.
#[derive(Debug)]
pub struct GlobalMemoryPool {
    budget: usize,
    policy: MemoryPolicy,
    used: AtomicUsize,
    peak: AtomicUsize,
    active: AtomicUsize,
}

impl GlobalMemoryPool {
    /// A pool with `budget` bytes shared under `policy`.
    pub fn new(budget: usize, policy: MemoryPolicy) -> GlobalMemoryPool {
        GlobalMemoryPool {
            budget,
            policy,
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
        }
    }

    /// Register one more in-flight query (affects FairShare limits).
    pub fn register(&self) {
        self.active.fetch_add(1, Ordering::SeqCst);
    }

    /// Unregister an in-flight query, returning the bytes it still holds.
    pub fn unregister(&self, still_charged: usize) {
        self.release(still_charged);
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// The per-query byte limit under the current policy and registration
    /// count.
    pub fn query_limit(&self) -> usize {
        match self.policy {
            MemoryPolicy::Greedy => self.budget,
            MemoryPolicy::FairShare => self.budget / self.active.load(Ordering::SeqCst).max(1),
        }
    }

    /// Charge `bytes` for a query whose local usage after the charge would
    /// be `query_used_after`. Fails (without charging) if the query would
    /// exceed its policy share or the pool its global budget.
    pub fn try_charge(&self, bytes: usize, query_used_after: usize) -> Result<(), RuntimeError> {
        let limit = self.query_limit();
        if query_used_after > limit {
            return Err(RuntimeError::BudgetExceeded {
                requested: bytes,
                used: query_used_after.saturating_sub(bytes),
                budget: limit,
            });
        }
        let charged = self
            .used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                let after = used.checked_add(bytes)?;
                (after <= self.budget).then_some(after)
            });
        match charged {
            Ok(prev) => {
                self.peak.fetch_max(prev + bytes, Ordering::SeqCst);
                Ok(())
            }
            Err(used) => Err(RuntimeError::BudgetExceeded {
                requested: bytes,
                used,
                budget: self.budget,
            }),
        }
    }

    /// Return previously charged bytes to the pool.
    pub fn release(&self, bytes: usize) {
        let _ = self
            .used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Snapshot the pool's counters.
    pub fn stats(&self) -> MemoryPoolStats {
        MemoryPoolStats {
            used: self.used.load(Ordering::SeqCst),
            peak: self.peak.load(Ordering::SeqCst),
            budget: self.budget,
            active: self.active.load(Ordering::SeqCst),
            policy: self.policy,
        }
    }
}

/// Byte-accounting gauge enforcing a per-query memory budget.
///
/// The executor charges the gauge at every allocation site that scales with
/// input size — predicate masks, positional bitmaps, key sets, aggregation
/// hash tables (including growth), and per-worker tile scratch. A charge
/// that would push the total past the budget fails with
/// [`RuntimeError::BudgetExceeded`] *before* the allocation happens, so a
/// too-small budget degrades into a typed error instead of an OOM kill.
///
/// A gauge may additionally be attached to a [`GlobalMemoryPool`]
/// ([`MemGauge::hierarchical`]); every charge is then cleared with the pool
/// first, and the pool's share is returned when the owning context drops.
///
/// The gauge lives for one query; execution-path bytes are never released,
/// which overestimates transient peaks but keeps the hot path cheap.
/// Long-lived gauges (the plan cache) pair [`MemGauge::release`] with every
/// successful charge instead.
#[derive(Debug)]
pub struct MemGauge {
    used: AtomicUsize,
    /// `usize::MAX` means unlimited.
    budget: usize,
    global: Option<Arc<GlobalMemoryPool>>,
    /// Bytes successfully forwarded to `global` (released on drop by the
    /// owning [`crate::ExecCtx`]).
    parent_charged: AtomicUsize,
    /// The owning context's armed fault plan, which may fail a charge.
    pub(crate) faults: Option<Arc<ArmedPlan>>,
}

impl MemGauge {
    /// A standalone gauge with an optional local budget.
    pub fn new(budget: Option<usize>) -> MemGauge {
        MemGauge::hierarchical(budget, None)
    }

    /// A gauge whose charges are also cleared with a global pool.
    pub fn hierarchical(budget: Option<usize>, global: Option<Arc<GlobalMemoryPool>>) -> MemGauge {
        MemGauge {
            used: AtomicUsize::new(0),
            budget: budget.unwrap_or(usize::MAX),
            global,
            parent_charged: AtomicUsize::new(0),
            faults: None,
        }
    }

    /// Charge `bytes` against the budget (and the global pool, if
    /// attached). Fails if either budget would be exceeded, or if the
    /// armed fault plan fails this charge.
    pub fn try_charge(&self, bytes: usize) -> Result<(), RuntimeError> {
        if self.faults.as_ref().is_some_and(|f| f.charge_fails()) {
            return Err(RuntimeError::BudgetExceeded {
                requested: bytes,
                used: self.used(),
                budget: 0,
            });
        }
        if let Some(global) = &self.global {
            global.try_charge(bytes, self.used().saturating_add(bytes))?;
            self.parent_charged.fetch_add(bytes, Ordering::Relaxed);
        }
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.budget {
            return Err(RuntimeError::BudgetExceeded {
                requested: bytes,
                used: prev,
                budget: self.budget,
            });
        }
        Ok(())
    }

    /// Charge `bytes`, rolling the charge back on failure.
    ///
    /// Long-lived gauges (the plan cache's byte budget) account bytes for
    /// the session's lifetime, not one query, and evict until a charge
    /// fits: a failed attempt must leave nothing charged.
    pub fn try_charge_quiet(&self, bytes: usize) -> Result<(), RuntimeError> {
        if let Some(global) = &self.global {
            global.try_charge(bytes, self.used().saturating_add(bytes))?;
            self.parent_charged.fetch_add(bytes, Ordering::Relaxed);
        }
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.budget {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            self.release_parent(bytes);
            return Err(RuntimeError::BudgetExceeded {
                requested: bytes,
                used: prev,
                budget: self.budget,
            });
        }
        Ok(())
    }

    /// Return previously charged bytes to the budget (cache eviction).
    /// Only meaningful for long-lived gauges that pair every release with
    /// an earlier successful charge.
    pub fn release(&self, bytes: usize) {
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
        self.release_parent(bytes);
    }

    /// Return up to `bytes` to the global pool, clamped to what this gauge
    /// actually forwarded.
    fn release_parent(&self, bytes: usize) {
        let Some(global) = &self.global else { return };
        let prev = self
            .parent_charged
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            })
            .unwrap_or(0);
        global.release(bytes.min(prev));
    }

    /// Bytes charged so far.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes currently held against the global pool.
    pub(crate) fn parent_charged(&self) -> usize {
        self.parent_charged.load(Ordering::Relaxed)
    }

    /// The configured budget, if one was set.
    pub fn budget(&self) -> Option<usize> {
        (self.budget != usize::MAX).then_some(self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_pool_enforces_global_cap_exactly() {
        let pool = Arc::new(GlobalMemoryPool::new(1000, MemoryPolicy::Greedy));
        let a = MemGauge::hierarchical(None, Some(Arc::clone(&pool)));
        let b = MemGauge::hierarchical(None, Some(Arc::clone(&pool)));
        pool.register();
        pool.register();
        a.try_charge(700).expect("within budget");
        let err = b.try_charge(400).expect_err("would exceed global budget");
        assert!(matches!(
            err,
            RuntimeError::BudgetExceeded { budget: 1000, .. }
        ));
        b.try_charge(300).expect("exactly fills the budget");
        let stats = pool.stats();
        assert_eq!(stats.used, 1000);
        assert_eq!(stats.peak, 1000);
        pool.unregister(a.parent_charged());
        pool.unregister(b.parent_charged());
        assert_eq!(pool.stats().used, 0);
        assert_eq!(pool.stats().peak, 1000, "peak is a high-water mark");
    }

    #[test]
    fn fair_share_limits_each_query_to_its_slice() {
        let pool = Arc::new(GlobalMemoryPool::new(1000, MemoryPolicy::FairShare));
        pool.register();
        pool.register();
        let a = MemGauge::hierarchical(None, Some(Arc::clone(&pool)));
        let err = a.try_charge(600).expect_err("600 > 1000/2 share");
        assert!(matches!(
            err,
            RuntimeError::BudgetExceeded { budget: 500, .. }
        ));
        a.try_charge(500).expect("exactly the fair share");
        // The second query still gets its own slice.
        let b = MemGauge::hierarchical(None, Some(Arc::clone(&pool)));
        b.try_charge(500).expect("second query's share");
        pool.unregister(a.parent_charged());
        // With one query left the share grows back to the full budget.
        assert_eq!(pool.query_limit(), 1000);
        pool.unregister(b.parent_charged());
    }

    #[test]
    fn local_budget_failure_after_global_charge_stays_accounted() {
        let pool = Arc::new(GlobalMemoryPool::new(1000, MemoryPolicy::Greedy));
        pool.register();
        let g = MemGauge::hierarchical(Some(100), Some(Arc::clone(&pool)));
        let err = g.try_charge(200).expect_err("local budget is smaller");
        assert!(matches!(
            err,
            RuntimeError::BudgetExceeded { budget: 100, .. }
        ));
        // Sticky local accounting: the failed charge stays counted, and the
        // matching global share is returned wholesale at unregister.
        assert_eq!(g.used(), 200);
        assert_eq!(g.parent_charged(), 200);
        pool.unregister(g.parent_charged());
        assert_eq!(pool.stats().used, 0);
    }

    #[test]
    fn quiet_charge_rolls_back_both_levels() {
        let pool = Arc::new(GlobalMemoryPool::new(1000, MemoryPolicy::Greedy));
        pool.register();
        let g = MemGauge::hierarchical(Some(100), Some(Arc::clone(&pool)));
        g.try_charge_quiet(300).expect_err("over local budget");
        assert_eq!(g.used(), 0);
        assert_eq!(pool.stats().used, 0);
        g.try_charge_quiet(80).expect("fits");
        g.release(80);
        assert_eq!(g.used(), 0);
        assert_eq!(pool.stats().used, 0);
        pool.unregister(g.parent_charged());
    }
}
