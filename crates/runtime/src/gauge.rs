//! Memory: a query's certified peak, reserved once. Admission reserves the
//! peak from the engine's [`GlobalMemoryPool`], waiting in arrival order
//! until it fits, and the query's [`MemGauge`] — a local counter, touching
//! nothing shared — is limited to it. A charge past the limit fails with a
//! typed [`RuntimeError::BudgetExceeded`] *before* the allocation happens;
//! it means the certificate was unsound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::admission::AdmissionError;
use crate::error::RuntimeError;
use crate::faults::ArmedPlan;

/// Point-in-time snapshot of a [`GlobalMemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryPoolStats {
    /// Bytes reserved by the queries holding a reservation.
    pub used: usize,
    /// High-water mark of `used` over the pool's lifetime.
    pub peak: usize,
    /// The configured global budget in bytes.
    pub budget: usize,
    /// Queries holding a reservation.
    pub active: usize,
    /// Queries waiting for their reservation to fit.
    pub waiting: usize,
}

/// The engine-wide byte budget queries reserve their certified peaks from,
/// in arrival order: a waiter is served once it is the oldest and its bytes
/// fit, so small peaks cannot starve a large one. `used` ≤ `budget`.
#[derive(Debug)]
pub struct GlobalMemoryPool {
    budget: usize,
    state: Mutex<PoolState>,
    /// Signalled when bytes are returned, a waiter leaves, or it closes.
    changed: Condvar,
}

#[derive(Debug, Default)]
struct PoolState {
    used: usize,
    peak: usize,
    active: usize,
    /// Tickets of the waiting reservations, oldest first.
    waiting: VecDeque<u64>,
    next_ticket: u64,
    closed: bool,
}

impl GlobalMemoryPool {
    /// A pool of `budget` bytes.
    pub fn new(budget: usize) -> GlobalMemoryPool {
        GlobalMemoryPool {
            budget,
            state: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wake the waiters, if any, to look again.
    fn wake(&self, st: &PoolState) {
        if !st.waiting.is_empty() {
            self.changed.notify_all();
        }
    }

    /// Reserve `bytes` until the returned [`Reservation`] drops. Waits, in
    /// arrival order, until the bytes fit; fails with
    /// [`AdmissionError::DeadlineBeforeStart`] when `deadline` (wall time)
    /// passes first, with [`AdmissionError::Shutdown`] once the pool is
    /// [closed](GlobalMemoryPool::close), and with
    /// [`AdmissionError::BudgetInfeasible`] at once for more bytes than the
    /// whole budget.
    pub fn reserve(
        self: &Arc<Self>,
        bytes: usize,
        deadline: Option<Instant>,
    ) -> Result<Reservation, AdmissionError> {
        if bytes > self.budget {
            return Err(AdmissionError::BudgetInfeasible {
                bound: bytes as u64,
                budget: self.budget as u64,
            });
        }
        let mut st = self.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push_back(ticket);
        loop {
            let now = Instant::now();
            let outcome = if st.closed {
                Err(AdmissionError::Shutdown)
            } else if st.waiting.front() == Some(&ticket) && st.used + bytes <= self.budget {
                Ok(())
            } else if deadline.is_some_and(|d| now >= d) {
                Err(AdmissionError::DeadlineBeforeStart)
            } else {
                st = match deadline {
                    Some(d) => {
                        let wait = self.changed.wait_timeout(st, d - now);
                        wait.unwrap_or_else(|e| e.into_inner()).0
                    }
                    None => self.changed.wait(st).unwrap_or_else(|e| e.into_inner()),
                };
                continue;
            };
            // Granted or not, this waiter leaves: the next may now be first.
            st.waiting.retain(|&t| t != ticket);
            self.wake(&st);
            outcome?;
            st.used += bytes;
            st.peak = st.peak.max(st.used);
            st.active += 1;
            return Ok(Reservation {
                pool: Arc::clone(self),
                bytes,
            });
        }
    }

    /// Stop reserving: every waiter is woken and fails with
    /// [`AdmissionError::Shutdown`], and so does every later
    /// [`reserve`](GlobalMemoryPool::reserve). Reservations already granted
    /// stay valid until dropped. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// Snapshot the pool's counters.
    pub fn stats(&self) -> MemoryPoolStats {
        let st = self.lock();
        MemoryPoolStats {
            used: st.used,
            peak: st.peak,
            budget: self.budget,
            active: st.active,
            waiting: st.waiting.len(),
        }
    }
}

/// Bytes held in a [`GlobalMemoryPool`] from
/// [`GlobalMemoryPool::reserve`] until drop.
#[derive(Debug)]
pub struct Reservation {
    pool: Arc<GlobalMemoryPool>,
    bytes: usize,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        let mut st = self.pool.lock();
        st.used -= self.bytes;
        st.active -= 1;
        self.pool.wake(&st);
    }
}

/// One query's byte counter, limited to what its certificate reserved.
///
/// The executor charges it at every allocation site that scales with input
/// size — predicate masks, positional bitmaps, key sets, aggregation hash
/// tables (including growth), and per-worker tile scratch. A charge past
/// the limit fails *before* the allocation happens and stays counted.
/// Charges are held until [`MemGauge::restart`]: an overestimate of
/// transient peaks that keeps the hot path one relaxed add.
#[derive(Debug)]
pub struct MemGauge {
    used: AtomicUsize,
    /// The most an attempt before the last [`MemGauge::restart`] charged.
    peak: AtomicUsize,
    /// `usize::MAX` means unlimited.
    limit: usize,
    /// The owning context's armed fault plan, which may fail a charge.
    pub(crate) faults: Option<Arc<ArmedPlan>>,
}

impl MemGauge {
    /// A gauge with an optional limit.
    pub fn new(limit: Option<usize>) -> MemGauge {
        MemGauge {
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            limit: limit.unwrap_or(usize::MAX),
            faults: None,
        }
    }

    /// Charge `bytes` against the limit. Fails if it would be exceeded, or
    /// if the armed fault plan fails this charge.
    pub fn try_charge(&self, bytes: usize) -> Result<(), RuntimeError> {
        if self.faults.as_ref().is_some_and(|f| f.charge_fails()) {
            return Err(RuntimeError::BudgetExceeded {
                requested: bytes,
                used: self.used(),
                budget: 0,
            });
        }
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.limit {
            return Err(RuntimeError::BudgetExceeded {
                requested: bytes,
                used: prev,
                budget: self.limit,
            });
        }
        Ok(())
    }

    /// Drop every charge, keeping their total in [`MemGauge::peak`]: the
    /// structures of a failed attempt are gone once it has returned, and a
    /// retry starts from nothing.
    pub fn restart(&self) {
        let held = self.used.swap(0, Ordering::Relaxed);
        self.peak.fetch_max(held, Ordering::Relaxed);
    }

    /// Bytes charged since creation or the last [`MemGauge::restart`].
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// The most bytes charged at once: the larger of every attempt's.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed).max(self.used())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn reservations_fill_the_budget_exactly_and_drain() {
        let pool = Arc::new(GlobalMemoryPool::new(1000));
        let a = pool.reserve(700, None).expect("fits");
        let b = pool.reserve(300, None).expect("exactly fills the budget");
        let full = pool.stats();
        assert_eq!((full.used, full.peak, full.active), (1000, 1000, 2));
        let soon = Some(Instant::now() + Duration::from_millis(20));
        assert_eq!(
            pool.reserve(1, soon).expect_err("nothing left"),
            AdmissionError::DeadlineBeforeStart
        );
        assert_eq!(
            pool.reserve(1001, None).expect_err("more than the budget"),
            AdmissionError::BudgetInfeasible {
                bound: 1001,
                budget: 1000
            }
        );
        drop((a, b));
        let idle = pool.stats();
        assert_eq!((idle.used, idle.active, idle.waiting), (0, 0, 0));
        assert_eq!(idle.peak, 1000, "peak is a high-water mark");
    }

    /// The oldest waiter is served first, even when a later, smaller one
    /// would fit sooner; closing the pool fails whoever still waits.
    #[test]
    fn waiters_are_served_in_arrival_order_and_closing_fails_them() {
        let pool = Arc::new(GlobalMemoryPool::new(100));
        let held = pool.reserve(60, None).expect("fits");
        let wait_for = |n: usize| {
            while pool.stats().waiting < n {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let big = s.spawn(|| pool.reserve(80, None).map(|r| r.bytes));
            wait_for(1);
            let small = s.spawn(|| pool.reserve(30, None).map(|r| r.bytes));
            wait_for(2);
            // 30 would fit beside the 60 held, but 80 arrived first.
            assert_eq!(pool.stats().active, 1);
            drop(held);
            assert_eq!(big.join().expect("big"), Ok(80));
            assert_eq!(small.join().expect("small"), Ok(30));
            let blocker = pool.reserve(100, None).expect("all free");
            let late = s.spawn(|| pool.reserve(1, None).map(|r| r.bytes));
            wait_for(1);
            pool.close();
            assert_eq!(late.join().expect("late"), Err(AdmissionError::Shutdown));
            drop(blocker);
        });
        assert_eq!(pool.reserve(1, None).err(), Some(AdmissionError::Shutdown));
        assert_eq!(pool.stats().used, 0);
    }

    #[test]
    fn a_charge_past_the_limit_fails_and_a_restart_keeps_the_peak() {
        let g = MemGauge::new(Some(100));
        g.try_charge(60).expect("fits");
        let err = g.try_charge(50).expect_err("past the limit");
        assert!(matches!(
            err,
            RuntimeError::BudgetExceeded {
                requested: 50,
                used: 60,
                budget: 100
            }
        ));
        // Sticky: the failed charge stays counted until a restart.
        assert_eq!(g.used(), 110);
        g.restart();
        assert_eq!((g.used(), g.peak()), (0, 110));
        g.try_charge(100).expect("a retry has the whole limit");
        assert_eq!(g.peak(), 110);
    }
}
