//! Admission control: a bounded, priority-ordered gate in front of
//! execution.
//!
//! A server multiplexing one worker pool across many clients needs to say
//! *no* early: past the concurrency limit, queries wait in a bounded queue
//! ordered by [`Priority`] class (FIFO within a class); past the queue
//! bound, or once a query's deadline can no longer be met, admission fails
//! immediately with a typed [`AdmissionError`] instead of letting work
//! pile up invisibly.
//!
//! Admission hands out RAII [`AdmissionPermit`]s: dropping the permit —
//! normal return, error, or panic unwinding — frees the slot and wakes the
//! best queued waiter.
//!
//! Two server-protection mechanisms sit on top of the bounded queue:
//!
//! - **Load shedding** ([`AdmissionConfig::shed_after`]): each permit drop
//!   records its service time; when a new arrival's *predicted* queue wait
//!   (queue position ahead of it × observed P99 service time ÷ slots)
//!   exceeds the shed threshold, it is rejected immediately with
//!   [`AdmissionError::Overloaded`], which carries a structured
//!   retry-after hint — better an honest early `503` than a doomed wait.
//! - **Priority aging** ([`AdmissionConfig::aging_limit`]): a waiter that
//!   has been passed over by `aging_limit` admissions is treated as
//!   [`Priority::High`] from then on, so sustained high-priority load can
//!   delay `Low` work but never starve it (bounded wait).

use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sliding window of recent service times backing the P99 estimate.
const SERVICE_WINDOW: usize = 64;

/// Scheduling/admission priority class. Higher classes are admitted first
/// and their stages are drained first by the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work: bulk jobs, maintenance scans.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive interactive queries.
    High,
}

/// Why admission rejected a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// All execution slots are busy and the wait queue is at capacity.
    QueueFull {
        /// Configured concurrent-execution slots.
        max_concurrent: usize,
        /// Configured wait-queue bound.
        queue_depth: usize,
    },
    /// The query's deadline expired before an execution slot freed up;
    /// running it would only waste the slot.
    DeadlineBeforeStart,
    /// Load shedding: the predicted queue wait exceeded the configured
    /// shed threshold ([`AdmissionConfig::shed_after`]), so the query was
    /// rejected immediately instead of queueing to time out. Clients
    /// should back off for roughly `retry_after_ms` before retrying.
    Overloaded {
        /// Predicted queue wait at arrival, in milliseconds (queue
        /// position × observed P99 service time ÷ execution slots).
        predicted_wait_ms: u64,
        /// Structured retry hint: the observed P99 service time, i.e. how
        /// long one queue position takes to drain per slot.
        retry_after_ms: u64,
    },
    /// The engine is shutting down and no longer admits queries. Not
    /// retryable against this server instance.
    Shutdown,
    /// The plan's statically proven peak-memory bound exceeds the budget
    /// that would govern it, so execution could only end in a mid-flight
    /// `BudgetExceeded`; the query is rejected before queueing instead.
    /// Not retryable without raising the budget or shrinking the query.
    BudgetInfeasible {
        /// Proven peak bytes the plan can charge (its certificate bound).
        bound: u64,
        /// Effective budget in bytes (the tighter of the per-query limit
        /// and the global memory pool).
        budget: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull {
                max_concurrent,
                queue_depth,
            } => write!(
                f,
                "all {max_concurrent} execution slots busy and the wait \
                 queue ({queue_depth} deep) is full"
            ),
            AdmissionError::DeadlineBeforeStart => {
                write!(f, "deadline expired while waiting for an execution slot")
            }
            AdmissionError::Overloaded {
                predicted_wait_ms,
                retry_after_ms,
            } => write!(
                f,
                "overloaded: predicted queue wait {predicted_wait_ms} ms \
                 exceeds the shed threshold; retry after {retry_after_ms} ms"
            ),
            AdmissionError::Shutdown => {
                write!(f, "the engine is shutting down and admits no new queries")
            }
            AdmissionError::BudgetInfeasible { bound, budget } => write!(
                f,
                "proven plan memory bound {bound} B exceeds the available \
                 budget {budget} B"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Configuration for an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queries allowed to execute simultaneously (at least 1).
    pub max_concurrent: usize,
    /// Queries allowed to wait for a slot before new arrivals are
    /// rejected with [`AdmissionError::QueueFull`]. `0` means reject the
    /// moment all slots are busy.
    pub queue_depth: usize,
    /// Load-shedding threshold: reject an arrival whose predicted queue
    /// wait (queue length ahead × observed P99 service time ÷
    /// `max_concurrent`) exceeds this, with
    /// [`AdmissionError::Overloaded`]. `None` (the default) never sheds.
    /// Shedding needs observed service times, so a cold controller always
    /// queues.
    pub shed_after: Option<Duration>,
    /// Anti-starvation bound: a waiter passed over by this many admissions
    /// is treated as [`Priority::High`] from then on, so its total wait is
    /// bounded by `aging_limit` service times even under sustained
    /// higher-priority load. `0` disables aging (strict priority order).
    pub aging_limit: u64,
}

impl AdmissionConfig {
    /// `max_concurrent` execution slots with a default 64-deep wait queue,
    /// no shed threshold, and priority aging after 64 passed-over
    /// admissions.
    pub fn new(max_concurrent: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: max_concurrent.max(1),
            queue_depth: 64,
            shed_after: None,
            aging_limit: 64,
        }
    }

    /// Override the wait-queue bound.
    pub fn queue_depth(mut self, depth: usize) -> AdmissionConfig {
        self.queue_depth = depth;
        self
    }

    /// Shed arrivals whose predicted queue wait exceeds `wait`.
    pub fn shed_after(mut self, wait: Duration) -> AdmissionConfig {
        self.shed_after = Some(wait);
        self
    }

    /// Override the anti-starvation aging bound (`0` disables aging).
    pub fn aging_limit(mut self, passed_over: u64) -> AdmissionConfig {
        self.aging_limit = passed_over;
        self
    }
}

struct Ticket {
    priority: Priority,
    seq: u64,
    /// Value of `AdmitState::admitted` when this ticket queued; the
    /// difference against the current count is how many admissions have
    /// passed it over (the aging clock).
    admitted_at_arrival: u64,
}

#[derive(Default)]
struct AdmitState {
    running: usize,
    queued: Vec<Ticket>,
    next_seq: u64,
    /// Total admissions granted over the controller's lifetime (drives
    /// priority aging).
    admitted: u64,
    /// Ring buffer of the last [`SERVICE_WINDOW`] service times, in
    /// microseconds (drives the shed policy's P99 estimate).
    service_us: Vec<u64>,
    /// Next write position in `service_us` once it is full.
    service_at: usize,
    /// Set by [`AdmissionController::close`]: reject everything.
    closed: bool,
}

impl AdmitState {
    /// The queued ticket that should be admitted next: highest *effective*
    /// priority (aged waiters count as [`Priority::High`]), then earliest
    /// arrival.
    fn head(&self, aging_limit: u64) -> Option<u64> {
        self.queued
            .iter()
            .max_by_key(|t| {
                (
                    self.effective_priority(t, aging_limit),
                    std::cmp::Reverse(t.seq),
                )
            })
            .map(|t| t.seq)
    }

    /// A ticket's priority after aging: boosted to `High` once
    /// `aging_limit` admissions have passed it over.
    fn effective_priority(&self, t: &Ticket, aging_limit: u64) -> Priority {
        if aging_limit > 0 && self.admitted.saturating_sub(t.admitted_at_arrival) >= aging_limit {
            Priority::High
        } else {
            t.priority
        }
    }

    fn remove(&mut self, seq: u64) {
        self.queued.retain(|t| t.seq != seq);
    }

    /// Record one completed execution's service time.
    fn record_service(&mut self, took: Duration) {
        let us = took.as_micros().min(u64::MAX as u128) as u64;
        if self.service_us.len() < SERVICE_WINDOW {
            self.service_us.push(us);
        } else {
            self.service_us[self.service_at] = us;
            self.service_at = (self.service_at + 1) % SERVICE_WINDOW;
        }
    }

    /// P99 of the recorded service times (microseconds); `None` until at
    /// least one execution completed.
    fn p99_service_us(&self) -> Option<u64> {
        if self.service_us.is_empty() {
            return None;
        }
        let mut sorted = self.service_us.clone();
        sorted.sort_unstable();
        let idx = (sorted.len().saturating_sub(1)) * 99 / 100;
        Some(sorted[idx])
    }
}

/// The admission gate. Shared (via `Arc`) between the engine front door
/// and every outstanding [`AdmissionPermit`].
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<AdmitState>,
    cv: Condvar,
}

impl AdmissionController {
    /// A controller enforcing `cfg`.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            state: Mutex::new(AdmitState::default()),
            cv: Condvar::new(),
        }
    }

    /// The configured limits.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// `(running, queued)` for observability and tests.
    pub fn in_flight(&self) -> (usize, usize) {
        let st = self.state.lock().expect("admission state");
        (st.running, st.queued.len())
    }

    /// The observed P99 service time feeding the shed policy, once at
    /// least one execution has completed.
    pub fn observed_p99(&self) -> Option<Duration> {
        let st = self.state.lock().expect("admission state");
        st.p99_service_us().map(Duration::from_micros)
    }

    /// Stop admitting: every queued waiter is woken and rejected with
    /// [`AdmissionError::Shutdown`], and every later [`admit`] call fails
    /// the same way. Permits already granted stay valid until dropped.
    /// Idempotent.
    ///
    /// [`admit`]: AdmissionController::admit
    pub fn close(&self) {
        let mut st = self.state.lock().expect("admission state");
        st.closed = true;
        drop(st);
        self.cv.notify_all();
    }

    /// `true` once [`AdmissionController::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("admission state").closed
    }

    /// Wait for an execution slot. Returns immediately when one is free
    /// (and no higher-claim query is queued); otherwise joins the bounded
    /// wait queue. Fails fast when the controller is closed, when the
    /// queue is full, when the shed policy predicts a hopeless wait, or
    /// when `deadline` (wall time) expires before a slot frees up — a
    /// query that cannot start before its deadline is rejected rather than
    /// admitted to die.
    pub fn admit(
        self: &Arc<Self>,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<AdmissionPermit, AdmissionError> {
        let mut st = self.state.lock().expect("admission state");
        if st.closed {
            return Err(AdmissionError::Shutdown);
        }
        if st.running < self.cfg.max_concurrent && st.queued.is_empty() {
            st.running += 1;
            return Ok(self.permit());
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(AdmissionError::DeadlineBeforeStart);
        }
        if st.queued.len() >= self.cfg.queue_depth {
            return Err(AdmissionError::QueueFull {
                max_concurrent: self.cfg.max_concurrent,
                queue_depth: self.cfg.queue_depth,
            });
        }
        if let (Some(shed), Some(p99_us)) = (self.cfg.shed_after, st.p99_service_us()) {
            // Everyone already waiting drains ahead of us, one slot-width
            // of P99 at a time; +1 for the queries running right now.
            let positions = (st.queued.len() as u64 + 1).div_ceil(self.cfg.max_concurrent as u64);
            let predicted_us = positions.saturating_mul(p99_us);
            if predicted_us > shed.as_micros().min(u64::MAX as u128) as u64 {
                return Err(AdmissionError::Overloaded {
                    predicted_wait_ms: predicted_us / 1000,
                    retry_after_ms: (p99_us / 1000).max(1),
                });
            }
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let admitted_at_arrival = st.admitted;
        st.queued.push(Ticket {
            priority,
            seq,
            admitted_at_arrival,
        });
        loop {
            if st.closed {
                st.remove(seq);
                self.cv.notify_all();
                return Err(AdmissionError::Shutdown);
            }
            if st.running < self.cfg.max_concurrent && st.head(self.cfg.aging_limit) == Some(seq) {
                st.remove(seq);
                st.running += 1;
                st.admitted += 1;
                // More slots may be free for the next head.
                self.cv.notify_all();
                return Ok(self.permit());
            }
            st = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        st.remove(seq);
                        // Our departure may unblock a lower-priority head.
                        self.cv.notify_all();
                        return Err(AdmissionError::DeadlineBeforeStart);
                    }
                    let (guard, _) = self.cv.wait_timeout(st, d - now).expect("admission state");
                    guard
                }
                None => self.cv.wait(st).expect("admission state"),
            };
        }
    }

    fn permit(self: &Arc<Self>) -> AdmissionPermit {
        AdmissionPermit {
            ctrl: Arc::clone(self),
            admitted_at: Instant::now(),
        }
    }
}

/// RAII execution slot handed out by [`AdmissionController::admit`].
/// Dropping it frees the slot, records the slot's service time for the
/// shed policy's P99 estimate, and wakes the best queued waiter.
pub struct AdmissionPermit {
    ctrl: Arc<AdmissionController>,
    /// When the slot was granted; drop records `elapsed` as one service
    /// time (on the unskewed clock — shedding reasons about real wall
    /// time, not the fault-injected deadline clock).
    admitted_at: Instant,
}

impl fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionPermit").finish_non_exhaustive()
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = self.ctrl.state.lock().expect("admission state");
        st.running = st.running.saturating_sub(1);
        st.record_service(self.admitted_at.elapsed());
        drop(st);
        self.ctrl.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn slots_are_bounded_and_queue_rejects_when_full() {
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1).queue_depth(0),
        ));
        let held = ctrl.admit(Priority::Normal, None).expect("first in");
        let err = ctrl
            .admit(Priority::Normal, None)
            .expect_err("no slot, no queue");
        assert_eq!(
            err,
            AdmissionError::QueueFull {
                max_concurrent: 1,
                queue_depth: 0,
            }
        );
        drop(held);
        let _second = ctrl.admit(Priority::Normal, None).expect("slot freed");
    }

    #[test]
    fn expired_deadline_is_rejected_without_queueing() {
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1).queue_depth(8),
        ));
        let _held = ctrl.admit(Priority::Normal, None).expect("first in");
        let past = Instant::now() - Duration::from_millis(1);
        let err = ctrl
            .admit(Priority::Normal, Some(past))
            .expect_err("deadline already gone");
        assert_eq!(err, AdmissionError::DeadlineBeforeStart);
        assert_eq!(ctrl.in_flight(), (1, 0), "rejected query must not linger");
    }

    #[test]
    #[cfg_attr(miri, ignore = "waits out a real 20 ms deadline")]
    fn queued_deadline_expires_while_waiting() {
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1).queue_depth(8),
        ));
        let _held = ctrl.admit(Priority::Normal, None).expect("first in");
        let soon = Instant::now() + Duration::from_millis(20);
        let err = ctrl
            .admit(Priority::Normal, Some(soon))
            .expect_err("slot never frees");
        assert_eq!(err, AdmissionError::DeadlineBeforeStart);
        assert_eq!(ctrl.in_flight(), (1, 0));
    }

    #[test]
    #[cfg_attr(miri, ignore = "admission order observed through real sleeps")]
    fn higher_priority_waiters_are_admitted_first() {
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1).queue_depth(8),
        ));
        let held = ctrl.admit(Priority::Normal, None).expect("first in");
        let order = Arc::new(Mutex::new(Vec::new()));
        let spawn = |prio: Priority, tag: &'static str| {
            let ctrl = Arc::clone(&ctrl);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let permit = ctrl.admit(prio, None).expect("eventually admitted");
                order.lock().expect("order").push(tag);
                // Hold briefly so admission order is observable.
                std::thread::sleep(Duration::from_millis(5));
                drop(permit);
            })
        };
        let low = spawn(Priority::Low, "low");
        // Make sure the low-priority ticket is queued first.
        while ctrl.in_flight().1 < 1 {
            std::thread::yield_now();
        }
        let high = spawn(Priority::High, "high");
        while ctrl.in_flight().1 < 2 {
            std::thread::yield_now();
        }
        drop(held);
        low.join().expect("low waiter");
        high.join().expect("high waiter");
        assert_eq!(*order.lock().expect("order"), vec!["high", "low"]);
    }

    #[test]
    fn same_priority_admission_is_fifo() {
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1).queue_depth(8),
        ));
        let held = ctrl.admit(Priority::Normal, None).expect("first in");
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut waiters = Vec::new();
        for tag in 0..4usize {
            let ctrl2 = Arc::clone(&ctrl);
            let order = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let permit = ctrl2.admit(Priority::Normal, None).expect("admitted");
                order.lock().expect("order").push(tag);
                drop(permit);
            }));
            // Queue strictly one at a time so arrival order is the seq
            // order.
            while ctrl.in_flight().1 < tag + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for w in waiters {
            w.join().expect("waiter");
        }
        assert_eq!(
            *order.lock().expect("order"),
            vec![0, 1, 2, 3],
            "same-priority waiters must drain in arrival order"
        );
    }

    #[test]
    fn low_priority_is_not_starved_under_sustained_high_load() {
        const AGING: u64 = 4;
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1).queue_depth(32).aging_limit(AGING),
        ));
        let held = ctrl.admit(Priority::High, None).expect("first in");
        let order = Arc::new(Mutex::new(Vec::new()));
        let spawn = |prio: Priority, tag: &'static str| {
            let ctrl = Arc::clone(&ctrl);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let permit = ctrl.admit(prio, None).expect("admitted");
                order.lock().expect("order").push(tag);
                drop(permit);
            })
        };
        // One Low waiter queues first, then sustained High pressure: 12
        // High arrivals all waiting before the slot ever frees.
        let low = spawn(Priority::Low, "low");
        while ctrl.in_flight().1 < 1 {
            std::thread::yield_now();
        }
        let highs: Vec<_> = (0..12).map(|_| spawn(Priority::High, "high")).collect();
        while ctrl.in_flight().1 < 13 {
            std::thread::yield_now();
        }
        drop(held);
        low.join().expect("low waiter");
        for h in highs {
            h.join().expect("high waiter");
        }
        let order = order.lock().expect("order");
        let low_pos = order
            .iter()
            .position(|&t| t == "low")
            .expect("low must be admitted");
        // Bounded wait: after AGING admissions pass it over, the Low
        // waiter counts as High and (being the earliest seq) wins next.
        assert_eq!(
            low_pos, AGING as usize,
            "low must be admitted after exactly {AGING} high admissions: {order:?}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "primes the P99 ring with real service time")]
    fn shed_policy_rejects_with_retry_hint_from_observed_p99() {
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1)
                .queue_depth(64)
                .shed_after(Duration::from_millis(1)),
        ));
        // Cold controller: no service history, so a busy slot queues
        // rather than sheds. Prime ~10ms of observed service time.
        let priming = ctrl.admit(Priority::Normal, None).expect("primes");
        std::thread::sleep(Duration::from_millis(10));
        drop(priming);
        assert!(ctrl.observed_p99().expect("recorded") >= Duration::from_millis(10));

        let held = ctrl.admit(Priority::Normal, None).expect("slot free");
        let err = ctrl
            .admit(Priority::Normal, None)
            .expect_err("predicted wait >> shed threshold");
        match err {
            AdmissionError::Overloaded {
                predicted_wait_ms,
                retry_after_ms,
            } => {
                assert!(predicted_wait_ms >= 10, "got {predicted_wait_ms}");
                assert!(retry_after_ms >= 10, "got {retry_after_ms}");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Shed arrivals never occupy queue space.
        assert_eq!(ctrl.in_flight(), (1, 0));
        drop(held);
        let _ok = ctrl
            .admit(Priority::Normal, None)
            .expect("free slot admits regardless of history");
    }

    #[test]
    fn close_rejects_new_arrivals_and_flushes_waiters() {
        let ctrl = Arc::new(AdmissionController::new(
            AdmissionConfig::new(1).queue_depth(8),
        ));
        let held = ctrl.admit(Priority::Normal, None).expect("first in");
        let waiter = {
            let ctrl = Arc::clone(&ctrl);
            std::thread::spawn(move || ctrl.admit(Priority::Normal, None))
        };
        while ctrl.in_flight().1 < 1 {
            std::thread::yield_now();
        }
        ctrl.close();
        assert!(
            matches!(
                waiter.join().expect("waiter thread"),
                Err(AdmissionError::Shutdown)
            ),
            "queued waiters must flush with the typed shutdown error"
        );
        assert!(
            matches!(
                ctrl.admit(Priority::High, None),
                Err(AdmissionError::Shutdown)
            ),
            "new arrivals must be rejected once closed"
        );
        // The already-granted permit stays valid and still drains cleanly.
        drop(held);
        assert_eq!(ctrl.in_flight(), (0, 0));
    }
}
