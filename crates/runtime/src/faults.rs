//! Fault injection for hardening tests: one [`FaultPlan`] armed on one
//! engine.
//!
//! A plan is a list of [`FaultEvent`]s. An engine arms it on a
//! [`FaultSlot`] of its own (`Engine::inject_faults` in `swole-plan`), and
//! every statement it admits while the plan is armed carries the plan's
//! state, an [`ArmedPlan`], in its [`crate::ExecCtx`]: a fault armed on one
//! engine never fires in another. With nothing armed a statement pays one
//! relaxed load and its context holds `None`, so the hooks are always
//! compiled in. Dropping the [`FaultGuard`] disarms the slot, and every
//! event fires once, so the retry under the data-centric fallback does not
//! re-trip the fault that caused it.
//!
//! Every trigger keys off a deterministic index — morsel index =
//! `start / step` (the same rows at any thread count), charges and
//! completed morsels counted from arming — so a soak run under
//! [`FaultPlan::from_seed`] is replayable from its printed seed alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One fault in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Panic the worker that claims morsel `morsel`.
    WorkerPanic {
        /// Zero-based morsel index, in claim order within a stage.
        morsel: usize,
    },
    /// Fail the `charge`-th memory charge (zero-based, counted from arming
    /// over every statement of the engine).
    AllocFailure {
        /// Zero-based charge index.
        charge: usize,
    },
    /// Skew the deadline clock forward by `ms` milliseconds (cumulative
    /// with any other skew): at arming when `after_morsels` is `None`,
    /// else once more than `after_morsels` morsels have completed since.
    ClockSkew {
        /// Completed-morsel count past which the skew applies.
        after_morsels: Option<usize>,
        /// Milliseconds to add to the deadline clock.
        ms: u64,
    },
    /// Stall the next admission attempt by `ms` milliseconds before it
    /// reaches the controller.
    AdmissionStall {
        /// Milliseconds the admitting thread sleeps.
        ms: u64,
    },
    /// Present the first allocation site of the next plan lowered for
    /// verification as not charging the memory gauge, which a full
    /// verification pass must reject.
    UnchargedAlloc,
    /// Park the worker that claims morsel `morsel` until its query stops
    /// (aborted, cancelled, stalled, past its deadline, or failed in a
    /// sibling worker), then fail the morsel with that typed error: a test
    /// decides that a statement is mid-flight instead of racing it. A hold
    /// nothing releases within 10 s panics. [`FaultPlan::from_seed`] never
    /// emits it.
    Hold {
        /// Zero-based morsel index, in claim order within a stage.
        morsel: usize,
    },
}

/// A list of faults to arm on one engine: derived from a seed, one event
/// from the constructors below, or built by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was generated from (0 for hand-built ones).
    pub seed: u64,
    /// The faults, in generation order.
    pub events: Vec<FaultEvent>,
}

/// Multiplier/increment from Knuth's MMIX LCG — full 2^64 period, and the
/// whole reason a soak failure is replayable from its seed.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

impl FaultPlan {
    /// Derive a plan of 2–5 faults from `seed` (same seed ⇒ same events,
    /// forever). Indices are kept small (morsels < 48, charges < 24, skew
    /// ≤ 8 s, stalls ≤ 20 ms) so every event has a real chance to fire
    /// against the soak workload; which kinds appear, and where, is
    /// entirely seed-driven.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        let n_events = 2 + (lcg_next(&mut s) % 4) as usize;
        let events = (0..n_events)
            .map(|_| match lcg_next(&mut s) % 4 {
                0 => FaultEvent::WorkerPanic {
                    morsel: (lcg_next(&mut s) % 48) as usize,
                },
                1 => FaultEvent::AllocFailure {
                    charge: (lcg_next(&mut s) % 24) as usize,
                },
                2 => FaultEvent::ClockSkew {
                    after_morsels: Some((lcg_next(&mut s) % 64) as usize),
                    ms: 1000 + lcg_next(&mut s) % 7000,
                },
                _ => FaultEvent::AdmissionStall {
                    ms: 1 + lcg_next(&mut s) % 20,
                },
            })
            .collect();
        FaultPlan { seed, events }
    }

    fn one(event: FaultEvent) -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: vec![event],
        }
    }

    /// A worker panic at morsel `index`.
    pub fn panic_at_morsel(index: usize) -> FaultPlan {
        FaultPlan::one(FaultEvent::WorkerPanic { morsel: index })
    }

    /// The `nth` memory charge after arming fails with
    /// [`crate::RuntimeError::BudgetExceeded`], whatever the budget.
    pub fn alloc_failure_at_charge(nth: usize) -> FaultPlan {
        FaultPlan::one(FaultEvent::AllocFailure { charge: nth })
    }

    /// The deadline clock skewed forward by `by` from arming on.
    pub fn clock_skew(by: Duration) -> FaultPlan {
        FaultPlan::one(FaultEvent::ClockSkew {
            after_morsels: None,
            ms: by.as_millis() as u64,
        })
    }

    /// The next plan lowered for verification skips one memory charge.
    pub fn uncharged_alloc() -> FaultPlan {
        FaultPlan::one(FaultEvent::UnchargedAlloc)
    }
}

/// An armed plan's mutable state, shared by `Arc` between the engine's
/// slot and every context admitted while it is armed.
#[derive(Debug)]
pub struct ArmedPlan(Mutex<ArmedState>);

#[derive(Debug)]
struct ArmedState {
    /// The events that have not fired, in generation order.
    events: Vec<FaultEvent>,
    charges_seen: usize,
    morsels_seen: usize,
    skew_ms: u64,
}

impl ArmedState {
    /// Take the first event `pick` accepts.
    fn take(&mut self, pick: impl Fn(&FaultEvent) -> bool) -> Option<FaultEvent> {
        let pos = self.events.iter().position(pick)?;
        Some(self.events.remove(pos))
    }

    /// Apply every skew whose trigger has passed.
    fn apply_skews(&mut self) {
        let seen = self.morsels_seen;
        while let Some(FaultEvent::ClockSkew { ms, .. }) = self.take(|e| {
            matches!(e, FaultEvent::ClockSkew { after_morsels, .. }
                if after_morsels.is_none_or(|k| k < seen))
        }) {
            self.skew_ms += ms;
        }
    }
}

impl ArmedPlan {
    fn lock(&self) -> MutexGuard<'_, ArmedState> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The deadline clock: wall time plus the skew applied so far.
    pub fn now(&self) -> Instant {
        Instant::now() + Duration::from_millis(self.lock().skew_ms)
    }

    /// Sleep through the next admission stall, if one is left.
    pub fn stall_admission(&self) {
        let stall = self
            .lock()
            .take(|e| matches!(e, FaultEvent::AdmissionStall { .. }));
        if let Some(FaultEvent::AdmissionStall { ms }) = stall {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// `true` once, if the plan holds an [`FaultEvent::UnchargedAlloc`].
    pub fn fire_uncharged_alloc(&self) -> bool {
        let mut state = self.lock();
        state.take(|e| *e == FaultEvent::UnchargedAlloc).is_some()
    }

    /// The panic or hold armed for morsel `index`, if any.
    pub(crate) fn take_morsel_fault(&self, index: usize) -> Option<FaultEvent> {
        self.lock().take(|e| {
            matches!(e, FaultEvent::WorkerPanic { morsel } | FaultEvent::Hold { morsel }
                if *morsel == index)
        })
    }

    /// Count one memory charge; `true` if the plan fails this one.
    pub(crate) fn charge_fails(&self) -> bool {
        let mut state = self.lock();
        let charge = state.charges_seen;
        state.charges_seen += 1;
        let failure = FaultEvent::AllocFailure { charge };
        state.take(|e| *e == failure).is_some()
    }

    /// Count one completed morsel and apply the skews it triggers.
    pub(crate) fn morsel_done(&self) {
        let mut state = self.lock();
        state.morsels_seen += 1;
        state.apply_skews();
    }
}

/// Where an engine's plan is armed.
#[derive(Debug, Default)]
pub struct FaultSlot {
    armed: AtomicBool,
    plan: Mutex<Option<Arc<ArmedPlan>>>,
}

impl FaultSlot {
    fn lock(&self) -> MutexGuard<'_, Option<Arc<ArmedPlan>>> {
        self.plan.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm `plan` here, replacing any plan armed before, until the
    /// returned guard drops.
    pub fn arm(self: &Arc<Self>, plan: FaultPlan) -> FaultGuard {
        let mut state = ArmedState {
            events: plan.events,
            charges_seen: 0,
            morsels_seen: 0,
            skew_ms: 0,
        };
        state.apply_skews();
        let armed = Arc::new(ArmedPlan(Mutex::new(state)));
        *self.lock() = Some(Arc::clone(&armed));
        self.armed.store(true, Ordering::SeqCst);
        FaultGuard {
            slot: Arc::clone(self),
            armed,
        }
    }

    /// The armed plan's state; `None`, after one relaxed load, when
    /// nothing is armed.
    pub fn current(&self) -> Option<Arc<ArmedPlan>> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.lock().clone()
    }
}

/// Disarms its plan on drop. Statements admitted while the plan was armed
/// keep its state until they finish.
#[must_use = "a plan stays armed only while its guard is alive"]
pub struct FaultGuard {
    slot: Arc<FaultSlot>,
    armed: Arc<ArmedPlan>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut plan = self.slot.lock();
        if plan.as_ref().is_some_and(|p| Arc::ptr_eq(p, &self.armed)) {
            *plan = None;
            self.slot.armed.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seeded plans are pinned: a nightly `CHAOS_SEED` replays the
    /// events it printed, whatever the harness is called.
    #[test]
    fn seeded_plans_are_pinned() {
        use FaultEvent::*;
        assert_eq!(
            FaultPlan::from_seed(3).events,
            [
                WorkerPanic { morsel: 23 },
                ClockSkew {
                    after_morsels: Some(49),
                    ms: 7108
                },
                AdmissionStall { ms: 15 },
            ]
        );
        assert_eq!(
            FaultPlan::from_seed(0x5eed).events,
            [
                ClockSkew {
                    after_morsels: Some(49),
                    ms: 3604
                },
                AdmissionStall { ms: 15 },
                AllocFailure { charge: 16 },
                AdmissionStall { ms: 11 },
                AllocFailure { charge: 20 },
            ]
        );
    }

    #[test]
    fn skews_apply_at_arming_or_past_their_morsel_count() {
        let slot = Arc::new(FaultSlot::default());
        let _guard = slot.arm(FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::ClockSkew {
                    after_morsels: Some(1),
                    ms: 3_600_000,
                },
                FaultEvent::ClockSkew {
                    after_morsels: None,
                    ms: 7_200_000,
                },
            ],
        });
        let armed = slot.current().expect("armed");
        let skew = |armed: &ArmedPlan| armed.lock().skew_ms;
        assert_eq!(skew(&armed), 7_200_000);
        armed.morsel_done();
        assert_eq!(skew(&armed), 7_200_000);
        armed.morsel_done();
        assert_eq!(skew(&armed), 10_800_000);
        assert!(armed.now() > Instant::now() + Duration::from_secs(10_000));
    }

    #[test]
    fn a_guard_disarms_only_its_own_plan() {
        let slot = Arc::new(FaultSlot::default());
        assert!(slot.current().is_none());
        let first = slot.arm(FaultPlan::uncharged_alloc());
        let second = slot.arm(FaultPlan::alloc_failure_at_charge(1));
        drop(first);
        let armed = slot.current().expect("the second plan stays armed");
        assert!(!armed.fire_uncharged_alloc());
        assert!(!armed.charge_fails());
        assert!(armed.charge_fails(), "charge 1 fails");
        assert!(!armed.charge_fails(), "once");
        drop(second);
        assert!(slot.current().is_none());
    }
}
