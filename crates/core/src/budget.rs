//! The process-wide core budget the drivers claim helper threads from.
//!
//! Every [`Preprocessor`](crate::Preprocessor) run counts its caller as one
//! busy core and may borrow helper threads only from the cores still free,
//! so concurrent runs (two in-flight batches, two direct callers) share the
//! host instead of each spawning a full pool on it. A claim is taken once,
//! at the start of a run, and released by its guard's `Drop` — also while
//! a panicking run unwinds.
//!
//! The grant is first come, takes all, and is never rebalanced: a run that
//! starts on an idle host borrows every free core, a run that starts beside
//! it gets only the cores still free (possibly none) and cannot pick up the
//! cores the first run returns before it ends. On 2 cores this splits two
//! concurrent runs evenly; on larger hosts the second of two runs can be
//! left on its caller alone.

use crate::preprocessor::available_threads;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A count of cores busy with preprocessing against a fixed capacity.
#[derive(Debug)]
pub(crate) struct CoreBudget {
    capacity: usize,
    busy: AtomicUsize,
}

impl CoreBudget {
    pub(crate) fn new(capacity: usize) -> Self {
        CoreBudget {
            capacity,
            busy: AtomicUsize::new(0),
        }
    }

    /// The one budget shared by every run in this process, sized to
    /// [`available_threads`].
    pub(crate) fn process() -> &'static CoreBudget {
        static BUDGET: OnceLock<CoreBudget> = OnceLock::new();
        BUDGET.get_or_init(|| CoreBudget::new(available_threads()))
    }

    /// Claims one core for the calling thread plus up to `helpers` more
    /// from the cores still free. The caller's core is counted even when
    /// the budget is exhausted — the caller runs regardless — so later
    /// claims see it as busy; helpers are only ever granted from free
    /// cores.
    pub(crate) fn claim(&self, helpers: usize) -> CoreClaim<'_> {
        let mut busy = self.busy.load(Ordering::Relaxed);
        loop {
            let granted = helpers.min(self.capacity.saturating_sub(busy + 1));
            match self.busy.compare_exchange_weak(
                busy,
                busy + 1 + granted,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return CoreClaim {
                        budget: self,
                        cores: 1 + granted,
                    }
                }
                Err(now) => busy = now,
            }
        }
    }

    #[cfg(test)]
    fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }
}

/// Cores held by one run; released on drop.
#[derive(Debug)]
pub(crate) struct CoreClaim<'a> {
    budget: &'a CoreBudget,
    cores: usize,
}

impl CoreClaim<'_> {
    /// Helper threads granted on top of the caller's own core.
    pub(crate) fn helpers(&self) -> usize {
        self.cores - 1
    }
}

impl Drop for CoreClaim<'_> {
    fn drop(&mut self) {
        self.budget.busy.fetch_sub(self.cores, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn helpers_come_only_from_free_cores() {
        let budget = CoreBudget::new(4);
        let first = budget.claim(3);
        assert_eq!(first.helpers(), 3);
        // The second caller still counts its own core, but none is free
        // for helpers.
        let second = budget.claim(3);
        assert_eq!(second.helpers(), 0);
        assert_eq!(budget.busy(), 5);
        drop(second);
        drop(first);
        assert_eq!(budget.busy(), 0);
        assert_eq!(budget.claim(3).helpers(), 3);
    }

    #[test]
    fn a_busy_caller_shrinks_the_next_grant() {
        let budget = CoreBudget::new(4);
        let sequential = budget.claim(0);
        assert_eq!(sequential.helpers(), 0);
        assert_eq!(budget.claim(8).helpers(), 2);
        drop(sequential);
        assert_eq!(budget.claim(8).helpers(), 3);
    }

    #[test]
    fn a_one_core_budget_never_grants_helpers() {
        let budget = CoreBudget::new(1);
        assert_eq!(budget.claim(4).helpers(), 0);
        assert_eq!(budget.busy(), 0);
    }

    #[test]
    fn a_panicking_run_releases_its_claim() {
        let budget = CoreBudget::new(4);
        let unwound = std::panic::catch_unwind(|| {
            let claim = budget.claim(3);
            assert_eq!(claim.helpers(), 3);
            panic!("tile worker failed");
        });
        assert!(unwound.is_err());
        assert_eq!(budget.busy(), 0);
        assert_eq!(budget.claim(3).helpers(), 3);
    }

    #[test]
    fn concurrent_claims_never_oversubscribe() {
        // Callers always run, so more callers than cores can push the raw
        // count past capacity; what the budget guarantees is that the
        // cores of runs that *were granted helpers* (caller + helpers)
        // never exceed it. Each thread adds its grant to `lent` after
        // claiming and removes it before releasing, so `lent` never
        // over-reports what the budget holds.
        const CAPACITY: usize = 4;
        let budget = CoreBudget::new(CAPACITY);
        let lent = AtomicUsize::new(0);
        let granted_any = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..6usize {
                let (budget, lent, granted_any) = (&budget, &lent, &granted_any);
                s.spawn(move || {
                    for i in 0..2_000usize {
                        let claim = budget.claim((t + i) % 5);
                        let cores = if claim.helpers() > 0 {
                            granted_any.store(true, Ordering::Relaxed);
                            1 + claim.helpers()
                        } else {
                            0
                        };
                        let now = lent.fetch_add(cores, Ordering::AcqRel) + cores;
                        assert!(now <= CAPACITY, "{now} cores lent, capacity {CAPACITY}");
                        std::hint::spin_loop();
                        lent.fetch_sub(cores, Ordering::AcqRel);
                        drop(claim);
                    }
                });
            }
        });
        assert!(granted_any.load(Ordering::Relaxed));
        assert_eq!(budget.busy(), 0, "every claim released");
    }
}
