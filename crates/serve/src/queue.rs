//! Bounded admission with explicit backpressure.
//!
//! The daemon never buffers without bound: every submission must win an
//! [`AdmissionPermit`] before it is parsed past the envelope, and the permit
//! lives for the request's whole stay — parked in a batch group, riding
//! through the engine, and until its response is handed to the connection
//! writer. When all `capacity` permits are out, the next submission is
//! rejected with `Busy` immediately; nothing queues behind the queue.
//!
//! Permits release on drop, so an error on any path (client gone, engine
//! panic absorbed by the ladder, batch aborted by drain) can never leak
//! capacity.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct GateInner {
    capacity: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

/// The shared admission gate: a counting semaphore with rejection (not
/// blocking) semantics on exhaustion.
#[derive(Clone)]
pub struct AdmissionGate {
    inner: Arc<GateInner>,
}

impl AdmissionGate {
    /// Creates a gate admitting at most `capacity` requests at once.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (a server that can never admit work is
    /// a configuration bug, not a runtime state).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission capacity must be at least 1");
        AdmissionGate {
            inner: Arc::new(GateInner {
                capacity,
                in_flight: Mutex::new(0),
                freed: Condvar::new(),
            }),
        }
    }

    /// Tries to admit one request. `None` means the queue is full — the
    /// caller must reject with `Busy`, never wait.
    pub fn try_acquire(&self) -> Option<AdmissionPermit> {
        let mut n = self
            .inner
            .in_flight
            .lock()
            .expect("admission gate poisoned");
        if *n >= self.inner.capacity {
            return None;
        }
        *n += 1;
        Some(AdmissionPermit {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Requests currently holding permits.
    pub fn in_flight(&self) -> usize {
        *self
            .inner
            .in_flight
            .lock()
            .expect("admission gate poisoned")
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Blocks until every permit has been returned, or until `timeout`
    /// elapses. Returns `true` if the gate is idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut n = self
            .inner
            .in_flight
            .lock()
            .expect("admission gate poisoned");
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .inner
                .freed
                .wait_timeout(n, deadline - now)
                .expect("admission gate poisoned");
            n = guard;
        }
        true
    }
}

/// One admitted request's hold on the bounded queue; releases on drop.
pub struct AdmissionPermit {
    inner: Arc<GateInner>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut n = self
            .inner
            .in_flight
            .lock()
            .expect("admission gate poisoned");
        *n = n.saturating_sub(1);
        self.inner.freed.notify_all();
    }
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity_then_rejects() {
        let gate = AdmissionGate::new(3);
        let p1 = gate.try_acquire().expect("1st");
        let p2 = gate.try_acquire().expect("2nd");
        let p3 = gate.try_acquire().expect("3rd");
        assert!(gate.try_acquire().is_none(), "4th must be rejected");
        assert_eq!(gate.in_flight(), 3);
        drop(p2);
        assert_eq!(gate.in_flight(), 2);
        let p4 = gate.try_acquire().expect("slot freed");
        drop((p1, p3, p4));
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_a_bug() {
        let _ = AdmissionGate::new(0);
    }

    #[test]
    fn wait_idle_observes_releases_across_threads() {
        let gate = AdmissionGate::new(2);
        let permit = gate.try_acquire().unwrap();
        assert!(!gate.wait_idle(Duration::from_millis(20)), "still held");
        let g2 = gate.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(permit);
            let _ = g2;
        });
        assert!(gate.wait_idle(Duration::from_secs(5)), "released");
        t.join().unwrap();
    }

    #[test]
    fn permit_drop_on_panic_path_releases() {
        let gate = AdmissionGate::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.try_acquire().unwrap();
            panic!("worker died");
        }));
        assert!(result.is_err());
        assert_eq!(gate.in_flight(), 0, "permit must not leak on unwind");
    }
}
