//! The backend fleet: addresses, health, and per-backend metrics.
//!
//! Every backend carries a [`UnitHealth`] state machine (Up → Suspect →
//! Quarantined with growing probation windows) driven by three fault
//! sources: transport errors on a forward, failed health probes, and
//! divergence verdicts from the replicated cross-check. Routing never
//! consults a quarantined backend until its window expires; the prober
//! then either restores it (`record_success`) or re-quarantines it on the
//! next failure.

use crate::telemetry::{backend_label, RouterStats};
use preflight_serve::client::{Client, ClientError};
use preflight_serve::ClientBuilder;
use preflight_supervisor::{FleetFault, FleetPolicy, UnitHealth, UnitStatus};
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Upper bound on fleet size: keeps the per-backend metric label set (and
/// the dual-write fan-out) small and static.
pub const MAX_BACKENDS: usize = 16;

/// Where one backend daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendAddr {
    /// A TCP address, e.g. `127.0.0.1:7733`.
    Tcp(String),
    /// A Unix socket path.
    Unix(PathBuf),
}

impl BackendAddr {
    /// Parses a backend spec: `tcp://HOST:PORT`, `unix://PATH`, or a bare
    /// `HOST:PORT` (treated as TCP).
    ///
    /// # Errors
    /// Returns a human-readable message for an empty or unsupported spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(addr) = spec.strip_prefix("tcp://") {
            if addr.is_empty() {
                return Err(format!("backend '{spec}': empty TCP address"));
            }
            return Ok(BackendAddr::Tcp(addr.to_owned()));
        }
        if let Some(path) = spec.strip_prefix("unix://") {
            if path.is_empty() {
                return Err(format!("backend '{spec}': empty socket path"));
            }
            return Ok(BackendAddr::Unix(PathBuf::from(path)));
        }
        if spec.is_empty() {
            return Err("empty backend spec".to_owned());
        }
        Ok(BackendAddr::Tcp(spec.to_owned()))
    }

    /// Opens a fresh client connection to this backend.
    ///
    /// # Errors
    /// Fails if the connection is refused or the path does not exist.
    pub fn connect(&self) -> Result<Client, ClientError> {
        match self {
            BackendAddr::Tcp(addr) => ClientBuilder::new().tcp(addr).connect(),
            BackendAddr::Unix(path) => ClientBuilder::new().unix(path).connect(),
        }
    }
}

impl fmt::Display for BackendAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            BackendAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// One backend: its address plus health state and metric handles.
struct Backend {
    addr: BackendAddr,
    health: Mutex<UnitHealth>,
}

/// The shared fleet view: addresses, health machines, quarantine policy.
pub struct BackendPool {
    backends: Vec<Backend>,
    policy: FleetPolicy,
    stats: RouterStats,
}

impl BackendPool {
    /// Builds the pool; every backend starts `Up`.
    ///
    /// # Panics
    /// Panics if `addrs` is empty or larger than [`MAX_BACKENDS`] — the
    /// router validates its configuration before constructing the pool.
    pub fn new(addrs: Vec<BackendAddr>, policy: FleetPolicy, stats: RouterStats) -> Self {
        assert!(!addrs.is_empty(), "backend pool cannot be empty");
        assert!(
            addrs.len() <= MAX_BACKENDS,
            "backend pool is capped at {MAX_BACKENDS}"
        );
        let backends = addrs
            .into_iter()
            .enumerate()
            .map(|(idx, addr)| {
                // Optimistic start: every backend reads as up until a
                // forward or probe proves otherwise.
                stats.backend_up(idx).set(1);
                Backend {
                    addr,
                    health: Mutex::new(UnitHealth::new()),
                }
            })
            .collect();
        BackendPool {
            backends,
            policy,
            stats,
        }
    }

    /// Number of backends (fixed for the router's lifetime).
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// `true` if the pool has no backends (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// The address of backend `idx`.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn addr(&self, idx: usize) -> &BackendAddr {
        &self.backends[idx].addr
    }

    fn health(&self, idx: usize) -> std::sync::MutexGuard<'_, UnitHealth> {
        self.backends[idx]
            .health
            .lock()
            .expect("backend health poisoned")
    }

    /// Whether routing may use backend `idx` right now (up, suspect, or a
    /// quarantine whose probation window has expired).
    pub fn is_available(&self, idx: usize, now: Instant) -> bool {
        self.health(idx).is_available(now)
    }

    /// The health status of backend `idx`.
    pub fn status(&self, idx: usize) -> UnitStatus {
        self.health(idx).status()
    }

    /// Backends currently available for routing.
    pub fn available_count(&self, now: Instant) -> usize {
        (0..self.len())
            .filter(|&i| self.is_available(i, now))
            .count()
    }

    /// Records a successful exchange with backend `idx`: clears suspicion
    /// and lifts any expired quarantine.
    pub fn record_success(&self, idx: usize) {
        self.health(idx).record_success();
        self.stats.backend_up(idx).set(1);
    }

    /// Records a fault on backend `idx`. Returns `true` if this fault
    /// tipped the backend into quarantine.
    pub fn record_failure(&self, idx: usize, fault: FleetFault) -> bool {
        self.stats.backend_failures(idx).inc();
        let quarantined = self
            .health(idx)
            .record_failure(idx as u64, &self.policy, Instant::now())
            .is_some();
        if quarantined {
            self.note_quarantine(idx, fault);
        }
        quarantined
    }

    /// Quarantines backend `idx` immediately, skipping the
    /// consecutive-failure ramp. Used for divergence verdicts, where one
    /// bad reply is already proof.
    pub fn quarantine_now(&self, idx: usize, fault: FleetFault) {
        self.stats.backend_failures(idx).inc();
        self.health(idx)
            .quarantine_now(idx as u64, &self.policy, Instant::now());
        self.note_quarantine(idx, fault);
    }

    fn note_quarantine(&self, idx: usize, fault: FleetFault) {
        self.stats.backend_up(idx).set(0);
        self.stats.quarantine(idx);
        eprintln!(
            "preflight-router: backend {} ({}) quarantined after {} fault",
            idx + 1,
            self.backends[idx].addr,
            fault.name()
        );
    }

    /// Human status line for logs: `1:up 2:quarantined ...`.
    pub fn describe(&self) -> String {
        (0..self.len())
            .map(|i| {
                format!(
                    "{}:{}",
                    i + 1,
                    match self.status(i) {
                        UnitStatus::Up => "up",
                        UnitStatus::Suspect => "suspect",
                        UnitStatus::Quarantined => "quarantined",
                    }
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The metric label value for backend `idx` (1-based, matching the
    /// `served_by` trailer field).
    pub fn label(&self, idx: usize) -> &'static str {
        backend_label(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preflight_obs::Obs;

    fn pool(n: usize) -> BackendPool {
        let addrs = (0..n)
            .map(|i| BackendAddr::Tcp(format!("127.0.0.1:{}", 40000 + i)))
            .collect();
        BackendPool::new(addrs, FleetPolicy::default(), RouterStats::new(&Obs::new()))
    }

    #[test]
    fn parse_accepts_tcp_unix_and_bare_forms() {
        assert_eq!(
            BackendAddr::parse("tcp://127.0.0.1:7733"),
            Ok(BackendAddr::Tcp("127.0.0.1:7733".to_owned()))
        );
        assert_eq!(
            BackendAddr::parse("10.0.0.2:7733"),
            Ok(BackendAddr::Tcp("10.0.0.2:7733".to_owned()))
        );
        assert_eq!(
            BackendAddr::parse("unix:///tmp/pfd.sock"),
            Ok(BackendAddr::Unix(PathBuf::from("/tmp/pfd.sock")))
        );
        assert!(BackendAddr::parse("").is_err());
        assert!(BackendAddr::parse("tcp://").is_err());
    }

    #[test]
    fn repeated_failures_quarantine_and_success_restores() {
        let pool = pool(2);
        let now = Instant::now();
        assert!(pool.is_available(0, now));
        let mut tipped = false;
        for _ in 0..FleetPolicy::default().quarantine_after {
            tipped = pool.record_failure(0, FleetFault::Transport);
        }
        assert!(tipped, "failure ramp must end in quarantine");
        assert_eq!(pool.status(0), UnitStatus::Quarantined);
        assert!(!pool.is_available(0, Instant::now()));
        // The sibling is untouched.
        assert!(pool.is_available(1, Instant::now()));
        pool.record_success(0);
        assert_eq!(pool.status(0), UnitStatus::Up);
    }

    #[test]
    fn divergence_quarantines_in_one_step() {
        let pool = pool(3);
        pool.quarantine_now(2, FleetFault::Divergence);
        assert_eq!(pool.status(2), UnitStatus::Quarantined);
        assert!(pool.describe().contains("3:quarantined"));
    }
}
