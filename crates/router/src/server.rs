//! The router front end: acceptors, per-connection forwarding, failover,
//! and the replicated bit-identity cross-check.
//!
//! ```text
//!                      ┌─ health prober (ping each backend) ─┐
//! client ─▶ acceptor ─▶ conn thread ──▶ shard ring ──▶ backend A
//!                        │   (forward / dual-write)  └▶ backend B
//!                        └── fleet gate (shed Λ-expensive work first)
//! ```
//!
//! Each client connection gets one thread that parses envelopes and
//! forwards `Submit`s synchronously over per-connection backend clients
//! (one daemon connection per backend, opened lazily, dropped on error).
//! A transport fault on a forward re-shards the request to the next
//! healthy backend on the ring — an accepted frame is never dropped; the
//! client only ever sees a fault if *every* candidate backend fails.
//!
//! In replicated mode every submit is written to two ring replicas and the
//! payloads are compared bit for bit. A mismatch is the strongest
//! corruption signal the fleet can observe: the router re-executes on both
//! replicas (a corrupting backend cannot repeat its garbage; a healthy one
//! is deterministic), quarantines the unstable side, and serves the reply
//! that proved stable.

use crate::pool::{BackendAddr, BackendPool, MAX_BACKENDS};
use crate::ring::{splitmix64, Ring};
use crate::telemetry::RouterStats;
use preflight_obs::Obs;
use preflight_serve::client::{Client, ClientError, SubmitOptions};
use preflight_serve::metrics::run_metrics_listener;
use preflight_serve::queue::{AdmissionGate, AdmissionPermit};
use preflight_serve::wire::{
    parse_body, parse_head, write_message, BusyReply, DrainSummary, ErrorCode, ErrorReply, Message,
    SubmitRequest, SubmitResponse, WireError, HEAD_LEN,
};
use preflight_supervisor::{
    work_cost, FleetFault, FleetLevel, FleetPolicy, RetryPolicy, UnitStatus,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reader sleeps per poll while its socket is idle.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long acceptors sleep between failed non-blocking accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Ceiling on waiting for in-flight work during a drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// A reader mid-envelope gives up after this long without a byte of
/// progress.
const MID_ENVELOPE_STALL: Duration = Duration::from_secs(30);

/// Bodies are read in chunks of this size.
const BODY_CHUNK: usize = 256 * 1024;

/// Everything needed to start a router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP listen address for clients (e.g. `127.0.0.1:0`), if any.
    pub tcp: Option<String>,
    /// Unix socket path for clients, if any.
    pub unix: Option<PathBuf>,
    /// The backend fleet, in ring order. 1..=[`MAX_BACKENDS`] entries.
    pub backends: Vec<BackendAddr>,
    /// Dual-write every submit to two replicas and cross-check the replies
    /// bit for bit.
    pub replicate: bool,
    /// Bounded routing slots: submissions beyond this are rejected `Busy`.
    pub capacity: usize,
    /// Ceiling on concurrent client connections.
    pub max_connections: usize,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// Work-cost threshold above which a request counts as heavy for the
    /// fleet degradation ladder (see [`work_cost`]).
    pub heavy_cost: u64,
    /// Quarantine policy for the fleet.
    pub fleet: FleetPolicy,
    /// Retry schedule for `Busy` answers from a backend (per forward).
    pub backend_retry: RetryPolicy,
    /// Period between health probes of each backend.
    pub health_period: Duration,
    /// TCP address for the Prometheus `/metrics` scrape listener, if any.
    pub metrics_addr: Option<String>,
    /// The observability registry the router records into.
    pub obs: Obs,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            tcp: None,
            unix: None,
            backends: Vec::new(),
            replicate: false,
            capacity: 64,
            max_connections: 256,
            vnodes: 64,
            // A 256x256 16-frame stack at the paper defaults (Λ=80, Υ=4)
            // costs ~7.5M; anything bigger is "heavy" by default.
            heavy_cost: 8_000_000,
            fleet: FleetPolicy::default(),
            backend_retry: RetryPolicy {
                max_retries: 2,
                backoff_base: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(100),
                ..RetryPolicy::default()
            },
            health_period: Duration::from_millis(500),
            metrics_addr: None,
            obs: Obs::new(),
        }
    }
}

struct Shared {
    gate: AdmissionGate,
    conn_gate: AdmissionGate,
    pool: BackendPool,
    ring: Ring,
    stats: RouterStats,
    replicate: bool,
    heavy_cost: u64,
    backend_retry: RetryPolicy,
    draining: AtomicBool,
    stopped: AtomicBool,
    drain_acked: AtomicBool,
}

impl Shared {
    fn summary(&self) -> DrainSummary {
        DrainSummary {
            completed: self.stats.completed.get(),
            rejected: self.stats.rejected_busy.get(),
        }
    }
}

/// A running router.
pub struct RouterHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    metrics_addr: Option<SocketAddr>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl RouterHandle {
    /// The actual client-facing TCP address bound (useful with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path served, if any.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// The actual `/metrics` scrape address bound, if configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Whole-router counters.
    pub fn stats(&self) -> &RouterStats {
        &self.shared.stats
    }

    /// Requests currently occupying routing slots.
    pub fn in_flight(&self) -> usize {
        self.shared.gate.in_flight()
    }

    /// `true` once a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// `true` once a wire-level `Drain` has been acknowledged.
    pub fn drain_acked(&self) -> bool {
        self.shared.drain_acked.load(Ordering::SeqCst)
    }

    /// Health status of backend `idx`, if it exists.
    pub fn backend_status(&self, idx: usize) -> Option<UnitStatus> {
        (idx < self.shared.pool.len()).then(|| self.shared.pool.status(idx))
    }

    /// Human fleet status line: `1:up 2:quarantined ...`.
    pub fn fleet_status(&self) -> String {
        self.shared.pool.describe()
    }

    /// Gracefully drains and shuts the router down: stop admitting, wait
    /// for in-flight forwards, stop and join every thread. Backends are
    /// *not* drained — other routers may share them. Idempotent.
    pub fn drain(&self) -> DrainSummary {
        self.shared.draining.store(true, Ordering::SeqCst);
        if !self.shared.gate.wait_idle(DRAIN_TIMEOUT) {
            eprintln!(
                "preflight-router: drain timed out after {DRAIN_TIMEOUT:?} with {} request(s) \
                 still in flight; shutting down anyway",
                self.shared.gate.in_flight()
            );
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        let mut threads = self.threads.lock().expect("router threads poisoned");
        for t in threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.shared.summary()
    }
}

/// Binds the configured sockets and starts every router thread.
///
/// # Errors
/// Fails if no client socket is configured, the backend list is empty or
/// over [`MAX_BACKENDS`], or a bind fails.
pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.tcp.is_none() && config.unix.is_none() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "router needs at least one of a TCP address or a Unix socket path",
        ));
    }
    if config.backends.is_empty() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "router needs at least one backend",
        ));
    }
    if config.backends.len() > MAX_BACKENDS {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("router supports at most {MAX_BACKENDS} backends"),
        ));
    }

    let stats = RouterStats::new(&config.obs);
    let ring = Ring::new(config.backends.len(), config.vnodes.max(1));
    let pool = BackendPool::new(config.backends.clone(), config.fleet, stats.clone());

    let shared = Arc::new(Shared {
        gate: AdmissionGate::new(config.capacity),
        conn_gate: AdmissionGate::new(config.max_connections.max(1)),
        pool,
        ring,
        stats,
        replicate: config.replicate,
        heavy_cost: config.heavy_cost,
        backend_retry: config.backend_retry,
        draining: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        drain_acked: AtomicBool::new(false),
    });

    let mut threads = Vec::new();

    {
        let shared = Arc::clone(&shared);
        let period = config.health_period;
        threads.push(
            std::thread::Builder::new()
                .name("router-health".into())
                .spawn(move || run_health_prober(shared, period))?,
        );
    }

    let mut tcp_addr = None;
    if let Some(addr) = &config.tcp {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        tcp_addr = Some(listener.local_addr()?);
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("router-accept-tcp".into())
                .spawn(move || accept_tcp(listener, shared))?,
        );
    }

    let mut unix_path = None;
    if let Some(path) = &config.unix {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        unix_path = Some(path.clone());
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("router-accept-unix".into())
                .spawn(move || accept_unix(listener, shared))?,
        );
    }
    let mut metrics_addr = None;
    if let Some(addr) = &config.metrics_addr {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        metrics_addr = Some(listener.local_addr()?);
        let obs = config.obs.clone();
        let scrape_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("router-metrics".into())
                .spawn(move || {
                    run_metrics_listener(listener, obs, move || {
                        scrape_shared.stopped.load(Ordering::SeqCst)
                    });
                })?,
        );
    }

    Ok(RouterHandle {
        shared,
        tcp_addr,
        unix_path,
        metrics_addr,
        threads: Mutex::new(threads),
    })
}

/// Probes every backend each period with a fresh connection and a ping.
/// Quarantined backends are skipped until their window expires; the first
/// probe after expiry decides between restoration and re-quarantine.
fn run_health_prober(shared: Arc<Shared>, period: Duration) {
    let mut token: u64 = 0;
    while !shared.stopped.load(Ordering::SeqCst) {
        for idx in 0..shared.pool.len() {
            if shared.stopped.load(Ordering::SeqCst) {
                return;
            }
            if !shared.pool.is_available(idx, Instant::now()) {
                continue;
            }
            token = token.wrapping_add(1);
            let healthy = shared
                .pool
                .addr(idx)
                .connect()
                .and_then(|mut c| c.ping(token))
                .map(|echo| echo == token)
                .unwrap_or(false);
            if healthy {
                shared.pool.record_success(idx);
            } else {
                shared.pool.record_failure(idx, FleetFault::Probe);
            }
        }
        // Sleep in short steps so shutdown is never blocked on the period.
        let deadline = Instant::now() + period;
        while Instant::now() < deadline {
            if shared.stopped.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(ACCEPT_POLL.min(period));
        }
    }
}

fn accept_tcp(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(READ_POLL));
                let permit = match shared.conn_gate.try_acquire() {
                    Some(p) => p,
                    None => {
                        reject_connection(stream, &shared);
                        continue;
                    }
                };
                spawn_connection(stream, permit, Arc::clone(&shared));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn accept_unix(listener: std::os::unix::net::UnixListener, shared: Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(READ_POLL));
                let permit = match shared.conn_gate.try_acquire() {
                    Some(p) => p,
                    None => {
                        reject_connection(stream, &shared);
                        continue;
                    }
                };
                spawn_connection(stream, permit, Arc::clone(&shared));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Answers an over-cap connection with `Busy` (best effort) and closes it.
fn reject_connection(mut w: impl Write, shared: &Shared) {
    shared.stats.rejected_connections.inc();
    let _ = write_message(
        &mut w,
        &Message::Busy(BusyReply {
            request_id: 0,
            capacity: shared.conn_gate.capacity() as u32,
            in_flight: shared.conn_gate.in_flight() as u32,
        }),
    );
}

fn spawn_connection<S>(stream: S, permit: AdmissionPermit, shared: Arc<Shared>)
where
    S: Read + Write + Send + 'static,
{
    shared.stats.connections.inc();
    let spawned = std::thread::Builder::new()
        .name("router-conn".into())
        .spawn(move || {
            // The permit rides the whole connection thread: it releases on
            // drop whichever way the handler exits.
            let _permit = permit;
            handle_connection(stream, shared);
        });
    let _ = spawned;
}

/// Outcome of trying to fill a buffer from a socket with read timeouts.
enum Fill {
    /// Buffer completely filled.
    Done,
    /// Peer closed the connection cleanly before any byte arrived.
    Eof,
    /// No bytes arrived this poll interval.
    Idle,
    /// Transport error; the connection is done for.
    Failed,
}

/// Fills `buf` from `r`, retrying timeouts (same discipline as the
/// daemon's reader: an idle wait between envelopes polls the stop flag, a
/// mid-envelope stall fails the connection).
fn read_full(r: &mut impl Read, buf: &mut [u8], idle_ok: bool, stop: &AtomicBool) -> Fill {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 { Fill::Eof } else { Fill::Failed };
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if filled == 0 && idle_ok {
                    return Fill::Idle;
                }
                if stop.load(Ordering::SeqCst) || last_progress.elapsed() >= MID_ENVELOPE_STALL {
                    return Fill::Failed;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Fill::Failed,
        }
    }
    Fill::Done
}

/// Reads a declared `total`-byte body in [`BODY_CHUNK`] steps.
fn read_body(r: &mut impl Read, total: usize, stop: &AtomicBool) -> Option<Vec<u8>> {
    let mut body = Vec::new();
    while body.len() < total {
        let start = body.len();
        let chunk = BODY_CHUNK.min(total - start);
        body.resize(start + chunk, 0);
        match read_full(r, &mut body[start..], false, stop) {
            Fill::Done => {}
            _ => return None,
        }
    }
    Some(body)
}

/// Per-connection lazily opened backend clients. One daemon connection per
/// backend per client connection, so concurrent clients never interleave
/// requests on a shared socket.
#[derive(Default)]
struct BackendConns {
    conns: HashMap<usize, Client>,
}

/// Why one forward to one backend did not produce a response.
enum ForwardError {
    /// Connect/transport/wire fault: the backend is suspect, fail over.
    Transport,
    /// The backend's bounded queue stayed full through the retry budget.
    Busy(BusyReply),
    /// The backend answered with a request-level error.
    Server(ErrorReply),
}

/// One synchronous round trip to backend `idx` (connect on first use,
/// bounded `Busy` retry, health bookkeeping). A transport fault drops the
/// cached connection and records a fleet failure.
fn forward(
    shared: &Shared,
    conns: &mut BackendConns,
    idx: usize,
    req: &SubmitRequest,
) -> Result<SubmitResponse, ForwardError> {
    let _timer = shared.stats.stage_forward.timer();
    shared.stats.backend_requests(idx).inc();
    let client = match conns.conns.entry(idx) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => match shared.pool.addr(idx).connect() {
            Ok(client) => e.insert(client),
            Err(_) => {
                shared.pool.record_failure(idx, FleetFault::Transport);
                return Err(ForwardError::Transport);
            }
        },
    };
    let opts = SubmitOptions {
        stream_id: req.stream_id,
        lambda: req.lambda,
        upsilon: req.upsilon,
        eos: req.eos,
    };
    match client.submit_with_retry(req.payload.clone(), &opts, &shared.backend_retry) {
        Ok(response) => {
            shared.pool.record_success(idx);
            Ok(response)
        }
        Err(ClientError::Busy(b)) => Err(ForwardError::Busy(b)),
        Err(ClientError::Server(e)) if e.code == ErrorCode::Draining => {
            // A draining backend refuses new work but is not broken; treat
            // it as routable-around without poisoning its health.
            conns.conns.remove(&idx);
            Err(ForwardError::Transport)
        }
        Err(ClientError::Server(e)) => Err(ForwardError::Server(e)),
        Err(_) => {
            conns.conns.remove(&idx);
            shared.pool.record_failure(idx, FleetFault::Transport);
            Err(ForwardError::Transport)
        }
    }
}

/// Stamps router-scope trailer fields onto a backend response and rewrites
/// the request id back to the client's.
fn stamp(mut response: SubmitResponse, request_id: u64, idx: usize, failovers: u32) -> Message {
    response.request_id = request_id;
    response.stats.served_by = (idx + 1) as u32;
    response.stats.net_retries = response.stats.net_retries.saturating_add(failovers);
    Message::Response(response)
}

/// Serial path: walk the candidates in ring order, failing over on
/// transport faults, until one backend serves the request.
fn route_serial(
    shared: &Shared,
    conns: &mut BackendConns,
    candidates: &[usize],
    req: &SubmitRequest,
    mut failovers: u32,
) -> Message {
    let request_id = req.request_id;
    let mut last_busy: Option<BusyReply> = None;
    for &idx in candidates {
        match forward(shared, conns, idx, req) {
            Ok(response) => {
                shared.stats.completed.inc();
                return stamp(response, request_id, idx, failovers);
            }
            Err(ForwardError::Transport) => {
                failovers += 1;
                shared.stats.failovers.inc();
            }
            Err(ForwardError::Busy(b)) => {
                // Backend-level backpressure: remember it, but let another
                // shard absorb the work before bouncing the client.
                last_busy = Some(b);
                failovers += 1;
                shared.stats.failovers.inc();
            }
            Err(ForwardError::Server(mut e)) => {
                e.request_id = request_id;
                return Message::Error(e);
            }
        }
    }
    if let Some(mut b) = last_busy {
        b.request_id = request_id;
        return Message::Busy(b);
    }
    Message::Error(ErrorReply {
        request_id,
        code: ErrorCode::Internal,
        message: "every candidate backend failed".to_owned(),
    })
}

/// Replicated path: dual-write to the first two candidates, cross-check
/// the replies bit for bit, and arbitrate divergence by re-execution (a
/// corrupting backend cannot reproduce its garbage; a healthy backend is
/// deterministic).
fn route_replicated(
    shared: &Shared,
    conns: &mut BackendConns,
    candidates: &[usize],
    req: &SubmitRequest,
) -> Message {
    let request_id = req.request_id;
    let (a, b) = (candidates[0], candidates[1]);
    shared.stats.replicated.inc();
    let ra = forward(shared, conns, a, req);
    let rb = forward(shared, conns, b, req);
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => {
            let identical = {
                let _timer = shared.stats.stage_crosscheck.timer();
                ra.payload == rb.payload
            };
            if identical {
                shared.stats.completed.inc();
                return stamp(ra, request_id, a, 0);
            }
            // Bit-identity violated: exactly one reply is wrong, and the
            // divergent backend cannot be identified from one sample.
            shared.stats.divergences.inc();
            eprintln!(
                "preflight-router: replicas {} and {} diverged on request {}; re-executing",
                a + 1,
                b + 1,
                request_id
            );
            let stable_a =
                matches!(forward(shared, conns, a, req), Ok(ra2) if ra2.payload == ra.payload);
            let stable_b =
                matches!(forward(shared, conns, b, req), Ok(rb2) if rb2.payload == rb.payload);
            match (stable_a, stable_b) {
                (true, false) => {
                    shared.pool.quarantine_now(b, FleetFault::Divergence);
                    shared.stats.replica_fallbacks.inc();
                    shared.stats.completed.inc();
                    stamp(ra, request_id, a, 1)
                }
                (false, true) => {
                    shared.pool.quarantine_now(a, FleetFault::Divergence);
                    shared.stats.replica_fallbacks.inc();
                    shared.stats.completed.inc();
                    stamp(rb, request_id, b, 1)
                }
                (true, true) => {
                    // Both reproduce their own answer: a deterministic
                    // disagreement. Ask a third backend to arbitrate; with
                    // no arbiter available, distrust the secondary.
                    let verdict = candidates
                        .get(2)
                        .map(|&c| (c, forward(shared, conns, c, req)));
                    match verdict {
                        Some((_, Ok(rc))) if rc.payload == ra.payload => {
                            shared.pool.quarantine_now(b, FleetFault::Divergence);
                            shared.stats.replica_fallbacks.inc();
                            shared.stats.completed.inc();
                            stamp(ra, request_id, a, 1)
                        }
                        Some((_, Ok(rc))) if rc.payload == rb.payload => {
                            shared.pool.quarantine_now(a, FleetFault::Divergence);
                            shared.stats.replica_fallbacks.inc();
                            shared.stats.completed.inc();
                            stamp(rb, request_id, b, 1)
                        }
                        _ => {
                            shared.pool.quarantine_now(b, FleetFault::Divergence);
                            shared.stats.replica_fallbacks.inc();
                            shared.stats.completed.inc();
                            stamp(ra, request_id, a, 1)
                        }
                    }
                }
                (false, false) => {
                    // Neither reply is reproducible: both replicas are
                    // suspect. Quarantine them and re-serve from the rest
                    // of the ring; the frames are still never dropped.
                    shared.pool.quarantine_now(a, FleetFault::Divergence);
                    shared.pool.quarantine_now(b, FleetFault::Divergence);
                    route_serial(shared, conns, &candidates[2..], req, 2)
                }
            }
        }
        (Ok(ra), Err(_)) => {
            shared.stats.replica_fallbacks.inc();
            shared.stats.failovers.inc();
            shared.stats.completed.inc();
            stamp(ra, request_id, a, 1)
        }
        (Err(_), Ok(rb)) => {
            shared.stats.replica_fallbacks.inc();
            shared.stats.failovers.inc();
            shared.stats.completed.inc();
            stamp(rb, request_id, b, 1)
        }
        (Err(_), Err(_)) => {
            // Both replicas faulted before answering; fall back to the
            // rest of the ring serially.
            shared.stats.failovers.add(2);
            route_serial(shared, conns, &candidates[2..], req, 2)
        }
    }
}

/// Routes one submit end to end: fleet-level shed verdict, admission,
/// shard selection, then the serial or replicated forward path.
fn route_submit(shared: &Shared, conns: &mut BackendConns, req: &SubmitRequest) -> Message {
    let request_id = req.request_id;
    if shared.draining.load(Ordering::SeqCst) {
        return Message::Error(ErrorReply {
            request_id,
            code: ErrorCode::Draining,
            message: "router is draining; no new work admitted".to_owned(),
        });
    }

    // Fleet degradation: as the gate fills, Λ-expensive work is shed
    // first so essential (cheap) telemetry still flows.
    let route_timer = shared.stats.stage_route.timer();
    let level = FleetLevel::for_load(shared.gate.in_flight(), shared.gate.capacity());
    let cost = work_cost(req.payload.samples() as u64, req.lambda, req.upsilon);
    if !level.admits(cost, shared.heavy_cost) {
        shared.stats.shed(level);
        shared.stats.rejected_busy.inc();
        return Message::Busy(BusyReply {
            request_id,
            capacity: shared.gate.capacity() as u32,
            in_flight: shared.gate.in_flight() as u32,
        });
    }
    let Some(_permit) = shared.gate.try_acquire() else {
        shared.stats.rejected_busy.inc();
        return Message::Busy(BusyReply {
            request_id,
            capacity: shared.gate.capacity() as u32,
            in_flight: shared.gate.in_flight() as u32,
        });
    };
    shared.stats.routed.inc();

    // Shard by stream so one stream's frames batch on one backend, and
    // filter the ring's clockwise order down to currently healthy members.
    let now = Instant::now();
    let all = shared.ring.candidates(splitmix64(req.stream_id));
    let candidates: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&idx| shared.pool.is_available(idx, now))
        .collect();
    drop(route_timer);
    if candidates.is_empty() {
        return Message::Error(ErrorReply {
            request_id,
            code: ErrorCode::Internal,
            message: "no backend available (all quarantined or down)".to_owned(),
        });
    }

    if shared.replicate && candidates.len() >= 2 {
        route_replicated(shared, conns, &candidates, req)
    } else {
        route_serial(shared, conns, &candidates, req, 0)
    }
}

fn handle_connection<S>(mut stream: S, shared: Arc<Shared>)
where
    S: Read + Write,
{
    // Routing is synchronous per connection, so replies are written
    // directly from this thread — no writer thread needed.
    let mut conns = BackendConns::default();
    loop {
        let mut head = [0u8; HEAD_LEN];
        match read_full(&mut stream, &mut head, true, &shared.stopped) {
            Fill::Idle => {
                if shared.stopped.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Fill::Eof | Fill::Failed => break,
            Fill::Done => {}
        }
        let (type_code, len) = match parse_head(&head) {
            Ok(h) => h,
            Err(e) => {
                shared.stats.wire_errors.inc();
                let _ = write_message(&mut stream, &wire_error_reply(&e));
                break;
            }
        };
        let body = match read_body(&mut stream, len as usize + 4, &shared.stopped) {
            Some(b) => b,
            None => break,
        };
        let crc_bytes = [
            body[len as usize],
            body[len as usize + 1],
            body[len as usize + 2],
            body[len as usize + 3],
        ];
        let message = match parse_body(
            type_code,
            &body[..len as usize],
            u32::from_le_bytes(crc_bytes),
        ) {
            Ok(m) => m,
            Err(e) => {
                shared.stats.wire_errors.inc();
                let _ = write_message(&mut stream, &wire_error_reply(&e));
                break;
            }
        };
        let reply = match message {
            Message::Submit(request) => route_submit(&shared, &mut conns, &request),
            Message::Ping(token) => Message::Pong(token),
            Message::StatsRequest => Message::StatsReply(shared.stats.snapshot()),
            Message::Drain => {
                shared.draining.store(true, Ordering::SeqCst);
                if !shared.gate.wait_idle(DRAIN_TIMEOUT) {
                    eprintln!(
                        "preflight-router: drain timed out after {DRAIN_TIMEOUT:?} with {} \
                         request(s) still in flight; acking anyway",
                        shared.gate.in_flight()
                    );
                }
                shared.drain_acked.store(true, Ordering::SeqCst);
                Message::DrainAck(shared.summary())
            }
            Message::Response(_)
            | Message::Busy(_)
            | Message::Error(_)
            | Message::DrainAck(_)
            | Message::Pong(_)
            | Message::StatsReply(_) => {
                let _ = write_message(
                    &mut stream,
                    &Message::Error(ErrorReply {
                        request_id: 0,
                        code: ErrorCode::Malformed,
                        message: "unexpected server-side message from client".to_owned(),
                    }),
                );
                break;
            }
        };
        if write_message(&mut stream, &reply).is_err() {
            break;
        }
    }
}

fn wire_error_reply(e: &WireError) -> Message {
    Message::Error(ErrorReply {
        request_id: 0,
        code: ErrorCode::Malformed,
        message: e.to_string(),
    })
}
