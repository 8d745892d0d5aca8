//! The daemon: lifecycle, shared state, and the event-loop shard threads.
//!
//! Thread layout (`preflightd` with both sockets enabled, N shards):
//!
//! ```text
//!   sockets ──▶ ┌─ loop shard 0 ─┐  shared   ┌─ engine worker 0 ─┐
//!   sockets ──▶ ┼─ loop shard 1 ─┼─▶ group ──▶┼─ engine worker 1 ─┘
//!               └─ ...           ┘  map     └─ ...
//!                 ▲ per-shard reply channel (token, Message) + waker
//! ```
//!
//! Each [`crate::event_loop`] shard thread owns one poller plus the
//! connections assigned to it: accepts, envelope decoding, admission, and
//! response writes all happen non-blocking behind an epoll
//! [`crate::poll::Poller`], so concurrent connections cost descriptors and
//! buffers, not stacks. TCP shards each bind their own `SO_REUSEPORT`
//! listener (the kernel load-balances accepts); the Unix listener lives on
//! shard 0, which round-robins accepted sockets to its peers. Engine
//! workers answer through the owning shard's reply channel plus that
//! shard's self-pipe waker. Batching has no thread of its own: each shard
//! appends admitted jobs to the shared [`Batcher`] group map inline, flushes
//! full or end-of-stream groups straight to the engine queue, and folds
//! the nearest group deadline into its poll timeout. The engine workers
//! and the Prometheus scrape listener keep their own (few, fixed) threads.
//!
//! Graceful shutdown (wire `Drain` or SIGTERM→[`ServerHandle::drain`]):
//! stop admitting, flush every open group, wait for every permit to return
//! (all in-flight responses queued), then close the batcher — which drops
//! the engine queue's only sender, so the engine workers exit — and join
//! every thread. The loop never blocks on a drain — wire `Drain` acks are
//! deferred until the gate reports idle.

use crate::batcher::{BatchConfig, Batcher};
use crate::engine::{run_engine_worker, EngineConfig, TunerRegistry};
use crate::metrics::run_metrics_listener;
use crate::poll::Waker;
use crate::queue::AdmissionGate;
use crate::telemetry::ServerStats;
use crate::wire::DrainSummary;
use crossbeam::channel;
use preflight_obs::Obs;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Ceiling on waiting for in-flight work during a drain.
pub(crate) const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// A connection mid-envelope (or with unflushed replies) is closed after
/// this long without a single byte of progress, so a stalled or malicious
/// peer cannot pin buffers forever. Idle connections *between* envelopes
/// carry no deadline.
pub(crate) const MID_ENVELOPE_STALL: Duration = Duration::from_secs(30);

/// Bodies are read (and reusable buffers retained) in chunks of this size,
/// so a connection that merely *declares* a large payload never holds more
/// memory than it has sent.
pub(crate) const BODY_CHUNK: usize = 256 * 1024;

/// Everything needed to start a daemon.
///
/// Prefer [`crate::builder::ServerBuilder`], which constructs one of these
/// behind a fluent API; the struct stays public for embedders that want to
/// store or template configurations.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address (e.g. `127.0.0.1:0`), if any.
    pub tcp: Option<String>,
    /// Unix socket path, if any.
    pub unix: Option<PathBuf>,
    /// Bounded-queue capacity: in-flight requests beyond this are rejected
    /// with `Busy`.
    pub capacity: usize,
    /// Ceiling on concurrent connections: accepts beyond this are answered
    /// with `Busy` and closed, so idle or slow peers cannot exhaust
    /// descriptors and buffers that the request-level gate does not see.
    pub max_connections: usize,
    /// Batching knobs.
    pub batch: BatchConfig,
    /// Engine knobs (threads per batch, supervision policy).
    pub engine: EngineConfig,
    /// Parallel engine workers (batches in flight at once).
    pub engine_workers: usize,
    /// Event-loop shards (poll threads, each owning its own listener and
    /// connections). `0` means auto: `min(4, available_parallelism)`.
    /// Explicit values are clamped to `1..=16`.
    pub shards: usize,
    /// Enable the per-stream Λ/Υ auto-tuner (`--auto-tune`): each batch
    /// group key gets a rolling-Φ calibrator whose frozen boundaries
    /// replace the requested parameters once warm. Chosen-vs-requested
    /// values surface as `tune_*` gauges and in the stats trailer.
    pub auto_tune: bool,
    /// TCP address for the Prometheus `/metrics` scrape listener, if any
    /// (a second listener, never mixed with the request protocol).
    pub metrics_addr: Option<String>,
    /// The observability registry every daemon thread records into. The
    /// default is a live registry (the daemon's drain summary reads it);
    /// pass [`Obs::disabled`] to switch all recording off.
    pub obs: Obs,
}

impl ServerConfig {
    /// The number of event-loop shard threads this configuration resolves
    /// to: `shards` clamped to `1..=16`, or `min(4, available cores)` when
    /// left at the `0` auto default.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        } else {
            self.shards.clamp(1, 16)
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tcp: None,
            unix: None,
            capacity: 64,
            max_connections: 10_240,
            batch: BatchConfig::default(),
            engine: EngineConfig::default(),
            engine_workers: 2,
            shards: 0,
            auto_tune: false,
            metrics_addr: None,
            obs: Obs::new(),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) gate: AdmissionGate,
    /// Bounds concurrent connections; an accept that cannot win a permit is
    /// answered with `Busy` and closed.
    pub(crate) conn_gate: AdmissionGate,
    pub(crate) stats: Arc<ServerStats>,
    /// The group map every shard submits admitted jobs to.
    pub(crate) batcher: Batcher,
    /// No new work admitted; the loop deregisters its listeners.
    pub(crate) draining: AtomicBool,
    /// Fully drained; the loop closes every connection and exits.
    pub(crate) stopped: AtomicBool,
    /// A wire `Drain` finished flushing (the daemon main loop exits on it).
    pub(crate) drain_acked: AtomicBool,
    /// Interrupts every shard's poll wait (filled before the loops start).
    wake: Mutex<Vec<Waker>>,
}

impl Shared {
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.batcher.flush_all();
        self.wake_loop();
    }

    pub(crate) fn summary(&self) -> DrainSummary {
        DrainSummary {
            completed: self.stats.completed.get(),
            rejected: self.stats.rejected_busy.get(),
        }
    }

    fn add_wake(&self, waker: Waker) {
        self.wake.lock().expect("wakers poisoned").push(waker);
    }

    /// Interrupts every shard's poll wait (drain progress, shutdown).
    pub(crate) fn wake_loop(&self) {
        for waker in self.wake.lock().expect("wakers poisoned").iter() {
            waker.wake();
        }
    }
}

/// A running daemon.
pub struct ServerHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    metrics_addr: Option<SocketAddr>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The actual TCP address bound (useful with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The actual `/metrics` scrape address bound, if configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The Unix socket path served, if any.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Whole-server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Requests currently occupying bounded-queue slots.
    pub fn in_flight(&self) -> usize {
        self.shared.gate.in_flight()
    }

    /// Connections currently registered with the event loop.
    pub fn open_connections(&self) -> usize {
        self.shared.conn_gate.in_flight()
    }

    /// `true` once a drain has begun (no new work admitted).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// `true` once a wire-level `Drain` has been acknowledged.
    pub fn drain_acked(&self) -> bool {
        self.shared.drain_acked.load(Ordering::SeqCst)
    }

    /// Gracefully drains and shuts the daemon down: stop admitting, flush
    /// open batches, wait for in-flight work, stop and join every server
    /// thread. Idempotent.
    pub fn drain(&self) -> DrainSummary {
        self.shared.begin_drain();
        if !self.shared.gate.wait_idle(DRAIN_TIMEOUT) {
            eprintln!(
                "preflightd: drain timed out after {DRAIN_TIMEOUT:?} with {} request(s) still \
                 in flight; shutting down anyway",
                self.shared.gate.in_flight()
            );
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.wake_loop();
        // Drops the engine queue's only sender (after flushing anything a
        // timed-out wait left open), so the workers exit once it is empty.
        self.shared.batcher.close();
        let mut threads = self.threads.lock().expect("server threads poisoned");
        for t in threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.shared.summary()
    }
}

/// Binds the configured sockets and starts the daemon threads: the event
/// loop shards, the engine workers, and (optionally) the metrics listener.
/// The internal entry point behind
/// [`crate::builder::ServerBuilder::serve`].
///
/// # Errors
/// Fails if no socket is configured or a bind fails.
pub(crate) fn start_config(config: ServerConfig) -> std::io::Result<ServerHandle> {
    use crate::event_loop::{run_event_loop, Handoff, LoopConfig};
    use crate::poll::{waker, Poller};
    use crate::pool::BufferPool;

    if config.tcp.is_none() && config.unix.is_none() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "server needs at least one of a TCP address or a Unix socket path",
        ));
    }
    // A 10k-connection default outruns common 1024-fd soft limits; raise
    // soft→hard up front (best effort — the connection gate still bounds
    // correctly if the hard limit is lower than the cap).
    let _ = crate::poll::raise_nofile_limit();

    let shards = config.effective_shards();
    let gate = AdmissionGate::new(config.capacity);
    let stats = Arc::new(ServerStats::new(&config.obs));
    // One slab pool shared by the ingest path (socket → stack buffer) and
    // the engine workers (work/repair buffers); recycled when replies
    // finish flushing.
    let pool = Arc::new(BufferPool::new(
        stats.pool_hits.clone(),
        stats.pool_misses.clone(),
    ));
    let (engine_tx, engine_rx) = channel::unbounded();

    let shared = Arc::new(Shared {
        gate: gate.clone(),
        conn_gate: AdmissionGate::new(config.max_connections.max(1)),
        stats: Arc::clone(&stats),
        batcher: Batcher::new(
            engine_tx,
            gate,
            config.batch.clone(),
            stats.stage_batch.clone(),
        ),
        draining: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        drain_acked: AtomicBool::new(false),
        wake: Mutex::new(Vec::new()),
    });

    let mut threads = Vec::new();
    // One registry instance shared by every worker clone, so a stream's
    // calibrator state survives whichever worker picks up its next batch.
    let mut engine_config = config.engine.clone();
    if config.auto_tune && engine_config.tuners.is_none() {
        engine_config.tuners = Some(TunerRegistry::new());
    }
    for i in 0..config.engine_workers.max(1) {
        let rx = engine_rx.clone();
        let engine = engine_config.clone();
        let stats = Arc::clone(&stats);
        let pool = Arc::clone(&pool);
        threads.push(
            std::thread::Builder::new()
                .name(format!("preflightd-engine-{i}"))
                .spawn(move || run_engine_worker(rx, engine, stats, pool))?,
        );
    }
    drop(engine_rx);

    let mut tcp_addr = None;
    let mut tcp_listeners: Vec<Option<TcpListener>> = (0..shards).map(|_| None).collect();
    if let Some(addr) = &config.tcp {
        if shards == 1 {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            tcp_listeners[0] = Some(listener);
        } else {
            // Every shard binds its own `SO_REUSEPORT` listener so the
            // kernel spreads accepts across the poll threads. Bind the
            // first, then point the rest at its *concrete* address, so an
            // ephemeral `:0` request lands every shard on the same port.
            use std::net::ToSocketAddrs;
            let sa = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidInput, "TCP address resolved to nothing")
            })?;
            let first = crate::poll::reuseport_tcp_listener(sa)?;
            let bound = first.local_addr()?;
            tcp_addr = Some(bound);
            tcp_listeners[0] = Some(first);
            for slot in tcp_listeners.iter_mut().skip(1) {
                *slot = Some(crate::poll::reuseport_tcp_listener(bound)?);
            }
        }
    }

    let mut unix_path = None;
    let mut unix_listener = None;
    if let Some(path) = &config.unix {
        // A stale socket file from a previous run would fail the bind.
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        unix_path = Some(path.clone());
        unix_listener = Some(listener);
    }

    // Per-shard pollers, wakers, and channels, all created before any loop
    // thread starts: every waker is installed in `Shared` (so `begin_drain`
    // can always interrupt every poll wait) and the full set of Unix
    // handoff lanes (inbox sender + waker per shard) is cloned into every
    // shard before the first accept can happen.
    let mut lanes: Vec<(channel::Sender<Handoff>, Waker)> = Vec::with_capacity(shards);
    let mut shard_parts = Vec::with_capacity(shards);
    for _ in 0..shards {
        let poller = Poller::new()?;
        let (wake, wake_reader) = waker()?;
        shared.add_wake(wake.clone());
        let (reply_tx, reply_rx) = channel::unbounded();
        let (handoff_tx, handoff_rx) = channel::unbounded();
        lanes.push((handoff_tx, wake.clone()));
        shard_parts.push((poller, wake_reader, wake, reply_tx, reply_rx, handoff_rx));
    }
    for (shard, (poller, wake_reader, wake, reply_tx, reply_rx, handoff_rx)) in
        shard_parts.into_iter().enumerate()
    {
        let loop_cfg = LoopConfig {
            shard,
            tcp: tcp_listeners[shard].take(),
            unix: if shard == 0 {
                unix_listener.take()
            } else {
                None
            },
            shared: Arc::clone(&shared),
            pool: Arc::clone(&pool),
            wake,
            reply_tx,
            reply_rx,
            wake_reader,
            poller,
            handoff_rx,
            handoff: lanes.clone(),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("preflightd-loop-{shard}"))
                .spawn(move || run_event_loop(loop_cfg))?,
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
                .name("preflightd-metrics".into())
                .spawn(move || {
                    run_metrics_listener(listener, obs, move || {
                        scrape_shared.stopped.load(Ordering::SeqCst)
                    });
                })?,
        );
    }

    Ok(ServerHandle {
        shared,
        tcp_addr,
        unix_path,
        metrics_addr,
        threads: Mutex::new(threads),
    })
}
