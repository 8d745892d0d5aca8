//! Load generator for the `preflightd` serving daemon (`repro serve`).
//!
//! Starts an in-process daemon on a loopback TCP socket, fans out N
//! concurrent client connections each submitting M frame stacks, and
//! reports request latency (p50/p99) and end-to-end throughput in Mpix/s.
//! `Busy` rejections from the bounded queue are retried (and counted), so
//! the run also measures how the daemon behaves at and beyond capacity.
//! The scriptable output lands in `BENCH_serve.json`.

use crate::perf::{kernel_label, sample_u16, synthetic_stack, tier_label};
use preflight_serve::server::ServerConfig;
use preflight_serve::wire::FramePayload;
use preflight_serve::{ClientBuilder, ClientError, ServerBuilder, SubmitOptions};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Workload shape for one serving benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Stacks each client submits.
    pub requests_per_client: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Temporal frames per request.
    pub frames: usize,
    /// Daemon queue capacity (in-flight requests before `Busy`).
    pub capacity: usize,
}

impl ServeConfig {
    /// The standard load: 8 clients × 16 requests of 32×32×8 frames
    /// against a 16-slot queue — enough contention to exercise batching
    /// and occasional backpressure.
    pub fn standard() -> Self {
        ServeConfig {
            clients: 8,
            requests_per_client: 16,
            width: 32,
            height: 32,
            frames: 8,
            capacity: 16,
        }
    }

    /// A sub-second smoke workload for CI.
    pub fn quick() -> Self {
        ServeConfig {
            clients: 2,
            requests_per_client: 4,
            width: 16,
            height: 16,
            frames: 4,
            capacity: 8,
        }
    }

    /// Samples served per request.
    pub fn samples_per_request(&self) -> usize {
        self.width * self.height * self.frames
    }

    /// Total requests across all clients.
    pub fn total_requests(&self) -> usize {
        self.clients * self.requests_per_client
    }
}

/// Results of one serving benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The workload that ran.
    pub config: ServeConfig,
    /// Wall time for the whole run, in seconds.
    pub wall_secs: f64,
    /// Median request latency (submit → response), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
    /// Million samples served per second of wall time.
    pub mpix_per_s: f64,
    /// `Busy` rejections absorbed by client retry.
    pub busy_retries: u64,
    /// Batches the engine dispatched (from the daemon's counters).
    pub batches: u64,
    /// Batches that needed the degradation ladder.
    pub degraded_batches: u64,
    /// Voter kernel the daemon's engine ran (`scalar` or `bitsliced`),
    /// matching the `BENCH_preprocess.json` row schema.
    pub kernel: &'static str,
    /// Resolved SIMD dispatch tier for bit-sliced engines, `-` otherwise.
    pub dispatch_tier: &'static str,
    /// Wire CRC implementation the daemon and clients ran
    /// ([`preflight_serve::crc::backend`]).
    pub crc: &'static str,
    /// Hardware threads this process may use, so rows taken on a small
    /// host are read as such.
    pub available_threads: usize,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// Runs the load generator against a fresh in-process daemon.
///
/// # Panics
/// Panics if the daemon cannot start or a client loses its connection —
/// both are harness failures, not measurements.
pub fn serve_loadgen(config: &ServeConfig) -> ServeReport {
    let engine_kernel = ServerConfig::default().engine.kernel;
    let handle = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .queue_depth(config.capacity)
        .serve()
        .expect("daemon start");
    let addr = handle.tcp_addr().expect("bound address");

    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..config.clients {
        let config = config.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = ClientBuilder::new()
                .tcp(addr)
                .connect()
                .expect("client connect");
            let mut latencies_ms = Vec::with_capacity(config.requests_per_client);
            let mut busy: u64 = 0;
            for r in 0..config.requests_per_client {
                let seed = 0x5EED ^ ((c as u64) << 32) ^ r as u64;
                let stack =
                    synthetic_stack(config.width, config.height, config.frames, seed, sample_u16);
                let opts = SubmitOptions {
                    stream_id: c as u64,
                    eos: true,
                    ..SubmitOptions::default()
                };
                let begin = Instant::now();
                loop {
                    match client.submit(FramePayload::U16(stack.clone()), &opts) {
                        Ok(response) => {
                            assert_eq!(
                                response.payload.frames(),
                                config.frames,
                                "daemon must answer with the submitted depth"
                            );
                            break;
                        }
                        Err(ClientError::Busy(_)) => {
                            busy += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("client {c} request {r} failed: {e}"),
                    }
                }
                latencies_ms.push(begin.elapsed().as_secs_f64() * 1e3);
            }
            (latencies_ms, busy)
        }));
    }

    let mut latencies_ms = Vec::with_capacity(config.total_requests());
    let mut busy_retries = 0;
    for w in workers {
        let (lat, busy) = w.join().expect("client thread");
        latencies_ms.extend(lat);
        busy_retries += busy;
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let stats = handle.stats();
    let batches = stats.batches.get();
    let degraded_batches = stats.degraded_batches.get();
    handle.drain();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean_ms = latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64;
    let total_samples = (config.total_requests() * config.samples_per_request()) as f64;
    ServeReport {
        config: config.clone(),
        wall_secs,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        mean_ms,
        mpix_per_s: total_samples / wall_secs / 1e6,
        busy_retries,
        batches,
        degraded_batches,
        kernel: kernel_label(engine_kernel),
        dispatch_tier: tier_label(engine_kernel),
        crc: preflight_serve::crc::backend(),
        available_threads: preflight_core::available_threads(),
    }
}

impl ServeReport {
    /// Aligned text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serving throughput, {} client(s) x {} request(s) of {}x{}x{} frames, \
             queue capacity {}",
            self.config.clients,
            self.config.requests_per_client,
            self.config.width,
            self.config.height,
            self.config.frames,
            self.config.capacity
        );
        let _ = writeln!(
            out,
            "{:>10} {:>9} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>9} {:>9}",
            "kernel",
            "tier",
            "wall_s",
            "p50_ms",
            "p99_ms",
            "mean_ms",
            "Mpix/s",
            "busy",
            "batches",
            "degraded"
        );
        let _ = writeln!(
            out,
            "{:>10} {:>9} {:>12.4} {:>10.3} {:>10.3} {:>10.3} {:>10.2} {:>8} {:>9} {:>9}",
            self.kernel,
            self.dispatch_tier,
            self.wall_secs,
            self.p50_ms,
            self.p99_ms,
            self.mean_ms,
            self.mpix_per_s,
            self.busy_retries,
            self.batches,
            self.degraded_batches
        );
        out
    }

    /// Hand-formatted JSON document (the repo carries no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"serve_throughput\",");
        let _ = writeln!(
            out,
            "  \"workload\": {{\"clients\": {}, \"requests_per_client\": {}, \
             \"width\": {}, \"height\": {}, \"frames\": {}, \"capacity\": {}}},",
            self.config.clients,
            self.config.requests_per_client,
            self.config.width,
            self.config.height,
            self.config.frames,
            self.config.capacity
        );
        let _ = writeln!(
            out,
            "  \"total_requests\": {},",
            self.config.total_requests()
        );
        let _ = writeln!(out, "  \"wall_secs\": {:.6},", self.wall_secs);
        let _ = writeln!(out, "  \"p50_ms\": {:.3},", self.p50_ms);
        let _ = writeln!(out, "  \"p99_ms\": {:.3},", self.p99_ms);
        let _ = writeln!(out, "  \"mean_ms\": {:.3},", self.mean_ms);
        let _ = writeln!(out, "  \"mpix_per_s\": {:.3},", self.mpix_per_s);
        let _ = writeln!(out, "  \"busy_retries\": {},", self.busy_retries);
        let _ = writeln!(out, "  \"batches\": {},", self.batches);
        let _ = writeln!(out, "  \"degraded_batches\": {},", self.degraded_batches);
        let _ = writeln!(out, "  \"kernel\": \"{}\",", self.kernel);
        let _ = writeln!(out, "  \"dispatch_tier\": \"{}\",", self.dispatch_tier);
        let _ = writeln!(out, "  \"crc\": \"{}\",", self.crc);
        let _ = writeln!(out, "  \"available_threads\": {}", self.available_threads);
        out.push_str("}\n");
        out
    }
}

/// Workload shape for the open-connection sweep: how does tail latency
/// move as thousands of idle connections sit on the daemon's poller?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnSweepConfig {
    /// Idle-connection counts to sweep through, one daemon each.
    pub open_levels: Vec<usize>,
    /// Concurrent active clients submitting alongside the idle herd.
    pub active_clients: usize,
    /// Stacks each active client submits.
    pub requests_per_client: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Temporal frames per request.
    pub frames: usize,
    /// Daemon queue capacity (in-flight requests before `Busy`).
    pub capacity: usize,
}

impl ConnSweepConfig {
    /// The full sweep: 256 → 10 000 idle connections under the PR 3
    /// operating load (matching [`ServeConfig::standard`] frame shape).
    pub fn standard() -> Self {
        ConnSweepConfig {
            open_levels: vec![256, 1024, 4096, 10_000],
            active_clients: 4,
            requests_per_client: 8,
            width: 32,
            height: 32,
            frames: 8,
            capacity: 16,
        }
    }

    /// A CI-sized sweep that stays well inside default fd limits.
    pub fn quick() -> Self {
        ConnSweepConfig {
            open_levels: vec![64, 256],
            active_clients: 2,
            requests_per_client: 4,
            width: 16,
            height: 16,
            frames: 4,
            capacity: 8,
        }
    }
}

/// One sweep level: p50/p99 of the active traffic with `open_held` idle
/// connections parked on the same event loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnSweepRow {
    /// Idle connections the level asked for.
    pub open_target: usize,
    /// Idle connections actually established and held.
    pub open_held: usize,
    /// Median active-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile active-request latency, milliseconds.
    pub p99_ms: f64,
    /// `Busy` rejections absorbed by active-client retry.
    pub busy_retries: u64,
    /// Connections the daemon refused at the cap (its own counter).
    pub rejected_connections: u64,
}

/// Results of one open-connection sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnSweepReport {
    /// The workload that ran.
    pub config: ConnSweepConfig,
    /// One row per sweep level.
    pub rows: Vec<ConnSweepRow>,
    /// `"subprocess"` when a `preflightd` binary served the sweep from its
    /// own process (each side keeps its own fd budget), `"in-process"`
    /// otherwise.
    pub daemon: &'static str,
}

/// A daemon under test: a real `preflightd` child process when the binary
/// is reachable, an in-process server otherwise. The subprocess path is
/// what lets a 10 000-connection level fit: each side of the socket pair
/// charges a different process's fd limit.
enum SweepDaemon {
    Subprocess {
        child: std::process::Child,
        addr: std::net::SocketAddr,
    },
    InProcess {
        handle: preflight_serve::server::ServerHandle,
        addr: std::net::SocketAddr,
    },
}

impl SweepDaemon {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            SweepDaemon::Subprocess { addr, .. } | SweepDaemon::InProcess { addr, .. } => *addr,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            SweepDaemon::Subprocess { .. } => "subprocess",
            SweepDaemon::InProcess { .. } => "in-process",
        }
    }

    /// Drains over the wire (both variants honour it) and reaps the child.
    fn stop(self) {
        let addr = self.addr();
        if let Ok(mut client) = ClientBuilder::new()
            .tcp(addr)
            .io_timeout(Duration::from_secs(30))
            .connect()
        {
            let _ = client.drain();
        }
        match self {
            SweepDaemon::Subprocess { mut child, .. } => {
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            SweepDaemon::InProcess { handle, .. } => {
                handle.drain();
            }
        }
    }
}

/// Locates a `preflightd` binary: `$PREFLIGHTD_BIN` wins, then siblings of
/// the running executable (`target/<profile>/` and, for unit-test
/// binaries, one directory above `deps/`).
fn find_preflightd() -> Option<std::path::PathBuf> {
    if let Ok(explicit) = std::env::var("PREFLIGHTD_BIN") {
        let path = std::path::PathBuf::from(explicit);
        return path.is_file().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    for _ in 0..2 {
        let candidate = dir.join("preflightd");
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

fn spawn_daemon(capacity: usize) -> SweepDaemon {
    if let Some(bin) = find_preflightd() {
        let mut child = std::process::Command::new(&bin)
            .args(["--tcp", "127.0.0.1:0", "--capacity", &capacity.to_string()])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn preflightd");
        // The daemon announces its ephemeral port on stdout before serving.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufRead::lines(std::io::BufReader::new(stdout));
        let addr = loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                _ => {
                    let _ = child.kill();
                    panic!("preflightd exited before announcing its address");
                }
            };
            if let Some(rest) = line.split("tcp://").nth(1) {
                break rest.trim().parse().expect("announced address parses");
            }
        };
        // Keep draining the pipe so the child never blocks on stdout.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        return SweepDaemon::Subprocess { child, addr };
    }
    let handle = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .queue_depth(capacity)
        .serve()
        .expect("in-process daemon start");
    let addr = handle.tcp_addr().expect("bound address");
    SweepDaemon::InProcess { handle, addr }
}

/// Runs the open-connection sweep: per level, park N idle connections on
/// a fresh daemon, drive the active workload through them, and read the
/// daemon's own rejection counters over the wire.
///
/// # Panics
/// Panics if a daemon cannot start or active traffic fails — harness
/// failures, not measurements.
pub fn conn_sweep(config: &ConnSweepConfig) -> ConnSweepReport {
    #[cfg(unix)]
    let _ = preflight_serve::poll::raise_nofile_limit();

    let mut rows = Vec::with_capacity(config.open_levels.len());
    let mut daemon_label = "in-process";
    for &level in &config.open_levels {
        let daemon = spawn_daemon(config.capacity);
        daemon_label = daemon.label();
        let addr = daemon.addr();

        let mut idle = Vec::with_capacity(level);
        for _ in 0..level {
            match std::net::TcpStream::connect(addr) {
                Ok(stream) => idle.push(stream),
                Err(_) => break,
            }
        }
        let open_held = idle.len();

        let mut workers = Vec::new();
        for c in 0..config.active_clients {
            let config = config.clone();
            workers.push(std::thread::spawn(move || {
                let mut client = ClientBuilder::new()
                    .tcp(addr)
                    .connect()
                    .expect("active client connect");
                let mut latencies_ms = Vec::with_capacity(config.requests_per_client);
                let mut busy: u64 = 0;
                for r in 0..config.requests_per_client {
                    let seed = 0x0CEA ^ ((c as u64) << 32) ^ r as u64;
                    let stack = synthetic_stack(
                        config.width,
                        config.height,
                        config.frames,
                        seed,
                        sample_u16,
                    );
                    let opts = SubmitOptions {
                        stream_id: c as u64,
                        eos: true,
                        ..SubmitOptions::default()
                    };
                    let begin = Instant::now();
                    loop {
                        match client.submit(FramePayload::U16(stack.clone()), &opts) {
                            Ok(response) => {
                                assert_eq!(response.payload.frames(), config.frames);
                                break;
                            }
                            Err(ClientError::Busy(_)) => {
                                busy += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(e) => panic!("active client {c} request {r} failed: {e}"),
                        }
                    }
                    latencies_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                }
                (latencies_ms, busy)
            }));
        }

        let mut latencies_ms = Vec::new();
        let mut busy_retries = 0;
        for w in workers {
            let (lat, busy) = w.join().expect("active client thread");
            latencies_ms.extend(lat);
            busy_retries += busy;
        }

        let rejected_connections = ClientBuilder::new()
            .tcp(addr)
            .connect()
            .ok()
            .and_then(|mut c| c.stats().ok())
            .and_then(|snap| snap.counter("serve_connections_rejected_total", None))
            .unwrap_or(0);

        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        rows.push(ConnSweepRow {
            open_target: level,
            open_held,
            p50_ms: percentile(&latencies_ms, 0.50),
            p99_ms: percentile(&latencies_ms, 0.99),
            busy_retries,
            rejected_connections,
        });

        drop(idle);
        daemon.stop();
    }
    ConnSweepReport {
        config: config.clone(),
        rows,
        daemon: daemon_label,
    }
}

impl ConnSweepReport {
    /// Aligned text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "open-connection sweep, {} active client(s) x {} request(s) of {}x{}x{} frames, \
             queue capacity {}, daemon {}",
            self.config.active_clients,
            self.config.requests_per_client,
            self.config.width,
            self.config.height,
            self.config.frames,
            self.config.capacity,
            self.daemon
        );
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
            "open", "held", "p50_ms", "p99_ms", "busy", "rejected"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>10} {:>10} {:>10.3} {:>10.3} {:>8} {:>10}",
                row.open_target,
                row.open_held,
                row.p50_ms,
                row.p99_ms,
                row.busy_retries,
                row.rejected_connections
            );
        }
        out
    }

    /// The sweep as a hand-formatted JSON array (no JSON dependency).
    fn json_rows(&self) -> String {
        let mut out = String::new();
        out.push_str("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"open_target\": {}, \"open_held\": {}, \"p50_ms\": {:.3}, \
                 \"p99_ms\": {:.3}, \"busy_retries\": {}, \"rejected_connections\": {}}}",
                row.open_target,
                row.open_held,
                row.p50_ms,
                row.p99_ms,
                row.busy_retries,
                row.rejected_connections
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]");
        out
    }
}

/// Workload shape for the active-throughput sweep: how much traffic does
/// the data plane move as payload size, concurrency, and event-loop shard
/// count vary? Each cell starts a fresh in-process daemon with that shard
/// count (every other knob, the kernel included, at its default) and
/// drives it to saturation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSweepConfig {
    /// `(width, height, frames)` payload shapes to sweep.
    pub payloads: Vec<(usize, usize, usize)>,
    /// Concurrent client-connection counts to sweep.
    pub client_levels: Vec<usize>,
    /// Daemon event-loop shard counts to sweep (`preflightd --shards`).
    pub shard_levels: Vec<usize>,
    /// Stacks each client submits per cell.
    pub requests_per_client: usize,
    /// Daemon queue capacity (in-flight requests before `Busy`).
    pub capacity: usize,
}

impl ActiveSweepConfig {
    /// The full sweep: small and large stacks, single and fanned-out
    /// clients, 1/2/4 shards — the grid behind the README's serving row.
    pub fn standard() -> Self {
        ActiveSweepConfig {
            payloads: vec![(32, 32, 8), (128, 128, 8), (256, 256, 8)],
            client_levels: vec![1, 8],
            shard_levels: vec![1, 2, 4],
            requests_per_client: 16,
            capacity: 16,
        }
    }

    /// A sub-second grid for CI.
    pub fn quick() -> Self {
        ActiveSweepConfig {
            payloads: vec![(16, 16, 4)],
            client_levels: vec![2],
            shard_levels: vec![1, 2],
            requests_per_client: 4,
            capacity: 8,
        }
    }
}

/// One active-sweep cell: throughput and latency at a fixed payload shape,
/// client count, and daemon shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSweepRow {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Temporal frames per request.
    pub frames: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Daemon event-loop shards.
    pub shards: usize,
    /// Million samples served per second of wall time.
    pub mpix_per_s: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// `Busy` rejections absorbed by client retry.
    pub busy_retries: u64,
}

/// Results of one active-throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSweepReport {
    /// The workload that ran.
    pub config: ActiveSweepConfig,
    /// One row per `(payload, clients, shards)` cell.
    pub rows: Vec<ActiveSweepRow>,
}

/// Runs the active-throughput sweep: one fresh in-process daemon per cell
/// (so the shard count takes effect), saturated by the cell's client herd.
///
/// # Panics
/// Panics if a daemon cannot start or a client loses its connection —
/// harness failures, not measurements.
pub fn active_sweep(config: &ActiveSweepConfig) -> ActiveSweepReport {
    let mut rows = Vec::new();
    for &(width, height, frames) in &config.payloads {
        for &clients in &config.client_levels {
            for &shards in &config.shard_levels {
                let handle = ServerBuilder::new()
                    .bind("127.0.0.1:0")
                    .queue_depth(config.capacity)
                    .shards(shards)
                    .serve()
                    .expect("daemon start");
                let addr = handle.tcp_addr().expect("bound address");

                // Payloads are built before the clock starts: the sweep
                // measures the serving data plane, not synthetic-noise
                // generation.
                let prebuilt: Vec<Vec<_>> = (0..clients)
                    .map(|c| {
                        (0..config.requests_per_client)
                            .map(|r| {
                                let seed = 0xAC71 ^ ((c as u64) << 32) ^ r as u64;
                                synthetic_stack(width, height, frames, seed, sample_u16)
                            })
                            .collect()
                    })
                    .collect();

                let started = Instant::now();
                let mut workers = Vec::new();
                for (c, stacks) in prebuilt.into_iter().enumerate() {
                    let requests = config.requests_per_client;
                    workers.push(std::thread::spawn(move || {
                        let mut client = ClientBuilder::new()
                            .tcp(addr)
                            .connect()
                            .expect("client connect");
                        let mut latencies_ms = Vec::with_capacity(requests);
                        let mut busy: u64 = 0;
                        for (r, stack) in stacks.into_iter().enumerate() {
                            let opts = SubmitOptions {
                                stream_id: c as u64,
                                eos: true,
                                ..SubmitOptions::default()
                            };
                            let begin = Instant::now();
                            loop {
                                match client.submit(FramePayload::U16(stack.clone()), &opts) {
                                    Ok(response) => {
                                        assert_eq!(response.payload.frames(), frames);
                                        break;
                                    }
                                    Err(ClientError::Busy(_)) => {
                                        busy += 1;
                                        std::thread::sleep(Duration::from_millis(1));
                                    }
                                    Err(e) => panic!("client {c} request {r} failed: {e}"),
                                }
                            }
                            latencies_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                        }
                        (latencies_ms, busy)
                    }));
                }

                let mut latencies_ms = Vec::new();
                let mut busy_retries = 0;
                for w in workers {
                    let (lat, busy) = w.join().expect("client thread");
                    latencies_ms.extend(lat);
                    busy_retries += busy;
                }
                let wall_secs = started.elapsed().as_secs_f64();
                handle.drain();

                latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
                let total_samples =
                    (clients * config.requests_per_client * width * height * frames) as f64;
                rows.push(ActiveSweepRow {
                    width,
                    height,
                    frames,
                    clients,
                    shards,
                    mpix_per_s: total_samples / wall_secs / 1e6,
                    p50_ms: percentile(&latencies_ms, 0.50),
                    p99_ms: percentile(&latencies_ms, 0.99),
                    busy_retries,
                });
            }
        }
    }
    ActiveSweepReport {
        config: config.clone(),
        rows,
    }
}

impl ActiveSweepReport {
    /// Aligned text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "active-throughput sweep, {} request(s) per client, queue capacity {}, kernel {}",
            self.config.requests_per_client,
            self.config.capacity,
            kernel_label(ServerConfig::default().engine.kernel)
        );
        let _ = writeln!(
            out,
            "{:>14} {:>8} {:>7} {:>10} {:>10} {:>10} {:>8}",
            "payload", "clients", "shards", "Mpix/s", "p50_ms", "p99_ms", "busy"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:>14} {:>8} {:>7} {:>10.2} {:>10.3} {:>10.3} {:>8}",
                format!("{}x{}x{}", row.width, row.height, row.frames),
                row.clients,
                row.shards,
                row.mpix_per_s,
                row.p50_ms,
                row.p99_ms,
                row.busy_retries
            );
        }
        out
    }

    /// The sweep as a hand-formatted JSON array (no JSON dependency).
    fn json_rows(&self) -> String {
        let mut out = String::new();
        out.push_str("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"width\": {}, \"height\": {}, \"frames\": {}, \"clients\": {}, \
                 \"shards\": {}, \"kernel\": \"{}\", \"mpix_per_s\": {:.3}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"busy_retries\": {}}}",
                row.width,
                row.height,
                row.frames,
                row.clients,
                row.shards,
                kernel_label(ServerConfig::default().engine.kernel),
                row.mpix_per_s,
                row.p50_ms,
                row.p99_ms,
                row.busy_retries
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]");
        out
    }
}

/// The combined `BENCH_serve.json` document: the PR 3 operating-point
/// loadgen, the active-throughput sweep, and the open-connection sweep.
pub fn bench_json(
    report: &ServeReport,
    active: &ActiveSweepReport,
    sweep: &ConnSweepReport,
) -> String {
    let base = report.to_json();
    let trimmed = base
        .strip_suffix("}\n")
        .expect("loadgen json ends with a brace");
    let mut out = trimmed.trim_end().to_owned();
    out.push_str(",\n");
    let _ = writeln!(
        out,
        "  \"active_throughput_sweep\": {},",
        active.json_rows()
    );
    let _ = writeln!(out, "  \"open_connection_daemon\": \"{}\",", sweep.daemon);
    let _ = writeln!(out, "  \"open_connection_sweep\": {}", sweep.json_rows());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_loadgen_completes_and_reports_sane_numbers() {
        let report = serve_loadgen(&ServeConfig::quick());
        assert!(report.wall_secs > 0.0);
        assert!(report.mpix_per_s > 0.0);
        assert!(report.p50_ms > 0.0);
        assert!(report.p99_ms >= report.p50_ms);
        assert!(report.batches >= 1);
        assert_eq!(report.degraded_batches, 0, "healthy run must not degrade");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = serve_loadgen(&ServeConfig::quick());
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"benchmark\": \"serve_throughput\""));
        // Kernel provenance matches the BENCH_preprocess.json row schema.
        assert!(json.contains("\"kernel\": \"bitsliced\""));
        assert!(json.contains(&format!(
            "\"dispatch_tier\": \"{}\"",
            preflight_core::dispatch_tier().name()
        )));
        assert!(json.contains(&format!("\"crc\": \"{}\"", preflight_serve::crc::backend())));
        assert!(json.contains(&format!(
            "\"available_threads\": {}",
            preflight_core::available_threads()
        )));
        let count = |c| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
    }

    #[test]
    fn tiny_conn_sweep_holds_idle_connections_and_measures() {
        let config = ConnSweepConfig {
            open_levels: vec![8, 16],
            active_clients: 1,
            requests_per_client: 2,
            width: 8,
            height: 8,
            frames: 4,
            capacity: 4,
        };
        let report = conn_sweep(&config);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.open_held, row.open_target, "idle herd must connect");
            assert!(row.p99_ms >= row.p50_ms);
            assert_eq!(row.rejected_connections, 0, "well under the cap");
        }
    }

    #[test]
    fn quick_active_sweep_covers_the_grid() {
        let config = ActiveSweepConfig::quick();
        let report = active_sweep(&config);
        assert_eq!(
            report.rows.len(),
            config.payloads.len() * config.client_levels.len() * config.shard_levels.len()
        );
        for row in &report.rows {
            assert!(row.mpix_per_s > 0.0);
            assert!(row.p99_ms >= row.p50_ms);
        }
        // Shard counts actually varied across the grid.
        assert!(report.rows.iter().any(|r| r.shards == 1));
        assert!(report.rows.iter().any(|r| r.shards == 2));
    }

    #[test]
    fn combined_bench_json_nests_the_sweeps() {
        let report = serve_loadgen(&ServeConfig::quick());
        let active = ActiveSweepReport {
            config: ActiveSweepConfig::quick(),
            rows: vec![ActiveSweepRow {
                width: 16,
                height: 16,
                frames: 4,
                clients: 2,
                shards: 2,
                mpix_per_s: 10.0,
                p50_ms: 1.0,
                p99_ms: 2.0,
                busy_retries: 0,
            }],
        };
        let sweep = ConnSweepReport {
            config: ConnSweepConfig::quick(),
            rows: vec![ConnSweepRow {
                open_target: 64,
                open_held: 64,
                p50_ms: 1.0,
                p99_ms: 2.0,
                busy_retries: 0,
                rejected_connections: 0,
            }],
            daemon: "in-process",
        };
        let json = bench_json(&report, &active, &sweep);
        assert!(json.contains("\"active_throughput_sweep\": ["));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"open_connection_sweep\": ["));
        assert!(json.contains("\"open_target\": 64"));
        assert!(json.ends_with("}\n"));
        let count = |c| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }
}
