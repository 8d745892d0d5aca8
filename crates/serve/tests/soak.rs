//! High-connection soak tests for the event-loop daemon (feature `soak`).
//!
//! A real `preflightd` subprocess holds a herd of idle connections (10 000
//! by default — scale with `PREFLIGHT_SOAK_CONNS`) while active clients
//! submit frames whose replies must stay bit-identical to a direct
//! [`Preprocessor`] run. The subprocess split matters: each side of a
//! socket pair charges a different process's fd budget, which is what
//! makes 10k connections fit under common `ulimit -n` hard caps.
//!
//! Run with:
//!
//! ```text
//! cargo test -p preflight-serve --features soak --release -- --test-threads 1
//! ```

#![cfg(all(unix, feature = "soak"))]

use preflight_core::{AlgoNgst, ImageStack, Preprocessor, Sensitivity, Upsilon};
use preflight_serve::poll::raise_nofile_limit;
use preflight_serve::server::ServerConfig;
use preflight_serve::wire::FramePayload;
use preflight_serve::{Client, ClientBuilder, ClientError, SubmitOptions};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Idle connections to hold: `PREFLIGHT_SOAK_CONNS` or the full 10k.
fn soak_conns() -> usize {
    std::env::var("PREFLIGHT_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// A `preflightd` subprocess that is SIGKILLed on drop, so a failed
/// assertion never leaks a daemon holding thousands of sockets.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_preflightd"));
        cmd.args(["--tcp", "127.0.0.1:0"]);
        cmd.args(extra_args);
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn preflightd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("preflightd exited before announcing its address")
                .expect("read preflightd stdout");
            if let Some(rest) = line.split("tcp://").nth(1) {
                break rest.trim().parse().expect("announced address parses");
            }
        };
        // Keep draining the pipe so the child never blocks on stdout.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        ClientBuilder::new()
            .tcp(self.addr)
            .io_timeout(Duration::from_secs(120))
            .connect()
            .expect("client connect")
    }

    /// Drains over the wire and reaps the child.
    fn stop(mut self) {
        if let Ok(mut client) = ClientBuilder::new()
            .tcp(self.addr)
            .io_timeout(Duration::from_secs(60))
            .connect()
        {
            let _ = client.drain();
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => break, // Drop SIGKILLs.
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state
}

fn noisy_stack(width: usize, height: usize, frames: usize, seed: u64) -> ImageStack<u16> {
    let mut state = seed;
    let data: Vec<u16> = (0..width * height * frames)
        .map(|i| {
            let base = 2000 + ((i % (width * height)) as u16 % 700);
            let r = lcg(&mut state);
            if r.is_multiple_of(97) {
                base | (1 << (8 + (r % 7) as u16))
            } else {
                base + (r % 9) as u16
            }
        })
        .collect();
    ImageStack::from_vec(width, height, frames, data).expect("stack dims")
}

fn direct_oracle(stack: &ImageStack<u16>) -> ImageStack<u16> {
    let algo = AlgoNgst::new(
        Upsilon::new(4).expect("valid upsilon"),
        Sensitivity::new(80).expect("valid lambda"),
    );
    let mut direct = stack.clone();
    Preprocessor::new(&algo).threads(2).run(&mut direct);
    direct
}

/// Opens `count` idle connections, failing loudly if any are refused.
fn open_idle_herd(addr: SocketAddr, count: usize) -> Vec<TcpStream> {
    let mut herd = Vec::with_capacity(count);
    for i in 0..count {
        match TcpStream::connect(addr) {
            Ok(stream) => herd.push(stream),
            Err(e) => panic!("idle connection {i}/{count} refused: {e}"),
        }
    }
    herd
}

/// Polls the `serve_open_connections` gauge for up to 30 s until it
/// reads at least `n`, returning the last reading. `connect` returns once
/// the kernel queues a connection, not once a shard accepts it, so the
/// gauge can trail a herd that `open_idle_herd` has just opened.
fn wait_for_open(probe: &mut Client, n: usize) -> i64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = probe
            .stats()
            .expect("stats over the wire")
            .gauge("serve_open_connections", None)
            .expect("open-connection gauge is exported");
        if open >= n as i64 || Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn idle_herd_plus_active_traffic_stays_bit_identical() {
    let _ = raise_nofile_limit();
    let conns = soak_conns();
    // Four shards: the herd spreads across every reuseport listener, so
    // the bit-identity and open-connection accounting checks below cover
    // the multi-shard data plane, not just a single loop.
    let daemon = Daemon::spawn(&["--shards", "4"]);

    let herd = open_idle_herd(daemon.addr, conns);
    assert_eq!(herd.len(), conns, "every idle connection must be held");

    // The daemon must agree it is carrying the whole herd.
    let open = wait_for_open(&mut daemon.client(), conns);
    assert!(
        open >= conns as i64,
        "daemon reports {open} open connections, expected at least {conns}"
    );

    // Active traffic through the same loop: replies must match the direct
    // library path bit for bit, herd or no herd.
    let mut workers = Vec::new();
    for c in 0..4u64 {
        let addr = daemon.addr;
        workers.push(std::thread::spawn(move || {
            let mut client = ClientBuilder::new()
                .tcp(addr)
                .io_timeout(Duration::from_secs(120))
                .connect()
                .expect("active client connect");
            for r in 0..4u64 {
                let stack = noisy_stack(32, 32, 8, 0x50AC ^ (c << 32) ^ r);
                let direct = direct_oracle(&stack);
                let opts = SubmitOptions {
                    stream_id: c + 1,
                    lambda: 80,
                    upsilon: 4,
                    eos: true,
                };
                let response = loop {
                    match client.submit(FramePayload::U16(stack.clone()), &opts) {
                        Ok(response) => break response,
                        Err(ClientError::Busy(_)) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("active client {c} request {r} failed: {e}"),
                    }
                };
                let FramePayload::U16(served) = response.payload else {
                    panic!("response changed pixel type");
                };
                assert_eq!(
                    served.as_slice(),
                    direct.as_slice(),
                    "served repair must stay bit-identical under a {} conn herd",
                    soak_conns()
                );
            }
        }));
    }
    for w in workers {
        w.join().expect("active client thread");
    }

    drop(herd);
    daemon.stop();
}

#[test]
fn over_cap_connection_gets_busy_not_a_silent_close() {
    // The shipping default is 10k-scale; the sweep below exercises the
    // same admission path at whatever scale the environment allows.
    assert_eq!(
        ServerConfig::default().max_connections,
        10_240,
        "the default connection cap is 10k-scale"
    );

    let _ = raise_nofile_limit();
    let cap = soak_conns();
    let daemon = Daemon::spawn(&["--max-conns", &cap.to_string()]);

    // Each reuseport shard accepts from its own queue. So hold `cap − 1`
    // idle sockets plus one stats client, and wait until the daemon
    // reports all `cap` open before probing: only then is the next
    // connection the over-cap one.
    let herd = open_idle_herd(daemon.addr, cap - 1);
    assert_eq!(herd.len(), cap - 1);
    let mut probe = daemon.client();
    let open = wait_for_open(&mut probe, cap);
    assert_eq!(
        open, cap as i64,
        "daemon reports {open} open connections, never the cap {cap}"
    );

    // One more: the daemon must answer Busy carrying the cap, then close —
    // never close silently.
    let mut over = ClientBuilder::new()
        .tcp(daemon.addr)
        .io_timeout(Duration::from_secs(30))
        .connect()
        .expect("tcp connect itself succeeds");
    match over.recv_response() {
        Err(ClientError::Busy(busy)) => {
            assert_eq!(busy.capacity as usize, cap, "Busy must carry the cap")
        }
        other => panic!("expected Busy on the over-cap connection, got {other:?}"),
    }

    // Release the herd and confirm the daemon counted the rejection.
    drop(herd);
    drop(probe);
    let deadline = Instant::now() + Duration::from_secs(30);
    let rejected = loop {
        if let Ok(mut client) = ClientBuilder::new()
            .tcp(daemon.addr)
            .io_timeout(Duration::from_secs(30))
            .connect()
        {
            if let Ok(snap) = client.stats() {
                break snap
                    .counter("serve_connections_rejected_total", None)
                    .unwrap_or(0);
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never freed a slot after the herd disconnected"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(rejected, 1, "exactly one over-cap rejection");
    daemon.stop();
}

#[test]
fn slow_loris_partial_envelope_is_cut_by_the_stall_deadline() {
    let daemon = Daemon::spawn(&[]);

    // A well-behaved idle connection lives forever; one that starts an
    // envelope and stalls must be cut by the 30 s no-progress deadline.
    let mut loris = TcpStream::connect(daemon.addr).expect("connect");
    std::io::Write::write_all(&mut loris, b"PF").expect("send a partial header");
    loris
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("read timeout");

    let started = Instant::now();
    let mut buf = [0u8; 64];
    let closed_after = loop {
        match loris.read(&mut buf) {
            Ok(0) => break started.elapsed(), // EOF: the daemon hung up.
            Ok(_) => {}                       // Tolerate a stray error reply.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                assert!(
                    started.elapsed() < Duration::from_secs(90),
                    "slow-loris connection never cut"
                );
            }
            Err(_) => break started.elapsed(), // Reset also counts as cut.
        }
    };
    assert!(
        closed_after >= Duration::from_secs(25),
        "the deadline must not cut engaged connections early (cut at {closed_after:?})"
    );
    assert!(
        closed_after < Duration::from_secs(60),
        "the stall deadline must fire near 30 s (cut at {closed_after:?})"
    );
    daemon.stop();
}
