//! `chaosd` — a fault-injecting `preflightd` for router tests and drills.
//!
//! ```text
//! chaosd (--unix PATH | --tcp ADDR) [--corrupt-permille N] [--seed N]
//! ```
//!
//! Starts a real in-process `preflightd` engine and fronts it with a
//! message-level proxy. In clean mode (`--corrupt-permille 0`, the
//! default) it is a faithful daemon — byte-identical replies — that can be
//! SIGKILLed as one process to simulate a backend crash. With a corruption
//! rate set, it flips bits in the *reply* payloads (recomputing the CRCs,
//! so the corruption is invisible to the wire layer) the way a failing
//! backend with bad memory would: each corruption lands in a fresh
//! pseudo-random position, so re-executing a request never reproduces the
//! same garbage. That asymmetry — honest replies are deterministic,
//! corrupt ones are not — is exactly what the router's divergence
//! arbitration relies on.

use preflight_serve::server::ServerConfig;
use preflight_serve::signal;
use preflight_serve::wire::{read_message, write_message, FramePayload, Message};
use preflight_serve::ServerBuilder;
use std::io::ErrorKind;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64, seeding the corruption positions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Chaos {
    /// Corruption probability per reply, in permille (0 = faithful proxy).
    corrupt_permille: u64,
    seed: u64,
    /// Monotonic reply counter: every corruption draws fresh positions, so
    /// a re-executed request is corrupted *differently*.
    counter: AtomicU64,
}

impl Chaos {
    /// Corrupts `msg` in place if the dice say so. Returns `true` if a
    /// payload was modified.
    fn maybe_corrupt(&self, msg: &mut Message) -> bool {
        if self.corrupt_permille == 0 {
            return false;
        }
        let Message::Response(response) = msg else {
            return false;
        };
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.seed ^ n.wrapping_mul(0x9E37_79B9));
        if h % 1000 >= self.corrupt_permille {
            return false;
        }
        flip_bits(&mut response.payload, splitmix64(h));
        true
    }
}

/// Flips 1–4 bits at pseudo-random positions across the payload.
fn flip_bits(payload: &mut FramePayload, mut h: u64) {
    let flips = 1 + (h % 4) as usize;
    for _ in 0..flips {
        h = splitmix64(h);
        match payload {
            FramePayload::U16(stack) => {
                let frames = stack.frames().max(1);
                let samples = (stack.width() * stack.height()).max(1);
                let frame = (h % frames as u64) as usize;
                let pixel = ((h >> 16) % samples as u64) as usize;
                let bit = (h >> 48) % 16;
                stack.frame_mut(frame)[pixel] ^= 1 << bit;
            }
            FramePayload::U32(stack) => {
                let frames = stack.frames().max(1);
                let samples = (stack.width() * stack.height()).max(1);
                let frame = (h % frames as u64) as usize;
                let pixel = ((h >> 16) % samples as u64) as usize;
                let bit = (h >> 48) % 32;
                stack.frame_mut(frame)[pixel] ^= 1 << bit;
            }
        }
    }
}

fn print_usage() {
    eprintln!("usage: chaosd (--unix PATH | --tcp ADDR) [options]");
    eprintln!();
    eprintln!("  --unix PATH            Unix socket to serve clients on");
    eprintln!("  --tcp ADDR             TCP address to serve clients on, e.g. 127.0.0.1:0");
    eprintln!("  --corrupt-permille N   corrupt each reply with probability N/1000 (default 0)");
    eprintln!("  --seed N               corruption position seed (default 1)");
}

struct Args {
    unix: Option<std::path::PathBuf>,
    tcp: Option<String>,
    chaos: Chaos,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut unix = None;
    let mut tcp = None;
    let mut corrupt_permille = 0u64;
    let mut seed = 1u64;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--unix" => unix = Some(value(&mut i, "--unix")?.into()),
            "--tcp" => tcp = Some(value(&mut i, "--tcp")?),
            "--corrupt-permille" => {
                corrupt_permille = value(&mut i, "--corrupt-permille")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n <= 1000)
                    .ok_or("--corrupt-permille needs an integer in 0..=1000")?;
            }
            "--seed" => {
                seed = value(&mut i, "--seed")?
                    .parse::<u64>()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if unix.is_none() && tcp.is_none() {
        return Err("one of --unix or --tcp is required".to_owned());
    }
    Ok(Args {
        unix,
        tcp,
        chaos: Chaos {
            corrupt_permille,
            seed,
            counter: AtomicU64::new(0),
        },
    })
}

/// Proxies one client connection at the message level: requests pass
/// through verbatim, replies pass through `Chaos`. `client_read` and
/// `client_write` are the two halves of one client socket.
fn proxy_connection<R, W>(
    mut client_read: R,
    mut client_write: W,
    inner_addr: std::net::SocketAddr,
    chaos: Arc<Chaos>,
) where
    R: std::io::Read + Send + 'static,
    W: std::io::Write,
{
    let Ok(inner) = TcpStream::connect(inner_addr) else {
        return;
    };
    let _ = inner.set_nodelay(true);
    let Ok(mut inner_write) = inner.try_clone() else {
        return;
    };

    // Client → inner daemon: verbatim. When the client hangs up, shutting
    // the inner socket down unblocks the reply pump below.
    let pump = std::thread::spawn(move || {
        while let Ok(msg) = read_message(&mut client_read) {
            if write_message(&mut inner_write, &msg).is_err() {
                break;
            }
        }
        let _ = inner_write.shutdown(Shutdown::Both);
    });

    // Inner daemon → client: through the corruptor (CRCs are recomputed on
    // re-encode, so corruption is invisible to the wire layer — exactly
    // the failure the router's bit-identity cross-check exists to catch).
    let mut inner_read = inner;
    while let Ok(mut msg) = read_message(&mut inner_read) {
        if chaos.maybe_corrupt(&mut msg) {
            eprintln!("chaosd: corrupted a reply payload");
        }
        if write_message(&mut client_write, &msg).is_err() {
            break;
        }
    }
    let _ = inner_read.shutdown(Shutdown::Both);
    let _ = pump.join();
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("chaosd: {msg}");
                eprintln!();
            }
            print_usage();
            std::process::exit(2);
        }
    };

    signal::install();

    // The real engine, on a loopback port only this process knows.
    let inner = match ServerBuilder::from(ServerConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    })
    .serve()
    {
        Ok(h) => h,
        Err(e) => {
            eprintln!("chaosd: failed to start inner daemon: {e}");
            std::process::exit(1);
        }
    };
    let inner_addr = inner.tcp_addr().expect("inner daemon bound a TCP port");

    let chaos = Arc::new(args.chaos);
    let mut outer_threads = Vec::new();

    if let Some(addr) = &args.tcp {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("chaosd: failed to bind {addr}: {e}");
                std::process::exit(1);
            }
        };
        let _ = listener.set_nonblocking(true);
        println!(
            "chaosd: listening on tcp://{}",
            listener.local_addr().expect("bound")
        );
        let chaos = Arc::clone(&chaos);
        outer_threads.push(std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    let chaos = Arc::clone(&chaos);
                    std::thread::spawn(move || {
                        proxy_connection(stream, write_half, inner_addr, chaos)
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if signal::triggered() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }));
    }

    if let Some(path) = &args.unix {
        let _ = std::fs::remove_file(path);
        let listener = match std::os::unix::net::UnixListener::bind(path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("chaosd: failed to bind {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let _ = listener.set_nonblocking(true);
        println!("chaosd: listening on unix://{}", path.display());
        let chaos = Arc::clone(&chaos);
        outer_threads.push(std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    let chaos = Arc::clone(&chaos);
                    std::thread::spawn(move || {
                        proxy_connection(stream, write_half, inner_addr, chaos)
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if signal::triggered() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }));
    }

    while !signal::triggered() {
        std::thread::sleep(Duration::from_millis(50));
    }
    for t in outer_threads {
        let _ = t.join();
    }
    let _ = inner.drain();
    if let Some(path) = &args.unix {
        let _ = std::fs::remove_file(path);
    }
}
