//! `preflightd` — the batch-serving preprocessing daemon.
//!
//! ```text
//! preflightd [--tcp ADDR] [--unix PATH] [--metrics-addr ADDR] [--capacity N]
//!            [--max-conns N] [--batch-frames N] [--batch-delay-ms N]
//!            [--threads N] [--workers N] [--shards N]
//!            [--kernel scalar|bitsliced] [--auto-tune]
//! ```
//!
//! At least one of `--tcp`/`--unix` is required. The daemon serves until a
//! wire-level `Drain` arrives or SIGTERM/SIGINT is delivered, then flushes
//! in-flight batches and exits 0.

use preflight_serve::server::ServerConfig;
use preflight_serve::signal;
use preflight_serve::ServerBuilder;
use std::time::Duration;

fn print_usage() {
    eprintln!("usage: preflightd [--tcp ADDR] [--unix PATH] [options]");
    eprintln!();
    eprintln!("  --tcp ADDR           TCP listen address, e.g. 127.0.0.1:7733");
    eprintln!("  --unix PATH          Unix socket path, e.g. /tmp/preflightd.sock");
    eprintln!("  --metrics-addr ADDR  Prometheus /metrics listener, e.g. 127.0.0.1:9090");
    eprintln!("  --capacity N         bounded-queue slots before Busy (default 64)");
    eprintln!("  --max-conns N        concurrent connections before Busy (default 10240)");
    eprintln!("  --batch-frames N     base batch depth target (default 16)");
    eprintln!("  --batch-delay-ms N   batch flush deadline in ms (default 5)");
    eprintln!("  --threads N          upper bound on engine threads per batch (default: cores);");
    eprintln!(
        "                       the process core budget grants fewer while other runs hold cores"
    );
    eprintln!("  --workers N          concurrent engine workers (default 2)");
    eprintln!("  --shards N           event-loop poll threads (default: min(4, cores))");
    eprintln!("  --kernel NAME        voter kernel: 'bitsliced' (default) or 'scalar'");
    eprintln!("  --auto-tune          calibrate per-stream \u{39b}/\u{3a5} online from rolling \u{3a6} statistics");
}

struct Args {
    config: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut config = ServerConfig::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--tcp" => config.tcp = Some(value(&mut i, "--tcp")?),
            "--unix" => config.unix = Some(value(&mut i, "--unix")?.into()),
            "--metrics-addr" => {
                config.metrics_addr = Some(value(&mut i, "--metrics-addr")?);
            }
            "--capacity" => {
                config.capacity = parse_positive(&value(&mut i, "--capacity")?, "--capacity")?;
            }
            "--max-conns" => {
                config.max_connections =
                    parse_positive(&value(&mut i, "--max-conns")?, "--max-conns")?;
            }
            "--batch-frames" => {
                config.batch.target_frames =
                    parse_positive(&value(&mut i, "--batch-frames")?, "--batch-frames")?;
            }
            "--batch-delay-ms" => {
                let ms: usize =
                    parse_positive(&value(&mut i, "--batch-delay-ms")?, "--batch-delay-ms")?;
                config.batch.max_delay = Duration::from_millis(ms as u64);
            }
            "--threads" => {
                config.engine.threads = parse_positive(&value(&mut i, "--threads")?, "--threads")?;
            }
            "--workers" => {
                config.engine_workers = parse_positive(&value(&mut i, "--workers")?, "--workers")?;
            }
            "--shards" => {
                config.shards = parse_positive(&value(&mut i, "--shards")?, "--shards")?;
            }
            "--kernel" => {
                config.engine.kernel = value(&mut i, "--kernel")?
                    .parse()
                    .map_err(|e| format!("--kernel: {e}"))?;
            }
            "--auto-tune" => config.auto_tune = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if config.tcp.is_none() && config.unix.is_none() {
        return Err("at least one of --tcp or --unix is required".to_owned());
    }
    Ok(Args { config })
}

fn parse_positive(raw: &str, flag: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got '{raw}'")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("preflightd: {msg}");
                eprintln!();
            }
            print_usage();
            std::process::exit(2);
        }
    };

    signal::install();

    let handle = match ServerBuilder::from(args.config).serve() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("preflightd: failed to start: {e}");
            std::process::exit(1);
        }
    };
    if let Some(addr) = handle.tcp_addr() {
        println!("preflightd: listening on tcp://{addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("preflightd: listening on unix://{}", path.display());
    }
    if let Some(addr) = handle.metrics_addr() {
        println!("preflightd: serving metrics on http://{addr}/metrics");
    }

    // Serve until a signal lands or a wire-level Drain completes.
    while !signal::triggered() && !handle.drain_acked() {
        std::thread::sleep(Duration::from_millis(50));
    }

    let summary = handle.drain();
    println!(
        "preflightd: drained ({} completed, {} rejected busy)",
        summary.completed, summary.rejected
    );
    let s = handle.stats();
    println!("{}", s.summary());
}
