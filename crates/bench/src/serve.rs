//! `repro serve`: the committed serving benchmark, `BENCH_serve.json`.
//!
//! The measured traffic is the benchmark's own. For each workload of
//! `BENCHMARK.json` and each seed, [`serve_bench`] runs
//! `python3 perfbench/run.py` plainly (the end-to-end metrics) and then
//! traced (the per-layer metrics), and folds the seeds into one row of
//! medians and interquartile ranges. A run that exits non-zero,
//! is not `correct` or reports a failed operation is an error, never a
//! row. The document also carries the open-connection sweep
//! ([`conn_sweep`]), an axis `perfbench` does not measure.

use crate::perf::{median_iqr, sample_u16, synthetic_stack};
use crate::router::percentile;
use preflight_serve::wire::FramePayload;
use preflight_serve::{ClientBuilder, ClientError, ServerBuilder, SubmitOptions};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The workloads of `BENCHMARK.json`, in its order.
const WORKLOADS: [&str; 3] = ["direct", "bulk", "readout"];

/// Length of each measured window, s: `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 20.0;

/// Seeds per workload; each seed runs once plain and once traced.
pub const SEEDS: u64 = 5;

/// One metric as a `perfbench` run printed it.
#[derive(Debug)]
struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    name: String,
    /// Measured value.
    value: f64,
    /// Unit `perfbench` gave it.
    unit: String,
}

/// One `perfbench` invocation that passed: correct, nothing failed.
#[derive(Debug)]
struct Run {
    /// Seed its inputs came from.
    seed: u64,
    /// Whether it was a traced (per-layer) run.
    trace: bool,
    /// Its `provenance` JSON object, verbatim.
    provenance: String,
    /// Its `correct` verdict.
    correct: bool,
    /// Operations it started in the reported window.
    attempted: u64,
    /// Operations among them that failed.
    failed: u64,
    /// Its metrics, in the order printed.
    metrics: Vec<Metric>,
}

/// A cursor over `perfbench`'s result line.
struct Scan<'a>(&'a str);

impl<'a> Scan<'a> {
    fn lit(&mut self, lit: &str) -> Result<(), String> {
        self.0 = self
            .0
            .strip_prefix(lit)
            .ok_or_else(|| format!("expected {lit:?} at {:?}", self.0))?;
        Ok(())
    }

    /// A bare value, up to the next `,` or `}`.
    fn token(&mut self) -> &'a str {
        let (token, rest) = self
            .0
            .split_at(self.0.find([',', '}']).unwrap_or(self.0.len()));
        self.0 = rest;
        token
    }

    fn number<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let token = self.token();
        token.parse().map_err(|_| format!("bad number {token:?}"))
    }

    /// A quoted string; `perfbench` prints none with escapes.
    fn string(&mut self) -> Result<&'a str, String> {
        self.lit("\"")?;
        let (s, rest) = self.0.split_once('"').ok_or("unterminated string")?;
        self.0 = rest;
        Ok(s)
    }
}

/// Parses the standard output of one `perfbench` run: its
/// `provenance {…}` line and its last line, whose format
/// `Report::to_json` in `perfbench/src/lib.rs` fixes.
///
/// # Errors
/// A missing provenance line, a malformed or non-finite result, a
/// `"correct": false` or a failed operation.
fn parse_run(stdout: &str, seed: u64, trace: bool) -> Result<Run, String> {
    let provenance = stdout
        .lines()
        .find_map(|l| l.strip_prefix("provenance "))
        .filter(|p| p.starts_with('{') && p.ends_with('}'))
        .ok_or("no `provenance {…}` line")?
        .to_owned();
    let mut s = Scan(stdout.lines().last().unwrap_or_default().trim());
    s.lit("{\"correct\": ")?;
    let correct = match s.token() {
        "true" => true,
        "false" => false,
        other => return Err(format!("bad `correct` value {other:?}")),
    };
    s.lit(", \"attempted\": ")?;
    let attempted = s.number()?;
    s.lit(", \"failed\": ")?;
    let failed = s.number()?;
    s.lit(", \"metrics\": {")?;
    let mut metrics = Vec::new();
    while !s.0.starts_with('}') {
        if !metrics.is_empty() {
            s.lit(", ")?;
        }
        let name = s.string()?.to_owned();
        s.lit(": {\"value\": ")?;
        let value: f64 = s.number()?;
        s.lit(", \"unit\": ")?;
        let unit = s.string()?.to_owned();
        s.lit("}")?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(Metric { name, value, unit });
    }
    s.lit("}}")?;
    if !s.0.is_empty() {
        return Err(format!("trailing {:?} after the result", s.0));
    }
    if !correct || failed > 0 {
        return Err(format!(
            "not correct: {failed} of {attempted} operation(s) failed"
        ));
    }
    Ok(Run {
        seed,
        trace,
        provenance,
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Runs `python3 perfbench/run.py` once from the current directory (the
/// repository root) and parses what it printed. Build output and
/// `perfbench`'s own errors pass through on standard error.
///
/// # Errors
/// The run could not start, exited non-zero or failed [`parse_run`].
fn run_perfbench(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let args = [
        "--workload".to_owned(),
        workload.to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--seconds".to_owned(),
        seconds.to_string(),
        "--trace".to_owned(),
        u8::from(trace).to_string(),
    ];
    let what = format!("perfbench {}", args.join(" "));
    eprintln!("running {what}");
    let out = Command::new("python3")
        .arg("perfbench/run.py")
        .args(&args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start python3 perfbench/run.py: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what}: exited with {}", out.status));
    }
    parse_run(&String::from_utf8_lossy(&out.stdout), seed, trace)
        .map_err(|e| format!("{what}: {e}"))
}

/// One metric of a workload over its seeds.
#[derive(Debug)]
struct Stat {
    /// Metric name, as in `BENCHMARK.json`.
    name: String,
    /// Unit `perfbench` gave it.
    unit: String,
    /// Whether the traced runs reported it.
    trace: bool,
    /// Median over the seeds.
    median: f64,
    /// Interquartile range over the seeds.
    iqr: f64,
}

/// One workload's row of `BENCH_serve.json`.
#[derive(Debug)]
pub struct WorkloadRow {
    /// Workload name.
    workload: String,
    /// Every run, plain and traced, in the order they ran.
    runs: Vec<Run>,
    /// Every metric the runs emitted, plain ones first.
    stats: Vec<Stat>,
}

/// Folds one workload's runs into its row: each metric's median and IQR
/// over the seeds, separately for the plain and the traced runs.
///
/// # Errors
/// A mode with no run, or a metric that not every run of its mode
/// emitted (with the same unit): a median over fewer seeds than the row
/// claims would hide the gap.
fn aggregate(workload: &str, runs: Vec<Run>) -> Result<WorkloadRow, String> {
    let mut stats: Vec<Stat> = Vec::new();
    for trace in [false, true] {
        let mode = format!("{workload} --trace {}", u8::from(trace));
        let group: Vec<&Run> = runs.iter().filter(|r| r.trace == trace).collect();
        let first = group.first().ok_or_else(|| format!("{mode}: no run"))?;
        if let Some(odd) = group
            .iter()
            .find(|r| r.metrics.len() != first.metrics.len())
        {
            return Err(format!(
                "{mode}: seeds {} and {} differ",
                first.seed, odd.seed
            ));
        }
        for m in &first.metrics {
            if stats.iter().any(|s| s.name == m.name) {
                return Err(format!("{mode}: metric {} reported twice", m.name));
            }
            let mut values = group
                .iter()
                .map(|run| {
                    run.metrics
                        .iter()
                        .find(|x| x.name == m.name && x.unit == m.unit)
                        .map(|x| x.value)
                        .ok_or_else(|| format!("{mode}: seed {} lacks {}", run.seed, m.name))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let (median, iqr) = median_iqr(&mut values);
            stats.push(Stat {
                name: m.name.clone(),
                unit: m.unit.clone(),
                trace,
                median,
                iqr,
            });
        }
    }
    Ok(WorkloadRow {
        workload: workload.to_owned(),
        runs,
        stats,
    })
}

/// Runs every workload for seeds `1..=seeds`, each seed plain then
/// traced, and folds each workload into its row.
///
/// # Errors
/// The first run or row that fails; nothing after it runs.
pub fn serve_bench(seeds: u64, seconds: f64) -> Result<Vec<WorkloadRow>, String> {
    WORKLOADS
        .iter()
        .map(|&workload| {
            let mut runs = Vec::new();
            for seed in 1..=seeds {
                for trace in [false, true] {
                    runs.push(run_perfbench(workload, seed, seconds, trace)?);
                }
            }
            aggregate(workload, runs)
        })
        .collect()
}

/// Aligned text table of the rows: one line per workload and metric.
pub fn rows_table(rows: &[WorkloadRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>28} {:>14} {:>14} {:>10}",
        "workload", "metric", "median", "iqr", "unit"
    );
    for row in rows {
        for s in &row.stats {
            let _ = writeln!(
                out,
                "{:>8} {:>28} {:>14.4} {:>14.4} {:>10}",
                row.workload, s.name, s.median, s.iqr, s.unit
            );
        }
    }
    out
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
    /// The full sweep: 256 → 10 000 idle connections under a light active
    /// load of 32×32×8 stacks, 1024 per level so each level's p99 has
    /// about ten samples beyond it.
    pub fn standard() -> Self {
        ConnSweepConfig {
            open_levels: vec![256, 1024, 4096, 10_000],
            active_clients: 4,
            requests_per_client: 256,
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
struct SweepDaemon {
    addr: std::net::SocketAddr,
    kind: DaemonKind,
}

enum DaemonKind {
    Subprocess(std::process::Child),
    InProcess(preflight_serve::server::ServerHandle),
}

impl SweepDaemon {
    fn label(&self) -> &'static str {
        match self.kind {
            DaemonKind::Subprocess(_) => "subprocess",
            DaemonKind::InProcess(_) => "in-process",
        }
    }

    /// Drains over the wire (both kinds honour it) and reaps the child,
    /// killing it if it has not exited within 30 s.
    fn stop(self) {
        let _ = ClientBuilder::new()
            .tcp(self.addr)
            .io_timeout(Duration::from_secs(30))
            .connect()
            .map(|mut client| client.drain());
        match self.kind {
            DaemonKind::Subprocess(mut child) => {
                let deadline = Instant::now() + Duration::from_secs(30);
                while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(20));
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            DaemonKind::InProcess(handle) => {
                handle.drain();
            }
        }
    }
}

/// Locates a `preflightd` binary among the siblings of the running
/// executable (`target/<profile>/` and, for unit-test binaries, one
/// directory above `deps/`).
fn find_preflightd() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("preflightd"))
        .find(|candidate| candidate.is_file())
}

fn spawn_daemon(capacity: usize) -> SweepDaemon {
    let Some(bin) = find_preflightd() else {
        let handle = ServerBuilder::new()
            .bind("127.0.0.1:0")
            .queue_depth(capacity)
            .serve()
            .expect("in-process daemon start");
        let addr = handle.tcp_addr().expect("bound address");
        return SweepDaemon {
            addr,
            kind: DaemonKind::InProcess(handle),
        };
    };
    let mut child = Command::new(&bin)
        .args(["--tcp", "127.0.0.1:0", "--capacity", &capacity.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn preflightd");
    // The daemon announces its ephemeral port on stdout before serving.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufRead::lines(std::io::BufReader::new(stdout));
    let addr = loop {
        let Some(Ok(line)) = lines.next() else {
            let _ = child.kill();
            panic!("preflightd exited before announcing its address");
        };
        if let Some(rest) = line.split("tcp://").nth(1) {
            break rest.trim().parse().expect("announced address parses");
        }
    };
    // Keep draining the pipe so the child never blocks on stdout.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    SweepDaemon {
        addr,
        kind: DaemonKind::Subprocess(child),
    }
}

/// Runs the open-connection sweep: per level, park N idle connections on
/// a fresh daemon, drive the active workload through them, and read the
/// daemon's own rejection counters over the wire.
///
/// # Panics
/// Panics if a daemon cannot start or active traffic fails — harness
/// failures, not measurements.
pub fn conn_sweep(config: &ConnSweepConfig) -> ConnSweepReport {
    let _ = preflight_serve::poll::raise_nofile_limit();

    let mut rows = Vec::with_capacity(config.open_levels.len());
    let mut daemon_label = "in-process";
    for &level in &config.open_levels {
        let daemon = spawn_daemon(config.capacity);
        daemon_label = daemon.label();
        let addr = daemon.addr;
        let idle: Vec<_> = (0..level)
            .map_while(|_| std::net::TcpStream::connect(addr).ok())
            .collect();
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
    /// The sweep as a hand-formatted JSON array (no JSON dependency), one
    /// level per line.
    pub fn json_rows(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    "    {{\"open_target\": {}, \"open_held\": {}, \"p50_ms\": {:.3}, \
                     \"p99_ms\": {:.3}, \"busy_retries\": {}, \"rejected_connections\": {}}}",
                    row.open_target,
                    row.open_held,
                    row.p50_ms,
                    row.p99_ms,
                    row.busy_retries,
                    row.rejected_connections
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// The `BENCH_serve.json` document: one row per workload, run `seconds`
/// per window, and the open-connection sweep.
pub fn bench_json(rows: &[WorkloadRow], seconds: f64, sweep: &ConnSweepReport) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let runs: Vec<String> = row
                .runs
                .iter()
                .map(|run| {
                    format!(
                        "{{\"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
                         \"failed\": {}, \"provenance\": {}}}",
                        run.seed,
                        u8::from(run.trace),
                        run.correct,
                        run.attempted,
                        run.failed,
                        run.provenance
                    )
                })
                .collect();
            let stats: Vec<String> = row
                .stats
                .iter()
                .map(|s| {
                    format!(
                        "\"{}\": {{\"median\": {}, \"iqr\": {}, \"unit\": \"{}\", \"trace\": {}}}",
                        s.name,
                        s.median,
                        s.iqr,
                        s.unit,
                        u8::from(s.trace)
                    )
                })
                .collect();
            format!(
                "    {{\"workload\": \"{}\",\n     \"runs\": [\n       {}\n     ],\n     \
                 \"metrics\": {{\n       {}\n     }}}}",
                row.workload,
                runs.join(",\n       "),
                stats.join(",\n       ")
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"command\": \"python3 perfbench/run.py\",\n  \
         \"seconds\": {seconds},\n  \"workloads\": [\n{}\n  ],\n  \
         \"open_connection_daemon\": \"{}\",\n  \"open_connection_sweep\": {}\n}}\n",
        rows.join(",\n"),
        sweep.daemon,
        sweep.json_rows()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROVENANCE: &str = "{\"workload\":\"bulk\",\"nproc\":2,\
                              \"config\":{\"available_threads\":2,\"dispatch_tier\":\"avx2\"}}";

    /// What `perfbench` prints for one run.
    fn stdout(correct: bool, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"ms\"}}"))
            .collect();
        format!(
            "provenance {PROVENANCE}\nnote latency over 10 successful operations\n\
             {{\"correct\": {correct}, \"attempted\": 10, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}\n",
            metrics.join(", ")
        )
    }

    fn run(seed: u64, trace: bool, metrics: &[(&str, f64)]) -> Run {
        parse_run(&stdout(true, 0, metrics), seed, trace).expect("canned run parses")
    }

    /// Five seeds, plain and traced: `p50_ms` takes 5, 1, 4, 2, 3 and
    /// `core.run_ms` 10 × that.
    fn five_seeds() -> Vec<Run> {
        let mut runs = Vec::new();
        for (seed, v) in (1..=5).zip([5.0, 1.0, 4.0, 2.0, 3.0]) {
            runs.push(run(seed, false, &[("p50_ms", v), ("mpix_s", 100.0)]));
            runs.push(run(seed, true, &[("core.run_ms", 10.0 * v)]));
        }
        runs
    }

    #[test]
    fn parse_run_reads_provenance_counts_and_metrics() {
        let run = run(3, true, &[("core.run_ms", 1.5), ("pool.hit_ratio", 1.0)]);
        assert_eq!((run.seed, run.trace), (3, true));
        assert_eq!(run.provenance, PROVENANCE);
        assert_eq!((run.correct, run.attempted, run.failed), (true, 10, 0));
        assert_eq!(run.metrics.len(), 2);
        assert_eq!(run.metrics[0].name, "core.run_ms");
        assert_eq!(run.metrics[0].value, 1.5);
        assert_eq!(run.metrics[1].unit, "ms");
    }

    #[test]
    fn failed_incorrect_and_unprovenanced_runs_are_errors() {
        let ok = stdout(true, 0, &[("p50_ms", 1.0)]);
        assert!(parse_run(&ok, 1, false).is_ok());
        assert!(parse_run(&stdout(false, 0, &[("p50_ms", 1.0)]), 1, false).is_err());
        assert!(parse_run(&stdout(true, 2, &[("p50_ms", 1.0)]), 1, false).is_err());
        let unprovenanced: String = ok.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(parse_run(&unprovenanced, 1, false).is_err());
        // A result line cut short, or followed by anything, is not a result.
        let cut = ok.trim_end().strip_suffix("}}").unwrap();
        assert!(parse_run(cut, 1, false).is_err());
        assert!(parse_run(&format!("{ok}note late\n"), 1, false).is_err());
        assert!(parse_run(&stdout(true, 0, &[("p50_ms", f64::NAN)]), 1, false).is_err());
    }

    #[test]
    fn aggregate_takes_median_and_iqr_over_five_seeds() {
        let row = aggregate("bulk", five_seeds()).unwrap();
        assert_eq!(row.runs.len(), 10);
        let names: Vec<&str> = row.stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["p50_ms", "mpix_s", "core.run_ms"]);
        // Sorted 1..=5: median 3, quartiles 2 and 4.
        assert_eq!((row.stats[0].median, row.stats[0].iqr), (3.0, 2.0));
        assert_eq!((row.stats[1].median, row.stats[1].iqr), (100.0, 0.0));
        assert_eq!((row.stats[2].median, row.stats[2].iqr), (30.0, 20.0));
        assert!(!row.stats[0].trace && row.stats[2].trace);
    }

    #[test]
    fn a_metric_missing_from_one_seed_is_an_error() {
        let mut runs = five_seeds();
        runs[4] = run(3, false, &[("p50_ms", 4.0)]);
        assert!(aggregate("bulk", runs).is_err(), "missing from seed 3");
        let mut runs = five_seeds();
        runs[4] = run(3, false, &[("p50_ms", 4.0), ("tail_ms", 9.0)]);
        assert!(aggregate("bulk", runs).is_err(), "renamed in seed 3");
        let mut runs = five_seeds();
        runs[0] = run(1, false, &[("p50_ms", 5.0)]);
        assert!(aggregate("bulk", runs).is_err(), "only seeds 2..=5 have it");
        let plain_only: Vec<Run> = five_seeds().into_iter().filter(|r| !r.trace).collect();
        assert!(aggregate("bulk", plain_only).is_err(), "no traced run");
    }

    #[test]
    fn workloads_and_run_length_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let (_, workloads) = text.split_once("\"workloads\": [").unwrap();
        let (workloads, _) = workloads.split_once(']').unwrap();
        let names: Vec<&str> = workloads
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        let (_, seconds) = text.split_once("\"run_seconds\": ").unwrap();
        let seconds: f64 = seconds.split(',').next().unwrap().trim().parse().unwrap();
        assert_eq!(seconds, RUN_SECONDS);
    }

    #[test]
    fn bench_json_is_balanced_and_carries_every_row_and_the_sweep() {
        let rows = vec![
            aggregate("direct", five_seeds()).unwrap(),
            aggregate("bulk", five_seeds()).unwrap(),
        ];
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
        let json = bench_json(&rows, 20.0, &sweep);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"seconds\": 20,"));
        assert!(json.contains("{\"workload\": \"direct\","));
        assert!(json.contains("{\"workload\": \"bulk\","));
        assert!(json.contains(&format!(
            "{{\"seed\": 5, \"trace\": 1, \"correct\": true, \"attempted\": 10, \
             \"failed\": 0, \"provenance\": {PROVENANCE}}}"
        )));
        assert!(json.contains("\"available_threads\":2"));
        assert!(json
            .contains("\"p50_ms\": {\"median\": 3, \"iqr\": 2, \"unit\": \"ms\", \"trace\": 0}"));
        assert!(json.contains("\"open_connection_sweep\": ["));
        assert!(json.contains("\"open_target\": 64"));
        let count = |c| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
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
    fn standard_sweep_levels_carry_a_p99() {
        let c = ConnSweepConfig::standard();
        assert!(
            c.active_clients * c.requests_per_client >= 1000,
            "a p99 needs about ten samples beyond it"
        );
    }
}
