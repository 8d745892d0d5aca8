//! Load generator for the `preflight-router` fleet front end
//! (`repro route`).
//!
//! Starts N in-process `preflightd` backends on loopback TCP, fronts them
//! with an in-process router, and fans out concurrent client connections
//! each submitting M frame stacks through the router. Reports request
//! latency (p50/p99) and throughput in Mpix/s the same way the `serve`
//! loadgen does, plus the routing counters — so the cost of the extra hop
//! (and, with `replicate` set, of the dual-write bit-identity cross-check)
//! is directly comparable against `BENCH_serve.json`. The scriptable
//! output lands in `BENCH_router.json`.

use crate::perf::{kernel_label, sample_u16, synthetic_stack, tier_label};
use preflight_router::pool::BackendAddr;
use preflight_router::server::{start as start_router, RouterConfig};
use preflight_serve::server::ServerConfig;
use preflight_serve::wire::FramePayload;
use preflight_serve::{ClientBuilder, ClientError, ServerBuilder, SubmitOptions};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Workload shape for one routed benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteConfig {
    /// Backend daemons in the fleet.
    pub backends: usize,
    /// Dual-write every submit to two replicas and cross-check.
    pub replicate: bool,
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
    /// Router routing-slot capacity (in-flight requests before `Busy`).
    pub capacity: usize,
}

impl RouteConfig {
    /// The standard load: 8 clients × 128 requests of 32×32×8 frames
    /// through a 3-backend fleet — enough streams to exercise every shard
    /// and the consistent-hash spread, and 1024 latency samples, so the
    /// p99 has about ten samples beyond it.
    pub fn standard() -> Self {
        RouteConfig {
            backends: 3,
            replicate: false,
            clients: 8,
            requests_per_client: 128,
            width: 32,
            height: 32,
            frames: 8,
            capacity: 32,
        }
    }

    /// A sub-second smoke workload for CI, replicated so the cross-check
    /// path is always covered.
    pub fn quick() -> Self {
        RouteConfig {
            backends: 2,
            replicate: true,
            clients: 2,
            requests_per_client: 4,
            width: 16,
            height: 16,
            frames: 4,
            capacity: 16,
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

/// Results of one routed benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    /// The workload that ran.
    pub config: RouteConfig,
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
    /// Submissions the router accepted for routing.
    pub routed: u64,
    /// Forwards re-routed to another backend after a fault.
    pub failovers: u64,
    /// Submissions dual-written to two replicas.
    pub replicated: u64,
    /// Replica replies that failed the bit-identity cross-check.
    pub divergences: u64,
    /// Voter kernel the backend engines ran (`scalar` or `bitsliced`),
    /// matching the `BENCH_preprocess.json` row schema.
    pub kernel: &'static str,
    /// Resolved SIMD dispatch tier for bit-sliced engines, `-` otherwise.
    pub dispatch_tier: &'static str,
    /// Every dispatch tier this host supports, least preferred first; a
    /// bit-sliced row's `dispatch_tier` is the last of them.
    pub detected_tiers: Vec<&'static str>,
    /// Hardware threads this process may use, so rows taken on a small
    /// host are read as such.
    pub available_threads: usize,
}

/// The nearest-rank `q` quantile of ascending `sorted_ms`, 0 when empty.
pub(crate) fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// Runs the load generator against a fresh in-process fleet: N backend
/// daemons behind one router, all on loopback TCP.
///
/// # Panics
/// Panics if the fleet cannot start or a client loses its connection —
/// both are harness failures, not measurements.
pub fn route_loadgen(config: &RouteConfig) -> RouteReport {
    let engine_kernel = ServerConfig::default().engine.kernel;
    let backends: Vec<_> = (0..config.backends)
        .map(|_| {
            ServerBuilder::from(ServerConfig {
                tcp: Some("127.0.0.1:0".to_owned()),
                ..ServerConfig::default()
            })
            .serve()
            .expect("backend start")
        })
        .collect();
    let router = start_router(RouterConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        backends: backends
            .iter()
            .map(|b| BackendAddr::Tcp(b.tcp_addr().expect("backend bound").to_string()))
            .collect(),
        replicate: config.replicate,
        capacity: config.capacity,
        ..RouterConfig::default()
    })
    .expect("router start");
    let addr = router.tcp_addr().expect("router bound");

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
                let seed = 0x707E ^ ((c as u64) << 32) ^ r as u64;
                let stack =
                    synthetic_stack(config.width, config.height, config.frames, seed, sample_u16);
                let opts = SubmitOptions {
                    stream_id: c as u64 + 1,
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
                                "fleet must answer with the submitted depth"
                            );
                            assert!(
                                response.stats.served_by > 0,
                                "router must stamp the serving backend"
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

    let stats = router.stats();
    let (routed, failovers, replicated, divergences) = (
        stats.routed.get(),
        stats.failovers.get(),
        stats.replicated.get(),
        stats.divergences.get(),
    );
    router.drain();
    for b in backends {
        b.drain();
    }

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean_ms = latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64;
    let total_samples = (config.total_requests() * config.samples_per_request()) as f64;
    RouteReport {
        config: config.clone(),
        wall_secs,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        mean_ms,
        mpix_per_s: total_samples / wall_secs / 1e6,
        busy_retries,
        routed,
        failovers,
        replicated,
        divergences,
        kernel: kernel_label(engine_kernel),
        dispatch_tier: tier_label(engine_kernel),
        detected_tiers: preflight_core::detected_tiers()
            .iter()
            .map(|t| t.name())
            .collect(),
        available_threads: preflight_core::available_threads(),
    }
}

impl RouteReport {
    /// Aligned text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "routed throughput, {} client(s) x {} request(s) of {}x{}x{} frames \
             through {} backend(s){}, routing capacity {}",
            self.config.clients,
            self.config.requests_per_client,
            self.config.width,
            self.config.height,
            self.config.frames,
            self.config.backends,
            if self.config.replicate {
                " (replicated)"
            } else {
                ""
            },
            self.config.capacity
        );
        let _ = writeln!(
            out,
            "{:>10} {:>9} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>9} {:>10} {:>11}",
            "kernel",
            "tier",
            "wall_s",
            "p50_ms",
            "p99_ms",
            "mean_ms",
            "Mpix/s",
            "busy",
            "failovers",
            "replicated",
            "divergences"
        );
        let _ = writeln!(
            out,
            "{:>10} {:>9} {:>12.4} {:>10.3} {:>10.3} {:>10.3} {:>10.2} {:>8} {:>9} {:>10} {:>11}",
            self.kernel,
            self.dispatch_tier,
            self.wall_secs,
            self.p50_ms,
            self.p99_ms,
            self.mean_ms,
            self.mpix_per_s,
            self.busy_retries,
            self.failovers,
            self.replicated,
            self.divergences
        );
        out
    }

    /// Hand-formatted JSON document (the repo carries no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"router_throughput\",");
        let _ = writeln!(
            out,
            "  \"workload\": {{\"backends\": {}, \"replicate\": {}, \"clients\": {}, \
             \"requests_per_client\": {}, \"width\": {}, \"height\": {}, \"frames\": {}, \
             \"capacity\": {}}},",
            self.config.backends,
            self.config.replicate,
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
        let _ = writeln!(out, "  \"routed\": {},", self.routed);
        let _ = writeln!(out, "  \"failovers\": {},", self.failovers);
        let _ = writeln!(out, "  \"replicated\": {},", self.replicated);
        let _ = writeln!(out, "  \"divergences\": {},", self.divergences);
        let _ = writeln!(out, "  \"kernel\": \"{}\",", self.kernel);
        let _ = writeln!(out, "  \"dispatch_tier\": \"{}\",", self.dispatch_tier);
        let tiers: Vec<String> = self
            .detected_tiers
            .iter()
            .map(|t| format!("\"{t}\""))
            .collect();
        let _ = writeln!(out, "  \"detected_tiers\": [{}],", tiers.join(", "));
        let _ = writeln!(out, "  \"available_threads\": {}", self.available_threads);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_loadgen_completes_and_reports_sane_numbers() {
        let report = route_loadgen(&RouteConfig::quick());
        assert!(report.wall_secs > 0.0);
        assert!(report.mpix_per_s > 0.0);
        assert!(report.p50_ms > 0.0);
        assert!(report.p99_ms >= report.p50_ms);
        assert_eq!(report.routed, RouteConfig::quick().total_requests() as u64);
        // The quick workload is replicated: every submit is dual-written,
        // and a healthy fleet must never diverge.
        assert!(report.replicated >= 1);
        assert_eq!(report.divergences, 0, "healthy fleet must not diverge");
        assert_eq!(report.failovers, 0, "healthy fleet must not fail over");
    }

    #[test]
    fn standard_run_carries_a_p99() {
        assert!(
            RouteConfig::standard().total_requests() >= 1000,
            "a p99 needs about ten samples beyond it"
        );
    }

    #[test]
    fn serial_fleet_spreads_without_replicating() {
        let config = RouteConfig {
            replicate: false,
            ..RouteConfig::quick()
        };
        let report = route_loadgen(&config);
        assert_eq!(report.routed, config.total_requests() as u64);
        assert_eq!(report.replicated, 0, "serial mode must not dual-write");
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = route_loadgen(&RouteConfig::quick());
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"benchmark\": \"router_throughput\""));
        // Kernel provenance matches the BENCH_preprocess.json row schema.
        assert!(json.contains("\"kernel\": \"bitsliced\""));
        assert!(json.contains(&format!(
            "\"dispatch_tier\": \"{}\"",
            preflight_core::dispatch_tier().name()
        )));
        assert!(json.contains("\"detected_tiers\": [\"portable\""));
        assert!(json.contains(&format!(
            "\"available_threads\": {}",
            preflight_core::available_threads()
        )));
        let count = |c| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
    }
}
