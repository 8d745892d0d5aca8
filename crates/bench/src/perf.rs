//! Throughput benchmark for the preprocessing engine (`repro perf`).
//!
//! Times the unified [`Preprocessor`] two ways — the naive
//! per-coordinate reference loop (`naive` rows, `.naive(true)`) and the
//! in-place band driver at each thread count (`band` rows; one thread is
//! the caller alone) — over a synthetic NGST-like cube, in Mpix/s
//! (million samples preprocessed per second of wall time). Each driver is
//! timed under both voter kernels (the [`Kernel::Scalar`] oracle and the
//! bit-sliced [`Kernel::Bitsliced`]), and a multi-pass section times the
//! band driver on one thread at `passes = 3`, where the bit-plane
//! transposes pay off most. A fixed kernel-alone section times the band
//! driver's bit-sliced kernel on the serving benchmark's geometry: seeded
//! 128×128×16 `u16` NGST stacks with uncorrelated flips at Γ₀ = 10⁻³, the
//! stacks `perfbench`'s `direct` and `bulk` workloads send, so the
//! end-to-end numbers have a kernel-only row on the same input to be
//! compared against. All drivers run with observability disabled
//! (the default), so these numbers double as the zero-overhead guard for
//! the instrumentation. `repro perf` writes them to
//! `BENCH_preprocess.json`.
//!
//! Honesty rules: thread counts beyond the machine's available
//! parallelism are skipped (they would re-measure the capped pool and
//! report it as a bigger sweep), and every row records the thread count
//! that actually ran. Every timed run is also checked bit-identical
//! against its section's reference, so a perf regression hunt can never
//! silently trade away correctness. The report header records the CPU
//! feature tiers detected at run time and each bit-sliced row records the
//! SIMD dispatch tier it actually executed under, so an artifact measured
//! on one machine is never mistaken for another's.

use preflight_core::{
    available_threads, detected_tiers, dispatch_tier, AlgoNgst, BitPixel, ImageStack, Kernel,
    NgstConfig, Preprocessor, Sensitivity, Upsilon,
};
use preflight_datagen::ngst::{NgstModel, DEFAULT_START, NMS_SIGMA};
use preflight_faults::{seeded_rng, Uncorrelated};
use std::fmt::Write as _;
use std::time::Instant;

/// Workload shape and repetition depth for one perf run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfConfig {
    /// Cube width in pixels.
    pub width: usize,
    /// Cube height in pixels.
    pub height: usize,
    /// Temporal frames per coordinate.
    pub frames: usize,
    /// Timed repetitions per driver; the median time is reported, with
    /// the interquartile spread of the repetitions beside it.
    pub reps: usize,
    /// Thread counts to sweep for the `band` rows. Counts above the
    /// machine's available parallelism are skipped, not capped.
    pub threads: Vec<usize>,
    /// Voter passes for the multi-pass section (`0` disables it).
    pub multipass: usize,
    /// Timed repetitions per row of the kernel-alone section. A row takes
    /// a few milliseconds, so it needs more samples than the cube's rows
    /// for the same spread.
    pub ngst_reps: usize,
}

impl PerfConfig {
    /// The standard workload: the 64×64×128 cube of the acceptance
    /// criterion, swept over 1/2/4/8 threads, with a 3-pass section. A pass
    /// takes 3–60 ms, so one sample moves with every scheduler hiccup on a
    /// shared host; 21 repetitions give a median and quartiles instead.
    pub fn standard() -> Self {
        PerfConfig {
            width: 64,
            height: 64,
            frames: 128,
            reps: 21,
            threads: vec![1, 2, 4, 8],
            multipass: 3,
            ngst_reps: 201,
        }
    }

    /// A sub-second smoke workload for CI.
    pub fn quick() -> Self {
        PerfConfig {
            width: 16,
            height: 16,
            frames: 32,
            reps: 1,
            threads: vec![1, 2],
            multipass: 3,
            ngst_reps: 1,
        }
    }

    /// Samples preprocessed per driver pass.
    pub fn samples(&self) -> usize {
        self.width * self.height * self.frames
    }

    /// The thread counts that will actually be timed on this machine.
    pub fn effective_thread_counts(&self) -> Vec<usize> {
        let cap = available_threads();
        self.threads.iter().copied().filter(|&t| t <= cap).collect()
    }
}

/// One timed driver × kernel × pixel-width × thread-count cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// Driver name: `naive` or `band`.
    pub driver: &'static str,
    /// Voter kernel: `scalar` or `bitsliced`.
    pub kernel: &'static str,
    /// SIMD dispatch tier the row executed under: the resolved tier name
    /// (`portable`, `avx2`, `neon`) for bit-sliced rows, `-` for the
    /// scalar oracle, which has no SIMD dispatch.
    pub dispatch_tier: &'static str,
    /// Pixel width in bits (16 or 32).
    pub pixel_bits: u32,
    /// Voter passes per run (1 for the single-pass section).
    pub passes: usize,
    /// Worker threads that actually ran (1 for the sequential drivers;
    /// requested counts beyond the machine are skipped entirely).
    pub threads: usize,
    /// Median wall time for one full run, in seconds.
    pub seconds: f64,
    /// Interquartile range of the repetitions' wall times, in seconds.
    pub iqr_seconds: f64,
    /// Million samples preprocessed per second of wall time.
    pub mpix_per_s: f64,
    /// Speedup over the section's scalar reference at the same pixel
    /// width (naive/scalar for the single-pass section, one-thread
    /// band/scalar for the multi-pass section).
    pub speedup: f64,
}

/// Width, height and frames of the kernel-alone section's stack: the
/// geometry of `perfbench`'s `direct` and `bulk` workloads.
pub const NGST_GEOMETRY: (usize, usize, usize) = (128, 128, 16);

/// Per-bit flip probability Γ₀ injected into the kernel-alone section's
/// stack, as `perfbench` injects it.
pub const NGST_GAMMA0: f64 = 1e-3;

/// Thread counts the kernel-alone section times (counts beyond the
/// machine are skipped, as in the sweep).
pub const NGST_THREADS: [usize; 2] = [1, 2];

/// A complete perf run: the workload shape plus every timed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// The workload that was timed.
    pub config: PerfConfig,
    /// The machine's available parallelism when the run happened.
    pub available_threads: usize,
    /// The host's CPU model as `/proc/cpuinfo` names it (`unknown` where
    /// that file is absent).
    pub host_cpu: String,
    /// CPU feature tiers usable on this machine (always starts with
    /// `portable`), as detected at run time.
    pub cpu_features: Vec<&'static str>,
    /// The SIMD tier the bit-sliced kernel resolved to for this run.
    pub resolved_tier: &'static str,
    /// Requested thread counts that were skipped as unavailable.
    pub skipped_threads: Vec<usize>,
    /// All timed cells, grouped by pixel width then driver.
    pub rows: Vec<PerfRow>,
    /// The kernel-alone section on [`NGST_GEOMETRY`] stacks: the one-thread
    /// band/scalar reference, then the band/bitsliced rows at each of
    /// [`NGST_THREADS`] this machine has; speedups are vs the reference.
    pub ngst_rows: Vec<PerfRow>,
}

/// Synthetic calm-sky stack with sparse high-bit flips: the workload every
/// driver is timed on (deterministic in `seed`, identical across drivers).
pub fn synthetic_stack<T: BitPixel>(
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
    sample: impl Fn(u64) -> T,
) -> ImageStack<T> {
    let mut stack = ImageStack::new(width, height, frames);
    let mut state = seed | 1;
    for v in stack.as_mut_slice() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *v = sample(state);
    }
    stack
}

/// The `u16` workload sample: calm ~27k level, ~2 % large flips.
pub fn sample_u16(state: u64) -> u16 {
    let mut v = 27_000 + (state >> 60) as u16;
    if state >> 32 & 0xFF < 5 {
        v ^= 1 << (10 + (state >> 40 & 0x3) as u32);
    }
    v
}

/// The `u32` workload sample: same shape, shifted into the wider word.
pub fn sample_u32(state: u64) -> u32 {
    let mut v = 1_700_000_000 + (state >> 56) as u32;
    if state >> 32 & 0xFF < 5 {
        v ^= 1 << (20 + (state >> 40 & 0x3) as u32);
    }
    v
}

/// The algorithm every driver runs: the paper's defaults (Υ = 4, Λ = 80).
pub fn perf_algo() -> AlgoNgst {
    AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).expect("valid lambda"))
}

/// The multi-pass variant of [`perf_algo`].
pub fn perf_algo_passes(passes: usize) -> AlgoNgst {
    AlgoNgst::with_config(
        Upsilon::FOUR,
        Sensitivity::new(80).expect("valid lambda"),
        NgstConfig {
            passes,
            ..NgstConfig::default()
        },
    )
}

/// The stable label used in rows, tables and JSON for a kernel.
pub fn kernel_label(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Scalar => "scalar",
        Kernel::Bitsliced => "bitsliced",
    }
}

/// The dispatch-tier cell for a row: the resolved SIMD tier for the
/// bit-sliced kernel, `-` for the scalar oracle.
pub fn tier_label(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Bitsliced => dispatch_tier().name(),
        _ => "-",
    }
}

/// Wall-time spread of one driver over its repetitions.
struct Timing {
    median: f64,
    iqr: f64,
}

/// The `q` quantile of ascending `sorted`, interpolated between ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median and interquartile range of non-empty `values` (sorted in
/// place).
pub(crate) fn median_iqr(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    (
        quantile(values, 0.5),
        quantile(values, 0.75) - quantile(values, 0.25),
    )
}

/// Times `reps` runs of `pass`, each on a fresh clone of `input`; returns
/// their median and interquartile range plus the last run's output.
fn timed_reps<T: BitPixel>(
    reps: usize,
    input: &ImageStack<T>,
    mut pass: impl FnMut(&mut ImageStack<T>) -> usize,
) -> (Timing, ImageStack<T>, usize) {
    let mut secs = Vec::with_capacity(reps.max(1));
    let mut output = input.clone();
    let mut changed = 0;
    for _ in 0..reps.max(1) {
        let mut work = input.clone();
        let start = Instant::now();
        changed = pass(&mut work);
        secs.push(start.elapsed().as_secs_f64());
        output = work;
    }
    let (median, iqr) = median_iqr(&mut secs);
    (Timing { median, iqr }, output, changed)
}

fn run_pixel_width<T: BitPixel>(
    config: &PerfConfig,
    pixel_bits: u32,
    sample: impl Fn(u64) -> T,
    rows: &mut Vec<PerfRow>,
) {
    let algo = perf_algo();
    let input = synthetic_stack(config.width, config.height, config.frames, 0xA5A5, sample);
    let mpix = |secs: f64| config.samples() as f64 / secs / 1e6;
    let thread_counts = config.effective_thread_counts();

    // Single-pass section: every driver under both kernels, all checked
    // bit-identical against the naive/scalar reference.
    let reference = Preprocessor::new(&algo).naive(true).kernel(Kernel::Scalar);
    let (ref_time, reference_out, want) = timed_reps(config.reps, &input, |s| reference.run(s));
    let ref_secs = ref_time.median;
    rows.push(PerfRow {
        driver: "naive",
        kernel: kernel_label(Kernel::Scalar),
        dispatch_tier: tier_label(Kernel::Scalar),
        pixel_bits,
        passes: 1,
        threads: 1,
        seconds: ref_secs,
        iqr_seconds: ref_time.iqr,
        mpix_per_s: mpix(ref_secs),
        speedup: 1.0,
    });

    for kernel in [Kernel::Scalar, Kernel::Bitsliced] {
        let label = kernel_label(kernel);
        if kernel != Kernel::Scalar {
            let naive = Preprocessor::new(&algo).naive(true).kernel(kernel);
            let (time, out, got) = timed_reps(config.reps, &input, |s| naive.run(s));
            assert_eq!(
                (got, &out),
                (want, &reference_out),
                "naive/{label} diverged"
            );
            rows.push(PerfRow {
                driver: "naive",
                kernel: label,
                dispatch_tier: tier_label(kernel),
                pixel_bits,
                passes: 1,
                threads: 1,
                seconds: time.median,
                iqr_seconds: time.iqr,
                mpix_per_s: mpix(time.median),
                speedup: ref_secs / time.median,
            });
        }

        for &threads in &thread_counts {
            let band = Preprocessor::new(&algo).threads(threads).kernel(kernel);
            let (time, out, got) = timed_reps(config.reps, &input, |s| band.run(s));
            assert_eq!(
                (got, &out),
                (want, &reference_out),
                "band/{label} diverged at {threads} threads"
            );
            rows.push(PerfRow {
                driver: "band",
                kernel: label,
                dispatch_tier: tier_label(kernel),
                pixel_bits,
                passes: 1,
                threads,
                seconds: time.median,
                iqr_seconds: time.iqr,
                mpix_per_s: mpix(time.median),
                speedup: ref_secs / time.median,
            });
        }
    }

    // Multi-pass section: the band driver on one thread at `passes` voter
    // passes, its own scalar reference. This is where the bit-sliced kernel's
    // per-group transpose amortizes across repeated cutoff rebuilds.
    if config.multipass > 1 {
        let multi = perf_algo_passes(config.multipass);
        let scalar = Preprocessor::new(&multi).kernel(Kernel::Scalar);
        let (scalar_time, scalar_out, scalar_n) =
            timed_reps(config.reps, &input, |s| scalar.run(s));
        let scalar_secs = scalar_time.median;
        rows.push(PerfRow {
            driver: "band",
            kernel: kernel_label(Kernel::Scalar),
            dispatch_tier: tier_label(Kernel::Scalar),
            pixel_bits,
            passes: config.multipass,
            threads: 1,
            seconds: scalar_secs,
            iqr_seconds: scalar_time.iqr,
            mpix_per_s: mpix(scalar_secs),
            speedup: 1.0,
        });

        let kernel = Kernel::Bitsliced;
        let label = kernel_label(kernel);
        let timed = Preprocessor::new(&multi).kernel(kernel);
        let (time, out, got) = timed_reps(config.reps, &input, |s| timed.run(s));
        assert_eq!(
            (got, &out),
            (scalar_n, &scalar_out),
            "multi-pass {label} diverged"
        );
        rows.push(PerfRow {
            driver: "band",
            kernel: label,
            dispatch_tier: tier_label(kernel),
            pixel_bits,
            passes: config.multipass,
            threads: 1,
            seconds: time.median,
            iqr_seconds: time.iqr,
            mpix_per_s: mpix(time.median),
            speedup: scalar_secs / time.median,
        });
    }
}

/// The kernel-alone section's stack: one seeded NGST random-walk stack of
/// [`NGST_GEOMETRY`] (§6 model, NMS-like σ) with uncorrelated flips at
/// [`NGST_GAMMA0`].
fn ngst_stack(seed: u64) -> ImageStack<u16> {
    let (width, height, frames) = NGST_GEOMETRY;
    let mut rng = seeded_rng(seed);
    let mut stack = NgstModel::new(frames, DEFAULT_START, NMS_SIGMA).stack(width, height, &mut rng);
    Uncorrelated::new(NGST_GAMMA0)
        .expect("NGST_GAMMA0 is a valid probability")
        .inject_stack(&mut stack, &mut rng);
    stack
}

/// Times the kernel-alone section: the band driver on [`ngst_stack`] under
/// the scalar oracle (one thread, the reference) and the bit-sliced kernel
/// at each of [`NGST_THREADS`], every output checked against the oracle's.
fn run_ngst_section(config: &PerfConfig) -> Vec<PerfRow> {
    let algo = perf_algo();
    let input = ngst_stack(1);
    let reps = config.ngst_reps;
    let mpix = |secs: f64| input.len() as f64 / secs / 1e6;
    let row = |kernel, threads, time: &Timing, speedup| PerfRow {
        driver: "band",
        kernel: kernel_label(kernel),
        dispatch_tier: tier_label(kernel),
        pixel_bits: 16,
        passes: 1,
        threads,
        seconds: time.median,
        iqr_seconds: time.iqr,
        mpix_per_s: mpix(time.median),
        speedup,
    };
    let scalar = Preprocessor::new(&algo).kernel(Kernel::Scalar);
    let (ref_time, want_out, want) = timed_reps(reps, &input, |s| scalar.run(s));
    let mut rows = vec![row(Kernel::Scalar, 1, &ref_time, 1.0)];
    for threads in NGST_THREADS {
        if threads > available_threads() {
            continue;
        }
        let band = Preprocessor::new(&algo)
            .threads(threads)
            .kernel(Kernel::Bitsliced);
        let (time, out, got) = timed_reps(reps, &input, |s| band.run(s));
        assert_eq!(
            (got, &out),
            (want, &want_out),
            "NGST band/bitsliced diverged at {threads} threads"
        );
        rows.push(row(
            Kernel::Bitsliced,
            threads,
            &time,
            ref_time.median / time.median,
        ));
    }
    rows
}

/// Runs the full sweep: every driver × kernel, `u16` and `u32` pixels.
pub fn preprocess_perf(config: &PerfConfig) -> PerfReport {
    let cap = available_threads();
    let skipped_threads: Vec<usize> = config
        .threads
        .iter()
        .copied()
        .filter(|&t| t > cap)
        .collect();
    let mut rows = Vec::new();
    run_pixel_width::<u16>(config, 16, sample_u16, &mut rows);
    run_pixel_width::<u32>(config, 32, sample_u32, &mut rows);
    PerfReport {
        config: config.clone(),
        available_threads: cap,
        host_cpu: host_cpu(),
        cpu_features: detected_tiers().into_iter().map(|t| t.name()).collect(),
        resolved_tier: dispatch_tier().name(),
        skipped_threads,
        rows,
        ngst_rows: run_ngst_section(config),
    }
}

impl PerfReport {
    /// Aligned text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "preprocess throughput, {}x{}x{} cube ({} samples/pass), \
             median of {} rep(s), {} hardware thread(s)",
            self.config.width,
            self.config.height,
            self.config.frames,
            self.config.samples(),
            self.config.reps,
            self.available_threads
        );
        let _ = writeln!(
            out,
            "host cpu: {}, cpu features: [{}], bit-sliced dispatch tier: {}",
            self.host_cpu,
            self.cpu_features.join(", "),
            self.resolved_tier
        );
        if !self.skipped_threads.is_empty() {
            let _ = writeln!(
                out,
                "skipped thread count(s) beyond this machine: {:?}",
                self.skipped_threads
            );
        }
        table_rows(&mut out, &self.rows);
        let (width, height, frames) = NGST_GEOMETRY;
        let _ = writeln!(
            out,
            "\nkernel alone, {width}x{height}x{frames} u16 NGST stack, \
             Γ₀ = {NGST_GAMMA0}, median of {} rep(s)",
            self.config.ngst_reps
        );
        table_rows(&mut out, &self.ngst_rows);
        out
    }

    /// Hand-formatted JSON document (the repo carries no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"preprocess_throughput\",");
        let _ = writeln!(
            out,
            "  \"cube\": {{\"width\": {}, \"height\": {}, \"frames\": {}}},",
            self.config.width, self.config.height, self.config.frames
        );
        let _ = writeln!(out, "  \"samples_per_pass\": {},", self.config.samples());
        let _ = writeln!(out, "  \"reps\": {},", self.config.reps);
        let _ = writeln!(out, "  \"available_threads\": {},", self.available_threads);
        let _ = writeln!(out, "  \"host_cpu\": \"{}\",", self.host_cpu);
        let features: Vec<String> = self
            .cpu_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect();
        let _ = writeln!(out, "  \"cpu_features\": [{}],", features.join(", "));
        let _ = writeln!(out, "  \"dispatch_tier\": \"{}\",", self.resolved_tier);
        let skipped: Vec<String> = self.skipped_threads.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(out, "  \"skipped_threads\": [{}],", skipped.join(", "));
        json_rows(&mut out, "rows", &self.rows);
        out.push_str(",\n");
        let (width, height, frames) = NGST_GEOMETRY;
        let _ = writeln!(
            out,
            "  \"ngst_stack\": {{\"width\": {width}, \"height\": {height}, \
             \"frames\": {frames}, \"gamma0\": {NGST_GAMMA0}, \"reps\": {}}},",
            self.config.ngst_reps
        );
        json_rows(&mut out, "ngst_rows", &self.ngst_rows);
        out.push_str("\n}\n");
        out
    }
}

/// Appends the column header and one aligned line per row.
fn table_rows(out: &mut String, rows: &[PerfRow]) {
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:<9} {:>6} {:>7} {:>8} {:>12} {:>12} {:>10} {:>8}",
        "driver",
        "kernel",
        "tier",
        "bits",
        "passes",
        "threads",
        "seconds",
        "iqr seconds",
        "Mpix/s",
        "speedup"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:<9} {:>6} {:>7} {:>8} {:>12.6} {:>12.6} {:>10.2} {:>7.2}x",
            r.driver,
            r.kernel,
            r.dispatch_tier,
            r.pixel_bits,
            r.passes,
            r.threads,
            r.seconds,
            r.iqr_seconds,
            r.mpix_per_s,
            r.speedup
        );
    }
}

/// Appends `"key": [ … ]` with one JSON object per row (no trailing comma
/// or newline after the closing bracket).
fn json_rows(out: &mut String, key: &str, rows: &[PerfRow]) {
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"driver\": \"{}\", \"kernel\": \"{}\", \"dispatch_tier\": \"{}\", \
             \"pixel_bits\": {}, \
             \"passes\": {}, \"threads\": {}, \"seconds\": {:.6}, \
             \"iqr_seconds\": {:.6}, \"mpix_per_s\": {:.3}, \"speedup\": {:.3}}}{comma}",
            r.driver,
            r.kernel,
            r.dispatch_tier,
            r.pixel_bits,
            r.passes,
            r.threads,
            r.seconds,
            r.iqr_seconds,
            r.mpix_per_s,
            r.speedup
        );
    }
    out.push_str("  ]");
}

/// The host's CPU model as `/proc/cpuinfo` names it, or `unknown` where
/// that file is absent. JSON-unsafe characters are dropped.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, name)| name.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_sane_rows() {
        let config = PerfConfig::quick();
        let report = preprocess_perf(&config);
        // Per pixel width: naive (scalar ref + bitsliced) + band × 2
        // kernels × effective thread counts + the 2 multi-pass band rows.
        let t = config.effective_thread_counts().len();
        assert_eq!(report.rows.len(), 2 * (2 + 2 * t + 2));
        assert!(report.rows.iter().all(|r| r.mpix_per_s > 0.0));
        assert!(report.rows.iter().all(|r| r.seconds > 0.0));
        assert!(report.rows.iter().all(|r| r.iqr_seconds >= 0.0));
        // Bit-sliced rows carry the tier they executed under; the scalar
        // oracle has no dispatch.
        assert_eq!(report.cpu_features.first(), Some(&"portable"));
        assert!(report.cpu_features.contains(&report.resolved_tier));
        assert!(report
            .rows
            .iter()
            .all(|r| (r.kernel == "bitsliced") == (r.dispatch_tier != "-")));
        assert!(report
            .rows
            .iter()
            .filter(|r| r.kernel == "bitsliced")
            .all(|r| r.dispatch_tier == report.resolved_tier));
        assert!(report
            .rows
            .iter()
            .all(|r| r.threads <= report.available_threads));
        assert!(report
            .rows
            .iter()
            .filter(|r| r.driver == "naive" && r.kernel == "scalar")
            .all(|r| r.speedup == 1.0));
        assert!(report.rows.iter().any(|r| r.passes == config.multipass));
        // The kernel-alone section: the scalar reference, then one
        // bit-sliced row per NGST thread count this machine has.
        let ngst_threads = NGST_THREADS
            .iter()
            .filter(|&&t| t <= report.available_threads)
            .count();
        assert_eq!(report.ngst_rows.len(), 1 + ngst_threads);
        assert_eq!(report.ngst_rows[0].kernel, "scalar");
        assert_eq!(report.ngst_rows[0].speedup, 1.0);
        assert!(report.ngst_rows[1..]
            .iter()
            .all(|r| r.kernel == "bitsliced" && r.driver == "band" && r.mpix_per_s > 0.0));
    }

    #[test]
    fn oversubscribed_thread_counts_are_skipped_not_capped() {
        let config = PerfConfig {
            threads: vec![1, available_threads() + 7],
            multipass: 0,
            ..PerfConfig::quick()
        };
        let report = preprocess_perf(&config);
        assert_eq!(report.skipped_threads, vec![available_threads() + 7]);
        assert!(report
            .rows
            .iter()
            .all(|r| r.threads <= report.available_threads));
        assert!(report.to_json().contains("\"skipped_threads\""));
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let report = preprocess_perf(&PerfConfig::quick());
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        let rows = report.rows.len() + report.ngst_rows.len();
        assert_eq!(json.matches("\"driver\"").count(), rows);
        assert_eq!(json.matches("\"iqr_seconds\"").count(), rows);
        assert!(json.contains("\"ngst_stack\": {\"width\": 128, \"height\": 128, \"frames\": 16"));
        assert!(json.contains("\"host_cpu\": \""));
        assert!(json.contains("\"benchmark\": \"preprocess_throughput\""));
        assert!(json.contains("\"kernel\": \"scalar\""));
        assert!(json.contains("\"kernel\": \"bitsliced\""));
        assert!(json.contains("\"cpu_features\": [\"portable\""));
        assert!(json.contains("\"dispatch_tier\""));
        // Balanced braces and brackets (flat document, no strings with
        // either character).
        let count = |c| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert_eq!(quantile(&sorted, 0.25), 2.0);
        assert_eq!(quantile(&sorted, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn ngst_stack_is_seeded_and_gives_the_voter_work() {
        let stack = ngst_stack(1);
        assert_eq!(
            (stack.width(), stack.height(), stack.frames()),
            NGST_GEOMETRY
        );
        assert_eq!(stack, ngst_stack(1));
        assert!(Preprocessor::new(perf_algo()).run(&mut stack.clone()) > 0);
    }

    #[test]
    fn workload_actually_exercises_the_repair_path() {
        let algo = perf_algo();
        let mut stack = synthetic_stack(16, 16, 32, 0xA5A5, sample_u16);
        assert!(
            Preprocessor::new(&algo).naive(true).run(&mut stack) > 0,
            "perf workload must contain repairable flips"
        );
    }
}
