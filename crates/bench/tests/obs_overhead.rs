//! Zero-overhead guard for the observability layer.
//!
//! The PR 2 throughput contract (`BENCH_preprocess.json`) was measured
//! through a bare tiled loop. [`Preprocessor`] wraps that loop in spans
//! and counters, whose default handle is `Obs::disabled()` — so the
//! guard here is that a builder run with observability *off*
//! stays within 5 % of the same loop written out by hand (gather, one
//! `preprocess_batch` call, scatter per tile) on the same machine, same
//! process, same input (cross-machine wall-clock comparisons against the
//! checked-in JSON would only measure the CI host). A second, looser check keeps the
//! *enabled* path honest: attaching a live registry must not blow up the
//! hot loop, since per-tile instrumentation is one histogram observe and
//! the counters are flushed once per run.
//!
//! Both tests time wall-clock passes, so they must not run concurrently
//! with each other (the harness runs `#[test]`s on parallel threads, and
//! on a small CI box two timing loops simply deschedule each other):
//! each one holds `TIMING_GATE` for its whole body. The A/B comparison
//! additionally interleaves its repetitions so a transient background
//! load spike cannot inflate only one side's entire sample.

use preflight_bench::perf::{perf_algo, sample_u16, synthetic_stack};
use preflight_core::{
    BatchLayout, Exec, ImageStack, Kernel, Preprocessor, SeriesPreprocessor, VoterScratch,
    DEFAULT_TILE,
};
use preflight_obs::Obs;
use std::sync::Mutex;
use std::time::Instant;

static TIMING_GATE: Mutex<()> = Mutex::new(());

/// The bare tiled loop the builder wraps: every `tile`-sided block of
/// `stack` gathered in the algorithm's layout, repaired with one reused
/// scratch and observability disabled, scattered back.
fn hand_tiled(algo: &impl SeriesPreprocessor<u16>, stack: &mut ImageStack<u16>, tile: usize) {
    let kernel = Kernel::default();
    let layout = algo.batch_layout(kernel);
    let frames = stack.frames();
    let mut scratch = VoterScratch::with_capacity(frames);
    let obs = Obs::disabled();
    let mut cx = Exec {
        kernel,
        scratch: &mut scratch,
        obs: &obs,
    };
    let mut buf = Vec::new();
    for ty in (0..stack.height()).step_by(tile) {
        let th = tile.min(stack.height() - ty);
        for tx in (0..stack.width()).step_by(tile) {
            let tw = tile.min(stack.width() - tx);
            match layout {
                BatchLayout::SeriesMajor => stack.gather_tile_series(tx, ty, tw, th, &mut buf),
                BatchLayout::TimeMajor => stack.gather_tile_time_major(tx, ty, tw, th, &mut buf),
            }
            algo.preprocess_batch(&mut buf, frames, &mut cx);
            match layout {
                BatchLayout::SeriesMajor => stack.scatter_tile_series(tx, ty, tw, th, &buf),
                BatchLayout::TimeMajor => stack.scatter_tile_time_major(tx, ty, tw, th, &buf),
            }
        }
    }
}

fn timed_pass(input: &ImageStack<u16>, pass: &mut impl FnMut(&mut ImageStack<u16>)) -> f64 {
    let mut work = input.clone();
    let start = Instant::now();
    pass(&mut work);
    start.elapsed().as_secs_f64()
}

/// Best-of-`reps` for two alternating passes over the same input; returns
/// `(best_a, best_b)`.
fn best_secs_interleaved(
    reps: usize,
    input: &ImageStack<u16>,
    mut pass_a: impl FnMut(&mut ImageStack<u16>),
    mut pass_b: impl FnMut(&mut ImageStack<u16>),
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_a = best_a.min(timed_pass(input, &mut pass_a));
        best_b = best_b.min(timed_pass(input, &mut pass_b));
    }
    (best_a, best_b)
}

/// Runs `measure` up to `attempts` times and returns the first
/// measurement satisfying `ok`, else the last one. A sustained
/// system-wide stall (CPU throttling, a noisy CI neighbour) can poison
/// every repetition of one attempt even with interleaving and
/// best-of-N; a genuine regression fails every attempt.
fn measured_with_retry(
    attempts: usize,
    mut measure: impl FnMut() -> (f64, f64),
    ok: impl Fn(f64, f64) -> bool,
) -> (f64, f64) {
    let mut last = measure();
    for _ in 1..attempts {
        if ok(last.0, last.1) {
            break;
        }
        last = measure();
    }
    last
}

#[test]
fn disabled_observability_stays_within_5_percent_of_the_pr2_baseline() {
    let _gate = TIMING_GATE.lock().unwrap();
    // The PR 2 acceptance cube (64×64×128) takes ~10 ms per pass, large
    // enough for best-of-N timing to be stable.
    let input: ImageStack<u16> = synthetic_stack(64, 64, 128, 0xA5A5, sample_u16);
    let algo = perf_algo();
    let reps = 7;

    let builder = Preprocessor::new(&algo).tile(DEFAULT_TILE); // obs disabled by default

    // The baseline must do the builder's work, byte for byte.
    let (mut by_hand, mut by_builder) = (input.clone(), input.clone());
    hand_tiled(&algo, &mut by_hand, DEFAULT_TILE);
    builder.run(&mut by_builder);
    assert_eq!(
        by_hand, by_builder,
        "the hand-written loop must match the builder"
    );

    let (baseline, disabled) = measured_with_retry(
        3,
        || {
            best_secs_interleaved(
                reps,
                &input,
                |s| hand_tiled(&algo, s, DEFAULT_TILE),
                |s| {
                    builder.run(s);
                },
            )
        },
        |baseline, disabled| disabled <= baseline * 1.05,
    );

    assert!(
        disabled <= baseline * 1.05,
        "obs-disabled builder regressed >5% vs the bare tiled loop: \
         {disabled:.6}s vs {baseline:.6}s"
    );
}

#[test]
fn enabled_observability_overhead_is_bounded() {
    let _gate = TIMING_GATE.lock().unwrap();
    let input: ImageStack<u16> = synthetic_stack(64, 64, 128, 0xA5A5, sample_u16);
    let algo = perf_algo();
    let reps = 7;

    let obs = Obs::new();
    let disabled_pp = Preprocessor::new(&algo).tile(DEFAULT_TILE);
    let enabled_pp = Preprocessor::new(&algo).tile(DEFAULT_TILE).observer(&obs);
    let (disabled, enabled) = measured_with_retry(
        3,
        || {
            best_secs_interleaved(
                reps,
                &input,
                |s| {
                    disabled_pp.run(s);
                },
                |s| {
                    enabled_pp.run(s);
                },
            )
        },
        |disabled, enabled| enabled <= disabled * 1.25,
    );

    // Per run: 4 tile spans + 1 preprocess span + a handful of counter
    // adds against ~500k processed samples. 25% headroom absorbs CI
    // noise; real per-sample instrumentation would be orders beyond it.
    assert!(
        enabled <= disabled * 1.25,
        "live registry costs too much on the hot path: \
         {enabled:.6}s vs {disabled:.6}s"
    );
    let snap = obs.snapshot();
    let runs = snap
        .counter("preprocess_runs_total", None)
        .expect("the timed passes must actually have been observed");
    assert!(
        runs >= reps as u64 && runs.is_multiple_of(reps as u64),
        "every retry attempt times {reps} observed passes, got {runs}"
    );
}
