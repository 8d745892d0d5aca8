//! Zero-overhead guard for the observability layer.
//!
//! The throughput contract (`BENCH_preprocess.json`) is measured through
//! a bare band loop. [`Preprocessor`] wraps that loop in spans and
//! counters, whose default handle is `Obs::disabled()` — so the guard
//! here is that a builder run with observability *off* stays within 5 %
//! of the same loop written out by hand (one `preprocess_rows` call per
//! band of the stack's rows, in place) on the same machine, same
//! process, same input (cross-machine wall-clock comparisons against the
//! checked-in JSON would only measure the CI host). A second, looser check keeps the
//! *enabled* path honest: attaching a live registry must not blow up the
//! hot loop, since per-band instrumentation is one histogram observe and
//! the counters are flushed once per run.
//!
//! Both tests time wall-clock passes, so they must not run concurrently
//! with each other (the harness runs `#[test]`s on parallel threads, and
//! on a small CI box two timing loops simply deschedule each other):
//! each one holds `TIMING_GATE` for its whole body. The A/B comparison
//! additionally interleaves its repetitions so a transient background
//! load spike cannot inflate only one side's entire sample.

use preflight_bench::perf::{perf_algo, sample_u16, synthetic_stack};
use preflight_core::{Exec, ImageStack, Kernel, Preprocessor, SeriesPreprocessor, VoterScratch};
use preflight_obs::Obs;
use std::sync::Mutex;
use std::time::Instant;

static TIMING_GATE: Mutex<()> = Mutex::new(());

/// Lanes per band. Must equal the builder driver's private band width;
/// the baseline test checks that both split the stack into the same
/// number of bands, so a drift fails there instead of quietly comparing
/// against a different work split.
const BAND: usize = 1024;

/// The bare band loop the builder wraps: every `BAND`-lane band of
/// `stack` (one row slice per frame) repaired in place with one reused
/// scratch and observability disabled. Returns the number of bands.
fn hand_banded(algo: &impl SeriesPreprocessor<u16>, stack: &mut ImageStack<u16>) -> usize {
    let (frames, frame_len) = (stack.frames(), stack.frame_len());
    let mut scratch = VoterScratch::with_capacity(frames);
    let obs = Obs::disabled();
    let mut cx = Exec {
        kernel: Kernel::default(),
        scratch: &mut scratch,
        obs: &obs,
    };
    let mut bands: Vec<_> = stack
        .as_mut_slice()
        .chunks_mut(frame_len)
        .map(|frame| frame.chunks_mut(BAND))
        .collect();
    let mut rows = Vec::with_capacity(frames);
    let mut worked = 0;
    loop {
        rows.extend(bands.iter_mut().filter_map(Iterator::next));
        if rows.is_empty() {
            break worked;
        }
        algo.preprocess_rows(&mut rows, &mut cx);
        rows.clear();
        worked += 1;
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

    let builder = Preprocessor::new(&algo); // obs disabled by default

    // The baseline must do the builder's work, byte for byte, split into
    // the builder's bands.
    let (mut by_hand, mut by_builder) = (input.clone(), input.clone());
    let hand_bands = hand_banded(&algo, &mut by_hand);
    let obs = Obs::new();
    Preprocessor::new(&algo).observer(&obs).run(&mut by_builder);
    assert_eq!(
        by_hand, by_builder,
        "the hand-written loop must match the builder"
    );
    assert_eq!(
        obs.snapshot().counter("preprocess_bands_total", None),
        Some(hand_bands as u64),
        "the hand-written loop must split the stack into the builder's bands"
    );

    let (baseline, disabled) = measured_with_retry(
        3,
        || {
            best_secs_interleaved(
                reps,
                &input,
                |s| {
                    hand_banded(&algo, s);
                },
                |s| {
                    builder.run(s);
                },
            )
        },
        |baseline, disabled| disabled <= baseline * 1.05,
    );

    assert!(
        disabled <= baseline * 1.05,
        "obs-disabled builder regressed >5% vs the bare band loop: \
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
    let disabled_pp = Preprocessor::new(&algo);
    let enabled_pp = Preprocessor::new(&algo).observer(&obs);
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

    // Per run: 4 band spans + 1 preprocess span + a handful of counter
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
