//! Property: the band driver of the unified [`Preprocessor`] is
//! bit-identical to the naive sequential reference, for random stacks, Υ,
//! Λ, frozen bit windows and any thread count. The thread-count property
//! draws stacks of more than one band, so every run asking for helpers
//! gets them. Band widths and explicit
//! helper counts are covered by the driver's own property in
//! `preprocessor.rs`; runs under contention for the process core budget in
//! `tests/parallel_contention.rs`.

use preflight_core::{
    available_threads, AlgoNgst, Exec, Kernel, NgstConfig, Obs, Preprocessor, Sensitivity,
    SeriesPreprocessor, Upsilon, VoterScratch,
};
mod common;

use common::{multi_band_stack_strategy, stack_strategy};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Every frozen window pair a `TuneDecision` can carry for a u16 word
/// (`a ≥ 1`, `a + c ≤ 16`), plus `None` for the per-series dynamic windows.
fn static_windows() -> Vec<Option<(u32, u32)>> {
    let frozen = (1..=16).flat_map(|a| (0..=16 - a).map(move |c| Some((a, c))));
    std::iter::once(None).chain(frozen).collect()
}

/// Held by every test here that runs a [`Preprocessor`], so each run finds
/// the process core budget idle and gets every helper it asks for: the
/// parallel property then always runs the granted helpers.
fn idle_budget() -> MutexGuard<'static, ()> {
    static BUDGET: Mutex<()> = Mutex::new(());
    BUDGET
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The band driver's output and changed-sample count are bit-identical
    /// to the sequential reference for any thread count, with dynamic or
    /// frozen (tuned) bit windows; the pool-workers counter proves how many
    /// threads worked the bands.
    #[test]
    fn parallel_is_bit_identical_to_sequential(
        stack in multi_band_stack_strategy(),
        upsilon in prop::sample::select(vec![2usize, 4, 6]),
        lambda in 1u32..=100,
        threads in 0usize..9,
        static_windows in prop::sample::select(static_windows()),
    ) {
        let _idle = idle_budget();
        let algo = AlgoNgst::with_config(
            Upsilon::new(upsilon).unwrap(),
            Sensitivity::new(lambda).unwrap(),
            NgstConfig { static_windows, ..NgstConfig::default() },
        );
        let mut sequential = stack.clone();
        let want = Preprocessor::new(&algo).naive(true).run(&mut sequential);
        let mut parallel = stack.clone();
        let obs = Obs::new();
        let got = Preprocessor::new(&algo)
            .threads(threads)
            .observer(&obs)
            .run(&mut parallel);
        prop_assert_eq!(got, want, "changed-sample counts diverge");
        prop_assert_eq!(sequential, parallel, "outputs diverge");
        // An idle budget grants min(threads, bands, cores) − 1 helpers;
        // with none the caller works alone and records no workers.
        let snap = obs.snapshot();
        let bands = snap.counter("preprocess_bands_total", None).unwrap_or(0) as usize;
        prop_assert!(bands >= 2, "the strategy draws stacks of more than one band");
        let workers = threads.max(1).min(bands).min(available_threads());
        prop_assert_eq!(
            snap.counter("preprocess_pool_workers_total", None),
            (workers > 1).then_some(workers as u64)
        );
    }

    /// The caller alone (one thread) is bit-identical too.
    #[test]
    fn tiled_is_bit_identical_to_sequential(
        stack in stack_strategy(),
        lambda in 1u32..=100,
    ) {
        let _idle = idle_budget();
        let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(lambda).unwrap());
        let mut sequential = stack.clone();
        let want = Preprocessor::new(&algo).naive(true).run(&mut sequential);
        let mut tiled = stack.clone();
        let got = Preprocessor::new(&algo).run(&mut tiled);
        prop_assert_eq!(got, want, "changed-sample counts diverge");
        prop_assert_eq!(sequential, tiled, "outputs diverge");
    }

    /// Scratch reuse across arbitrary series never changes a single result.
    #[test]
    fn scratch_reuse_is_transparent(
        stack in stack_strategy(),
        lambda in 1u32..=100,
    ) {
        let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(lambda).unwrap());
        let mut scratch = VoterScratch::new();
        let obs = Obs::disabled();
        let mut cx = Exec {
            kernel: Kernel::default(),
            scratch: &mut scratch,
            obs: &obs,
        };
        let mut with_scratch = stack.clone();
        let a = with_scratch.for_each_series(|s| algo.preprocess_in(s, &mut cx));
        let mut without = stack.clone();
        let b = without.for_each_series(|s| algo.preprocess(s));
        prop_assert_eq!(a, b);
        prop_assert_eq!(with_scratch, without);
    }
}
