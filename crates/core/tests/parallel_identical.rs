//! Property: the tile driver of the unified [`Preprocessor`] is
//! bit-identical to the naive sequential reference, for random stacks, Υ,
//! Λ, frozen bit windows, tile sides and any thread count. Runs under
//! contention for the process core budget are covered in
//! `tests/parallel_contention.rs`.

use preflight_core::{
    available_threads, AlgoNgst, Exec, Kernel, NgstConfig, Obs, Preprocessor, Sensitivity,
    SeriesPreprocessor, Upsilon, VoterScratch,
};
mod common;

use common::stack_strategy;
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

    /// The tile driver's output and changed-sample count are bit-identical
    /// to the sequential reference for any thread count and tile side, with
    /// dynamic or frozen (tuned) bit windows; the pool-workers counter
    /// proves how many threads worked the tiles.
    #[test]
    fn parallel_is_bit_identical_to_sequential(
        stack in stack_strategy(),
        upsilon in prop::sample::select(vec![2usize, 4, 6]),
        lambda in 1u32..=100,
        threads in 0usize..9,
        tile in 1usize..=32,
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
            .tile(tile)
            .observer(&obs)
            .run(&mut parallel);
        prop_assert_eq!(got, want, "changed-sample counts diverge");
        prop_assert_eq!(sequential, parallel, "outputs diverge");
        // An idle budget grants min(threads, tiles, cores) − 1 helpers;
        // with none the caller works alone and records no workers.
        let tiles = stack.width().div_ceil(tile) * stack.height().div_ceil(tile);
        let workers = threads.max(1).min(tiles).min(available_threads());
        prop_assert_eq!(
            obs.snapshot().counter("preprocess_pool_workers_total", None),
            (workers > 1).then_some(workers as u64)
        );
    }

    /// The caller alone (one thread) is bit-identical too, for any tile
    /// side.
    #[test]
    fn tiled_is_bit_identical_to_sequential(
        stack in stack_strategy(),
        lambda in 1u32..=100,
        tile in 1usize..40,
    ) {
        let _idle = idle_budget();
        let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(lambda).unwrap());
        let mut sequential = stack.clone();
        let want = Preprocessor::new(&algo).naive(true).run(&mut sequential);
        let mut tiled = stack.clone();
        let got = Preprocessor::new(&algo).tile(tile).run(&mut tiled);
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
        let a = with_scratch.for_each_series(|s| {
            let frames = s.len();
            algo.preprocess_batch(s, frames, &mut cx)
        });
        let mut without = stack.clone();
        let b = without.for_each_series(|s| algo.preprocess(s));
        prop_assert_eq!(a, b);
        prop_assert_eq!(with_scratch, without);
    }
}
