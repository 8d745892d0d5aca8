//! Property: the data-parallel and cache-aware tiled drivers of the
//! unified [`Preprocessor`] are bit-identical to the naive sequential
//! reference, for random cubes, Υ, Λ, and any thread count.

use preflight_core::{
    AlgoNgst, Exec, ImageStack, Kernel, Obs, Preprocessor, Sensitivity, SeriesPreprocessor,
    Upsilon, VoterScratch,
};
use proptest::prelude::*;

prop_compose! {
    /// A random frame-major stack: modest spatial extent, enough frames for
    /// every Υ, calm levels with sparse injected bit-flips.
    fn stack_strategy()(
        width in 1usize..48,
        height in 1usize..24,
        frames in 4usize..40,
        seed in any::<u64>(),
        flip_pct in 0u64..12,
    ) -> ImageStack<u16> {
        let mut st = ImageStack::new(width, height, frames);
        let mut state = seed | 1;
        let mut bump = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            state
        };
        for v in st.as_mut_slice() {
            *v = 20_000 + (bump() >> 59) as u16;
            if bump() % 100 < flip_pct {
                *v ^= 1 << (9 + (bump() % 7) as u32);
            }
        }
        st
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel driver's output and changed-sample count are
    /// bit-identical to the sequential reference for any thread count.
    #[test]
    fn parallel_is_bit_identical_to_sequential(
        stack in stack_strategy(),
        upsilon in prop::sample::select(vec![2usize, 4, 6]),
        lambda in 1u32..=100,
        threads in 0usize..9,
    ) {
        let algo = AlgoNgst::new(
            Upsilon::new(upsilon).unwrap(),
            Sensitivity::new(lambda).unwrap(),
        );
        let mut sequential = stack.clone();
        let want = Preprocessor::new(&algo).naive(true).run(&mut sequential);
        let mut parallel = stack.clone();
        let got = Preprocessor::new(&algo).threads(threads).run(&mut parallel);
        prop_assert_eq!(got, want, "changed-sample counts diverge");
        prop_assert_eq!(sequential, parallel, "outputs diverge");
    }

    /// The sequential tiled path is bit-identical too, for any tile side.
    #[test]
    fn tiled_is_bit_identical_to_sequential(
        stack in stack_strategy(),
        lambda in 1u32..=100,
        tile in 1usize..40,
    ) {
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
            decision: None,
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
