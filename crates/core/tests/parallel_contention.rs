//! Property: runs that contend for the process core budget — some granted
//! helpers, some running alone on their caller — are each bit-identical
//! to the naive sequential reference. The stack runs draw stacks of more
//! than one band, so every caller has work for helpers and the callers
//! really contend for grants. These live in a binary of their own
//! because they keep the budget busy, which would decide the grants of
//! every other test running beside them.

mod common;

use common::{multi_band_stack_strategy, stack_strategy};
use preflight_core::{
    AlgoNgst, Cube, ImageStack, MedianSmoother, Obs, Preprocessor, Sensitivity, Upsilon,
};
use proptest::prelude::*;

/// Callers contending for the core budget.
const CALLERS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Concurrent `threads(4)` callers split the core budget between them
    /// (some get helpers, some run alone); every one still produces the
    /// sequential result.
    #[test]
    fn concurrent_runs_are_bit_identical_to_sequential(
        stack in multi_band_stack_strategy(),
        lambda in 1u32..=100,
    ) {
        let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(lambda).unwrap());
        let mut sequential = stack.clone();
        let want = Preprocessor::new(&algo).naive(true).run(&mut sequential);
        let runs: Vec<(usize, ImageStack<u16>, Obs)> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        let obs = Obs::new();
                        let mut st = stack.clone();
                        let changed = Preprocessor::new(&algo)
                            .threads(4)
                            .observer(&obs)
                            .run(&mut st);
                        (changed, st, obs)
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (got, out, obs) in runs {
            prop_assert_eq!(got, want, "changed-sample counts diverge");
            prop_assert_eq!(&out, &sequential, "outputs diverge");
            let bands = obs.snapshot().counter("preprocess_bands_total", None);
            prop_assert!(
                bands >= Some(2),
                "every caller has bands for helpers, got {:?}",
                bands
            );
        }
    }

    /// The same contention for the band-parallel cube driver.
    #[test]
    fn concurrent_cube_runs_are_bit_identical_to_sequential(
        stack in stack_strategy(),
    ) {
        let cube = Cube::from_vec(
            stack.width(),
            stack.height(),
            stack.frames(),
            stack.as_slice().iter().map(|&v| f32::from(v)).collect(),
        )
        .unwrap();
        let smoother = MedianSmoother::new();
        let mut sequential = cube.clone();
        let want = Preprocessor::new(&smoother).run_cube(&mut sequential);
        let runs: Vec<(usize, Cube<f32>)> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut c = cube.clone();
                        let changed = Preprocessor::new(&smoother).threads(4).run_cube(&mut c);
                        (changed, c)
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (got, out) in runs {
            prop_assert_eq!(got, want, "changed-sample counts diverge");
            prop_assert_eq!(out.as_slice(), sequential.as_slice(), "planes diverge");
        }
    }
}
