//! Property: the bit-sliced voter kernel ([`Kernel::Bitsliced`]) is
//! bit-identical to the per-pixel scalar gather ([`Kernel::Scalar`]) for
//! every Υ, Λ, dtype and series length — including the
//! boundary-reflection regime where the series is barely longer than the
//! voter neighborhood, and lengths that straddle the bit-sliced kernel's
//! 64-pixel block boundary.
//!
//! Identity is checked at two levels: the raw per-series kernel entry
//! (`AlgoNgst::try_preprocess_in`, single- and multi-pass, GRT on/off)
//! and the whole-stack [`Preprocessor`] drivers with the `kernel` knob.
//! The deterministic grid additionally runs once per supported SIMD
//! dispatch tier, so the portable fallback and the AVX2/NEON
//! re-instantiations are all proven against the oracle.

use preflight_core::bitslice::{transpose_block, untranspose_block};
use preflight_core::{
    detected_tiers, AlgoNgst, BitPixel, DispatchTier, Exec, ImageStack, Kernel, NgstConfig, Obs,
    Preprocessor, Sensitivity, Upsilon, VoterScratch,
};
use proptest::prelude::*;

/// A calm series with sparse injected bit-flips, deterministic in `seed`.
fn make_series<T: BitPixel>(len: usize, seed: u64, flip_pct: u64, base: u64) -> Vec<T> {
    let mut state = seed | 1;
    let mut bump = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        state
    };
    (0..len)
        .map(|_| {
            let mut v = base + (bump() >> 59);
            if bump() % 100 < flip_pct {
                v ^= 1 << (T::BITS - 2 - (bump() % 6) as u32);
            }
            T::from_u64(v)
        })
        .collect()
}

/// Runs the bit-sliced kernel over a clone of `series` and asserts
/// bit-identity of the repaired data and the changed-sample count against
/// the scalar oracle.
fn assert_kernels_agree<T: BitPixel>(series: &[T], algo: &AlgoNgst, label: &str) {
    let mut scalar = series.to_vec();
    let mut scratch = VoterScratch::new();
    let obs = Obs::disabled();
    let mut cx = Exec {
        kernel: Kernel::Scalar,
        scratch: &mut scratch,
        obs: &obs,
    };
    let want = algo.try_preprocess_in(&mut scalar, &mut cx);
    let mut out = series.to_vec();
    cx.kernel = Kernel::Bitsliced;
    let got = algo.try_preprocess_in(&mut out, &mut cx);
    match (&want, &got) {
        (Ok(ca), Ok(cb)) => {
            assert_eq!(ca, cb, "changed counts diverge: {label}");
            assert_eq!(scalar, out, "outputs diverge: {label}");
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors diverge: {label}"),
        (a, b) => panic!("one kernel failed, the other did not ({label}): {a:?} vs {b:?}"),
    }
}

/// Deterministic grid over the regimes the issue calls out: every Υ,
/// Λ ∈ {0, 25, 50, 75, 100}, u16 and u32, short/boundary-reflection
/// lengths (including `n = upsilon.min_series_len()`) plus lengths that
/// are not multiples of 64 and straddle the bit-plane block boundary,
/// single- and multi-pass, GRT on and off.
fn run_exhaustive_grid() {
    for upsilon in [2usize, 4, 8, 16] {
        let upsilon = Upsilon::new(upsilon).unwrap();
        let min_len = upsilon.min_series_len();
        for lambda in [0u32, 25, 50, 75, 100] {
            for len in [
                min_len,
                min_len + 1,
                2 * min_len,
                17,
                63,
                64,
                65,
                100,
                128,
                130,
            ] {
                for passes in [1usize, 3] {
                    for use_grt in [true, false] {
                        let cfg = NgstConfig {
                            use_grt,
                            passes,
                            ..NgstConfig::default()
                        };
                        let algo =
                            AlgoNgst::with_config(upsilon, Sensitivity::new(lambda).unwrap(), cfg);
                        let seed = (len as u64) << 32 | u64::from(lambda) << 8;
                        let label = format!(
                            "Υ={:?} Λ={lambda} len={len} passes={passes} grt={use_grt}",
                            upsilon
                        );
                        let s16: Vec<u16> = make_series(len, seed, 8, 27_000);
                        assert_kernels_agree(&s16, &algo, &format!("u16 {label}"));
                        let s32: Vec<u32> = make_series(len, seed ^ 0xABCD, 8, 1_000_000);
                        assert_kernels_agree(&s32, &algo, &format!("u32 {label}"));
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_grid_over_upsilon_lambda_dtype_length() {
    run_exhaustive_grid();
}

/// Serializes the tests that force a dispatch tier: the override is
/// process-global, so two of them running at once would each run part of
/// their grid on the other's tier. Other tests in this binary are
/// tier-independent (all tiers produce identical bits), so concurrency
/// with them is harmless.
static TIER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The same grid once per SIMD dispatch tier this machine supports, so the
/// portable fallback and the feature-specialized builds are all proven
/// bit-identical to the scalar oracle.
#[test]
fn exhaustive_grid_on_every_dispatch_tier() {
    let _tier = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for tier in detected_tiers() {
        assert!(
            preflight_core::bitslice::force_dispatch_tier(Some(tier)),
            "detected tier {tier} must be forceable"
        );
        run_exhaustive_grid();
    }
    preflight_core::bitslice::force_dispatch_tier(None);
}

/// A frame-major stack whose lanes span every cut-off exponent: lane `l`
/// carries `l·7 + seed` mod `T::BITS − 1` noise bits (so some lanes are
/// constant and some are noisy up to the second-highest bit), and `dense`
/// adds a flip of any bit, the MSB included, to a fifth of the samples.
fn make_group_stack<T: BitPixel>(
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
    dense: bool,
) -> ImageStack<T> {
    let mut st: ImageStack<T> = ImageStack::new(width, height, frames);
    let lanes = width * height;
    let mut state = seed | 1;
    for (k, v) in st.as_mut_slice().iter_mut().enumerate() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let nb = (k % lanes) as u64 * 7 + seed;
        let noise = (state >> 11) & ((1u64 << (nb % u64::from(T::BITS - 1))) - 1);
        let mut x = (1u64 << (T::BITS - 2)) + noise;
        if dense && (state >> 3).is_multiple_of(5) {
            x ^= 1 << ((state >> 40) % u64::from(T::BITS));
        }
        *v = T::from_u64(x);
    }
    st
}

/// One grid dtype: every Υ and series length of the group-kernel grid,
/// with Λ, lane count, pass/GRT/window configuration and flip density
/// rotated across the cases so each value meets every Υ and length.
fn run_group_grid_for<T: BitPixel>(dtype: &str) {
    const LAMBDAS: [u32; 4] = [0, 40, 80, 100];
    // (width, height): one full 64-lane group; a full group plus a
    // partial one; a lone partial group.
    const SHAPES: [(usize, usize); 3] = [(16, 4), (25, 4), (7, 3)];
    let mut case = 0usize;
    for (ui, upsilon) in [2usize, 4, 8, 16].into_iter().enumerate() {
        let upsilon = Upsilon::new(upsilon).unwrap();
        let lens = [upsilon.min_series_len(), 16, 17, 65, 130];
        for (fi, frames) in lens.into_iter().enumerate() {
            for variant in 0..8 {
                case += 1;
                let lambda = LAMBDAS[(variant + variant / 4 + fi) % LAMBDAS.len()];
                let (width, height) = SHAPES[case % SHAPES.len()];
                let cfg = NgstConfig {
                    use_grt: variant % 4 != 1,
                    passes: if variant % 4 == 2 { 3 } else { 1 },
                    static_windows: (variant % 4 == 3).then_some((2, 2)),
                    ..NgstConfig::default()
                };
                let algo = AlgoNgst::with_config(upsilon, Sensitivity::new(lambda).unwrap(), cfg);
                let dense = (variant / 4 + fi + ui).is_multiple_of(2);
                let st: ImageStack<T> =
                    make_group_stack(width, height, frames, case as u64 * 0x9E37, dense);
                let mut scalar = st.clone();
                let want = Preprocessor::new(&algo)
                    .kernel(Kernel::Scalar)
                    .run(&mut scalar);
                let mut out = st;
                let got = Preprocessor::new(&algo)
                    .kernel(Kernel::Bitsliced)
                    .run(&mut out);
                let label = format!(
                    "{dtype} Υ={upsilon:?} Λ={lambda} frames={frames} lanes={} cfg={cfg:?} dense={dense}",
                    width * height
                );
                assert_eq!(got, want, "changed counts diverge: {label}");
                assert!(out == scalar, "outputs diverge: {label}");
            }
        }
    }
}

/// The 64-lane group kernel (`Preprocessor::run`'s band driver, the path
/// every stack takes) against the scalar oracle, once per dispatch tier:
/// Υ ∈ {2, 4, 8, 16}; Λ ∈ {0, 40, 80, 100}; u8, u16, u32; frame counts
/// `min_series_len`, 16, 17, 65 and 130 (whose ways of more than 127
/// pairings take the widest cut-off counter); full and partial groups; 1
/// and 3 passes, GRT on and off, a static window; no flips and dense
/// flips.
#[test]
fn group_kernel_grid_on_every_dispatch_tier() {
    let _tier = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for tier in detected_tiers() {
        assert!(
            preflight_core::bitslice::force_dispatch_tier(Some(tier)),
            "detected tier {tier} must be forceable"
        );
        run_group_grid_for::<u8>("u8");
        run_group_grid_for::<u16>("u16");
        run_group_grid_for::<u32>("u32");
    }
    preflight_core::bitslice::force_dispatch_tier(None);
}

/// `force_dispatch_tier` must refuse tiers the machine cannot run, so the
/// test override can never dispatch onto unsupported instructions.
#[test]
fn unsupported_tier_override_is_refused() {
    let unsupported = [DispatchTier::Avx2, DispatchTier::Neon]
        .into_iter()
        .find(|t| !detected_tiers().contains(t));
    if let Some(tier) = unsupported {
        assert!(!preflight_core::bitslice::force_dispatch_tier(Some(tier)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random series, random Υ/Λ: the bit-sliced kernel never diverges
    /// from the scalar gather on u16 data.
    #[test]
    fn kernels_match_scalar_on_random_u16_series(
        len in 2usize..200,
        seed in any::<u64>(),
        flip_pct in 0u64..25,
        upsilon in prop::sample::select(vec![2usize, 4, 8, 16]),
        lambda in prop::sample::select(vec![0u32, 25, 50, 75, 100]),
        passes in 1usize..4,
    ) {
        let cfg = NgstConfig { passes, ..NgstConfig::default() };
        let algo = AlgoNgst::with_config(
            Upsilon::new(upsilon).unwrap(),
            Sensitivity::new(lambda).unwrap(),
            cfg,
        );
        let series: Vec<u16> = make_series(len, seed, flip_pct, 27_000);
        assert_kernels_agree(&series, &algo, "proptest u16");
    }

    /// Same property on u32 data with heavier corruption.
    #[test]
    fn kernels_match_scalar_on_random_u32_series(
        len in 2usize..200,
        seed in any::<u64>(),
        flip_pct in 0u64..25,
        upsilon in prop::sample::select(vec![2usize, 4, 8, 16]),
        lambda in prop::sample::select(vec![25u32, 75, 100]),
    ) {
        let algo = AlgoNgst::new(
            Upsilon::new(upsilon).unwrap(),
            Sensitivity::new(lambda).unwrap(),
        );
        let series: Vec<u32> = make_series(len, seed, flip_pct, 5_000_000);
        assert_kernels_agree(&series, &algo, "proptest u32");
    }

    /// Bit-plane transpose ∘ untranspose is the identity for random tiles
    /// of every supported pixel width and block length.
    #[test]
    fn transpose_untranspose_is_identity(
        len in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let mut planes = [0u64; 64];

        let tile: Vec<u16> = make_series(len, seed, 50, 11_000);
        transpose_block(&tile, &mut planes);
        let mut back = vec![0u16; len];
        untranspose_block(&mut planes, &mut back);
        prop_assert_eq!(&back, &tile);

        let tile: Vec<u32> = make_series(len, seed ^ 0x5A5A, 50, 3_000_000);
        transpose_block(&tile, &mut planes);
        let mut back = vec![0u32; len];
        untranspose_block(&mut planes, &mut back);
        prop_assert_eq!(&back, &tile);

        let tile: Vec<u8> = make_series(len, seed ^ 0xF0F0, 50, 100);
        transpose_block(&tile, &mut planes);
        let mut back = vec![0u8; len];
        untranspose_block(&mut planes, &mut back);
        prop_assert_eq!(&back, &tile);

        let tile: Vec<u64> = make_series(len, seed ^ 0x0FF0, 50, 1 << 40);
        transpose_block(&tile, &mut planes);
        let mut back = vec![0u64; len];
        untranspose_block(&mut planes, &mut back);
        prop_assert_eq!(&back, &tile);
    }

    /// Whole-stack identity through the `Preprocessor` kernel knob, across
    /// drivers and thread counts.
    #[test]
    fn preprocessor_kernel_knob_is_bit_identical(
        width in 1usize..32,
        height in 1usize..16,
        frames in 4usize..32,
        seed in any::<u64>(),
        threads in 0usize..5,
        lambda in 1u32..=100,
    ) {
        let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(lambda).unwrap());
        let mut st: ImageStack<u16> = ImageStack::new(width, height, frames);
        let mut state = seed | 1;
        for v in st.as_mut_slice() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            *v = 20_000 + (state >> 59) as u16;
            if state % 100 < 10 {
                *v ^= 1 << (9 + (state >> 33) % 7) as u32;
            }
        }
        let mut scalar = st.clone();
        let want = Preprocessor::new(&algo)
            .kernel(Kernel::Scalar)
            .threads(threads)
            .run(&mut scalar);
        let mut out = st.clone();
        let got = Preprocessor::new(&algo)
            .kernel(Kernel::Bitsliced)
            .threads(threads)
            .run(&mut out);
        prop_assert_eq!(got, want, "changed-sample counts diverge");
        prop_assert_eq!(&out, &scalar, "outputs diverge");
    }
}
