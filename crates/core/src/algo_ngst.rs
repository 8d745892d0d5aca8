//! `Algo_NGST` — the dynamic preprocessing algorithm of §3 (Algorithm 1).
//!
//! The algorithm is *entirely dynamic in its criteria for identification of
//! faulty pixels*: before iterating over the data it performs a statistical
//! pre-analysis of the whole temporal series (the [`VoterMatrix`]), from
//! which it derives per-way cut-offs and the bit-window delimiters. Tight
//! bounds emerge automatically for calm regions, loose ones for turbulent
//! regions — the property that lets it beat the static baselines in Figures
//! 2 and 4 of the paper.

use crate::error::CoreError;
use crate::kernel::Kernel;
use crate::pixel::BitPixel;
use crate::sensitivity::{Sensitivity, Upsilon};
use crate::traits::{each_lane, Exec, SeriesPreprocessor};
use crate::tuning::TuneDecision;
use crate::voter::{VoterMatrix, VoterScratch};
use crate::window::BitWindows;
use preflight_obs::Obs;

/// Optional behavioral switches for [`AlgoNgst`], used by the ablation
/// benchmarks (`DESIGN.md` experiments A1/A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NgstConfig {
    /// Use the near-unanimous `GRT` combiner inside bit window A
    /// (Algorithm 1's `Corr_Aux`). Disabling it demands unanimity
    /// everywhere — ablation A1.
    pub use_grt: bool,
    /// Replace the dynamic window delimiters with static widths
    /// `(a_bits, c_bits)` — ablation A2. The voter cut-offs remain dynamic;
    /// only the masks are frozen.
    pub static_windows: Option<(u32, u32)>,
    /// Carry-propagation headroom between the largest way cut-off and the
    /// start of bit window A (see [`crate::voter::DEFAULT_MSB_MARGIN`]).
    pub msb_margin_bits: u32,
    /// Number of analyze-and-repair rounds (≥ 1). The dynamic cut-offs are
    /// rank statistics of the *corrupted* data, so at high fault rates the
    /// first pass runs with inflated thresholds; a second pass re-estimates
    /// them from the partially cleaned series and recovers flips the first
    /// could not see (ablation `repro ablation-passes`). Rounds stop early
    /// once a pass changes nothing.
    pub passes: usize,
}

impl Default for NgstConfig {
    fn default() -> Self {
        NgstConfig {
            use_grt: true,
            static_windows: None,
            msb_margin_bits: crate::voter::DEFAULT_MSB_MARGIN,
            passes: 1,
        }
    }
}

/// The paper's application-specific dynamic preprocessing algorithm.
///
/// See the [crate-level documentation](crate) for a runnable example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoNgst {
    upsilon: Upsilon,
    sensitivity: Sensitivity,
    config: NgstConfig,
}

impl AlgoNgst {
    /// Creates the algorithm with the paper's default configuration.
    pub fn new(upsilon: Upsilon, sensitivity: Sensitivity) -> Self {
        AlgoNgst {
            upsilon,
            sensitivity,
            config: NgstConfig::default(),
        }
    }

    /// Creates the algorithm with explicit [`NgstConfig`] switches.
    pub fn with_config(upsilon: Upsilon, sensitivity: Sensitivity, config: NgstConfig) -> Self {
        AlgoNgst {
            upsilon,
            sensitivity,
            config,
        }
    }

    /// The configured voter count Υ.
    pub fn upsilon(&self) -> Upsilon {
        self.upsilon
    }

    /// The configured sensitivity Λ.
    pub fn sensitivity(&self) -> Sensitivity {
        self.sensitivity
    }

    /// The configured behavioral switches.
    pub fn config(&self) -> NgstConfig {
        self.config
    }

    /// The dynamic bit windows the algorithm would use for `series`.
    ///
    /// # Errors
    /// Returns [`CoreError::SeriesTooShort`] if the series cannot support the
    /// configured Υ.
    pub fn windows_for<T: BitPixel>(&self, series: &[T]) -> Result<BitWindows<T>, CoreError> {
        let vm = VoterMatrix::build(
            series,
            self.upsilon,
            self.sensitivity,
            self.config.msb_margin_bits,
        )?;
        Ok(self.effective_windows(&vm))
    }

    fn effective_windows<T: BitPixel>(&self, vm: &VoterMatrix<T>) -> BitWindows<T> {
        match self.config.static_windows {
            Some((a, c)) => BitWindows::from_widths(a, c),
            None => vm.windows(),
        }
    }

    /// The algorithm a frozen tuner decision asks for: the decision's λ/Υ
    /// and its bit windows frozen via `static_windows` (the same freezing
    /// mechanism as ablation A2). The other switches are kept, and `self`
    /// (the requested configuration) is untouched.
    pub fn tuned(&self, decision: &TuneDecision) -> AlgoNgst {
        AlgoNgst::with_config(
            decision.upsilon,
            decision.lambda,
            NgstConfig {
                static_windows: Some((decision.window_a_bits, decision.window_c_bits)),
                ..self.config
            },
        )
    }

    /// Repairs `series` in place, returning the number of modified samples.
    ///
    /// All corrections are computed from the *original* series (the voter
    /// matrix is built before the per-pixel loop, exactly as in Algorithm 1)
    /// and then applied in one batch, so the result is independent of
    /// iteration order.
    ///
    /// # Errors
    /// Returns [`CoreError::SeriesTooShort`] if the series cannot support the
    /// configured Υ. With `Λ = 0` the algorithm performs no pixel analysis
    /// and returns `Ok(0)` (the header-sanity-only mode of §3.2 — header
    /// checking itself lives in `preflight-fits`).
    pub fn try_preprocess<T: BitPixel>(&self, series: &mut [T]) -> Result<usize, CoreError> {
        self.try_preprocess_in(
            series,
            &mut Exec {
                kernel: Kernel::default(),
                scratch: &mut VoterScratch::new(),
                obs: &Obs::disabled(),
            },
        )
    }

    /// [`AlgoNgst::try_preprocess`] in an explicit execution context: the
    /// voter [`Kernel`], scratch buffers reused across series (a worker
    /// looping over many series reaches a zero-alloc steady state) and the
    /// observer the bit-sliced kernel's spans land in.
    /// Every kernel produces bit-identical results (property tested in
    /// `tests/kernel_identical.rs`).
    ///
    /// # Errors
    /// Same contract as [`AlgoNgst::try_preprocess`].
    pub fn try_preprocess_in<T: BitPixel>(
        &self,
        series: &mut [T],
        cx: &mut Exec<'_, T>,
    ) -> Result<usize, CoreError> {
        if self.sensitivity.is_off() {
            return Ok(0);
        }
        let mut total = 0;
        for _ in 0..self.config.passes.max(1) {
            let changed = self.one_pass(series, cx.scratch, cx.kernel, cx.obs)?;
            total += changed;
            if changed == 0 {
                break;
            }
        }
        Ok(total)
    }

    fn bitslice_params(&self) -> crate::bitslice::BitsliceParams {
        crate::bitslice::BitsliceParams {
            upsilon: self.upsilon,
            sensitivity: self.sensitivity,
            msb_margin: self.config.msb_margin_bits,
            static_windows: self.config.static_windows,
            use_grt: self.config.use_grt,
        }
    }

    /// One analyze-and-repair round: build the voter matrix, compute every
    /// correction from the (round-local) original data, apply in a batch.
    /// The bit-sliced kernel runs the whole round in bit-plane space; the
    /// scalar oracle builds the voter matrix and gathers per pixel.
    fn one_pass<T: BitPixel>(
        &self,
        series: &mut [T],
        scratch: &mut VoterScratch<T>,
        kernel: Kernel,
        obs: &Obs,
    ) -> Result<usize, CoreError> {
        if kernel == Kernel::Bitsliced {
            // The bit-sliced kernel estimates cut-offs, derives windows and
            // applies corrections itself, entirely in bit-plane space (and
            // bit-identically to the path below).
            return crate::bitslice::bitsliced_pass(&self.bitslice_params(), series, scratch, obs);
        }
        let vm = VoterMatrix::build_with_scratch(
            series,
            self.upsilon,
            self.sensitivity,
            self.config.msb_margin_bits,
            scratch,
        )?;
        let windows = self.effective_windows(&vm);
        let corrections = &mut scratch.corrections;
        corrections.clear();
        for i in 0..series.len() {
            let (vect, aux) = vm.correction(series, i);
            let aux = if self.config.use_grt { aux } else { T::ZERO };
            corrections.push(windows.combine(vect, aux));
        }
        let mut changed = 0;
        for (p, &c) in series.iter_mut().zip(scratch.corrections.iter()) {
            if c != T::ZERO {
                *p = p.xor(c);
                changed += 1;
            }
        }
        Ok(changed)
    }
}

impl Default for AlgoNgst {
    fn default() -> Self {
        AlgoNgst::new(Upsilon::default(), Sensitivity::default())
    }
}

impl<T: BitPixel> SeriesPreprocessor<T> for AlgoNgst {
    fn name(&self) -> &'static str {
        "Algo_NGST"
    }

    /// The bit-sliced kernel votes on the lanes of `rows` in groups of 64,
    /// so every word operation advances 64 voters at once; the scalar
    /// oracle goes lane by lane. Series too short for Υ are left
    /// untouched. Results are bit-identical either way (property tested in
    /// `tests/kernel_identical.rs`).
    fn preprocess_rows(&self, rows: &mut [&mut [T]], cx: &mut Exec<'_, T>) -> usize {
        if cx.kernel == Kernel::Scalar {
            return each_lane(self, rows, cx);
        }
        let n = rows.len();
        if n == 0 || self.sensitivity.is_off() || n < self.upsilon.min_series_len() {
            // Λ = 0 analyzes nothing; short series are left untouched — the
            // same outcomes the per-series path reaches one series at a
            // time.
            return 0;
        }
        let params = self.bitslice_params();
        let lanes = rows[0].len();
        (0..lanes)
            .step_by(64)
            .map(|base| {
                crate::bitslice::bitsliced_group(
                    &params,
                    self.config.passes,
                    rows,
                    base,
                    (lanes - base).min(64),
                    cx.scratch,
                    cx.obs,
                )
            })
            .sum()
    }

    /// Infallible entry over [`AlgoNgst::try_preprocess_in`] (for the
    /// bit-sliced kernel, the lane-per-sample pass): a series too short
    /// for Υ is left untouched.
    fn preprocess_in(&self, series: &mut [T], cx: &mut Exec<'_, T>) -> usize {
        self.try_preprocess_in(series, cx).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn algo(lambda: u32) -> AlgoNgst {
        AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(lambda).unwrap())
    }

    #[test]
    fn corrects_isolated_msb_flip() {
        let clean: Vec<u16> = vec![27_000; 64];
        let mut s = clean.clone();
        s[31] ^= 1 << 15;
        assert_eq!(algo(80).try_preprocess(&mut s).unwrap(), 1);
        assert_eq!(s, clean);
    }

    #[test]
    fn corrects_multiple_scattered_flips() {
        let clean: Vec<u16> = vec![20_000; 64];
        let mut s = clean.clone();
        s[5] ^= 1 << 13;
        s[20] ^= 1 << 11;
        s[40] ^= 1 << 14;
        let changed = algo(80).try_preprocess(&mut s).unwrap();
        assert_eq!(changed, 3);
        assert_eq!(s, clean);
    }

    #[test]
    fn flip_on_varying_data_repaired_within_natural_variation() {
        // A gentle random-walk-like series (the paper's Gaussian model at
        // small σ): the high-bit flip must be reverted, and any residual
        // low-bit pseudo-correction must stay inside the natural variation.
        let mut level = 27_000i32;
        let mut state = 0x2545_F491u32;
        let clean: Vec<u16> = (0..64)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                level += i32::from((state >> 28) as i16 % 4) - 1;
                level as u16
            })
            .collect();
        let mut s = clean.clone();
        s[30] ^= 1 << 14;
        algo(80).try_preprocess(&mut s).unwrap();
        assert_eq!(
            s[30] & (1 << 14),
            clean[30] & (1 << 14),
            "high bit restored"
        );
        for (i, (&got, &want)) in s.iter().zip(&clean).enumerate() {
            let err = (i32::from(got) - i32::from(want)).abs();
            assert!(err <= 8, "pixel {i}: residual error {err} too large");
        }
    }

    #[test]
    fn clean_series_untouched() {
        // Alternating ±1 natural variation: offset-1 diffs prune to zero
        // voters, offset-2 diffs vanish — nothing may change.
        let clean: Vec<u16> = (0..64).map(|i| 27_000 + (i % 2) as u16).collect();
        let mut s = clean.clone();
        assert_eq!(algo(80).try_preprocess(&mut s).unwrap(), 0);
        assert_eq!(s, clean);
    }

    #[test]
    fn lambda_zero_is_a_no_op() {
        let mut s: Vec<u16> = vec![100; 8];
        s[4] ^= 1 << 15;
        let before = s.clone();
        assert_eq!(algo(0).try_preprocess(&mut s).unwrap(), 0);
        assert_eq!(s, before);
    }

    #[test]
    fn window_c_bits_never_touched() {
        // Noisy LSBs: whatever dynamic masks emerge, no correction may ever
        // alter a window-C bit, while the MSB flip itself must be reverted.
        let clean: Vec<u16> = (0..64)
            .map(|i| 27_000 + ((i * 7 + 3) % 13) as u16)
            .collect();
        let mut s = clean.clone();
        s[10] ^= 1 << 14;
        let a = algo(90);
        let windows = a.windows_for(&s).unwrap();
        let c_mask = windows.window_c();
        let before = s.clone();
        a.try_preprocess(&mut s).unwrap();
        for (x, y) in before.iter().zip(&s) {
            assert_eq!(x & c_mask, y & c_mask, "window C bit modified");
        }
        assert_eq!(
            s[10] & (1 << 14),
            clean[10] & (1 << 14),
            "the MSB flip is corrected"
        );
    }

    #[test]
    fn short_series_error_and_graceful_trait_behavior() {
        let mut s: Vec<u16> = vec![1, 2];
        assert!(algo(80).try_preprocess(&mut s).is_err());
        // Trait path: untouched, zero count.
        let before = s.clone();
        assert_eq!(SeriesPreprocessor::preprocess(&algo(80), &mut s), 0);
        assert_eq!(s, before);
    }

    #[test]
    fn grt_off_requires_unanimity_everywhere() {
        // Two adjacent flips of the same bit defeat unanimity for Υ=4 but
        // GRT (3-of-4) can still catch them; with GRT off they must survive.
        let clean: Vec<u16> = vec![27_000; 64];
        let mut with_grt = clean.clone();
        with_grt[30] ^= 1 << 14;
        with_grt[31] ^= 1 << 14;
        let mut no_grt = with_grt.clone();

        let cfg = NgstConfig {
            use_grt: false,
            ..NgstConfig::default()
        };
        let a_no = AlgoNgst::with_config(Upsilon::FOUR, Sensitivity::new(80).unwrap(), cfg);
        let fixed_no = a_no.try_preprocess(&mut no_grt).unwrap();
        let fixed_with = algo(80).try_preprocess(&mut with_grt).unwrap();
        assert!(
            fixed_with >= fixed_no,
            "GRT must never correct fewer pixels ({fixed_with} < {fixed_no})"
        );
        assert_eq!(with_grt, clean, "GRT resolves the adjacent double flip");
    }

    #[test]
    fn static_windows_ablation_uses_frozen_masks() {
        let cfg = NgstConfig {
            use_grt: true,
            static_windows: Some((2, 14)),
            ..NgstConfig::default()
        };
        let a = AlgoNgst::with_config(Upsilon::FOUR, Sensitivity::new(80).unwrap(), cfg);
        let s: Vec<u16> = (0..32).map(|i| 1_000 + (i % 3) as u16).collect();
        let w = a.windows_for(&s).unwrap();
        assert_eq!(w.width_a(), 2);
        assert_eq!(w.width_c(), 14);
        // A flip below the frozen A window and inside frozen C is immune:
        let mut v = s.clone();
        v[16] ^= 1 << 5; // bit 5 < 14 → window C
        let before = v.clone();
        a.try_preprocess(&mut v).unwrap();
        assert_eq!(v, before);
    }

    #[test]
    fn stack_driver_corrects_every_coordinate() {
        use crate::container::ImageStack;
        let mut stack: ImageStack<u16> = ImageStack::new(4, 3, 32);
        // Fill each coordinate with a constant level, then flip one sample.
        for y in 0..3 {
            for x in 0..4 {
                let level = 10_000 + (y * 4 + x) as u16 * 100;
                let mut series = vec![level; 32];
                series[(x + y) % 32] ^= 1 << 13;
                stack.scatter_series(x, y, &series);
            }
        }
        let fixed = crate::Preprocessor::new(algo(80))
            .naive(true)
            .run(&mut stack);
        assert_eq!(fixed, 12);
        for y in 0..3 {
            for x in 0..4 {
                let mut buf = Vec::new();
                stack.gather_series(x, y, &mut buf);
                let level = 10_000 + (y * 4 + x) as u16 * 100;
                assert!(
                    buf.iter().all(|&v| v == level),
                    "coordinate ({x},{y}) not repaired"
                );
            }
        }
    }

    #[test]
    fn spatial_image_pass_repairs_isolated_flips() {
        use crate::container::Image;
        // A gradient image (smooth in both directions) with scattered flips.
        let mut img: Image<u16> = Image::new(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                img.set(x, y, 20_000 + (x * 3 + y * 5) as u16);
            }
        }
        let clean = img.clone();
        for &(x, y, bit) in &[(3usize, 4usize, 13u32), (10, 10, 15), (20, 7, 12)] {
            img.set(x, y, img.get(x, y) ^ (1 << bit));
        }
        let changed = crate::Preprocessor::new(algo(80)).run_image(&mut img);
        assert!(changed >= 3);
        for y in 0..24 {
            for x in 0..24 {
                let err = (i32::from(img.get(x, y)) - i32::from(clean.get(x, y))).abs();
                assert!(err <= 16, "({x},{y}): residual {err}");
            }
        }
    }

    #[test]
    fn spatial_image_pass_counts_exactly() {
        use crate::container::Image;
        let mut img: Image<u16> = Image::filled(16, 16, 30_000);
        let before = img.clone();
        let changed = crate::Preprocessor::new(algo(80)).run_image(&mut img);
        assert_eq!(changed, 0, "clean flat image must be untouched");
        assert_eq!(img, before);
    }

    #[test]
    fn second_pass_recovers_more_under_heavy_faults() {
        // At high Γ₀ the first pass's cut-offs are inflated by the fault
        // diffs themselves; the second pass must never do worse and should
        // usually recover more. Statistical check over many series.

        let mut one_total = 0i64;
        let mut two_total = 0i64;
        for t in 0..30u64 {
            // LCG-based walk + heavy corruption, no external deps.
            let mut state = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut bump = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                state
            };
            let clean: Vec<u16> = vec![27_000; 64];
            let mut corrupted = clean.clone();
            for v in corrupted.iter_mut() {
                // ~8 % of bits flipped
                for bit in 0..16 {
                    if bump() % 100 < 8 {
                        *v ^= 1 << bit;
                    }
                }
            }
            let err = |s: &[u16]| -> i64 {
                s.iter()
                    .zip(&clean)
                    .map(|(a, b)| (i64::from(*a) - i64::from(*b)).abs())
                    .sum()
            };
            let mut one = corrupted.clone();
            AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(95).unwrap()).preprocess(&mut one);
            let cfg = NgstConfig {
                passes: 3,
                ..NgstConfig::default()
            };
            let mut three = corrupted.clone();
            AlgoNgst::with_config(Upsilon::FOUR, Sensitivity::new(95).unwrap(), cfg)
                .preprocess(&mut three);
            one_total += err(&one);
            two_total += err(&three);
        }
        assert!(
            two_total <= one_total,
            "multi-pass must not be worse ({two_total} > {one_total})"
        );
        assert!(
            two_total < one_total,
            "multi-pass should recover more at 8 % corruption"
        );
    }

    #[test]
    fn passes_terminate_early_on_clean_data() {
        let cfg = NgstConfig {
            passes: 10,
            ..NgstConfig::default()
        };
        let a = AlgoNgst::with_config(Upsilon::FOUR, Sensitivity::new(80).unwrap(), cfg);
        let mut s: Vec<u16> = vec![27_000; 64];
        assert_eq!(a.try_preprocess(&mut s).unwrap(), 0);
    }

    #[test]
    fn single_pass_unchanged_by_default() {
        assert_eq!(NgstConfig::default().passes, 1);
    }

    #[test]
    fn default_matches_paper_recommendation() {
        let a = AlgoNgst::default();
        assert_eq!(a.upsilon(), Upsilon::FOUR);
        assert_eq!(a.sensitivity().value(), 80);
        assert!(a.config().use_grt);
    }

    #[test]
    fn works_on_u32_pixels_too() {
        let clean: Vec<u32> = vec![1_000_000; 32];
        let mut s = clean.clone();
        s[7] ^= 1 << 27;
        assert_eq!(algo(80).try_preprocess(&mut s).unwrap(), 1);
        assert_eq!(s, clean);
    }
}
