//! The average relative error Ψ (Eq. 3/4) and companion value-domain
//! metrics.

use preflight_core::ValuePixel;

/// The average relative error of `observed` against the pristine `ideal`
/// (Eq. 3/4 of the paper).
///
/// ```
/// use preflight_metrics::psi;
///
/// let ideal = vec![100u16, 200, 400];
/// let observed = vec![110u16, 200, 400]; // one sample 10 % off
/// assert!((psi(&ideal, &observed) - 0.1 / 3.0).abs() < 1e-12);
/// ```
///
/// Samples whose ideal value is zero are skipped (the paper's detectors
/// always read non-zero thanks to background noise; synthetic data may not).
/// Non-finite observed values (NaN/∞ from exponent flips) contribute the
/// worst finite penalty of the remaining samples' scale — they are counted
/// as a relative error of 1.0 per unit of ideal, i.e. `|obs − ideal|` is
/// taken as `ideal` — so a single NaN cannot make Ψ itself NaN.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn psi<T: ValuePixel>(ideal: &[T], observed: &[T]) -> f64 {
    assert_eq!(ideal.len(), observed.len(), "length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&i, &o) in ideal.iter().zip(observed) {
        let iv = i.to_f64();
        if iv == 0.0 || !iv.is_finite() {
            continue;
        }
        let ov = o.to_f64();
        let rel = if ov.is_finite() {
            (ov - iv).abs() / iv.abs()
        } else {
            1.0
        };
        sum += rel;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// [`psi`] with each sample's relative error saturated at `cap`.
///
/// IEEE-754 inputs corrupted in their exponent bits produce relative errors
/// of 10³⁰ and beyond, which would let a single flip dominate the average;
/// the paper's OTIS numbers (Ψ ≈ 12 % unprocessed at Γ₀ = 0.05) are only
/// meaningful with per-sample saturation — a cap of 1.0 reads as "this
/// sample is completely wrong".
///
/// # Panics
/// Panics if the slices have different lengths or `cap` is not positive.
pub fn psi_capped<T: ValuePixel>(ideal: &[T], observed: &[T], cap: f64) -> f64 {
    assert_eq!(ideal.len(), observed.len(), "length mismatch");
    assert!(cap > 0.0, "cap must be positive");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&i, &o) in ideal.iter().zip(observed) {
        let iv = i.to_f64();
        if iv == 0.0 || !iv.is_finite() {
            continue;
        }
        let ov = o.to_f64();
        let rel = if ov.is_finite() {
            (ov - iv).abs() / iv.abs()
        } else {
            cap
        };
        sum += rel.min(cap);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Root-mean-square error over finite pairs.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn rmse<T: ValuePixel>(ideal: &[T], observed: &[T]) -> f64 {
    assert_eq!(ideal.len(), observed.len(), "length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&i, &o) in ideal.iter().zip(observed) {
        let (iv, ov) = (i.to_f64(), o.to_f64());
        if iv.is_finite() && ov.is_finite() {
            sum += (ov - iv).powi(2);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).sqrt()
    }
}

/// The largest absolute error over finite pairs.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_error<T: ValuePixel>(ideal: &[T], observed: &[T]) -> f64 {
    assert_eq!(ideal.len(), observed.len(), "length mismatch");
    ideal
        .iter()
        .zip(observed)
        .filter_map(|(&i, &o)| {
            let (iv, ov) = (i.to_f64(), o.to_f64());
            (iv.is_finite() && ov.is_finite()).then(|| (ov - iv).abs())
        })
        .fold(0.0, f64::max)
}

/// The before/after pair the paper reports for every experiment:
/// `Ψ_NoPreprocessing` versus `Ψ_Algorithm`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsiReport {
    /// Ψ of the corrupted data, used as-is.
    pub no_preprocessing: f64,
    /// Ψ after the preprocessing algorithm ran.
    pub after: f64,
}

impl PsiReport {
    /// Measures both Ψ values from the pristine, corrupted and preprocessed
    /// buffers.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn measure<T: ValuePixel>(ideal: &[T], corrupted: &[T], preprocessed: &[T]) -> Self {
        PsiReport {
            no_preprocessing: psi(ideal, corrupted),
            after: psi(ideal, preprocessed),
        }
    }

    /// The improvement factor `Ψ_NoPreprocessing / Ψ_Algorithm` — the
    /// paper's headline "order of magnitude in the range ~50 to ~1000".
    /// Returns `f64::INFINITY` when preprocessing removed *all* error, and
    /// 1.0 when there was no error to begin with.
    pub fn improvement_factor(&self) -> f64 {
        if self.no_preprocessing == 0.0 {
            1.0
        } else if self.after == 0.0 {
            f64::INFINITY
        } else {
            self.no_preprocessing / self.after
        }
    }

    /// `true` if preprocessing made the error *worse* — the breakdown regime
    /// past Γ_ini ≈ 0.2 in Fig. 9.
    pub fn deteriorated(&self) -> bool {
        self.after > self.no_preprocessing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_of_identical_data_is_zero() {
        let a = vec![100u16, 200, 300];
        assert_eq!(psi(&a, &a), 0.0);
    }

    #[test]
    fn psi_matches_hand_computation() {
        let ideal = vec![100u16, 200];
        let obs = vec![110u16, 180];
        // (10/100 + 20/200) / 2 = 0.1
        assert!((psi(&ideal, &obs) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn psi_skips_zero_ideals() {
        let ideal = vec![0u16, 100];
        let obs = vec![50u16, 150];
        assert!((psi(&ideal, &obs) - 0.5).abs() < 1e-12);
        assert_eq!(psi(&[0u16, 0], &[5u16, 9]), 0.0);
    }

    #[test]
    fn psi_handles_nan_observations() {
        let ideal = vec![10.0f32, 10.0];
        let obs = vec![f32::NAN, 10.0];
        let p = psi(&ideal, &obs);
        assert!(p.is_finite());
        assert!((p - 0.5).abs() < 1e-12, "NaN counts as relative error 1.0");
    }

    #[test]
    fn psi_empty_is_zero() {
        let e: Vec<u16> = vec![];
        assert_eq!(psi(&e, &e), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn psi_length_mismatch_panics() {
        let _ = psi(&[1u16], &[1u16, 2]);
    }

    #[test]
    fn psi_capped_saturates_wild_samples() {
        let ideal = vec![10.0f32, 10.0];
        let obs = vec![1.0e30f32, 11.0];
        let p = psi_capped(&ideal, &obs, 1.0);
        assert!((p - (1.0 + 0.1) / 2.0).abs() < 1e-9, "got {p}");
        // Uncapped would explode:
        assert!(psi(&ideal, &obs) > 1e27);
        // NaN counts as a fully wrong sample.
        let obs = vec![f32::NAN, 10.0];
        assert!((psi_capped(&ideal, &obs, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn psi_capped_rejects_bad_cap() {
        let _ = psi_capped(&[1.0f32], &[1.0f32], 0.0);
    }

    #[test]
    fn rmse_and_max_abs() {
        let ideal = vec![0.0f32, 0.0, 0.0, 0.0];
        let obs = vec![3.0f32, -4.0, 0.0, 0.0];
        assert!((rmse(&ideal, &obs) - 2.5).abs() < 1e-6);
        assert_eq!(max_abs_error(&ideal, &obs), 4.0);
    }

    #[test]
    fn rmse_skips_non_finite() {
        let ideal = vec![1.0f32, 1.0];
        let obs = vec![f32::INFINITY, 2.0];
        assert!((rmse(&ideal, &obs) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn report_improvement_factor() {
        let r = PsiReport {
            no_preprocessing: 0.12,
            after: 0.001,
        };
        assert!((r.improvement_factor() - 120.0).abs() < 1e-9);
        assert!(!r.deteriorated());

        let worse = PsiReport {
            no_preprocessing: 0.1,
            after: 0.2,
        };
        assert!(worse.deteriorated());
        assert!(worse.improvement_factor() < 1.0);

        let perfect = PsiReport {
            no_preprocessing: 0.1,
            after: 0.0,
        };
        assert_eq!(perfect.improvement_factor(), f64::INFINITY);

        let clean = PsiReport {
            no_preprocessing: 0.0,
            after: 0.0,
        };
        assert_eq!(clean.improvement_factor(), 1.0);
    }

    #[test]
    fn report_measure_wires_both_sides() {
        let ideal = vec![100u16; 8];
        let mut corrupted = ideal.clone();
        corrupted[3] = 200;
        let fixed = ideal.clone();
        let r = PsiReport::measure(&ideal, &corrupted, &fixed);
        assert!(r.no_preprocessing > 0.0);
        assert_eq!(r.after, 0.0);
    }
}
