//! The tuning knobs of the dynamic preprocessing algorithm: the sensitivity
//! parameter Λ (§3.2) and the voter count Υ (§3.3).

use crate::error::CoreError;

/// The sensitivity parameter Λ ∈ `0..=100` of the paper's §3.2.
///
/// Λ scales the preprocessing effort to the environment's fault
/// susceptibility:
///
/// - `Λ = 0` ([`Sensitivity::OFF`]) performs *only* a sanity analysis of the
///   FITS header — no pixel is touched, the overhead is negligible.
/// - Growing Λ lowers the rank cut-off applied to the voter matrix, admitting
///   more XOR differences as voters and widening bit window *B*; more
///   bit-flips become correctable, at the cost of execution time and — past a
///   data-dependent optimum — false alarms (Fig. 2/3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sensitivity(u8);

impl Sensitivity {
    /// Λ = 0: FITS-header sanity analysis only, no pixel correction.
    pub const OFF: Sensitivity = Sensitivity(0);
    /// Λ = 100: the tightest dynamic thresholds the algorithm supports.
    pub const MAX: Sensitivity = Sensitivity(100);

    /// Creates a sensitivity.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidSensitivity`] if `value > 100`.
    pub fn new(value: u32) -> Result<Self, CoreError> {
        if value > 100 {
            return Err(CoreError::InvalidSensitivity { value });
        }
        Ok(Sensitivity(value as u8))
    }

    /// The raw Λ value in `0..=100`.
    pub fn value(self) -> u32 {
        u32::from(self.0)
    }

    /// `true` when Λ = 0 and pixel correction is disabled.
    pub fn is_off(self) -> bool {
        self.0 == 0
    }

    /// The voter-matrix cut-off rank of Algorithm 1, derived from
    ///
    /// ```text
    /// Φ = ⌊ N/4 + ((80 − Λ)/100) · (N/4 − 1) ⌋
    /// ```
    ///
    /// where `N = series_len`. In the paper Φ indexes a pairing way of
    /// `N/2` XOR differences counting **from the smallest**, i.e. the
    /// cut-off sits at the *relative* rank `Φ / (N/2)` of the way's
    /// difference distribution — ≈ 88th percentile at Λ = 0 (conservative:
    /// almost everything is treated as natural variation) shrinking to
    /// ≈ 40th at Λ = 100 (aggressive: most differences become voters).
    /// This method rescales that relative rank onto the `n_diffs` entries
    /// our denser pairing produces, clamped to `1..=n_diffs`: a higher Λ
    /// yields a lower cut-off → more voters (the paper: *"If the
    /// sensitivity is higher, the total voters in the voter matrix will
    /// increase"*). See DESIGN.md for the reconstruction notes on the
    /// paper's OCR-damaged pseudocode.
    pub fn cutoff_rank(self, series_len: usize, n_diffs: usize) -> usize {
        let n4 = series_len as f64 / 4.0;
        let lambda = f64::from(self.0);
        let phi = (n4 + (80.0 - lambda) / 100.0 * (n4 - 1.0)).floor();
        let relative = phi / (series_len as f64 / 2.0);
        let rank = (relative * n_diffs as f64).round();
        (rank as isize).clamp(1, n_diffs.max(1) as isize) as usize
    }

    /// A relaxation factor in `(0, 1]` for value-domain thresholds
    /// (used by `Algo_OTIS`): 1.0 at Λ = 1 shrinking linearly to 0.2 at
    /// Λ = 100. Tighter (smaller) thresholds flag more outliers.
    pub fn relaxation(self) -> f64 {
        let lambda = f64::from(self.0.max(1));
        1.0 - 0.8 * (lambda - 1.0) / 99.0
    }
}

impl Default for Sensitivity {
    /// The paper's experimentally robust midrange default, Λ = 80
    /// (the Φ formula's pivot).
    fn default() -> Self {
        Sensitivity(80)
    }
}

impl std::fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Λ={}", self.0)
    }
}

/// The even voter count Υ of §3.3: each pixel consults Υ/2 temporal neighbors
/// in front and Υ/2 behind.
///
/// The paper finds Υ = 4 best for both benchmarks (§3.3) but studies
/// Υ ∈ {2, 4, 6} across dataset turbulence in §6 / Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Upsilon(usize);

impl Upsilon {
    /// Υ = 2: one neighbor each way — best for very turbulent data (§6).
    pub const TWO: Upsilon = Upsilon(2);
    /// Υ = 4: the paper's recommended default (§3.3).
    pub const FOUR: Upsilon = Upsilon(4);
    /// Υ = 6: three neighbors each way — best for near-constant data (§6).
    pub const SIX: Upsilon = Upsilon(6);

    /// Creates a voter count.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidUpsilon`] unless `value` is even and in
    /// `2..=16`.
    pub fn new(value: usize) -> Result<Self, CoreError> {
        if value == 0 || !value.is_multiple_of(2) || value > 16 {
            return Err(CoreError::InvalidUpsilon { value });
        }
        Ok(Upsilon(value))
    }

    /// The raw Υ value.
    pub fn value(self) -> usize {
        self.0
    }

    /// Υ/2 — the number of neighbors consulted in each temporal direction.
    pub fn half(self) -> usize {
        self.0 / 2
    }

    /// The minimum series length the voter matrix needs (`Υ/2 + 1` samples so
    /// every reflection lands on a distinct neighbor).
    pub fn min_series_len(self) -> usize {
        self.half() + 1
    }
}

impl Default for Upsilon {
    fn default() -> Self {
        Upsilon::FOUR
    }
}

impl std::fmt::Display for Upsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Υ={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_validates_range() {
        assert!(Sensitivity::new(0).is_ok());
        assert!(Sensitivity::new(100).is_ok());
        assert_eq!(
            Sensitivity::new(101).unwrap_err(),
            CoreError::InvalidSensitivity { value: 101 }
        );
    }

    #[test]
    fn sensitivity_off_detection() {
        assert!(Sensitivity::OFF.is_off());
        assert!(!Sensitivity::new(1).unwrap().is_off());
        assert_eq!(Sensitivity::default().value(), 80);
    }

    #[test]
    fn cutoff_rank_matches_paper_formula_at_n64() {
        // N = 64 → N/4 = 16, N/4 − 1 = 15, way size N/2 = 32.
        let n = 64;
        // On a way of exactly N/2 = 32 diffs the rank is Φ itself:
        // Λ = 0 → Φ = ⌊16 + 0.8·15⌋ = 28 (88th percentile).
        assert_eq!(Sensitivity::new(0).unwrap().cutoff_rank(n, 32), 28);
        // Λ = 80 → Φ = 16 (the 50 % pivot).
        assert_eq!(Sensitivity::new(80).unwrap().cutoff_rank(n, 32), 16);
        // Λ = 100 → Φ = ⌊16 − 0.2·15⌋ = 13.
        assert_eq!(Sensitivity::new(100).unwrap().cutoff_rank(n, 32), 13);
        // On our denser 63-diff ways the relative rank is preserved:
        assert_eq!(Sensitivity::new(0).unwrap().cutoff_rank(n, 63), 55); // 28/32 · 63
        assert_eq!(Sensitivity::new(80).unwrap().cutoff_rank(n, 63), 32);
    }

    #[test]
    fn cutoff_rank_monotone_nonincreasing_in_lambda() {
        let mut prev = usize::MAX;
        for lambda in 0..=100 {
            let r = Sensitivity::new(lambda).unwrap().cutoff_rank(64, 63);
            assert!(
                r <= prev,
                "rank must not grow with Λ (Λ={lambda}: {r} > {prev})"
            );
            assert!(r >= 1);
            prev = r;
        }
    }

    #[test]
    fn cutoff_rank_clamps_to_diff_count() {
        // Tiny series: rank must stay within the available diffs.
        for lambda in [0, 40, 100] {
            let r = Sensitivity::new(lambda).unwrap().cutoff_rank(4, 3);
            assert!((1..=3).contains(&r));
        }
        // Degenerate: zero diffs still yields rank 1 (callers guard length).
        assert_eq!(Sensitivity::new(50).unwrap().cutoff_rank(4, 0), 1);
    }

    #[test]
    fn relaxation_shrinks_with_lambda() {
        let lo = Sensitivity::new(1).unwrap().relaxation();
        let hi = Sensitivity::new(100).unwrap().relaxation();
        assert!((lo - 1.0).abs() < 1e-12);
        assert!((hi - 0.2).abs() < 1e-12);
        let mut prev = f64::INFINITY;
        for lambda in 1..=100 {
            let r = Sensitivity::new(lambda).unwrap().relaxation();
            assert!(r <= prev);
            assert!(r > 0.0);
            prev = r;
        }
    }

    #[test]
    fn upsilon_validation() {
        assert!(Upsilon::new(2).is_ok());
        assert!(Upsilon::new(4).is_ok());
        assert!(Upsilon::new(16).is_ok());
        assert!(Upsilon::new(0).is_err());
        assert!(Upsilon::new(3).is_err());
        assert!(Upsilon::new(18).is_err());
        assert_eq!(Upsilon::FOUR.half(), 2);
        assert_eq!(Upsilon::SIX.min_series_len(), 4);
        assert_eq!(Upsilon::default(), Upsilon::FOUR);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Sensitivity::new(42).unwrap().to_string(), "Λ=42");
        assert_eq!(Upsilon::FOUR.to_string(), "Υ=4");
    }
}
