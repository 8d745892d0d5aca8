//! Bit-level scoring of preprocessing decisions.
//!
//! Given the pristine buffer, the corrupted buffer and the algorithm's
//! output, every bit falls into one of four classes:
//!
//! - **true correction** — the algorithm toggled a bit the fault flipped
//!   (restoring the pristine value);
//! - **false alarm** — the algorithm toggled a clean bit (the paper's
//!   "pseudo-correction", the failure mode that makes over-high sensitivity
//!   and the Fig. 9 breakdown region counterproductive);
//! - **miss** — a flipped bit survived preprocessing;
//! - the rest — clean bits left alone.

use preflight_core::BitPixel;

/// Bit-level confusion counts for one preprocessing run.
///
/// ```
/// use preflight_metrics::BitConfusion;
///
/// let clean     = vec![0x0F00u16; 4];
/// let corrupted = vec![0x0F00, 0x0F00, 0x2F00, 0x0F00]; // one flip
/// let repaired  = clean.clone();                        // perfect repair
/// let c = BitConfusion::score(&clean, &corrupted, &repaired);
/// assert_eq!(c.true_corrections, 1);
/// assert_eq!(c.detection_rate(), 1.0);
/// assert_eq!(c.false_alarm_rate(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitConfusion {
    /// Flipped bits the algorithm restored.
    pub true_corrections: u64,
    /// Clean bits the algorithm damaged (pseudo-corrections).
    pub false_alarms: u64,
    /// Flipped bits the algorithm failed to restore.
    pub misses: u64,
    /// Total bits flipped by the fault injector.
    pub total_flipped: u64,
    /// Total bits examined.
    pub total_bits: u64,
}

impl BitConfusion {
    /// Scores `repaired` against the pristine `clean` and the post-injection
    /// `corrupted` buffers.
    ///
    /// # Panics
    /// Panics if buffer lengths differ.
    pub fn score<T: BitPixel>(clean: &[T], corrupted: &[T], repaired: &[T]) -> Self {
        assert!(
            clean.len() == corrupted.len() && clean.len() == repaired.len(),
            "buffer length mismatch"
        );
        let mut c = BitConfusion {
            total_bits: (clean.len() as u64) * u64::from(T::BITS),
            ..Default::default()
        };
        for ((&cl, &co), &re) in clean.iter().zip(corrupted).zip(repaired) {
            let flipped = cl.xor(co);
            let toggled = co.xor(re);
            c.true_corrections += u64::from(toggled.and(flipped).count_ones());
            c.false_alarms += u64::from(toggled.and(flipped.not()).count_ones());
            c.misses += u64::from(flipped.and(toggled.not()).count_ones());
            c.total_flipped += u64::from(flipped.count_ones());
        }
        c
    }

    /// Scores `f32` buffers via their raw bit patterns.
    ///
    /// # Panics
    /// Panics if buffer lengths differ.
    pub fn score_f32(clean: &[f32], corrupted: &[f32], repaired: &[f32]) -> Self {
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        Self::score(&to_bits(clean), &to_bits(corrupted), &to_bits(repaired))
    }

    /// Fraction of flipped bits that were restored (recall). 1.0 when
    /// nothing was flipped.
    pub fn detection_rate(&self) -> f64 {
        if self.total_flipped == 0 {
            1.0
        } else {
            self.true_corrections as f64 / self.total_flipped as f64
        }
    }

    /// False alarms per examined bit.
    pub fn false_alarm_rate(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.false_alarms as f64 / self.total_bits as f64
        }
    }

    /// Merges counts from another run (e.g. accumulating over a stack).
    pub fn merge(&mut self, other: &BitConfusion) {
        self.true_corrections += other.true_corrections;
        self.false_alarms += other.false_alarms;
        self.misses += other.misses;
        self.total_flipped += other.total_flipped;
        self.total_bits += other.total_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_repair() {
        let clean = vec![0xAAAAu16; 4];
        let mut corrupted = clean.clone();
        corrupted[1] ^= 1 << 3;
        corrupted[2] ^= 1 << 15;
        let repaired = clean.clone();
        let c = BitConfusion::score(&clean, &corrupted, &repaired);
        assert_eq!(c.true_corrections, 2);
        assert_eq!(c.false_alarms, 0);
        assert_eq!(c.misses, 0);
        assert_eq!(c.total_flipped, 2);
        assert_eq!(c.total_bits, 64);
        assert_eq!(c.detection_rate(), 1.0);
        assert_eq!(c.false_alarm_rate(), 0.0);
    }

    #[test]
    fn misses_and_false_alarms() {
        let clean = vec![0x0000u16; 2];
        let mut corrupted = clean.clone();
        corrupted[0] ^= 0b11; // two flips in word 0
        let mut repaired = corrupted.clone();
        repaired[0] ^= 0b01; // fix one of them…
        repaired[1] ^= 0b100; // …and damage word 1
        let c = BitConfusion::score(&clean, &corrupted, &repaired);
        assert_eq!(c.true_corrections, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.false_alarms, 1);
        assert_eq!(c.detection_rate(), 0.5);
        assert!((c.false_alarm_rate() - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn do_nothing_algorithm_misses_everything() {
        let clean = vec![0x1234u16; 8];
        let mut corrupted = clean.clone();
        corrupted[4] ^= 0xFF;
        let c = BitConfusion::score(&clean, &corrupted, &corrupted);
        assert_eq!(c.true_corrections, 0);
        assert_eq!(c.misses, 8);
        assert_eq!(c.false_alarms, 0);
    }

    #[test]
    fn no_faults_no_credit_needed() {
        let clean = vec![7u16; 3];
        let c = BitConfusion::score(&clean, &clean, &clean);
        assert_eq!(c.detection_rate(), 1.0);
        assert_eq!(c.total_flipped, 0);
    }

    #[test]
    fn f32_scoring_via_bits() {
        let clean = vec![300.0f32; 2];
        let mut corrupted = clean.clone();
        corrupted[0] = f32::from_bits(corrupted[0].to_bits() ^ (1 << 30));
        let c = BitConfusion::score_f32(&clean, &corrupted, &clean);
        assert_eq!(c.true_corrections, 1);
        assert_eq!(c.total_bits, 64);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BitConfusion {
            true_corrections: 1,
            false_alarms: 2,
            misses: 3,
            total_flipped: 4,
            total_bits: 100,
        };
        a.merge(&a.clone());
        assert_eq!(a.true_corrections, 2);
        assert_eq!(a.total_bits, 200);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = BitConfusion::score(&[1u16], &[1u16, 2], &[1u16]);
    }
}
