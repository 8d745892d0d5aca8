//! Cosmic-ray rejection by two-point differences and slope estimation.
//!
//! The published NGST approach (the paper's refs [10–12]) digitally analyzes
//! the multiple readouts per baseline *"using comparison and integration to
//! obtain one image per baseline"*. A cosmic-ray hit is a step in the ramp:
//! its first difference is a gross outlier against the per-frame accumulation
//! rate. The rejector flags those differences robustly (median + MAD) and
//! estimates the flux from the surviving ones.

use preflight_core::{Image, ImageStack};

/// The per-series outcome of cosmic-ray rejection.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRejection {
    /// Estimated accumulation rate, counts per second.
    pub rate: f64,
    /// Indices `i` whose difference `P(i+1) − P(i)` was rejected as a jump.
    pub jumps: Vec<usize>,
}

/// Two-point-difference cosmic-ray rejector.
///
/// ```
/// use preflight_ngst::CrRejector;
///
/// // A 10-counts/frame ramp sampled every 2 s takes a 5000-count CR hit.
/// let mut ramp: Vec<u16> = (0..32).map(|i| 1_000 + 10 * i).collect();
/// for v in ramp.iter_mut().skip(20) { *v += 5_000; }
/// let r = CrRejector::new().reject_series(&ramp, 2.0);
/// assert_eq!(r.jumps, vec![19]);             // the step is rejected…
/// assert!((r.rate - 5.0).abs() < 1e-9);      // …and the flux is unbiased
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrRejector {
    /// Rejection threshold in robust sigmas (MAD-scaled).
    pub k: f64,
    /// An absolute floor on the jump threshold, counts — keeps pure read
    /// noise from triggering rejections on flat ramps.
    pub floor: f64,
}

impl Default for CrRejector {
    fn default() -> Self {
        CrRejector {
            k: 6.0,
            floor: 60.0,
        }
    }
}

impl CrRejector {
    /// Creates a rejector with the default tuning.
    pub fn new() -> Self {
        CrRejector::default()
    }

    /// Rejects jumps from one temporal series sampled every `dt` seconds.
    ///
    /// Series shorter than 3 samples return a best-effort rate with no
    /// rejection.
    pub fn reject_series(&self, series: &[u16], dt: f64) -> SeriesRejection {
        let n = series.len();
        assert!(dt > 0.0, "frame interval must be positive");
        if n < 2 {
            return SeriesRejection {
                rate: 0.0,
                jumps: Vec::new(),
            };
        }
        let diffs: Vec<f64> = series
            .windows(2)
            .map(|w| f64::from(w[1]) - f64::from(w[0]))
            .collect();
        if n < 3 {
            return SeriesRejection {
                rate: diffs[0] / dt,
                jumps: Vec::new(),
            };
        }
        let med = median(&mut diffs.clone());
        let mad = median(&mut diffs.iter().map(|d| (d - med).abs()).collect::<Vec<_>>());
        let tau = (self.k * mad * 1.4826).max(self.floor);
        let mut jumps = Vec::new();
        let mut sum = 0.0;
        let mut kept = 0usize;
        for (i, &d) in diffs.iter().enumerate() {
            if (d - med).abs() > tau {
                jumps.push(i);
            } else {
                sum += d;
                kept += 1;
            }
        }
        let rate = if kept > 0 {
            sum / kept as f64 / dt
        } else {
            med / dt
        };
        SeriesRejection { rate, jumps }
    }

    /// Rejects jumps across a whole stack, returning the rate image and the
    /// total number of rejected jumps ("comparison and integration to obtain
    /// one image per baseline").
    pub fn reject_stack(&self, stack: &ImageStack<u16>, dt: f64) -> (Image<f32>, usize) {
        let mut rate = Image::new(stack.width(), stack.height());
        let mut total_jumps = 0;
        let mut series = Vec::with_capacity(stack.frames());
        for y in 0..stack.height() {
            for x in 0..stack.width() {
                stack.gather_series(x, y, &mut series);
                let r = self.reject_series(&series, dt);
                rate.set(x, y, r.rate as f32);
                total_jumps += r.jumps.len();
            }
        }
        (rate, total_jumps)
    }

    /// Integrates a rate image back into the final counts frame the master
    /// downlinks: `bias + rate · T_total`, clamped to the 16-bit gamut.
    pub fn integrate(rate: &Image<f32>, bias: f64, total_seconds: f64) -> Image<u16> {
        rate.map(|r| {
            (bias + f64::from(r) * total_seconds)
                .round()
                .clamp(0.0, 65_535.0) as u16
        })
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    let (_, m, _) = v.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    *m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{CosmicRayModel, DetectorConfig, UpTheRamp};
    use preflight_faults::seeded_rng;

    #[test]
    fn clean_ramp_rate_is_recovered() {
        // 12 counts/frame at dt = 4 s → 3 counts/s.
        let series: Vec<u16> = (0..32).map(|i| 1_000 + 12 * i).collect();
        let r = CrRejector::new().reject_series(&series, 4.0);
        assert!(r.jumps.is_empty());
        assert!((r.rate - 3.0).abs() < 1e-9, "rate {}", r.rate);
    }

    #[test]
    fn single_step_is_rejected_and_rate_unbiased() {
        let mut series: Vec<u16> = (0..32).map(|i| 1_000 + 12 * i).collect();
        for v in series.iter_mut().skip(20) {
            *v += 5_000; // CR hit at frame 20
        }
        let r = CrRejector::new().reject_series(&series, 4.0);
        assert_eq!(
            r.jumps,
            vec![19],
            "the difference into frame 20 is the jump"
        );
        assert!(
            (r.rate - 3.0).abs() < 1e-9,
            "rate {} biased by the hit",
            r.rate
        );
    }

    #[test]
    fn multiple_steps_rejected() {
        let mut series: Vec<u16> = (0..64).map(|i| 500 + 10 * i).collect();
        for v in series.iter_mut().skip(10) {
            *v += 2_000;
        }
        for v in series.iter_mut().skip(40) {
            *v += 3_000;
        }
        let r = CrRejector::new().reject_series(&series, 1.0);
        assert_eq!(r.jumps, vec![9, 39]);
        assert!((r.rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn short_series_do_not_panic() {
        let r = CrRejector::new().reject_series(&[], 1.0);
        assert_eq!(r.rate, 0.0);
        let r = CrRejector::new().reject_series(&[5], 1.0);
        assert_eq!(r.rate, 0.0);
        let r = CrRejector::new().reject_series(&[5, 15], 1.0);
        assert!((r.rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_with_simulated_detector() {
        let cfg = DetectorConfig {
            width: 24,
            height: 24,
            frames: 48,
            read_noise: 10.0,
            ..DetectorConfig::default()
        };
        let det = UpTheRamp::new(cfg);
        let flux = preflight_core::Image::filled(24, 24, 20.0f32);
        let mut stack = det.clean_stack(&flux, &mut seeded_rng(1));
        let clean_rate = CrRejector::new()
            .reject_stack(&stack, cfg.frame_interval_s)
            .0;

        let hits = CosmicRayModel::default().strike(&mut stack, &mut seeded_rng(2));
        let (rate, jumps) = CrRejector::new().reject_stack(&stack, cfg.frame_interval_s);
        assert!(
            jumps as f64 >= 0.8 * hits.len() as f64,
            "rejected {jumps} of {} hits",
            hits.len()
        );
        // Rates with hits rejected must track the clean rates closely.
        let mut worst: f32 = 0.0;
        for (a, b) in rate.as_slice().iter().zip(clean_rate.as_slice()) {
            worst = worst.max((a - b).abs());
        }
        assert!(worst < 2.0, "worst rate error {worst} counts/s");
    }

    #[test]
    fn integrate_reconstructs_final_counts() {
        let rate = Image::filled(4, 4, 2.0f32);
        let img = CrRejector::integrate(&rate, 1_000.0, 500.0);
        assert!(img.as_slice().iter().all(|&v| v == 2_000));
        // Saturation clamps:
        let rate = Image::filled(2, 2, 1.0e6f32);
        let img = CrRejector::integrate(&rate, 0.0, 1_000.0);
        assert!(img.as_slice().iter().all(|&v| v == u16::MAX));
    }

    #[test]
    #[should_panic(expected = "frame interval")]
    fn zero_dt_panics() {
        let _ = CrRejector::new().reject_series(&[1, 2, 3], 0.0);
    }
}
