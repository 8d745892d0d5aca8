//! Up-the-ramp detector simulation and the cosmic-ray hit model.
//!
//! NGST near-infrared detectors are read out non-destructively: charge
//! accumulates and each of the `N` readouts samples the running total, so a
//! pixel's temporal series is a noisy ramp whose slope is the source flux.
//! A cosmic-ray hit deposits charge instantaneously, appearing as a step
//! that persists in all later readouts — the signature the CR-rejection
//! stage looks for.

use preflight_core::{Image, ImageStack};
use preflight_datagen::Gaussian;
use rand::{Rng, RngExt};

/// Geometry and noise parameters of the simulated detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Detector width in pixels (the flight article is 1024).
    pub width: usize,
    /// Detector height in pixels.
    pub height: usize,
    /// Readouts per baseline (`N` = 64 in the paper).
    pub frames: usize,
    /// Seconds between readouts (1000 s baseline / 64 readouts ≈ 15.6 s).
    pub frame_interval_s: f64,
    /// RMS read noise in counts per readout.
    pub read_noise: f64,
    /// Dark current in counts per second.
    pub dark_current: f64,
    /// Bias level (counts present at the first readout).
    pub bias: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            width: 128,
            height: 128,
            frames: 64,
            frame_interval_s: 15.625,
            read_noise: 15.0,
            dark_current: 0.02,
            bias: 1_000.0,
        }
    }
}

/// The non-destructive up-the-ramp readout simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpTheRamp {
    config: DetectorConfig,
}

impl UpTheRamp {
    /// Creates the simulator.
    pub fn new(config: DetectorConfig) -> Self {
        UpTheRamp { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Simulates a cosmic-ray-free readout stack for the given flux map
    /// (counts per second per pixel; shape must match the detector).
    ///
    /// # Panics
    /// Panics if the flux map shape differs from the detector geometry.
    pub fn clean_stack(&self, flux: &Image<f32>, rng: &mut impl Rng) -> ImageStack<u16> {
        let c = &self.config;
        assert!(
            flux.width() == c.width && flux.height() == c.height,
            "flux map shape must match the detector"
        );
        let noise = Gaussian::new(0.0, c.read_noise);
        let mut stack = ImageStack::new(c.width, c.height, c.frames);
        let mut series = Vec::with_capacity(c.frames);
        for y in 0..c.height {
            for x in 0..c.width {
                let rate = f64::from(flux.get(x, y)) + c.dark_current;
                series.clear();
                for i in 0..c.frames {
                    let t = i as f64 * c.frame_interval_s;
                    let v = c.bias + rate * t + noise.sample(rng);
                    series.push(v.round().clamp(0.0, f64::from(u16::MAX)) as u16);
                }
                stack.scatter_series(x, y, &series);
            }
        }
        stack
    }
}

/// One cosmic-ray hit: the charge step it deposited and where.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrHit {
    /// Pixel x coordinate.
    pub x: usize,
    /// Pixel y coordinate.
    pub y: usize,
    /// The first readout that contains the deposited charge.
    pub frame: usize,
    /// Step amplitude in counts.
    pub amplitude: u16,
}

/// The cosmic-ray arrival model: the paper anticipates ~10 % of data lost
/// per 1000-second baseline exposure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmicRayModel {
    /// Fraction of pixels struck during one baseline.
    pub pixel_hit_fraction: f64,
    /// Smallest deposited step, counts.
    pub min_amplitude: u16,
    /// Largest deposited step, counts.
    pub max_amplitude: u16,
}

impl Default for CosmicRayModel {
    fn default() -> Self {
        CosmicRayModel {
            pixel_hit_fraction: 0.10,
            min_amplitude: 500,
            max_amplitude: 20_000,
        }
    }
}

impl CosmicRayModel {
    /// Strikes the stack: each pixel is hit with `pixel_hit_fraction`
    /// probability at a uniformly random readout, adding a persistent step
    /// to that readout and all later ones. Returns the ground-truth hits.
    pub fn strike(&self, stack: &mut ImageStack<u16>, rng: &mut impl Rng) -> Vec<CrHit> {
        let mut hits = Vec::new();
        let frames = stack.frames();
        if frames == 0 {
            return hits;
        }
        let mut series = Vec::with_capacity(frames);
        for y in 0..stack.height() {
            for x in 0..stack.width() {
                if rng.random::<f64>() >= self.pixel_hit_fraction {
                    continue;
                }
                let frame = rng.random_range(1..frames.max(2));
                let amplitude = if self.max_amplitude > self.min_amplitude {
                    rng.random_range(self.min_amplitude..=self.max_amplitude)
                } else {
                    self.min_amplitude
                };
                stack.gather_series(x, y, &mut series);
                for v in series.iter_mut().skip(frame) {
                    *v = v.saturating_add(amplitude);
                }
                stack.scatter_series(x, y, &series);
                hits.push(CrHit {
                    x,
                    y,
                    frame,
                    amplitude,
                });
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preflight_faults::seeded_rng;

    fn small_config() -> DetectorConfig {
        DetectorConfig {
            width: 16,
            height: 12,
            frames: 32,
            ..DetectorConfig::default()
        }
    }

    #[test]
    fn ramps_accumulate_at_flux_rate() {
        let det = UpTheRamp::new(DetectorConfig {
            read_noise: 0.0,
            ..small_config()
        });
        let flux = Image::filled(16, 12, 10.0f32);
        let stack = det.clean_stack(&flux, &mut seeded_rng(1));
        let mut s = Vec::new();
        stack.gather_series(3, 3, &mut s);
        // slope ≈ (10 + dark) counts/s × 15.625 s/frame
        let per_frame = (f64::from(s[31]) - f64::from(s[0])) / 31.0;
        let expect = (10.0 + 0.02) * 15.625;
        assert!(
            (per_frame - expect).abs() < 1.5,
            "slope {per_frame} vs {expect}"
        );
        assert!(
            s.windows(2).all(|w| w[1] >= w[0]),
            "noiseless ramp must be monotone"
        );
    }

    #[test]
    fn read_noise_perturbs_but_does_not_bias() {
        let det = UpTheRamp::new(small_config());
        let flux = Image::filled(16, 12, 0.0f32);
        let stack = det.clean_stack(&flux, &mut seeded_rng(2));
        let vals: Vec<f64> = stack.frame(0).iter().map(|&v| f64::from(v)).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 1_000.0).abs() < 5.0, "bias level drifted: {mean}");
        assert!(vals.iter().any(|&v| v != 1_000.0), "noise must act");
    }

    #[test]
    #[should_panic(expected = "flux map shape")]
    fn shape_mismatch_panics() {
        let det = UpTheRamp::new(small_config());
        let flux = Image::filled(8, 8, 1.0f32);
        let _ = det.clean_stack(&flux, &mut seeded_rng(3));
    }

    #[test]
    fn cosmic_rays_hit_expected_fraction() {
        let mut stack: ImageStack<u16> = ImageStack::new(64, 64, 16);
        let model = CosmicRayModel::default();
        let hits = model.strike(&mut stack, &mut seeded_rng(4));
        let frac = hits.len() as f64 / (64.0 * 64.0);
        assert!((frac - 0.10).abs() < 0.02, "hit fraction {frac}");
    }

    #[test]
    fn hits_are_persistent_steps() {
        let mut stack: ImageStack<u16> = ImageStack::new(8, 8, 16);
        stack.as_mut_slice().fill(100);
        let model = CosmicRayModel {
            pixel_hit_fraction: 1.0,
            min_amplitude: 1_000,
            max_amplitude: 1_000,
        };
        let hits = model.strike(&mut stack, &mut seeded_rng(5));
        assert_eq!(hits.len(), 64);
        for h in &hits {
            let mut s = Vec::new();
            stack.gather_series(h.x, h.y, &mut s);
            for (i, &v) in s.iter().enumerate() {
                let expect = if i >= h.frame { 1_100 } else { 100 };
                assert_eq!(v, expect, "pixel ({},{}) frame {i}", h.x, h.y);
            }
        }
    }

    #[test]
    fn zero_fraction_strikes_nothing() {
        let mut stack: ImageStack<u16> = ImageStack::new(8, 8, 4);
        let model = CosmicRayModel {
            pixel_hit_fraction: 0.0,
            ..CosmicRayModel::default()
        };
        assert!(model.strike(&mut stack, &mut seeded_rng(6)).is_empty());
    }

    #[test]
    fn strikes_are_deterministic() {
        let run = |seed| {
            let mut st: ImageStack<u16> = ImageStack::new(16, 16, 8);
            CosmicRayModel::default().strike(&mut st, &mut seeded_rng(seed))
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn saturation_is_clamped_not_wrapped() {
        let mut stack: ImageStack<u16> = ImageStack::new(2, 2, 4);
        stack.as_mut_slice().fill(u16::MAX - 10);
        let model = CosmicRayModel {
            pixel_hit_fraction: 1.0,
            min_amplitude: 5_000,
            max_amplitude: 5_000,
        };
        model.strike(&mut stack, &mut seeded_rng(8));
        assert!(stack.as_slice().iter().all(|&v| v >= u16::MAX - 10));
    }
}
