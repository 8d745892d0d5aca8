//! `Algo_OTIS` — the spatial-locality preprocessing algorithm of §7.
//!
//! OTIS delivers a *single* 3-D radiance cube per field of view — there is no
//! temporal redundancy to vote over, so false alarms ("pseudo-corrections")
//! are far more costly than for NGST. The algorithm therefore combines three
//! defenses (§7.2):
//!
//! 1. **Absolute physical bounds** — thermo-physics puts hard limits on what
//!    the sensor can legitimately report; any out-of-bounds value *is* a
//!    fault. Localized presets ("tropical", "arctic") tighten the global
//!    limits when the scanned geography is known.
//! 2. **The trend rule** — a natural thermal phenomenon (geyser, volcanic
//!    eruption) is thermodynamically incapable of confining itself to a
//!    single pixel: valid exceptions occur as *trends* in a neighborhood,
//!    while deviations confined to one pixel are faults.
//! 3. **Relaxed dynamic thresholds** — the outlier threshold scales with the
//!    neighborhood's own robust dispersion (median absolute deviation) and
//!    with the sensitivity Λ.
//!
//! Repair prefers flipping back a *single bit* of the IEEE-754 word whenever
//! one toggle restores conformance with the neighborhood — the paper's
//! "exceptions manifested as very few nonconforming bit positions are
//! faults" — and falls back to the neighborhood median otherwise.

use crate::container::{Cube, Image};
use crate::error::CoreError;
use crate::sensitivity::Sensitivity;
use crate::traits::PlanePreprocessor;

/// Absolute physical limits for naturally occurring sensor values (§7.2
/// assumption 2), including the paper's localized "tropical"/"arctic"
/// cut-off bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalBounds {
    min: f64,
    max: f64,
}

impl PhysicalBounds {
    /// Creates bounds.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidBounds`] unless `min < max` and both are
    /// finite.
    pub fn new(min: f64, max: f64) -> Result<Self, CoreError> {
        if !(min.is_finite() && max.is_finite() && min < max) {
            return Err(CoreError::InvalidBounds { min, max });
        }
        Ok(PhysicalBounds { min, max })
    }

    /// Global theoretical limits for terrestrial surface temperature, Kelvin.
    pub fn temperature_global() -> Self {
        PhysicalBounds {
            min: 150.0,
            max: 400.0,
        }
    }

    /// Localized cut-off for tropical target areas, Kelvin.
    pub fn tropical() -> Self {
        PhysicalBounds {
            min: 260.0,
            max: 345.0,
        }
    }

    /// Localized cut-off for arctic target areas, Kelvin.
    pub fn arctic() -> Self {
        PhysicalBounds {
            min: 180.0,
            max: 290.0,
        }
    }

    /// Limits for spectral radiance given the largest radiance any in-bounds
    /// temperature can produce (radiance is non-negative by definition).
    pub fn radiance(max_radiance: f64) -> Self {
        PhysicalBounds {
            min: 0.0,
            max: max_radiance,
        }
    }

    /// Lower bound.
    pub fn min(self) -> f64 {
        self.min
    }

    /// Upper bound.
    pub fn max(self) -> f64 {
        self.max
    }

    /// `true` if `v` is finite and inside the bounds.
    #[inline]
    pub fn contains(self, v: f64) -> bool {
        v.is_finite() && v >= self.min && v <= self.max
    }
}

/// The spatial neighborhood consulted around each pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Neighborhood {
    /// The 4-connected cross (up/down/left/right).
    Plus4,
    /// The full 8-connected ring (default; the paper's spatial locality
    /// model performed best with the richer neighborhood).
    #[default]
    Ring8,
}

impl Neighborhood {
    /// The coordinate offsets of this shape.
    pub fn offsets(self) -> &'static [(isize, isize)] {
        match self {
            Neighborhood::Plus4 => &[(0, -1), (-1, 0), (1, 0), (0, 1)],
            Neighborhood::Ring8 => &[
                (-1, -1),
                (0, -1),
                (1, -1),
                (-1, 0),
                (1, 0),
                (-1, 1),
                (0, 1),
                (1, 1),
            ],
        }
    }
}

/// Tuning switches for [`AlgoOtis`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtisConfig {
    /// Spatial neighborhood shape.
    pub neighborhood: Neighborhood,
    /// Fraction of neighbors that must co-deviate (same direction) for an
    /// outlier to be classified a natural trend and retained.
    pub trend_quorum: f64,
    /// Attempt a single-bit repair of the IEEE-754 word before falling back
    /// to median replacement.
    pub bit_repair: bool,
    /// Base multiplier on the neighborhood MAD for the outlier threshold.
    pub k_base: f64,
    /// Floor on the MAD, as a fraction of the plane's robust dynamic range,
    /// so perfectly flat regions don't produce a zero threshold.
    pub mad_floor_frac: f64,
}

impl Default for OtisConfig {
    fn default() -> Self {
        OtisConfig {
            neighborhood: Neighborhood::Ring8,
            trend_quorum: 0.25,
            bit_repair: true,
            k_base: 4.0,
            mad_floor_frac: 0.002,
        }
    }
}

/// What happened to one flagged pixel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Repair {
    /// A single-bit toggle of the IEEE-754 word restored conformance.
    BitFlip {
        /// The toggled bit index (0 = LSB of the 32-bit word).
        bit: u32,
        /// The repaired value.
        value: f32,
    },
    /// No single bit explained the deviation; the neighborhood median was
    /// substituted.
    MedianReplace {
        /// The substituted value.
        value: f32,
    },
}

/// Detailed per-plane outcome, used by the accuracy benchmarks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlaneReport {
    /// Coordinates flagged as faulty, with the repair applied to each.
    pub repairs: Vec<(usize, usize, Repair)>,
    /// Pixels that exceeded the deviation threshold but were retained as
    /// natural trends.
    pub trends_kept: usize,
    /// Pixels rejected because they were outside the physical bounds.
    pub out_of_bounds: usize,
}

/// The paper's custom preprocessing algorithm for the OTIS benchmark.
///
/// ```
/// use preflight_core::{AlgoOtis, Image, PhysicalBounds, PlanePreprocessor, Sensitivity};
///
/// let mut plane = Image::filled(8, 8, 288.0f32); // a calm 288 K scene
/// plane.set(3, 3, 355.0);                        // an isolated impossible spike
/// let algo = AlgoOtis::new(
///     Sensitivity::new(80).unwrap(),
///     PhysicalBounds::temperature_global(),
/// );
/// assert_eq!(algo.preprocess_plane(&mut plane), 1);
/// assert!((plane.get(3, 3) - 288.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoOtis {
    sensitivity: Sensitivity,
    bounds: PhysicalBounds,
    config: OtisConfig,
}

impl AlgoOtis {
    /// Creates the algorithm with default tuning.
    pub fn new(sensitivity: Sensitivity, bounds: PhysicalBounds) -> Self {
        AlgoOtis {
            sensitivity,
            bounds,
            config: OtisConfig::default(),
        }
    }

    /// Creates the algorithm with explicit tuning.
    pub fn with_config(
        sensitivity: Sensitivity,
        bounds: PhysicalBounds,
        config: OtisConfig,
    ) -> Self {
        AlgoOtis {
            sensitivity,
            bounds,
            config,
        }
    }

    /// The configured sensitivity Λ.
    pub fn sensitivity(&self) -> Sensitivity {
        self.sensitivity
    }

    /// The configured physical bounds.
    pub fn bounds(&self) -> PhysicalBounds {
        self.bounds
    }

    /// The configured tuning switches.
    pub fn config(&self) -> OtisConfig {
        self.config
    }

    /// Analyzes and repairs one plane, returning the detailed report.
    /// All decisions are made from the original plane; repairs are applied
    /// in one batch so the result is independent of scan order.
    pub fn analyze_plane(&self, plane: &mut Image<f32>) -> PlaneReport {
        let mut report = PlaneReport::default();
        if self.sensitivity.is_off() || plane.width() < 2 || plane.height() < 2 {
            return report;
        }
        let orig = plane.clone();
        let floor = self.mad_floor(&orig);
        let k = self.config.k_base * self.sensitivity.relaxation();
        let offsets = self.config.neighborhood.offsets();
        let quorum = ((self.config.trend_quorum * offsets.len() as f64).ceil() as usize).max(1);

        let mut neigh: Vec<f64> = Vec::with_capacity(offsets.len());
        let mut devs: Vec<f64> = Vec::with_capacity(offsets.len());
        for y in 0..orig.height() {
            for x in 0..orig.width() {
                let sample = orig.get(x, y);
                let v = f64::from(sample);
                neigh.clear();
                for &(dx, dy) in offsets {
                    let nv = f64::from(orig.get_reflect(x as isize + dx, y as isize + dy));
                    if self.bounds.contains(nv) {
                        neigh.push(nv);
                    }
                }
                if neigh.len() < 3 {
                    // A neighborhood drowned in faults: rely on bounds only.
                    if !self.bounds.contains(v) {
                        report.out_of_bounds += 1;
                        let mid = (self.bounds.min + self.bounds.max) / 2.0;
                        report
                            .repairs
                            .push((x, y, self.repair(sample, mid, f64::INFINITY)));
                    }
                    continue;
                }
                let med = median_f64(&mut neigh);
                devs.clear();
                devs.extend(neigh.iter().map(|&n| (n - med).abs()));
                let mad = median_f64(&mut devs);
                let tau = k * mad.max(floor);

                if !self.bounds.contains(v) {
                    report.out_of_bounds += 1;
                    report.repairs.push((x, y, self.repair(sample, med, tau)));
                    continue;
                }
                let dev = v - med;
                if dev.abs() <= tau {
                    continue;
                }
                // Trend rule: count same-direction co-deviants among the
                // neighbors (measured against this neighborhood's median).
                let co = neigh
                    .iter()
                    .filter(|&&n| (n - med).abs() > tau && (n - med).signum() == dev.signum())
                    .count();
                if co >= quorum {
                    report.trends_kept += 1;
                    continue;
                }
                report.repairs.push((x, y, self.repair(sample, med, tau)));
            }
        }
        for &(x, y, r) in &report.repairs {
            let v = match r {
                Repair::BitFlip { value, .. } => value,
                Repair::MedianReplace { value } => value,
            };
            plane.set(x, y, v);
        }
        report
    }

    /// Repairs every plane of a cube using spatial locality (the mode the
    /// paper found superior), returning the number of modified pixels.
    pub fn preprocess_cube(&self, cube: &mut Cube<f32>) -> usize {
        let mut changed = 0;
        for b in 0..cube.bands() {
            let mut img = cube.plane_image(b);
            changed += self.preprocess_plane(&mut img);
            cube.set_plane(b, &img);
        }
        changed
    }

    /// Repairs a cube using *spectral* locality (neighbors along the
    /// wavelength axis). Provided for the §7.1 comparison — spectral
    /// correlation falls off quickly across bands, so this mode is expected
    /// to underperform the spatial one.
    pub fn preprocess_cube_spectral(&self, cube: &mut Cube<f32>) -> usize {
        if self.sensitivity.is_off() || cube.bands() < 4 {
            return 0;
        }
        let k = self.config.k_base * self.sensitivity.relaxation();
        let mut changed = 0;
        let mut spec: Vec<f32> = Vec::with_capacity(cube.bands());
        let mut neigh: Vec<f64> = Vec::with_capacity(4);
        let mut devs: Vec<f64> = Vec::with_capacity(4);
        for y in 0..cube.height() {
            for x in 0..cube.width() {
                cube.gather_spectrum(x, y, &mut spec);
                let n = spec.len();
                let mut dirty = false;
                let orig = spec.clone();
                for (b, slot) in spec.iter_mut().enumerate() {
                    let v = f64::from(orig[b]);
                    neigh.clear();
                    for db in [-2isize, -1, 1, 2] {
                        let j = crate::container::reflect_index(b as isize + db, n);
                        let nv = f64::from(orig[j]);
                        if self.bounds.contains(nv) {
                            neigh.push(nv);
                        }
                    }
                    if neigh.len() < 3 {
                        continue;
                    }
                    let med = median_f64(&mut neigh);
                    devs.clear();
                    devs.extend(neigh.iter().map(|&q| (q - med).abs()));
                    let mad = median_f64(&mut devs);
                    let span = self.bounds.max - self.bounds.min;
                    let tau = k * mad.max(self.config.mad_floor_frac * span);
                    if !self.bounds.contains(v) || (v - med).abs() > tau {
                        let r = self.repair(orig[b], med, tau);
                        *slot = match r {
                            Repair::BitFlip { value, .. } => value,
                            Repair::MedianReplace { value } => value,
                        };
                        dirty = true;
                        changed += 1;
                    }
                }
                if dirty {
                    cube.scatter_spectrum(x, y, &spec);
                }
            }
        }
        changed
    }

    /// Picks the repair for a faulty value: the single-bit toggle of the
    /// IEEE-754 word that lands closest to the neighborhood median while
    /// conforming (within `tau` and in bounds), else the median itself.
    /// Takes the sample's own `f32` word: widening to `f64` and back may
    /// quiet a signalling NaN, and whether it does depends on the build
    /// profile.
    fn repair(&self, sample: f32, med: f64, tau: f64) -> Repair {
        if self.config.bit_repair {
            let bits = sample.to_bits();
            let mut best: Option<(u32, f32, f64)> = None;
            for bit in 0..32 {
                let cand = f32::from_bits(bits ^ (1 << bit));
                let c = f64::from(cand);
                if !self.bounds.contains(c) || (c - med).abs() > tau {
                    continue;
                }
                let dist = (c - med).abs();
                if best.is_none_or(|(_, _, d)| dist < d) {
                    best = Some((bit, cand, dist));
                }
            }
            if let Some((bit, value, _)) = best {
                return Repair::BitFlip { bit, value };
            }
        }
        Repair::MedianReplace { value: med as f32 }
    }

    fn mad_floor(&self, plane: &Image<f32>) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in plane.as_slice() {
            let v = f64::from(v);
            if self.bounds.contains(v) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let span = if hi > lo {
            hi - lo
        } else {
            self.bounds.max - self.bounds.min
        };
        self.config.mad_floor_frac * span
    }
}

impl PlanePreprocessor<f32> for AlgoOtis {
    fn name(&self) -> &'static str {
        "Algo_OTIS"
    }

    fn preprocess_plane(&self, plane: &mut Image<f32>) -> usize {
        self.analyze_plane(plane).repairs.len()
    }
}

/// Median of a non-empty slice (reorders it).
fn median_f64(v: &mut [f64]) -> f64 {
    debug_assert!(!v.is_empty());
    let mid = v.len() / 2;
    let (_, m, _) = v.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let hi = *m;
    if v.len() % 2 == 1 {
        hi
    } else {
        let (_, m2, _) = v.select_nth_unstable_by(mid - 1, |a, b| a.total_cmp(b));
        (hi + *m2) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::Sensitivity;

    fn algo() -> AlgoOtis {
        AlgoOtis::new(
            Sensitivity::new(80).unwrap(),
            PhysicalBounds::temperature_global(),
        )
    }

    fn flat_plane(w: usize, h: usize, v: f32) -> Image<f32> {
        Image::filled(w, h, v)
    }

    #[test]
    fn bounds_validation_and_presets() {
        assert!(PhysicalBounds::new(1.0, 0.0).is_err());
        assert!(PhysicalBounds::new(f64::NAN, 1.0).is_err());
        let b = PhysicalBounds::tropical();
        assert!(b.contains(300.0));
        assert!(!b.contains(200.0));
        assert!(!b.contains(f64::INFINITY));
        assert!(PhysicalBounds::arctic().contains(250.0));
        assert!(PhysicalBounds::radiance(10.0).contains(0.0));
    }

    #[test]
    fn isolated_spike_is_repaired() {
        let mut p = flat_plane(8, 8, 290.0);
        p.set(4, 4, 389.0); // in bounds but wildly deviant, single pixel
        let rep = algo().analyze_plane(&mut p);
        assert_eq!(rep.repairs.len(), 1);
        assert!((p.get(4, 4) - 290.0).abs() < 1.0, "got {}", p.get(4, 4));
    }

    #[test]
    fn out_of_bounds_always_fault() {
        let mut p = flat_plane(6, 6, 280.0);
        p.set(2, 3, 1.0e20); // absurd — a high-exponent bit flip
        let rep = algo().analyze_plane(&mut p);
        assert_eq!(rep.out_of_bounds, 1);
        assert!((p.get(2, 3) - 280.0).abs() < 1.0);
    }

    #[test]
    fn nan_from_bitflip_is_repaired() {
        let mut p = flat_plane(6, 6, 280.0);
        p.set(1, 1, f32::NAN);
        algo().analyze_plane(&mut p);
        assert!(p.get(1, 1).is_finite());
        assert!((p.get(1, 1) - 280.0).abs() < 1.0);
    }

    #[test]
    fn natural_trend_is_retained() {
        // A 3×3 hot blob (a geyser): every blob pixel co-deviates with its
        // neighbors, so the trend rule must retain all of them.
        let mut p = flat_plane(10, 10, 275.0);
        for y in 4..7 {
            for x in 4..7 {
                p.set(x, y, 320.0);
            }
        }
        let before = p.clone();
        let rep = algo().analyze_plane(&mut p);
        assert_eq!(rep.repairs, vec![], "geyser pixels misclassified as faults");
        assert_eq!(p, before);
        assert!(
            rep.trends_kept > 0,
            "the blob rim must trip the deviation test"
        );
    }

    #[test]
    fn single_pixel_anomaly_is_not_a_trend() {
        // Thermodynamically impossible: one hot pixel with a calm vicinity.
        let mut p = flat_plane(10, 10, 275.0);
        p.set(5, 5, 330.0);
        let rep = algo().analyze_plane(&mut p);
        assert_eq!(rep.repairs.len(), 1);
        assert_eq!(rep.repairs[0].0, 5);
        assert_eq!(rep.repairs[0].1, 5);
    }

    #[test]
    fn single_bit_repair_recovers_exact_value() {
        let mut p = flat_plane(8, 8, 300.0);
        let clean = 300.25f32; // a legitimate small variation
        p.set(3, 3, f32::from_bits(clean.to_bits() ^ (1 << 29))); // exponent-ish flip
        let rep = algo().analyze_plane(&mut p);
        assert_eq!(rep.repairs.len(), 1);
        match rep.repairs[0].2 {
            Repair::BitFlip { bit, value } => {
                assert_eq!(bit, 29);
                assert_eq!(value, clean);
            }
            Repair::MedianReplace { .. } => panic!("bit repair expected"),
        }
        assert_eq!(p.get(3, 3), clean);
    }

    #[test]
    fn bit_repair_disabled_falls_back_to_median() {
        let cfg = OtisConfig {
            bit_repair: false,
            ..OtisConfig::default()
        };
        let a = AlgoOtis::with_config(
            Sensitivity::new(80).unwrap(),
            PhysicalBounds::temperature_global(),
            cfg,
        );
        let mut p = flat_plane(8, 8, 300.0);
        p.set(3, 3, f32::from_bits(300.25f32.to_bits() ^ (1 << 29)));
        let rep = a.analyze_plane(&mut p);
        assert!(matches!(rep.repairs[0].2, Repair::MedianReplace { .. }));
        assert_eq!(p.get(3, 3), 300.0);
    }

    #[test]
    fn clean_smooth_plane_no_false_alarms() {
        let mut p = Image::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, 280.0 + x as f32 * 0.5 + y as f32 * 0.3);
            }
        }
        let before = p.clone();
        let rep = algo().analyze_plane(&mut p);
        assert_eq!(rep.repairs, vec![]);
        assert_eq!(p, before);
    }

    #[test]
    fn sensitivity_off_is_no_op() {
        let a = AlgoOtis::new(Sensitivity::OFF, PhysicalBounds::temperature_global());
        let mut p = flat_plane(6, 6, 280.0);
        p.set(2, 2, 399.0);
        let rep = a.analyze_plane(&mut p);
        assert_eq!(rep.repairs, vec![]);
        assert_eq!(p.get(2, 2), 399.0);
    }

    #[test]
    fn higher_sensitivity_flags_no_fewer_pixels() {
        let mut base = flat_plane(12, 12, 280.0);
        // several moderate anomalies
        base.set(2, 2, 287.0);
        base.set(8, 3, 273.0);
        base.set(5, 9, 291.0);
        let mut prev = 0usize;
        for lambda in [20u32, 50, 80, 100] {
            let a = AlgoOtis::new(
                Sensitivity::new(lambda).unwrap(),
                PhysicalBounds::temperature_global(),
            );
            let mut p = base.clone();
            let n = a.analyze_plane(&mut p).repairs.len();
            assert!(n >= prev, "Λ={lambda} flagged {n} < {prev}");
            prev = n;
        }
    }

    #[test]
    fn plus4_neighborhood_also_repairs() {
        let cfg = OtisConfig {
            neighborhood: Neighborhood::Plus4,
            ..OtisConfig::default()
        };
        let a = AlgoOtis::with_config(
            Sensitivity::new(80).unwrap(),
            PhysicalBounds::temperature_global(),
            cfg,
        );
        let mut p = flat_plane(10, 10, 285.0);
        p.set(4, 4, 360.0);
        let rep = a.analyze_plane(&mut p);
        assert_eq!(rep.repairs.len(), 1);
        assert!((p.get(4, 4) - 285.0).abs() < 1.0);
        assert_eq!(Neighborhood::Plus4.offsets().len(), 4);
        assert_eq!(Neighborhood::Ring8.offsets().len(), 8);
    }

    #[test]
    fn trend_quorum_controls_retention() {
        // A 2-pixel hot pair: with a permissive quorum it reads as a trend;
        // with a demanding quorum it reads as faults.
        let mk = |quorum: f64| {
            AlgoOtis::with_config(
                Sensitivity::new(80).unwrap(),
                PhysicalBounds::temperature_global(),
                OtisConfig {
                    trend_quorum: quorum,
                    ..OtisConfig::default()
                },
            )
        };
        let mut base = flat_plane(10, 10, 280.0);
        base.set(4, 4, 320.0);
        base.set(5, 4, 320.0);

        let mut lenient = base.clone();
        let kept = mk(0.1).analyze_plane(&mut lenient);
        assert!(
            kept.repairs.is_empty(),
            "quorum 0.1 must keep the pair: {:?}",
            kept.repairs
        );
        assert!(kept.trends_kept >= 2);

        let mut strict = base.clone();
        let repaired = mk(0.9).analyze_plane(&mut strict);
        assert_eq!(repaired.repairs.len(), 2, "quorum 0.9 must repair the pair");
    }

    #[test]
    fn tiny_planes_are_left_alone() {
        let a = algo();
        for (w, h) in [(1usize, 1usize), (1, 5), (5, 1)] {
            let mut p = Image::filled(w, h, 280.0f32);
            p.set(0, 0, 399.0);
            let rep = a.analyze_plane(&mut p);
            assert!(rep.repairs.is_empty(), "{w}x{h} plane must be skipped");
        }
    }

    #[test]
    fn plane_report_accounts_out_of_bounds_separately() {
        let mut p = flat_plane(8, 8, 280.0);
        p.set(1, 1, 1.0e12); // out of bounds
        p.set(5, 5, 330.0); // in bounds, isolated outlier
        let rep = algo().analyze_plane(&mut p);
        assert_eq!(rep.out_of_bounds, 1);
        assert_eq!(rep.repairs.len(), 2);
    }

    #[test]
    fn cube_spatial_preprocessing_repairs_each_plane() {
        let mut cube: Cube<f32> = Cube::new(8, 8, 3);
        for b in 0..3 {
            let mut img = flat_plane(8, 8, 270.0 + b as f32 * 10.0);
            img.set(b + 1, b + 2, 395.0);
            cube.set_plane(b, &img);
        }
        let changed = algo().preprocess_cube(&mut cube);
        assert_eq!(changed, 3);
        for b in 0..3 {
            let expect = 270.0 + b as f32 * 10.0;
            assert!(
                cube.plane(b).iter().all(|&v| (v - expect).abs() < 1.0),
                "plane {b} not repaired"
            );
        }
    }

    #[test]
    fn spectral_mode_repairs_along_bands() {
        let mut cube: Cube<f32> = Cube::new(4, 4, 8);
        for b in 0..8 {
            cube.set_plane(b, &flat_plane(4, 4, 280.0 + b as f32));
        }
        cube.set(2, 2, 4, 360.0); // spike along the spectrum
        let changed = algo().preprocess_cube_spectral(&mut cube);
        assert!(changed >= 1);
        assert!((cube.get(2, 2, 4) - 284.0).abs() < 3.0);
    }

    #[test]
    fn median_f64_odd_and_even() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&mut [7.0]), 7.0);
    }
}
