//! The value-based smoothing baselines of §4.1 (Algorithm 2).
//!
//! Median smoothing with a sliding window of three samples — the width the
//! paper found optimal (*"it cuts down on the false alarms caused by windows
//! of higher width while still retaining nearly identical correction
//! potential"*) — plus the mean smoother it is compared against.
//!
//! Algorithm 2 as printed is a *running* (in-place, sequential) median: the
//! window at position `i` already contains the smoothed value at `i − 1`.
//! [`MedianSmoother`] reproduces that faithfully by default;
//! [`MedianSmoother::buffered`] provides the order-independent textbook
//! variant for comparison.

use crate::container::Image;
use crate::pixel::{median3, ValuePixel};
use crate::traits::{each_lane, Exec, PlanePreprocessor, SeriesPreprocessor};

/// Simple median smoothing with a window of width three (Algorithm 2).
///
/// ```
/// use preflight_core::{MedianSmoother, SeriesPreprocessor};
///
/// let mut series = vec![100u16, 100, 100, 60_000, 100, 100, 100];
/// SeriesPreprocessor::<u16>::preprocess(&MedianSmoother::new(), &mut series);
/// assert_eq!(series, vec![100; 7]); // the spike is outvoted
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MedianSmoother {
    buffered: bool,
}

impl MedianSmoother {
    /// The paper-faithful running (in-place) median.
    pub fn new() -> Self {
        MedianSmoother { buffered: false }
    }

    /// The order-independent variant computing every window from the
    /// original data.
    pub fn buffered() -> Self {
        MedianSmoother { buffered: true }
    }

    /// `true` if this instance computes windows from the original data.
    pub fn is_buffered(&self) -> bool {
        self.buffered
    }

    fn smooth<T: ValuePixel>(&self, series: &mut [T]) -> usize {
        let n = series.len();
        if n < 3 {
            return 0;
        }
        let mut changed = 0;
        if self.buffered {
            let orig = series.to_vec();
            let mut write = |series: &mut [T], i: usize, v: T| {
                if series[i] != v {
                    series[i] = v;
                    changed += 1;
                }
            };
            write(series, 0, median3(orig[0], orig[1], orig[2]));
            for i in 1..n - 1 {
                write(series, i, median3(orig[i - 1], orig[i], orig[i + 1]));
            }
            write(
                series,
                n - 1,
                median3(orig[n - 3], orig[n - 2], orig[n - 1]),
            );
        } else {
            // Algorithm 2 verbatim (translated to 0-based indices):
            //   P(1)   = Median{P(1), P(2), P(3)}
            //   P(i)   = Median{P(i−1), P(i), P(i+1)}   for i = 2..N−1
            //   P(N)   = Median{P(N−2), P(N−1), P(N)}
            let mut write = |series: &mut [T], i: usize, v: T| {
                if series[i] != v {
                    series[i] = v;
                    changed += 1;
                }
            };
            let m = median3(series[0], series[1], series[2]);
            write(series, 0, m);
            for i in 1..n - 1 {
                let m = median3(series[i - 1], series[i], series[i + 1]);
                write(series, i, m);
            }
            let m = median3(series[n - 3], series[n - 2], series[n - 1]);
            write(series, n - 1, m);
        }
        changed
    }
}

impl<T: ValuePixel> SeriesPreprocessor<T> for MedianSmoother {
    fn name(&self) -> &'static str {
        "MedianSmoothing"
    }

    /// Smooths lane by lane; the single code path uses only the context's
    /// scratch, for the lane blocks.
    fn preprocess_rows(&self, rows: &mut [&mut [T]], cx: &mut Exec<'_, T>) -> usize {
        each_lane(self, rows, cx)
    }

    /// Smooths the one series; the single code path ignores the context.
    fn preprocess_in(&self, series: &mut [T], _cx: &mut Exec<'_, T>) -> usize {
        self.smooth(series)
    }
}

impl<T: ValuePixel> PlanePreprocessor<T> for MedianSmoother {
    fn name(&self) -> &'static str {
        "MedianSmoothing"
    }

    /// The OTIS adaptation (§7.3): the sliding window runs along each row of
    /// the plane, exploiting spatial instead of temporal locality.
    fn preprocess_plane(&self, plane: &mut Image<T>) -> usize {
        let mut changed = 0;
        for y in 0..plane.height() {
            changed += self.smooth(plane.row_mut(y));
        }
        changed
    }
}

/// Mean smoothing with a window of width three.
///
/// Included because the paper dismisses it (*"far better results than Mean
/// Smoothing, due to the better robustness of median over mean"*) — the
/// benchmarks verify that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeanSmoother;

impl MeanSmoother {
    /// Creates the mean smoother.
    pub fn new() -> Self {
        MeanSmoother
    }

    fn smooth<T: ValuePixel>(&self, series: &mut [T]) -> usize {
        let n = series.len();
        if n < 3 {
            return 0;
        }
        let orig: Vec<f64> = series.iter().map(|v| v.to_f64()).collect();
        let mut changed = 0;
        let mut write = |series: &mut [T], i: usize, v: f64| {
            let v = T::from_f64(v);
            if series[i] != v {
                series[i] = v;
                changed += 1;
            }
        };
        write(series, 0, (orig[0] + orig[1] + orig[2]) / 3.0);
        for i in 1..n - 1 {
            write(series, i, (orig[i - 1] + orig[i] + orig[i + 1]) / 3.0);
        }
        write(
            series,
            n - 1,
            (orig[n - 3] + orig[n - 2] + orig[n - 1]) / 3.0,
        );
        changed
    }
}

impl<T: ValuePixel> SeriesPreprocessor<T> for MeanSmoother {
    fn name(&self) -> &'static str {
        "MeanSmoothing"
    }

    /// Smooths lane by lane; the single code path uses only the context's
    /// scratch, for the lane blocks.
    fn preprocess_rows(&self, rows: &mut [&mut [T]], cx: &mut Exec<'_, T>) -> usize {
        each_lane(self, rows, cx)
    }

    /// Smooths the one series; the single code path ignores the context.
    fn preprocess_in(&self, series: &mut [T], _cx: &mut Exec<'_, T>) -> usize {
        self.smooth(series)
    }
}

impl<T: ValuePixel> PlanePreprocessor<T> for MeanSmoother {
    fn name(&self) -> &'static str {
        "MeanSmoothing"
    }

    fn preprocess_plane(&self, plane: &mut Image<T>) -> usize {
        let mut changed = 0;
        for y in 0..plane.height() {
            changed += self.smooth(plane.row_mut(y));
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_removes_isolated_spike() {
        let mut s = vec![10u16, 10, 10, 60_000, 10, 10, 10];
        let changed = SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut s);
        assert_eq!(s, vec![10; 7]);
        assert_eq!(changed, 1);
    }

    #[test]
    fn median_preserves_monotone_ramp_interior() {
        // Algorithm 2's endpoint windows pull the first/last sample inward
        // (P(1)=median{P1,P2,P3}); the interior of a monotone ramp is fixed.
        let clean: Vec<u16> = (0..20).map(|i| 100 + 10 * i).collect();
        let mut s = clean.clone();
        SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut s);
        assert_eq!(&s[1..19], &clean[1..19]);
        assert_eq!(s[0], clean[1], "P(1) = median{{P1,P2,P3}} on a ramp");
        assert_eq!(
            s[19], clean[18],
            "P(N) = median{{P(N-2),P(N-1),P(N)}} on a ramp"
        );
    }

    #[test]
    fn median_endpoints_follow_algorithm2() {
        // P(1) = median{P1,P2,P3}; P(N) = median{P(N−2),P(N−1),P(N)}.
        let mut s = vec![99u16, 5, 6, 7, 0];
        SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut s);
        assert_eq!(s[0], 6);
        assert_eq!(s[4], 6);
    }

    #[test]
    fn median_running_vs_buffered_differ_on_alternations() {
        // Alternating spikes: the buffered median sees spike-flanked windows
        // and keeps a spike; the running median has already flattened the
        // left flank and removes them all.
        let mut run = vec![10u16, 500, 10, 500, 10, 10];
        let mut buf = run.clone();
        SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut run);
        SeriesPreprocessor::preprocess(&MedianSmoother::buffered(), &mut buf);
        assert_eq!(run, vec![10, 10, 10, 10, 10, 10]);
        assert_eq!(buf, vec![10, 10, 500, 10, 10, 10]);
    }

    #[test]
    fn median_cannot_remove_width_two_plateau() {
        // A window of three can never outvote two adjacent spikes — the
        // paper's rationale for bit-level voting under correlated faults.
        let mut s = vec![10u16, 10, 500, 500, 10, 10];
        SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut s);
        assert_eq!(s, vec![10, 10, 500, 500, 10, 10]);
    }

    #[test]
    fn median_short_series_untouched() {
        let mut s = vec![1u16, 2];
        assert_eq!(
            SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut s),
            0
        );
        assert_eq!(s, vec![1, 2]);
    }

    #[test]
    fn median_output_values_come_from_input() {
        let orig = vec![3u16, 9, 1, 7, 5, 2, 8];
        let mut s = orig.clone();
        SeriesPreprocessor::preprocess(&MedianSmoother::buffered(), &mut s);
        for v in s {
            assert!(orig.contains(&v), "median must select an existing value");
        }
    }

    #[test]
    fn median_on_floats() {
        let mut s = vec![1.0f32, 1.0, 1.0e20, 1.0, 1.0];
        SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut s);
        assert_eq!(s, vec![1.0; 5]);
    }

    #[test]
    fn median_plane_runs_along_rows() {
        let mut img = Image::from_vec(
            5,
            2,
            vec![
                7u16, 7, 7, 900, 7, //
                3, 3, 3, 3, 3,
            ],
        )
        .unwrap();
        let changed = PlanePreprocessor::preprocess_plane(&MedianSmoother::new(), &mut img);
        assert_eq!(changed, 1);
        assert_eq!(img.row(0), &[7, 7, 7, 7, 7]);
        assert_eq!(img.row(1), &[3, 3, 3, 3, 3]);
    }

    #[test]
    fn mean_blurs_spike_but_does_not_remove_it() {
        let mut med = vec![10u16, 10, 10, 610, 10, 10, 10];
        let mut mea = med.clone();
        SeriesPreprocessor::preprocess(&MedianSmoother::new(), &mut med);
        SeriesPreprocessor::preprocess(&MeanSmoother::new(), &mut mea);
        let err_med: i64 = med.iter().map(|&v| (i64::from(v) - 10).abs()).sum();
        let err_mea: i64 = mea.iter().map(|&v| (i64::from(v) - 10).abs()).sum();
        assert!(
            err_med < err_mea,
            "median ({err_med}) must be more robust than mean ({err_mea})"
        );
    }

    #[test]
    fn mean_of_constant_is_identity() {
        let mut s = vec![42u16; 10];
        assert_eq!(
            SeriesPreprocessor::preprocess(&MeanSmoother::new(), &mut s),
            0
        );
        assert_eq!(s, vec![42; 10]);
    }

    #[test]
    fn mean_rounds_for_integer_pixels() {
        let mut s = vec![1u16, 2, 2, 2, 1];
        SeriesPreprocessor::preprocess(&MeanSmoother::new(), &mut s);
        // window means: (1+2+2)/3 = 1.67→2, (1+2+2)/3→2, 2, (2+2+1)/3→2, 2
        assert_eq!(s, vec![2, 2, 2, 2, 2]);
    }
}
