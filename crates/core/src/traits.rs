//! Preprocessor traits shared by the dynamic algorithm and the baselines.

use crate::container::Image;
use crate::kernel::Kernel;
use crate::voter::VoterScratch;
use preflight_obs::Obs;

/// The execution context of one [`SeriesPreprocessor::preprocess_rows`] or
/// [`SeriesPreprocessor::preprocess_in`] call: everything a driver decides
/// that is not the data itself.
///
/// Bundling the three into one required argument means a wrapper (such as
/// the supervisor's ladder rung) cannot forward the data and quietly drop
/// the kernel, the scratch or the observer: it has to hand the whole
/// context on. A tuner decision is not part of it: callers apply one by
/// running the [`tuned`](crate::AlgoNgst::tuned) algorithm.
#[derive(Debug)]
pub struct Exec<'a, T> {
    /// The voter-correction kernel. Output is bit-identical for every
    /// kernel; algorithms with a single code path ignore it.
    pub kernel: Kernel,
    /// Reusable per-worker buffers, so a loop over many calls reaches a
    /// zero-alloc steady state. Purely an allocation-recycling vehicle.
    pub scratch: &'a mut VoterScratch<T>,
    /// Where per-stage spans land (`bitslice.transpose`, ...).
    pub obs: &'a Obs,
}

/// A preprocessing algorithm operating on the temporal series of one
/// coordinate (the NGST shape: `N` readouts of the same pixel).
///
/// Implementations repair suspected bit-flips *in place* and return the
/// number of samples they modified. A series shorter than the algorithm's
/// minimum window is left untouched (returning 0) rather than failing, so
/// stack drivers never abort mid-image; use the algorithm's own fallible
/// constructor/validator when strictness is wanted.
///
/// Two required entry points take series in the two layouts a caller
/// holds them in: [`preprocess_rows`](Self::preprocess_rows) for the lanes
/// of a frame-major stack (the stack driver's band) and
/// [`preprocess_in`](Self::preprocess_in) for one contiguous series. Both
/// are required, not provided, so a wrapper cannot forward one and quietly
/// fall back to a slow path for the other. Only the context-free
/// convenience [`preprocess`](Self::preprocess) is provided.
pub trait SeriesPreprocessor<T> {
    /// A short human-readable identifier (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Repairs, in place, the series that run down the lanes of `rows`:
    /// `rows[i][l]` is sample `i` of series `l`, and every row has the
    /// same length. Returns the total number of modified samples.
    ///
    /// This is the time-major layout a frame-major stack already has (row
    /// `i` is a slice of frame `i`), so the stack driver hands its bands
    /// over without copying them. Results must be bit-identical to
    /// repairing each series on its own, for every kernel and any lane
    /// count: series are independent. The bit-sliced kernel votes on 64
    /// lanes per word op; the single-code-path algorithms repair lane by
    /// lane. No rows repairs nothing.
    fn preprocess_rows(&self, rows: &mut [&mut [T]], cx: &mut Exec<'_, T>) -> usize;

    /// Repairs one contiguous series in place in the driver's context and
    /// returns the number of modified samples. Results must be
    /// bit-identical for every kernel, and to the same series repaired as
    /// one lane of [`preprocess_rows`](Self::preprocess_rows).
    fn preprocess_in(&self, series: &mut [T], cx: &mut Exec<'_, T>) -> usize;

    /// Repairs one series in place, returning the number of modified
    /// samples: [`preprocess_in`](Self::preprocess_in) with the default
    /// kernel, fresh scratch and observability disabled.
    fn preprocess(&self, series: &mut [T]) -> usize {
        self.preprocess_in(
            series,
            &mut Exec {
                kernel: Kernel::default(),
                scratch: &mut VoterScratch::new(),
                obs: &Obs::disabled(),
            },
        )
    }
}

/// Lanes [`each_lane`] moves per block: 32 `u16` lanes fill one 64-byte
/// cache line of every row, so a block reads each line of the band once.
const LANE_BLOCK: usize = 32;

/// The per-lane row loop shared by the single-code-path algorithms and the
/// scalar oracle: `algo`'s [`preprocess_in`](SeriesPreprocessor::preprocess_in)
/// runs on each lane's series, contiguous.
///
/// Lanes move in blocks of [`LANE_BLOCK`]: each row's segment is read
/// whole into a series-major block kept in `cx.scratch`, every series of
/// the block is repaired, and the block is written back only if something
/// changed. Reading a row segment at a time keeps a stack whose frame
/// stride is a power of two from evicting each row's cache line before the
/// next lane needs it.
pub(crate) fn each_lane<T: Copy>(
    algo: &impl SeriesPreprocessor<T>,
    rows: &mut [&mut [T]],
    cx: &mut Exec<'_, T>,
) -> usize {
    let n = rows.len();
    let lanes = rows.first().map_or(0, |row| row.len());
    let mut block = std::mem::take(&mut cx.scratch.lanes);
    let mut total = 0;
    for base in (0..lanes).step_by(LANE_BLOCK) {
        let width = (lanes - base).min(LANE_BLOCK);
        block.clear();
        block.resize(width * n, rows[0][base]);
        for (i, row) in rows.iter().enumerate() {
            for (k, &v) in row[base..base + width].iter().enumerate() {
                block[k * n + i] = v;
            }
        }
        let changed: usize = block
            .chunks_exact_mut(n)
            .map(|series| algo.preprocess_in(series, cx))
            .sum();
        if changed > 0 {
            for (i, row) in rows.iter_mut().enumerate() {
                for (k, v) in row[base..base + width].iter_mut().enumerate() {
                    *v = block[k * n + i];
                }
            }
        }
        total += changed;
    }
    cx.scratch.lanes = block;
    total
}

/// A preprocessing algorithm operating on a single 2-D plane (the OTIS
/// shape: one wavelength band of the radiance cube).
pub trait PlanePreprocessor<T: Copy> {
    /// A short human-readable identifier (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Repairs `plane` in place, returning the number of modified pixels.
    fn preprocess_plane(&self, plane: &mut Image<T>) -> usize;
}

impl<T, P: SeriesPreprocessor<T> + ?Sized> SeriesPreprocessor<T> for &P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn preprocess_rows(&self, rows: &mut [&mut [T]], cx: &mut Exec<'_, T>) -> usize {
        (**self).preprocess_rows(rows, cx)
    }
    fn preprocess_in(&self, series: &mut [T], cx: &mut Exec<'_, T>) -> usize {
        (**self).preprocess_in(series, cx)
    }
}

impl<T: Copy, P: PlanePreprocessor<T> + ?Sized> PlanePreprocessor<T> for &P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn preprocess_plane(&self, plane: &mut Image<T>) -> usize {
        (**self).preprocess_plane(plane)
    }
}
