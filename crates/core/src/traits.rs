//! Preprocessor traits shared by the dynamic algorithm and the baselines.

use crate::container::Image;
use crate::kernel::Kernel;
use crate::voter::VoterScratch;
use preflight_obs::Obs;

/// Memory layout of the batch buffer handed to
/// [`SeriesPreprocessor::preprocess_batch`].
///
/// Drivers ask the algorithm which layout it wants for a given kernel via
/// [`SeriesPreprocessor::batch_layout`] and gather the tile accordingly, so
/// the algorithm never has to transpose what the driver already laid out.
/// A one-series buffer reads the same in either layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchLayout {
    /// `buf[k*frames..(k+1)*frames]` is series `k` — the layout
    /// [`crate::ImageStack::gather_tile_series`] produces. Natural for
    /// per-series kernels (each series is a contiguous slice).
    SeriesMajor,
    /// `buf[f*count..(f+1)*count]` holds sample `f` of every series — the
    /// layout [`crate::ImageStack::gather_tile_time_major`] produces.
    /// Natural for the bit-sliced group kernel (it packs 64 *series* per
    /// machine word at each time step) and cheaper to gather: both sides
    /// of the copy are contiguous rows.
    TimeMajor,
}

/// The execution context of one [`SeriesPreprocessor::preprocess_batch`]
/// call: everything a driver decides that is not the data itself.
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
    /// Reusable per-worker buffers, so a loop over many batches reaches a
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
/// Every driver goes through the one batch entry point
/// [`preprocess_batch`](Self::preprocess_batch); only the single-series
/// convenience [`preprocess`](Self::preprocess) is provided.
pub trait SeriesPreprocessor<T> {
    /// A short human-readable identifier (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// The batch-buffer layout this algorithm wants for `kernel`. Drivers
    /// must gather tiles in this layout before calling
    /// [`preprocess_batch`](Self::preprocess_batch) and scatter them back
    /// the same way.
    fn batch_layout(&self, kernel: Kernel) -> BatchLayout;

    /// Repairs a batch of equal-length series of `frames` samples each,
    /// stored contiguously in the layout
    /// [`batch_layout`](Self::batch_layout) reports for `cx.kernel`, and
    /// returns the total number of modified samples.
    ///
    /// Results must be bit-identical to repairing each series on its own,
    /// for every kernel and any batch size: series are independent. The
    /// batch exists so algorithms with cross-series instruction parallelism
    /// (the bit-sliced kernel votes on 64 series per word op) can exploit
    /// it. `frames == 0` repairs nothing.
    fn preprocess_batch(&self, buf: &mut [T], frames: usize, cx: &mut Exec<'_, T>) -> usize;

    /// Repairs one series in place, returning the number of modified
    /// samples: a one-series batch with the default kernel, fresh scratch
    /// and observability disabled.
    fn preprocess(&self, series: &mut [T]) -> usize {
        let frames = series.len();
        self.preprocess_batch(
            series,
            frames,
            &mut Exec {
                kernel: Kernel::default(),
                scratch: &mut VoterScratch::new(),
                obs: &Obs::disabled(),
            },
        )
    }
}

/// The per-series batch loop shared by the single-code-path algorithms:
/// `repair` runs on each `frames`-long series of a series-major `buf`.
pub(crate) fn each_series<T>(
    buf: &mut [T],
    frames: usize,
    repair: impl FnMut(&mut [T]) -> usize,
) -> usize {
    if frames == 0 {
        return 0;
    }
    buf.chunks_exact_mut(frames).map(repair).sum()
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
    fn batch_layout(&self, kernel: Kernel) -> BatchLayout {
        (**self).batch_layout(kernel)
    }
    fn preprocess_batch(&self, buf: &mut [T], frames: usize, cx: &mut Exec<'_, T>) -> usize {
        (**self).preprocess_batch(buf, frames, cx)
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
