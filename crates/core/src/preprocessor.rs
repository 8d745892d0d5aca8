//! The unified preprocessing execution API.
//!
//! [`Preprocessor`] is the single entry point every caller — NGST tile
//! masters, the OTIS ALFT rung, the serving engine, the CLI and the
//! benches — drives the algorithms through:
//!
//! ```
//! use preflight_core::{AlgoNgst, ImageStack, Preprocessor, Sensitivity, Upsilon};
//! use preflight_obs::Obs;
//!
//! let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
//! let obs = Obs::new();
//! let mut stack: ImageStack<u16> = ImageStack::new(64, 64, 16);
//! let changed = Preprocessor::new(algo)
//!     .threads(4)
//!     .observer(&obs)
//!     .run(&mut stack);
//! assert_eq!(changed, 0); // an all-zero stack has nothing to repair
//! ```
//!
//! The builder is the observability choke point: with an [`Obs`]
//! attached, every run emits `preprocess_*` counters (runs, series,
//! tiles, repaired samples, voter builds, window derivations) and
//! per-stage spans (`preprocess`, `tile`, `plane`) exactly once,
//! consistently, for every caller. With the default disabled handle the
//! instrumentation compiles down to no-ops — no clock reads, no
//! atomics — so the hot loops cost what the bare tile loops do. Every
//! driver reaches the algorithm through the one batch entry point
//! [`SeriesPreprocessor::preprocess_batch`], handing it the builder's
//! kernel, a scratch arena and the observer in one [`Exec`].
//!
//! **Core budget**: [`threads`](Preprocessor::threads) is an upper bound.
//! The process keeps one count of cores busy with preprocessing, sized to
//! [`available_threads`]; each parallel run counts its caller as one core,
//! borrows helper threads only from the cores still free, and works its
//! share of the tiles itself. Concurrent runs therefore share the host
//! instead of each spawning a full pool on it. Grants are first come and
//! never rebalanced (see the `budget` module).
//!
//! **One tile driver**: the caller and its granted helpers pull tiles from
//! one shared index. Each thread keeps one tile buffer and one
//! [`VoterScratch`] for the whole run: it gathers a tile under the stack's
//! read lock, repairs it with no lock held and scatters it back under the
//! write lock. A run granted no helpers is the caller alone walking the
//! tiles in order.
//!
//! **Bit-identity invariant**: for a given algorithm, [`run`]
//! (any thread count, any grant) produces output and changed-sample
//! counts bit-identical to the naive sequential reference. Temporal
//! series are independent, tiles are disjoint and every series lies in
//! one tile, so a gather never reads another tile's repairs, and neither
//! work partitioning nor interleaving can leak into results (property
//! tested in `tests/parallel_identical.rs`, and under contention for the
//! core budget in `tests/parallel_contention.rs`).
//!
//! [`run`]: Preprocessor::run

use crate::budget::CoreBudget;
use crate::container::{Cube, Image, ImageStack};
use crate::kernel::Kernel;
use crate::pixel::BitPixel;
use crate::traits::{BatchLayout, Exec, PlanePreprocessor, SeriesPreprocessor};
use crate::voter::VoterScratch;
use preflight_obs::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Default spatial tile side for the blocked series-major transpose.
///
/// A 32×32 tile of a 128-frame `u16` stack occupies 256 KiB of scratch —
/// small enough to stay cache-resident while large enough to amortize the
/// transpose overhead and give the tile driver ~16 independent work
/// units on a 128×128 fragment.
pub const DEFAULT_TILE: usize = 32;

/// The machine's available parallelism (1 if it cannot be determined).
///
/// The CLI caps a user-requested `--threads N` at this value, and it is the
/// capacity of the process core budget the drivers claim helpers from.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One spatial work unit: a `tw × th` tile with top-left `(tx, ty)`.
#[derive(Debug, Clone, Copy)]
struct Tile {
    tx: usize,
    ty: usize,
    tw: usize,
    th: usize,
}

impl Tile {
    /// Copies this tile's series out of `stack` into `buf`, in `layout`.
    fn gather<T: BitPixel>(&self, stack: &ImageStack<T>, layout: BatchLayout, buf: &mut Vec<T>) {
        let Tile { tx, ty, tw, th } = *self;
        match layout {
            BatchLayout::SeriesMajor => stack.gather_tile_series(tx, ty, tw, th, buf),
            BatchLayout::TimeMajor => stack.gather_tile_time_major(tx, ty, tw, th, buf),
        }
    }

    /// Writes a [`gather`](Self::gather)ed buffer back into `stack`.
    fn scatter<T: BitPixel>(&self, stack: &mut ImageStack<T>, layout: BatchLayout, buf: &[T]) {
        let Tile { tx, ty, tw, th } = *self;
        match layout {
            BatchLayout::SeriesMajor => stack.scatter_tile_series(tx, ty, tw, th, buf),
            BatchLayout::TimeMajor => stack.scatter_tile_time_major(tx, ty, tw, th, buf),
        }
    }
}

/// Adds a worker's scratch tallies (voter builds, window derivations,
/// bit-sliced transposes and combines) to `obs`'s counters and resets
/// them.
fn flush_scratch_tallies<T>(obs: &Obs, scratch: &mut VoterScratch<T>) {
    if !obs.is_enabled() {
        return;
    }
    obs.counter("preprocess_voter_builds_total", None)
        .add(scratch.voter_builds());
    obs.counter("preprocess_window_derivations_total", None)
        .add(scratch.window_derivations());
    obs.counter("preprocess_bitslice_transposes_total", None)
        .add(scratch.bitslice_transposes());
    obs.counter("preprocess_bitslice_combines_total", None)
        .add(scratch.bitslice_combines());
    scratch.reset_tallies();
}

/// Row-major spatial tiling of a `width × height` frame into `tile`-sided
/// blocks (edge tiles are clipped, never empty).
fn spatial_tiles(width: usize, height: usize, tile: usize) -> Vec<Tile> {
    let mut tiles = Vec::new();
    let mut ty = 0;
    while ty < height {
        let th = tile.min(height - ty);
        let mut tx = 0;
        while tx < width {
            let tw = tile.min(width - tx);
            tiles.push(Tile { tx, ty, tw, th });
            tx += tw;
        }
        ty += th;
    }
    tiles
}

/// Builder-style unified driver for the preprocessing algorithms; see
/// the [module docs](self) for the model and an example.
///
/// Configuration is by-value chaining: [`threads`](Self::threads),
/// [`tile`](Self::tile), [`observer`](Self::observer),
/// [`naive`](Self::naive). Execution is [`run`](Self::run) for the
/// temporal [`ImageStack`] shape, [`run_image`](Self::run_image) for a
/// single spatial frame and [`run_cube`](Self::run_cube) for the
/// band-parallel OTIS cube. The builder is cheap to construct and
/// reusable: `run` takes `&self`.
#[derive(Debug, Clone)]
pub struct Preprocessor<A> {
    algo: A,
    threads: usize,
    tile: usize,
    naive: bool,
    kernel: Kernel,
    obs: Obs,
}

impl<A> Preprocessor<A> {
    /// A sequential driver for `algo`: 1 thread, [`DEFAULT_TILE`] tiles,
    /// the default (bit-sliced) kernel, observability disabled.
    pub fn new(algo: A) -> Self {
        Preprocessor {
            algo,
            threads: 1,
            tile: DEFAULT_TILE,
            naive: false,
            kernel: Kernel::default(),
            obs: Obs::disabled(),
        }
    }

    /// Sets the upper bound on threads per run, the caller included (`0`
    /// is treated as 1; `1` walks the tiles on the caller without
    /// spawning). The process core budget grants fewer while other runs
    /// hold cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the spatial tile side for the blocked series-major
    /// transpose.
    ///
    /// # Panics
    /// Panics if `tile == 0`.
    pub fn tile(mut self, tile: usize) -> Self {
        assert!(tile > 0, "tile side must be positive");
        self.tile = tile;
        self
    }

    /// Attaches an observability handle: counters and spans from every
    /// run land in `obs`'s registry. The handle is cheap to clone; a
    /// disabled one (the default) makes all instrumentation a no-op.
    pub fn observer(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Selects the naive per-coordinate reference driver (the paper's
    /// plain slave-node loop) instead of the cache-aware tiled one.
    /// Useful as a baseline in benches; forces a single thread.
    pub fn naive(mut self, naive: bool) -> Self {
        self.naive = naive;
        self
    }

    /// Selects the voter-correction [`Kernel`] handed to the algorithm
    /// ([`Kernel::Bitsliced`] by default). Output is bit-identical for every
    /// kernel; algorithms with a single code path ignore the knob.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The algorithm this driver runs.
    pub fn algo(&self) -> &A {
        &self.algo
    }

    /// Preprocesses every temporal series of `stack`, returning the
    /// total number of modified samples. Runs the naive reference loop if
    /// [`naive`](Self::naive) is set, else the tile driver with as many
    /// helpers as the core budget grants (none for 1 thread). Output is
    /// bit-identical either way, for any thread count and any grant.
    ///
    /// To run under an online tuner's decision, feed the stack to it with
    /// [`observe_stack`](crate::observe_stack) and run the
    /// [`tuned`](crate::AlgoNgst::tuned) algorithm.
    pub fn run<T>(&self, stack: &mut ImageStack<T>) -> usize
    where
        T: BitPixel,
        A: SeriesPreprocessor<T> + Sync,
    {
        let _span = self.obs.span("preprocess");
        let changed = if self.naive {
            stack.for_each_series(|series| {
                // Fresh scratch per series: the naive reference stays naive
                // about allocation, but still honors the kernel knob.
                let frames = series.len();
                self.algo.preprocess_batch(
                    series,
                    frames,
                    &mut Exec {
                        kernel: self.kernel,
                        scratch: &mut VoterScratch::new(),
                        obs: &self.obs,
                    },
                )
            })
        } else if stack.frames() == 0 || stack.frame_len() == 0 {
            0
        } else {
            let tiles = spatial_tiles(stack.width(), stack.height(), self.tile);
            let claim = CoreBudget::process().claim(self.threads.min(tiles.len()) - 1);
            self.run_tiles(stack, &tiles, claim.helpers())
        };
        if self.obs.is_enabled() {
            self.obs.counter("preprocess_runs_total", None).inc();
            self.obs
                .counter("preprocess_series_total", None)
                .add(stack.frame_len() as u64);
            self.obs
                .counter("preprocess_samples_repaired_total", None)
                .add(changed as u64);
            if self.kernel == Kernel::Bitsliced {
                self.obs
                    .counter(
                        "preprocess_dispatch_tier_total",
                        Some(("tier", crate::bitslice::dispatch_tier().name())),
                    )
                    .inc();
            }
        }
        changed
    }

    /// The tile driver (see the module docs): the caller and `helpers`
    /// scoped threads work `tiles` in the algorithm's batch layout.
    fn run_tiles<T>(&self, stack: &mut ImageStack<T>, tiles: &[Tile], helpers: usize) -> usize
    where
        T: BitPixel,
        A: SeriesPreprocessor<T> + Sync,
    {
        let frames = stack.frames();
        let layout = self.algo.batch_layout(self.kernel);
        let next = AtomicUsize::new(0);
        let stack = RwLock::new(stack);
        let work = || {
            let mut scratch = VoterScratch::with_capacity(frames);
            let mut cx = Exec {
                kernel: self.kernel,
                scratch: &mut scratch,
                obs: &self.obs,
            };
            let mut buf: Vec<T> = Vec::new();
            let mut changed = 0;
            while let Some(tile) = tiles.get(next.fetch_add(1, Ordering::Relaxed)) {
                let _span = self.obs.span("tile");
                // A poisoned lock means another thread panicked mid-run. Every
                // write leaves the stack a valid stack and the run is already
                // unwinding (the panic reaches the caller through `join`),
                // so finishing the tiles is harmless.
                let read = stack.read().unwrap_or_else(PoisonError::into_inner);
                tile.gather(&read, layout, &mut buf);
                drop(read);
                changed += self.algo.preprocess_batch(&mut buf, frames, &mut cx);
                let mut write = stack.write().unwrap_or_else(PoisonError::into_inner);
                tile.scatter(&mut write, layout, &buf);
            }
            flush_scratch_tallies(&self.obs, &mut scratch);
            changed
        };
        let changed = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            work() + spawned.into_iter().map(join).sum::<usize>()
        });
        if self.obs.is_enabled() {
            self.obs
                .counter("preprocess_tiles_total", None)
                .add(tiles.len() as u64);
            // Threads that worked tiles: the caller plus its granted
            // helpers, recorded only when helpers were spawned.
            if helpers > 0 {
                self.obs
                    .counter("preprocess_pool_workers_total", None)
                    .add(1 + helpers as u64);
            }
        }
        changed
    }

    /// Applies the algorithm *spatially* to a single 2-D frame: one
    /// pass along every row, then one along every column (the column
    /// pass sees the row pass's repairs). Returns the total number of
    /// modified samples across both passes.
    pub fn run_image<T>(&self, image: &mut Image<T>) -> usize
    where
        T: BitPixel,
        A: SeriesPreprocessor<T>,
    {
        let _span = self.obs.span("preprocess-image");
        let mut changed = 0;
        let mut scratch = VoterScratch::new();
        let mut cx = Exec {
            kernel: self.kernel,
            scratch: &mut scratch,
            obs: &self.obs,
        };
        let (w, h) = (image.width(), image.height());
        for y in 0..h {
            changed += self.algo.preprocess_batch(image.row_mut(y), w, &mut cx);
        }
        let mut column: Vec<T> = Vec::with_capacity(h);
        let mut before: Vec<T> = Vec::with_capacity(h);
        for x in 0..w {
            image.copy_col_into(x, &mut column);
            before.clear();
            before.extend_from_slice(&column);
            if self.algo.preprocess_batch(&mut column, h, &mut cx) > 0 {
                changed += column.iter().zip(&before).filter(|(a, b)| a != b).count();
                image.write_col(x, &column);
            }
        }
        if self.obs.is_enabled() {
            self.obs.counter("preprocess_runs_total", None).inc();
            self.obs
                .counter("preprocess_samples_repaired_total", None)
                .add(changed as u64);
            flush_scratch_tallies(&self.obs, &mut scratch);
        }
        changed
    }

    /// Applies the algorithm to every wavelength band of `cube` (the
    /// OTIS shape), returning the total number of modified pixels.
    /// Bands are independent planes, so the caller and the helpers the
    /// core budget grants pull them from one shared iterator; output is
    /// bit-identical to the sequential band loop for any thread count.
    pub fn run_cube<T>(&self, cube: &mut Cube<T>) -> usize
    where
        T: Copy + Send + Sync,
        A: PlanePreprocessor<T> + Sync,
    {
        let _span = self.obs.span("preprocess");
        let (width, height, bands) = (cube.width(), cube.height(), cube.bands());
        let plane_len = width * height;
        if plane_len == 0 || bands == 0 {
            return 0;
        }
        let claim = CoreBudget::process().claim(self.threads.min(bands) - 1);
        let total = self.run_planes(cube, claim.helpers());
        if self.obs.is_enabled() {
            self.obs.counter("preprocess_runs_total", None).inc();
            self.obs
                .counter("preprocess_planes_total", None)
                .add(bands as u64);
            self.obs
                .counter("preprocess_samples_repaired_total", None)
                .add(total as u64);
        }
        total
    }

    /// Band driver: the caller and `helpers` scoped threads pull planes
    /// from one mutex-guarded iterator and repair each in place (a grant
    /// of no helpers is the sequential band loop on the caller alone).
    fn run_planes<T>(&self, cube: &mut Cube<T>, helpers: usize) -> usize
    where
        T: Copy + Send + Sync,
        A: PlanePreprocessor<T> + Sync,
    {
        let (width, height) = (cube.width(), cube.height());
        let planes = Mutex::new(cube.as_mut_slice().chunks_mut(width * height));
        let work = || {
            let mut total = 0;
            loop {
                let next = planes.lock().expect("plane iterator lock").next();
                let Some(plane) = next else { break total };
                let _span = self.obs.span("plane");
                let mut img = Image::from_vec(width, height, plane.to_vec())
                    .expect("plane slice has exact dimensions");
                let n = self.algo.preprocess_plane(&mut img);
                if n > 0 {
                    plane.copy_from_slice(img.as_slice());
                }
                total += n;
            }
        };
        std::thread::scope(|s| {
            let spawned: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            work() + spawned.into_iter().map(join).sum::<usize>()
        })
    }
}

/// Joins a helper, re-raising its panic on the caller with the original
/// payload.
fn join<R>(helper: std::thread::ScopedJoinHandle<'_, R>) -> R {
    helper
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_ngst::AlgoNgst;
    use crate::sensitivity::{Sensitivity, Upsilon};
    use crate::smoothing::MedianSmoother;

    fn noisy_stack(w: usize, h: usize, frames: usize) -> ImageStack<u16> {
        let mut st = ImageStack::new(w, h, frames);
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for v in st.as_mut_slice() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            // Calm level with sparse large flips.
            *v = 27_000 + (state >> 60) as u16;
            if state >> 32 & 0xFF < 4 {
                *v ^= 1 << (10 + (state >> 40 & 0x5) as u32);
            }
        }
        st
    }

    fn algo() -> AlgoNgst {
        AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())
    }

    #[test]
    fn tiled_matches_naive_reference() {
        let pp = Preprocessor::new(algo());
        let mut naive = noisy_stack(37, 23, 24);
        let mut tiled = naive.clone();
        let a = Preprocessor::new(algo()).naive(true).run(&mut naive);
        let b = pp.clone().tile(8).run(&mut tiled);
        assert_eq!(a, b, "changed counts must match");
        assert_eq!(naive, tiled, "tiled path must be bit-identical");
    }

    #[test]
    fn parallel_matches_sequential_for_various_thread_counts() {
        let mut reference = noisy_stack(70, 40, 16);
        let want = Preprocessor::new(algo()).naive(true).run(&mut reference);
        for threads in [0, 1, 2, 3, 8] {
            let mut st = noisy_stack(70, 40, 16);
            let got = Preprocessor::new(algo()).threads(threads).run(&mut st);
            assert_eq!(got, want, "changed count at {threads} threads");
            assert_eq!(st, reference, "output at {threads} threads");
        }
        // The grant `run` gets depends on what concurrently running tests
        // hold of the process core budget, so drive the parallel path with
        // explicit helper counts too.
        let pp = Preprocessor::new(algo());
        let tiles = spatial_tiles(70, 40, pp.tile);
        for helpers in 0..=3 {
            let mut st = noisy_stack(70, 40, 16);
            let got = pp.run_tiles(&mut st, &tiles, helpers);
            assert_eq!(got, want, "changed count with {helpers} helpers");
            assert_eq!(st, reference, "output with {helpers} helpers");
        }
    }

    #[test]
    fn degenerate_stacks_are_noops() {
        let pp = Preprocessor::new(algo()).threads(4);
        let mut empty: ImageStack<u16> = ImageStack::new(0, 4, 8);
        assert_eq!(pp.run(&mut empty), 0);
        let mut no_frames: ImageStack<u16> = ImageStack::new(4, 4, 0);
        assert_eq!(pp.run(&mut no_frames), 0);
        // Series shorter than Υ/2 + 1: left untouched, zero count.
        let mut short: ImageStack<u16> = ImageStack::new(4, 4, 2);
        assert_eq!(pp.run(&mut short), 0);
    }

    #[test]
    fn cube_parallel_matches_sequential_band_loop() {
        let mut cube: Cube<f32> = Cube::new(17, 11, 9);
        let mut state = 0xDEAD_BEEFu64;
        for v in cube.as_mut_slice() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            *v = 100.0 + (state >> 56) as f32;
        }
        let smoother = MedianSmoother::new();
        let mut seq = cube.clone();
        let mut a = 0;
        for b in 0..seq.bands() {
            let mut img = seq.plane_image(b);
            a += smoother.preprocess_plane(&mut img);
            seq.set_plane(b, &img);
        }
        let pp = Preprocessor::new(&smoother);
        for threads in [1, 4] {
            let mut par = cube.clone();
            let b = pp.clone().threads(threads).run_cube(&mut par);
            assert_eq!(a, b, "changed counts at {threads} threads");
            assert_eq!(
                seq.as_slice(),
                par.as_slice(),
                "planes at {threads} threads"
            );
        }
        // Explicit helper counts, independent of the process core budget.
        for helpers in 0..=3 {
            let mut par = cube.clone();
            let b = pp.run_planes(&mut par, helpers);
            assert_eq!(a, b, "changed counts with {helpers} helpers");
            assert_eq!(
                seq.as_slice(),
                par.as_slice(),
                "planes with {helpers} helpers"
            );
        }
    }

    #[test]
    fn observer_counts_runs_series_tiles_and_repairs() {
        let obs = Obs::new();
        let mut st = noisy_stack(64, 48, 16);
        let changed = Preprocessor::new(algo())
            .threads(2)
            .observer(&obs)
            .run(&mut st);
        assert!(changed > 0, "workload must exercise the repair path");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("preprocess_runs_total", None), Some(1));
        assert_eq!(snap.counter("preprocess_series_total", None), Some(64 * 48));
        assert_eq!(
            snap.counter("preprocess_samples_repaired_total", None),
            Some(changed as u64)
        );
        // 64×48 at the default 32-tile → 2×2 grid + clipped remainder: 4 tiles.
        assert_eq!(snap.counter("preprocess_tiles_total", None), Some(4));
        // One voter matrix (and window derivation) per coordinate series.
        assert_eq!(
            snap.counter("preprocess_voter_builds_total", None),
            Some(64 * 48)
        );
        assert_eq!(
            snap.counter("preprocess_window_derivations_total", None),
            Some(64 * 48)
        );
        // The default bit-sliced kernel transposes and combines once per
        // group of 64 series: 64×48 series → 48 groups. These counters
        // (and the tier counter) pin *which* kernel ran: a silent fall-back
        // to the scalar oracle keeps the bytes right but leaves them unset.
        assert_eq!(
            snap.counter("preprocess_bitslice_transposes_total", None),
            Some(48)
        );
        assert_eq!(
            snap.counter("preprocess_bitslice_combines_total", None),
            Some(48)
        );
        let tier = crate::bitslice::dispatch_tier().name();
        assert_eq!(
            snap.counter("preprocess_dispatch_tier_total", Some(("tier", tier))),
            Some(1)
        );
        // Spans landed in the stage histograms.
        let stages = snap
            .histogram("stage_seconds", Some(("stage", "preprocess")))
            .expect("preprocess stage timed");
        assert_eq!(stages.count, 1);
        let tiles = snap
            .histogram("stage_seconds", Some(("stage", "tile")))
            .expect("tile spans timed");
        assert_eq!(tiles.count, 4);
    }

    #[test]
    fn single_thread_falls_through_to_tiled_without_a_pool() {
        // Regression: `.threads(1)` (and any request the tile grid clamps
        // to one effective worker) must run the tiles on the caller alone,
        // never spawn a helper. The pool-workers counter is only recorded
        // when helpers ran, so its absence proves the fall-through; the
        // repair totals prove the work still happened.
        let obs = Obs::new();
        let mut st = noisy_stack(64, 48, 16);
        let changed = Preprocessor::new(algo())
            .threads(1)
            .observer(&obs)
            .run(&mut st);
        assert!(changed > 0, "workload must exercise the repair path");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("preprocess_pool_workers_total", None), None);
        assert_eq!(snap.counter("preprocess_tiles_total", None), Some(4));

        // A single-tile stack clamps any thread request to one worker and
        // must fall through the same way.
        let obs_clamped = Obs::new();
        let mut small = noisy_stack(8, 8, 16);
        Preprocessor::new(algo())
            .threads(4)
            .observer(&obs_clamped)
            .run(&mut small);
        let snap = obs_clamped.snapshot();
        assert_eq!(snap.counter("preprocess_pool_workers_total", None), None);

        // That a genuinely parallel run records its workers is asserted in
        // `tests/pool_grant.rs`: its grant depends on the process core
        // budget, which other tests of this binary hold concurrently.
    }

    #[test]
    fn observer_does_not_change_results() {
        let obs = Obs::new();
        let mut plain = noisy_stack(33, 29, 16);
        let mut observed = plain.clone();
        let a = Preprocessor::new(algo()).threads(3).run(&mut plain);
        let b = Preprocessor::new(algo())
            .threads(3)
            .observer(&obs)
            .run(&mut observed);
        assert_eq!(a, b);
        assert_eq!(plain, observed, "instrumentation must not touch data");
    }

    #[test]
    fn run_image_counts_repairs() {
        let obs = Obs::new();
        let mut img: Image<u16> = Image::new(32, 32);
        for v in img.as_mut_slice() {
            *v = 27_000;
        }
        let x = img.width() / 2;
        let before = img.get(x, 5);
        img.set(x, 5, before ^ (1 << 14));
        let changed = Preprocessor::new(algo()).observer(&obs).run_image(&mut img);
        assert!(changed > 0);
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("preprocess_samples_repaired_total", None),
            Some(changed as u64)
        );
        assert!(
            snap.counter("preprocess_voter_builds_total", None)
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn spatial_tiles_cover_frame_exactly() {
        let tiles = spatial_tiles(70, 33, 32);
        let area: usize = tiles.iter().map(|t| t.tw * t.th).sum();
        assert_eq!(area, 70 * 33);
        assert!(tiles.iter().all(|t| t.tw > 0 && t.th > 0));
        assert!(tiles.iter().all(|t| t.tx + t.tw <= 70 && t.ty + t.th <= 33));
    }

    #[test]
    #[should_panic(expected = "tile side must be positive")]
    fn zero_tile_side_is_rejected() {
        let _ = Preprocessor::new(algo()).tile(0);
    }
}
