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
//! bands, repaired samples, voter builds, window derivations) and
//! per-stage spans (`preprocess`, `band`, `plane`) exactly once,
//! consistently, for every caller. With the default disabled handle the
//! instrumentation compiles down to no-ops — no clock reads, no
//! atomics — so the hot loops cost what the bare band loops do. Every
//! driver hands the algorithm the builder's kernel, a scratch arena and
//! the observer in one [`Exec`].
//!
//! **The stack is the batch**: a frame-major [`ImageStack`] already holds
//! every temporal series in the time-major layout the bit-sliced kernel
//! reads — sample `i` of coordinate `l` is `frame(i)[l]`. [`run`] splits
//! each frame into bands of `BAND` lanes; a band is the N row slices, one
//! per frame, that cover the same lanes, and the algorithm repairs it in
//! place through [`SeriesPreprocessor::preprocess_rows`]. The run makes no
//! gather, no scatter and no band buffer, and takes no lock on the stack.
//!
//! **Core budget**: [`threads`](Preprocessor::threads) is an upper bound.
//! The process keeps one count of cores busy with preprocessing, sized to
//! [`available_threads`]; each parallel run counts its caller as one core,
//! borrows helper threads only from the cores still free, and works its
//! share of the bands itself. Concurrent runs therefore share the host
//! instead of each spawning a full pool on it. Grants are first come and
//! never rebalanced (see the `budget` module).
//!
//! **One band driver**: the caller and its granted helpers pull bands from
//! one mutex-guarded source — one `ChunksMut` per frame, so a pull takes
//! the next row of every frame. Each thread keeps one [`VoterScratch`]
//! and one reused list of row references for the whole run. A run granted
//! no helpers is the caller alone walking the bands in order.
//! [`run_cube`](Preprocessor::run_cube) drains its planes with the same
//! thread skeleton.
//!
//! **Bit-identity invariant**: for a given algorithm, [`run`]
//! (any thread count, any grant) produces output and changed-sample
//! counts bit-identical to the naive sequential reference. Temporal
//! series are independent, bands are disjoint and every series lies in
//! one band, so neither work partitioning nor interleaving can leak into
//! results (property tested over band widths and helper counts in this
//! module, in `tests/parallel_identical.rs`, and under contention for the
//! core budget in `tests/parallel_contention.rs`).
//!
//! [`run`]: Preprocessor::run

use crate::budget::CoreBudget;
use crate::container::{Cube, Image, ImageStack};
use crate::kernel::Kernel;
use crate::pixel::BitPixel;
use crate::traits::{Exec, PlanePreprocessor, SeriesPreprocessor};
use crate::voter::VoterScratch;
use preflight_obs::Obs;
use std::sync::Mutex;

/// Lanes per band, the work unit of [`Preprocessor::run`]. A multiple of
/// 64, so only a frame's last band can end in a partial group of the
/// bit-sliced kernel; 1024 lanes of a 128-frame `u16` stack span 256 KiB,
/// small enough to stay cache-resident.
const BAND: usize = 1024;

/// The machine's available parallelism (1 if it cannot be determined).
///
/// The CLI caps a user-requested `--threads N` at this value, and it is the
/// capacity of the process core budget the drivers claim helpers from.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

/// Builder-style unified driver for the preprocessing algorithms; see
/// the [module docs](self) for the model and an example.
///
/// Configuration is by-value chaining: [`threads`](Self::threads),
/// [`naive`](Self::naive), [`kernel`](Self::kernel),
/// [`observer`](Self::observer). Execution is [`run`](Self::run) for the
/// temporal [`ImageStack`] shape, [`run_image`](Self::run_image) for a
/// single spatial frame and [`run_cube`](Self::run_cube) for the
/// band-parallel OTIS cube. The builder is cheap to construct and
/// reusable: `run` takes `&self`.
#[derive(Debug, Clone)]
pub struct Preprocessor<A> {
    algo: A,
    threads: usize,
    naive: bool,
    kernel: Kernel,
    obs: Obs,
}

impl<A> Preprocessor<A> {
    /// A sequential driver for `algo`: 1 thread, the default (bit-sliced)
    /// kernel, observability disabled.
    pub fn new(algo: A) -> Self {
        Preprocessor {
            algo,
            threads: 1,
            naive: false,
            kernel: Kernel::default(),
            obs: Obs::disabled(),
        }
    }

    /// Sets the upper bound on threads per run, the caller included (`0`
    /// is treated as 1; `1` walks the bands on the caller without
    /// spawning). The process core budget grants fewer while other runs
    /// hold cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
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
    /// plain slave-node loop) instead of the in-place band driver.
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
    /// [`naive`](Self::naive) is set, else the band driver with as many
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
                self.algo.preprocess_in(
                    series,
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
            let bands = stack.frame_len().div_ceil(BAND);
            let claim = CoreBudget::process().claim(self.threads.min(bands) - 1);
            self.run_bands(stack, BAND, claim.helpers())
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

    /// The band driver (see the module docs): the caller and `helpers`
    /// scoped threads repair the `band`-lane bands of a non-empty `stack`
    /// in place.
    fn run_bands<T>(&self, stack: &mut ImageStack<T>, band: usize, helpers: usize) -> usize
    where
        T: BitPixel,
        A: SeriesPreprocessor<T> + Sync,
    {
        let (frames, frame_len) = (stack.frames(), stack.frame_len());
        let source: Vec<_> = stack
            .as_mut_slice()
            .chunks_mut(frame_len)
            .map(|frame| frame.chunks_mut(band))
            .collect();
        let changed = drain(helpers, source, |source| {
            let mut scratch = VoterScratch::with_capacity(frames);
            let mut cx = Exec {
                kernel: self.kernel,
                scratch: &mut scratch,
                obs: &self.obs,
            };
            let mut rows = Vec::with_capacity(frames);
            let mut changed = 0;
            loop {
                // Every frame yields its row of the next band, or none does.
                rows.extend(
                    source
                        .lock()
                        .expect("band source lock")
                        .iter_mut()
                        .filter_map(Iterator::next),
                );
                if rows.is_empty() {
                    break;
                }
                let _span = self.obs.span("band");
                changed += self.algo.preprocess_rows(&mut rows, &mut cx);
                rows.clear();
            }
            flush_scratch_tallies(&self.obs, cx.scratch);
            changed
        });
        if self.obs.is_enabled() {
            self.obs
                .counter("preprocess_bands_total", None)
                .add(frame_len.div_ceil(band) as u64);
            // Threads that worked bands: the caller plus its granted
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
            changed += self.algo.preprocess_in(image.row_mut(y), &mut cx);
        }
        let mut column: Vec<T> = Vec::with_capacity(h);
        let mut before: Vec<T> = Vec::with_capacity(h);
        for x in 0..w {
            image.copy_col_into(x, &mut column);
            before.clear();
            before.extend_from_slice(&column);
            if self.algo.preprocess_in(&mut column, &mut cx) > 0 {
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

    /// Plane driver: the caller and `helpers` scoped threads pull planes
    /// of a non-empty `cube` and repair each in place (a grant of no
    /// helpers is the sequential band loop on the caller alone).
    fn run_planes<T>(&self, cube: &mut Cube<T>, helpers: usize) -> usize
    where
        T: Copy + Send + Sync,
        A: PlanePreprocessor<T> + Sync,
    {
        let (width, height) = (cube.width(), cube.height());
        let source = cube.as_mut_slice().chunks_mut(width * height);
        drain(helpers, source, |planes| {
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
        })
    }
}

/// The thread skeleton the band and plane drivers share: the caller and
/// `helpers` scoped threads each run `worker`, which drains the one
/// mutex-guarded work `source` (holding the lock only to pull the next
/// unit), and their returns are summed. A grant of no helpers is the
/// caller draining it alone.
fn drain<S: Send>(helpers: usize, source: S, worker: impl Fn(&Mutex<S>) -> usize + Sync) -> usize {
    let source = Mutex::new(source);
    let work = || worker(&source);
    std::thread::scope(|s| {
        let spawned: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
        work() + spawned.into_iter().map(join).sum::<usize>()
    })
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
    use crate::bitvote::BitVoter;
    use crate::sensitivity::{Sensitivity, Upsilon};
    use crate::smoothing::MedianSmoother;
    use proptest::prelude::*;

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
        // 37×23 = 851 lanes: one band at the default width, and 14 bands
        // ending in a partial 19-lane group at width 64.
        let pp = Preprocessor::new(algo());
        let mut naive = noisy_stack(37, 23, 24);
        let a = Preprocessor::new(algo()).naive(true).run(&mut naive);
        let mut whole = noisy_stack(37, 23, 24);
        assert_eq!(pp.run(&mut whole), a, "changed counts must match");
        assert_eq!(naive, whole, "band path must be bit-identical");
        let mut narrow = noisy_stack(37, 23, 24);
        assert_eq!(pp.run_bands(&mut narrow, 64, 0), a);
        assert_eq!(naive, narrow, "narrow bands must be bit-identical");
    }

    prop_compose! {
        /// The stacks [`band_driver_matches_naive`] draws: up to 47×23
        /// (1081 lanes, past one default band), 4–39 frames.
        fn stack_strategy()(
            width in 1usize..48,
            height in 1usize..24,
            frames in 4usize..40,
            seed in any::<u64>(),
            flip_pct in 0u64..12,
        ) -> ImageStack<u16> {
            let mut st = ImageStack::new(width, height, frames);
            let mut state = seed | 1;
            let mut bump = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                state
            };
            for v in st.as_mut_slice() {
                *v = 20_000 + (bump() >> 59) as u16;
                if bump() % 100 < flip_pct {
                    *v ^= 1 << (9 + (bump() % 7) as u32);
                }
            }
            st
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The band driver is bit-identical to the naive reference for any
        /// band width (multiples of 64 or not, so groups end partial), any
        /// helper count, both kernels, and the per-lane rungs.
        #[test]
        fn band_driver_matches_naive(
            stack in stack_strategy(),
            band in 1usize..=1100,
            helpers in 0usize..=3,
            lambda in 1u32..=100,
            kernel in prop::sample::select(vec![Kernel::Bitsliced, Kernel::Scalar]),
            rung in 0usize..3,
        ) {
            fn check<A: SeriesPreprocessor<u16> + Sync + Clone>(
                pp: Preprocessor<A>,
                stack: &ImageStack<u16>,
                band: usize,
                helpers: usize,
            ) -> Result<(), TestCaseError> {
                let mut want = stack.clone();
                let n = pp.clone().naive(true).run(&mut want);
                let mut got = stack.clone();
                prop_assert_eq!(pp.run_bands(&mut got, band, helpers), n);
                prop_assert_eq!(got, want);
                Ok(())
            }
            let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(lambda).unwrap());
            match rung {
                0 => check(Preprocessor::new(algo).kernel(kernel), &stack, band, helpers)?,
                1 => check(Preprocessor::new(BitVoter::buffered()), &stack, band, helpers)?,
                _ => check(Preprocessor::new(MedianSmoother::new()), &stack, band, helpers)?,
            }
        }
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
        for helpers in 0..=3 {
            let mut st = noisy_stack(70, 40, 16);
            let got = pp.run_bands(&mut st, BAND, helpers);
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
        // 64×48 = 3072 lanes at the default 1024-lane band: 3 bands.
        assert_eq!(snap.counter("preprocess_bands_total", None), Some(3));
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
        let bands = snap
            .histogram("stage_seconds", Some(("stage", "band")))
            .expect("band spans timed");
        assert_eq!(bands.count, 3);
    }

    #[test]
    fn single_thread_falls_through_to_tiled_without_a_pool() {
        // Regression: `.threads(1)` (and any request the band count clamps
        // to one effective worker) must run the bands on the caller alone,
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
        assert_eq!(snap.counter("preprocess_bands_total", None), Some(3));

        // A single-band stack clamps any thread request to one worker and
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
}
