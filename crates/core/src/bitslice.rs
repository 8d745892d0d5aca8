//! The bit-sliced voter kernel ([`Kernel::Bitsliced`]): vote on 64 pixels
//! per ALU op.
//!
//! The scalar gather spends one word-sized operation per *pixel* and
//! pairing. Every step of Algorithm 1, however, is either pure bitwise
//! logic (the φ pruning masks, the `all`/`one` accumulator folds, the
//! window A/B combine) or a comparison against a **power-of-two** cut-off
//! — and all of those distribute over a bit-plane transposition. This
//! module therefore runs the whole per-series pipeline in *bit-plane
//! space*:
//!
//! 1. **Transpose** — each 64-pixel block of the series is transposed into
//!    Λ `u64` plane words (`plane[b]` bit `l` = bit `b` of pixel `l`) with
//!    a packed-field butterfly network (`O(Λ·log Λ)` word ops per block
//!    instead of `O(64·Λ)` bit probes).
//! 2. **Cut-off estimation** — the per-way `V_val` is the smallest power
//!    of two `2^e` such that at least Φ of the way's XOR differences are
//!    `≤ 2^e` (a monotone map preserves rank statistics, so this is
//!    bit-identical to `select_nth_unstable` + `ceil_pow2`). In plane
//!    space `diff > 2^e` is three word ops against precomputed
//!    prefix/suffix OR planes. Where lanes are samples of one series, the
//!    count for every `e` is a masked popcount, 64 diffs at a time. Where
//!    lanes are series, each lane has its own cut-off: the masks feed a
//!    bit-sliced per-lane counter, and a walk over `e` gives each lane the
//!    first `e` whose count of diffs above `2^e` is small enough.
//! 3. **Prune** — the dual XOR/arithmetic deviance rule collapses to the
//!    arithmetic test alone (`|a−b| ≤ a⊕b` always, so `|a−b| > V_val`
//!    implies the XOR test). The subtraction runs as a ripple-borrow chain
//!    across planes, the absolute value as a conditional two's complement,
//!    and the threshold as the same three-op power-of-two comparison — all
//!    on 64 lanes per word op.
//! 4. **Combine and repair** — the `all`/`one` accumulator folds and the
//!    window A/B combine are bitwise and act on planes unchanged; corrected
//!    planes are transposed back and XOR-applied only for blocks that
//!    actually contain a correction.
//!
//! The pipeline comes in two slicings. A lone contiguous series (the naive
//! driver, `run_image`, the NGST pipeline's separate layer) is sliced
//! across time: lane = sample index. The stack driver's bands are sliced
//! across series: lane = coordinate. A frame-major stack already stores
//! sample `i` of lane `l` at `frame(i)[l]`, so a band is a list of row
//! slices, one per frame, and the group kernel reads and repairs them in
//! place — no gather, no scatter, no batch buffer.
//!
//! Reflected boundary pairings (at most Υ/2 per way per end) are computed
//! by the scalar [`prune`] rule and patched into the affected lanes, so the
//! kernel is **bit-identical** to [`Kernel::Scalar`] for every Υ, Λ, dtype,
//! series length and pass count (`tests/kernel_identical.rs` property-tests
//! the full grid).
//!
//! # Runtime SIMD dispatch
//!
//! The plane loops are plain `u64` slice iterations, which LLVM
//! auto-vectorizes; how well depends on the instruction set it may assume.
//! [`dispatch_tier`] detects the best available tier once per process
//! (cached in a [`OnceLock`]): on `x86_64` an AVX2 re-instantiation of the
//! kernel body (`#[target_feature(enable = "avx2")]`), on `aarch64` a NEON
//! one, and everywhere the portable `u64` build as the guaranteed fallback.
//! Setting the `PREFLIGHT_FORCE_PORTABLE` environment variable (to anything
//! but `0`) disables SIMD dispatch, which CI uses to exercise the fallback
//! path. Every tier executes the same Rust code, so tier selection can
//! never change results — only throughput.
//!
//! [`Kernel::Bitsliced`]: crate::Kernel::Bitsliced
//! [`Kernel::Scalar`]: crate::Kernel::Scalar
//! [`prune`]: crate::kernel

use crate::error::CoreError;
use crate::kernel::prune;
use crate::pixel::BitPixel;
use crate::sensitivity::{Sensitivity, Upsilon};
use crate::voter::{derive_windows, VoterScratch, MAX_WAYS};
use crate::window::BitWindows;
use preflight_obs::Obs;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The code-generation tier the bit-sliced kernel dispatches to at
/// runtime. Every tier runs the same algorithm and produces bit-identical
/// output; the tier only selects the instruction set the plane loops are
/// compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchTier {
    /// Plain `u64` word operations — always available, the guaranteed
    /// fallback on every architecture.
    Portable,
    /// The kernel body re-instantiated under
    /// `#[target_feature(enable = "avx2")]` (x86-64 only), selected when
    /// runtime CPUID detection confirms AVX2 support.
    Avx2,
    /// The kernel body compiled for NEON (aarch64, where NEON is part of
    /// the baseline ISA).
    Neon,
}

impl DispatchTier {
    /// The stable lowercase label used in metrics and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            DispatchTier::Portable => "portable",
            DispatchTier::Avx2 => "avx2",
            DispatchTier::Neon => "neon",
        }
    }
}

impl core::fmt::Display for DispatchTier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The dispatch tiers this machine supports, in ascending preference
/// order ([`DispatchTier::Portable`] first — it is always present).
pub fn detected_tiers() -> Vec<DispatchTier> {
    #[allow(unused_mut)]
    let mut tiers = vec![DispatchTier::Portable];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        tiers.push(DispatchTier::Avx2);
    }
    #[cfg(target_arch = "aarch64")]
    tiers.push(DispatchTier::Neon);
    tiers
}

/// Test-only override of the dispatched tier; `0` means "no override".
static FORCED_TIER: AtomicU8 = AtomicU8::new(0);

/// The tier the bit-sliced kernel currently dispatches to.
///
/// Detection runs once per process and is cached; the
/// `PREFLIGHT_FORCE_PORTABLE` environment variable (set to anything but
/// `0`) pins the portable fallback regardless of what the CPU supports.
pub fn dispatch_tier() -> DispatchTier {
    match FORCED_TIER.load(Ordering::Relaxed) {
        1 => DispatchTier::Portable,
        2 => DispatchTier::Avx2,
        3 => DispatchTier::Neon,
        _ => {
            static DETECTED: OnceLock<DispatchTier> = OnceLock::new();
            *DETECTED.get_or_init(|| {
                if portable_forced() {
                    DispatchTier::Portable
                } else {
                    best_tier()
                }
            })
        }
    }
}

/// Whether the `PREFLIGHT_FORCE_PORTABLE` environment variable (set to
/// anything but empty or `0`) pins every runtime-dispatched path — this
/// kernel's tier and the serving layer's CRC — to its portable fallback.
/// Reads the environment on each call; callers cache their decision.
pub fn portable_forced() -> bool {
    std::env::var_os("PREFLIGHT_FORCE_PORTABLE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Resolves the default dispatch tier. On x86-64 with AVX2 available this
/// *measures* instead of assuming: the plane loops are memory-bound `u64`
/// streams that the baseline ISA already auto-vectorizes, so on some
/// microarchitectures the AVX2 re-instantiation gains nothing (or pays a
/// vector-license frequency penalty). Tiers are bit-identical, so picking
/// by throughput can never change results.
fn best_tier() -> DispatchTier {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return calibrate_x86();
    }
    *detected_tiers()
        .last()
        .expect("portable tier always present")
}

/// One-shot micro-calibration (~100 µs, cached for the process): run the
/// group kernel on a synthetic 64-lane group under each candidate tier,
/// best-of-3, and keep the faster one.
#[cfg(target_arch = "x86_64")]
fn calibrate_x86() -> DispatchTier {
    let params = BitsliceParams {
        upsilon: Upsilon::FOUR,
        sensitivity: Sensitivity::new(80).expect("80 is a valid sensitivity"),
        msb_margin: crate::voter::DEFAULT_MSB_MARGIN,
        static_windows: None,
        use_grt: true,
    };
    let n = 96usize;
    let mut buf = vec![0u32; 64 * n];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for v in buf.iter_mut() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *v = 1_000_000 + (state >> 56) as u32;
        if state >> 32 & 0xFF < 5 {
            *v ^= 1 << (18 + (state >> 40 & 0x3) as u32);
        }
    }
    let obs = Obs::disabled();
    let mut scratch = VoterScratch::new();
    let mut best = [std::time::Duration::MAX; 2];
    for _ in 0..3 {
        let mut work = buf.clone();
        let mut rows: Vec<&mut [u32]> = work.chunks_mut(64).collect();
        let t0 = std::time::Instant::now();
        // SAFETY: guarded by the caller's `is_x86_feature_detected!("avx2")`.
        #[allow(unsafe_code)]
        unsafe {
            group_avx2(&params, &mut rows, 0, 64, &mut scratch, &obs);
        }
        best[0] = best[0].min(t0.elapsed());
        let mut work = buf.clone();
        let mut rows: Vec<&mut [u32]> = work.chunks_mut(64).collect();
        let t0 = std::time::Instant::now();
        group_impl(&params, &mut rows, 0, 64, &mut scratch, &obs);
        best[1] = best[1].min(t0.elapsed());
    }
    if best[0] < best[1] {
        DispatchTier::Avx2
    } else {
        DispatchTier::Portable
    }
}

/// Forces [`dispatch_tier`] to return `tier` (or clears the override with
/// `None`). Returns `false` — leaving the override untouched — if this
/// machine does not support the requested tier, so an override can never
/// make the dispatcher select an instruction set the CPU lacks.
///
/// This is a process-global test hook for exercising every supported tier
/// in one test run; it is not part of the stable API.
#[doc(hidden)]
pub fn force_dispatch_tier(tier: Option<DispatchTier>) -> bool {
    let code = match tier {
        None => 0,
        Some(t) => {
            if !detected_tiers().contains(&t) {
                return false;
            }
            match t {
                DispatchTier::Portable => 1,
                DispatchTier::Avx2 => 2,
                DispatchTier::Neon => 3,
            }
        }
    };
    FORCED_TIER.store(code, Ordering::Relaxed);
    true
}

/// The algorithm knobs the kernel needs from [`crate::AlgoNgst`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitsliceParams {
    pub upsilon: Upsilon,
    pub sensitivity: Sensitivity,
    pub msb_margin: u32,
    pub static_windows: Option<(u32, u32)>,
    pub use_grt: bool,
}

/// One analyze-and-repair round of Algorithm 1 executed entirely in
/// bit-plane space: cut-off estimation, pruning, accumulator combine and
/// window repair, bit-identical to the scalar gather. Returns the number
/// of modified samples.
///
/// # Errors
/// Returns [`CoreError::SeriesTooShort`] if the series cannot support the
/// configured Υ (the same contract as [`crate::VoterMatrix::build`]).
pub(crate) fn bitsliced_pass<T: BitPixel>(
    params: &BitsliceParams,
    series: &mut [T],
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> Result<usize, CoreError> {
    let n = series.len();
    let required = params.upsilon.min_series_len();
    if n < required {
        return Err(CoreError::SeriesTooShort { len: n, required });
    }
    match dispatch_tier() {
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Avx2 => {
            // SAFETY: `dispatch_tier` yields `Avx2` only after runtime
            // CPUID detection confirmed AVX2 support (`force_dispatch_tier`
            // refuses tiers the machine lacks), so the target-feature
            // contract of `pass_avx2` holds.
            #[allow(unsafe_code)]
            Ok(unsafe { pass_avx2(params, series, scratch, obs) })
        }
        #[cfg(target_arch = "aarch64")]
        DispatchTier::Neon => {
            // SAFETY: NEON is part of the aarch64 baseline ISA, and
            // `dispatch_tier` yields `Neon` only on aarch64 builds.
            #[allow(unsafe_code)]
            Ok(unsafe { pass_neon(params, series, scratch, obs) })
        }
        _ => Ok(pass_impl(params, series, scratch, obs)),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pass_avx2<T: BitPixel>(
    params: &BitsliceParams,
    series: &mut [T],
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    pass_impl(params, series, scratch, obs)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
fn pass_neon<T: BitPixel>(
    params: &BitsliceParams,
    series: &mut [T],
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    pass_impl(params, series, scratch, obs)
}

/// Lane mask of the pixels in 64-pixel block `w` whose global index is
/// `< limit`.
#[inline]
fn lane_mask(limit: usize, w: usize) -> u64 {
    let base = w * 64;
    if limit >= base + 64 {
        u64::MAX
    } else if limit <= base {
        0
    } else {
        (1u64 << (limit - base)) - 1
    }
}

/// In-place packed-field delta-swap transpose network: `m[0..k]` holds `k`
/// fields of `k` bits each (replicated `64/k` times across the word), and
/// the network transposes every `k × k` field block simultaneously. The
/// network is its own inverse.
/// `#[inline(always)]` so `k` (always the caller's `T::BITS`) constant-folds
/// after monomorphization and the delta-swap rounds fully unroll and
/// vectorize — the butterfly dominates the per-block transpose cost.
#[inline(always)]
fn butterfly(m: &mut [u64; 64], k: usize) {
    let mut j = k / 2;
    while j != 0 {
        // Bit positions p with (p & j) != 0, replicated across fields.
        let hi = !(u64::MAX / ((1u64 << j) + 1));
        // The round pairs words (i, i+j) for every i with i & j == 0:
        // exactly the first/second halves of each 2j-sized chunk.
        for chunk in m[..k].chunks_exact_mut(2 * j) {
            let (a, b) = chunk.split_at_mut(j);
            for (x, y) in a.iter_mut().zip(b) {
                let t = (*x ^ (*y << j)) & hi;
                *x ^= t;
                *y ^= t >> j;
            }
        }
        j >>= 1;
    }
}

/// Transposes up to 64 pixels into bit planes: `planes[b]` bit `l` is bit
/// `b` of `pixels[l]`. Missing pixels (short blocks) read as zero; plane
/// indices `>= T::BITS` are zeroed.
///
/// Not part of the stable API — exposed for the transpose identity tests.
#[doc(hidden)]
#[inline(always)]
pub fn transpose_block<T: BitPixel>(pixels: &[T], planes: &mut [u64; 64]) {
    let k = T::BITS as usize;
    let f = 64 / k;
    debug_assert!(pixels.len() <= 64, "a block holds at most 64 pixels");
    planes.fill(0);
    if pixels.len() == 64 {
        // Full block: branch-free packing (the common case in the batched
        // group kernel, where whole bands are chunked into 64-lane groups).
        for (j, word) in planes[..k].iter_mut().enumerate() {
            let mut w = 0u64;
            for field in 0..f {
                w |= pixels[field * k + j].to_u64() << (k * field);
            }
            *word = w;
        }
    } else {
        for (j, word) in planes[..k].iter_mut().enumerate() {
            let mut w = 0u64;
            for field in 0..f {
                let idx = field * k + j;
                if idx < pixels.len() {
                    w |= pixels[idx].to_u64() << (k * field);
                }
            }
            *word = w;
        }
    }
    butterfly(planes, k);
}

/// Inverse of [`transpose_block`]: scatters bit planes back into pixel
/// words, writing `out[l]` for every `l < out.len()`. Consumes the plane
/// array in place (the butterfly network is an involution).
///
/// Not part of the stable API — exposed for the transpose identity tests.
#[doc(hidden)]
#[inline(always)]
pub fn untranspose_block<T: BitPixel>(planes: &mut [u64; 64], out: &mut [T]) {
    let k = T::BITS as usize;
    let f = 64 / k;
    debug_assert!(out.len() <= 64, "a block holds at most 64 pixels");
    butterfly(planes, k);
    let fmask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    for (j, &word) in planes[..k].iter().enumerate() {
        for field in 0..f {
            let idx = field * k + j;
            if idx < out.len() {
                out[idx] = T::from_u64(word >> (k * field) & fmask);
            }
        }
    }
}

/// One step of the group kernel's cut-off walk, at exponent `e`: adds each
/// steady pairing's `x > 2^e` mask (`suf | (x_e & below)`, with `row` bit
/// plane `e`) into the bit-sliced counter `cnt` preset to `preset`, ORs
/// `x_e` into `below` for the next step, and returns the lanes whose
/// counter carried out of its top plane. Called with a fixed-size array,
/// the counter planes stay in registers.
#[inline(always)]
fn walk_step(
    preset: usize,
    below: &mut [u64],
    suf: &[u64],
    row: &[u64],
    d: usize,
    cnt: &mut [u64],
) -> u64 {
    for (j, c) in cnt.iter_mut().enumerate() {
        *c = 0u64.wrapping_sub((preset >> j & 1) as u64);
    }
    let mut over = 0u64;
    for ((bl, &s), (&a, &p)) in below.iter_mut().zip(suf).zip(row.iter().zip(&row[d..])) {
        let x = a ^ p;
        let mut carry = s | (x & *bl);
        *bl |= x;
        for c in cnt.iter_mut() {
            let t = *c & carry;
            *c ^= carry;
            carry = t;
        }
        over |= carry;
    }
    over
}

/// The batched multi-pass driver entry: runs analyze-and-repair rounds over
/// a group of up to 64 equal-length series until a round changes nothing or
/// the pass budget is exhausted, exactly like the per-series loop in
/// [`crate::AlgoNgst`]. A round is a pure function of each series (series
/// are lane-independent), so a series whose previous round changed nothing
/// keeps producing zero corrections — running converged lanes alongside
/// still-active ones cannot alter either the repaired bits or the
/// changed-sample totals.
///
/// `rows` is a **time-major** batch (`rows[i][l]` is sample `i` of lane
/// `l`: a band of a frame-major stack, one row per frame) and the group
/// covers lanes `base..base+g` of it, so every value read and every repair
/// write touches contiguous memory.
pub(crate) fn bitsliced_group<T: BitPixel>(
    params: &BitsliceParams,
    passes: usize,
    rows: &mut [&mut [T]],
    base: usize,
    g: usize,
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    let mut total = 0;
    for _ in 0..passes.max(1) {
        let changed = bitsliced_group_pass(params, rows, base, g, scratch, obs);
        total += changed;
        if changed == 0 {
            break;
        }
    }
    total
}

/// One analyze-and-repair round over a group of up to 64 series of
/// `rows.len()` samples each within a time-major batch. Dispatches to the
/// active SIMD tier like [`bitsliced_pass`]. The caller guarantees
/// `rows.len() >= upsilon.min_series_len()`, `1 <= g <= 64` and
/// `base + g <= ` every row's length.
fn bitsliced_group_pass<T: BitPixel>(
    params: &BitsliceParams,
    rows: &mut [&mut [T]],
    base: usize,
    g: usize,
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    match dispatch_tier() {
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Avx2 => {
            // SAFETY: `dispatch_tier` yields `Avx2` only after runtime
            // CPUID detection confirmed AVX2 support (`force_dispatch_tier`
            // refuses tiers the machine lacks), so the target-feature
            // contract of `group_avx2` holds.
            #[allow(unsafe_code)]
            unsafe {
                group_avx2(params, rows, base, g, scratch, obs)
            }
        }
        #[cfg(target_arch = "aarch64")]
        DispatchTier::Neon => {
            // SAFETY: NEON is part of the aarch64 baseline ISA, and
            // `dispatch_tier` yields `Neon` only on aarch64 builds.
            #[allow(unsafe_code)]
            unsafe {
                group_neon(params, rows, base, g, scratch, obs)
            }
        }
        _ => group_impl(params, rows, base, g, scratch, obs),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn group_avx2<T: BitPixel>(
    params: &BitsliceParams,
    rows: &mut [&mut [T]],
    base: usize,
    g: usize,
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    group_impl(params, rows, base, g, scratch, obs)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
fn group_neon<T: BitPixel>(
    params: &BitsliceParams,
    rows: &mut [&mut [T]],
    base: usize,
    g: usize,
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    group_impl(params, rows, base, g, scratch, obs)
}

/// The batched kernel body: **lane = series**. Where [`pass_impl`] slices
/// one series across time (lane = sample index), this body transposes up to
/// 64 *series* of a band into per-time-step plane words, so every word
/// operation advances 64 independent voters at once and none of the
/// per-lane shift/reflection fix-ups of the time-sliced layout exist at
/// all:
///
/// - the way-`d` XOR pairing is a whole-plane XOR of time rows `i` and
///   `i+d` (reflected tail rows just index a different role),
/// - the backward voter plane is the forward φ row of `d` steps earlier —
///   pointer reuse instead of a cross-word funnel shift,
/// - every plane loop streams over the `n` time steps with **no
///   loop-carried dependency** (ripple borrows and complement carries live
///   in per-time-step lane arrays, carried by the *outer* loop over bit
///   positions), so LLVM vectorizes each of them for the active dispatch
///   tier; the one exception is the cut-off walk's counter.
///
/// Per-lane cut-offs are selected in plane space too. For each exponent
/// `e` in turn, the masks of the diffs above `2^e` (three word ops against
/// suffix-OR planes) are added into a bit-sliced per-lane counter; a lane
/// takes the first `e` at which at most `steady − rank` of its diffs lie
/// above `2^e`. That is `ceil_pow2` of the rank-selected diff, because
/// `ceil_pow2` is monotone, and the walk stops as soon as every lane has
/// its `e`. The per-lane power-of-two threshold then turns into three lane
/// masks per bit position (cut-off below / at / above the bit), and the
/// dual XOR/arithmetic prune collapses to the arithmetic test alone as in
/// the per-series kernel.
#[inline(always)]
fn group_impl<T: BitPixel>(
    params: &BitsliceParams,
    rows: &mut [&mut [T]],
    base: usize,
    g: usize,
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    let n = rows.len();
    debug_assert!((1..=64).contains(&g) && rows.iter().all(|row| base + g <= row.len()));
    let bits = T::BITS as usize;
    let half = params.upsilon.half();
    let valid: u64 = if g == 64 { u64::MAX } else { (1u64 << g) - 1 };
    let VoterScratch {
        bit_planes,
        acc_all_bits,
        acc_one_bits,
        group_corr,
        group_chain,
        group_count,
        voter_builds,
        window_derivations,
        bitslice_transposes,
        bitslice_combines,
        ..
    } = scratch;

    // 0. Active bit width, measured in the *difference* domain: every
    //    pairwise XOR in a lane factors through the first time step
    //    (`a ^ b = (a ^ r) ^ (b ^ r)`), so `abits` — the bit length of
    //    `OR(v ^ r)` over the whole group — bounds every XOR diff, and
    //    therefore every |a−b| magnitude, borrow and complement carry.
    //    Every derived plane at or above `abits` is provably zero, the
    //    unanimous / all-but-one accumulators there fold to zero after
    //    the first two voter planes, and the value planes above `abits`
    //    only ever enter the pipeline masked by a (zero) difference plane
    //    — so no loop below needs them. Every plane loop therefore runs
    //    over `abits` planes, not `T::BITS`: real detector series sit on
    //    a large common pedestal (dark level plus scene), so the diffs
    //    span far fewer planes than the values themselves — often half or
    //    less — at full bit fidelity, and in the worst case
    //    (`abits == T::BITS`) the bound costs one cheap pass.
    let mut or_x = 0u64;
    {
        let ref_row = &rows[0][base..][..g];
        for row in &rows[1..] {
            let row = &row[base..][..g];
            or_x = row
                .iter()
                .zip(ref_row)
                .fold(or_x, |acc, (v, r)| acc | (v.to_u64() ^ r.to_u64()));
        }
    }
    let abits = (64 - or_x.leading_zeros()) as usize;
    debug_assert!(abits <= bits);

    // 1. Transpose: `bit_planes[b*n + i]` holds bit `b` of time step `i`
    //    across the 64 series lanes (missing lanes read as zero — an
    //    all-zero series never votes for or receives a correction). The
    //    time-major batch layout makes each 64-lane read one contiguous
    //    row.
    {
        let _span = obs.span("bitslice.transpose");
        bit_planes.clear();
        bit_planes.resize(abits * n, 0);
        let mut block = [0u64; 64];
        for i in 0..n {
            transpose_block(&rows[i][base..][..g], &mut block);
            for (b, &w) in block[..abits].iter().enumerate() {
                bit_planes[b * n + i] = w;
            }
        }
        *bitslice_transposes += 1;
    }

    let mut cutoff_exp = [[0u8; 64]; MAX_WAYS];
    let mut changed = 0usize;
    {
        let _span = obs.span("bitslice.combine");
        acc_all_bits.clear();
        acc_all_bits.resize(abits * n, u64::MAX);
        acc_one_bits.clear();
        acc_one_bits.resize(abits * n, 0);
        group_corr.clear();
        group_corr.resize(abits * n, 0);
        group_chain.clear();
        group_chain.resize(5 * n, 0);
        let (neg, rest) = group_chain.split_at_mut(n);
        let (hi_acc, rest) = rest.split_at_mut(n);
        let (eq_acc, rest) = rest.split_at_mut(n);
        let (lo_acc, nz) = rest.split_at_mut(n);

        for d in 1..=half {
            let steady = n - d;
            let rank = params.sensitivity.cutoff_rank(n, steady);

            // 2. Per-lane cut-off exponents, selected in plane space. A
            //    lane's `V_val` is `2^e` for the smallest `e` at which at
            //    least `rank` of its steady XOR diffs `x` are `≤ 2^e`, i.e.
            //    at most `steady − rank` are `> 2^e` (`ceil_pow2` is
            //    monotone, so this is the rank-selected diff's `ceil_pow2`).
            //    `x > 2^e` iff a bit above `e` is set, or bit `e` is set
            //    together with a lower one: `suf[e+1] | (x_e & below)`,
            //    with `suf` the suffix-OR planes of the diffs and `below`
            //    the OR of the planes under `e`. Every diff is `< 2^abits`
            //    and `ceil_pow2` saturates at the top bit, so `e = top`
            //    always qualifies. Row `r` of `group_corr` (unused until
            //    step 4) holds `suf[r+1]`.
            let suf = &mut group_corr[..];
            let top = abits.min(bits - 1);
            if abits > 0 {
                suf[(abits - 1) * n..][..steady].fill(0);
            }
            for r in (0..abits.saturating_sub(1)).rev() {
                let row = &bit_planes[(r + 1) * n..(r + 2) * n];
                let (lo, hi) = suf.split_at_mut((r + 1) * n);
                for ((s, &u), (&a, &p)) in lo[r * n..][..steady]
                    .iter_mut()
                    .zip(&hi[..steady])
                    .zip(row[..steady].iter().zip(&row[d..]))
                {
                    *s = u | (a ^ p);
                }
            }
            //    Walk `e` upwards, counting each lane's diffs above `2^e` in
            //    a bit-sliced counter preset to `2^k − 1 − (steady − rank)`:
            //    the count exceeds `steady − rank` exactly when the counter
            //    carries out of its `k` planes, so `over` flags the lanes
            //    whose cut-off lies above `e`. A lane takes the first `e`
            //    it does not flag; the walk stops once every lane has one.
            let k = (usize::BITS - steady.leading_zeros()) as usize;
            let preset = (1usize << k) - 1 - (steady - rank);
            group_count.clear();
            group_count.resize(k, 0);
            let below = &mut neg[..steady];
            below.fill(0);
            let mut eq_m = [0u64; 64];
            let mut pending = valid;
            for (e, lanes) in eq_m[..top].iter_mut().enumerate() {
                let row = &bit_planes[e * n..(e + 1) * n];
                let suf_row = &group_corr[e * n..][..steady];
                // `k` is 4 at 16 frames and at most 7 up to 128; the
                // fixed-size arms keep those counters in registers.
                let over = match k {
                    1 => walk_step(preset, below, suf_row, row, d, &mut [0; 1]),
                    2 => walk_step(preset, below, suf_row, row, d, &mut [0; 2]),
                    3 => walk_step(preset, below, suf_row, row, d, &mut [0; 3]),
                    4 => walk_step(preset, below, suf_row, row, d, &mut [0; 4]),
                    5 => walk_step(preset, below, suf_row, row, d, &mut [0; 5]),
                    6 => walk_step(preset, below, suf_row, row, d, &mut [0; 6]),
                    7 => walk_step(preset, below, suf_row, row, d, &mut [0; 7]),
                    _ => walk_step(preset, below, suf_row, row, d, group_count),
                };
                *lanes = pending & !over;
                pending &= over;
                if pending == 0 {
                    break;
                }
            }
            eq_m[top] |= pending;
            let exps = &mut cutoff_exp[d - 1];
            for (e, &lanes) in eq_m[..=top].iter().enumerate() {
                let mut m = lanes;
                while m != 0 {
                    exps[m.trailing_zeros() as usize] = e as u8;
                    m &= m - 1;
                }
            }

            // 3. Lane masks of the cut-off position per bit plane: a bit of
            //    |a−b| at plane `b` is above/at/below a lane's cut-off
            //    `2^e` according to these masks, making the power-of-two
            //    comparison three AND-ORs per plane with no per-lane work.
            let mut hi_m = [0u64; 64];
            let mut lo_m = [0u64; 64];
            let mut run = 0u64;
            for b in 0..bits {
                hi_m[b] = run;
                run |= eq_m[b];
            }
            run = 0;
            for b in (0..bits).rev() {
                lo_m[b] = run;
                run |= eq_m[b];
            }

            // 4. |a − partner| planes via a ripple borrow carried across
            //    bit positions in the per-time-step `neg` array; the inner
            //    loops over time have no carried dependency. The forward
            //    partner of time `i` is `i+d`, reflected off the series
            //    tail.
            let dabs = &mut group_corr[..];
            neg.fill(0);
            for b in 0..abits {
                let row = &bit_planes[b * n..(b + 1) * n];
                let drow = &mut dabs[b * n..(b + 1) * n];
                for ((dst, bor), (&a, &p)) in drow[..steady]
                    .iter_mut()
                    .zip(neg[..steady].iter_mut())
                    .zip(row[..steady].iter().zip(&row[d..]))
                {
                    let x = a ^ p;
                    *dst = x ^ *bor;
                    *bor = (!a & p) | (!x & *bor);
                }
                for i in steady..n {
                    let j = 2 * (n - 1) - (i + d);
                    let a = row[i];
                    let x = a ^ row[j];
                    drow[i] = x ^ neg[i];
                    neg[i] = (!a & (a ^ x)) | (!x & neg[i]);
                }
            }

            // 5. Per-lane threshold compare, carry-free. With
            //    `y = dabs ^ neg` — the magnitude *before* the two's
            //    complement `+1`, i.e. `|a−b|` on non-borrowing lanes and
            //    `|a−b| − 1` on borrowing ones — the test `|a−b| > 2^e` is
            //    `gt(y, 2^e)` on the former and `ge(y, 2^e)` on the latter
            //    (`y ≥ 2^e ⟺ y+1 > 2^e`), so the `+1` ripple carry never
            //    has to be materialized: accumulate above/at/below-cut-off
            //    bits of `y` and fold `keep = hi | (eq & (lo | neg))`.
            hi_acc.fill(0);
            eq_acc.fill(0);
            lo_acc.fill(0);
            for b in 0..abits {
                let hm = hi_m[b];
                let em = eq_m[b];
                let lm = lo_m[b];
                let drow = &dabs[b * n..(b + 1) * n];
                for (((&db, &ng), ha), (ea, la)) in drow
                    .iter()
                    .zip(neg.iter())
                    .zip(hi_acc.iter_mut())
                    .zip(eq_acc.iter_mut().zip(lo_acc.iter_mut()))
                {
                    let y = db ^ ng;
                    *ha |= y & hm;
                    *ea |= y & em;
                    *la |= y & lm;
                }
            }
            // Fold into the keep mask, reusing `neg` in place (`*k` below
            // reads the borrow before overwriting). |a−b| ≤ a⊕b always, so
            // the arithmetic test alone reproduces the scalar dual
            // XOR/arithmetic prune.
            for (((k, &h), &e), &lo) in neg
                .iter_mut()
                .zip(hi_acc.iter())
                .zip(eq_acc.iter())
                .zip(lo_acc.iter())
            {
                *k = h | (e & (lo | *k));
            }

            // 6. Head φ(i, d−i) for the backward voter's first `d` time
            //    steps (the reflected pairings that are nobody's forward
            //    φ). At most Υ/2 single-word chains per way.
            let mut head = [[0u64; MAX_WAYS]; 64];
            for i in 0..d {
                let j = d - i;
                let mut x_col = [0u64; 64];
                let mut dab = [0u64; 64];
                let mut borrow = 0u64;
                for b in 0..abits {
                    let a = bit_planes[b * n + i];
                    let x = a ^ bit_planes[b * n + j];
                    x_col[b] = x;
                    dab[b] = x ^ borrow;
                    borrow = (!a & (a ^ x)) | (!x & borrow);
                }
                let neg1 = borrow;
                let (mut hi1, mut eq1, mut lo1) = (0u64, 0u64, 0u64);
                for b in 0..abits {
                    let y = dab[b] ^ neg1;
                    hi1 |= y & hi_m[b];
                    eq1 |= y & eq_m[b];
                    lo1 |= y & lo_m[b];
                }
                let keep1 = hi1 | (eq1 & (lo1 | neg1));
                for b in 0..abits {
                    head[b][i] = x_col[b] & keep1;
                }
            }

            // 7. Forward and backward folds, with φ computed on the fly —
            //    the XOR diff of the pairing masked by its keep bit is two
            //    ops, cheaper than storing and re-loading a φ plane. The
            //    backward voter plane of time `i ≥ d` is the forward φ of
            //    time `i−d` (φ is symmetric in its operands), so it reuses
            //    the current row read `d` steps behind with the partner's
            //    keep mask.
            for b in 0..abits {
                let row = &bit_planes[b * n..(b + 1) * n];
                let all_row = &mut acc_all_bits[b * n..(b + 1) * n];
                let one_row = &mut acc_one_bits[b * n..(b + 1) * n];
                for i in 0..d {
                    let pi = if i < steady {
                        i + d
                    } else {
                        2 * (n - 1) - (i + d)
                    };
                    let fwd = (row[i] ^ row[pi]) & neg[i];
                    let bwd = head[b][i];
                    let a0 = all_row[i];
                    let a1 = a0 & fwd;
                    let o1 = (one_row[i] & fwd) | (a0 & !fwd);
                    all_row[i] = a1 & bwd;
                    one_row[i] = (o1 & bwd) | (a1 & !bwd);
                }
                if steady > d {
                    let it = all_row[d..steady]
                        .iter_mut()
                        .zip(one_row[d..steady].iter_mut())
                        .zip(row[d..steady].iter().zip(&row[2 * d..]))
                        .zip(row[..steady - d].iter().zip(&neg[..steady - d]))
                        .zip(neg[d..steady].iter());
                    for ((((all, one), (&a, &f)), (&bk, &kb)), &ki) in it {
                        let fwd = (a ^ f) & ki;
                        let bwd = (a ^ bk) & kb;
                        let a0 = *all;
                        let a1 = a0 & fwd;
                        let o1 = (*one & fwd) | (a0 & !fwd);
                        *all = a1 & bwd;
                        *one = (o1 & bwd) | (a1 & !bwd);
                    }
                }
                for i in steady.max(d)..n {
                    let j = 2 * (n - 1) - (i + d);
                    let fwd = (row[i] ^ row[j]) & neg[i];
                    let bwd = (row[i] ^ row[i - d]) & neg[i - d];
                    let a0 = all_row[i];
                    let a1 = a0 & fwd;
                    let o1 = (one_row[i] & fwd) | (a0 & !fwd);
                    all_row[i] = a1 & bwd;
                    one_row[i] = (o1 & bwd) | (a1 & !bwd);
                }
            }
        }
        *voter_builds += g as u64;
        *window_derivations += g as u64;

        // 9. Per-lane window derivation (same shared helper as every other
        //    kernel), transposed into per-bit lane masks, then the window
        //    combine and the batched in-place repair.
        let mut msb_vals = [T::ZERO; 64];
        let mut lsb_vals = [T::ZERO; 64];
        for l in 0..g {
            let windows: BitWindows<T> = match params.static_windows {
                Some((a, c)) => BitWindows::from_widths(a, c),
                None => {
                    let mut cuts = [T::ZERO; MAX_WAYS];
                    for (dm1, c) in cuts[..half].iter_mut().enumerate() {
                        *c = T::from_u64(1u64 << cutoff_exp[dm1][l]);
                    }
                    derive_windows(&cuts[..half], params.msb_margin)
                }
            };
            msb_vals[l] = windows.msb_mask();
            lsb_vals[l] = windows.lsb_mask();
        }
        let mut msb_planes = [0u64; 64];
        let mut lsb_planes = [0u64; 64];
        transpose_block(&msb_vals[..g], &mut msb_planes);
        transpose_block(&lsb_vals[..g], &mut lsb_planes);

        let m_ways = 2 * half;
        let corr = &mut group_corr[..];
        nz.fill(0);
        for b in 0..abits {
            let mb = msb_planes[b];
            let lb = lsb_planes[b];
            let all_row = &acc_all_bits[b * n..(b + 1) * n];
            let one_row = &acc_one_bits[b * n..(b + 1) * n];
            let crow = &mut corr[b * n..(b + 1) * n];
            if params.use_grt && m_ways >= 4 {
                for ((c, z), (&all, &one)) in crow
                    .iter_mut()
                    .zip(nz.iter_mut())
                    .zip(all_row.iter().zip(one_row))
                {
                    let v = (all | ((all | one) & mb)) & lb;
                    *c = v;
                    *z |= v;
                }
            } else {
                // GRT off, or Υ = 2 where the all-but-one vote degenerates
                // to a single voter: either way the combine reduces to the
                // unanimous vector inside window A+B.
                for ((c, z), &all) in crow.iter_mut().zip(nz.iter_mut()).zip(all_row) {
                    let v = all & lb;
                    *c = v;
                    *z |= v;
                }
            }
        }
        let mut col = [0u64; 64];
        let mut out = [T::ZERO; 64];
        for i in 0..n {
            let m = nz[i] & valid;
            if m == 0 {
                continue;
            }
            changed += m.count_ones() as usize;
            for (b, c) in col[..abits].iter_mut().enumerate() {
                *c = corr[b * n + i];
            }
            col[abits..].fill(0);
            untranspose_block(&mut col, &mut out[..g]);
            // Lanes outside `m` have an all-zero correction column, so the
            // whole-row XOR is branch-free and exact.
            for (dst, &c) in rows[i][base..][..g].iter_mut().zip(&out[..g]) {
                *dst = dst.xor(c);
            }
        }
        *bitslice_combines += 1;
    }
    changed
}

/// The kernel body. `#[inline(always)]` so the `target_feature` wrappers
/// re-instantiate it under their instruction set and LLVM vectorizes the
/// plane loops accordingly.
#[inline(always)]
fn pass_impl<T: BitPixel>(
    params: &BitsliceParams,
    series: &mut [T],
    scratch: &mut VoterScratch<T>,
    obs: &Obs,
) -> usize {
    let n = series.len();
    let bits = T::BITS as usize;
    let words = n.div_ceil(64);
    let half = params.upsilon.half();
    let VoterScratch {
        bit_planes,
        acc_all_bits,
        acc_one_bits,
        voter_builds,
        window_derivations,
        bitslice_transposes,
        bitslice_combines,
        ..
    } = scratch;

    // 1. Transpose the series into bit planes, word-major: the block for
    //    pixels w*64 .. w*64+64 lives contiguously at
    //    bit_planes[w * bits .. (w + 1) * bits], so all per-block work
    //    below touches one or two cache-resident runs. Every inner loop
    //    over `bits` has a compile-time-constant trip count (T::BITS), so
    //    LLVM unrolls and vectorizes it for the active dispatch tier.
    {
        let _span = obs.span("bitslice.transpose");
        bit_planes.clear();
        bit_planes.resize(bits * words, 0);
        let mut block = [0u64; 64];
        for w in 0..words {
            let base = w * 64;
            let end = n.min(base + 64);
            transpose_block(&series[base..end], &mut block);
            bit_planes[w * bits..(w + 1) * bits].copy_from_slice(&block[..bits]);
        }
        *bitslice_transposes += 1;
    }

    const ZERO_BLOCK: [u64; 64] = [0; 64];
    let mut cutoffs = [T::ZERO; MAX_WAYS];
    let mut changed = 0usize;
    {
        let _span = obs.span("bitslice.combine");
        acc_all_bits.clear();
        acc_all_bits.resize(bits * words, u64::MAX);
        acc_one_bits.clear();
        acc_one_bits.resize(bits * words, 0);

        for d in 1..=half {
            let steady = n - d;

            // 2. Cut-off rank selection: V_val = 2^e for the smallest e
            // such that at least `rank` of the way's XOR diffs are <= 2^e.
            // ceil_pow2 is monotone, so this reproduces
            // `select_nth_unstable` + `ceil_pow2` exactly (including the
            // top-bit saturation when no e qualifies). One pass per block
            // computes `le_counts[e]` for every e at once: diff > 2^e iff
            // a higher bit is set, or bit e is set alongside a lower one —
            // both ORs come from one suffix and one prefix scan over the
            // block's planes, held entirely in stack registers.
            let mut le_counts = [0u64; 64];
            let mut x = [0u64; 64];
            let mut gt_hi = [0u64; 64];
            for w in 0..words {
                let a_lo = &bit_planes[w * bits..(w + 1) * bits];
                let a_hi = if w + 1 < words {
                    &bit_planes[(w + 1) * bits..(w + 2) * bits]
                } else {
                    &ZERO_BLOCK[..bits]
                };
                let valid = lane_mask(steady, w);
                if valid == 0 {
                    continue;
                }
                for b in 0..bits {
                    let a = a_lo[b];
                    x[b] = a ^ ((a >> d) | (a_hi[b] << (64 - d)));
                }
                let mut hi_or = 0u64;
                for b in (0..bits).rev() {
                    gt_hi[b] = hi_or;
                    hi_or |= x[b];
                }
                let mut lo_or = 0u64;
                for b in 0..bits {
                    let gt = gt_hi[b] | (x[b] & lo_or);
                    lo_or |= x[b];
                    le_counts[b] += u64::from((valid & !gt).count_ones());
                }
            }
            let rank = params.sensitivity.cutoff_rank(n, steady) as u64;
            let mut cutoff_e = bits - 1;
            for (e, &cnt) in le_counts[..bits].iter().enumerate() {
                if cnt >= rank {
                    cutoff_e = e;
                    break;
                }
            }
            let cutoff = T::from_u64(1u64 << cutoff_e);
            cutoffs[d - 1] = cutoff;
            let cu64 = cutoff.to_u64();

            // Backward-fold head patch: lanes i < d of block 0 consume the
            // reflected pairing φ(i, d−i), stashed per plane bit.
            let mut head_patch = [0u64; 64];
            for i in 0..d {
                let phi = prune(series[i], series[d - i], cu64).to_u64();
                for (b, pat) in head_patch[..bits].iter_mut().enumerate() {
                    *pat |= (phi >> b & 1) << i;
                }
            }
            let head = (1u64 << d) - 1;

            // 3. Prune + fold, one pass over the blocks. The pruned φ of a
            // block lives only in registers: the forward fold consumes it
            // immediately and the backward fold of the *next* block picks
            // it up from `prev_phi` (lane i consumes φ of lane i−d; φ is
            // symmetric in its operands, so no backward plane ever
            // materializes).
            let mut dabs = [0u64; 64];
            let mut phi_bufs = [[0u64; 64]; 2];
            for w in 0..words {
                let a_lo = &bit_planes[w * bits..(w + 1) * bits];
                let a_hi = if w + 1 < words {
                    &bit_planes[(w + 1) * bits..(w + 2) * bits]
                } else {
                    &ZERO_BLOCK[..bits]
                };
                // Double-buffer φ so the previous block's planes survive
                // without a copy.
                let (lo_half, hi_half) = phi_bufs.split_at_mut(1);
                let (phi, prev_phi) = if w % 2 == 0 {
                    (&mut lo_half[0], &hi_half[0])
                } else {
                    (&mut hi_half[0], &lo_half[0])
                };
                // Recompute X (cheaper than storing and re-loading it) and
                // run the arithmetic threshold: |a − b| > 2^e. |a−b| ≤ a⊕b
                // always, so this single test reproduces the scalar dual
                // XOR/arithmetic rule. The subtraction ripples a borrow
                // across planes; the absolute value is a conditional two's
                // complement; the comparison is branchless over the
                // cut-off position.
                let mut borrow = 0u64;
                for b in 0..bits {
                    let a = a_lo[b];
                    let xv = a ^ ((a >> d) | (a_hi[b] << (64 - d)));
                    x[b] = xv;
                    dabs[b] = xv ^ borrow;
                    borrow = (!a & (a ^ xv)) | (!xv & borrow);
                }
                let neg = borrow; // lanes where a < neighbor
                let mut carry = neg;
                let mut lo_or = 0u64;
                let mut hi_or = 0u64;
                let mut mid = 0u64;
                for (b, v) in dabs[..bits].iter_mut().enumerate() {
                    let y = *v ^ neg;
                    let r = y ^ carry;
                    carry &= y;
                    let is_lo = 0u64.wrapping_sub(u64::from(b < cutoff_e));
                    let is_hi = 0u64.wrapping_sub(u64::from(b > cutoff_e));
                    lo_or |= r & is_lo;
                    hi_or |= r & is_hi;
                    mid |= r & !(is_lo | is_hi);
                }
                let keep = hi_or | (mid & lo_or);
                for b in 0..bits {
                    phi[b] = x[b] & keep;
                }
                // Reflected forward pairings at the series tail: recompute
                // the at most d affected lanes with the scalar prune rule
                // and patch their bits. (The backward fold never consumes
                // them: lane i reads φ of lane i−d < steady.)
                let base = w * 64;
                for i in steady.max(base)..n.min(base + 64) {
                    let j = 2 * (n - 1) - (i + d);
                    let p = prune(series[i], series[j], cu64).to_u64();
                    let lane = 1u64 << (i - base);
                    for (b, ph) in phi[..bits].iter_mut().enumerate() {
                        *ph = (*ph & !lane) | ((p >> b & 1) * lane);
                    }
                }
                // Forward and backward folds into the accumulators:
                // all' = all & p; one' = (one & p) | (all & !p).
                let acc_all = &mut acc_all_bits[w * bits..(w + 1) * bits];
                let acc_one = &mut acc_one_bits[w * bits..(w + 1) * bits];
                for b in 0..bits {
                    let fwd = phi[b];
                    let mut bwd = (fwd << d) | (prev_phi[b] >> (64 - d));
                    if w == 0 {
                        bwd = (bwd & !head) | head_patch[b];
                    }
                    let a0 = acc_all[b];
                    let a1 = a0 & fwd;
                    let o1 = (acc_one[b] & fwd) | (a0 & !fwd);
                    acc_all[b] = a1 & bwd;
                    acc_one[b] = (o1 & bwd) | (a1 & !bwd);
                }
            }
        }
        *voter_builds += 1;
        *window_derivations += 1;

        // 5. Window combine and in-place repair, block by block. Blocks
        // whose lanes carry no correction skip the back-transpose.
        let windows: BitWindows<T> = match params.static_windows {
            Some((a, c)) => BitWindows::from_widths(a, c),
            None => derive_windows(&cutoffs[..half], params.msb_margin),
        };
        let m_ways = 2 * half;
        let msb = windows.msb_mask().to_u64();
        let lsb = windows.lsb_mask().to_u64();
        let mut corr = [0u64; 64];
        let mut out = [T::ZERO; 64];
        for w in 0..words {
            let acc_all = &acc_all_bits[w * bits..(w + 1) * bits];
            let acc_one = &acc_one_bits[w * bits..(w + 1) * bits];
            let mut nz = 0u64;
            for b in 0..bits {
                let all = acc_all[b];
                let aux = if !params.use_grt {
                    0
                } else if m_ways < 4 {
                    // Υ = 2: the all-but-one vote degenerates to a single
                    // voter; fall back to the unanimous vector.
                    all
                } else {
                    all | acc_one[b]
                };
                let mb = 0u64.wrapping_sub(msb >> b & 1);
                let lb = 0u64.wrapping_sub(lsb >> b & 1);
                let c = (all | (aux & mb)) & lb;
                corr[b] = c;
                nz |= c;
            }
            nz &= lane_mask(n, w);
            if nz == 0 {
                continue;
            }
            changed += nz.count_ones() as usize;
            corr[bits..].fill(0);
            let base = w * 64;
            let end = n.min(base + 64);
            untranspose_block(&mut corr, &mut out[..end - base]);
            for (s, &c) in series[base..end].iter_mut().zip(out[..end - base].iter()) {
                *s = s.xor(c);
            }
        }
        *bitslice_combines += 1;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive bit-probe reference for the butterfly transpose.
    fn naive_planes<T: BitPixel>(pixels: &[T]) -> [u64; 64] {
        let mut planes = [0u64; 64];
        for (l, px) in pixels.iter().enumerate() {
            for b in 0..T::BITS {
                planes[b as usize] |= u64::from(px.bit(b)) << l;
            }
        }
        planes
    }

    #[test]
    fn transpose_matches_naive_bit_probe() {
        let pixels: Vec<u16> = (0..64)
            .map(|i| (i as u16).wrapping_mul(0x9E37).rotate_left(i % 13))
            .collect();
        let mut planes = [0u64; 64];
        transpose_block(&pixels, &mut planes);
        assert_eq!(planes, naive_planes(&pixels));

        let pixels: Vec<u32> = (0..64).map(|i| 0xDEAD_BEEFu32.rotate_left(i)).collect();
        transpose_block(&pixels, &mut planes);
        assert_eq!(planes, naive_planes(&pixels));

        let pixels: Vec<u8> = (0..64).map(|i| (i as u8).wrapping_mul(37)).collect();
        transpose_block(&pixels, &mut planes);
        assert_eq!(planes, naive_planes(&pixels));

        let pixels: Vec<u64> = (0..64)
            .map(|i| 0x0123_4567_89AB_CDEFu64.rotate_left(i * 7))
            .collect();
        transpose_block(&pixels, &mut planes);
        assert_eq!(planes, naive_planes(&pixels));
    }

    #[test]
    fn transpose_untranspose_is_identity_on_partial_blocks() {
        for len in [1usize, 17, 63, 64] {
            let pixels: Vec<u16> = (0..len)
                .map(|i| 40_000u16.wrapping_add(i as u16 * 997))
                .collect();
            let mut planes = [0u64; 64];
            transpose_block(&pixels, &mut planes);
            let mut out = vec![0u16; len];
            untranspose_block(&mut planes, &mut out);
            assert_eq!(out, pixels, "len={len}");
        }
    }

    #[test]
    fn lane_mask_covers_block_boundaries() {
        assert_eq!(lane_mask(128, 0), u64::MAX);
        assert_eq!(lane_mask(128, 1), u64::MAX);
        assert_eq!(lane_mask(128, 2), 0);
        assert_eq!(lane_mask(70, 1), (1 << 6) - 1);
        assert_eq!(lane_mask(3, 0), 0b111);
        assert_eq!(lane_mask(64, 0), u64::MAX);
    }

    #[test]
    fn dispatch_tier_is_supported_and_stable() {
        let tiers = detected_tiers();
        assert_eq!(tiers[0], DispatchTier::Portable);
        let tier = dispatch_tier();
        assert!(tiers.contains(&tier));
        assert_eq!(dispatch_tier(), tier, "cached tier must be stable");
    }

    #[test]
    fn force_dispatch_tier_rejects_unsupported() {
        // Portable is supported everywhere; an override round-trips.
        assert!(force_dispatch_tier(Some(DispatchTier::Portable)));
        assert_eq!(dispatch_tier(), DispatchTier::Portable);
        assert!(force_dispatch_tier(None));
        // A tier for a foreign architecture must be refused.
        #[cfg(target_arch = "x86_64")]
        assert!(!force_dispatch_tier(Some(DispatchTier::Neon)));
        #[cfg(target_arch = "aarch64")]
        assert!(!force_dispatch_tier(Some(DispatchTier::Avx2)));
    }
}
