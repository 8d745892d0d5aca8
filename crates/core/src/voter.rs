//! The Υ-way XOR voter matrix of Algorithm 1 (§3.3).
//!
//! For a temporal series `P(1..N)` of one detector coordinate, every pixel is
//! XOR-compared with its Υ/2 immediate neighbors in front and Υ/2 behind —
//! the pairing with *"the least average distance from its Υ neighbors for any
//! given pixel"*. Each pairing *way* (one per temporal offset) receives a
//! cut-off value `V_val`: the smallest power of two at or above the Φ-th
//! smallest XOR difference of that way, where the rank Φ comes from the
//! sensitivity Λ ([`Sensitivity::cutoff_rank`]).
//!
//! Differences at or below the cut-off are *pruned* — they represent the
//! natural variation of the data and carry no vote. Differences above it
//! become voters: a pixel whose bit disagrees with *all* Υ neighbors (or all
//! but one, inside bit window A) gets that bit flipped back.
//!
//! The per-way cut-offs double as the dynamic window delimiters: the minimum
//! cut-off defines `LSB-MASK` (below it, window C), the maximum defines
//! `MSB-MASK` (at or above it, window A). See [`crate::BitWindows`].

use crate::error::CoreError;
use crate::pixel::BitPixel;
use crate::sensitivity::{Sensitivity, Upsilon};
use crate::window::BitWindows;

/// Reflects a series index past either end *about the end element* (odd
/// reflection), matching the boundary rule the paper uses for its sliding
/// windows (`P(N+1) = P(N−2)` style): `-1 ↦ 1`, `n ↦ n−2`.
#[inline]
fn reflect_series(idx: isize, n: usize) -> usize {
    let last = (n - 1) as isize;
    let r = if idx < 0 {
        -idx
    } else if idx > last {
        2 * last - idx
    } else {
        idx
    };
    debug_assert!((0..=last).contains(&r), "series too short for reflection");
    r as usize
}

/// The largest number of pairing ways any [`Upsilon`] admits (Υ ≤ 16 →
/// Υ/2 ≤ 8). Sizes the fixed cut-off array so a [`VoterMatrix`] never
/// heap-allocates.
pub const MAX_WAYS: usize = 8;

/// Reusable scratch buffers for the voter-matrix hot path.
///
/// [`VoterMatrix::build_with_scratch`] and the scratch-threaded entry points
/// of [`crate::AlgoNgst`] borrow these buffers instead of allocating fresh
/// ones per series, so a worker that preprocesses many series (one per
/// detector coordinate) allocates once and reaches a zero-alloc steady state.
/// The buffers carry no data between calls — reuse never changes results.
#[derive(Debug, Clone, Default)]
pub struct VoterScratch<T> {
    /// XOR-difference magnitudes of the way under construction.
    pub(crate) diffs: Vec<u64>,
    /// General per-series word buffer: the correction words of the series
    /// under repair ([`crate::AlgoNgst`]) or the pre-vote snapshot of the
    /// buffered [`crate::BitVoter`].
    pub(crate) corrections: Vec<T>,
    /// Bit-sliced kernel: transposed series planes, word-major (`⌈n/64⌉`
    /// blocks of `Λ` plane words each).
    pub(crate) bit_planes: Vec<u64>,
    /// Bit-sliced kernel: plane-space `all` combine accumulator.
    pub(crate) acc_all_bits: Vec<u64>,
    /// Bit-sliced kernel: plane-space `one` combine accumulator.
    pub(crate) acc_one_bits: Vec<u64>,
    /// Batched bit-sliced kernel: |a−b| planes, reused for the correction
    /// planes once the pruning test has consumed them.
    pub(crate) group_corr: Vec<u64>,
    /// Batched bit-sliced kernel: per-time-step carry/accumulator lanes
    /// (borrow, complement carry, the three threshold ORs and the
    /// nonzero-correction mask).
    pub(crate) group_chain: Vec<u64>,
    /// Batched bit-sliced kernel: the cut-off walk's per-lane bit-sliced
    /// counter, one plane per bit of the way's pairing count, for ways of
    /// more than 127 pairings (shorter ways keep it in registers).
    pub(crate) group_count: Vec<u64>,
    /// Per-lane row loop: a block of a band's lanes, gathered series-major.
    pub(crate) lanes: Vec<T>,
    /// Voter matrices built through this scratch since the last reset.
    pub(crate) voter_builds: u64,
    /// Bit-window derivations performed since the last reset.
    pub(crate) window_derivations: u64,
    /// Bit-sliced-kernel series transposes performed since the last reset.
    pub(crate) bitslice_transposes: u64,
    /// Bit-sliced-kernel plane combines performed since the last reset.
    pub(crate) bitslice_combines: u64,
}

impl<T> VoterScratch<T> {
    /// Creates an empty scratch arena; buffers grow on first use and are
    /// retained across calls.
    pub fn new() -> Self {
        VoterScratch {
            diffs: Vec::new(),
            corrections: Vec::new(),
            bit_planes: Vec::new(),
            acc_all_bits: Vec::new(),
            acc_one_bits: Vec::new(),
            group_corr: Vec::new(),
            group_chain: Vec::new(),
            group_count: Vec::new(),
            lanes: Vec::new(),
            voter_builds: 0,
            window_derivations: 0,
            bitslice_transposes: 0,
            bitslice_combines: 0,
        }
    }

    /// Creates a scratch arena pre-sized for series of `series_len` samples,
    /// avoiding even the first-use growth reallocations.
    pub fn with_capacity(series_len: usize) -> Self {
        VoterScratch {
            diffs: Vec::with_capacity(series_len),
            corrections: Vec::with_capacity(series_len),
            ..VoterScratch::new()
        }
    }

    /// Voter matrices built through this scratch since the last
    /// [`reset_tallies`](Self::reset_tallies). A plain field increment on
    /// the hot path — drivers flush it into their metrics registry once
    /// per worker and run, so the per-series cost stays at one non-atomic
    /// add.
    pub fn voter_builds(&self) -> u64 {
        self.voter_builds
    }

    /// Bit-window derivations performed since the last reset.
    pub fn window_derivations(&self) -> u64 {
        self.window_derivations
    }

    /// Bit-sliced-kernel series transposes (one per series per round)
    /// performed since the last reset.
    pub fn bitslice_transposes(&self) -> u64 {
        self.bitslice_transposes
    }

    /// Bit-sliced-kernel plane combines performed since the last reset.
    pub fn bitslice_combines(&self) -> u64 {
        self.bitslice_combines
    }

    /// Zeroes all tallies (typically after flushing them to a registry).
    pub fn reset_tallies(&mut self) {
        self.voter_builds = 0;
        self.window_derivations = 0;
        self.bitslice_transposes = 0;
        self.bitslice_combines = 0;
    }
}

/// Derives the dynamic bit windows from the per-way cut-offs: the minimum
/// cut-off delimits window C, the maximum — shifted up by the
/// carry-propagation `msb_margin`, saturating at the word's top bit —
/// delimits window A. Shared by [`VoterMatrix::build_with_scratch`] and the
/// bit-sliced kernel so every kernel derives identical windows.
pub(crate) fn derive_windows<T: BitPixel>(cutoffs: &[T], msb_margin: u32) -> BitWindows<T> {
    let min_vval = cutoffs
        .iter()
        .copied()
        .min()
        .unwrap_or_else(|| T::from_u64(1));
    let max_vval = cutoffs
        .iter()
        .copied()
        .max()
        .unwrap_or_else(|| T::from_u64(1));
    let top = 1u64 << (T::BITS - 1);
    let margin = msb_margin.min(T::BITS - 1);
    let max_v = max_vval.to_u64();
    let shifted = if max_v >= top >> margin {
        top
    } else {
        max_v << margin
    };
    BitWindows::from_cutoffs(min_vval, T::from_u64(shifted))
}

/// The pruned voter matrix of one temporal series: per-way cut-off values
/// plus the dynamic bit windows they induce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoterMatrix<T: BitPixel> {
    upsilon: Upsilon,
    series_len: usize,
    /// `V_val` per way (way = temporal offset − 1), each a power of two;
    /// only the first `upsilon.half()` slots are meaningful.
    cutoffs: [T; MAX_WAYS],
    windows: BitWindows<T>,
}

/// The default headroom (in bits) between the largest way cut-off and the
/// start of bit window A.
///
/// Natural variation of magnitude Δ toggles XOR bit `b` with probability
/// ≈ Δ/2ᵇ — *carry chains* reach well above the variation's own magnitude —
/// so the near-unanimous (GRT) vote of window A is only safe for bits a few
/// octaves above the cut-off scale. This is the paper's §3.1 remark that
/// window A is identified *"after taking carry propagation effects into
/// consideration"*.
pub const DEFAULT_MSB_MARGIN: u32 = 3;

impl<T: BitPixel> VoterMatrix<T> {
    /// Builds and prunes the voter matrix for `series` in one pass, placing
    /// window A `msb_margin` bits above the largest way cut-off
    /// ([`DEFAULT_MSB_MARGIN`] is the recommended value).
    ///
    /// # Errors
    /// Returns [`CoreError::SeriesTooShort`] if the series cannot support
    /// Υ/2 distinct neighbors on each side.
    pub fn build(
        series: &[T],
        upsilon: Upsilon,
        sensitivity: Sensitivity,
        msb_margin: u32,
    ) -> Result<Self, CoreError> {
        Self::build_with_scratch(
            series,
            upsilon,
            sensitivity,
            msb_margin,
            &mut VoterScratch::new(),
        )
    }

    /// [`VoterMatrix::build`] with caller-provided scratch buffers: identical
    /// results, zero allocations once `scratch` has warmed up.
    ///
    /// # Errors
    /// Returns [`CoreError::SeriesTooShort`] if the series cannot support
    /// Υ/2 distinct neighbors on each side.
    pub fn build_with_scratch(
        series: &[T],
        upsilon: Upsilon,
        sensitivity: Sensitivity,
        msb_margin: u32,
        scratch: &mut VoterScratch<T>,
    ) -> Result<Self, CoreError> {
        let n = series.len();
        if n < upsilon.min_series_len() {
            return Err(CoreError::SeriesTooShort {
                len: n,
                required: upsilon.min_series_len(),
            });
        }
        let half = upsilon.half();
        let mut cutoffs = [T::ZERO; MAX_WAYS];
        let diffs = &mut scratch.diffs;
        for d in 1..=half {
            diffs.clear();
            diffs.extend((0..n - d).map(|i| series[i].xor(series[i + d]).to_u64()));
            let rank = sensitivity.cutoff_rank(n, diffs.len());
            // Φ-th smallest (1-based): selection in O(n).
            let (_, kth, _) = diffs.select_nth_unstable(rank - 1);
            cutoffs[d - 1] = T::from_u64(*kth).ceil_pow2();
        }
        let windows = derive_windows(&cutoffs[..half], msb_margin);
        scratch.voter_builds += 1;
        scratch.window_derivations += 1;
        Ok(VoterMatrix {
            upsilon,
            series_len: n,
            cutoffs,
            windows,
        })
    }

    /// The voter count this matrix was built with.
    pub fn upsilon(&self) -> Upsilon {
        self.upsilon
    }

    /// Length of the series this matrix was built from.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The pruning cut-off `V_val` of the way with temporal offset
    /// `offset` (1-based, `1..=Υ/2`).
    ///
    /// # Panics
    /// Panics if `offset` is out of range.
    pub fn cutoff(&self, offset: usize) -> T {
        assert!(
            (1..=self.upsilon.half()).contains(&offset),
            "way offset {offset} out of range 1..={}",
            self.upsilon.half()
        );
        self.cutoffs[offset - 1]
    }

    /// The dynamic bit windows induced by the per-way cut-offs.
    pub fn windows(&self) -> BitWindows<T> {
        self.windows
    }

    /// Computes the correction vectors for pixel `i` of `series` (which must
    /// be the series the matrix was built from, *before* any correction):
    ///
    /// - `corr_vect` (`Ξ`): AND of all Υ surviving XOR differences touching
    ///   pixel `i` — the unanimous vote used in bit window B;
    /// - `corr_aux` (`GRT`): OR over k of the AND of all-but-the-k-th — the
    ///   Υ−1-of-Υ vote admitted inside window A.
    ///
    /// A pairing is pruned to an empty vote unless the pixel is deviant in
    /// **both** senses (the paper's §3.3: a pixel participates *"if and only
    /// if its value is more deviant from its neighbors than is naturally
    /// expected at that location"*):
    ///
    /// - the XOR difference exceeds the way's cut-off (bit incongruity), and
    /// - the arithmetic difference exceeds it too. Without the latter,
    ///   values straddling a power-of-two boundary (`0x69FF` vs `0x6A00`:
    ///   distance 1, XOR 511) masquerade as gross outliers and trigger
    ///   pseudo-corrections.
    pub fn correction(&self, series: &[T], i: usize) -> (T, T) {
        let n = self.series_len;
        debug_assert_eq!(series.len(), n);
        let half = self.upsilon.half();
        // φ_j for j = 1..Υ: forward then backward neighbor at each offset.
        let mut phis = [T::ZERO; 16];
        let mut count = 0;
        for d in 1..=half {
            let cutoff = self.cutoffs[d - 1].to_u64();
            for signed in [i as isize + d as isize, i as isize - d as isize] {
                let j = reflect_series(signed, n);
                let diff = series[i].xor(series[j]);
                let arith = series[i].to_u64().abs_diff(series[j].to_u64());
                phis[count] = if diff.to_u64() <= cutoff || arith <= cutoff {
                    T::ZERO
                } else {
                    diff
                };
                count += 1;
            }
        }
        let phis = &phis[..count];
        // corr_vect = AND of all φ.
        let mut corr_vect = T::ONES;
        for &p in phis {
            corr_vect = corr_vect.and(p);
        }
        // With Υ = 2 the "all but one" vote degenerates to a single voter
        // (an OR of the two diffs) — no agreement at all — so the relaxed
        // combiner is only defined for Υ ≥ 4.
        if count < 4 {
            return (corr_vect, corr_vect);
        }
        // corr_aux = OR_k AND_{j≠k} φ_j, via prefix/suffix ANDs in O(Υ).
        let m = phis.len();
        let mut suffix = [T::ONES; 2 * MAX_WAYS + 1];
        for k in (0..m).rev() {
            suffix[k] = suffix[k + 1].and(phis[k]);
        }
        let mut prefix = T::ONES;
        let mut corr_aux = T::ZERO;
        for k in 0..m {
            corr_aux = corr_aux.or(prefix.and(suffix[k + 1]));
            prefix = prefix.and(phis[k]);
        }
        (corr_vect, corr_aux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lambda(v: u32) -> Sensitivity {
        Sensitivity::new(v).unwrap()
    }

    #[test]
    fn reflect_series_odd_reflection() {
        assert_eq!(reflect_series(-1, 8), 1);
        assert_eq!(reflect_series(-2, 8), 2);
        assert_eq!(reflect_series(8, 8), 6);
        assert_eq!(reflect_series(9, 8), 5);
        assert_eq!(reflect_series(3, 8), 3);
    }

    #[test]
    fn build_rejects_short_series() {
        let s = [1u16, 2];
        let err = VoterMatrix::build(&s, Upsilon::SIX, lambda(80), DEFAULT_MSB_MARGIN).unwrap_err();
        assert_eq!(
            err,
            CoreError::SeriesTooShort {
                len: 2,
                required: 4
            }
        );
    }

    #[test]
    fn constant_series_has_tightest_windows() {
        let s = [27_000u16; 32];
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(80), DEFAULT_MSB_MARGIN).unwrap();
        // All XOR diffs are 0 → every cut-off rounds to 1 → window C empty;
        // window A starts above the carry-propagation margin.
        assert_eq!(vm.cutoff(1), 1);
        assert_eq!(vm.cutoff(2), 1);
        assert_eq!(vm.windows().width_c(), 0);
        assert_eq!(vm.windows().width_a(), 16 - DEFAULT_MSB_MARGIN);
        assert_eq!(vm.windows().width_b(), DEFAULT_MSB_MARGIN);
    }

    #[test]
    fn cutoffs_track_natural_variation() {
        // Alternate by ±8: offset-1 diffs are 8-ish, offset-2 diffs are 0.
        let s: Vec<u16> = (0..32)
            .map(|i| if i % 2 == 0 { 1000 } else { 1008 })
            .collect();
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(80), DEFAULT_MSB_MARGIN).unwrap();
        assert!(vm.cutoff(1) >= 8, "way 1 sees the ±8 oscillation");
        assert_eq!(vm.cutoff(2), 1, "way 2 compares identical phases");
    }

    #[test]
    fn correction_identifies_single_msb_flip() {
        let clean: Vec<u16> = vec![27_000; 32];
        let mut s = clean.clone();
        s[10] ^= 1 << 14;
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(80), DEFAULT_MSB_MARGIN).unwrap();
        let (vect, aux) = vm.correction(&s, 10);
        let w = vm.windows();
        let corr = w.combine(vect, aux);
        assert_eq!(s[10] ^ corr, clean[10], "flip must be reverted");
        // And the neighbors must NOT be falsely corrected.
        for i in [8usize, 9, 11, 12] {
            let (v, a) = vm.correction(&s, i);
            assert_eq!(w.combine(v, a), 0, "false alarm at {i}");
        }
    }

    #[test]
    fn correction_on_varying_data_fixes_high_bit_with_small_residue() {
        // Natural variation of ±3 counts: the correction must revert the
        // high-bit flip; any residual low-bit adjustment must stay within
        // the natural variation (the LSB mask bounds the damage).
        let clean: Vec<u16> = (0..32).map(|i| 27_000 + (i as u16 % 3)).collect();
        let mut s = clean.clone();
        s[10] ^= 1 << 14;
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(80), DEFAULT_MSB_MARGIN).unwrap();
        let (vect, aux) = vm.correction(&s, 10);
        let fixed = s[10] ^ vm.windows().combine(vect, aux);
        assert_eq!(
            fixed & (1 << 14),
            clean[10] & (1 << 14),
            "high bit restored"
        );
        let err = i32::from(fixed) - i32::from(clean[10]);
        assert!(
            err.abs() <= 3,
            "residual error {err} exceeds natural variation"
        );
    }

    #[test]
    fn unflipped_constant_series_yields_no_corrections() {
        let s = [12_345u16; 16];
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(95), DEFAULT_MSB_MARGIN).unwrap();
        for i in 0..16 {
            let (v, a) = vm.correction(&s, i);
            assert_eq!(vm.windows().combine(v, a), 0);
        }
    }

    #[test]
    fn higher_sensitivity_never_raises_cutoffs() {
        let s: Vec<u16> = (0..64)
            .map(|i| (27_000.0 + 200.0 * f64::sin(i as f64)).round() as u16)
            .collect();
        let mut prev: Vec<u64> = vec![u64::MAX; 2];
        for l in [0u32, 20, 40, 60, 80, 100] {
            let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(l), DEFAULT_MSB_MARGIN).unwrap();
            let now: Vec<u64> = (1..=2).map(|d| vm.cutoff(d).to_u64()).collect();
            for (p, n) in prev.iter().zip(&now) {
                assert!(n <= p, "cut-off must not grow with Λ");
            }
            prev = now;
        }
    }

    #[test]
    fn grt_is_superset_of_unanimous() {
        let mut s: Vec<u16> = (0..32).map(|i| 5_000 + (i as u16 % 2)).collect();
        s[5] ^= 1 << 13;
        s[6] ^= 1 << 13; // two adjacent flips: unanimity breaks, GRT may hold
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(80), DEFAULT_MSB_MARGIN).unwrap();
        for i in 0..32 {
            let (vect, aux) = vm.correction(&s, i);
            assert_eq!(vect.and(aux), vect, "corr_vect ⊆ corr_aux for pixel {i}");
        }
    }

    #[test]
    fn reused_scratch_matches_allocating_path_across_corpus() {
        // One scratch arena reused across the whole corpus (varied lengths,
        // Υ, Λ) must reproduce the allocating path bit-for-bit: same
        // cut-offs, same windows, same correction vectors.
        let corpus: Vec<Vec<u16>> = vec![
            vec![27_000; 32],
            (0..32)
                .map(|i| if i % 2 == 0 { 1000 } else { 1008 })
                .collect(),
            {
                let mut s = vec![27_000u16; 32];
                s[10] ^= 1 << 14;
                s
            },
            (0..32).map(|i| 27_000 + (i as u16 % 3)).collect(),
            (0..64)
                .map(|i| (27_000.0 + 200.0 * f64::sin(i as f64)).round() as u16)
                .collect(),
            {
                let mut s = vec![9_000u16; 24];
                s[0] ^= 1 << 12;
                s
            },
            vec![12_345u16; 16],
        ];
        let mut scratch = VoterScratch::new();
        for series in &corpus {
            for upsilon in [Upsilon::TWO, Upsilon::FOUR, Upsilon::SIX] {
                for l in [20u32, 80, 95] {
                    let fresh =
                        VoterMatrix::build(series, upsilon, lambda(l), DEFAULT_MSB_MARGIN).unwrap();
                    let reused = VoterMatrix::build_with_scratch(
                        series,
                        upsilon,
                        lambda(l),
                        DEFAULT_MSB_MARGIN,
                        &mut scratch,
                    )
                    .unwrap();
                    assert_eq!(fresh, reused, "Υ={upsilon:?} Λ={l}");
                    for d in 1..=upsilon.half() {
                        assert_eq!(fresh.cutoff(d), reused.cutoff(d));
                    }
                    assert_eq!(fresh.windows(), reused.windows());
                    for i in 0..series.len() {
                        assert_eq!(fresh.correction(series, i), reused.correction(series, i));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "way offset 3 out of range")]
    fn cutoff_rejects_out_of_range_way() {
        let s = [1000u16; 32];
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(80), DEFAULT_MSB_MARGIN).unwrap();
        let _ = vm.cutoff(3);
    }

    #[test]
    fn boundary_pixels_get_corrections_too() {
        let mut s: Vec<u16> = vec![9_000; 24];
        s[0] ^= 1 << 12;
        let vm = VoterMatrix::build(&s, Upsilon::FOUR, lambda(80), DEFAULT_MSB_MARGIN).unwrap();
        let (vect, aux) = vm.correction(&s, 0);
        let corr = vm.windows().combine(vect, aux);
        assert_eq!(s[0] ^ corr, 9_000);
    }
}
