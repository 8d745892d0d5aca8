//! The sliding-window bitwise majority voting baseline of §4.2
//! (Algorithm 3).
//!
//! Value-based smoothing discards all 16 bits of an outlier even when only a
//! single bit flipped; bitwise voting instead treats *each bit as a separate
//! entity*, comparing it with the bits of the same binary weight in the two
//! neighboring samples and taking the majority — so the 15 uncorrupted bits
//! of a damaged word keep contributing information.

use crate::container::Image;
use crate::pixel::BitPixel;
use crate::traits::{each_lane, Exec, PlanePreprocessor, SeriesPreprocessor};
use crate::voter::VoterScratch;

/// Bitwise majority voting with a window of width three (Algorithm 3).
///
/// Boundary handling follows the paper verbatim: virtual samples
/// `P(0) = P(3)` and `P(N+1) = P(N−2)` (1-based), i.e. odd reflection that
/// skips the immediate neighbor so the boundary window still spans three
/// distinct samples.
///
/// ```
/// use preflight_core::{BitVoter, SeriesPreprocessor};
///
/// let mut series = vec![0x6978u16; 12];
/// series[5] ^= 1 << 13; // one flipped bit
/// SeriesPreprocessor::<u16>::preprocess(&BitVoter::new(), &mut series);
/// assert_eq!(series, vec![0x6978; 12]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitVoter {
    buffered: bool,
}

impl BitVoter {
    /// The paper-faithful sequential (in-place) voter: the window at `i`
    /// already sees the voted value at `i − 1`, exactly as Algorithm 3's
    /// nested loops do.
    pub fn new() -> Self {
        BitVoter { buffered: false }
    }

    /// The order-independent variant voting from the original data.
    pub fn buffered() -> Self {
        BitVoter { buffered: true }
    }

    /// `true` if this instance votes from the original data.
    pub fn is_buffered(&self) -> bool {
        self.buffered
    }

    /// Majority of three words, computed bit-parallel:
    /// `maj(a,b,c) = (a & b) | (b & c) | (a & c)`.
    #[inline]
    pub fn majority3<T: BitPixel>(a: T, b: T, c: T) -> T {
        a.and(b).or(b.and(c)).or(a.and(c))
    }

    fn vote<T: BitPixel>(&self, series: &mut [T], scratch: &mut VoterScratch<T>) -> usize {
        let n = series.len();
        if n < 4 {
            // The paper's virtual boundary samples P(0)=P(3), P(N+1)=P(N−2)
            // need at least four samples to be well defined.
            return 0;
        }
        let mut changed = 0;
        if self.buffered {
            // The pre-vote snapshot lives in the reusable scratch word
            // buffer, so a worker looping over series votes allocation-free.
            let orig = &mut scratch.corrections;
            orig.clear();
            orig.extend_from_slice(series);
            for i in 0..n {
                let prev = if i == 0 { orig[2] } else { orig[i - 1] };
                let next = if i == n - 1 { orig[n - 3] } else { orig[i + 1] };
                let v = Self::majority3(prev, orig[i], next);
                if series[i] != v {
                    series[i] = v;
                    changed += 1;
                }
            }
        } else {
            // Algorithm 3 verbatim: the loop body reads the already-voted
            // P(i−1) for every window after the first.
            let p0 = series[2]; // P(0) = P(3) in 1-based indexing
            let pn1 = series[n - 3]; // P(N+1) = P(N−2)
            for i in 0..n {
                let prev = if i == 0 { p0 } else { series[i - 1] };
                let next = if i == n - 1 { pn1 } else { series[i + 1] };
                let v = Self::majority3(prev, series[i], next);
                if series[i] != v {
                    series[i] = v;
                    changed += 1;
                }
            }
        }
        changed
    }
}

impl<T: BitPixel> SeriesPreprocessor<T> for BitVoter {
    fn name(&self) -> &'static str {
        "BitVoting"
    }

    /// Votes lane by lane; the buffered variant keeps its pre-vote
    /// snapshot in `cx.scratch`. The single code path ignores the kernel
    /// and the observer.
    fn preprocess_rows(&self, rows: &mut [&mut [T]], cx: &mut Exec<'_, T>) -> usize {
        each_lane(self, rows, cx)
    }

    /// Votes the one series, like
    /// [`preprocess_rows`](SeriesPreprocessor::preprocess_rows).
    fn preprocess_in(&self, series: &mut [T], cx: &mut Exec<'_, T>) -> usize {
        self.vote(series, cx.scratch)
    }
}

impl<T: BitPixel> PlanePreprocessor<T> for BitVoter {
    fn name(&self) -> &'static str {
        "BitVoting"
    }

    /// The OTIS adaptation (§7.3): the window slides along each row of the
    /// plane, exploiting spatial instead of temporal locality.
    fn preprocess_plane(&self, plane: &mut Image<T>) -> usize {
        let mut changed = 0;
        let mut scratch = VoterScratch::new();
        for y in 0..plane.height() {
            changed += self.vote(plane.row_mut(y), &mut scratch);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    #[test]
    fn majority3_truth_table() {
        assert_eq!(BitVoter::majority3(0b000u16, 0b000, 0b000), 0b000);
        assert_eq!(BitVoter::majority3(0b001u16, 0b000, 0b000), 0b000);
        assert_eq!(BitVoter::majority3(0b001u16, 0b001, 0b000), 0b001);
        assert_eq!(BitVoter::majority3(0b111u16, 0b101, 0b010), 0b111);
        assert_eq!(BitVoter::majority3(0xFFFFu16, 0xFFFF, 0x0000), 0xFFFF);
    }

    #[test]
    fn single_flip_in_constant_run_is_reverted() {
        let mut s = vec![0x6A5Au16; 10];
        s[5] ^= 1 << 12;
        let changed = SeriesPreprocessor::preprocess(&BitVoter::new(), &mut s);
        assert_eq!(changed, 1);
        assert_eq!(s, vec![0x6A5A; 10]);
    }

    #[test]
    fn flip_at_each_boundary_is_reverted() {
        for idx in [0usize, 9] {
            let mut s = vec![0x1234u16; 10];
            s[idx] ^= 1 << 9;
            SeriesPreprocessor::preprocess(&BitVoter::new(), &mut s);
            assert_eq!(s, vec![0x1234; 10], "boundary flip at {idx} survived");
        }
    }

    #[test]
    fn preserves_only_uncorrupted_bits_of_outlier() {
        // A pixel that legitimately differs in its low bits keeps them when
        // only its high bit is voted out (the motivation of §4.2).
        let mut s = vec![0x0100u16; 7];
        s[3] = 0x0103; // natural low-bit difference
        s[3] ^= 1 << 15; // plus a genuine flip
        SeriesPreprocessor::preprocess(&BitVoter::new(), &mut s);
        assert_eq!(s[3], 0x0100 | 0x0100 & 0x0103, "majority keeps common bits");
        // Explicitly: bit 15 voted off; bits 0..1 voted off too (neighbors
        // are 0x0100) — this is exactly the value-vs-bit trade the paper
        // discusses; the uncorrupted *common* bits survive.
        assert_eq!(s[3], 0x0100);
    }

    #[test]
    fn sequential_vote_uses_updated_left_neighbor() {
        // A bit alternating 0101… : the sequential voter squashes it to all
        // zeros (each window sees the already-cleared left neighbor); the
        // buffered voter inverts the phase instead.
        let seq_in: Vec<u16> = (0..8).map(|i| 0x4000 | ((i % 2) << 8)).collect();
        let mut seq = seq_in.clone();
        let mut buf = seq_in.clone();
        SeriesPreprocessor::preprocess(&BitVoter::new(), &mut seq);
        SeriesPreprocessor::preprocess(&BitVoter::buffered(), &mut buf);
        // Interior flattened to the low phase (the tail sample keeps its
        // value because the virtual P(N+1)=P(N−2) boundary sides with it).
        assert_eq!(
            &seq[..7],
            &[0x4000; 7],
            "sequential voter flattens the alternation"
        );
        assert_ne!(
            seq, buf,
            "buffered voter keeps phase-inverted spikes instead"
        );
        assert_eq!(buf[2], 0x4100, "buffered window at i=2 is spike-flanked");
    }

    #[test]
    fn adjacent_same_bit_double_flip_survives_majority() {
        // Neither variant can outvote two adjacent flips of the same bit —
        // the weakness the paper's correlated fault model probes (§2.2.3).
        let mut s = vec![0x4000u16; 8];
        s[3] ^= 1 << 8;
        s[4] ^= 1 << 8;
        let expect = s.clone();
        SeriesPreprocessor::preprocess(&BitVoter::new(), &mut s);
        assert_eq!(s, expect);
    }

    #[test]
    fn too_short_series_untouched() {
        let mut s = vec![1u16, 2, 3];
        assert_eq!(SeriesPreprocessor::preprocess(&BitVoter::new(), &mut s), 0);
        assert_eq!(s, vec![1, 2, 3]);
    }

    #[test]
    fn plane_voting_by_rows() {
        let mut img = Image::filled(6, 2, 0x00F0u16);
        img.set(2, 0, 0x00F0 ^ (1 << 3));
        let changed = PlanePreprocessor::preprocess_plane(&BitVoter::new(), &mut img);
        assert_eq!(changed, 1);
        assert!(img.as_slice().iter().all(|&v| v == 0x00F0));
    }

    #[test]
    fn buffered_scratch_reuse_matches_fresh_path() {
        // One scratch arena reused across many series must reproduce the
        // per-call allocating path exactly, including stale-buffer cases
        // where the previous series was longer.
        let mut scratch = VoterScratch::new();
        let obs = preflight_obs::Obs::disabled();
        for len in [12usize, 6, 9, 4] {
            let mut fresh: Vec<u16> = (0..len).map(|i| 0x4000 | ((i as u16 % 2) << 8)).collect();
            fresh[len / 2] ^= 1 << 3;
            let mut reused = fresh.clone();
            let a = SeriesPreprocessor::preprocess(&BitVoter::buffered(), &mut fresh);
            let mut cx = Exec {
                kernel: Kernel::default(),
                scratch: &mut scratch,
                obs: &obs,
            };
            let b = BitVoter::buffered().preprocess_in(&mut reused, &mut cx);
            assert_eq!(a, b, "changed count at len {len}");
            assert_eq!(fresh, reused, "votes at len {len}");
        }
    }

    #[test]
    fn works_on_u32() {
        let mut s = vec![0xDEAD_BEEFu32; 6];
        s[2] ^= 1 << 30;
        SeriesPreprocessor::preprocess(&BitVoter::new(), &mut s);
        assert_eq!(s, vec![0xDEAD_BEEF; 6]);
    }
}
