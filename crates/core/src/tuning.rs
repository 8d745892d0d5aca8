//! The online auto-tuning contract between its callers and a calibrator.
//!
//! The paper's window delimiters are re-derived from scratch for every
//! series; a *control plane* (the `preflight-tune` crate) instead watches
//! the rolling Φ XOR-difference rank statistics of a whole stream and
//! freezes one set of boundaries until the statistics drift — trading a
//! little per-series adaptivity for run-to-run stability and a visible
//! chosen-vs-requested knob surface.
//!
//! This module holds only the *contract*: the [`Tuner`] trait a caller
//! feeds observations into, and the [`TuneDecision`] it gets back. The
//! rolling sketch, hysteresis logic and registry gauges live in
//! `preflight-tune`, which depends on this crate — not the other way
//! around — so `preflight-core` stays dependency-free.

use crate::container::ImageStack;
use crate::sensitivity::{Sensitivity, Upsilon};
use crate::BitPixel;

/// Upper bound on the coordinate series sampled per [`observe_stack`]
/// call. Strided across the frame so the sample covers the whole field of
/// view; bounded so the observation cost stays negligible next to the
/// preprocessing itself.
pub const TUNER_SAMPLE_SERIES: usize = 64;

/// One frozen calibration: the parameters a tuned run should use instead
/// of the per-request (requested) Λ/Υ and the per-series dynamic windows.
///
/// `window_a_bits`/`window_c_bits` always describe a *valid, non-empty*
/// partition for a word of the width the decision was derived for:
/// `window_a_bits >= 1` and `window_a_bits + window_c_bits <= BITS`, so
/// `BitWindows::from_widths` cannot panic on a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneDecision {
    /// The sensitivity the calibrator chose (may equal the requested one).
    pub lambda: Sensitivity,
    /// The voter count the calibrator chose (never above the requested one).
    pub upsilon: Upsilon,
    /// Frozen width of bit window A (most significant bits), ≥ 1.
    pub window_a_bits: u32,
    /// Frozen width of bit window C (least significant bits).
    pub window_c_bits: u32,
    /// How many times the calibrator has re-adopted new boundaries since
    /// it was created (0 while the very first calibration holds).
    pub recalibrations: u64,
}

/// An online calibrator callers feed per-stream XOR-difference statistics
/// into (through [`observe_stack`]) before running the
/// [`tuned`](crate::AlgoNgst::tuned) algorithm its decision asks for.
///
/// The trait is object-safe and pixel-type agnostic: drivers convert the
/// XOR-diff magnitudes to `u64` (via [`crate::BitPixel::to_u64`]) before
/// reporting, and pass the word width to [`decision`](Tuner::decision) so
/// one calibrator instance can serve any pixel type. Implementations use
/// interior mutability (all methods take `&self`) and must be cheap: a
/// driver reports only a bounded sample of series per run.
pub trait Tuner: Send + Sync + std::fmt::Debug {
    /// The number of temporal ways (pairing offsets, typically Υ/2) the
    /// driver should report diffs for. Way `w` pairs samples `i` and
    /// `i + w + 1`.
    fn ways(&self) -> u32;

    /// Reports the XOR-diff magnitudes of one sampled series for `way`
    /// (zero-based; offset = `way + 1`). `frames` is the series length,
    /// so rank fractions can mirror [`Sensitivity::cutoff_rank`].
    fn observe(&self, frames: u32, way: u32, magnitudes: &[u64]);

    /// The calibration currently in force for a `bits`-bit pixel word, or
    /// `None` while the calibrator is still warming up (drivers then fall
    /// back to the paper's per-series dynamic derivation).
    fn decision(&self, bits: u32) -> Option<TuneDecision>;
}

impl<T: Tuner + ?Sized> Tuner for &T {
    fn ways(&self) -> u32 {
        (**self).ways()
    }
    fn observe(&self, frames: u32, way: u32, magnitudes: &[u64]) {
        (**self).observe(frames, way, magnitudes)
    }
    fn decision(&self, bits: u32) -> Option<TuneDecision> {
        (**self).decision(bits)
    }
}

impl<T: Tuner + ?Sized> Tuner for std::sync::Arc<T> {
    fn ways(&self) -> u32 {
        (**self).ways()
    }
    fn observe(&self, frames: u32, way: u32, magnitudes: &[u64]) {
        (**self).observe(frames, way, magnitudes)
    }
    fn decision(&self, bits: u32) -> Option<TuneDecision> {
        (**self).decision(bits)
    }
}

/// Reports the XOR-difference magnitudes of a deterministic strided sample
/// of `stack`'s coordinate series to `tuner` (at most
/// [`TUNER_SAMPLE_SERIES`] series, every way the tuner asks for). Way `w`
/// pairs samples `i` and `i + w + 1`, mirroring the voter's temporal
/// pairings, so the tuner sees the same Φ rank statistics the per-series
/// analysis would derive cut-offs from. Every caller that tunes (the
/// serving engine, the CLI, `repro sweep`) feeds through this one function
/// so every surface observes identically.
pub fn observe_stack<T: BitPixel>(tuner: &dyn Tuner, stack: &ImageStack<T>) {
    let frames = stack.frames();
    let coords = stack.frame_len();
    if frames < 2 || coords == 0 {
        return;
    }
    let ways = tuner.ways().max(1) as usize;
    let sample = coords.min(TUNER_SAMPLE_SERIES);
    let stride = coords / sample;
    let width = stack.width();
    let mut series: Vec<T> = Vec::with_capacity(frames);
    let mut mags: Vec<u64> = Vec::with_capacity(frames);
    for k in 0..sample {
        let idx = k * stride;
        stack.gather_series(idx % width, idx / width, &mut series);
        for way in 0..ways {
            let offset = way + 1;
            if frames <= offset {
                break;
            }
            mags.clear();
            for i in 0..frames - offset {
                mags.push(series[i].xor(series[i + offset]).to_u64());
            }
            tuner.observe(frames as u32, way as u32, &mags);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Debug, Default)]
    struct CountingTuner {
        observed: AtomicU64,
    }

    impl Tuner for CountingTuner {
        fn ways(&self) -> u32 {
            2
        }
        fn observe(&self, _frames: u32, _way: u32, magnitudes: &[u64]) {
            self.observed
                .fetch_add(magnitudes.len() as u64, Ordering::Relaxed);
        }
        fn decision(&self, bits: u32) -> Option<TuneDecision> {
            Some(TuneDecision {
                lambda: Sensitivity::default(),
                upsilon: Upsilon::TWO,
                window_a_bits: bits - 4,
                window_c_bits: 2,
                recalibrations: 0,
            })
        }
    }

    #[test]
    fn trait_objects_and_arcs_forward() {
        let t = Arc::new(CountingTuner::default());
        let dyn_ref: &dyn Tuner = &t;
        dyn_ref.observe(8, 0, &[1, 2, 3]);
        let arc_dyn: Arc<dyn Tuner> = t.clone();
        arc_dyn.observe(8, 1, &[4]);
        assert_eq!(t.observed.load(Ordering::Relaxed), 4);
        let d = arc_dyn.decision(16).expect("decision");
        assert_eq!(d.window_a_bits, 12);
        assert!(d.window_a_bits + d.window_c_bits <= 16);
    }
}
