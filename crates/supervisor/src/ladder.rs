//! The graceful-degradation ladder.
//!
//! A unit of work that keeps failing its preprocessing stage is not retried
//! forever: it is quarantined and reprocessed one rung down a ladder of
//! progressively simpler (and progressively less effective, but also less
//! demanding) algorithms, ending in a passthrough that at least delivers
//! the raw data flagged as unprotected. A run therefore always terminates
//! with output, annotated with the fault-tolerance level actually achieved.

use preflight_core::{
    AlgoNgst, BitPixel, BitVoter, Exec, MedianSmoother, SeriesPreprocessor, ValuePixel,
};
use std::fmt;

/// Fault-tolerance level achieved for a unit of work, ordered from the full
/// dynamic algorithm (best) down to unprotected passthrough (worst).
///
/// The derived `Ord` follows declaration order, so the level achieved by a
/// whole run is simply the `max` over its units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FtLevel {
    /// Full dynamic preprocessing (`Algo_NGST`).
    AlgoNgst,
    /// Majority vote over the bit planes of the series.
    BitVoter,
    /// Median smoothing of the series.
    MedianSmoother,
    /// No preprocessing; raw data passed through and flagged.
    Passthrough,
}

impl FtLevel {
    /// Short stable name (used in reports and logs).
    pub fn name(&self) -> &'static str {
        match self {
            FtLevel::AlgoNgst => "algo-ngst",
            FtLevel::BitVoter => "bit-voter",
            FtLevel::MedianSmoother => "median-smoother",
            FtLevel::Passthrough => "passthrough",
        }
    }

    /// The next rung down, or `None` at the bottom.
    pub fn next(&self) -> Option<FtLevel> {
        match self {
            FtLevel::AlgoNgst => Some(FtLevel::BitVoter),
            FtLevel::BitVoter => Some(FtLevel::MedianSmoother),
            FtLevel::MedianSmoother => Some(FtLevel::Passthrough),
            FtLevel::Passthrough => None,
        }
    }
}

impl fmt::Display for FtLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete preprocessor for one ladder rung, usable wherever a
/// [`SeriesPreprocessor`] is expected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LadderStage {
    /// Full dynamic preprocessing with its configured parameters.
    Algo(AlgoNgst),
    /// Bit-plane majority voting.
    Voter(BitVoter),
    /// Median smoothing.
    Median(MedianSmoother),
    /// Identity: leaves the series untouched.
    Passthrough,
}

impl LadderStage {
    /// The fault-tolerance level this stage represents.
    pub fn level(&self) -> FtLevel {
        match self {
            LadderStage::Algo(_) => FtLevel::AlgoNgst,
            LadderStage::Voter(_) => FtLevel::BitVoter,
            LadderStage::Median(_) => FtLevel::MedianSmoother,
            LadderStage::Passthrough => FtLevel::Passthrough,
        }
    }
}

impl<T: BitPixel + ValuePixel> SeriesPreprocessor<T> for LadderStage {
    fn name(&self) -> &'static str {
        self.level().name()
    }

    fn preprocess_rows(&self, rows: &mut [&mut [T]], cx: &mut Exec<'_, T>) -> usize {
        match self {
            LadderStage::Algo(algo) => algo.preprocess_rows(rows, cx),
            LadderStage::Voter(voter) => voter.preprocess_rows(rows, cx),
            LadderStage::Median(median) => median.preprocess_rows(rows, cx),
            LadderStage::Passthrough => 0,
        }
    }

    fn preprocess_in(&self, series: &mut [T], cx: &mut Exec<'_, T>) -> usize {
        match self {
            LadderStage::Algo(algo) => algo.preprocess_in(series, cx),
            LadderStage::Voter(voter) => voter.preprocess_in(series, cx),
            LadderStage::Median(median) => median.preprocess_in(series, cx),
            LadderStage::Passthrough => 0,
        }
    }
}

/// The full degradation chain for one run, anchored at the configured
/// top-level algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationLadder {
    top: Option<AlgoNgst>,
}

impl DegradationLadder {
    /// Builds a ladder whose top rung is `algo` (or, when `None`, a ladder
    /// that starts directly at passthrough — matching a pipeline configured
    /// without preprocessing, which has nothing to degrade through).
    pub fn new(algo: Option<AlgoNgst>) -> Self {
        DegradationLadder { top: algo }
    }

    /// The level work starts at.
    pub fn entry_level(&self) -> FtLevel {
        if self.top.is_some() {
            FtLevel::AlgoNgst
        } else {
            FtLevel::Passthrough
        }
    }

    /// The preprocessor for `level`, or `None` if this ladder cannot
    /// provide it (an `AlgoNgst` rung with no configured algorithm).
    pub fn stage(&self, level: FtLevel) -> Option<LadderStage> {
        match level {
            FtLevel::AlgoNgst => self.top.map(LadderStage::Algo),
            FtLevel::BitVoter => Some(LadderStage::Voter(BitVoter::new())),
            FtLevel::MedianSmoother => Some(LadderStage::Median(MedianSmoother::new())),
            FtLevel::Passthrough => Some(LadderStage::Passthrough),
        }
    }

    /// The rung below `level`, or `None` at the bottom.
    pub fn step_down(&self, level: FtLevel) -> Option<(FtLevel, LadderStage)> {
        let next = level.next()?;
        let stage = self.stage(next)?;
        Some((next, stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preflight_core::{
        ImageStack, Kernel, Obs, Preprocessor, Sensitivity, TuneDecision, Upsilon,
    };

    fn algo() -> AlgoNgst {
        AlgoNgst::new(Upsilon::new(8).unwrap(), Sensitivity::new(50).unwrap())
    }

    #[test]
    fn level_order_matches_ladder() {
        assert!(FtLevel::AlgoNgst < FtLevel::BitVoter);
        assert!(FtLevel::BitVoter < FtLevel::MedianSmoother);
        assert!(FtLevel::MedianSmoother < FtLevel::Passthrough);
        // "Worst rung reached" is therefore a plain max.
        let worst = [
            FtLevel::AlgoNgst,
            FtLevel::MedianSmoother,
            FtLevel::BitVoter,
        ]
        .into_iter()
        .max()
        .unwrap();
        assert_eq!(worst, FtLevel::MedianSmoother);
    }

    #[test]
    fn walk_down_the_whole_ladder() {
        let ladder = DegradationLadder::new(Some(algo()));
        assert_eq!(ladder.entry_level(), FtLevel::AlgoNgst);
        let mut level = ladder.entry_level();
        let mut seen = vec![level];
        while let Some((next, stage)) = ladder.step_down(level) {
            assert_eq!(stage.level(), next);
            seen.push(next);
            level = next;
        }
        assert_eq!(
            seen,
            vec![
                FtLevel::AlgoNgst,
                FtLevel::BitVoter,
                FtLevel::MedianSmoother,
                FtLevel::Passthrough
            ]
        );
        assert!(ladder.step_down(FtLevel::Passthrough).is_none());
    }

    #[test]
    fn no_algorithm_means_passthrough_entry() {
        let ladder = DegradationLadder::new(None);
        assert_eq!(ladder.entry_level(), FtLevel::Passthrough);
        assert!(ladder.stage(FtLevel::AlgoNgst).is_none());
        assert!(ladder.stage(FtLevel::Passthrough).is_some());
    }

    #[test]
    fn passthrough_stage_is_identity() {
        let stage = LadderStage::Passthrough;
        let mut series: Vec<u16> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let orig = series.clone();
        assert_eq!(
            SeriesPreprocessor::<u16>::preprocess(&stage, &mut series),
            0
        );
        assert_eq!(series, orig);
    }

    #[test]
    fn degraded_stages_repair_a_spike() {
        // A flat series with one large outlier: every real rung should
        // touch it, passthrough should not.
        let make = || {
            let mut s: Vec<u16> = vec![100; 16];
            s[7] = 100 | 0x4000;
            s
        };
        for level in [FtLevel::BitVoter, FtLevel::MedianSmoother] {
            let ladder = DegradationLadder::new(None);
            let stage = ladder.stage(level).unwrap();
            let mut series = make();
            let changed = SeriesPreprocessor::<u16>::preprocess(&stage, &mut series);
            assert!(changed > 0, "{level} should repair the spike");
        }
    }

    /// A calm random walk per coordinate with sparse high-bit flips.
    fn noisy_stack() -> ImageStack<u16> {
        let mut st = ImageStack::new(40, 24, 16);
        let mut state = 0x5DEE_CE66_D1CEu64;
        for v in st.as_mut_slice() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            *v = 27_000 + (state >> 58) as u16;
            if state >> 32 & 0xFF < 6 {
                *v ^= 1 << (10 + (state >> 40 & 0x3) as u32);
            }
        }
        st
    }

    /// A decision far from [`algo`]'s request, so a dropped decision shows.
    fn decision() -> TuneDecision {
        TuneDecision {
            lambda: Sensitivity::new(95).unwrap(),
            upsilon: Upsilon::FOUR,
            window_a_bits: 12,
            window_c_bits: 2,
            recalibrations: 0,
        }
    }

    fn run<A: SeriesPreprocessor<u16> + Sync>(pp: Preprocessor<A>) -> ImageStack<u16> {
        let mut st = noisy_stack();
        pp.run(&mut st);
        st
    }

    /// Bit-sliced transposes a [`run`] tallies with `kernel`.
    fn transposes<A: SeriesPreprocessor<u16> + Sync>(pp: Preprocessor<A>, kernel: Kernel) -> u64 {
        let obs = Obs::new();
        let out = run(pp.kernel(kernel).observer(&obs));
        assert_eq!(out, run(Preprocessor::new(algo()).kernel(kernel)));
        obs.snapshot()
            .counter("preprocess_bitslice_transposes_total", None)
            .unwrap_or(0)
    }

    #[test]
    fn algo_rung_runs_the_requested_kernel() {
        // The bit-sliced tallies pin which path ran. The 64-lane group
        // kernel transposes once per group and round (one round on this
        // stack); the lone-series pass tallies once per series, so a
        // wrapper that fell back to it would keep the bytes right but
        // show one per series, and one that dropped the kernel would show
        // 0.
        let st = noisy_stack();
        let groups = st.frame_len().div_ceil(64) as u64;
        let algo = algo();
        for threads in [1, 2] {
            for (kernel, want) in [(Kernel::Bitsliced, groups), (Kernel::Scalar, 0)] {
                let rung = Preprocessor::new(LadderStage::Algo(algo)).threads(threads);
                let borrowed = Preprocessor::new(&algo).threads(threads);
                assert_eq!(
                    transposes(rung, kernel),
                    want,
                    "Algo rung, {kernel} on {threads} thread(s)"
                );
                assert_eq!(
                    transposes(borrowed, kernel),
                    want,
                    "&AlgoNgst, {kernel} on {threads} thread(s)"
                );
            }
        }
    }

    #[test]
    fn algo_rung_honours_the_decision_and_lower_rungs_ignore_it() {
        // The serving engine applies a decision by building its ladder from
        // the tuned algorithm; only the top rung may change.
        let tuned = DegradationLadder::new(Some(algo().tuned(&decision())));
        let untuned = DegradationLadder::new(Some(algo()));
        let rung = |ladder: &DegradationLadder, level| ladder.stage(level).unwrap();
        for kernel in [Kernel::Bitsliced, Kernel::Scalar] {
            let via_ladder = run(Preprocessor::new(rung(&tuned, FtLevel::AlgoNgst)).kernel(kernel));
            let direct = run(Preprocessor::new(algo().tuned(&decision())).kernel(kernel));
            assert_eq!(via_ladder, direct, "{kernel}: tuned Algo rung");
            let plain = run(Preprocessor::new(rung(&untuned, FtLevel::AlgoNgst)).kernel(kernel));
            assert_ne!(
                via_ladder, plain,
                "{kernel}: the decision must change the output"
            );
        }

        for level in [FtLevel::BitVoter, FtLevel::MedianSmoother] {
            assert_eq!(rung(&tuned, level), rung(&untuned, level));
            let with_decision = run(Preprocessor::new(rung(&tuned, level)));
            let plain = run(Preprocessor::new(rung(&untuned, level)));
            assert_eq!(with_decision, plain, "{level} must ignore the decision");
            assert_ne!(plain, noisy_stack(), "{level} must repair something");
        }
    }
}
