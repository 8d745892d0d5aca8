//! The offline Λ/Υ sweep orchestrator (`repro sweep`).
//!
//! The online `StreamCalibrator` freezes window boundaries from a stream's
//! rolling Φ statistics; this module is its ground truth. It grids the
//! (Λ, Υ) parameter space and a static-window sub-grid against injected
//! fault rates on a *drifting* synthetic scene — the scenario auto-tuning
//! exists for — and reports Ψ for every cell, the offline-optimal window
//! pair, and what the online tuner converged to on the same data. The
//! convergence test in this module asserts the two agree within tolerance,
//! which is the validation the tentpole claims: the control plane's frozen
//! boundaries land where an exhaustive offline search would put them.
//!
//! Everything is seeded; `run_sweep` is bit-deterministic run-to-run, so
//! `BENCH_sweep.json` diffs cleanly across commits.

use preflight_core::{
    observe_stack, AlgoNgst, ImageStack, NgstConfig, Preprocessor, Sensitivity, Upsilon,
};
use preflight_datagen::Gaussian;
use preflight_faults::{seeded_rng, Uncorrelated};
use preflight_metrics::psi;
use preflight_obs::Obs;
use preflight_tune::{StreamCalibrator, TuneParams, Tuner};
use std::fmt::Write as _;

/// Workload shape for one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Temporal frames (split evenly across the σ segments).
    pub frames: usize,
    /// Per-segment walk σ: the scene drifts from calm to turbulent as the
    /// temporal axis crosses segment boundaries.
    pub segment_sigmas: Vec<f64>,
    /// Sensitivity grid.
    pub lambdas: Vec<u32>,
    /// Voter-count grid.
    pub upsilons: Vec<usize>,
    /// Uncorrelated fault rates Γ₀ to inject.
    pub gamma0s: Vec<f64>,
    /// Master seed: scene and fault injection both derive from it.
    pub seed: u64,
}

impl SweepConfig {
    /// The standard sweep: a 32×24×64 drifting stack across three fault
    /// rates.
    pub fn standard() -> Self {
        SweepConfig {
            width: 32,
            height: 24,
            frames: 64,
            segment_sigmas: vec![40.0, 250.0, 1200.0],
            lambdas: vec![60, 80, 95],
            upsilons: vec![2, 4, 6],
            gamma0s: vec![0.005, 0.01, 0.025],
            seed: 0x5EED_CAFE,
        }
    }

    /// A sub-second smoke sweep for CI.
    pub fn quick() -> Self {
        SweepConfig {
            width: 16,
            height: 12,
            frames: 48,
            segment_sigmas: vec![40.0, 250.0, 1200.0],
            lambdas: vec![60, 80, 95],
            upsilons: vec![2, 4, 6],
            gamma0s: vec![0.01],
            seed: 0x5EED_CAFE,
        }
    }
}

/// One (Λ, Υ, Γ₀) cell of the parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Sensitivity Λ of this cell.
    pub lambda: u32,
    /// Voter count Υ of this cell.
    pub upsilon: usize,
    /// Injected fault rate Γ₀.
    pub gamma0: f64,
    /// Ψ of the corrupted stack against the clean one (no preprocessing).
    pub psi_before: f64,
    /// Ψ after preprocessing with this cell's parameters.
    pub psi_after: f64,
    /// `psi_before / psi_after` (∞-safe: 0 when `psi_after` is 0 too).
    pub improvement: f64,
    /// `true` when preprocessing made things worse — logged as an error.
    pub deteriorated: bool,
}

/// One (A, C) cell of the static-window sub-grid at the mid-grid (Λ, Υ).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCell {
    /// Width of bit window A (most significant bits).
    pub a_bits: u32,
    /// Width of bit window C (least significant bits).
    pub c_bits: u32,
    /// Ψ after preprocessing with these frozen windows.
    pub psi_after: f64,
}

/// What the online calibrator converged to on the same corrupted stack.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    /// Λ the calibrator chose.
    pub tuned_lambda: u32,
    /// Υ the calibrator chose.
    pub tuned_upsilon: usize,
    /// Frozen window A width.
    pub tuned_a: u32,
    /// Frozen window C width.
    pub tuned_c: u32,
    /// Boundary re-adoptions during the run.
    pub recalibrations: u64,
    /// Ψ of the auto-tuned run.
    pub psi_tuned: f64,
}

/// Results of one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The workload that ran.
    pub config: SweepConfig,
    /// Every (Λ, Υ, Γ₀) cell.
    pub rows: Vec<SweepRow>,
    /// The static-window sub-grid (mid-grid Λ/Υ, first Γ₀).
    pub windows: Vec<WindowCell>,
    /// The argmin-Ψ cell of [`windows`](Self::windows): `(a_bits, c_bits)`.
    pub best_window: (u32, u32),
    /// Ψ of the static mid-grid cell (Λ=80, Υ=4, first Γ₀) — the baseline
    /// the online tuner must beat.
    pub psi_midgrid: f64,
    /// What the online calibrator converged to.
    pub online: OnlineOutcome,
    /// Human-readable log of every deteriorated cell.
    pub errors: Vec<String>,
}

/// The drifting synthetic scene: every coordinate runs a Gaussian walk
/// whose step σ switches between [`SweepConfig::segment_sigmas`] as the
/// temporal axis crosses segment boundaries — calm at first, turbulent by
/// the end, so one static window choice cannot be right everywhere and the
/// sweep has something real to optimise.
pub fn drifting_stack(config: &SweepConfig) -> ImageStack<u16> {
    let mut stack: ImageStack<u16> = ImageStack::new(config.width, config.height, config.frames);
    let mut rng = seeded_rng(config.seed);
    let segments = config.segment_sigmas.len().max(1);
    let gaussians: Vec<Gaussian> = config
        .segment_sigmas
        .iter()
        .map(|&s| Gaussian::new(0.0, s))
        .collect();
    let coords = config.width * config.height;
    let mut series: Vec<u16> = Vec::with_capacity(config.frames);
    for idx in 0..coords {
        series.clear();
        let mut level = 27_000.0_f64;
        for f in 0..config.frames {
            if f > 0 {
                let seg = (f * segments / config.frames).min(segments - 1);
                level += gaussians[seg].sample(&mut rng);
            }
            series.push(level.round().clamp(0.0, f64::from(u16::MAX)) as u16);
        }
        let (x, y) = (idx % config.width, idx / config.width);
        for (f, &v) in series.iter().enumerate() {
            stack.frame_mut(f)[y * config.width + x] = v;
        }
    }
    stack
}

/// Preprocesses a fresh copy of `corrupted` with `algo` and scores Ψ
/// against `clean`. Single-threaded for strict determinism (the kernels
/// are bit-identical across thread counts anyway).
fn psi_with(clean: &ImageStack<u16>, corrupted: &ImageStack<u16>, algo: &AlgoNgst) -> f64 {
    let mut work = corrupted.clone();
    Preprocessor::new(algo).threads(1).run(&mut work);
    psi(clean.as_slice(), work.as_slice())
}

/// Runs the full sweep: parameter grid × fault rates, the static-window
/// sub-grid, and the online calibrator on the same data.
///
/// # Panics
/// Panics if the static grids contain invalid Λ/Υ values — a harness bug,
/// not a measurement.
pub fn run_sweep(quick: bool) -> SweepReport {
    let config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::standard()
    };
    let clean = drifting_stack(&config);

    let mut rows = Vec::new();
    let mut errors = Vec::new();
    let mut psi_midgrid = f64::NAN;
    let mut first_corrupted: Option<(f64, ImageStack<u16>, f64)> = None;
    for (gi, &gamma0) in config.gamma0s.iter().enumerate() {
        let injector = Uncorrelated::new(gamma0).expect("grid fault rates are valid");
        let mut rng = seeded_rng(config.seed ^ 0xFA17 ^ (gi as u64) << 8);
        let mut corrupted = clean.clone();
        injector.inject_words(corrupted.as_mut_slice(), &mut rng);
        let psi_before = psi(clean.as_slice(), corrupted.as_slice());
        for &lambda in &config.lambdas {
            for &upsilon in &config.upsilons {
                let algo = AlgoNgst::new(
                    Upsilon::new(upsilon).expect("grid upsilons are valid"),
                    Sensitivity::new(lambda).expect("grid lambdas are valid"),
                );
                let psi_after = psi_with(&clean, &corrupted, &algo);
                let deteriorated = psi_after > psi_before;
                if deteriorated {
                    errors.push(format!(
                        "L={lambda} U={upsilon} gamma0={gamma0}: preprocessing deteriorated \
                         Psi {psi_before:.6} -> {psi_after:.6}"
                    ));
                }
                if lambda == 80 && upsilon == 4 && gi == 0 {
                    psi_midgrid = psi_after;
                }
                rows.push(SweepRow {
                    lambda,
                    upsilon,
                    gamma0,
                    psi_before,
                    psi_after,
                    improvement: if psi_after > 0.0 {
                        psi_before / psi_after
                    } else {
                        0.0
                    },
                    deteriorated,
                });
            }
        }
        if first_corrupted.is_none() {
            first_corrupted = Some((gamma0, corrupted, psi_before));
        }
    }
    let (_gamma0, corrupted, _psi_before) =
        first_corrupted.expect("at least one fault rate in the grid");

    // Static-window sub-grid at the mid-grid parameters: which frozen
    // (A, C) pair an offline search would pick for this stream.
    let mid_upsilon = Upsilon::FOUR;
    let mid_lambda = Sensitivity::new(80).expect("valid lambda");
    let mut windows = Vec::new();
    let mut best_window = (1, 0);
    let mut best_psi = f64::INFINITY;
    for a_bits in [1u32, 2, 3, 4, 5, 6, 8] {
        for c_bits in [0u32, 2, 4, 6, 8, 10] {
            if a_bits + c_bits > 14 {
                continue;
            }
            let algo = AlgoNgst::with_config(
                mid_upsilon,
                mid_lambda,
                NgstConfig {
                    static_windows: Some((a_bits, c_bits)),
                    ..NgstConfig::default()
                },
            );
            let psi_after = psi_with(&clean, &corrupted, &algo);
            if psi_after < best_psi {
                best_psi = psi_after;
                best_window = (a_bits, c_bits);
            }
            windows.push(WindowCell {
                a_bits,
                c_bits,
                psi_after,
            });
        }
    }

    // The online calibrator on the same corrupted stack: it observes the
    // whole stack and freezes, then the tuned decision serves.
    let cal = StreamCalibrator::new(TuneParams::new(mid_lambda, mid_upsilon), &Obs::disabled());
    observe_stack(&cal, &corrupted);
    let decision = cal
        .decision(16)
        .expect("the calibrator must be warm after a full-stack observation");
    let mut work = corrupted.clone();
    Preprocessor::new(AlgoNgst::new(mid_upsilon, mid_lambda).tuned(&decision))
        .threads(1)
        .run(&mut work);
    let psi_tuned = psi(clean.as_slice(), work.as_slice());
    let online = OnlineOutcome {
        tuned_lambda: decision.lambda.value(),
        tuned_upsilon: decision.upsilon.value(),
        tuned_a: decision.window_a_bits,
        tuned_c: decision.window_c_bits,
        recalibrations: decision.recalibrations,
        psi_tuned,
    };

    SweepReport {
        config,
        rows,
        windows,
        best_window,
        psi_midgrid,
        online,
        errors,
    }
}

impl SweepReport {
    /// Aligned text table for the terminal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "parameter sweep, {}x{}x{} drifting stack (sigmas {:?})",
            self.config.width, self.config.height, self.config.frames, self.config.segment_sigmas,
        );
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>9} {:>12} {:>12} {:>8}",
            "lambda", "upsilon", "gamma0", "psi_before", "psi_after", "improve"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>9} {:>12.6} {:>12.6} {:>8.2}{}",
                r.lambda,
                r.upsilon,
                r.gamma0,
                r.psi_before,
                r.psi_after,
                r.improvement,
                if r.deteriorated { "  (worse!)" } else { "" },
            );
        }
        let _ = writeln!(out, "\nstatic-window sub-grid (L=80, U=4):");
        let _ = writeln!(out, "{:>8} {:>8} {:>12}", "a_bits", "c_bits", "psi_after");
        for w in &self.windows {
            let mark = if (w.a_bits, w.c_bits) == self.best_window {
                "  <- optimum"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>12.6}{mark}",
                w.a_bits, w.c_bits, w.psi_after
            );
        }
        let o = &self.online;
        let _ = writeln!(
            out,
            "\nonline tuner: chose L={} U={} windows A={}/C={} ({} recalibration(s)), \
             Psi {:.6} vs static mid-grid {:.6}",
            o.tuned_lambda,
            o.tuned_upsilon,
            o.tuned_a,
            o.tuned_c,
            o.recalibrations,
            o.psi_tuned,
            self.psi_midgrid,
        );
        for e in &self.errors {
            let _ = writeln!(out, "error: {e}");
        }
        out
    }

    /// Hand-formatted JSON document (the repo carries no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"tune_sweep\",");
        let _ = writeln!(
            out,
            "  \"workload\": {{\"width\": {}, \"height\": {}, \"frames\": {}, \
             \"segments\": {}, \"seed\": {}}},",
            self.config.width,
            self.config.height,
            self.config.frames,
            self.config.segment_sigmas.len(),
            self.config.seed
        );
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"lambda\": {}, \"upsilon\": {}, \"gamma0\": {}, \
                 \"psi_before\": {:.6}, \"psi_after\": {:.6}, \"improvement\": {:.3}, \
                 \"deteriorated\": {}}}",
                r.lambda,
                r.upsilon,
                r.gamma0,
                r.psi_before,
                r.psi_after,
                r.improvement,
                r.deteriorated
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"windows_grid\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"a_bits\": {}, \"c_bits\": {}, \"psi_after\": {:.6}}}",
                w.a_bits, w.c_bits, w.psi_after
            );
            out.push_str(if i + 1 < self.windows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"optimal_window\": {{\"a_bits\": {}, \"c_bits\": {}}},",
            self.best_window.0, self.best_window.1
        );
        let _ = writeln!(out, "  \"psi_midgrid\": {:.6},", self.psi_midgrid);
        let o = &self.online;
        let _ = writeln!(
            out,
            "  \"online\": {{\"tuned_lambda\": {}, \"tuned_upsilon\": {}, \
             \"tuned_window_a\": {}, \"tuned_window_c\": {}, \"recalibrations\": {}, \
             \"psi_tuned\": {:.6}}},",
            o.tuned_lambda, o.tuned_upsilon, o.tuned_a, o.tuned_c, o.recalibrations, o.psi_tuned
        );
        out.push_str("  \"errors\": [\n");
        for (i, e) in self.errors.iter().enumerate() {
            let _ = write!(out, "    \"{}\"", e.replace('"', "'"));
            out.push_str(if i + 1 < self.errors.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_tuner_converges_to_the_offline_optimum() {
        let report = run_sweep(true);
        let (best_a, best_c) = report.best_window;
        let o = &report.online;
        assert!(
            o.tuned_a.abs_diff(best_a) <= 2,
            "window A: tuner chose {} vs offline optimum {best_a}",
            o.tuned_a
        );
        assert!(
            o.tuned_c.abs_diff(best_c) <= 2,
            "window C: tuner chose {} vs offline optimum {best_c}",
            o.tuned_c
        );
        assert!(
            o.psi_tuned <= report.psi_midgrid * 1.02,
            "auto-tune must not lose to the static mid-grid: {} vs {}",
            o.psi_tuned,
            report.psi_midgrid
        );
    }

    #[test]
    fn every_cell_improves_on_no_preprocessing_at_practical_rates() {
        let report = run_sweep(true);
        assert!(!report.rows.is_empty());
        assert!(
            report.errors.is_empty(),
            "no cell may deteriorate at the quick fault rate: {:?}",
            report.errors
        );
        for r in &report.rows {
            assert!(r.psi_after.is_finite() && r.psi_after >= 0.0);
        }
    }

    #[test]
    fn sweep_is_deterministic_and_json_is_well_formed() {
        let a = run_sweep(true);
        let b = run_sweep(true);
        assert_eq!(a, b, "seeded sweep must be bit-deterministic");
        let json = a.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        for field in [
            "\"benchmark\": \"tune_sweep\"",
            "\"rows\"",
            "\"windows_grid\"",
            "\"optimal_window\"",
            "\"online\"",
            "\"psi_midgrid\"",
            "\"errors\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let count = |c| json.matches(c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }

    #[test]
    fn drifting_stack_actually_drifts() {
        let config = SweepConfig::quick();
        let stack = drifting_stack(&config);
        // Mean |frame-to-frame delta| in the first segment must be far
        // below the last segment's — the drift the tuner exists to track.
        let seg_delta = |range: std::ops::Range<usize>| -> f64 {
            let mut sum = 0.0;
            let mut n = 0u64;
            for f in range {
                for (a, b) in stack.frame(f).iter().zip(stack.frame(f + 1)) {
                    sum += f64::from(a.abs_diff(*b));
                    n += 1;
                }
            }
            sum / n as f64
        };
        let calm = seg_delta(0..4);
        let turbulent = seg_delta(config.frames - 5..config.frames - 1);
        assert!(
            turbulent > calm * 4.0,
            "expected strong drift, got calm {calm} vs turbulent {turbulent}"
        );
    }
}
