//! # preflight-tune
//!
//! The online Λ/Υ auto-tuning control plane.
//!
//! The paper derives its bit-window delimiters dynamically from each
//! series' own XOR-difference statistics (§3.1) — but the serving path
//! takes λ/Υ as static per-request knobs, so a stream whose scene
//! statistics drift slowly erodes Ψ without anyone noticing. This crate
//! closes that loop with a per-stream [`StreamCalibrator`]:
//!
//! - an exact fixed-size log-bucket [`QuantileSketch`] per temporal way
//!   tracks the rolling Φ XOR-difference rank statistics (O(1) update, no
//!   steady-state allocation — the `preflight-obs` discipline);
//! - once warm, the calibrator freezes the cut-off exponents into a
//!   [`TuneDecision`] — chosen λ/Υ plus static window widths — that
//!   callers apply by running
//!   [`AlgoNgst::tuned`](preflight_core::AlgoNgst::tuned) instead of the
//!   requested algorithm;
//! - frozen boundaries move only when the candidate exponents leave a
//!   hysteresis band, so stationary scenes stay bit-identical run-to-run
//!   while scene changes recalibrate within a few runs;
//! - chosen-vs-requested values are published as `tune_*` gauges in the
//!   obs registry, and the whole state snapshots to bytes for
//!   drain/restart continuity.
//!
//! The offline counterpart — `repro sweep` in `preflight-bench` — grids
//! the same parameter space against injected fault rates and produces the
//! Ψ maps the online tuner's choices are validated against (the
//! convergence test in `preflight-bench`).
//!
//! Every caller applies a decision the same way: observe the stack, ask
//! for the decision in force, and run the tuned algorithm (the requested
//! one while the calibrator warms up):
//!
//! ```
//! use preflight_core::{observe_stack, AlgoNgst, ImageStack, Preprocessor, Tuner};
//! use preflight_obs::Obs;
//! use preflight_tune::{StreamCalibrator, TuneParams};
//!
//! let cal = StreamCalibrator::new(TuneParams::default(), &Obs::new());
//! let mut stack: ImageStack<u16> = ImageStack::new(64, 64, 32);
//! let requested = AlgoNgst::default();
//! observe_stack(&cal, &stack);
//! let decision = cal.decision(16).expect("one stack is enough to warm up");
//! Preprocessor::new(requested.tuned(&decision)).run(&mut stack);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrator;
pub mod sketch;

pub use calibrator::{SnapshotError, StreamCalibrator, TuneParams};
pub use sketch::{cp2_exponent, QuantileSketch};

// Re-exported so calibrator users reach the driver-side contract without
// importing `preflight-core` themselves.
pub use preflight_core::{TuneDecision, Tuner};
