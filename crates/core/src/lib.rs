//! # preflight-core
//!
//! Core input-data preprocessing algorithms for bit-flip fault tolerance in
//! space applications, reproducing *"Pre-Processing Input Data to Augment
//! Fault Tolerance in Space Applications"* (Nair, Koren, Koren & Krishna,
//! DSN 2003).
//!
//! On-board science applications hold input buffers that are orders of
//! magnitude larger than their instruction memory, so radiation-induced
//! bit-flips are far more likely to strike *data* than code. Classical
//! fault-tolerance schemes (ABFT, N-version programming, application-level
//! fault tolerance) do not cover this fault model: no process fails, the
//! application simply computes a confident wrong answer from corrupted input.
//!
//! This crate provides the paper's remedy — *proactive preprocessing* of the
//! raw input that exploits the natural redundancy of sensor data to identify
//! and repair flipped bits before the application consumes them:
//!
//! - [`AlgoNgst`] — the dynamic, application-specific algorithm of the paper's
//!   §3 (Algorithm 1). It XOR-compares every sample with its Υ temporal
//!   neighbors, derives dynamic *bit windows* from rank statistics of those
//!   differences, and flips back bits on which the neighbors vote.
//! - [`AlgoOtis`] — the spatial-locality variant of §7 for single-shot
//!   instrument data, adding absolute physical bounds and a trend-vs-point
//!   anomaly rule so genuine natural phenomena survive preprocessing.
//! - [`MedianSmoother`] / [`MeanSmoother`] — the value-based baseline of §4.1
//!   (Algorithm 2).
//! - [`BitVoter`] — the sliding-window bitwise majority baseline of §4.2
//!   (Algorithm 3).
//!
//! # Quick example
//!
//! ```
//! use preflight_core::{AlgoNgst, Sensitivity, Upsilon, SeriesPreprocessor};
//!
//! // 16 temporal readouts of one detector coordinate (a calm region)...
//! let clean: Vec<u16> = vec![27_000; 16];
//! let mut noisy = clean.clone();
//! noisy[7] ^= 1 << 14; // a radiation-induced bit-flip in window A
//!
//! let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
//! algo.preprocess(&mut noisy);
//! assert_eq!(noisy[7], clean[7]); // the flip was identified and reverted
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the bit-sliced kernel's runtime SIMD
// dispatch needs two audited `unsafe` call sites (invoking
// `#[target_feature]` functions whose feature requirement was verified by
// runtime CPU detection). Each carries an `#[allow(unsafe_code)]` with a
// SAFETY comment; everything else in the crate remains safe code.
#![deny(unsafe_code)]

pub mod algo_ngst;
pub mod algo_otis;
pub mod bitslice;
pub mod bitvote;
mod budget;
pub mod container;
pub mod error;
pub mod kernel;
pub mod pixel;
pub mod preprocessor;
pub mod sensitivity;
pub mod smoothing;
pub mod traits;
pub mod tuning;
pub mod voter;
pub mod window;

pub use algo_ngst::{AlgoNgst, NgstConfig};
pub use algo_otis::{AlgoOtis, Neighborhood, OtisConfig, PhysicalBounds, PlaneReport, Repair};
pub use bitslice::{detected_tiers, dispatch_tier, DispatchTier};
pub use bitvote::BitVoter;
pub use container::{Cube, Image, ImageStack};
pub use error::CoreError;
pub use kernel::Kernel;
pub use pixel::{BitPixel, ValuePixel};
pub use preprocessor::{available_threads, Preprocessor};
pub use sensitivity::{Sensitivity, Upsilon};
pub use smoothing::{MeanSmoother, MedianSmoother};
pub use traits::{Exec, PlanePreprocessor, SeriesPreprocessor};
pub use tuning::{observe_stack, TuneDecision, Tuner};
pub use voter::{VoterMatrix, VoterScratch};
pub use window::BitWindows;

// Re-exported so downstream crates reach the observability handles
// without a separate dependency on `preflight-obs`.
pub use preflight_obs::{Obs, Span};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::algo_ngst::AlgoNgst;
    pub use crate::algo_otis::{AlgoOtis, PhysicalBounds};
    pub use crate::bitslice::{detected_tiers, dispatch_tier, DispatchTier};
    pub use crate::bitvote::BitVoter;
    pub use crate::container::{Cube, Image, ImageStack};
    pub use crate::kernel::Kernel;
    pub use crate::pixel::{BitPixel, ValuePixel};
    pub use crate::preprocessor::{available_threads, Preprocessor};
    pub use crate::sensitivity::{Sensitivity, Upsilon};
    pub use crate::smoothing::{MeanSmoother, MedianSmoother};
    pub use crate::traits::{Exec, PlanePreprocessor, SeriesPreprocessor};
    pub use preflight_obs::{Obs, Span};
}
