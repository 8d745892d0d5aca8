//! `preflight-serve`: a batch-serving preprocessing daemon.
//!
//! This crate turns the library pipeline into a long-running service,
//! `preflightd`, for deployments where many camera/telemetry streams share
//! one radiation-tolerant compute budget:
//!
//! - **Wire protocol** ([`wire`]): length-prefixed binary envelopes with
//!   CRC-32 integrity on both the envelope and every image frame — the
//!   transport gets the same distrust the paper applies to sensor data.
//! - **Bounded admission** ([`queue`]): a fixed number of in-flight
//!   requests; beyond that, clients get an explicit `Busy` instead of the
//!   daemon buffering without bound.
//! - **Adaptive batching** ([`batcher`]): frames from many clients
//!   coalesce into temporal stacks of at least depth Υ, flushing on depth
//!   or deadline, with the target depth scaling under load.
//! - **Supervised engine** ([`engine`]): each batch runs under the PR 1
//!   supervisor — retries, timeouts, and the degradation ladder — so the
//!   daemon answers every admitted request even when a rung fails.
//! - **Per-request telemetry** ([`telemetry`]): every response carries a
//!   stats trailer (bits flipped, voter agreement, queue wait, batch
//!   shape, degradation rung).
//! - **Observability** ([`telemetry`], [`metrics`]): every stage of the
//!   serve pipeline (admission, queue wait, batch formation, engine
//!   service, response write) feeds latency histograms and counters in a
//!   shared [`preflight_obs`] registry, exposed three ways — a Prometheus
//!   `/metrics` scrape listener, the `Stats` wire message
//!   ([`Client::stats`]), and the one-line human summary.

#![deny(unsafe_code)]
#![warn(missing_docs)]

// The serving crates (this one, and the router, CLI and bench crates that
// depend on it) run on little-endian Linux only: `poll` is an epoll shim and
// `bytes` views pixel words as their wire bytes. See DESIGN.md §15.
#[cfg(not(all(target_os = "linux", target_endian = "little")))]
compile_error!("preflight-serve builds for little-endian Linux only (DESIGN.md §15)");

pub mod batcher;
pub mod builder;
pub(crate) mod bytes;
pub mod client;
pub mod crc;
pub mod engine;
mod event_loop;
mod ingest;
pub mod metrics;
pub mod poll;
pub mod pool;
pub mod queue;
pub mod reply;
pub mod server;
pub mod signal;
pub mod telemetry;
pub mod wheel;
pub mod wire;

pub use batcher::BatchConfig;
pub use builder::{ClientBuilder, ServerBuilder};
pub use client::{Client, ClientError, SubmitOptions};
pub use engine::{EngineConfig, TunerRegistry};
pub use queue::AdmissionGate;
pub use server::{ServerConfig, ServerHandle};
pub use telemetry::{format_summary, RequestStats, ServerStats};
pub use wire::{Dtype, FramePayload, Message, SubmitRequest, SubmitResponse, WireError};

// Re-exported so daemon embedders configure observability without a
// separate dependency on `preflight-obs`.
pub use preflight_obs::{render_prometheus, Obs, Snapshot};
