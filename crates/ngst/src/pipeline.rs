//! The distributed master/slave CR-rejection pipeline of the paper's Fig. 1.
//!
//! The flight design is a 16-processor COTS workstation on a Myrinet-class
//! interconnect: the master fragments every input stack into 128×128-pixel
//! tiles and hands them to slave nodes; *"the slack CPU time in the slave
//! nodes can be very well utilized for a suitable fault-tolerance scheme"* —
//! which is exactly where the input preprocessing runs here. Processed
//! fragments return to the master for re-integration and Rice compression
//! before downlink.
//!
//! The reproduction keeps the structure — work queue, 16 workers, tile
//! routing, reassembly, compression — with threads and crossbeam channels
//! standing in for cluster nodes, and with an optional fault injector
//! corrupting tile payloads "in transit" (§2.2.2's transit fault class).
//!
//! # Supervised execution
//!
//! On COTS hardware the *computation* fails too, not just the data:
//! [`NgstPipeline::run_with`] wraps every tile in a policy-driven execution
//! envelope (per-tile deadlines, bounded retries with backoff, quarantine
//! and the graceful-degradation ladder of `preflight-supervisor`), and
//! accepts a process-level chaos injector (`preflight_faults::chaos`) that
//! stalls workers, crashes them, or corrupts their result messages. Every
//! recovery action is recorded as a structured
//! [`RecoveryEvent`](preflight_supervisor::RecoveryEvent) and surfaced in
//! the run's [`SupervisionOutcome`].

use crate::crreject::CrRejector;
use preflight_core::{AlgoNgst, Image, ImageStack, Preprocessor};
use preflight_faults::{ChaosModel, ChaosOutcome, Correlated, FaultError, Uncorrelated};
use preflight_rice::RiceCodec;
use preflight_supervisor::{
    DegradationLadder, FailureKind, FtLevel, LadderStage, RecoveryKind, RecoveryLog, Supervision,
    SupervisorError,
};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// The stage name tiles are supervised under (appears in recovery events).
pub const TILE_STAGE: &str = "ngst-tile";

/// Bit-flip corruption applied to a tile between fragmentation and
/// processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransitFault {
    /// I.i.d. flips with probability Γ₀ (§2.2.2).
    Uncorrelated(f64),
    /// Run-correlated bursts with base probability Γ_ini (§2.2.3).
    Correlated(f64),
}

/// A transit fault model validated at pipeline construction, so workers
/// never re-validate (or panic) on the hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TransitModel {
    None,
    Uncorrelated(Uncorrelated),
    Correlated(Correlated),
}

/// Errors raised while constructing or running the pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// A configuration field is out of range.
    InvalidConfig(&'static str),
    /// A fault-model parameter was rejected.
    Fault(FaultError),
    /// FITS ingestion failed.
    Fits(preflight_fits::FitsError),
    /// The supervision policy was invalid or a tile exhausted its retries.
    Supervisor(SupervisorError),
    /// A worker died while processing a tile and no supervision was active
    /// to requeue the work.
    WorkerLost {
        /// The tile the dead worker was holding.
        unit: u64,
    },
    /// Every worker exited while tiles were still outstanding.
    Disconnected,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(why) => write!(f, "invalid pipeline config: {why}"),
            PipelineError::Fault(e) => write!(f, "fault model rejected: {e}"),
            PipelineError::Fits(e) => write!(f, "FITS ingestion failed: {e}"),
            PipelineError::Supervisor(e) => write!(f, "supervision failed: {e}"),
            PipelineError::WorkerLost { unit } => {
                write!(
                    f,
                    "worker lost while processing tile {unit} (unsupervised run)"
                )
            }
            PipelineError::Disconnected => {
                write!(f, "all workers exited with tiles outstanding")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<FaultError> for PipelineError {
    fn from(e: FaultError) -> Self {
        PipelineError::Fault(e)
    }
}

impl From<preflight_fits::FitsError> for PipelineError {
    fn from(e: preflight_fits::FitsError) -> Self {
        PipelineError::Fits(e)
    }
}

impl From<SupervisorError> for PipelineError {
    fn from(e: SupervisorError) -> Self {
        PipelineError::Supervisor(e)
    }
}

/// Configuration of one pipeline instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Number of slave workers (the flight estimate is 16).
    pub workers: usize,
    /// Tile edge length (the flight design uses 128).
    pub tile_size: usize,
    /// The input preprocessing stage, if enabled.
    pub preprocess: Option<AlgoNgst>,
    /// Fault injection in transit, if enabled.
    pub transit_fault: Option<TransitFault>,
    /// Base seed for the per-tile fault injection.
    pub seed: u64,
    /// Seconds between readouts, for rate scaling.
    pub frame_interval_s: f64,
    /// Detector bias level used when re-integrating the final image.
    pub bias: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 16,
            tile_size: 128,
            preprocess: None,
            transit_fault: None,
            seed: 0,
            frame_interval_s: 15.625,
            bias: 1_000.0,
        }
    }
}

/// What the master reports after integrating one baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// The estimated per-pixel accumulation rate (the science product).
    pub rate: Image<f32>,
    /// The re-integrated final counts frame that gets compressed.
    pub integrated: Image<u16>,
    /// Number of tiles processed.
    pub tiles: usize,
    /// Samples modified by the preprocessing stage across all tiles.
    pub corrected_samples: usize,
    /// The provenance/quality layer: per coordinate, how many temporal
    /// samples differ from the faulted input the preprocessing stage
    /// received (saturating at `u16::MAX`; all zeros when preprocessing
    /// is disabled).
    pub repair_map: Image<u16>,
    /// Ramp jumps rejected by the CR stage across all tiles.
    pub cr_jumps_rejected: usize,
    /// Bits flipped in transit (0 when no fault model is configured).
    pub bits_flipped_in_transit: usize,
    /// Rice-compressed size of the integrated image, bytes.
    pub compressed_bytes: usize,
    /// Compression ratio achieved on the integrated image.
    pub compression_ratio: f64,
    /// Tiles handled by each worker (length = `workers`).
    pub worker_tile_counts: Vec<usize>,
    /// Wall-clock duration of the distributed phase.
    pub elapsed: Duration,
}

impl PipelineReport {
    /// Packages the baseline's downlink products as one multi-HDU FITS
    /// file: the integrated counts frame (primary), the rate image
    /// (`RATE`, BITPIX −32) and the provenance repair map (`REPAIRS`).
    pub fn to_fits_products(&self) -> Vec<u8> {
        use preflight_fits::{write_hdus, Hdu, HduData};
        let primary = Hdu::named("INTEGRATED", HduData::U16(self.integrated.clone()));
        let rate = Hdu::named("RATE", HduData::F32(self.rate.clone()));
        let repairs = Hdu::named("REPAIRS", HduData::U16(self.repair_map.clone()));
        write_hdus(&primary, &[rate, repairs])
    }
}

/// The fault-tolerance level one tile ended up processed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLevel {
    /// Tile origin, x.
    pub tx: usize,
    /// Tile origin, y.
    pub ty: usize,
    /// The ladder rung the accepted result was produced at (for abandoned
    /// tiles, [`FtLevel::Passthrough`] — their output is a flagged zero
    /// placeholder).
    pub level: FtLevel,
}

/// Everything the supervision layer observed during one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionOutcome {
    /// Every recovery event, in observation order.
    pub recovery: RecoveryLog,
    /// Per-tile fault-tolerance level achieved.
    pub tile_levels: Vec<TileLevel>,
    /// The worst (highest) rung any tile fell to — the run's overall
    /// fault-tolerance level.
    pub achieved: FtLevel,
    /// Tiles that failed even at the bottom of the ladder and were filled
    /// with a flagged zero placeholder.
    pub abandoned_tiles: usize,
}

/// A pipeline report plus the supervision outcome that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedReport {
    /// The science products.
    pub report: PipelineReport,
    /// What the supervisor did to get them.
    pub outcome: SupervisionOutcome,
}

/// The outcome of ingesting a FITS downlink file (see
/// [`NgstPipeline::run_fits`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FitsIngestReport {
    /// The pixel pipeline's report.
    pub report: PipelineReport,
    /// What the Λ = 0 header sanity analysis found and repaired.
    pub sanity: preflight_fits::SanityReport,
    /// Checksum triage of the (header-repaired) file: `DataCorrupted`
    /// means the pixel preprocessing stage had real work to do.
    pub checksum: preflight_fits::ChecksumStatus,
    /// Recovery bookkeeping, when the run was supervised.
    pub supervision: Option<SupervisionOutcome>,
}

struct TileRef {
    tx: usize,
    ty: usize,
    tw: usize,
    th: usize,
}

struct TileJob {
    unit: u64,
    attempt: u32,
    tx: usize,
    ty: usize,
    level: FtLevel,
    stack: ImageStack<u16>,
    seed: u64,
}

struct TileResult {
    unit: u64,
    attempt: u32,
    tx: usize,
    ty: usize,
    rate: Image<f32>,
    repair_map: Image<u16>,
    corrected: usize,
    jumps: usize,
    flipped: usize,
    worker: usize,
    checksum: u64,
}

enum WorkerMsg {
    Done(Box<TileResult>),
    Crashed { unit: u64, attempt: u32 },
}

/// FNV-1a over the result payload, computed worker-side *before* any chaos
/// corruption touches the message, so the master can detect tampering.
fn payload_checksum(rate: &Image<f32>, repair: &Image<u16>, jumps: usize) -> u64 {
    fn eat(h: u64, b: u8) -> u64 {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in rate.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h = eat(h, b);
        }
    }
    for v in repair.as_slice() {
        for b in v.to_le_bytes() {
            h = eat(h, b);
        }
    }
    for b in (jumps as u64).to_le_bytes() {
        h = eat(h, b);
    }
    h
}

/// Applies message corruption to the rate payload: each bit of each `f32`
/// flips with probability `gamma`. Returns the number of bits flipped.
fn corrupt_rate(rate: &mut Image<f32>, gamma: f64, seed: u64, unit: u64, attempt: u32) -> usize {
    let mut words: Vec<u16> = Vec::with_capacity(rate.len() * 2);
    for v in rate.as_slice() {
        let b = v.to_bits();
        words.push((b & 0xFFFF) as u16);
        words.push((b >> 16) as u16);
    }
    let flipped = preflight_faults::corrupt_words(&mut words, gamma, seed, unit, attempt);
    for (i, px) in rate.as_mut_slice().iter_mut().enumerate() {
        let lo = u32::from(words[2 * i]);
        let hi = u32::from(words[2 * i + 1]) << 16;
        *px = f32::from_bits(lo | hi);
    }
    flipped
}

/// Master-side accumulation of accepted tile results.
struct Accum {
    rate: Image<f32>,
    repair_map: Image<u16>,
    corrected: usize,
    jumps: usize,
    flipped: usize,
    per_worker: Vec<usize>,
}

impl Accum {
    fn new(width: usize, height: usize, workers: usize) -> Self {
        Accum {
            rate: Image::new(width, height),
            repair_map: Image::new(width, height),
            corrected: 0,
            jumps: 0,
            flipped: 0,
            per_worker: vec![0; workers],
        }
    }

    fn accept(&mut self, r: &TileResult) {
        self.rate.blit(r.tx, r.ty, &r.rate);
        self.repair_map.blit(r.tx, r.ty, &r.repair_map);
        self.corrected += r.corrected;
        self.jumps += r.jumps;
        self.flipped += r.flipped;
        self.per_worker[r.worker] += 1;
    }
}

enum PendState {
    InFlight { deadline: Instant },
    Delayed { release: Instant },
}

struct Pending {
    attempt: u32,
    level: FtLevel,
    failures_at_level: u32,
    failed_ever: bool,
    state: PendState,
}

/// Mutable master-loop state for the supervised path, factored out so
/// failure handling can be shared between timeouts, crashes and corrupt
/// results.
/// What either master loop hands back to `run_with`: the mosaic
/// accumulator, per-tile achieved levels, the recovery log, and the
/// abandoned-tile count.
type MasterOutcome = Result<(Accum, Vec<Option<FtLevel>>, RecoveryLog, usize), PipelineError>;

struct MasterState<'a> {
    sup: &'a Supervision,
    ladder: &'a DegradationLadder,
    pending: HashMap<u64, Pending>,
    log: RecoveryLog,
    tile_levels: Vec<Option<FtLevel>>,
    abandoned: usize,
    completed: usize,
}

impl MasterState<'_> {
    /// Registers a failed attempt for `unit` and decides its fate: retry
    /// with backoff, quarantine + step down the ladder, abandon with a
    /// placeholder, or (degradation disabled) abort the run.
    fn on_failure(&mut self, unit: u64, kind: FailureKind) -> Result<(), PipelineError> {
        let Some(p) = self.pending.get_mut(&unit) else {
            return Ok(()); // already settled; stale signal
        };
        p.failed_ever = true;
        p.failures_at_level += 1;
        self.log.record_failure(TILE_STAGE, unit, p.attempt, kind);
        let budget = if self.sup.degrade {
            self.sup.attempts_per_level()
        } else {
            self.sup.policy.max_retries + 1
        };
        if p.failures_at_level < budget {
            self.log
                .record(TILE_STAGE, unit, p.attempt, RecoveryKind::Retry);
            p.attempt += 1;
            p.state = PendState::Delayed {
                release: Instant::now() + self.sup.policy.backoff(unit, p.attempt),
            };
            return Ok(());
        }
        if !self.sup.degrade {
            let attempts = p.attempt + 1;
            return Err(SupervisorError::RetriesExhausted {
                stage: TILE_STAGE,
                unit,
                attempts,
            }
            .into());
        }
        self.log
            .record(TILE_STAGE, unit, p.attempt, RecoveryKind::Quarantined);
        match self.ladder.step_down(p.level) {
            Some((next, _)) => {
                self.log.record(
                    TILE_STAGE,
                    unit,
                    p.attempt,
                    RecoveryKind::Degraded {
                        from: p.level,
                        to: next,
                    },
                );
                self.log
                    .record(TILE_STAGE, unit, p.attempt, RecoveryKind::Retry);
                p.level = next;
                p.failures_at_level = 0;
                p.attempt += 1;
                p.state = PendState::Delayed {
                    release: Instant::now() + self.sup.policy.backoff(unit, p.attempt),
                };
                Ok(())
            }
            None => {
                // Bottom of the ladder: flag the tile and move on. The
                // master's zero-initialised mosaic is the placeholder.
                self.log
                    .record(TILE_STAGE, unit, p.attempt, RecoveryKind::Abandoned);
                self.tile_levels[unit as usize] = Some(FtLevel::Passthrough);
                self.abandoned += 1;
                self.completed += 1;
                self.pending.remove(&unit);
                Ok(())
            }
        }
    }
}

/// The master/slave pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NgstPipeline {
    config: PipelineConfig,
    transit: TransitModel,
}

impl NgstPipeline {
    /// Creates a pipeline, validating the configuration (worker count, tile
    /// geometry, transit fault probabilities) up front so the hot path
    /// never has to.
    ///
    /// # Errors
    /// Returns [`PipelineError::InvalidConfig`] for a zero worker count or
    /// tile size, and [`PipelineError::Fault`] for an out-of-range fault
    /// probability.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        if config.workers == 0 {
            return Err(PipelineError::InvalidConfig("at least one worker required"));
        }
        if config.tile_size == 0 {
            return Err(PipelineError::InvalidConfig("tile size must be positive"));
        }
        let transit = match config.transit_fault {
            None => TransitModel::None,
            Some(TransitFault::Uncorrelated(g)) => {
                TransitModel::Uncorrelated(Uncorrelated::new(g)?)
            }
            Some(TransitFault::Correlated(g)) => TransitModel::Correlated(Correlated::new(g)?),
        };
        Ok(NgstPipeline { config, transit })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Ingests a FITS downlink file and runs it through the pipeline.
    ///
    /// This is the full input path of the paper's Fig. 1: the Λ = 0 header
    /// sanity analysis runs first (repairing bit-flipped header bytes), the
    /// checksum convention — when the file carries `DATASUM`/`CHECKSUM`
    /// cards — classifies any remaining damage, and the repaired stack then
    /// enters the pixel pipeline.
    ///
    /// Returns the pipeline report together with the ingestion findings.
    ///
    /// # Errors
    /// Returns [`PipelineError::Fits`] when the header is damaged beyond
    /// the sanity analyzer's repair budget or the file is not a 3-axis
    /// 16-bit stack.
    pub fn run_fits(&self, bytes: &[u8]) -> Result<FitsIngestReport, PipelineError> {
        self.run_fits_with(bytes, None, None)
    }

    /// [`run_fits`](Self::run_fits) under a supervision policy and/or a
    /// chaos model (see [`run_with`](Self::run_with)).
    pub fn run_fits_with(
        &self,
        bytes: &[u8],
        supervision: Option<&Supervision>,
        chaos: Option<&dyn ChaosModel>,
    ) -> Result<FitsIngestReport, PipelineError> {
        let sanity = preflight_fits::analyze(bytes);
        let checksum = preflight_fits::verify_checksums(&sanity.repaired)
            .unwrap_or(preflight_fits::ChecksumStatus::Absent);
        let stack = preflight_fits::read_stack(&sanity.repaired)?;
        let supervised = self.run_with(&stack, supervision, chaos)?;
        Ok(FitsIngestReport {
            report: supervised.report,
            sanity,
            checksum,
            supervision: supervision.map(|_| supervised.outcome),
        })
    }

    /// Runs one baseline through fragmentation → (transit faults) →
    /// (preprocessing) → CR rejection → reassembly → compression, with no
    /// supervision and no chaos.
    ///
    /// # Errors
    /// Returns [`PipelineError::Disconnected`] if the worker pool dies with
    /// tiles outstanding (it cannot, short of a panic in a worker).
    pub fn run(&self, stack: &ImageStack<u16>) -> Result<PipelineReport, PipelineError> {
        self.run_with(stack, None, None).map(|s| s.report)
    }

    /// Runs one baseline with optional supervision and optional
    /// process-level chaos injection.
    ///
    /// - `supervision: Some(..)` wraps every tile in the execution
    ///   envelope: a per-tile deadline (covering queue wait plus compute —
    ///   a timed-out attempt is cancelled and requeued), bounded retries
    ///   with exponential backoff and deterministic jitter, quarantine
    ///   after repeated failures, and the graceful-degradation ladder
    ///   `Algo_NGST → BitVoter → MedianSmoother → passthrough`. The run
    ///   always produces output, annotated with the level achieved; late
    ///   results from cancelled attempts are discarded by attempt number.
    /// - `chaos: Some(..)` consults the model once per `(tile, attempt)`
    ///   and injects the instructed fault: stall, crash (surfaced to the
    ///   master as an explicit lost-worker message, standing in for a
    ///   missed heartbeat), result-message corruption (detected via a
    ///   checksum computed before the corruption), or extra latency.
    ///
    /// Unsupervised runs under chaos behave like the unprotected flight
    /// system: a crash aborts the run with [`PipelineError::WorkerLost`]
    /// and corrupted result messages are integrated *silently* — exactly
    /// the failure modes the supervisor exists to absorb.
    ///
    /// # Errors
    /// [`PipelineError::Supervisor`] for an invalid policy or (with
    /// degradation disabled) an exhausted tile; [`PipelineError::WorkerLost`]
    /// for an unsupervised crash.
    pub fn run_with(
        &self,
        stack: &ImageStack<u16>,
        supervision: Option<&Supervision>,
        chaos: Option<&dyn ChaosModel>,
    ) -> Result<SupervisedReport, PipelineError> {
        if let Some(sup) = supervision {
            sup.validate()?;
        }
        let c = self.config;
        let start = Instant::now();
        let ladder = DegradationLadder::new(c.preprocess);

        // Fragment into tiles (edge tiles may be smaller).
        let mut tiles: Vec<TileRef> = Vec::new();
        for ty in (0..stack.height()).step_by(c.tile_size) {
            for tx in (0..stack.width()).step_by(c.tile_size) {
                tiles.push(TileRef {
                    tx,
                    ty,
                    tw: c.tile_size.min(stack.width() - tx),
                    th: c.tile_size.min(stack.height() - ty),
                });
            }
        }

        let (job_tx, job_rx) = crossbeam::channel::unbounded::<TileJob>();
        let (res_tx, res_rx) = crossbeam::channel::unbounded::<WorkerMsg>();
        let transit = self.transit;

        let (accum, levels, log, abandoned) = std::thread::scope(|scope| {
            for worker in 0..c.workers {
                let job_rx = job_rx.clone();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    let rejector = CrRejector::new();
                    while let Ok(mut job) = job_rx.recv() {
                        let outcome = chaos
                            .map(|m| m.roll(job.unit, job.attempt))
                            .unwrap_or(ChaosOutcome::Healthy);
                        match outcome {
                            ChaosOutcome::Crash => {
                                // Stand-in for a dead node: the master
                                // learns through this message what a
                                // heartbeat monitor would tell it.
                                let _ = res_tx.send(WorkerMsg::Crashed {
                                    unit: job.unit,
                                    attempt: job.attempt,
                                });
                                continue;
                            }
                            ChaosOutcome::Stall(d) | ChaosOutcome::Slow(d) => {
                                std::thread::sleep(d);
                            }
                            _ => {}
                        }
                        let mut r = compute_tile(&rejector, &c, transit, &ladder, &mut job);
                        r.worker = worker;
                        r.checksum = payload_checksum(&r.rate, &r.repair_map, r.jumps);
                        if let ChaosOutcome::CorruptMessage { gamma } = outcome {
                            corrupt_rate(&mut r.rate, gamma, c.seed, job.unit, job.attempt);
                        }
                        let _ = res_tx.send(WorkerMsg::Done(Box::new(r)));
                    }
                });
            }
            drop(res_tx);
            drop(job_rx);

            match supervision {
                Some(sup) => self.master_supervised(stack, &tiles, sup, &ladder, job_tx, res_rx),
                None => self.master_plain(stack, &tiles, &ladder, job_tx, res_rx),
            }
        })?;

        let tile_levels: Vec<TileLevel> = tiles
            .iter()
            .zip(&levels)
            .map(|(t, lvl)| TileLevel {
                tx: t.tx,
                ty: t.ty,
                level: lvl.unwrap_or(FtLevel::Passthrough),
            })
            .collect();
        let achieved = tile_levels
            .iter()
            .map(|t| t.level)
            .max()
            .unwrap_or_else(|| ladder.entry_level());

        let total_t = c.frame_interval_s * (stack.frames().saturating_sub(1)) as f64;
        let integrated = CrRejector::integrate(&accum.rate, c.bias, total_t);
        let codec = RiceCodec::new();
        let compressed = codec.encode(integrated.as_slice());
        let raw_bytes = integrated.len() * 2;

        Ok(SupervisedReport {
            report: PipelineReport {
                rate: accum.rate,
                tiles: tiles.len(),
                corrected_samples: accum.corrected,
                repair_map: accum.repair_map,
                cr_jumps_rejected: accum.jumps,
                bits_flipped_in_transit: accum.flipped,
                compressed_bytes: compressed.len(),
                compression_ratio: raw_bytes as f64 / compressed.len() as f64,
                integrated,
                worker_tile_counts: accum.per_worker,
                elapsed: start.elapsed(),
            },
            outcome: SupervisionOutcome {
                recovery: log,
                tile_levels,
                achieved,
                abandoned_tiles: abandoned,
            },
        })
    }

    fn make_job(
        &self,
        stack: &ImageStack<u16>,
        t: &TileRef,
        unit: u64,
        attempt: u32,
        level: FtLevel,
    ) -> TileJob {
        let c = self.config;
        let tile_seed = c
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((t.tx as u64) << 32 | t.ty as u64);
        // Retries re-inject transit faults from a distinct stream; XOR of a
        // zero term keeps attempt 0 bit-identical to the unsupervised path.
        let seed = tile_seed ^ u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407);
        TileJob {
            unit,
            attempt,
            tx: t.tx,
            ty: t.ty,
            level,
            stack: stack.tile(t.tx, t.ty, t.tw, t.th),
            seed,
        }
    }

    /// Master loop without supervision: dispatch everything once, accept
    /// results as they come, fail on the first lost worker.
    fn master_plain(
        &self,
        stack: &ImageStack<u16>,
        tiles: &[TileRef],
        ladder: &DegradationLadder,
        job_tx: crossbeam::channel::Sender<TileJob>,
        res_rx: crossbeam::channel::Receiver<WorkerMsg>,
    ) -> MasterOutcome {
        let c = self.config;
        let entry = ladder.entry_level();
        for (unit, t) in tiles.iter().enumerate() {
            let job = self.make_job(stack, t, unit as u64, 0, entry);
            if job_tx.send(job).is_err() {
                return Err(PipelineError::Disconnected);
            }
        }
        drop(job_tx);

        let mut accum = Accum::new(stack.width(), stack.height(), c.workers);
        let mut levels: Vec<Option<FtLevel>> = vec![None; tiles.len()];
        let mut completed = 0;
        while completed < tiles.len() {
            match res_rx.recv() {
                Ok(WorkerMsg::Done(r)) => {
                    // No integrity checking here: an unsupervised master
                    // integrates whatever arrives, corrupted or not.
                    accum.accept(&r);
                    levels[r.unit as usize] = Some(entry);
                    completed += 1;
                }
                Ok(WorkerMsg::Crashed { unit, .. }) => {
                    return Err(PipelineError::WorkerLost { unit });
                }
                Err(_) => return Err(PipelineError::Disconnected),
            }
        }
        Ok((accum, levels, RecoveryLog::new(), 0))
    }

    /// Master loop under supervision: per-tile deadlines, delayed requeue
    /// with backoff, checksum verification, quarantine and degradation.
    fn master_supervised(
        &self,
        stack: &ImageStack<u16>,
        tiles: &[TileRef],
        sup: &Supervision,
        ladder: &DegradationLadder,
        job_tx: crossbeam::channel::Sender<TileJob>,
        res_rx: crossbeam::channel::Receiver<WorkerMsg>,
    ) -> MasterOutcome {
        let c = self.config;
        let timeout = sup.policy.stage_timeout;
        let mut accum = Accum::new(stack.width(), stack.height(), c.workers);
        let mut st = MasterState {
            sup,
            ladder,
            pending: HashMap::new(),
            log: RecoveryLog::new(),
            tile_levels: vec![None; tiles.len()],
            abandoned: 0,
            completed: 0,
        };

        let now = Instant::now();
        for (unit, t) in tiles.iter().enumerate() {
            let level = ladder.entry_level();
            let job = self.make_job(stack, t, unit as u64, 0, level);
            if job_tx.send(job).is_err() {
                return Err(PipelineError::Disconnected);
            }
            st.pending.insert(
                unit as u64,
                Pending {
                    attempt: 0,
                    level,
                    failures_at_level: 0,
                    failed_ever: false,
                    state: PendState::InFlight {
                        deadline: now + timeout,
                    },
                },
            );
        }

        while st.completed < tiles.len() {
            let now = Instant::now();

            // Release retries whose backoff has elapsed.
            let due: Vec<u64> = st
                .pending
                .iter()
                .filter(
                    |(_, p)| matches!(p.state, PendState::Delayed { release } if release <= now),
                )
                .map(|(&u, _)| u)
                .collect();
            for unit in due {
                let p = st.pending.get_mut(&unit).expect("due unit is pending");
                p.state = PendState::InFlight {
                    deadline: now + timeout,
                };
                let (attempt, level) = (p.attempt, p.level);
                let job = self.make_job(stack, &tiles[unit as usize], unit, attempt, level);
                if job_tx.send(job).is_err() {
                    return Err(PipelineError::Disconnected);
                }
            }

            // Cancel attempts that missed their deadline.
            let overdue: Vec<u64> = st
                .pending
                .iter()
                .filter(
                    |(_, p)| matches!(p.state, PendState::InFlight { deadline } if deadline <= now),
                )
                .map(|(&u, _)| u)
                .collect();
            for unit in overdue {
                st.on_failure(unit, FailureKind::Timeout)?;
            }
            if st.completed >= tiles.len() {
                break;
            }

            // Sleep until the next deadline/release unless a result lands.
            let next = st
                .pending
                .values()
                .map(|p| match p.state {
                    PendState::InFlight { deadline } => deadline,
                    PendState::Delayed { release } => release,
                })
                .min();
            let wait = next
                .map(|t| t.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50))
                .max(Duration::from_millis(1));

            match res_rx.recv_timeout(wait) {
                Ok(WorkerMsg::Done(r)) => {
                    let current = st
                        .pending
                        .get(&r.unit)
                        .filter(|p| {
                            p.attempt == r.attempt && matches!(p.state, PendState::InFlight { .. })
                        })
                        .is_some();
                    if !current {
                        continue; // late result of a cancelled attempt
                    }
                    if payload_checksum(&r.rate, &r.repair_map, r.jumps) != r.checksum {
                        st.on_failure(r.unit, FailureKind::CorruptMessage)?;
                        continue;
                    }
                    let p = st.pending.remove(&r.unit).expect("checked above");
                    if p.failed_ever {
                        st.log
                            .record(TILE_STAGE, r.unit, r.attempt, RecoveryKind::Recovered);
                    }
                    st.tile_levels[r.unit as usize] = Some(p.level);
                    accum.accept(&r);
                    st.completed += 1;
                }
                Ok(WorkerMsg::Crashed { unit, attempt }) => {
                    let current = st
                        .pending
                        .get(&unit)
                        .filter(|p| {
                            p.attempt == attempt && matches!(p.state, PendState::InFlight { .. })
                        })
                        .is_some();
                    if current {
                        st.on_failure(unit, FailureKind::Crash)?;
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(PipelineError::Disconnected);
                }
            }
        }
        drop(job_tx);
        Ok((accum, st.tile_levels, st.log, st.abandoned))
    }
}

/// One tile attempt: transit-fault injection, the ladder rung's
/// preprocessing, CR rejection.
fn compute_tile(
    rejector: &CrRejector,
    c: &PipelineConfig,
    transit: TransitModel,
    ladder: &DegradationLadder,
    job: &mut TileJob,
) -> TileResult {
    let mut flipped = 0;
    match transit {
        TransitModel::None => {}
        TransitModel::Uncorrelated(model) => {
            let mut rng = preflight_faults::seeded_rng(job.seed);
            flipped = model.inject_stack(&mut job.stack, &mut rng).len();
        }
        TransitModel::Correlated(model) => {
            let mut rng = preflight_faults::seeded_rng(job.seed);
            flipped = model.inject_stack(&mut job.stack, &mut rng).len();
        }
    }

    let repair_map = match ladder.stage(job.level) {
        Some(LadderStage::Passthrough) | None => Image::new(job.stack.width(), job.stack.height()),
        Some(stage) => {
            // Separate layer: the band driver repairs the tile in place;
            // the map counts the samples that now differ from the faulted
            // copy.
            let faulted = job.stack.clone();
            Preprocessor::new(stage).run(&mut job.stack);
            changed_samples(&faulted, &job.stack)
        }
    };
    let (rate, jumps) = rejector.reject_stack(&job.stack, c.frame_interval_s);
    let corrected = repair_map.as_slice().iter().map(|&v| usize::from(v)).sum();
    TileResult {
        unit: job.unit,
        attempt: job.attempt,
        tx: job.tx,
        ty: job.ty,
        rate,
        repair_map,
        corrected,
        jumps,
        flipped,
        worker: 0,
        checksum: 0,
    }
}

/// Per coordinate, how many samples of `after` differ from `before`,
/// saturating at `u16::MAX`.
fn changed_samples(before: &ImageStack<u16>, after: &ImageStack<u16>) -> Image<u16> {
    let mut map: Image<u16> = Image::new(after.width(), after.height());
    for f in 0..after.frames() {
        let samples = after.frame(f).iter().zip(before.frame(f));
        for (m, (a, b)) in map.as_mut_slice().iter_mut().zip(samples) {
            *m = m.saturating_add(u16::from(a != b));
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorConfig, UpTheRamp};
    use preflight_core::{NgstConfig, Sensitivity, SeriesPreprocessor, Upsilon};
    use preflight_faults::{seeded_rng, ChaosPlan};
    use preflight_supervisor::RetryPolicy;

    fn flat_stack(w: usize, h: usize, frames: usize) -> ImageStack<u16> {
        let det = UpTheRamp::new(DetectorConfig {
            width: w,
            height: h,
            frames,
            read_noise: 5.0,
            ..DetectorConfig::default()
        });
        det.clean_stack(&Image::filled(w, h, 30.0f32), &mut seeded_rng(99))
    }

    fn pipeline(config: PipelineConfig) -> NgstPipeline {
        NgstPipeline::new(config).expect("valid test config")
    }

    /// A supervision policy fast enough for unit tests: tight backoff, a
    /// deadline long enough for real tile compute but short enough that a
    /// scripted stall trips it quickly.
    fn fast_supervision() -> Supervision {
        Supervision {
            policy: RetryPolicy {
                max_retries: 2,
                stage_timeout: Duration::from_millis(2_000),
                backoff_base: Duration::from_millis(1),
                backoff_factor: 2.0,
                backoff_cap: Duration::from_millis(5),
                jitter: 0.0,
                seed: 0,
            },
            degrade: true,
            quarantine_after: 2,
        }
    }

    #[test]
    fn covers_every_tile_including_ragged_edges() {
        let stack = flat_stack(40, 24, 16);
        let p = pipeline(PipelineConfig {
            workers: 3,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let rep = p.run(&stack).expect("clean run");
        assert_eq!(rep.tiles, 3 * 2); // 40→3 tiles, 24→2 tiles
        assert_eq!(rep.rate.width(), 40);
        assert_eq!(rep.rate.height(), 24);
        assert_eq!(rep.worker_tile_counts.iter().sum::<usize>(), 6);
        // Every pixel's rate must be near the true 30 counts/s.
        for &r in rep.rate.as_slice() {
            assert!((f64::from(r) - 30.02).abs() < 1.0, "rate {r}");
        }
    }

    #[test]
    fn clean_run_with_no_stages_matches_direct_rejection() {
        let stack = flat_stack(32, 32, 16);
        let p = pipeline(PipelineConfig {
            workers: 4,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let rep = p.run(&stack).expect("clean run");
        let (direct, _) = CrRejector::new().reject_stack(&stack, 15.625);
        assert_eq!(rep.rate, direct, "tiling must not change the result");
        assert_eq!(rep.corrected_samples, 0);
        assert_eq!(rep.bits_flipped_in_transit, 0);
    }

    #[test]
    fn transit_faults_are_injected_and_preprocessing_mitigates() {
        let stack = flat_stack(32, 32, 32);
        let base = PipelineConfig {
            workers: 4,
            tile_size: 16,
            transit_fault: Some(TransitFault::Uncorrelated(0.002)),
            seed: 7,
            ..PipelineConfig::default()
        };
        // Reference: clean rates.
        let clean = pipeline(PipelineConfig {
            transit_fault: None,
            ..base
        })
        .run(&stack)
        .expect("clean run");

        let faulty = pipeline(base).run(&stack).expect("faulty run");
        assert!(faulty.bits_flipped_in_transit > 0);

        let protected = pipeline(PipelineConfig {
            preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
            ..base
        })
        .run(&stack)
        .expect("protected run");
        assert!(protected.corrected_samples > 0, "preprocessing must act");

        let err = |rep: &PipelineReport| -> f64 {
            rep.rate
                .as_slice()
                .iter()
                .zip(clean.rate.as_slice())
                .map(|(a, b)| f64::from((a - b).abs()))
                .sum::<f64>()
        };
        let e_faulty = err(&faulty);
        let e_protected = err(&protected);
        assert!(
            e_protected < e_faulty,
            "preprocessing must reduce rate error ({e_protected} >= {e_faulty})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let stack = flat_stack(32, 16, 8);
        let cfg = PipelineConfig {
            workers: 4,
            tile_size: 16,
            transit_fault: Some(TransitFault::Correlated(0.05)),
            seed: 21,
            ..PipelineConfig::default()
        };
        let a = pipeline(cfg).run(&stack).expect("run a");
        let b = pipeline(cfg).run(&stack).expect("run b");
        assert_eq!(a.rate, b.rate);
        assert_eq!(a.bits_flipped_in_transit, b.bits_flipped_in_transit);
    }

    #[test]
    fn compression_report_is_consistent() {
        let stack = flat_stack(32, 32, 8);
        let rep = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 32,
            ..PipelineConfig::default()
        })
        .run(&stack)
        .expect("clean run");
        assert!(rep.compressed_bytes > 0);
        let expect = (32.0 * 32.0 * 2.0) / rep.compressed_bytes as f64;
        assert!((rep.compression_ratio - expect).abs() < 1e-9);
        assert!(rep.compression_ratio > 1.0, "smooth sky must compress");
    }

    #[test]
    fn fits_products_roundtrip() {
        let stack = flat_stack(32, 16, 8);
        let rep = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            transit_fault: Some(TransitFault::Uncorrelated(0.01)),
            preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
            seed: 4,
            ..PipelineConfig::default()
        })
        .run(&stack)
        .expect("run");
        let bytes = rep.to_fits_products();
        let hdus = preflight_fits::read_hdus(&bytes).expect("products parse");
        assert_eq!(hdus.len(), 3);
        assert_eq!(hdus[0].name.as_deref(), Some("INTEGRATED"));
        assert_eq!(hdus[1].name.as_deref(), Some("RATE"));
        assert_eq!(hdus[2].name.as_deref(), Some("REPAIRS"));
        match (&hdus[0].data, &hdus[1].data, &hdus[2].data) {
            (
                preflight_fits::HduData::U16(integrated),
                preflight_fits::HduData::F32(rate),
                preflight_fits::HduData::U16(repairs),
            ) => {
                assert_eq!(integrated, &rep.integrated);
                assert_eq!(rate, &rep.rate);
                assert_eq!(repairs, &rep.repair_map);
            }
            other => panic!("wrong HDU types: {other:?}"),
        }
    }

    /// `compute_tile` against a per-coordinate reference for every rung:
    /// gather the series, run the rung's `preprocess`, count the changed
    /// samples, reject. The 37×23 tile has 851 lanes: 13 full 64-lane
    /// groups and a partial group of 19.
    #[test]
    fn tile_repair_matches_per_coordinate_reference() {
        let (w, h) = (37, 23);
        let mut faulted = flat_stack(w, h, 32);
        Uncorrelated::new(0.01)
            .expect("valid rate")
            .inject_stack(&mut faulted, &mut seeded_rng(5));
        let c = PipelineConfig::default();
        let rejector = CrRejector::new();
        let algo = |passes| {
            let config = NgstConfig {
                passes,
                ..NgstConfig::default()
            };
            AlgoNgst::with_config(Upsilon::FOUR, Sensitivity::new(80).unwrap(), config)
        };
        for (passes, level) in [
            (1, FtLevel::AlgoNgst),
            (3, FtLevel::AlgoNgst),
            (1, FtLevel::BitVoter),
            (1, FtLevel::MedianSmoother),
        ] {
            let ladder = DegradationLadder::new(Some(algo(passes)));
            let stage = ladder.stage(level).expect("rung");
            let mut job = TileJob {
                unit: 0,
                attempt: 0,
                tx: 0,
                ty: 0,
                level,
                stack: faulted.clone(),
                seed: 0,
            };
            let got = compute_tile(&rejector, &c, TransitModel::None, &ladder, &mut job);

            let mut rate = Image::new(w, h);
            let mut map = Image::new(w, h);
            let mut counts = Image::new(w, h);
            let mut jumps = 0;
            let mut series = Vec::new();
            for y in 0..h {
                for x in 0..w {
                    faulted.gather_series(x, y, &mut series);
                    let before = series.clone();
                    counts.set(x, y, stage.preprocess(&mut series) as u16);
                    let changed = before.iter().zip(&series).filter(|(a, b)| a != b);
                    map.set(x, y, changed.count() as u16);
                    let r = rejector.reject_series(&series, c.frame_interval_s);
                    rate.set(x, y, r.rate as f32);
                    jumps += r.jumps.len();
                }
            }
            let rung = format!("{level:?} passes={passes}");
            assert!(map.as_slice().iter().any(|&n| n > 0), "{rung}: no repair");
            assert_eq!(got.repair_map, map, "{rung}: repair map");
            assert_eq!(got.rate, rate, "{rung}: rate");
            assert_eq!(got.jumps, jumps, "{rung}: jumps");
            if passes == 1 {
                assert_eq!(got.repair_map, counts, "{rung}: map vs preprocess counts");
            }
        }
    }

    #[test]
    fn fits_ingestion_repairs_header_and_classifies_data_damage() {
        let stack = flat_stack(32, 16, 8);
        let bytes = preflight_fits::write_stack(&stack);
        let protected = preflight_fits::add_checksums(&bytes).expect("valid file");
        let pipeline = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });

        // Pristine: valid checksums, no findings.
        let clean = pipeline
            .run_fits(&protected)
            .expect("pristine file ingests");
        assert_eq!(clean.checksum, preflight_fits::ChecksumStatus::Valid);
        assert!(!clean.sanity.made_repairs());
        assert!(clean.supervision.is_none(), "unsupervised ingest");

        // Header flip: repaired, and the checksum pass classifies the
        // repaired file (the repair itself perturbs the whole-HDU sum, so
        // anything but DataCorrupted is acceptable here).
        let mut header_hit = protected.clone();
        header_hit[80] ^= 0x01;
        let rep = pipeline.run_fits(&header_hit).expect("header repairable");
        assert!(rep.sanity.made_repairs());
        assert_ne!(rep.checksum, preflight_fits::ChecksumStatus::DataCorrupted);
        assert_eq!(rep.report.rate, clean.report.rate);

        // Data flip: checksums pin the damage on the data unit.
        let mut data_hit = protected.clone();
        let n = data_hit.len();
        data_hit[n - 64] ^= 0x10;
        let rep = pipeline
            .run_fits(&data_hit)
            .expect("data damage still parses");
        assert_eq!(rep.checksum, preflight_fits::ChecksumStatus::DataCorrupted);
    }

    #[test]
    fn fits_ingestion_rejects_wrong_shape() {
        let img: preflight_core::Image<u16> = preflight_core::Image::new(8, 8);
        let bytes = preflight_fits::write_image(&img);
        let pipeline = pipeline(PipelineConfig::default());
        assert!(
            matches!(pipeline.run_fits(&bytes), Err(PipelineError::Fits(_))),
            "2-D file is not a stack"
        );
    }

    #[test]
    fn zero_workers_rejected() {
        let err = NgstPipeline::new(PipelineConfig {
            workers: 0,
            ..PipelineConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
        let err = NgstPipeline::new(PipelineConfig {
            tile_size: 0,
            ..PipelineConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
    }

    #[test]
    fn bad_transit_probability_rejected_up_front() {
        let err = NgstPipeline::new(PipelineConfig {
            transit_fault: Some(TransitFault::Uncorrelated(1.5)),
            ..PipelineConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, PipelineError::Fault(_)));
    }

    // ---- supervised execution -------------------------------------------

    #[test]
    fn supervised_clean_run_matches_plain_run() {
        let stack = flat_stack(32, 16, 8);
        let cfg = PipelineConfig {
            workers: 4,
            tile_size: 16,
            preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
            transit_fault: Some(TransitFault::Uncorrelated(0.005)),
            seed: 11,
            ..PipelineConfig::default()
        };
        let p = pipeline(cfg);
        let plain = p.run(&stack).expect("plain");
        let sup = fast_supervision();
        let supervised = p.run_with(&stack, Some(&sup), None).expect("supervised");
        assert_eq!(supervised.report.rate, plain.rate);
        assert!(
            supervised.outcome.recovery.is_empty(),
            "no chaos, no events"
        );
        assert_eq!(supervised.outcome.achieved, FtLevel::AlgoNgst);
        assert_eq!(supervised.outcome.abandoned_tiles, 0);
        assert!(supervised
            .outcome
            .tile_levels
            .iter()
            .all(|t| t.level == FtLevel::AlgoNgst));
    }

    #[test]
    fn scripted_crash_is_retried_and_recovered() {
        let stack = flat_stack(32, 16, 8); // 2 tiles of 16 → units 0, 1
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let plan = ChaosPlan::new().with(1, 0, ChaosOutcome::Crash);
        let sup = fast_supervision();
        let out = p
            .run_with(&stack, Some(&sup), Some(&plan))
            .expect("supervision absorbs the crash");
        let log = &out.outcome.recovery;
        assert_eq!(log.crashes(), 1);
        assert_eq!(log.retries(), 1);
        assert_eq!(log.recoveries(), 1);
        assert_eq!(log.degradations(), 0);
        assert_eq!(out.outcome.achieved, FtLevel::Passthrough); // no algo configured
                                                                // The crashed-then-retried run still matches a clean run exactly:
                                                                // the retry recomputes the same tile.
        let clean = p.run(&stack).expect("clean");
        assert_eq!(out.report.rate, clean.rate);
    }

    #[test]
    fn scripted_stall_times_out_and_recovers() {
        let stack = flat_stack(32, 16, 8);
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let mut sup = fast_supervision();
        sup.policy.stage_timeout = Duration::from_millis(120);
        let plan = ChaosPlan::new().with(0, 0, ChaosOutcome::Stall(Duration::from_millis(400)));
        let out = p
            .run_with(&stack, Some(&sup), Some(&plan))
            .expect("supervision absorbs the stall");
        let log = &out.outcome.recovery;
        assert_eq!(log.timeouts(), 1);
        assert_eq!(log.retries(), 1);
        assert_eq!(log.recoveries(), 1);
        let clean = p.run(&stack).expect("clean");
        assert_eq!(out.report.rate, clean.rate, "late stalled result discarded");
    }

    #[test]
    fn corrupt_message_is_detected_and_retried() {
        let stack = flat_stack(32, 16, 8);
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let plan = ChaosPlan::new().with(0, 0, ChaosOutcome::CorruptMessage { gamma: 0.5 });
        let sup = fast_supervision();
        let out = p
            .run_with(&stack, Some(&sup), Some(&plan))
            .expect("supervision absorbs the corruption");
        let log = &out.outcome.recovery;
        assert_eq!(log.corruptions(), 1);
        assert_eq!(log.retries(), 1);
        assert_eq!(log.recoveries(), 1);
        let clean = p.run(&stack).expect("clean");
        assert_eq!(out.report.rate, clean.rate, "corrupt payload discarded");
    }

    #[test]
    fn repeated_corruption_quarantines_and_degrades() {
        let stack = flat_stack(32, 16, 32);
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
            ..PipelineConfig::default()
        });
        // Unit 0 fails twice at Algo_NGST, then succeeds one rung down.
        let plan = ChaosPlan::new()
            .with(0, 0, ChaosOutcome::CorruptMessage { gamma: 0.5 })
            .with(0, 1, ChaosOutcome::CorruptMessage { gamma: 0.5 });
        let sup = fast_supervision();
        let out = p
            .run_with(&stack, Some(&sup), Some(&plan))
            .expect("degradation ladder absorbs repeated failure");
        let log = &out.outcome.recovery;
        assert_eq!(log.corruptions(), 2);
        assert_eq!(log.quarantines(), 1);
        assert_eq!(log.degradations(), 1);
        assert_eq!(log.recoveries(), 1);
        assert_eq!(out.outcome.achieved, FtLevel::BitVoter);
        let unit0 = &out.outcome.tile_levels[0];
        assert_eq!(unit0.level, FtLevel::BitVoter);
        assert_eq!(out.outcome.tile_levels[1].level, FtLevel::AlgoNgst);
        assert_eq!(out.outcome.abandoned_tiles, 0);
    }

    #[test]
    fn hopeless_tile_is_abandoned_with_placeholder() {
        let stack = flat_stack(32, 16, 8);
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        // No preprocessing → entry level is already Passthrough; two
        // crashes exhaust the rung and there is nowhere left to fall.
        let plan = ChaosPlan::new()
            .with(0, 0, ChaosOutcome::Crash)
            .with(0, 1, ChaosOutcome::Crash);
        let sup = fast_supervision();
        let out = p
            .run_with(&stack, Some(&sup), Some(&plan))
            .expect("abandonment still yields a report");
        let log = &out.outcome.recovery;
        assert_eq!(log.crashes(), 2);
        assert_eq!(log.quarantines(), 1);
        assert_eq!(log.abandonments(), 1);
        assert_eq!(out.outcome.abandoned_tiles, 1);
        // The abandoned tile's region is the zero placeholder.
        assert!(out.report.rate.as_slice()[..16].iter().all(|&v| v == 0.0));
        // The healthy tile still has science in it.
        let healthy = out.report.rate.tile(16, 0, 16, 16);
        assert!(healthy.as_slice().iter().any(|&v| v > 1.0));
    }

    #[test]
    fn no_degrade_mode_fails_after_retry_budget() {
        let stack = flat_stack(32, 16, 8);
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let plan = ChaosPlan::new()
            .with(0, 0, ChaosOutcome::Crash)
            .with(0, 1, ChaosOutcome::Crash)
            .with(0, 2, ChaosOutcome::Crash);
        let mut sup = fast_supervision();
        sup.degrade = false;
        sup.policy.max_retries = 2;
        let err = p.run_with(&stack, Some(&sup), Some(&plan)).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Supervisor(SupervisorError::RetriesExhausted { attempts: 3, .. })
        ));
    }

    #[test]
    fn unsupervised_crash_aborts_the_run() {
        let stack = flat_stack(32, 16, 8);
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let plan = ChaosPlan::new().with(1, 0, ChaosOutcome::Crash);
        let err = p.run_with(&stack, None, Some(&plan)).unwrap_err();
        assert_eq!(err, PipelineError::WorkerLost { unit: 1 });
    }

    #[test]
    fn unsupervised_corruption_is_integrated_silently() {
        let stack = flat_stack(32, 16, 8);
        let p = pipeline(PipelineConfig {
            workers: 2,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let plan = ChaosPlan::new().with(0, 0, ChaosOutcome::CorruptMessage { gamma: 0.5 });
        let out = p
            .run_with(&stack, None, Some(&plan))
            .expect("unsupervised run completes, silently wrong");
        let clean = p.run(&stack).expect("clean");
        assert_ne!(
            out.report.rate, clean.rate,
            "corruption must have landed in the product"
        );
    }

    #[test]
    fn invalid_supervision_policy_rejected() {
        let stack = flat_stack(16, 16, 8);
        let p = pipeline(PipelineConfig {
            workers: 1,
            tile_size: 16,
            ..PipelineConfig::default()
        });
        let mut sup = fast_supervision();
        sup.policy.jitter = 7.0;
        let err = p.run_with(&stack, Some(&sup), None).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Supervisor(SupervisorError::InvalidPolicy(_))
        ));
    }
}
