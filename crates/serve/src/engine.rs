//! The supervised batch engine.
//!
//! Each flushed [`BatchJob`] is concatenated into one temporal stack and
//! repaired by the data-parallel [`Preprocessor`] under the PR 1
//! supervisor: per-attempt deadlines, retries with deterministic backoff,
//! and — when a rung keeps failing — a quarantine step down the
//! [`DegradationLadder`] (`Algo_NGST` → bit voter → median smoother →
//! passthrough). A batch therefore always produces responses; the worst
//! case is raw data flagged `passthrough` in the telemetry trailer.
//!
//! Panics inside the preprocessing pass are absorbed with `catch_unwind`
//! and reported to the supervisor as [`FailureKind::Crash`], so one
//! poisoned batch can never take the daemon down.
//!
//! Observability: every batch runs under an `engine` stage span; each
//! request's queue wait feeds the `queue` stage histogram; repairs,
//! retries and ladder transitions land in the shared registry.

use crate::batcher::{BatchJob, GroupKey};
use crate::pool::BufferPool;
use crate::queue::AdmissionPermit;
use crate::reply::ReplySink;
use crate::telemetry::{RequestStats, ServerStats};
use crate::wire::{Dtype, ErrorCode, ErrorReply, FramePayload, Message, SubmitResponse};
use crossbeam::channel;
use preflight_core::{
    observe_stack, AlgoNgst, BitPixel, ImageStack, Kernel, Preprocessor, Sensitivity, TuneDecision,
    Tuner, Upsilon, ValuePixel,
};
use preflight_obs::Obs;
use preflight_supervisor::{
    supervise, DegradationLadder, FailureKind, FtLevel, RecoveryLog, StageOutcome, Supervision,
};
use preflight_tune::{StreamCalibrator, TuneParams};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Upper bound on threads handed to the [`Preprocessor`] per batch
    /// (default: [`available_threads`](preflight_core::available_threads)).
    /// The process core budget grants fewer while other runs hold cores:
    /// the batch's own thread always works, and helpers are borrowed only
    /// from idle cores.
    pub threads: usize,
    /// Voter kernel handed to the [`Preprocessor`] (both are
    /// bit-identical; the SIMD-dispatched bit-sliced kernel is the default,
    /// the scalar gather the reference oracle).
    pub kernel: Kernel,
    /// Retry/timeout/degradation policy applied to each batch.
    pub supervision: Supervision,
    /// Per-stream auto-tuning state (`--auto-tune`). `None` — the default —
    /// serves every request with its requested Λ/Υ and the paper's
    /// per-series dynamic windows.
    pub tuners: Option<TunerRegistry>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: preflight_core::available_threads(),
            kernel: Kernel::default(),
            supervision: Supervision::default(),
            tuners: None,
        }
    }
}

/// Per-stream calibrator state, keyed by the batch [`GroupKey`] and shared
/// by every engine worker (clones share one map). A stream keeps its
/// rolling Φ statistics across batches, so boundaries freeze after warm-up
/// and move only when the scene statistics drift out of the hysteresis
/// band.
#[derive(Debug, Clone, Default)]
pub struct TunerRegistry {
    inner: Arc<Mutex<HashMap<GroupKey, Arc<StreamCalibrator>>>>,
}

impl TunerRegistry {
    /// An empty registry; calibrators materialise per stream on first use.
    pub fn new() -> Self {
        TunerRegistry::default()
    }

    /// Number of streams with live calibrators.
    pub fn streams(&self) -> usize {
        self.inner.lock().expect("tuner registry lock").len()
    }

    /// The calibrator for `key`, created on first sight with the stream's
    /// requested Λ/Υ as the tuning baseline.
    fn for_key(
        &self,
        key: &GroupKey,
        lambda: Sensitivity,
        upsilon: Upsilon,
        obs: &Obs,
    ) -> Arc<StreamCalibrator> {
        let mut map = self.inner.lock().expect("tuner registry lock");
        Arc::clone(map.entry(*key).or_insert_with(|| {
            Arc::new(StreamCalibrator::new(TuneParams::new(lambda, upsilon), obs))
        }))
    }
}

/// Monotonic batch counter, used as the supervisor's `unit` id so recovery
/// events are attributable to a specific batch.
static BATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs one engine worker: pulls batches until the channel closes.
/// Buffers for working copies and responses come from (and return to)
/// `pool`, shared with the ingest side of the event loop.
pub fn run_engine_worker(
    rx: channel::Receiver<BatchJob>,
    config: EngineConfig,
    stats: Arc<ServerStats>,
    pool: Arc<BufferPool>,
) {
    for batch in rx.iter() {
        process_batch(batch, &config, &stats, &pool);
    }
}

/// Preprocesses one batch and answers every request inside it.
pub fn process_batch(
    batch: BatchJob,
    config: &EngineConfig,
    stats: &ServerStats,
    pool: &BufferPool,
) {
    stats.batches.inc();
    match batch.key.dtype {
        Dtype::U16 => process_typed::<u16>(batch, config, stats, pool),
        Dtype::U32 => process_typed::<u32>(batch, config, stats, pool),
    }
}

/// Pixel-type plumbing between [`FramePayload`] and the generic engine.
trait PayloadPixel: BitPixel + ValuePixel {
    /// The stack inside `p`, if `p` matches this pixel type.
    fn stack(p: &FramePayload) -> Option<&ImageStack<Self>>;
    /// Moves the stack out of `p`, if `p` matches this pixel type.
    fn into_stack(p: FramePayload) -> Option<ImageStack<Self>>;
    /// Wraps a stack back into a payload.
    fn wrap(stack: ImageStack<Self>) -> FramePayload;
    /// A zeroed pooled buffer of `samples` elements.
    fn take_filled(pool: &BufferPool, samples: usize) -> Vec<Self>;
    /// Recycles a buffer into the pool's shelf for this pixel type.
    fn put(pool: &BufferPool, data: Vec<Self>);
}

impl PayloadPixel for u16 {
    fn stack(p: &FramePayload) -> Option<&ImageStack<u16>> {
        match p {
            FramePayload::U16(s) => Some(s),
            FramePayload::U32(_) => None,
        }
    }

    fn into_stack(p: FramePayload) -> Option<ImageStack<u16>> {
        match p {
            FramePayload::U16(s) => Some(s),
            FramePayload::U32(_) => None,
        }
    }

    fn wrap(stack: ImageStack<u16>) -> FramePayload {
        FramePayload::U16(stack)
    }

    fn take_filled(pool: &BufferPool, samples: usize) -> Vec<u16> {
        pool.take_filled_u16(samples)
    }

    fn put(pool: &BufferPool, data: Vec<u16>) {
        pool.put_u16(data);
    }
}

impl PayloadPixel for u32 {
    fn stack(p: &FramePayload) -> Option<&ImageStack<u32>> {
        match p {
            FramePayload::U32(s) => Some(s),
            FramePayload::U16(_) => None,
        }
    }

    fn into_stack(p: FramePayload) -> Option<ImageStack<u32>> {
        match p {
            FramePayload::U32(s) => Some(s),
            FramePayload::U16(_) => None,
        }
    }

    fn wrap(stack: ImageStack<u32>) -> FramePayload {
        FramePayload::U32(stack)
    }

    fn take_filled(pool: &BufferPool, samples: usize) -> Vec<u32> {
        pool.take_filled_u32(samples)
    }

    fn put(pool: &BufferPool, data: Vec<u32>) {
        pool.put_u32(data);
    }
}

/// A pooled, zeroed stack of the given geometry.
fn pooled_stack<T: PayloadPixel>(
    pool: &BufferPool,
    width: usize,
    height: usize,
    frames: usize,
) -> ImageStack<T> {
    let data = T::take_filled(pool, width * height * frames);
    ImageStack::from_vec(width, height, frames, data).expect("pooled buffer sized to geometry")
}

/// Returns a stack's buffer to the pool.
fn recycle<T: PayloadPixel>(pool: &BufferPool, stack: ImageStack<T>) {
    T::put(pool, stack.into_vec());
}

/// What the engine still owes one request after its stack was moved into
/// the combined input.
struct JobMeta {
    reply: ReplySink,
    request_id: u64,
    admitted_at: Instant,
    start: usize,
    frames: usize,
    /// Held until the reply is queued, exactly as `SubmitJob` held it.
    _permit: AdmissionPermit,
}

fn process_typed<T: PayloadPixel>(
    batch: BatchJob,
    config: &EngineConfig,
    stats: &ServerStats,
    pool: &BufferPool,
) {
    let key = batch.key;
    let total_frames = batch.total_frames;
    let unit = BATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dispatched_at = Instant::now();
    // Covers the whole batch service: ladder walk, slicing, reply queuing.
    let engine_timer = stats.stage_engine.timer();

    let (upsilon, lambda) = match (
        Upsilon::new(key.upsilon as usize),
        Sensitivity::new(u32::from(key.lambda)),
    ) {
        (Ok(upsilon), Ok(lambda)) => (upsilon, lambda),
        _ => {
            // Wire validation bounds Λ and Υ, so this too is defensive.
            respond_error(&batch, "invalid algorithm parameters");
            return;
        }
    };
    if batch
        .jobs
        .iter()
        .any(|job| T::stack(&job.request.payload).is_none())
    {
        // The batcher keys on dtype, so this cannot happen; answer
        // defensively instead of crashing the worker.
        respond_error(&batch, "batch mixed pixel types");
        return;
    }

    // Take ownership of every request's stack. A single-request batch —
    // the latency-path common case — *moves* its pooled ingest buffer
    // straight in as the engine input: zero copies, zero allocations.
    // Multi-request batches concatenate into one pooled stack and recycle
    // the sources immediately.
    let batch_requests = batch.jobs.len() as u32;
    let mut metas: Vec<JobMeta> = Vec::with_capacity(batch.jobs.len());
    let mut stacks: Vec<ImageStack<T>> = Vec::with_capacity(batch.jobs.len());
    let mut offset = 0;
    for job in batch.jobs {
        let stack = T::into_stack(job.request.payload).expect("dtype checked above");
        metas.push(JobMeta {
            reply: job.reply,
            request_id: job.request.request_id,
            admitted_at: job.admitted_at,
            start: offset,
            frames: stack.frames(),
            _permit: job.permit,
        });
        offset += stack.frames();
        stacks.push(stack);
    }
    let input: ImageStack<T> = if stacks.len() == 1 {
        stacks.pop().expect("one stack")
    } else {
        let mut combined = pooled_stack::<T>(pool, key.width, key.height, total_frames);
        for (meta, stack) in metas.iter().zip(stacks.drain(..)) {
            for i in 0..stack.frames() {
                combined
                    .frame_mut(meta.start + i)
                    .copy_from_slice(stack.frame(i));
            }
            recycle(pool, stack);
        }
        combined
    };

    // Auto-tuning: feed this batch's XOR-diff sample to the stream's
    // calibrator and take whatever decision is in force *before* the
    // supervised ladder walk, so every retry of this batch (and every
    // worker thread) sees one frozen decision — retries stay bit-identical
    // to the first attempt.
    let decision: Option<TuneDecision> = config.tuners.as_ref().and_then(|reg| {
        let cal = reg.for_key(&key, lambda, upsilon, stats.obs());
        observe_stack(cal.as_ref(), &input);
        cal.decision(T::BITS)
    });
    let requested = AlgoNgst::new(upsilon, lambda);
    let algo = decision.as_ref().map_or(requested, |d| requested.tuned(d));
    let ladder = DegradationLadder::new(Some(algo));

    // Walk the ladder: supervised attempts at each rung, quarantine one
    // rung down on exhaustion. Passthrough cannot fail, so this always
    // produces a repaired (or at worst raw) stack.
    //
    // `input` stays pristine for the per-request diff; each attempt runs
    // on `work`, a *single* pooled buffer refreshed from `input` before
    // the pass — the old `combined.clone()` + per-attempt `input.clone()`
    // chain collapsed to one copy, re-done only when a retry fires.
    let supervision = config.supervision;
    let mut policy = supervision.policy;
    policy.max_retries = supervision.attempts_per_level().saturating_sub(1);
    let mut log = RecoveryLog::new();
    let mut level = ladder.entry_level();
    let mut attempts_total: u32 = 0;
    let work_slot: std::cell::RefCell<Option<ImageStack<T>>> = std::cell::RefCell::new(None);
    let refreshed_work = || {
        let mut work = work_slot
            .borrow_mut()
            .take()
            .unwrap_or_else(|| pooled_stack::<T>(pool, key.width, key.height, total_frames));
        for i in 0..total_frames {
            work.frame_mut(i).copy_from_slice(input.frame(i));
        }
        work
    };
    let (repaired, rung) = loop {
        let Some(stage) = ladder.stage(level) else {
            respond_error_metas(&metas, "degradation ladder has no stage");
            return;
        };
        let attempt_counter = std::cell::Cell::new(0u32);
        let outcome = supervise(&policy, "serve-batch", unit, &mut log, |_attempt| {
            attempt_counter.set(attempt_counter.get() + 1);
            let mut work = refreshed_work();
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                Preprocessor::new(&stage)
                    .threads(config.threads)
                    .kernel(config.kernel)
                    .observer(stats.obs())
                    .run(&mut work)
            }));
            match result {
                Err(_) => {
                    *work_slot.borrow_mut() = Some(work);
                    StageOutcome::Failed(FailureKind::Crash)
                }
                Ok(changed) => {
                    // The pass cannot be preempted mid-flight, so the
                    // deadline is enforced after the fact: an overlong
                    // attempt still counts as a timeout and is retried
                    // (possibly one rung down, where passes are cheaper).
                    if started.elapsed() > policy.stage_timeout {
                        *work_slot.borrow_mut() = Some(work);
                        StageOutcome::Failed(FailureKind::Timeout)
                    } else {
                        StageOutcome::Done((work, changed))
                    }
                }
            }
        });
        attempts_total += attempt_counter.get();
        match outcome {
            Ok((work, _changed)) => break (work, level),
            Err(_) if supervision.degrade => match level.next() {
                Some(next) => {
                    stats.degradation_transition(next);
                    level = next;
                }
                None => {
                    // Passthrough exhausted its budget — only possible with
                    // a pathological stage_timeout. Serve the raw input.
                    break (refreshed_work(), FtLevel::Passthrough);
                }
            },
            Err(e) => {
                respond_error_metas(&metas, &format!("batch failed without degradation: {e}"));
                return;
            }
        }
    };
    if let Some(spare) = work_slot.into_inner() {
        recycle(pool, spare);
    }
    if rung != FtLevel::AlgoNgst {
        stats.degraded_batches.inc();
    }
    stats
        .retries
        .add(u64::from(attempts_total.saturating_sub(1)));
    let service_us = elapsed_us(dispatched_at);

    // Slice the repaired stack back into per-request responses with their
    // telemetry trailers. A single-request batch moves `repaired` straight
    // into its response; multi-request batches copy each range into a
    // pooled out stack.
    let frame_len = key.width * key.height;
    let single = metas.len() == 1;
    let respond = |meta: JobMeta, payload: ImageStack<T>, changed_here: u64, bits_here: u64| {
        let samples = (meta.frames * frame_len) as u64;
        let agreement = (1000 * (samples - changed_here))
            .checked_div(samples)
            .unwrap_or(1000) as u32;
        let queue_wait_us = elapsed_us_between(meta.admitted_at, dispatched_at);
        // The wait spans threads (admission on the reader, dispatch here),
        // so it is observed directly rather than via an RAII timer.
        stats.stage_queue.observe_us(queue_wait_us);
        stats.samples_repaired.add(changed_here);
        stats.bits_repaired.add(bits_here);
        let stats_trailer = RequestStats {
            samples_changed: changed_here,
            bits_flipped: bits_here,
            voter_agreement_permille: agreement,
            queue_wait_us,
            service_us,
            batch_frames: total_frames as u32,
            batch_requests,
            rung,
            attempts: attempts_total.max(1),
            // Network-scope fields: stamped by the client (busy retries)
            // and the fleet router (failovers, serving backend), never by
            // the daemon itself.
            net_retries: 0,
            served_by: 0,
            tuned_lambda: decision.map_or(0, |d| d.lambda.value() as u8),
            tuned_upsilon: decision.map_or(0, |d| d.upsilon.value() as u8),
            tuned_window_a: decision.map_or(0, |d| d.window_a_bits as u8),
            tuned_window_c: decision.map_or(0, |d| d.window_c_bits as u8),
            tuner_recalibrations: decision
                .map_or(0, |d| u32::try_from(d.recalibrations).unwrap_or(u32::MAX)),
        };
        let response = Message::Response(SubmitResponse {
            request_id: meta.request_id,
            stats: stats_trailer,
            payload: T::wrap(payload),
        });
        // A vanished client is not an engine error; its permit releases
        // when the meta drops either way. `completed` counts responses
        // handed to the loop for writing; the loop drops those whose
        // connection disappeared while the batch was in flight.
        if meta.reply.send(response) {
            stats.completed.inc();
        }
    };
    let diff_range = |start: usize, frames: usize| {
        let mut changed: u64 = 0;
        let mut bits: u64 = 0;
        for i in 0..frames {
            let rep = repaired.frame(start + i);
            let orig = input.frame(start + i);
            for p in 0..frame_len {
                if rep[p] != orig[p] {
                    changed += 1;
                    bits += u64::from(rep[p].xor(orig[p]).count_ones());
                }
            }
        }
        (changed, bits)
    };
    if single {
        let meta = metas.pop().expect("one meta");
        let (changed, bits) = diff_range(0, total_frames);
        recycle(pool, input);
        respond(meta, repaired, changed, bits);
    } else {
        for meta in metas {
            let mut out: ImageStack<T> = pooled_stack(pool, key.width, key.height, meta.frames);
            let (changed, bits) = diff_range(meta.start, meta.frames);
            for i in 0..meta.frames {
                out.frame_mut(i)
                    .copy_from_slice(repaired.frame(meta.start + i));
            }
            respond(meta, out, changed, bits);
        }
        recycle(pool, input);
        recycle(pool, repaired);
    }
    drop(engine_timer);
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn elapsed_us_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_micros()).unwrap_or(u64::MAX)
}

fn respond_error(batch: &BatchJob, why: &str) {
    for job in &batch.jobs {
        job.reply.send(Message::Error(ErrorReply {
            request_id: job.request.request_id,
            code: ErrorCode::Internal,
            message: why.to_owned(),
        }));
    }
}

/// [`respond_error`] for batches whose jobs were already decomposed into
/// [`JobMeta`]s.
fn respond_error_metas(metas: &[JobMeta], why: &str) {
    for meta in metas {
        meta.reply.send(Message::Error(ErrorReply {
            request_id: meta.request_id,
            code: ErrorCode::Internal,
            message: why.to_owned(),
        }));
    }
}
