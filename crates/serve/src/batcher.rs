//! The adaptive batching scheduler.
//!
//! Admitted submissions land in one shared group map, keyed by *(stream,
//! geometry, dtype, parameters)*. The [`Batcher`] coalesces compatible
//! submissions into one temporal stack so the engine always preprocesses a
//! deep, cache-friendly cube instead of many shallow ones. A group flushes
//! when any of:
//!
//! - its depth reaches the **effective target** — the configured
//!   `target_frames` scaled up under load (adaptive batching: a busy queue
//!   buys throughput with depth, an idle queue optimises latency),
//! - a submission carries the **end-of-stream** flag (the client needs its
//!   answer now; also what makes single-shot requests byte-identical to the
//!   in-process path),
//! - the group's **deadline** (`max_delay` after its first job was
//!   admitted) elapses,
//! - the server **drains**.
//!
//! The event-loop shards share one [`Batcher`]: each submits inline at
//! admission and fires due deadlines from its poll timeout, so one stream
//! coalesces across shards and a flushed batch goes straight to the engine
//! queue. [`run_batcher`] drives the same map from a command channel.
//!
//! The map holds each job's [`AdmissionPermit`] transitively, so frames
//! parked here still occupy bounded-queue capacity — backpressure covers
//! the whole pipeline, not just the wire.

use crate::queue::{AdmissionGate, AdmissionPermit};
use crate::reply::ReplySink;
use crate::wire::{Dtype, SubmitRequest};
use crossbeam::channel;
use preflight_obs::Histogram;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Frames a group should reach before it flushes (scaled when
    /// adaptive). Clamped up to the request's Υ so a flushed stack always
    /// carries at least one full voting window.
    pub target_frames: usize,
    /// Hard per-batch depth cap, whatever the load: a group flushes before
    /// an append would push it past this. A *single* submission deeper than
    /// the cap still flushes alone (its depth is bounded upstream by the
    /// wire payload cap, not here).
    pub max_frames: usize,
    /// Deadline: a group never waits longer than this after opening.
    pub max_delay: Duration,
    /// Scale `target_frames` with queue utilisation.
    pub adaptive: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            target_frames: 16,
            max_frames: 256,
            max_delay: Duration::from_millis(5),
            adaptive: true,
        }
    }
}

impl BatchConfig {
    /// The depth a group must reach to flush right now, given queue load.
    ///
    /// Under light load the base target applies (first-frame latency wins);
    /// past 50 % utilisation the target doubles and past 75 % it
    /// quadruples, so a saturated server amortises dispatch overhead over
    /// deeper stacks.
    pub fn effective_target(&self, gate: &AdmissionGate, upsilon: usize) -> usize {
        let base = self.target_frames.max(upsilon);
        if !self.adaptive {
            return base.min(self.max_frames.max(upsilon));
        }
        let scaled = match (gate.in_flight() * 4).checked_div(gate.capacity()) {
            Some(q) if q >= 3 => base * 4,
            Some(q) if q >= 2 => base * 2,
            _ => base,
        };
        scaled.min(self.max_frames.max(upsilon))
    }
}

/// What one admitted submission carries through the daemon.
pub struct SubmitJob {
    /// The parsed request.
    pub request: SubmitRequest,
    /// The bounded-queue slot this request occupies until its response is
    /// queued for writing.
    pub permit: AdmissionPermit,
    /// When the request won admission (queue-wait telemetry starts here).
    pub admitted_at: Instant,
    /// Routes this request's reply back to its owning connection.
    pub reply: ReplySink,
}

/// Commands [`run_batcher`] accepts.
pub enum BatcherCmd {
    /// An admitted submission to coalesce.
    Submit(SubmitJob),
    /// Flush everything and return.
    Stop,
}

/// The coalescing key: only frames that are temporally continuable into
/// one stack may share a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Logical stream.
    pub stream_id: u64,
    /// Pixel type.
    pub dtype: Dtype,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Sensitivity Λ.
    pub lambda: u8,
    /// Voter count Υ.
    pub upsilon: u8,
}

impl GroupKey {
    /// The key a request batches under.
    pub fn of(req: &SubmitRequest) -> Self {
        GroupKey {
            stream_id: req.stream_id,
            dtype: req.payload.dtype(),
            width: req.payload.width(),
            height: req.payload.height(),
            lambda: req.lambda,
            upsilon: req.upsilon,
        }
    }
}

/// A flushed batch on its way to the engine.
pub struct BatchJob {
    /// The shared key of every job inside.
    pub key: GroupKey,
    /// The coalesced submissions, in arrival order (their frames
    /// concatenate in this order).
    pub jobs: Vec<SubmitJob>,
    /// Total temporal depth of the concatenated stack.
    pub total_frames: usize,
}

/// An open group: its first job's admission time (the deadline runs from
/// there) and the batch it is building.
type Group = (Instant, BatchJob);

/// The shared group map. Every method flushes inline: a flushed batch is on
/// the engine queue when the method returns.
pub struct Batcher {
    config: BatchConfig,
    gate: AdmissionGate,
    /// Each group's formation time (open to flush): the `batch` stage.
    batch_hist: Histogram,
    state: Mutex<State>,
}

struct State {
    groups: HashMap<GroupKey, Group>,
    /// The engine queue's only sender; `None` once closed, which is what
    /// lets the engine workers exit.
    engine_tx: Option<channel::Sender<BatchJob>>,
}

impl Batcher {
    /// A batcher flushing into `engine_tx`, its depth target scaled by
    /// `gate`'s load.
    pub fn new(
        engine_tx: channel::Sender<BatchJob>,
        gate: AdmissionGate,
        config: BatchConfig,
        batch_hist: Histogram,
    ) -> Self {
        let state = Mutex::new(State {
            groups: HashMap::new(),
            engine_tx: Some(engine_tx),
        });
        Batcher {
            config,
            gate,
            batch_hist,
            state,
        }
    }

    fn ship(&self, engine_tx: &Option<channel::Sender<BatchJob>>, (opened_at, batch): Group) {
        self.batch_hist
            .observe_us(opened_at.elapsed().as_micros() as u64);
        // A closed or dead engine queue drops the jobs, releasing their
        // permits; the clients see the connection close.
        if let Some(tx) = engine_tx {
            let _ = tx.send(batch);
        }
    }

    /// Appends `job` to its group: first flushes the group if the job would
    /// push it past `max_frames`, then flushes on end-of-stream or at the
    /// effective depth target.
    ///
    /// # Errors
    /// Hands the job back once [`Batcher::close`] has run.
    pub fn submit(&self, job: SubmitJob) -> Result<(), Box<SubmitJob>> {
        let mut state = self.state.lock().expect("batcher poisoned");
        let State { groups, engine_tx } = &mut *state;
        if engine_tx.is_none() {
            return Err(Box::new(job));
        }
        let key = GroupKey::of(&job.request);
        let (frames, eos) = (job.request.payload.frames(), job.request.eos);
        let max = self.config.max_frames;
        if groups
            .get(&key)
            .is_some_and(|(_, b)| b.total_frames + frames > max)
        {
            self.ship(engine_tx, groups.remove(&key).expect("open group"));
        }
        let (_, batch) = groups.entry(key).or_insert_with(|| {
            let batch = BatchJob {
                key,
                jobs: Vec::new(),
                total_frames: 0,
            };
            (job.admitted_at, batch)
        });
        batch.jobs.push(job);
        batch.total_frames += frames;
        let target = self
            .config
            .effective_target(&self.gate, key.upsilon as usize);
        if eos || batch.total_frames >= target.min(max) {
            self.ship(engine_tx, groups.remove(&key).expect("open group"));
        }
        Ok(())
    }

    /// Flushes every group whose deadline is at or before `now`; returns
    /// the time from `now` to the nearest remaining deadline, if any.
    pub fn flush_due(&self, now: Instant) -> Option<Duration> {
        let mut state = self.state.lock().expect("batcher poisoned");
        let State { groups, engine_tx } = &mut *state;
        let deadline = |opened_at: &Instant| *opened_at + self.config.max_delay;
        for (_, group) in groups.extract_if(|_, (opened_at, _)| deadline(opened_at) <= now) {
            self.ship(engine_tx, group);
        }
        groups
            .values()
            .map(|(opened_at, _)| deadline(opened_at).saturating_duration_since(now))
            .min()
    }

    /// Flushes every open group now (drain path).
    pub fn flush_all(&self) {
        let mut state = self.state.lock().expect("batcher poisoned");
        let State { groups, engine_tx } = &mut *state;
        for (_, group) in groups.drain() {
            self.ship(engine_tx, group);
        }
    }

    /// Flushes every open group and drops the engine queue's sender, so the
    /// engine workers exit once the queue is empty.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("batcher poisoned");
        let engine_tx = state.engine_tx.take();
        for (_, group) in state.groups.drain() {
            self.ship(&engine_tx, group);
        }
    }
}

/// Drives a [`Batcher`] from a command channel until [`BatcherCmd::Stop`]
/// or every sender is gone, then flushes what is left. Waits no longer
/// than the nearest group deadline.
pub fn run_batcher(
    rx: channel::Receiver<BatcherCmd>,
    engine_tx: channel::Sender<BatchJob>,
    gate: AdmissionGate,
    config: BatchConfig,
    batch_hist: Histogram,
) {
    let batcher = Batcher::new(engine_tx, gate, config, batch_hist);
    loop {
        let cmd = match batcher.flush_due(Instant::now()) {
            Some(wait) => rx.recv_timeout(wait),
            None => rx
                .recv()
                .map_err(|_| channel::RecvTimeoutError::Disconnected),
        };
        match cmd {
            // Never closed, so every job is taken.
            Ok(BatcherCmd::Submit(job)) => drop(batcher.submit(job)),
            Ok(BatcherCmd::Stop) | Err(channel::RecvTimeoutError::Disconnected) => break,
            Err(channel::RecvTimeoutError::Timeout) => {}
        }
    }
    batcher.flush_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FramePayload;
    use preflight_core::ImageStack;

    fn submit(stream_id: u64, frames: usize, eos: bool) -> (SubmitRequest, usize) {
        let stack = ImageStack::<u16>::new(4, 4, frames);
        (
            SubmitRequest {
                request_id: 1,
                stream_id,
                lambda: 80,
                upsilon: 4,
                eos,
                payload: FramePayload::U16(stack),
            },
            frames,
        )
    }

    fn job(
        gate: &AdmissionGate,
        req: SubmitRequest,
        admitted_at: Instant,
    ) -> (SubmitJob, channel::Receiver<(u64, crate::wire::Message)>) {
        let (sink, rx) = ReplySink::detached();
        (
            SubmitJob {
                request: req,
                permit: gate.try_acquire().expect("capacity"),
                admitted_at,
                reply: sink,
            },
            rx,
        )
    }

    fn batcher(
        gate: &AdmissionGate,
        config: BatchConfig,
    ) -> (Batcher, channel::Receiver<BatchJob>) {
        let (batch_tx, batch_rx) = channel::unbounded();
        let hist = preflight_obs::Obs::disabled().histogram(preflight_obs::STAGE_SECONDS, None);
        (Batcher::new(batch_tx, gate.clone(), config, hist), batch_rx)
    }

    #[test]
    fn eos_flushes_immediately() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 1000,
            max_delay: Duration::from_secs(60),
            ..BatchConfig::default()
        };
        let (batcher, batch_rx) = batcher(&gate, config);
        let (req, _) = submit(7, 4, true);
        let (j, _reply_rx) = job(&gate, req, Instant::now());
        assert!(batcher.submit(j).is_ok());
        let batch = batch_rx
            .try_recv()
            .expect("EOS must flush without waiting for depth or deadline");
        assert_eq!(batch.total_frames, 4);
        assert_eq!(batch.key.stream_id, 7);
        assert_eq!(batcher.flush_due(Instant::now()), None, "nothing left open");
    }

    #[test]
    fn depth_target_flushes_and_streams_stay_separate() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 8,
            max_delay: Duration::from_secs(60),
            adaptive: false,
            ..BatchConfig::default()
        };
        let (batcher, batch_rx) = batcher(&gate, config);
        let t0 = Instant::now();
        // Stream 1 gets 4 + 4 frames (reaches the target), stream 2 only 4.
        for (stream, eos) in [(1, false), (2, false), (1, false)] {
            let (req, _) = submit(stream, 4, eos);
            let (j, _r) = job(&gate, req, t0);
            assert!(batcher.submit(j).is_ok());
        }
        let batch = batch_rx.try_recv().unwrap();
        assert_eq!(batch.key.stream_id, 1);
        assert_eq!(batch.total_frames, 8);
        assert_eq!(batch.jobs.len(), 2);
        assert!(
            batch_rx.try_recv().is_err(),
            "stream 2 is below target and its deadline is far away"
        );
        assert_eq!(
            batcher.flush_due(t0 + Duration::from_secs(1)),
            Some(Duration::from_secs(59))
        );
        assert!(batch_rx.try_recv().is_err());
        batcher.flush_all();
        let leftover = batch_rx.try_recv().unwrap();
        assert_eq!(leftover.key.stream_id, 2);
    }

    #[test]
    fn deadline_flushes_a_shallow_group() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 1000,
            max_delay: Duration::from_millis(30),
            ..BatchConfig::default()
        };
        let (batcher, batch_rx) = batcher(&gate, config);
        let (req, _) = submit(3, 2, false);
        let before = Instant::now();
        let (j, _r) = job(&gate, req, before);
        assert!(batcher.submit(j).is_ok());
        assert_eq!(
            batcher.flush_due(before + Duration::from_millis(25)),
            Some(Duration::from_millis(5))
        );
        assert!(batch_rx.try_recv().is_err(), "flushed before the deadline");
        assert_eq!(batcher.flush_due(before + Duration::from_millis(30)), None);
        let batch = batch_rx.try_recv().expect("deadline must flush");
        assert_eq!(batch.total_frames, 2);
    }

    #[test]
    fn max_frames_cap_flushes_before_append() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 1000,
            max_frames: 6,
            max_delay: Duration::from_secs(60),
            adaptive: false,
        };
        let (batcher, batch_rx) = batcher(&gate, config);
        // 4 + 4 frames: appending the second submission would cross the
        // 6-frame cap, so the open group must flush alone first instead of
        // shipping an 8-frame batch.
        for _ in 0..2 {
            let (req, _) = submit(5, 4, false);
            let (j, _r) = job(&gate, req, Instant::now());
            assert!(batcher.submit(j).is_ok());
        }
        let first = batch_rx.try_recv().unwrap();
        assert_eq!(first.total_frames, 4, "cap exceeded by appending");
        assert_eq!(first.jobs.len(), 1);
        batcher.flush_all();
        let second = batch_rx.try_recv().unwrap();
        assert_eq!(second.total_frames, 4);
    }

    #[test]
    fn adaptive_target_deepens_under_load() {
        let gate = AdmissionGate::new(4);
        let config = BatchConfig {
            target_frames: 8,
            max_frames: 256,
            adaptive: true,
            ..BatchConfig::default()
        };
        assert_eq!(config.effective_target(&gate, 4), 8, "idle queue");
        let _p1 = gate.try_acquire().unwrap();
        let _p2 = gate.try_acquire().unwrap();
        assert_eq!(config.effective_target(&gate, 4), 16, "half full");
        let _p3 = gate.try_acquire().unwrap();
        assert_eq!(config.effective_target(&gate, 4), 32, "nearly full");
        // Υ always wins over a tiny target.
        let idle = AdmissionGate::new(4);
        let small = BatchConfig {
            target_frames: 2,
            ..config
        };
        assert_eq!(small.effective_target(&idle, 8), 8);
    }

    #[test]
    fn close_flushes_then_hands_submissions_back() {
        let gate = AdmissionGate::new(8);
        let (batcher, batch_rx) = batcher(&gate, BatchConfig::default());
        let (req, _) = submit(4, 2, false);
        let (j, _r) = job(&gate, req, Instant::now());
        assert!(batcher.submit(j).is_ok());
        batcher.close();
        assert_eq!(batch_rx.try_recv().unwrap().total_frames, 2);
        let (req, _) = submit(4, 2, true);
        let (j, _r) = job(&gate, req, Instant::now());
        assert!(batcher.submit(j).is_err(), "closed batcher took a job");
        assert!(
            matches!(
                batch_rx.try_recv(),
                Err(channel::TryRecvError::Disconnected)
            ),
            "close must drop the engine queue's only sender"
        );
    }

    #[test]
    fn run_batcher_flushes_eos_and_leftovers_on_stop() {
        let gate = AdmissionGate::new(8);
        let (cmd_tx, cmd_rx) = channel::unbounded();
        let (batch_tx, batch_rx) = channel::unbounded();
        let hist = preflight_obs::Obs::disabled().histogram(preflight_obs::STAGE_SECONDS, None);
        let config = BatchConfig {
            max_delay: Duration::from_secs(60),
            ..BatchConfig::default()
        };
        let g = gate.clone();
        let handle = std::thread::spawn(move || run_batcher(cmd_rx, batch_tx, g, config, hist));
        for (stream, eos) in [(1, true), (2, false)] {
            let (req, _) = submit(stream, 4, eos);
            let (j, _r) = job(&gate, req, Instant::now());
            cmd_tx.send(BatcherCmd::Submit(j)).unwrap();
        }
        let batch = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.key.stream_id, 1, "EOS flushes at once");
        cmd_tx.send(BatcherCmd::Stop).unwrap();
        handle.join().unwrap();
        let leftover = batch_rx.try_recv().expect("Stop flushes open groups");
        assert_eq!(leftover.key.stream_id, 2);
        assert!(batch_rx.try_recv().is_err());
    }
}
