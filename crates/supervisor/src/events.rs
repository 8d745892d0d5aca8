//! Structured recovery events and the per-run recovery log.

use std::fmt;

use crate::ladder::FtLevel;

/// How a single attempt failed. The supervision layer maps each failure to
/// the matching [`RecoveryKind`] when recording it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The attempt exceeded its stage deadline.
    Timeout,
    /// The worker executing the attempt died.
    Crash,
    /// The result message arrived but failed its integrity check.
    CorruptMessage,
    /// The result was well-formed but semantically invalid (e.g. failed an
    /// acceptance filter).
    InvalidOutput,
}

/// One recovery action taken (or failure observed) by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryKind {
    /// An attempt missed its deadline and was cancelled.
    Timeout,
    /// A worker died mid-attempt.
    WorkerCrash,
    /// An inter-stage message failed its integrity check and was dropped.
    CorruptMessage,
    /// A result failed semantic acceptance checks and was rejected.
    InvalidOutput,
    /// The unit was requeued for another attempt (after backoff).
    Retry,
    /// The unit exhausted its attempts at one ladder rung and was moved to
    /// the quarantine queue.
    Quarantined,
    /// A quarantined unit was re-dispatched one rung down the ladder.
    Degraded {
        /// Rung the unit failed at.
        from: FtLevel,
        /// Rung it will be retried at.
        to: FtLevel,
    },
    /// The unit failed at the bottom of the ladder; its output is a flagged
    /// placeholder rather than real data.
    Abandoned,
    /// The unit eventually succeeded after at least one failure.
    Recovered,
}

impl RecoveryKind {
    /// Short machine-friendly label (stable across formatting changes).
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryKind::Timeout => "timeout",
            RecoveryKind::WorkerCrash => "worker-crash",
            RecoveryKind::CorruptMessage => "corrupt-message",
            RecoveryKind::InvalidOutput => "invalid-output",
            RecoveryKind::Retry => "retry",
            RecoveryKind::Quarantined => "quarantined",
            RecoveryKind::Degraded { .. } => "degraded",
            RecoveryKind::Abandoned => "abandoned",
            RecoveryKind::Recovered => "recovered",
        }
    }
}

impl From<FailureKind> for RecoveryKind {
    fn from(f: FailureKind) -> Self {
        match f {
            FailureKind::Timeout => RecoveryKind::Timeout,
            FailureKind::Crash => RecoveryKind::WorkerCrash,
            FailureKind::CorruptMessage => RecoveryKind::CorruptMessage,
            FailureKind::InvalidOutput => RecoveryKind::InvalidOutput,
        }
    }
}

/// A single structured recovery event, as surfaced in end-of-run reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Pipeline stage the event belongs to (e.g. `"ngst-tile"`, `"alft"`).
    pub stage: &'static str,
    /// Unit of work within the stage (tile index, plane index, ...).
    pub unit: u64,
    /// Attempt number the event refers to (0 = initial dispatch).
    pub attempt: u32,
    /// What happened.
    pub kind: RecoveryKind,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] unit {} attempt {}: ",
            self.stage, self.unit, self.attempt
        )?;
        match self.kind {
            RecoveryKind::Degraded { from, to } => {
                write!(f, "degraded {from} -> {to}")
            }
            kind => write!(f, "{}", kind.label()),
        }
    }
}

/// Ordered log of every recovery event in a run.
///
/// Events are appended in the order the supervisor observes them; with a
/// deterministic chaos plan the log itself is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, stage: &'static str, unit: u64, attempt: u32, kind: RecoveryKind) {
        self.events.push(RecoveryEvent {
            stage,
            unit,
            attempt,
            kind,
        });
    }

    /// Appends a failure observation, mapped to its recovery kind.
    pub fn record_failure(
        &mut self,
        stage: &'static str,
        unit: u64,
        attempt: u32,
        failure: FailureKind,
    ) {
        self.record(stage, unit, attempt, failure.into());
    }

    /// Moves all events of `other` to the end of this log.
    pub fn merge(&mut self, mut other: RecoveryLog) {
        self.events.append(&mut other.events);
    }

    /// All events, in observation order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no recovery action was needed — a clean run.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events whose kind matches `label` (see
    /// [`RecoveryKind::label`]).
    pub fn count(&self, label: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    }

    /// Attempts cancelled on deadline.
    pub fn timeouts(&self) -> usize {
        self.count("timeout")
    }

    /// Worker deaths observed.
    pub fn crashes(&self) -> usize {
        self.count("worker-crash")
    }

    /// Inter-stage messages dropped for failing integrity checks.
    pub fn corruptions(&self) -> usize {
        self.count("corrupt-message")
    }

    /// Results rejected by semantic acceptance checks.
    pub fn invalid_outputs(&self) -> usize {
        self.count("invalid-output")
    }

    /// Units requeued for another attempt.
    pub fn retries(&self) -> usize {
        self.count("retry")
    }

    /// Units quarantined after exhausting a ladder rung.
    pub fn quarantines(&self) -> usize {
        self.count("quarantined")
    }

    /// Ladder steps taken.
    pub fn degradations(&self) -> usize {
        self.count("degraded")
    }

    /// Units abandoned at the bottom of the ladder.
    pub fn abandonments(&self) -> usize {
        self.count("abandoned")
    }

    /// Units that succeeded after at least one failure.
    pub fn recoveries(&self) -> usize {
        self.count("recovered")
    }

    /// One-line summary for end-of-run reports.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "no recovery events".to_string();
        }
        format!(
            "{} event(s): {} timeout(s), {} crash(es), {} corrupt, {} invalid, \
             {} retried, {} quarantined, {} degraded, {} abandoned, {} recovered",
            self.len(),
            self.timeouts(),
            self.crashes(),
            self.corruptions(),
            self.invalid_outputs(),
            self.retries(),
            self.quarantines(),
            self.degradations(),
            self.abandonments(),
            self.recoveries(),
        )
    }
}

impl fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for event in &self.events {
            writeln!(f, "  {event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_log_summary() {
        let log = RecoveryLog::new();
        assert!(log.is_empty());
        assert_eq!(log.summary(), "no recovery events");
    }

    #[test]
    fn counts_by_kind() {
        let mut log = RecoveryLog::new();
        log.record_failure("s", 0, 0, FailureKind::Timeout);
        log.record("s", 0, 0, RecoveryKind::Retry);
        log.record_failure("s", 1, 0, FailureKind::Crash);
        log.record("s", 1, 0, RecoveryKind::Retry);
        log.record("s", 0, 1, RecoveryKind::Recovered);
        log.record(
            "s",
            2,
            1,
            RecoveryKind::Degraded {
                from: FtLevel::AlgoNgst,
                to: FtLevel::BitVoter,
            },
        );
        assert_eq!(log.len(), 6);
        assert_eq!(log.timeouts(), 1);
        assert_eq!(log.crashes(), 1);
        assert_eq!(log.retries(), 2);
        assert_eq!(log.recoveries(), 1);
        assert_eq!(log.degradations(), 1);
        assert_eq!(log.abandonments(), 0);
    }

    #[test]
    fn merge_preserves_order() {
        let mut a = RecoveryLog::new();
        a.record("s", 0, 0, RecoveryKind::Retry);
        let mut b = RecoveryLog::new();
        b.record("s", 1, 0, RecoveryKind::Abandoned);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.events()[1].unit, 1);
    }

    #[test]
    fn display_mentions_ladder_step() {
        let mut log = RecoveryLog::new();
        log.record(
            "ngst-tile",
            3,
            2,
            RecoveryKind::Degraded {
                from: FtLevel::AlgoNgst,
                to: FtLevel::BitVoter,
            },
        );
        let text = log.to_string();
        assert!(text.contains("unit 3"));
        assert!(text.contains("degraded"));
    }
}
