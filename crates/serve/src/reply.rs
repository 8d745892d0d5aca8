//! Routing engine replies back to event-loop connections.
//!
//! The threaded server gave every [`SubmitJob`](crate::batcher::SubmitJob)
//! a per-connection channel drained by that connection's writer thread.
//! The event loop has one writer — itself — so replies from engine workers
//! funnel through a single `(token, Message)` channel and a poller
//! [`Waker`](crate::poll::Waker): the worker sends, wakes the loop, and
//! the loop routes the message to the connection registered under the
//! token (or drops it if the peer is gone).

use crate::poll::Waker;
use crate::wire::Message;
use crossbeam::channel;

/// A cheap, cloneable handle an engine worker uses to deliver one
/// connection's reply into the event loop.
#[derive(Clone)]
pub struct ReplySink {
    token: u64,
    tx: channel::Sender<(u64, Message)>,
    wake: Option<Waker>,
}

impl ReplySink {
    /// A sink that routes to the connection registered under `token`,
    /// waking the loop after each send.
    pub fn new(token: u64, tx: channel::Sender<(u64, Message)>, wake: Option<Waker>) -> Self {
        ReplySink { token, tx, wake }
    }

    /// The connection token replies are routed to.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Queues `msg` for the owning connection and wakes the loop.
    /// Returns `false` only if the loop side has shut down entirely.
    pub fn send(&self, msg: Message) -> bool {
        let ok = self.tx.send((self.token, msg)).is_ok();
        if let Some(wake) = &self.wake {
            wake.wake();
        }
        ok
    }

    /// A sink wired to a fresh receiver — for tests that want to observe
    /// replies directly instead of running an event loop.
    pub fn detached() -> (Self, channel::Receiver<(u64, Message)>) {
        let (tx, rx) = channel::unbounded();
        (ReplySink::new(0, tx, None), rx)
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplySink")
            .field("token", &self.token)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{waker, Interest, Poller};
    use std::time::Duration;

    #[test]
    fn send_routes_by_token_and_wakes() {
        let (tx, rx) = channel::unbounded();
        let (wk, reader) = waker().expect("waker pair");
        let poller = Poller::new().expect("poller");
        poller
            .add(reader.raw_fd(), 5, Interest::Read)
            .expect("register waker");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert_eq!(n, 0, "no wake before the send");

        let sink = ReplySink::new(42, tx, Some(wk));
        assert!(sink.send(Message::Pong(9)));
        let (token, msg) = rx.recv().expect("routed");
        assert_eq!(token, 42);
        assert!(matches!(msg, Message::Pong(9)));
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        assert!(
            events[0].token == 5 && events[0].readable,
            "send must wake the loop"
        );
    }

    #[test]
    fn send_reports_loop_shutdown() {
        let (sink, rx) = ReplySink::detached();
        drop(rx);
        assert!(
            !sink.send(Message::Pong(0)),
            "closed loop must report false"
        );
    }
}
