//! Minimal functional subset of `crossbeam::channel`: an unbounded
//! multi-producer multi-consumer queue whose receivers block on a condition
//! variable instead of polling.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Signalled on every send and when the last sender goes away.
        ready: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // No code panics while holding the lock, so a poisoned mutex
            // still guards a consistent queue.
            self.state.lock().unwrap_or_else(|p| p.into_inner())
        }
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.lock().receivers -= 1;
        }
    }

    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like the real crossbeam-channel: Debug for all T (payload elided).
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, waking one blocked receiver; fails (handing the
        /// value back) once every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.lock();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.lock();
            match state.queue.pop_front() {
                Some(v) => Ok(v),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message arrives; fails once the queue is empty
        /// and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Like [`recv`](Self::recv), giving up with `Timeout` once
        /// `timeout` has elapsed.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self
                    .shared
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }
}
