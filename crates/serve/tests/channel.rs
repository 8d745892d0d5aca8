//! The `crossbeam::channel` queue the daemon's stages hand work through:
//! no message lost or duplicated under contention, disconnect in both
//! directions, and timeouts that never fire early.

use crossbeam::channel::{self, RecvError, RecvTimeoutError, TryRecvError};
use std::collections::HashSet;
use std::time::{Duration, Instant};

#[test]
fn many_producers_and_consumers_deliver_each_message_once() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: u64 = 5_000;
    let (tx, rx) = channel::unbounded::<u64>();
    let received: Vec<u64> = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.send(p * PER_PRODUCER + i).unwrap();
                }
            });
        }
        drop(tx);
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move || rx.iter().collect::<Vec<_>>())
            })
            .collect();
        consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    let total = (PRODUCERS * PER_PRODUCER) as usize;
    assert_eq!(received.len(), total, "no message lost or duplicated");
    let distinct: HashSet<u64> = received.into_iter().collect();
    assert_eq!(distinct.len(), total);
    assert!(distinct.iter().all(|&v| v < PRODUCERS * PER_PRODUCER));
}

#[test]
fn recv_and_iter_end_once_senders_are_gone_and_the_queue_is_drained() {
    let (tx, rx) = channel::unbounded();
    let tx2 = tx.clone();
    tx.send(1).unwrap();
    tx2.send(2).unwrap();
    drop(tx);
    assert_eq!(rx.try_recv(), Ok(1), "a live sender keeps the queue open");
    drop(tx2);
    assert_eq!(rx.recv(), Ok(2), "queued messages outlive their senders");
    assert_eq!(rx.recv(), Err(RecvError));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)),
        Err(RecvTimeoutError::Disconnected)
    );

    let (tx, rx) = channel::unbounded();
    let consumer = std::thread::spawn(move || rx.iter().collect::<Vec<u32>>());
    for v in 0..3 {
        tx.send(v).unwrap();
    }
    // The consumer is (or soon will be) blocked in `iter`; dropping the
    // last sender must wake it and end the iteration.
    std::thread::sleep(Duration::from_millis(20));
    drop(tx);
    assert_eq!(consumer.join().unwrap(), vec![0, 1, 2]);
}

#[test]
fn a_blocked_receiver_wakes_on_send() {
    let (tx, rx) = channel::unbounded();
    let consumer = std::thread::spawn(move || rx.recv());
    std::thread::sleep(Duration::from_millis(20));
    tx.send(7u8).unwrap();
    assert_eq!(consumer.join().unwrap(), Ok(7));
}

#[test]
fn send_fails_once_every_receiver_is_gone() {
    let (tx, rx) = channel::unbounded();
    let rx2 = rx.clone();
    drop(rx);
    tx.send("still open").unwrap();
    assert_eq!(rx2.len(), 1);
    drop(rx2);
    let err = tx.send("closed").unwrap_err();
    assert_eq!(err.0, "closed", "the unsent value is handed back");
}

#[test]
fn recv_timeout_never_returns_before_its_deadline() {
    let (tx, rx) = channel::unbounded::<()>();
    for ms in [0u64, 1, 15, 40] {
        let timeout = Duration::from_millis(ms);
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= timeout, "timed out early at {ms} ms");
    }
    tx.send(()).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(()));
    assert!(rx.is_empty());
}
