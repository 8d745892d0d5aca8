//! Multi-shard daemon tests: whatever the event-loop shard count, served
//! pixels must stay byte-identical to running the [`Preprocessor`]
//! directly — sharding may move accepts and reads across threads, but
//! never change the science product. Covers the `SO_REUSEPORT` TCP path
//! (kernel-balanced accepts) and the Unix round-robin handoff path
//! (shard 0 accepts, peers serve), and one stream coalescing into one
//! batch across connections on different shards.

use preflight_core::{AlgoNgst, ImageStack, Preprocessor, Sensitivity, Upsilon};
use preflight_serve::wire::FramePayload;
use preflight_serve::{BatchConfig, ClientBuilder, ServerBuilder, SubmitOptions};
use std::time::{Duration, Instant};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state
}

fn noisy_stack(width: usize, height: usize, frames: usize, seed: u64) -> ImageStack<u16> {
    let mut state = seed;
    let data: Vec<u16> = (0..width * height * frames)
        .map(|i| {
            let base = 2000 + ((i % (width * height)) as u16 % 700);
            let r = lcg(&mut state);
            if r.is_multiple_of(97) {
                base | (1 << (8 + (r % 7) as u16))
            } else {
                base + (r % 9) as u16
            }
        })
        .collect();
    ImageStack::from_vec(width, height, frames, data).expect("stack dims")
}

fn direct_repair(stack: &ImageStack<u16>, lambda: u32, upsilon: usize) -> ImageStack<u16> {
    let algo = AlgoNgst::new(
        Upsilon::new(upsilon).expect("valid upsilon"),
        Sensitivity::new(lambda).expect("valid lambda"),
    );
    let mut direct = stack.clone();
    Preprocessor::new(&algo).threads(2).run(&mut direct);
    direct
}

const CLIENTS: u64 = 4;
const REQUESTS: u64 = 3;

/// Drives `CLIENTS` concurrent connections (enough that a multi-shard
/// daemon spreads them across loops) and checks every response against
/// the direct library oracle.
fn assert_shard_count_serves_identically(shards: usize, addr: std::net::SocketAddr) {
    let mut workers = Vec::new();
    for c in 0..CLIENTS {
        workers.push(std::thread::spawn(move || {
            let mut client = ClientBuilder::new().tcp(addr).connect().expect("connect");
            for r in 0..REQUESTS {
                let seed = ((shards as u64) << 48) | (c << 16) | r;
                let stack = noisy_stack(16, 12, 8, seed);
                let want = direct_repair(&stack, 80, 4);
                let response = client
                    .submit(
                        FramePayload::U16(stack),
                        &SubmitOptions {
                            stream_id: c,
                            lambda: 80,
                            upsilon: 4,
                            eos: true,
                        },
                    )
                    .expect("submit round trip");
                let FramePayload::U16(served) = response.payload else {
                    panic!("response changed pixel type");
                };
                assert_eq!(
                    served.as_slice(),
                    want.as_slice(),
                    "{shards}-shard daemon must serve byte-identical repairs"
                );
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread");
    }
}

fn tcp_round_trip_with_shards(shards: usize) {
    let handle = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .shards(shards)
        .serve()
        .expect("daemon start");
    let addr = handle.tcp_addr().expect("bound tcp address");
    assert_shard_count_serves_identically(shards, addr);
    let summary = handle.drain();
    assert_eq!(summary.completed, CLIENTS * REQUESTS);
    assert_eq!(handle.open_connections(), 0);
}

#[test]
fn one_shard_serves_byte_identical_repairs() {
    tcp_round_trip_with_shards(1);
}

#[test]
fn two_shards_serve_byte_identical_repairs() {
    tcp_round_trip_with_shards(2);
}

#[test]
fn four_shards_serve_byte_identical_repairs() {
    tcp_round_trip_with_shards(4);
}

#[test]
fn unix_handoff_spreads_connections_and_stays_identical() {
    let sock = std::env::temp_dir().join(format!("preflightd-shards-{}.sock", std::process::id()));
    let handle = ServerBuilder::new()
        .unix(&sock)
        .shards(4)
        .serve()
        .expect("daemon start");

    let mut workers = Vec::new();
    for c in 0..CLIENTS {
        let sock = sock.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = ClientBuilder::new().unix(&sock).connect().expect("connect");
            for r in 0..REQUESTS {
                let seed = 0xD15C ^ (c << 16) ^ r;
                let stack = noisy_stack(16, 12, 8, seed);
                let want = direct_repair(&stack, 80, 4);
                let response = client
                    .submit(
                        FramePayload::U16(stack),
                        &SubmitOptions {
                            stream_id: c,
                            lambda: 80,
                            upsilon: 4,
                            eos: true,
                        },
                    )
                    .expect("submit round trip");
                let FramePayload::U16(served) = response.payload else {
                    panic!("response changed pixel type");
                };
                assert_eq!(served.as_slice(), want.as_slice());
            }
        }));
    }
    for w in workers {
        w.join().expect("client thread");
    }

    let summary = handle.drain();
    assert_eq!(summary.completed, CLIENTS * REQUESTS);
    assert!(!sock.exists(), "drain must remove the socket file");
}

#[test]
fn wire_drain_acks_with_multiple_shards() {
    // The drain latch is shared across shards: a wire-level Drain sent to
    // whichever shard owns this connection must still be acknowledged once
    // every shard's in-flight work is done.
    let handle = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .shards(4)
        .serve()
        .expect("daemon start");
    let addr = handle.tcp_addr().expect("bound tcp address");

    let mut client = ClientBuilder::new().tcp(addr).connect().expect("connect");
    let stack = noisy_stack(16, 12, 8, 0xD12A_1215);
    let response = client
        .submit(
            FramePayload::U16(stack),
            &SubmitOptions {
                stream_id: 1,
                lambda: 80,
                upsilon: 4,
                eos: true,
            },
        )
        .expect("submit");
    assert_eq!(response.payload.frames(), 8);

    let summary = client.drain().expect("drain ack");
    assert_eq!(summary.completed, 1);
    assert!(handle.drain_acked());
    handle.drain();
}

#[test]
fn one_stream_coalesces_across_shards() {
    // Shard 0 round-robins Unix accepts, so two connections land on the
    // two shards. Both append to the one shared group map: A's open chunk
    // waits there (deep target, far deadline) until B's end-of-stream
    // chunk on the same stream flushes them as one batch.
    let sock = std::env::temp_dir().join(format!("preflightd-xshard-{}.sock", std::process::id()));
    let handle = ServerBuilder::new()
        .unix(&sock)
        .shards(2)
        .batch(BatchConfig {
            target_frames: 64,
            max_delay: Duration::from_secs(30),
            ..BatchConfig::default()
        })
        .serve()
        .expect("daemon start");
    let connect = || {
        ClientBuilder::new()
            .unix(&sock)
            .io_timeout(Duration::from_secs(10))
            .connect()
            .expect("connect")
    };
    let opts = |eos| SubmitOptions {
        stream_id: 9,
        lambda: 80,
        upsilon: 4,
        eos,
    };
    let (first, second) = (noisy_stack(16, 12, 8, 0x9A), noisy_stack(16, 12, 6, 0x9B));
    let mut joined = first.as_slice().to_vec();
    joined.extend_from_slice(second.as_slice());
    let want = direct_repair(&ImageStack::from_vec(16, 12, 14, joined).unwrap(), 80, 4);
    let split = first.as_slice().len();

    let mut a = connect();
    let mut b = connect();
    a.send_submit(FramePayload::U16(first), &opts(false))
        .expect("send open chunk");
    // B's chunk must find A's already grouped: wait for A's admission.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.in_flight() == 0 {
        assert!(Instant::now() < deadline, "open chunk never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    b.send_submit(FramePayload::U16(second), &opts(true))
        .expect("send closing chunk");

    let replies = [
        a.recv_response().expect("open chunk answered"),
        b.recv_response().expect("closing chunk answered"),
    ];
    for (reply, range) in replies.iter().zip([0..split, split..want.as_slice().len()]) {
        assert_eq!(reply.stats.batch_requests, 2, "chunks flushed apart");
        assert_eq!(reply.stats.batch_frames, 14);
        let FramePayload::U16(served) = &reply.payload else {
            panic!("response changed pixel type");
        };
        assert_eq!(served.as_slice(), &want.as_slice()[range]);
    }
    let accepts = |shard| handle.stats().shard_counters(shard).0.get();
    assert_eq!(
        (accepts(0), accepts(1)),
        (1, 1),
        "the two connections must land on different shards"
    );
    handle.drain();
}
