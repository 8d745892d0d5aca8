//! End-to-end daemon test: frames submitted over a real socket must come
//! back byte-identical to running the [`Preprocessor`] directly on the
//! same stack — the serving layer may add batching, queueing, and
//! telemetry, but never change the science product.

use preflight_core::{AlgoNgst, ImageStack, Preprocessor, Sensitivity, Upsilon};
use preflight_serve::server::ServerConfig;
use preflight_serve::wire::FramePayload;
use preflight_serve::{BatchConfig, ServerBuilder};
use preflight_serve::{Client, ClientBuilder, SubmitOptions};
use preflight_supervisor::FtLevel;
use std::time::{Duration, Instant};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state
}

fn noisy_stack(width: usize, height: usize, frames: usize, seed: u64) -> ImageStack<u16> {
    let mut state = seed;
    // A slowly-varying scene with occasional upset-like outlier samples,
    // so the preprocessor has real repairs to make.
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

fn expected_repair(stack: &ImageStack<u16>, lambda: u32, upsilon: usize) -> ImageStack<u16> {
    let algo = AlgoNgst::new(
        Upsilon::new(upsilon).expect("valid upsilon"),
        Sensitivity::new(lambda).expect("valid lambda"),
    );
    let mut direct = stack.clone();
    Preprocessor::new(&algo).threads(2).run(&mut direct);
    direct
}

fn assert_served_matches_direct(client: &mut Client, seed: u64) {
    let (width, height, frames) = (16, 12, 8);
    let stack = noisy_stack(width, height, frames, seed);
    let direct = expected_repair(&stack, 80, 4);

    let response = client
        .submit(
            FramePayload::U16(stack.clone()),
            &SubmitOptions {
                stream_id: seed,
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
        direct.as_slice(),
        "served repair must be byte-identical to the direct library path"
    );
    assert_eq!(response.stats.rung, FtLevel::AlgoNgst);
    assert_eq!(response.stats.batch_requests, 1);
    assert_eq!(response.stats.batch_frames, frames as u32);
    let changed: u64 = stack
        .as_slice()
        .iter()
        .zip(direct.as_slice())
        .filter(|(a, b)| a != b)
        .count() as u64;
    assert_eq!(response.stats.samples_changed, changed);
    assert!(
        changed > 0,
        "test scene should contain at least one repairable upset"
    );
}

#[test]
fn tcp_round_trip_is_byte_identical_to_direct_preprocessing() {
    let handle = ServerBuilder::from(ServerConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    })
    .serve()
    .expect("server start");
    let addr = handle.tcp_addr().expect("bound tcp address");

    let mut client = ClientBuilder::new().tcp(addr).connect().expect("connect");
    assert_eq!(client.ping(0xC0FFEE).expect("ping"), 0xC0FFEE);
    for seed in [0xA5A5_0001u64, 0xA5A5_0002, 0xA5A5_0003] {
        assert_served_matches_direct(&mut client, seed);
    }
    drop(client);

    let summary = handle.drain();
    assert_eq!(summary.completed, 3);
    assert_eq!(handle.in_flight(), 0);
}

#[test]
fn unix_socket_round_trip_is_byte_identical_and_drains_cleanly() {
    let sock = std::env::temp_dir().join(format!("preflightd-e2e-{}.sock", std::process::id()));
    let handle = ServerBuilder::from(ServerConfig {
        unix: Some(sock.clone()),
        ..ServerConfig::default()
    })
    .serve()
    .expect("server start");

    let mut client = ClientBuilder::new().unix(&sock).connect().expect("connect");
    assert_served_matches_direct(&mut client, 0xFEED_0001);

    // Wire-level drain from the client side: the ack must report the
    // completed request and the daemon must refuse work afterwards.
    let summary = client.drain().expect("drain ack");
    assert_eq!(summary.completed, 1);
    assert!(handle.drain_acked());

    let refused = client.submit(
        FramePayload::U16(noisy_stack(8, 8, 4, 1)),
        &SubmitOptions::default(),
    );
    assert!(refused.is_err(), "submits after drain must be refused");

    handle.drain();
    assert!(!sock.exists(), "drain must remove the socket file");
}

#[test]
fn u32_frames_survive_the_wire_and_get_repaired() {
    let handle = ServerBuilder::from(ServerConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        ..ServerConfig::default()
    })
    .serve()
    .expect("server start");
    let mut client = ClientBuilder::new()
        .tcp(handle.tcp_addr().unwrap())
        .connect()
        .expect("connect");

    let mut state = 0xB16B_00B5u64;
    let (width, height, frames) = (8, 8, 4);
    let data: Vec<u32> = (0..width * height * frames)
        .map(|_| 40_000 + (lcg(&mut state) % 65) as u32)
        .collect();
    let stack = ImageStack::from_vec(width, height, frames, data).unwrap();

    let algo = AlgoNgst::new(Upsilon::new(4).unwrap(), Sensitivity::new(80).unwrap());
    let mut direct = stack.clone();
    Preprocessor::new(&algo).threads(2).run(&mut direct);

    let response = client
        .submit(FramePayload::U32(stack), &SubmitOptions::default())
        .expect("u32 submit");
    let FramePayload::U32(served) = response.payload else {
        panic!("response changed pixel type");
    };
    assert_eq!(served.as_slice(), direct.as_slice());

    handle.drain();
}

#[test]
fn open_group_flushes_at_its_deadline_not_the_stall_wheel() {
    // One open-ended chunk, far below the depth target: only the group's
    // `max_delay` deadline can flush it. The event loops fire it; a
    // deadline left to their one-second stall wheel would answer late.
    const MAX_DELAY: Duration = Duration::from_millis(20);
    let handle = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .batch(BatchConfig {
            target_frames: 1000,
            max_delay: MAX_DELAY,
            ..BatchConfig::default()
        })
        .serve()
        .expect("server start");
    let mut client = ClientBuilder::new()
        .tcp(handle.tcp_addr().unwrap())
        .io_timeout(Duration::from_secs(5))
        .connect()
        .expect("connect");

    let stack = noisy_stack(16, 12, 8, 0xDEAD_0020);
    let want = expected_repair(&stack, 80, 4);
    let sent = Instant::now();
    client
        .send_submit(
            FramePayload::U16(stack),
            &SubmitOptions {
                stream_id: 20,
                lambda: 80,
                upsilon: 4,
                eos: false,
            },
        )
        .expect("send");
    let response = client.recv_response().expect("deadline flush answers");
    let waited = sent.elapsed();

    assert!(
        waited >= MAX_DELAY,
        "answered after {waited:?}, before the deadline"
    );
    assert!(
        waited < Duration::from_millis(500),
        "answered after {waited:?}: the deadline fired late"
    );
    assert_eq!(response.stats.batch_requests, 1);
    assert_eq!(response.stats.batch_frames, 8);
    let FramePayload::U16(served) = response.payload else {
        panic!("response changed pixel type");
    };
    assert_eq!(served.as_slice(), want.as_slice());
    handle.drain();
}
