//! Buffer-pool hygiene: a recycled buffer must never leak one request's
//! pixels into another, whatever sequence of geometries hits the pool.
//!
//! The unit tests in `src/pool.rs` pin the single-recycle case; these
//! tests drive randomized take/put sequences (a hand-rolled LCG stands in
//! for a property-testing dependency) and the full wire path, where a
//! large request followed by an undersized one on the same daemon is
//! exactly the shape that would expose a stale tail.

use preflight_core::ImageStack;
use preflight_serve::pool::BufferPool;
use preflight_serve::wire::FramePayload;
use preflight_serve::{ClientBuilder, ServerBuilder, SubmitOptions};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state
}

#[test]
fn randomized_take_put_sequences_never_leak_stale_bytes() {
    let pool = BufferPool::detached();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    // 512 rounds of: take a random geometry, poison it, recycle (or leak
    // it to the allocator), then take another random geometry — which may
    // be smaller, larger, or equal, hitting or missing the shelf.
    for round in 0..512 {
        let samples = 1 + (lcg(&mut state) % 96) as usize * 8;
        if lcg(&mut state).is_multiple_of(2) {
            let mut buf = pool.take_filled_u16(samples);
            assert_eq!(buf.len(), samples, "round {round}: wrong u16 length");
            assert!(
                buf.iter().all(|&v| v == 0),
                "round {round}: stale u16 bytes leaked"
            );
            buf.iter_mut().for_each(|v| *v = 0xBEEF);
            if !lcg(&mut state).is_multiple_of(4) {
                pool.put_u16(buf);
            }
        } else {
            let mut buf = pool.take_filled_u32(samples);
            assert_eq!(buf.len(), samples, "round {round}: wrong u32 length");
            assert!(
                buf.iter().all(|&v| v == 0),
                "round {round}: stale u32 bytes leaked"
            );
            buf.iter_mut().for_each(|v| *v = 0xDEAD_BEEF);
            if !lcg(&mut state).is_multiple_of(4) {
                pool.put_u32(buf);
            }
        }
    }
}

#[test]
fn truncated_buffers_are_never_reshelved() {
    let pool = BufferPool::detached();
    let mut state = 0x0DDB_1A5E_5BAD_C0DEu64;
    // An aborted mid-ingest buffer comes back shorter than its declared
    // geometry; the pool must drop it rather than serve it to the next
    // same-length request.
    for _ in 0..128 {
        let declared = 64 + (lcg(&mut state) % 64) as usize;
        let kept = (lcg(&mut state) % declared as u64) as usize;
        let mut buf = pool.take_filled_u16(declared);
        buf.iter_mut().for_each(|v| *v = 0x5A5A);
        buf.truncate(kept);
        pool.put_u16(buf);
        let next = pool.take_filled_u16(kept.max(1));
        assert_eq!(next.len(), kept.max(1));
        assert!(next.iter().all(|&v| v == 0), "truncated buffer reshelved");
    }
}

/// The wire-level shape that would expose a leaked pool buffer: a large
/// all-bits-set stack, then an undersized all-zero stack whose response
/// travels through a recycled buffer. The served pixels must match the
/// direct repair of the *small* stack exactly — no tail from the big one.
#[test]
fn undersized_follow_up_requests_see_no_stale_pixels() {
    let handle = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .serve()
        .expect("daemon start");
    let mut client = ClientBuilder::new()
        .tcp(handle.tcp_addr().unwrap())
        .connect()
        .expect("connect");

    let mut state = 0xF00D_F00Du64;
    for round in 0..8 {
        // Big poisoned stack first (every sample lit), then a small flat
        // one on the same connection and stream.
        let big: Vec<u16> = (0..32 * 32 * 8).map(|_| 0xFFFF).collect();
        let big = ImageStack::from_vec(32, 32, 8, big).unwrap();
        let response = client
            .submit(
                FramePayload::U16(big),
                &SubmitOptions {
                    stream_id: 9,
                    eos: true,
                    ..SubmitOptions::default()
                },
            )
            .expect("big submit");
        assert_eq!(response.payload.frames(), 8);

        let w = 4 + (lcg(&mut state) % 12) as usize;
        let h = 4 + (lcg(&mut state) % 8) as usize;
        let small_data: Vec<u16> = vec![100; w * h * 4];
        let small = ImageStack::from_vec(w, h, 4, small_data).unwrap();
        let response = client
            .submit(
                FramePayload::U16(small),
                &SubmitOptions {
                    stream_id: 9,
                    eos: true,
                    ..SubmitOptions::default()
                },
            )
            .expect("small submit");
        let FramePayload::U16(served) = response.payload else {
            panic!("response changed pixel type");
        };
        assert_eq!(served.as_slice().len(), w * h * 4);
        assert!(
            served.as_slice().iter().all(|&v| v == 100),
            "round {round}: a flat scene must come back flat — stale pixels leaked"
        );
    }
    handle.drain();
}
