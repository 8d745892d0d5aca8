//! Steady-state allocation guard for the zero-copy data plane.
//!
//! With a warm buffer pool and a stable request geometry, the daemon's
//! request path is designed to perform **zero** steady-state heap
//! allocation: payloads decode into pooled stacks, the engine swaps
//! pooled work buffers, and replies leave through reused scratch +
//! `writev` segments. This test swaps in a counting global allocator,
//! warms the daemon, then measures whole-process allocation over a batch
//! of requests. The *client* side of the socket still allocates (it
//! encodes each request and materialises each response, roughly two
//! payload-sized buffers per round trip), so the byte budget is expressed
//! as a multiple of the payload size with client-side traffic accounted
//! for: the pre-pool daemon cost several payload copies per request on
//! top, and a regression back to that shape trips the bound.
//!
//! Feature-gated (`alloc-guard`) because a global allocator shim applies
//! to the entire test binary.
#![cfg(feature = "alloc-guard")]
// The workspace bans unsafe in the library crates (with documented
// exceptions); a `GlobalAlloc` impl is unavoidable here and this test
// binary is the narrowest possible scope for it.
#![allow(unsafe_code)]

use preflight_core::ImageStack;
use preflight_serve::wire::{read_message, FramePayload, MAGIC, MAX_PAYLOAD, VERSION};
use preflight_serve::{ClientBuilder, ServerBuilder, SubmitOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// counter bump, which allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        if layout.size() >= 8192 {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        BYTES_ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-wide: tests measuring them take turns.
static MEASURING: Mutex<()> = Mutex::new(());

#[test]
fn warm_request_path_stays_inside_the_heap_budget() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    const W: usize = 32;
    const H: usize = 32;
    const FRAMES: usize = 8;
    const MEASURED: usize = 32;
    let payload_bytes = (W * H * FRAMES * 2) as u64;

    let handle = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .serve()
        .expect("daemon start");
    let mut client = ClientBuilder::new()
        .tcp(handle.tcp_addr().unwrap())
        .connect()
        .expect("connect");

    let submit = |client: &mut preflight_serve::Client, stack: ImageStack<u16>| {
        let response = client
            .submit(
                FramePayload::U16(stack),
                &SubmitOptions {
                    stream_id: 3,
                    eos: true,
                    ..SubmitOptions::default()
                },
            )
            .expect("submit");
        assert_eq!(response.payload.frames(), FRAMES);
    };

    // Warm-up: fills the buffer pool, the per-connection scratch, the
    // shared batch group map, and every lazily-grown channel block.
    for i in 0..16u16 {
        let data: Vec<u16> = vec![2000 + i; W * H * FRAMES];
        submit(
            &mut client,
            ImageStack::from_vec(W, H, FRAMES, data).unwrap(),
        );
    }

    // Pre-build the measured payloads so construction cost stays out of
    // the measured window (submit consumes its stack).
    let mut stacks: Vec<ImageStack<u16>> = (0..MEASURED as u16)
        .map(|i| {
            let data: Vec<u16> = vec![3000 + i; W * H * FRAMES];
            ImageStack::from_vec(W, H, FRAMES, data).unwrap()
        })
        .collect();

    let before = BYTES_ALLOCATED.load(Ordering::Relaxed);
    let large_before = LARGE_ALLOCS.load(Ordering::Relaxed);
    for stack in stacks.drain(..) {
        submit(&mut client, stack);
    }
    let spent = BYTES_ALLOCATED.load(Ordering::Relaxed) - before;
    let large = LARGE_ALLOCS.load(Ordering::Relaxed) - large_before;

    handle.drain();

    // The sharp invariant: payload-scale allocations (fresh blocks of 8 KiB
    // or more). None happens: a warmed daemon decodes into pooled buffers,
    // `Preprocessor::run` repairs the stack in place, and replies leave
    // through reused scratch + `writev` segments; the client grows its
    // request encode and its reply stack from small first blocks, so they
    // show in the byte ceiling below, not here. A decoder that sizes a
    // buffer from the declared payload, a driver that gathers its work
    // into a buffer, or a daemon back on the pre-pool path trips it.
    assert_eq!(
        large, 0,
        "{large} payload-scale allocations over {MEASURED} requests \
         — the pooled in-place path regressed"
    );
    // And a generous whole-process byte ceiling to catch death by a
    // thousand small allocations: ~3 payload copies of client traffic
    // plus headroom for sub-payload churn (channel nodes, telemetry).
    let per_request = spent / MEASURED as u64;
    assert!(
        per_request <= 5 * payload_bytes,
        "steady-state request path allocates {per_request} B/request \
         (payload is {payload_bytes} B) — heap churn regressed"
    );
}

#[test]
fn declared_payload_length_is_not_allocated_up_front() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // A head declaring the largest legal payload, followed by only 64 body
    // bytes. For a Submit those bytes open a valid prefix declaring a
    // 4096×4096×7 u16 stack that fits the declared length; the Response
    // and Ping heads leave them as prefix or control bytes. Each read must
    // fail at end of input having allocated what arrived, not 256 MiB.
    let mut submit_prefix = Vec::new();
    submit_prefix.extend_from_slice(&1u64.to_le_bytes()); // request id
    submit_prefix.extend_from_slice(&2u64.to_le_bytes()); // stream id
    submit_prefix.extend_from_slice(&[80, 4, 1, 0]); // lambda, upsilon, eos, u16
    for dim in [4096u32, 4096, 7] {
        submit_prefix.extend_from_slice(&dim.to_le_bytes());
    }
    for type_code in [1u8, 2, 7] {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.push(type_code);
        bytes.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
        bytes.extend_from_slice(&submit_prefix);
        bytes.resize(10 + 64, 0xA5);
        let before = BYTES_ALLOCATED.load(Ordering::Relaxed);
        let result = read_message(&mut bytes.as_slice());
        let spent = BYTES_ALLOCATED.load(Ordering::Relaxed) - before;
        assert!(
            result.is_err(),
            "type {type_code}: a cut-off body must not decode"
        );
        assert!(
            spent < 1 << 20,
            "type {type_code}: reading 64 body bytes allocated {spent} B"
        );
    }
}
