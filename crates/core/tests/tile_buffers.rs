//! The band driver repairs the stack in place: no thread allocates a
//! buffer the size of a spatial tile (or larger) to gather its work into.
//!
//! A counting global allocator applies to the whole test binary, so this
//! binary holds this one test only.
// The workspace bans unsafe in the library crates (with documented
// exceptions); a `GlobalAlloc` impl is unavoidable here and this test
// binary is the narrowest possible scope for it.
#![allow(unsafe_code)]

use preflight_core::{AlgoNgst, ImageStack, Obs, Preprocessor, Sensitivity, Upsilon};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const SIDE: usize = 128;
const FRAMES: usize = 16;
/// One 32×32 tile of `FRAMES` u16 samples: a buffer this large means a
/// thread gathered its work instead of repairing the stack in place.
const TILE_BYTES: usize = 32 * 32 * FRAMES * 2;

/// Allocations that bring a buffer of at least [`TILE_BYTES`] into being.
static TILE_SIZED: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// counter bump, which allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= TILE_BYTES {
            TILE_SIZED.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size() < TILE_BYTES && new_size >= TILE_BYTES {
            TILE_SIZED.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn no_thread_allocates_a_tile_buffer() {
    let mut st: ImageStack<u16> = ImageStack::new(SIDE, SIDE, FRAMES);
    for (i, v) in st.as_mut_slice().iter_mut().enumerate() {
        *v = 27_000 + (i % 7) as u16;
        if i % 97 == 0 {
            *v ^= 1 << 13;
        }
    }
    let obs = Obs::new();
    let pp = Preprocessor::new(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap()))
        .threads(2)
        .observer(&obs);
    let before = TILE_SIZED.load(Ordering::Relaxed);
    let changed = pp.run(&mut st);
    let allocated = TILE_SIZED.load(Ordering::Relaxed) - before;
    assert!(changed > 0, "workload must exercise the repair path");
    let snap = obs.snapshot();
    // 128×128 = 16384 lanes: 16 bands of 1024.
    assert_eq!(snap.counter("preprocess_bands_total", None), Some(16));
    // Caller plus granted helpers; a run granted none records no workers.
    let threads = snap
        .counter("preprocess_pool_workers_total", None)
        .unwrap_or(1);
    assert_eq!(
        allocated, 0,
        "{allocated} tile-sized allocations for {threads} thread(s)"
    );
}
