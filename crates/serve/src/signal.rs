//! A minimal SIGTERM/SIGINT latch for the daemon binary.
//!
//! The workspace bans `unsafe` (see CONTRIBUTING.md), with this module as
//! the single documented exception: registering a POSIX signal handler
//! requires one FFI call to `signal(2)`, which `std` offers no safe wrapper
//! for and the no-new-dependencies rule keeps `libc`/`signal-hook` out.
//! The handler body is async-signal-safe — it only stores to a static
//! atomic — and the daemon's accept/read loops poll the latch, so no
//! other code runs in signal context.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATE: AtomicBool = AtomicBool::new(false);

/// `true` once SIGTERM or SIGINT has been received (always `false` if
/// [`install`] was never called).
pub fn triggered() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}

/// Test/driver hook: raise the latch programmatically.
pub fn trigger() {
    TERMINATE.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Registers the latch for SIGTERM and SIGINT.
#[allow(unsafe_code)]
pub fn install() {
    extern "C" {
        // POSIX `signal(2)`; the return value is the previous
        // `sighandler_t`, which we never restore.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_raises_the_latch() {
        // `install` + real signal delivery is exercised by the CI smoke
        // job; in-process we only verify the latch plumbing.
        install();
        trigger();
        assert!(triggered());
    }
}
