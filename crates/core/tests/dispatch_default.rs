//! Which tier the bit-sliced kernel dispatches to when nothing overrides
//! it. It lives in a binary of its own because the tier is cached per
//! process and `force_dispatch_tier` (which the unit tests call) would
//! mask the default.

use preflight_core::bitslice::portable_forced;
use preflight_core::{detected_tiers, dispatch_tier, DispatchTier};

#[test]
fn the_default_tier_is_the_best_detected_one() {
    let want = if portable_forced() {
        DispatchTier::Portable
    } else {
        *detected_tiers()
            .last()
            .expect("portable is always detected")
    };
    // Asked twice: the cached answer must not drift between calls.
    assert_eq!(dispatch_tier(), want);
    assert_eq!(dispatch_tier(), want);
}
