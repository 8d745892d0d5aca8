//! Strategies shared by the driver property tests.

use preflight_core::ImageStack;
use proptest::prelude::*;

prop_compose! {
    /// A random frame-major stack: modest spatial extent, enough frames for
    /// every Υ, calm levels with sparse injected bit-flips.
    pub fn stack_strategy()(
        width in 1usize..48,
        height in 1usize..24,
        frames in 4usize..40,
        seed in any::<u64>(),
        flip_pct in 0u64..12,
    ) -> ImageStack<u16> {
        noisy_stack(width, height, frames, seed, flip_pct)
    }
}

prop_compose! {
    /// A random stack whose frames span more than one band of the stack
    /// driver (at least 1025 lanes; a band is 1024), so every parallel run
    /// has work for a helper. Widths of 1..=100 put band and row ends at
    /// lanes that are not multiples of 64, so partial groups occur.
    pub fn multi_band_stack_strategy()(
        width in 1usize..=100,
        lanes in 1025usize..=3072,
        frames in 4usize..40,
        seed in any::<u64>(),
        flip_pct in 0u64..12,
    ) -> ImageStack<u16> {
        noisy_stack(width, lanes.div_ceil(width), frames, seed, flip_pct)
    }
}

/// A `width × height × frames` stack of calm levels seeded by `seed`, with
/// about `flip_pct` % of samples carrying one injected high-bit flip.
fn noisy_stack(
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
    flip_pct: u64,
) -> ImageStack<u16> {
    let mut st = ImageStack::new(width, height, frames);
    let mut state = seed | 1;
    let mut bump = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        state
    };
    for v in st.as_mut_slice() {
        *v = 20_000 + (bump() >> 59) as u16;
        if bump() % 100 < flip_pct {
            *v ^= 1 << (9 + (bump() % 7) as u32);
        }
    }
    st
}
