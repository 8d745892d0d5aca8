//! Which path a `threads(2)` run takes. It lives in a binary of its own:
//! the grant comes from the process-wide core budget, so a test running
//! concurrently in the same process could hold the cores it asks for.

use preflight_core::{
    available_threads, AlgoNgst, ImageStack, Obs, Preprocessor, Sensitivity, Upsilon,
};

#[test]
fn an_idle_budget_grants_the_requested_helper() {
    let mut st: ImageStack<u16> = ImageStack::new(64, 48, 16);
    for (i, v) in st.as_mut_slice().iter_mut().enumerate() {
        *v = 27_000 + (i % 7) as u16;
    }
    let obs = Obs::new();
    Preprocessor::new(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap()))
        .threads(2)
        .observer(&obs)
        .run(&mut st);
    let snap = obs.snapshot();
    // Caller plus one granted helper; a 1-core host has no core to lend,
    // so the caller works alone and records no workers.
    let want = (available_threads() >= 2).then_some(2);
    assert_eq!(snap.counter("preprocess_pool_workers_total", None), want);
    // 64×48 = 3072 lanes: 3 bands of 1024.
    assert_eq!(snap.counter("preprocess_bands_total", None), Some(3));
}
