//! Golden test for the span timeline: a sequential [`Preprocessor`] run
//! over a known geometry must close a deterministic sequence of spans,
//! and the JSON timeline must render one well-formed object per span.
//!
//! Durations obviously vary run to run; the *golden* part is the stage
//! sequence, the span count, and the JSON shape.

use preflight_core::{AlgoNgst, ImageStack, Preprocessor, Sensitivity, Upsilon};
use preflight_obs::{Obs, TimelineRecorder};

fn noisy_stack(w: usize, h: usize, frames: usize) -> ImageStack<u16> {
    let mut st = ImageStack::new(w, h, frames);
    let mut state = 0x5EED_5EED_5EED_5EEDu64;
    for v in st.as_mut_slice() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *v = 27_000 + (state >> 60) as u16;
        if state >> 32 & 0xFF < 4 {
            *v ^= 1 << (10 + (state >> 40 & 0x5) as u32);
        }
    }
    st
}

#[test]
fn sequential_run_closes_a_golden_span_sequence() {
    let obs = Obs::new();
    let recorder = TimelineRecorder::new();
    obs.set_subscriber(Some(recorder.clone()));

    // 64×48 = 3072 lanes at the default 1024-lane band: exactly 3 band
    // spans, all closing before the enclosing "preprocess" span.
    let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
    let mut stack = noisy_stack(64, 48, 16);
    Preprocessor::new(&algo).observer(&obs).run(&mut stack);

    let records = recorder.records();
    let skeleton: Vec<&str> = records
        .iter()
        .map(|r| r.stage)
        .filter(|s| !s.starts_with("bitslice."))
        .collect();
    assert_eq!(
        skeleton,
        vec!["band", "band", "band", "preprocess"],
        "span close order is part of the observability contract"
    );
    // The default bit-sliced kernel times both of its stages once per
    // group of 64 series (one round each on this workload: 64×48 series →
    // 48 groups), closing the transpose before the combine of the same
    // group.
    let transposes = records
        .iter()
        .filter(|r| r.stage == "bitslice.transpose")
        .count();
    let combines = records
        .iter()
        .filter(|r| r.stage == "bitslice.combine")
        .count();
    assert_eq!(transposes, 48, "one transpose per 64-series group");
    assert_eq!(combines, 48, "one combine per 64-series group");
    let kernel_pairs: Vec<&str> = records
        .iter()
        .map(|r| r.stage)
        .filter(|s| s.starts_with("bitslice."))
        .collect();
    for pair in kernel_pairs.chunks(2) {
        assert_eq!(pair, ["bitslice.transpose", "bitslice.combine"]);
    }
}

#[test]
fn timeline_records_are_ordered_and_render_as_json() {
    let obs = Obs::new();
    let recorder = TimelineRecorder::new();
    obs.set_subscriber(Some(recorder.clone()));

    let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
    let mut stack = noisy_stack(32, 32, 16);
    Preprocessor::new(&algo).observer(&obs).run(&mut stack);

    let records = recorder.records();
    assert!(!records.is_empty());
    // Start offsets are measured from the registry epoch, so they are
    // monotone non-decreasing in close order on a single thread.
    for pair in records.windows(2) {
        assert!(
            pair[0].start_us <= pair[1].start_us + pair[1].dur_us,
            "span starts must stay within the run's envelope"
        );
    }
    // The outer "preprocess" span must cover every band span.
    let outer = records.last().expect("outer span closes last");
    assert_eq!(outer.stage, "preprocess");
    for band in &records[..records.len() - 1] {
        assert!(
            band.start_us >= outer.start_us,
            "band spans start inside the preprocess span"
        );
    }

    let json = recorder.to_json();
    assert_eq!(
        json.matches("\"stage\":").count(),
        records.len(),
        "one JSON object per span"
    );
    assert_eq!(json.matches("\"start_us\":").count(), records.len());
    assert_eq!(json.matches("\"dur_us\":").count(), records.len());
    assert_eq!(json.matches("\"thread\":").count(), records.len());
}
