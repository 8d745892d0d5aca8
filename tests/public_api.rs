//! Public-API snapshot for the `preflight` facade prelude.
//!
//! Two layers of enforcement:
//!
//! 1. **Compile-time**: every name the prelude promises is imported and
//!    exercised below, so a rename or removal breaks this test at build
//!    time.
//! 2. **Source snapshot**: the prelude block of the facade is checked
//!    against the curated name list, so an *addition* (or a deprecated
//!    name sneaking back in) fails loudly and forces a deliberate update
//!    here.

use preflight::prelude::{
    available_threads, psi, seeded_rng, AlgoNgst, AlgoOtis, BitConfusion, BitVoter, ClientBuilder,
    Correlated, Cube, FtLevel, Image, ImageStack, Kernel, MeanSmoother, MedianSmoother, NgstModel,
    Obs, PhysicalBounds, PlanePreprocessor, Preprocessor, PsiReport, Sensitivity,
    SeriesPreprocessor, ServerBuilder, Snapshot, Span, TimelineRecorder, Uncorrelated, Upsilon,
};

/// Names the prelude must export (the execution API) and names it must
/// never export again (the free-function stack drivers and the
/// positional serving entry points, both since deleted).
const REQUIRED: &[&str] = &[
    "Preprocessor",
    "available_threads",
    "Kernel",
    "Obs",
    "Snapshot",
    "Span",
    "TimelineRecorder",
    "ServerBuilder",
    "ClientBuilder",
];
const BANNED: &[&str] = &[
    "preprocess_stack",
    "preprocess_stack_tiled",
    "preprocess_stack_parallel",
    "preprocess_cube_parallel",
    // The positional serving entry points; the prelude carries only the
    // builders.
    "connect_tcp",
    "connect_unix",
    "server::start",
];

#[test]
fn prelude_drives_the_unified_execution_api() {
    let obs = Obs::new();
    let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
    let mut stack: ImageStack<u16> = ImageStack::new(8, 8, 4);
    let changed = Preprocessor::new(&algo)
        .threads(available_threads().min(2))
        .kernel(Kernel::Bitsliced)
        .observer(&obs)
        .run(&mut stack);
    assert_eq!(changed, 0, "an all-zero stack has nothing to repair");
    assert_eq!("scalar".parse::<Kernel>(), Ok(Kernel::Scalar));

    // Observability types are first-class prelude citizens.
    let recorder = TimelineRecorder::new();
    obs.set_subscriber(Some(recorder.clone()));
    {
        let _span: Span = obs.span("snapshot-test");
    }
    let snap: Snapshot = obs.snapshot();
    assert_eq!(snap.counter("preprocess_runs_total", None), Some(1));
    assert_eq!(recorder.records().len(), 1);

    // The rest of the generate → corrupt → preprocess → score loop still
    // resolves through the prelude alone.
    let mut rng = seeded_rng(7);
    let clean = NgstModel::default().series(&mut rng);
    let mut observed = clean.clone();
    Uncorrelated::new(0.01)
        .unwrap()
        .inject_words(&mut observed, &mut rng);
    let corrupted = observed.clone();
    let _ = Correlated::new(0.01).unwrap();
    let report = PsiReport::measure(&clean, &corrupted, &observed);
    assert!(report.no_preprocessing >= 0.0);
    let _ = psi(&clean, &observed);
    let _ = BitConfusion::score(&clean, &corrupted, &observed);
    let _ = (MedianSmoother::new(), MeanSmoother::new(), BitVoter::new());
    let _ = FtLevel::AlgoNgst;
    let _: Option<AlgoOtis> = None;
    let _: Option<PhysicalBounds> = None;
    let _: Option<(Image<u16>, Cube<f32>)> = None;
    fn _series_api<T, P: SeriesPreprocessor<T>>() {}
    fn _plane_api<T: Copy, P: PlanePreprocessor<T>>() {}

    // The serving entry points are prelude citizens too: builders
    // accumulate without touching the network until serve()/connect().
    let server_config = ServerBuilder::new()
        .bind("127.0.0.1:0")
        .queue_depth(8)
        .max_conns(1024)
        .auto_tune(false)
        .into_config();
    assert_eq!(server_config.capacity, 8);
    let _client = ClientBuilder::new()
        .tcp("127.0.0.1:1")
        .io_timeout(std::time::Duration::from_secs(1));
}

#[test]
fn prelude_source_matches_the_curated_snapshot() {
    let facade = include_str!("../crates/preflight/src/lib.rs");
    let prelude = facade
        .split_once("pub mod prelude {")
        .expect("facade declares the prelude module")
        .1;

    for name in REQUIRED {
        assert!(
            prelude.contains(name),
            "prelude must keep exporting `{name}`"
        );
    }
    for name in BANNED {
        assert!(
            !prelude.contains(name),
            "deprecated driver `{name}` must stay out of the prelude \
             (use `Preprocessor` or reach it via `preflight::core`)"
        );
    }
}
