//! Implementation of the `preflight` command-line tool.
//!
//! All subcommands are plain functions from parsed options to a printable
//! report string, so the whole surface is unit-testable without spawning
//! processes. File format everywhere: single-HDU 3-axis 16-bit FITS (what
//! `preflight::fits` writes), optionally carrying checksum cards.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod opts;

use opts::Opts;
use preflight::prelude::*;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown command, missing flag, malformed value).
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// The input was not a readable FITS stack.
    Fits(preflight::fits::FitsError),
    /// Invalid algorithm parameters.
    Core(preflight::core::CoreError),
    /// The distributed pipeline failed (bad configuration or a worker was
    /// lost with supervision disabled).
    Pipeline(PipelineError),
    /// Talking to (or running) a `preflightd` daemon failed.
    Serve(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "I/O: {e}"),
            CliError::Fits(e) => write!(f, "FITS: {e}"),
            CliError::Core(e) => write!(f, "parameters: {e}"),
            CliError::Pipeline(e) => write!(f, "pipeline: {e}"),
            CliError::Serve(m) => write!(f, "serve: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<preflight::fits::FitsError> for CliError {
    fn from(e: preflight::fits::FitsError) -> Self {
        CliError::Fits(e)
    }
}

impl From<preflight::core::CoreError> for CliError {
    fn from(e: preflight::core::CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<PipelineError> for CliError {
    fn from(e: PipelineError) -> Self {
        CliError::Pipeline(e)
    }
}

impl From<preflight_serve::ClientError> for CliError {
    fn from(e: preflight_serve::ClientError) -> Self {
        CliError::Serve(e.to_string())
    }
}

/// Prints the usage summary to stderr.
pub fn print_usage() {
    eprintln!(
        "usage: preflight <command> [flags]\n\
         commands:\n\
         \x20 gen        --out FILE [--width N] [--height N] [--frames N] [--sigma S] [--seed S]\n\
         \x20 inject     --in FILE --out FILE --gamma0 P [--correlated] [--seed S]\n\
         \x20 preprocess --in FILE --out FILE [--lambda L] [--upsilon U] [--threads N]\n\
         \x20            [--kernel scalar|bitsliced] [--trace-json FILE] [--auto-tune]\n\
         \x20 check      --in FILE\n\
         \x20 protect    --in FILE --out FILE\n\
         \x20 tune       --in FILE --gamma0 P\n\
         \x20 psi        --ideal FILE --observed FILE\n\
         \x20 otis-gen   --out FILE --scene blob|stripe|spots [--size N] [--seed S]\n\
         \x20 otis-inject --in FILE --out FILE --gamma0 P [--seed S]\n\
         \x20 retrieve   --in FILE --out FILE [--preprocess] [--lambda L]\n\
         \x20 pipeline   --in FILE --out FILE [--preprocess] [--lambda L] [--upsilon U]\n\
         \x20            [--workers N] [--tile N] [--gamma0 P] [--seed S]\n\
         \x20            [--chaos P] [--max-retries N] [--stage-timeout-ms MS] [--degrade]\n\
         \x20 serve      [--tcp ADDR] [--unix PATH] [--capacity N] [--max-conns N]\n\
         \x20            [--batch-frames N] [--batch-delay-ms MS] [--threads N] [--workers N]\n\
         \x20            [--kernel scalar|bitsliced] [--metrics-addr ADDR] [--auto-tune]\n\
         \x20 route      --backends LIST [--backend SPEC] [--tcp ADDR] [--unix PATH]\n\
         \x20            [--replicate] [--capacity N] [--max-conns N] [--vnodes N]\n\
         \x20            [--heavy-cost N] [--health-ms MS] [--metrics-addr ADDR]\n\
         \x20 submit     --in FILE --out FILE (--tcp ADDR | --unix PATH)\n\
         \x20            [--lambda L] [--upsilon U] [--stream N]\n\
         \x20 stats      (--tcp ADDR | --unix PATH)\n\
         \x20 drain      (--tcp ADDR | --unix PATH)\n\
         --threads N is an upper bound: the process core budget grants fewer\n\
         while other runs hold cores."
    );
}

/// Parses and runs one invocation, returning the report to print.
///
/// # Errors
/// Returns [`CliError`] for bad invocations, I/O failures, unreadable FITS
/// input or invalid parameters.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".to_owned()))?;
    let opts = Opts::parse(rest)?;
    match command.as_str() {
        "gen" => cmd_gen(&opts),
        "inject" => cmd_inject(&opts),
        "preprocess" => cmd_preprocess(&opts),
        "check" => cmd_check(&opts),
        "protect" => cmd_protect(&opts),
        "tune" => cmd_tune(&opts),
        "psi" => cmd_psi(&opts),
        "otis-gen" => cmd_otis_gen(&opts),
        "otis-inject" => cmd_otis_inject(&opts),
        "retrieve" => cmd_retrieve(&opts),
        "pipeline" => cmd_pipeline(&opts),
        "serve" => cmd_serve(&opts),
        "route" => cmd_route(&opts),
        "submit" => cmd_submit(&opts),
        "stats" => cmd_stats(&opts),
        "drain" => cmd_drain(&opts),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn read_stack_file(path: &str) -> Result<ImageStack<u16>, CliError> {
    let bytes = std::fs::read(Path::new(path))?;
    Ok(read_stack(&bytes)?)
}

fn write_stack_file(path: &str, stack: &ImageStack<u16>) -> Result<(), CliError> {
    std::fs::write(Path::new(path), write_stack(stack))?;
    Ok(())
}

/// `gen`: synthesize a pristine stack from the paper's Gaussian model.
fn cmd_gen(opts: &Opts) -> Result<String, CliError> {
    let out = opts.require("out")?;
    let width = opts.usize_or("width", 64)?;
    let height = opts.usize_or("height", 64)?;
    let frames = opts.usize_or("frames", 64)?;
    let sigma = opts.f64_or("sigma", 250.0)?;
    let seed = opts.u64_or("seed", 1)?;
    if width == 0 || height == 0 || frames == 0 {
        return Err(CliError::Usage("dimensions must be positive".to_owned()));
    }
    let model = NgstModel {
        frames,
        sigma,
        ..NgstModel::default()
    };
    let stack = model.stack(width, height, &mut seeded_rng(seed));
    write_stack_file(&out, &stack)?;
    Ok(format!(
        "wrote {width}x{height}x{frames} stack (sigma {sigma}, seed {seed}) to {out}\n"
    ))
}

/// `inject`: corrupt a stack with one of the paper's fault models.
fn cmd_inject(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let out = opts.require("out")?;
    let gamma = opts.require_f64("gamma0")?;
    let seed = opts.u64_or("seed", 2)?;
    let mut stack = read_stack_file(&input)?;
    let mut rng = seeded_rng(seed);
    let map = if opts.has("correlated") {
        Correlated::new(gamma)
            .map_err(|e| CliError::Usage(e.to_string()))?
            .inject_stack(&mut stack, &mut rng)
    } else {
        Uncorrelated::new(gamma)
            .map_err(|e| CliError::Usage(e.to_string()))?
            .inject_stack(&mut stack, &mut rng)
    };
    write_stack_file(&out, &stack)?;
    let total_bits = stack.len() * 16;
    Ok(format!(
        "flipped {} bits of {} ({:.4} % empirical rate) -> {out}\n",
        map.len(),
        total_bits,
        map.empirical_rate(total_bits) * 100.0
    ))
}

/// `preprocess`: header sanity analysis + `Algo_NGST` over every series,
/// driven through the unified [`Preprocessor`] API. `--trace-json FILE`
/// attaches a span subscriber and dumps the stage timeline for offline
/// analysis; without it, observability stays disabled and the hot path
/// pays nothing. `--auto-tune` attaches a [`StreamCalibrator`]: the run is
/// served with whatever boundaries the calibrator freezes from the file's
/// own Φ statistics, and the chosen-vs-requested values land in the
/// report.
fn cmd_preprocess(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let out = opts.require("out")?;
    let lambda = opts.lambda()?;
    let upsilon = opts.upsilon()?;
    let (threads, thread_warning) = opts.threads()?;
    let kernel = opts.kernel()?;
    let trace_path = opts.get("trace-json").cloned();
    let algo = AlgoNgst::new(Upsilon::new(upsilon)?, Sensitivity::new(lambda)?);

    let bytes = std::fs::read(Path::new(&input))?;
    let sanity = analyze(&bytes);
    let mut report = String::new();
    if let Some(w) = thread_warning {
        let _ = writeln!(report, "{w}");
    }
    for f in &sanity.findings {
        let _ = writeln!(report, "header: {f:?}");
    }
    if !sanity.header_ok {
        return Err(CliError::Usage(format!(
            "{input}: header unrecoverable; findings above the repair budget"
        )));
    }
    let mut stack = read_stack(&sanity.repaired)?;
    let (obs, recorder) = if trace_path.is_some() {
        let obs = Obs::new();
        let recorder = TimelineRecorder::new();
        obs.set_subscriber(Some(recorder.clone()));
        (obs, Some(recorder))
    } else {
        (Obs::disabled(), None)
    };
    let calibrator = if opts.has("auto-tune") {
        Some(StreamCalibrator::new(
            TuneParams::new(Sensitivity::new(lambda)?, Upsilon::new(upsilon)?),
            &obs,
        ))
    } else {
        None
    };
    let start = std::time::Instant::now();
    // Observe, then decide, before any band runs: the whole run uses one
    // frozen decision, so tuned output is the same for any thread count.
    let decision = calibrator.as_ref().and_then(|cal| {
        preflight::core::observe_stack(cal, &stack);
        cal.decision(16)
    });
    let corrected = Preprocessor::new(decision.as_ref().map_or(algo, |d| algo.tuned(d)))
        .threads(threads)
        .kernel(kernel)
        .observer(&obs)
        .run(&mut stack);
    let elapsed = start.elapsed();
    write_stack_file(&out, &stack)?;
    let _ = writeln!(
        report,
        "preprocessed {} series on {threads} thread(s) ({kernel} kernel, L={lambda}, \
         U={upsilon}): {corrected} samples repaired in {elapsed:?} -> {out}",
        stack.width() * stack.height(),
    );
    if calibrator.is_some() {
        match decision {
            Some(d) => {
                let _ = writeln!(
                    report,
                    "auto-tune: chosen L={} U={} windows A={}/C={} ({} recalibration(s))",
                    d.lambda.value(),
                    d.upsilon.value(),
                    d.window_a_bits,
                    d.window_c_bits,
                    d.recalibrations,
                );
            }
            None => {
                let _ = writeln!(
                    report,
                    "auto-tune: still warming up; served with the requested parameters"
                );
            }
        }
    }
    if let (Some(path), Some(recorder)) = (&trace_path, &recorder) {
        std::fs::write(Path::new(path), recorder.to_json())?;
        let _ = writeln!(
            report,
            "trace: {} span(s) -> {path}",
            recorder.records().len()
        );
    }
    Ok(report)
}

/// `check`: Λ = 0 sanity analysis plus checksum triage, report-only.
fn cmd_check(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let bytes = std::fs::read(Path::new(&input))?;
    let sanity = analyze(&bytes);
    let mut report = String::new();
    let _ = writeln!(report, "header ok: {}", sanity.header_ok);
    for f in &sanity.findings {
        let _ = writeln!(report, "finding: {f:?}");
    }
    match verify_checksums(&sanity.repaired) {
        Ok(status) => {
            let _ = writeln!(report, "checksums: {status:?}");
        }
        Err(e) => {
            let _ = writeln!(report, "checksums: unverifiable ({e})");
        }
    }
    if sanity.header_ok {
        let stack = read_stack(&sanity.repaired)?;
        let _ = writeln!(
            report,
            "geometry: {}x{}x{} (16-bit)",
            stack.width(),
            stack.height(),
            stack.frames()
        );
    }
    Ok(report)
}

/// `protect`: append the FITS checksum cards.
fn cmd_protect(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let out = opts.require("out")?;
    let bytes = std::fs::read(Path::new(&input))?;
    let protected = add_checksums(&bytes)?;
    std::fs::write(Path::new(&out), &protected)?;
    Ok(format!(
        "checksummed {} -> {out} ({} bytes)\n",
        input,
        protected.len()
    ))
}

/// `tune`: recommend (Υ, Λ) from the file's own series statistics.
fn cmd_tune(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let gamma = opts.require_f64("gamma0")?;
    if !(0.0..=1.0).contains(&gamma) {
        return Err(CliError::Usage(format!(
            "gamma0 {gamma} is not a probability"
        )));
    }
    let stack = read_stack_file(&input)?;
    // Sample up to 64 coordinate series spread across the frame.
    let mut samples = Vec::new();
    let step = ((stack.width() * stack.height()) / 64).max(1);
    let mut buf = Vec::new();
    for idx in (0..stack.width() * stack.height()).step_by(step) {
        let (x, y) = (idx % stack.width(), idx / stack.width());
        stack.gather_series(x, y, &mut buf);
        samples.push(buf.clone());
    }
    let rec =
        preflight::tuning::recommend(&samples, gamma, &preflight::tuning::TuningConfig::default())?;
    Ok(format!(
        "estimated sigma {:.1}; recommend {} {} (expected Psi {:.6}, {:.1}x better than raw)\n",
        rec.sigma_estimate,
        rec.upsilon,
        rec.sensitivity,
        rec.expected_psi,
        rec.improvement_factor()
    ))
}

/// `psi`: the paper's Eq. 3/4 metric between two stacks.
fn cmd_psi(opts: &Opts) -> Result<String, CliError> {
    let ideal = read_stack_file(&opts.require("ideal")?)?;
    let observed = read_stack_file(&opts.require("observed")?)?;
    if ideal.width() != observed.width()
        || ideal.height() != observed.height()
        || ideal.frames() != observed.frames()
    {
        return Err(CliError::Usage("stack geometries differ".to_owned()));
    }
    let value = psi(ideal.as_slice(), observed.as_slice());
    let confusion = BitConfusion::score(ideal.as_slice(), observed.as_slice(), observed.as_slice());
    Ok(format!(
        "Psi = {value:.8}\nbits differing from ideal: {}\n",
        confusion.total_flipped
    ))
}

/// `otis-gen`: synthesize an OTIS radiance cube from a scene archetype.
fn cmd_otis_gen(opts: &Opts) -> Result<String, CliError> {
    let out = opts.require("out")?;
    let size = opts.usize_or("size", 64)?;
    let seed = opts.u64_or("seed", 1)?;
    let scene = match opts.require("scene")?.to_lowercase().as_str() {
        "blob" => OtisScene::Blob,
        "stripe" => OtisScene::Stripe,
        "spots" => OtisScene::Spots,
        other => {
            return Err(CliError::Usage(format!(
                "unknown scene {other:?} (expected blob, stripe or spots)"
            )))
        }
    };
    if size < 4 {
        return Err(CliError::Usage("scene size must be at least 4".to_owned()));
    }
    let mut rng = seeded_rng(seed);
    let temp = temperature_scene(scene, size, size, &mut rng);
    let emis = emissivity_scene(size, size, &mut rng);
    let cube = radiance_cube(&temp, &emis, &DEFAULT_BANDS);
    std::fs::write(Path::new(&out), preflight::fits::write_cube_f32(&cube))?;
    Ok(format!(
        "wrote '{scene}' radiance cube {size}x{size}x{} (seed {seed}) to {out}\n",
        DEFAULT_BANDS.len()
    ))
}

/// `otis-inject`: corrupt a radiance cube with uncorrelated bit-flips.
fn cmd_otis_inject(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let out = opts.require("out")?;
    let gamma = opts.require_f64("gamma0")?;
    let seed = opts.u64_or("seed", 2)?;
    let bytes = std::fs::read(Path::new(&input))?;
    let mut cube = preflight::fits::read_cube_f32(&bytes)?;
    let map = Uncorrelated::new(gamma)
        .map_err(|e| CliError::Usage(e.to_string()))?
        .inject_cube(&mut cube, &mut seeded_rng(seed));
    std::fs::write(Path::new(&out), preflight::fits::write_cube_f32(&cube))?;
    Ok(format!(
        "flipped {} bits in the radiance cube -> {out}\n",
        map.len()
    ))
}

/// `retrieve`: OTIS temperature/emissivity retrieval, with optional
/// `Algo_OTIS` preprocessing in front.
fn cmd_retrieve(opts: &Opts) -> Result<String, CliError> {
    use preflight::datagen::planck::max_radiance;

    let input = opts.require("in")?;
    let out = opts.require("out")?;
    // Validate parameters before touching the filesystem.
    let lambda = if opts.has("preprocess") {
        Some(opts.lambda()?)
    } else {
        None
    };
    let bytes = std::fs::read(Path::new(&input))?;
    let mut cube = preflight::fits::read_cube_f32(&bytes)?;
    if cube.bands() != DEFAULT_BANDS.len() {
        return Err(CliError::Usage(format!(
            "cube has {} bands; this tool retrieves the standard {}-band set",
            cube.bands(),
            DEFAULT_BANDS.len()
        )));
    }
    let mut report = String::new();
    if let Some(lambda) = lambda {
        let algo = AlgoOtis::new(
            Sensitivity::new(lambda)?,
            PhysicalBounds::radiance(max_radiance(400.0, &DEFAULT_BANDS) * 1.2),
        );
        let fixed = algo.preprocess_cube(&mut cube);
        let _ = writeln!(report, "Algo_OTIS (L={lambda}) repaired {fixed} samples");
    }
    let product = Retrieval::default().run(&cube, &DEFAULT_BANDS);
    std::fs::write(
        Path::new(&out),
        preflight::fits::write_image_f32(&product.temperature),
    )?;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in product.temperature.as_slice() {
        let v = f64::from(v);
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let _ = writeln!(
        report,
        "temperature map {}x{} (range {lo:.1}..{hi:.1} K) -> {out}",
        product.temperature.width(),
        product.temperature.height()
    );
    Ok(report)
}

/// `pipeline`: the full Fig. 1 run — header sanity + checksum triage,
/// tiling to workers, optional preprocessing, CR rejection, reassembly and
/// multi-HDU product output (INTEGRATED / RATE / REPAIRS).
///
/// Supervision (`--max-retries`, `--stage-timeout-ms`, `--degrade`) wraps
/// every tile in the retry/degradation envelope; `--chaos P` additionally
/// injects process-level faults (worker stalls, crashes, corrupted result
/// messages) with probability `P` each, from the run's seed.
fn cmd_pipeline(opts: &Opts) -> Result<String, CliError> {
    let input = opts.require("in")?;
    let out = opts.require("out")?;
    let workers = opts.usize_or("workers", 4)?;
    let tile = opts.usize_or("tile", 64)?;
    let gamma = opts.f64_or("gamma0", 0.0)?;
    let seed = opts.u64_or("seed", 1)?;
    if workers == 0 || tile == 0 {
        return Err(CliError::Usage(
            "workers and tile must be positive".to_owned(),
        ));
    }
    if !(0.0..=1.0).contains(&gamma) {
        return Err(CliError::Usage(format!(
            "gamma0 {gamma} is not a probability"
        )));
    }
    let preprocess = if opts.has("preprocess") {
        let lambda = opts.lambda()?;
        let upsilon = opts.upsilon()?;
        Some(AlgoNgst::new(
            Upsilon::new(upsilon)?,
            Sensitivity::new(lambda)?,
        ))
    } else {
        None
    };

    // Supervision: enabled by any of the runtime-robustness flags.
    let chaos_prob = opts.f64_or("chaos", 0.0)?;
    let max_retries = opts.u32_or("max-retries", 2)?;
    let timeout_ms = opts.u64_or("stage-timeout-ms", 30_000)?;
    if timeout_ms == 0 {
        return Err(CliError::Usage(
            "--stage-timeout-ms must be positive".to_owned(),
        ));
    }
    let supervised = chaos_prob > 0.0
        || opts.has("degrade")
        || opts.given("max-retries")
        || opts.given("stage-timeout-ms");
    let supervision = Supervision {
        policy: RetryPolicy {
            max_retries,
            stage_timeout: std::time::Duration::from_millis(timeout_ms),
            seed,
            ..RetryPolicy::default()
        },
        degrade: opts.has("degrade"),
        ..Supervision::default()
    };
    let injector = if chaos_prob != 0.0 {
        let config = ChaosConfig::uniform(chaos_prob).map_err(|e| {
            CliError::Usage(format!(
                "--chaos {chaos_prob} is invalid: {e} (stall, crash and \
                 corruption each get this probability, so it must not \
                 exceed 1/3)"
            ))
        })?;
        Some(ChaosInjector::new(config, seed).map_err(|e| CliError::Usage(e.to_string()))?)
    } else {
        None
    };
    let chaos: Option<&dyn ChaosModel> = injector.as_ref().map(|i| i as &dyn ChaosModel);

    let cfg = PipelineConfig {
        workers,
        tile_size: tile,
        preprocess,
        transit_fault: (gamma > 0.0).then_some(TransitFault::Uncorrelated(gamma)),
        seed,
        ..PipelineConfig::default()
    };
    let bytes = std::fs::read(Path::new(&input))?;
    let pipeline = NgstPipeline::new(cfg)?;
    let ingest = if supervised {
        pipeline.run_fits_with(&bytes, Some(&supervision), chaos)?
    } else {
        pipeline.run_fits(&bytes)?
    };
    std::fs::write(Path::new(&out), ingest.report.to_fits_products())?;
    let mut report = String::new();
    for f in &ingest.sanity.findings {
        let _ = writeln!(report, "header: {f:?}");
    }
    let _ = writeln!(report, "checksums: {:?}", ingest.checksum);
    let _ = writeln!(
        report,
        "{} tiles on {} workers in {:?}; {} samples repaired, {} CR jumps rejected",
        ingest.report.tiles,
        workers,
        ingest.report.elapsed,
        ingest.report.corrected_samples,
        ingest.report.cr_jumps_rejected
    );
    if let Some(sup) = &ingest.supervision {
        let _ = writeln!(
            report,
            "supervision: FT level {} achieved; {} recovery event(s); \
             {} tile(s) abandoned",
            sup.achieved.name(),
            sup.recovery.len(),
            sup.abandoned_tiles
        );
        if !sup.recovery.is_empty() {
            let _ = writeln!(report, "recovery: {}", sup.recovery.summary());
        }
    }
    let _ = writeln!(
        report,
        "products (INTEGRATED + RATE + REPAIRS) -> {out} \
         (downlink ratio {:.2})",
        ingest.report.compression_ratio
    );
    Ok(report)
}

/// Connects to a daemon named by `--tcp` or `--unix` (exactly one way).
fn connect_daemon(opts: &Opts) -> Result<preflight_serve::Client, CliError> {
    if let Some(addr) = opts.get("tcp") {
        return Ok(preflight_serve::ClientBuilder::new().tcp(addr).connect()?);
    }
    if let Some(path) = opts.get("unix") {
        return Ok(preflight_serve::ClientBuilder::new().unix(path).connect()?);
    }
    Err(CliError::Usage(
        "--tcp ADDR or --unix PATH is required to reach a daemon".to_owned(),
    ))
}

/// `serve`: run a `preflightd` daemon in the foreground until a wire-level
/// drain (or SIGTERM/SIGINT) stops it.
fn cmd_serve(opts: &Opts) -> Result<String, CliError> {
    use preflight_serve::server::ServerConfig;
    use preflight_serve::ServerBuilder;

    let mut config = ServerConfig {
        tcp: opts.get("tcp").cloned(),
        unix: opts.get("unix").map(std::path::PathBuf::from),
        ..ServerConfig::default()
    };
    if config.tcp.is_none() && config.unix.is_none() {
        return Err(CliError::Usage(
            "serve needs at least one of --tcp ADDR or --unix PATH".to_owned(),
        ));
    }
    config.capacity = opts.usize_or("capacity", config.capacity)?;
    if config.capacity == 0 {
        return Err(CliError::Usage(
            "--capacity 0 is invalid: the daemon must admit at least one request".to_owned(),
        ));
    }
    config.max_connections = opts.usize_or("max-conns", config.max_connections)?;
    if config.max_connections == 0 {
        return Err(CliError::Usage(
            "--max-conns 0 is invalid: the daemon must accept at least one connection".to_owned(),
        ));
    }
    config.batch.target_frames = opts.usize_or("batch-frames", config.batch.target_frames)?;
    let delay_ms = opts.u64_or("batch-delay-ms", 5)?;
    config.batch.max_delay = std::time::Duration::from_millis(delay_ms);
    let (threads, thread_warning) = opts.threads()?;
    if opts.given("threads") {
        config.engine.threads = threads;
    }
    config.engine.kernel = opts.kernel()?;
    config.engine_workers = opts.usize_or("workers", config.engine_workers)?;
    config.metrics_addr = opts.get("metrics-addr").cloned();
    config.auto_tune = opts.has("auto-tune");

    preflight_serve::signal::install();
    let handle = ServerBuilder::from(config)
        .serve()
        .map_err(|e| CliError::Serve(e.to_string()))?;
    let mut report = String::new();
    if let Some(w) = thread_warning {
        let _ = writeln!(report, "{w}");
    }
    // Announce the endpoints on stdout immediately, so wrappers (and the CI
    // smoke job) can wait for readiness instead of sleeping.
    if let Some(addr) = handle.tcp_addr() {
        println!("serving tcp://{addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("serving unix://{}", path.display());
    }
    if let Some(addr) = handle.metrics_addr() {
        println!("serving metrics on http://{addr}/metrics");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !preflight_serve::signal::triggered() && !handle.drain_acked() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let summary = handle.drain();
    let _ = writeln!(
        report,
        "drained: {} completed, {} rejected busy",
        summary.completed, summary.rejected
    );
    let _ = writeln!(report, "{}", handle.stats().summary());
    Ok(report)
}

/// `route`: run a `preflight-router` fleet front end in the foreground,
/// sharding client streams across the named `preflightd` backends.
/// `--replicate` turns on dual-write with the bit-identity cross-check.
/// Like `serve`, the process runs until a wire-level drain (or
/// SIGTERM/SIGINT) stops it; the backends themselves are never drained —
/// they may be shared with other front ends.
fn cmd_route(opts: &Opts) -> Result<String, CliError> {
    use preflight_router::pool::BackendAddr;
    use preflight_router::server::{start, RouterConfig};

    let mut config = RouterConfig {
        tcp: opts.get("tcp").cloned(),
        unix: opts.get("unix").map(std::path::PathBuf::from),
        replicate: opts.has("replicate"),
        ..RouterConfig::default()
    };
    if config.tcp.is_none() && config.unix.is_none() {
        return Err(CliError::Usage(
            "route needs at least one of --tcp ADDR or --unix PATH".to_owned(),
        ));
    }
    if let Some(list) = opts.get("backends") {
        for spec in list.split(',') {
            let spec = spec.trim();
            if !spec.is_empty() {
                config
                    .backends
                    .push(BackendAddr::parse(spec).map_err(CliError::Usage)?);
            }
        }
    }
    if let Some(spec) = opts.get("backend") {
        config
            .backends
            .push(BackendAddr::parse(spec).map_err(CliError::Usage)?);
    }
    if config.backends.is_empty() {
        return Err(CliError::Usage(
            "route needs at least one backend (--backends tcp://H:P,unix:///path \
             or --backend SPEC)"
                .to_owned(),
        ));
    }
    if config.backends.len() > preflight_router::MAX_BACKENDS {
        return Err(CliError::Usage(format!(
            "route supports at most {} backends, got {}",
            preflight_router::MAX_BACKENDS,
            config.backends.len()
        )));
    }
    if config.replicate && config.backends.len() < 2 {
        return Err(CliError::Usage(
            "--replicate needs at least two backends to cross-check".to_owned(),
        ));
    }
    config.capacity = opts.usize_or("capacity", config.capacity)?;
    if config.capacity == 0 {
        return Err(CliError::Usage(
            "--capacity 0 is invalid: the router must admit at least one request".to_owned(),
        ));
    }
    config.max_connections = opts.usize_or("max-conns", config.max_connections)?;
    if config.max_connections == 0 {
        return Err(CliError::Usage(
            "--max-conns 0 is invalid: the router must accept at least one connection".to_owned(),
        ));
    }
    config.vnodes = opts.usize_or("vnodes", config.vnodes)?;
    if config.vnodes == 0 {
        return Err(CliError::Usage(
            "--vnodes 0 is invalid: each backend needs at least one ring point".to_owned(),
        ));
    }
    config.heavy_cost = opts.u64_or("heavy-cost", config.heavy_cost)?;
    let health_ms = opts.u64_or(
        "health-ms",
        u64::try_from(config.health_period.as_millis()).unwrap_or(500),
    )?;
    if health_ms == 0 {
        return Err(CliError::Usage(
            "--health-ms 0 is invalid: the prober needs a positive period".to_owned(),
        ));
    }
    config.health_period = std::time::Duration::from_millis(health_ms);
    config.metrics_addr = opts.get("metrics-addr").cloned();

    let fleet_size = config.backends.len();
    let replicate = config.replicate;
    preflight_serve::signal::install();
    let handle = start(config).map_err(|e| CliError::Serve(e.to_string()))?;
    if let Some(addr) = handle.tcp_addr() {
        println!("routing tcp://{addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("routing unix://{}", path.display());
    }
    if let Some(addr) = handle.metrics_addr() {
        println!("serving metrics on http://{addr}/metrics");
    }
    println!(
        "fronting {fleet_size} backend(s){}",
        if replicate {
            ", replicated with bit-identity cross-check"
        } else {
            ""
        }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !preflight_serve::signal::triggered() && !handle.drain_acked() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let summary = handle.drain();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "drained: {} completed, {} rejected busy",
        summary.completed, summary.rejected
    );
    let _ = writeln!(report, "fleet {}", handle.fleet_status());
    let _ = writeln!(report, "{}", handle.stats().summary());
    Ok(report)
}

/// `submit`: send one FITS stack to a daemon and write the repaired stack
/// it returns.
fn cmd_submit(opts: &Opts) -> Result<String, CliError> {
    use preflight_serve::wire::FramePayload;
    use preflight_serve::SubmitOptions;

    let input = opts.require("in")?;
    let out = opts.require("out")?;
    let lambda = opts.lambda()?;
    let upsilon = opts.upsilon()?;
    let stream_id = opts.u64_or("stream", 0)?;
    let stack = read_stack_file(&input)?;
    let mut client = connect_daemon(opts)?;
    let response = client.submit(
        FramePayload::U16(stack),
        &SubmitOptions {
            stream_id,
            lambda: lambda as u8,
            upsilon: upsilon as u8,
            eos: true,
        },
    )?;
    let FramePayload::U16(repaired) = response.payload else {
        return Err(CliError::Serve(
            "daemon answered with a different pixel type".to_owned(),
        ));
    };
    write_stack_file(&out, &repaired)?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "repaired {}x{}x{} -> {out}",
        repaired.width(),
        repaired.height(),
        repaired.frames()
    );
    let _ = writeln!(report, "{}", response.stats);
    Ok(report)
}

/// `stats`: fetch a daemon's metrics registry over the wire and render
/// the same numbers the `/metrics` scrape exposes as a human report.
///
/// Routers answer `StatsRequest` with their own registry (routing
/// counters, not batching ones), so the snapshot's counter families tell
/// us which summary to render.
fn cmd_stats(opts: &Opts) -> Result<String, CliError> {
    let mut client = connect_daemon(opts)?;
    let snap = client.stats()?;
    let mut report = String::new();
    if snap
        .counter(preflight_router::telemetry::ROUTED_TOTAL, None)
        .is_some()
    {
        let _ = writeln!(
            report,
            "{}",
            preflight_router::telemetry::format_router_summary(&snap)
        );
        for stage in preflight_router::telemetry::ROUTER_STAGES {
            if let Some(h) = snap.histogram("stage_seconds", Some(("stage", stage))) {
                let _ = writeln!(
                    report,
                    "stage {stage:<10} count {:>8}  p50 {:>8} us  p90 {:>8} us  p99 {:>8} us",
                    h.count,
                    h.p50_us(),
                    h.p90_us(),
                    h.p99_us()
                );
            }
        }
        return Ok(report);
    }
    let _ = writeln!(report, "{}", preflight_serve::format_summary(&snap));
    let counter = |name: &str| snap.counter(name, None).unwrap_or(0);
    let _ = writeln!(
        report,
        "repairs: {} samples, {} bits; engine retries: {}",
        counter("serve_samples_repaired_total"),
        counter("serve_bits_repaired_total"),
        counter("serve_retries_total"),
    );
    for stage in ["admission", "queue", "batch", "engine", "write"] {
        if let Some(h) = snap.histogram("stage_seconds", Some(("stage", stage))) {
            let _ = writeln!(
                report,
                "stage {stage:<9} count {:>8}  p50 {:>8} us  p90 {:>8} us  p99 {:>8} us",
                h.count,
                h.p50_us(),
                h.p90_us(),
                h.p99_us()
            );
        }
    }
    Ok(report)
}

/// `drain`: ask a daemon to finish in-flight work and shut down.
fn cmd_drain(opts: &Opts) -> Result<String, CliError> {
    let mut client = connect_daemon(opts)?;
    let summary = client.drain()?;
    Ok(format!(
        "daemon drained: {} completed, {} rejected busy\n",
        summary.completed, summary.rejected
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("preflight-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        dispatch(&v)
    }

    #[test]
    fn gen_inject_preprocess_psi_roundtrip() {
        let clean = tmp("clean.fits");
        let bad = tmp("bad.fits");
        let fixed = tmp("fixed.fits");

        let r = run(&[
            "gen", "--out", &clean, "--width", "16", "--height", "12", "--frames", "32", "--seed",
            "5",
        ])
        .unwrap();
        assert!(r.contains("16x12x32"));

        let r = run(&[
            "inject", "--in", &clean, "--out", &bad, "--gamma0", "0.01", "--seed", "9",
        ])
        .unwrap();
        assert!(r.contains("flipped"));

        let r = run(&[
            "preprocess",
            "--in",
            &bad,
            "--out",
            &fixed,
            "--lambda",
            "80",
        ])
        .unwrap();
        assert!(r.contains("samples repaired"));

        let before = run(&["psi", "--ideal", &clean, "--observed", &bad]).unwrap();
        let after = run(&["psi", "--ideal", &clean, "--observed", &fixed]).unwrap();
        let parse = |s: &str| -> f64 {
            s.lines()
                .find_map(|l| l.strip_prefix("Psi = "))
                .expect("psi line")
                .parse()
                .expect("number")
        };
        assert!(parse(&after) < parse(&before), "{after} !< {before}");
    }

    #[test]
    fn auto_tune_preprocess_reports_choice_and_is_deterministic() {
        let clean = tmp("at-clean.fits");
        let bad = tmp("at-bad.fits");
        let out_a = tmp("at-a.fits");
        let out_b = tmp("at-b.fits");
        run(&[
            "gen", "--out", &clean, "--width", "16", "--height", "12", "--frames", "32", "--seed",
            "11",
        ])
        .unwrap();
        run(&[
            "inject", "--in", &clean, "--out", &bad, "--gamma0", "0.01", "--seed", "3",
        ])
        .unwrap();
        let r = run(&["preprocess", "--in", &bad, "--out", &out_a, "--auto-tune"]).unwrap();
        assert!(r.contains("auto-tune: chosen L="), "{r}");
        run(&["preprocess", "--in", &bad, "--out", &out_b, "--auto-tune"]).unwrap();
        let a = std::fs::read(&out_a).unwrap();
        let b = std::fs::read(&out_b).unwrap();
        assert_eq!(a, b, "stationary input must preprocess bit-identically");
    }

    #[test]
    fn check_and_protect_report_checksums() {
        let clean = tmp("c2.fits");
        let safe = tmp("c2-safe.fits");
        run(&[
            "gen", "--out", &clean, "--width", "8", "--height", "8", "--frames", "4",
        ])
        .unwrap();
        let r = run(&["check", "--in", &clean]).unwrap();
        assert!(r.contains("header ok: true"));
        assert!(r.contains("Absent"));

        run(&["protect", "--in", &clean, "--out", &safe]).unwrap();
        let r = run(&["check", "--in", &safe]).unwrap();
        assert!(r.contains("Valid"), "{r}");

        // Damage the protected file's data: triage must say DataCorrupted.
        let mut bytes = std::fs::read(&safe).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x40;
        std::fs::write(&safe, bytes).unwrap();
        let r = run(&["check", "--in", &safe]).unwrap();
        assert!(r.contains("DataCorrupted"), "{r}");
    }

    #[test]
    fn tune_recommends_sane_parameters() {
        let clean = tmp("c3.fits");
        run(&[
            "gen", "--out", &clean, "--width", "12", "--height", "8", "--frames", "64", "--sigma",
            "250",
        ])
        .unwrap();
        let r = run(&["tune", "--in", &clean, "--gamma0", "0.01"]).unwrap();
        assert!(r.contains("recommend"), "{r}");
        assert!(r.contains("sigma"), "{r}");
    }

    #[test]
    fn otis_generate_corrupt_retrieve_chain() {
        let cube = tmp("cube.fits");
        let bad = tmp("cube-bad.fits");
        let t_clean = tmp("t-clean.fits");
        let t_bad = tmp("t-bad.fits");
        let t_fixed = tmp("t-fixed.fits");

        let r = run(&[
            "otis-gen", "--out", &cube, "--scene", "blob", "--size", "32",
        ])
        .unwrap();
        assert!(r.contains("Blob"));

        run(&["retrieve", "--in", &cube, "--out", &t_clean]).unwrap();
        run(&[
            "otis-inject",
            "--in",
            &cube,
            "--out",
            &bad,
            "--gamma0",
            "0.01",
        ])
        .unwrap();
        run(&["retrieve", "--in", &bad, "--out", &t_bad]).unwrap();
        let r = run(&[
            "retrieve",
            "--in",
            &bad,
            "--out",
            &t_fixed,
            "--preprocess",
            "--lambda",
            "80",
        ])
        .unwrap();
        assert!(r.contains("repaired"));

        // The preprocessed retrieval must sit closer to the clean one.
        let load = |p: &str| preflight::fits::read_image_f32(&std::fs::read(p).unwrap()).unwrap();
        let (clean, bad_t, fixed_t) = (load(&t_clean), load(&t_bad), load(&t_fixed));
        let err = |a: &preflight::core::Image<f32>, b: &preflight::core::Image<f32>| -> f64 {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| {
                    if y.is_finite() {
                        f64::from((x - y).abs()).min(200.0)
                    } else {
                        200.0
                    }
                })
                .sum::<f64>()
        };
        assert!(
            err(&clean, &fixed_t) < err(&clean, &bad_t) / 2.0,
            "preprocessing must pay off end to end"
        );
    }

    #[test]
    fn pipeline_command_produces_multi_hdu_products() {
        let stack = tmp("pipe-in.fits");
        let out = tmp("pipe-out.fits");
        run(&[
            "gen", "--out", &stack, "--width", "32", "--height", "32", "--frames", "16",
        ])
        .unwrap();
        let r = run(&[
            "pipeline",
            "--in",
            &stack,
            "--out",
            &out,
            "--preprocess",
            "--gamma0",
            "0.005",
            "--workers",
            "2",
            "--tile",
            "16",
        ])
        .unwrap();
        assert!(r.contains("samples repaired"), "{r}");
        let hdus =
            preflight::fits::read_hdus(&std::fs::read(&out).unwrap()).expect("products parse");
        assert_eq!(hdus.len(), 3);
        assert_eq!(hdus[2].name.as_deref(), Some("REPAIRS"));
    }

    #[test]
    fn pipeline_supervised_chaos_run_reports_recovery() {
        let stack = tmp("chaos-in.fits");
        let out = tmp("chaos-out.fits");
        run(&[
            "gen", "--out", &stack, "--width", "32", "--height", "32", "--frames", "16",
        ])
        .unwrap();
        let r = run(&[
            "pipeline",
            "--in",
            &stack,
            "--out",
            &out,
            "--chaos",
            "0.2",
            "--max-retries",
            "3",
            "--degrade",
            "--workers",
            "2",
            "--tile",
            "16",
            "--seed",
            "11",
        ])
        .unwrap();
        assert!(r.contains("supervision: FT level"), "{r}");
        let hdus =
            preflight::fits::read_hdus(&std::fs::read(&out).unwrap()).expect("products parse");
        assert_eq!(hdus.len(), 3, "chaos must not cost the products");
    }

    #[test]
    fn pipeline_rejects_bad_robustness_flags() {
        assert!(matches!(
            run(&["pipeline", "--in", "x", "--out", "y", "--chaos", "0.5"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["pipeline", "--in", "x", "--out", "y", "--chaos", "-0.1"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "pipeline",
                "--in",
                "x",
                "--out",
                "y",
                "--stage-timeout-ms",
                "0"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lambda_and_upsilon_are_validated_up_front() {
        // No input file is ever touched: validation must fire first.
        for args in [
            ["preprocess", "--in", "x", "--out", "y", "--lambda", "101"],
            ["preprocess", "--in", "x", "--out", "y", "--upsilon", "3"],
            ["preprocess", "--in", "x", "--out", "y", "--upsilon", "0"],
            ["preprocess", "--in", "x", "--out", "y", "--upsilon", "18"],
        ] {
            let err = run(&args).unwrap_err();
            match err {
                CliError::Usage(m) => {
                    assert!(m.contains("must"), "friendly message expected, got: {m}");
                }
                other => panic!("expected usage error, got {other:?}"),
            }
        }
        assert!(matches!(
            run(&[
                "retrieve",
                "--in",
                "x",
                "--out",
                "y",
                "--preprocess",
                "--lambda",
                "999"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "pipeline",
                "--in",
                "x",
                "--out",
                "y",
                "--preprocess",
                "--upsilon",
                "5"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn threads_flag_is_validated_capped_and_bit_identical() {
        // Zero threads is a usage error before any I/O happens.
        assert!(matches!(
            run(&["preprocess", "--in", "x", "--out", "y", "--threads", "0"]),
            Err(CliError::Usage(_))
        ));
        // An absurd request is capped at the machine's parallelism (with a
        // warning in the report) and still yields bit-identical output.
        let clean = tmp("thr-clean.fits");
        let bad = tmp("thr-bad.fits");
        let seq_out = tmp("thr-seq.fits");
        let par_out = tmp("thr-par.fits");
        run(&[
            "gen", "--out", &clean, "--width", "16", "--height", "12", "--frames", "16",
        ])
        .unwrap();
        run(&[
            "inject", "--in", &clean, "--out", &bad, "--gamma0", "0.01", "--seed", "3",
        ])
        .unwrap();
        let seq = run(&["preprocess", "--in", &bad, "--out", &seq_out]).unwrap();
        assert!(seq.contains("on 1 thread(s)"), "{seq}");
        let par = run(&[
            "preprocess",
            "--in",
            &bad,
            "--out",
            &par_out,
            "--threads",
            "65535",
        ])
        .unwrap();
        assert!(par.contains("warning: --threads 65535"), "{par}");
        let a = read_stack_file(&seq_out).unwrap();
        let b = read_stack_file(&par_out).unwrap();
        assert_eq!(a, b, "thread count must not change the output");
    }

    #[test]
    fn preprocess_trace_json_dumps_a_span_timeline() {
        let clean = tmp("trace-clean.fits");
        let bad = tmp("trace-bad.fits");
        let fixed = tmp("trace-fixed.fits");
        let trace = tmp("trace.json");
        run(&[
            "gen", "--out", &clean, "--width", "16", "--height", "12", "--frames", "16",
        ])
        .unwrap();
        run(&[
            "inject", "--in", &clean, "--out", &bad, "--gamma0", "0.01", "--seed", "7",
        ])
        .unwrap();
        let r = run(&[
            "preprocess",
            "--in",
            &bad,
            "--out",
            &fixed,
            "--trace-json",
            &trace,
        ])
        .unwrap();
        assert!(r.contains("trace:"), "{r}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.contains("\"stage\":\"preprocess\""), "{json}");
        assert!(json.contains("\"stage\":\"band\""), "{json}");
    }

    #[test]
    fn otis_gen_rejects_unknown_scene() {
        let out = tmp("never.fits");
        assert!(matches!(
            run(&["otis-gen", "--out", &out, "--scene", "nebula"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_errors_are_clear() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["gen"]), Err(CliError::Usage(_)))); // --out missing
        assert!(matches!(
            run(&["inject", "--in", "x", "--out", "y"]),
            Err(CliError::Usage(_)) // --gamma0 missing
        ));
        let clean = tmp("c4.fits");
        run(&[
            "gen", "--out", &clean, "--width", "4", "--height", "4", "--frames", "4",
        ])
        .unwrap();
        assert!(matches!(
            run(&["tune", "--in", &clean, "--gamma0", "7"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn route_rejects_bad_invocations_up_front() {
        // No listen endpoint.
        assert!(matches!(
            run(&["route", "--backends", "127.0.0.1:7700"]),
            Err(CliError::Usage(_))
        ));
        // No backends.
        assert!(matches!(
            run(&["route", "--tcp", "127.0.0.1:0"]),
            Err(CliError::Usage(_))
        ));
        // Replication needs a second replica.
        assert!(matches!(
            run(&[
                "route",
                "--tcp",
                "127.0.0.1:0",
                "--backends",
                "127.0.0.1:7700",
                "--replicate"
            ]),
            Err(CliError::Usage(_))
        ));
        // Malformed backend spec (empty TCP address).
        assert!(matches!(
            run(&["route", "--tcp", "127.0.0.1:0", "--backends", "tcp://"]),
            Err(CliError::Usage(_))
        ));
        // Zero knobs are rejected before any socket is bound.
        for flag in ["--capacity", "--max-conns", "--vnodes", "--health-ms"] {
            assert!(
                matches!(
                    run(&[
                        "route",
                        "--tcp",
                        "127.0.0.1:0",
                        "--backends",
                        "127.0.0.1:7700",
                        flag,
                        "0"
                    ]),
                    Err(CliError::Usage(_))
                ),
                "{flag} 0 must be a usage error"
            );
        }
    }

    #[test]
    fn io_and_fits_errors_are_distinguished() {
        assert!(matches!(
            run(&["check", "--in", "/definitely/not/here.fits"]),
            Err(CliError::Io(_))
        ));
        let junk = tmp("junk.fits");
        std::fs::write(&junk, b"this is not FITS at all").unwrap();
        assert!(run(&["psi", "--ideal", &junk, "--observed", &junk]).is_err());
    }

    #[test]
    fn psi_rejects_mismatched_geometry() {
        let a = tmp("a.fits");
        let b = tmp("b.fits");
        run(&[
            "gen", "--out", &a, "--width", "8", "--height", "8", "--frames", "4",
        ])
        .unwrap();
        run(&[
            "gen", "--out", &b, "--width", "8", "--height", "8", "--frames", "6",
        ])
        .unwrap();
        assert!(matches!(
            run(&["psi", "--ideal", &a, "--observed", &b]),
            Err(CliError::Usage(_))
        ));
    }
}
