//! `repro` — regenerates every figure of the paper as a text table (and
//! optionally CSV files).
//!
//! ```text
//! repro <target> [--paper] [--csv <dir>] [--svg <dir>]
//!
//! targets:
//!   fig2 fig3 fig4 fig5 fig6 fig7 fig9
//!   compression factors mean-vs-median scaling recovery
//!   interleave spatial-vs-spectral
//!   ablation-windows ablation-static
//!   perf serve route sweep
//!   all
//!
//! `perf`, `serve` and `route` are the odd ones out: instead of an
//! error-rate figure they time the system. `perf` sweeps the preprocessing
//! drivers (naive / band, per thread count) into `BENCH_preprocess.json`;
//! `serve` runs the benchmark's `direct`, `bulk` and `readout` workloads
//! (`python3 perfbench/run.py`, from the repository root) over 5 seeds and
//! sweeps open connections on a `preflightd` into `BENCH_serve.json`;
//! `route` load-tests an in-process `preflight-router` fleet (N
//! `preflightd` backends behind the front end) into `BENCH_router.json`.
//! flags:
//!   --paper     paper-depth averaging (slower; default is a medium scale)
//!   --quick     smoke-test scale
//!   --csv DIR   also write one CSV per figure into DIR
//!   --svg DIR   also render one SVG plot per figure into DIR
//! ```

use preflight_bench::{report::Scale, Figure};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target = None;
    let mut scale = Scale::medium();
    let mut quick = false;
    let mut csv_dir: Option<String> = None;
    let mut svg_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => scale = Scale::paper(),
            "--quick" => {
                scale = Scale::quick();
                quick = true;
            }
            "--csv" => match it.next() {
                Some(d) => csv_dir = Some(d.clone()),
                None => {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--svg" => match it.next() {
                Some(d) => svg_dir = Some(d.clone()),
                None => {
                    eprintln!("--svg requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                print_usage();
                return;
            }
            t if target.is_none() && !t.starts_with('-') => target = Some(t.to_owned()),
            other => {
                eprintln!("unknown argument {other:?}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let Some(target) = target else {
        print_usage();
        std::process::exit(2);
    };

    if target == "perf" {
        run_perf(quick);
        return;
    }
    if target == "serve" {
        run_serve(quick);
        return;
    }
    if target == "route" {
        run_route(quick);
        return;
    }
    if target == "sweep" {
        run_sweep_target(quick);
        return;
    }
    let figures = run_target(&target, scale);
    if figures.is_empty() {
        eprintln!("unknown target {target:?}");
        print_usage();
        std::process::exit(2);
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for fig in &figures {
        if let Some(dir) = &csv_dir {
            if let Err(e) = write_artifact(dir, fig, "csv", &fig.to_csv()) {
                eprintln!("failed to write CSV for {}: {e}", fig.id);
                std::process::exit(1);
            }
        }
        if let Some(dir) = &svg_dir {
            if let Err(e) = write_artifact(dir, fig, "svg", &preflight_bench::svg::render(fig)) {
                eprintln!("failed to write SVG for {}: {e}", fig.id);
                std::process::exit(1);
            }
        }
        // A closed pipe (e.g. `repro all | head`) is not an error; keep
        // writing the CSVs but stop printing.
        let _ = writeln!(out, "{}", fig.to_table());
    }
    if let Some(dir) = &csv_dir {
        eprintln!("CSV written to {dir}/");
    }
    if let Some(dir) = &svg_dir {
        eprintln!("SVG plots written to {dir}/");
    }
}

/// `perf`: time the preprocessing drivers and persist the sweep as JSON.
fn run_perf(quick: bool) {
    use preflight_bench::perf::{preprocess_perf, PerfConfig};
    let config = if quick {
        PerfConfig::quick()
    } else {
        PerfConfig::standard()
    };
    let report = preprocess_perf(&config);
    print!("{}", report.to_table());
    let path = "BENCH_preprocess.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("throughput sweep written to {path}");
}

/// `serve`: run `perfbench`'s workloads (5 seeds at `run_seconds`, or one
/// 2 s seed under `--quick`), sweep open connections, and persist both
/// into one document. A failed run writes nothing and exits 1.
fn run_serve(quick: bool) {
    use preflight_bench::serve::{
        bench_json, conn_sweep, rows_table, serve_bench, ConnSweepConfig, RUN_SECONDS, SEEDS,
    };
    let (seeds, seconds, sweep_config) = if quick {
        (1, 2.0, ConnSweepConfig::quick())
    } else {
        (SEEDS, RUN_SECONDS, ConnSweepConfig::standard())
    };
    let rows = match serve_bench(seeds, seconds) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", rows_table(&rows));
    let sweep = conn_sweep(&sweep_config);
    println!(
        "open-connection sweep ({}):\n{}",
        sweep.daemon,
        sweep.json_rows()
    );
    let path = "BENCH_serve.json";
    if let Err(e) = std::fs::write(path, bench_json(&rows, seconds, &sweep)) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("serving benchmark written to {path}");
}

/// `route`: load-test an in-process router-fronted fleet and persist the
/// numbers.
fn run_route(quick: bool) {
    use preflight_bench::router::{route_loadgen, RouteConfig};
    let config = if quick {
        RouteConfig::quick()
    } else {
        RouteConfig::standard()
    };
    let report = route_loadgen(&config);
    print!("{}", report.to_table());
    let path = "BENCH_router.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("router loadgen written to {path}");
}

/// `sweep`: grid (Λ, Υ, windows) × fault rates on a drifting scene and
/// validate the online tuner against the offline optimum.
fn run_sweep_target(quick: bool) {
    use preflight_bench::sweep::run_sweep;
    let report = run_sweep(quick);
    print!("{}", report.to_table());
    let path = "BENCH_sweep.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("parameter sweep written to {path}");
    if !report.errors.is_empty() {
        eprintln!(
            "{} cell(s) deteriorated; see the error log in the JSON",
            report.errors.len()
        );
        std::process::exit(1);
    }
}

fn run_target(target: &str, scale: Scale) -> Vec<Figure> {
    match target {
        "fig2" => vec![preflight_bench::fig2(scale)],
        "fig3" => vec![preflight_bench::fig3(scale)],
        "fig4" => vec![preflight_bench::fig4(scale)],
        "fig5" => vec![preflight_bench::fig5(scale)],
        "fig6" => preflight_bench::fig6(scale),
        "fig7" => preflight_bench::fig7(scale),
        "fig9" => preflight_bench::fig9(scale),
        "compression" => vec![preflight_bench::compression_claim(scale)],
        "factors" => vec![preflight_bench::improvement_factors(scale)],
        "mean-vs-median" => vec![preflight_bench::mean_vs_median(scale)],
        "scaling" => vec![preflight_bench::scaling(scale)],
        "recovery" => vec![preflight_bench::fig_recovery(scale)],
        "motivation" => vec![preflight_bench::motivation(scale)],
        "interleave" => vec![preflight_bench::interleave_claim(scale)],
        "spatial-vs-spectral" => vec![preflight_bench::spatial_vs_spectral(scale)],
        "ablation-windows" => vec![preflight_bench::ablation_windows(scale)],
        "ablation-passes" => vec![preflight_bench::ablation_passes(scale)],
        "ablation-static" => vec![preflight_bench::ablation_static(scale)],
        "all" => {
            let mut all = Vec::new();
            for t in [
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig9",
                "compression",
                "factors",
                "mean-vs-median",
                "scaling",
                "recovery",
                "motivation",
                "interleave",
                "spatial-vs-spectral",
                "ablation-windows",
                "ablation-static",
                "ablation-passes",
            ] {
                all.extend(run_target(t, scale));
            }
            all
        }
        _ => Vec::new(),
    }
}

fn write_artifact(dir: &str, fig: &Figure, ext: &str, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{}.{ext}", fig.id));
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

fn print_usage() {
    eprintln!(
        "usage: repro <target> [--paper|--quick] [--csv DIR] [--svg DIR]\n\
         targets: fig2 fig3 fig4 fig5 fig6 fig7 fig9 compression factors scaling recovery\n\x20        motivation mean-vs-median interleave\n\
         \x20        spatial-vs-spectral ablation-windows ablation-static ablation-passes\n\
         \x20        perf serve route sweep all"
    );
}
