//! The NGST-side experiments: Figures 2–6 of the paper plus the §2
//! compression claim and the ablations called out in DESIGN.md.

use crate::report::{Accum, Figure, Scale, Series, Stats};
use preflight_core::{
    AlgoNgst, BitVoter, MedianSmoother, NgstConfig, Preprocessor, Sensitivity, SeriesPreprocessor,
    Upsilon,
};
use preflight_datagen::NgstModel;
use preflight_faults::{seeded_rng, Correlated, Uncorrelated};
use preflight_metrics::psi;
use preflight_ngst::{CosmicRayModel, DetectorConfig, UpTheRamp};
use preflight_rice::RiceCodec;
use std::time::Instant;

/// The Γ₀ grid used by the uncorrelated sweeps (the paper's "wide range of
/// bitflip probabilities", with Γ₀ ≤ 10 % the range of practical interest).
pub const GAMMA0_GRID: [f64; 9] = [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.3];

/// The Γ_ini grid used by the correlated sweeps (crossing the ~0.2
/// breakdown point of Fig. 9).
pub const GAMMA_INI_GRID: [f64; 7] = [0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4];

/// The Γ_ini grid for Fig. 4 — the practical burst-fault range where the
/// paper's *"Algo_NGST does much better in combating the correlated
/// failures"* claim applies (beyond ~0.1 the majority of data words are
/// corrupted and every estimator saturates).
pub const FIG4_GAMMA_INI_GRID: [f64; 7] = [0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.1];

fn lambda(v: u32) -> Sensitivity {
    Sensitivity::new(v).expect("static sensitivity values are valid")
}

/// Averages Ψ per algorithm over `scale.trials` independent series, all
/// algorithms scored against the *same* corrupted data.
fn psi_over_series(
    scale: Scale,
    model: &NgstModel,
    seed: u64,
    corrupt: impl Fn(&mut Vec<u16>, &mut rand::rngs::StdRng),
    algos: &[(&str, &dyn SeriesPreprocessor<u16>)],
) -> Vec<(String, Stats)> {
    let mut accums = vec![Accum::new(); algos.len() + 1];
    for t in 0..scale.trials {
        let mut rng = seeded_rng(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
        let clean = model.series(&mut rng);
        let mut corrupted = clean.clone();
        corrupt(&mut corrupted, &mut rng);
        accums[0].push(psi(&clean, &corrupted));
        for (i, (_, algo)) in algos.iter().enumerate() {
            let mut work = corrupted.clone();
            algo.preprocess(&mut work);
            accums[i + 1].push(psi(&clean, &work));
        }
    }
    let mut out = vec![("NoPreprocessing".to_owned(), accums[0].stats())];
    for (i, (name, _)) in algos.iter().enumerate() {
        out.push(((*name).to_owned(), accums[i + 1].stats()));
    }
    out
}

/// **Figure 2** — Ψ vs Γ₀ under the uncorrelated fault model: `Algo_NGST`
/// at several sensitivities against median smoothing and the unprocessed
/// data (NMS-like σ).
pub fn fig2(scale: Scale) -> Figure {
    let model = NgstModel {
        frames: scale.series_len,
        ..NgstModel::default()
    };
    let median = MedianSmoother::new();
    let a20 = AlgoNgst::new(Upsilon::FOUR, lambda(20));
    let a50 = AlgoNgst::new(Upsilon::FOUR, lambda(50));
    let a80 = AlgoNgst::new(Upsilon::FOUR, lambda(80));
    let a95 = AlgoNgst::new(Upsilon::FOUR, lambda(95));
    let algos: Vec<(&str, &dyn SeriesPreprocessor<u16>)> = vec![
        ("MedianSmoothing", &median),
        ("Algo_NGST(L=20)", &a20),
        ("Algo_NGST(L=50)", &a50),
        ("Algo_NGST(L=80)", &a80),
        ("Algo_NGST(L=95)", &a95),
    ];
    let mut series: Vec<Series> = Vec::new();
    for (gi, &g) in GAMMA0_GRID.iter().enumerate() {
        let model_inj = Uncorrelated::new(g).expect("grid probabilities are valid");
        let res = psi_over_series(
            scale,
            &model,
            0xF16_2000 + gi as u64,
            |s, rng| {
                model_inj.inject_words(s, rng);
            },
            &algos,
        );
        for (label, stats) in res {
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.push(stats),
                None => {
                    let mut s = Series::new(label);
                    s.push(stats);
                    series.push(s);
                }
            }
        }
    }
    Figure {
        id: "fig2".into(),
        title: "Performance comparison at varying sensitivities (uncorrelated faults)".into(),
        xlabel: "Gamma0".into(),
        ylabel: "average relative error Psi".into(),
        xs: GAMMA0_GRID.to_vec(),
        series,
    }
}

/// **Figure 3** — preprocessing execution overhead as a function of the
/// sensitivity Λ, with the static baselines as references. Reported as
/// microseconds per 64-sample series (relative shape is the claim; absolute
/// numbers are host-dependent — the Criterion bench `fig3_overhead` gives
/// the rigorous timings).
pub fn fig3(scale: Scale) -> Figure {
    let model = NgstModel {
        frames: scale.series_len,
        ..NgstModel::default()
    };
    let n_series = (scale.trials * 20).max(100);
    let mut rng = seeded_rng(0xF16_3000);
    let inj = Uncorrelated::new(0.01).expect("valid probability");
    let workload: Vec<Vec<u16>> = (0..n_series)
        .map(|_| {
            let mut s = model.series(&mut rng);
            inj.inject_words(&mut s, &mut rng);
            s
        })
        .collect();

    let time_algo = |algo: &dyn SeriesPreprocessor<u16>| -> f64 {
        let start = Instant::now();
        for s in &workload {
            let mut w = s.clone();
            algo.preprocess(&mut w);
        }
        start.elapsed().as_secs_f64() * 1e6 / n_series as f64
    };

    let lambdas: Vec<f64> = (0..=10).map(|i| f64::from(i) * 10.0).collect();
    let mut algo_ys = Vec::new();
    for &l in &lambdas {
        let algo = AlgoNgst::new(Upsilon::FOUR, lambda(l as u32));
        algo_ys.push(time_algo(&algo));
    }
    let median_t = time_algo(&MedianSmoother::new());
    let bitvote_t = time_algo(&BitVoter::new());
    Figure {
        id: "fig3".into(),
        title: "Preprocessing overhead as a function of sensitivity".into(),
        xlabel: "Lambda".into(),
        ylabel: "microseconds per series".into(),
        xs: lambdas.clone(),
        series: vec![
            Series::from_means("Algo_NGST", algo_ys),
            Series::from_means("MedianSmoothing", vec![median_t; lambdas.len()]),
            Series::from_means("BitVoting", vec![bitvote_t; lambdas.len()]),
        ],
    }
}

/// **Figure 4** — Ψ vs Γ_ini under the correlated (burst) fault model, on
/// full stacks so the 2-D memory-run structure is exercised.
pub fn fig4(scale: Scale) -> Figure {
    let edge = scale.stack_edge;
    let model = NgstModel {
        frames: scale.series_len,
        ..NgstModel::default()
    };
    let median = MedianSmoother::new();
    let bitvote = BitVoter::new();
    // The paper ran Algo_NGST at experimentally optimized Λ; emulate that
    // with a small candidate set and keep the best per grid point.
    let candidates: Vec<AlgoNgst> = [50, 80, 95]
        .iter()
        .map(|&l| AlgoNgst::new(Upsilon::FOUR, lambda(l)))
        .collect();

    let mut series = vec![
        Series::from_means("NoPreprocessing", vec![]),
        Series::from_means("MedianSmoothing", vec![]),
        Series::from_means("BitVoting", vec![]),
        Series::from_means("Algo_NGST(opt L)", vec![]),
    ];
    let trials = scale.trials.div_ceil(4).max(2);
    for (gi, &g) in FIG4_GAMMA_INI_GRID.iter().enumerate() {
        let inj = Correlated::new(g).expect("grid probabilities are valid");
        let mut sums = [0.0f64; 3];
        let mut algo_sums = vec![0.0f64; candidates.len()];
        for t in 0..trials {
            let mut rng = seeded_rng(0xF16_4000 + gi as u64 * 131 + t as u64);
            let clean = model.stack(edge, edge, &mut rng);
            let mut corrupted = clean.clone();
            inj.inject_stack(&mut corrupted, &mut rng);
            sums[0] += psi(clean.as_slice(), corrupted.as_slice());
            let runs: [&(dyn SeriesPreprocessor<u16> + Sync); 2] = [&median, &bitvote];
            for (i, r) in runs.iter().enumerate() {
                let mut work = corrupted.clone();
                Preprocessor::new(r).naive(true).run(&mut work);
                sums[i + 1] += psi(clean.as_slice(), work.as_slice());
            }
            for (ai, algo) in candidates.iter().enumerate() {
                let mut work = corrupted.clone();
                Preprocessor::new(algo).naive(true).run(&mut work);
                algo_sums[ai] += psi(clean.as_slice(), work.as_slice());
            }
        }
        for (s, sum) in series.iter_mut().take(3).zip(sums) {
            s.ys.push(sum / trials as f64);
        }
        let best = algo_sums.iter().cloned().fold(f64::INFINITY, f64::min);
        series[3].ys.push(best / trials as f64);
    }
    Figure {
        id: "fig4".into(),
        title: "Performance comparison for NGST datasets with correlated faults".into(),
        xlabel: "Gamma_ini".into(),
        ylabel: "average relative error Psi".into(),
        xs: FIG4_GAMMA_INI_GRID.to_vec(),
        series,
    }
}

/// The mean-intensity grid of Fig. 5 (the "entire gamut" of 16-bit values;
/// background noise keeps reads non-zero).
pub const GAMUT_GRID: [f64; 9] = [
    500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0, 45_000.0, 60_000.0,
];

/// **Figure 5** — Ψ across the gamut of mean dataset intensities at
/// Γ₀ = 2.5 %, Υ = 4 and the optimum Λ per dataset (selected from a small
/// candidate set, as the paper optimized experimentally).
pub fn fig5(scale: Scale) -> Figure {
    let inj = Uncorrelated::new(0.025).expect("valid probability");
    let median = MedianSmoother::new();
    let bitvote = BitVoter::new();
    let candidates: Vec<AlgoNgst> = [20, 50, 80, 95]
        .iter()
        .map(|&l| AlgoNgst::new(Upsilon::FOUR, lambda(l)))
        .collect();

    let mut series = vec![
        Series::from_means("NoPreprocessing", vec![]),
        Series::from_means("MedianSmoothing", vec![]),
        Series::from_means("BitVoting", vec![]),
        Series::from_means("Algo_NGST(opt L)", vec![]),
    ];
    for (mi, &mean) in GAMUT_GRID.iter().enumerate() {
        let model = NgstModel::new(scale.series_len, mean as u16, 250.0);
        let mut sums = [0.0f64; 3];
        let mut algo_sums = vec![0.0f64; candidates.len()];
        for t in 0..scale.trials {
            let mut rng = seeded_rng(0xF16_5000 + mi as u64 * 977 + t as u64);
            let clean = model.series(&mut rng);
            let mut corrupted = clean.clone();
            inj.inject_words(&mut corrupted, &mut rng);
            sums[0] += psi(&clean, &corrupted);
            let mut work = corrupted.clone();
            median.preprocess(&mut work);
            sums[1] += psi(&clean, &work);
            let mut work = corrupted.clone();
            SeriesPreprocessor::<u16>::preprocess(&bitvote, &mut work);
            sums[2] += psi(&clean, &work);
            for (ai, algo) in candidates.iter().enumerate() {
                let mut work = corrupted.clone();
                algo.preprocess(&mut work);
                algo_sums[ai] += psi(&clean, &work);
            }
        }
        let n = scale.trials as f64;
        series[0].ys.push(sums[0] / n);
        series[1].ys.push(sums[1] / n);
        series[2].ys.push(sums[2] / n);
        let best = algo_sums.iter().cloned().fold(f64::INFINITY, f64::min);
        series[3].ys.push(best / n);
    }
    Figure {
        id: "fig5".into(),
        title: "Performance characteristics across the entire gamut of datasets".into(),
        xlabel: "mean intensity".into(),
        ylabel: "average relative error Psi".into(),
        xs: GAMUT_GRID.to_vec(),
        series,
    }
}

/// The σ grid of the §6 quasi-NGST study: constant, low, NMS-like, and
/// extremely turbulent (overflow-truncating) datasets.
pub const SIGMA_GRID: [f64; 4] = [0.0, 25.0, 250.0, 8_000.0];

/// **Figure 6** — the Υ study on quasi-NGST datasets: one sub-figure per σ,
/// each sweeping Γ₀ for Υ ∈ {2, 4, 6} (all from Π(1) = 27000, as §6).
pub fn fig6(scale: Scale) -> Vec<Figure> {
    let gammas = [0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3];
    SIGMA_GRID
        .iter()
        .enumerate()
        .map(|(si, &sigma)| {
            let model = NgstModel::new(scale.series_len, 27_000, sigma);
            let a2 = AlgoNgst::new(Upsilon::TWO, lambda(80));
            let a4 = AlgoNgst::new(Upsilon::FOUR, lambda(80));
            let a6 = AlgoNgst::new(Upsilon::SIX, lambda(80));
            let algos: Vec<(&str, &dyn SeriesPreprocessor<u16>)> =
                vec![("Upsilon=2", &a2), ("Upsilon=4", &a4), ("Upsilon=6", &a6)];
            let mut series: Vec<Series> = Vec::new();
            for (gi, &g) in gammas.iter().enumerate() {
                let inj = Uncorrelated::new(g).expect("valid probability");
                let res = psi_over_series(
                    scale,
                    &model,
                    0xF16_6000 + si as u64 * 7919 + gi as u64,
                    |s, rng| {
                        inj.inject_words(s, rng);
                    },
                    &algos,
                );
                for (label, stats) in res {
                    match series.iter_mut().find(|s| s.label == label) {
                        Some(s) => s.push(stats),
                        None => {
                            let mut s = Series::new(label);
                            s.push(stats);
                            series.push(s);
                        }
                    }
                }
            }
            Figure {
                id: format!("fig6-sigma{sigma}"),
                title: format!("Quasi-NGST dataset, sigma = {sigma}: Upsilon comparison"),
                xlabel: "Gamma0".into(),
                ylabel: "average relative error Psi".into(),
                xs: gammas.to_vec(),
                series,
            }
        })
        .collect()
}

/// **§2 claim** — compression-ratio degradation: Rice ratio of a clean
/// baseline versus cosmic-ray-struck and bit-flipped versions.
pub fn compression_claim(scale: Scale) -> Figure {
    let edge = scale.stack_edge.max(32);
    let cfg = DetectorConfig {
        width: edge,
        height: edge,
        frames: 16,
        read_noise: 10.0,
        ..DetectorConfig::default()
    };
    let det = UpTheRamp::new(cfg);
    let mut rng = seeded_rng(0xC0_DEC);
    let flux = preflight_datagen::ngst::sky_image(edge, edge, 2_000, 6, &mut rng)
        .map(|v| v as f32 / 100.0);
    let clean = det.clean_stack(&flux, &mut rng);
    let codec = RiceCodec::new();
    let ratio_clean = codec.compression_ratio(clean.as_slice());

    let mut with_cr = clean.clone();
    CosmicRayModel::default().strike(&mut with_cr, &mut rng);
    let ratio_cr = codec.compression_ratio(with_cr.as_slice());

    let gammas = [0.0, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05];
    let mut flip_ys = Vec::new();
    for &g in &gammas {
        let mut flipped = clean.clone();
        Uncorrelated::new(g)
            .expect("valid probability")
            .inject_stack(&mut flipped, &mut seeded_rng(0xC0_DEC + (g * 1e6) as u64));
        flip_ys.push(codec.compression_ratio(flipped.as_slice()));
    }
    Figure {
        id: "compression".into(),
        title: "Rice compression ratio degradation under CR hits and bit-flips (section 2)".into(),
        xlabel: "Gamma0".into(),
        ylabel: "compression ratio".into(),
        xs: gammas.to_vec(),
        series: vec![
            Series::from_means("bit-flipped", flip_ys),
            Series::from_means("clean", vec![ratio_clean; gammas.len()]),
            Series::from_means("with CR hits", vec![ratio_cr; gammas.len()]),
        ],
    }
}

/// **Ablation A1** — the GRT (Υ−1-of-Υ, window A) combiner on vs off.
pub fn ablation_windows(scale: Scale) -> Figure {
    let model = NgstModel {
        frames: scale.series_len,
        ..NgstModel::default()
    };
    let with_grt = AlgoNgst::new(Upsilon::FOUR, lambda(80));
    let without = AlgoNgst::with_config(
        Upsilon::FOUR,
        lambda(80),
        NgstConfig {
            use_grt: false,
            ..NgstConfig::default()
        },
    );
    let algos: Vec<(&str, &dyn SeriesPreprocessor<u16>)> =
        vec![("GRT on", &with_grt), ("GRT off", &without)];
    let mut series: Vec<Series> = Vec::new();
    for (gi, &g) in GAMMA0_GRID.iter().enumerate() {
        let inj = Uncorrelated::new(g).expect("valid probability");
        let res = psi_over_series(
            scale,
            &model,
            0xAB1_0000 + gi as u64,
            |s, rng| {
                inj.inject_words(s, rng);
            },
            &algos,
        );
        for (label, stats) in res {
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.push(stats),
                None => {
                    let mut s = Series::new(label);
                    s.push(stats);
                    series.push(s);
                }
            }
        }
    }
    Figure {
        id: "ablation-windows".into(),
        title: "Ablation: near-unanimous (GRT) window-A combiner on vs off".into(),
        xlabel: "Gamma0".into(),
        ylabel: "average relative error Psi".into(),
        xs: GAMMA0_GRID.to_vec(),
        series,
    }
}

/// **Ablation A2** — dynamic window delimiters vs frozen static widths,
/// across dataset turbulence.
pub fn ablation_static(scale: Scale) -> Figure {
    let sigmas = [0.0, 25.0, 100.0, 250.0, 1_000.0, 4_000.0];
    let inj = Uncorrelated::new(0.025).expect("valid probability");
    let dynamic = AlgoNgst::new(Upsilon::FOUR, lambda(80));
    let static_narrow = AlgoNgst::with_config(
        Upsilon::FOUR,
        lambda(80),
        NgstConfig {
            static_windows: Some((2, 10)),
            ..NgstConfig::default()
        },
    );
    let static_wide = AlgoNgst::with_config(
        Upsilon::FOUR,
        lambda(80),
        NgstConfig {
            static_windows: Some((4, 4)),
            ..NgstConfig::default()
        },
    );
    let algos: Vec<(&str, &dyn SeriesPreprocessor<u16>)> = vec![
        ("dynamic windows", &dynamic),
        ("static A=2,C=10", &static_narrow),
        ("static A=4,C=4", &static_wide),
    ];
    let mut series: Vec<Series> = Vec::new();
    for (si, &sigma) in sigmas.iter().enumerate() {
        let model = NgstModel::new(scale.series_len, 27_000, sigma);
        let res = psi_over_series(
            scale,
            &model,
            0xAB2_0000 + si as u64,
            |s, rng| {
                inj.inject_words(s, rng);
            },
            &algos,
        );
        for (label, stats) in res {
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.push(stats),
                None => {
                    let mut s = Series::new(label);
                    s.push(stats);
                    series.push(s);
                }
            }
        }
    }
    Figure {
        id: "ablation-static".into(),
        title: "Ablation: dynamic vs static bit-window delimiters across turbulence".into(),
        xlabel: "sigma".into(),
        ylabel: "average relative error Psi".into(),
        xs: sigmas.to_vec(),
        series,
    }
}

/// **Ablation A3** — iterative preprocessing: 1 vs 2 vs 3 analyze-and-
/// repair rounds across Γ₀. Targets deviation D1: the dynamic cut-offs are
/// estimated from corrupted data, so at high fault rates a second round —
/// re-estimating thresholds from the partially cleaned series — recovers
/// flips the first round's inflated thresholds hid.
pub fn ablation_passes(scale: Scale) -> Figure {
    let model = NgstModel {
        frames: scale.series_len,
        ..NgstModel::default()
    };
    let mk = |passes: usize| {
        AlgoNgst::with_config(
            Upsilon::FOUR,
            lambda(95),
            NgstConfig {
                passes,
                ..NgstConfig::default()
            },
        )
    };
    let (p1, p2, p3) = (mk(1), mk(2), mk(3));
    let algos: Vec<(&str, &dyn SeriesPreprocessor<u16>)> =
        vec![("1 pass", &p1), ("2 passes", &p2), ("3 passes", &p3)];
    let mut series: Vec<Series> = Vec::new();
    for (gi, &g) in GAMMA0_GRID.iter().enumerate() {
        let inj = Uncorrelated::new(g).expect("grid probabilities are valid");
        let res = psi_over_series(
            scale,
            &model,
            0xAB4_0000 + gi as u64,
            |s, rng| {
                inj.inject_words(s, rng);
            },
            &algos,
        );
        for (label, stats) in res {
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.push(stats),
                None => {
                    let mut s = Series::new(label);
                    s.push(stats);
                    series.push(s);
                }
            }
        }
    }
    Figure {
        id: "ablation-passes".into(),
        title: "Ablation: iterative analyze-and-repair rounds (deviation D1 mitigation)".into(),
        xlabel: "Gamma0".into(),
        ylabel: "average relative error Psi".into(),
        xs: GAMMA0_GRID.to_vec(),
        series,
    }
}

/// **§2.1 design estimate** — distributed scaling of the master/slave
/// pipeline: wall time and speedup as workers grow toward the flight
/// estimate of 16 COTS processors, with the preprocessing stage enabled
/// (the work the "slack CPU time" absorbs). Each wall time is the median
/// of 5 runs, reported with its interquartile range.
pub fn scaling(scale: Scale) -> Figure {
    use preflight_ngst::{NgstPipeline, PipelineConfig, TransitFault};

    let edge = (scale.stack_edge * 2).max(64);
    let model = NgstModel {
        frames: scale.series_len.max(32),
        ..NgstModel::default()
    };
    let stack = model.stack(edge, edge, &mut seeded_rng(0x5CA1E));
    let workers: Vec<f64> = vec![1.0, 2.0, 4.0, 8.0, 16.0];
    let mut elapsed_ms = Vec::new();
    let mut iqr_ms = Vec::new();
    for &w in &workers {
        let pipeline = NgstPipeline::new(PipelineConfig {
            workers: w as usize,
            tile_size: (edge / 4).max(8),
            preprocess: Some(AlgoNgst::new(Upsilon::FOUR, lambda(80))),
            transit_fault: Some(TransitFault::Uncorrelated(0.005)),
            seed: 1,
            ..PipelineConfig::default()
        })
        .expect("valid pipeline config");
        let mut runs: Vec<f64> = (0..5)
            .map(|_| {
                let rep = pipeline.run(&stack).expect("pipeline run");
                rep.elapsed.as_secs_f64() * 1e3
            })
            .collect();
        let (median, iqr) = crate::perf::median_iqr(&mut runs);
        elapsed_ms.push(median);
        iqr_ms.push(iqr);
    }
    let speedup: Vec<f64> = elapsed_ms.iter().map(|&t| elapsed_ms[0] / t).collect();
    Figure {
        id: "scaling".into(),
        title: "Section 2.1: master/slave pipeline scaling toward the 16-processor estimate".into(),
        xlabel: "workers".into(),
        ylabel: "milliseconds (and speedup vs 1 worker)".into(),
        xs: workers,
        series: vec![
            Series::from_means("wall time (ms)", elapsed_ms),
            Series::from_means("wall time IQR (ms)", iqr_ms),
            Series::from_means("speedup", speedup),
        ],
    }
}

/// **§6 claim (X1)** — the Ψ *improvement factor* of preprocessing over
/// raw data across Γ₀, for the best Λ per point and for median smoothing.
/// The paper quotes "an order of magnitude in the range ~50 to ~1000 on an
/// average for Γ₀ ≤ 10 %" (see EXPERIMENTS.md deviation D1 for how far the
/// reproduction gets).
pub fn improvement_factors(scale: Scale) -> Figure {
    let fig = fig2(scale);
    let nopre = fig
        .series("NoPreprocessing")
        .expect("fig2 always emits it")
        .ys
        .clone();
    let median = fig
        .series("MedianSmoothing")
        .expect("fig2 always emits it")
        .ys
        .clone();
    let best_algo: Vec<f64> = (0..fig.xs.len())
        .map(|i| {
            fig.series
                .iter()
                .filter(|s| s.label.starts_with("Algo_NGST"))
                .map(|s| s.ys[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let ratio = |num: &[f64], den: &[f64]| -> Vec<f64> {
        num.iter()
            .zip(den)
            .map(|(n, d)| if *d > 0.0 { n / d } else { f64::NAN })
            .collect()
    };
    Figure {
        id: "factors".into(),
        title: "Section 6 claim: Psi improvement factor of preprocessing over raw data".into(),
        xlabel: "Gamma0".into(),
        ylabel: "Psi_NoPreprocessing / Psi_Algorithm".into(),
        xs: fig.xs,
        series: vec![
            Series::from_means("Algo_NGST (best L)", ratio(&nopre, &best_algo)),
            Series::from_means("MedianSmoothing", ratio(&nopre, &median)),
        ],
    }
}

/// **§4.1 claim** — median smoothing *"yields far better results than Mean
/// Smoothing, due to the better robustness of median over mean"*.
pub fn mean_vs_median(scale: Scale) -> Figure {
    let model = NgstModel {
        frames: scale.series_len,
        ..NgstModel::default()
    };
    let median = MedianSmoother::new();
    let mean = preflight_core::MeanSmoother::new();
    let algos: Vec<(&str, &dyn SeriesPreprocessor<u16>)> =
        vec![("MedianSmoothing", &median), ("MeanSmoothing", &mean)];
    let mut series: Vec<Series> = Vec::new();
    for (gi, &g) in GAMMA0_GRID.iter().enumerate() {
        let inj = Uncorrelated::new(g).expect("grid probabilities are valid");
        let res = psi_over_series(
            scale,
            &model,
            0x4A1_0000 + gi as u64,
            |s, rng| {
                inj.inject_words(s, rng);
            },
            &algos,
        );
        for (label, stats) in res {
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.push(stats),
                None => {
                    let mut s = Series::new(label);
                    s.push(stats);
                    series.push(s);
                }
            }
        }
    }
    Figure {
        id: "mean-vs-median".into(),
        title: "Section 4.1 claim: robustness of median over mean smoothing".into(),
        xlabel: "Gamma0".into(),
        ylabel: "average relative error Psi".into(),
        xs: GAMMA0_GRID.to_vec(),
        series,
    }
}

/// **§8 claim** — *"storing the neighboring pixels using a preset mapping
/// into different physical regions in the memory organization"* defeats
/// correlated block faults.
///
/// Two physical placements of the same NGST stack take the same burst
/// process:
///
/// - **series-contiguous** — each coordinate's temporal series occupies
///   consecutive words (the cache-friendly naive layout); one burst wipes a
///   run of temporal *neighbors* and the voters lose their redundancy;
/// - **dispersed (frame-major)** — consecutive readouts of a coordinate sit
///   a whole frame apart (the recommended preset mapping); the same burst
///   scatters into single samples of many different series, which the
///   voters repair easily.
pub fn interleave_claim(scale: Scale) -> Figure {
    use preflight_faults::BlockFault;

    let edge = scale.stack_edge;
    let frames = scale.series_len;
    let model = NgstModel {
        frames,
        ..NgstModel::default()
    };
    let algo = AlgoNgst::new(Upsilon::FOUR, lambda(80));
    // Fixed damage budget (2 % of all words), swept across burst lengths:
    // the left end is near-uncorrelated damage, the right end full strikes.
    let burst_lens: Vec<f64> = vec![1.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let budget = (edge * edge * frames) / 50;
    let mut series = vec![
        Series::from_means("NoPreprocessing", vec![]),
        Series::from_means("Algo_NGST series-contiguous", vec![]),
        Series::from_means("Algo_NGST dispersed", vec![]),
    ];
    let trials = scale.trials.div_ceil(4).max(2);
    for (bi, &bl) in burst_lens.iter().enumerate() {
        let inj = BlockFault::with_budget(budget, bl as usize);
        let mut sums = [0.0f64; 3];
        for t in 0..trials {
            let mut rng = seeded_rng(0xAB3_0000 + bi as u64 * 31 + t as u64);
            let clean = model.stack(edge, edge, &mut rng);

            // (a) Series-contiguous placement: transpose to series-major,
            // inject the bursts there, transpose back. One burst wipes a
            // run of temporal neighbors of the same coordinate.
            let mut series_major: Vec<u16> = Vec::with_capacity(clean.len());
            let mut buf = Vec::with_capacity(frames);
            for y in 0..edge {
                for x in 0..edge {
                    clean.gather_series(x, y, &mut buf);
                    series_major.extend_from_slice(&buf);
                }
            }
            inj.inject_words(&mut series_major, &mut rng);
            let mut contiguous = clean.clone();
            for (c, chunk) in series_major.chunks_exact(frames).enumerate() {
                contiguous.scatter_series(c % edge, c / edge, chunk);
            }
            sums[0] += psi(clean.as_slice(), contiguous.as_slice());
            Preprocessor::new(&algo).naive(true).run(&mut contiguous);
            sums[1] += psi(clean.as_slice(), contiguous.as_slice());

            // (b) Dispersed (frame-major) placement: the same burst process
            // on the recommended preset mapping — consecutive readouts of a
            // coordinate sit a whole frame apart, so a burst touches many
            // series once each.
            let mut dispersed = clean.clone();
            inj.inject_words(dispersed.as_mut_slice(), &mut rng);
            Preprocessor::new(&algo).naive(true).run(&mut dispersed);
            sums[2] += psi(clean.as_slice(), dispersed.as_slice());
        }
        for (s, sum) in series.iter_mut().zip(sums) {
            s.ys.push(sum / trials as f64);
        }
    }
    Figure {
        id: "interleave".into(),
        title: "Section 8 recommendation: dispersed physical placement vs block faults".into(),
        xlabel: "burst words".into(),
        ylabel: "average relative error Psi".into(),
        xs: burst_lens,
        series,
    }
}
