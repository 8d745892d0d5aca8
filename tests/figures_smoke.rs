//! Shape checks for every reproduced figure, at a tiny scale.
//!
//! Absolute Ψ values depend on the synthetic substrate; what must hold —
//! and what the paper's conclusions rest on — are the *orderings*: who
//! wins, where the margins are large, and where behavior degrades. These
//! assertions are deliberately aggregate (averaged over grid prefixes) so
//! they are stable at smoke-test sample counts.

use preflight_bench::report::Scale;
use preflight_bench::{self as bench, Figure};

fn tiny() -> Scale {
    Scale {
        trials: 8,
        series_len: 64,
        otis_size: 24,
        stack_edge: 8,
    }
}

/// Mean of the first `k` points of a labelled series.
fn head_mean(fig: &Figure, label: &str, k: usize) -> f64 {
    let s = fig
        .series(label)
        .unwrap_or_else(|| panic!("series {label} in {}", fig.id));
    let k = k.min(s.ys.len());
    s.ys[..k].iter().sum::<f64>() / k as f64
}

#[test]
fn fig2_algo_beats_baselines_in_practical_range() {
    let fig = bench::fig2(tiny());
    // Over the practical range (first 4 grid points, Γ₀ ≤ 1 %), the best
    // sensitivity beats median smoothing, which beats raw data.
    let nopre = head_mean(&fig, "NoPreprocessing", 4);
    let median = head_mean(&fig, "MedianSmoothing", 4);
    let best_algo = [20u32, 50, 80, 95]
        .iter()
        .map(|l| head_mean(&fig, &format!("Algo_NGST(L={l})"), 4))
        .fold(f64::INFINITY, f64::min);
    assert!(
        median < nopre,
        "median {median} !< no-preprocessing {nopre}"
    );
    assert!(
        best_algo < median / 2.0,
        "Algo_NGST {best_algo} !≪ median {median}"
    );
    // The paper's headline factor: an order of magnitude or more.
    assert!(
        nopre / best_algo > 10.0,
        "improvement factor {}",
        nopre / best_algo
    );
}

#[test]
fn fig3_lambda_zero_is_nearly_free() {
    let fig = bench::fig3(tiny());
    let algo = fig.series("Algo_NGST").unwrap();
    let at_zero = algo.ys[0];
    let at_eighty = algo.ys[8];
    assert!(
        at_zero < at_eighty / 5.0,
        "Λ=0 must be almost free ({at_zero} vs {at_eighty} µs)"
    );
}

#[test]
fn fig4_correlated_faults_algo_wins_and_smoothers_tie() {
    let fig = bench::fig4(tiny());
    let nopre = head_mean(&fig, "NoPreprocessing", 3);
    let median = head_mean(&fig, "MedianSmoothing", 3);
    let bitvote = head_mean(&fig, "BitVoting", 3);
    let algo = head_mean(&fig, "Algo_NGST(opt L)", 3);
    assert!(
        algo < median && algo < bitvote,
        "algo {algo} vs median {median}, bitvote {bitvote}"
    );
    assert!(algo < nopre / 5.0);
    // "both of which show quite similar performance"
    let ratio = median.max(bitvote) / median.min(bitvote);
    assert!(
        ratio < 3.0,
        "smoothers should be comparable (ratio {ratio})"
    );
}

#[test]
fn fig5_gamut_algo_dominates_and_relative_error_falls_with_intensity() {
    let fig = bench::fig5(tiny());
    let nopre = fig.series("NoPreprocessing").unwrap();
    assert!(
        nopre.ys.first().unwrap() > nopre.ys.last().unwrap(),
        "relative error must fall as mean intensity rises"
    );
    let algo = head_mean(&fig, "Algo_NGST(opt L)", 9);
    let median = head_mean(&fig, "MedianSmoothing", 9);
    assert!(
        algo < median,
        "algo {algo} !< median {median} across the gamut"
    );
}

#[test]
fn fig6_upsilon_crossovers() {
    let figs = bench::fig6(tiny());
    // σ = 0 (first figure): more voters help — Υ=4/6 must beat Υ=2 on the
    // low-Γ half of the grid.
    let calm = &figs[0];
    let u2 = head_mean(calm, "Upsilon=2", 4);
    let u4 = head_mean(calm, "Upsilon=4", 4);
    let u6 = head_mean(calm, "Upsilon=6", 4);
    assert!(
        u4 <= u2 && u6 <= u2,
        "σ=0: Υ=4 ({u4}) / Υ=6 ({u6}) must beat Υ=2 ({u2})"
    );
    // Every σ: preprocessing beats raw data on the practical half.
    for fig in &figs[..3] {
        let nopre = head_mean(fig, "NoPreprocessing", 4);
        let best = ["Upsilon=2", "Upsilon=4", "Upsilon=6"]
            .iter()
            .map(|l| head_mean(fig, l, 4))
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < nopre,
            "{}: best Υ {best} !< no-preprocessing {nopre}",
            fig.id
        );
    }
}

#[test]
fn fig7_otis_ordering_matches_paper() {
    for fig in bench::fig7(tiny()) {
        let n = fig.xs.len();
        let nopre = head_mean(&fig, "NoPreprocessing", n);
        let median = head_mean(&fig, "MedianSmoothing", n);
        let bitvote = head_mean(&fig, "BitVoting", n);
        let algo = head_mean(&fig, "Algo_OTIS", n);
        assert!(
            algo < nopre / 2.0,
            "{}: algo {algo} vs nopre {nopre}",
            fig.id
        );
        assert!(algo < median, "{}: algo {algo} !< median {median}", fig.id);
        assert!(
            algo < bitvote,
            "{}: algo {algo} !< bitvote {bitvote}",
            fig.id
        );
        // "The Majority Bit Voting Algorithm … appears to be overall better
        // than … Median Smoothing" — on the upper half of the Γ grid.
        let med_hi: f64 = fig.series("MedianSmoothing").unwrap().ys[n / 2..]
            .iter()
            .sum::<f64>();
        let bit_hi: f64 = fig.series("BitVoting").unwrap().ys[n / 2..]
            .iter()
            .sum::<f64>();
        assert!(
            bit_hi < med_hi,
            "{}: bit-voting must win at high Γ₀",
            fig.id
        );
    }
}

#[test]
fn fig9_preprocessing_saturates_at_high_gamma_ini() {
    for fig in bench::fig9(tiny()) {
        let nopre = fig.series("NoPreprocessing").unwrap();
        let algo = fig.series("Algo_OTIS").unwrap();
        // Strong win at the practical end…
        assert!(
            algo.ys[0] < nopre.ys[0] / 2.0,
            "{}: algo must win at Γ_ini = 0.05",
            fig.id
        );
        // …but past the breakdown region the benefit collapses (the paper's
        // deterioration regime): improvement factor below 1.15 at the top.
        let last = algo.ys.last().unwrap();
        let last_nopre = nopre.ys.last().unwrap();
        assert!(
            last_nopre / last < 1.15,
            "{}: breakdown missing (factor {})",
            fig.id,
            last_nopre / last
        );
    }
}

#[test]
fn improvement_factors_match_the_practical_range_claim() {
    let fig = bench::improvement_factors(tiny());
    let algo = fig.series("Algo_NGST (best L)").unwrap();
    // Order-of-magnitude improvement in the practical low-Γ₀ range.
    let head = algo.ys[..3].iter().sum::<f64>() / 3.0;
    assert!(head > 10.0, "mean low-Γ₀ factor {head}");
    // And the factor decays toward 1 at the extreme end.
    assert!(*algo.ys.last().unwrap() < head);
}

#[test]
fn median_beats_mean_smoothing() {
    let fig = bench::mean_vs_median(tiny());
    let n = fig.xs.len();
    let median = head_mean(&fig, "MedianSmoothing", n);
    let mean = head_mean(&fig, "MeanSmoothing", n);
    assert!(
        median < mean / 1.5,
        "§4.1: median ({median}) must clearly beat mean ({mean})"
    );
}

#[test]
fn motivation_table_reproduces_the_section1_argument() {
    let fig = bench::motivation(tiny());
    let at = |label: &str, class: usize| fig.series(label).unwrap().ys[class - 1];

    // Input bit-flips: ABFT and NVP are *exactly* as bad as no protection —
    // the checksums certify the garbage and every version agrees on it.
    let unprotected = at("Unprotected", 1);
    assert!(unprotected > 0.0);
    assert_eq!(
        at("ABFT", 1),
        unprotected,
        "ABFT must be blind to input faults"
    );
    assert_eq!(
        at("NVP(3)", 1),
        unprotected,
        "NVP must be blind to input faults"
    );
    assert!(
        at("Preprocessing", 1) < unprotected / 3.0,
        "preprocessing must cover the input-fault class"
    );

    // Computation faults: the classical schemes win, preprocessing cannot.
    assert!(at("Unprotected", 2) > 0.0);
    assert!(at("ABFT", 2) < at("Unprotected", 2) / 100.0);
    assert!(at("NVP(3)", 2) < at("Unprotected", 2) / 100.0);
    assert_eq!(
        at("Preprocessing", 2),
        at("Unprotected", 2),
        "preprocessing runs before the computation and never sees this class"
    );
}

#[test]
fn scaling_experiment_is_sane() {
    // Speedup itself is host-dependent (a single-core CI box shows ~1.0
    // across the board), so assert only the invariants: positive times,
    // speedup normalized to 1 at one worker, and no pathological collapse
    // from threading overhead.
    let fig = bench::scaling(tiny());
    let time = fig.series("wall time (ms)").unwrap();
    let speedup = fig.series("speedup").unwrap();
    assert!(time.ys.iter().all(|&t| t > 0.0));
    assert!((speedup.ys[0] - 1.0).abs() < 1e-12);
    assert!(
        speedup.ys.iter().all(|&s| s > 0.5),
        "worker threading must not halve throughput: {:?}",
        speedup.ys
    );
}

#[test]
fn recovery_supervision_preserves_the_product_under_process_faults() {
    let fig = bench::fig_recovery(tiny());
    let supervised = fig.series("supervised (retry + degrade)").unwrap();
    let unsupervised = fig.series("unsupervised").unwrap();
    // No injected faults → both runtimes reproduce the reference exactly.
    assert!(supervised.ys[0].abs() < 1e-9, "{:?}", supervised.ys);
    assert!(unsupervised.ys[0].abs() < 1e-9, "{:?}", unsupervised.ys);
    // Through p = 0.2 the supervisor retries (and, rarely, degrades) its
    // way to a usable product.
    assert!(
        supervised.ys[..5].iter().all(|&y| y < 0.5),
        "supervised error must stay usable through p=0.2: {:?}",
        supervised.ys
    );
    // Without supervision the product is lost (scored as the all-zero
    // estimate, Ψ = 1) or silently corrupted (flipped f32 exponent bits
    // make Ψ astronomical) at the heavy end.
    let raw_last = *unsupervised.ys.last().unwrap();
    assert!(
        raw_last >= 0.5,
        "unsupervised runs must mostly lose the product at the heavy end: {raw_last}"
    );
    // At a brutal 40 % per-attempt fault rate the ladder may settle whole
    // tiles on the median-smoother rung, whose Ψ against the pristine
    // preprocessed reference can exceed the all-zero score of a *lost*
    // product — so compare envelopes, not point values: the supervised
    // error stays within the degradation ladder's bounded envelope, never
    // the unbounded corruption of an unsupervised run.
    let sup_last = *supervised.ys.last().unwrap();
    assert!(
        sup_last.is_finite() && sup_last < 10.0,
        "supervised error must stay within the ladder envelope: {sup_last}"
    );
    let sup_total: f64 = supervised.ys.iter().sum();
    let raw_total: f64 = unsupervised.ys.iter().sum();
    assert!(
        sup_total < raw_total,
        "supervision must win on aggregate: {sup_total} vs {raw_total}"
    );
}

#[test]
fn compression_claim_clean_beats_damaged() {
    let fig = bench::compression_claim(tiny());
    let clean = fig.series("clean").unwrap().ys[0];
    let cr = fig.series("with CR hits").unwrap().ys[0];
    let flipped = fig.series("bit-flipped").unwrap();
    assert!(cr < clean, "CR hits must cost compression ratio");
    assert!(
        flipped.ys.last().unwrap() < &clean,
        "bit-flips must cost compression ratio"
    );
    // Degradation grows with Γ₀.
    assert!(flipped.ys.last().unwrap() < &flipped.ys[0]);
}

#[test]
fn interleave_dispersal_defeats_bursts() {
    let fig = bench::interleave_claim(tiny());
    let contiguous = fig.series("Algo_NGST series-contiguous").unwrap();
    let dispersed = fig.series("Algo_NGST dispersed").unwrap();
    // At single-word bursts the layouts are equivalent…
    assert!(contiguous.ys[0] < dispersed.ys[0] * 3.0 + 1e-9);
    // …at long bursts the dispersed placement wins decisively.
    let c_last = contiguous.ys.last().unwrap();
    let d_last = dispersed.ys.last().unwrap();
    assert!(
        *d_last < c_last / 3.0,
        "dispersed {d_last} must beat contiguous {c_last} under long bursts"
    );
}

#[test]
fn spatial_beats_spectral_locality() {
    let fig = bench::spatial_vs_spectral(tiny());
    let n = fig.xs.len();
    let spatial = head_mean(&fig, "Algo_OTIS spatial", n);
    let spectral = head_mean(&fig, "Algo_OTIS spectral", n);
    assert!(
        spatial < spectral,
        "spatial {spatial} !< spectral {spectral}"
    );
}

#[test]
fn ablation_grt_never_hurts_much_and_usually_helps() {
    let fig = bench::ablation_windows(tiny());
    let n = fig.xs.len();
    let on = head_mean(&fig, "GRT on", n);
    let off = head_mean(&fig, "GRT off", n);
    assert!(on <= off * 1.05, "GRT on {on} should not lose to off {off}");
}

#[test]
fn ablation_second_pass_helps_at_high_gamma() {
    let fig = bench::ablation_passes(tiny());
    let one = fig.series("1 pass").unwrap();
    let two = fig.series("2 passes").unwrap();
    let n = fig.xs.len();
    // Across the heavy-corruption tail, the second pass must win on
    // aggregate (threshold re-estimation from partially cleaned data).
    let tail_one: f64 = one.ys[n - 3..].iter().sum();
    let tail_two: f64 = two.ys[n - 3..].iter().sum();
    assert!(
        tail_two < tail_one,
        "2 passes ({tail_two}) must beat 1 pass ({tail_one}) at high Γ₀"
    );
    // And never meaningfully hurt at low Γ₀. Both errors are ~1e-3 here,
    // so the relative guard needs an absolute floor to not flag noise.
    let head_one: f64 = one.ys[..3].iter().sum();
    let head_two: f64 = two.ys[..3].iter().sum();
    assert!(
        head_two <= head_one * 1.2 + 2e-3,
        "{head_two} vs {head_one}"
    );
}

#[test]
fn ablation_dynamic_windows_win_on_calm_data() {
    let fig = bench::ablation_static(tiny());
    let dynamic = fig.series("dynamic windows").unwrap();
    let narrow = fig.series("static A=2,C=10").unwrap();
    // At σ = 0 the dynamic delimiters adapt and must beat the frozen ones.
    assert!(
        dynamic.ys[0] < narrow.ys[0],
        "dynamic {} !< static {} at σ=0",
        dynamic.ys[0],
        narrow.ys[0]
    );
}

#[test]
fn tables_and_csv_render_for_every_figure() {
    let scale = Scale {
        trials: 2,
        series_len: 32,
        otis_size: 16,
        stack_edge: 8,
    };
    let mut figs = vec![
        bench::fig2(scale),
        bench::fig4(scale),
        bench::fig5(scale),
        bench::compression_claim(scale),
        bench::interleave_claim(scale),
    ];
    figs.extend(bench::fig6(scale));
    figs.extend(bench::fig7(scale));
    for fig in figs {
        let table = fig.to_table();
        assert!(table.contains(&fig.id));
        let csv = fig.to_csv();
        assert_eq!(csv.lines().count(), fig.xs.len() + 1, "{} CSV rows", fig.id);
    }
}

/// Checks every point of series `label` in `fig` against `want`, each to
/// within `rel` of its golden value.
fn assert_pinned(fig: &Figure, label: &str, want: &[f64], rel: f64) {
    let got = &fig
        .series(label)
        .unwrap_or_else(|| panic!("series {label} in {}", fig.id))
        .ys;
    assert_eq!(got.len(), want.len(), "{} {label}: grid size", fig.id);
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= rel * w.abs(),
            "{} {label}[{i}]: Ψ {g:e} drifted from the pinned {w:e} (tolerance {rel:e} relative)",
            fig.id
        );
    }
}

/// The orderings above say who wins; these golden Ψ values, taken at the
/// seeded `tiny()` scale, also say by how much, so a change to the oracle
/// (the scalar voter, a generator, the Ψ metric) fails here even when
/// every ordering still holds. The NGST figures are reproducible bit for
/// bit, so they are pinned to 1e-6 relative: far below the effect of one
/// changed repair. The OTIS scenes of fig7 round differently in debug and
/// release builds (one `spots` point moves by 0.2 %), so fig7 is pinned to
/// 1 % relative.
#[test]
fn golden_psi_at_tiny_scale() {
    type Pins = &'static [(&'static str, &'static [f64])];
    const NGST_REL: f64 = 1e-6;
    const OTIS_REL: f64 = 1e-2;
    let check = |fig: &Figure, pins: Pins, rel: f64| {
        for (label, want) in pins {
            assert_pinned(fig, label, want, rel);
        }
    };
    check(
        &bench::fig2(tiny()),
        &[
            (
                "NoPreprocessing",
                &[
                    5.0068525497e-03,
                    2.9629057144e-03,
                    5.5729218939e-03,
                    2.2668020402e-02,
                    6.0248741141e-02,
                    1.2914935024e-01,
                    2.2433712127e-01,
                    3.7722405077e-01,
                    5.2824996394e-01,
                ],
            ),
            (
                "MedianSmoothing",
                &[
                    1.7533622598e-03,
                    1.7938050885e-03,
                    1.8023677383e-03,
                    4.9942558983e-03,
                    4.0921306336e-03,
                    3.5387283157e-02,
                    7.8120124001e-02,
                    1.7270579214e-01,
                    3.3462096268e-01,
                ],
            ),
            (
                "Algo_NGST(L=80)",
                &[
                    2.3242722800e-05,
                    3.8260529337e-04,
                    1.1729032941e-03,
                    1.0528544778e-03,
                    2.8419309053e-03,
                    1.9549124218e-02,
                    1.0163046270e-01,
                    2.8794164506e-01,
                    4.5760379975e-01,
                ],
            ),
        ],
        NGST_REL,
    );
    check(
        &bench::fig4(tiny()),
        &[
            (
                "NoPreprocessing",
                &[
                    9.6909207210e-03,
                    2.1406207677e-02,
                    4.9534726426e-02,
                    8.1273609237e-02,
                    1.1537597007e-01,
                    1.6816125487e-01,
                    2.1071061497e-01,
                ],
            ),
            (
                "MedianSmoothing",
                &[
                    2.5503659925e-03,
                    3.3356083663e-03,
                    5.8996869233e-03,
                    1.0675370484e-02,
                    2.1758114426e-02,
                    3.9390719166e-02,
                    6.9293429292e-02,
                ],
            ),
            (
                "BitVoting",
                &[
                    4.7748659729e-03,
                    5.6717240122e-03,
                    7.6848376010e-03,
                    1.0921817285e-02,
                    2.0817295532e-02,
                    3.5909479642e-02,
                    6.5242745304e-02,
                ],
            ),
            (
                "Algo_NGST(opt L)",
                &[
                    5.6475619430e-04,
                    1.0370796552e-03,
                    3.1436921294e-03,
                    6.0274145466e-03,
                    1.4486017766e-02,
                    3.7050282203e-02,
                    7.2096213042e-02,
                ],
            ),
        ],
        NGST_REL,
    );
    check(
        &bench::fig5(tiny()),
        &[
            (
                "NoPreprocessing",
                &[
                    2.2128470521e+00,
                    1.3657059005e+00,
                    1.7657860054e+00,
                    2.8970299509e-01,
                    1.7164467486e-01,
                    7.3828293879e-02,
                    4.8880731295e-02,
                    3.7514880743e-02,
                    2.8852747912e-02,
                ],
            ),
            (
                "MedianSmoothing",
                &[
                    6.7650484476e-01,
                    2.2081491281e-01,
                    4.0279755010e-01,
                    5.7153919344e-02,
                    1.8722578793e-02,
                    1.3239095528e-02,
                    6.5377540101e-03,
                    8.3851544844e-03,
                    9.2729032454e-03,
                ],
            ),
            (
                "Algo_NGST(opt L)",
                &[
                    3.0293908082e-01,
                    1.0602129222e-01,
                    5.9380228405e-02,
                    2.3667440356e-02,
                    1.0477613723e-02,
                    2.3000620593e-03,
                    4.0509748769e-03,
                    7.2245929629e-03,
                    1.1117963345e-03,
                ],
            ),
        ],
        NGST_REL,
    );
    let fig7 = bench::fig7(tiny());
    let ids: Vec<&str> = fig7.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(ids, ["fig7-blob", "fig7-stripe", "fig7-spots"]);
    check(
        &fig7[0],
        &[
            (
                "NoPreprocessing",
                &[
                    2.3004250182e-02,
                    4.7614422230e-02,
                    8.5314880813e-02,
                    2.0844493409e-01,
                    3.7019314149e-01,
                    4.9333672034e-01,
                    6.1832844571e-01,
                ],
            ),
            (
                "Algo_OTIS",
                &[
                    2.6221184691e-03,
                    3.8096758625e-03,
                    8.9541543825e-03,
                    2.0458218769e-02,
                    5.4774581628e-02,
                    9.2516893924e-02,
                    1.7417929492e-01,
                ],
            ),
        ],
        OTIS_REL,
    );
    check(
        &fig7[1],
        &[
            (
                "NoPreprocessing",
                &[
                    2.1288134202e-02,
                    4.4305768000e-02,
                    8.9725135433e-02,
                    2.0791983953e-01,
                    3.7469916306e-01,
                    5.0771024921e-01,
                    6.1777585695e-01,
                ],
            ),
            (
                "Algo_OTIS",
                &[
                    8.2641080520e-03,
                    1.1024191674e-02,
                    1.2728832944e-02,
                    2.7505805500e-02,
                    5.6189057364e-02,
                    9.9084429364e-02,
                    1.7683795972e-01,
                ],
            ),
        ],
        OTIS_REL,
    );
    check(
        &fig7[2],
        &[
            (
                "NoPreprocessing",
                &[
                    2.4038713310e-02,
                    4.4869919783e-02,
                    8.9676940800e-02,
                    2.1024597824e-01,
                    3.7584246092e-01,
                    5.1058232048e-01,
                    6.1736467038e-01,
                ],
            ),
            (
                "Algo_OTIS",
                &[
                    1.1043978428e-02,
                    1.1592545010e-02,
                    2.2512694261e-02,
                    4.3733556183e-02,
                    7.8288325934e-02,
                    1.3129208980e-01,
                    2.0073447422e-01,
                ],
            ),
        ],
        OTIS_REL,
    );
}
