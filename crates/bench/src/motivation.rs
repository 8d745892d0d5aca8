//! The §1 motivation experiment: why ABFT and NVP do not cover input-data
//! corruption — and why preprocessing does not cover *their* fault class.
//!
//! Workload: a detector-like 16-bit image is the input to a matrix-square
//! science computation. Two fault classes are injected:
//!
//! - **input bit-flips** (the paper's fault model) — flips in the input
//!   buffer *before* any scheme runs;
//! - **computation faults** — a perturbed element during the multiply
//!   (per-version for NVP, in the product for ABFT).
//!
//! Four schemes are measured by the mean relative error of the final
//! product: no protection, ABFT, 3-version NVP, and input preprocessing.
//! The paper's argument falls out as a matrix: each scheme zeros its own
//! column and leaves the other untouched — *"our approach can be a
//! versatile and scalable complement to other fault-tolerance schemes"*.

use crate::report::{Figure, Scale, Series};
use preflight_core::{AlgoNgst, Image, Preprocessor, Sensitivity, Upsilon};
use preflight_faults::{seeded_rng, Uncorrelated};
use preflight_redundancy::{run_nvp, ChecksumMatrix, NvpOutcome, VersionFault};

const SIZE: usize = 12;
const GAMMA0: f64 = 0.004;

/// Mean relative error of `got` against `truth` (both matrices).
fn rel_err(truth: &Image<f64>, got: &Image<f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (t, g) in truth.as_slice().iter().zip(got.as_slice()) {
        if *t != 0.0 {
            sum += ((g - t) / t).abs().min(10.0);
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

fn to_f64(img: &Image<u16>) -> Image<f64> {
    img.map(f64::from)
}

fn square(input: &Image<f64>) -> Image<f64> {
    let n = input.width();
    let mut out = Image::new(n, n);
    for y in 0..n {
        for x in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += input.get(k, y) * input.get(x, k);
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// A smooth detector-like input the spatial preprocessor can vote over
/// (no point sources: a 12-pixel voting window cannot distinguish a sharp
/// PSF from a fault — the OTIS trend rule exists for that; here the point
/// is the fault-class coverage, so the scene is kept calm).
fn clean_input(seed: u64) -> Image<u16> {
    let mut rng = seeded_rng(seed);
    preflight_datagen::ngst::sky_image(SIZE, SIZE, 20_000, 0, &mut rng)
}

/// One trial of one fault class; returns per-scheme relative errors
/// `[unprotected, abft, nvp, preprocessing]`.
fn trial(fault_class: usize, seed: u64) -> [f64; 4] {
    let clean = clean_input(seed);
    let truth = square(&to_f64(&clean));

    match fault_class {
        // ---- input bit-flips: damage precedes every scheme ----
        1 => {
            let mut corrupted = clean.clone();
            Uncorrelated::new(GAMMA0)
                .expect("static probability")
                .inject_words(corrupted.as_mut_slice(), &mut seeded_rng(seed ^ 0xA5));

            let unprotected = rel_err(&truth, &square(&to_f64(&corrupted)));

            // ABFT: checksums generated over the already-corrupted input.
            let a = ChecksumMatrix::encode(&to_f64(&corrupted));
            let mut product = a.multiply(&ChecksumMatrix::encode(&to_f64(&corrupted)));
            product.correct();
            let abft = rel_err(&truth, &product.data());

            // NVP: all three versions read the same corrupted input.
            let (outcome, _) = run_nvp(&to_f64(&corrupted), &[VersionFault::None; 3], seed ^ 0x17);
            let nvp = match outcome {
                NvpOutcome::Agreed { output, .. } => rel_err(&truth, &output),
                NvpOutcome::NoMajority => unprotected,
            };

            // Input preprocessing: repair first, then compute.
            let mut repaired = corrupted.clone();
            let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).expect("valid Λ"));
            Preprocessor::new(algo).run_image(&mut repaired);
            let pre = rel_err(&truth, &square(&to_f64(&repaired)));

            [unprotected, abft, nvp, pre]
        }
        // ---- computation faults: damage inside the multiply ----
        2 => {
            let mut rng = seeded_rng(seed ^ 0x33);
            use rand::RngExt;
            let (fx, fy) = (rng.random_range(0..SIZE), rng.random_range(0..SIZE));
            let bump = 1.0e9;

            let mut naive = square(&to_f64(&clean));
            naive.set(fx, fy, naive.get(fx, fy) + bump);
            let unprotected = rel_err(&truth, &naive);

            // ABFT: the same perturbation hits the checksummed product and
            // is located + corrected.
            let a = ChecksumMatrix::encode(&to_f64(&clean));
            let mut product = a.multiply(&ChecksumMatrix::encode(&to_f64(&clean)));
            product.corrupt(fx, fy, product.get(fx, fy) + bump);
            product.correct();
            let abft = rel_err(&truth, &product.data());

            // NVP: one of three versions suffers the fault and is outvoted.
            let faults = [
                VersionFault::Computation { seed },
                VersionFault::None,
                VersionFault::None,
            ];
            let (outcome, _) = run_nvp(&to_f64(&clean), &faults, seed ^ 0x71);
            let nvp = match outcome {
                NvpOutcome::Agreed { output, .. } => rel_err(&truth, &output),
                NvpOutcome::NoMajority => unprotected,
            };

            // Input preprocessing runs before the computation — it never
            // sees this fault class.
            [unprotected, abft, nvp, unprotected]
        }
        _ => unreachable!("two fault classes"),
    }
}

/// **§1 motivation** — per-scheme output error under the two fault
/// classes (`x = 1`: input bit-flips; `x = 2`: computation faults).
pub fn motivation(scale: Scale) -> Figure {
    let trials = scale.trials.max(4);
    let mut series = vec![
        Series::from_means("Unprotected", vec![]),
        Series::from_means("ABFT", vec![]),
        Series::from_means("NVP(3)", vec![]),
        Series::from_means("Preprocessing", vec![]),
    ];
    for class in [1usize, 2] {
        let mut sums = [0.0f64; 4];
        for t in 0..trials {
            let errs = trial(class, 0x40_7111 + t as u64 * 97);
            for (s, e) in sums.iter_mut().zip(errs) {
                *s += e;
            }
        }
        for (s, sum) in series.iter_mut().zip(sums) {
            s.ys.push(sum / trials as f64);
        }
    }
    Figure {
        id: "motivation".into(),
        title: "Section 1: which fault class each scheme covers \
                (x=1 input bit-flips, x=2 computation faults)"
            .into(),
        xlabel: "fault class".into(),
        ylabel: "mean relative output error".into(),
        xs: vec![1.0, 2.0],
        series,
    }
}
