//! The paper's §1 argument, live: which fault-tolerance scheme covers
//! which fault class.
//!
//! Runs a detector image through a matrix computation under (a) input
//! bit-flips and (b) a computation fault, protected by ABFT checksum
//! matrices, 3-version NVP, and input preprocessing — then prints who
//! caught what.
//!
//! ```text
//! cargo run --release --example fault_coverage
//! ```

use preflight::prelude::*;
use preflight_redundancy::{run_nvp, ChecksumMatrix, NvpOutcome, Verdict, VersionFault};

fn to_f64(img: &preflight::core::Image<u16>) -> preflight::core::Image<f64> {
    img.map(f64::from)
}

fn main() {
    let mut rng = seeded_rng(11);
    let clean = sky_image(16, 16, 20_000, 0, &mut rng);

    // ---- Fault class 1: bit-flips in the input buffer -------------------
    println!("=== input bit-flips (Γ₀ = 0.5 %) ===");
    let mut corrupted = clean.clone();
    let map = Uncorrelated::new(0.005)
        .expect("probability in range")
        .inject_words(corrupted.as_mut_slice(), &mut rng);
    println!("{} bits flipped before any scheme ran\n", map.len());

    let a = ChecksumMatrix::encode(&to_f64(&corrupted));
    println!("ABFT on the corrupted input:     verify → {:?}", a.verify());

    let (outcome, _) = run_nvp(&to_f64(&corrupted), &[VersionFault::None; 3], 21);
    if let NvpOutcome::Agreed { votes, .. } = outcome {
        println!("NVP on the corrupted input:      {votes}/3 versions agree (on garbage)");
    }

    let mut repaired = corrupted.clone();
    let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).expect("valid Λ"));
    let fixed = Preprocessor::new(algo).run_image(&mut repaired);
    let confusion =
        BitConfusion::score(clean.as_slice(), corrupted.as_slice(), repaired.as_slice());
    println!(
        "Input preprocessing:             repaired {fixed} samples \
         ({}/{} flipped bits restored, {} false alarms)\n",
        confusion.true_corrections, confusion.total_flipped, confusion.false_alarms
    );

    // ---- Fault class 2: a fault during the computation -------------------
    println!("=== computation fault (one product element perturbed) ===");
    let a = ChecksumMatrix::encode(&to_f64(&clean));
    let b = ChecksumMatrix::encode(&to_f64(&clean));
    let mut product = a.multiply(&b);
    let truth = product.get(5, 7);
    product.corrupt(5, 7, truth + 1.0e9);
    match product.verify() {
        Verdict::SingleError { x, y, .. } => {
            println!("ABFT: located the bad element at ({x},{y})");
            product.correct();
            println!(
                "ABFT: corrected (residual {:.2e})",
                (product.get(5, 7) - truth).abs()
            );
        }
        other => println!("ABFT: {other:?}"),
    }

    let faults = [
        VersionFault::Computation { seed: 3 },
        VersionFault::None,
        VersionFault::None,
    ];
    let (outcome, _) = run_nvp(&to_f64(&clean), &faults, 31);
    if let NvpOutcome::Agreed { votes, .. } = outcome {
        println!("NVP: faulty version outvoted {votes}/3");
    }
    println!("Input preprocessing: ran before the computation — cannot see this class.");
    println!("\n(§1: each scheme covers its own fault class; the paper's");
    println!(" preprocessing is the missing complement for input data.)");
}
