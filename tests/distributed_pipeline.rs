//! Distributed master/slave pipeline semantics: tiling transparency, work
//! distribution, determinism and fault accounting across worker counts.

use preflight::prelude::*;

fn stack(seed: u64, w: usize, h: usize, frames: usize) -> ImageStack<u16> {
    let det = UpTheRamp::new(DetectorConfig {
        width: w,
        height: h,
        frames,
        read_noise: 6.0,
        ..DetectorConfig::default()
    });
    let mut rng = seeded_rng(seed);
    let flux = sky_image(w, h, 1_000, 3, &mut rng).map(|v| v as f32 / 80.0);
    det.clean_stack(&flux, &mut rng)
}

fn pipeline(cfg: PipelineConfig) -> NgstPipeline {
    NgstPipeline::new(cfg).expect("valid pipeline config")
}

#[test]
fn result_is_invariant_to_worker_count_and_tile_size() {
    let st = stack(1, 48, 32, 12);
    let reference = pipeline(PipelineConfig {
        workers: 1,
        tile_size: 48,
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    for (workers, tile) in [(2usize, 16usize), (4, 8), (7, 13), (16, 48)] {
        let rep = pipeline(PipelineConfig {
            workers,
            tile_size: tile,
            ..PipelineConfig::default()
        })
        .run(&st)
        .expect("pipeline run");
        assert_eq!(
            rep.rate, reference.rate,
            "workers={workers} tile={tile} changed the science product"
        );
        assert_eq!(rep.integrated, reference.integrated);
    }
}

#[test]
fn work_is_distributed_across_workers() {
    let st = stack(2, 64, 64, 16);
    let rep = pipeline(PipelineConfig {
        workers: 4,
        tile_size: 8,
        // Preprocessing makes each tile heavy enough that the queue cannot
        // be drained by a single worker before the others start.
        preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    assert_eq!(rep.tiles, 64);
    assert_eq!(rep.worker_tile_counts.len(), 4);
    assert_eq!(rep.worker_tile_counts.iter().sum::<usize>(), 64);
    let active = rep.worker_tile_counts.iter().filter(|&&c| c > 0).count();
    assert!(
        active >= 2,
        "work stealing must engage multiple workers: {:?}",
        rep.worker_tile_counts
    );
}

#[test]
fn transit_fault_accounting_is_exact() {
    let st = stack(3, 32, 32, 8);
    let cfg = PipelineConfig {
        workers: 3,
        tile_size: 16,
        transit_fault: Some(TransitFault::Uncorrelated(0.001)),
        seed: 5,
        ..PipelineConfig::default()
    };
    let a = pipeline(cfg).run(&st).expect("pipeline run");
    let b = pipeline(cfg).run(&st).expect("pipeline run");
    assert_eq!(
        a.bits_flipped_in_transit, b.bits_flipped_in_transit,
        "seeded determinism"
    );
    assert!(a.bits_flipped_in_transit > 0);
    let expected = (st.len() * 16) as f64 * 0.001;
    let got = a.bits_flipped_in_transit as f64;
    assert!(
        (got - expected).abs() < expected * 0.5,
        "flip count {got} far from expectation {expected}"
    );
}

#[test]
fn correlated_transit_faults_are_supported() {
    let st = stack(4, 32, 16, 8);
    let rep = pipeline(PipelineConfig {
        workers: 2,
        tile_size: 16,
        transit_fault: Some(TransitFault::Correlated(0.1)),
        preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
        seed: 6,
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    assert!(rep.bits_flipped_in_transit > 0);
    assert!(rep.corrected_samples > 0);
}

#[test]
fn elapsed_and_compression_fields_are_populated() {
    let st = stack(5, 32, 32, 8);
    let rep = pipeline(PipelineConfig {
        workers: 2,
        tile_size: 32,
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    assert!(rep.elapsed.as_nanos() > 0);
    assert!(rep.compressed_bytes > 0);
    assert!(rep.compression_ratio > 0.5);
    assert_eq!(rep.integrated.width(), 32);
}

#[test]
fn single_pixel_tiles_are_legal() {
    let st = stack(6, 4, 4, 8);
    let rep = pipeline(PipelineConfig {
        workers: 2,
        tile_size: 1,
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    assert_eq!(rep.tiles, 16);
}

/// Flight-like geometry (quarter-scale detector, half readouts): the only
/// test at the flight tile size, 128×128 tiles of 16 bands of 1024 lanes
/// each. Under a second in release, a few seconds in debug.
#[test]
fn flight_scale_baseline_processes_end_to_end() {
    let st = stack(99, 512, 512, 32);
    let rep = pipeline(PipelineConfig {
        workers: 16,
        tile_size: 128,
        preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
        transit_fault: Some(TransitFault::Uncorrelated(0.001)),
        seed: 99,
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    assert_eq!(rep.tiles, 16);
    assert!(rep.corrected_samples > 0);
    assert!(rep.compression_ratio > 1.0);
    // The real-time argument at scale: well under the 1000 s baseline.
    assert!(rep.elapsed.as_secs_f64() < 1_000.0);
}

#[test]
fn repair_map_localizes_the_damage() {
    // Corrupt a specific tile heavily (via a seeded transit fault) and
    // check the provenance layer: repaired coordinates concentrate where
    // flips landed, and the map sums to the reported total.
    let st = stack(7, 32, 32, 32);
    let rep = pipeline(PipelineConfig {
        workers: 2,
        tile_size: 16,
        transit_fault: Some(TransitFault::Uncorrelated(0.004)),
        preprocess: Some(AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap())),
        seed: 77,
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    let map_total: usize = rep
        .repair_map
        .as_slice()
        .iter()
        .map(|&v| usize::from(v))
        .sum();
    assert_eq!(
        map_total, rep.corrected_samples,
        "map must sum to the report"
    );
    assert!(map_total > 0);

    // Without preprocessing the map is all zeros.
    let plain = pipeline(PipelineConfig {
        workers: 2,
        tile_size: 16,
        transit_fault: Some(TransitFault::Uncorrelated(0.004)),
        seed: 77,
        ..PipelineConfig::default()
    })
    .run(&st)
    .expect("pipeline run");
    assert!(plain.repair_map.as_slice().iter().all(|&v| v == 0));
}
