//! End-to-end integration: the complete pipelines behind each figure run
//! on reduced workloads and reproduce the paper's qualitative claims.

use sdlc::core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc::core::error::exhaustive;
use sdlc::core::{AccurateMultiplier, SdlcMultiplier};
use sdlc::imgproc::{convolve_3x3, psnr, scenes, Kernel};
use sdlc::synth::{analyze, AnalysisOptions};
use sdlc::techlib::Library;

/// Figure 6 in miniature: at 8 and 16 bits the SDLC design improves every
/// reported metric.
#[test]
fn synthesis_savings_positive_on_all_metrics() {
    let lib = Library::generic_90nm();
    let options = AnalysisOptions {
        activity_vectors: 192,
        ..Default::default()
    };
    for width in [8u32, 16] {
        let exact = analyze(
            accurate_multiplier(width, ReductionScheme::RippleRows).unwrap(),
            &lib,
            &options,
        );
        let model = SdlcMultiplier::new(width, 2).unwrap();
        let approx = analyze(
            sdlc_multiplier(&model, ReductionScheme::RippleRows),
            &lib,
            &options,
        );
        let savings = approx.reduction_vs(&exact);
        assert!(savings.dynamic_power > 0.25, "{width}-bit dyn {savings}");
        assert!(savings.leakage_power > 0.15, "{width}-bit leak {savings}");
        assert!(savings.area > 0.15, "{width}-bit area {savings}");
        assert!(savings.delay > 0.15, "{width}-bit delay {savings}");
        assert!(savings.energy > 0.4, "{width}-bit energy {savings}");
        // Energy (PDP) compounds power and delay — the paper's headline.
        assert!(savings.energy > savings.dynamic_power);
        assert!(savings.energy > savings.delay);
    }
}

/// Figure 7 in miniature: deeper clusters save more on every axis.
#[test]
fn deeper_clusters_save_more_hardware() {
    let lib = Library::generic_90nm();
    let options = AnalysisOptions {
        activity_vectors: 192,
        ..Default::default()
    };
    let exact = analyze(
        accurate_multiplier(8, ReductionScheme::RippleRows).unwrap(),
        &lib,
        &options,
    );
    let mut last_energy = 0.0;
    for depth in [2u32, 3, 4] {
        let model = SdlcMultiplier::new(8, depth).unwrap();
        let report = analyze(
            sdlc_multiplier(&model, ReductionScheme::RippleRows),
            &lib,
            &options,
        );
        let savings = report.reduction_vs(&exact);
        assert!(
            savings.energy > last_energy,
            "depth {depth}: energy saving {:.1}% should exceed {:.1}%",
            savings.energy * 100.0,
            last_energy * 100.0
        );
        last_energy = savings.energy;
    }
}

/// Figure 8 in miniature: blur quality falls with depth while staying
/// usable, and the PSNR ordering matches the paper.
#[test]
fn blur_quality_orders_by_depth() {
    let image = scenes::blobs(96, 96, 7);
    let kernel = Kernel::gaussian_3x3(1.5);
    let reference = convolve_3x3(&image, &kernel, &AccurateMultiplier::new(8).unwrap());
    let mut quality = Vec::new();
    for depth in [2u32, 3, 4] {
        let model = SdlcMultiplier::new(8, depth).unwrap();
        let blurred = convolve_3x3(&image, &kernel, &model);
        quality.push(psnr(&reference, &blurred));
    }
    assert!(
        quality[0] > quality[1] && quality[1] > quality[2],
        "{quality:?}"
    );
    assert!(
        quality[0] > 30.0,
        "depth 2 keeps reviewable quality: {quality:?}"
    );
    assert!(
        quality[2] > 15.0,
        "even depth 4 is not garbage: {quality:?}"
    );
}

/// The error/hardware trade-off is coherent end to end: each extra depth
/// buys hardware savings with accuracy loss, never both ways.
#[test]
fn accuracy_and_savings_move_in_opposite_directions() {
    let lib = Library::generic_90nm();
    let options = AnalysisOptions {
        activity_vectors: 192,
        ..Default::default()
    };
    let exact = analyze(
        accurate_multiplier(8, ReductionScheme::RippleRows).unwrap(),
        &lib,
        &options,
    );
    let mut rows = Vec::new();
    for depth in [2u32, 3, 4] {
        let model = SdlcMultiplier::new(8, depth).unwrap();
        let metrics = exhaustive(&model).unwrap();
        let report = analyze(
            sdlc_multiplier(&model, ReductionScheme::RippleRows),
            &lib,
            &options,
        );
        rows.push((metrics.mred, report.reduction_vs(&exact).energy));
    }
    for pair in rows.windows(2) {
        assert!(pair[1].0 > pair[0].0, "error grows with depth");
        assert!(pair[1].1 > pair[0].1, "savings grow with depth");
    }
}

/// The savings the paper reports must not be an artifact of one cell
/// library: the same comparison through a 65 nm-class corner gives the
/// same ordering and similar magnitudes.
#[test]
fn savings_are_library_robust() {
    let options = AnalysisOptions {
        activity_vectors: 192,
        ..Default::default()
    };
    let mut by_library = Vec::new();
    for lib in [Library::generic_90nm(), Library::generic_65nm()] {
        let exact = analyze(
            accurate_multiplier(8, ReductionScheme::RippleRows).unwrap(),
            &lib,
            &options,
        );
        let model = SdlcMultiplier::new(8, 2).unwrap();
        let approx = analyze(
            sdlc_multiplier(&model, ReductionScheme::RippleRows),
            &lib,
            &options,
        );
        by_library.push(approx.reduction_vs(&exact));
    }
    let (n90, n65) = (by_library[0], by_library[1]);
    for (a, b, what) in [
        (n90.dynamic_power, n65.dynamic_power, "dynamic"),
        (n90.area, n65.area, "area"),
        (n90.delay, n65.delay, "delay"),
        (n90.energy, n65.energy, "energy"),
    ] {
        assert!(b > 0.0, "{what} saving must stay positive at 65nm");
        assert!((a - b).abs() < 0.12, "{what}: 90nm {a:.3} vs 65nm {b:.3}");
    }
}
