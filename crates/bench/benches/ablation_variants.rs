//! Ablations beyond the paper's tables:
//!
//! 1. **Tail-schedule variants** — the recovered greedy packing
//!    (`Progressive`) against the formula schedules (`CeilTails`,
//!    `PairTails`) and tail-free `FullOr`, at 8 bits and every depth:
//!    what the significance-driven exemptions buy in accuracy.
//! 2. **Accumulation schemes** — ripple rows (paper) vs Wallace vs Dadda
//!    for both accurate and SDLC designs: delay/area/energy trade-offs.
//! 3. **Truncation baseline** — error vs savings for column truncation,
//!    the classic knob the paper positions SDLC against.
//! 4. **Kernel quantization sensitivity** — full-scale vs unit-gain Q0.8
//!    Gaussian weights in the Figure 8 case study.

use sdlc_bench::{banner, timed};
use sdlc_core::baselines::TruncatedMultiplier;
use sdlc_core::circuits::{
    accurate_multiplier, sdlc_multiplier, truncated_multiplier, ReductionScheme,
};
use sdlc_core::error::exhaustive;
use sdlc_core::{AccurateMultiplier, ClusterVariant, Multiplier, SdlcMultiplier};
use sdlc_imgproc::{convolve_3x3, psnr, scenes, Kernel};
use sdlc_synth::{analyze, AnalysisOptions};
use sdlc_techlib::Library;

fn main() {
    banner(
        "Ablations: variants, accumulation schemes, truncation, kernels",
        "extensions",
    );
    cluster_variants();
    accumulation_schemes();
    truncation_curve();
    kernel_sensitivity();
}

fn cluster_variants() {
    println!("--- 1. tail-schedule variants (8-bit, exhaustive) ---");
    println!(
        "{:>22} | {:>9} {:>9} {:>9} {:>9}",
        "variant", "MRED%", "NMED", "ER%", "MaxRED%"
    );
    for depth in [2u32, 3, 4] {
        for variant in [
            ClusterVariant::Progressive,
            ClusterVariant::CeilTails,
            ClusterVariant::PairTails,
            ClusterVariant::FullOr,
        ] {
            let model = SdlcMultiplier::with_variant(8, depth, variant).expect("valid");
            let m = exhaustive(&model).expect("8-bit");
            println!(
                "{:>22} | {:8.4} {:9.5} {:8.2} {:8.2}",
                format!("d{depth} {}", variant.tag()),
                m.mred * 100.0,
                m.nmed,
                m.error_rate * 100.0,
                m.max_red * 100.0
            );
        }
    }
    println!(
        "(at depth 2 all schedules coincide with Algorithm 1; deeper, the greedy \
         packing sits between CeilTails and FullOr and matches the paper exactly)\n"
    );
}

fn accumulation_schemes() {
    println!("--- 2. accumulation schemes (16-bit, synthesized) ---");
    let lib = Library::generic_90nm();
    let options = AnalysisOptions::default();
    println!(
        "{:>22} | {:>9} {:>10} {:>10} {:>10}",
        "design", "cells", "area um^2", "delay ps", "energy fJ"
    );
    for scheme in ReductionScheme::all() {
        let exact = timed(&format!("accurate {}", scheme.tag()), || {
            analyze(
                accurate_multiplier(16, scheme).expect("valid"),
                &lib,
                &options,
            )
        });
        let model = SdlcMultiplier::new(16, 2).expect("valid");
        let approx = timed(&format!("sdlc {}", scheme.tag()), || {
            analyze(sdlc_multiplier(&model, scheme), &lib, &options)
        });
        for report in [&exact, &approx] {
            println!(
                "{:>22} | {:9} {:10.1} {:10.1} {:10.1}",
                report.design,
                report.stats.cells,
                report.area_um2,
                report.delay_ps,
                report.energy_fj_per_op
            );
        }
        let savings = approx.reduction_vs(&exact);
        println!("{:>22} | {savings}", format!("savings ({})", scheme.tag()));
    }
    println!(
        "(SDLC's row halving helps every scheme; tree accumulation shortens delay \
         for both designs, ripple shows the paper's setting)\n"
    );
}

fn truncation_curve() {
    println!("--- 3. truncation baseline (8-bit): error vs savings ---");
    let lib = Library::generic_90nm();
    let options = AnalysisOptions::default();
    let exact = analyze(
        accurate_multiplier(8, ReductionScheme::RippleRows).expect("valid"),
        &lib,
        &options,
    );
    let sdlc_model = SdlcMultiplier::new(8, 2).expect("valid");
    let sdlc_metrics = exhaustive(&sdlc_model).expect("8-bit");
    let sdlc_report = analyze(
        sdlc_multiplier(&sdlc_model, ReductionScheme::RippleRows),
        &lib,
        &options,
    );
    let sdlc_savings = sdlc_report.reduction_vs(&exact);
    println!(
        "{:>12} | {:>9} {:>9} | {:>9} {:>9}",
        "design", "MRED%", "NMED", "area red", "en. red"
    );
    println!(
        "{:>12} | {:8.4} {:9.5} | {:8.1}% {:8.1}%",
        "sdlc d2",
        sdlc_metrics.mred * 100.0,
        sdlc_metrics.nmed,
        sdlc_savings.area * 100.0,
        sdlc_savings.energy * 100.0
    );
    for dropped in [4u32, 6, 8, 10] {
        let model = TruncatedMultiplier::new(8, dropped).expect("valid");
        let metrics = exhaustive(&model).expect("8-bit");
        let report = analyze(
            truncated_multiplier(&model, ReductionScheme::RippleRows),
            &lib,
            &options,
        );
        let savings = report.reduction_vs(&exact);
        println!(
            "{:>12} | {:8.4} {:9.5} | {:8.1}% {:8.1}%",
            model.name(),
            metrics.mred * 100.0,
            metrics.nmed,
            savings.area * 100.0,
            savings.energy * 100.0
        );
    }
    println!(
        "(to reach SDLC-level savings, truncation must drop ~8 columns and pay an \
         order of magnitude more MRED — the paper's Table I critique quantified)\n"
    );
}

fn kernel_sensitivity() {
    println!("--- 4. Gaussian-kernel quantization sensitivity (Fig. 8 setting) ---");
    let image = scenes::blobs(200, 200, 7);
    let exact = AccurateMultiplier::new(8).expect("valid");
    for (name, kernel) in [
        ("full-scale (center=255)", Kernel::gaussian_3x3(1.5)),
        (
            "unit-gain Q0.8 (sum=256)",
            Kernel::gaussian_3x3_unit_gain(1.5),
        ),
    ] {
        let reference = convolve_3x3(&image, &kernel, &exact);
        print!("{name:26}");
        for depth in [2u32, 3, 4] {
            let model = SdlcMultiplier::new(8, depth).expect("valid");
            let out = convolve_3x3(&image, &kernel, &model);
            print!("  d{depth}: {:5.1} dB", psnr(&reference, &out));
        }
        println!();
    }
    println!(
        "(small unit-gain weights place their set bits inside single clusters, \
         making depth 3 collide pathologically — the error profile depends on \
         the weights' bit patterns, not just their magnitudes)"
    );
}
