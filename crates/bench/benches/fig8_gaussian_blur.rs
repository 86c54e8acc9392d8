//! Figure 8 — the Gaussian-blur case study: a 3×3, σ = 1.5 kernel in
//! 8-bit fixed point over a 200×200 grayscale image, with multiplications
//! done by the exact multiplier and by SDLC multipliers of cluster depth
//! 2/3/4. Reports PSNR against the exact-multiplier blur plus the
//! dynamic-energy saving of each multiplier from the synthesis flow.
//!
//! The paper's photograph is not redistributable; the run uses the
//! procedural "blobs" scene (plus extra scenes for robustness). PSNR is
//! defined against the exact-blur of the *same* input, so the comparison
//! is internally consistent.

use sdlc_bench::{banner, timed, vs};
use sdlc_core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc_core::{AccurateMultiplier, SdlcMultiplier};
use sdlc_imgproc::{convolve_3x3, psnr, scenes, write_pgm, Kernel};
use sdlc_synth::{analyze, AnalysisOptions};
use sdlc_techlib::Library;

/// (depth, PSNR dB, dynamic-energy saving %) from Figure 8.
const PAPER: &[(u32, f64, f64)] = &[(2, 50.2, 59.5), (3, 39.0, 68.3), (4, 30.0, 78.5)];

fn main() {
    banner(
        "Figure 8: Gaussian blur with approximate multipliers (200×200, σ=1.5)",
        "Qiqieh et al., DATE'17, Figure 8",
    );
    let kernel = Kernel::gaussian_3x3(1.5);
    println!(
        "kernel weights (full-scale 8-bit): corner {}, edge {}, center {}",
        kernel.weight(0, 0),
        kernel.weight(1, 0),
        kernel.weight(1, 1)
    );
    let image = scenes::blobs(200, 200, 7);
    let exact_model = AccurateMultiplier::new(8).expect("valid");
    let reference = convolve_3x3(&image, &kernel, &exact_model);

    // Energy savings from the same flow as Figures 6/7.
    let lib = Library::generic_90nm();
    let options = AnalysisOptions::default();
    let exact_report = timed("accurate synthesis", || {
        analyze(
            accurate_multiplier(8, ReductionScheme::RippleRows).expect("valid"),
            &lib,
            &options,
        )
    });

    // Persist the input and reference for visual inspection.
    let out_dir = std::env::temp_dir().join("sdlc_fig8");
    std::fs::create_dir_all(&out_dir).expect("temp dir");
    save(&image, &out_dir.join("input.pgm"));
    save(&reference, &out_dir.join("blur_exact.pgm"));

    for &(depth, p_psnr, p_energy) in PAPER {
        let model = SdlcMultiplier::new(8, depth).expect("valid");
        let blurred = convolve_3x3(&image, &kernel, &model);
        let quality = psnr(&reference, &blurred);
        let report = timed(&format!("depth-{depth} synthesis"), || {
            analyze(
                sdlc_multiplier(&model, ReductionScheme::RippleRows),
                &lib,
                &options,
            )
        });
        let energy_saving = report.reduction_vs(&exact_report).dynamic_power * 100.0;
        println!("{depth}-bit clustering:");
        println!("  PSNR (dB)        {}", vs(quality, p_psnr));
        println!("  energy saving %  {}", vs(energy_saving, p_energy));
        save(&blurred, &out_dir.join(format!("blur_d{depth}.pgm")));
    }
    println!("\nimages written to {}", out_dir.display());

    println!("\nrobustness across scenes (PSNR dB by depth):");
    for (name, img) in [
        ("gradient", scenes::gradient(200, 200)),
        ("checkerboard", scenes::checkerboard(200, 200, 4)),
        ("noise", scenes::noise(200, 200, 1)),
    ] {
        let reference = convolve_3x3(&img, &kernel, &exact_model);
        print!("  {name:13}");
        for depth in [2u32, 3, 4] {
            let model = SdlcMultiplier::new(8, depth).expect("valid");
            let out = convolve_3x3(&img, &kernel, &model);
            print!("  d{depth}: {:5.1}", psnr(&reference, &out));
        }
        println!();
    }
    println!(
        "\nshape check: PSNR falls monotonically with depth while energy saving \
         grows — the paper's trade-off. Absolute PSNR depends on the (unpublished) \
         kernel quantization; see \"Known divergences\" in the README."
    );
}

fn save(image: &sdlc_imgproc::GrayImage, path: &std::path::Path) {
    let mut file = std::fs::File::create(path).expect("create image file");
    write_pgm(image, &mut file).expect("write pgm");
}
