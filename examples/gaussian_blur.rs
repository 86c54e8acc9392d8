//! The paper's case study end to end: Gaussian blur (3×3, σ = 1.5, 8-bit
//! fixed point) over a 200×200 synthetic scene with exact and SDLC
//! multipliers, writing PGM images you can open in any viewer.
//!
//! Run with: `cargo run --release --example gaussian_blur [output_dir]`

use std::path::PathBuf;

use sdlc::core::{AccurateMultiplier, SdlcMultiplier};
use sdlc::imgproc::{convolve_3x3, mse, psnr, scenes, write_pgm, FixedKernel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .map_or_else(|| std::env::temp_dir().join("sdlc_blur"), PathBuf::from);
    std::fs::create_dir_all(&out_dir)?;

    let image = scenes::blobs(200, 200, 7);
    let kernel = FixedKernel::gaussian_3x3(1.5);
    println!(
        "kernel (8-bit full-scale): corner {}, edge {}, center {}; normalization /{}",
        kernel.weight(0, 0),
        kernel.weight(1, 0),
        kernel.weight(1, 1),
        kernel.weight_sum()
    );

    let save = |img: &sdlc::imgproc::GrayImage, name: &str| -> std::io::Result<()> {
        let mut file = std::fs::File::create(out_dir.join(name))?;
        write_pgm(img, &mut file)
    };
    save(&image, "input.pgm")?;

    let exact = AccurateMultiplier::new(8)?;
    let reference = convolve_3x3(&image, &kernel, &exact);
    save(&reference, "blur_exact.pgm")?;
    println!("\nexact blur written; approximating with SDLC multipliers:");
    println!("{:>8} {:>10} {:>10}", "depth", "PSNR (dB)", "MSE");
    for depth in [2u32, 3, 4] {
        let model = SdlcMultiplier::new(8, depth)?;
        let blurred = convolve_3x3(&image, &kernel, &model);
        println!(
            "{depth:8} {:10.2} {:10.3}",
            psnr(&reference, &blurred),
            mse(&reference, &blurred)
        );
        save(&blurred, &format!("blur_sdlc_d{depth}.pgm"))?;
    }
    println!("\nimages written to {}", out_dir.display());
    println!("paper reference points (Figure 8): d2 50.2 dB, d3 39 dB, d4 30 dB");
    Ok(())
}
