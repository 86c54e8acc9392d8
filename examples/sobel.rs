//! Edge detection through approximate *signed* multipliers: the Sobel and
//! Scharr gradient-magnitude pipelines over a synthetic scene, with exact
//! and SDLC sign-magnitude multipliers, writing a PGM before/after set you
//! can open in any viewer.
//!
//! Two headline observations:
//!
//! * Sobel's taps (±1, ±2) are powers of two, so SDLC compression is
//!   *lossless* on them — the approximate edge map is bit-identical.
//! * Scharr's taps (±3, ±10) spread products over multiple
//!   partial-product rows; compression error shows up and grows with
//!   cluster depth.
//!
//! Run with: `cargo run --release --example sobel [output_dir]`

use std::path::PathBuf;

use sdlc::core::signed::{signed_accurate, signed_sdlc};
use sdlc::imgproc::{mse, psnr, scenes, scharr_magnitude, sobel_magnitude, write_pgm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .map_or_else(|| std::env::temp_dir().join("sdlc_sobel"), PathBuf::from);
    std::fs::create_dir_all(&out_dir)?;

    let fast = std::env::var_os("SDLC_FAST").is_some();
    let side = if fast { 64 } else { 200 };
    let image = scenes::blobs(side, side, 7);

    let save = |img: &sdlc::imgproc::GrayImage, name: &str| -> std::io::Result<()> {
        let mut file = std::fs::File::create(out_dir.join(name))?;
        write_pgm(img, &mut file)
    };
    save(&image, "input.pgm")?;

    let exact = signed_accurate(16)?;
    let sobel_ref = sobel_magnitude(&image, &exact);
    let scharr_ref = scharr_magnitude(&image, &exact);
    save(&sobel_ref, "sobel_exact.pgm")?;
    save(&scharr_ref, "scharr_exact.pgm")?;

    println!("signed edge detection over a {side}×{side} scene (16-bit sign-magnitude)\n");
    println!(
        "{:>8} {:>16} {:>16} {:>12}",
        "depth", "sobel PSNR (dB)", "scharr PSNR (dB)", "scharr MSE"
    );
    for depth in [2u32, 3, 4] {
        let approx = signed_sdlc(16, depth)?;
        let sobel_edges = sobel_magnitude(&image, &approx);
        let scharr_edges = scharr_magnitude(&image, &approx);
        println!(
            "{depth:8} {:16.2} {:16.2} {:12.3}",
            psnr(&sobel_ref, &sobel_edges),
            psnr(&scharr_ref, &scharr_edges),
            mse(&scharr_ref, &scharr_edges)
        );
        save(&scharr_edges, &format!("scharr_sdlc_d{depth}.pgm"))?;
        if depth == 2 {
            save(&sobel_edges, "sobel_sdlc_d2.pgm")?;
        }
        // The power-of-two Sobel taps make SDLC exact — verify, don't
        // just claim.
        assert_eq!(sobel_edges, sobel_ref, "Sobel must be exact through SDLC");
    }
    println!("\nimages written to {}", out_dir.display());
    Ok(())
}
