//! Grayscale image-processing substrate for the paper's case study.
//!
//! Section IV evaluates the SDLC multiplier inside a Gaussian blur filter:
//! a 3×3 kernel with σ = 1.5 in 8-bit fixed point, applied to a 200×200
//! 8-bit grayscale image, with output quality measured as PSNR against the
//! exact-multiplier result (Figure 8). This crate provides everything that
//! experiment needs:
//!
//! * [`GrayImage`] — 8-bit grayscale images, written out as binary PGM
//!   (P5) by [`write_pgm`];
//! * [`scenes`] — procedural test scenes (the paper's photograph is not
//!   redistributable; PSNR is measured against an internal reference, so
//!   scene choice only needs to exercise the full intensity range);
//! * [`FixedKernel`] — Q0.8 fixed-point quantization of Gaussian kernels;
//! * [`convolve_3x3`] — convolution with a pluggable
//!   [`sdlc_core::Multiplier`], approximating exactly (and only) the
//!   multiplications, as the paper does;
//! * [`psnr`] / [`mse`] — the fidelity metrics of Eq. (3);
//! * [`SignedKernel`] / [`convolve_3x3_signed`] / [`sobel_magnitude`] —
//!   the signed convolution path: edge-detection kernels with negative
//!   taps driven by a pluggable [`sdlc_core::SignedMultiplier`].
//!
//! ```
//! use sdlc_core::{AccurateMultiplier, SdlcMultiplier};
//! use sdlc_imgproc::{convolve_3x3, psnr, scenes, FixedKernel};
//!
//! let image = scenes::blobs(64, 64, 7);
//! let kernel = FixedKernel::gaussian_3x3(1.5);
//! let exact = convolve_3x3(&image, &kernel, &AccurateMultiplier::new(8)?);
//! let approx = convolve_3x3(&image, &kernel, &SdlcMultiplier::new(8, 2)?);
//! assert!(psnr(&exact, &approx) > 35.0); // 2-bit clusters barely dent quality
//! # Ok::<(), sdlc_core::SpecError>(())
//! ```

mod convolve;
mod image;
mod kernel;
mod pgm;
pub mod scenes;
mod signed_kernel;
mod sobel;

pub use convolve::convolve_3x3;
pub use image::GrayImage;
pub use kernel::FixedKernel;
pub use pgm::write_pgm;
pub use signed_kernel::SignedKernel;
pub use sobel::{
    convolve_3x3_signed, gradient_magnitude, scharr_magnitude, sobel_magnitude, GradientField,
};

/// Mean squared error between two same-sized images.
///
/// # Panics
///
/// Panics if dimensions differ.
#[must_use]
pub fn mse(reference: &GrayImage, other: &GrayImage) -> f64 {
    assert_eq!(
        reference.dimensions(),
        other.dimensions(),
        "image sizes differ"
    );
    let n = (reference.width() * reference.height()) as f64;
    let sum: f64 = reference
        .pixels()
        .iter()
        .zip(other.pixels())
        .map(|(&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            d * d
        })
        .sum();
    sum / n
}

/// Peak signal-to-noise ratio in dB (Eq. 3 of the paper):
/// `PSNR = 10·log₁₀(255² / MSE)`; identical images yield `f64::INFINITY`.
///
/// # Panics
///
/// Panics if dimensions differ.
#[must_use]
pub fn psnr(reference: &GrayImage, other: &GrayImage) -> f64 {
    let mse = mse(reference, other);
    if mse == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (255.0f64 * 255.0 / mse).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_have_infinite_psnr() {
        let img = scenes::gradient(16, 16);
        assert_eq!(mse(&img, &img), 0.0);
        assert_eq!(psnr(&img, &img), f64::INFINITY);
    }

    #[test]
    fn known_mse_and_psnr() {
        let a = GrayImage::from_fn(4, 4, |_, _| 100);
        let b = GrayImage::from_fn(4, 4, |_, _| 110);
        assert_eq!(mse(&a, &b), 100.0);
        // 10 log10(65025/100) ≈ 28.13 dB
        assert!((psnr(&a, &b) - 28.131).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn size_mismatch_panics() {
        let a = GrayImage::from_fn(4, 4, |_, _| 0);
        let b = GrayImage::from_fn(4, 5, |_, _| 0);
        let _ = mse(&a, &b);
    }
}
