//! 3×3 convolution with a pluggable multiplier.

use sdlc_core::Multiplier;

use crate::image::GrayImage;
use crate::kernel::Kernel;

/// Convolves an image with a fixed-point kernel, computing every
/// pixel×weight product through `multiplier` — the paper's experiment
/// replaces exactly the standard multiplications of the Gaussian filter
/// with approximate ones, keeping the additions exact.
///
/// Borders replicate the edge pixels; the accumulated sum is normalized by
/// the kernel's weight sum (round-to-nearest) and clamped to `0..=255`,
/// the testbench-side normalization of the paper's Matlab study.
///
/// # Panics
///
/// Panics if the multiplier is not 8-bit wide, a kernel weight lies
/// outside `0..=255` or the kernel sums to zero.
#[must_use]
pub fn convolve_3x3(image: &GrayImage, kernel: &Kernel, multiplier: &dyn Multiplier) -> GrayImage {
    assert_eq!(multiplier.width(), 8, "the case study uses 8×8 multipliers");
    assert!(
        kernel.weights().all(|w| (0..=255).contains(&w)),
        "blur kernel weights must lie in 0..=255"
    );
    let norm = i64::from(kernel.weight_sum());
    assert!(norm > 0, "kernel weights must not all be zero");
    let sums = window_sums(image, kernel, |px, weight| {
        let product = multiplier.multiply_u64(u64::from(px), weight as u64);
        i64::try_from(product).expect("16-bit product")
    });
    let (width, height) = image.dimensions();
    let pixels = sums
        .into_iter()
        .map(|acc| ((acc + norm / 2) / norm).clamp(0, 255) as u8)
        .collect();
    GrayImage::from_raw(width, height, pixels)
}

/// Every pixel's 3×3 window summed through `product(pixel, weight)`, in
/// row-major order; borders replicate the edge pixels. Zero weights and
/// zero pixels are skipped rather than multiplied, since a model's product
/// with a zero operand need not be zero.
pub(crate) fn window_sums(
    image: &GrayImage,
    kernel: &Kernel,
    product: impl Fn(u8, i16) -> i64,
) -> Vec<i64> {
    let (width, height) = image.dimensions();
    let mut sums = Vec::with_capacity((width * height) as usize);
    for y in 0..height {
        for x in 0..width {
            let mut acc: i64 = 0;
            for ky in 0..3 {
                for kx in 0..3 {
                    let weight = kernel.weight(kx, ky);
                    let px = image
                        .get_clamped(i64::from(x) + kx as i64 - 1, i64::from(y) + ky as i64 - 1);
                    if weight != 0 && px != 0 {
                        acc += product(px, weight);
                    }
                }
            }
            sums.push(acc);
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenes;
    use sdlc_core::{AccurateMultiplier, SdlcMultiplier};

    #[test]
    fn uniform_image_stays_uniform_under_exact_blur() {
        let img = GrayImage::from_fn(16, 16, |_, _| 180);
        let kernel = Kernel::gaussian_3x3(1.5);
        let exact = AccurateMultiplier::new(8).unwrap();
        let blurred = convolve_3x3(&img, &kernel, &exact);
        // Unit-gain kernel: every output pixel equals the input level.
        assert!(blurred.pixels().iter().all(|&p| p == 180));
    }

    #[test]
    fn blur_smooths_a_checkerboard() {
        let img = scenes::checkerboard(32, 32, 1);
        let kernel = Kernel::gaussian_3x3(1.5);
        let exact = AccurateMultiplier::new(8).unwrap();
        let blurred = convolve_3x3(&img, &kernel, &exact);
        // Variance collapses: a 1-px checkerboard under a σ=1.5 Gaussian
        // becomes nearly flat.
        let spread = |im: &GrayImage| {
            let mean = im.mean();
            im.pixels()
                .iter()
                .map(|&p| (f64::from(p) - mean).powi(2))
                .sum::<f64>()
                / im.pixels().len() as f64
        };
        assert!(spread(&blurred) < spread(&img) / 10.0);
    }

    #[test]
    fn approximate_blur_stays_close_to_exact() {
        let img = scenes::blobs(48, 48, 3);
        let kernel = Kernel::gaussian_3x3(1.5);
        let exact = convolve_3x3(&img, &kernel, &AccurateMultiplier::new(8).unwrap());
        let approx = convolve_3x3(&img, &kernel, &SdlcMultiplier::new(8, 2).unwrap());
        let psnr = crate::psnr(&exact, &approx);
        assert!(psnr > 35.0, "PSNR {psnr} dB too low for 2-bit clusters");
        // Approximation only ever underestimates products, so pixels can
        // only darken.
        for (&e, &a) in exact.pixels().iter().zip(approx.pixels()) {
            assert!(a <= e);
        }
    }

    #[test]
    fn deeper_clusters_degrade_quality_monotonically() {
        let img = scenes::blobs(48, 48, 9);
        let kernel = Kernel::gaussian_3x3(1.5);
        let reference = convolve_3x3(&img, &kernel, &AccurateMultiplier::new(8).unwrap());
        let mut last = f64::INFINITY;
        for depth in [2u32, 3, 4] {
            let approx = convolve_3x3(&img, &kernel, &SdlcMultiplier::new(8, depth).unwrap());
            let quality = crate::psnr(&reference, &approx);
            assert!(quality < last, "depth {depth}: PSNR {quality} should fall");
            last = quality;
        }
    }

    #[test]
    #[should_panic(expected = "must lie in 0..=255")]
    fn negative_weights_are_rejected() {
        let img = GrayImage::new(4, 4);
        let kernel = Kernel::from_weights([[0, 0, 0], [-1, 4, 0], [0, 0, 0]]);
        let _ = convolve_3x3(&img, &kernel, &AccurateMultiplier::new(8).unwrap());
    }

    #[test]
    #[should_panic(expected = "8×8 multipliers")]
    fn wrong_width_multiplier_panics() {
        let img = GrayImage::new(4, 4);
        let kernel = Kernel::gaussian_3x3(1.5);
        let _ = convolve_3x3(&img, &kernel, &AccurateMultiplier::new(16).unwrap());
    }
}
