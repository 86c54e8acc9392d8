//! Signed convolution and the Sobel gradient-magnitude pipeline.
//!
//! The blur case study replaces the multiplications of a *non-negative*
//! kernel; edge detection needs signed products (`pixel × negative tap`),
//! so these paths drive a pluggable
//! [`SignedMultiplier`] — exactly the
//! consumer the sign-magnitude subsystem was built for.

use sdlc_core::SignedMultiplier;

use crate::convolve::window_sums;
use crate::image::GrayImage;
use crate::kernel::Kernel;

/// A signed per-pixel field (row-major `i32` values) — the raw output of
/// [`convolve_3x3_signed`], kept unclamped so gradient combiners can see
/// negative responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradientField {
    width: u32,
    height: u32,
    data: Vec<i32>,
}

impl GradientField {
    /// `(width, height)`.
    #[must_use]
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, x: u32, y: u32) -> i32 {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        self.data[(y * self.width + x) as usize]
    }

    /// Row-major value slice.
    #[must_use]
    pub fn values(&self) -> &[i32] {
        &self.data
    }
}

/// Convolves an image with a signed kernel, computing every pixel×weight
/// product through `multiplier` and keeping the (exact) signed
/// accumulation — the i16 signed convolution path. Borders replicate edge
/// pixels; no normalization or clamping is applied, so derivative kernels
/// return genuine negative responses.
///
/// # Panics
///
/// Panics if the multiplier is narrower than 10 bits (pixels up to 255
/// and their sign need 9, kernels get one doubling of headroom) or a
/// kernel weight does not fit the multiplier's signed range.
#[must_use]
pub fn convolve_3x3_signed(
    image: &GrayImage,
    kernel: &Kernel,
    multiplier: &dyn SignedMultiplier,
) -> GradientField {
    let width_bits = multiplier.width();
    assert!(
        width_bits >= 10,
        "signed convolution needs a >=10-bit multiplier, got {width_bits}"
    );
    let (min_weight, max_weight) = if width_bits >= 17 {
        (i64::from(i16::MIN), i64::from(i16::MAX))
    } else {
        (-(1i64 << (width_bits - 1)), (1i64 << (width_bits - 1)) - 1)
    };
    for weight in kernel.weights().map(i64::from) {
        assert!(
            (min_weight..=max_weight).contains(&weight),
            "kernel weight {weight} exceeds the {width_bits}-bit signed range"
        );
    }
    let sums = window_sums(image, kernel, |px, weight| {
        let product = multiplier.multiply_i64(i64::from(px), i64::from(weight));
        i64::try_from(product).expect("3x3 taps fit i64")
    });
    let (width, height) = image.dimensions();
    GradientField {
        width,
        height,
        data: sums
            .into_iter()
            .map(|acc| i32::try_from(acc).expect("9 products of i16×u8 fit i32"))
            .collect(),
    }
}

/// Generic gradient-magnitude pipeline: convolves with a `(Gx, Gy)`
/// kernel pair through `multiplier` and combines the responses with the
/// standard L1 approximation `|Gx| + |Gy|`, saturated to `0..=255`.
///
/// # Panics
///
/// Panics if the multiplier is narrower than 10 bits or a kernel weight
/// does not fit its signed range.
#[must_use]
pub fn gradient_magnitude(
    image: &GrayImage,
    gx_kernel: &Kernel,
    gy_kernel: &Kernel,
    multiplier: &dyn SignedMultiplier,
) -> GrayImage {
    let gx = convolve_3x3_signed(image, gx_kernel, multiplier);
    let gy = convolve_3x3_signed(image, gy_kernel, multiplier);
    let (width, height) = image.dimensions();
    let mut out = GrayImage::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let magnitude =
                i64::from(gx.get(x, y).unsigned_abs()) + i64::from(gy.get(x, y).unsigned_abs());
            out.set(x, y, magnitude.clamp(0, 255) as u8);
        }
    }
    out
}

/// The Sobel gradient-magnitude pipeline —
/// [`gradient_magnitude`] with
/// [`Kernel::sobel_gx`]/[`Kernel::sobel_gy`].
///
/// Note a paper-relevant property: Sobel's taps are 0 and ±powers of two,
/// and SDLC (like any dot-diagram compression with at most one live row)
/// multiplies single-set-bit operands *exactly* — so an approximate
/// Sobel through any `SdlcMultiplier` is bit-identical to the exact one.
/// Use [`scharr_magnitude`] (taps ±3/±10) to exercise real compression
/// error in an edge detector.
///
/// # Panics
///
/// Panics if the multiplier is narrower than 10 bits.
///
/// # Examples
///
/// ```
/// use sdlc_core::signed::signed_accurate;
/// use sdlc_imgproc::{scenes, sobel_magnitude};
///
/// let image = scenes::bars(32, 32);
/// let edges = sobel_magnitude(&image, &signed_accurate(16)?);
/// // Vertical bars have strong horizontal gradients somewhere.
/// assert!(edges.pixels().iter().any(|&p| p == 255));
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
#[must_use]
pub fn sobel_magnitude(image: &GrayImage, multiplier: &dyn SignedMultiplier) -> GrayImage {
    gradient_magnitude(image, &Kernel::sobel_gx(), &Kernel::sobel_gy(), multiplier)
}

/// The Scharr gradient-magnitude pipeline — [`gradient_magnitude`] with
/// [`Kernel::scharr_gx`]/[`Kernel::scharr_gy`], whose
/// multi-set-bit taps (±3, ±10) land products in compressible clusters.
///
/// # Panics
///
/// Panics if the multiplier is narrower than 10 bits.
#[must_use]
pub fn scharr_magnitude(image: &GrayImage, multiplier: &dyn SignedMultiplier) -> GrayImage {
    gradient_magnitude(
        image,
        &Kernel::scharr_gx(),
        &Kernel::scharr_gy(),
        multiplier,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenes;
    use sdlc_core::signed::{signed_accurate, signed_sdlc};

    #[test]
    fn uniform_images_have_zero_gradients() {
        let img = GrayImage::from_fn(16, 16, |_, _| 200);
        let m = signed_accurate(16).unwrap();
        let gx = convolve_3x3_signed(&img, &Kernel::sobel_gx(), &m);
        assert!(gx.values().iter().all(|&v| v == 0));
        let edges = sobel_magnitude(&img, &m);
        assert!(edges.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    fn step_edge_responds_with_the_right_sign() {
        // Dark left half, bright right half: Gx > 0 on the boundary, and
        // its mirror flips the sign.
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 10 } else { 240 });
        let mirrored = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 240 } else { 10 });
        let m = signed_accurate(16).unwrap();
        let gx = convolve_3x3_signed(&img, &Kernel::sobel_gx(), &m);
        let gx_mirror = convolve_3x3_signed(&mirrored, &Kernel::sobel_gx(), &m);
        assert!(gx.get(3, 4) > 0);
        assert_eq!(gx.get(3, 4), -gx_mirror.get(4, 4));
        // Pure vertical edges produce no Gy response.
        let gy = convolve_3x3_signed(&img, &Kernel::sobel_gy(), &m);
        assert!(gy.values().iter().all(|&v| v == 0));
    }

    #[test]
    fn exact_sobel_matches_a_direct_computation() {
        let img = scenes::blobs(24, 24, 5);
        let m = signed_accurate(16).unwrap();
        let edges = sobel_magnitude(&img, &m);
        // Direct primitive-arithmetic reference.
        let px = |x: i64, y: i64| i64::from(img.get_clamped(x, y));
        for y in 0..24i64 {
            for x in 0..24i64 {
                let gx = -px(x - 1, y - 1) + px(x + 1, y - 1) - 2 * px(x - 1, y) + 2 * px(x + 1, y)
                    - px(x - 1, y + 1)
                    + px(x + 1, y + 1);
                let gy = -px(x - 1, y - 1) - 2 * px(x, y - 1) - px(x + 1, y - 1)
                    + px(x - 1, y + 1)
                    + 2 * px(x, y + 1)
                    + px(x + 1, y + 1);
                let expect = (gx.abs() + gy.abs()).clamp(0, 255) as u8;
                assert_eq!(edges.get(x as u32, y as u32), expect, "({x},{y})");
            }
        }
    }

    #[test]
    fn sdlc_sobel_is_exact_but_scharr_is_not() {
        // Sobel's taps are powers of two → every pixel×tap product has at
        // most one live partial-product row and OR-compression is
        // lossless. Scharr's 3/10 taps spread over multiple rows and
        // genuinely collide.
        let img = scenes::blobs(48, 48, 3);
        let exact = signed_accurate(16).unwrap();
        let sobel = sobel_magnitude(&img, &exact);
        for depth in [2, 3, 4] {
            assert_eq!(
                sobel,
                sobel_magnitude(&img, &signed_sdlc(16, depth).unwrap()),
                "power-of-two taps must be exact through SDLC d{depth}"
            );
        }
        let approx = signed_sdlc(16, 4).unwrap();
        let reference = scharr_magnitude(&img, &exact);
        let shallow = scharr_magnitude(&img, &signed_sdlc(16, 2).unwrap());
        let deep = scharr_magnitude(&img, &approx);
        assert_ne!(reference, shallow, "Scharr must exercise compression");
        // Differencing amplifies product error, so the edge-map PSNR sits
        // well below the blur case study's — and falls with depth.
        let psnr_shallow = crate::psnr(&reference, &shallow);
        let psnr_deep = crate::psnr(&reference, &deep);
        assert!(psnr_shallow > 10.0, "d2 PSNR {psnr_shallow} dB");
        assert!(psnr_deep < psnr_shallow, "deeper clusters must degrade");
        assert!(psnr_deep.is_finite() && psnr_deep > 5.0);
    }

    #[test]
    #[should_panic(expected = ">=10-bit multiplier")]
    fn narrow_multipliers_are_rejected() {
        let img = GrayImage::new(4, 4);
        let _ = sobel_magnitude(&img, &signed_accurate(8).unwrap());
    }

    #[test]
    fn most_negative_weight_is_accepted() {
        // −2^{w−1} is inside the w-bit signed range even though its
        // magnitude exceeds the positive bound.
        let img = GrayImage::from_fn(4, 4, |_, _| 1);
        let k = Kernel::from_weights([[0, 0, 0], [0, -512, 0], [0, 0, 0]]);
        let field = convolve_3x3_signed(&img, &k, &signed_accurate(10).unwrap());
        assert!(field.values().iter().all(|&v| v == -512));
        // i16::MIN at a width wide enough for the i16 domain.
        let k = Kernel::from_weights([[0, 0, 0], [0, i16::MIN, 0], [0, 0, 0]]);
        let field = convolve_3x3_signed(&img, &k, &signed_accurate(18).unwrap());
        assert!(field.values().iter().all(|&v| v == i32::from(i16::MIN)));
    }

    #[test]
    #[should_panic(expected = "weight 1000 exceeds")]
    fn oversized_weights_are_rejected() {
        let img = GrayImage::new(4, 4);
        let k = Kernel::from_weights([[0, 0, 0], [0, 1000, 0], [0, 0, 0]]);
        let _ = convolve_3x3_signed(&img, &k, &signed_accurate(10).unwrap());
    }
}
