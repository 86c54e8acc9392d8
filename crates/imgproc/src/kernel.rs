//! 3×3 convolution kernels: quantized Gaussians for the blur case study
//! and signed edge-detection taps.

/// A 3×3 convolution kernel with signed 16-bit integer weights.
///
/// Blur kernels carry the paper's "8-bit fixed point arithmetic" weights
/// in `0..=255`. Two quantizations are provided, because the paper does
/// not print its weight values and the *approximate-multiplier* error
/// profile is sensitive to which bit patterns the weights land on
/// (weights whose set bits fall into the same logic cluster collide;
/// others are exact — see "Known divergences" in the README, Fig. 8):
///
/// * [`Kernel::gaussian_3x3`] — full-scale: the center weight is 255,
///   exercising the whole 8×8 multiplier as the paper's description
///   implies ("multiplying each kernel value by the corresponding input
///   image pixel values"); sums are normalized by [`Kernel::weight_sum`]
///   in the convolution. Reproduces the paper's monotone PSNR-vs-depth
///   trend.
/// * [`Kernel::gaussian_3x3_unit_gain`] — Q0.8 weights summing to
///   exactly 256 (hardware-friendly shift normalization); kept as an
///   ablation showing the quantization sensitivity.
///
/// Derivative filters carry *negative* taps — the reason the signed
/// multiplier subsystem exists: Sobel's and Scharr's horizontal/vertical
/// gradient operators.
///
/// # Examples
///
/// ```
/// use sdlc_imgproc::Kernel;
///
/// let blur = Kernel::gaussian_3x3(1.5);
/// assert_eq!(blur.weight(1, 1), 255);             // center at full scale
/// assert!(blur.weight(1, 1) > blur.weight(0, 0)); // center dominates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel {
    weights: [[i16; 3]; 3],
}

impl Kernel {
    /// Builds the full-scale 3×3 Gaussian kernel for standard deviation
    /// `sigma` (σ = 1.5 in the paper): weights are `round(255·g/g_max)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive and finite.
    #[must_use]
    pub fn gaussian_3x3(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        let (corner_raw, edge_raw) = Self::raw_weights(sigma);
        let c = (corner_raw * 255.0).round() as i16;
        let e = (edge_raw * 255.0).round() as i16;
        Self {
            weights: [[c, e, c], [e, 255, e], [c, e, c]],
        }
    }

    /// Builds the unit-gain Q0.8 quantization: weights sum to exactly 256,
    /// the center absorbing the rounding residue.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive and finite.
    #[must_use]
    pub fn gaussian_3x3_unit_gain(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        let (corner_raw, edge_raw) = Self::raw_weights(sigma);
        let total = 4.0 * corner_raw + 4.0 * edge_raw + 1.0;
        let corner = (corner_raw / total * 256.0).round() as u32;
        let edge = (edge_raw / total * 256.0).round() as u32;
        let center = 256 - 4 * corner - 4 * edge;
        let q = |v: u32| i16::from(u8::try_from(v).expect("weight fits in a byte"));
        let (c, e, m) = (q(corner), q(edge), q(center));
        Self {
            weights: [[c, e, c], [e, m, e], [c, e, c]],
        }
    }

    /// Corner and edge weights of the unnormalized Gaussian (center = 1).
    fn raw_weights(sigma: f64) -> (f64, f64) {
        let corner = (-2.0 / (2.0 * sigma * sigma)).exp();
        let edge = (-1.0 / (2.0 * sigma * sigma)).exp();
        (corner, edge)
    }

    /// The Sobel horizontal-gradient operator `Gx`:
    /// `[[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdlc_imgproc::Kernel;
    ///
    /// let gx = Kernel::sobel_gx();
    /// assert_eq!(gx.weight(0, 0), -1);
    /// assert_eq!(gx.weight(2, 1), 2);
    /// assert_eq!(gx.weight_sum(), 0); // derivative kernels are zero-gain
    /// ```
    #[must_use]
    pub fn sobel_gx() -> Self {
        Self {
            weights: [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]],
        }
    }

    /// The Sobel vertical-gradient operator `Gy`:
    /// `[[-1, -2, -1], [0, 0, 0], [1, 2, 1]]` (the transpose of `Gx`).
    #[must_use]
    pub fn sobel_gy() -> Self {
        Self {
            weights: [[-1, -2, -1], [0, 0, 0], [1, 2, 1]],
        }
    }

    /// The Scharr horizontal-gradient operator `Gx`:
    /// `[[-3, 0, 3], [-10, 0, 10], [-3, 0, 3]]`.
    ///
    /// Scharr's taps have *multiple set bits* (3 = `0b11`, 10 = `0b1010`),
    /// unlike Sobel's powers of two, which SDLC multiplies exactly —
    /// Scharr is the operator in this family whose products genuinely
    /// collide in compressed logic clusters.
    #[must_use]
    pub fn scharr_gx() -> Self {
        Self {
            weights: [[-3, 0, 3], [-10, 0, 10], [-3, 0, 3]],
        }
    }

    /// The Scharr vertical-gradient operator `Gy` (the transpose of
    /// [`Kernel::scharr_gx`]).
    #[must_use]
    pub fn scharr_gy() -> Self {
        Self {
            weights: [[-3, -10, -3], [0, 0, 0], [3, 10, 3]],
        }
    }

    /// Builds a kernel from raw weights.
    #[must_use]
    pub fn from_weights(weights: [[i16; 3]; 3]) -> Self {
        Self { weights }
    }

    /// Weight at kernel position `(x, y)`, both in `0..3`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn weight(&self, x: usize, y: usize) -> i16 {
        self.weights[y][x]
    }

    /// Sum of all weights — the blur's normalization denominator (256 for
    /// unit-gain kernels, 0 for derivative kernels).
    #[must_use]
    pub fn weight_sum(&self) -> i32 {
        self.weights().map(i32::from).sum()
    }

    /// All nine weights, row-major.
    pub(crate) fn weights(&self) -> impl Iterator<Item = i16> + '_ {
        self.weights.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_quantizations_are_symmetric() {
        for k in [
            Kernel::gaussian_3x3(1.5),
            Kernel::gaussian_3x3_unit_gain(1.5),
        ] {
            assert_eq!(k.weight(0, 0), k.weight(2, 2));
            assert_eq!(k.weight(0, 2), k.weight(2, 0));
            assert_eq!(k.weight(1, 0), k.weight(0, 1));
            assert_eq!(k.weight(1, 0), k.weight(1, 2));
            for y in 0..3 {
                for x in 0..3 {
                    assert!(k.weight(1, 1) >= k.weight(x, y));
                }
            }
        }
    }

    #[test]
    fn unit_gain_sums_to_256() {
        for sigma in [0.5, 1.0, 1.5, 3.0] {
            assert_eq!(Kernel::gaussian_3x3_unit_gain(sigma).weight_sum(), 256);
        }
    }

    #[test]
    fn sigma_15_reference_values() {
        // σ = 1.5: corner/center = exp(-2/4.5) ≈ 0.6412, edge/center =
        // exp(-1/4.5) ≈ 0.8007.
        let k = Kernel::gaussian_3x3(1.5);
        assert_eq!(k.weight(0, 0), 164);
        assert_eq!(k.weight(1, 0), 204);
        assert_eq!(k.weight(1, 1), 255);
        let unit = Kernel::gaussian_3x3_unit_gain(1.5);
        assert_eq!(unit.weight(0, 0), 24);
        assert_eq!(unit.weight(1, 0), 30);
        assert_eq!(unit.weight(1, 1), 40);
    }

    #[test]
    fn narrow_sigma_concentrates_mass() {
        let narrow = Kernel::gaussian_3x3(0.5);
        let wide = Kernel::gaussian_3x3(3.0);
        assert!(narrow.weight(0, 0) < wide.weight(0, 0));
        assert_eq!(narrow.weight(1, 1), 255);
        assert_eq!(wide.weight(1, 1), 255);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn bad_sigma_panics() {
        let _ = Kernel::gaussian_3x3(0.0);
    }

    #[test]
    fn from_weights_roundtrip() {
        let w = [[1, 2, 3], [4, 5, 6], [7, 8, 9]];
        let k = Kernel::from_weights(w);
        assert_eq!(k.weight(2, 0), 3);
        assert_eq!(k.weight(0, 2), 7);
        assert_eq!(k.weight_sum(), 45);
    }

    #[test]
    fn from_weights_roundtrip_negative_taps() {
        let w = [[-3, 0, 3], [-10, 5, 10], [-3, 0, 3]];
        let k = Kernel::from_weights(w);
        assert_eq!(k.weight(0, 1), -10);
        // The ±3 and ±10 taps cancel, leaving the centre tap.
        assert_eq!(k.weight_sum(), 5);
    }

    #[test]
    fn sobel_pair_is_transposed() {
        let gx = Kernel::sobel_gx();
        let gy = Kernel::sobel_gy();
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(gx.weight(x, y), gy.weight(y, x));
            }
        }
        assert_eq!(gx.weight_sum(), 0);
        assert_eq!(gy.weight_sum(), 0);
    }
}
