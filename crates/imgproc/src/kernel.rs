//! Fixed-point quantization of Gaussian convolution kernels.

/// A 3×3 convolution kernel with 8-bit fixed-point weights, matching the
/// paper's "8-bit fixed point arithmetic" setting.
///
/// Two quantizations are provided, because the paper does not print its
/// weight values and the *approximate-multiplier* error profile is
/// sensitive to which bit patterns the weights land on (weights whose set
/// bits fall into the same logic cluster collide; others are exact —
/// see "Known divergences" in the README, Fig. 8):
///
/// * [`FixedKernel::gaussian_3x3`] — full-scale: the center weight is 255,
///   exercising the whole 8×8 multiplier as the paper's description
///   implies ("multiplying each kernel value by the corresponding input
///   image pixel values"); sums are normalized by [`FixedKernel::weight_sum`]
///   in the convolution. Reproduces the paper's monotone PSNR-vs-depth
///   trend.
/// * [`FixedKernel::gaussian_3x3_unit_gain`] — Q0.8 weights summing to
///   exactly 256 (hardware-friendly shift normalization); kept as an
///   ablation showing the quantization sensitivity.
///
/// # Examples
///
/// ```
/// use sdlc_imgproc::FixedKernel;
///
/// let k = FixedKernel::gaussian_3x3(1.5);
/// assert_eq!(k.weight(1, 1), 255);          // center at full scale
/// assert!(k.weight(1, 1) > k.weight(0, 0)); // center dominates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedKernel {
    weights: [[u8; 3]; 3],
}

impl FixedKernel {
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
        let c = (corner_raw * 255.0).round() as u8;
        let e = (edge_raw * 255.0).round() as u8;
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
        let q = |v: u32| u8::try_from(v).expect("weight fits in a byte");
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

    /// Builds a kernel from raw 8-bit weights.
    #[must_use]
    pub fn from_weights(weights: [[u8; 3]; 3]) -> Self {
        Self { weights }
    }

    /// Weight at kernel position `(x, y)`, both in `0..3`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn weight(&self, x: usize, y: usize) -> u8 {
        self.weights[y][x]
    }

    /// Sum of all quantized weights — the convolution's normalization
    /// denominator (256 for unit-gain kernels).
    #[must_use]
    pub fn weight_sum(&self) -> u32 {
        self.weights.iter().flatten().map(|&w| u32::from(w)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_quantizations_are_symmetric() {
        for k in [
            FixedKernel::gaussian_3x3(1.5),
            FixedKernel::gaussian_3x3_unit_gain(1.5),
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
            assert_eq!(FixedKernel::gaussian_3x3_unit_gain(sigma).weight_sum(), 256);
        }
    }

    #[test]
    fn sigma_15_reference_values() {
        // σ = 1.5: corner/center = exp(-2/4.5) ≈ 0.6412, edge/center =
        // exp(-1/4.5) ≈ 0.8007.
        let k = FixedKernel::gaussian_3x3(1.5);
        assert_eq!(k.weight(0, 0), 164);
        assert_eq!(k.weight(1, 0), 204);
        assert_eq!(k.weight(1, 1), 255);
        let unit = FixedKernel::gaussian_3x3_unit_gain(1.5);
        assert_eq!(unit.weight(0, 0), 24);
        assert_eq!(unit.weight(1, 0), 30);
        assert_eq!(unit.weight(1, 1), 40);
    }

    #[test]
    fn narrow_sigma_concentrates_mass() {
        let narrow = FixedKernel::gaussian_3x3(0.5);
        let wide = FixedKernel::gaussian_3x3(3.0);
        assert!(narrow.weight(0, 0) < wide.weight(0, 0));
        assert_eq!(narrow.weight(1, 1), 255);
        assert_eq!(wide.weight(1, 1), 255);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn bad_sigma_panics() {
        let _ = FixedKernel::gaussian_3x3(0.0);
    }

    #[test]
    fn from_weights_roundtrip() {
        let w = [[1, 2, 3], [4, 5, 6], [7, 8, 9]];
        let k = FixedKernel::from_weights(w);
        assert_eq!(k.weight(2, 0), 3);
        assert_eq!(k.weight(0, 2), 7);
        assert_eq!(k.weight_sum(), 45);
    }
}
