//! Signed 3×3 convolution kernels (edge-detection taps).
//!
//! Unlike the Gaussian blur of the paper's case study, derivative filters
//! carry *negative* taps — the reason the signed multiplier subsystem
//! exists. The classic pair here is Sobel's horizontal/vertical gradient
//! operators.

/// A 3×3 convolution kernel with signed 16-bit integer weights.
///
/// # Examples
///
/// ```
/// use sdlc_imgproc::SignedKernel;
///
/// let gx = SignedKernel::sobel_gx();
/// assert_eq!(gx.weight(0, 0), -1);
/// assert_eq!(gx.weight(2, 1), 2);
/// assert_eq!(gx.weight_sum(), 0); // derivative kernels are zero-gain
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedKernel {
    weights: [[i16; 3]; 3],
}

impl SignedKernel {
    /// The Sobel horizontal-gradient operator `Gx`:
    /// `[[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]`.
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
    /// [`SignedKernel::scharr_gx`]).
    #[must_use]
    pub fn scharr_gy() -> Self {
        Self {
            weights: [[-3, -10, -3], [0, 0, 0], [3, 10, 3]],
        }
    }

    /// Builds a kernel from raw signed weights.
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

    /// Sum of all weights (0 for derivative kernels).
    #[must_use]
    pub fn weight_sum(&self) -> i32 {
        self.weights.iter().flatten().map(|&w| i32::from(w)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sobel_pair_is_transposed() {
        let gx = SignedKernel::sobel_gx();
        let gy = SignedKernel::sobel_gy();
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(gx.weight(x, y), gy.weight(y, x));
            }
        }
        assert_eq!(gx.weight_sum(), 0);
        assert_eq!(gy.weight_sum(), 0);
    }

    #[test]
    fn from_weights_round_trip() {
        let w = [[-3, 0, 3], [-10, 5, 10], [-3, 0, 3]];
        let k = SignedKernel::from_weights(w);
        assert_eq!(k.weight(0, 1), -10);
        // The ±3 and ±10 taps cancel, leaving the centre tap.
        assert_eq!(k.weight_sum(), 5);
    }
}
