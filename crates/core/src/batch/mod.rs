//! Bit-sliced 64-lane batch evaluation of the functional multiplier models.
//!
//! The scalar [`Multiplier`] path evaluates one operand pair per call. The
//! paper's evaluation, however, sweeps *every* operand pair — 2^{2N} of
//! them — so the hottest loop in this repository multiplies billions of
//! times. This module applies the same trick the netlist layer's
//! compiled gate engine uses for switching activity: store the operands
//! **transposed** as bit-planes (one `u64` per bit position, lane `i` of
//! each word belonging to pair `i`; see [`sdlc_wideint::bitplane`]) and
//! every AND/OR of the multiplier's dot diagram becomes one word-wide
//! boolean instruction evaluating 64 multiplications at once.
//!
//! # Layout
//!
//! A batch holds [`LANES`] = 64 independent multiplications. Operand `A`
//! of an `N`-bit model becomes `N` planes `a[0..N]` with
//! `a[j] >> i & 1 == bit j of lane i's A`; products come back as `2N`
//! planes in the same layout. OR-compression, the Kulkarni 2×2 block, the
//! ETM collision chain and partial-product accumulation (a word-wide
//! ripple of XOR/majority steps — `add_planes`) all translate
//! directly, so the bit-sliced engines are *bit-exact* replicas of the
//! scalar models: `tests/batch_differential.rs` proves agreement on every
//! width/depth/variant combination and an exhaustive 8-bit cross-check.
//!
//! # Engines
//!
//! * [`BatchAccurate`] — the exact reference;
//! * [`BatchSdlc`] — the paper's SDLC design for every
//!   [`ClusterVariant`](crate::ClusterVariant), uniform or mixed depth
//!   schedules, and custom threshold tables;
//! * [`BatchTruncated`], [`BatchKulkarni`], [`BatchEtm`] — the baselines.
//!
//! [`Batchable`] maps each scalar model to its bit-sliced twin; the error
//! drivers in [`crate::error`] use it to run exhaustive sweeps, sampling
//! and histograms through either engine (see
//! [`Engine`](crate::error::Engine)).
//!
//! # Exhaustive rows
//!
//! An exhaustive sweep fixes `a` per row and walks `b` in 64-aligned
//! blocks `b0 + i`, so `b`'s six low bits are the lane index and the rest
//! are constant per block. [`BatchMultiplier::sweep_operand_row_lanes`]
//! emits each block's products in lane form, the shape the error
//! accounting reads. Its default runs the plane-form
//! [`BatchMultiplier::sweep_operand_row`] and un-transposes each block.
//! [`BatchSdlc`] overrides it without planes: per row it builds 64-entry
//! lane tables for the rows below bit 6, and per block it adds the few
//! rows above.
//!
//! # Examples
//!
//! ```
//! use sdlc_core::batch::{BatchMultiplier, Batchable, LANES};
//! use sdlc_core::{Multiplier, SdlcMultiplier};
//!
//! let scalar = SdlcMultiplier::new(8, 2)?;
//! let batch = scalar.batch_model();
//! let a: [u64; LANES] = core::array::from_fn(|i| (i as u64 * 37) & 0xff);
//! let b: [u64; LANES] = core::array::from_fn(|i| (i as u64 * 101) & 0xff);
//! let products = batch.multiply_lanes(&a, &b);
//! for i in 0..LANES {
//!     assert_eq!(products[i], scalar.multiply_u64(a[i], b[i]));
//! }
//! # Ok::<(), sdlc_core::SpecError>(())
//! ```

mod accurate;
mod baselines;
mod sdlc;
pub(crate) mod signed;

pub use accurate::BatchAccurate;
pub use baselines::{BatchEtm, BatchKulkarni, BatchTruncated};
pub use sdlc::BatchSdlc;
/// Un-transposes product planes into per-lane values (`out[i]` = lane
/// `i`'s product); the default
/// [`BatchMultiplier::sweep_operand_row_lanes`] and the sampled error
/// drivers read plane products through this.
pub use sdlc_wideint::bitplane::lanes_from_planes as extract_product_lanes;
pub use signed::BatchSignMagnitude;

use sdlc_wideint::bitplane;

use crate::multiplier::{check_operand, Multiplier};

/// Number of multiplications one batch evaluates — re-exported from
/// [`sdlc_wideint::bitplane::LANES`].
pub const LANES: usize = sdlc_wideint::bitplane::LANES;

/// Largest operand width the bit-sliced engines support: products must fit
/// one 64-plane stack (and the scalar `multiply_u64` fast path they are
/// checked against has the same bound).
pub const BATCH_MAX_WIDTH: u32 = 32;

/// A 64-lane bit-sliced multiplier model.
///
/// Implementations are pure boolean networks over bit-planes and must be
/// bit-exact twins of their scalar [`Multiplier`] counterparts.
pub trait BatchMultiplier {
    /// Operand width N in bits (at most [`BATCH_MAX_WIDTH`]).
    fn width(&self) -> u32;

    /// Computes 64 products from transposed operands.
    ///
    /// `a` and `b` hold at least `N` planes (plane `j`, lane `i` = bit `j`
    /// of pair `i`'s operand; planes beyond `N` are ignored), and
    /// `product` receives exactly `2N` planes, previous contents
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` holds fewer than `N` planes or `product` does
    /// not hold exactly `2N`.
    fn multiply_planes(&self, a: &[u64], b: &[u64], product: &mut [u64]);

    /// [`BatchMultiplier::multiply_planes`] with the left operand equal in
    /// every lane — the shape of an exhaustive sweep's inner loop, where
    /// the broadcast operand's planes are all-zeros or all-ones words and
    /// AND gates against them collapse away. The default builds the
    /// broadcast planes and defers to the general path; engines with a
    /// profitable specialization (SDLC's OR-compression) override it.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit in [`BatchMultiplier::width`] bits or
    /// the plane slices are missized.
    fn multiply_planes_bcast(&self, a: u64, b: &[u64], product: &mut [u64]) {
        check_operand(self.width(), u128::from(a), "left");
        let mut a_planes = [0u64; BATCH_MAX_WIDTH as usize];
        bitplane::broadcast_planes(a, self.width(), &mut a_planes);
        self.multiply_planes(&a_planes[..self.width() as usize], b, product);
    }

    /// Evaluates one exhaustive-sweep row in the bit-plane domain: the
    /// fixed operand `a` against every `b` in `[0, count)`, walked in
    /// 64-lane blocks of consecutive values, calling
    /// `emit(b0, product_planes)` once per block. It builds each block's
    /// counting planes and defers to
    /// [`BatchMultiplier::multiply_planes_bcast`]. The error drivers take
    /// the lane-form [`BatchMultiplier::sweep_operand_row_lanes`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit the width or `count` is not a positive
    /// multiple of [`LANES`].
    fn sweep_operand_row(&self, a: u64, count: u64, emit: &mut dyn FnMut(u64, &[u64])) {
        check_row_count(count);
        let width = self.width() as usize;
        let mut b_planes = [0u64; BATCH_MAX_WIDTH as usize];
        let mut product = [0u64; LANES];
        let mut b0 = 0u64;
        while b0 < count {
            bitplane::counter_planes(b0, self.width(), &mut b_planes);
            self.multiply_planes_bcast(a, &b_planes[..width], &mut product[..2 * width]);
            emit(b0, &product[..2 * width]);
            b0 += LANES as u64;
        }
    }

    /// [`BatchMultiplier::sweep_operand_row`] in lane form: one
    /// `emit(b0, products)` per 64-lane block, in ascending `b0`, where
    /// `products[i]` is the product of `(a, b0 + i)` (`b` taken modulo
    /// `2^N`). This is the exhaustive sweep of the error drivers. The
    /// default un-transposes the plane sweep's blocks
    /// ([`extract_product_lanes`]); SDLC overrides it with per-row lane
    /// tables that need neither planes nor the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not fit the width or `count` is not a positive
    /// multiple of [`LANES`].
    fn sweep_operand_row_lanes(
        &self,
        a: u64,
        count: u64,
        emit: &mut dyn FnMut(u64, &[u64; LANES]),
    ) {
        let mut lanes = [0u64; LANES];
        self.sweep_operand_row(a, count, &mut |b0, planes| {
            extract_product_lanes(planes, &mut lanes);
            emit(b0, &lanes);
        });
    }

    /// Convenience wrapper over [`BatchMultiplier::multiply_planes`] that
    /// transposes 64 lane-form operand pairs, evaluates them, and returns
    /// the 64 products (`product[i]` belongs to `(a[i], b[i])`).
    ///
    /// # Panics
    ///
    /// Panics if any operand does not fit in [`BatchMultiplier::width`]
    /// bits.
    fn multiply_lanes(&self, a: &[u64; LANES], b: &[u64; LANES]) -> [u128; LANES] {
        check_lanes(self.width(), a, b);
        multiply_block(self, a, b).map(u128::from)
    }
}

/// A scalar model with a bit-sliced twin; implemented by the accurate
/// reference, [`crate::SdlcMultiplier`] and all baselines.
pub trait Batchable: Multiplier {
    /// The bit-sliced engine type for this model.
    type Batch: BatchMultiplier;

    /// Builds the bit-sliced twin (cheap; workers build one per thread).
    ///
    /// # Panics
    ///
    /// Panics if the model is wider than [`BATCH_MAX_WIDTH`] bits.
    fn batch_model(&self) -> Self::Batch;
}

/// Evaluates one exhaustive-sweep block through a bit-sliced model:
/// `out[i]` receives the model's product for `(a, b0 + i)` across all
/// [`LANES`] consecutive `b` patterns (taken modulo `2^N`, so a block may
/// start past a narrow model's last pattern). The block's counter planes
/// go through [`BatchMultiplier::multiply_planes_bcast`] and the product
/// planes come out through [`extract_product_lanes`]. This is the model
/// side of `sdlc-sim`'s lane-form `equiv::check_exhaustive_batched`.
///
/// # Panics
///
/// Panics if `a` does not fit the model's width or `b0` is not
/// 64-aligned.
///
/// # Examples
///
/// ```
/// use sdlc_core::batch::{exhaustive_block, Batchable, LANES};
/// use sdlc_core::{Multiplier, SdlcMultiplier};
///
/// let model = SdlcMultiplier::new(8, 2)?;
/// let batch = model.batch_model();
/// let mut out = [0u64; LANES];
/// exhaustive_block(&batch, 200, 64, &mut out);
/// for (i, &p) in out.iter().enumerate() {
///     assert_eq!(u128::from(p), model.multiply_u64(200, 64 + i as u64));
/// }
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
pub fn exhaustive_block(batch: &impl BatchMultiplier, a: u64, b0: u64, out: &mut [u64; LANES]) {
    let width = batch.width() as usize;
    let mut b_planes = [0u64; BATCH_MAX_WIDTH as usize];
    bitplane::counter_planes(b0, batch.width(), &mut b_planes[..width]);
    let mut product = [0u64; LANES];
    batch.multiply_planes_bcast(a, &b_planes[..width], &mut product[..2 * width]);
    extract_product_lanes(&product[..2 * width], out);
}

/// The lane-form block product of the sampled sweeps and
/// [`BatchMultiplier::multiply_lanes`]: `out[i]` is the model's product of
/// `(a[i], b[i])`. The operands go in through the 16- or 32-plane block
/// transpose that fits the width, and the `2N` product planes come out
/// through [`extract_product_lanes`]. Operands are not checked.
pub(crate) fn multiply_block<B: BatchMultiplier + ?Sized>(
    batch: &B,
    a: &[u64; LANES],
    b: &[u64; LANES],
) -> [u64; LANES] {
    let width = batch.width() as usize;
    let planes = |lanes: &[u64; LANES]| {
        let mut out = [0u64; BATCH_MAX_WIDTH as usize];
        if width <= 16 {
            out[..16].copy_from_slice(&bitplane::planes_from_lanes16(&lanes.map(|x| x as u16)));
        } else {
            out = bitplane::planes_from_lanes32(&lanes.map(|x| x as u32));
        }
        out
    };
    let (a, b) = (planes(a), planes(b));
    let mut product = [0u64; LANES];
    batch.multiply_planes(&a[..width], &b[..width], &mut product[..2 * width]);
    let mut out = [0u64; LANES];
    extract_product_lanes(&product[..2 * width], &mut out);
    out
}

/// Panics unless `count` is a positive multiple of [`LANES`], the block
/// count contract of the exhaustive row sweeps.
pub(crate) fn check_row_count(count: u64) {
    assert!(
        count >= LANES as u64 && count.is_multiple_of(LANES as u64),
        "sweep rows take 64-aligned block counts"
    );
}

/// Validates a scalar model's width for batching.
pub(crate) fn check_batch_width(width: u32) -> u32 {
    assert!(
        width <= BATCH_MAX_WIDTH,
        "bit-sliced engines support widths up to {BATCH_MAX_WIDTH} bits, got {width}"
    );
    width
}

/// Panics unless the plane slices of a `width`-bit batch call are sized
/// per the [`BatchMultiplier::multiply_planes`] contract.
pub(crate) fn check_planes(width: u32, a: &[u64], b: &[u64], product: &[u64]) {
    let width = width as usize;
    assert!(a.len() >= width, "left operand needs {width} planes");
    assert!(b.len() >= width, "right operand needs {width} planes");
    assert_eq!(product.len(), 2 * width, "product takes exactly 2N planes");
}

/// Validates 64 lane-form operands against the model width (mirrors the
/// scalar engines' `check_operand` panics).
pub(crate) fn check_lanes(width: u32, a: &[u64; LANES], b: &[u64; LANES]) {
    for i in 0..LANES {
        check_operand(width, u128::from(a[i]), "left");
        check_operand(width, u128::from(b[i]), "right");
    }
}

/// Adds `addend` into `acc` starting at plane `offset`, all 64 lanes at
/// once: a ripple of word-wide full adders (`sum = x ^ y ^ c`,
/// `carry = majority(x, y, c)`), with the carry rippling past the addend
/// until it dies out.
///
/// Callers must guarantee headroom: every lane's running total has to fit
/// `acc` (always true here — each partial accumulation is bounded by the
/// exact product, which fits the `2N` product planes).
pub(crate) fn add_planes(acc: &mut [u64], addend: &[u64], offset: usize) {
    let (sum, ripple) = acc[offset..].split_at_mut(addend.len());
    let mut carry = 0u64;
    for (slot, &x) in sum.iter_mut().zip(addend) {
        let y = *slot;
        *slot = y ^ x ^ carry;
        carry = (y & x) | (carry & (y ^ x));
    }
    // Ripple the carry-out. A handful of unconditional steps first: a
    // lane's carry survives each plane with probability ~1/2, so checking
    // per plane is a branch-mispredict machine while checking after four
    // planes almost never loops — the batch engines live in this
    // function, and the exit pattern is what makes them fast.
    let head = ripple.len().min(4);
    let (head_planes, rest) = ripple.split_at_mut(head);
    for slot in head_planes {
        let y = *slot;
        *slot = y ^ carry;
        carry &= y;
    }
    if carry != 0 {
        for slot in rest {
            if carry == 0 {
                break;
            }
            let y = *slot;
            *slot = y ^ carry;
            carry &= y;
        }
    }
    debug_assert_eq!(carry, 0, "carry out of the product planes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_wideint::bitplane::transposed64;

    #[test]
    fn add_planes_is_lanewise_addition() {
        let mut rng = sdlc_wideint::SplitMix64::new(0xADD);
        for _ in 0..50 {
            let x: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(20));
            let y: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(20));
            let shift = (rng.next_below(8)) as usize;
            let mut acc = transposed64(&x);
            let addend = transposed64(&y);
            add_planes(&mut acc, &addend[..21], shift);
            let sums = transposed64(&acc);
            for i in 0..LANES {
                assert_eq!(sums[i], x[i] + (y[i] << shift), "lane {i}");
            }
        }
    }

    #[test]
    fn exhaustive_block_planes_hold_the_scalar_products() {
        // Width 4 wraps `b` within the block (16 patterns per 64 lanes).
        for (width, a, b0) in [(4u32, 11u64, 0u64), (8, 200, 64), (8, 0, 192)] {
            let model = crate::SdlcMultiplier::new(width, 2).unwrap();
            let batch = model.batch_model();
            let mut lanes = [0u64; LANES];
            exhaustive_block(&batch, a, b0, &mut lanes);
            // The same block in plane form, as `verify`'s plane checker
            // models it: the broadcast form and the plane form on the
            // broadcast planes.
            let planes = 2 * width as usize;
            let (mut a_planes, mut b_planes) = ([0u64; LANES], [0u64; LANES]);
            bitplane::broadcast_planes(a, width, &mut a_planes);
            bitplane::counter_planes(b0, width, &mut b_planes);
            let mut product = [0u64; LANES];
            batch.multiply_planes_bcast(a, &b_planes[..width as usize], &mut product[..planes]);
            assert_eq!(transposed64(&product), lanes);
            batch.multiply_planes(&a_planes, &b_planes, &mut product[..planes]);
            assert_eq!(transposed64(&product), lanes);
            for (i, &p) in lanes.iter().enumerate() {
                let b = (b0 + i as u64) % (1 << width);
                assert_eq!(u128::from(p), model.multiply_u64(a, b), "{a} x {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "up to 32 bits")]
    fn batchable_rejects_wide_models() {
        let _ = crate::AccurateMultiplier::new(64).unwrap().batch_model();
    }
}
