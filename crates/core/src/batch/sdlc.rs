//! Bit-sliced SDLC engine: OR-compression, significance-driven tails and
//! reduced-matrix accumulation as word-wide boolean ops.

use crate::batch::{
    add_planes, check_batch_width, check_planes, BatchMultiplier, Batchable, BATCH_MAX_WIDTH, LANES,
};
use crate::multiplier::Multiplier;
use crate::sdlc::SdlcMultiplier;

/// One cluster's compressed rows: `(row k, threshold t(k), shift k − base)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BatchGroup {
    base: u32,
    /// Planes occupied by the cluster's OR accumulator
    /// (`max(t + rel)` over its rows; 0 = nothing compressed).
    span: u32,
    rows: Vec<(u32, u32, u32)>,
}

/// The bit-sliced twin of [`SdlcMultiplier`], covering every
/// [`ClusterVariant`](crate::ClusterVariant), heterogeneous depth
/// schedules and custom threshold tables.
///
/// Per cluster, dot `(j, k)` with `j < t(k)` lands in the shared OR
/// accumulator plane `j + (k − base)` as `a[j] & b[k]` — one AND and one
/// OR for 64 lanes; the accumulator then ripple-adds into the product at
/// the cluster's base weight. Exact tail dots (`j ≥ t(k)`) add directly
/// at weight `j + k`, exactly mirroring the scalar
/// [`SdlcMultiplier::multiply_u64`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSdlc {
    width: u32,
    groups: Vec<BatchGroup>,
    /// Rows with exact tail bits: `(row k, threshold t(k) < width)`.
    tails: Vec<(u32, u32)>,
    /// Number of leading groups whose rows are all below the 64-lane
    /// block stride (bit 6): their contribution is identical for every
    /// block of one exhaustive sweep row (see
    /// [`BatchMultiplier::sweep_operand_row`]).
    stride_invariant_groups: usize,
    /// Same prefix split for `tails`.
    stride_invariant_tails: usize,
}

/// Rows below this bit index see only the fixed counting patterns of a
/// 64-aligned consecutive-operand block (`log2(LANES)`).
const BLOCK_BITS: u32 = 6;

impl BatchSdlc {
    /// Builds the engine from a scalar SDLC model (any variant, any depth
    /// schedule).
    ///
    /// # Panics
    ///
    /// Panics if the model is wider than
    /// [`BATCH_MAX_WIDTH`](crate::batch::BATCH_MAX_WIDTH) bits.
    #[must_use]
    pub fn new(model: &SdlcMultiplier) -> Self {
        let width = check_batch_width(model.width());
        let groups: Vec<BatchGroup> = model
            .group_bounds()
            .iter()
            .map(|&(base, top)| {
                let rows: Vec<(u32, u32, u32)> = (base..top)
                    .map(|k| (k, model.threshold(k), k - base))
                    .collect();
                let span = rows.iter().map(|&(_, t, rel)| t + rel).max().unwrap_or(0);
                BatchGroup { base, span, rows }
            })
            .collect();
        let tails: Vec<(u32, u32)> = (0..width)
            .filter(|&k| model.threshold(k) < width)
            .map(|k| (k, model.threshold(k)))
            .collect();
        // Rows ascend across groups and tails, so the block-invariant
        // members form prefixes.
        let stride_invariant_groups = groups
            .iter()
            .take_while(|g| g.rows.iter().all(|&(k, _, _)| k < BLOCK_BITS))
            .count();
        let stride_invariant_tails = tails.iter().take_while(|&&(k, _)| k < BLOCK_BITS).count();
        Self {
            width,
            groups,
            tails,
            stride_invariant_groups,
            stride_invariant_tails,
        }
    }

    /// Adds the broadcast-`a` contributions of the given groups and tails
    /// into `product` (which the caller primes — zeros or a snapshot).
    fn accumulate_bcast(
        &self,
        a: u64,
        b: &[u64],
        product: &mut [u64],
        groups: &[BatchGroup],
        tails: &[(u32, u32)],
    ) {
        let mut row = [0u64; LANES];
        for group in groups {
            let span = group.span as usize;
            if span == 0 {
                continue;
            }
            row[..span].fill(0);
            for &(k, t, rel) in &group.rows {
                let bk = b[k as usize];
                if bk == 0 {
                    continue;
                }
                let mut bits = a & low_mask(t);
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    row[j + rel as usize] |= bk;
                }
            }
            add_planes(product, &row[..span], group.base as usize);
        }
        for &(k, t) in tails {
            let bk = b[k as usize];
            if bk == 0 {
                continue;
            }
            let n = (self.width - t) as usize;
            let tail_bits = a >> t;
            for (j, slot) in row.iter_mut().enumerate().take(n) {
                *slot = if (tail_bits >> j) & 1 == 1 { bk } else { 0 };
            }
            add_planes(product, &row[..n], (t + k) as usize);
        }
    }
}

impl BatchMultiplier for BatchSdlc {
    fn width(&self) -> u32 {
        self.width
    }

    fn multiply_planes(&self, a: &[u64], b: &[u64], product: &mut [u64]) {
        check_planes(self.width, a, b, product);
        product.fill(0);
        let mut row = [0u64; LANES];
        for group in &self.groups {
            let span = group.span as usize;
            if span == 0 {
                continue;
            }
            row[..span].fill(0);
            for &(k, t, rel) in &group.rows {
                let bk = b[k as usize];
                if bk == 0 {
                    continue;
                }
                for (slot, &aj) in row[rel as usize..].iter_mut().zip(&a[..t as usize]) {
                    *slot |= aj & bk;
                }
            }
            add_planes(product, &row[..span], group.base as usize);
        }
        for &(k, t) in &self.tails {
            let bk = b[k as usize];
            if bk == 0 {
                continue;
            }
            let tail = &a[t as usize..self.width as usize];
            for (slot, &aj) in row.iter_mut().zip(tail) {
                *slot = aj & bk;
            }
            add_planes(product, &row[..tail.len()], (t + k) as usize);
        }
    }

    /// Exhaustive-sweep fast path: with `a` equal in every lane, the
    /// AND against its broadcast planes degenerates — dot `(j, k)` either
    /// contributes `b[k]` verbatim (bit `j` of `a` set) or nothing — so
    /// the whole compression stage becomes ORs of `b` planes selected by
    /// `a`'s bits, roughly halving the boolean work per block.
    fn multiply_planes_bcast(&self, a: u64, b: &[u64], product: &mut [u64]) {
        crate::multiplier::check_operand(self.width, u128::from(a), "left");
        let width = self.width as usize;
        assert!(b.len() >= width, "right operand needs {width} planes");
        assert_eq!(product.len(), 2 * width, "product takes exactly 2N planes");
        product.fill(0);
        self.accumulate_bcast(a, b, product, &self.groups, &self.tails);
    }

    fn sweep_operand_row(&self, a: u64, count: u64, emit: &mut dyn FnMut(u64, &[u64])) {
        crate::multiplier::check_operand(self.width, u128::from(a), "left");
        assert!(
            count >= LANES as u64 && count.is_multiple_of(LANES as u64),
            "sweep rows take 64-aligned block counts"
        );
        let width = self.width as usize;
        // Blocks walk b in consecutive 64-value strides, so the b planes
        // below `BLOCK_BITS` are fixed counting patterns: every cluster
        // and tail gated only by them contributes identically to all
        // blocks of this `a` row. Pre-sum those once and start each block
        // from the snapshot; only the rows gated by b's upper (broadcast)
        // bits are evaluated per block. Integer plane addition is exact,
        // so the reassociation leaves every product bit unchanged.
        let mut b_planes = [0u64; BATCH_MAX_WIDTH as usize];
        sdlc_wideint::bitplane::counter_planes(0, self.width, &mut b_planes);
        let mut base = [0u64; LANES];
        self.accumulate_bcast(
            a,
            &b_planes[..width],
            &mut base[..2 * width],
            &self.groups[..self.stride_invariant_groups],
            &self.tails[..self.stride_invariant_tails],
        );
        let mut product = [0u64; LANES];
        let mut b0 = 0u64;
        while b0 < count {
            sdlc_wideint::bitplane::counter_planes(b0, self.width, &mut b_planes);
            product[..2 * width].copy_from_slice(&base[..2 * width]);
            self.accumulate_bcast(
                a,
                &b_planes[..width],
                &mut product[..2 * width],
                &self.groups[self.stride_invariant_groups..],
                &self.tails[self.stride_invariant_tails..],
            );
            emit(b0, &product[..2 * width]);
            b0 += LANES as u64;
        }
    }
}

/// All-ones mask of the low `t` bits (`t ≤ 32`).
fn low_mask(t: u32) -> u64 {
    (1u64 << t) - 1
}

impl Batchable for SdlcMultiplier {
    type Batch = BatchSdlc;

    fn batch_model(&self) -> BatchSdlc {
        BatchSdlc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterVariant;

    fn agree_on(model: &SdlcMultiplier, seed: u64) {
        let batch = model.batch_model();
        let mut rng = sdlc_wideint::SplitMix64::new(seed);
        let a: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(model.width()));
        let b: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(model.width()));
        let products = batch.multiply_lanes(&a, &b);
        for i in 0..LANES {
            assert_eq!(
                products[i],
                model.multiply_u64(a[i], b[i]),
                "{} lane {i}: a={} b={}",
                model.name(),
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn exhaustive_4bit_depth2_matches_scalar() {
        let model = SdlcMultiplier::new(4, 2).unwrap();
        let batch = model.batch_model();
        // All 256 pairs in four 64-lane batches.
        for chunk in 0..4u64 {
            let a: [u64; LANES] = core::array::from_fn(|i| (chunk * 64 + i as u64) / 16);
            let b: [u64; LANES] = core::array::from_fn(|i| (chunk * 64 + i as u64) % 16);
            let products = batch.multiply_lanes(&a, &b);
            for i in 0..LANES {
                assert_eq!(products[i], model.multiply_u64(a[i], b[i]));
            }
        }
    }

    #[test]
    fn all_variants_and_depths_agree() {
        for width in [6u32, 8, 12, 16] {
            for depth in [2u32, 3, 4] {
                for variant in [
                    ClusterVariant::Progressive,
                    ClusterVariant::CeilTails,
                    ClusterVariant::PairTails,
                    ClusterVariant::FullOr,
                ] {
                    let model = SdlcMultiplier::with_variant(width, depth, variant).unwrap();
                    agree_on(&model, u64::from(width * 100 + depth * 10));
                }
            }
        }
    }

    #[test]
    fn mixed_depth_schedules_agree() {
        for depths in [&[4u32, 2, 2][..], &[2, 3, 3], &[1, 1, 2, 4]] {
            let model = SdlcMultiplier::with_group_depths(8, depths).unwrap();
            agree_on(&model, 0x51DC);
        }
    }

    #[test]
    fn width_32_agrees() {
        let model = SdlcMultiplier::new(32, 3).unwrap();
        agree_on(&model, 32);
    }

    /// The exhaustive-row fast path (block-invariant pre-summing) must
    /// reproduce the scalar products for widths on both sides of the
    /// 64-value block stride.
    #[test]
    fn sweep_operand_row_matches_scalar() {
        for (width, depth) in [(6u32, 2u32), (8, 2), (8, 3), (12, 2), (16, 4)] {
            let model = SdlcMultiplier::new(width, depth).unwrap();
            let batch = model.batch_model();
            let count = 1u64 << width;
            let mask = count - 1;
            // A handful of operand rows, including the all-ones row.
            for a in [0u64, 1, 0x35 & mask, mask] {
                let mut blocks = 0u64;
                batch.sweep_operand_row(a, count, &mut |b0, planes| {
                    let mut lanes = [0u64; LANES];
                    crate::batch::extract_product_lanes(planes, &mut lanes);
                    for (i, &lane) in lanes.iter().enumerate() {
                        let b = b0 + i as u64;
                        assert_eq!(
                            u128::from(lane),
                            model.multiply_u64(a, b),
                            "{} a={a} b={b}",
                            model.name()
                        );
                    }
                    blocks += 1;
                });
                assert_eq!(blocks, count / LANES as u64);
            }
        }
    }
}
