//! Bit-sliced SDLC engine: OR-compression, significance-driven tails and
//! reduced-matrix accumulation as word-wide boolean ops.

use crate::batch::{
    add_planes, check_batch_width, check_planes, check_row_count, BatchMultiplier, Batchable,
    BATCH_MAX_WIDTH, LANES,
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
    /// [`BATCH_MAX_WIDTH`] bits.
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
        Self {
            width,
            groups,
            tails,
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

    /// Broadcast fast path: with `a` equal in every lane, the AND against
    /// its broadcast planes degenerates — dot `(j, k)` either contributes
    /// `b[k]` verbatim (bit `j` of `a` set) or nothing — so the whole
    /// compression stage becomes ORs of `b` planes selected by `a`'s bits,
    /// roughly halving the boolean work per block.
    fn multiply_planes_bcast(&self, a: u64, b: &[u64], product: &mut [u64]) {
        crate::multiplier::check_operand(self.width, u128::from(a), "left");
        let width = self.width as usize;
        assert!(b.len() >= width, "right operand needs {width} planes");
        assert_eq!(product.len(), 2 * width, "product takes exactly 2N planes");
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
                let mut bits = a & low_mask(t);
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    row[j + rel as usize] |= bk;
                }
            }
            add_planes(product, &row[..span], group.base as usize);
        }
        for &(k, t) in &self.tails {
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

    /// Lane-form row sweep without planes. With `a` fixed, row `k` adds
    /// `or[k] = (a & mask(t(k))) << (k − base)` into its cluster's OR and
    /// `tail[k] = (a >> t(k)) << (t(k) + k)` to the sum whenever bit `k`
    /// of `b` is set. In a 64-aligned block `b = b0 + i`, bits below 6
    /// are the lane index `i` and the rest are `b0`'s, so lane `i`'s
    /// product splits into `low[i] + high + ((mixed[i] | straddle) << base)`:
    ///
    /// * `low` sums every cluster wholly below bit 6 and every tail below
    ///   bit 6, and `mixed` ORs the low rows of the one cluster that
    ///   straddles bit 6 (if any). Both are 64-entry lane tables built
    ///   once per row by subset doubling.
    /// * `high` (clusters from bit 6 up, and the tails of rows from bit 6
    ///   up) and `straddle` (the straddling cluster's high rows) are
    ///   scalars per block.
    ///
    /// Integer addition is exact, so the regrouping leaves every product
    /// equal to [`SdlcMultiplier::multiply_u64`]'s.
    fn sweep_operand_row_lanes(
        &self,
        a: u64,
        count: u64,
        emit: &mut dyn FnMut(u64, &[u64; LANES]),
    ) {
        crate::multiplier::check_operand(self.width, u128::from(a), "left");
        check_row_count(count);
        let mut or = [0u64; BATCH_MAX_WIDTH as usize];
        let mut tail = [0u64; BATCH_MAX_WIDTH as usize];
        for group in &self.groups {
            for &(k, t, rel) in &group.rows {
                or[k as usize] = (a & low_mask(t)) << rel;
                // `t = width` leaves no tail: `a >> width` is 0.
                tail[k as usize] = (a >> t) << (t + k);
            }
        }
        let lane_bits = self.width.min(BLOCK_BITS);
        // `low[..len]` covers lane bits `[0, log2 len)`; each cluster
        // below bit 6 extends it by its own rows (clusters are
        // consecutive row ranges from row 0).
        let mut low = [0u64; LANES];
        let mut mixed = [0u64; LANES];
        let (mut unit, mut ors) = ([0u64; LANES], [0u64; LANES]);
        let mut len = 1usize;
        let mut split = self.groups.len();
        for (g, group) in self.groups.iter().enumerate() {
            if group.base >= lane_bits {
                split = g;
                break;
            }
            let lo = group.base as usize;
            let rows = group.rows.len().min(lane_bits as usize - lo);
            let straddles = rows < group.rows.len();
            subset_fold(&tail[lo..lo + rows], |x, y| x + y, &mut unit[..1 << rows]);
            subset_fold(&or[lo..lo + rows], |x, y| x | y, &mut ors[..1 << rows]);
            if straddles {
                // The low rows' OR stays apart until the block's high rows
                // join it.
                for (i, slot) in mixed.iter_mut().enumerate() {
                    *slot = ors[i >> lo];
                }
            } else {
                for (u, &o) in unit[..1 << rows].iter_mut().zip(&ors) {
                    *u += o << lo;
                }
            }
            for j in 1..1 << rows {
                for r in 0..len {
                    low[j * len + r] = low[r] + unit[j];
                }
            }
            len <<= rows;
            if straddles {
                split = g;
                break;
            }
        }
        // Narrower than 6 bits: `b` repeats every `2^width` lanes.
        for i in len..LANES {
            low[i] = low[i % len];
        }
        let high_groups = &self.groups[split..];
        let straddle_base = high_groups
            .first()
            .filter(|g| g.base < lane_bits)
            .map_or(0, |g| g.base);
        let mut out = [0u64; LANES];
        let mut b0 = 0u64;
        while b0 < count {
            let mut high = 0u64;
            let mut straddle = 0u64;
            for group in high_groups {
                let mut or_val = 0u64;
                for &(k, _, _) in &group.rows {
                    if k < lane_bits {
                        continue;
                    }
                    let hit = ((b0 >> k) & 1).wrapping_neg();
                    or_val |= or[k as usize] & hit;
                    high += tail[k as usize] & hit;
                }
                if group.base < lane_bits {
                    straddle = or_val;
                } else {
                    high += or_val << group.base;
                }
            }
            for ((slot, &l), &m) in out.iter_mut().zip(&low).zip(&mixed) {
                *slot = l + high + ((m | straddle) << straddle_base);
            }
            emit(b0, &out);
            b0 += LANES as u64;
        }
    }
}

/// Subset doubling: `out[j]` (`j < 2^terms.len()`) receives the `op`-fold
/// of `terms[k]` over the set bits `k` of `j` (0 for the empty set), each
/// entry one `op` away from the entry without its lowest set bit.
fn subset_fold(terms: &[u64], op: impl Fn(u64, u64) -> u64, out: &mut [u64]) {
    out[0] = 0;
    for j in 1..out.len() {
        out[j] = op(out[j & (j - 1)], terms[j.trailing_zeros() as usize]);
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

    /// Checks one lane-form row sweep: every lane against the scalar
    /// model and one emit per block in ascending `b0`.
    fn assert_row_lanes_match(model: &SdlcMultiplier, a: u64, count: u64) {
        let batch = model.batch_model();
        let pattern_mask = (1u64 << model.width()) - 1;
        let mut next_b0 = 0u64;
        batch.sweep_operand_row_lanes(a, count, &mut |b0, lanes| {
            assert_eq!(b0, next_b0, "{} a={a}: blocks out of order", model.name());
            for (i, &lane) in lanes.iter().enumerate() {
                let b = (b0 + i as u64) & pattern_mask;
                assert_eq!(
                    u128::from(lane),
                    model.multiply_u64(a, b),
                    "{} a={a} b={b}",
                    model.name()
                );
            }
            next_b0 += LANES as u64;
        });
        assert_eq!(next_b0, count, "{} a={a}: one emit per block", model.name());
    }

    /// Operand rows worth sweeping: the extremes plus a few mixed patterns.
    fn rows_of(width: u32) -> [u64; 5] {
        let mask = (1u64 << width) - 1;
        [0, 1, 0x35 & mask, 0xA5A5_A5A5 & mask, mask]
    }

    /// The lane-form row sweep must reproduce the scalar products whether
    /// the operand is narrower than the block, the clusters sit wholly
    /// below the 64-value block stride (bit 6), straddle it (10 bits at
    /// depths 4 and 5), stop exactly at it (depth 3) or sit wholly above
    /// it (depth 2's upper clusters).
    #[test]
    fn sweep_operand_row_matches_scalar() {
        let variants = [
            ClusterVariant::Progressive,
            ClusterVariant::CeilTails,
            ClusterVariant::PairTails,
            ClusterVariant::FullOr,
        ];
        for (width, depth) in [
            (4u32, 2u32),
            (4, 3),
            (6, 2),
            (6, 4),
            (8, 2),
            (8, 3),
            (10, 2),
            (10, 3),
            (10, 4),
            (10, 5),
            (12, 4),
            (16, 4),
        ] {
            for variant in variants {
                let model = SdlcMultiplier::with_variant(width, depth, variant).unwrap();
                // Width 4 wraps `b` within its single block.
                for a in rows_of(width) {
                    assert_row_lanes_match(&model, a, (1u64 << width).max(LANES as u64));
                }
            }
        }
        for depths in [&[6u32, 2][..], &[1, 4, 3, 2], &[1; 8]] {
            let width = depths.iter().sum();
            let model = SdlcMultiplier::with_group_depths(width, depths).unwrap();
            for a in rows_of(width) {
                assert_row_lanes_match(&model, a, 1 << width);
            }
        }
        // Width 32: a few rows, never the whole 2^32-value row.
        for depth in [2u32, 3, 5] {
            let model = SdlcMultiplier::new(32, depth).unwrap();
            for a in rows_of(32) {
                for count in [64u64, 128] {
                    assert_row_lanes_match(&model, a, count);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "64-aligned block counts")]
    fn lane_sweep_rejects_partial_blocks() {
        let batch = SdlcMultiplier::new(8, 2).unwrap().batch_model();
        batch.sweep_operand_row_lanes(3, 96, &mut |_, _| {});
    }
}
