//! The significance-driven logic compression (SDLC) multiplier model —
//! Algorithm 1 of the paper, generalized to arbitrary cluster depth.
//!
//! # How the model is organized
//!
//! An N×N multiplication produces partial-product *dots* `pp(j,k) = A_j ∧ B_k`
//! at binary weight `j+k` (row `k`, column `j`). SDLC groups the N rows into
//! clusters of `depth` consecutive rows. Inside a cluster, dots of equal
//! weight are merged with a single OR gate — a lossy sum whose only failure
//! case is two or more colliding `1`s. *Significance-driven progressive
//! sizing* exempts the most significant dots from compression so that, after
//! commutative remapping, the surviving bits pack exactly into the
//! `⌈N/depth⌉` rows of the reduced accumulation matrix.
//!
//! # Recovering the paper's tail schedule
//!
//! The paper spells the schedule out only for `depth = 2` (Algorithm 1:
//! cluster `i` has width `N−i`, the remaining "unaffected MSBs" stay exact)
//! and shows dot diagrams for depths 3–4. Both are instances of one rule,
//! which this module implements ([`ClusterVariant::Progressive`]): **scan
//! column weights from most significant down; while a column holds more
//! bits than the reduced matrix has rows, close the most significant
//! still-open cluster** (it then OR-compresses every weight from there
//! down). For `depth = 2` this provably reproduces Algorithm 1; for depths
//! 3 and 4 it reproduces all error metrics of the paper's Table III to
//! every published digit — strong evidence it is the authors' construction.
//!
//! The formula-based schedules [`ClusterVariant::CeilTails`] /
//! [`ClusterVariant::PairTails`] and the tail-free
//! [`ClusterVariant::FullOr`] are retained as research ablations showing
//! what the significance-driven packing buys (see the `ablation_variants`
//! bench).

use sdlc_wideint::U256;

use crate::multiplier::{check_operand, check_width, Multiplier, SpecError};

/// Which dots participate in OR-compression.
///
/// All variants coincide at `depth = 2` (they all reduce to the paper's
/// Algorithm 1); they differ in how the significance-driven tail exemptions
/// generalize to deeper clusters. [`ClusterVariant::Progressive`] is the
/// paper's scheme: it reproduces Table II *and* Table III of the paper to
/// every published digit. The others are kept as research ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterVariant {
    /// The paper's significance-driven progressive sizing, recovered as a
    /// greedy staircase packing: scan column weights from most significant
    /// down; while a column holds more bits (exact tail dots plus
    /// already-closed cluster outputs) than the ⌈N/depth⌉ rows of the
    /// reduced matrix, *close* the most significant still-open cluster so
    /// it OR-compresses from that weight downward. For `depth = 2` this
    /// yields exactly Algorithm 1's cluster widths `N−i` and "unaffected
    /// MSB" tails; for depths 3 and 4 it reproduces the paper's Table III
    /// error metrics to all published digits.
    #[default]
    Progressive,
    /// Formula ablation: dot `(j,k)` is compressed only when
    /// `j < N − ⌈k/depth⌉` (a direct per-row reading of Algorithm 1's
    /// schedule; equals `Progressive` at depth 2, compresses less at
    /// greater depths).
    CeilTails,
    /// Formula ablation: keeps Algorithm 1's *pairwise* tail schedule
    /// `j < N − ⌈k/2⌉` unchanged while OR-merging across `depth` rows.
    PairTails,
    /// Ablation: every vertically aligned dot inside a cluster is
    /// OR-compressed, with no exact tail bits.
    FullOr,
}

impl ClusterVariant {
    /// Short identifier used in report rows.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            ClusterVariant::Progressive => "prog",
            ClusterVariant::CeilTails => "ceiltails",
            ClusterVariant::PairTails => "pairtails",
            ClusterVariant::FullOr => "fullor",
        }
    }
}

/// Computes the per-group compression cutoffs (top weight each cluster
/// OR-compresses) for [`ClusterVariant::Progressive`] by greedy staircase
/// packing into one reduced-matrix row per group.
///
/// `bounds` lists each group's `(base, top)` partial-product row range
/// (top exclusive); a returned cutoff below the group's base weight means
/// the group is never compressed.
#[must_use]
#[allow(clippy::needless_range_loop)] // `g` indexes two parallel tables
fn greedy_cutoffs(width: u32, bounds: &[(u32, u32)]) -> Vec<i64> {
    let group_count = bounds.len();
    let reduced_rows = group_count as u32;
    // Dots of group g at weight w.
    let dots_at = |g: usize, w: u32| -> u32 {
        let (base, top) = bounds[g];
        (base..top).filter(|&k| w >= k && w - k < width).count() as u32
    };
    let max_weight = 2 * width - 2;
    let mut cutoffs: Vec<i64> = vec![-1; group_count]; // -1 = still open
    let mut open = vec![true; group_count];
    for w in (0..=max_weight).rev() {
        loop {
            let mut total = 0u32;
            for g in 0..group_count {
                let n = dots_at(g, w);
                if n == 0 {
                    continue;
                }
                total += if open[g] { n } else { 1 };
            }
            if total <= reduced_rows {
                break;
            }
            // Close the most significant open group that actually shrinks
            // the column (n >= 2).
            let victim = (0..group_count)
                .rev()
                .find(|&g| open[g] && dots_at(g, w) >= 2)
                .expect("column overflow implies a compressible open group");
            open[victim] = false;
            cutoffs[victim] = i64::from(w);
        }
    }
    cutoffs
}

/// Splits `width` rows into uniform groups of `depth` (last may be short).
fn uniform_bounds(width: u32, depth: u32) -> Vec<(u32, u32)> {
    (0..width)
        .step_by(depth as usize)
        .map(|base| (base, (base + depth).min(width)))
        .collect()
}

/// One cluster of consecutive partial-product rows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Group {
    /// Lowest row index in the cluster (its weight offset).
    base: u32,
    /// Per row: `(row index k, compressed-column mask, shift k − base)`.
    rows: Vec<(u32, u128, u32)>,
}

/// The SDLC approximate multiplier (the paper's proposed design).
///
/// # Examples
///
/// Errors shrink as more significant dots are kept exact; deeper clusters
/// compress more and err more (the Table III trade-off):
///
/// ```
/// use sdlc_core::{Multiplier, SdlcMultiplier};
///
/// let d2 = SdlcMultiplier::new(8, 2)?;
/// let d4 = SdlcMultiplier::new(8, 4)?;
/// let exact = 255u128 * 255;
/// assert!(exact - d4.multiply_u64(255, 255) >= exact - d2.multiply_u64(255, 255));
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdlcMultiplier {
    width: u32,
    /// Largest cluster depth (uniform constructors: *the* depth).
    depth: u32,
    variant: ClusterVariant,
    /// Group row ranges `(base, top)`, top exclusive.
    bounds: Vec<(u32, u32)>,
    /// `t(k)` per partial-product row `k`.
    thresholds: Vec<u32>,
    groups: Vec<Group>,
}

impl SdlcMultiplier {
    /// Creates an N×N SDLC multiplier with the paper's
    /// [`ClusterVariant::Progressive`] clustering.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the width is odd or outside `2..=128`, or
    /// when `depth` is zero or exceeds the width.
    pub fn new(width: u32, depth: u32) -> Result<Self, SpecError> {
        Self::with_variant(width, depth, ClusterVariant::Progressive)
    }

    /// Creates an SDLC multiplier with an explicit cluster variant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SdlcMultiplier::new`].
    pub fn with_variant(
        width: u32,
        depth: u32,
        variant: ClusterVariant,
    ) -> Result<Self, SpecError> {
        let width = check_width(width)?;
        if depth == 0 {
            return Err(SpecError::Depth {
                depth,
                requirement: "must be at least 1",
            });
        }
        if depth > width {
            return Err(SpecError::Depth {
                depth,
                requirement: "must not exceed the width",
            });
        }
        let bounds = uniform_bounds(width, depth);
        let cutoffs = greedy_cutoffs(width, &bounds);
        let thresholds: Vec<u32> = (0..width)
            .map(|k| match variant {
                ClusterVariant::Progressive => {
                    // Dots (j,k) with weight j+k <= cutoff(group) compress.
                    let g = (k / depth) as usize;
                    (cutoffs[g] - i64::from(k) + 1).clamp(0, i64::from(width)) as u32
                }
                ClusterVariant::CeilTails => width - k.div_ceil(depth),
                ClusterVariant::PairTails => width - k.div_ceil(2),
                ClusterVariant::FullOr => width,
            })
            .collect();
        let mut multiplier = Self {
            width,
            depth,
            variant,
            bounds,
            thresholds,
            groups: Vec::new(),
        };
        multiplier.rebuild_groups();
        Ok(multiplier)
    }

    /// Creates an SDLC multiplier with *heterogeneous* cluster depths —
    /// the fully configurable version of the paper's "variable logic
    /// cluster approach": `depths[g]` consecutive partial-product rows
    /// form cluster `g`, and the significance-driven greedy packing
    /// ([`ClusterVariant::Progressive`]) chooses the exact tail bits.
    ///
    /// Mixing depths spans the accuracy-energy space between the uniform
    /// points of Table III: e.g. `[4, 2, 2]` compresses the least
    /// significant rows hard while treating significant rows gently.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the width is invalid, any depth is zero,
    /// or the depths do not sum to the width.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdlc_core::SdlcMultiplier;
    ///
    /// let mixed = SdlcMultiplier::with_group_depths(8, &[4, 2, 2])?;
    /// assert_eq!(mixed.reduced_rows(), 3);
    /// # Ok::<(), sdlc_core::SpecError>(())
    /// ```
    pub fn with_group_depths(width: u32, depths: &[u32]) -> Result<Self, SpecError> {
        let width = check_width(width)?;
        if depths.is_empty() || depths.contains(&0) {
            return Err(SpecError::Depth {
                depth: 0,
                requirement: "every group depth must be at least 1",
            });
        }
        if depths.iter().sum::<u32>() != width {
            return Err(SpecError::Depth {
                depth: depths.iter().sum(),
                requirement: "group depths must sum to the width",
            });
        }
        let mut bounds = Vec::with_capacity(depths.len());
        let mut base = 0;
        for &d in depths {
            bounds.push((base, base + d));
            base += d;
        }
        let cutoffs = greedy_cutoffs(width, &bounds);
        let group_of = |k: u32| bounds.iter().position(|&(b, t)| (b..t).contains(&k));
        let thresholds: Vec<u32> = (0..width)
            .map(|k| {
                let g = group_of(k).expect("bounds partition the rows");
                (cutoffs[g] - i64::from(k) + 1).clamp(0, i64::from(width)) as u32
            })
            .collect();
        let mut multiplier = Self {
            width,
            depth: depths.iter().copied().max().expect("nonempty"),
            variant: ClusterVariant::Progressive,
            bounds,
            thresholds,
            groups: Vec::new(),
        };
        multiplier.rebuild_groups();
        Ok(multiplier)
    }

    /// Recomputes the per-group masks from `self.thresholds`.
    fn rebuild_groups(&mut self) {
        let thresholds = &self.thresholds;
        self.groups = self
            .bounds
            .iter()
            .map(|&(base, top)| {
                let rows = (base..top)
                    .map(|k| {
                        let t = thresholds[k as usize];
                        let mask = if t == 0 {
                            0
                        } else if t >= 128 {
                            u128::MAX
                        } else {
                            (1u128 << t) - 1
                        };
                        (k, mask, k - base)
                    })
                    .collect();
                Group { base, rows }
            })
            .collect();
    }

    /// Cluster depth `d` (the largest group's depth for heterogeneous
    /// configurations).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The clusters' partial-product row ranges as `(base, top)` pairs
    /// (top exclusive), in significance order.
    #[must_use]
    pub fn group_bounds(&self) -> &[(u32, u32)] {
        &self.bounds
    }

    /// The clustering variant in use.
    #[must_use]
    pub fn variant(&self) -> ClusterVariant {
        self.variant
    }

    /// Compression threshold `t(k)` for partial-product row `k`: dots with
    /// column `j < t(k)` are OR-compressed, the rest stay exact.
    ///
    /// # Panics
    ///
    /// Panics if `k >= width`.
    #[must_use]
    pub fn threshold(&self, k: u32) -> u32 {
        self.thresholds[k as usize]
    }

    /// Number of compressed rows after remapping (`⌈N/d⌉` for uniform
    /// depth) — the row count of the reduced accumulation tree.
    #[must_use]
    pub fn reduced_rows(&self) -> u32 {
        self.bounds.len() as u32
    }

    /// Number of two-input OR gates the compression stage needs: one per
    /// merged pair of aligned dots (a w-deep merged column needs `w−1`).
    #[must_use]
    pub fn or_gate_count(&self) -> u32 {
        let mut count = 0;
        for group in &self.groups {
            // Depth of the compressed column at each weight.
            let min_w = group.base;
            let max_w = group
                .rows
                .iter()
                .map(|&(k, _, _)| k + self.width - 1)
                .max()
                .unwrap_or(0);
            for w in min_w..=max_w {
                let depth_here = group
                    .rows
                    .iter()
                    .filter(|&&(k, mask, _)| {
                        w >= k && w - k < self.width && (mask >> (w - k)) & 1 == 1
                    })
                    .count() as u32;
                count += depth_here.saturating_sub(1);
            }
        }
        count
    }
}

impl Multiplier for SdlcMultiplier {
    fn width(&self) -> u32 {
        self.width
    }

    fn name(&self) -> String {
        let uniform = self
            .bounds
            .iter()
            .take(self.bounds.len().saturating_sub(1))
            .all(|&(b, t)| t - b == self.depth);
        let depth_part = if uniform {
            format!("d{}", self.depth)
        } else {
            let depths: Vec<String> = self
                .bounds
                .iter()
                .map(|&(b, t)| (t - b).to_string())
                .collect();
            format!("dmix{}", depths.join("_"))
        };
        match self.variant {
            ClusterVariant::Progressive => format!("sdlc{}_{depth_part}", self.width),
            variant => format!("sdlc{}_{depth_part}_{}", self.width, variant.tag()),
        }
    }

    fn multiply(&self, a: u128, b: u128) -> U256 {
        check_operand(self.width, a, "left");
        check_operand(self.width, b, "right");
        let mut product = U256::ZERO;
        for group in &self.groups {
            let mut or_val = U256::ZERO;
            for &(k, mask, rel) in &group.rows {
                if (b >> k) & 1 == 1 {
                    or_val = or_val | U256::from_u128(a & mask) << rel;
                }
            }
            product = product.wrapping_add(&(or_val << group.base));
        }
        for k in 0..self.width {
            if (b >> k) & 1 == 1 {
                let t = self.thresholds[k as usize];
                if t < self.width {
                    let tail = a >> t;
                    product = product.wrapping_add(&(U256::from_u128(tail) << (t + k)));
                }
            }
        }
        product
    }

    fn multiply_u64(&self, a: u64, b: u64) -> u128 {
        assert!(
            self.width <= 32,
            "multiply_u64 supports widths up to 32 bits"
        );
        check_operand(self.width, u128::from(a), "left");
        check_operand(self.width, u128::from(b), "right");
        let mut product: u128 = 0;
        for group in &self.groups {
            let mut or_val: u64 = 0;
            for &(k, mask, rel) in &group.rows {
                if (b >> k) & 1 == 1 {
                    or_val |= (a & mask as u64) << rel;
                }
            }
            product += u128::from(or_val) << group.base;
        }
        for k in 0..self.width {
            if (b >> k) & 1 == 1 {
                let t = self.thresholds[k as usize];
                if t < self.width {
                    product += u128::from(a >> t) << (t + k);
                }
            }
        }
        product
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation straight from the paper's Algorithm 1
    /// (depth 2 only): builds the reduced matrix row by row — first bit,
    /// cluster of width N−i, then the "unaffected MSBs" — and sums the rows.
    #[allow(clippy::explicit_counter_loop)] // mirrors the paper line by line
    fn algorithm1_reference(n: u32, a: u64, b: u64) -> u128 {
        let bit = |x: u64, i: u32| -> u64 {
            if i < n {
                (x >> i) & 1
            } else {
                0
            }
        };
        let mut total: u128 = 0;
        let mut rho: u32 = 0; // paper is 1-indexed; we use a 0-indexed weight
        for i in 1..=n / 2 {
            let mut row: u128 = 0;
            // Line 7: first bit of the pair.
            row |= u128::from(bit(a, 0) & bit(b, 2 * i - 2));
            // Lines 8-10: the 2×(N−i) logic cluster.
            for j in 1..=(n - i) {
                let merged = (bit(a, j) & bit(b, 2 * i - 2)) | (bit(a, j - 1) & bit(b, 2 * i - 1));
                row |= u128::from(merged) << j;
            }
            // Lines 11-15: unaffected MSBs A(N−i)·B(k), k = 2i−1 .. N−1.
            let mut delta = 1;
            for k in (2 * i - 1)..n {
                row |= u128::from(bit(a, n - i) & bit(b, k)) << ((n - i) + delta);
                delta += 1;
            }
            total += row << rho;
            rho += 2;
        }
        total
    }

    #[test]
    fn matches_algorithm1_exhaustively_4bit() {
        let m = SdlcMultiplier::new(4, 2).unwrap();
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(
                    m.multiply_u64(a, b),
                    algorithm1_reference(4, a, b),
                    "mismatch at a={a}, b={b}"
                );
            }
        }
    }

    #[test]
    fn matches_algorithm1_exhaustively_8bit() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        for a in 0..256u64 {
            for b in 0..256u64 {
                assert_eq!(
                    m.multiply_u64(a, b),
                    algorithm1_reference(8, a, b),
                    "mismatch at a={a}, b={b}"
                );
            }
        }
    }

    #[test]
    fn hand_worked_4bit_case() {
        // Worked in the design notes: 15 × 15 with 2-bit clusters:
        // cluster(rows 0,1) = 0b1111, cluster(rows 2,3) = 0b0111 << 2,
        // tails = A3·B1·2^4 + A3·B2·2^5 + (A>>2)·B3·2^5 = 16+32+96.
        let m = SdlcMultiplier::new(4, 2).unwrap();
        assert_eq!(m.multiply_u64(15, 15), 15 + 28 + 144);
    }

    #[test]
    fn depth_one_is_exact() {
        for n in [4u32, 8, 12] {
            let m = SdlcMultiplier::new(n, 1).unwrap();
            let mask = (1u64 << n) - 1;
            for (a, b) in [(0, 0), (1, mask), (mask, mask), (mask / 3, mask / 5)] {
                assert_eq!(m.multiply_u64(a, b), u128::from(a) * u128::from(b));
            }
        }
    }

    #[test]
    fn never_overestimates() {
        // OR(x, y) <= x + y bit-by-bit, so the SDLC product never exceeds
        // the exact product.
        for depth in [2u32, 3, 4] {
            let m = SdlcMultiplier::new(8, depth).unwrap();
            for a in 0..256u64 {
                for b in 0..256u64 {
                    assert!(m.multiply_u64(a, b) <= u128::from(a) * u128::from(b));
                }
            }
        }
    }

    #[test]
    fn zero_and_one_operands_are_exact() {
        for depth in [2u32, 3, 4] {
            let m = SdlcMultiplier::new(16, depth).unwrap();
            let mask = (1u64 << 16) - 1;
            for x in [0u64, 1, 2, mask, 0xbeef] {
                assert_eq!(m.multiply_u64(x, 0), 0);
                assert_eq!(m.multiply_u64(0, x), 0);
                assert_eq!(m.multiply_u64(x, 1), u128::from(x), "x={x}");
            }
        }
    }

    #[test]
    fn wide_and_fast_paths_agree() {
        for depth in [2u32, 3, 4] {
            let m = SdlcMultiplier::new(12, depth).unwrap();
            let mut rng = sdlc_wideint::SplitMix64::new(0xD5DC + u64::from(depth));
            for _ in 0..2000 {
                let a = rng.next_bits(12);
                let b = rng.next_bits(12);
                assert_eq!(
                    U256::from_u128(m.multiply_u64(a, b)),
                    m.multiply(u128::from(a), u128::from(b)),
                    "a={a} b={b} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn wide_path_supports_128_bits() {
        let m = SdlcMultiplier::new(128, 2).unwrap();
        let exact = AccurateReference128;
        // Power-of-two operands never collide in OR-compression.
        let p = m.multiply(1u128 << 127, 1u128 << 127);
        assert_eq!(p, exact.mul(1u128 << 127, 1u128 << 127));
        assert!(m.multiply(u128::MAX, u128::MAX) <= exact.mul(u128::MAX, u128::MAX));
    }

    struct AccurateReference128;
    impl AccurateReference128 {
        fn mul(&self, a: u128, b: u128) -> U256 {
            U256::from_u128(a).wrapping_mul(&U256::from_u128(b))
        }
    }

    #[test]
    fn thresholds_follow_paper_for_depth2() {
        // Paper: cluster i covers columns up to N−i, i.e. t(2i−2) = N−i+1
        // and t(2i−1) = N−i.
        let m = SdlcMultiplier::new(8, 2).unwrap();
        for i in 1..=4u32 {
            assert_eq!(m.threshold(2 * i - 2), 8 - i + 1);
            assert_eq!(m.threshold(2 * i - 1), 8 - i);
        }
    }

    #[test]
    fn reduced_rows_counts() {
        assert_eq!(SdlcMultiplier::new(8, 2).unwrap().reduced_rows(), 4);
        assert_eq!(SdlcMultiplier::new(8, 3).unwrap().reduced_rows(), 3);
        assert_eq!(SdlcMultiplier::new(8, 4).unwrap().reduced_rows(), 2);
        assert_eq!(SdlcMultiplier::new(128, 2).unwrap().reduced_rows(), 64);
    }

    #[test]
    fn or_gate_count_8bit_depth2_matches_figure2() {
        // Figure 2: clusters 2×7, 2×6, 2×5, 2×4 → 7+6+5+4 = 22 OR gates.
        let m = SdlcMultiplier::new(8, 2).unwrap();
        assert_eq!(m.or_gate_count(), 22);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(SdlcMultiplier::new(8, 0).is_err());
        assert!(SdlcMultiplier::new(8, 9).is_err());
        assert!(SdlcMultiplier::new(7, 2).is_err());
        assert!(SdlcMultiplier::new(0, 2).is_err());
    }

    #[test]
    fn names_and_tags() {
        assert_eq!(SdlcMultiplier::new(8, 2).unwrap().name(), "sdlc8_d2");
        let ablation = SdlcMultiplier::with_variant(8, 3, ClusterVariant::FullOr).unwrap();
        assert_eq!(ablation.name(), "sdlc8_d3_fullor");
        assert_eq!(ClusterVariant::Progressive.tag(), "prog");
        assert_eq!(ClusterVariant::FullOr.tag(), "fullor");
    }

    #[test]
    fn heterogeneous_depths_partition_rows() {
        let mixed = SdlcMultiplier::with_group_depths(8, &[4, 2, 2]).unwrap();
        assert_eq!(mixed.group_bounds(), &[(0, 4), (4, 6), (6, 8)]);
        assert_eq!(mixed.reduced_rows(), 3);
        assert_eq!(mixed.depth(), 4);
        assert_eq!(mixed.name(), "sdlc8_dmix4_2_2");
        // Uniform construction through the same API matches the classic one.
        let uniform = SdlcMultiplier::with_group_depths(8, &[2, 2, 2, 2]).unwrap();
        let classic = SdlcMultiplier::new(8, 2).unwrap();
        for a in (0..256u64).step_by(7) {
            for b in 0..256u64 {
                assert_eq!(uniform.multiply_u64(a, b), classic.multiply_u64(a, b));
            }
        }
    }

    #[test]
    fn heterogeneous_accuracy_sits_between_uniform_points() {
        use crate::error::exhaustive;
        let d2 = exhaustive(&SdlcMultiplier::new(8, 2).unwrap()).unwrap();
        let d4 = exhaustive(&SdlcMultiplier::new(8, 4).unwrap()).unwrap();
        // Hard compression on the low rows only.
        let mixed = exhaustive(&SdlcMultiplier::with_group_depths(8, &[4, 2, 2]).unwrap()).unwrap();
        assert!(mixed.mred > d2.mred, "{} vs {}", mixed.mred, d2.mred);
        assert!(mixed.mred < d4.mred, "{} vs {}", mixed.mred, d4.mred);
    }

    #[test]
    fn heterogeneous_validation() {
        assert!(SdlcMultiplier::with_group_depths(8, &[]).is_err());
        assert!(SdlcMultiplier::with_group_depths(8, &[4, 0, 4]).is_err());
        assert!(SdlcMultiplier::with_group_depths(8, &[4, 2]).is_err());
        assert!(SdlcMultiplier::with_group_depths(8, &[2, 3, 3]).is_ok());
    }

    #[test]
    fn fullor_is_at_most_progressive() {
        // FullOr compresses strictly more dots, so its product can only be
        // further from (never above) the exact one.
        let prog = SdlcMultiplier::new(8, 2).unwrap();
        let full = SdlcMultiplier::with_variant(8, 2, ClusterVariant::FullOr).unwrap();
        for a in 0..256u64 {
            for b in 0..256u64 {
                assert!(full.multiply_u64(a, b) <= prog.multiply_u64(a, b));
            }
        }
    }
}
