//! Accumulation-tree generators: row-wise ripple (the paper's scheme),
//! Wallace and Dadda column compressors.
//!
//! The SDLC paper accumulates partial-product rows with plain ripple-carry
//! adders for both the accurate and the approximate designs ("for the
//! purpose of fair comparison", Section IV) — that is
//! [`accumulate_rows_ripple`]. The compressed matrix "can then be treated
//! as an accumulation tree by any scheme of multiplication, such as
//! carry-save array, Wallace and Dadda tree" (Section II), so
//! [`carry_save`], [`wallace`] and [`dadda`] are provided for the
//! ablation benches.

use crate::adders::{full_adder, half_adder, ripple_add, ripple_add_shifted};
use crate::ir::{NetId, Netlist};

/// A partial-product row: bits at consecutive weights starting at `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBits {
    /// Weight of the first bit.
    pub offset: usize,
    /// Little-endian bits (index `i` has weight `offset + i`).
    pub bits: Vec<NetId>,
}

impl RowBits {
    /// Builds a dense row from sparse `(weight, net)` pairs, filling
    /// interior gaps with the shared constant-0 net.
    ///
    /// # Panics
    ///
    /// Panics if two bits share a weight or `sparse` is empty.
    pub fn from_sparse(n: &mut Netlist, sparse: &[(u32, NetId)]) -> Self {
        assert!(!sparse.is_empty(), "a row needs at least one bit");
        let mut sorted = sparse.to_vec();
        sorted.sort_by_key(|&(w, _)| w);
        let offset = sorted[0].0 as usize;
        let top = sorted.last().expect("nonempty").0 as usize;
        let zero = n.const0();
        let mut bits = vec![zero; top - offset + 1];
        let mut last = None;
        for (w, net) in sorted {
            assert_ne!(last, Some(w), "duplicate weight {w} in row");
            last = Some(w);
            bits[w as usize - offset] = net;
        }
        Self { offset, bits }
    }
}

/// Accumulates rows by folding them with ripple-carry adders, least
/// significant row first — the paper's accumulation stage. Returns the
/// little-endian product bits.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn accumulate_rows_ripple(n: &mut Netlist, rows: &[RowBits]) -> Vec<NetId> {
    assert!(!rows.is_empty(), "need at least one row");
    let mut rows = rows.to_vec();
    rows.sort_by_key(|r| r.offset);
    let mut acc = Vec::new();
    let zero = n.const0();
    for _ in 0..rows[0].offset {
        acc.push(zero);
    }
    acc.extend_from_slice(&rows[0].bits);
    for row in &rows[1..] {
        acc = ripple_add_shifted(n, &acc, &row.bits, row.offset);
    }
    acc
}

/// Column representation: `columns[w]` lists the bits of weight `w`.
pub type Columns = Vec<Vec<NetId>>;

/// Converts rows to columns (for the tree compressors).
#[must_use]
pub fn rows_to_columns(rows: &[RowBits], width: usize) -> Columns {
    let mut columns: Columns = vec![Vec::new(); width];
    for row in rows {
        for (i, &bit) in row.bits.iter().enumerate() {
            columns[row.offset + i].push(bit);
        }
    }
    columns
}

/// Wallace-tree reduction: every layer greedily compresses each column's
/// triples with full adders and leftover pairs with half adders until no
/// column holds more than two bits, then a final ripple adder merges the
/// two surviving rows.
pub fn wallace(n: &mut Netlist, mut columns: Columns) -> Vec<NetId> {
    loop {
        let max_height = columns.iter().map(Vec::len).max().unwrap_or(0);
        if max_height <= 2 {
            break;
        }
        let mut next: Columns = vec![Vec::new(); columns.len() + 1];
        for (w, column) in columns.iter().enumerate() {
            let mut iter = column.chunks_exact(3);
            for triple in iter.by_ref() {
                let fa = full_adder(n, triple[0], triple[1], triple[2]);
                next[w].push(fa.sum);
                next[w + 1].push(fa.carry);
            }
            match iter.remainder() {
                [a, b] => {
                    let ha = half_adder(n, *a, *b);
                    next[w].push(ha.sum);
                    next[w + 1].push(ha.carry);
                }
                rest => next[w].extend_from_slice(rest),
            }
        }
        while next.last().is_some_and(Vec::is_empty) {
            next.pop();
        }
        columns = next;
    }
    final_two_row_add(n, columns)
}

/// Dadda-tree reduction: compresses just enough per layer to reach the
/// next height target in the Dadda series (…, 13, 9, 6, 4, 3, 2), then a
/// final ripple adder.
pub fn dadda(n: &mut Netlist, mut columns: Columns) -> Vec<NetId> {
    let max_height = columns.iter().map(Vec::len).max().unwrap_or(0);
    // Dadda height series: d_1 = 2, d_{j+1} = floor(1.5 d_j).
    let mut targets = vec![2usize];
    while *targets.last().expect("nonempty") < max_height {
        let last = *targets.last().expect("nonempty");
        targets.push(last * 3 / 2);
    }
    targets.pop(); // the first target below the current height
    while let Some(&target) = targets.last() {
        let mut next: Columns = vec![Vec::new(); columns.len() + 1];
        for w in 0..columns.len() {
            // Bits available at this weight: survivors plus carries
            // produced into this column during this layer.
            let mut avail = std::mem::take(&mut next[w]);
            avail.extend_from_slice(&columns[w]);
            while avail.len() > target {
                if avail.len() >= target + 2 {
                    let a = avail.remove(0);
                    let b = avail.remove(0);
                    let c = avail.remove(0);
                    let fa = full_adder(n, a, b, c);
                    avail.push(fa.sum);
                    next[w + 1].push(fa.carry);
                } else {
                    let a = avail.remove(0);
                    let b = avail.remove(0);
                    let ha = half_adder(n, a, b);
                    avail.push(ha.sum);
                    next[w + 1].push(ha.carry);
                }
            }
            next[w] = avail;
        }
        while next.last().is_some_and(Vec::is_empty) {
            next.pop();
        }
        columns = next;
        targets.pop();
    }
    final_two_row_add(n, columns)
}

/// Carry-save array accumulation: rows are absorbed one at a time into a
/// running (sum, carry) pair with one 3:2 compressor layer per row — the
/// classic array-multiplier structure the paper lists alongside Wallace
/// and Dadda — followed by a final ripple carry-propagate adder.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn carry_save(n: &mut Netlist, rows: &[RowBits]) -> Vec<NetId> {
    assert!(!rows.is_empty(), "need at least one row");
    let mut rows = rows.to_vec();
    rows.sort_by_key(|r| r.offset);
    // Capacity: the widest row plus carry headroom for every absorbed row.
    let width = rows
        .iter()
        .map(|r| r.offset + r.bits.len())
        .max()
        .expect("nonempty")
        + rows.len();
    let at = |row: &RowBits, w: usize| -> Option<NetId> {
        w.checked_sub(row.offset)
            .and_then(|i| row.bits.get(i))
            .copied()
    };
    // Running redundant form: sum + carry vectors.
    let mut sum: Vec<Option<NetId>> = (0..width).map(|w| at(&rows[0], w)).collect();
    let mut carry: Vec<Option<NetId>> = vec![None; width];
    for row in &rows[1..] {
        let mut next_sum: Vec<Option<NetId>> = vec![None; width];
        let mut next_carry: Vec<Option<NetId>> = vec![None; width];
        for w in 0..width {
            let mut bits: Vec<NetId> = Vec::with_capacity(3);
            bits.extend(sum[w]);
            bits.extend(carry[w]);
            bits.extend(at(row, w));
            match bits.len() {
                0 => {}
                1 => next_sum[w] = Some(bits[0]),
                2 => {
                    let ha = half_adder(n, bits[0], bits[1]);
                    next_sum[w] = Some(ha.sum);
                    next_carry[w + 1] = Some(ha.carry);
                }
                _ => {
                    let fa = full_adder(n, bits[0], bits[1], bits[2]);
                    next_sum[w] = Some(fa.sum);
                    next_carry[w + 1] = Some(fa.carry);
                }
            }
        }
        sum = next_sum;
        carry = next_carry;
    }
    // Final carry propagation.
    let zero = n.const0();
    let sum_vec: Vec<NetId> = sum.iter().map(|b| b.unwrap_or(zero)).collect();
    let carry_vec: Vec<NetId> = carry.iter().map(|b| b.unwrap_or(zero)).collect();
    ripple_add(n, &sum_vec, &carry_vec)
}

/// Splits ≤2-high columns into two rows and ripple-adds them.
fn final_two_row_add(n: &mut Netlist, columns: Columns) -> Vec<NetId> {
    let zero = n.const0();
    let width = columns.len();
    let mut row0 = vec![zero; width];
    let mut row1 = vec![zero; width];
    for (w, column) in columns.iter().enumerate() {
        assert!(
            column.len() <= 2,
            "column {w} not reduced: {}",
            column.len()
        );
        if let Some(&bit) = column.first() {
            row0[w] = bit;
        }
        if let Some(&bit) = column.get(1) {
            row1[w] = bit;
        }
    }
    ripple_add(n, &row0, &row1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The primary outputs under `stimulus`, read as one little-endian
    /// integer.
    fn eval(n: &Netlist, stimulus: &[(NetId, bool)]) -> u64 {
        crate::testing::outputs(n, stimulus)
            .iter()
            .enumerate()
            .map(|(i, &bit)| u64::from(bit) << i)
            .sum()
    }

    /// Builds a 4×4 unsigned multiplier with the given reduction and
    /// checks it exhaustively.
    fn check_multiplier(reduction: impl Fn(&mut Netlist, Columns) -> Vec<NetId>) -> Netlist {
        let mut n = Netlist::new("mul4");
        let a = n.add_input_bus("a", 4);
        let b = n.add_input_bus("b", 4);
        let mut columns: Columns = vec![Vec::new(); 7];
        for (j, &aj) in a.iter().enumerate() {
            for (k, &bk) in b.iter().enumerate() {
                let pp = n.and2(aj, bk);
                columns[j + k].push(pp);
            }
        }
        let product = reduction(&mut n, columns);
        n.set_output_bus("p", product);
        n.validate().unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut stim: Vec<(NetId, bool)> = a
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (x >> i) & 1 == 1))
                    .collect();
                stim.extend(
                    b.iter()
                        .enumerate()
                        .map(|(i, &net)| (net, (y >> i) & 1 == 1)),
                );
                assert_eq!(eval(&n, &stim), x * y, "{x}*{y}");
            }
        }
        n
    }

    #[test]
    fn wallace_multiplier_is_exact() {
        let n = check_multiplier(wallace);
        assert!(n.cell_count() > 16); // 16 ANDs + compressors
    }

    #[test]
    fn carry_save_multiplier_is_exact() {
        let mut n = Netlist::new("mul4_csa");
        let a = n.add_input_bus("a", 4);
        let b = n.add_input_bus("b", 4);
        let rows: Vec<RowBits> = b
            .iter()
            .enumerate()
            .map(|(k, &bk)| {
                let bits: Vec<NetId> = a.iter().map(|&aj| n.and2(aj, bk)).collect();
                RowBits { offset: k, bits }
            })
            .collect();
        let product = carry_save(&mut n, &rows);
        n.set_output_bus("p", product);
        n.validate().unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut stim: Vec<(NetId, bool)> = a
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (x >> i) & 1 == 1))
                    .collect();
                stim.extend(
                    b.iter()
                        .enumerate()
                        .map(|(i, &net)| (net, (y >> i) & 1 == 1)),
                );
                assert_eq!(eval(&n, &stim) & 0xff, x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn carry_save_handles_sparse_and_shifted_rows() {
        let mut n = Netlist::new("csa_sparse");
        let a = n.add_input_bus("a", 3);
        let b = n.add_input_bus("b", 3);
        // rows: a at offset 0, b at offset 2, a again at offset 4.
        let rows = vec![
            RowBits {
                offset: 0,
                bits: a.clone(),
            },
            RowBits {
                offset: 2,
                bits: b.clone(),
            },
            RowBits {
                offset: 4,
                bits: a.clone(),
            },
        ];
        let product = carry_save(&mut n, &rows);
        n.set_output_bus("p", product);
        for x in 0..8u64 {
            for y in 0..8u64 {
                let mut stim: Vec<(NetId, bool)> = a
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (x >> i) & 1 == 1))
                    .collect();
                stim.extend(
                    b.iter()
                        .enumerate()
                        .map(|(i, &net)| (net, (y >> i) & 1 == 1)),
                );
                assert_eq!(eval(&n, &stim), x + (y << 2) + (x << 4));
            }
        }
    }

    #[test]
    fn dadda_multiplier_is_exact() {
        let wallace_cells = check_multiplier(wallace).cell_count();
        let dadda_cells = check_multiplier(dadda).cell_count();
        // Dadda never uses more adder cells than Wallace.
        assert!(
            dadda_cells <= wallace_cells,
            "{dadda_cells} vs {wallace_cells}"
        );
    }

    #[test]
    fn ripple_rows_multiplier_is_exact() {
        let mut n = Netlist::new("mul4_rows");
        let a = n.add_input_bus("a", 4);
        let b = n.add_input_bus("b", 4);
        let rows: Vec<RowBits> = b
            .iter()
            .enumerate()
            .map(|(k, &bk)| {
                let bits: Vec<NetId> = a.iter().map(|&aj| n.and2(aj, bk)).collect();
                RowBits { offset: k, bits }
            })
            .collect();
        let product = accumulate_rows_ripple(&mut n, &rows);
        n.set_output_bus("p", product);
        n.validate().unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut stim: Vec<(NetId, bool)> = a
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (x >> i) & 1 == 1))
                    .collect();
                stim.extend(
                    b.iter()
                        .enumerate()
                        .map(|(i, &net)| (net, (y >> i) & 1 == 1)),
                );
                assert_eq!(eval(&n, &stim), x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn sparse_rows_fill_gaps() {
        let mut n = Netlist::new("sparse");
        let x = n.add_input("x");
        let y = n.add_input("y");
        let row = RowBits::from_sparse(&mut n, &[(5, y), (2, x)]);
        assert_eq!(row.offset, 2);
        assert_eq!(row.bits.len(), 4);
        assert_eq!(row.bits[0], x);
        assert_eq!(row.bits[3], y);
    }

    #[test]
    #[should_panic(expected = "duplicate weight")]
    fn duplicate_weights_rejected() {
        let mut n = Netlist::new("dup");
        let x = n.add_input("x");
        let _ = RowBits::from_sparse(&mut n, &[(1, x), (1, x)]);
    }

    #[test]
    fn empty_columns_reduce_to_zeros() {
        let mut n = Netlist::new("zc");
        let columns: Columns = vec![Vec::new(); 4];
        let out = wallace(&mut n, columns);
        n.set_output_bus("p", out);
        assert_eq!(eval(&n, &[]), 0);
    }
}
