//! Structural arithmetic building blocks: half/full adders and ripple-carry
//! vector adders.
//!
//! The paper's accumulation stage uses "accurate ripple adders ... in both
//! accurate and approximate multipliers" (Section IV), so the ripple-carry
//! adder here is the workhorse of every multiplier generator. Full adders
//! expand to the standard five 2-input gates (2×XOR, 2×AND, 1×OR); half
//! adders to XOR + AND.

use crate::ir::{NetId, Netlist};

/// Sum and carry of a half adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HalfAdd {
    /// `a ⊕ b`.
    pub(crate) sum: NetId,
    /// `a ∧ b`.
    pub(crate) carry: NetId,
}

/// Sum and carry of a full adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FullAdd {
    /// `a ⊕ b ⊕ c`.
    pub(crate) sum: NetId,
    /// Majority carry.
    pub(crate) carry: NetId,
}

/// Builds a half adder.
pub(crate) fn half_adder(n: &mut Netlist, a: NetId, b: NetId) -> HalfAdd {
    HalfAdd {
        sum: n.xor2(a, b),
        carry: n.and2(a, b),
    }
}

/// Builds a full adder from five 2-input gates:
/// `sum = (a⊕b)⊕c`, `carry = (a∧b) ∨ (c∧(a⊕b))`.
pub(crate) fn full_adder(n: &mut Netlist, a: NetId, b: NetId, c: NetId) -> FullAdd {
    let axb = n.xor2(a, b);
    let sum = n.xor2(axb, c);
    let and1 = n.and2(a, b);
    let and2 = n.and2(c, axb);
    let carry = n.or2(and1, and2);
    FullAdd { sum, carry }
}

/// Adds two little-endian vectors with a ripple-carry chain, returning the
/// `max(len_a, len_b) + 1`-bit little-endian sum (the top bit is the final
/// carry).
///
/// The shorter operand is implicitly zero-extended, which degenerates the
/// high positions to half adders — exactly what an RTL elaborator would do.
///
/// # Panics
///
/// Panics if both operands are empty.
pub fn ripple_add(n: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert!(
        !a.is_empty() || !b.is_empty(),
        "cannot add two empty vectors"
    );
    let width = a.len().max(b.len());
    let mut sum = Vec::with_capacity(width + 1);
    let mut carry: Option<NetId> = None;
    for i in 0..width {
        let bit_a = a.get(i).copied();
        let bit_b = b.get(i).copied();
        let (s, c) = match (bit_a, bit_b, carry) {
            (Some(x), Some(y), Some(ci)) => {
                let fa = full_adder(n, x, y, ci);
                (fa.sum, Some(fa.carry))
            }
            (Some(x), Some(y), None) => {
                let ha = half_adder(n, x, y);
                (ha.sum, Some(ha.carry))
            }
            (Some(x), None, Some(ci)) | (None, Some(x), Some(ci)) => {
                let ha = half_adder(n, x, ci);
                (ha.sum, Some(ha.carry))
            }
            (Some(x), None, None) | (None, Some(x), None) => (x, None),
            (None, None, _) => unreachable!("width bounded by the longer operand"),
        };
        sum.push(s);
        carry = c;
    }
    if let Some(c) = carry {
        sum.push(c);
    }
    sum
}

/// Adds `b` shifted left by `shift` positions onto `a` (both little-endian):
/// the result's low `min(shift, a.len())` bits pass through from `a`
/// untouched, and only the overlap pays for adder cells.
pub fn ripple_add_shifted(n: &mut Netlist, a: &[NetId], b: &[NetId], shift: usize) -> Vec<NetId> {
    if b.is_empty() {
        return a.to_vec();
    }
    if a.len() <= shift {
        // No overlap: pad the gap with constant zeros.
        let mut out = a.to_vec();
        let zero = n.const0();
        while out.len() < shift {
            out.push(zero);
        }
        out.extend_from_slice(b);
        return out;
    }
    let (low, high) = a.split_at(shift);
    let (low, high) = (low.to_vec(), high.to_vec());
    let mut out = low;
    out.extend(ripple_add(n, &high, b));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Netlist;
    use crate::testing::outputs as eval;

    fn drive(bits: &[NetId], value: u64) -> Vec<(NetId, bool)> {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| (b, (value >> i) & 1 == 1))
            .collect()
    }

    fn read(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| u64::from(b) << i)
            .sum()
    }

    #[test]
    fn full_adder_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let mut n = Netlist::new("fa");
                    let ia = n.add_input("a");
                    let ib = n.add_input("b");
                    let ic = n.add_input("c");
                    let fa = full_adder(&mut n, ia, ib, ic);
                    n.set_output_bus("o", vec![fa.sum, fa.carry]);
                    let out = eval(&n, &[(ia, a), (ib, b), (ic, c)]);
                    let expect = u8::from(a) + u8::from(b) + u8::from(c);
                    assert_eq!(u8::from(out[0]), expect & 1);
                    assert_eq!(u8::from(out[1]), expect >> 1);
                }
            }
        }
    }

    #[test]
    fn ripple_add_exhaustive_4bit() {
        let mut n = Netlist::new("add4");
        let a = n.add_input_bus("a", 4);
        let b = n.add_input_bus("b", 4);
        let s = ripple_add(&mut n, &a, &b);
        assert_eq!(s.len(), 5);
        n.set_output_bus("s", s);
        n.validate().unwrap();
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut stim = drive(&a, x);
                stim.extend(drive(&b, y));
                let out = eval(&n, &stim);
                assert_eq!(read(&out), x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn ripple_add_mixed_widths() {
        let mut n = Netlist::new("add_mixed");
        let a = n.add_input_bus("a", 6);
        let b = n.add_input_bus("b", 3);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("s", s);
        for x in [0u64, 1, 17, 63] {
            for y in [0u64, 1, 5, 7] {
                let mut stim = drive(&a, x);
                stim.extend(drive(&b, y));
                assert_eq!(read(&eval(&n, &stim)), x + y);
            }
        }
    }

    #[test]
    fn shifted_add_passes_low_bits_through() {
        let mut n = Netlist::new("addsh");
        let a = n.add_input_bus("a", 8);
        let b = n.add_input_bus("b", 4);
        let s = ripple_add_shifted(&mut n, &a, &b, 3);
        n.set_output_bus("s", s.clone());
        // Low 3 bits are the original nets — zero added cost.
        assert_eq!(&s[..3], &a[..3]);
        for x in [0u64, 255, 170, 99] {
            for y in [0u64, 15, 9] {
                let mut stim = drive(&a, x);
                stim.extend(drive(&b, y));
                assert_eq!(read(&eval(&n, &stim)), x + (y << 3));
            }
        }
    }

    #[test]
    fn shifted_add_without_overlap_pads_zeros() {
        let mut n = Netlist::new("gap");
        let a = n.add_input_bus("a", 2);
        let b = n.add_input_bus("b", 2);
        let s = ripple_add_shifted(&mut n, &a, &b, 5);
        n.set_output_bus("s", s);
        for x in 0..4u64 {
            for y in 0..4u64 {
                let mut stim = drive(&a, x);
                stim.extend(drive(&b, y));
                assert_eq!(read(&eval(&n, &stim)), x + (y << 5));
            }
        }
    }

    #[test]
    fn gate_budget_of_ripple_adder() {
        let mut n = Netlist::new("budget");
        let a = n.add_input_bus("a", 8);
        let b = n.add_input_bus("b", 8);
        let _ = ripple_add(&mut n, &a, &b);
        // 1 half adder + 7 full adders = 2 + 7*5 gates.
        assert_eq!(n.cell_count(), 2 + 7 * 5);
    }
}
