//! Sign/magnitude peripheral logic for two's-complement multipliers.
//!
//! The SDLC scheme — like every dot-diagram multiplier in the paper — is
//! defined over *unsigned* operands. Hardware consumers (edge-detection
//! kernels with negative taps, DNN inference) multiply signed values, so
//! this module wraps any unsigned `a`/`b`→`p` multiplier netlist with the
//! classic sign-magnitude periphery:
//!
//! 1. conditionally negate each two's-complement input keyed on its sign
//!    bit (magnitude extraction),
//! 2. run the unchanged unsigned array on the magnitudes,
//! 3. conditionally negate the product keyed on the XOR of the signs.
//!
//! The unsigned core is *inlined*, copied gate for gate, rather than
//! re-generated, so the wrapper works for every generator in the
//! workspace — accurate, SDLC in any variant, and all baselines — and the
//! word-level sign-magnitude adapter in `sdlc-core` is its exact
//! functional model.

use std::collections::BTreeMap;

use crate::{GateKind, NetId, Netlist};

/// Two's-complement conditional negation: returns bits equal to the input
/// when `negate` is 0 and to its two's complement (over `bits.len()` bits,
/// wrapping like primitive `wrapping_neg`) when `negate` is 1.
///
/// One XOR per bit for the conditional inversion plus an AND/XOR ripple
/// for the `+1`; the carry out of the top bit is dropped (mod-2^n
/// semantics, so the most negative pattern negates to itself).
fn conditional_negate(n: &mut Netlist, bits: &[NetId], negate: NetId) -> Vec<NetId> {
    let mut out = Vec::with_capacity(bits.len());
    let mut carry = negate;
    for (i, &bit) in bits.iter().enumerate() {
        let inverted = n.xor2(bit, negate);
        out.push(n.xor2(inverted, carry));
        if i + 1 < bits.len() {
            carry = n.and2(inverted, carry);
        }
    }
    out
}

/// Splits a little-endian two's-complement bus into `(magnitude, sign)`:
/// the sign is the MSB and the magnitude is the conditionally negated
/// value. The extreme negative pattern `100…0` keeps its bit pattern,
/// which *is* its magnitude read unsigned (`|−2^{N−1}| = 2^{N−1}`), so
/// every two's-complement input is handled.
///
/// # Panics
///
/// Panics on an empty bus.
fn magnitude(n: &mut Netlist, bits: &[NetId]) -> (Vec<NetId>, NetId) {
    let sign = *bits.last().expect("magnitude of an empty bus");
    (conditional_negate(n, bits, sign), sign)
}

/// Copies every gate of `sub` into `host`, binding `sub`'s input buses to
/// existing host nets, and returns the host nets of all of `sub`'s buses
/// (bound inputs pass through; internal and output buses map to the
/// freshly created nets).
///
/// Gates are appended in `sub`'s original order, so the host stays
/// feed-forward. Constants are shared with the host's tie cells instead of
/// duplicated.
///
/// # Panics
///
/// Panics if a binding names an unknown bus, a width mismatches, an input
/// of `sub` is left unbound, or a binding net does not exist in `host`.
fn inline(
    host: &mut Netlist,
    sub: &Netlist,
    bindings: &[(&str, &[NetId])],
) -> BTreeMap<String, Vec<NetId>> {
    let mut map: Vec<Option<NetId>> = vec![None; sub.net_count()];
    for (name, bits) in bindings {
        let bus = sub
            .bus(name)
            .unwrap_or_else(|| panic!("subcircuit has no bus {name:?}"));
        assert_eq!(
            bus.len(),
            bits.len(),
            "binding for bus {name:?} has the wrong width"
        );
        for (&inner, &outer) in bus.iter().zip(*bits) {
            map[inner.index()] = Some(outer);
        }
    }
    for gate in sub.gates() {
        let mapped = match gate.kind {
            GateKind::Input => {
                assert!(
                    map[gate.output.index()].is_some(),
                    "input {} of {:?} is unbound",
                    gate.output,
                    sub.name()
                );
                continue;
            }
            GateKind::Const0 => host.const0(),
            GateKind::Const1 => host.const1(),
            kind => {
                let inputs: Vec<NetId> = gate
                    .inputs
                    .iter()
                    .map(|net| map[net.index()].expect("feed-forward order"))
                    .collect();
                host.add_gate(kind, &inputs)
            }
        };
        map[gate.output.index()] = Some(mapped);
    }
    sub.bus_names()
        .into_iter()
        .map(|name| {
            let bits = sub.bus(&name).expect("listed bus exists");
            (
                name,
                bits.iter()
                    .map(|net| map[net.index()].expect("bus net mapped"))
                    .collect(),
            )
        })
        .collect()
}

/// Wraps an unsigned multiplier netlist (`a`/`b` inputs of `width` bits,
/// `p` product of at least `2·width` bits — an N×N product never exceeds
/// `2N` bits, so any extra reduction-tree headroom bits are structural
/// zeros and are dropped) into a signed two's-complement multiplier named
/// `signed_<core name>` with the same port convention and a `2·width`-bit
/// product.
///
/// # Panics
///
/// Panics if the core's buses are missing or missized.
#[must_use]
pub fn sign_magnitude_wrap(core: &Netlist, width: u32) -> Netlist {
    let a_bus = core.bus("a").expect("core input bus `a`");
    let b_bus = core.bus("b").expect("core input bus `b`");
    let p_bus = core.bus("p").expect("core output bus `p`");
    assert_eq!(a_bus.len(), width as usize, "core bus `a` width");
    assert_eq!(b_bus.len(), width as usize, "core bus `b` width");
    assert!(
        p_bus.len() >= 2 * width as usize,
        "core bus `p` narrower than 2×{width}"
    );

    let mut n = Netlist::new(format!("signed_{}", core.name()));
    let a = n.add_input_bus("a", width);
    let b = n.add_input_bus("b", width);
    let (mag_a, sign_a) = magnitude(&mut n, &a);
    let (mag_b, sign_b) = magnitude(&mut n, &b);
    let ports = inline(&mut n, core, &[("a", &mag_a), ("b", &mag_b)]);
    let product_sign = n.xor2(sign_a, sign_b);
    let product = conditional_negate(&mut n, &ports["p"][..2 * width as usize], product_sign);
    n.set_output_bus("p", product);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::net_values as evaluate;

    fn bus_stimulus(bits: &[NetId], value: u64) -> Vec<(NetId, bool)> {
        bits.iter()
            .enumerate()
            .map(|(i, &net)| (net, (value >> i) & 1 == 1))
            .collect()
    }

    fn read_bus(values: &[bool], bits: &[NetId]) -> u64 {
        bits.iter()
            .enumerate()
            .map(|(i, net)| u64::from(values[net.index()]) << i)
            .sum()
    }

    #[test]
    fn conditional_negate_matches_wrapping_neg() {
        const WIDTH: u64 = 6;
        let mut n = Netlist::new("neg");
        let x = n.add_input_bus("x", WIDTH as u32);
        let s = n.add_input("s");
        let y = conditional_negate(&mut n, &x, s);
        n.set_output_bus("y", y.clone());
        n.validate().unwrap();
        for value in 0..(1u64 << WIDTH) {
            for negate in [false, true] {
                let mut stim = bus_stimulus(&x, value);
                stim.push((s, negate));
                let out = read_bus(&evaluate(&n, &stim), &y);
                let expect = if negate {
                    value.wrapping_neg() & ((1 << WIDTH) - 1)
                } else {
                    value
                };
                assert_eq!(out, expect, "value {value} negate {negate}");
            }
        }
    }

    #[test]
    fn magnitude_handles_the_extreme_pattern() {
        let mut n = Netlist::new("mag");
        let x = n.add_input_bus("x", 4);
        let (mag, sign) = magnitude(&mut n, &x);
        n.set_output_bus("m", mag.clone());
        for value in 0..16u64 {
            let values = evaluate(&n, &bus_stimulus(&x, value));
            let signed = ((value as i64) << 60) >> 60; // sign-extend 4 bits
            assert_eq!(values[sign.index()], signed < 0);
            assert_eq!(
                read_bus(&values, &mag),
                signed.unsigned_abs() & 0xF,
                "value {value}"
            );
        }
    }

    #[test]
    fn inline_binds_inputs_and_maps_outputs() {
        // Subcircuit: y = (a AND b) XOR const1.
        let mut sub = Netlist::new("sub");
        let a = sub.add_input_bus("a", 1);
        let b = sub.add_input_bus("b", 1);
        let and = sub.and2(a[0], b[0]);
        let one = sub.const1();
        let y = sub.xor2(and, one);
        sub.set_output_bus("y", vec![y]);

        let mut host = Netlist::new("host");
        let p = host.add_input("p");
        let q = host.add_input("q");
        let ports = inline(&mut host, &sub, &[("a", &[p]), ("b", &[q])]);
        host.set_output_bus("y", ports["y"].clone());
        host.validate().unwrap();
        for (pv, qv) in [(false, false), (true, false), (true, true)] {
            let values = evaluate(&host, &[(p, pv), (q, qv)]);
            assert_eq!(values[ports["y"][0].index()], !(pv && qv));
        }
    }

    #[test]
    #[should_panic(expected = "is unbound")]
    fn inline_rejects_unbound_inputs() {
        let mut sub = Netlist::new("sub");
        let a = sub.add_input("a");
        sub.set_output_bus("y", vec![a]);
        let mut host = Netlist::new("host");
        let _ = inline(&mut host, &sub, &[]);
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn inline_rejects_missized_bindings() {
        let mut sub = Netlist::new("sub");
        let _ = sub.add_input_bus("a", 2);
        let mut host = Netlist::new("host");
        let p = host.add_input("p");
        let _ = inline(&mut host, &sub, &[("a", &[p])]);
    }

    #[test]
    fn sign_magnitude_wrap_of_an_exact_core_is_signed_multiply() {
        const WIDTH: u32 = 4;
        // Unsigned ripple-style core built from AND rows + adders.
        let mut core = Netlist::new("exact4");
        let a = core.add_input_bus("a", WIDTH);
        let b = core.add_input_bus("b", WIDTH);
        let rows: Vec<crate::reduce::RowBits> = b
            .iter()
            .enumerate()
            .map(|(k, &bk)| {
                let bits: Vec<_> = a.iter().map(|&aj| core.and2(aj, bk)).collect();
                crate::reduce::RowBits { offset: k, bits }
            })
            .collect();
        let mut p = crate::reduce::accumulate_rows_ripple(&mut core, &rows);
        let zero = core.const0();
        p.resize(2 * WIDTH as usize, zero);
        core.set_output_bus("p", p);

        let signed = sign_magnitude_wrap(&core, WIDTH);
        signed.validate().unwrap();
        assert_eq!(signed.name(), "signed_exact4");
        let sa = signed.bus("a").unwrap().to_vec();
        let sb = signed.bus("b").unwrap().to_vec();
        let sp = signed.bus("p").unwrap().to_vec();
        let sext = |raw: u64, bits: u32| ((raw as i64) << (64 - bits)) >> (64 - bits);
        for ua in 0..(1u64 << WIDTH) {
            for ub in 0..(1u64 << WIDTH) {
                let mut stim = bus_stimulus(&sa, ua);
                stim.extend(bus_stimulus(&sb, ub));
                let raw = read_bus(&evaluate(&signed, &stim), &sp);
                let got = sext(raw, 2 * WIDTH);
                let expect = sext(ua, WIDTH) * sext(ub, WIDTH);
                assert_eq!(got, expect, "{ua} × {ub}");
            }
        }
    }
}
