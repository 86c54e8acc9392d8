//! Gate-level generator for the ETM error-tolerant multiplier.

use sdlc_netlist::reduce::RowBits;
use sdlc_netlist::{NetId, Netlist};

use crate::circuits::ReductionScheme;
use crate::multiplier::{check_width, SpecError};

/// Generates the ETM netlist: a zero-detector steering one exact
/// `N/2 × N/2` array multiplier (shared between the low-half-exact path and
/// the high-half path), plus the non-multiplication OR chain for the LSBs.
///
/// # Errors
///
/// Returns [`SpecError`] for invalid widths.
pub fn etm_multiplier(width: u32, scheme: ReductionScheme) -> Result<Netlist, SpecError> {
    let width = check_width(width)?;
    let half = (width / 2) as usize;
    let mut n = Netlist::new(format!("etm{width}_{}", scheme.tag()));
    let a = n.add_input_bus("a", width);
    let b = n.add_input_bus("b", width);
    let (al, ah) = a.split_at(half);
    let (bl, bh) = b.split_at(half);
    let (al, ah, bl, bh) = (al.to_vec(), ah.to_vec(), bl.to_vec(), bh.to_vec());

    // Zero detector over both high halves: high_zero = NOR(all high bits).
    let mut high_bits = ah.clone();
    high_bits.extend_from_slice(&bh);
    let any_high = n.or_tree(&high_bits);
    let high_zero = n.not(any_high);

    // The single exact half-width multiplier, input-steered by the
    // detector: operands are the low halves when both highs are zero,
    // otherwise the high halves.
    let ma: Vec<NetId> = ah
        .iter()
        .zip(&al)
        .map(|(&h, &l)| n.mux2(high_zero, h, l))
        .collect();
    let mb: Vec<NetId> = bh
        .iter()
        .zip(&bl)
        .map(|(&h, &l)| n.mux2(high_zero, h, l))
        .collect();
    let rows: Vec<RowBits> = mb
        .iter()
        .enumerate()
        .map(|(k, &bk)| {
            let bits: Vec<_> = ma.iter().map(|&aj| n.and2(aj, bk)).collect();
            RowBits { offset: k, bits }
        })
        .collect();
    let mult_out = scheme.accumulate(&mut n, &rows, 2 * half);

    // Non-multiplication chain on the low halves: from the MSB down,
    // out_i = collision_seen_above_or_at(i) | al_i | bl_i.
    let mut nm = vec![None; half];
    let mut seen: Option<NetId> = None;
    for i in (0..half).rev() {
        let collide = n.and2(al[i], bl[i]);
        let seen_here = match seen {
            Some(s) => n.or2(s, collide),
            None => collide,
        };
        let or_bit = n.or2(al[i], bl[i]);
        nm[i] = Some(n.or2(seen_here, or_bit));
        seen = Some(seen_here);
    }

    // Output assembly:
    //   p[half-1..0]       = high_zero ? mult_out[i] : nm[i]
    //   p[width-1..half]   = high_zero ? mult_out[i] : 0
    //   p[2width-1..width] = high_zero ? 0 : mult_out[i-width]
    let mut product = Vec::with_capacity(2 * width as usize);
    for i in 0..half {
        let nm_bit = nm[i].expect("chain built");
        product.push(n.mux2(high_zero, nm_bit, mult_out[i]));
    }
    for &m in mult_out.iter().take(2 * half).skip(half) {
        product.push(n.and2(high_zero, m));
    }
    let keep_high = any_high;
    for &m in mult_out.iter().take(2 * half) {
        product.push(n.and2(keep_high, m));
    }
    n.set_output_bus("p", product);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::EtmMultiplier;
    use crate::Multiplier;
    use sdlc_netlist::GateKind;
    use sdlc_sim::equiv::{check, Coverage};
    use sdlc_sim::Engine;

    #[test]
    fn matches_functional_model_exhaustively() {
        for width in [4u32, 8] {
            let model = EtmMultiplier::new(width).unwrap();
            let n = etm_multiplier(width, ReductionScheme::RippleRows).unwrap();
            n.validate().unwrap();
            check(&n, width, Coverage::Exhaustive, Engine::Scalar, |a, b| {
                model.multiply(a, b)
            })
            .unwrap_or_else(|e| panic!("width {width}: {e}"));
        }
    }

    #[test]
    fn matches_functional_model_sampled_16bit() {
        let model = EtmMultiplier::new(16).unwrap();
        let n = etm_multiplier(16, ReductionScheme::RippleRows).unwrap();
        check(
            &n,
            16,
            Coverage::Sampled {
                samples: 500,
                seed: 23,
            },
            Engine::Scalar,
            |a, b| model.multiply(a, b),
        )
        .unwrap();
    }

    #[test]
    fn uses_single_half_multiplier() {
        // The AND budget: half² for the array + steering/assembly gates,
        // far below the full N² of an accurate design.
        let n = etm_multiplier(8, ReductionScheme::RippleRows).unwrap();
        let full = crate::circuits::accurate_multiplier(8, ReductionScheme::RippleRows).unwrap();
        assert!(n.gate_count(GateKind::And2) < full.gate_count(GateKind::And2));
        assert!(
            n.gate_count(GateKind::Mux2) >= 8,
            "input steering + low assembly"
        );
    }
}
