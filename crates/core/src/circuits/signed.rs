//! Signed (two's-complement) multiplier circuit generators.
//!
//! Every unsigned generator in this module's siblings can be lifted to a
//! signed multiplier by wrapping its netlist in the sign/magnitude
//! periphery of [`sdlc_netlist::signed::sign_magnitude_wrap`] —
//! conditional input negation, the unchanged unsigned array on the
//! magnitudes, conditional product negation. The word-level functional
//! model of the result is exactly
//! [`SignMagnitude`](crate::SignMagnitude) over the corresponding
//! unsigned model, and `sdlc-sim`'s `equiv::check_signed` proves the
//! pair-for-pair agreement in this module's tests and in
//! `tests/signed_circuit_equivalence.rs`.

use sdlc_netlist::Netlist;

use crate::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use crate::multiplier::{Multiplier, SpecError};
use crate::sdlc::SdlcMultiplier;

/// Lifts any unsigned `a`/`b`→`p` multiplier netlist into a signed
/// two's-complement one (re-export of
/// [`sdlc_netlist::signed::sign_magnitude_wrap`] at the generator layer).
///
/// # Panics
///
/// Panics if the core's buses are missing or missized.
#[must_use]
pub fn signed_multiplier(unsigned_core: &Netlist, width: u32) -> Netlist {
    sdlc_netlist::signed::sign_magnitude_wrap(unsigned_core, width)
}

/// Generates the signed accurate N×N multiplier (sign-magnitude periphery
/// around the conventional array).
///
/// # Errors
///
/// Returns [`SpecError`] for invalid widths.
///
/// # Examples
///
/// ```
/// use sdlc_core::circuits::{signed_accurate_multiplier, ReductionScheme};
///
/// let n = signed_accurate_multiplier(8, ReductionScheme::RippleRows)?;
/// assert_eq!(n.name(), "signed_accurate8_ripple");
/// assert_eq!(n.bus("p").unwrap().len(), 16);
/// # Ok::<(), sdlc_core::SpecError>(())
/// ```
pub fn signed_accurate_multiplier(
    width: u32,
    scheme: ReductionScheme,
) -> Result<Netlist, SpecError> {
    Ok(signed_multiplier(
        &accurate_multiplier(width, scheme)?,
        width,
    ))
}

/// Generates the signed SDLC multiplier for a functional `model` — the
/// paper's compressed array on the magnitudes, signs handled at the
/// periphery. Its functional model is `SignMagnitude::new(model.clone())`.
#[must_use]
pub fn signed_sdlc_multiplier(model: &SdlcMultiplier, scheme: ReductionScheme) -> Netlist {
    signed_multiplier(&sdlc_multiplier(model, scheme), model.width())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{EtmMultiplier, KulkarniMultiplier, TruncatedMultiplier};
    use crate::circuits::{etm_multiplier, kulkarni_multiplier, truncated_multiplier};
    use crate::signed::{SignMagnitude, SignedMultiplier};
    use crate::{AccurateMultiplier, ClusterVariant};
    use sdlc_sim::equiv::{check_signed, Coverage};
    use sdlc_sim::Engine;

    /// A signed functional model, checked against its netlist.
    type SignedOracle = Box<dyn Fn(i128, i128) -> sdlc_wideint::I256 + Sync>;

    #[test]
    fn signed_accurate_is_twos_complement_multiplication() {
        for scheme in [ReductionScheme::RippleRows, ReductionScheme::Dadda] {
            let n = signed_accurate_multiplier(4, scheme).unwrap();
            n.validate().unwrap();
            check_signed(&n, 4, Coverage::Exhaustive, Engine::Scalar, |a, b| {
                sdlc_wideint::I256::from_i128(a * b)
            })
            .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        }
    }

    #[test]
    fn signed_sdlc_matches_the_sign_magnitude_model() {
        for variant in [ClusterVariant::Progressive, ClusterVariant::FullOr] {
            let model = SdlcMultiplier::with_variant(6, 2, variant).unwrap();
            let n = signed_sdlc_multiplier(&model, ReductionScheme::RippleRows);
            n.validate().unwrap();
            let signed = SignMagnitude::new(model);
            check_signed(&n, 6, Coverage::Exhaustive, Engine::Scalar, |a, b| {
                signed.multiply_signed(a, b)
            })
            .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        }
    }

    #[test]
    fn signed_wrap_covers_every_baseline_generator() {
        let scheme = ReductionScheme::RippleRows;
        let cases: Vec<(Netlist, SignedOracle)> = vec![
            (
                signed_multiplier(
                    &truncated_multiplier(&TruncatedMultiplier::new(6, 3).unwrap(), scheme),
                    6,
                ),
                {
                    let m = SignMagnitude::new(TruncatedMultiplier::new(6, 3).unwrap());
                    Box::new(move |a, b| m.multiply_signed(a, b))
                },
            ),
            (
                signed_multiplier(&kulkarni_multiplier(4, scheme).unwrap(), 4),
                {
                    let m = SignMagnitude::new(KulkarniMultiplier::new(4).unwrap());
                    Box::new(move |a, b| m.multiply_signed(a, b))
                },
            ),
            (signed_multiplier(&etm_multiplier(6, scheme).unwrap(), 6), {
                let m = SignMagnitude::new(EtmMultiplier::new(6).unwrap());
                Box::new(move |a, b| m.multiply_signed(a, b))
            }),
        ];
        for (netlist, model) in &cases {
            netlist.validate().unwrap();
            let width = netlist.bus("a").unwrap().len() as u32;
            check_signed(netlist, width, Coverage::Exhaustive, Engine::Scalar, model)
                .unwrap_or_else(|e| panic!("{}: {e}", netlist.name()));
        }
    }

    #[test]
    fn sampled_equivalence_at_16_bits() {
        let coverage = Coverage::Sampled {
            samples: 200,
            seed: 9,
        };
        let model = SdlcMultiplier::new(16, 2).unwrap();
        let n = signed_sdlc_multiplier(&model, ReductionScheme::Wallace);
        let signed = SignMagnitude::new(model);
        check_signed(&n, 16, coverage, Engine::Scalar, |a, b| {
            signed.multiply_signed(a, b)
        })
        .unwrap();
        let exact = signed_accurate_multiplier(16, ReductionScheme::RippleRows).unwrap();
        let reference = SignMagnitude::new(AccurateMultiplier::new(16).unwrap());
        check_signed(&exact, 16, coverage, Engine::Scalar, |a, b| {
            reference.multiply_signed(a, b)
        })
        .unwrap();
    }

    #[test]
    fn names_and_ports_follow_the_convention() {
        let model = SdlcMultiplier::new(8, 2).unwrap();
        let n = signed_sdlc_multiplier(&model, ReductionScheme::RippleRows);
        assert_eq!(n.name(), "signed_sdlc8_d2_ripple");
        assert_eq!(n.bus("a").unwrap().len(), 8);
        assert_eq!(n.bus("b").unwrap().len(), 8);
        assert_eq!(n.bus("p").unwrap().len(), 16);
    }
}
