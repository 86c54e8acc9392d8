//! Regression tests pinning the functional model to the *published* error
//! tables of the paper (Qiqieh et al., DATE 2017).
//!
//! Table II (depth 2) and Table III (8-bit, depths 2–4) are exhaustive
//! functional-simulation results, so a faithful model must match them to
//! rounding error. These tests are the ground truth that the SDLC
//! implementation is the paper's design and not a lookalike.
//!
//! Note on units: Table II prints MRED as a percentage for 4/6/8-bit rows
//! and as a fraction for the 12/16-bit rows (0.00824 ≙ 0.824 %); the
//! trend line in Figure 5 and the NMED column confirm this reading.

use sdlc_core::error::{exhaustive, exhaustive_with, Engine};
use sdlc_core::{ClusterVariant, SdlcMultiplier};

/// One expected row: (width, depth, MRED %, NMED, ER %, MaxRED %).
const TABLE2: &[(u32, u32, f64, f64, f64, f64)] = &[
    (4, 2, 2.77313, 0.010556, 19.53, 31.1111),
    (6, 2, 2.65879, 0.006393, 34.96, 32.8042),
    (8, 2, 1.98826, 0.003527, 49.11, 33.2026),
    (12, 2, 0.824, 0.000952, 70.68, 33.3308),
];

const TABLE3: &[(u32, u32, f64, f64, f64, f64)] = &[
    (8, 2, 1.9883, 0.0035, 49.11, 33.2),
    (8, 3, 4.6847, 0.0101, 65.73, 42.69),
    (8, 4, 10.5836, 0.0327, 77.57, 46.48),
];

fn assert_row(width: u32, depth: u32, mred_pct: f64, nmed: f64, er_pct: f64, maxred_pct: f64) {
    assert_row_with_engine(
        width,
        depth,
        mred_pct,
        nmed,
        er_pct,
        maxred_pct,
        Engine::Scalar,
    );
}

#[allow(clippy::too_many_arguments)] // one expected-table row, spelled out
fn assert_row_with_engine(
    width: u32,
    depth: u32,
    mred_pct: f64,
    nmed: f64,
    er_pct: f64,
    maxred_pct: f64,
    engine: Engine,
) {
    let m = SdlcMultiplier::new(width, depth).unwrap();
    let e = match engine {
        Engine::Scalar => exhaustive(&m).unwrap(),
        Engine::BitSliced => exhaustive_with(&m, engine.into()).unwrap(),
    };
    let close = |got: f64, want: f64, tol: f64, what: &str| {
        assert!(
            (got - want).abs() <= tol,
            "{width}-bit d{depth} {what}: got {got}, paper says {want}"
        );
    };
    // Tolerances absorb the tables' printed rounding (Table III keeps only
    // 4 decimals) plus the paper's ~0.5 % MRED slack at 4 bits (their
    // Matlab mean plausibly treats the 0×b cases slightly differently).
    close(e.mred * 100.0, mred_pct, mred_pct * 0.005 + 5e-4, "MRED%");
    close(e.nmed, nmed, nmed * 0.01 + 5e-5, "NMED");
    close(e.error_rate * 100.0, er_pct, 0.01, "ER%");
    close(e.max_red * 100.0, maxred_pct, 0.01, "MaxRED%");
}

#[test]
fn table2_error_metrics_vs_width() {
    for &(width, depth, mred, nmed, er, maxred) in TABLE2 {
        if width > 8 && cfg!(debug_assertions) && std::env::var_os("SDLC_FULL").is_none() {
            continue; // 12-bit exhaustion is a release-mode job; see bench.
        }
        assert_row(width, depth, mred, nmed, er, maxred);
    }
}

#[test]
fn table3_error_metrics_vs_depth() {
    for &(width, depth, mred, nmed, er, maxred) in TABLE3 {
        assert_row(width, depth, mred, nmed, er, maxred);
    }
}

// The paper reproduction is pinned on *both* evaluation engines: the
// bit-sliced 64-lane path must land on the same published numbers the
// scalar path does (its metrics are bit-identical by construction — see
// `tests/batch_differential.rs` — but these keep the fingerprint itself
// double-anchored).

#[test]
fn table2_error_metrics_vs_width_bitsliced() {
    for &(width, depth, mred, nmed, er, maxred) in TABLE2 {
        if width > 8 && cfg!(debug_assertions) && std::env::var_os("SDLC_FULL").is_none() {
            continue;
        }
        assert_row_with_engine(width, depth, mred, nmed, er, maxred, Engine::BitSliced);
    }
}

#[test]
fn table3_error_metrics_vs_depth_bitsliced() {
    for &(width, depth, mred, nmed, er, maxred) in TABLE3 {
        assert_row_with_engine(width, depth, mred, nmed, er, maxred, Engine::BitSliced);
    }
}

#[test]
fn greedy_packing_reduces_to_algorithm1_at_depth2() {
    // Cluster i (1-based) must OR-compress columns 1..=N−i of its pair:
    // t(2i−2) = N−i+1 and t(2i−1) = N−i, for every width.
    for width in [4u32, 6, 8, 12, 16, 32, 64, 128] {
        let m = SdlcMultiplier::new(width, 2).unwrap();
        for i in 1..=width / 2 {
            assert_eq!(
                m.threshold(2 * i - 2),
                width - i + 1,
                "N={width} i={i} even row"
            );
            assert_eq!(m.threshold(2 * i - 1), width - i, "N={width} i={i} odd row");
        }
    }
}

#[test]
fn variants_coincide_at_depth2() {
    for width in [4u32, 8, 12] {
        let reference = SdlcMultiplier::new(width, 2).unwrap();
        for variant in [ClusterVariant::CeilTails, ClusterVariant::PairTails] {
            let other = SdlcMultiplier::with_variant(width, 2, variant).unwrap();
            for k in 0..width {
                assert_eq!(
                    reference.threshold(k),
                    other.threshold(k),
                    "width {width} row {k} variant {variant:?}"
                );
            }
        }
    }
}

#[test]
fn worst_case_red_tends_to_one_third() {
    // Section III: MAX(RED) climbs toward 33.33 % with width (an OR gate
    // halves a colliding pair, and at most ~1/3 of the product mass can
    // collide).
    let mut last = 0.0;
    for width in [4u32, 6, 8, 10] {
        let m = SdlcMultiplier::new(width, 2).unwrap();
        let e = exhaustive(&m).unwrap();
        assert!(e.max_red > last);
        assert!(e.max_red < 1.0 / 3.0 + 1e-9);
        last = e.max_red;
    }
}

#[test]
fn error_rate_matches_analytic_model_for_every_even_width_to_16() {
    for width in (4..=14).step_by(2) {
        let m = SdlcMultiplier::new(width, 2).unwrap();
        if width > 10 && cfg!(debug_assertions) && std::env::var_os("SDLC_FULL").is_none() {
            continue;
        }
        let e = exhaustive(&m).unwrap();
        let analytic = sdlc_core::error::error_rate_depth2(width, ClusterVariant::Progressive);
        assert!(
            (e.error_rate - analytic).abs() < 1e-12,
            "width {width}: simulated {} vs analytic {analytic}",
            e.error_rate
        );
    }
}

#[test]
fn deeper_clusters_strictly_trade_accuracy_for_compression() {
    // Table III's qualitative content: every error metric grows with depth,
    // while the reduced matrix shrinks.
    let mut prev: Option<(f64, f64, u32)> = None;
    for depth in [2u32, 3, 4] {
        let m = SdlcMultiplier::new(8, depth).unwrap();
        let e = exhaustive(&m).unwrap();
        if let Some((mred, er, rows)) = prev {
            assert!(e.mred > mred);
            assert!(e.error_rate > er);
            assert!(m.reduced_rows() < rows);
        }
        prev = Some((e.mred, e.error_rate, m.reduced_rows()));
    }
}
