//! Figure 6 — dynamic power, leakage power, area, delay and energy
//! reductions of the SDLC multiplier (2-bit clusters) versus the accurate
//! multiplier, across widths 4…128, through the full synthesis-style flow
//! (optimize → STA → glitch-aware activity → power).
//!
//! `SDLC_FAST=1` stops at 32 bits. Both designs use ripple-carry row
//! accumulation, as the paper specifies for fair comparison.

use sdlc_bench::{banner, fast_mode, timed};
use sdlc_core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc_core::SdlcMultiplier;
use sdlc_synth::{analyze, AnalysisOptions};
use sdlc_techlib::Library;

fn main() {
    banner(
        "Figure 6: reductions vs bit-width (SDLC d=2 vs accurate)",
        "Qiqieh et al., DATE'17, Figure 6",
    );
    let lib = Library::generic_90nm();
    let widths: &[u32] = if fast_mode() {
        &[4, 6, 8, 12, 16, 32]
    } else {
        &[4, 6, 8, 12, 16, 32, 64, 128]
    };
    println!(
        "{:>7} | {:>9} {:>9} {:>9} {:>9} {:>9} | cells (exact → sdlc)",
        "width", "dyn pwr", "leakage", "area", "delay", "energy"
    );
    for &width in widths {
        let vectors = match width {
            0..=16 => 512,
            17..=32 => 256,
            33..=64 => 128,
            _ => 64,
        };
        let options = AnalysisOptions {
            activity_vectors: vectors,
            ..Default::default()
        };
        let (exact, approx) = timed(&format!("{width}-bit flow"), || {
            let exact = analyze(
                accurate_multiplier(width, ReductionScheme::RippleRows).expect("valid"),
                &lib,
                &options,
            );
            let model = SdlcMultiplier::new(width, 2).expect("valid");
            let approx = analyze(
                sdlc_multiplier(&model, ReductionScheme::RippleRows),
                &lib,
                &options,
            );
            (exact, approx)
        });
        let savings = approx.reduction_vs(&exact);
        println!(
            "{width:4}-bit | {:8.1}% {:8.1}% {:8.1}% {:8.1}% {:8.1}% | {} → {}",
            savings.dynamic_power * 100.0,
            savings.leakage_power * 100.0,
            savings.area * 100.0,
            savings.delay * 100.0,
            savings.energy * 100.0,
            exact.stats.cells,
            approx.stats.cells,
        );
    }
    println!();
    println!("paper ranges (4-bit → 128-bit): dynamic 37.5→67.4%, leakage 34→72.1%,");
    println!("area 33.4→62.9%, delay 38.5→65.6%, energy 65.5→88.74%.");
    println!();
    println!(
        "shape notes: the SDLC design wins every metric at every width; dynamic-power \
         savings grow with width (glitch suppression in the halved accumulation tree); \
         energy (PDP) compounds power and delay as the paper's largest gain. Area, \
         leakage and delay savings fall with width in this flow (41.1% -> 23.2% area \
         from 4 to 128 bits) while the paper's rise; both designs get identical \
         gate-level mapping without timing-driven resizing. See \"Known divergences\" \
         in the README."
    );
}
