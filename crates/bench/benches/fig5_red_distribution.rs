//! Figure 5 — probability distribution of relative error (1 %-wide bins,
//! 0–34 %) for 4-, 8- and 12-bit SDLC multipliers with 2-bit clusters,
//! computed exhaustively on the bit-sliced engine and drawn as ASCII bars.

use sdlc_bench::{banner, bar, timed};
use sdlc_core::error::{Engine, RedHistogram, RED_HISTOGRAM_BINS};
use sdlc_core::SdlcMultiplier;

fn main() {
    banner(
        "Figure 5: RED probability distribution (4/8/12-bit, 2-bit clusters)",
        "Qiqieh et al., DATE'17, Figure 5",
    );
    let mut histograms = Vec::new();
    for width in [4u32, 8, 12] {
        let model = SdlcMultiplier::new(width, 2).expect("valid spec");
        let hist = timed(&format!("{width}-bit exhaustive"), || {
            RedHistogram::exhaustive_with(&model, Engine::BitSliced.into())
                .expect("within the exhaustive width limit")
        });
        histograms.push((width, hist));
    }

    println!("\nbin      4-bit     8-bit     12-bit");
    for bin in 0..RED_HISTOGRAM_BINS {
        let probs: Vec<f64> = histograms.iter().map(|(_, h)| h.probability(bin)).collect();
        if probs.iter().all(|&p| p < 5e-5) {
            continue;
        }
        println!(
            "{bin:2}-{:2}%  {:8.4}% {:8.4}% {:8.4}%   |{}",
            bin + 1,
            probs[0] * 100.0,
            probs[1] * 100.0,
            probs[2] * 100.0,
            bar(probs[2], 40),
        );
    }
    for (width, hist) in &histograms {
        println!(
            "{width:2}-bit: P(bin 0) = {:.2}%  overflow(>34%) = {:.4}%  last bin = {:?}",
            hist.probability(0) * 100.0,
            hist.overflow_probability() * 100.0,
            hist.last_occupied_bin(),
        );
    }
    println!();
    println!(
        "paper's claims: \"vast majority of outputs are exact or close to exact\" \
         (leftmost bin dominates), \"rare occurrence for higher errors\" (sharp \
         right-tail decay), and the mass concentrates leftward as width grows."
    );
    let tail =
        |h: &RedHistogram| -> f64 { (10..RED_HISTOGRAM_BINS).map(|b| h.probability(b)).sum() };
    println!(
        "tail mass (RED ≥ 10%): 4-bit {:.3}%  8-bit {:.3}%  12-bit {:.3}%",
        tail(&histograms[0].1) * 100.0,
        tail(&histograms[1].1) * 100.0,
        tail(&histograms[2].1) * 100.0,
    );
}
