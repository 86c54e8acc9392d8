//! Second DSP case study (beyond the paper's Gaussian blur): a 15-tap
//! low-pass FIR filter with 8-bit fixed-point coefficients, its
//! multiplications replaced by SDLC approximate multipliers. Reports the
//! output SNR against the exact-multiplier filter on a multi-tone test
//! signal — the "digital signal processing" workload class the paper's
//! introduction motivates.
//!
//! Run with: `cargo run --release --example fir_filter`

use sdlc::core::{AccurateMultiplier, Multiplier, SdlcMultiplier};

/// Windowed-sinc low-pass prototype, quantized to unsigned Q0.8 taps.
fn design_lowpass(taps: usize, cutoff: f64) -> Vec<u8> {
    let mid = (taps - 1) as f64 / 2.0;
    let sinc = |x: f64| {
        if x == 0.0 {
            1.0
        } else {
            (std::f64::consts::PI * x).sin() / (std::f64::consts::PI * x)
        }
    };
    let raw: Vec<f64> = (0..taps)
        .map(|i| {
            let n = i as f64 - mid;
            // Hamming window.
            let window =
                0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / (taps - 1) as f64).cos();
            sinc(2.0 * cutoff * n) * window
        })
        .collect();
    let sum: f64 = raw.iter().sum();
    raw.iter()
        .map(|&c| ((c / sum * 255.0).max(0.0)).round() as u8)
        .collect()
}

/// Filters an unsigned 8-bit signal; products come from `multiplier`.
fn fir(signal: &[u8], taps: &[u8], multiplier: &dyn Multiplier) -> Vec<f64> {
    let norm: f64 = taps.iter().map(|&t| f64::from(t)).sum();
    signal
        .windows(taps.len())
        .map(|window| {
            let acc: u128 = window
                .iter()
                .zip(taps)
                .map(|(&x, &t)| multiplier.multiply_u64(u64::from(x), u64::from(t)))
                .sum();
            acc as f64 / norm
        })
        .collect()
}

fn main() -> Result<(), sdlc::core::SpecError> {
    // Test signal: a low tone the filter must keep + a high tone it must
    // kill + offset, quantized to 8 bits.
    let samples = 4096;
    let signal: Vec<u8> = (0..samples)
        .map(|i| {
            let t = i as f64;
            let value = 110.0
                + 70.0 * (2.0 * std::f64::consts::PI * 0.013 * t).sin()
                + 45.0 * (2.0 * std::f64::consts::PI * 0.37 * t).sin();
            value.clamp(0.0, 255.0).round() as u8
        })
        .collect();
    let taps = design_lowpass(15, 0.08);
    println!("15-tap low-pass, Q0.8 taps: {taps:?}");

    let exact = AccurateMultiplier::new(8)?;
    let reference = fir(&signal, &taps, &exact);

    // Confirm the filter actually filters: high-tone energy drops.
    let tone_power = |xs: &[f64], freq: f64| -> f64 {
        let (mut re, mut im) = (0.0, 0.0);
        for (i, &x) in xs.iter().enumerate() {
            let phase = 2.0 * std::f64::consts::PI * freq * i as f64;
            re += x * phase.cos();
            im += x * phase.sin();
        }
        (re * re + im * im).sqrt() / xs.len() as f64
    };
    let input_f64: Vec<f64> = signal.iter().map(|&x| f64::from(x)).collect();
    println!(
        "high-tone amplitude: input {:.2} → filtered {:.2} (stopband works)",
        tone_power(&input_f64, 0.37) * 2.0,
        tone_power(&reference, 0.37) * 2.0
    );

    println!(
        "\n{:>8} {:>12} {:>14}",
        "depth", "SNR (dB)", "max |err| LSB"
    );
    for depth in [2u32, 3, 4] {
        let model = SdlcMultiplier::new(8, depth)?;
        let approx = fir(&signal, &taps, &model);
        let signal_power: f64 = reference.iter().map(|&x| x * x).sum();
        let noise_power: f64 = reference
            .iter()
            .zip(&approx)
            .map(|(&r, &a)| (r - a) * (r - a))
            .sum();
        let snr = 10.0 * (signal_power / noise_power.max(1e-12)).log10();
        let max_err = reference
            .iter()
            .zip(&approx)
            .map(|(&r, &a)| (r - a).abs())
            .fold(0.0f64, f64::max);
        println!("{depth:8} {snr:12.1} {max_err:14.2}");
    }
    println!("\nthe approximate filter's noise floor tracks cluster depth, but not");
    println!("strictly monotonically: these Q0.8 taps are small (≤ 6 bits), so which");
    println!("tap bits share a cluster dominates — the same quantization sensitivity");
    println!(
        "the Gaussian-kernel ablation quantifies (see the README's \"Known divergences\", Fig. 8)."
    );
    Ok(())
}
