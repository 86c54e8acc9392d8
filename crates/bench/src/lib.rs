//! Shared plumbing for the experiment harnesses.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper and prints measured-vs-published rows. Environment knobs:
//!
//! * `SDLC_FAST=1` — shrink the expensive sweeps (skip 128-bit synthesis,
//!   fewer activity vectors) for quick smoke runs;
//! * `SDLC_FULL=1` — run the genuinely exhaustive 16-bit error sweep
//!   (2³² operand pairs) instead of the default 2²⁶ Monte-Carlo sample.
//!
//! The engineering benches (`throughput`, `signed_sobel`, …) time their
//! rows with [`stopwatch`] and [`per_iter`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// True when `SDLC_FAST=1` (quick smoke mode).
#[must_use]
pub fn fast_mode() -> bool {
    std::env::var_os("SDLC_FAST").is_some_and(|v| v == "1")
}

/// True when `SDLC_FULL=1` (exhaustive 16-bit sweeps).
#[must_use]
pub fn full_mode() -> bool {
    std::env::var_os("SDLC_FULL").is_some_and(|v| v == "1")
}

/// Prints the standard experiment banner.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("reproduces: {paper_ref}");
    println!("================================================================");
}

/// Runs `f`, returning its result and its wall time in seconds.
pub fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Runs `f`, printing its wall time afterwards.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let (result, seconds) = stopwatch(f);
    println!("[{label}: {seconds:.1}s]");
    result
}

/// Times `routine` per iteration and prints one row: `label`, the median
/// ns/iter over batches repeated for 300 ms and at least 3 times (each
/// batch sized to take at least 1 ms where a million iterations allow),
/// the rate in Melem/s when an iteration does `elements` units of work,
/// and the batch count.
pub fn per_iter<O>(label: &str, elements: Option<u64>, mut routine: impl FnMut() -> O) {
    let mut batch_seconds = |batch: u64| {
        stopwatch(|| {
            for _ in 0..batch {
                black_box(routine());
            }
        })
        .1
    };
    let mut batch = 1;
    while batch < 1 << 20 && batch_seconds(batch) < 1e-3 {
        batch *= 10;
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < Duration::from_millis(300) {
        samples.push(batch_seconds(batch) * 1e9 / batch as f64);
    }
    samples.sort_by(f64::total_cmp);
    let ns = samples[samples.len() / 2];
    let rate = elements.map_or(String::new(), |n| {
        format!("  ({:.1} Melem/s)", n as f64 * 1e3 / ns)
    });
    println!(
        "{label:<50} {ns:>12.1} ns/iter{rate}  [median of {}]",
        samples.len()
    );
}

/// Formats a measured-vs-paper pair with relative deviation.
#[must_use]
pub fn vs(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:8.4} (paper -)");
    }
    let dev = (measured - paper) / paper * 100.0;
    format!("{measured:8.4} (paper {paper:8.4}, {dev:+5.1}%)")
}

/// A simple ASCII bar for distribution plots, `width` characters at 100 %.
#[must_use]
pub fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut out = String::with_capacity(width);
    for i in 0..width {
        out.push(if i < filled { '#' } else { ' ' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vs_formats_deviation() {
        let s = vs(50.0, 40.0);
        assert!(s.contains("+25.0%"), "{s}");
        assert!(vs(1.0, 0.0).contains("paper -"));
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0, 4), "####");
        assert_eq!(bar(0.0, 4), "    ");
        assert_eq!(bar(0.5, 4), "##  ");
        assert_eq!(bar(2.0, 3), "###"); // clamped
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("t", || 42), 42);
        assert_eq!(stopwatch(|| 7).0, 7);
    }

    #[test]
    fn per_iter_runs_a_slow_routine_at_least_four_times() {
        // One calibration batch, then at least three timed samples.
        let mut calls = 0;
        per_iter("sleep", Some(1), || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(calls >= 4, "{calls} calls");
    }
}
