//! Core-speed calibration.
//!
//! On a machine shared with other tenants, the core the benchmark runs on
//! is at times shared too: while a neighbour's work runs on the same
//! physical core, the flows take up to 1.8x as long, for seconds to
//! minutes at a time, and a whole run can fall inside such a spell. No
//! statistic over one run's wall times removes that; the same inputs
//! spread by 0.1 to 0.3 between runs.
//!
//! The calibration kernel is a fixed sample of the kinds of work the
//! flows do: a bit-parallel gate program (word logic on operands loaded
//! from, and stored back to, an L1-resident slot array, as in the compiled
//! simulation and the bit-sliced models) and error accounting (integer to
//! float conversion, division and running sums, as in the error-metric
//! sweeps). Nothing in the repository changes its cost. It slows down with
//! the flows while the core is shared, so timing it between flows measures
//! how fast the core runs at that moment, and a flow's time can be scaled
//! to what it would have been on the core running at its reference speed.
//!
//! Flows differ in how much a shared core slows them. A flow whose time
//! grows as the kernel's time to the power `s` has sensitivity `s`, and its
//! time is scaled by `(REFERENCE_S / kernel time)^s`. Fitted over runs that
//! spanned kernel times of 4.1 to 6.2 ms, `s` is 1.5 for the `errors`
//! flows and 1 for the rest.

use std::sync::OnceLock;
use std::time::Instant;

/// Time of one calibration on an uncontended core of the 2-vCPU Xeon VM
/// the benchmark was tuned on.
const REFERENCE_S: f64 = 4.0e-3;

/// Gates of the gate program.
const GATES: usize = 2048;
/// Gate program inputs: the first slots, reloaded each sweep.
const INPUTS: usize = 64;
/// 64-lane sweeps of the gate program per calibration.
const SWEEPS: u64 = 500;
/// Products accounted per calibration.
const ACCOUNTED: u64 = 1 << 18;

/// One gate: two source slots and an opcode.
type Gate = (u16, u16, u8);

/// Xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The fixed gate program: each gate reads two earlier slots.
fn program() -> &'static [Gate] {
    static PROGRAM: OnceLock<Vec<Gate>> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        (INPUTS as u64..(INPUTS + GATES) as u64)
            .map(|slot| {
                let r = next(&mut x);
                (
                    (r % slot) as u16,
                    ((r >> 20) % slot) as u16,
                    (r >> 40) as u8 % 4,
                )
            })
            .collect()
    })
}

fn gates() {
    let mut slots = vec![0u64; INPUTS + GATES];
    for sweep in 0..SWEEPS {
        for (i, slot) in slots[..INPUTS].iter_mut().enumerate() {
            *slot = sweep
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32);
        }
        for (k, &(a, b, op)) in program().iter().enumerate() {
            let (a, b) = (slots[usize::from(a)], slots[usize::from(b)]);
            slots[INPUTS + k] = match op {
                0 => a & b,
                1 => a | b,
                2 => a ^ b,
                _ => !(a & b),
            };
        }
    }
    std::hint::black_box(&slots);
}

/// Relative-error sums over pseudo-random approximate products, half of
/// them wrong.
fn accounting() {
    let (mut sum, mut sum_sq, mut max) = (0.0f64, 0.0f64, 0.0f64);
    let mut x = 0x2545_F491_4F6C_DD1D;
    for i in 1..=ACCOUNTED {
        let r = next(&mut x);
        let exact = i * 1021;
        let approx = exact - (r & 0xFF) * (r >> 63);
        if exact != approx {
            let red = exact.abs_diff(approx) as f64 / exact as f64;
            sum += red;
            sum_sq += red * red;
            max = max.max(red);
        }
    }
    std::hint::black_box((sum, sum_sq, max));
}

/// Times the kernel once; returns seconds.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    gates();
    accounting();
    start.elapsed().as_secs_f64()
}

/// Scales `time`, taken between calibrations of `before` and `after`
/// seconds, to the reference speed, for work of the given sensitivity.
pub fn at_reference(time: f64, sensitivity: f64, before: f64, after: f64) -> f64 {
    time * (REFERENCE_S / (0.5 * (before + after))).powf(sensitivity)
}
