//! Bit-plane (bit-sliced) layout helpers for 64-lane batch evaluation.
//!
//! The batch evaluation engine in `sdlc-core` processes 64 multiplications
//! at once by storing operands *transposed*: instead of one word per
//! operand, it keeps one word per **bit position** — plane `j` is a `u64`
//! whose bit `i` is bit `j` of lane `i`'s operand. In that layout a single
//! word-wide `&`/`|`/`^` applies one gate of the multiplier to all 64 lanes
//! simultaneously, exactly like the netlist-level compiled gate engine
//! (`CompiledSim` in `sdlc-sim`) does for gate stimulus.
//!
//! This module provides the conversions between the two layouts:
//!
//! * [`transposed64`] — the full 64×64 bit-matrix transpose (an
//!   involution; Hacker's Delight §7-3 block-swap network);
//! * [`planes_from_lanes16`] / [`lanes_from_planes16`] and the `…32`
//!   variants — cheaper partial transposes for values of at most 16 or
//!   32 bits (the common case: an 8-bit multiplier's products need only
//!   16 planes);
//! * [`broadcast_planes`] / [`counter_planes`] — closed-form plane sets
//!   for the two operand patterns exhaustive sweeps use (a constant lane
//!   and 64 consecutive integers), which need no transpose at all.
//!
//! # Examples
//!
//! ```
//! use sdlc_wideint::bitplane::{transposed64, LANES};
//!
//! let mut lanes = [0u64; LANES];
//! lanes[3] = 0b1010; // lane 3 carries the value 10
//! let planes = transposed64(&lanes);
//! assert_eq!((planes[1] >> 3) & 1, 1); // bit 1 of lane 3
//! assert_eq!((planes[0] >> 3) & 1, 0); // bit 0 of lane 3
//! assert_eq!(transposed64(&planes), lanes); // involution
//! ```

/// Number of lanes a bit-plane word carries.
pub const LANES: usize = 64;

/// Transposes a 64×64 bit matrix in place: afterwards, bit `c` of word `r`
/// is what bit `r` of word `c` was. Applying it twice restores the input.
fn transpose64(m: &mut [u64; LANES]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < LANES {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Transposes a 64×64 bit matrix: bit `c` of word `r` of the result is
/// bit `r` of word `c` of `m`. Applying it twice restores the input.
#[must_use]
pub fn transposed64(m: &[u64; LANES]) -> [u64; LANES] {
    let mut out = *m;
    transpose64(&mut out);
    out
}

/// In-block transpose network for four side-by-side 16×16 bit matrices
/// (the last four stages of [`transpose64`], whose masks all repeat with
/// period 16). Self-inverse.
fn block_transpose16(w: &mut [u64; 16]) {
    let mut j = 8;
    let mut mask: u64 = 0x00FF_00FF_00FF_00FF;
    while j != 0 {
        let mut k = 0;
        while k < 16 {
            let t = ((w[k] >> j) ^ w[k + j]) & mask;
            w[k] ^= t << j;
            w[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// In-block transpose network for two side-by-side 32×32 bit matrices
/// (the last five stages of [`transpose64`]). Self-inverse.
fn block_transpose32(w: &mut [u64; 32]) {
    let mut j = 16;
    let mut mask: u64 = 0x0000_FFFF_0000_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 32 {
            let t = ((w[k] >> j) ^ w[k + j]) & mask;
            w[k] ^= t << j;
            w[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Transposes 64 lanes of at most 16 bits each into 16 bit-planes
/// (plane `j` bit `i` = bit `j` of `lanes[i]`), at a quarter of the cost
/// of the full 64×64 transpose.
#[must_use]
pub fn planes_from_lanes16(lanes: &[u16; LANES]) -> [u64; 16] {
    let mut w = [0u64; 16];
    for (i, &v) in lanes.iter().enumerate() {
        w[i % 16] |= u64::from(v) << (16 * (i / 16));
    }
    block_transpose16(&mut w);
    w
}

/// Inverse of [`planes_from_lanes16`]: recovers the 64 lane values from
/// 16 bit-planes.
#[must_use]
pub fn lanes_from_planes16(planes: &[u64; 16]) -> [u16; LANES] {
    let mut w = *planes;
    block_transpose16(&mut w);
    let mut lanes = [0u16; LANES];
    // Fixed shift per chunk keeps the unpack loop vectorizable.
    for chunk in 0..4 {
        let shift = 16 * chunk;
        for q in 0..16 {
            lanes[16 * chunk + q] = (w[q] >> shift) as u16;
        }
    }
    lanes
}

/// Transposes 64 lanes of at most 32 bits each into 32 bit-planes.
#[must_use]
pub fn planes_from_lanes32(lanes: &[u32; LANES]) -> [u64; 32] {
    let mut w = [0u64; 32];
    for (i, &v) in lanes.iter().enumerate() {
        w[i % 32] |= u64::from(v) << (32 * (i / 32));
    }
    block_transpose32(&mut w);
    w
}

/// Inverse of [`planes_from_lanes32`].
#[must_use]
pub fn lanes_from_planes32(planes: &[u64; 32]) -> [u32; LANES] {
    let mut w = *planes;
    block_transpose32(&mut w);
    let mut lanes = [0u32; LANES];
    for q in 0..32 {
        lanes[q] = w[q] as u32;
        lanes[32 + q] = (w[q] >> 32) as u32;
    }
    lanes
}

/// Fills `out[j]` with the plane of a value broadcast to all 64 lanes:
/// all-ones where bit `j` of `value` is set, zero elsewhere.
///
/// # Panics
///
/// Panics if `out` is shorter than `width` planes or `width > 64`.
pub fn broadcast_planes(value: u64, width: u32, out: &mut [u64]) {
    assert!(width <= 64, "at most 64 planes per value");
    assert!(
        out.len() >= width as usize,
        "plane buffer shorter than {width} planes"
    );
    for (j, plane) in out.iter_mut().enumerate().take(width as usize) {
        *plane = if (value >> j) & 1 == 1 { u64::MAX } else { 0 };
    }
}

/// Plane `j` of the lane pattern `{0, 1, …, 63}` for `j < 6` — the
/// closed-form transpose of 64 consecutive integers.
const COUNTER: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Fills `out[j]` with the planes of the 64 consecutive values
/// `base, base+1, …, base+63` without transposing anything: the low six
/// planes are fixed counting patterns and the rest broadcast `base`'s bits
/// (exhaustive sweeps walk operand space in such blocks).
///
/// # Panics
///
/// Panics if `base` is not 64-aligned, `out` is shorter than `width`
/// planes, or `width > 64`.
pub fn counter_planes(base: u64, width: u32, out: &mut [u64]) {
    assert!(
        base.is_multiple_of(64),
        "counter blocks must start 64-aligned"
    );
    assert!(width <= 64, "at most 64 planes per value");
    assert!(
        out.len() >= width as usize,
        "plane buffer shorter than {width} planes"
    );
    for (j, plane) in out.iter_mut().enumerate().take(width as usize) {
        *plane = if j < 6 {
            COUNTER[j]
        } else if (base >> j) & 1 == 1 {
            u64::MAX
        } else {
            0
        };
    }
}

/// Conditionally negates each lane of a plane stack in place: lanes whose
/// bit in `mask` is set are replaced by their two's complement over
/// `planes.len()` bits; the rest are untouched. This is the word-wide
/// invert-and-increment the signed batch engines use for sign handling —
/// one XOR per plane plus a carry ripple, 64 lanes at once.
///
/// A lane holding the most negative value (`100…0`) negates to itself,
/// exactly like primitive `wrapping_neg`.
pub fn negate_planes(planes: &mut [u64], mask: u64) {
    let mut carry = mask;
    for plane in planes {
        let inverted = *plane ^ mask;
        *plane = inverted ^ carry;
        carry &= inverted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) index two matrices
    fn transpose_matches_bit_definition() {
        let mut rng = SplitMix64::new(0xB17);
        let lanes: [u64; LANES] = core::array::from_fn(|_| rng.next_u64());
        let planes = transposed64(&lanes);
        for i in 0..LANES {
            for j in 0..64 {
                assert_eq!(
                    (planes[j] >> i) & 1,
                    (lanes[i] >> j) & 1,
                    "lane {i} bit {j}"
                );
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = SplitMix64::new(7);
        let lanes: [u64; LANES] = core::array::from_fn(|_| rng.next_u64());
        assert_eq!(transposed64(&transposed64(&lanes)), lanes);
    }

    #[test]
    fn partial_transposes_agree_with_full() {
        let mut rng = SplitMix64::new(99);
        let lanes16: [u16; LANES] = core::array::from_fn(|_| rng.next_u64() as u16);
        let lanes32: [u32; LANES] = core::array::from_fn(|_| rng.next_u64() as u32);
        let full16 = {
            let wide: [u64; LANES] = core::array::from_fn(|i| u64::from(lanes16[i]));
            transposed64(&wide)
        };
        let full32 = {
            let wide: [u64; LANES] = core::array::from_fn(|i| u64::from(lanes32[i]));
            transposed64(&wide)
        };
        assert_eq!(planes_from_lanes16(&lanes16)[..], full16[..16]);
        assert_eq!(planes_from_lanes32(&lanes32)[..], full32[..32]);
        assert_eq!(lanes_from_planes16(&planes_from_lanes16(&lanes16)), lanes16);
        assert_eq!(lanes_from_planes32(&planes_from_lanes32(&lanes32)), lanes32);
    }

    #[test]
    fn broadcast_and_counter_match_transpose() {
        let mut broadcast = [0u64; 16];
        broadcast_planes(0b1011, 16, &mut broadcast);
        let lanes: [u16; LANES] = [0b1011; LANES];
        assert_eq!(broadcast, planes_from_lanes16(&lanes));

        let base = 0x2C0u64;
        let mut counted = [0u64; 16];
        counter_planes(base, 16, &mut counted);
        let lanes: [u16; LANES] = core::array::from_fn(|i| (base + i as u64) as u16);
        assert_eq!(counted, planes_from_lanes16(&lanes));
    }

    #[test]
    #[should_panic(expected = "64-aligned")]
    fn counter_rejects_unaligned_base() {
        let mut out = [0u64; 8];
        counter_planes(3, 8, &mut out);
    }

    #[test]
    fn negate_planes_is_lanewise_wrapping_neg() {
        const WIDTH: u32 = 12;
        let mut rng = SplitMix64::new(0x516);
        for _ in 0..20 {
            let lanes: [u64; LANES] = core::array::from_fn(|_| rng.next_bits(WIDTH));
            let mask = rng.next_u64();
            let mut planes = transposed64(&lanes);
            negate_planes(&mut planes[..WIDTH as usize], mask);
            let out = transposed64(&planes);
            for i in 0..LANES {
                let expect = if (mask >> i) & 1 == 1 {
                    lanes[i].wrapping_neg() & ((1 << WIDTH) - 1)
                } else {
                    lanes[i]
                };
                assert_eq!(out[i], expect, "lane {i}");
            }
        }
        // The most negative pattern is its own negation.
        let lanes: [u64; LANES] = [1 << (WIDTH - 1); LANES];
        let mut planes = transposed64(&lanes);
        negate_planes(&mut planes[..WIDTH as usize], u64::MAX);
        assert_eq!(transposed64(&planes), lanes);
    }
}
