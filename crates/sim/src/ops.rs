//! The word-wide gate semantics both compiled engines execute.
//!
//! [`crate::CompiledNetlist`] (zero-delay, folded) and
//! [`crate::TimedProgram`] (timed, unfolded) lower a netlist into the same
//! struct-of-arrays shape: one [`Op`] and three source slots per executed
//! cell, two reserved slots holding the constant planes, and a net → slot
//! table. Their lowering loops differ — one folds constants, buffers and
//! common subexpressions, the other must keep every cell and its delay —
//! but the opcode set, the pin convention, the lane-wide evaluation, the
//! value planes and the slot → net scatter live here once, so the two
//! engines cannot drift apart.

use std::ops::{BitAnd, BitOr, BitXor, Not};

use sdlc_netlist::{Gate, GateKind};

/// Slot holding the constant-0 plane.
pub(crate) const SLOT_CONST0: u32 = 0;
/// Slot holding the constant-1 plane.
pub(crate) const SLOT_CONST1: u32 = 1;

/// Compact opcode of one logic cell.
///
/// The port kinds (`Input`, `Const0`, `Const1`) have no op: inputs are
/// written straight into their slots and constants live in the two
/// reserved ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub(crate) enum Op {
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
    Mux,
}

impl Op {
    /// The op computing a `kind` cell, or `None` for the port kinds.
    pub(crate) fn of(kind: GateKind) -> Option<Op> {
        Some(match kind {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => return None,
            GateKind::And2 => Op::And,
            GateKind::Or2 => Op::Or,
            GateKind::Nand2 => Op::Nand,
            GateKind::Nor2 => Op::Nor,
            GateKind::Xor2 => Op::Xor,
            GateKind::Xnor2 => Op::Xnor,
            GateKind::Not => Op::Not,
            GateKind::Buf => Op::Buf,
            GateKind::Mux2 => Op::Mux,
        })
    }

    /// Evaluates the op on every lane of a value plane: `pin(i)` yields
    /// the plane on source pin `i`, and is called only for pins the cell
    /// has, so a caller chooses whether to load sources up front or on
    /// demand.
    #[inline]
    pub(crate) fn eval<P: Plane>(self, pin: impl Fn(usize) -> P) -> P {
        let a = pin(0);
        match self {
            Op::And => a & pin(1),
            Op::Or => a | pin(1),
            Op::Nand => !(a & pin(1)),
            Op::Nor => !(a | pin(1)),
            Op::Xor => a ^ pin(1),
            Op::Xnor => !(a ^ pin(1)),
            Op::Not => !a,
            Op::Buf => a,
            // Sources are [sel, lo, hi]: sel ? hi : lo.
            Op::Mux => (pin(1) & !a) | (pin(2) & a),
        }
    }
}

/// A value plane the ops evaluate on: independent one-bit lanes with
/// lane-wide boolean ops. A `u64` is 64 lanes; [`Lanes`] is
/// [`WHEEL_WORDS`] such words side by side.
pub trait Plane:
    Copy
    + Default
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
{
    /// Lanes per plane.
    const LANES: u32;

    /// The number of set lanes.
    fn count_ones(self) -> u64;

    /// Whether lane `lane` is set (`lane < Self::LANES`).
    fn lane(self, lane: u32) -> bool;
}

impl Plane for u64 {
    const LANES: u32 = 64;

    #[inline]
    fn count_ones(self) -> u64 {
        u64::from(u64::count_ones(self))
    }

    #[inline]
    fn lane(self, lane: u32) -> bool {
        (self >> lane) & 1 == 1
    }
}

/// Words of 64 lanes per [`Lanes`] plane. A compile-time constant, so
/// every lane-wide op is a fixed run of word ops the compiler unrolls.
/// The glitch engine runs this many stimulus words at once, so each op
/// evaluation, capture and firing serves [`WHEEL_LANES`] lanes; the
/// activity driver fills each of its runs (a wheel) with one stimulus
/// group per word, as many groups as keep every worker busy (its 8
/// default groups run as 2 full wheels on one or two cores and as 8
/// one-word wheels on eight). The compiled `verify` sweep runs this many
/// 64-pair blocks per program pass, one per word.
pub const WHEEL_WORDS: usize = 4;

/// Lanes per [`Lanes`] plane.
pub const WHEEL_LANES: usize = 64 * WHEEL_WORDS;

/// A value plane of [`WHEEL_WORDS`] words: lane `64 w + i` is bit `i` of
/// word `w`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lanes(pub [u64; WHEEL_WORDS]);

impl Lanes {
    #[inline]
    fn map2(self, other: Lanes, f: impl Fn(u64, u64) -> u64) -> Lanes {
        Lanes(std::array::from_fn(|w| f(self.0[w], other.0[w])))
    }

    /// Whether no lane is set.
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        self.0.iter().fold(0, |any, &w| any | w) == 0
    }
}

impl Plane for Lanes {
    const LANES: u32 = WHEEL_LANES as u32;

    #[inline]
    fn count_ones(self) -> u64 {
        self.0.iter().map(|&w| Plane::count_ones(w)).sum()
    }

    #[inline]
    fn lane(self, lane: u32) -> bool {
        self.0[lane as usize / 64].lane(lane % 64)
    }
}

impl BitAnd for Lanes {
    type Output = Lanes;
    #[inline]
    fn bitand(self, other: Lanes) -> Lanes {
        self.map2(other, |x, y| x & y)
    }
}

impl BitOr for Lanes {
    type Output = Lanes;
    #[inline]
    fn bitor(self, other: Lanes) -> Lanes {
        self.map2(other, |x, y| x | y)
    }
}

impl BitXor for Lanes {
    type Output = Lanes;
    #[inline]
    fn bitxor(self, other: Lanes) -> Lanes {
        self.map2(other, |x, y| x ^ y)
    }
}

impl Not for Lanes {
    type Output = Lanes;
    #[inline]
    fn not(self) -> Lanes {
        Lanes(self.0.map(|w| !w))
    }
}

/// The slots of `gate`'s source pins, resolved through `slot_of_net`.
/// Pins a cell does not have repeat pin 0's slot.
///
/// # Panics
///
/// Panics if a pin reads a net that no earlier gate drives — the
/// feed-forward discipline [`sdlc_netlist::Netlist::validate`] checks.
pub(crate) fn source_slots(slot_of_net: &[u32], gate: &Gate) -> [u32; 3] {
    let slot = |pin: usize| {
        let net = gate.inputs[pin];
        let s = slot_of_net[net.index()];
        assert!(s != u32::MAX, "net {net} read before it is driven");
        s
    };
    let a = slot(0);
    let pin_or_a = |pin: usize| {
        if pin < gate.inputs.len() {
            slot(pin)
        } else {
            a
        }
    };
    [a, pin_or_a(1), pin_or_a(2)]
}

/// Scatters per-slot toggle counts to the source netlist's net indexing.
/// A net aliased to another slot reports that slot's count, and a net
/// without a driver (left behind by dead-gate elimination, which keeps
/// net numbering stable) never moves and reports 0.
pub(crate) fn scatter_toggles(slot_of_net: &[u32], toggles: &[u64]) -> Vec<u64> {
    slot_of_net
        .iter()
        .map(|&slot| {
            if slot == u32::MAX {
                0
            } else {
                toggles[slot as usize]
            }
        })
        .collect()
}
