//! Scalar levelized zero-delay simulator, and the `a`/`b` operand-port
//! map every driver feeds operand pairs through.

use sdlc_netlist::{GateKind, NetId, Netlist};
use sdlc_wideint::SplitMix64;

/// Levelized two-valued simulator with toggle accounting.
///
/// Because netlists are topologically ordered by construction, one forward
/// sweep per vector settles every net. Toggle counts accumulate between
/// consecutively applied vectors — the zero-delay switching-activity model
/// (each net transitions at most once per applied vector).
///
/// # Examples
///
/// ```
/// use sdlc_netlist::Netlist;
/// use sdlc_sim::LogicSim;
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.and2(a, b);
/// n.set_output_bus("y", vec![y]);
///
/// let mut sim = LogicSim::new(&n);
/// sim.apply(&[true, true]);
/// assert_eq!(sim.outputs(), vec![true]);
/// sim.apply(&[true, false]);
/// assert_eq!(sim.outputs(), vec![false]);
/// assert_eq!(sim.toggles()[y.index()], 1);
/// ```
#[derive(Debug, Clone)]
pub struct LogicSim<'n> {
    netlist: &'n Netlist,
    values: Vec<bool>,
    toggles: Vec<u64>,
    /// Whether a first vector has established state.
    primed: bool,
}

impl<'n> LogicSim<'n> {
    /// Creates a simulator with all nets at 0 and no recorded activity.
    #[must_use]
    pub fn new(netlist: &'n Netlist) -> Self {
        Self {
            netlist,
            values: vec![false; netlist.net_count()],
            toggles: vec![0; netlist.net_count()],
            primed: false,
        }
    }

    /// Applies one input vector (ordered like `netlist.inputs()`) and
    /// settles the netlist, counting value changes against the previous
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from the input count.
    pub fn apply(&mut self, stimulus: &[bool]) {
        let inputs = self.netlist.inputs();
        assert_eq!(stimulus.len(), inputs.len(), "stimulus width mismatch");
        let first = !self.primed;
        let mut input_iter = stimulus.iter();
        for gate in self.netlist.gates() {
            let new = match gate.kind {
                GateKind::Input => *input_iter.next().expect("one stimulus bit per input"),
                kind => {
                    // Gather pins into a stack buffer (max arity 3): one
                    // heap allocation per gate per vector used to dominate
                    // the whole sweep. `GateKind::evaluate` stays the
                    // single source of truth for the cell functions.
                    let mut pins = [false; 3];
                    for (pin, &net) in pins.iter_mut().zip(&gate.inputs) {
                        *pin = self.values[net.index()];
                    }
                    kind.evaluate(&pins[..gate.inputs.len()])
                }
            };
            let slot = &mut self.values[gate.output.index()];
            if *slot != new {
                *slot = new;
                if !first {
                    self.toggles[gate.output.index()] += 1;
                }
            }
        }
        self.primed = true;
    }

    /// Current value of one net.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Current values of the primary outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|o| self.values[o.index()])
            .collect()
    }

    /// Reads a named little-endian bus as an integer.
    ///
    /// # Panics
    ///
    /// Panics if the bus does not exist or exceeds 128 bits.
    #[must_use]
    pub fn read_bus(&self, name: &str) -> u128 {
        let bits = self
            .netlist
            .bus(name)
            .unwrap_or_else(|| panic!("no bus named {name}"));
        assert!(bits.len() <= 128, "bus {name} wider than 128 bits");
        bits.iter()
            .enumerate()
            .map(|(i, net)| u128::from(self.values[net.index()]) << i)
            .sum()
    }

    /// Per-net toggle counts accumulated so far (transitions between
    /// consecutive vectors; the first vector establishes state for free).
    #[must_use]
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }
}

/// Builds the stimulus vector for netlists with `a`/`b` input buses —
/// the port convention of every multiplier generator in
/// `sdlc-core::circuits`.
///
/// # Panics
///
/// Panics if the buses are missing, operands overflow them, or the netlist
/// has inputs outside the two buses.
#[must_use]
pub fn ab_stimulus(netlist: &Netlist, a: u128, b: u128) -> Vec<bool> {
    let mut stimulus = vec![false; netlist.inputs().len()];
    AbPortMap::of(netlist).fill(a, b, &mut stimulus);
    stimulus
}

/// The `a`/`b` operand-port convention of a netlist, resolved once: the
/// operand and bit each primary input takes its value from. Every driver
/// that feeds operand pairs to a netlist builds its stimulus through it.
pub(crate) struct AbPortMap {
    /// Per primary input (netlist order): whether it belongs to bus `b`,
    /// and its bit position within its bus.
    src: Vec<(bool, u32)>,
    /// Width of bus `a`.
    pub(crate) a_len: u32,
    /// Width of bus `b`.
    pub(crate) b_len: u32,
}

impl AbPortMap {
    /// Resolves the netlist's ports.
    ///
    /// # Panics
    ///
    /// Panics if the `a` or `b` bus is missing or the netlist has inputs
    /// outside the two buses.
    pub(crate) fn of(netlist: &Netlist) -> Self {
        let bus_a = netlist.bus("a").expect("input bus `a`");
        let bus_b = netlist.bus("b").expect("input bus `b`");
        assert_eq!(
            netlist.inputs().len(),
            bus_a.len() + bus_b.len(),
            "netlist has inputs beyond a/b"
        );
        let src = netlist
            .inputs()
            .iter()
            .map(|&input| match bus_a.iter().position(|&n| n == input) {
                Some(j) => (false, j as u32),
                None => {
                    let j = bus_b.iter().position(|&n| n == input);
                    (true, j.expect("net in a bus") as u32)
                }
            })
            .collect();
        Self {
            src,
            a_len: bus_a.len() as u32,
            b_len: bus_b.len() as u32,
        }
    }

    /// Writes the scalar stimulus of the pair `(a, b)`, one bit per
    /// primary input.
    ///
    /// # Panics
    ///
    /// Panics if an operand overflows its bus.
    pub(crate) fn fill(&self, a: u128, b: u128, stimulus: &mut [bool]) {
        let fits = |value: u128, len: u32| len >= 128 || value < (1u128 << len);
        assert!(fits(a, self.a_len), "operand a overflows bus");
        assert!(fits(b, self.b_len), "operand b overflows bus");
        for (bit, &(is_b, j)) in stimulus.iter_mut().zip(&self.src) {
            *bit = ((if is_b { b } else { a }) >> j) & 1 == 1;
        }
    }

    /// Writes the word-wide stimulus of operand bit-planes: plane `j` of
    /// `a_planes` carries bit `j` of each lane's `a` (likewise `b`).
    pub(crate) fn fill_planes<P: Copy>(&self, a_planes: &[P], b_planes: &[P], stimulus: &mut [P]) {
        for (word, &(is_b, j)) in stimulus.iter_mut().zip(&self.src) {
            *word = if is_b { b_planes } else { a_planes }[j as usize];
        }
    }
}

/// A uniform `width`-bit pattern (at most 128 bits): one draw up to 64
/// bits, two above, the high part first.
pub(crate) fn draw_pattern(rng: &mut SplitMix64, width: u32) -> u128 {
    if width <= 64 {
        u128::from(rng.next_bits(width))
    } else {
        (u128::from(rng.next_bits(width - 64)) << 64) | u128::from(rng.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder4() -> Netlist {
        let mut n = Netlist::new("add4");
        let a = n.add_input_bus("a", 4);
        let b = n.add_input_bus("b", 4);
        let s = sdlc_netlist::adders::ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    #[test]
    fn adder_simulates_exhaustively() {
        let n = adder4();
        let mut sim = LogicSim::new(&n);
        for a in 0..16u128 {
            for b in 0..16u128 {
                sim.apply(&ab_stimulus(&n, a, b));
                assert_eq!(sim.read_bus("p"), a + b);
            }
        }
    }

    #[test]
    fn toggles_count_changes_not_vectors() {
        let mut n = Netlist::new("buf");
        let a = n.add_input("a");
        let y = n.buf(a);
        n.set_output_bus("y", vec![y]);
        let mut sim = LogicSim::new(&n);
        sim.apply(&[false]); // first vector never counts
        sim.apply(&[true]);
        sim.apply(&[true]); // no change
        sim.apply(&[false]);
        assert_eq!(sim.toggles()[y.index()], 2);
        assert_eq!(sim.toggles()[a.index()], 2);
    }

    #[test]
    fn read_bus_and_value() {
        let n = adder4();
        let mut sim = LogicSim::new(&n);
        sim.apply(&ab_stimulus(&n, 9, 6));
        assert_eq!(sim.read_bus("a"), 9);
        assert_eq!(sim.read_bus("b"), 6);
        assert_eq!(sim.read_bus("p"), 15);
        let a0 = n.bus("a").unwrap()[0];
        assert!(sim.value(a0));
    }

    #[test]
    #[should_panic(expected = "stimulus width mismatch")]
    fn wrong_stimulus_width_panics() {
        let n = adder4();
        LogicSim::new(&n).apply(&[true]);
    }

    #[test]
    #[should_panic(expected = "overflows bus")]
    fn operand_overflow_panics() {
        let n = adder4();
        let _ = ab_stimulus(&n, 16, 0);
    }
}
