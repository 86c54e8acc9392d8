//! Static timing analysis on the levelized netlist.

use sdlc_netlist::{GateKind, NetId, Netlist};
use sdlc_techlib::Library;

/// Timing results: per-net arrival times and the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Worst-case arrival time per net, in ps (0 for primary inputs).
    pub arrival_ps: Vec<f64>,
    /// The latest-arriving primary output and its time.
    pub critical: (NetId, f64),
}

impl Timing {
    /// Critical-path delay in ps.
    #[must_use]
    pub fn critical_delay_ps(&self) -> f64 {
        self.critical.1
    }
}

/// Computes arrival times with the library's linear delay model: a gate's
/// output arrives at `max(input arrivals) + intrinsic + slope × load`,
/// with the per-gate delays of [`Library::gate_delays_ps`] — the same
/// vector both timing simulators schedule their events with.
///
/// # Panics
///
/// Panics if the netlist has no primary outputs.
#[must_use]
pub fn analyze_timing(netlist: &Netlist, library: &Library) -> Timing {
    let delays = library.gate_delays_ps(netlist);
    let mut arrival = vec![0.0f64; netlist.net_count()];
    for (gate, delay) in netlist.gates().iter().zip(delays) {
        if gate.kind == GateKind::Input {
            continue;
        }
        let input_arrival = gate
            .inputs
            .iter()
            .map(|i| arrival[i.index()])
            .fold(0.0f64, f64::max);
        arrival[gate.output.index()] = input_arrival + delay;
    }
    let critical = netlist
        .outputs()
        .iter()
        .map(|&o| (o, arrival[o.index()]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("netlist has outputs");
    Timing {
        arrival_ps: arrival,
        critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::adders::ripple_add;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    #[test]
    fn delay_grows_linearly_with_ripple_length() {
        let lib = Library::generic_90nm();
        let d4 = analyze_timing(&adder(4), &lib).critical_delay_ps();
        let d8 = analyze_timing(&adder(8), &lib).critical_delay_ps();
        let d16 = analyze_timing(&adder(16), &lib).critical_delay_ps();
        assert!(d8 > d4 && d16 > d8);
        // Ripple chains are linear in width: the 8→16 increment is twice
        // the 4→8 increment.
        let ratio = (d16 - d8) / (d8 - d4);
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn inputs_arrive_at_zero() {
        let lib = Library::generic_90nm();
        let n = adder(4);
        let timing = analyze_timing(&n, &lib);
        for &input in n.inputs() {
            assert_eq!(timing.arrival_ps[input.index()], 0.0);
        }
        assert!(timing.critical_delay_ps() > 0.0);
    }

    #[test]
    fn sta_bounds_event_driven_settle_times() {
        use sdlc_sim::TimingSim;
        let lib = Library::generic_90nm();
        let n = adder(8);
        let sta = analyze_timing(&n, &lib).critical_delay_ps();
        let mut sim = TimingSim::new(&n, &lib);
        let stim = |a: u128, b: u128| sdlc_sim::ab_stimulus(&n, a, b);
        let mut worst: f64 = 0.0;
        sim.settle(&stim(0, 0));
        let mut rng = sdlc_wideint::SplitMix64::new(99);
        for _ in 0..200 {
            let a = u128::from(rng.next_bits(8));
            let b = u128::from(rng.next_bits(8));
            let result = sim.apply(&stim(a, b));
            worst = worst.max(result.settle_ps);
        }
        assert!(
            worst <= sta + 1e-6,
            "dynamic {worst} ps exceeds STA {sta} ps"
        );
        assert!(worst > sta * 0.3, "dynamic settle should approach STA");
    }
}
