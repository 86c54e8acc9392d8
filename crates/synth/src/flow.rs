//! The end-to-end analysis flow and its report records.

use core::fmt;

use sdlc_netlist::{passes, Netlist, NetlistStats};
use sdlc_sim::activity::{random_activity_with_engine, timing_activity_with_engine};
use sdlc_sim::Engine;
use sdlc_techlib::Library;

use crate::power::{
    area_um2, dynamic_energy_fj_per_op, dynamic_power_uw, leakage_nw, power_delay_product_fj,
};
use crate::sta::analyze_timing;

/// Reference operation rate for dynamic-power reporting, in GHz. Every
/// design is reported at the same rate, mirroring the paper's common
/// testbench; comparisons are rate-independent.
pub const REFERENCE_RATE_GHZ: f64 = 1.0;

/// Knobs of the analysis flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Run constant-sweep/DCE before analysis (as a synthesis tool would).
    pub optimize: bool,
    /// Random vectors for switching-activity capture.
    pub activity_vectors: u64,
    /// Stimulus seed (same seed across designs → paired comparison).
    pub seed: u64,
    /// Capture activity with the event-driven engine so glitch power is
    /// included (the paper's QuestaSim-annotated flow). Costs simulation
    /// time on large designs; the zero-delay estimate underrates deep
    /// arrays when disabled.
    pub glitch_power: bool,
    /// Zero-delay activity engine (ignored when `glitch_power` captures
    /// through the event-driven engine instead). The compiled program is
    /// the default fast path; the structural engine produces bit-identical
    /// toggle totals and serves as the differential reference.
    pub activity_engine: Engine,
    /// Glitch-activity engine used when `glitch_power` is set. The
    /// compiled word-parallel backend (up to
    /// [`sdlc_sim::WHEEL_LANES`] lane streams per run, walked op by op,
    /// identical inertial-delay transition accounting) is the default; the
    /// scalar event-driven `TimingSim` remains the reference. Both drive
    /// the same lane streams, so their reports are identical.
    pub glitch_engine: Engine,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            optimize: true,
            activity_vectors: 512,
            seed: 0x5D_1C,
            glitch_power: true,
            activity_engine: Engine::Compiled,
            glitch_engine: Engine::Compiled,
        }
    }
}

/// One design's post-flow record — the rows of the paper's Figures 6/7/9.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Design name (from the netlist).
    pub design: String,
    /// Cell census after optimization.
    pub stats: NetlistStats,
    /// Cell area, µm².
    pub area_um2: f64,
    /// Leakage power, nW.
    pub leakage_nw: f64,
    /// Critical-path delay, ps.
    pub delay_ps: f64,
    /// Dynamic energy per operation, fJ (activity-weighted).
    pub energy_fj_per_op: f64,
    /// Dynamic power at the common [`REFERENCE_RATE_GHZ`], µW.
    pub dynamic_power_uw: f64,
    /// Power-delay product, fJ — the paper's "energy" axis.
    pub pdp_fj: f64,
}

impl AnalysisReport {
    /// Relative reduction of each metric versus a baseline report:
    /// `(base − self) / base`, e.g. `0.42` = 42 % lower than baseline.
    #[must_use]
    pub fn reduction_vs(&self, baseline: &AnalysisReport) -> Savings {
        let rel = |ours: f64, base: f64| {
            if base > 0.0 {
                (base - ours) / base
            } else {
                0.0
            }
        };
        Savings {
            dynamic_power: rel(self.dynamic_power_uw, baseline.dynamic_power_uw),
            leakage_power: rel(self.leakage_nw, baseline.leakage_nw),
            area: rel(self.area_um2, baseline.area_um2),
            delay: rel(self.delay_ps, baseline.delay_ps),
            energy: rel(self.pdp_fj, baseline.pdp_fj),
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== {} ====", self.design)?;
        writeln!(f, "  cells   : {}", self.stats.cells)?;
        writeln!(f, "  area    : {:.1} um^2", self.area_um2)?;
        writeln!(f, "  leakage : {:.1} nW", self.leakage_nw)?;
        writeln!(f, "  delay   : {:.1} ps", self.delay_ps)?;
        writeln!(f, "  energy  : {:.1} fJ/op", self.energy_fj_per_op)?;
        writeln!(
            f,
            "  dynamic : {:.1} uW @ {REFERENCE_RATE_GHZ} GHz",
            self.dynamic_power_uw
        )?;
        writeln!(f, "  PDP     : {:.1} fJ", self.pdp_fj)
    }
}

/// The five relative savings the paper plots (fractions; 0.65 = "65 %
/// reduction").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Savings {
    /// Dynamic power reduction.
    pub dynamic_power: f64,
    /// Leakage power reduction.
    pub leakage_power: f64,
    /// Area reduction.
    pub area: f64,
    /// Critical-delay reduction.
    pub delay: f64,
    /// Energy (power-delay product) reduction.
    pub energy: f64,
}

impl fmt::Display for Savings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dyn {:5.1}%  leak {:5.1}%  area {:5.1}%  delay {:5.1}%  energy {:5.1}%",
            self.dynamic_power * 100.0,
            self.leakage_power * 100.0,
            self.area * 100.0,
            self.delay * 100.0,
            self.energy * 100.0
        )
    }
}

/// Runs the full flow on one design: optimize → census → STA → activity →
/// power, returning the report. The input netlist is consumed so the
/// optimized design cannot be confused with the original.
///
/// # Panics
///
/// Panics if the netlist fails validation.
#[must_use]
pub fn analyze(
    mut netlist: Netlist,
    library: &Library,
    options: &AnalysisOptions,
) -> AnalysisReport {
    netlist.validate().expect("netlist must be well-formed");
    if options.optimize {
        let _ = passes::optimize(&mut netlist);
    }
    let stats = NetlistStats::of(&netlist);
    let timing = analyze_timing(&netlist, library);
    let activity = if options.glitch_power {
        timing_activity_with_engine(
            &netlist,
            library,
            options.seed,
            options.activity_vectors,
            options.glitch_engine,
        )
    } else {
        random_activity_with_engine(
            &netlist,
            options.seed,
            options.activity_vectors,
            options.activity_engine,
        )
    };
    let energy = dynamic_energy_fj_per_op(&netlist, library, &activity);
    let delay = timing.critical_delay_ps();
    let dynamic = dynamic_power_uw(energy, REFERENCE_RATE_GHZ);
    AnalysisReport {
        design: netlist.name().to_string(),
        area_um2: area_um2(&netlist, library),
        leakage_nw: leakage_nw(&netlist, library),
        delay_ps: delay,
        energy_fj_per_op: energy,
        dynamic_power_uw: dynamic,
        pdp_fj: power_delay_product_fj(dynamic, delay),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::adders::ripple_add;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new(format!("adder{width}"));
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    /// Zero-delay activity over fewer vectors: the fast flow variant.
    fn zero_delay() -> AnalysisOptions {
        AnalysisOptions {
            glitch_power: false,
            activity_vectors: 2048,
            ..AnalysisOptions::default()
        }
    }

    #[test]
    fn full_flow_produces_consistent_report() {
        let lib = Library::generic_90nm();
        let report = analyze(adder(8), &lib, &AnalysisOptions::default());
        assert_eq!(report.design, "adder8");
        assert!(report.area_um2 > 0.0);
        assert!(report.leakage_nw > 0.0);
        assert!(report.delay_ps > 0.0);
        assert!(report.energy_fj_per_op > 0.0);
        assert!(report.dynamic_power_uw > 0.0);
        let pdp = report.dynamic_power_uw * report.delay_ps / 1000.0;
        assert!((report.pdp_fj - pdp).abs() < 1e-9);
        let text = report.to_string();
        for needle in ["area", "leakage", "delay", "energy", "dynamic", "PDP"] {
            assert!(text.contains(needle), "report misses {needle}");
        }
    }

    #[test]
    fn savings_compare_correct_direction() {
        let lib = Library::generic_90nm();
        let options = AnalysisOptions::default();
        let small = analyze(adder(8), &lib, &options);
        let big = analyze(adder(16), &lib, &options);
        let savings = small.reduction_vs(&big);
        assert!(savings.area > 0.3, "8-bit adder is much smaller: {savings}");
        assert!(savings.delay > 0.3);
        assert!(
            savings.energy > 0.3,
            "PDP compounds power and delay: {savings}"
        );
        assert!(savings.energy > savings.dynamic_power);
        // And the inverse comparison is negative.
        let negative = big.reduction_vs(&small);
        assert!(negative.area < 0.0);
    }

    #[test]
    fn same_seed_gives_reproducible_reports() {
        let lib = Library::generic_90nm();
        let options = AnalysisOptions::default();
        let r1 = analyze(adder(8), &lib, &options);
        let r2 = analyze(adder(8), &lib, &options);
        assert_eq!(r1, r2);
    }

    #[test]
    fn zero_delay_reports_match_across_activity_engines() {
        let lib = Library::generic_90nm();
        let compiled = analyze(adder(10), &lib, &zero_delay());
        let structural = analyze(
            adder(10),
            &lib,
            &AnalysisOptions {
                activity_engine: Engine::Scalar,
                ..zero_delay()
            },
        );
        // The compiled program and the structural walk count identical
        // toggles, so the whole power report is bit-identical.
        assert_eq!(compiled, structural);
    }

    #[test]
    fn glitch_power_exceeds_zero_delay_power() {
        let lib = Library::generic_90nm();
        let glitchy = analyze(adder(12), &lib, &AnalysisOptions::default());
        let functional = analyze(adder(12), &lib, &zero_delay());
        assert!(glitchy.energy_fj_per_op > functional.energy_fj_per_op);
        // Area/delay are activity-independent.
        assert_eq!(glitchy.area_um2, functional.area_um2);
        assert_eq!(glitchy.delay_ps, functional.delay_ps);
    }

    #[test]
    fn glitch_engines_report_the_same_physics() {
        // The compiled glitch backend (the default) and the scalar
        // TimingSim reference drive the same lane streams, so the whole
        // report is bit-identical.
        let lib = Library::generic_90nm();
        let compiled = analyze(adder(10), &lib, &AnalysisOptions::default());
        let scalar = analyze(
            adder(10),
            &lib,
            &AnalysisOptions {
                glitch_engine: Engine::Scalar,
                ..Default::default()
            },
        );
        assert_eq!(AnalysisOptions::default().glitch_engine, Engine::Compiled);
        assert_eq!(compiled, scalar);
    }

    #[test]
    fn optimization_never_hurts() {
        let lib = Library::generic_90nm();
        // Build an adder with gratuitous constant-zero rows to sweep.
        let mut n = Netlist::new("padded");
        let a = n.add_input_bus("a", 8);
        let b = n.add_input_bus("b", 8);
        let zero = n.const0();
        let padded: Vec<_> = a.iter().map(|&bit| n.or2(bit, zero)).collect();
        let s = ripple_add(&mut n, &padded, &b);
        n.set_output_bus("p", s);
        let raw = analyze(
            n.clone(),
            &lib,
            &AnalysisOptions {
                optimize: false,
                ..Default::default()
            },
        );
        let opt = analyze(n, &lib, &AnalysisOptions::default());
        assert!(opt.area_um2 < raw.area_um2);
        assert!(opt.stats.cells < raw.stats.cells);
    }
}
