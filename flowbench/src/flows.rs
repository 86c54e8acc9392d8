//! Each flow twice over: staged, as a chain of library calls with a span
//! around each layer, and as a reference. Both return the fragments of
//! `sdlc-cli` output the request must print.
//!
//! The `errors` reference runs the scalar engine, the differential oracle
//! of the bit-sliced engine the CLI and the staged flow use; the `synth`
//! reference runs the one-call `analyze` flow. The other references are
//! the staged flow with tracing off.

use sdlc::core::batch::{exhaustive_block, extract_product_lanes, BatchMultiplier, LANES};
use sdlc::core::circuits::{accurate_multiplier, sdlc_multiplier, signed_multiplier};
use sdlc::core::error::{
    exhaustive, exhaustive_with_engine, mean_error_distance, parallel_chunks, Engine,
};
use sdlc::core::{Batchable, Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier};
use sdlc::netlist::{passes, Netlist, NetlistStats};
use sdlc::sim::activity::{random_activity_with_engine, timing_activity_with_engine};
use sdlc::sim::{equiv, CompiledNetlist};
use sdlc::synth::power::{
    area_um2, dynamic_energy_fj_per_op, dynamic_power_uw, leakage_nw, power_delay_product_fj,
};
use sdlc::synth::sta::analyze_timing;
use sdlc::synth::{analyze, AnalysisOptions, AnalysisReport, REFERENCE_RATE_GHZ};
use sdlc::techlib::Library;

use crate::requests::{Request, Workload};
use crate::trace::Trace;

/// Output fragments a request must print, each verbatim.
pub type Fragments = Vec<String>;

/// Layer spans, in pipeline order.
pub const LAYERS: [&str; 10] = [
    "core.products",
    "core.error_metrics",
    "core.analytic",
    "core.circuits",
    "netlist.passes",
    "sim.compile",
    "sim.equiv",
    "sim.activity",
    "synth.sta",
    "synth.power",
];

/// Counters: ops of the compiled `verify` program, and cells left after
/// the optimization passes.
pub const COUNTERS: [&str; 2] = ["sim.compiled_ops", "netlist.cells"];

/// Runs `request` staged, recording spans into `trace`.
pub fn staged(request: &Request, trace: &mut Trace) -> Result<Fragments, String> {
    let model = request.model()?;
    match request.workload {
        Workload::Errors => errors(&model, trace),
        Workload::Verify => verify(request, &model, trace),
        Workload::Synth => synth(request, &model, trace),
    }
}

/// The fragments `request` must print, computed without tracing.
pub fn reference(request: &Request) -> Result<Fragments, String> {
    let model = request.model()?;
    match request.workload {
        Workload::Errors => {
            let metrics = exhaustive(&model).map_err(|e| e.to_string())?;
            Ok(errors_fragments(&metrics, mean_error_distance(&model)))
        }
        Workload::Synth => {
            let options = AnalysisOptions::default();
            let lib = Library::generic_90nm();
            let (accurate, approx) = synth_netlists(request, &model)?;
            Ok(synth_fragments(
                &analyze(accurate, &lib, &options),
                &analyze(approx, &lib, &options),
            ))
        }
        _ => staged(request, &mut Trace::new(false)),
    }
}

fn errors_fragments(metrics: &sdlc::core::error::ErrorMetrics, analytic_med: f64) -> Fragments {
    vec![
        metrics.to_string(),
        format!(
            "analytic MED = {analytic_med:.4} (model, no simulation; simulated {:.4})",
            metrics.med
        ),
    ]
}

fn errors(model: &SdlcMultiplier, trace: &mut Trace) -> Result<Fragments, String> {
    // Products alone, swept the way the error-metrics sweep visits them, so
    // the rest of that sweep's time is its error accounting.
    trace.span("core.products", || products_checksum(model));
    let metrics = trace
        .span("core.error_metrics", || {
            exhaustive_with_engine(model, Engine::BitSliced)
        })
        .map_err(|e| e.to_string())?;
    let analytic = trace.span("core.analytic", || mean_error_distance(model));
    Ok(errors_fragments(&metrics, analytic))
}

/// XOR of every exhaustive product of `model`, rows sharded over all cores.
fn products_checksum(model: &SdlcMultiplier) -> u64 {
    let batch = model.batch_model();
    let count = 1u64 << model.width();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel_chunks(count, threads, |lo, hi| {
        let mut lanes = [0u64; LANES];
        let mut fold = 0;
        for a in lo..hi {
            batch.sweep_operand_row(a, count, &mut |_b0, planes| {
                extract_product_lanes(planes, &mut lanes);
                fold = lanes.iter().fold(fold, |x, &p| x ^ p);
            });
        }
        fold
    })
    .into_iter()
    .fold(0, |x, y| x ^ y)
}

fn circuit(request: &Request, netlist: Netlist) -> Netlist {
    if request.signed {
        signed_multiplier(&netlist, request.width)
    } else {
        netlist
    }
}

fn verify(
    request: &Request,
    model: &SdlcMultiplier,
    trace: &mut Trace,
) -> Result<Fragments, String> {
    let width = request.width;
    let netlist = trace.span("core.circuits", || {
        circuit(request, sdlc_multiplier(model, request.scheme))
    });
    let ops = trace.span("sim.compile", || {
        CompiledNetlist::compile(&netlist).op_count()
    });
    trace.count("sim.compiled_ops", ops as u64);
    trace.span("sim.equiv", || {
        if request.signed {
            let signed = SignMagnitude::new(model.clone());
            equiv::check_exhaustive_signed_with_engine(
                &netlist,
                width,
                |a, b| signed.multiply_signed(a, b),
                equiv::Engine::Compiled,
            )
            .map_err(|e| e.to_string())
        } else {
            let batch = model.batch_model();
            equiv::check_exhaustive_batched(
                &netlist,
                width,
                |a, b0, out| exhaustive_block(&batch, a, b0, out),
                equiv::Engine::Compiled,
            )
            .map_err(|e| e.to_string())
        }
    })?;
    Ok(vec![
        format!("verifying {} against its functional model", netlist.name()),
        format!(
            "OK: netlist matches model (exhaustive, {} {}operand pairs)",
            1u64 << (2 * width),
            if request.signed { "signed " } else { "" }
        ),
    ])
}

fn synth_netlists(request: &Request, model: &SdlcMultiplier) -> Result<(Netlist, Netlist), String> {
    let accurate = accurate_multiplier(request.width, request.scheme).map_err(|e| e.to_string())?;
    let approx = sdlc_multiplier(model, request.scheme);
    Ok((circuit(request, accurate), circuit(request, approx)))
}

fn synth_fragments(exact: &AnalysisReport, approx: &AnalysisReport) -> Fragments {
    vec![
        exact.to_string(),
        approx.to_string(),
        format!("savings vs accurate: {}", approx.reduction_vs(exact)),
    ]
}

fn synth(
    request: &Request,
    model: &SdlcMultiplier,
    trace: &mut Trace,
) -> Result<Fragments, String> {
    let lib = Library::generic_90nm();
    let (accurate, approx) = trace.span("core.circuits", || synth_netlists(request, model))?;
    let exact = analyze_staged(accurate, &lib, trace);
    let report = analyze_staged(approx, &lib, trace);
    Ok(synth_fragments(&exact, &report))
}

/// `sdlc::synth::analyze` split into its layers.
fn analyze_staged(mut netlist: Netlist, lib: &Library, trace: &mut Trace) -> AnalysisReport {
    let options = AnalysisOptions::default();
    let stats = trace.span("netlist.passes", || {
        netlist
            .validate()
            .expect("generated netlists are well-formed");
        if options.optimize {
            passes::optimize(&mut netlist);
        }
        NetlistStats::of(&netlist)
    });
    trace.count("netlist.cells", stats.cells as u64);
    let timing = trace.span("synth.sta", || analyze_timing(&netlist, lib));
    let activity = trace.span("sim.activity", || {
        if options.glitch_power {
            timing_activity_with_engine(
                &netlist,
                lib,
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
        }
    });
    trace.span("synth.power", || {
        let energy = dynamic_energy_fj_per_op(&netlist, lib, &activity);
        let delay = timing.critical_delay_ps();
        let dynamic = dynamic_power_uw(energy, REFERENCE_RATE_GHZ);
        AnalysisReport {
            design: netlist.name().to_string(),
            area_um2: area_um2(&netlist, lib),
            leakage_nw: leakage_nw(&netlist, lib),
            delay_ps: delay,
            energy_fj_per_op: energy,
            dynamic_power_uw: dynamic,
            pdp_fj: power_delay_product_fj(dynamic, delay),
            stats,
        }
    })
}
