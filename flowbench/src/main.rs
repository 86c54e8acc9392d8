//! `flowbench` — end-to-end and per-layer benchmark of the `sdlc-cli` flows.
//!
//! ```console
//! $ flowbench --cli target/release/sdlc-cli --workload synth --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload's requests through the `sdlc-cli` binary
//! in a closed loop (one client; the next request starts when the previous
//! one has exited) and reports flow latency and set-up time.
//! `--trace 1` runs the same requests in process, as a chain of library
//! calls with a span around each layer, and reports the mean time per
//! request spent in each layer. Both modes check every output against a
//! reference and print one JSON result as the last line of stdout.

mod calibrate;
mod flows;
mod requests;
mod trace;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use calibrate::{at_reference, calibrate};
use flows::{Fragments, COUNTERS, LAYERS};
use requests::{Request, Workload};
use trace::{Trace, REQUEST};

/// Set-up (building the references) is repeated through the run, taking
/// up to this share of the time spent on flows; its median is reported.
const SETUP_SHARE: f64 = 0.25;

/// CPU set as the kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins this process to the last CPU it may run on. Every `sdlc-cli` it
/// starts inherits the pin, and the library sizes its thread pools from
/// the affinity mask, so the benchmark measures one core. On a few shared
/// cores, a flow that spreads over all of them times the other tenants as
/// much as the program.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t`-sized buffer.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

struct Args {
    cli: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut cli = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--cli" => cli = Some(value),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        cli: cli.ok_or_else(|| missing("--cli"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]`.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = q * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A request's reference fragments, or why the library could not produce
/// them; every run of such a request counts as failed.
type Reference = Result<Fragments, String>;

/// Computes every request's reference; returns them with the time taken in
/// seconds.
fn set_up(requests: &[Request]) -> (Vec<Reference>, f64) {
    let start = Instant::now();
    let references = requests.iter().map(flows::reference).collect();
    (references, start.elapsed().as_secs_f64())
}

/// The first set-up of a run, reporting requests without a reference.
fn first_set_up(requests: &[Request]) -> (Vec<Reference>, f64) {
    let (references, seconds) = set_up(requests);
    for (request, reference) in requests.iter().zip(&references) {
        if let Err(e) = reference {
            eprintln!(
                "FAILED: reference for {}: {e}",
                request.cli_args().join(" ")
            );
        }
    }
    (references, seconds)
}

/// Whether `output` holds every expected fragment.
fn matches(output: &str, expected: &Reference) -> bool {
    expected.as_ref().is_ok_and(|fragments| {
        fragments
            .iter()
            .all(|fragment| output.contains(fragment.as_str()))
    })
}

/// Runs one request through `sdlc-cli`; returns its wall time and whether
/// it exited successfully with the expected output.
fn run_cli(cli: &str, request: &Request, expected: &Reference) -> Result<(Duration, bool), String> {
    let start = Instant::now();
    let output = Command::new(cli)
        .args(request.cli_args())
        .output()
        .map_err(|e| format!("running {cli}: {e}"))?;
    let elapsed = start.elapsed();
    let ok = output.status.success() && matches(&String::from_utf8_lossy(&output.stdout), expected);
    if !ok {
        eprintln!(
            "FAILED: sdlc-cli {} ({})\n{}",
            request.cli_args().join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
    }
    Ok((elapsed, ok))
}

/// Geometric mean over the requests of the median of each one's times.
fn per_request_median(times: &mut [Vec<f64>]) -> f64 {
    let log_sum: f64 = times.iter_mut().map(|t| median(t).ln()).sum();
    (log_sum / times.len() as f64).exp()
}

/// Closed loop through the CLI: one untimed warm-up pass over the request
/// list, then whole passes until `seconds` have gone by. Between passes the
/// set-up runs again, each time checked against the first, so that its
/// median is taken over the whole run rather than one moment of it.
///
/// Every flow and set-up is timed between two calibrations and scaled to
/// the reference core speed (see [`calibrate`]); the wall-clock medians go
/// to stderr.
fn end_to_end(args: &Args, requests: &[Request]) -> Result<Outcome, String> {
    // How much a shared core slows the flows, against the calibration
    // kernel. Set-ups, the `errors` one (the scalar oracle) included, have
    // sensitivity 1.
    let sensitivity = match args.workload {
        Workload::Errors => 1.5,
        Workload::Verify | Workload::Synth => 1.0,
    };
    // Calibration seconds, in the order taken.
    let mut calibrations = vec![calibrate()];
    let (references, first_setup_s) = first_set_up(requests);
    calibrations.push(calibrate());
    // Times scaled by the last two calibrations, which enclose them.
    let scale = |time, sensitivity, calibrations: &[f64]| match calibrations {
        [.., before, after] => at_reference(time, sensitivity, *before, *after),
        _ => unreachable!("every timing is preceded by a calibration"),
    };
    // Set-up seconds, wall and at the reference speed.
    let mut setup_wall = vec![first_setup_s];
    let mut setup_s = vec![scale(first_setup_s, 1.0, &calibrations)];
    for (request, expected) in requests.iter().zip(&references) {
        run_cli(&args.cli, request, expected)?;
    }
    let (mut attempted, mut failed) = (0, 0);
    // Flow ms, one list per request, wall and at the reference speed.
    let mut flow_wall = vec![Vec::new(); requests.len()];
    let mut flow_ms = vec![Vec::new(); requests.len()];
    let mut flows_s = 0.0;
    let start = Instant::now();
    calibrations.push(calibrate());
    loop {
        for (i, (request, expected)) in requests.iter().zip(&references).enumerate() {
            let (elapsed, ok) = run_cli(&args.cli, request, expected)?;
            calibrations.push(calibrate());
            flow_wall[i].push(ms(elapsed));
            flow_ms[i].push(scale(ms(elapsed), sensitivity, &calibrations));
            flows_s += elapsed.as_secs_f64();
            attempted += 1;
            failed += u64::from(!ok);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if setup_wall.iter().sum::<f64>() < SETUP_SHARE * flows_s {
            let (again, seconds) = set_up(requests);
            calibrations.push(calibrate());
            setup_wall.push(seconds);
            setup_s.push(scale(seconds, 1.0, &calibrations));
            if again != references {
                eprintln!("FAILED: a repeated set-up gave other references");
                failed += 1;
            }
        }
    }
    eprintln!(
        "flowbench: wall-clock flow_ms {:.4}, setup_s {:.4}; calibration {:.4} ms; {} passes, {} set-ups",
        per_request_median(&mut flow_wall),
        median(&mut setup_wall),
        median(&mut calibrations) * 1e3,
        flow_wall[0].len(),
        setup_wall.len()
    );
    // The requests of a list differ in cost by up to 4x, so a statistic of
    // the pooled times depends on where it falls between them: it is taken
    // per request and averaged geometrically.
    let metric = |name: &str, value, unit| Metric {
        name: name.into(),
        value,
        unit,
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("flow_ms", per_request_median(&mut flow_ms), "ms"),
            metric("setup_s", median(&mut setup_s), "s"),
        ],
    })
}

/// The requests in process with every layer call traced, whole passes
/// until `seconds` have gone by.
fn traced(args: &Args, requests: &[Request]) -> Result<Outcome, String> {
    let (references, _) = first_set_up(requests);
    let mut trace = Trace::new(true);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    loop {
        for (request, expected) in requests.iter().zip(&references) {
            let got = trace.request(|trace| flows::staged(request, trace));
            attempted += 1;
            if expected.is_err() || got != *expected {
                eprintln!(
                    "FAILED: in-process {}: {got:?}",
                    request.cli_args().join(" ")
                );
                failed += 1;
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let per_request = |total: f64| total / attempted as f64;
    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .chain([&REQUEST])
        .map(|layer| Metric {
            name: format!("{layer}_ms"),
            value: per_request(ms(trace.layer_time(layer))),
            unit: "ms",
        })
        .collect();
    metrics.extend(COUNTERS.iter().map(|name| Metric {
        name: (*name).to_string(),
        value: per_request(trace.counter(name) as f64),
        unit: "count",
    }));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn render(outcome: &Outcome) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let cpu = pin_to_one_cpu()?;
    eprintln!("flowbench: pinned to CPU {cpu}");
    let requests = requests::requests(args.workload, args.seed);
    let outcome = if args.trace {
        traced(&args, &requests)?
    } else {
        end_to_end(&args, &requests)?
    };
    render(&outcome)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("flowbench: {message}");
            ExitCode::FAILURE
        }
    }
}
