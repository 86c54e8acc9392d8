//! `sdlc-cli` — command-line front end to the SDLC reproduction stack.
//!
//! ```console
//! $ sdlc-cli errors --width 8 --depth 2
//! $ sdlc-cli errors --width 8 --depths 4,2,2
//! $ sdlc-cli errors --width 8 --signed --engine bitsliced
//! $ sdlc-cli verify --width 10 --depth 2 --engine compiled
//! $ sdlc-cli sobel --depth 3 --size 128,128 --out edges/
//! $ sdlc-cli synth --width 16 --depth 3 --scheme wallace
//! $ sdlc-cli verilog --width 8 --depth 2 --signed --out signed_sdlc8.v
//! $ sdlc-cli dot --width 8 --depth 3
//! ```
//!
//! Subcommands: `errors` (error metrics, unsigned or `--signed`),
//! `verify` (gate-level netlist vs functional model equivalence),
//! `sobel` (edge detection through approximate signed multipliers),
//! `synth` (area/power/delay report + savings vs accurate), `verilog`
//! (structural export, optionally `--signed`), `dot` (dot-notation
//! diagram), `help`.

use std::io::{self, Write};
use std::process::ExitCode;

use sdlc::core::batch::{BatchMultiplier, BATCH_MAX_WIDTH};
use sdlc::core::circuits::{accurate_multiplier, sdlc_multiplier, ReductionScheme};
use sdlc::core::error::{
    exhaustive_signed_with, exhaustive_with, mean_error_distance, sampled_signed_with,
    sampled_with, Engine, EvalOptions, BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
};
use sdlc::core::matrix::ReducedMatrix;
use sdlc::core::{
    Batchable, ClusterVariant, Multiplier, SdlcMultiplier, SignMagnitude, SignedMultiplier,
};
use sdlc::imgproc::{psnr, scenes, scharr_magnitude, sobel_magnitude, write_pgm};
use sdlc::netlist::{passes, to_verilog};
use sdlc::sim::equiv::{self, Coverage};
use sdlc::synth::{analyze, AnalysisOptions};
use sdlc::techlib::Library;

const USAGE: &str = "\
sdlc-cli — significance-driven logic compression multipliers

USAGE:
  sdlc-cli <command> [options]

COMMANDS:
  errors    error metrics (exhaustive <=12 bits, Monte-Carlo above)
  verify    check the generated netlist against its functional model
            (exhaustive for narrow widths, sampled + corners above)
  sobel     Sobel edge detection through approximate signed multipliers
  synth     synthesis-style report and savings vs the accurate design
  verilog   export the multiplier as structural Verilog
  dot       print the reduced partial-product matrix in dot notation
  help      show this text

OPTIONS:
  --width N        operand width (even, 2..=128; default 8;
                   `sobel` needs >=10 and defaults to 16)
  --depth D        uniform cluster depth (default 2)
  --depths A,B,..  heterogeneous cluster depths (sum = width; replaces
                   --depth and --variant)
  --variant V      prog | ceiltails | pairtails | fullor (default prog)
  --scheme S       ripple | csa | wallace | dadda (default ripple);
                   `verify` also accepts `all` to sweep every scheme in
                   one invocation
  --json           `verify` only: machine-readable JSON report on stdout
                   (one result record per scheme, for CI dashboards)
  --engine E       errors: scalar | bitsliced (default scalar) —
                   bitsliced packs 64 multiplications into word-wide
                   bit-plane ops, exhaustive up to 20 bits (2^40 pairs);
                   verify: scalar | compiled (default compiled) —
                   compiled flattens the netlist once and sweeps 64
                   vectors per pass across all cores
  --signed         evaluate the signed (two's-complement) sign-magnitude
                   wrapping of the design: `errors` sweeps the signed
                   operand range with signed ED/RED statistics
  --samples K      Monte-Carlo samples for wide widths (`errors`
                   default 2^22; `verify` default 2048 netlist sweeps)
  --size W,H       scene size for `sobel` (default 200,200; at most
                   4194304 = 2048x2048 pixels)
  --out PATH       output path for `verilog` (default stdout); for
                   `sobel`, a directory receiving the PGM before/after set
  --lib FILE       cell library in sdlc-techlib text format
                   (default: built-in generic 90 nm)
";

/// Largest `sobel` scene, in pixels (2048 × 2048): every pixel runs
/// through both kernels on the exact and the approximate multiplier, so
/// the cap keeps a run to seconds and its images to a few MB.
const MAX_SCENE_PIXELS: u64 = 1 << 22;

#[derive(Debug)]
struct Options {
    width: Option<u32>,
    depth: u32,
    depths: Option<Vec<u32>>,
    variant: ClusterVariant,
    scheme: ReductionScheme,
    /// Raw `--engine` value; each command parses it against its own
    /// engine domain (`errors`: scalar/bitsliced model engines,
    /// `verify`: scalar/compiled netlist engines).
    engine: Option<String>,
    /// `--scheme all`: sweep every reduction scheme (verify only).
    scheme_all: bool,
    /// `--json`: machine-readable verify output.
    json: bool,
    signed: bool,
    samples: Option<u64>,
    size: (u32, u32),
    out: Option<String>,
    lib: Option<String>,
    /// Every flag given, in order, for the per-command check in
    /// [`reject_unread_flags`].
    given: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            width: None,
            depth: 2,
            depths: None,
            variant: ClusterVariant::Progressive,
            scheme: ReductionScheme::RippleRows,
            engine: None,
            scheme_all: false,
            json: false,
            signed: false,
            samples: None,
            size: (200, 200),
            out: None,
            lib: None,
            given: Vec::new(),
        }
    }
}

impl Options {
    /// Operand width: explicit `--width`, else the command default (8
    /// everywhere; 16 for `sobel`, whose pixel×tap products need the
    /// headroom).
    fn width(&self, command: &str) -> u32 {
        self.width
            .unwrap_or(if command == "sobel" { 16 } else { 8 })
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--width" => {
                options.width = Some(value()?.parse().map_err(|e| format!("bad --width: {e}"))?);
            }
            "--depth" => {
                options.depth = value()?.parse().map_err(|e| format!("bad --depth: {e}"))?;
            }
            "--depths" => {
                let list = value()?;
                let parsed: Result<Vec<u32>, _> = list.split(',').map(str::parse).collect();
                options.depths = Some(parsed.map_err(|e| format!("bad --depths {list:?}: {e}"))?);
            }
            "--variant" => {
                options.variant = match value()?.as_str() {
                    "prog" => ClusterVariant::Progressive,
                    "ceiltails" => ClusterVariant::CeilTails,
                    "pairtails" => ClusterVariant::PairTails,
                    "fullor" => ClusterVariant::FullOr,
                    other => return Err(format!("unknown variant {other:?}")),
                };
            }
            "--scheme" => {
                let name = value()?;
                options.scheme_all |= name == "all";
                if name != "all" {
                    options.scheme = ReductionScheme::all()
                        .into_iter()
                        .find(|scheme| scheme.tag() == name)
                        .ok_or_else(|| format!("unknown scheme {name:?}"))?;
                }
            }
            "--json" => options.json = true,
            "--engine" => {
                options.engine = Some(value()?);
            }
            "--signed" => options.signed = true,
            "--size" => {
                let list = value()?;
                let parts: Vec<&str> = list.split(',').collect();
                let parse = |s: &str| {
                    s.parse::<u32>()
                        .map_err(|e| format!("bad --size {list:?}: {e}"))
                };
                match parts.as_slice() {
                    [w, h] => options.size = (parse(w)?, parse(h)?),
                    _ => return Err(format!("bad --size {list:?}: expected W,H")),
                }
                if options.size.0 == 0 || options.size.1 == 0 {
                    return Err(format!("bad --size {list:?}: dimensions must be positive"));
                }
                if u64::from(options.size.0) * u64::from(options.size.1) > MAX_SCENE_PIXELS {
                    return Err(format!(
                        "bad --size {list:?}: at most {MAX_SCENE_PIXELS} pixels"
                    ));
                }
            }
            "--samples" => {
                let samples = value()?
                    .parse()
                    .map_err(|e| format!("bad --samples: {e}"))?;
                if samples == 0 {
                    return Err("sample count must be positive".into());
                }
                options.samples = Some(samples);
            }
            "--out" => options.out = Some(value()?),
            "--lib" => options.lib = Some(value()?),
            other => return Err(format!("unknown option {other:?}")),
        }
        options.given.push(flag.clone());
    }
    Ok(options)
}

/// A command's body, writing its report to stdout.
type Command = fn(&Options, &mut dyn Write) -> Result<(), Failure>;

/// Every command with the flags it reads. Any other flag is rejected
/// rather than silently ignored; `help` reads none and ignores all.
const COMMANDS: [(&str, &str, Command); 6] = [
    (
        "errors",
        "--width --depth --depths --variant --engine --signed --samples",
        cmd_errors,
    ),
    (
        "verify",
        "--width --depth --depths --variant --engine --signed --samples --scheme --json",
        cmd_verify,
    ),
    (
        "sobel",
        "--width --depth --depths --variant --size --out",
        cmd_sobel,
    ),
    (
        "synth",
        "--width --depth --depths --variant --scheme --signed --lib",
        cmd_synth,
    ),
    (
        "verilog",
        "--width --depth --depths --variant --scheme --signed --out",
        cmd_verilog,
    ),
    ("dot", "--width --depth --depths --variant", cmd_dot),
];

/// Whether the space-separated flag list `reads` holds `flag`.
fn reads_flag(reads: &str, flag: &str) -> bool {
    reads.split(' ').any(|read| read == flag)
}

/// Rejects every given flag that `command` (reading `reads`) would
/// ignore: flags outside its read set, `--depth`/`--variant` beside
/// `--depths` (whose clusters are each their own depth, progressive), and
/// `--scheme all` outside `verify`.
fn reject_unread_flags(options: &Options, command: &str, reads: &str) -> Result<(), String> {
    for flag in &options.given {
        if !reads_flag(reads, flag) {
            let readers: Vec<String> = COMMANDS
                .iter()
                .filter(|(_, flags, _)| reads_flag(flags, flag))
                .map(|(name, _, _)| format!("`{name}`"))
                .collect();
            return Err(format!(
                "{flag} is not supported by `{command}` (only supported by {}); drop {flag}",
                readers.join(", ")
            ));
        }
        if options.depths.is_some() && (flag == "--depth" || flag == "--variant") {
            return Err(format!(
                "{flag} cannot be combined with --depths, which sets every cluster's \
                 depth (progressive); drop {flag}"
            ));
        }
    }
    if options.scheme_all && command != "verify" {
        return Err(format!(
            "--scheme all is only supported by `verify`; `{command}` needs one concrete scheme"
        ));
    }
    Ok(())
}

/// Why a command failed: a message for the user, or a failed write to
/// stdout.
enum Failure {
    Message(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<io::Error> for Failure {
    fn from(error: io::Error) -> Self {
        Failure::Stdout(error)
    }
}

fn build_model(options: &Options, width: u32) -> Result<SdlcMultiplier, String> {
    let model = match &options.depths {
        Some(depths) => SdlcMultiplier::with_group_depths(width, depths),
        None => SdlcMultiplier::with_variant(width, options.depth, options.variant),
    };
    model.map_err(|e| e.to_string())
}

fn cmd_errors(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let width = options.width("errors");
    let model = build_model(options, width)?;
    let engine: Engine = options.engine.as_deref().unwrap_or("scalar").parse()?;
    let samples = options.samples.unwrap_or(1 << 22);
    // The bit-sliced engine makes full sweeps cheap enough to exhaust
    // everything up to its 20-bit driver ceiling (the paper's entire
    // synthesized range is ≤16); the scalar path keeps its 12-bit
    // practicality cutoff. Signed sweeps cover the same 2^{2N} pattern
    // space, so the cutoffs carry over.
    let exhaustive_cutoff = match engine {
        Engine::Scalar => 12,
        Engine::BitSliced => BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
    };
    let sweep = EvalOptions::from(engine);
    // The report starts only once the metrics exist, so a rejected run
    // leaves stdout empty.
    let (design, metrics) = if options.signed {
        let signed = SignMagnitude::new(model.clone());
        let metrics = if width <= exhaustive_cutoff {
            exhaustive_signed_with(&signed, sweep)
        } else {
            sampled_signed_with(&signed, samples, 0x5D1C, sweep)
        };
        (signed.name(), metrics)
    } else {
        let metrics = if width <= exhaustive_cutoff {
            exhaustive_with(&model, sweep)
        } else {
            sampled_with(&model, samples, 0x5D1C, sweep)
        };
        (model.name(), metrics)
    };
    let metrics = metrics.map_err(|e| e.to_string())?;
    writeln!(out, "design {design} (engine {engine})")?;
    writeln!(out, "{metrics}")?;
    // Sampled runs cover fewer than the 2^{2N} pairs of the domain; at
    // width ≥ 32 that pair count overflows u64, so any sample count is
    // partial by definition.
    if width >= 32 || metrics.samples < 1u64 << (2 * width) {
        writeln!(
            out,
            "(Monte-Carlo; 95% CI: MRED ±{:.5}pp, ER ±{:.4}pp)",
            1.96 * metrics.mred_std_error * 100.0,
            1.96 * metrics.er_std_error * 100.0
        )?;
    }
    if let Some((a, b)) = metrics.worst_red_operands_signed() {
        writeln!(out, "worst RED at ({a}, {b})")?;
    }
    if !options.signed {
        writeln!(
            out,
            "analytic MED = {:.4} (model, no simulation; simulated {:.4})",
            mean_error_distance(&model),
            metrics.med
        )?;
    }
    Ok(())
}

/// One scheme's verify outcome, for the text and JSON renderers.
struct VerifyRecord {
    design: String,
    scheme: &'static str,
    coverage: String,
    /// `Ok(pair count)` or the first counterexample, pre-formatted.
    outcome: Result<u64, String>,
}

/// Escapes a string for embedding in a JSON literal (the report values
/// are ASCII design names and operand lists; quotes/backslashes only for
/// robustness).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_verify_json(
    out: &mut dyn Write,
    options: &Options,
    width: u32,
    engine: &str,
    records: &[VerifyRecord],
) -> io::Result<()> {
    let results: Vec<String> = records
        .iter()
        .map(|r| {
            let (status, extra) = match &r.outcome {
                Ok(pairs) => ("ok".to_string(), format!("\"pairs\":{pairs}")),
                Err(mismatch) => (
                    "mismatch".to_string(),
                    format!("\"counterexample\":\"{}\"", json_escape(mismatch)),
                ),
            };
            format!(
                "{{\"design\":\"{}\",\"scheme\":\"{}\",\"coverage\":\"{}\",\"status\":\"{status}\",{extra}}}",
                json_escape(&r.design),
                r.scheme,
                json_escape(&r.coverage),
            )
        })
        .collect();
    writeln!(
        out,
        "{{\"command\":\"verify\",\"width\":{width},\"signed\":{},\"engine\":\"{engine}\",\"results\":[{}]}}",
        options.signed,
        results.join(",")
    )
}

fn cmd_verify(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let width = options.width("verify");
    let engine: sdlc::sim::Engine = options.engine.as_deref().unwrap_or("compiled").parse()?;
    let samples = options.samples.unwrap_or(2048);
    let model = build_model(options, width)?;
    let schemes = if options.scheme_all {
        ReductionScheme::all().to_vec()
    } else {
        vec![options.scheme]
    };
    // The compiled engine lifts the practical exhaustive ceiling from 8
    // bits (scalar) to 12 in both domains; above it, seeded sampling plus
    // the corner patterns. Up to the bit-sliced twins' width every check
    // compares product planes against the twin, wider ones call the
    // scalar model per pair.
    let cutoff = match engine {
        sdlc::sim::Engine::Scalar => 8,
        sdlc::sim::Engine::Compiled => 12,
    };
    let mut records = Vec::new();
    for scheme in schemes {
        let mut netlist = sdlc_multiplier(&model, scheme);
        if options.signed {
            netlist = sdlc::core::circuits::signed_multiplier(&netlist, width);
        }
        if !options.json {
            writeln!(
                out,
                "verifying {} against its functional model (engine {engine})",
                netlist.name()
            )?;
        }
        let exhaustive = width <= cutoff;
        let coverage = if exhaustive {
            Coverage::Exhaustive
        } else {
            Coverage::Sampled {
                samples,
                seed: 0x5D1C,
            }
        };
        let (signed, corners) = if options.signed {
            ("signed ", 25)
        } else {
            ("", 9)
        };
        let label = if exhaustive {
            format!("exhaustive, {} {signed}operand pairs", 1u64 << (2 * width))
        } else {
            format!("sampled, {corners} {signed}corners + {samples} seeded pairs")
        };
        let outcome: Result<u64, String> = if options.signed && width <= BATCH_MAX_WIDTH {
            let batch = SignMagnitude::new(model.clone()).batch_model();
            let twin = |ops: equiv::OperandPlanes<'_>, product: &mut [u64]| match ops.row {
                Some(a) => batch.multiply_planes_bcast_signed(a, ops.b, product),
                None => batch.multiply_planes_signed(ops.a, ops.b, product),
            };
            equiv::check_planes_signed(&netlist, width, coverage, engine, twin)
                .map_err(|e| e.to_string())
        } else if options.signed {
            let signed = SignMagnitude::new(model.clone());
            equiv::check_signed(&netlist, width, coverage, engine, |a, b| {
                signed.multiply_signed(a, b)
            })
            .map_err(|e| e.to_string())
        } else if width <= BATCH_MAX_WIDTH {
            let batch = model.batch_model();
            let twin = |ops: equiv::OperandPlanes<'_>, product: &mut [u64]| match ops.row {
                Some(a) => batch.multiply_planes_bcast(a, ops.b, product),
                None => batch.multiply_planes(ops.a, ops.b, product),
            };
            equiv::check_planes(&netlist, width, coverage, engine, twin).map_err(|e| e.to_string())
        } else {
            equiv::check(&netlist, width, coverage, engine, |a, b| {
                model.multiply(a, b)
            })
            .map_err(|e| e.to_string())
        };
        if !options.json {
            match &outcome {
                Ok(_) => writeln!(out, "OK: netlist matches model ({label})")?,
                Err(e) => return Err(format!("equivalence FAILED: {e}").into()),
            }
        }
        records.push(VerifyRecord {
            design: netlist.name().to_string(),
            scheme: scheme.tag(),
            coverage: label,
            outcome,
        });
    }
    if options.json {
        render_verify_json(out, options, width, engine.tag(), &records)?;
        if let Some(failed) = records.iter().find(|r| r.outcome.is_err()) {
            return Err(format!(
                "equivalence FAILED ({}): {}",
                failed.design,
                failed.outcome.as_ref().unwrap_err()
            )
            .into());
        }
    }
    Ok(())
}

fn cmd_sobel(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let width = options.width("sobel");
    if !(10..=32).contains(&width) {
        return Err(format!(
            "sobel needs a signed multiplier of 10..=32 bits \
             (pixel×tap products through the i64 fast path), got --width {width}"
        )
        .into());
    }
    let model = build_model(options, width)?;
    let approx = SignMagnitude::new(model);
    let exact =
        SignMagnitude::new(sdlc::core::AccurateMultiplier::new(width).map_err(|e| e.to_string())?);
    let (w, h) = options.size;
    let image = scenes::blobs(w, h, 7);
    writeln!(
        out,
        "gradient magnitude {}×{} through {} (reference {})",
        w,
        h,
        approx.name(),
        exact.name()
    )?;
    let sobel_ref = sobel_magnitude(&image, &exact);
    let sobel_approx = sobel_magnitude(&image, &approx);
    let scharr_ref = scharr_magnitude(&image, &exact);
    let scharr_approx = scharr_magnitude(&image, &approx);
    // Sobel's ±1/±2 taps are powers of two — exact through SDLC (∞ dB);
    // Scharr's ±3/±10 taps collide in compressed clusters.
    writeln!(
        out,
        "  sobel  PSNR {:>8.2} dB",
        psnr(&sobel_ref, &sobel_approx)
    )?;
    writeln!(
        out,
        "  scharr PSNR {:>8.2} dB",
        psnr(&scharr_ref, &scharr_approx)
    )?;
    if let Some(dir) = &options.out {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let save = |img: &sdlc::imgproc::GrayImage, name: &str| -> Result<(), String> {
            let path = dir.join(name);
            let mut file = std::fs::File::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            write_pgm(img, &mut file).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        save(&image, "input.pgm")?;
        save(&sobel_ref, "sobel_exact.pgm")?;
        save(&sobel_approx, &format!("sobel_{}.pgm", approx.name()))?;
        save(&scharr_ref, "scharr_exact.pgm")?;
        save(&scharr_approx, &format!("scharr_{}.pgm", approx.name()))?;
        writeln!(
            out,
            "wrote input + exact/approximate edge maps to {}",
            dir.display()
        )?;
    }
    Ok(())
}

fn load_library(options: &Options) -> Result<Library, String> {
    match &options.lib {
        None => Ok(Library::generic_90nm()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Library::from_text(&text).map_err(|e| format!("parsing {path}: {e}"))
        }
    }
}

fn cmd_synth(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let width = options.width("synth");
    let model = build_model(options, width)?;
    let lib = load_library(options)?;
    let analysis = AnalysisOptions::default();
    let accurate = accurate_multiplier(width, options.scheme).map_err(|e| e.to_string())?;
    let approx = sdlc_multiplier(&model, options.scheme);
    let (accurate, approx) = if options.signed {
        (
            sdlc::core::circuits::signed_multiplier(&accurate, width),
            sdlc::core::circuits::signed_multiplier(&approx, width),
        )
    } else {
        (accurate, approx)
    };
    let exact = analyze(accurate, &lib, &analysis);
    let report = analyze(approx, &lib, &analysis);
    write!(out, "{exact}{report}")?;
    writeln!(out, "savings vs accurate: {}", report.reduction_vs(&exact))?;
    Ok(())
}

fn cmd_verilog(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let width = options.width("verilog");
    let model = build_model(options, width)?;
    let mut netlist = sdlc_multiplier(&model, options.scheme);
    if options.signed {
        netlist = sdlc::core::circuits::signed_multiplier(&netlist, width);
    }
    passes::optimize(&mut netlist);
    let text = to_verilog(&netlist);
    match &options.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({} cells)", netlist.cell_count());
        }
        None => write!(out, "{text}")?,
    }
    Ok(())
}

fn cmd_dot(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let model = build_model(options, options.width("dot"))?;
    let matrix = ReducedMatrix::from_multiplier(&model);
    writeln!(
        out,
        "{} — {} rows, critical column {}, {} compressed bits",
        model.name(),
        matrix.rows().len(),
        matrix.critical_column_height(),
        matrix.compressed_bit_count()
    )?;
    write!(out, "{matrix}")?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut out = io::stdout().lock();
    let result = parse_options(&args[1..])
        .map_err(Failure::from)
        .and_then(|options| run(command, &options, &mut out))
        .and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`| head`) is not an error.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    if matches!(command, "help" | "--help" | "-h") {
        return Ok(write!(out, "{USAGE}")?);
    }
    let Some((_, reads, body)) = COMMANDS.iter().find(|(name, _, _)| *name == command) else {
        return Err(format!("unknown command {command:?}; try `sdlc-cli help`").into());
    };
    reject_unread_flags(options, command, reads)?;
    body(options, out)
}
