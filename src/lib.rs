//! # sdlc — significance-driven logic compression multipliers
//!
//! A full-stack reproduction of *"Energy-Efficient Approximate Multiplier
//! Design using Bit Significance-Driven Logic Compression"* (Qiqieh,
//! Shafik, Tarawneh, Sokolov, Yakovlev — DATE 2017): the approximate
//! multiplier itself, the comparison baselines, an error-analysis engine,
//! and the gate-level substrate (netlists, synthetic 90 nm library,
//! simulation, synthesis-style reporting) that regenerates every table and
//! figure of the paper's evaluation.
//!
//! This crate re-exports the workspace members under stable paths:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `sdlc-core` | SDLC multiplier, baselines, error analysis, circuit generators |
//! | [`wideint`] | `sdlc-wideint` | fixed-capacity wide integers (products up to 256 bits) |
//! | [`netlist`] | `sdlc-netlist` | gate-level IR, adders, reduction trees, passes |
//! | [`techlib`] | `sdlc-techlib` | synthetic 90 nm standard-cell library |
//! | [`sim`] | `sdlc-sim` | scalar reference, compiled 64-lane and event-driven (scalar + compiled glitch) simulation |
//! | [`synth`] | `sdlc-synth` | STA, power/area/energy reports |
//! | [`imgproc`] | `sdlc-imgproc` | Gaussian-blur and Sobel/Scharr case-study substrate |
//!
//! The stack is *signed-complete*: `core::SignMagnitude` lifts any
//! unsigned multiplier to two's complement (with bit-sliced twins and
//! signed error drivers), `netlist::signed` wraps any generated array in
//! sign/magnitude periphery, `sim::equiv` checks the two against each
//! other, and `imgproc`'s Sobel/Scharr pipelines consume the result.
//!
//! # Quickstart
//!
//! ```
//! use sdlc::core::{error, Multiplier, SdlcMultiplier};
//!
//! // An 8×8 multiplier with 2-row logic clusters (the paper's default).
//! let multiplier = SdlcMultiplier::new(8, 2)?;
//! assert_eq!(multiplier.multiply_u64(250, 4), 1000); // often exact…
//! let metrics = error::exhaustive(&multiplier).unwrap();
//! assert!(metrics.mred < 0.02); // …and under 2% mean relative error overall
//! # Ok::<(), sdlc::core::SpecError>(())
//! ```
//!
//! See `examples/` for walkthroughs (quickstart, dot-notation diagrams,
//! an approximate FIR filter, a depth/variant Pareto explorer), the
//! `sdlc-cli sobel` subcommand for the signed Sobel/Scharr edge-detection
//! workload, and `crates/bench/benches/` for the per-table/figure
//! reproduction harnesses (the Gaussian-blur study is Fig. 8's).

pub use sdlc_core as core;
pub use sdlc_imgproc as imgproc;
pub use sdlc_netlist as netlist;
pub use sdlc_sim as sim;
pub use sdlc_synth as synth;
pub use sdlc_techlib as techlib;
pub use sdlc_wideint as wideint;
