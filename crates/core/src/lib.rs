//! Significance-driven logic compression (SDLC) approximate multipliers.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Energy-Efficient Approximate Multiplier Design using Bit
//! Significance-Driven Logic Compression"* (Qiqieh, Shafik, Tarawneh,
//! Sokolov, Yakovlev — DATE 2017). It provides:
//!
//! * [`SdlcMultiplier`] — the paper's multiplier: partial products are
//!   grouped in clusters of `depth` consecutive rows and vertically aligned
//!   bits are lossily merged with OR gates, with significance-driven
//!   thresholds keeping the high-order bits exact (Algorithm 1 of the
//!   paper, generalized to any cluster depth);
//! * [`AccurateMultiplier`] and the comparison baselines of the paper's
//!   Section IV: [`baselines::KulkarniMultiplier`] (underdesigned 2×2
//!   blocks, ref. \[8\]), [`baselines::EtmMultiplier`] (error-tolerant
//!   multiplier, ref. \[20\]) and [`baselines::TruncatedMultiplier`];
//! * [`matrix`] — an inspectable dot-notation partial-product matrix model
//!   reproducing Figures 2–4;
//! * [`error`] — the error-metric engine (ED, MED, NMED, RED, MRED, ER,
//!   MaxRED), exhaustive and Monte-Carlo evaluators, RED histograms
//!   (Figure 5) and an exact analytical error-rate model;
//! * [`circuits`] — gate-level netlist generators for every multiplier,
//!   feeding the synthesis-style area/power/delay flow.
//!
//! # Quickstart
//!
//! ```
//! use sdlc_core::{Multiplier, SdlcMultiplier, AccurateMultiplier};
//!
//! let approx = SdlcMultiplier::new(8, 2)?; // 8×8, 2-row clusters
//! let exact = AccurateMultiplier::new(8)?;
//!
//! let p_approx = approx.multiply_u64(200, 100);
//! let p_exact = exact.multiply_u64(200, 100);
//! assert!(p_approx <= p_exact); // OR-compression never overestimates
//! # Ok::<(), sdlc_core::SpecError>(())
//! ```

pub mod baselines;
pub mod batch;
pub mod circuits;
pub mod error;
pub mod matrix;
mod multiplier;
mod sdlc;
pub mod signed;

pub use batch::{BatchMultiplier, Batchable};
pub use multiplier::{AccurateMultiplier, Multiplier, SpecError};
pub use sdlc::{ClusterVariant, SdlcMultiplier};
pub use signed::{SignMagnitude, SignedMultiplier};

/// Operand widths synthesized in the paper's evaluation (Figure 6).
pub const PAPER_WIDTHS: [u32; 8] = [4, 6, 8, 12, 16, 32, 64, 128];
