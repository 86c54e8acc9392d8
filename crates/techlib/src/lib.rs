//! Synthetic 90 nm-class standard-cell library.
//!
//! The paper maps its multipliers to Faraday's 90 nm library with Synopsys
//! Design Compiler. That library is proprietary, so this crate provides a
//! stand-in with the published *ratios* of a 90 nm general-purpose process:
//! an FO4 inverter delay around 45 ps, NAND2 area around 5.5 µm², cell
//! leakage in the nW range and switching energies of a few fJ. Both the
//! accurate and approximate designs are analyzed with the *same* library,
//! so the relative savings — what the paper actually reports — do not
//! depend on the absolute calibration.
//!
//! # Examples
//!
//! ```
//! use sdlc_netlist::GateKind;
//! use sdlc_techlib::Library;
//!
//! let lib = Library::generic_90nm();
//! let inv = lib.cell(GateKind::Not);
//! // FO4: intrinsic + slope × (4 inverter input loads).
//! let fo4 = inv.intrinsic_delay_ps + inv.drive_ps_per_ff * (4.0 * inv.input_cap_ff);
//! assert!((35.0..60.0).contains(&fo4));
//! ```

mod cell;
mod format;
mod library;

pub use cell::CellSpec;
pub use format::{ParseLibError, MAX_LIBRARY_VALUE};
pub use library::Library;
