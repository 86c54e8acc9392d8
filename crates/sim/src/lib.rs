//! Gate-level logic simulation (the reproduction's stand-in for QuestaSim).
//!
//! Four engines share the netlist IR:
//!
//! * [`LogicSim`] — scalar levelized zero-delay simulation with per-net
//!   toggle counting; the reference engine every faster path is checked
//!   against (64 `LogicSim` lane streams are the oracle of the 64-lane
//!   compiled engine).
//! * [`CompiledNetlist`]/[`CompiledSim`] — the netlist flattened once into
//!   a dense struct-of-arrays program (constants folded, buffer chains
//!   chased, ports pre-mapped) whose executor evaluates one value
//!   [`Plane`] per slot — 64 vectors per sweep in a `u64`, 256 in a
//!   [`Lanes`] plane — without re-walking the `Netlist`; the fast path
//!   for equivalence checking and switching-activity estimation.
//! * [`TimingSim`] — event-driven simulation with per-gate load-dependent
//!   delays from `sdlc-techlib`; observes *glitches* (spurious transitions
//!   inside a cycle) that zero-delay simulation cannot, and reports settle
//!   times that cross-check static timing analysis.
//! * [`TimedProgram`]/[`GlitchSim`] — the compiled timing twin:
//!   [`WHEEL_LANES`] (256) independent stimulus streams walked op by op
//!   over their sources' change histories, an exact per-lane emulation
//!   of [`TimingSim`]'s inertial-delay transition accounting (same
//!   delays, same quantization, same event order) at a fraction of the
//!   cost.
//!
//! Two modules drive the engines, one driver per operation, each taking
//! an [`Engine`] that selects the scalar reference or the compiled
//! word-parallel path:
//!
//! * [`activity`] runs seeded random vector streams and aggregates
//!   per-net toggle statistics for the power model in `sdlc-synth`:
//!   zero-delay (`random_activity_with_engine`) or glitch-aware through
//!   the timing engines (`timing_activity_with_engine`).
//! * [`equiv`] checks netlists against functional models, exhaustively or
//!   sampled: `check` in the unsigned operand domain and `check_signed` in
//!   the two's-complement one, calling the model per pair, and their
//!   plane twins `check_planes` and `check_planes_signed`, whose
//!   bit-sliced model reads each block's operand bit-planes (and, on an
//!   exhaustive row, the row's left pattern) and whose products are
//!   compared as bit-planes, 64 pairs per word. Every check
//!   runs on one block sweep, and sampled checks regenerate their draws
//!   from the seed, so their memory does not grow with the sample count.
//!
//! The equivalence sweep, the glitch-aware activity streams and
//! [`ab_stimulus`] resolve the multipliers' port convention (operand buses
//! `a` and `b` as the only primary inputs, product bus `p`) through one
//! port map, built once per netlist.

pub mod activity;
mod compile;
pub mod equiv;
mod glitch;
mod logic;
mod ops;
mod timing;

pub use compile::{CompiledNetlist, CompiledSim};
pub use equiv::Engine;
pub use glitch::{GlitchApplyResult, GlitchSim, TimedProgram};
pub use logic::{ab_stimulus, LogicSim};
pub use ops::{Lanes, Plane, WHEEL_LANES, WHEEL_WORDS};
pub use timing::{ApplyResult, TimingSim};
