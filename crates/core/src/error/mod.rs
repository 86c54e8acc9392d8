//! Error analysis for approximate multipliers (Section III of the paper).
//!
//! The metrics follow Liang/Han/Lombardi's definitions as used in the
//! paper:
//!
//! * `ED  = |P − P′|` — error distance of one multiplication;
//! * `RED = ED / P` — relative error distance (defined as 0 when `ED = 0`,
//!   which covers the `P = 0` corner);
//! * `ER` — fraction of operand pairs with a wrong product;
//! * `MED = Σ ED / 2^{2N}`, `NMED = MED / Pmax` with `Pmax = (2^N − 1)²`;
//! * `MRED = Σ RED / 2^{2N}`; plus the observed maxima `MAX(RED)`/`MAX(ED)`.
//!
//! [`exhaustive_with`] runs exhaustive sweeps (every operand pair, as the
//! paper does up to 16 bits) and [`sampled_with`] seeded Monte-Carlo
//! sampling, in parallel, with
//! [`exhaustive_signed_with`]/[`sampled_signed_with`] as their
//! two's-complement twins; [`RedHistogram`] reproduces the RED
//! probability distribution of Figure 5; [`error_rate_depth2`] and
//! [`mean_error_distance`] derive error statistics exactly, independent of
//! simulation.
//!
//! One driver per operation: each takes an [`EvalOptions`] naming the
//! [`Engine`] — the scalar per-pair path, or the bit-sliced 64-lane path
//! of [`crate::batch`] that packs 64 multiplications into word-wide
//! boolean ops (~10–20× faster per core and bit-identical in its results)
//! — and the worker-thread count. Every driver sweeps a fixed list of
//! shards and folds their tallies in shard order, so the results are
//! bit-identical for any thread count. [`exhaustive`] and [`sampled`] are
//! the scalar oracles, open to models without a bit-sliced twin.

mod analytic;
mod evaluate;
mod histogram;
mod metrics;
mod signed;

pub use analytic::{error_rate_depth2, mean_error_distance};
pub use evaluate::{
    exhaustive, exhaustive_with, exhaustive_with_engine, sampled, sampled_with, Engine, EvalError,
    EvalOptions, BITSLICED_EXHAUSTIVE_WIDTH_LIMIT, EXHAUSTIVE_WIDTH_LIMIT,
};
pub use histogram::{RedHistogram, RED_HISTOGRAM_BINS};
pub use metrics::ErrorMetrics;
// The workspace's deterministic work splitter (the error drivers shard
// through it) — re-exported so downstream sweeps (benches, external
// tools) can partition work the same way.
pub use sdlc_wideint::parallel::parallel_chunks;
pub use signed::{exhaustive_signed_with, sampled_signed_with};
