//! Exhaustive and Monte-Carlo error evaluation drivers.
//!
//! The paper evaluates "all possible combinations of operands" (Section
//! III). That is 2^{2N} pairs — trivial up to 12 bits, 4.3 G pairs at
//! 16 bits. [`exhaustive_with`] sweeps every pair in parallel;
//! [`sampled_with`] draws a seeded uniform sample for the widths where
//! exhaustion is unreasonable on a laptop. Both drivers are deterministic:
//! thread count never changes the result, and sampling depends only on the
//! seed. [`exhaustive`] and [`sampled`] are the scalar oracles for models
//! without a bit-sliced twin.
//!
//! Every driver runs on one of two [`Engine`]s, chosen with the thread
//! count in [`EvalOptions`]: the scalar path calls
//! [`Multiplier::multiply_u64`] once per pair, while the bit-sliced path
//! evaluates 64 pairs per pass through the transposed bit-plane models of
//! [`crate::batch`]. The engines are bit-exact twins — same pair order,
//! same accumulation order, bit-identical [`ErrorMetrics`] — so the
//! bit-sliced engine is a pure speedup (~10–20× per core on products, ~8×
//! with the error accounting) that also raises the exhaustive ceiling to
//! [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`] bits.
//!
//! Every sweep runs through one skeleton: a fixed list of logical shards
//! — `min(256, 2^N)` equal row ranges for the exhaustive drivers, 256
//! seeded substreams for the samplers — is split over the workers, each
//! shard fills a tally of its own, and the tallies fold in shard order.
//! Float sums are thus grouped by shard, never by worker, so the metrics
//! are bit-identical for any thread count.
//!
//! A tally applies one record rule to every pair, from the pair's error
//! distance and exact-product magnitude. The bit-sliced engine records a
//! whole 64-lane block at once (`Tally::record_block`): a branch-free
//! pass compares every lane with its exact product, then only the wrong
//! lanes are walked, in ascending lane order, with the running sums and
//! maxima kept in registers. The float adds thus run in the scalar
//! engine's per-pair order, which is what keeps the engines bit-identical.
//!
//! One generic sweep serves both operand domains and both statistics: the
//! unsigned drivers here and the two's-complement ones in
//! [`crate::error::signed`] differ only in how a bit pattern decodes and
//! how a pair's products turn into its error distance, and the RED
//! histogram of [`crate::error::RedHistogram`] is a second tally on the
//! same exhaustive sweep.

use core::fmt;
use std::num::NonZeroUsize;

use sdlc_wideint::parallel::{parallel_chunks, worker_threads};
use sdlc_wideint::{SplitMix64, U256};

use crate::batch::{BatchMultiplier, Batchable, BATCH_MAX_WIDTH, LANES};
use crate::error::metrics::{ErrorAccumulator, ErrorMetrics, Tally};
use crate::multiplier::{Multiplier, MAX_WIDTH};

/// Which evaluation engine a driver runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// One [`Multiplier::multiply_u64`] call per operand pair.
    #[default]
    Scalar,
    /// 64 pairs per pass through the bit-sliced [`crate::batch`] models.
    BitSliced,
}

impl Engine {
    /// Short identifier used in reports and CLI flags.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::BitSliced => "bitsliced",
        }
    }
}

impl core::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Engine::Scalar),
            "bitsliced" => Ok(Engine::BitSliced),
            other => Err(format!(
                "unknown engine {other:?}; expected \"scalar\" or \"bitsliced\""
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// How a sweep runs: its engine and its worker-thread count.
///
/// The thread count only partitions the sweep; results never depend on
/// it. `Engine::BitSliced.into()` is the all-cores bit-sliced sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EvalOptions {
    /// The evaluation engine.
    pub engine: Engine,
    /// Worker threads; `None` uses every available core.
    pub threads: Option<NonZeroUsize>,
}

impl From<Engine> for EvalOptions {
    fn from(engine: Engine) -> Self {
        Self {
            engine,
            threads: None,
        }
    }
}

impl EvalOptions {
    fn thread_count(self) -> usize {
        self.threads.map_or_else(worker_threads, NonZeroUsize::get)
    }
}

/// Errors reported by the evaluation drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Exhaustive evaluation was requested for a width whose 2^{2N} space
    /// is too large to sweep.
    WidthTooLarge {
        /// Requested width.
        width: u32,
        /// Largest width the driver accepts.
        limit: u32,
    },
    /// A sample count of zero was requested.
    NoSamples,
    /// The selected engine cannot evaluate a model this wide (the
    /// bit-sliced 64-lane plane stack, or the signed scalar fast path).
    UnsupportedWidth {
        /// Requested width.
        width: u32,
        /// Largest width the engine accepts.
        limit: u32,
        /// The engine whose limit applied.
        engine: Engine,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::WidthTooLarge { width, limit } => write!(
                f,
                "exhaustive evaluation of a {width}-bit multiplier needs 2^{} cases; \
                 the driver accepts at most {limit}-bit",
                2 * width
            ),
            EvalError::NoSamples => write!(f, "sample count must be positive"),
            EvalError::UnsupportedWidth {
                width,
                limit,
                engine: Engine::BitSliced,
            } => write!(
                f,
                "the bit-sliced engine supports models up to {limit}-bit, got {width}-bit"
            ),
            EvalError::UnsupportedWidth {
                width,
                limit,
                engine: Engine::Scalar,
            } => write!(
                f,
                "the scalar engine samples signed models up to {limit}-bit \
                 (its multiply_i64 fast path), got {width}-bit"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Largest width the scalar engine sweeps exhaustively (2^32 cases,
/// ≈ minutes of CPU).
pub const EXHAUSTIVE_WIDTH_LIMIT: u32 = 16;

/// Largest width the bit-sliced engine sweeps exhaustively: the 64-lane
/// engine turns the 16-bit full sweep from minutes into seconds, which
/// raises the practical ceiling to 20 bits (2^40 cases, ≈ minutes again).
pub const BITSLICED_EXHAUSTIVE_WIDTH_LIMIT: u32 = 20;

/// An operand domain of the sweeps. Operands travel as `u64` bit
/// patterns in sweep order (`0, 1, …, 2^N − 1`); the domain decodes them,
/// forms the exact product and turns each pair into the error distance
/// and exact-product magnitude a [`Tally`] records.
pub(crate) trait Domain: Sync {
    /// Decoded operand, also the tag of the worst-case pair.
    type Operand: Copy + Into<i128>;
    /// Exact and approximate products of the per-pair accounting.
    type Product: Copy;
    /// Widest model the scalar sampler accepts.
    const SAMPLED_WIDTH_LIMIT: u32;

    /// Operand width N in bits.
    fn width(&self) -> u32;
    /// Decodes an N-bit operand pattern.
    fn decode(&self, pattern: u64) -> Self::Operand;
    /// The exact product.
    fn exact(a: Self::Operand, b: Self::Operand) -> Self::Product;
    /// The scalar model's product.
    fn multiply(&self, a: Self::Operand, b: Self::Operand) -> Self::Product;
    /// Error distance `|P − P′|` and exact-product magnitude `|P|` of an
    /// exact and an approximate product.
    fn error(exact: Self::Product, approx: Self::Product) -> (u128, u128);
    /// Finalizes the folded accumulator.
    fn finish(&self, acc: &ErrorAccumulator) -> ErrorMetrics;

    /// Records the decoded pair `(a, b)` with its exact and approximate
    /// products.
    #[inline]
    fn record<T: Tally>(
        &self,
        tally: &mut T,
        exact: Self::Product,
        approx: Self::Product,
        (a, b): (Self::Operand, Self::Operand),
    ) {
        let (ed, magnitude) = Self::error(exact, approx);
        tally.record(ed, magnitude, || (tag(a), tag(b)));
    }

    /// Records the pattern pair `(a, b)` through the scalar model.
    #[inline]
    fn record_pair<T: Tally>(&self, tally: &mut T, a: u64, b: u64) {
        let (a, b) = (self.decode(a), self.decode(b));
        self.record(tally, Self::exact(a, b), self.multiply(a, b), (a, b));
    }

    /// Draws one pair from `rng` and records it through the scalar model.
    #[inline]
    fn record_sample<T: Tally>(&self, tally: &mut T, rng: &mut SplitMix64) {
        let a = rng.next_bits(self.width());
        let b = rng.next_bits(self.width());
        self.record_pair(tally, a, b);
    }
}

/// The worst-case tag of an operand: its full-width two's-complement
/// pattern.
fn tag(operand: impl Into<i128>) -> u128 {
    operand.into() as u128
}

/// A domain whose model has a bit-sliced twin.
pub(crate) trait BatchDomain: Domain {
    /// One worker's state: the 64-lane twin and any scratch its rows need.
    type Worker;

    /// Builds one worker's state.
    fn worker(&self) -> Self::Worker;
    /// One exhaustive row: the fixed pattern `a` against every pattern `b`
    /// in `[0, count)`, one `emit(b0, product_lanes)` per 64-lane block in
    /// ascending `b0` (lane `i` holds the product of `(a, b0 + i)`, the
    /// pattern taken modulo `2^N`).
    fn sweep_row(
        worker: &mut Self::Worker,
        a: u64,
        count: u64,
        emit: &mut dyn FnMut(u64, &[u64; LANES]),
    );
    /// The product lanes of 64 pattern pairs `(a[i], b[i])`.
    fn multiply_block(worker: &Self::Worker, a: &[u64; LANES], b: &[u64; LANES]) -> [u64; LANES];
    /// The exact product of the pattern pair `(a, b)` as a 2N-bit product
    /// lane of the twin.
    fn exact_lane(&self, a: u64, b: u64) -> u64;
    /// Error distance and exact-product magnitude of an exact and an
    /// approximate product lane.
    fn lane_error(&self, exact: u64, approx: u64) -> (u64, u64);

    /// Records one block of `valid` lanes: lane `i` holds the pattern pair
    /// `pair(i)` and the product lane `approx[i]`.
    #[inline]
    fn record_block<T: Tally>(
        &self,
        tally: &mut T,
        approx: &[u64; LANES],
        valid: usize,
        pair: impl Fn(usize) -> (u64, u64),
    ) {
        tally.record_block(
            valid,
            |i| {
                let (a, b) = pair(i);
                (self.exact_lane(a, b), approx[i])
            },
            |exact, approx| self.lane_error(exact, approx),
            |i| {
                let (a, b) = pair(i);
                (tag(self.decode(a)), tag(self.decode(b)))
            },
        );
    }
}

/// The unsigned domain of a [`Multiplier`].
pub(crate) struct Unsigned<'m, M>(pub(crate) &'m M);

impl<M: Multiplier + Sync> Domain for Unsigned<'_, M> {
    type Operand = u64;
    type Product = u128;
    // Wider draws take the U256 path of `record_sample`.
    const SAMPLED_WIDTH_LIMIT: u32 = MAX_WIDTH;

    fn width(&self) -> u32 {
        self.0.width()
    }

    #[inline]
    fn decode(&self, pattern: u64) -> u64 {
        pattern
    }

    #[inline]
    fn exact(a: u64, b: u64) -> u128 {
        u128::from(a) * u128::from(b)
    }

    #[inline]
    fn multiply(&self, a: u64, b: u64) -> u128 {
        self.0.multiply_u64(a, b)
    }

    #[inline]
    fn error(exact: u128, approx: u128) -> (u128, u128) {
        (exact.abs_diff(approx), exact)
    }

    fn finish(&self, acc: &ErrorAccumulator) -> ErrorMetrics {
        acc.finish(self.0.max_product())
    }

    fn record_sample<T: Tally>(&self, tally: &mut T, rng: &mut SplitMix64) {
        let width = self.width();
        if width <= 32 {
            let a = rng.next_bits(width);
            let b = rng.next_bits(width);
            self.record_pair(tally, a, b);
        } else {
            let a = draw_u128(rng, width);
            let b = draw_u128(rng, width);
            let exact = U256::from_u128(a).wrapping_mul(&U256::from_u128(b));
            let approx = self.0.multiply(a, b);
            tally.record(exact.abs_diff(&approx), exact, || (a, b));
        }
    }
}

impl<M: Batchable + Sync> BatchDomain for Unsigned<'_, M> {
    type Worker = M::Batch;

    fn worker(&self) -> M::Batch {
        self.0.batch_model()
    }

    fn sweep_row(
        batch: &mut M::Batch,
        a: u64,
        count: u64,
        emit: &mut dyn FnMut(u64, &[u64; LANES]),
    ) {
        batch.sweep_operand_row_lanes(a, count, emit);
    }

    fn multiply_block(batch: &M::Batch, a: &[u64; LANES], b: &[u64; LANES]) -> [u64; LANES] {
        crate::batch::multiply_block(batch, a, b)
    }

    #[inline]
    fn exact_lane(&self, a: u64, b: u64) -> u64 {
        // A ≤ 32-bit model's product fits `u64`.
        a * b
    }

    #[inline]
    fn lane_error(&self, exact: u64, approx: u64) -> (u64, u64) {
        (exact.abs_diff(approx), exact)
    }
}

/// The fixed logical shard count of every sweep: exhaustive sweeps split
/// their `2^N` rows into `min(256, 2^N)` equal ranges, samplers draw from
/// 256 seeded substreams.
const SHARDS: u64 = 256;

/// The one sweep skeleton. Splits the shards `0..shards` over `threads`
/// workers; each worker builds its state once with `init` (the bit-sliced
/// twin, say), then `fill(state, shard, tally)` records one shard into a
/// fresh tally. The tallies fold in shard order, so every float sum is
/// grouped by shard, never by worker: the result depends only on the shard
/// list, never on the thread count.
fn sweep<T: Tally, S>(
    shards: u64,
    threads: usize,
    init: impl Fn() -> S + Sync,
    fill: impl Fn(&mut S, u64, &mut T) + Sync,
) -> T {
    let runs = parallel_chunks(shards, threads, |lo, hi| {
        let mut state = init();
        let tallies: Vec<T> = (lo..hi)
            .map(|shard| {
                let mut tally = T::default();
                fill(&mut state, shard, &mut tally);
                tally
            })
            .collect();
        tallies
    });
    let mut total = T::default();
    for tally in runs.iter().flatten() {
        total.merge(tally);
    }
    total
}

/// Checks the width against `limit` and sweeps the `2^N` rows of the
/// pattern space as `min(256, 2^N)` shards of equal row ranges;
/// `rows(state, lo, hi, tally)` records rows `[lo, hi)`.
fn exhaustive_rows<D: Domain, T: Tally, S>(
    domain: &D,
    limit: u32,
    threads: usize,
    init: impl Fn() -> S + Sync,
    rows: impl Fn(&mut S, u64, u64, &mut T) + Sync,
) -> Result<T, EvalError> {
    let width = domain.width();
    if width > limit {
        return Err(EvalError::WidthTooLarge { width, limit });
    }
    let count = 1u64 << width;
    let shards = count.min(SHARDS);
    let per_shard = count / shards;
    Ok(sweep(shards, threads, init, |state, shard, tally| {
        let lo = shard * per_shard;
        rows(state, lo, lo + per_shard, tally);
    }))
}

/// The exhaustive driver: every pattern pair of `domain` on the selected
/// engine, into any [`Tally`].
pub(crate) fn exhaustive_in<D: BatchDomain, T: Tally>(
    domain: &D,
    options: EvalOptions,
) -> Result<T, EvalError> {
    let threads = options.thread_count();
    match options.engine {
        Engine::Scalar => exhaustive_scalar(domain, threads),
        Engine::BitSliced => exhaustive_rows(
            domain,
            BITSLICED_EXHAUSTIVE_WIDTH_LIMIT,
            threads,
            || domain.worker(),
            |worker, lo, hi, tally| {
                // Widths 2 and 4 have fewer patterns than lanes: one block
                // per row, whose lanes past `count` wrap and are ignored.
                let count = 1u64 << domain.width();
                let valid = count.min(LANES as u64) as usize;
                for a in lo..hi {
                    D::sweep_row(worker, a, count.max(LANES as u64), &mut |b0, approx| {
                        domain.record_block(tally, approx, valid, |i| (a, b0 + i as u64));
                    });
                }
            },
        ),
    }
}

/// [`exhaustive_in`] finished into [`ErrorMetrics`].
pub(crate) fn exhaustive_metrics<D: BatchDomain>(
    domain: &D,
    options: EvalOptions,
) -> Result<ErrorMetrics, EvalError> {
    exhaustive_in(domain, options).map(|acc| domain.finish(&acc))
}

/// The scalar arm of [`exhaustive_in`], open to models without a
/// bit-sliced twin.
fn exhaustive_scalar<D: Domain, T: Tally>(domain: &D, threads: usize) -> Result<T, EvalError> {
    exhaustive_rows(
        domain,
        EXHAUSTIVE_WIDTH_LIMIT,
        threads,
        || (),
        |(), lo, hi, tally| {
            let count = 1u64 << domain.width();
            for a in lo..hi {
                for b in 0..count {
                    domain.record_pair(tally, a, b);
                }
            }
        },
    )
}

/// The sampled driver: `samples` seeded uniform pairs of `domain` on the
/// selected engine.
pub(crate) fn sampled_in<D: BatchDomain>(
    domain: &D,
    samples: u64,
    seed: u64,
    options: EvalOptions,
) -> Result<ErrorMetrics, EvalError> {
    let threads = options.thread_count();
    if options.engine == Engine::Scalar {
        return sampled_scalar(domain, samples, seed, threads);
    }
    let width = domain.width();
    sampled_shards(
        domain,
        samples,
        seed,
        Engine::BitSliced,
        threads,
        || domain.worker(),
        |worker, rng, mut left, acc| {
            let mut a_lanes = [0u64; LANES];
            let mut b_lanes = [0u64; LANES];
            while left > 0 {
                let valid = left.min(LANES as u64) as usize;
                for i in 0..valid {
                    a_lanes[i] = rng.next_bits(width);
                    b_lanes[i] = rng.next_bits(width);
                }
                a_lanes[valid..].fill(0);
                b_lanes[valid..].fill(0);
                let approx = D::multiply_block(worker, &a_lanes, &b_lanes);
                domain.record_block(acc, &approx, valid, |i| (a_lanes[i], b_lanes[i]));
                left -= valid as u64;
            }
        },
    )
}

/// The scalar arm of [`sampled_in`], open to models without a bit-sliced
/// twin.
fn sampled_scalar<D: Domain>(
    domain: &D,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<ErrorMetrics, EvalError> {
    sampled_shards(
        domain,
        samples,
        seed,
        Engine::Scalar,
        threads,
        || (),
        |(), rng, n, acc| {
            for _ in 0..n {
                domain.record_sample(acc, rng);
            }
        },
    )
}

/// Validates the request against `engine`'s width limit and sweeps the
/// 256 sampler shards: shard `s` draws its share of the `samples` pairs
/// from its own SplitMix64 substream of `seed`, handed to
/// `draw(state, rng, n, acc)`.
fn sampled_shards<D: Domain, S>(
    domain: &D,
    samples: u64,
    seed: u64,
    engine: Engine,
    threads: usize,
    init: impl Fn() -> S + Sync,
    draw: impl Fn(&mut S, &mut SplitMix64, u64, &mut ErrorAccumulator) + Sync,
) -> Result<ErrorMetrics, EvalError> {
    if samples == 0 {
        return Err(EvalError::NoSamples);
    }
    let width = domain.width();
    let limit = match engine {
        Engine::Scalar => D::SAMPLED_WIDTH_LIMIT,
        Engine::BitSliced => BATCH_MAX_WIDTH,
    };
    if width > limit {
        return Err(EvalError::UnsupportedWidth {
            width,
            limit,
            engine,
        });
    }
    let per_shard = samples.div_ceil(SHARDS);
    let acc = sweep(SHARDS, threads, init, |state, shard, acc| {
        let mut rng = SplitMix64::new(seed ^ (shard.wrapping_mul(0x9e37_79b9)));
        let begin = shard * per_shard;
        let end = (begin + per_shard).min(samples);
        draw(state, &mut rng, end.saturating_sub(begin), acc);
    });
    Ok(domain.finish(&acc))
}

fn draw_u128(rng: &mut SplitMix64, width: u32) -> u128 {
    if width <= 64 {
        u128::from(rng.next_bits(width))
    } else {
        let high = rng.next_bits(width - 64);
        let low = rng.next_u64();
        (u128::from(high) << 64) | u128::from(low)
    }
}

/// Exhaustively evaluates every operand pair of an `N ≤ 16` bit multiplier
/// on the scalar engine using all available cores — the oracle the
/// bit-sliced engine is checked against, and the driver for any
/// [`Multiplier`] with no bit-sliced twin.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above
/// [`EXHAUSTIVE_WIDTH_LIMIT`] bits.
pub fn exhaustive<M>(multiplier: &M) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    let domain = Unsigned(multiplier);
    exhaustive_scalar(&domain, worker_threads()).map(|acc| domain.finish(&acc))
}

/// Exhaustively evaluates every operand pair on the engine and thread
/// count of `options`; both engines return bit-identical
/// [`ErrorMetrics`] wherever both accept the width.
///
/// # Errors
///
/// Returns [`EvalError::WidthTooLarge`] above the selected engine's width
/// limit ([`EXHAUSTIVE_WIDTH_LIMIT`] or
/// [`BITSLICED_EXHAUSTIVE_WIDTH_LIMIT`]).
pub fn exhaustive_with<M>(multiplier: &M, options: EvalOptions) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    exhaustive_metrics(&Unsigned(multiplier), options)
}

/// [`exhaustive_with`] on all cores of the given engine.
///
/// # Errors
///
/// As [`exhaustive_with`].
pub fn exhaustive_with_engine<M>(multiplier: &M, engine: Engine) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    exhaustive_with(multiplier, engine.into())
}

/// Evaluates `samples` uniformly random operand pairs on the scalar engine
/// using all available cores (seeded, deterministic for a given
/// `(seed, samples)` regardless of thread count). Accepts every width up
/// to 128 bits.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`.
pub fn sampled<M>(multiplier: &M, samples: u64, seed: u64) -> Result<ErrorMetrics, EvalError>
where
    M: Multiplier + Sync,
{
    sampled_scalar(&Unsigned(multiplier), samples, seed, worker_threads())
}

/// [`sampled`] on the engine and thread count of `options`.
///
/// Each of 256 fixed shards draws from its own SplitMix64 stream derived
/// from the seed, and workers split the shard list, so the draws, pair
/// order and accumulation order depend only on `(seed, samples)`: both
/// engines return bit-identical metrics for any thread count.
///
/// # Errors
///
/// Returns [`EvalError::NoSamples`] when `samples == 0`, or
/// [`EvalError::UnsupportedWidth`] if the bit-sliced engine was selected
/// for a model wider than 32 bits.
pub fn sampled_with<M>(
    multiplier: &M,
    samples: u64,
    seed: u64,
    options: EvalOptions,
) -> Result<ErrorMetrics, EvalError>
where
    M: Batchable + Sync,
{
    sampled_in(&Unsigned(multiplier), samples, seed, options)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::baselines::EtmMultiplier;
    use crate::error::{exhaustive_signed_with, sampled_signed_with};
    use crate::signed::{signed_sdlc, SignMagnitude};
    use crate::{AccurateMultiplier, SdlcMultiplier};

    #[test]
    fn accurate_multiplier_has_no_error() {
        let m = AccurateMultiplier::new(8).unwrap();
        let metrics = exhaustive(&m).unwrap();
        assert_eq!(metrics.error_rate, 0.0);
        assert_eq!(metrics.mred, 0.0);
        assert_eq!(metrics.samples, 1 << 16);
    }

    /// One row of the engine table: a named sweep under test.
    pub(in crate::error) struct Row {
        name: String,
        sweep: Box<dyn Fn(EvalOptions) -> ErrorMetrics>,
    }

    fn row(
        name: impl Into<String>,
        sweep: impl Fn(EvalOptions) -> Result<ErrorMetrics, EvalError> + 'static,
    ) -> Row {
        Row {
            name: name.into(),
            sweep: Box::new(move |options| sweep(options).unwrap()),
        }
    }

    const THREADS: [usize; 3] = [1, 3, 7];

    fn options(engine: Engine, threads: usize) -> EvalOptions {
        let threads = NonZeroUsize::new(threads);
        EvalOptions { engine, threads }
    }

    /// At equal thread counts the engines agree bit for bit on the full
    /// metrics.
    pub(in crate::error) fn assert_engines_agree(rows: &[Row]) {
        for row in rows {
            for threads in THREADS {
                let run = |engine| (row.sweep)(options(engine, threads));
                let name = &row.name;
                assert_eq!(
                    run(Engine::Scalar),
                    run(Engine::BitSliced),
                    "{name} at {threads}"
                );
            }
        }
    }

    /// Across thread counts the sweeps fold the same per-shard tallies in
    /// the same order, so the full metrics agree bit for bit, float means
    /// included.
    pub(in crate::error) fn assert_thread_count_invariant(rows: &[Row], engine: Engine) {
        for row in rows {
            let name = &row.name;
            let one = (row.sweep)(options(engine, 1));
            for threads in &THREADS[1..] {
                let other = (row.sweep)(options(engine, *threads));
                assert_eq!(one, other, "{name} at {threads} threads ({engine})");
            }
        }
    }

    /// Widths 2 and 4 take the partial-block path (fewer pairs than lanes).
    const EXHAUSTIVE_CASES: [(u32, u32); 7] =
        [(2, 2), (4, 2), (6, 2), (6, 3), (8, 2), (8, 3), (8, 4)];

    fn unsigned_exhaustive_rows() -> Vec<Row> {
        let rows = EXHAUSTIVE_CASES.map(|(width, depth)| {
            let m = SdlcMultiplier::new(width, depth).unwrap();
            row(
                format!("unsigned exhaustive {width}-bit d{depth}"),
                move |o| exhaustive_with(&m, o),
            )
        });
        rows.into()
    }

    /// The signed rows for the engine and thread-count tests in
    /// `error::signed`.
    pub(in crate::error) fn signed_exhaustive_rows() -> Vec<Row> {
        let rows = EXHAUSTIVE_CASES.map(|(width, depth)| {
            let s = signed_sdlc(width, depth).unwrap();
            row(
                format!("signed exhaustive {width}-bit d{depth}"),
                move |o| exhaustive_signed_with(&s, o),
            )
        });
        rows.into()
    }

    /// ETM errs on exact-zero products: the undefined-RED path.
    fn unsigned_sampled_rows() -> Vec<Row> {
        let m = SdlcMultiplier::new(12, 3).unwrap();
        let etm = EtmMultiplier::new(8).unwrap();
        vec![
            row("unsigned sampled 12-bit d3", move |o| {
                sampled_with(&m, 40_000, 42, o)
            }),
            row("unsigned sampled ETM 8-bit", move |o| {
                let metrics = sampled_with(&etm, 20_000, 7, o)?;
                assert!(metrics.undefined_red_count > 0);
                Ok(metrics)
            }),
        ]
    }

    pub(in crate::error) fn signed_sampled_rows() -> Vec<Row> {
        let m12 = signed_sdlc(12, 3).unwrap();
        let m6 = signed_sdlc(6, 2).unwrap();
        let etm = SignMagnitude::new(EtmMultiplier::new(8).unwrap());
        vec![
            row("signed sampled 12-bit d3", move |o| {
                sampled_signed_with(&m12, 40_000, 42, o)
            }),
            row("signed sampled 6-bit d2", move |o| {
                sampled_signed_with(&m6, 9_000, 3, o)
            }),
            row("signed sampled ETM 8-bit", move |o| {
                sampled_signed_with(&etm, 20_000, 7, o)
            }),
        ]
    }

    /// One synthetic block for the block-recorder tests: per lane the
    /// operand patterns and the approximate product lane, and how many
    /// lanes are live (the idle rest holds garbage that must be ignored).
    pub(in crate::error) struct Block {
        pub(in crate::error) lanes: Vec<(u64, u64, u64)>,
        pub(in crate::error) valid: usize,
    }

    /// A named run of blocks, with the worst-RED pattern pair when the
    /// generator fixes it.
    pub(in crate::error) struct Group {
        name: &'static str,
        pub(in crate::error) blocks: Vec<Block>,
        worst: Option<(u64, u64)>,
    }

    /// Seeded blocks over the `domain`'s patterns, one named group per
    /// corner of the block recorder. `operands` draws a pair for the
    /// general groups, so a caller can aim them at a region of the space
    /// (e.g. products ≥ 2^63 or one sign quadrant).
    pub(in crate::error) fn synthetic_blocks<D: BatchDomain>(
        domain: &D,
        seed: u64,
        mut operands: impl FnMut(&mut SplitMix64) -> (u64, u64),
    ) -> Vec<Group> {
        let mut rng = SplitMix64::new(seed);
        let width = domain.width();
        let lane_mask = u64::MAX >> (64 - 2 * width);
        // Exact on roughly half the lanes, off by a small signed delta
        // (wrapping through the lane's 2N bits) on the rest.
        let perturbed = |rng: &mut SplitMix64, a: u64, b: u64| {
            let exact = domain.exact_lane(a, b);
            let delta = rng.next_bits(4).wrapping_sub(8);
            let off = rng.next_bits(1) * delta;
            (a, b, exact.wrapping_add(off) & lane_mask)
        };
        let block =
            |rng: &mut SplitMix64,
             valid: usize,
             lane: &mut dyn FnMut(&mut SplitMix64, usize) -> (u64, u64, u64)| {
                let lanes = (0..LANES)
                    .map(|i| {
                        if i < valid {
                            lane(rng, i)
                        } else {
                            let junk = rng.next_u64();
                            (junk & 3, junk >> 62, junk & lane_mask)
                        }
                    })
                    .collect();
                Block { lanes, valid }
            };
        let mut general = |rng: &mut SplitMix64, valid| {
            block(rng, valid, &mut |rng, _| {
                let (a, b) = operands(rng);
                perturbed(rng, a, b)
            })
        };
        let partial = [4, 16, 64].map(|valid| general(&mut rng, valid)).into();
        let random = (0..4).map(|_| general(&mut rng, LANES)).collect();
        let operand = |rng: &mut SplitMix64| rng.next_bits(width);
        // Rows `a = 0`: exact product 0, so every wrong lane is an
        // undefined RED.
        let zero_rows = (0..2)
            .map(|_| {
                block(&mut rng, LANES, &mut |rng, _| {
                    let approx = (rng.next_bits(1) * rng.next_u64()) & lane_mask;
                    (0, operand(rng), approx)
                })
            })
            .collect();
        let all_exact = (0..2)
            .map(|_| {
                block(&mut rng, LANES, &mut |rng, _| {
                    let (a, b) = (operand(rng), operand(rng));
                    (a, b, domain.exact_lane(a, b))
                })
            })
            .collect();
        // A zero product lane is a RED of exactly 1. Operands in
        // `[2^{N-2}, 2^{N-1})` (non-negative in both domains) keep every
        // perturbed lane's RED far below, so the first such lane of the
        // first block must stay the worst pair.
        let large = |rng: &mut SplitMix64| (1 << (width - 2)) | rng.next_bits(width - 2);
        let ties: Vec<Block> = (0..2)
            .map(|_| {
                block(&mut rng, LANES, &mut |rng, i| {
                    let (a, b) = (large(rng), large(rng));
                    if i % 7 == 5 {
                        (a, b, 0)
                    } else {
                        perturbed(rng, a, b)
                    }
                })
            })
            .collect();
        let first_tie = ties[0].lanes[5];
        let group = |name, blocks| Group {
            name,
            blocks,
            worst: None,
        };
        vec![
            group("valid 4/16/64", partial),
            group("random", random),
            group("zero-product rows", zero_rows),
            group("all exact", all_exact),
            Group {
                worst: Some((first_tie.0, first_tie.1)),
                ..group("max-RED ties", ties)
            },
        ]
    }

    /// Records each group as blocks through `BatchDomain::record_block` and
    /// pair by pair through the scalar engine's `Domain::record`;
    /// `approx_product` decodes a product lane for the replay. The metrics
    /// must be identical.
    pub(in crate::error) fn assert_blocks_match_replay<D: BatchDomain>(
        domain: &D,
        groups: &[Group],
        approx_product: impl Fn(u64) -> D::Product,
    ) {
        let tag = |x| domain.decode(x).into() as u128;
        for Group {
            name,
            blocks,
            worst,
        } in groups
        {
            let mut block_acc = ErrorAccumulator::default();
            let mut replay = ErrorAccumulator::default();
            for Block { lanes, valid } in blocks {
                let approx: [u64; LANES] = core::array::from_fn(|i| lanes[i].2);
                domain.record_block(&mut block_acc, &approx, *valid, |i| {
                    (lanes[i].0, lanes[i].1)
                });
                for &(a, b, p) in &lanes[..*valid] {
                    let (a, b) = (domain.decode(a), domain.decode(b));
                    domain.record(&mut replay, D::exact(a, b), approx_product(p), (a, b));
                }
            }
            let (block, pairs) = (domain.finish(&block_acc), domain.finish(&replay));
            assert_eq!(block, pairs, "{name}");
            let live: usize = blocks.iter().map(|b| b.valid).sum();
            assert_eq!(block.samples, live as u64, "{name}");
            if let Some((a, b)) = *worst {
                assert_eq!(block.max_red, 1.0, "{name}");
                assert_eq!(block.worst_red_operands, Some((tag(a), tag(b))), "{name}");
            }
        }
    }

    #[test]
    fn record_block_matches_per_pair_replay() {
        for width in [8, 32] {
            let m = SdlcMultiplier::new(width, 2).unwrap();
            let domain = Unsigned(&m);
            let groups = synthetic_blocks(&domain, u64::from(width), |rng| {
                (rng.next_bits(width), rng.next_bits(width))
            });
            assert_blocks_match_replay(&domain, &groups, u128::from);
        }
    }

    #[test]
    fn record_block_matches_replay_on_products_above_2_pow_63() {
        // Operands ≥ 2^32 − 2^30 put the general groups' exact products at
        // ≥ 1.125 · 2^63, beyond `i64`; the zero-product rows' random
        // lanes give EDs ≥ 2^63.
        let m = SdlcMultiplier::new(32, 2).unwrap();
        let domain = Unsigned(&m);
        let high = |rng: &mut SplitMix64| u64::from(u32::MAX) - rng.next_bits(30);
        let groups = synthetic_blocks(&domain, 9, |rng| (high(rng), high(rng)));
        let live: Vec<_> = groups
            .iter()
            .flat_map(|g| &g.blocks)
            .flat_map(|b| &b.lanes[..b.valid])
            .collect();
        let beyond_i64 = |x: u64| x >= 1 << 63;
        assert!(live.iter().any(|&&(a, b, _)| beyond_i64(a * b)));
        assert!(live
            .iter()
            .any(|&&(a, b, p)| beyond_i64((a * b).abs_diff(p))));
        assert_blocks_match_replay(&domain, &groups, u128::from);
    }

    #[test]
    fn bitsliced_exhaustive_is_bit_identical_to_scalar() {
        assert_engines_agree(&unsigned_exhaustive_rows());
    }

    #[test]
    fn bitsliced_sampled_is_bit_identical_to_scalar() {
        assert_engines_agree(&unsigned_sampled_rows());
    }

    #[test]
    fn exhaustive_is_thread_count_invariant() {
        assert_thread_count_invariant(&unsigned_exhaustive_rows(), Engine::Scalar);
    }

    #[test]
    fn bitsliced_exhaustive_is_thread_count_invariant() {
        assert_thread_count_invariant(&unsigned_exhaustive_rows(), Engine::BitSliced);
    }

    #[test]
    fn sampled_is_thread_count_invariant() {
        let rows = unsigned_sampled_rows();
        assert_thread_count_invariant(&rows, Engine::Scalar);
        assert_thread_count_invariant(&rows, Engine::BitSliced);
    }

    #[test]
    fn sampled_approaches_exhaustive() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        let exact = exhaustive(&m).unwrap();
        let sample = sampled(&m, 400_000, 7).unwrap();
        assert!(
            (exact.error_rate - sample.error_rate).abs() < 0.01,
            "ER {} vs {}",
            exact.error_rate,
            sample.error_rate
        );
        assert!((exact.mred - sample.mred).abs() / exact.mred < 0.05);
    }

    #[test]
    fn rejects_oversized_exhaustive() {
        let m = SdlcMultiplier::new(32, 2).unwrap();
        let err = exhaustive(&m).unwrap_err();
        assert!(matches!(err, EvalError::WidthTooLarge { width: 32, .. }));
        assert!(err.to_string().contains("32-bit"));
    }

    #[test]
    fn engine_dispatch_and_parsing() {
        let m = SdlcMultiplier::new(6, 2).unwrap();
        assert_eq!(
            exhaustive_with_engine(&m, Engine::Scalar).unwrap(),
            exhaustive_with_engine(&m, Engine::BitSliced).unwrap()
        );
        assert_eq!(
            exhaustive_with_engine(&m, Engine::Scalar).unwrap(),
            exhaustive(&m).unwrap()
        );
        assert_eq!(
            sampled_with(&m, 5000, 3, Engine::Scalar.into()).unwrap(),
            sampled(&m, 5000, 3).unwrap()
        );
        assert_eq!(EvalOptions::from(Engine::BitSliced).threads, None);
        assert_eq!(EvalOptions::default().engine, Engine::Scalar);
        assert_eq!("scalar".parse::<Engine>().unwrap(), Engine::Scalar);
        assert_eq!("bitsliced".parse::<Engine>().unwrap(), Engine::BitSliced);
        assert_eq!(Engine::default(), Engine::Scalar);
        assert_eq!(Engine::BitSliced.to_string(), "bitsliced");
        assert!("turbo".parse::<Engine>().unwrap_err().contains("turbo"));
    }

    #[test]
    fn bitsliced_limits() {
        let bitsliced = EvalOptions::from(Engine::BitSliced);
        // 32-bit exhaustive exceeds even the raised bit-sliced limit.
        let m = SdlcMultiplier::new(32, 2).unwrap();
        let err = exhaustive_with(&m, bitsliced).unwrap_err();
        assert!(matches!(err, EvalError::WidthTooLarge { width: 32, limit }
                if limit == BITSLICED_EXHAUSTIVE_WIDTH_LIMIT));
        // Sampling through the bit-sliced engine caps at 32-bit models.
        let wide = SdlcMultiplier::new(64, 2).unwrap();
        let err = sampled_with(&wide, 100, 1, bitsliced).unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedWidth { width: 64, .. }));
        assert!(err.to_string().contains("bit-sliced"));
        assert_eq!(
            sampled_with(&m, 0, 1, bitsliced).unwrap_err(),
            EvalError::NoSamples
        );
    }

    #[test]
    fn rejects_zero_samples() {
        let m = SdlcMultiplier::new(8, 2).unwrap();
        assert_eq!(sampled(&m, 0, 1).unwrap_err(), EvalError::NoSamples);
    }

    #[test]
    fn sampled_works_for_wide_multipliers() {
        let m = SdlcMultiplier::new(64, 2).unwrap();
        let metrics = sampled(&m, 4_000, 3).unwrap();
        assert!(metrics.error_rate > 0.9, "wide SDLC errs almost always");
        assert!(
            metrics.mred < 1e-3,
            "but relative error is tiny: {}",
            metrics.mred
        );
    }
}
