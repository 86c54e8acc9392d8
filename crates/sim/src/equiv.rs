//! Equivalence checking between netlists and functional models.
//!
//! Every circuit generator in the workspace is validated against its
//! word-level model: exhaustively for narrow operands, by seeded sampling
//! plus corner patterns above that ([`Coverage`]). [`check`] covers the
//! unsigned operand domain and [`check_signed`] the two's-complement one,
//! calling the model once per pair; both return the number of operand
//! pairs checked, or the first failing pair. Their twins [`check_planes`]
//! and [`check_planes_signed`] compare a bit-sliced model's product planes
//! for each block's [`OperandPlanes`] against the netlist's, one word
//! operation per product bit; only a failing block is decoded.
//! [`check_exhaustive_batched`] takes a lane-form block model instead.
//!
//! Every check runs on one sweep. A pair source — every pattern pair
//! row-major, or the corner pairs then seeded draws, regenerated from the
//! seed rather than stored — is cut into blocks of up to 64 pairs; the
//! sweep writes each block's operand bit-planes, runs it through the
//! netlist and hands it with its operand and `p` planes to the check's
//! checker (per pair, per lane or per plane). It runs on one of two
//! [`Engine`]s. The scalar engine drives one vector at a time through
//! [`LogicSim`] — the reference. The compiled engine flattens the netlist
//! once ([`CompiledNetlist`]), evaluates a whole block per pass from the
//! operand bit-planes, and shards the blocks across scoped threads
//! through the same [`parallel_chunks`] splitter as the `sdlc-core` error
//! drivers. Both see the same blocks in the same order and chunks merge
//! in order, so the engines return bit-identical verdicts — including the
//! *same first* counterexample — at a fraction of the cost (the
//! differential suite proves it).

use core::fmt;

use sdlc_netlist::{NetId, Netlist};
use sdlc_wideint::bitplane::{self, LANES};
use sdlc_wideint::parallel::{parallel_chunks, worker_threads};
use sdlc_wideint::{SplitMix64, I256, U256};

use crate::compile::{CompiledNetlist, CompiledSim};
use crate::logic::{draw_pattern, AbPortMap, LogicSim};

/// Which simulation engine an equivalence check runs on.
///
/// Mirrors `sdlc_core::error::Engine` (scalar vs bit-sliced) one level
/// down the stack: here the alternatives are the scalar netlist walk and
/// the compiled 64-lane program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// One [`LogicSim`] sweep per operand pair — the reference engine.
    #[default]
    Scalar,
    /// 64 pairs per sweep through the compiled program, sharded across
    /// threads. Needs operand and product buses of at most 64 bits; the
    /// checks fall back to scalar beyond that.
    Compiled,
}

impl Engine {
    /// Short identifier used in reports and CLI flags.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Compiled => "compiled",
        }
    }
}

impl core::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Engine::Scalar),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!(
                "unknown engine {other:?}; expected \"scalar\" or \"compiled\""
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A counterexample from an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Left operand.
    pub a: u128,
    /// Right operand.
    pub b: u128,
    /// Product computed by the netlist.
    pub netlist_product: U256,
    /// Product computed by the reference model.
    pub model_product: U256,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "netlist({}, {}) = {} but model says {}",
            self.a, self.b, self.netlist_product, self.model_product
        )
    }
}

/// A counterexample from a *signed* equivalence check, with operands and
/// products decoded from their two's-complement bus patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedMismatch {
    /// Left operand (signed value).
    pub a: i128,
    /// Right operand (signed value).
    pub b: i128,
    /// Signed product computed by the netlist.
    pub netlist_product: I256,
    /// Signed product computed by the reference model.
    pub model_product: I256,
}

impl std::fmt::Display for SignedMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "signed netlist({}, {}) = {} but model says {}",
            self.a, self.b, self.netlist_product, self.model_product
        )
    }
}

/// How much of the operand space an equivalence check covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Every operand pair of `width × width` inputs, row-major (at most
    /// 16 bits; practical to ~8 bits on the scalar engine, ~10–12 bits
    /// compiled).
    Exhaustive,
    /// The domain's corner patterns in every combination — 9 unsigned
    /// pairs (0, 1, all-ones), 25 signed (0, ±1, MAX, MIN) — then
    /// `samples` seeded draws.
    Sampled {
        /// Seeded random pairs checked after the corners.
        samples: u64,
        /// Seed of the draws.
        seed: u64,
    },
}

/// One block's operands, as a plane model of [`check_planes`] reads them.
#[derive(Debug, Clone, Copy)]
pub struct OperandPlanes<'a> {
    /// The left operand's `width` bit-planes (lane `i` of plane `j` is bit
    /// `j` of pair `i`'s pattern; lanes past the block's pairs are arbitrary).
    pub a: &'a [u64],
    /// The right operand's `width` bit-planes.
    pub b: &'a [u64],
    /// The left pattern of an exhaustive row segment `(a, b0 + i)`, held by
    /// every lane, for a model's broadcast form; `None` for listed pairs.
    pub row: Option<u64>,
}

/// Checks an unsigned `a`/`b`→`p` netlist against `model` over
/// `coverage` on `engine`, returning the number of operand pairs checked.
///
/// Both engines sweep the identical pair order, so verdicts, pair counts
/// and the first reported counterexample are bit-identical. The compiled
/// engine falls back to scalar when a bus exceeds 64 bits or an operand
/// bus is narrower than `width`.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if exhaustive coverage is requested beyond 16 bits (2^{2w}
/// vectors would not terminate reasonably), or if `width`-bit operands
/// overflow the netlist's buses.
pub fn check(
    netlist: &Netlist,
    width: u32,
    coverage: Coverage,
    engine: Engine,
    model: impl Fn(u128, u128) -> U256 + Sync,
) -> Result<u64, Box<Mismatch>> {
    pair_sweep(netlist, width, coverage, engine, &Unsigned { width }, model)
}

/// [`check`] for a signed (two's-complement `a`/`b`→`p`) netlist: the
/// sweeps walk bit patterns on each bus, and the model sees them decoded
/// as signed values.
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
///
/// # Panics
///
/// As [`check`].
pub fn check_signed(
    netlist: &Netlist,
    width: u32,
    coverage: Coverage,
    engine: Engine,
    model: impl Fn(i128, i128) -> I256 + Sync,
) -> Result<u64, Box<SignedMismatch>> {
    let domain = TwosComplement { width };
    pair_sweep(netlist, width, coverage, engine, &domain, |a, b| {
        model(sign_extend(a, width), sign_extend(b, width))
    })
}

/// [`check_signed`] with [`Coverage::Exhaustive`].
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16`.
pub fn check_exhaustive_signed_with_engine(
    netlist: &Netlist,
    width: u32,
    model: impl Fn(i128, i128) -> I256 + Sync,
    engine: Engine,
) -> Result<(), Box<SignedMismatch>> {
    check_signed(netlist, width, Coverage::Exhaustive, engine, model).map(|_| ())
}

/// [`check`] against a **bit-plane model**: per block of up to 64 operand
/// pairs, `model(operands, product)` fills the `2·width` raw product
/// planes of the block's [`OperandPlanes`], as the bit-sliced twins of
/// `sdlc-core::batch` do (their broadcast form on exhaustive rows). They
/// are compared plane by plane against the netlist's `p` planes: a passing
/// block costs one XOR/OR per plane, only a failing block is decoded, and
/// lanes past a block's pairs are never compared.
///
/// The compared planes cover both products: a `p` bus shorter than
/// `2·width` bits reads as zero in its missing planes, and planes past
/// `2·width` must be zero, exactly as [`check`] compares raw products.
/// Verdicts, the pair count and the first counterexample are the ones
/// [`check`] reports with the model's per-pair twin, for either coverage.
/// The compiled engine falls back to scalar where [`check`] does.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if `width > 32` or the `p` bus exceeds 64 bits (products are
/// compared as at most 64 planes), and where [`check`] panics.
pub fn check_planes(
    netlist: &Netlist,
    width: u32,
    coverage: Coverage,
    engine: Engine,
    model: impl Fn(OperandPlanes<'_>, &mut [u64]) + Sync,
) -> Result<u64, Box<Mismatch>> {
    plane_sweep(netlist, width, coverage, engine, &Unsigned { width }, model)
}

/// [`check_planes`] for a signed (two's-complement `a`/`b`→`p`) netlist:
/// the model reads the operand *pattern* planes and fills the `2·width`
/// two's-complement product planes, and a counterexample is decoded as
/// [`check_signed`] reports it. Only the low `2·width` planes are
/// compared — a wider `p` bus's upper planes are ignored, as
/// [`check_signed`] ignores them.
///
/// # Errors
///
/// Returns the first [`SignedMismatch`] found.
///
/// # Panics
///
/// As [`check_planes`].
pub fn check_planes_signed(
    netlist: &Netlist,
    width: u32,
    coverage: Coverage,
    engine: Engine,
    model: impl Fn(OperandPlanes<'_>, &mut [u64]) + Sync,
) -> Result<u64, Box<SignedMismatch>> {
    let domain = TwosComplement { width };
    plane_sweep(netlist, width, coverage, engine, &domain, model)
}

/// [`check`] with [`Coverage::Exhaustive`] and a **64-lane block
/// model**: the model side produces the products of `(a, b0), …,
/// (a, b0 + 63)` in one call instead of being asked pair by pair, in lane
/// form. [`check_planes`] is the same check without the transposes to
/// and from lanes.
///
/// Both engines sweep the identical row-major pair order, so verdicts
/// and the first reported counterexample are bit-identical to the
/// per-pair checks.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16` (the sweep would not terminate reasonably) or
/// if the `p` bus exceeds 64 bits (lane products must fit one `u64`).
pub fn check_exhaustive_batched(
    netlist: &Netlist,
    width: u32,
    block_model: impl Fn(u64, u64, &mut [u64; LANES]) + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    let pairs = Pairs::of::<Unsigned>(Coverage::Exhaustive, width);
    let p_len = block_product_len(netlist);
    let check_block = |block: Block<'_>, _: &[u64], _: &[u64], p: &[u64]| {
        let mut got = [0u64; LANES];
        bitplane::lanes_from_planes(&p[..p_len], &mut got);
        // Every block of an exhaustive sweep is a row segment, `(a, b0 + i)`.
        let (a, b0) = block.pair(0);
        let mut expect = [0u64; LANES];
        block_model(a as u64, b0 as u64, &mut expect);
        (0..block.len()).find(|&i| got[i] != expect[i]).map(|i| {
            let (a, b) = block.pair(i);
            let product = |lane: u64| U256::from_u128(u128::from(lane));
            Unsigned { width }.mismatch(a, b, product(got[i]), product(expect[i]))
        })
    };
    sweep(netlist, width, engine, &pairs, false, check_block).map(|_| ())
}

/// The `p` output bus.
fn product_bus(netlist: &Netlist) -> &[NetId] {
    netlist.bus("p").expect("output bus `p`")
}

/// The `p` bus width of a batched or plane check, whose products are
/// compared as at most 64 planes.
fn block_product_len(netlist: &Netlist) -> usize {
    let p_len = product_bus(netlist).len();
    assert!(p_len <= LANES, "batched checks need products <= 64 bits");
    p_len
}

// ---------------------------------------------------------------------
// Operand domains and the checkers.
// ---------------------------------------------------------------------

/// An operand domain of the checks. Operands travel as bus bit patterns
/// and products as the raw `p` bus pattern; the domain supplies the
/// corner patterns, decodes a raw product and builds the counterexample.
/// Models stay outside: a per-pair model ([`pair_sweep`]) maps operand
/// patterns to the domain's product, a plane model fills raw product
/// planes from operand planes ([`plane_sweep`]).
trait Domain: Sync {
    /// A decoded product.
    type Product: PartialEq;
    /// The counterexample the domain reports.
    type Mismatch: Send;

    /// Corner patterns of one operand, in sweep order.
    fn corners(width: u32) -> Vec<u128>;

    /// Decodes a raw `p` bus pattern.
    fn product(&self, raw: &U256) -> Self::Product;

    /// How many low product planes decide equality, for a `p_len`-bit
    /// product bus: exactly the raw bits [`Domain::product`] reads.
    fn judged_planes(&self, p_len: usize) -> usize;

    /// The counterexample at operand patterns `(a, b)`.
    fn mismatch(
        &self,
        a: u128,
        b: u128,
        netlist_product: Self::Product,
        model_product: Self::Product,
    ) -> Box<Self::Mismatch>;
}

/// The unsigned domain: patterns are the operands and raw products the
/// products.
struct Unsigned {
    width: u32,
}

impl Domain for Unsigned {
    type Product = U256;
    type Mismatch = Mismatch;

    fn corners(width: u32) -> Vec<u128> {
        vec![0, 1, pattern_mask(width)]
    }

    fn product(&self, raw: &U256) -> U256 {
        *raw
    }

    fn judged_planes(&self, p_len: usize) -> usize {
        p_len.max(2 * self.width as usize)
    }

    fn mismatch(&self, a: u128, b: u128, got: U256, expect: U256) -> Box<Mismatch> {
        Box::new(Mismatch {
            a,
            b,
            netlist_product: got,
            model_product: expect,
        })
    }
}

/// The two's-complement domain: `width`-bit operand patterns, `2·width`-bit
/// product patterns.
struct TwosComplement {
    width: u32,
}

impl Domain for TwosComplement {
    type Product = I256;
    type Mismatch = SignedMismatch;

    fn corners(width: u32) -> Vec<u128> {
        // 0, 1, −1 = 11…1, MAX = 01…1, MIN = 10…0.
        let min = 1u128 << (width - 1);
        vec![0, 1, pattern_mask(width), min - 1, min]
    }

    fn product(&self, raw: &U256) -> I256 {
        I256::from_twos_complement(raw, 2 * self.width)
    }

    fn judged_planes(&self, _p_len: usize) -> usize {
        2 * self.width as usize
    }

    fn mismatch(&self, a: u128, b: u128, got: I256, expect: I256) -> Box<SignedMismatch> {
        Box::new(SignedMismatch {
            a: sign_extend(a, self.width),
            b: sign_extend(b, self.width),
            netlist_product: got,
            model_product: expect,
        })
    }
}

/// The per-pair checker behind [`check`] and [`check_signed`]: per block,
/// the first lane whose product, read from the netlist's `p` planes,
/// differs from `model`'s for the lane's operand patterns. Products of up
/// to 64 bits are decoded with one transpose, wider ones (only the scalar
/// engine drives such buses) bit by bit.
fn pair_sweep<D: Domain>(
    netlist: &Netlist,
    width: u32,
    coverage: Coverage,
    engine: Engine,
    domain: &D,
    model: impl Fn(u128, u128) -> D::Product + Sync,
) -> Result<u64, Box<D::Mismatch>> {
    let pairs = Pairs::of::<D>(coverage, width);
    let p_len = product_bus(netlist).len();
    let narrow = p_len <= LANES;
    sweep(netlist, width, engine, &pairs, false, |block, _, _, p| {
        let mut lanes = [0u64; LANES];
        if narrow {
            bitplane::lanes_from_planes(&p[..p_len], &mut lanes);
        }
        (0..block.len()).find_map(|lane| {
            let raw = if narrow {
                U256::from_u128(u128::from(lanes[lane]))
            } else {
                lane_pattern(&p[..p_len], lane as u32)
            };
            let (a, b) = block.pair(lane);
            let got = domain.product(&raw);
            let expect = model(a, b);
            (got != expect).then(|| domain.mismatch(a, b, got, expect))
        })
    })
}

/// The plane checker behind [`check_planes`] and [`check_planes_signed`].
///
/// Per block, the model fills its `2·width` product planes from the
/// block's operand planes, the netlist's `p` planes are XORed against them
/// (the domain's judged planes; missing planes on either side read as
/// zero) and ORed into one difference word, masked to the block's lanes —
/// the last block of a sweep, and every block under 6 bits, fill only
/// part of a block. Only a nonzero difference is decoded: its lowest
/// lane, which is the block's first failing pair in sweep order, gathered
/// bit by bit from both plane stacks into the domain's counterexample.
fn plane_sweep<D: Domain>(
    netlist: &Netlist,
    width: u32,
    coverage: Coverage,
    engine: Engine,
    domain: &D,
    model: impl Fn(OperandPlanes<'_>, &mut [u64]) + Sync,
) -> Result<u64, Box<D::Mismatch>> {
    let model_len = 2 * width as usize;
    assert!(model_len <= LANES, "plane checks need products <= 64 bits");
    let pairs = Pairs::of::<D>(coverage, width);
    let p_len = block_product_len(netlist);
    let judged = domain.judged_planes(p_len);
    let check_block = |block: Block<'_>, a: &[u64], b: &[u64], got: &[u64]| {
        let operands = OperandPlanes {
            a: &a[..width as usize],
            b: &b[..width as usize],
            row: match block {
                Block::Row { a, .. } => Some(a),
                Block::Listed(_) => None,
            },
        };
        let mut expect = [0u64; LANES];
        model(operands, &mut expect[..model_len]);
        let diff = got[..judged]
            .iter()
            .zip(&expect[..judged])
            .fold(0, |diff, (g, e)| diff | (g ^ e))
            & block.lanes();
        (diff != 0).then(|| {
            let lane = diff.trailing_zeros();
            let (a, b) = block.pair(lane as usize);
            let raw = |planes: &[u64]| lane_pattern(planes, lane);
            domain.mismatch(
                a,
                b,
                domain.product(&raw(&got[..p_len])),
                domain.product(&raw(&expect[..model_len])),
            )
        })
    };
    sweep(netlist, width, engine, &pairs, true, check_block)
}

/// Bit `lane` of each plane, as one raw pattern (plane `k` → bit `k`).
fn lane_pattern(planes: &[u64], lane: u32) -> U256 {
    let mut out = U256::ZERO;
    for (k, plane) in planes.iter().enumerate() {
        if (plane >> lane) & 1 == 1 {
            out.set_bit(k as u32, true);
        }
    }
    out
}

/// The all-ones pattern of a `width`-bit bus.
fn pattern_mask(width: u32) -> u128 {
    if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Interprets the low `width` bits of a pattern as two's complement.
fn sign_extend(pattern: u128, width: u32) -> i128 {
    ((pattern << (128 - width)) as i128) >> (128 - width)
}

// ---------------------------------------------------------------------
// The pair sources and the sweep.
// ---------------------------------------------------------------------

/// The operand pairs of a check, in sweep order, cut into blocks of up
/// to 64 pairs (block `k` holds pairs `64k .. 64k + 64`).
enum Pairs {
    /// Every pattern pair of `count × count`, row-major, each row cut
    /// into blocks on its own.
    Rows { count: u64 },
    /// The domain's corner pairs, row-major, then `samples` seeded draws
    /// of `width`-bit patterns (`a` drawn before `b`). The draws are
    /// regenerated from the seed, never stored.
    Sampled {
        corners: Vec<u128>,
        samples: u64,
        seed: u64,
        width: u32,
    },
}

impl Pairs {
    /// The pairs `coverage` asks for in domain `D`.
    ///
    /// # Panics
    ///
    /// Panics on exhaustive coverage beyond 16 bits: 2^{2w} pairs would not
    /// terminate reasonably.
    fn of<D: Domain>(coverage: Coverage, width: u32) -> Self {
        match coverage {
            Coverage::Exhaustive => {
                assert!(
                    width <= 16,
                    "exhaustive equivalence beyond 16 bits is impractical"
                );
                Pairs::Rows { count: 1 << width }
            }
            Coverage::Sampled { samples, seed } => Pairs::Sampled {
                corners: D::corners(width),
                samples,
                seed,
                width,
            },
        }
    }

    /// The number of pairs.
    fn len(&self) -> u64 {
        match self {
            Pairs::Rows { count } => count * count,
            Pairs::Sampled {
                corners, samples, ..
            } => (corners.len() * corners.len()) as u64 + samples,
        }
    }

    /// The number of blocks.
    fn blocks(&self) -> u64 {
        match self {
            Pairs::Rows { count } => count * count.div_ceil(LANES as u64),
            Pairs::Sampled { .. } => self.len().div_ceil(LANES as u64),
        }
    }

    /// Hands blocks `lo..hi` to `visit` in order, stopping at the first
    /// `Some`.
    fn walk<E>(
        &self,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(Block<'_>) -> Option<E>,
    ) -> Option<E> {
        const STEP: u64 = LANES as u64;
        match *self {
            Pairs::Rows { count } => {
                let per_row = count.div_ceil(STEP);
                let (mut a, mut b0) = (lo / per_row, lo % per_row * STEP);
                for _ in lo..hi {
                    let len = (count - b0).min(STEP) as usize;
                    if let Some(found) = visit(Block::Row { a, b0, len }) {
                        return Some(found);
                    }
                    b0 += STEP;
                    if b0 >= count {
                        (a, b0) = (a + 1, 0);
                    }
                }
                None
            }
            Pairs::Sampled {
                ref corners,
                samples,
                seed,
                width,
            } => {
                let corner_count = corners.len() as u64;
                let corner_pairs = corner_count * corner_count;
                let draw = |rng: &mut SplitMix64| {
                    let a = draw_pattern(rng, width);
                    (a, draw_pattern(rng, width))
                };
                let mut rng = SplitMix64::new(seed);
                let mut next = lo * STEP;
                // Skip ahead past the draws of the pairs before block `lo`.
                for _ in corner_pairs..next {
                    draw(&mut rng);
                }
                let end = (hi * STEP).min(corner_pairs + samples);
                let mut block = [(0, 0); LANES];
                while next < end {
                    let len = (end - next).min(STEP) as usize;
                    for pair in &mut block[..len] {
                        *pair = if next < corner_pairs {
                            let (i, j) = (next / corner_count, next % corner_count);
                            (corners[i as usize], corners[j as usize])
                        } else {
                            draw(&mut rng)
                        };
                        next += 1;
                    }
                    if let Some(found) = visit(Block::Listed(&block[..len])) {
                        return Some(found);
                    }
                }
                None
            }
        }
    }
}

/// Up to 64 operand pairs, one per lane.
#[derive(Clone, Copy)]
enum Block<'a> {
    /// A segment of an exhaustive row: lane `i` holds `(a, b0 + i)`.
    Row { a: u64, b0: u64, len: usize },
    /// Listed pairs: lane `i` holds the `i`-th.
    Listed(&'a [(u128, u128)]),
}

impl Block<'_> {
    /// The number of valid lanes.
    fn len(self) -> usize {
        match self {
            Block::Row { len, .. } => len,
            Block::Listed(pairs) => pairs.len(),
        }
    }

    /// The valid lanes, as a lane mask.
    fn lanes(self) -> u64 {
        u64::MAX >> (LANES - self.len())
    }

    /// The pair in `lane`.
    fn pair(self, lane: usize) -> (u128, u128) {
        match self {
            Block::Row { a, b0, .. } => (u128::from(a), u128::from(b0 + lane as u64)),
            Block::Listed(pairs) => pairs[lane],
        }
    }
}

/// Writes the operand planes of `block` into `a` and `b`: a broadcast row
/// operand and a counter for a row segment (`bits` planes each, at most
/// 64; the planes above are left as they are), one transpose per operand
/// (its low 64 bits) for listed pairs.
fn operand_planes(block: Block<'_>, bits: u32, a: &mut [u64; LANES], b: &mut [u64; LANES]) {
    match block {
        Block::Row { a: row, b0, .. } => {
            bitplane::broadcast_planes(row, bits, a);
            bitplane::counter_planes(b0, bits, b);
        }
        Block::Listed(list) => {
            let transposed = |operand: fn(&(u128, u128)) -> u128| {
                let mut lanes = [0u64; LANES];
                for (lane, pair) in lanes.iter_mut().zip(list) {
                    *lane = operand(pair) as u64;
                }
                bitplane::transposed64(&lanes)
            };
            (*a, *b) = (transposed(|p| p.0), transposed(|p| p.1));
        }
    }
}

/// The one sweep behind every check: runs `pairs` through the netlist a
/// block at a time and hands each block to `check` with its operand
/// planes `a` and `b` ([`operand_planes`] of `min(width, 64)` bits; zero
/// on the scalar engine unless `operands`) and the netlist's `p` planes —
/// lane `i` of plane `k` is bit `k` of the block's pair `i`; at least 64
/// `p` planes, zero past the bus, lanes past the block's meaningless.
/// Returns the pair count, or the first counterexample in pair order.
///
/// The compiled engine evaluates 64 pairs per pass from the operand
/// planes, shards the blocks across threads via [`parallel_chunks`] and
/// merges the chunks in order. The scalar engine runs one [`LogicSim`]
/// pass per pair on the calling thread, so its panics (an operand
/// overflowing its bus) surface unchanged; the compiled engine falls back
/// to it beyond [`compiled_supports`].
fn sweep<E: Send>(
    netlist: &Netlist,
    width: u32,
    engine: Engine,
    pairs: &Pairs,
    operands: bool,
    check: impl Fn(Block<'_>, &[u64], &[u64], &[u64]) -> Option<Box<E>> + Sync,
) -> Result<u64, Box<E>> {
    let ports = AbPortMap::of(netlist);
    let p_nets = product_bus(netlist);
    let bits = width.min(LANES as u32);
    let found = if engine == Engine::Compiled && compiled_supports(netlist, width) {
        let program = CompiledNetlist::compile(netlist);
        let (a_len, b_len) = (ports.a_len as usize, ports.b_len as usize);
        let partials = parallel_chunks(pairs.blocks(), worker_threads(), |lo, hi| {
            let mut sim = CompiledSim::new(&program);
            let mut stimulus = vec![0u64; netlist.inputs().len()];
            // Planes from `width` up to a wider bus stay zero.
            let (mut a, mut b, mut p) = ([0u64; LANES], [0u64; LANES], [0u64; LANES]);
            pairs.walk(lo, hi, |block| {
                operand_planes(block, bits, &mut a, &mut b);
                ports.fill_planes(&a[..a_len], &b[..b_len], &mut stimulus);
                sim.evaluate(&stimulus);
                for (plane, &net) in p.iter_mut().zip(p_nets) {
                    *plane = sim.plane(net);
                }
                check(block, &a, &b, &p)
            })
        });
        partials.into_iter().flatten().next()
    } else {
        let mut sim = LogicSim::new(netlist);
        let mut stimulus = vec![false; netlist.inputs().len()];
        let (mut a, mut b) = ([0u64; LANES], [0u64; LANES]);
        let mut p = vec![0u64; p_nets.len().max(LANES)];
        pairs.walk(0, pairs.blocks(), |block| {
            p.fill(0);
            for lane in 0..block.len() {
                let (a, b) = block.pair(lane);
                ports.fill(a, b, &mut stimulus);
                sim.apply(&stimulus);
                for (plane, &net) in p.iter_mut().zip(p_nets) {
                    *plane |= u64::from(sim.value(net)) << lane;
                }
            }
            if operands {
                operand_planes(block, bits, &mut a, &mut b);
            }
            check(block, &a, &b, &p)
        })
    };
    found.map_or(Ok(pairs.len()), Err)
}

/// Whether the compiled fast path can drive this netlist at this operand
/// width: the `a`/`b` operand buses and the `p` product bus must each fit
/// one 64-lane plane stack, and the operand buses must be at least
/// `width` bits so packed operands are never truncated. Checks beyond
/// these bounds fall back to the scalar engine — which, for operands
/// overflowing their bus, preserves the port map's loud `overflows bus`
/// panic instead of a silently truncated sweep.
fn compiled_supports(netlist: &Netlist, width: u32) -> bool {
    let operand_fits = |name: &str| {
        netlist
            .bus(name)
            .is_some_and(|bus| (width as usize..=64).contains(&bus.len()))
    };
    operand_fits("a") && operand_fits("b") && netlist.bus("p").is_some_and(|bus| bus.len() <= 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdlc_netlist::reduce::{rows_to_columns, wallace, RowBits};

    fn wallace_multiplier(width: u32) -> Netlist {
        let mut n = Netlist::new("mul");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let rows: Vec<RowBits> = b
            .iter()
            .enumerate()
            .map(|(k, &bk)| {
                let bits: Vec<_> = a.iter().map(|&aj| n.and2(aj, bk)).collect();
                RowBits { offset: k, bits }
            })
            .collect();
        let columns = rows_to_columns(&rows, 2 * width as usize);
        let p = wallace(&mut n, columns);
        n.set_output_bus("p", p);
        n
    }

    fn exact(a: u128, b: u128) -> U256 {
        U256::from_u128(a).wrapping_mul(&U256::from_u128(b))
    }

    const BOTH: [Engine; 2] = [Engine::Scalar, Engine::Compiled];

    #[test]
    fn exhaustive_passes_for_exact_multiplier() {
        let n = wallace_multiplier(4);
        assert_eq!(
            check(&n, 4, Coverage::Exhaustive, Engine::Scalar, exact),
            Ok(256)
        );
    }

    #[test]
    fn exhaustive_passes_on_the_compiled_engine() {
        let n = wallace_multiplier(4);
        assert_eq!(
            check(&n, 4, Coverage::Exhaustive, Engine::Compiled, exact),
            Ok(256)
        );
    }

    #[test]
    fn sampled_passes_for_wide_multiplier() {
        let n = wallace_multiplier(20);
        let coverage = Coverage::Sampled {
            samples: 500,
            seed: 3,
        };
        for engine in BOTH {
            assert_eq!(check(&n, 20, coverage, engine, exact), Ok(509));
        }
    }

    #[test]
    fn batched_checks_match_per_pair_checks() {
        let n = wallace_multiplier(4);
        let exact_block = |a: u64, b0: u64, out: &mut [u64; bitplane::LANES]| {
            for (i, lane) in out.iter_mut().enumerate() {
                // 4-bit sweep: only the 16 valid lanes are compared.
                *lane = a * ((b0 + i as u64) & 0xF);
            }
        };
        for engine in BOTH {
            check_exhaustive_batched(&n, 4, exact_block, engine).unwrap();
        }
        // A planted stripe bug surfaces as the same first counterexample
        // on both engines — and as the per-pair scalar reference reports.
        let wrong_block = |a: u64, b0: u64, out: &mut [u64; bitplane::LANES]| {
            exact_block(a, b0, out);
            for (i, lane) in out.iter_mut().enumerate() {
                if a == 5 && b0 + i as u64 >= 9 {
                    *lane ^= 1;
                }
            }
        };
        let scalar = check_exhaustive_batched(&n, 4, wrong_block, Engine::Scalar).unwrap_err();
        let compiled = check_exhaustive_batched(&n, 4, wrong_block, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
        assert_eq!((scalar.a, scalar.b), (5, 9));
    }

    /// A plane model from a per-lane raw-product function: lane `i` of
    /// the `2·width` product planes holds `lane(a, b, i)` for the lane's
    /// operand patterns `(a, b)`. A row block's `a` must hold its `row`
    /// pattern in every lane.
    fn plane_model(
        width: u32,
        lane: impl Fn(u64, u64, usize) -> u64 + Sync,
    ) -> impl Fn(OperandPlanes<'_>, &mut [u64]) + Sync {
        move |operands, planes| {
            let lanes_of = |planes: &[u64]| {
                let mut lanes = [0u64; LANES];
                bitplane::lanes_from_planes(planes, &mut lanes);
                lanes
            };
            let (a, b) = (lanes_of(operands.a), lanes_of(operands.b));
            if let Some(row) = operands.row {
                assert_eq!(a, [row; LANES], "row operand planes");
            }
            let lanes = core::array::from_fn(|i| lane(a[i], b[i], i));
            let transposed = bitplane::transposed64(&lanes);
            planes.copy_from_slice(&transposed[..2 * width as usize]);
        }
    }

    /// The stripe the plane tests plant: one row, from a column on.
    fn stripe(width: u32, a: u64, b: u64) -> bool {
        a == (1 << width) - 2 && b > (1 << width) / 2
    }

    #[test]
    fn plane_checks_match_per_pair_checks() {
        // Exhaustive widths 2 and 4 fill a partial block, so the planted
        // garbage in lanes past 2^width must be masked; 6 fills whole
        // blocks. The sampled sweeps end in a partial block; their first
        // counterexample is a seeded draw (the stripe misses the corners).
        let sampled = Coverage::Sampled {
            samples: 300,
            seed: 4,
        };
        for width in [2u32, 4, 6] {
            let count = 1usize << width;
            let n = wallace_multiplier(width);
            for coverage in [Coverage::Exhaustive, sampled] {
                let exhaustive = coverage == Coverage::Exhaustive;
                let (pairs, signed_pairs) = if exhaustive {
                    let all = 1u64 << (2 * width);
                    (all, all)
                } else {
                    (9 + 300, 25 + 300)
                };
                let flip = |a: u64, b: u64, i: usize| {
                    u64::from(stripe(width, a, b) || (exhaustive && i >= count))
                };
                let exact_planes = plane_model(width, |a, b, _| a * b);
                let wrong_planes = plane_model(width, |a, b, i| (a * b) ^ flip(a, b, i));
                let wrong = |a: u128, b: u128| {
                    let bug = stripe(width, a as u64, b as u64);
                    U256::from_u128((a * b) ^ u128::from(bug))
                };
                let reference = check(&n, width, coverage, Engine::Scalar, wrong);
                if exhaustive {
                    assert_eq!(
                        reference.as_ref().map_err(|e| (e.a, e.b)),
                        Err(((1 << width) - 2, (1 << width) / 2 + 1))
                    );
                } else {
                    assert!(reference.is_err(), "{width}-bit {coverage:?}");
                }
                for engine in BOTH {
                    let row = format!("{width}-bit {coverage:?} on {engine}");
                    assert_eq!(
                        check_planes(&n, width, coverage, engine, &exact_planes),
                        Ok(pairs),
                        "{row}"
                    );
                    assert_eq!(
                        check_planes(&n, width, coverage, engine, &wrong_planes),
                        reference,
                        "{row}"
                    );
                }

                let n = signed_wallace_multiplier(width);
                let product = |a: u64, b: u64| {
                    let value =
                        sign_extend(u128::from(a), width) * sign_extend(u128::from(b), width);
                    value as u64 & ((1 << (2 * width)) - 1)
                };
                let exact_planes = plane_model(width, |a, b, _| product(a, b));
                let wrong_planes = plane_model(width, |a, b, i| product(a, b) ^ flip(a, b, i));
                let wrong = |a: i128, b: i128| {
                    let pattern = |v: i128| (v as u64) & ((1 << width) - 1);
                    let bug = stripe(width, pattern(a), pattern(b));
                    I256::from_i128((a * b) ^ i128::from(bug))
                };
                let reference = check_signed(&n, width, coverage, Engine::Scalar, wrong);
                assert!(reference.is_err(), "signed {width}-bit {coverage:?}");
                for engine in BOTH {
                    let row = format!("signed {width}-bit {coverage:?} on {engine}");
                    assert_eq!(
                        check_planes_signed(&n, width, coverage, engine, &exact_planes),
                        Ok(signed_pairs),
                        "{row}"
                    );
                    assert_eq!(
                        check_planes_signed(&n, width, coverage, engine, &wrong_planes),
                        reference,
                        "{row}"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_checks_compare_product_buses_of_any_length() {
        // A `p` bus one plane short reads as zero in its top plane; one
        // plane long must hold zero there (unsigned) or is ignored
        // (two's complement) — as the per-pair checks decode raw products.
        let width = 4;
        let resized = |n: &Netlist, extra: bool| {
            let mut n = n.clone();
            let mut p = n.bus("p").unwrap().to_vec();
            p.truncate(2 * width as usize - 1);
            if extra {
                p.push(n.bus("p").unwrap()[p.len()]);
                p.push(n.const1());
            }
            n.set_output_bus("p", p);
            n
        };
        let exact_planes = plane_model(width, |a, b, _| a * b);
        let signed_planes = plane_model(width, |a, b, _| {
            let value = sign_extend(u128::from(a), width) * sign_extend(u128::from(b), width);
            value as u64 & 0xFF
        });
        for extra in [false, true] {
            let n = resized(&wallace_multiplier(width), extra);
            let reference = check(&n, width, Coverage::Exhaustive, Engine::Scalar, exact);
            assert!(reference.is_err(), "extra plane {extra}");
            let n_signed = resized(&signed_wallace_multiplier(width), extra);
            let signed_reference = check_signed(
                &n_signed,
                width,
                Coverage::Exhaustive,
                Engine::Scalar,
                signed_exact,
            );
            assert_eq!(signed_reference.is_ok(), extra, "extra plane {extra}");
            for engine in BOTH {
                assert_eq!(
                    check_planes(&n, width, Coverage::Exhaustive, engine, &exact_planes),
                    reference
                );
                assert_eq!(
                    check_planes_signed(
                        &n_signed,
                        width,
                        Coverage::Exhaustive,
                        engine,
                        &signed_planes
                    ),
                    signed_reference
                );
            }
        }
    }

    /// Every pair `pairs.walk(lo, hi, ..)` visits, in order.
    fn visited(pairs: &Pairs, lo: u64, hi: u64) -> Vec<(u128, u128)> {
        let mut seen = Vec::new();
        pairs.walk(lo, hi, |block| {
            seen.extend((0..block.len()).map(|lane| block.pair(lane)));
            None::<()>
        });
        seen
    }

    /// Asserts that a single pass over `pairs` visits `expected`, and so
    /// does every split of its blocks into two chunks.
    fn assert_walks(pairs: &Pairs, expected: &[(u128, u128)], row: &str) {
        let blocks = pairs.blocks();
        assert_eq!(visited(pairs, 0, blocks), expected, "{row}");
        assert_eq!(pairs.len(), expected.len() as u64, "{row}");
        for k in 0..=blocks {
            let mut split = visited(pairs, 0, k);
            split.extend(visited(pairs, k, blocks));
            assert_eq!(split, expected, "{row} split at block {k}");
        }
    }

    #[test]
    fn pair_sources_are_the_same_sequence_from_any_chunk_start() {
        // Exhaustive rows, row-major: 3 bits fill part of a block, 7 bits
        // cut each row into two.
        for width in [3u32, 7] {
            let count = 1u128 << width;
            let expected: Vec<_> = (0..count)
                .flat_map(|a| (0..count).map(move |b| (a, b)))
                .collect();
            let pairs = Pairs::of::<Unsigned>(Coverage::Exhaustive, width);
            assert_walks(&pairs, &expected, &format!("{width}-bit rows"));
        }
        // Sampled: the corners row-major, then the draws, `a` before `b`;
        // a 70-bit pattern takes two draws, its high 6 bits first.
        let draw = |rng: &mut SplitMix64, width: u32| {
            if width == 70 {
                (u128::from(rng.next_bits(6)) << 64) | u128::from(rng.next_u64())
            } else {
                u128::from(rng.next_bits(width))
            }
        };
        for width in [8u32, 70] {
            for (corners, samples) in [
                (Unsigned::corners(width), 100),
                (TwosComplement::corners(width), 300),
            ] {
                let mut rng = SplitMix64::new(5);
                let mut expected: Vec<_> = corners
                    .iter()
                    .flat_map(|&a| corners.iter().map(move |&b| (a, b)))
                    .collect();
                for _ in 0..samples {
                    let a = draw(&mut rng, width);
                    expected.push((a, draw(&mut rng, width)));
                }
                let row = format!("{width}-bit, {} corners + {samples}", corners.len());
                let pairs = Pairs::Sampled {
                    corners,
                    samples,
                    seed: 5,
                    width,
                };
                assert_walks(&pairs, &expected, &row);
            }
        }
    }

    #[test]
    fn mismatch_is_reported_with_operands() {
        let n = wallace_multiplier(4);
        // Deliberately wrong model.
        let err = check(&n, 4, Coverage::Exhaustive, Engine::Scalar, |a, b| {
            U256::from_u128(a.wrapping_add(b))
        })
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("netlist("));
        // First mismatching pair under row-major order: a=0,b=1 → product 0 vs model 1.
        assert_eq!((err.a, err.b), (0, 1));
    }

    #[test]
    fn both_engines_report_the_same_first_mismatch() {
        let n = wallace_multiplier(4);
        let wrong = |a: u128, b: u128| U256::from_u128(a.wrapping_add(b));
        let sampled = Coverage::Sampled {
            samples: 40,
            seed: 9,
        };
        for coverage in [Coverage::Exhaustive, sampled] {
            let scalar = check(&n, 4, coverage, Engine::Scalar, wrong).unwrap_err();
            let compiled = check(&n, 4, coverage, Engine::Compiled, wrong).unwrap_err();
            assert_eq!(scalar, compiled);
        }
    }

    /// Runs one row of the generic-sweep table on both engines, with the
    /// exact model and with a planted bug, and checks that the engines
    /// agree on the verdict, the whole first counterexample and the pair
    /// count.
    fn assert_row<E: PartialEq + fmt::Debug>(
        row: &str,
        pairs: u64,
        run: impl Fn(Engine, bool) -> Result<u64, Box<E>>,
    ) {
        for engine in BOTH {
            assert_eq!(run(engine, false), Ok(pairs), "{row} on {engine}");
        }
        let scalar = run(Engine::Scalar, true);
        assert!(scalar.is_err(), "{row}: the planted bug went unseen");
        assert_eq!(scalar, run(Engine::Compiled, true), "{row}");
    }

    /// Whether the planted bug fires: a sparse lattice that misses every
    /// corner pair of the sampled rows, so their first counterexample
    /// comes from the seeded draws.
    fn planted(a: i128, b: i128) -> bool {
        (a ^ b).rem_euclid(11) == 3
    }

    #[test]
    fn generic_sweeps_agree_across_engines_domains_and_coverages() {
        let samples = 100;
        let sampled = Coverage::Sampled { samples, seed: 7 };
        let wide = wallace_multiplier(36);
        assert!(
            !compiled_supports(&wide, 36),
            "a 72-bit product bus takes the scalar fallback"
        );
        let unsigned_rows = [
            (
                "unsigned exhaustive",
                wallace_multiplier(4),
                4,
                Coverage::Exhaustive,
                1 << 8,
            ),
            (
                "unsigned sampled",
                wallace_multiplier(8),
                8,
                sampled,
                9 + samples,
            ),
            ("unsigned sampled, 72-bit p", wide, 36, sampled, 9 + samples),
        ];
        for (row, n, width, coverage, pairs) in &unsigned_rows {
            assert_row(row, *pairs, |engine, wrong| {
                check(n, *width, *coverage, engine, |a, b| {
                    let bug = wrong && planted(a as i128, b as i128);
                    U256::from_u128(a * b + u128::from(bug))
                })
            });
        }
        let signed_rows = [
            (
                "signed exhaustive",
                signed_wallace_multiplier(4),
                4,
                Coverage::Exhaustive,
                1 << 8,
            ),
            (
                "signed sampled",
                signed_wallace_multiplier(8),
                8,
                sampled,
                25 + samples,
            ),
        ];
        for (row, n, width, coverage, pairs) in &signed_rows {
            assert_row(row, *pairs, |engine, wrong| {
                check_signed(n, *width, *coverage, engine, |a, b| {
                    I256::from_i128(a * b + i128::from(wrong && planted(a, b)))
                })
            });
        }
    }

    #[test]
    #[should_panic(expected = "overflows bus")]
    fn compiled_engine_preserves_the_operand_overflow_panic() {
        // Operands wider than the netlist's buses must fail loudly on
        // BOTH engines (the compiled path falls back to scalar rather
        // than silently truncating the packed operands).
        let n = wallace_multiplier(4);
        let _ = check(
            &n,
            6, // draws 6-bit operands against 4-bit buses
            Coverage::Sampled {
                samples: 16,
                seed: 1,
            },
            Engine::Compiled,
            exact,
        );
    }

    #[test]
    fn engine_parsing_and_display() {
        assert_eq!("scalar".parse::<Engine>().unwrap(), Engine::Scalar);
        assert_eq!("compiled".parse::<Engine>().unwrap(), Engine::Compiled);
        assert_eq!(Engine::default(), Engine::Scalar);
        assert_eq!(Engine::Compiled.to_string(), "compiled");
        let err = "turbo".parse::<Engine>().unwrap_err();
        assert!(err.contains("turbo") && err.contains("compiled"), "{err}");
    }

    fn signed_wallace_multiplier(width: u32) -> Netlist {
        sdlc_netlist::signed::sign_magnitude_wrap(&wallace_multiplier(width), width)
    }

    fn signed_exact(a: i128, b: i128) -> I256 {
        I256::from_i128(a * b)
    }

    #[test]
    fn signed_exhaustive_passes_for_exact_multiplier() {
        let n = signed_wallace_multiplier(5);
        for engine in BOTH {
            assert_eq!(
                check_signed(&n, 5, Coverage::Exhaustive, engine, signed_exact),
                Ok(1024)
            );
        }
        check_exhaustive_signed_with_engine(&n, 5, signed_exact, Engine::Compiled).unwrap();
    }

    #[test]
    fn signed_sampled_passes_for_wide_multiplier() {
        let n = signed_wallace_multiplier(18);
        let coverage = Coverage::Sampled {
            samples: 300,
            seed: 11,
        };
        for engine in BOTH {
            assert_eq!(
                check_signed(&n, 18, coverage, engine, signed_exact),
                Ok(325)
            );
        }
    }

    #[test]
    fn signed_engines_report_the_same_first_mismatch() {
        let n = signed_wallace_multiplier(4);
        let wrong = |_: i128, _: i128| I256::ZERO;
        let scalar = check_exhaustive_signed_with_engine(&n, 4, wrong, Engine::Scalar).unwrap_err();
        let compiled =
            check_exhaustive_signed_with_engine(&n, 4, wrong, Engine::Compiled).unwrap_err();
        assert_eq!(scalar, compiled);
        let sampled = Coverage::Sampled {
            samples: 30,
            seed: 2,
        };
        let scalar = check_signed(&n, 4, sampled, Engine::Scalar, wrong).unwrap_err();
        let compiled = check_signed(&n, 4, sampled, Engine::Compiled, wrong).unwrap_err();
        assert_eq!(scalar, compiled);
    }

    #[test]
    fn signed_mismatch_formats_signed_operands() {
        let n = signed_wallace_multiplier(4);
        // Deliberately wrong model: claims every product is zero.
        let err = check_signed(&n, 4, Coverage::Exhaustive, Engine::Scalar, |_, _| {
            I256::ZERO
        })
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("signed netlist("), "{text}");
        // First wrong pair in pattern order is a=1, b=1 (1·1 = 1 ≠ 0).
        assert_eq!((err.a, err.b), (1, 1));
        assert_eq!(err.model_product, I256::ZERO);
        assert_eq!(err.netlist_product.to_i128(), Some(1));
        // Negative operands and products print with their signs.
        let corners_only = Coverage::Sampled {
            samples: 0,
            seed: 0,
        };
        let err = check_signed(&n, 4, corners_only, Engine::Scalar, |a, b| {
            // Wrong only where a product is negative, to land on a
            // signed counterexample.
            if a * b < 0 {
                I256::ZERO
            } else {
                I256::from_i128(a * b)
            }
        })
        .unwrap_err();
        assert!(err.a < 0 || err.b < 0);
        assert!(err.to_string().contains('-'), "{err}");
    }
}
