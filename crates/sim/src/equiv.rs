//! Equivalence checking between netlists and functional models.
//!
//! Every circuit generator in the workspace is validated against its
//! word-level model: exhaustively for narrow operands, by seeded sampling
//! plus corner patterns above that ([`Coverage`]). [`check`] covers the
//! unsigned operand domain and [`check_signed`] the two's-complement one;
//! both return the number of operand pairs checked, or the first failing
//! pair. [`check_exhaustive_batched`] asks the model for 64 products per
//! call instead of one.
//!
//! Each check runs on one of two [`Engine`]s. The scalar engine drives
//! one vector at a time through [`LogicSim`] — the reference. The
//! compiled engine flattens the netlist once ([`CompiledNetlist`]), packs
//! 64 operand pairs per sweep into bit-planes (reusing the
//! `sdlc_wideint::bitplane` transpose machinery), and shards the operand
//! space across scoped threads through the same
//! [`parallel_chunks`] splitter
//! as the `sdlc-core` error drivers. Pair order, lane decoding order and
//! chunk merge order all follow the scalar sweep, so the engines return
//! bit-identical verdicts — including the *same first* counterexample —
//! at a fraction of the cost (the differential suite proves it).

use core::fmt;

use sdlc_netlist::{NetId, Netlist};
use sdlc_wideint::parallel::parallel_chunks;
use sdlc_wideint::{bitplane, SplitMix64, I256, U256};

use crate::compile::{CompiledNetlist, CompiledSim};
use crate::logic::ab_stimulus;
use crate::LogicSim;

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
    sweep(netlist, width, coverage, engine, &Unsigned(model))
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
    sweep(
        netlist,
        width,
        coverage,
        engine,
        &TwosComplement { width, model },
    )
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

/// [`check`] with [`Coverage::Exhaustive`] and a **64-lane block
/// model**: the model side produces the products of `(a, b0), …,
/// (a, b0 + 63)` in one call instead of being asked pair by pair. Built
/// for bit-sliced model twins (`sdlc-core::batch`): at 10+ bits the
/// per-pair scalar model call dominates the compiled netlist sweep, and
/// batching it is what raises the practical exhaustive-equivalence
/// ceiling to 12 bits.
///
/// Both engines sweep the identical row-major pair order (the scalar
/// engine consumes the same block model lane by lane), so verdicts and
/// the first reported counterexample are bit-identical to the per-pair
/// checks.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if `width > 16` (the sweep would not terminate reasonably);
/// the scalar fallback additionally panics if the `p` bus exceeds 64
/// bits (lane products must fit one `u64` — the compiled path falls
/// back to scalar for such netlists and hits the same check).
pub fn check_exhaustive_batched(
    netlist: &Netlist,
    width: u32,
    block_model: impl Fn(u64, u64, &mut [u64; bitplane::LANES]) + Sync,
    engine: Engine,
) -> Result<(), Box<Mismatch>> {
    assert!(
        width <= 16,
        "exhaustive equivalence beyond 16 bits is impractical"
    );
    let count = 1u64 << width;
    let check_block = |a: u64, b0: u64, valid: usize, got: &[u64; bitplane::LANES]| {
        let mut expect = [0u64; bitplane::LANES];
        block_model(a, b0, &mut expect);
        for i in 0..valid {
            if got[i] != expect[i] {
                return Some(Box::new(Mismatch {
                    a: u128::from(a),
                    b: u128::from(b0 + i as u64),
                    netlist_product: U256::from_u128(u128::from(got[i])),
                    model_product: U256::from_u128(u128::from(expect[i])),
                }));
            }
        }
        None
    };
    let found = match engine {
        Engine::Compiled if compiled_supports(netlist, width) => {
            exhaustive_walk_compiled_blocks(netlist, count, check_block)
        }
        _ => {
            // Scalar netlist walk, same block-model consumption order.
            let mut sim = LogicSim::new(netlist);
            let mut found = None;
            'rows: for a in 0..count {
                let mut b0 = 0u64;
                while b0 < count {
                    let valid = (count - b0).min(bitplane::LANES as u64) as usize;
                    let mut got = [0u64; bitplane::LANES];
                    for (i, lane) in got.iter_mut().enumerate().take(valid) {
                        sim.apply(&ab_stimulus(
                            netlist,
                            u128::from(a),
                            u128::from(b0 + i as u64),
                        ));
                        *lane = read_product_u64(&sim, netlist);
                    }
                    if let Some(err) = check_block(a, b0, valid, &got) {
                        found = Some(err);
                        break 'rows;
                    }
                    b0 += bitplane::LANES as u64;
                }
            }
            found
        }
    };
    match found {
        Some(mismatch) => Err(mismatch),
        None => Ok(()),
    }
}

/// Reads the `p` output bus of a scalar sweep as a raw `u64` pattern (the
/// batched checks' product domain).
fn read_product_u64(sim: &LogicSim<'_>, netlist: &Netlist) -> u64 {
    let bits = netlist.bus("p").expect("output bus `p`");
    assert!(bits.len() <= 64, "batched checks need products <= 64 bits");
    bits.iter()
        .enumerate()
        .map(|(i, net)| u64::from(sim.value(*net)) << i)
        .sum()
}

// ---------------------------------------------------------------------
// Operand domains and the generic sweeps.
// ---------------------------------------------------------------------

/// An operand domain of the checks. Operands travel as bus bit patterns
/// and products as the raw `p` bus pattern; the domain supplies the
/// corner patterns, decodes a pair and judges it against its model.
trait Domain: Sync {
    /// The counterexample the domain reports.
    type Mismatch: Send;

    /// Corner patterns of one operand, in sweep order.
    fn corners(width: u32) -> Vec<u128>;

    /// Decodes the operand patterns, compares the raw product with the
    /// model's and builds the counterexample if they differ.
    fn check(&self, a: u128, b: u128, raw: &U256) -> Option<Box<Self::Mismatch>>;

    /// [`Domain::check`] on one lane of the compiled walkers.
    fn check_lane(&self, a: u64, b: u64, raw: u64) -> Option<Box<Self::Mismatch>> {
        self.check(
            u128::from(a),
            u128::from(b),
            &U256::from_u128(u128::from(raw)),
        )
    }
}

/// The unsigned domain: patterns are the operands.
struct Unsigned<M>(M);

impl<M: Fn(u128, u128) -> U256 + Sync> Domain for Unsigned<M> {
    type Mismatch = Mismatch;

    fn corners(width: u32) -> Vec<u128> {
        vec![0, 1, pattern_mask(width)]
    }

    fn check(&self, a: u128, b: u128, raw: &U256) -> Option<Box<Mismatch>> {
        let expect = (self.0)(a, b);
        (*raw != expect).then(|| {
            Box::new(Mismatch {
                a,
                b,
                netlist_product: *raw,
                model_product: expect,
            })
        })
    }
}

/// The two's-complement domain: `width`-bit operand patterns, `2·width`-bit
/// product patterns.
struct TwosComplement<M> {
    width: u32,
    model: M,
}

impl<M: Fn(i128, i128) -> I256 + Sync> Domain for TwosComplement<M> {
    type Mismatch = SignedMismatch;

    fn corners(width: u32) -> Vec<u128> {
        // 0, 1, −1 = 11…1, MAX = 01…1, MIN = 10…0.
        let min = 1u128 << (width - 1);
        vec![0, 1, pattern_mask(width), min - 1, min]
    }

    fn check(&self, ua: u128, ub: u128, raw: &U256) -> Option<Box<SignedMismatch>> {
        let got = I256::from_twos_complement(raw, 2 * self.width);
        let (a, b) = (sign_extend(ua, self.width), sign_extend(ub, self.width));
        let expect = (self.model)(a, b);
        (got != expect).then(|| {
            Box::new(SignedMismatch {
                a,
                b,
                netlist_product: got,
                model_product: expect,
            })
        })
    }
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

/// Runs one check: the coverage picks the sweep, the engine (and whether
/// the compiled program can drive this netlist) picks its walker.
fn sweep<D: Domain>(
    netlist: &Netlist,
    width: u32,
    coverage: Coverage,
    engine: Engine,
    domain: &D,
) -> Result<u64, Box<D::Mismatch>> {
    let compiled = engine == Engine::Compiled && compiled_supports(netlist, width);
    match coverage {
        Coverage::Exhaustive => exhaustive(netlist, width, compiled, domain),
        Coverage::Sampled { samples, seed } => {
            sampled(netlist, width, samples, seed, compiled, domain)
        }
    }
}

/// Every pattern pair in row-major order.
fn exhaustive<D: Domain>(
    netlist: &Netlist,
    width: u32,
    compiled: bool,
    domain: &D,
) -> Result<u64, Box<D::Mismatch>> {
    assert!(
        width <= 16,
        "exhaustive equivalence beyond 16 bits is impractical"
    );
    let count = 1u64 << width;
    let found = if compiled {
        exhaustive_walk_compiled(netlist, count, |a, b, raw| domain.check_lane(a, b, raw))
    } else {
        let mut sim = LogicSim::new(netlist);
        (0..u128::from(count)).find_map(|a| {
            (0..u128::from(count)).find_map(|b| scalar_pair(netlist, &mut sim, a, b, domain))
        })
    };
    found.map_or(Ok(count * count), Err)
}

/// The domain's corner pairs, then `samples` seeded pattern draws. Both
/// walkers iterate exactly this sequence, which is what makes their first
/// counterexamples identical.
fn sampled<D: Domain>(
    netlist: &Netlist,
    width: u32,
    samples: u64,
    seed: u64,
    compiled: bool,
    domain: &D,
) -> Result<u64, Box<D::Mismatch>> {
    let corners = D::corners(width);
    let mut rng = SplitMix64::new(seed);
    let mut pairs = corners
        .iter()
        .flat_map(|&a| corners.iter().map(move |&b| (a, b)))
        .chain((0..samples).map(move |_| {
            let a = draw_pattern(&mut rng, width);
            let b = draw_pattern(&mut rng, width);
            (a, b)
        }));
    let found = if compiled {
        let pairs: Vec<(u64, u64)> = pairs.map(|(a, b)| (a as u64, b as u64)).collect();
        pairs_walk_compiled(netlist, &pairs, |a, b, raw| domain.check_lane(a, b, raw))
    } else {
        let mut sim = LogicSim::new(netlist);
        pairs.find_map(|(a, b)| scalar_pair(netlist, &mut sim, a, b, domain))
    };
    let corner_pairs = (corners.len() * corners.len()) as u64;
    found.map_or(Ok(corner_pairs + samples), Err)
}

fn draw_pattern(rng: &mut SplitMix64, width: u32) -> u128 {
    if width <= 64 {
        u128::from(rng.next_bits(width))
    } else {
        (u128::from(rng.next_bits(width - 64)) << 64) | u128::from(rng.next_u64())
    }
}

/// One pair through the scalar reference engine.
fn scalar_pair<D: Domain>(
    netlist: &Netlist,
    sim: &mut LogicSim<'_>,
    a: u128,
    b: u128,
    domain: &D,
) -> Option<Box<D::Mismatch>> {
    sim.apply(&ab_stimulus(netlist, a, b));
    domain.check(a, b, &read_product(sim, netlist))
}

/// Reads the `p` output bus as a [`U256`] regardless of width.
fn read_product(sim: &LogicSim<'_>, netlist: &Netlist) -> U256 {
    let bits = netlist.bus("p").expect("output bus `p`");
    let mut out = U256::ZERO;
    for (i, net) in bits.iter().enumerate() {
        if sim.value(*net) {
            out.set_bit(i as u32, true);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Compiled word-parallel sweeps.
// ---------------------------------------------------------------------

/// Whether the compiled fast path can drive this netlist at this operand
/// width: the `a`/`b` operand buses and the `p` product bus must each fit
/// one 64-lane plane stack, and the operand buses must be at least
/// `width` bits so packed operands are never truncated. Checks beyond
/// these bounds fall back to the scalar engine — which, for operands
/// overflowing their bus, preserves the loud `ab_stimulus` panic instead
/// of a silently truncated sweep.
fn compiled_supports(netlist: &Netlist, width: u32) -> bool {
    let operand_fits = |name: &str| {
        netlist
            .bus(name)
            .is_some_and(|bus| (width as usize..=64).contains(&bus.len()))
    };
    operand_fits("a") && operand_fits("b") && netlist.bus("p").is_some_and(|bus| bus.len() <= 64)
}

/// Pre-resolved `a`/`b`/`p` port map for the compiled sweeps: stimulus
/// slots are written straight from operand bit-planes, products read
/// straight from the `p` nets.
struct AbPorts {
    /// Per primary input (netlist order): operand bus (false = `a`) and
    /// bit position within it.
    input_src: Vec<(bool, usize)>,
    a_len: u32,
    b_len: u32,
    p_nets: Vec<NetId>,
}

impl AbPorts {
    fn of(netlist: &Netlist) -> Self {
        let bus_a = netlist.bus("a").expect("input bus `a`");
        let bus_b = netlist.bus("b").expect("input bus `b`");
        let p_nets = netlist.bus("p").expect("output bus `p`").to_vec();
        assert_eq!(
            netlist.inputs().len(),
            bus_a.len() + bus_b.len(),
            "netlist has inputs beyond a/b"
        );
        let input_src = netlist
            .inputs()
            .iter()
            .map(|&input| {
                if let Some(j) = bus_a.iter().position(|&n| n == input) {
                    (false, j)
                } else {
                    let j = bus_b
                        .iter()
                        .position(|&n| n == input)
                        .expect("net in a bus");
                    (true, j)
                }
            })
            .collect();
        Self {
            input_src,
            a_len: bus_a.len() as u32,
            b_len: bus_b.len() as u32,
            p_nets,
        }
    }

    fn fill_stimulus(&self, a_planes: &[u64], b_planes: &[u64], stimulus: &mut [u64]) {
        for (slot, &(is_b, bit)) in stimulus.iter_mut().zip(&self.input_src) {
            *slot = if is_b { b_planes[bit] } else { a_planes[bit] };
        }
    }

    /// Decodes the 64 per-lane products from the `p` bus planes, using
    /// the cheapest bitplane transpose that fits the product width.
    fn product_lanes(&self, sim: &CompiledSim<'_>, out: &mut [u64; bitplane::LANES]) {
        let len = self.p_nets.len();
        if len <= 16 {
            let mut planes = [0u64; 16];
            for (plane, &net) in planes.iter_mut().zip(&self.p_nets) {
                *plane = sim.plane(net);
            }
            let lanes = bitplane::lanes_from_planes16(&planes);
            for (o, &l) in out.iter_mut().zip(&lanes) {
                *o = u64::from(l);
            }
        } else if len <= 32 {
            let mut planes = [0u64; 32];
            for (plane, &net) in planes.iter_mut().zip(&self.p_nets) {
                *plane = sim.plane(net);
            }
            let lanes = bitplane::lanes_from_planes32(&planes);
            for (o, &l) in out.iter_mut().zip(&lanes) {
                *o = u64::from(l);
            }
        } else {
            let mut planes = [0u64; bitplane::LANES];
            for (plane, &net) in planes.iter_mut().zip(&self.p_nets) {
                *plane = sim.plane(net);
            }
            *out = bitplane::transposed64(&planes);
        }
    }
}

/// Sweeps the full `count × count` operand rectangle in row-major order,
/// 64 consecutive `b` values per sweep, rows sharded across threads via
/// the shared chunk splitter. `check_pair(a, b, netlist_product_lane)`
/// is called in exact scalar order within each chunk; the first `Some`
/// across chunks (merged in chunk order) is therefore the same
/// counterexample the scalar engine reports.
fn exhaustive_walk_compiled<E: Send>(
    netlist: &Netlist,
    count: u64,
    check_pair: impl Fn(u64, u64, u64) -> Option<Box<E>> + Sync,
) -> Option<Box<E>> {
    exhaustive_walk_compiled_blocks(netlist, count, |a, b0, valid, lanes| {
        for (i, &got) in lanes.iter().enumerate().take(valid) {
            if let Some(err) = check_pair(a, b0 + i as u64, got) {
                return Some(err);
            }
        }
        None
    })
}

/// The block form of the compiled exhaustive sweep: `check_block(a, b0,
/// valid, product_lanes)` receives one whole 64-lane block per call (lane
/// `i` is the netlist's raw product for `(a, b0 + i)`; only the first
/// `valid` lanes are meaningful). Blocks arrive in exact row-major scalar
/// order within each chunk, chunks merge in order — same
/// first-counterexample guarantee as the per-pair walk.
fn exhaustive_walk_compiled_blocks<E: Send>(
    netlist: &Netlist,
    count: u64,
    check_block: impl Fn(u64, u64, usize, &[u64; bitplane::LANES]) -> Option<Box<E>> + Sync,
) -> Option<Box<E>> {
    let program = CompiledNetlist::compile(netlist);
    let ports = AbPorts::of(netlist);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let partials = parallel_chunks(count, threads, |lo, hi| {
        let mut sim = CompiledSim::new(&program);
        let mut stimulus = vec![0u64; netlist.inputs().len()];
        let mut a_planes = vec![0u64; ports.a_len as usize];
        let mut b_planes = vec![0u64; ports.b_len as usize];
        let mut lanes = [0u64; bitplane::LANES];
        for a in lo..hi {
            bitplane::broadcast_planes(a, ports.a_len, &mut a_planes);
            let mut b0 = 0u64;
            while b0 < count {
                bitplane::counter_planes(b0, ports.b_len, &mut b_planes);
                ports.fill_stimulus(&a_planes, &b_planes, &mut stimulus);
                sim.evaluate(&stimulus);
                ports.product_lanes(&sim, &mut lanes);
                let valid = (count - b0).min(bitplane::LANES as u64) as usize;
                if let Some(err) = check_block(a, b0, valid, &lanes) {
                    return Some(err);
                }
                b0 += bitplane::LANES as u64;
            }
        }
        None
    });
    partials.into_iter().flatten().next()
}

/// Sweeps an explicit pair list (the sampled sequence) in order, 64 pairs
/// per sweep, blocks sharded across threads. Lane decoding follows list
/// order, so the first `Some` matches the scalar engine's.
fn pairs_walk_compiled<E: Send>(
    netlist: &Netlist,
    pairs: &[(u64, u64)],
    check_pair: impl Fn(u64, u64, u64) -> Option<Box<E>> + Sync,
) -> Option<Box<E>> {
    let program = CompiledNetlist::compile(netlist);
    let ports = AbPorts::of(netlist);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blocks = pairs.len().div_ceil(bitplane::LANES) as u64;
    let partials = parallel_chunks(blocks, threads, |lo, hi| {
        let mut sim = CompiledSim::new(&program);
        let mut stimulus = vec![0u64; netlist.inputs().len()];
        let mut lanes = [0u64; bitplane::LANES];
        for block in lo..hi {
            let base = block as usize * bitplane::LANES;
            let chunk = &pairs[base..pairs.len().min(base + bitplane::LANES)];
            let mut a_lanes = [0u64; bitplane::LANES];
            let mut b_lanes = [0u64; bitplane::LANES];
            for (i, &(a, b)) in chunk.iter().enumerate() {
                a_lanes[i] = a;
                b_lanes[i] = b;
            }
            let a_planes = bitplane::transposed64(&a_lanes);
            let b_planes = bitplane::transposed64(&b_lanes);
            ports.fill_stimulus(
                &a_planes[..ports.a_len as usize],
                &b_planes[..ports.b_len as usize],
                &mut stimulus,
            );
            sim.evaluate(&stimulus);
            ports.product_lanes(&sim, &mut lanes);
            for (i, &(a, b)) in chunk.iter().enumerate() {
                if let Some(err) = check_pair(a, b, lanes[i]) {
                    return Some(err);
                }
            }
        }
        None
    });
    partials.into_iter().flatten().next()
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
