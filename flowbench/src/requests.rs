//! The three workloads and the seeded design requests each one cycles
//! through.
//!
//! Every workload is one `sdlc-cli` flow. Its request list is a fixed grid
//! over the design knobs that set the flow's cost (reduction scheme, cluster
//! depth, signedness), so runs with different seeds do the same amount of
//! work. The seed picks the knobs that do not move the cost — the cluster
//! variant or a heterogeneous depth partition — and the order of the list.

use sdlc::core::circuits::ReductionScheme;
use sdlc::core::{ClusterVariant, SdlcMultiplier};

/// One `sdlc-cli` flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Errors,
    Verify,
    Synth,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Errors, Workload::Verify, Workload::Synth];

    /// The workload's name, which is also its `sdlc-cli` subcommand.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Errors => "errors",
            Workload::Verify => "verify",
            Workload::Synth => "synth",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cluster structure of the approximate multiplier.
#[derive(Debug, Clone)]
pub enum Clusters {
    /// `--depth D --variant V`.
    Uniform(u32, ClusterVariant),
    /// `--depths A,B,..` (always the progressive variant).
    Mixed(Vec<u32>),
}

/// One request: a flow applied to one design point.
#[derive(Debug, Clone)]
pub struct Request {
    pub workload: Workload,
    pub width: u32,
    pub clusters: Clusters,
    pub scheme: ReductionScheme,
    pub signed: bool,
}

const VARIANTS: [(ClusterVariant, &str); 4] = [
    (ClusterVariant::Progressive, "prog"),
    (ClusterVariant::CeilTails, "ceiltails"),
    (ClusterVariant::PairTails, "pairtails"),
    (ClusterVariant::FullOr, "fullor"),
];

impl Request {
    pub fn model(&self) -> Result<SdlcMultiplier, String> {
        match &self.clusters {
            Clusters::Uniform(depth, variant) => {
                SdlcMultiplier::with_variant(self.width, *depth, *variant)
            }
            Clusters::Mixed(depths) => SdlcMultiplier::with_group_depths(self.width, depths),
        }
        .map_err(|e| e.to_string())
    }

    /// The `sdlc-cli` arguments that run this request.
    pub fn cli_args(&self) -> Vec<String> {
        let mut args = vec![
            self.workload.name().to_string(),
            "--width".into(),
            self.width.to_string(),
        ];
        match &self.clusters {
            Clusters::Uniform(depth, variant) => {
                let tag = VARIANTS
                    .iter()
                    .find(|(v, _)| v == variant)
                    .map(|(_, tag)| *tag)
                    .expect("every variant has a CLI tag");
                args.extend(["--depth".into(), depth.to_string()]);
                args.extend(["--variant".into(), tag.to_string()]);
            }
            Clusters::Mixed(depths) => {
                let list: Vec<String> = depths.iter().map(u32::to_string).collect();
                args.extend(["--depths".into(), list.join(",")]);
            }
        }
        match self.workload {
            Workload::Errors => args.extend(["--engine".into(), "bitsliced".into()]),
            Workload::Verify | Workload::Synth => {
                args.extend(["--scheme".into(), self.scheme.tag().into()]);
            }
        }
        if self.signed {
            args.push("--signed".into());
        }
        args
    }
}

/// SplitMix64: the benchmark's own input generator, kept apart from the
/// library's so that library changes cannot change the inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn uniform(rng: &mut Rng, depth: u32) -> Clusters {
    Clusters::Uniform(depth, VARIANTS[rng.below(4) as usize].0)
}

/// A random partition of `width` rows into clusters of at most `depth`
/// rows, one of which has exactly `depth`.
fn mixed(rng: &mut Rng, width: u32, depth: u32) -> Clusters {
    let mut parts = vec![depth];
    let mut left = width - depth;
    while left > 0 {
        let part = 1 + rng.below(u64::from(depth.min(left))) as u32;
        parts.push(part);
        left -= part;
    }
    shuffle(rng, &mut parts);
    Clusters::Mixed(parts)
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The request list of `workload` for `seed`: the same seed gives the
/// same list.
pub fn requests(workload: Workload, seed: u64) -> Vec<Request> {
    let mut rng = Rng(seed ^ (workload as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let request = |width, clusters, scheme, signed| Request {
        workload,
        width,
        clusters,
        scheme,
        signed,
    };
    let mut list = Vec::new();
    match workload {
        // Exhaustive 10-bit sweeps (2^20 pairs) on the bit-sliced engine.
        Workload::Errors => {
            for depth in 2..=5 {
                let default = ReductionScheme::default();
                list.push(request(10, uniform(&mut rng, depth), default, false));
                list.push(request(10, mixed(&mut rng, 10, depth), default, false));
            }
        }
        // Netlist flows: every scheme at a shallow and a deep clustering,
        // unsigned and signed. `verify` sweeps exhaustively, so its signed
        // designs (no batched model side) are two bits narrower.
        Workload::Verify | Workload::Synth => {
            let width = |signed: bool| match (workload, signed) {
                (Workload::Verify, false) => 10,
                (Workload::Verify, true) => 8,
                _ => 16,
            };
            for scheme in ReductionScheme::all() {
                for depth in [2, 4] {
                    for signed in [false, true] {
                        list.push(request(
                            width(signed),
                            uniform(&mut rng, depth),
                            scheme,
                            signed,
                        ));
                    }
                }
            }
        }
    }
    shuffle(&mut rng, &mut list);
    list
}
