//! Compiled word-parallel glitch-activity engine.
//!
//! [`crate::TimingSim`] observes glitches by event-driven simulation: one
//! vector pair at a time, a `Vec<bool>` allocation per gate evaluation,
//! and a heap push per candidate transition. That made `glitch_power` the
//! slow tail of the synthesis flow once zero-delay activity moved to the
//! compiled engine.
//!
//! This module compiles the netlist into a [`TimedProgram`] — the timing
//! twin of [`crate::CompiledNetlist`]: dense struct-of-arrays ops with
//! per-op **fixed-point delays** and CSR fanout lists, plus per-net
//! **arrival-time metadata** (STA-style upper bounds computed from the
//! same `sdlc-techlib` load model). Unlike the zero-delay program it does
//! *not* fold buffers or constant-fed gates: every cell has its own delay,
//! and folding would change which pulses get inertially filtered.
//!
//! [`GlitchSim`] then runs **[`WHEEL_LANES`] independent stimulus
//! streams** ([`WHEEL_WORDS`] words of 64 lanes; lane `64 w + i` is bit
//! `i` of word `w`) through one shared event wheel. Event *times* are
//! lane-independent — delays are per-op constants, so two lanes whose
//! activity travels the same path schedule events at the same
//! `(time, op)` key — which is where the word-parallelism comes from: one
//! wheel entry carries a mask of the lanes scheduled to each value, one
//! pop re-evaluates the op for all lanes at once, and the inertial
//! cancellation rule (`fire only if the scheduled value still matches the
//! gate's present evaluation and differs from its output`) becomes three
//! lane-wide boolean ops.
//!
//! The emulation is **exact**: for identical per-lane stimulus streams,
//! per-net transition counts (functional toggles *and* glitches), total
//! transitions and settle times match [`crate::TimingSim`] lane for lane
//! — the engines share the delay model ([`sdlc_techlib::Library::gate_delays_ps`]),
//! the 1/1024 ps quantization, the input-processing order and the
//! `(time, gate, value)` pop order. `tests/glitch_differential.rs` proves
//! it on random gate DAGs and every generator family.

use sdlc_netlist::{GateKind, NetId, Netlist};
use sdlc_techlib::Library;

use crate::ops::{
    scatter_toggles, source_slots, Lanes, Op, Plane, SLOT_CONST0, SLOT_CONST1, WHEEL_LANES,
    WHEEL_WORDS,
};
use crate::timing::to_fixed_ps;

/// A [`Netlist`] flattened into a timed program: the compile-once side of
/// the word-parallel glitch engine.
///
/// Shared by reference across worker threads; each thread runs its own
/// [`GlitchSim`].
#[derive(Debug, Clone)]
pub struct TimedProgram {
    /// One op per logic cell. `Buf` is a real op here — a buffer has a
    /// real delay and can filter pulses, so the timing engine keeps it.
    code: Vec<Op>,
    src0: Vec<u32>,
    src1: Vec<u32>,
    src2: Vec<u32>,
    dst: Vec<u32>,
    /// Inertial delay per op in 1/1024 ps ticks, from the shared
    /// load-dependent delay model.
    delay_ticks: Vec<u64>,
    /// CSR fanout: ops reading slot `s` are
    /// `fanout_ops[fanout_start[s]..fanout_start[s + 1]]`, in program
    /// order (the scalar engine's scheduling order).
    fanout_start: Vec<u32>,
    fanout_ops: Vec<u32>,
    /// Net index → value-slot index.
    slot_of_net: Vec<u32>,
    /// Slot per primary input, in declaration order.
    input_slots: Vec<u32>,
    /// STA-style worst-case arrival time per slot in 1/1024 ps ticks (0
    /// for inputs and constants), computed in the same fixed-point domain
    /// as the event queue — an *exact* upper bound on any event time the
    /// simulator can ever schedule for that net (a plain f64 STA sum is
    /// not: per-gate rounding makes tick sums drift past it on deep
    /// paths).
    arrival_ticks: Vec<u64>,
}

impl TimedProgram {
    /// Compiles the netlist against a library's delay model.
    ///
    /// # Panics
    ///
    /// Panics if the netlist violates the feed-forward discipline.
    #[must_use]
    pub fn compile(netlist: &Netlist, library: &Library) -> Self {
        let delays_ps = library.gate_delays_ps(netlist);
        let mut slot_of_net = vec![u32::MAX; netlist.net_count()];
        let mut input_slots = Vec::with_capacity(netlist.inputs().len());
        // One arrival per slot: the two constants, then inputs and ops.
        let mut arrival_ticks = vec![0u64, 0];
        let mut code = Vec::new();
        let (mut src0, mut src1, mut src2) = (Vec::new(), Vec::new(), Vec::new());
        let mut dst = Vec::new();
        let mut delay_ticks = Vec::new();
        for (gate, &delay) in netlist.gates().iter().zip(&delays_ps) {
            let out = gate.output.index();
            match gate.kind {
                GateKind::Input => {
                    let s = arrival_ticks.len() as u32;
                    slot_of_net[out] = s;
                    input_slots.push(s);
                    arrival_ticks.push(0);
                }
                GateKind::Const0 => slot_of_net[out] = SLOT_CONST0,
                GateKind::Const1 => slot_of_net[out] = SLOT_CONST1,
                kind => {
                    let opcode = Op::of(kind).expect("port kinds handled above");
                    let [a, b, c] = source_slots(&slot_of_net, gate);
                    let d = arrival_ticks.len() as u32;
                    code.push(opcode);
                    src0.push(a);
                    src1.push(b);
                    src2.push(c);
                    dst.push(d);
                    let ticks = to_fixed_ps(delay);
                    delay_ticks.push(ticks);
                    let input_arrival = arrival_ticks[a as usize]
                        .max(arrival_ticks[b as usize])
                        .max(arrival_ticks[c as usize]);
                    arrival_ticks.push(input_arrival + ticks);
                    slot_of_net[out] = d;
                }
            }
        }
        // CSR fanout per slot, ops in program order.
        let slot_count = arrival_ticks.len();
        let mut fanout_start = vec![0u32; slot_count + 1];
        // Only a cell's own pins count (its unused source slots repeat pin
        // 0), so fanout multiplicity matches the scalar engine's lists.
        let sources = |op: usize| {
            [src0[op], src1[op], src2[op]]
                .into_iter()
                .take(code[op].arity())
        };
        for op in 0..code.len() {
            for s in sources(op) {
                fanout_start[s as usize + 1] += 1;
            }
        }
        for i in 1..fanout_start.len() {
            fanout_start[i] += fanout_start[i - 1];
        }
        let mut fanout_ops = vec![0u32; fanout_start[slot_count] as usize];
        let mut next = fanout_start.clone();
        for op in 0..code.len() {
            for s in sources(op) {
                fanout_ops[next[s as usize] as usize] = op as u32;
                next[s as usize] += 1;
            }
        }
        Self {
            code,
            src0,
            src1,
            src2,
            dst,
            delay_ticks,
            fanout_start,
            fanout_ops,
            slot_of_net,
            input_slots,
            arrival_ticks,
        }
    }

    /// Number of timed ops (every logic cell, buffers included).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Number of value slots.
    fn slot_count(&self) -> usize {
        self.arrival_ticks.len()
    }

    /// The deepest arrival time of any net — the program's critical path
    /// under the same load model as `sdlc-synth`'s STA, and an exact
    /// upper bound on every lane's settle time (for both timing engines:
    /// the scalar one sums the same quantized delays).
    #[must_use]
    pub fn critical_arrival_ps(&self) -> f64 {
        self.critical_ticks() as f64 / 1024.0
    }

    fn critical_ticks(&self) -> u64 {
        self.arrival_ticks.iter().copied().max().unwrap_or(0)
    }

    fn fanout(&self, slot: u32) -> &[u32] {
        let lo = self.fanout_start[slot as usize] as usize;
        let hi = self.fanout_start[slot as usize + 1] as usize;
        &self.fanout_ops[lo..hi]
    }

    /// Evaluates op `op` on the current value planes — the one evaluation
    /// [`GlitchSim::settle`]'s zero-delay pass and the event loop of
    /// [`GlitchSim::apply`] share, so the two can never drift apart.
    #[inline]
    fn eval(&self, values: &[Lanes], op: usize) -> Lanes {
        // Sources load on demand: the event loop measured slower loading
        // all three up front.
        self.code[op].eval(|pin| {
            let slot = match pin {
                0 => self.src0[op],
                1 => self.src1[op],
                _ => self.src2[op],
            };
            values[slot as usize]
        })
    }
}

/// Result of settling one input transition of every lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchApplyResult {
    /// Net transitions summed over all [`WHEEL_LANES`] lanes (glitches
    /// included) — the sum of the per-lane
    /// [`crate::ApplyResult::transitions`].
    pub transitions: u64,
    /// Time of the last transition in any lane, in ps — the maximum of
    /// the per-lane settle times (bounded by
    /// [`TimedProgram::critical_arrival_ps`]).
    pub settle_ps: f64,
}

/// Widest op field of a packed wheel key. A key is `(time << op_bits) |
/// op`, op in the low bits so keys order by time first, then op — the
/// scalar heap's order. `op_bits` is just wide enough for the program's
/// op indices, at most this.
const MAX_OP_BITS: u32 = 24;

/// One scheduled event as the wheel sorts it: its packed `(time, op)` key
/// and the index of its lane masks in its bucket's arena. Several events
/// may share a key; the drain ORs their masks together.
#[derive(Debug, Clone, Copy, Default)]
struct Event {
    key: u64,
    index: usize,
}

/// The lanes an event schedules to value 0 and to value 1.
#[derive(Debug, Clone, Copy)]
struct Masks {
    low: Lanes,
    high: Lanes,
}

/// One ring slot of the event wheel: its unsorted events and the arena of
/// their masks. Sorting moves only the 16-byte events; the 64-byte masks
/// stay where they were written until the drain reads them.
#[derive(Debug, Clone, Default)]
struct Bucket {
    events: Vec<Event>,
    masks: Vec<Masks>,
}

impl Bucket {
    fn push(&mut self, key: u64, masks: Masks) {
        self.events.push(Event {
            key,
            index: self.masks.len(),
        });
        self.masks.push(masks);
    }

    /// Moves `other`'s events and masks to the end of this bucket,
    /// rebasing their arena indices past this bucket's masks.
    fn absorb(&mut self, other: &mut Bucket) {
        let base = self.masks.len();
        self.events.extend(other.events.drain(..).map(|e| Event {
            key: e.key,
            index: e.index + base,
        }));
        self.masks.append(&mut other.masks);
    }

    fn clear(&mut self) {
        self.events.clear();
        self.masks.clear();
    }
}

/// Runs shorter than this are ordered by a comparison sort.
const RADIX_MIN: usize = 64;

/// Runs longer than this are split by their top key digit before the LSD
/// passes. Such a run of 16-byte events and its second buffer take 2 MB,
/// a per-core L2 cache; split, each LSD pass scatters within cache. Only
/// the widest arrays have such buckets (4-word wheels average 19 k events
/// per bucket at 64 bits, 97 k at 128), and only at 128 bits did the
/// threshold measurably matter. Paired one-core `synth --width 128` runs
/// against `1 << 15`: `1 << 16` won 9 of 10 pairs (by about 5 %), no
/// split 1 of 6 and `1 << 14` 0 of 2; at 64 bits all were within noise.
const CACHE_EVENTS: usize = 1 << 16;

/// Widest radix digit, in bits.
const RADIX_BITS: u32 = 11;

/// Orders a wheel bucket's events by key (see [`sort_run`]); `scratch` is
/// the sort's reusable second buffer.
fn sort_events(events: &mut [Event], scratch: &mut Vec<Event>) {
    scratch.resize(events.len(), Event::default());
    sort_run(events, scratch);
}

/// Orders `events` by key, with `scratch` (as long) as the second buffer:
/// a comparison sort for short runs, otherwise a radix sort over the low
/// key bits up to the highest one that varies across `events`. Inside one
/// wheel bucket the time bits above the bucket span are all equal, so
/// they cost no pass. Runs that fit in cache take stable LSD passes of at
/// most [`RADIX_BITS`]; longer ones are first split by their top digit
/// (one MSD pass), and each part is sorted the same way.
fn sort_run(events: &mut [Event], scratch: &mut [Event]) {
    if events.len() < RADIX_MIN {
        events.sort_unstable_by_key(|e| e.key);
        return;
    }
    let (any, all) = events
        .iter()
        .fold((0u64, u64::MAX), |(any, all), e| (any | e.key, all & e.key));
    let bits = 64 - (any ^ all).leading_zeros();
    if bits == 0 {
        return; // one key throughout
    }
    let mut counts = [0u32; 1 << RADIX_BITS];
    // Scatters `src` into `dst` by the `width`-bit digit at `shift`,
    // stably; leaves each digit's end offset in `counts`.
    let mut scatter = |src: &[Event], dst: &mut [Event], shift: u32, width: u32| {
        let digit = |key: u64| ((key >> shift) & ((1 << width) - 1)) as usize;
        let counts = &mut counts[..1 << width];
        counts.fill(0);
        for e in src {
            counts[digit(e.key)] += 1;
        }
        let mut start = 0;
        for count in counts.iter_mut() {
            (*count, start) = (start, start + *count);
        }
        for e in src {
            let next = &mut counts[digit(e.key)];
            dst[*next as usize] = *e;
            *next += 1;
        }
    };
    if events.len() > CACHE_EVENTS {
        let width = bits.min(RADIX_BITS);
        scatter(events, scratch, bits - width, width);
        let mut start = 0;
        for &end in &counts[..1 << width] {
            let end = end as usize;
            let (part, spare) = (&mut scratch[start..end], &mut events[start..end]);
            sort_run(part, spare);
            spare.copy_from_slice(part);
            start = end;
        }
        return;
    }
    let passes = bits.div_ceil(RADIX_BITS);
    let width = bits.div_ceil(passes);
    let (mut src, mut dst) = (events, scratch);
    for pass in 0..passes {
        scatter(src, dst, pass * width, width);
        std::mem::swap(&mut src, &mut dst);
    }
    if passes % 2 == 1 {
        // The sorted run is in `scratch`.
        dst.copy_from_slice(src);
    }
}

/// [`WHEEL_LANES`]-lane event-driven executor over a [`TimedProgram`] —
/// the exact word-parallel twin of [`crate::TimingSim`].
///
/// Each lane of a stimulus plane (lane `64 w + i` is bit `i` of word `w`)
/// is an independent vector stream; per lane, transition accounting
/// (inertial pulse filtering included) is identical to running one scalar
/// `TimingSim` on that stream. A caller with fewer streams holds the
/// spare lanes constant, and they count nothing.
///
/// The event wheel is a **ring of time buckets**. An event is a packed
/// `(time, op)` key and the index of its lane masks in its bucket's mask
/// arena; it lands in bucket `time >> bucket_shift`, whose span is about
/// one minimum gate delay. No event is scheduled more than the largest
/// gate delay ahead, so a small power-of-two ring of reused buckets holds
/// every pending one. When the drain reaches a bucket it radix-sorts the
/// bucket's events (not their masks) by key; events that share a key are
/// then adjacent, and one pop ORs their masks together (OR commutes, so
/// this equals merging them as they are scheduled). Keys whose delay
/// folds back into the bucket being drained (possible only for delays
/// shorter than the span) move into it, arena and all, and trigger a
/// re-sort of the unprocessed tail. So keys always pop in the scalar
/// engine's exact `(time, gate)` order, at sequential-scan cost instead
/// of heap-sift cost. Buckets, arenas and sort buffers keep their
/// capacity across `apply` calls.
#[derive(Debug, Clone)]
pub struct GlitchSim<'p> {
    program: &'p TimedProgram,
    values: Vec<Lanes>,
    toggles: Vec<u64>,
    /// Ring of time buckets: events of logical bucket `t >> bucket_shift`
    /// sit in `ring[(t >> bucket_shift) & (ring.len() - 1)]`, unsorted
    /// until drained.
    ring: Vec<Bucket>,
    bucket_shift: u32,
    /// Width of the op field of the packed keys: just enough for the
    /// program's op indices, so the radix sort orders as few bits as it
    /// can.
    op_bits: u32,
    /// The last logical bucket any event can land in.
    last_bucket: usize,
    /// A spare bucket, swapped into the ring slot the drain empties, and
    /// the radix sort's second buffer; both keep their capacity.
    drain: Bucket,
    scratch: Vec<Event>,
    settled_once: bool,
}

impl<'p> GlitchSim<'p> {
    /// Whether [`GlitchSim::new`] accepts `program`: its op indices and
    /// event times must fit the packed wheel keys. Real netlists are far
    /// inside both limits; a library with extreme loads can push the
    /// critical path past the second.
    pub(crate) fn accepts(program: &TimedProgram) -> bool {
        (program.op_count() as u64) < (1 << MAX_OP_BITS)
            && program.critical_ticks() < (1 << (64 - MAX_OP_BITS))
    }

    /// Creates an executor with all lanes at 0 (constants pre-loaded).
    ///
    /// # Panics
    ///
    /// Panics if the program has 2^24 ops or more, or a critical path of
    /// 2^40 ticks (≈ 1.07 ms) or more: the packed wheel-key budget.
    #[must_use]
    pub fn new(program: &'p TimedProgram) -> Self {
        assert!(
            Self::accepts(program),
            "program too large or critical path too long for packed wheel keys"
        );
        let critical_ticks = program.critical_ticks();
        // Bucket span: about one minimum gate delay (then almost every
        // scheduled key lands past the bucket being drained), floored so
        // the drain never walks more than ~4096 buckets even for
        // degenerate zero-delay libraries.
        let delays = program.delay_ticks.iter().copied();
        let min_delay = delays.clone().min().unwrap_or(1).max(1);
        let max_delay = delays.max().unwrap_or(0);
        let span_for_budget = (critical_ticks / 4096).max(1);
        let bucket_shift = 63 - (min_delay.max(span_for_budget) | 1).leading_zeros();
        // An event lands at most `(max_delay >> shift) + 1` buckets past
        // the one being drained, so this many slots never alias.
        let ring_len = ((max_delay >> bucket_shift) as usize + 2).next_power_of_two();
        // Just enough key bits for the largest op index.
        let last_op = (program.op_count() as u64).saturating_sub(1);
        let op_bits = u64::BITS - last_op.leading_zeros();
        let mut values = vec![Lanes::default(); program.slot_count()];
        values[SLOT_CONST1 as usize] = !Lanes::default();
        Self {
            program,
            toggles: vec![0; program.slot_count()],
            values,
            ring: vec![Bucket::default(); ring_len],
            bucket_shift,
            op_bits,
            last_bucket: (critical_ticks >> bucket_shift) as usize,
            drain: Bucket::default(),
            scratch: Vec::new(),
            settled_once: false,
        }
    }

    /// Establishes a steady state for one stimulus plane per primary
    /// input without counting activity.
    ///
    /// # Panics
    ///
    /// Panics on stimulus width mismatch.
    pub fn settle(&mut self, stimulus: &[[u64; WHEEL_WORDS]]) {
        let p = self.program;
        assert_eq!(
            stimulus.len(),
            p.input_slots.len(),
            "stimulus width mismatch"
        );
        for (&slot, &plane) in p.input_slots.iter().zip(stimulus) {
            self.values[slot as usize] = Lanes(plane);
        }
        for op in 0..p.op_count() {
            self.values[p.dst[op] as usize] = p.eval(&self.values, op);
        }
        self.settled_once = true;
    }

    /// Applies a new stimulus plane per input against the current steady
    /// state and simulates every lane to quiescence, counting every
    /// transition (glitches included) exactly like [`WHEEL_LANES`] scalar
    /// [`crate::TimingSim`] streams.
    ///
    /// # Panics
    ///
    /// Panics if [`GlitchSim::settle`] has not established an initial
    /// state, or on stimulus width mismatch.
    pub fn apply(&mut self, stimulus: &[[u64; WHEEL_WORDS]]) -> GlitchApplyResult {
        assert!(self.settled_once, "call settle() before apply()");
        let p = self.program;
        assert_eq!(
            stimulus.len(),
            p.input_slots.len(),
            "stimulus width mismatch"
        );
        let mut transitions = 0u64;
        let mut last_tick = 0u64;
        // Destructured field locals keep the hot loop free of `&mut self`
        // method calls (which would re-borrow the whole struct per event).
        let values = &mut self.values[..];
        let toggles = &mut self.toggles[..];
        let ring = &mut self.ring[..];
        let ring_mask = ring.len() - 1;
        let bucket_shift = self.bucket_shift;
        let op_bits = self.op_bits;
        let scratch = &mut self.scratch;
        // Splits `mask` by the op's present evaluation — the captured
        // value the scalar engine stores in its heap entries — and drops
        // the event into its time bucket.
        let schedule = |values: &[Lanes], ring: &mut [Bucket], time: u64, op: u32, mask: Lanes| {
            let eval = p.eval(values, op as usize);
            ring[(time >> bucket_shift) as usize & ring_mask].push(
                (time << op_bits) | u64::from(op),
                Masks {
                    low: mask & !eval,
                    high: mask & eval,
                },
            );
        };

        // Input changes land at t = 0, processed in declaration order with
        // fanout evaluations seeing the partially-updated input vector —
        // the scalar engine's exact capture semantics.
        for (&slot, &plane) in p.input_slots.iter().zip(stimulus) {
            let slot = slot as usize;
            let changed = values[slot] ^ Lanes(plane);
            if changed.is_zero() {
                continue;
            }
            values[slot] = Lanes(plane);
            let flips = changed.count_ones();
            toggles[slot] += flips;
            transitions += flips;
            for &op in p.fanout(slot as u32) {
                schedule(values, ring, p.delay_ticks[op as usize], op, changed);
            }
        }

        // Drain the ring bucket by bucket in (time, op) order — the
        // scalar heap's order, with the value-0 event of a key popping
        // before the value-1 one. A bucket is sorted when the drain
        // reaches it; keys scheduled back into the bucket being drained
        // (delays shorter than the bucket span) join it and re-sort the
        // unprocessed tail, so the order stays exact.
        let mut bucket = std::mem::take(&mut self.drain);
        for b in 0..=self.last_bucket {
            let slot = b & ring_mask;
            if ring[slot].events.is_empty() {
                continue;
            }
            // The spare swaps in as the slot's (empty) bucket.
            std::mem::swap(&mut bucket, &mut ring[slot]);
            sort_events(&mut bucket.events, scratch);
            let mut i = 0;
            loop {
                if !ring[slot].events.is_empty() {
                    bucket.absorb(&mut ring[slot]);
                    bucket.events[i..].sort_unstable_by_key(|e| e.key);
                }
                let Some(&Event { key, index }) = bucket.events.get(i) else {
                    break;
                };
                let Masks { mut low, mut high } = bucket.masks[index];
                i += 1;
                while let Some(same) = bucket.events.get(i).filter(|e| e.key == key) {
                    let masks = &bucket.masks[same.index];
                    low = low | masks.low;
                    high = high | masks.high;
                    i += 1;
                }
                let time = key >> op_bits;
                let op = (key & ((1 << op_bits) - 1)) as usize;
                let present = p.eval(values, op);
                let dst = p.dst[op] as usize;
                let out = values[dst];
                // Inertial cancellation, lane-wide: an event fires only
                // where its captured value still matches the present
                // evaluation AND differs from the present output.
                let fired_low = low & !present & out;
                let after_low = out & !fired_low;
                let fired_high = high & present & !after_low;
                let fired = fired_low | fired_high;
                if fired.is_zero() {
                    continue;
                }
                values[dst] = after_low | fired_high;
                let flips = fired.count_ones();
                toggles[dst] += flips;
                transitions += flips;
                last_tick = last_tick.max(time);
                for &downstream in p.fanout(dst as u32) {
                    schedule(
                        values,
                        ring,
                        time + p.delay_ticks[downstream as usize],
                        downstream,
                        fired,
                    );
                }
            }
            bucket.clear();
        }
        self.drain = bucket;
        assert!(
            self.ring.iter().all(|b| b.events.is_empty()),
            "an event landed past the critical path"
        );
        GlitchApplyResult {
            transitions,
            settle_ps: last_tick as f64 / 1024.0,
        }
    }

    /// Per-net transition counts (glitches included) since construction,
    /// summed over all lanes and scattered to the source netlist's net
    /// indexing. Dead nets (no driver after DCE) never move and report 0.
    #[must_use]
    pub fn toggles_per_net(&self) -> Vec<u64> {
        scatter_toggles(&self.program.slot_of_net, &self.toggles)
    }

    /// Current value plane of one net.
    #[must_use]
    pub fn plane(&self, net: NetId) -> [u64; WHEEL_WORDS] {
        self.values[self.program.slot_of_net[net.index()] as usize].0
    }

    /// Lane-`lane` value of one net.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WHEEL_LANES`.
    #[must_use]
    pub fn lane_value(&self, net: NetId, lane: u32) -> bool {
        assert!((lane as usize) < WHEEL_LANES);
        Lanes(self.plane(net)).lane(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::ab_stimulus;
    use crate::TimingSim;
    use sdlc_netlist::adders::ripple_add;
    use sdlc_wideint::SplitMix64;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    /// `count` stimulus planes per input of `n`, random in every lane.
    fn random_planes(n: &Netlist, seed: u64, count: usize) -> Vec<Vec<[u64; WHEEL_WORDS]>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                (0..n.inputs().len())
                    .map(|_| std::array::from_fn(|_| rng.next_u64()))
                    .collect()
            })
            .collect()
    }

    /// Runs `planes` through one `GlitchSim` and each lane's stream
    /// through its own `TimingSim`: per-net totals, transitions and final
    /// values must agree lane for lane.
    fn assert_lanes_match(n: &Netlist, lib: &Library, planes: &[Vec<[u64; WHEEL_WORDS]>]) {
        let program = TimedProgram::compile(n, lib);
        let mut compiled = GlitchSim::new(&program);
        compiled.settle(&planes[0]);
        let mut compiled_transitions = 0u64;
        for plane in &planes[1..] {
            compiled_transitions += compiled.apply(plane).transitions;
        }
        let mut scalar_totals = vec![0u64; n.net_count()];
        let mut scalar_transitions = 0u64;
        for lane in 0..WHEEL_LANES as u32 {
            let mut sim = TimingSim::new(n, lib);
            let bits = |plane: &Vec<[u64; WHEEL_WORDS]>| -> Vec<bool> {
                plane
                    .iter()
                    .map(|w| (w[lane as usize / 64] >> (lane % 64)) & 1 == 1)
                    .collect()
            };
            sim.settle(&bits(&planes[0]));
            for plane in &planes[1..] {
                scalar_transitions += sim.apply(&bits(plane)).transitions;
            }
            for (total, &t) in scalar_totals.iter_mut().zip(sim.toggles()) {
                *total += t;
            }
            for gate in n.gates() {
                let net = gate.output;
                assert_eq!(
                    compiled.lane_value(net, lane),
                    sim.value(net),
                    "net {net} lane {lane}"
                );
            }
        }
        assert_eq!(compiled.toggles_per_net(), scalar_totals);
        assert_eq!(compiled_transitions, scalar_transitions);
    }

    /// The skewed-delay library of `tests/glitch_differential.rs`
    /// (`skewed_delays_agree_with_timing_sim`): AND2 is four orders of
    /// magnitude faster than every other cell.
    fn skewed_library() -> Library {
        let mut text = String::from("library delays { wire_cap_per_fanout_ff 1\n");
        for cell in [
            "BUF", "INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2",
        ] {
            let (delay, drive) = if cell == "AND2" {
                (0.01, 0.0)
            } else {
                (100.0, 2.5)
            };
            text += &format!(
                "cell {cell} {{ area 1 cap 1 delay {delay} drive {drive} energy 1 leak 1 }}\n"
            );
        }
        Library::from_text(&(text + "}")).unwrap()
    }

    /// Lane 0 alone: a single-stream compiled run must match one scalar
    /// TimingSim transition for transition.
    #[test]
    fn single_lane_matches_timing_sim_exactly() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut compiled = GlitchSim::new(&program);
        let mut scalar = TimingSim::new(&n, &lib);
        let mut rng = SplitMix64::new(0x911);
        let to_planes = |bits: &[bool]| -> Vec<[u64; WHEEL_WORDS]> {
            bits.iter()
                .map(|&b| std::array::from_fn(|w| u64::from(b && w == 0)))
                .collect()
        };
        let first = ab_stimulus(&n, 0xA5, 0x5A);
        scalar.settle(&first);
        compiled.settle(&to_planes(&first));
        for _ in 0..40 {
            let a = u128::from(rng.next_bits(8));
            let b = u128::from(rng.next_bits(8));
            let stimulus = ab_stimulus(&n, a, b);
            let want = scalar.apply(&stimulus);
            let got = compiled.apply(&to_planes(&stimulus));
            assert_eq!(got.transitions, want.transitions, "{a}x{b}");
            assert!((got.settle_ps - want.settle_ps).abs() < 1e-9, "{a}x{b}");
        }
        // Per-net totals and final values agree too.
        for gate in n.gates() {
            let net = gate.output;
            assert_eq!(compiled.lane_value(net, 0), scalar.value(net), "net {net}");
        }
        assert_eq!(compiled.toggles_per_net(), scalar.toggles().to_vec());
    }

    /// All lanes of every wheel word running distinct streams must equal
    /// as many scalar sims.
    #[test]
    fn all_lanes_match_their_scalar_streams() {
        let n = adder(6);
        assert_lanes_match(&n, &Library::generic_90nm(), &random_planes(&n, 0x64, 8));
    }

    /// Under the skewed library the bucket span follows the critical path
    /// (`critical / 4096`), not the fast AND2, so AND2 events land in the
    /// bucket being drained and join it: the tail re-sort path, whose
    /// moved events must point at their masks in the drained bucket's
    /// arena. Every lane of every word must still match its scalar
    /// stream.
    #[test]
    fn skewed_delays_schedule_into_the_bucket_being_drained() {
        let lib = skewed_library();
        let n = adder(8);
        let program = TimedProgram::compile(&n, &lib);
        let min_delay = program.delay_ticks.iter().copied().min().unwrap();
        let sim = GlitchSim::new(&program);
        assert!(
            min_delay < 1 << sim.bucket_shift,
            "the {min_delay}-tick AND2 must be shorter than the bucket span 2^{}",
            sim.bucket_shift
        );
        assert_lanes_match(&n, &lib, &random_planes(&n, 0x5E4, 6));
    }

    /// Every run length, through the comparison, LSD and MSD paths:
    /// keys come out ordered and no event is lost or duplicated.
    #[test]
    fn sort_events_orders_runs_of_every_length() {
        let mut rng = SplitMix64::new(0x5027);
        let mut scratch = Vec::new();
        for len in [
            0,
            1,
            RADIX_MIN - 1,
            RADIX_MIN,
            5000,
            CACHE_EVENTS + 1,
            3 * CACHE_EVENTS,
        ] {
            // One bucket's keys: equal high time bits, few distinct
            // times (bursts of equal keys), any op.
            let events: Vec<Event> = (0..len)
                .map(|index| {
                    let r = rng.next_u64();
                    let key = (0x5A << 32) | ((r & 0x70_0000) << 8) | (r & 0xFFF);
                    Event { key, index }
                })
                .collect();
            let mut sorted = events.clone();
            sort_events(&mut sorted, &mut scratch);
            assert!(sorted.windows(2).all(|w| w[0].key <= w[1].key), "len {len}");
            let pairs = |events: &[Event]| {
                let mut pairs: Vec<(u64, usize)> =
                    events.iter().map(|e| (e.key, e.index)).collect();
                pairs.sort_unstable();
                pairs
            };
            assert_eq!(pairs(&sorted), pairs(&events), "len {len}");
        }
    }

    #[test]
    fn settle_times_respect_the_arrival_bound() {
        let n = adder(8);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let bound = program.critical_arrival_ps();
        assert!(bound > 0.0);
        let mut sim = GlitchSim::new(&program);
        let planes = random_planes(&n, 3, 21);
        sim.settle(&planes[0]);
        for plane in &planes[1..] {
            let result = sim.apply(plane);
            assert!(
                result.settle_ps <= bound + 1e-6,
                "{} > {bound}",
                result.settle_ps
            );
        }
        // Per-net arrivals are monotone along the carry chain.
        let p_bus = n.bus("p").unwrap();
        let arrival = |net: NetId| program.arrival_ticks[program.slot_of_net[net.index()] as usize];
        assert!(arrival(p_bus[7]) > arrival(p_bus[0]));
        assert!(program.op_count() >= n.cell_count() - 2);
    }

    #[test]
    fn no_change_costs_nothing() {
        let n = adder(4);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let mut sim = GlitchSim::new(&program);
        let plane = vec![std::array::from_fn(|w| 0xDEAD << w); 8];
        sim.settle(&plane);
        let result = sim.apply(&plane);
        assert_eq!(result.transitions, 0);
        assert_eq!(result.settle_ps, 0.0);
    }

    #[test]
    #[should_panic(expected = "call settle()")]
    fn apply_before_settle_panics() {
        let n = adder(4);
        let lib = Library::generic_90nm();
        let program = TimedProgram::compile(&n, &lib);
        let _ = GlitchSim::new(&program).apply(&[[0; WHEEL_WORDS]; 8]);
    }
}
