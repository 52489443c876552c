//! The cycle-stepping core and its deterministic intra-simulation
//! parallelism (`GpuConfig::sim_threads`).
//!
//! Every kernel steps as *shards* of `(Sm, policy)` pairs under one
//! advance rule ([`Shard::next_candidate`], [`Shard::process_cycle`]).
//! At one effective thread, a single shard holds every SM and steps on
//! the calling thread with an inline sink: the real L2, backing-store
//! image and shadow hook, touched in emission order. This one-shard
//! inline run is the reference semantics. At two or more, shards
//! simulate independently on worker threads for bounded *epochs*; at
//! each epoch barrier a single arbiter drains every shard's buffered L2
//! traffic through the real shared cache in a fixed total order and
//! routes the resulting completions back to the owning shards. The
//! result is **byte-identical** to the one-shard inline run — every
//! counter, trace line, shadow call and termination cycle — which the
//! determinism suite pins.
//!
//! # Why byte-identity holds
//!
//! * **Epoch bound.** An epoch spans `Δ = min(l2_latency, dram_latency)`
//!   simulated cycles. Every shared-memory round trip takes ≥ Δ cycles,
//!   so a request issued inside an epoch cannot complete — and therefore
//!   cannot influence any SM — before the epoch ends. Within an epoch
//!   the shards are fully independent. (`Δ == 0` forces the one-shard
//!   run; see [`effective_threads`].)
//! * **Total order at the barrier.** Each SM performs at most one L2
//!   access per cycle (the single LD/ST port), and the one-shard run
//!   issues SMs in id order within a cycle, so sorting buffered requests
//!   by `(cycle, phase, sm, seq)` replays its L2 access order exactly —
//!   preserving the cache's internal LRU clock and hit/miss statistics.
//!   Both sides apply the same rule, [`SharedMem::access_l2`].
//! * **Self-targeted events.** Every event an SM pushes targets itself
//!   (fill retries, write-allocate fetches), so per-shard event heaps
//!   pop the same per-SM subsequences as the one-shard heap, and
//!   arbiter-generated completions land at cycles ≥ the epoch end.
//! * **Idle equivalence.** A scheduler swept with nothing ready behaves
//!   identically to `account_idle_cycles(1, available)`, and an SM's
//!   per-scheduler available-warp counters change only when a warp
//!   changes state (`Sm::set_state`), which never happens inside an idle
//!   gap, so every shard only needs to process its own "interesting"
//!   cycles — the fast-forward the advance rule encodes.
//! * **Shadow replay.** Worker shards record oracle calls into a local
//!   buffer; the barrier replays them into the real hook sorted by
//!   `(cycle, phase, sm, seq)` (fills before issues within a cycle),
//!   which is exactly the one-shard run's call order.
//!
//! The thread count is *excluded* from the config fingerprint: it cannot
//! change results, so memoized/stored results transfer freely between
//! one-shard and sharded runs.

use crate::config::GpuConfig;
use crate::ops::Kernel;
use crate::policy::L1CompressionPolicy;
use crate::shadow::{ShadowCheck, ShadowCheckpoint};
use crate::sm::{L2Buffer, L2Port, L2RequestKind, MemCtx, MemEvent, SharedMem, Sm};
use crate::stats::{KernelStats, TerminationReason};
use latte_cache::LineAddr;
use latte_compress::{CacheLine, Cycles};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::sync::OnceLock;

/// Injected wall clock for epoch busy/stall accounting. The simulation
/// crates are wall-clock-free (lint rule D1); like the compressor stage
/// counters, this module only ever sees a clock the driver installs.
/// Without one, all busy/stall figures are zero and epoch *counts* still
/// accumulate. Write-once; the first installation wins.
// latte-lint: shared-boundary(reason = "write-once injected clock fn pointer; read only for epoch busy/stall telemetry that never feeds back into simulated state")
static EPOCH_CLOCK: OnceLock<fn() -> u64> = OnceLock::new();

/// Installs the monotonic nanosecond clock used for epoch/barrier
/// telemetry. Idempotent: the first installation wins.
pub fn install_epoch_clock(clock: fn() -> u64) {
    let _ = EPOCH_CLOCK.set(clock);
}

fn now_ns() -> u64 {
    EPOCH_CLOCK.get().map_or(0, |clock| clock())
}

/// The `(owner, field)` edges of the SM state graph that the epoch
/// barrier machinery touches — the runtime counterpart of lint rule S1's
/// `shared` classification. The partition-conformance test asserts every
/// entry here is classified `shared` in `results/lint_partition.json`,
/// so the static report and the runtime barrier cannot drift apart
/// silently.
pub const ARBITER_SHARED_FIELDS: &[(&str, &str)] = &[
    ("MemCtx", "l2"),
    ("MemCtx", "events"),
    ("MemCtx", "policy"),
    ("MemCtx", "kernel"),
    ("MemCtx", "config"),
    ("MemCtx", "stats"),
    ("MemCtx", "shadow"),
    ("L2Port", "Direct"),
    ("L2Port", "Deferred"),
];

/// Epoch/barrier accounting for `--timings` (host-side telemetry only;
/// deliberately *not* part of [`KernelStats`], which is serialized into
/// the result store and must stay a pure function of the inputs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Barrier rounds run (0 after a one-shard run).
    pub epochs: u64,
    /// Total simulated cycles covered by those epochs.
    pub advanced_cycles: u64,
    /// Largest single-epoch advance in simulated cycles.
    pub max_epoch_cycles: u64,
    /// Shard/worker count of the widest parallel run recorded.
    pub shards: usize,
    /// Per-shard nanoseconds spent simulating inside epochs.
    pub busy_ns: Vec<u64>,
    /// Per-shard nanoseconds spent stalled at barriers (waiting for the
    /// slowest shard of each epoch).
    pub stall_ns: Vec<u64>,
}

impl EpochStats {
    /// Folds another accounting record into this one (element-wise).
    pub fn merge(&mut self, other: &EpochStats) {
        self.epochs += other.epochs;
        self.advanced_cycles += other.advanced_cycles;
        self.max_epoch_cycles = self.max_epoch_cycles.max(other.max_epoch_cycles);
        self.shards = self.shards.max(other.shards);
        if self.busy_ns.len() < other.busy_ns.len() {
            self.busy_ns.resize(other.busy_ns.len(), 0);
        }
        if self.stall_ns.len() < other.stall_ns.len() {
            self.stall_ns.resize(other.stall_ns.len(), 0);
        }
        for (into, from) in self.busy_ns.iter_mut().zip(&other.busy_ns) {
            *into += from;
        }
        for (into, from) in self.stall_ns.iter_mut().zip(&other.stall_ns) {
            *into += from;
        }
    }

    /// Mean simulated cycles advanced per epoch.
    #[must_use]
    pub fn mean_epoch_cycles(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.advanced_cycles as f64 / self.epochs as f64
        }
    }
}

/// The worker count a config actually gets: `sim_threads`, clamped to
/// the SM count, and forced to 1 when the epoch bound `Δ` would be zero
/// (a zero-latency L2 *and* DRAM leaves no window in which shards are
/// independent).
#[must_use]
fn effective_threads(config: &GpuConfig) -> usize {
    let delta = config.l2_latency.min(config.dram_latency);
    if delta == 0 {
        return 1;
    }
    config.sim_threads.max(1).min(config.num_sms.max(1))
}

/// What the cycle loop hands back to [`crate::Gpu::run_kernel`].
pub(crate) struct Outcome {
    /// Final processed cycle.
    pub cycle: Cycles,
    /// Early-termination reason to run the watchdog audit with, if any.
    pub fallback: Option<TerminationReason>,
}

/// A worker channel died mid-run. Unreachable in practice: the only
/// cause is a worker panic, which `thread::scope` re-raises before this
/// value can be observed.
const WORKER_LOST: Outcome = Outcome {
    cycle: 0,
    fallback: Some(TerminationReason::FaultAbort),
};

/// One recorded oracle call, tagged with its deterministic replay key.
enum ShadowCall {
    Fill { addr: LineAddr, data: CacheLine },
    Load { addr: LineAddr, observed: Option<CacheLine> },
    Store { addr: LineAddr, data: CacheLine },
    Checkpoint { kind: ShadowCheckpoint, errors: Vec<String> },
}

struct ShadowRecord {
    cycle: Cycles,
    /// 0 = delivery phase, 1 = issue phase; every cycle delivers
    /// before it issues.
    phase: u8,
    sm: usize,
    /// Emission order within this recorder (ties inside one phase of one
    /// SM's cycle replay in emission order).
    seq: u64,
    call: ShadowCall,
}

/// Shard-local [`ShadowCheck`] implementation: buffers every call with
/// its replay key instead of touching the real hook from a worker.
///
/// The replay phase is a recorder *state* set by `process_cycle`, not a
/// property of the call kind: fills happen only at delivery and
/// loads/checkpoints only at issue, but a store call fires in either —
/// at issue for a store hit, at delivery when a fill merges a pending
/// write-allocate store — and must replay exactly where the one-shard
/// run makes it.
#[derive(Default)]
struct ShadowRecorder {
    records: Vec<ShadowRecord>,
    seq: u64,
    /// 0 = delivery phase, 1 = issue phase (set by `process_cycle`).
    phase: u8,
}

impl ShadowRecorder {
    fn record(&mut self, cycle: Cycles, sm: usize, call: ShadowCall) {
        self.records.push(ShadowRecord {
            cycle,
            phase: self.phase,
            sm,
            seq: self.seq,
            call,
        });
        self.seq += 1;
    }
}

impl ShadowCheck for ShadowRecorder {
    fn on_fill(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        self.record(cycle, sm, ShadowCall::Fill { addr, data: *data });
    }

    fn on_load(
        &mut self,
        sm: usize,
        addr: LineAddr,
        observed: Option<&CacheLine>,
        cycle: Cycles,
    ) {
        self.record(
            cycle,
            sm,
            ShadowCall::Load {
                addr,
                observed: observed.copied(),
            },
        );
    }

    fn on_store(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        self.record(cycle, sm, ShadowCall::Store { addr, data: *data });
    }

    fn on_checkpoint(
        &mut self,
        sm: usize,
        cycle: Cycles,
        kind: ShadowCheckpoint,
        structural_errors: &[String],
    ) {
        self.record(
            cycle,
            sm,
            ShadowCall::Checkpoint {
                kind,
                errors: structural_errors.to_vec(),
            },
        );
    }
}

/// One SM and its private compression policy, moving together between
/// the coordinator and a worker thread.
struct ShardUnit {
    sm: Sm,
    policy: Box<dyn L1CompressionPolicy>,
}

/// Where a shard's shared-L2 traffic and oracle calls go.
enum Sink<'a> {
    /// The one-shard run: the real shared memory and shadow hook, touched
    /// inline in emission order on the calling thread.
    Inline {
        mem: &'a mut SharedMem,
        shadow: Option<&'a mut (dyn ShadowCheck + 'static)>,
    },
    /// A worker shard: traffic and oracle calls buffer shard-locally
    /// until the barrier arbiter and the shadow replay drain them.
    Deferred {
        buffer: L2Buffer,
        /// Present iff the run is shadow-checked.
        recorder: Option<ShadowRecorder>,
    },
}

impl Sink<'_> {
    /// Sets the replay phase of recorded oracle calls (0 = delivery,
    /// 1 = issue); inline calls need none.
    fn set_phase(&mut self, phase: u8) {
        if let Sink::Deferred {
            recorder: Some(recorder),
            ..
        } = self
        {
            recorder.phase = phase;
        }
    }

    /// Whether a load fill waits in the buffer for the arbiter. Inline,
    /// the access has already pushed its completion into the heap.
    fn fill_pending(&self) -> bool {
        match self {
            Sink::Inline { .. } => false,
            Sink::Deferred { buffer, .. } => buffer
                .requests
                .iter()
                .any(|r| matches!(r.kind, L2RequestKind::LoadFill { .. })),
        }
    }
}

/// Everything a shard's SMs step against apart from the SMs themselves,
/// split off so a [`MemCtx`] can borrow it while one SM steps.
struct ShardEnv<'a> {
    /// Shard-private completion heap (every SM event is self-targeted).
    events: BinaryHeap<Reverse<MemEvent>>,
    sink: Sink<'a>,
    /// Shard-local counters, merged into the launch totals at the end.
    stats: KernelStats,
    kernel: &'a dyn Kernel,
    config: &'a GpuConfig,
    shadow_every: u64,
}

impl ShardEnv<'_> {
    /// The context one SM steps with.
    fn ctx<'c>(&'c mut self, policy: &'c mut dyn L1CompressionPolicy) -> MemCtx<'c> {
        let (l2, shadow) = match &mut self.sink {
            Sink::Inline { mem, shadow } => (L2Port::Direct(mem), shadow.as_deref_mut()),
            Sink::Deferred { buffer, recorder } => (
                L2Port::Deferred(buffer),
                recorder
                    .as_mut()
                    .map(|r| r as &mut (dyn ShadowCheck + 'static)),
            ),
        };
        MemCtx {
            l2,
            events: &mut self.events,
            policy,
            kernel: self.kernel,
            config: self.config,
            stats: &mut self.stats,
            shadow,
            shadow_every: self.shadow_every,
        }
    }
}

/// A contiguous slice of the machine's SMs plus everything they need to
/// step: all of them in the one-shard run, one worker's share otherwise.
struct Shard<'a> {
    /// First SM id in this shard (ids are contiguous).
    base: usize,
    units: Vec<ShardUnit>,
    env: ShardEnv<'a>,
    /// Last processed cycle (`None` before cycle 0 runs).
    last: Option<Cycles>,
    /// Whether the last processed cycle issued any instruction.
    issued_last: bool,
    /// Cycle at which this shard went locally quiescent, if it has.
    done_at: Option<Cycles>,
}

impl<'a> Shard<'a> {
    fn new(
        units: Vec<ShardUnit>,
        sink: Sink<'a>,
        kernel: &'a dyn Kernel,
        config: &'a GpuConfig,
        shadow_every: u64,
    ) -> Self {
        Shard {
            base: units.first().map_or(0, |u| u.sm.id),
            units,
            env: ShardEnv {
                events: BinaryHeap::new(),
                sink,
                stats: KernelStats::default(),
                kernel,
                config,
                shadow_every,
            },
            last: None,
            issued_last: false,
            done_at: None,
        }
    }

    /// The next cycle this shard would process — the advance rule:
    /// the next cycle after one that issued, else the earliest pending
    /// completion or warp wake-up. `None` means stuck: nothing pending,
    /// not all finished (revivable only by an arbiter completion;
    /// otherwise a deadlock).
    fn next_candidate(&self) -> Option<Cycles> {
        let Some(last) = self.last else {
            // Cycle 0 is processed unconditionally.
            return Some(0);
        };
        if self.issued_last {
            return Some(last + 1);
        }
        let next_event = self.env.events.peek().map(|Reverse(e)| e.cycle);
        let next_wake = self.units.iter().filter_map(|u| u.sm.next_wake()).min();
        let target = match (next_event, next_wake) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        Some(target.max(last + 1))
    }

    /// The cycle a deadlocked run stops at, as far as this shard can
    /// tell: one past its last cycle if that cycle issued (the run
    /// coasts there and finds nothing to do), else its last cycle.
    fn coast_cycle(&self) -> Cycles {
        self.last.unwrap_or(0) + u64::from(self.issued_last)
    }

    /// Local quiescence. A buffered load-fill request counts as pending
    /// work: a fire-and-forget store's write-allocate fill leaves no
    /// blocked warp behind, so without this term a worker shard would
    /// declare itself done while the fill (and its eventual dirty
    /// write-back) is still waiting for the barrier arbiter. The inline
    /// sink needs no such term — its access pushes the completion into
    /// the heap before the check runs. Buffered stores and write-backs
    /// do NOT block doneness: they produce no completion event, the
    /// arbiter drains every shard's buffer regardless of `done_at`, and
    /// the inline run likewise observes `done` on the very cycle it
    /// performs them.
    fn is_done(&self) -> bool {
        self.units.iter().all(|u| u.sm.all_finished())
            && self.env.events.is_empty()
            && !self.env.sink.fill_pending()
    }

    /// Processes one cycle for these SMs: account the idle gap, deliver
    /// due local completions, issue every SM in id order, then note
    /// quiescence.
    fn process_cycle(&mut self, cycle: Cycles) {
        if let Some(last) = self.last {
            let skipped = cycle - last - 1;
            if skipped > 0 {
                for unit in &mut self.units {
                    unit.sm.account_idle(skipped);
                }
            }
        }
        self.env.sink.set_phase(0);
        while self.env.events.peek().is_some_and(|Reverse(ev)| ev.cycle <= cycle) {
            let Some(Reverse(ev)) = self.env.events.pop() else {
                break;
            };
            let unit = &mut self.units[ev.sm - self.base];
            let mut ctx = self.env.ctx(unit.policy.as_mut());
            unit.sm
                .handle_fill(ev.addr, ev.cycle.max(cycle), ev.verified, ev.data, &mut ctx);
        }
        self.env.sink.set_phase(1);
        let mut issued = 0;
        for unit in &mut self.units {
            issued += unit
                .sm
                .issue_cycle(cycle, &mut self.env.ctx(unit.policy.as_mut()));
        }
        self.env.stats.instructions += issued;
        self.last = Some(cycle);
        self.issued_last = issued > 0;
        if self.done_at.is_none() && self.is_done() {
            self.done_at = Some(cycle);
        }
    }

    /// Simulates until the epoch end, the cycle limit, quiescence, or a
    /// stuck state — whichever comes first.
    fn run_epoch(&mut self, epoch_end: Cycles) {
        let limit = self.env.config.max_cycles_per_kernel;
        while self.done_at.is_none() {
            let Some(cycle) = self.next_candidate() else {
                return;
            };
            if cycle >= epoch_end || cycle >= limit {
                return;
            }
            self.process_cycle(cycle);
        }
    }

    /// The one-shard run: steps every SM on the calling thread, with no
    /// epochs and no barrier, until quiescence, a stuck state (a
    /// deadlock) or the first cycle at or past the cycle limit, which
    /// is processed before the run stops.
    fn run_to_end(&mut self) -> Outcome {
        let limit = self.env.config.max_cycles_per_kernel;
        self.run_epoch(limit);
        if let Some(cycle) = self.done_at {
            return Outcome {
                cycle,
                fallback: None,
            };
        }
        let Some(cycle) = self.next_candidate() else {
            return Outcome {
                cycle: self.coast_cycle(),
                fallback: Some(TerminationReason::Deadlock),
            };
        };
        self.process_cycle(cycle);
        Outcome {
            cycle,
            fallback: self.done_at.is_none().then_some(TerminationReason::CycleLimit),
        }
    }

    /// Hands the SMs and policies back in id order and folds this
    /// shard's counters into the launch totals.
    fn restore(
        self,
        sms: &mut Vec<Sm>,
        policies: &mut Vec<Box<dyn L1CompressionPolicy>>,
        stats: &mut KernelStats,
    ) {
        merge_counters(stats, self.env.stats);
        for unit in self.units {
            sms.push(unit.sm);
            policies.push(unit.policy);
        }
    }
}

/// One unit of work shipped to a worker: the shard plus its epoch bound;
/// the worker fills in its busy time on the way back.
struct EpochJob<'a> {
    shard: Box<Shard<'a>>,
    epoch_end: Cycles,
    busy_ns: u64,
}

/// Folds shard-locally accumulated counters into the launch totals.
/// The pattern is exhaustive so a new `KernelStats` field cannot be
/// forgotten here: the fields bound to `_` are set by the caller's
/// epilogue.
fn merge_counters(into: &mut KernelStats, from: KernelStats) {
    let KernelStats {
        cycles: _,
        instructions,
        l1: _,
        l2: _,
        dram_accesses,
        loads,
        stores,
        writebacks,
        compressions,
        decompressions,
        mshr_stalls,
        hit_wait_cycles,
        miss_wait_cycles,
        barrier_wait_cycles: _,
        eps_completed,
        decompression_queue_wait,
        traces,
        timed_out: _,
        termination: _,
        faults,
    } = from;
    into.instructions += instructions;
    into.dram_accesses += dram_accesses;
    into.loads += loads;
    into.stores += stores;
    into.writebacks += writebacks;
    into.compressions += compressions;
    into.decompressions += decompressions;
    into.mshr_stalls += mshr_stalls;
    into.hit_wait_cycles += hit_wait_cycles;
    into.miss_wait_cycles += miss_wait_cycles;
    into.eps_completed += eps_completed;
    into.decompression_queue_wait += decompression_queue_wait;
    into.traces.extend(traces);
    into.faults += faults;
}

/// Drains every shard's buffered L2 traffic through
/// [`SharedMem::access_l2`] in the one-shard run's total order —
/// `(cycle, phase, sm, seq)` — updating the launch stats and routing
/// load-fill completions into the owning shard's heap. The `phase` key
/// exists for the write-back path: dirty evictions at fill delivery
/// reach the L2 in a cycle's delivery sweep (phase 0), before any of
/// that cycle's issued traffic (phase 1).
fn arbitrate(
    shards: &mut [Option<Box<Shard<'_>>>],
    chunk: usize,
    mem: &mut SharedMem,
    config: &GpuConfig,
    stats: &mut KernelStats,
) {
    let mut requests = Vec::new();
    for shard in shards.iter_mut().flatten() {
        if let Sink::Deferred { buffer, .. } = &mut shard.env.sink {
            requests.append(&mut buffer.requests);
        }
    }
    requests.sort_unstable_by_key(|r| (r.cycle, r.phase, r.sm, r.seq));
    for req in requests {
        let Some(ev) = mem.access_l2(config, stats, req.cycle, req.sm, req.addr, req.kind) else {
            continue;
        };
        if let Some(shard) = shards.get_mut(req.sm / chunk).and_then(Option::as_mut) {
            shard.env.events.push(Reverse(ev));
        }
    }
}

/// Replays every shard's recorded oracle calls into the real hook in the
/// one-shard run's call order: `(cycle, phase, sm, seq)`.
fn replay_shadow(
    shards: &mut [Option<Box<Shard<'_>>>],
    shadow: &mut Option<&mut (dyn ShadowCheck + 'static)>,
) {
    let Some(hook) = shadow.as_mut() else {
        return;
    };
    let mut records = Vec::new();
    for shard in shards.iter_mut().flatten() {
        if let Sink::Deferred {
            recorder: Some(recorder),
            ..
        } = &mut shard.env.sink
        {
            records.append(&mut recorder.records);
        }
    }
    records.sort_unstable_by_key(|r| (r.cycle, r.phase, r.sm, r.seq));
    for record in records {
        match record.call {
            ShadowCall::Fill { addr, data } => {
                hook.on_fill(record.sm, addr, &data, record.cycle);
            }
            ShadowCall::Load { addr, observed } => {
                hook.on_load(record.sm, addr, observed.as_ref(), record.cycle);
            }
            ShadowCall::Store { addr, data } => {
                hook.on_store(record.sm, addr, &data, record.cycle);
            }
            ShadowCall::Checkpoint { kind, errors } => {
                hook.on_checkpoint(record.sm, record.cycle, kind, &errors);
            }
        }
    }
}

/// Runs the kernel's cycle loop. At one effective thread (see
/// [`effective_threads`]) a single shard steps every SM on the calling
/// thread against the real shared memory and shadow hook; otherwise
/// shards of SMs step on worker threads behind a deterministic epoch
/// barrier. On return, `sms`/`policies` are restored in id order and
/// `stats` holds every counter the SMs accumulated; the caller runs the
/// common epilogue.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cycles<'a>(
    sms: &mut Vec<Sm>,
    policies: &mut Vec<Box<dyn L1CompressionPolicy>>,
    mem: &'a mut SharedMem,
    mut shadow: Option<&'a mut (dyn ShadowCheck + 'static)>,
    shadow_every: u64,
    config: &'a GpuConfig,
    kernel: &'a dyn Kernel,
    stats: &mut KernelStats,
    epoch_stats: &mut EpochStats,
) -> Outcome {
    let threads = effective_threads(config);
    let mut units: Vec<ShardUnit> = sms
        .drain(..)
        .zip(policies.drain(..))
        .map(|(sm, policy)| ShardUnit { sm, policy })
        .collect();
    if threads == 1 {
        let sink = Sink::Inline { mem, shadow };
        let mut shard = Shard::new(units, sink, kernel, config, shadow_every);
        let outcome = shard.run_to_end();
        shard.restore(sms, policies, stats);
        return outcome;
    }

    // Split the SMs and their policies into contiguous shards.
    let delta = config.l2_latency.min(config.dram_latency);
    let limit = config.max_cycles_per_kernel;
    let chunk = units.len().div_ceil(threads);
    let mut shards: Vec<Option<Box<Shard<'a>>>> = Vec::with_capacity(threads);
    while !units.is_empty() {
        let rest = units.split_off(chunk.min(units.len()));
        let sink = Sink::Deferred {
            buffer: L2Buffer::default(),
            recorder: shadow.is_some().then(ShadowRecorder::default),
        };
        let part = std::mem::replace(&mut units, rest);
        shards.push(Some(Box::new(Shard::new(part, sink, kernel, config, shadow_every))));
    }
    let workers = shards.len();
    let mut busy = vec![0u64; workers];
    let mut stall = vec![0u64; workers];
    let mut epochs = 0u64;
    let mut max_advance = 0u64;
    let mut prev_start: Option<Cycles> = None;

    let outcome = std::thread::scope(|scope| {
        let mut to_worker = Vec::with_capacity(workers);
        let mut from_worker = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = mpsc::channel::<EpochJob<'a>>();
            let (res_tx, res_rx) = mpsc::channel::<EpochJob<'a>>();
            scope.spawn(move || {
                while let Ok(mut job) = job_rx.recv() {
                    let start = now_ns();
                    job.shard.run_epoch(job.epoch_end);
                    job.busy_ns = now_ns().saturating_sub(start);
                    if res_tx.send(job).is_err() {
                        break;
                    }
                }
            });
            to_worker.push(job_tx);
            from_worker.push(res_rx);
        }

        loop {
            // Classify every shard at the barrier.
            let mut any_stuck = false;
            let mut running: Vec<(usize, Cycles)> = Vec::new();
            for (i, slot) in shards.iter().enumerate() {
                let Some(shard) = slot.as_ref() else { continue };
                if shard.done_at.is_some() {
                    continue;
                }
                match shard.next_candidate() {
                    Some(c) => running.push((i, c)),
                    None => any_stuck = true,
                }
            }

            if running.is_empty() {
                let live = || shards.iter().flatten();
                if any_stuck {
                    // Workload deadlock: the one-shard run would coast to
                    // one cycle past the last issuing cycle and bail.
                    return Outcome {
                        cycle: live().map(|s| s.coast_cycle()).max().unwrap_or(0),
                        fallback: Some(TerminationReason::Deadlock),
                    };
                }
                return Outcome {
                    cycle: live().filter_map(|s| s.done_at).max().unwrap_or(0),
                    fallback: None,
                };
            }

            let epoch_start = running.iter().map(|&(_, c)| c).min().unwrap_or(0);
            if epoch_start >= limit {
                // Cycle-limit endgame: the one-shard run would process
                // exactly this one cycle, observe the limit, and stop.
                // Cheap enough to run inline on the coordinator.
                for &(i, c) in &running {
                    if c == epoch_start {
                        if let Some(shard) = shards[i].as_mut() {
                            shard.process_cycle(epoch_start);
                        }
                    }
                }
                arbitrate(&mut shards, chunk, mem, config, stats);
                replay_shadow(&mut shards, &mut shadow);
                epochs += 1;
                let all_done = shards.iter().flatten().all(|s| s.done_at.is_some());
                return Outcome {
                    cycle: epoch_start,
                    fallback: (!all_done).then_some(TerminationReason::CycleLimit),
                };
            }

            // Normal epoch: [epoch_start, epoch_start + Δ).
            let epoch_end = epoch_start.saturating_add(delta);
            let mut dispatched: Vec<usize> = Vec::new();
            for &(i, c) in &running {
                if c < epoch_end && c < limit {
                    let Some(shard) = shards[i].take() else { continue };
                    let job = EpochJob {
                        shard,
                        epoch_end,
                        busy_ns: 0,
                    };
                    match to_worker[i].send(job) {
                        Ok(()) => dispatched.push(i),
                        Err(mpsc::SendError(job)) => {
                            shards[i] = Some(job.shard);
                            return WORKER_LOST;
                        }
                    }
                }
            }
            let wait_start = now_ns();
            let mut job_busy = vec![0u64; dispatched.len()];
            for (slot, &i) in job_busy.iter_mut().zip(&dispatched) {
                match from_worker[i].recv() {
                    Ok(job) => {
                        busy[i] += job.busy_ns;
                        *slot = job.busy_ns;
                        shards[i] = Some(job.shard);
                    }
                    Err(_) => return WORKER_LOST,
                }
            }
            let span = now_ns().saturating_sub(wait_start);
            for (&i, &b) in dispatched.iter().zip(&job_busy) {
                stall[i] += span.saturating_sub(b);
            }

            arbitrate(&mut shards, chunk, mem, config, stats);
            replay_shadow(&mut shards, &mut shadow);

            epochs += 1;
            if let Some(prev) = prev_start {
                max_advance = max_advance.max(epoch_start - prev);
            }
            prev_start = Some(epoch_start);
        }
    });

    for shard in shards.into_iter().flatten() {
        shard.restore(sms, policies, stats);
    }
    if let Some(prev) = prev_start {
        max_advance = max_advance.max(outcome.cycle.saturating_sub(prev));
    }
    epoch_stats.merge(&EpochStats {
        epochs,
        advanced_cycles: outcome.cycle,
        max_epoch_cycles: max_advance,
        shards: workers,
        busy_ns: busy,
        stall_ns: stall,
    });
    outcome
}
