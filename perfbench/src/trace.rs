//! Outside-in tracing: delegating wrappers around the trait objects the
//! simulator calls into ([`Kernel`], [`OpStream`], [`L1CompressionPolicy`]
//! and [`ShadowCheck`]), plus the span log of a traced run.
//!
//! The wrappers forward every call unchanged, so a traced simulation
//! produces the same statistics as an untraced one (the benchmark checks
//! this by digest). Counters live in one cache-line-aligned slot per SM:
//! each SM is driven by exactly one thread at a time, so shards of a
//! parallel simulation never write the same line.

use crate::util::now_ns;
use latte_cache::LineAddr;
use latte_compress::{CacheLine, Compression, CompressionAlgo, Cycles};
use latte_gpusim::{
    AccessEvent, EpProbe, Kernel, L1CompressionPolicy, Op, OpStream, PolicyReport, ShadowCheck,
    ShadowCheckpoint,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One boundary's call count and summed nanoseconds.
#[derive(Debug, Default)]
pub struct Boundary {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Boundary {
    fn record(&self, start: u64) {
        // Relaxed: plain statistics, read only after the simulation has
        // joined its threads.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(now_ns().saturating_sub(start), Ordering::Relaxed);
    }

    fn take(&self) -> (u64, u64) {
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.ns.swap(0, Ordering::Relaxed),
        )
    }
}

/// The per-call boundaries, in report order.
pub const BOUNDARIES: [&str; 6] = [
    "workloads.next_op",
    "workloads.line_data",
    "core.compress_fill",
    "core.on_access",
    "core.on_ep",
    "oracle.check",
];

/// Counters of one SM, aligned so neighbouring SMs never share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct SmSlot {
    boundaries: [Boundary; 6],
    mode_switches: AtomicU64,
}

/// Totals of one simulation's boundaries, indexed like [`BOUNDARIES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls per boundary.
    pub calls: [u64; 6],
    /// Nanoseconds per boundary.
    pub ns: [u64; 6],
    /// LATTE-CC mode changes observed across `on_ep` calls.
    pub mode_switches: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: &Tally) {
        for i in 0..6 {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.mode_switches += other.mode_switches;
    }
}

/// The counters of one simulation (one slot per SM).
#[derive(Debug)]
pub struct Probe {
    slots: Vec<SmSlot>,
}

impl Probe {
    /// Counters for a machine of `num_sms` SMs.
    pub fn new(num_sms: usize) -> Arc<Probe> {
        Arc::new(Probe {
            slots: (0..num_sms.max(1)).map(|_| SmSlot::default()).collect(),
        })
    }

    fn slot(&self, sm: usize) -> &SmSlot {
        &self.slots[sm.min(self.slots.len() - 1)]
    }

    /// Drains every slot into one tally.
    pub fn take(&self) -> Tally {
        let mut t = Tally::default();
        for slot in &self.slots {
            for (i, b) in slot.boundaries.iter().enumerate() {
                let (calls, ns) = b.take();
                t.calls[i] += calls;
                t.ns[i] += ns;
            }
            t.mode_switches += slot.mode_switches.swap(0, Ordering::Relaxed);
        }
        t
    }
}

/// A kernel whose warp streams and memory image are timed.
pub struct TracedKernel<'k> {
    inner: &'k dyn Kernel,
    probe: Arc<Probe>,
}

impl<'k> TracedKernel<'k> {
    /// Wraps `inner`.
    pub fn new(inner: &'k dyn Kernel, probe: Arc<Probe>) -> Self {
        TracedKernel { inner, probe }
    }
}

impl Kernel for TracedKernel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn warps_on_sm(&self, sm: usize) -> usize {
        self.inner.warps_on_sm(sm)
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(TracedStream {
            inner: self.inner.warp_program(sm, warp),
            probe: Arc::clone(&self.probe),
            sm,
        })
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        let start = now_ns();
        let line = self.inner.line_data(addr);
        // The synthetic workloads keep each SM's data in its own address
        // range, with the SM id above bit 32 of the line number.
        let sm = usize::try_from(addr.line_number() >> 32).unwrap_or(usize::MAX);
        self.probe.slot(sm).boundaries[1].record(start);
        line
    }
}

struct TracedStream {
    inner: Box<dyn OpStream>,
    probe: Arc<Probe>,
    sm: usize,
}

impl OpStream for TracedStream {
    fn next_op(&mut self) -> Op {
        let start = now_ns();
        let op = self.inner.next_op();
        self.probe.slot(self.sm).boundaries[0].record(start);
        op
    }
}

/// A policy whose fill, access and EP hooks are timed.
pub struct TracedPolicy {
    inner: Box<dyn L1CompressionPolicy>,
    probe: Arc<Probe>,
    sm: usize,
}

impl TracedPolicy {
    /// Wraps the policy of SM `sm`.
    pub fn new(inner: Box<dyn L1CompressionPolicy>, probe: Arc<Probe>, sm: usize) -> Self {
        TracedPolicy { inner, probe, sm }
    }

    fn slot(&self) -> &SmSlot {
        self.probe.slot(self.sm)
    }
}

impl L1CompressionPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress_fill(&mut self, set: usize, line: &CacheLine) -> (CompressionAlgo, Compression) {
        let start = now_ns();
        let out = self.inner.compress_fill(set, line);
        self.slot().boundaries[2].record(start);
        out
    }

    fn decompression_latency(&self, algo: CompressionAlgo) -> Cycles {
        self.inner.decompression_latency(algo)
    }

    fn on_access(&mut self, ev: &AccessEvent) {
        let start = now_ns();
        self.inner.on_access(ev);
        self.slot().boundaries[3].record(start);
    }

    fn on_decode_error(&mut self, algo: CompressionAlgo) {
        self.inner.on_decode_error(algo);
    }

    fn on_ep(&mut self, probe: &EpProbe) {
        let before = self.inner.current_mode_index();
        let start = now_ns();
        self.inner.on_ep(probe);
        self.slot().boundaries[4].record(start);
        let after = self.inner.current_mode_index();
        if before.is_some() && before != after {
            self.slot().mode_switches.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_kernel_start(&mut self) {
        self.inner.on_kernel_start();
    }

    fn on_kernel_end(&mut self) {
        self.inner.on_kernel_end();
    }

    fn pending_invalidation(&mut self) -> Option<CompressionAlgo> {
        self.inner.pending_invalidation()
    }

    fn report(&self) -> PolicyReport {
        self.inner.report()
    }

    fn current_mode_index(&self) -> Option<usize> {
        self.inner.current_mode_index()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}

/// An oracle whose every check is timed (charged to SM 0's slot: the
/// simulator calls the oracle from one thread only).
pub struct TracedShadow {
    inner: Box<dyn ShadowCheck>,
    probe: Arc<Probe>,
}

impl TracedShadow {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ShadowCheck>, probe: Arc<Probe>) -> Self {
        TracedShadow { inner, probe }
    }

    fn record(&self, start: u64) {
        self.probe.slot(0).boundaries[5].record(start);
    }
}

impl ShadowCheck for TracedShadow {
    fn on_fill(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        let start = now_ns();
        self.inner.on_fill(sm, addr, data, cycle);
        self.record(start);
    }

    fn on_load(&mut self, sm: usize, addr: LineAddr, observed: Option<&CacheLine>, cycle: Cycles) {
        let start = now_ns();
        self.inner.on_load(sm, addr, observed, cycle);
        self.record(start);
    }

    fn on_store(&mut self, sm: usize, addr: LineAddr, data: &CacheLine, cycle: Cycles) {
        let start = now_ns();
        self.inner.on_store(sm, addr, data, cycle);
        self.record(start);
    }

    fn on_checkpoint(
        &mut self,
        sm: usize,
        cycle: Cycles,
        kind: ShadowCheckpoint,
        structural_errors: &[String],
    ) {
        let start = now_ns();
        self.inner.on_checkpoint(sm, cycle, kind, structural_errors);
        self.record(start);
    }
}

/// One span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index into the log).
    pub id: usize,
    /// Parent span id (`None` for the workload span).
    pub parent: Option<usize>,
    /// `workload`, `simulation` or `kernel`.
    pub kind: &'static str,
    /// Workload, `policy/benchmark` or kernel name.
    pub name: String,
    /// Start, in [`now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end_ns: u64,
    /// Per-call boundary totals (simulation spans only).
    pub tally: Option<Tally>,
}

/// The in-memory span log of one traced run, written out at the end.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Opens a span and returns its id.
    pub fn open(&mut self, kind: &'static str, name: String, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = now_ns();
        self.spans.push(Span {
            id,
            parent,
            kind,
            name,
            start_ns: now,
            end_ns: now,
            tally: None,
        });
        id
    }

    /// Closes span `id`, attaching `tally` if given.
    pub fn close(&mut self, id: usize, tally: Option<Tally>) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now_ns();
            span.tally = tally;
        }
    }

    /// The spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
