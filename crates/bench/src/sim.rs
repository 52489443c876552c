//! The memoized simulation service, optionally backed by the crash-safe
//! persistent result store (`latte-store`).
//!
//! Every benchmark simulation in the bench harness flows through
//! [`run_cached`]: the job is keyed by *what would be simulated* — the
//! policy, a structural fingerprint of the [`BenchmarkSpec`], a
//! structural fingerprint of the [`GpuConfig`] (including fault
//! injection) and the process-wide controller overrides — and a
//! process-wide cache guarantees each unique key is **computed exactly
//! once per invocation**, no matter how many experiments request it.
//! The default sweep requests the Baseline/`experiment_config` run of
//! every suite benchmark from a dozen different figures; under the
//! service those all share one simulation.
//!
//! Because simulations are deterministic (enforced by
//! `crates/bench/tests/determinism.rs` and lint rule D1), replaying a
//! memoized result is observationally identical to re-running it — with
//! one subtlety: simulations also *print* (watchdog diagnostics,
//! early-stop warnings, `--debug-decide` traces). The service captures
//! everything a compute prints into [`SimOutcome::diag`] and re-emits it
//! into the requesting experiment's output buffer on **every**
//! consumption, so each experiment's captured output is the same whether
//! it hit or missed the cache.
//!
//! # Persistence (`--store`)
//!
//! When [`configure_store`] is called (the `--store <dir>` flag), each
//! first-in-process request additionally consults the persistent store
//! under a salted content key before simulating, and each fresh compute
//! is written through. A store hit is decoded by [`crate::codec`] —
//! whose decode *is* validation on top of the store's own checksum — and
//! then treated exactly like a computed result: same diagnostics
//! re-emission, same shadow-tally accounting, same result bytes. Any
//! store-side problem (corrupt record, stale schema, unwritable
//! directory) degrades to a recompute; the store can cost time, never
//! correctness. `--store-verify` re-simulates every store hit and
//! byte-compares the re-encoded outcome against the stored bytes,
//! counting (and healing) any divergence.
//!
//! Memory is bounded: once a result is durably on disk, its in-process
//! copy may be *spilled* when retained outcome bytes exceed the
//! retention budget; a later request revives it from the store (memory
//! tier first, then disk). Without a disk-backed store nothing is ever
//! spilled — the process-local cache then grows with the workload set,
//! exactly as it did before the store existed, because dropping the
//! only copy would turn a replay into a recompute and break the
//! "computed exactly once" contract.
//!
//! Concurrency: the cache maps each key to a cell; the first requester
//! claims the cell and computes inline, later requesters block on the
//! cell's condvar. A compute never requests another simulation
//! (single-level, enforced by structure: computes call
//! [`runner::run_benchmark_uncached`] which goes straight to the
//! simulator), so cell waits cannot cycle. A panicking compute parks the
//! panic message in the cell, and every requester re-raises it — one
//! poisoned simulation fails exactly the experiments that depend on it.

use crate::codec;
use crate::pool;
use crate::report;
use crate::runner::{self, BenchResult, PolicyKind};
use crate::timing;
use latte_gpusim::{Fingerprinter, GpuConfig};
use latte_store::{OpenReport, Store, StoreConfig, StoreStats, Tier};
use latte_workloads::BenchmarkSpec;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Canonical identity of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SimKey {
    policy: PolicyKind,
    /// Structural fingerprint of (benchmark spec, gpu config, controller
    /// overrides).
    fingerprint: u128,
}

/// A finished simulation: its result plus everything it printed.
#[derive(Debug)]
struct SimOutcome {
    result: BenchResult,
    diag: String,
}

/// Lifecycle of one cache slot.
enum CellState {
    /// A thread is computing (or reviving) this simulation.
    InFlight,
    /// The outcome is resident in memory.
    Ready(Arc<SimOutcome>),
    /// The outcome was demoted to the persistent store to bound memory;
    /// the next requester revives it (or recomputes if the store lost
    /// it).
    Spilled,
    /// The compute panicked; every requester re-raises the message.
    Failed(String),
}

/// One cache slot.
struct SimCell {
    state: Mutex<CellState>,
    ready: Condvar,
    /// Salted content key this cell persists under.
    disk_key: u128,
    /// Encoded size of the resident outcome (0 when not persisted),
    /// used for retention accounting when the cell spills.
    payload_len: AtomicUsize,
}

/// The memo map and the service's counters. They share one lock so that
/// [`verify_each_sim_ran_once`] reads them as one consistent snapshot,
/// even while other threads are mid-request.
#[derive(Default)]
struct Service {
    cells: HashMap<SimKey, Arc<SimCell>>,
    counts: SimStats,
    /// Requests counted in `counts.requests` that are not yet attributed
    /// to the hit, compute or recompute that serves them.
    unattributed: u64,
    /// Cells claimed but not yet resolved by a compute or a store fill.
    unresolved: u64,
}

static SERVICE: OnceLock<Mutex<Service>> = OnceLock::new();

/// The persistent result store, configured at most once per process
/// from `--store`. `None` (never configured) means the service behaves
/// exactly as the original process-local memo cache.
static STORE: OnceLock<Arc<Store>> = OnceLock::new();
/// Whether `--store-verify` re-simulates and byte-compares store hits.
static STORE_VERIFY: OnceLock<bool> = OnceLock::new();

/// Encoded outcome bytes currently resident in `Ready` cells that are
/// also durable on disk (i.e. spillable).
static RETAINED: AtomicUsize = AtomicUsize::new(0);
/// Spill threshold for [`RETAINED`].
static RETAINED_BUDGET: AtomicUsize = AtomicUsize::new(DEFAULT_RETAINED_BUDGET);

/// Default in-process retention budget for durably-backed outcomes.
pub const DEFAULT_RETAINED_BUDGET: usize = 32 * 1024 * 1024;

fn lock<'a, T: ?Sized>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn service() -> MutexGuard<'static, Service> {
    lock(SERVICE.get_or_init(Mutex::default))
}

/// Opens the persistent result store and installs it for every
/// subsequent simulation in this process. Never fails: an unusable
/// directory degrades to in-memory-only operation, reported in the
/// returned [`OpenReport`]'s warnings.
///
/// # Errors
///
/// Returns `Err` if a store was already configured (write-once, same
/// discipline as the other process-global switches); the redundant
/// store is shut down before returning.
pub fn configure_store(config: StoreConfig) -> Result<OpenReport, &'static str> {
    let (store, open_report) = Store::open(config);
    let store = Arc::new(store);
    match STORE.set(Arc::clone(&store)) {
        Ok(()) => Ok(open_report),
        Err(_) => {
            store.shutdown();
            Err("result store already configured")
        }
    }
}

/// Enables `--store-verify`. Returns `false` if already set.
pub fn set_store_verify(enabled: bool) -> bool {
    STORE_VERIFY.set(enabled).is_ok()
}

fn store_verify_enabled() -> bool {
    STORE_VERIFY.get().copied().unwrap_or(false)
}

fn store() -> Option<&'static Arc<Store>> {
    STORE.get()
}

/// The persistent store's counters, when one is configured.
#[must_use]
pub fn store_stats() -> Option<StoreStats> {
    STORE.get().map(|s| s.stats())
}

/// Whether a disk-backed store is active (spilling possible).
#[must_use]
pub fn store_is_durable() -> bool {
    STORE.get().is_some_and(|s| s.has_disk())
}

/// Blocks until every pending store write is durable.
pub fn flush_store() {
    if let Some(store) = STORE.get() {
        store.flush();
    }
}

/// Flushes and stops the store's writer. Called by the driver before
/// printing timings so `durable_writes` is final.
pub fn shutdown_store() {
    if let Some(store) = STORE.get() {
        store.shutdown();
    }
}

/// Overrides the retention budget (bytes of durably-backed outcome data
/// kept resident before spilling). Exposed for tests.
#[doc(hidden)]
pub fn set_retained_budget(bytes: usize) {
    RETAINED_BUDGET.store(bytes, Ordering::SeqCst);
}

fn key_for(policy: PolicyKind, bench: &BenchmarkSpec, config: &GpuConfig) -> SimKey {
    let mut fp = Fingerprinter::new();
    bench.write_fingerprint(&mut fp);
    fp.write_u64(0x5e70_ffff); // domain separator: spec | config
    let cfg_fp = config.fingerprint();
    fp.write_u64(cfg_fp as u64);
    fp.write_u64((cfg_fp >> 64) as u64);
    // The controller overrides are process-global and write-once, but
    // folding them in keeps the key honest about everything that shapes
    // the simulation.
    let ov = runner::latte_overrides();
    fp.write_opt_f64(ov.miss_latency);
    fp.write_opt_f64(ov.tolerance_scale);
    fp.write_u64(match ov.force_mode {
        None => 0,
        Some(latte_core::CompressionMode::None) => 1,
        Some(latte_core::CompressionMode::LowLatency) => 2,
        Some(latte_core::CompressionMode::HighCapacity) => 3,
    });
    fp.write_bool(ov.debug_decide);
    // A shadow-checked simulation prints a verification summary and
    // carries an oracle report, so it must not alias an unchecked run.
    fp.write_bool(runner::shadow_check_enabled());
    SimKey {
        policy,
        fingerprint: fp.finish(),
    }
}

/// Derives the persistent-store content key for a simulation. Salted by
/// a store-payload domain string (folded together with the fingerprint
/// schema version) so that any change to the outcome encoding or the
/// fingerprint algorithm retires every old record as a clean miss.
fn disk_key_for(key: &SimKey) -> u128 {
    let mut fp = Fingerprinter::salted("latte-sim-outcome/v1");
    fp.write_u64(u64::from(codec::policy_tag(key.policy)));
    fp.write_u64(key.fingerprint as u64);
    fp.write_u64((key.fingerprint >> 64) as u64);
    fp.finish()
}

/// Computes one simulation with its printed output harvested into the
/// returned [`SimOutcome`] instead of the current capture. `revival`
/// distinguishes spill-revival recomputes from first computes.
fn compute(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
    revival: bool,
) -> Result<Arc<SimOutcome>, String> {
    let watch = timing::Stopwatch::start();
    let saved = report::swap_capture(Some(String::new()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        runner::run_benchmark_uncached(policy, bench, config)
    }));
    let diag = report::swap_capture(saved).unwrap_or_default();
    {
        let mut s = service();
        s.unattributed -= 1;
        if revival {
            s.counts.recomputed += 1;
        } else {
            s.counts.computed += 1;
            s.unresolved -= 1;
        }
    }
    let shadow_suffix = if runner::shadow_check_enabled() {
        " [shadow]"
    } else {
        ""
    };
    timing::record_sim(
        format!("{}/{}{shadow_suffix}", policy.name(), bench.abbr),
        watch.elapsed_secs(),
    );
    match result {
        Ok(result) => Ok(Arc::new(SimOutcome { result, diag })),
        Err(payload) => {
            // The experiment that triggered the compute still gets the
            // partial diagnostics; the panic itself is parked in the
            // cell and re-raised by every requester.
            report::emit(format_args!("{diag}"));
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(format!(
                "simulation {}/{} panicked: {msg}",
                policy.name(),
                bench.abbr
            ))
        }
    }
}

/// Installs `outcome` as the cell's resident value and accounts
/// `payload_len` bytes (0 when the outcome is not persisted) toward the
/// retention budget.
fn install_ready(cell: &SimCell, outcome: &Arc<SimOutcome>, payload_len: usize) {
    cell.payload_len.store(payload_len, Ordering::SeqCst);
    if payload_len > 0 {
        RETAINED.fetch_add(payload_len, Ordering::SeqCst);
    }
    let mut state = lock(&cell.state);
    *state = CellState::Ready(Arc::clone(outcome));
    cell.ready.notify_all();
}

fn install_failed(cell: &SimCell, msg: String) {
    let mut state = lock(&cell.state);
    *state = CellState::Failed(msg);
    cell.ready.notify_all();
}

/// Encodes and writes `outcome` through to the store (if configured).
/// Returns the encoded length, or 0 when nothing was persisted.
fn persist(cell: &SimCell, outcome: &SimOutcome) -> usize {
    let Some(store) = store() else {
        return 0;
    };
    let bytes = codec::encode_outcome(&outcome.result, &outcome.diag);
    let len = bytes.len();
    store.put(cell.disk_key, Arc::new(bytes));
    len
}

/// Attributes a request to a store hit; `fill` marks the hit that first
/// resolves its cell.
fn count_store_hit(tier: Tier, fill: bool) {
    let mut s = service();
    s.unattributed -= 1;
    match tier {
        Tier::Memory => s.counts.store_mem_hits += 1,
        Tier::Disk => s.counts.store_disk_hits += 1,
    }
    if fill {
        s.counts.store_fills += 1;
        s.unresolved -= 1;
    }
}

/// Tries to resolve a cell from the persistent store. Returns the
/// decoded outcome together with the stored byte length, or `None` on
/// miss / undecodable payload (the store already quarantined anything
/// that failed its checksum; a codec-level reject here means a record
/// from an incompatible build — treated identically as a miss).
fn load_from_store(
    cell: &SimCell,
    policy: PolicyKind,
    bench: &BenchmarkSpec,
) -> Option<(Arc<SimOutcome>, Arc<Vec<u8>>, Tier)> {
    let store = store()?;
    let (bytes, tier) = store.get(cell.disk_key)?;
    match codec::decode_outcome(&bytes, policy, bench) {
        Ok((result, diag)) => Some((Arc::new(SimOutcome { result, diag }), bytes, tier)),
        Err(_) => None,
    }
}

/// `--store-verify`: re-simulates a store hit and byte-compares the
/// re-encoded outcome against the stored record. On mismatch, prefers
/// the freshly computed result and heals the store with it.
fn verify_store_hit(
    cell: &SimCell,
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
    stored_bytes: &[u8],
) -> Option<Arc<SimOutcome>> {
    let watch = timing::Stopwatch::start();
    let saved = report::swap_capture(Some(String::new()));
    let recomputed = catch_unwind(AssertUnwindSafe(|| {
        runner::run_benchmark_untallied(policy, bench, config)
    }));
    let diag = report::swap_capture(saved).unwrap_or_default();
    timing::record_sim(
        format!("{}/{} [store-verify]", policy.name(), bench.abbr),
        watch.elapsed_secs(),
    );
    let Ok(result) = recomputed else {
        // The reference recompute itself died: the stored record cannot
        // be confirmed, which is exactly what --store-verify exists to
        // surface.
        service().counts.verify_failures += 1;
        report::emit(format_args!(
            "[store-verify] {}/{}: recompute panicked; stored record unconfirmed\n",
            policy.name(),
            bench.abbr
        ));
        return None;
    };
    let fresh = codec::encode_outcome(&result, &diag);
    if fresh == stored_bytes {
        return None;
    }
    service().counts.verify_failures += 1;
    report::emit(format_args!(
        "[store-verify] {}/{}: stored record diverges from recompute \
         ({} vs {} bytes); using the recompute and overwriting the record\n",
        policy.name(),
        bench.abbr,
        stored_bytes.len(),
        fresh.len()
    ));
    if let Some(store) = store() {
        store.put(cell.disk_key, Arc::new(fresh));
    }
    Some(Arc::new(SimOutcome { result, diag }))
}

/// Resolves a freshly claimed cell: persistent store first, then a real
/// compute (written through to the store).
fn resolve_claimed(
    cell: &SimCell,
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> Arc<SimOutcome> {
    if let Some((outcome, bytes, tier)) = load_from_store(cell, policy, bench) {
        count_store_hit(tier, true);
        // A cold compute would have folded its oracle report into the
        // process tally; a warm fill must look identical.
        if let Some(shadow) = &outcome.result.shadow {
            runner::tally_shadow_replay(shadow);
        }
        let outcome = if store_verify_enabled() {
            verify_store_hit(cell, policy, bench, config, &bytes).unwrap_or(outcome)
        } else {
            outcome
        };
        install_ready(cell, &outcome, bytes.len());
        return outcome;
    }
    match compute(policy, bench, config, false) {
        Ok(outcome) => {
            let len = persist(cell, &outcome);
            install_ready(cell, &outcome, len);
            outcome
        }
        Err(msg) => {
            install_failed(cell, msg.clone());
            resume_unwind(Box::new(msg))
        }
    }
}

/// Revives a spilled cell from the store, or recomputes if the store
/// lost the record (corruption cost a recompute — never a wrong
/// answer). The caller has already transitioned the cell to
/// `InFlight`.
fn revive(
    cell: &SimCell,
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> Arc<SimOutcome> {
    if let Some((outcome, bytes, tier)) = load_from_store(cell, policy, bench) {
        count_store_hit(tier, false);
        install_ready(cell, &outcome, bytes.len());
        return outcome;
    }
    match compute(policy, bench, config, true) {
        Ok(outcome) => {
            let len = persist(cell, &outcome);
            install_ready(cell, &outcome, len);
            outcome
        }
        Err(msg) => {
            install_failed(cell, msg.clone());
            resume_unwind(Box::new(msg))
        }
    }
}

/// Returns the memoized outcome for a key, computing it if this is the
/// first request.
fn outcome_for(policy: PolicyKind, bench: &BenchmarkSpec, config: &GpuConfig) -> Arc<SimOutcome> {
    let key = key_for(policy, bench, config);
    let (cell, claimed) = {
        let mut s = service();
        s.counts.requests += 1;
        s.unattributed += 1;
        match s.cells.get(&key) {
            Some(cell) => (Arc::clone(cell), false),
            None => {
                let cell = Arc::new(SimCell {
                    state: Mutex::new(CellState::InFlight),
                    ready: Condvar::new(),
                    disk_key: disk_key_for(&key),
                    payload_len: AtomicUsize::new(0),
                });
                s.cells.insert(key, Arc::clone(&cell));
                s.unresolved += 1;
                (cell, true)
            }
        }
    };
    if claimed {
        return resolve_claimed(&cell, policy, bench, config);
    }
    let mut state = lock(&cell.state);
    loop {
        match &*state {
            CellState::Ready(outcome) => {
                let outcome = Arc::clone(outcome);
                drop(state);
                count_replay_hit();
                return outcome;
            }
            CellState::Failed(msg) => {
                let msg = msg.clone();
                drop(state);
                count_replay_hit();
                resume_unwind(Box::new(msg));
            }
            CellState::Spilled => {
                *state = CellState::InFlight;
                drop(state);
                return revive(&cell, policy, bench, config);
            }
            CellState::InFlight => {
                let (next, _) = cell
                    .ready
                    .wait_timeout(state, std::time::Duration::from_millis(10))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = next;
            }
        }
    }
}

/// Attributes a request to a cell already resolved in this process.
fn count_replay_hit() {
    let mut s = service();
    s.unattributed -= 1;
    s.counts.replay_hits += 1;
}

/// Demotes durably-backed resident outcomes to the store until retained
/// bytes fit the budget again. Only cells whose record is confirmed on
/// disk are eligible — spilling the only copy would turn a replay into
/// a recompute and break the "computed exactly once" contract.
fn enforce_retention() {
    let budget = RETAINED_BUDGET.load(Ordering::SeqCst);
    if RETAINED.load(Ordering::SeqCst) <= budget {
        return;
    }
    let Some(store) = store() else {
        return;
    };
    if !store.has_disk() {
        return;
    }
    let cells: Vec<Arc<SimCell>> = service().cells.values().map(Arc::clone).collect();
    for cell in cells {
        if RETAINED.load(Ordering::SeqCst) <= budget {
            break;
        }
        let len = cell.payload_len.load(Ordering::SeqCst);
        if len == 0 || !store.durable(cell.disk_key) {
            continue;
        }
        let mut state = lock(&cell.state);
        if matches!(&*state, CellState::Ready(_)) {
            *state = CellState::Spilled;
            drop(state);
            cell.payload_len.store(0, Ordering::SeqCst);
            RETAINED.fetch_sub(len, Ordering::SeqCst);
            service().counts.spills += 1;
        }
    }
}

/// Runs (or replays) `bench` under `policy` on `config`, re-emitting the
/// simulation's diagnostics into the current output capture. This is the
/// single entry point behind [`runner::run_benchmark_with_config`].
pub fn run_cached(policy: PolicyKind, bench: &BenchmarkSpec, config: &GpuConfig) -> BenchResult {
    let outcome = outcome_for(policy, bench, config);
    report::emit(format_args!("{}", outcome.diag));
    let result = outcome.result.clone();
    drop(outcome);
    enforce_retention();
    result
}

/// One simulation request for the batch APIs.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Policy to evaluate.
    pub policy: PolicyKind,
    /// Benchmark to run.
    pub bench: BenchmarkSpec,
    /// Machine configuration.
    pub config: GpuConfig,
}

/// Runs a batch of simulations as pool subtasks, saturating every
/// driver worker, and returns results in submission order. Diagnostics
/// land in the calling experiment's capture in submission order, so a
/// batched experiment prints the same bytes at any `--jobs` level.
///
/// Duplicate keys within one batch are fine: the cache computes the
/// first and the rest await the same cell.
pub fn run_batch(jobs: Vec<SimJob>) -> Vec<BenchResult> {
    let tasks: Vec<Box<dyn FnOnce() -> BenchResult + Send>> = jobs
        .into_iter()
        .map(|job| {
            Box::new(move || run_cached(job.policy, &job.bench, &job.config))
                as Box<dyn FnOnce() -> BenchResult + Send>
        })
        .collect();
    pool::run_subtasks(tasks)
}

/// [`run_batch`] over the cross product `policies` × `benches` on one
/// config; returns results grouped per benchmark, policies in the given
/// order (`result[b][p]` = `benches[b]` under `policies[p]`).
pub fn run_matrix(
    policies: &[PolicyKind],
    benches: &[BenchmarkSpec],
    config: &GpuConfig,
) -> Vec<Vec<BenchResult>> {
    let jobs: Vec<SimJob> = benches
        .iter()
        .flat_map(|bench| {
            policies.iter().map(|&policy| SimJob {
                policy,
                bench: bench.clone(),
                config: config.clone(),
            })
        })
        .collect();
    let mut flat = run_batch(jobs).into_iter();
    benches
        .iter()
        .map(|_| (0..policies.len()).filter_map(|_| flat.next()).collect())
        .collect()
}

/// [`run_matrix`] on the default experiment machine
/// ([`runner::experiment_config`]).
pub fn run_matrix_default(
    policies: &[PolicyKind],
    benches: &[BenchmarkSpec],
) -> Vec<Vec<BenchResult>> {
    run_matrix(policies, benches, &runner::experiment_config())
}

/// Simulation-service counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulations requested through the service.
    pub requests: u64,
    /// Requests served by a cell already resolved in this process
    /// (the original memo-cache hit).
    pub replay_hits: u64,
    /// Requests served from the persistent store's in-memory tier.
    pub store_mem_hits: u64,
    /// Requests served from the persistent store's disk tier.
    pub store_disk_hits: u64,
    /// Requests that ran the simulator for the first time.
    pub computed: u64,
    /// Requests that re-ran the simulator because a spilled outcome was
    /// no longer revivable from the store.
    pub recomputed: u64,
    /// Cells first resolved from the persistent store.
    pub store_fills: u64,
    /// Resident outcomes demoted to the store under memory pressure.
    pub spills: u64,
    /// `--store-verify` divergences detected.
    pub verify_failures: u64,
}

impl SimStats {
    /// Requests that did not run the simulator, from any tier.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.replay_hits + self.store_mem_hits + self.store_disk_hits
    }

    /// Requests that genuinely ran the simulator.
    #[must_use]
    pub fn simulated(&self) -> u64 {
        self.computed + self.recomputed
    }
}

/// The service's counters since process start.
#[must_use]
pub fn stats() -> SimStats {
    service().counts
}

/// Checks the service's "each unique simulation ran exactly once"
/// contract: every distinct key was resolved exactly once (by compute
/// or by store fill), and every request is accounted to exactly one
/// path. Spill revivals that recompute are the one deliberate
/// exception — corruption costs a recompute, never a wrong answer —
/// and they are tracked separately in [`SimStats::recomputed`].
///
/// Cells and requests still in flight on other threads are counted as
/// such, from the same snapshot as the counters, so the check holds at
/// any moment; once the service is idle both in-flight counts are zero.
///
/// # Errors
///
/// Returns a description of the violated invariant.
pub fn verify_each_sim_ran_once() -> Result<(), String> {
    let s = service();
    let c = &s.counts;
    let unique = s.cells.len() as u64;
    if c.computed + c.store_fills + s.unresolved != unique {
        return Err(format!(
            "sim cache invariant violated: {} computes + {} store fills + {} in flight \
             for {unique} unique keys",
            c.computed, c.store_fills, s.unresolved
        ));
    }
    if c.requests != c.hits() + c.computed + c.recomputed + s.unattributed {
        return Err(format!(
            "sim cache invariant violated: {} requests != {} hits + {} computed + {} recomputed \
             + {} in flight",
            c.requests,
            c.hits(),
            c.computed,
            c.recomputed,
            s.unattributed
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nw() -> BenchmarkSpec {
        latte_workloads::benchmark("NW").expect("NW exists")
    }

    #[test]
    fn cache_replays_results_and_diagnostics_identically() {
        let bench = nw();
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        let resolved_before = stats().computed + stats().store_fills;

        report::begin_capture();
        let cold = run_cached(PolicyKind::StaticBdi, &bench, &config);
        let cold_text = report::end_capture();
        let resolved_mid = stats().computed + stats().store_fills;

        report::begin_capture();
        let warm = run_cached(PolicyKind::StaticBdi, &bench, &config);
        let warm_text = report::end_capture();
        let resolved_after = stats().computed + stats().store_fills;

        assert_eq!(cold.stats.cycles, warm.stats.cycles);
        assert_eq!(cold.energy.total_nj(), warm.energy.total_nj());
        assert_eq!(cold_text, warm_text, "replayed diagnostics must match");
        // Other tests run concurrently against the same process-wide
        // cache, so assert deltas local to this key: the warm request
        // resolved nothing new.
        assert!(resolved_mid > resolved_before);
        assert_eq!(resolved_mid, resolved_after);
    }

    #[test]
    fn distinct_configs_do_not_alias() {
        let bench = nw();
        let a = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        let b = GpuConfig {
            num_sms: 1,
            l1_hit_latency: a.l1_hit_latency + 1,
            ..GpuConfig::small()
        };
        let ra = run_cached(PolicyKind::Baseline, &bench, &a);
        let rb = run_cached(PolicyKind::Baseline, &bench, &b);
        assert_ne!(ra.stats.cycles, rb.stats.cycles);
    }

    #[test]
    fn batch_matches_serial_results() {
        let bench = nw();
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        let policies = [PolicyKind::Baseline, PolicyKind::StaticSc];
        let matrix = run_matrix(&policies, std::slice::from_ref(&bench), &config);
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].len(), 2);
        for (i, &policy) in policies.iter().enumerate() {
            let serial = run_cached(policy, &bench, &config);
            assert_eq!(matrix[0][i].policy, policy);
            assert_eq!(matrix[0][i].stats.cycles, serial.stats.cycles);
        }
        assert!(verify_each_sim_ran_once().is_ok());
    }

    /// End-to-end store integration inside one process: results are
    /// written through, spilling demotes resident outcomes, and a
    /// spilled outcome revives byte-identically from the store.
    #[test]
    fn store_backed_replay_and_spill() {
        let dir = std::env::temp_dir().join(format!("latte-sim-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // First configure wins; every test in this process then shares
        // the store, which the counter-delta assertions tolerate.
        let _ = configure_store(StoreConfig::at(dir.clone()));
        if !store_is_durable() {
            // Another test (or a prior failed run) already configured a
            // different store; nothing to assert against.
            return;
        }
        let bench = nw();
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };

        let before = stats();
        report::begin_capture();
        let cold = run_cached(PolicyKind::StaticBpc, &bench, &config);
        let cold_text = report::end_capture();
        flush_store();

        // Force a spill of everything durably backed, then revive.
        set_retained_budget(0);
        report::begin_capture();
        let _ = run_cached(PolicyKind::Baseline, &bench, &config);
        let _ = report::end_capture();
        set_retained_budget(DEFAULT_RETAINED_BUDGET);

        report::begin_capture();
        let warm = run_cached(PolicyKind::StaticBpc, &bench, &config);
        let warm_text = report::end_capture();
        let after = stats();

        assert_eq!(cold.stats, warm.stats, "revived result must be identical");
        assert_eq!(cold_text, warm_text, "revived diagnostics must match");
        assert!(after.spills > before.spills, "budget 0 must have spilled");
        assert_eq!(
            after.recomputed, before.recomputed,
            "revival must come from the store, not a recompute"
        );
        assert!(verify_each_sim_ran_once().is_ok());
    }
}
