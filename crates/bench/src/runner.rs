//! Benchmark runners: execute a [`BenchmarkSpec`] under a compression
//! management policy and collect aggregate statistics.

use crate::report::outln;
use latte_core::{
    select_kernel_opt, AdaptiveCmp, AdaptiveHitCount, AssistWarp, CompressionMode,
    HighCapacityAlgo, KernelOptResult, LatteCc, LatteCcMulti, LatteConfig, MultiConfig, StaticBdi,
    StaticBpc, StaticSc,
};
use latte_energy::{EnergyModel, EnergyReport};
use latte_gpusim::{
    FaultConfig, Gpu, GpuConfig, Kernel, KernelStats, L1CompressionPolicy, ShadowConfig,
    UncompressedPolicy,
};
use latte_oracle::{MemoryOracle, OracleReport};
use latte_workloads::BenchmarkSpec;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide intra-simulation thread count, set from the
/// `--sim-threads` command-line flag (default 1 = the one-shard inline
/// run). Unlike the write-once [`FAULT_INJECTION`] style globals this is
/// a plain atomic: the epoch-barrier shards are byte-identical to the
/// one-shard inline run for every value, so flipping it mid-process
/// (as the determinism tests do) can never change a result — only how
/// fast it arrives.
static SIM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker-thread count each simulation's cycle loop uses
/// (`--sim-threads`). Values are clamped per-config by the simulator;
/// `0`/`1` mean the one-shard inline run.
pub fn set_sim_threads(n: usize) {
    SIM_THREADS.store(n.max(1), Ordering::SeqCst);
}

/// The current intra-simulation thread count (see [`set_sim_threads`]).
#[must_use]
pub fn sim_threads() -> usize {
    SIM_THREADS.load(Ordering::SeqCst)
}

/// Process-wide fault-injection override, set once from the `--inject`
/// command-line flag. Experiments build their own [`GpuConfig`]s in many
/// places; routing the override through [`run_benchmark_with_config`]
/// means every experiment picks it up without plumbing a parameter
/// through two dozen signatures.
static FAULT_INJECTION: OnceLock<FaultConfig> = OnceLock::new();

/// Enables fault injection for every subsequent benchmark run in this
/// process. Returns `false` if injection was already configured (the
/// first configuration wins).
pub fn set_fault_injection(config: FaultConfig) -> bool {
    FAULT_INJECTION.set(config).is_ok()
}

/// The process-wide fault-injection override, if `--inject` was given.
#[must_use]
pub fn fault_injection() -> Option<FaultConfig> {
    FAULT_INJECTION.get().copied()
}

/// Process-wide shadow-check switch, set once from the `--shadow-check`
/// command-line flag (same write-once pattern as [`set_fault_injection`]).
/// When enabled, every simulation the service computes runs with a
/// [`MemoryOracle`] attached and reports its verification summary into
/// the experiment's captured output.
static SHADOW_CHECK: OnceLock<bool> = OnceLock::new();

/// Enables oracle shadow-checking for every subsequent benchmark run in
/// this process. Returns `false` if the switch was already set.
pub fn set_shadow_check(enabled: bool) -> bool {
    SHADOW_CHECK.set(enabled).is_ok()
}

/// Whether `--shadow-check` is active in this process.
#[must_use]
pub fn shadow_check_enabled() -> bool {
    SHADOW_CHECK.get().copied().unwrap_or(false)
}

/// Process-wide write-back switch, set once from the `--write-back`
/// command-line flag. When enabled, [`experiment_config`] (and thus
/// every experiment that does not pin its own machine) runs the L1 as
/// write-back/write-allocate with dirty compressed lines instead of the
/// default write-through data path. `write_back` *is* part of the config
/// fingerprint, so memoized and stored results never mix the two modes.
static WRITE_BACK: OnceLock<bool> = OnceLock::new();

/// Enables the write-back data path for every subsequent benchmark run
/// in this process. Returns `false` if the switch was already set.
pub fn set_write_back(enabled: bool) -> bool {
    WRITE_BACK.set(enabled).is_ok()
}

/// Whether `--write-back` is active in this process.
#[must_use]
pub fn write_back_enabled() -> bool {
    WRITE_BACK.get().copied().unwrap_or(false)
}

/// Aggregate shadow-check counters across every *genuinely executed*
/// simulation in this process (memo-cache replays do not re-count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowTally {
    /// Simulations that ran with an oracle attached.
    pub sims: u64,
    /// Loads whose bytes were compared against the reference model.
    pub loads_checked: u64,
    /// Structural checkpoints taken.
    pub checkpoints: u64,
    /// Violations detected (data integrity + structural).
    pub violations: u64,
}

static SHADOW_SIMS: AtomicU64 = AtomicU64::new(0);
static SHADOW_LOADS: AtomicU64 = AtomicU64::new(0);
static SHADOW_CHECKPOINTS: AtomicU64 = AtomicU64::new(0);
static SHADOW_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// The process-wide shadow-check counters so far.
#[must_use]
pub fn shadow_tally() -> ShadowTally {
    ShadowTally {
        sims: SHADOW_SIMS.load(Ordering::SeqCst),
        loads_checked: SHADOW_LOADS.load(Ordering::SeqCst),
        checkpoints: SHADOW_CHECKPOINTS.load(Ordering::SeqCst),
        violations: SHADOW_VIOLATIONS.load(Ordering::SeqCst),
    }
}

/// Explicit overrides for the LATTE-CC controller knobs that used to be
/// read from hidden `LATTE_*` environment variables inside
/// [`LatteConfig::paper`]. They are now plumbed from the `latte-bench`
/// command line (`--miss-latency`, `--tolerance-scale`, `--force-mode`,
/// `--debug-decide`) through this struct, so a config is fully
/// determined by its constructor arguments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatteOverrides {
    /// Overrides [`LatteConfig::miss_latency`] (cycles).
    pub miss_latency: Option<f64>,
    /// Overrides [`LatteConfig::tolerance_scale`].
    pub tolerance_scale: Option<f64>,
    /// Pins every controller decision to a fixed mode.
    pub force_mode: Option<CompressionMode>,
    /// Prints a per-decision trace from the controller.
    pub debug_decide: bool,
}

/// Process-wide LATTE-CC config overrides, set once from the command
/// line before any experiment runs (same pattern as
/// [`set_fault_injection`]: experiments build configs in many places,
/// and a write-once global avoids threading a parameter through every
/// signature while staying deterministic under the parallel driver —
/// after startup it is read-only).
static LATTE_OVERRIDES: OnceLock<LatteOverrides> = OnceLock::new();

/// Installs controller-knob overrides for every subsequent benchmark run
/// in this process. Returns `false` if overrides were already installed
/// (the first call wins).
pub fn set_latte_overrides(overrides: LatteOverrides) -> bool {
    LATTE_OVERRIDES.set(overrides).is_ok()
}

/// The process-wide controller-knob overrides (all-`None`/false when
/// nothing was installed).
#[must_use]
pub fn latte_overrides() -> LatteOverrides {
    LATTE_OVERRIDES.get().copied().unwrap_or_default()
}

/// Applies the process-wide overrides to a freshly built [`LatteConfig`].
fn apply_overrides(latte: LatteConfig) -> LatteConfig {
    apply_overrides_with(latte, latte_overrides())
}

/// Applies one specific set of overrides ([`apply_overrides`] minus the
/// global lookup, so it is unit-testable without mutating process state).
fn apply_overrides_with(mut latte: LatteConfig, ov: LatteOverrides) -> LatteConfig {
    if let Some(miss) = ov.miss_latency {
        latte = latte.with_miss_latency(miss);
    }
    if let Some(scale) = ov.tolerance_scale {
        latte = latte.with_tolerance_scale(scale);
    }
    if ov.force_mode.is_some() {
        latte.force_mode = ov.force_mode;
    }
    if ov.debug_decide {
        // Route the decision trace into the per-experiment output
        // capture (report::emit): lines land in the experiment's own
        // buffer, so parallel runs cannot interleave.
        latte.decide_trace = Some(latte_gpusim::TraceSink::new(|line| {
            crate::report::emit(format_args!("{line}\n"));
        }));
    }
    latte
}

/// The compression management policies under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Uncompressed baseline.
    Baseline,
    /// Static BDI on every fill.
    StaticBdi,
    /// Static SC on every fill.
    StaticSc,
    /// Static BPC on every fill.
    StaticBpc,
    /// LATTE-CC with BDI + SC component algorithms.
    LatteCc,
    /// LATTE-CC with BDI + BPC component algorithms (Fig 18).
    LatteCcBdiBpc,
    /// The generalised four-mode controller (None/BDI/BPC/SC) — the §V-E
    /// extension.
    LatteCcMulti,
    /// Adaptive-Hit-Count (§V-D).
    AdaptiveHitCount,
    /// Adaptive-CMP (§V-D).
    AdaptiveCmp,
    /// CABA-style software assist warps (arXiv 1602.01348): BDI in
    /// software, gated EP-by-EP on latency tolerance.
    AssistWarp,
}

/// Every policy, in report order.
pub const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::Baseline,
    PolicyKind::StaticBdi,
    PolicyKind::StaticSc,
    PolicyKind::StaticBpc,
    PolicyKind::LatteCc,
    PolicyKind::LatteCcBdiBpc,
    PolicyKind::LatteCcMulti,
    PolicyKind::AdaptiveHitCount,
    PolicyKind::AdaptiveCmp,
    PolicyKind::AssistWarp,
];

impl PolicyKind {
    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "Baseline",
            PolicyKind::StaticBdi => "Static-BDI",
            PolicyKind::StaticSc => "Static-SC",
            PolicyKind::StaticBpc => "Static-BPC",
            PolicyKind::LatteCc => "LATTE-CC",
            PolicyKind::LatteCcBdiBpc => "LATTE-CC-BDI-BPC",
            PolicyKind::LatteCcMulti => "LATTE-CC-4mode",
            PolicyKind::AdaptiveHitCount => "Adaptive-Hit-Count",
            PolicyKind::AdaptiveCmp => "Adaptive-CMP",
            PolicyKind::AssistWarp => "Assist-Warp",
        }
    }

    /// Builds a fresh policy instance, tuned to `gpu_config`'s L1.
    #[must_use]
    pub fn build(self, gpu_config: &GpuConfig) -> Box<dyn L1CompressionPolicy> {
        let latte = apply_overrides(LatteConfig {
            num_l1_sets: gpu_config.l1_geometry.num_sets(),
            l1_base_hit_latency: gpu_config.l1_hit_latency as f64,
            ..LatteConfig::paper()
        });
        match self {
            PolicyKind::Baseline => Box::new(UncompressedPolicy),
            PolicyKind::StaticBdi => Box::new(StaticBdi::new()),
            PolicyKind::StaticSc => Box::new(StaticSc::new()),
            PolicyKind::StaticBpc => Box::new(StaticBpc::new()),
            PolicyKind::LatteCc => Box::new(LatteCc::new(latte)),
            PolicyKind::LatteCcBdiBpc => Box::new(LatteCc::new(LatteConfig {
                high_capacity: HighCapacityAlgo::Bpc,
                ..latte
            })),
            PolicyKind::LatteCcMulti => Box::new(LatteCcMulti::new(MultiConfig {
                num_l1_sets: latte.num_l1_sets,
                l1_base_hit_latency: latte.l1_base_hit_latency,
                miss_latency: latte.miss_latency,
                tolerance_scale: latte.tolerance_scale,
                ..MultiConfig::four_mode()
            })),
            PolicyKind::AdaptiveHitCount => Box::new(AdaptiveHitCount::new(latte)),
            PolicyKind::AdaptiveCmp => Box::new(AdaptiveCmp::new(latte)),
            PolicyKind::AssistWarp => Box::new(AssistWarp::new()),
        }
    }
}

/// One kernel of a benchmark run, in launch order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelRecord {
    /// The kernel's execution cycles.
    pub cycles: u64,
    /// EPs the kernel spent in [no-compression, low-latency,
    /// high-capacity] mode, summed over SMs (all zero for non-adaptive
    /// policies).
    pub eps_in_mode: [u64; 3],
}

/// Aggregate result of one benchmark under one policy.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark abbreviation.
    pub abbr: &'static str,
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// Summed statistics over all kernels.
    pub stats: KernelStats,
    /// Energy report over the whole benchmark.
    pub energy: EnergyReport,
    /// Per-SM policy decision reports after the final kernel.
    pub reports: Vec<latte_gpusim::PolicyReport>,
    /// One record per kernel, in launch order.
    pub kernels: Vec<KernelRecord>,
    /// Oracle verification report, when the run was shadow-checked.
    pub shadow: Option<OracleReport>,
}

impl BenchResult {
    /// Total cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Speedup of this result relative to `baseline` (cycles ratio).
    #[must_use]
    pub fn speedup_over(&self, baseline: &BenchResult) -> f64 {
        baseline.stats.cycles as f64 / self.stats.cycles.max(1) as f64
    }

    /// L1 miss reduction relative to `baseline` (positive = fewer misses).
    #[must_use]
    pub fn miss_reduction_over(&self, baseline: &BenchResult) -> f64 {
        let b = baseline.stats.l1.misses.max(1) as f64;
        (b - self.stats.l1.misses as f64) / b
    }

    /// Energy relative to `baseline` (1.0 = equal, <1 = saves energy).
    #[must_use]
    pub fn energy_ratio_over(&self, baseline: &BenchResult) -> f64 {
        self.energy.total_nj() / baseline.energy.total_nj().max(1e-9)
    }
}

/// The Kernel-OPT oracle (§V-B) of one benchmark, as a view over its
/// Baseline, Static-BDI and Static-SC runs, in that order: per kernel,
/// the fastest of the three static modes.
#[must_use]
pub fn kernel_opt(static_runs: [&BenchResult; 3]) -> KernelOptResult {
    let cycles = static_runs.map(|run| run.kernels.iter().map(|k| k.cycles).collect::<Vec<_>>());
    select_kernel_opt([&cycles[0], &cycles[1], &cycles[2]])
}

/// The default experiment machine: a scaled-down Table II configuration
/// (fewer SMs, proportional L2) chosen for wall-clock reasons; per-SM
/// behaviour is unchanged. Experiments that need the full 15-SM machine
/// construct [`GpuConfig::paper`] themselves.
#[must_use]
pub fn experiment_config() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        faults: fault_injection(),
        write_back: write_back_enabled(),
        ..GpuConfig::small()
    }
}

/// Runs `bench` under `policy` on the default experiment machine,
/// memoized by the simulation service (see [`crate::sim`]).
#[must_use]
pub fn run_benchmark(policy: PolicyKind, bench: &BenchmarkSpec) -> BenchResult {
    run_benchmark_with_config(policy, bench, &experiment_config())
}

/// Runs `bench` under `policy` on a specific machine configuration.
///
/// Routed through the memoized simulation service: each unique
/// (policy, benchmark, config, overrides) combination is simulated at
/// most once per process, and repeat requests replay the stored result
/// *and* its diagnostics into the caller's output capture. Experiments
/// that must genuinely re-execute (e.g. a determinism self-check) call
/// [`run_benchmark_uncached`] instead.
#[must_use]
pub fn run_benchmark_with_config(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> BenchResult {
    crate::sim::run_cached(policy, bench, config)
}

/// Runs `bench` under `policy` on `config`, **bypassing** the simulation
/// memo cache: the simulator genuinely executes, and diagnostics are
/// emitted directly into the current capture. The cached path
/// ([`run_benchmark_with_config`]) is observationally identical and
/// almost always what you want; this exists for callers whose *point* is
/// re-execution, like `resilience`'s determinism self-check.
#[must_use]
pub fn run_benchmark_uncached(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> BenchResult {
    run_instrumented(policy, bench, config, shadow_check_enabled(), true)
}

/// Uncached run that does **not** count toward the process-wide shadow
/// tally. This is the store-verify recompute path: the stored result it
/// is compared against already tallied (either at its original compute
/// or via [`tally_shadow_replay`] when it was loaded), so tallying the
/// comparison run too would double-count the simulation.
#[must_use]
pub(crate) fn run_benchmark_untallied(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> BenchResult {
    run_instrumented(policy, bench, config, shadow_check_enabled(), false)
}

/// Folds a shadow report revived from the persistent result store into
/// the process-wide tally. A store hit must be observationally identical
/// to a cold compute, and the cold compute would have tallied — so the
/// warm process tallies the stored report instead.
pub(crate) fn tally_shadow_replay(report: &OracleReport) {
    SHADOW_SIMS.fetch_add(1, Ordering::SeqCst);
    SHADOW_LOADS.fetch_add(report.loads_checked, Ordering::SeqCst);
    SHADOW_CHECKPOINTS.fetch_add(report.checkpoints, Ordering::SeqCst);
    SHADOW_VIOLATIONS.fetch_add(report.violations_total, Ordering::SeqCst);
}

/// Runs `bench` under `policy` with the oracle shadow check attached,
/// regardless of the `--shadow-check` flag, bypassing the memo cache.
/// This is the entry point for the `verify` experiment and the
/// verification tests, which need the report even when the process-wide
/// switch is off.
#[must_use]
pub fn run_benchmark_shadowed(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
) -> (BenchResult, OracleReport) {
    // Not counted in the process-wide tally: explicit shadowed runs
    // (including the `verify` experiment's deliberate corruption demos)
    // must not trip the driver's "--shadow-check found violations" exit.
    let mut result = run_instrumented(policy, bench, config, true, false);
    let report = result.shadow.take().unwrap_or_default();
    result.shadow = Some(report.clone());
    (result, report)
}

/// The one place a simulator is actually constructed and driven.
/// `shadowed` attaches a [`MemoryOracle`] before the first kernel and
/// folds its report into the result (and the output capture) afterwards.
fn run_instrumented(
    policy: PolicyKind,
    bench: &BenchmarkSpec,
    config: &GpuConfig,
    shadowed: bool,
    count_in_tally: bool,
) -> BenchResult {
    let mut config = config.clone();
    if config.faults.is_none() {
        config.faults = fault_injection();
    }
    if config.sim_threads <= 1 {
        // Configs that don't pin a thread count inherit the process-wide
        // `--sim-threads` setting. Results are byte-identical either way
        // (which is why `sim_threads` stays outside the fingerprint).
        config.sim_threads = sim_threads();
    }
    if latte_overrides().debug_decide {
        // The controller's decision trace emits into the per-experiment
        // output capture from *inside* SM stepping; under the epoch
        // barrier those calls would run on worker threads and miss the
        // capture. The trace is a debugging aid, so trade speed for it.
        config.sim_threads = 1;
    }
    let mut gpu = Gpu::new(&config, |_| policy.build(&config));
    // Simulator diagnostics (watchdog, early termination) join the same
    // per-experiment capture as the runner's own output.
    gpu.set_diag_sink(latte_gpusim::TraceSink::new(|line| {
        crate::report::emit(format_args!("{line}\n"));
    }));
    let handle = if shadowed {
        let (oracle, handle) = MemoryOracle::new();
        gpu.set_shadow_check(Box::new(oracle), ShadowConfig::default());
        Some(handle)
    } else {
        None
    };
    let kernels = bench.build_kernels();
    let mut stats = KernelStats::default();
    let mut records = Vec::with_capacity(kernels.len());
    for kernel in &kernels {
        let ks = gpu.run_kernel(kernel as &dyn Kernel);
        // Policies reset their mode histogram at each kernel start, so
        // the reports taken here cover exactly this kernel.
        let mut eps_in_mode = [0u64; 3];
        for report in gpu.policy_reports() {
            for (sum, eps) in eps_in_mode.iter_mut().zip(report.eps_in_mode) {
                *sum += eps;
            }
        }
        records.push(KernelRecord {
            cycles: ks.cycles,
            eps_in_mode,
        });
        if !ks.termination.is_clean() {
            outln!(
                "latte-bench: {}/{} under {} stopped early: {} after {} cycles \
                 (statistics for this benchmark are partial)",
                bench.abbr,
                kernel.name(),
                policy.name(),
                ks.termination,
                ks.cycles
            );
        }
        stats.accumulate(&ks);
    }
    let shadow = handle.map(|h| {
        let report = h.report();
        if count_in_tally {
            SHADOW_SIMS.fetch_add(1, Ordering::SeqCst);
            SHADOW_LOADS.fetch_add(report.loads_checked, Ordering::SeqCst);
            SHADOW_CHECKPOINTS.fetch_add(report.checkpoints, Ordering::SeqCst);
            SHADOW_VIOLATIONS.fetch_add(report.violations_total, Ordering::SeqCst);
        }
        // The summary prints into the capture, so memo-cache replays of a
        // shadow-checked simulation reproduce it byte-for-byte.
        outln!(
            "[shadow] {}/{}: {} loads checked, {} checkpoints, {} violation(s)",
            bench.abbr,
            policy.name(),
            report.loads_checked,
            report.checkpoints,
            report.violations_total
        );
        for violation in report.violations.iter().take(3) {
            outln!("[shadow]   {violation}");
        }
        report
    });
    crate::timing::record_epoch_stats(&gpu.take_epoch_stats());
    let energy = EnergyModel::paper().account(&stats);
    BenchResult {
        abbr: bench.abbr,
        policy,
        stats,
        energy,
        reports: gpu.policy_reports(),
        kernels: records,
        shadow,
    }
}

/// Geometric mean of a nonempty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn all_policies_have_unique_names() {
        let mut names: Vec<&str> = ALL_POLICIES.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_POLICIES.len());
    }

    #[test]
    fn overrides_replace_the_removed_env_knobs() {
        let base = LatteConfig::paper();
        let ov = LatteOverrides {
            miss_latency: Some(320.0),
            tolerance_scale: Some(0.5),
            force_mode: Some(CompressionMode::LowLatency),
            debug_decide: true,
        };
        let cfg = apply_overrides_with(base.clone(), ov);
        assert_eq!(cfg.miss_latency, 320.0);
        assert_eq!(cfg.tolerance_scale, 0.5);
        assert_eq!(cfg.force_mode, Some(CompressionMode::LowLatency));
        assert!(cfg.decide_trace.is_some(), "--debug-decide installs a trace sink");
        // No overrides => the config passes through untouched.
        let untouched = apply_overrides_with(base.clone(), LatteOverrides::default());
        assert_eq!(untouched.miss_latency, base.miss_latency);
        assert_eq!(untouched.tolerance_scale, base.tolerance_scale);
        assert_eq!(untouched.force_mode, None);
        assert!(untouched.decide_trace.is_none());
    }

    /// The Kernel-OPT oracle as it ran before it became a view over
    /// memoised results: one GPU per static mode, stepped through the
    /// benchmark's kernels in launch order. Returns per-kernel cycles
    /// indexed [mode][kernel]. Kept only as the reference the view is
    /// checked against.
    fn reference_kernel_opt_cycles(config: &GpuConfig, bench: &BenchmarkSpec) -> [Vec<u64>; 3] {
        let kernels = bench.build_kernels();
        let mut gpus: [Gpu; 3] = [
            Gpu::new(config, |_| {
                Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>
            }),
            Gpu::new(config, |_| {
                Box::new(StaticBdi::new()) as Box<dyn L1CompressionPolicy>
            }),
            Gpu::new(config, |_| {
                Box::new(StaticSc::new()) as Box<dyn L1CompressionPolicy>
            }),
        ];
        gpus.each_mut().map(|gpu| {
            kernels
                .iter()
                .map(|k| gpu.run_kernel(k as &dyn Kernel).cycles)
                .collect()
        })
    }

    #[test]
    fn kernel_opt_view_matches_the_three_gpu_oracle() {
        let config = GpuConfig {
            num_sms: 1,
            ..GpuConfig::small()
        };
        let mut modes_seen = [false; 3];
        for abbr in ["BC", "SS"] {
            let bench = latte_workloads::benchmark(abbr).expect("benchmark exists");
            let kernels = bench.build_kernels();
            assert!(kernels.len() > 1, "{abbr} must launch several kernels");

            let reference = reference_kernel_opt_cycles(&config, &bench);
            let runs = [
                PolicyKind::Baseline,
                PolicyKind::StaticBdi,
                PolicyKind::StaticSc,
            ]
            .map(|policy| run_benchmark_uncached(policy, &bench, &config));
            let view = kernel_opt([&runs[0], &runs[1], &runs[2]]);
            assert_eq!(view.kernels.len(), kernels.len());
            for (k, chosen) in view.kernels.iter().enumerate() {
                let cycles = [reference[0][k], reference[1][k], reference[2][k]];
                assert_eq!(
                    chosen.cycles, cycles,
                    "{abbr} kernel {k}: per-kernel cycles"
                );
                // The reference's own choice: the first fastest mode.
                let best = (0..3).min_by_key(|&i| cycles[i]).expect("three modes");
                assert_eq!(chosen.best, CompressionMode::ALL[best], "{abbr} kernel {k}");
                modes_seen[best] = true;
            }

            // Fig 15's agreement reads LATTE-CC's per-kernel histograms:
            // they equal the reports of a GPU stepped kernel by kernel.
            let latte = run_benchmark_uncached(PolicyKind::LatteCc, &bench, &config);
            let mut gpu = Gpu::new(&config, |_| PolicyKind::LatteCc.build(&config));
            for (kernel, record) in kernels.iter().zip(&latte.kernels) {
                let cycles = gpu.run_kernel(kernel as &dyn Kernel).cycles;
                let mut eps_in_mode = [0u64; 3];
                for report in gpu.policy_reports() {
                    for (sum, eps) in eps_in_mode.iter_mut().zip(report.eps_in_mode) {
                        *sum += eps;
                    }
                }
                let expected = KernelRecord {
                    cycles,
                    eps_in_mode,
                };
                assert_eq!(*record, expected, "{abbr}");
                assert!(
                    eps_in_mode.iter().sum::<u64>() > 0,
                    "{abbr}: LATTE-CC decided"
                );
            }
        }
        assert!(
            modes_seen.iter().filter(|&&seen| seen).count() >= 2,
            "the benchmarks must make the oracle choose more than one mode: {modes_seen:?}"
        );
    }

    #[test]
    fn runner_executes_a_small_benchmark() {
        let bench = latte_workloads::benchmark("NW").expect("NW exists");
        let baseline = run_benchmark(PolicyKind::Baseline, &bench);
        let bdi = run_benchmark(PolicyKind::StaticBdi, &bench);
        assert!(baseline.stats.instructions > 0);
        assert_eq!(baseline.stats.instructions, bdi.stats.instructions);
        assert!(bdi.energy.total_nj() > 0.0);
    }
}
