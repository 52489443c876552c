//! The top-level GPU: SMs, the shared L2 and backing-store image, and
//! the kernel prologue and epilogue around the cycle loop (which lives in
//! [`crate::parallel`]: the one-shard inline run, or shards behind the
//! epoch barrier).

use crate::config::GpuConfig;
use crate::ops::Kernel;
use crate::parallel::{self, EpochStats};
use crate::policy::L1CompressionPolicy;
use crate::shadow::{ShadowCheck, ShadowCheckpoint, ShadowConfig};
use crate::sm::{L2RequestKind, MemImage, SharedMem, Sm};
use crate::stats::{KernelStats, TerminationReason};
use crate::trace::TraceSink;
use latte_cache::SimpleCache;

/// The simulated GPU.
///
/// Construct it with one policy instance per SM (LATTE-CC runs a private
/// controller per SM; static policies are stateless so replication is
/// harmless), then run kernels against it. Policies persist across kernels
/// so training state carries over; caches flush at kernel boundaries when
/// the config says so.
///
/// # Example
///
/// ```
/// use latte_gpusim::{Gpu, GpuConfig, UncompressedPolicy};
/// use latte_gpusim::testing::StridedKernel;
///
/// let config = GpuConfig::small();
/// let mut gpu = Gpu::new(&config, |_| Box::new(UncompressedPolicy));
/// let kernel = StridedKernel::new(4, 64, 1024);
/// let stats = gpu.run_kernel(&kernel);
/// assert!(stats.instructions > 0);
/// assert!(stats.cycles > 0);
/// ```
pub struct Gpu {
    config: GpuConfig,
    sms: Vec<Sm>,
    /// The shared L2 and the backing-store image behind it: architectural
    /// memory as modified by dirty write-backs (empty — lines pristine —
    /// outside write-back mode).
    mem: SharedMem,
    policies: Vec<Box<dyn L1CompressionPolicy>>,
    diag: Option<TraceSink>,
    shadow: Option<Box<dyn ShadowCheck>>,
    shadow_cfg: ShadowConfig,
    epoch_stats: EpochStats,
}

impl Gpu {
    /// Creates a GPU, building one policy per SM via `make_policy(sm_id)`.
    ///
    /// The config is taken by reference and cloned exactly once, so
    /// `make_policy` can freely borrow the caller's copy (policies are
    /// typically tuned to the same config the GPU runs).
    pub fn new(
        config: &GpuConfig,
        mut make_policy: impl FnMut(usize) -> Box<dyn L1CompressionPolicy>,
    ) -> Gpu {
        let sms = (0..config.num_sms).map(|i| Sm::new(i, config)).collect();
        let policies = (0..config.num_sms).map(&mut make_policy).collect();
        Gpu {
            config: config.clone(),
            sms,
            mem: SharedMem {
                l2: SimpleCache::new(config.l2_geometry),
                image: MemImage::new(),
            },
            policies,
            diag: None,
            shadow: None,
            shadow_cfg: ShadowConfig::default(),
            epoch_stats: EpochStats::default(),
        }
    }

    /// Installs a differential-verification hook (see [`ShadowCheck`]).
    ///
    /// Every SM's L1 switches on its payload shadow, so subsequent loads
    /// report the bytes the cache actually holds. Install the hook before
    /// running kernels: enabling the shadow invalidates all L1 contents so
    /// no resident line can predate its payload record.
    pub fn set_shadow_check(&mut self, check: Box<dyn ShadowCheck>, cfg: ShadowConfig) {
        for sm in &mut self.sms {
            sm.l1.enable_payload_shadow();
        }
        self.shadow = Some(check);
        self.shadow_cfg = cfg;
    }

    /// Installs the sink that receives watchdog and early-termination
    /// diagnostics. Without one, diagnostics are dropped — the driver
    /// decides where (and whether) they surface; the simulator never
    /// writes to stdout/stderr itself.
    pub fn set_diag_sink(&mut self, sink: TraceSink) {
        self.diag = Some(sink);
    }

    fn emit_diag(&self, line: &str) {
        if let Some(sink) = &self.diag {
            sink.emit(line);
        }
    }

    /// The configuration this GPU runs.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs `kernel` to completion (or the cycle limit) and returns its
    /// statistics.
    pub fn run_kernel(&mut self, kernel: &dyn Kernel) -> KernelStats {
        let mut stats = KernelStats::default();
        if self.config.flush_at_kernel_boundary {
            self.mem.l2.invalidate_all();
            // Each kernel's memory is defined by its own `line_data`
            // function, so the write-back image resets with the caches.
            // Without boundary flushes, caches stay warm, dirty lines
            // stay resident, and the image must persist with them.
            self.mem.image.clear();
        }
        self.mem.l2.reset_stats();
        for (sm, policy) in self.sms.iter_mut().zip(&mut self.policies) {
            sm.launch(kernel, &self.config);
            policy.on_kernel_start();
        }

        let outcome = parallel::run_cycles(
            &mut self.sms,
            &mut self.policies,
            &mut self.mem,
            self.shadow.as_deref_mut(),
            self.shadow_cfg.structural_every_eps,
            &self.config,
            kernel,
            &mut stats,
            &mut self.epoch_stats,
        );
        if let Some(fallback) = outcome.fallback {
            stats.timed_out = true;
            stats.termination = self.audit_termination(fallback);
        }
        let cycle = outcome.cycle;

        // Kernel-end dirty flush: when caches flush at the boundary,
        // dirty lines drain to the L2 and the backing-store image first,
        // in SM id order (the cycle loop has reassembled the machine).
        // Without boundary flushes, dirty lines legitimately stay
        // resident.
        if self.config.write_back && self.config.flush_at_kernel_boundary {
            for sm in &mut self.sms {
                for (addr, data) in sm.drain_dirty() {
                    let kind = L2RequestKind::WriteBack { data };
                    self.mem
                        .access_l2(&self.config, &mut stats, cycle, sm.id, addr, kind);
                }
            }
        }

        // Kernel-end checkpoint: every SM's structural invariants must
        // hold at quiescence regardless of the in-kernel cadence.
        if let Some(shadow) = &mut self.shadow {
            for (sm, policy) in self.sms.iter().zip(&self.policies) {
                let errors = sm.structural_errors(policy.as_ref());
                shadow.on_checkpoint(sm.id, cycle, ShadowCheckpoint::KernelEnd, &errors);
            }
        }

        stats.cycles = cycle.max(1);
        // Instruction counts accumulate in warps as well; cross-check.
        debug_assert_eq!(
            stats.instructions,
            self.sms
                .iter()
                .flat_map(|s| s.warps.iter())
                .map(|w| w.instructions)
                .sum::<u64>()
        );
        stats.barrier_wait_cycles = self.sms.iter().map(|s| s.barrier_wait).sum();
        stats.l1 = self.sms.iter().map(|s| *s.l1.stats()).sum();
        stats.l2 = *self.mem.l2.stats();
        stats
    }

    /// Drains the accumulated epoch/barrier accounting (populated only by
    /// sharded runs; empty after one-shard ones). The bench driver's
    /// `--timings` report surfaces it.
    pub fn take_epoch_stats(&mut self) -> EpochStats {
        std::mem::take(&mut self.epoch_stats)
    }

    /// Watchdog audit: distinguishes a stalled workload from corrupted
    /// simulator state. Returns `fallback` when every L1 passes its
    /// structural validation and `FaultAbort` otherwise (the violation is
    /// reported through the diagnostic sink; statistics past this point
    /// are suspect).
    fn audit_termination(&self, fallback: TerminationReason) -> TerminationReason {
        for sm in &self.sms {
            if let Err(violation) = sm.l1.validate() {
                self.emit_diag(&format!(
                    "latte-gpusim: watchdog found corrupted L1 state on SM {}: {violation}",
                    sm.id
                ));
                return TerminationReason::FaultAbort;
            }
        }
        fallback
    }

    /// Runs a sequence of kernels, returning per-kernel statistics.
    /// Kernels that stop early (cycle limit, deadlock, fault abort) are
    /// reported through the diagnostic sink instead of failing silently.
    pub fn run_kernels<'k>(
        &mut self,
        kernels: impl IntoIterator<Item = &'k dyn Kernel>,
    ) -> Vec<KernelStats> {
        kernels
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let stats = self.run_kernel(k);
                if !stats.termination.is_clean() {
                    self.emit_diag(&format!(
                        "latte-gpusim: kernel {i} ({}) stopped early: {} after {} cycles",
                        k.name(),
                        stats.termination,
                        stats.cycles
                    ));
                }
                stats
            })
            .collect()
    }

    /// Decision reports from every SM's policy (see
    /// [`crate::policy::PolicyReport`]).
    #[must_use]
    pub fn policy_reports(&self) -> Vec<crate::policy::PolicyReport> {
        self.policies.iter().map(|p| p.report()).collect()
    }

    /// Sum of the effective capacities of all L1s, relative to the
    /// baseline total (instrumentation for Fig 16).
    #[must_use]
    pub fn l1_effective_capacity_ratio(&self) -> f64 {
        let total: usize = self.sms.iter().map(|s| s.l1.effective_capacity_bytes()).sum();
        let baseline: usize = self.sms.iter().map(|s| s.l1.geometry().size_bytes).sum();
        if baseline == 0 {
            0.0
        } else {
            total as f64 / baseline as f64
        }
    }
}

// The parallel experiment driver moves whole simulations onto worker
// threads, so the GPU — SMs, caches, fault injectors, policies — must be
// `Send`. Enforced at compile time; losing this (e.g. by storing an `Rc`
// in per-SM state) is a build error, not a runtime surprise.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Gpu>();
    assert_send::<crate::sm::Sm>();
    assert_send::<crate::faults::FaultInjector>();
    // Kernel descriptions are shared by reference across SMs during a
    // launch, so trait objects over them must be Send + Sync (backed by
    // the `Kernel: Send + Sync` supertraits; lint rule S1 audits the
    // fields that rely on this).
    assert_send::<Box<dyn crate::ops::Kernel>>();
    assert_sync::<Box<dyn crate::ops::Kernel>>();
};

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("num_sms", &self.sms.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}
