//! Simulated GPU configuration (Table II of the paper).

use crate::faults::FaultConfig;
use crate::fingerprint::Fingerprinter;
use latte_cache::CacheGeometry;

/// Which warp scheduler the SMs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Greedy-Then-Oldest (Rogers et al., MICRO'12) — the paper's default.
    #[default]
    Gto,
    /// Loose round-robin: rotate over ready warps each cycle.
    Lrr,
}

/// Full configuration of the simulated GPU.
///
/// [`GpuConfig::paper`] reproduces Table II; experiments that need a
/// lighter machine (for wall-clock reasons) scale `num_sms` down, which
/// preserves per-SM behaviour because SMs interact only through the shared
/// L2 (whose capacity is scaled along).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum warps resident per SM.
    pub max_warps_per_sm: usize,
    /// Warps per thread block (barriers synchronise within a block).
    pub warps_per_block: usize,
    /// Warp schedulers per SM; warps are split round-robin between them.
    pub schedulers_per_sm: usize,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// L1 data cache geometry (per SM).
    pub l1_geometry: CacheGeometry,
    /// Unified L2 geometry (shared).
    pub l2_geometry: CacheGeometry,
    /// Base L1 hit latency in cycles (before any decompression penalty).
    pub l1_hit_latency: u64,
    /// Extra L1 hit latency added to *every* hit (the Fig 1 sweep knob).
    pub extra_hit_latency: u64,
    /// Minimum L2 access latency in cycles (Table II: 120).
    pub l2_latency: u64,
    /// Minimum DRAM access latency in cycles (Table II: 230).
    pub dram_latency: u64,
    /// L1 MSHR entries per SM.
    pub mshr_entries: usize,
    /// Maximum merged misses per MSHR entry.
    pub mshr_merges: u32,
    /// Experimental-phase length in L1 accesses (§IV-C3: 256).
    pub ep_accesses: u64,
    /// Hard cycle limit per kernel (safety net against livelock).
    pub max_cycles_per_kernel: u64,
    /// Charge zero cycles for decompression (the Fig 3 upper-bound study).
    pub zero_decompression_latency: bool,
    /// Store compressed lines at full size — latency penalty without the
    /// capacity benefit (the Fig 4 study).
    pub ignore_capacity_benefit: bool,
    /// Record per-EP traces (latency tolerance, effective capacity) on
    /// SM 0 for the Fig 5 / Fig 16 time-series plots.
    pub record_traces: bool,
    /// Flush caches and in-flight state at kernel boundaries.
    pub flush_at_kernel_boundary: bool,
    /// Allocate lines in the L1 on store misses (write-allocate) instead
    /// of the paper's write-avoid policy (§IV-C3). The paper reports the
    /// choice has negligible performance impact; `latte-bench sens-write`
    /// reproduces that claim.
    pub write_allocate: bool,
    /// Run the L1 as a write-back/write-allocate cache with dirty
    /// compressed lines: stores merge their sector into the cached line,
    /// the line is re-compressed in place (a grown line may evict its
    /// neighbours), and dirty victims carry their bytes to the L2/DRAM
    /// as explicit write-back traffic. `false` (the default) keeps the
    /// paper's write-through, write-avoid store path byte-for-byte.
    /// Implies write-allocate behaviour for stores regardless of
    /// `write_allocate`.
    pub write_back: bool,
    /// Deterministic fault injection (`None` disables it entirely; the
    /// happy path then takes no injection branches and produces
    /// bit-identical statistics to a build without the feature).
    pub faults: Option<FaultConfig>,
    /// Worker threads for intra-simulation SM parallelism (the epoch
    /// barrier, see `crates/gpusim/src/parallel.rs`). `1` (the default)
    /// takes the one-shard inline run; any other value produces
    /// byte-identical results, so this knob is deliberately **excluded**
    /// from [`GpuConfig::fingerprint`] — memoized and stored results
    /// transfer freely between one-shard and sharded runs.
    pub sim_threads: usize,
}

impl GpuConfig {
    /// Table II: 15 SMs, 48 warps/SM, 2 schedulers, GTO, 16 KB L1 / 768 KB
    /// L2, 120/230-cycle L2/DRAM latencies.
    #[must_use]
    pub fn paper() -> GpuConfig {
        GpuConfig {
            num_sms: 15,
            max_warps_per_sm: 48,
            warps_per_block: 6, // 8 blocks per SM (Table II) at max occupancy
            schedulers_per_sm: 2,
            scheduler: SchedulerKind::Gto,
            l1_geometry: CacheGeometry::paper_l1(),
            l2_geometry: CacheGeometry::paper_l2(),
            l1_hit_latency: 4,
            extra_hit_latency: 0,
            l2_latency: 120,
            dram_latency: 230,
            mshr_entries: 64,
            mshr_merges: 16,
            ep_accesses: 256,
            max_cycles_per_kernel: 50_000_000,
            zero_decompression_latency: false,
            ignore_capacity_benefit: false,
            record_traces: false,
            flush_at_kernel_boundary: true,
            write_allocate: false,
            write_back: false,
            faults: None,
            sim_threads: 1,
        }
    }

    /// A scaled-down machine for fast experimentation: 4 SMs with a
    /// proportionally scaled L2. Per-SM behaviour (the object of study) is
    /// unchanged; only the amount of replicated hardware shrinks.
    #[must_use]
    pub fn small() -> GpuConfig {
        GpuConfig {
            num_sms: 4,
            l2_geometry: CacheGeometry {
                size_bytes: 768 * 1024 * 4 / 15 / 1024 * 1024, // ≈ 200 KB, whole KB
                ways: 8,
                tag_factor: 1,
            },
            ..GpuConfig::paper()
        }
    }

    /// The §V-E sensitivity configuration: 48 KB L1 per SM.
    #[must_use]
    pub fn with_large_l1(mut self) -> GpuConfig {
        self.l1_geometry = CacheGeometry::large_l1();
        self
    }

    /// Warps each scheduler of an SM owns (the warp pool is split evenly).
    #[must_use]
    pub fn warps_per_scheduler(&self) -> usize {
        self.max_warps_per_sm.div_ceil(self.schedulers_per_sm)
    }

    /// A stable 128-bit structural fingerprint covering **every** field
    /// (including the optional fault configuration), used by the bench
    /// harness to key its simulation memo cache. Equal configs always
    /// fingerprint equal; any field change changes the fingerprint.
    ///
    /// New fields MUST be folded in here — the
    /// `fingerprint_covers_every_field` test cross-checks a
    /// representative mutation of each field.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        let mut fp = Fingerprinter::new();
        fp.write_usize(self.num_sms);
        fp.write_usize(self.max_warps_per_sm);
        fp.write_usize(self.warps_per_block);
        fp.write_usize(self.schedulers_per_sm);
        fp.write_u64(match self.scheduler {
            SchedulerKind::Gto => 0,
            SchedulerKind::Lrr => 1,
        });
        for geo in [&self.l1_geometry, &self.l2_geometry] {
            fp.write_usize(geo.size_bytes);
            fp.write_usize(geo.ways);
            fp.write_usize(geo.tag_factor);
        }
        fp.write_u64(self.l1_hit_latency);
        fp.write_u64(self.extra_hit_latency);
        fp.write_u64(self.l2_latency);
        fp.write_u64(self.dram_latency);
        fp.write_usize(self.mshr_entries);
        fp.write_u32(self.mshr_merges);
        fp.write_u64(self.ep_accesses);
        fp.write_u64(self.max_cycles_per_kernel);
        fp.write_bool(self.zero_decompression_latency);
        fp.write_bool(self.ignore_capacity_benefit);
        fp.write_bool(self.record_traces);
        fp.write_bool(self.flush_at_kernel_boundary);
        fp.write_bool(self.write_allocate);
        fp.write_bool(self.write_back);
        match &self.faults {
            None => fp.write_u64(0),
            Some(f) => {
                fp.write_u64(1);
                f.write_fingerprint(&mut fp);
            }
        }
        // `sim_threads` is deliberately NOT folded in: the epoch-barrier
        // shards are byte-identical to the one-shard inline run, so the
        // thread count cannot change results and must not fragment the
        // memo/store key space (a warm one-shard store must satisfy a
        // sharded run).
        fp.finish()
    }
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        GpuConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_ii() {
        let c = GpuConfig::paper();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.schedulers_per_sm, 2);
        assert_eq!(c.l1_geometry.size_bytes, 16 * 1024);
        assert_eq!(c.l2_geometry.size_bytes, 768 * 1024);
        assert_eq!(c.l2_latency, 120);
        assert_eq!(c.dram_latency, 230);
        assert_eq!(c.scheduler, SchedulerKind::Gto);
    }

    #[test]
    fn small_config_scales_l2() {
        let c = GpuConfig::small();
        assert_eq!(c.num_sms, 4);
        assert!(c.l2_geometry.size_bytes < 768 * 1024);
        // L2 geometry must still divide into whole sets.
        let _ = c.l2_geometry.num_sets();
    }

    #[test]
    fn warps_split_across_schedulers() {
        let c = GpuConfig::paper();
        assert_eq!(c.warps_per_scheduler(), 24);
    }

    #[test]
    fn large_l1_sensitivity() {
        let c = GpuConfig::paper().with_large_l1();
        assert_eq!(c.l1_geometry.size_bytes, 48 * 1024);
    }

    #[test]
    fn fingerprint_is_stable_and_covers_every_field() {
        let base = GpuConfig::paper();
        assert_eq!(base.fingerprint(), GpuConfig::paper().fingerprint());

        // One representative mutation per field; each must change the
        // fingerprint, and all mutants must be pairwise distinct.
        let mutants: Vec<GpuConfig> = vec![
            GpuConfig { num_sms: 16, ..base.clone() },
            GpuConfig { max_warps_per_sm: 47, ..base.clone() },
            GpuConfig { warps_per_block: 5, ..base.clone() },
            GpuConfig { schedulers_per_sm: 1, ..base.clone() },
            GpuConfig { scheduler: SchedulerKind::Lrr, ..base.clone() },
            base.clone().with_large_l1(),
            GpuConfig { l2_geometry: GpuConfig::small().l2_geometry, ..base.clone() },
            GpuConfig { l1_hit_latency: 5, ..base.clone() },
            GpuConfig { extra_hit_latency: 3, ..base.clone() },
            GpuConfig { l2_latency: 121, ..base.clone() },
            GpuConfig { dram_latency: 231, ..base.clone() },
            GpuConfig { mshr_entries: 63, ..base.clone() },
            GpuConfig { mshr_merges: 15, ..base.clone() },
            GpuConfig { ep_accesses: 255, ..base.clone() },
            GpuConfig { max_cycles_per_kernel: 1, ..base.clone() },
            GpuConfig { zero_decompression_latency: true, ..base.clone() },
            GpuConfig { ignore_capacity_benefit: true, ..base.clone() },
            GpuConfig { record_traces: true, ..base.clone() },
            GpuConfig { flush_at_kernel_boundary: false, ..base.clone() },
            GpuConfig { write_allocate: true, ..base.clone() },
            GpuConfig { write_back: true, ..base.clone() },
            GpuConfig { faults: Some(FaultConfig::default()), ..base.clone() },
            GpuConfig { faults: Some(FaultConfig::bitflips(42, 1e-4)), ..base.clone() },
            GpuConfig { faults: Some(FaultConfig::bitflips(43, 1e-4)), ..base.clone() },
            GpuConfig {
                faults: Some(FaultConfig { disable_recovery: true, ..FaultConfig::default() }),
                ..base.clone()
            },
            GpuConfig { faults: Some(FaultConfig::writeback_faults(42, 1e-4)), ..base.clone() },
            GpuConfig {
                faults: Some(FaultConfig { drop_writebacks: true, ..FaultConfig::default() }),
                ..base.clone()
            },
        ];
        let mut fps: Vec<u128> = mutants.iter().map(GpuConfig::fingerprint).collect();
        fps.push(base.fingerprint());
        let n = fps.len();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), n, "a field mutation failed to change the fingerprint");
    }

    #[test]
    fn sim_threads_is_excluded_from_the_fingerprint() {
        // The epoch-barrier shards are byte-identical to the one-shard
        // inline run, so the thread count must NOT fragment the
        // memo/store key space: a warm one-shard result has to satisfy
        // a sharded run and vice versa. This pin is load-bearing — folding `sim_threads` into
        // `fingerprint()` would silently invalidate every stored result.
        let base = GpuConfig::paper();
        for n in [0, 2, 4, 64] {
            let parallel = GpuConfig { sim_threads: n, ..base.clone() };
            assert_eq!(
                parallel.fingerprint(),
                base.fingerprint(),
                "sim_threads={n} must not change the fingerprint"
            );
        }
    }
}
