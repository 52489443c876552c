//! Behavioural tests of the GPU simulator: latency hiding, compression
//! effects on the hit path, MSHR merging, determinism, and the Fig 1
//! hit-latency sensitivity mechanism.

use latte_compress::{Compression, CompressionAlgo};
use latte_gpusim::testing::{HotsetKernel, StridedKernel};
use latte_gpusim::{
    Gpu, GpuConfig, Kernel, L1CompressionPolicy, SchedulerKind, UncompressedPolicy,
};

fn base_config() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        ..GpuConfig::small()
    }
}

fn run_baseline(config: GpuConfig, kernel: &dyn Kernel) -> latte_gpusim::KernelStats {
    let mut gpu = Gpu::new(&config, |_| Box::new(UncompressedPolicy));
    gpu.run_kernel(kernel)
}

/// A policy that compresses everything with one algorithm at a fixed size.
struct FixedPolicy {
    algo: CompressionAlgo,
    size: usize,
}

impl L1CompressionPolicy for FixedPolicy {
    fn name(&self) -> &'static str {
        "Fixed"
    }

    fn compress_fill(
        &mut self,
        _set: usize,
        _line: &latte_compress::CacheLine,
    ) -> (CompressionAlgo, Compression) {
        (self.algo, Compression::new(self.size))
    }
}

#[test]
fn kernel_completes_and_counts_instructions() {
    let kernel = StridedKernel::new(8, 100, 64);
    let stats = run_baseline(base_config(), &kernel);
    assert!(!stats.timed_out);
    // 8 warps x (100 loads + 99 interleaved computes + 1 exit) x 2 SMs.
    assert_eq!(stats.instructions, 2 * 8 * 200);
    assert_eq!(stats.loads, 2 * 8 * 100);
    assert_eq!(stats.l1.accesses(), stats.loads);
}

#[test]
fn simulation_is_deterministic() {
    let kernel = StridedKernel::new(16, 300, 512);
    let a = run_baseline(base_config(), &kernel);
    let b = run_baseline(base_config(), &kernel);
    assert_eq!(a, b);
}

#[test]
fn more_warps_hide_more_latency() {
    // With a larger working set than the L1, misses dominate. More warps
    // hide more of the miss latency, so total IPC must rise.
    let few = run_baseline(base_config(), &StridedKernel::new(2, 400, 4096));
    let many = run_baseline(base_config(), &StridedKernel::new(32, 400, 4096));
    assert!(
        many.ipc() > few.ipc() * 2.0,
        "IPC should scale with warp parallelism: few={:.3}, many={:.3}",
        few.ipc(),
        many.ipc()
    );
}

#[test]
fn hit_latency_sweep_degrades_low_parallelism_workloads() {
    // The Fig 1 mechanism: with few warps, added hit latency is exposed.
    let kernel = StridedKernel::new(2, 400, 32); // hits in cache, 2 warps
    let fast = run_baseline(base_config(), &kernel);
    let slow = run_baseline(
        GpuConfig {
            extra_hit_latency: 14,
            ..base_config()
        },
        &kernel,
    );
    assert!(
        slow.cycles > fast.cycles * 11 / 10,
        "2-warp workload must feel +14-cycle hits: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn hit_latency_tolerated_with_many_warps() {
    // Same sweep with 32 warps: the slowdown must be far smaller.
    let kernel = StridedKernel::new(32, 400, 32);
    let fast = run_baseline(base_config(), &kernel);
    let slow = run_baseline(
        GpuConfig {
            extra_hit_latency: 14,
            ..base_config()
        },
        &kernel,
    );
    let ratio = slow.cycles as f64 / fast.cycles as f64;
    assert!(
        ratio < 1.6,
        "32 warps should largely hide +14-cycle hits, got ratio {ratio:.2}"
    );
}

#[test]
fn compression_expands_effective_capacity_and_cuts_misses() {
    // Working set of 256 lines/SM vs 128-line L1: baseline thrashes, a
    // 4:1-compressed cache holds everything.
    let kernel = StridedKernel::new(8, 600, 256);
    let baseline = run_baseline(base_config(), &kernel);
    let mut gpu = Gpu::new(&base_config(), |_| {
        Box::new(FixedPolicy {
            algo: CompressionAlgo::Bdi,
            size: 32,
        }) as Box<dyn L1CompressionPolicy>
    });
    let compressed = gpu.run_kernel(&kernel);
    assert!(
        compressed.l1.misses < baseline.l1.misses / 2,
        "4:1 compression must slash misses: {} vs {}",
        compressed.l1.misses,
        baseline.l1.misses
    );
    assert!(compressed.decompressions.get(CompressionAlgo::Bdi) > 0);
}

#[test]
fn high_latency_compression_hurts_when_parallelism_is_low() {
    // Everything already fits in cache: compression brings no capacity
    // benefit, only a 14-cycle SC decompression penalty per hit. With only
    // 2 warps the penalty is exposed.
    let kernel = StridedKernel::new(2, 600, 32);
    let baseline = run_baseline(base_config(), &kernel);
    let mut gpu = Gpu::new(&base_config(), |_| {
        Box::new(FixedPolicy {
            algo: CompressionAlgo::Sc,
            size: 32,
        }) as Box<dyn L1CompressionPolicy>
    });
    let sc = gpu.run_kernel(&kernel);
    assert!(
        sc.cycles > baseline.cycles * 12 / 10,
        "SC latency must hurt: {} vs {}",
        sc.cycles,
        baseline.cycles
    );
}

#[test]
fn zero_decompression_latency_flag_removes_penalty() {
    let kernel = StridedKernel::new(2, 600, 32);
    let baseline = run_baseline(base_config(), &kernel);
    let mut gpu = Gpu::new(
        &GpuConfig {
            zero_decompression_latency: true,
            ..base_config()
        },
        |_| {
            Box::new(FixedPolicy {
                algo: CompressionAlgo::Sc,
                size: 32,
            }) as Box<dyn L1CompressionPolicy>
        },
    );
    let sc_free = gpu.run_kernel(&kernel);
    // Without the latency penalty, SC-compressing a fitting working set
    // is performance-neutral.
    assert_eq!(sc_free.cycles, baseline.cycles);
}

#[test]
fn ignore_capacity_flag_keeps_miss_rate_at_baseline() {
    let kernel = StridedKernel::new(8, 600, 256);
    let baseline = run_baseline(base_config(), &kernel);
    let mut gpu = Gpu::new(
        &GpuConfig {
            ignore_capacity_benefit: true,
            ..base_config()
        },
        |_| {
            Box::new(FixedPolicy {
                algo: CompressionAlgo::Bdi,
                size: 32,
            }) as Box<dyn L1CompressionPolicy>
        },
    );
    let fig4 = gpu.run_kernel(&kernel);
    // Same miss counts as baseline: the capacity benefit is suppressed.
    assert_eq!(fig4.l1.misses, baseline.l1.misses);
    assert!(fig4.compressions.total() > 0);
}

#[test]
fn ignore_capacity_flag_still_charges_latency() {
    // Working set fits the cache: hits dominate, and with the capacity
    // benefit suppressed the only effect left is the SC hit penalty.
    let kernel = StridedKernel::new(2, 600, 32);
    let baseline = run_baseline(base_config(), &kernel);
    let mut gpu = Gpu::new(
        &GpuConfig {
            ignore_capacity_benefit: true,
            ..base_config()
        },
        |_| {
            Box::new(FixedPolicy {
                algo: CompressionAlgo::Sc,
                size: 32,
            }) as Box<dyn L1CompressionPolicy>
        },
    );
    let fig4 = gpu.run_kernel(&kernel);
    assert!(fig4.decompressions.total() > 0);
    assert!(
        fig4.cycles > baseline.cycles * 12 / 10,
        "latency penalty must remain: {} vs {}",
        fig4.cycles,
        baseline.cycles
    );
}

#[test]
fn mshr_merges_concurrent_misses_to_one_line() {
    // All warps load the same lines at once: one memory request per line.
    let kernel = HotsetKernel::new(16, 50, 4);
    let stats = run_baseline(base_config(), &kernel);
    // 4 hot lines per SM, 2 SMs: exactly 8 refills and 8 memory-system
    // requests. (Lookups that merge into an in-flight MSHR entry still
    // count as L1 miss *lookups*, as in GPGPU-Sim, so `misses > fills`.)
    assert_eq!(stats.l1.fills, 8, "merged misses must not refetch");
    assert_eq!(stats.l2.accesses(), 8);
    assert!(stats.l1.misses >= stats.l1.fills);
}

#[test]
fn gto_and_lrr_both_complete() {
    let kernel = StridedKernel::new(12, 200, 512);
    let gto = run_baseline(
        GpuConfig {
            scheduler: SchedulerKind::Gto,
            ..base_config()
        },
        &kernel,
    );
    let lrr = run_baseline(
        GpuConfig {
            scheduler: SchedulerKind::Lrr,
            ..base_config()
        },
        &kernel,
    );
    assert_eq!(gto.instructions, lrr.instructions);
    assert!(!gto.timed_out && !lrr.timed_out);
}

#[test]
fn eps_complete_and_traces_record() {
    let kernel = StridedKernel::new(8, 600, 64);
    let mut gpu = Gpu::new(
        &GpuConfig {
            record_traces: true,
            ..base_config()
        },
        |_| Box::new(UncompressedPolicy) as Box<dyn L1CompressionPolicy>,
    );
    let stats = gpu.run_kernel(&kernel);
    // 8 warps x 600 loads = 4800 accesses per SM = 18 EPs of 256.
    assert!(stats.eps_completed >= 2 * 18);
    assert!(!stats.traces.is_empty());
    for t in &stats.traces {
        assert!(t.latency_tolerance >= 0.0);
        assert!((0.0..=4.0).contains(&t.effective_capacity));
        assert!((0.0..=1.0).contains(&t.l1_hit_rate));
    }
}

#[test]
fn barriers_synchronise_blocks() {
    use latte_gpusim::{Op, OpStream, VecStream};

    // Two warps in one block: warp 0 computes a long time then barriers;
    // warp 1 barriers immediately then loads. The load must happen after
    // warp 0's compute completes.
    struct BarrierKernel;
    impl Kernel for BarrierKernel {
        fn name(&self) -> &str {
            "barrier-test"
        }
        fn warps_on_sm(&self, sm: usize) -> usize {
            if sm == 0 {
                2
            } else {
                0
            }
        }
        fn warp_program(&self, _sm: usize, warp: usize) -> Box<dyn OpStream> {
            let ops = if warp == 0 {
                vec![Op::Compute { cycles: 500 }, Op::Barrier, Op::Exit]
            } else {
                vec![Op::Barrier, Op::Load { addr: 0 }, Op::Exit]
            };
            Box::new(VecStream::new(ops))
        }
        fn line_data(&self, _addr: latte_cache::LineAddr) -> latte_compress::CacheLine {
            latte_compress::CacheLine::zeroed()
        }
    }

    let config = GpuConfig {
        warps_per_block: 2,
        ..base_config()
    };
    let stats = run_baseline(config, &BarrierKernel);
    assert!(!stats.timed_out, "barrier must release");
    // The kernel runtime is dominated by warp 0's 500-cycle compute plus
    // the post-barrier miss round trip.
    assert!(stats.cycles > 500);
}

#[test]
fn zero_block_and_scheduler_counts_run_as_one() {
    // A 0 in either launch setting used to panic (division by zero,
    // scheduler index out of bounds); both now run exactly as 1.
    let kernel = StridedKernel::new(8, 40, 64);
    let one = GpuConfig {
        warps_per_block: 1,
        schedulers_per_sm: 1,
        ..GpuConfig::small()
    };
    let expected = run_baseline(one.clone(), &kernel);
    assert!(!expected.timed_out);
    for (warps_per_block, schedulers_per_sm) in [(0, 1), (1, 0), (0, 0)] {
        let config = GpuConfig {
            warps_per_block,
            schedulers_per_sm,
            ..one.clone()
        };
        assert_eq!(
            run_baseline(config, &kernel),
            expected,
            "warps_per_block {warps_per_block}, schedulers_per_sm {schedulers_per_sm}"
        );
    }
}
