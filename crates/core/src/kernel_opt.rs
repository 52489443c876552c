//! Kernel-OPT (§V-B): an offline oracle that commits, per kernel, the
//! static compression mode with the lowest execution time.
//!
//! The paper uses it as an upper-bound reference for coarse-grained
//! (kernel-boundary) adaptation; LATTE-CC's fine-grained adaptation can
//! beat it on workloads whose best mode changes *within* a kernel.
//!
//! The oracle is a pure selection. Each static mode runs the benchmark's
//! kernels in launch order on its own GPU, whose policy state persists
//! across kernels exactly as a real static configuration would, so the
//! per-kernel cycles of the Baseline, Static-BDI and Static-SC runs are
//! the oracle's whole input. The bench harness takes them from its
//! memoised results; nothing is simulated here.

use crate::mode::CompressionMode;

/// Per-kernel outcome of the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOptKernel {
    /// Execution cycles under [none, low-latency, high-capacity].
    pub cycles: [u64; 3],
    /// The oracle's choice.
    pub best: CompressionMode,
}

impl KernelOptKernel {
    /// Cycles of the chosen mode.
    #[must_use]
    pub fn best_cycles(&self) -> u64 {
        self.cycles[self.best.index()]
    }
}

/// Result of Kernel-OPT over a kernel sequence.
#[derive(Debug, Clone)]
pub struct KernelOptResult {
    /// Per-kernel outcomes, in execution order.
    pub kernels: Vec<KernelOptKernel>,
}

impl KernelOptResult {
    /// Total cycles of the oracle schedule.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.kernels.iter().map(KernelOptKernel::best_cycles).sum()
    }

    /// Fraction of kernels (weighted by their oracle runtime) whose best
    /// mode is `mode` — the reference signal for the Fig 15 agreement
    /// analysis.
    #[must_use]
    pub fn time_fraction_in(&self, mode: CompressionMode) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        let in_mode: u64 = self
            .kernels
            .iter()
            .filter(|k| k.best == mode)
            .map(KernelOptKernel::best_cycles)
            .sum();
        in_mode as f64 / total as f64
    }
}

/// Selects Kernel-OPT's schedule from per-kernel cycles, indexed by
/// [`CompressionMode::index`]: `cycles[m][k]` is kernel `k`'s execution
/// time under static mode `m`, in launch order. A tie goes to the lowest
/// mode index (no compression before low-latency before high-capacity).
///
/// The three runs of one benchmark have equal kernel counts; should the
/// slices differ, kernels past the shortest one are not scheduled.
#[must_use]
pub fn select_kernel_opt(cycles: [&[u64]; 3]) -> KernelOptResult {
    let [none, low, high] = cycles;
    debug_assert!(
        none.len() == low.len() && low.len() == high.len(),
        "every static mode must run the same kernels"
    );
    let kernels = none
        .iter()
        .zip(low)
        .zip(high)
        .map(|((&n, &l), &h)| {
            let cycles = [n, l, h];
            let best_idx = (0..3).min_by_key(|&i| cycles[i]).unwrap_or(0);
            KernelOptKernel {
                cycles,
                best: CompressionMode::ALL[best_idx],
            }
        })
        .collect();
    KernelOptResult { kernels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_picks_the_fastest_mode_per_kernel() {
        let result = select_kernel_opt([&[900, 50, 70], &[700, 60, 70], &[800, 40, 90]]);
        let picks: Vec<CompressionMode> = result.kernels.iter().map(|k| k.best).collect();
        assert_eq!(
            picks,
            [
                CompressionMode::LowLatency,
                CompressionMode::HighCapacity,
                CompressionMode::None,
            ]
        );
        assert_eq!(result.kernels[1].cycles, [50, 60, 40]);
        for k in &result.kernels {
            assert_eq!(
                k.best_cycles(),
                *k.cycles.iter().min().expect("three modes")
            );
        }
        assert_eq!(result.total_cycles(), 700 + 40 + 70);
    }

    #[test]
    fn oracle_beats_or_matches_every_static_mode() {
        let runs: [&[u64]; 3] = [&[10, 500, 33, 7], &[12, 400, 35, 9], &[8, 450, 30, 11]];
        let result = select_kernel_opt(runs);
        for mode in runs {
            assert!(
                result.total_cycles() <= mode.iter().sum(),
                "oracle must not lose to a static mode"
            );
        }
        assert_eq!(result.total_cycles(), 8 + 400 + 30 + 7);
    }

    #[test]
    fn ties_keep_the_lowest_mode_index() {
        let result = select_kernel_opt([&[5, 9, 9], &[5, 4, 9], &[5, 4, 3]]);
        let picks: Vec<CompressionMode> = result.kernels.iter().map(|k| k.best).collect();
        assert_eq!(
            picks,
            [
                CompressionMode::None,
                CompressionMode::LowLatency,
                CompressionMode::HighCapacity,
            ]
        );
    }

    #[test]
    fn empty_kernel_list_schedules_nothing() {
        let result = select_kernel_opt([&[], &[], &[]]);
        assert!(result.kernels.is_empty());
        assert_eq!(result.total_cycles(), 0);
        for mode in CompressionMode::ALL {
            assert_eq!(result.time_fraction_in(mode), 0.0);
        }
    }

    #[test]
    fn time_fractions_sum_to_one() {
        let result = select_kernel_opt([&[10, 80, 40, 7], &[20, 30, 40, 9], &[30, 90, 25, 1]]);
        assert_eq!(result.time_fraction_in(CompressionMode::None), 10.0 / 66.0);
        assert_eq!(
            result.time_fraction_in(CompressionMode::LowLatency),
            30.0 / 66.0
        );
        let total: f64 = CompressionMode::ALL
            .into_iter()
            .map(|m| result.time_fraction_in(m))
            .sum();
        assert!((total - 1.0).abs() < 1e-12, "fractions sum to {total}");
    }
}
