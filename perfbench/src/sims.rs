//! The three in-process workloads: fixed sets of simulations, each cell
//! built fresh through `build_kernels` + `Gpu::new` + `run_kernel` with
//! no memo, plus the failure rules, the stats digest and the simulated
//! design metrics.

use crate::trace::{Probe, SpanLog, Tally, TracedKernel, TracedPolicy, TracedShadow};
use crate::util::{csv_row, geomean, now_ns, read_csv, secs_since, HostTime};
use latte_bench::runner::experiment_config;
use latte_bench::PolicyKind;
use latte_energy::EnergyModel;
use latte_gpusim::{
    EpochStats, FaultConfig, Fingerprinter, Gpu, GpuConfig, KernelStats, L1CompressionPolicy,
    ShadowCheck, ShadowConfig,
};
use latte_oracle::{MemoryOracle, OracleReport};
use latte_workloads::BenchmarkSpec;
use std::path::Path;
use std::sync::Arc;

/// The Fig 11 policy columns.
const FIG11_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Baseline,
    PolicyKind::StaticBdi,
    PolicyKind::StaticSc,
    PolicyKind::LatteCc,
];

/// The C-Sens benchmarks `csens-15sm-t2` runs on the 15-SM machine: the
/// four cheapest of the eleven there (one pass takes about 5.5 s at two
/// threads on a 2-CPU host, against 33 s for all eleven), so a run
/// measures several passes. They keep a spread of winners: Static-BDI
/// wins CLR, FW and MIS, Static-SC wins PRK.
pub const PAPER_MACHINE_SUBSET: [&str; 4] = ["CLR", "FW", "PRK", "MIS"];

/// One simulation of a set: a benchmark under a policy.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The benchmark, with the run's seed applied.
    pub bench: BenchmarkSpec,
    /// The policy.
    pub policy: PolicyKind,
}

/// A workload's fixed set of simulations on one machine.
#[derive(Debug, Clone)]
pub struct SimSet {
    /// Machine every cell runs on.
    pub config: GpuConfig,
    /// Whether every cell runs with a `MemoryOracle` attached.
    pub oracle: bool,
    /// The cells, in run order.
    pub cells: Vec<Cell>,
    /// Committed CSV rows the default-seed run must reproduce.
    pub committed: Committed,
}

/// Which committed results a set is checked against at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Committed {
    /// `fig11_speedups.csv` and `fig13_energy.csv`, C-Sens rows.
    Fig11Fig13,
    /// `paper_machine_csens.csv`, the subset's rows.
    PaperMachine,
    /// No committed file covers the set.
    Nothing,
}

/// Applies the benchmark seed: `0` keeps the registry seed (the only
/// input compared against committed results and the paper); any other
/// value derives a new `BenchmarkSpec::seed` from the registry seed.
pub fn reseed(mut bench: BenchmarkSpec, seed: u64) -> BenchmarkSpec {
    if seed != 0 {
        bench.seed = latte_workloads::mix64(bench.seed ^ seed);
    }
    bench
}

fn cells(benches: Vec<BenchmarkSpec>, policies: &[PolicyKind], seed: u64) -> Vec<Cell> {
    benches
        .into_iter()
        .flat_map(|b| {
            let bench = reseed(b, seed);
            policies.iter().map(move |&policy| Cell {
                bench: bench.clone(),
                policy,
            })
        })
        .collect()
}

/// `csens-2sm`: the 11 C-Sens benchmarks × Fig 11 policies, 2 SMs, serial.
pub fn csens_2sm(seed: u64) -> SimSet {
    SimSet {
        config: experiment_config(),
        oracle: false,
        cells: cells(latte_workloads::c_sens(), &FIG11_POLICIES, seed),
        committed: Committed::Fig11Fig13,
    }
}

/// The Fig 11 matrix the `sweep-jobs2` experiments simulate (all 23
/// benchmarks, registry seeds): its set-up is the sweep's set-up.
pub fn fig11_suite() -> SimSet {
    SimSet {
        config: experiment_config(),
        oracle: false,
        cells: cells(latte_workloads::suite(), &FIG11_POLICIES, 0),
        committed: Committed::Fig11Fig13,
    }
}

/// `csens-15sm-t2`: the C-Sens subset × Fig 11 policies on the 15-SM
/// Table II machine, `threads` simulation threads.
pub fn csens_15sm(seed: u64, threads: usize) -> SimSet {
    let benches = latte_workloads::c_sens()
        .into_iter()
        .filter(|b| PAPER_MACHINE_SUBSET.contains(&b.abbr))
        .collect();
    SimSet {
        config: GpuConfig {
            sim_threads: threads,
            ..GpuConfig::paper()
        },
        oracle: false,
        cells: cells(benches, &FIG11_POLICIES, seed),
        committed: Committed::PaperMachine,
    }
}

/// `writeback-oracle`: the write-heavy suite × {Baseline, LATTE-CC,
/// Assist-Warp}, write-back L1, oracle on every cell.
pub fn writeback_oracle(seed: u64, oracle: bool) -> SimSet {
    SimSet {
        config: GpuConfig {
            write_back: true,
            ..experiment_config()
        },
        oracle,
        cells: cells(
            latte_workloads::write_heavy_suite(),
            &[
                PolicyKind::Baseline,
                PolicyKind::LatteCc,
                PolicyKind::AssistWarp,
            ],
            seed,
        ),
        committed: Committed::Nothing,
    }
}

/// Everything one simulation produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// `policy/benchmark`.
    pub label: String,
    /// Benchmark abbreviation.
    pub abbr: &'static str,
    /// Policy.
    pub policy: PolicyKind,
    /// Statistics summed over the benchmark's kernels.
    pub stats: KernelStats,
    /// Total modelled energy.
    pub energy_nj: f64,
    /// EPs spent in [none, low-latency, high-capacity] mode, all SMs.
    pub eps_in_mode: [u64; 3],
    /// L1 effective capacity relative to uncompressed, after the run.
    pub capacity_ratio: f64,
    /// The oracle's report, when one was attached.
    pub oracle: Option<OracleReport>,
    /// Epoch-barrier telemetry (empty for serial runs).
    pub epoch: EpochStats,
    /// Host seconds for the whole cell (set-up, run, energy), net of
    /// host steal.
    pub host_s: f64,
    /// Nanoseconds in `build_kernels`.
    pub build_ns: u64,
    /// Nanoseconds in `Gpu::new` (with policy construction) and oracle
    /// attachment.
    pub gpu_new_ns: u64,
    /// Nanoseconds in `run_kernel`, summed over kernels.
    pub run_ns: u64,
    /// Nanoseconds in energy accounting.
    pub energy_ns: u64,
    /// Per-call boundary totals (traced runs only).
    pub tally: Tally,
}

fn build_policy(
    policy: PolicyKind,
    config: &GpuConfig,
    probe: Option<&Arc<Probe>>,
    sm: usize,
) -> Box<dyn L1CompressionPolicy> {
    let inner = policy.build(config);
    match probe {
        Some(p) => Box::new(TracedPolicy::new(inner, Arc::clone(p), sm)),
        None => inner,
    }
}

/// Runs one cell from scratch. With `log`, the simulator's trait objects
/// are wrapped in timers and kernel spans are recorded under `parent`.
pub fn run_cell(set: &SimSet, cell: &Cell, mut log: Option<(&mut SpanLog, usize)>) -> CellRun {
    let config = &set.config;
    let label = format!("{}/{}", cell.policy.name(), cell.bench.abbr);
    let probe = log.is_some().then(|| Probe::new(config.num_sms));
    let host = HostTime::now();
    let start = now_ns();
    let kernels = cell.bench.build_kernels();
    let built = now_ns();
    let mut gpu = Gpu::new(config, |sm| {
        build_policy(cell.policy, config, probe.as_ref(), sm)
    });
    let handle = set.oracle.then(|| {
        let (oracle, handle) = MemoryOracle::new();
        let check: Box<dyn ShadowCheck> = match &probe {
            Some(p) => Box::new(TracedShadow::new(Box::new(oracle), Arc::clone(p))),
            None => Box::new(oracle),
        };
        gpu.set_shadow_check(check, ShadowConfig::default());
        handle
    });
    let ready = now_ns();

    let mut stats = KernelStats::default();
    let mut eps_in_mode = [0u64; 3];
    let mut run_ns = 0;
    for kernel in &kernels {
        let span = log
            .as_mut()
            .map(|(l, parent)| l.open("kernel", kernel.spec().name.clone(), Some(*parent)));
        let t = now_ns();
        let ks = match &probe {
            Some(p) => gpu.run_kernel(&TracedKernel::new(kernel, Arc::clone(p))),
            None => gpu.run_kernel(kernel),
        };
        run_ns += now_ns() - t;
        if let (Some((l, _)), Some(id)) = (log.as_mut(), span) {
            l.close(id, None);
        }
        for report in gpu.policy_reports() {
            for (sum, eps) in eps_in_mode.iter_mut().zip(report.eps_in_mode) {
                *sum += eps;
            }
        }
        stats.accumulate(&ks);
    }
    let capacity_ratio = gpu.l1_effective_capacity_ratio();
    let epoch = gpu.take_epoch_stats();
    let t = now_ns();
    let energy_nj = EnergyModel::paper().account(&stats).total_nj();
    let energy_ns = now_ns() - t;
    CellRun {
        label,
        abbr: cell.bench.abbr,
        policy: cell.policy,
        stats,
        energy_nj,
        eps_in_mode,
        capacity_ratio,
        oracle: handle.map(|h| h.report()),
        epoch,
        host_s: if config.sim_threads > 1 {
            host.coupled_net_s()
        } else {
            host.thread_s()
        },
        build_ns: built - start,
        gpu_new_ns: ready - built,
        run_ns,
        energy_ns,
        tally: probe.map(|p| p.take()).unwrap_or_default(),
    }
}

/// One pass over a set.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds for the pass, net of host steal.
    pub wall_s: f64,
    /// Wall-clock seconds for the pass.
    pub raw_wall_s: f64,
    /// Every cell, in run order.
    pub cells: Vec<CellRun>,
}

impl Rep {
    /// Warp instructions simulated in the pass.
    pub fn warp_insts(&self) -> u64 {
        self.cells.iter().map(|c| c.stats.instructions).sum()
    }

    /// Digest of every simulated statistic of the pass, in cell order:
    /// two passes with equal digests simulated identically.
    pub fn digest(&self) -> u128 {
        let mut fp = Fingerprinter::salted("perfbench-stats");
        for c in &self.cells {
            fp.write_str(&c.label);
            fp.write_str(&format!("{:?}", c.stats));
            fp.write_f64(c.energy_nj);
            for eps in c.eps_in_mode {
                fp.write_u64(eps);
            }
            fp.write_f64(c.capacity_ratio);
            if let Some(r) = &c.oracle {
                for v in [
                    r.loads_checked,
                    r.fills_observed,
                    r.stores_observed,
                    r.checkpoints,
                    r.violations_total,
                ] {
                    fp.write_u64(v);
                }
            }
        }
        fp.finish()
    }
}

/// Runs every cell of `set` once. With `log`, the pass is traced and
/// each cell gets a simulation span under `parent`.
pub fn run_rep(set: &SimSet, mut log: Option<(&mut SpanLog, usize)>) -> Rep {
    let start = HostTime::now();
    let mut cells = Vec::with_capacity(set.cells.len());
    for cell in &set.cells {
        let run = match log.as_mut() {
            Some((l, parent)) => {
                let name = format!("{}/{}", cell.policy.name(), cell.bench.abbr);
                let id = l.open("simulation", name, Some(*parent));
                let run = run_cell(set, cell, Some((&mut **l, id)));
                l.close(id, Some(run.tally));
                run
            }
            None => run_cell(set, cell, None),
        };
        cells.push(run);
    }
    Rep {
        wall_s: if set.config.sim_threads > 1 {
            start.coupled_net_s()
        } else {
            start.net_s()
        },
        raw_wall_s: start.wall_s(),
        cells,
    }
}

/// Seconds to set up every cell of `set` once: `build_kernels`,
/// `Gpu::new` with its policies, and the oracle attachment.
pub fn setup_pass(set: &SimSet) -> f64 {
    let start = now_ns();
    for cell in &set.cells {
        let kernels = std::hint::black_box(cell.bench.build_kernels());
        let mut gpu = Gpu::new(&set.config, |_| cell.policy.build(&set.config));
        if set.oracle {
            let (oracle, _handle) = MemoryOracle::new();
            gpu.set_shadow_check(Box::new(oracle), ShadowConfig::default());
        }
        std::hint::black_box((&gpu, &kernels));
    }
    secs_since(start)
}

/// The failure rules, applied to every cell of a pass. Returns one
/// message per failed simulation.
pub fn failures(rep: &Rep) -> Vec<String> {
    rep.cells
        .iter()
        .filter_map(|c| {
            let base = rep
                .cells
                .iter()
                .find(|b| b.abbr == c.abbr && b.policy == PolicyKind::Baseline);
            if !c.stats.termination.is_clean() {
                Some(format!("{}: terminated {}", c.label, c.stats.termination))
            } else if base.is_some_and(|b| b.stats.instructions != c.stats.instructions) {
                Some(format!(
                    "{}: {} warp instructions, Baseline ran {}",
                    c.label,
                    c.stats.instructions,
                    base.map_or(0, |b| b.stats.instructions)
                ))
            } else if c.oracle.as_ref().is_some_and(|r| !r.is_clean()) {
                Some(format!(
                    "{}: oracle reported {} violation(s)",
                    c.label,
                    c.oracle.as_ref().map_or(0, |r| r.violations_total)
                ))
            } else {
                None
            }
        })
        .collect()
}

/// The simulated design metrics of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Design {
    /// Geomean speedup of LATTE-CC over Baseline.
    pub latte_speedup: f64,
    /// The best other compressing policy's geomean speedup.
    pub best_other: f64,
    /// Name of that policy.
    pub best_other_name: &'static str,
    /// Geomean energy of LATTE-CC normalised to Baseline.
    pub latte_energy: f64,
}

/// Per-benchmark speedups and energy ratios of `policy` over Baseline,
/// in benchmark order.
fn ratios(rep: &Rep, policy: PolicyKind) -> Vec<(&'static str, f64, f64)> {
    rep.cells
        .iter()
        .filter(|c| c.policy == policy)
        .filter_map(|c| {
            let base = rep
                .cells
                .iter()
                .find(|b| b.abbr == c.abbr && b.policy == PolicyKind::Baseline)?;
            Some((
                c.abbr,
                base.stats.cycles as f64 / c.stats.cycles.max(1) as f64,
                c.energy_nj / base.energy_nj.max(1e-9),
            ))
        })
        .collect()
}

fn geomean_speedup(rep: &Rep, policy: PolicyKind) -> f64 {
    geomean(&ratios(rep, policy).iter().map(|r| r.1).collect::<Vec<_>>())
}

/// Computes the design metrics. "Best other" is the better of Static-BDI
/// and Static-SC where the set has them (the paper's central claim),
/// otherwise the best remaining compressing policy (Assist-Warp on the
/// write-back set).
pub fn design(rep: &Rep) -> Design {
    let mut others: Vec<PolicyKind> = Vec::new();
    for c in &rep.cells {
        if !matches!(c.policy, PolicyKind::Baseline | PolicyKind::LatteCc)
            && !others.contains(&c.policy)
        {
            others.push(c.policy);
        }
    }
    let (best_other_name, best_other) = others
        .iter()
        .map(|&p| (p.name(), geomean_speedup(rep, p)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", 1.0));
    let energy: Vec<f64> = ratios(rep, PolicyKind::LatteCc)
        .iter()
        .map(|r| r.2)
        .collect();
    Design {
        latte_speedup: geomean_speedup(rep, PolicyKind::LatteCc),
        best_other,
        best_other_name,
        latte_energy: geomean(&energy),
    }
}

fn expect_cell(
    rows: &[Vec<String>],
    key: &str,
    col: usize,
    value: f64,
    what: &str,
) -> Option<String> {
    let want = csv_row(rows, key)
        .and_then(|r| r.get(col))
        .map(String::as_str);
    let got = format!("{value:.4}");
    (want != Some(got.as_str())).then(|| {
        format!(
            "{what} {key} column {col}: simulated {got}, committed {}",
            want.unwrap_or("<missing>")
        )
    })
}

/// Compares a default-seed pass with the committed results under
/// `results`. Returns one message per mismatching value.
pub fn check_committed(set: &SimSet, rep: &Rep, results: &Path) -> Vec<String> {
    let cols = [
        PolicyKind::StaticBdi,
        PolicyKind::StaticSc,
        PolicyKind::LatteCc,
    ];
    // Each file, whether it holds energy ratios (else speedups), and the
    // key of its geomean row. The 15-SM subset's geomean is not a
    // committed row; its per-benchmark rows are.
    let (files, geomean_key): (&[(&str, bool)], Option<&str>) = match set.committed {
        Committed::Nothing => return Vec::new(),
        Committed::Fig11Fig13 => (
            &[("fig11_speedups.csv", false), ("fig13_energy.csv", true)],
            Some("C-Sens_GEOMEAN"),
        ),
        Committed::PaperMachine => (&[("paper_machine_csens.csv", false)], None),
    };
    let mut problems = Vec::new();
    for &(file, energy) in files {
        let rows = match read_csv(&results.join(file)) {
            Ok(rows) => rows,
            Err(e) => {
                problems.push(e);
                continue;
            }
        };
        for (i, &policy) in cols.iter().enumerate() {
            let per_bench = ratios(rep, policy);
            for &(abbr, speedup, energy_ratio) in &per_bench {
                let v = if energy { energy_ratio } else { speedup };
                problems.extend(expect_cell(&rows, abbr, i + 1, v, file));
            }
            if let Some(key) = geomean_key {
                let vals: Vec<f64> = per_bench
                    .iter()
                    .map(|r| if energy { r.2 } else { r.1 })
                    .collect();
                problems.extend(expect_cell(&rows, key, i + 1, geomean(&vals), file));
            }
        }
    }
    problems
}

/// Self-check of the failure rules: a planted deadlock (every refill's
/// wakeup dropped) on one small NW cell must count as a failed
/// simulation. Returns an error when it does not.
pub fn self_check_deadlock() -> Result<(), String> {
    let bench = latte_workloads::benchmark("NW").ok_or("NW missing from the registry")?;
    let set = SimSet {
        config: GpuConfig {
            num_sms: 1,
            faults: Some(FaultConfig::wakeup_drops(17, 1.0)),
            ..GpuConfig::small()
        },
        oracle: false,
        cells: vec![Cell {
            bench,
            policy: PolicyKind::Baseline,
        }],
        committed: Committed::Nothing,
    };
    let rep = run_rep(&set, None);
    if failures(&rep).len() == 1 {
        Ok(())
    } else {
        Err("self-check: a planted deadlock did not count as a failed simulation".to_owned())
    }
}

/// Self-check of the tracer: the traced wrappers must be transparent, so
/// a traced NW pass (Baseline and LATTE-CC, with the oracle attached)
/// has the same digest as an untraced one.
pub fn self_check_transparency() -> Result<(), String> {
    let bench = latte_workloads::benchmark("NW").ok_or("NW missing from the registry")?;
    let set = SimSet {
        config: experiment_config(),
        oracle: true,
        cells: [PolicyKind::Baseline, PolicyKind::LatteCc]
            .into_iter()
            .map(|policy| Cell {
                bench: bench.clone(),
                policy,
            })
            .collect(),
        committed: Committed::Nothing,
    };
    let plain = run_rep(&set, None).digest();
    let mut log = SpanLog::default();
    let root = log.open("workload", "self-check".to_owned(), None);
    let traced = run_rep(&set, Some((&mut log, root))).digest();
    if plain == traced {
        Ok(())
    } else {
        Err(format!(
            "self-check: traced NW digest {traced:032x} differs from untraced {plain:032x}"
        ))
    }
}
