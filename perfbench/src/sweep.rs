//! `sweep-jobs2`: the experiment driver over `fig11 fig12 fig13` with two
//! jobs, one fresh child process per pass (the memo cache and the result
//! store are process-global, so only a new process starts them empty).
//!
//! The child runs the sweep against a fresh `--store` directory and a
//! scratch results directory, then reports on stdout in `@ key value`
//! lines. The parent times nothing itself; it checks the CSVs byte for
//! byte against the committed `results/`.

use crate::util::{now_ns, peak_rss_mb, secs_since, HostTime};
use latte_bench::experiments::{self as exp, set_results_dir};
use latte_bench::{run_benchmark, sim, timing, Experiment, PolicyKind};
use latte_gpusim::Fingerprinter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Worker threads of the experiment driver.
pub const JOBS: usize = 2;

/// The experiments of one pass, in submission order.
const EXPERIMENTS: [Experiment; 3] = [
    ("fig11", "speedups", exp::fig11::run),
    ("fig12", "L1 miss reductions", exp::fig12::run),
    ("fig13", "normalised GPU energy", exp::fig13::run),
];

/// The CSVs the pass writes, all of them committed under `results/`.
pub const CSVS: [&str; 3] = [
    "fig11_speedups.csv",
    "fig12_miss_reduction.csv",
    "fig13_energy.csv",
];

/// The child side. `args` = store dir, results dir, install-clock flag.
/// Returns the process exit code.
pub fn child_main(args: &[String]) -> i32 {
    let [store, results, clock] = args else {
        eprintln!("usage: --sweep-child <store-dir> <results-dir> <0|1>");
        return 2;
    };
    if clock == "1" {
        latte_compress::stats::install_clock(now_ns);
        latte_gpusim::install_epoch_clock(now_ns);
    }
    let before = latte_compress::stats::snapshot();
    let host = HostTime::now();
    if let Err(e) = sim::configure_store(latte_store::StoreConfig::at(PathBuf::from(store))) {
        eprintln!("{e}");
        return 1;
    }
    set_results_dir(Some(PathBuf::from(results)));
    let selected: Vec<&Experiment> = EXPERIMENTS.iter().collect();
    let (failed, outcomes) = latte_bench::run_experiments_with_outcomes(&selected, JOBS);
    sim::flush_store();
    let raw_s = host.wall_s();
    let sweep_s = host.net_s();
    let compress = crate::util::compress_since(before);
    let sims = timing::take_sim_times();
    let memo = sim::stats();
    let ran_once = sim::verify_each_sim_ran_once();

    // Replaying the Fig 11 matrix hits the memo (or the store), so the
    // failure rules see every cell's statistics at no simulation cost.
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut insts = 0u64;
    // C-Sens speedups of Static-BDI, Static-SC, LATTE-CC and LATTE-CC's
    // energy ratio, at full precision (the CSVs round to four places).
    let mut design: [Vec<f64>; 4] = Default::default();
    for bench in latte_workloads::suite() {
        let runs: Vec<_> = [
            PolicyKind::Baseline,
            PolicyKind::StaticBdi,
            PolicyKind::StaticSc,
            PolicyKind::LatteCc,
        ]
        .iter()
        .map(|&p| run_benchmark(p, &bench))
        .collect();
        if bench.category == latte_workloads::Category::CSens {
            for (i, r) in runs[1..].iter().enumerate() {
                design[i].push(r.speedup_over(&runs[0]));
            }
            design[3].push(runs[3].energy_ratio_over(&runs[0]));
        }
        for r in &runs {
            attempted += 1;
            insts += r.stats.instructions;
            if !r.stats.termination.is_clean() {
                failures.push(format!(
                    "{}/{}: terminated {}",
                    r.policy.name(),
                    r.abbr,
                    r.stats.termination
                ));
            } else if r.stats.instructions != runs[0].stats.instructions {
                failures.push(format!(
                    "{}/{}: warp-instruction count differs from Baseline",
                    r.policy.name(),
                    r.abbr
                ));
            }
        }
    }
    sim::shutdown_store();
    let store_stats = sim::store_stats().unwrap_or_default();

    println!("@ sweep_s {sweep_s}");
    println!("@ raw_sweep_s {raw_s}");
    println!("@ failed_experiments {failed}");
    for o in &outcomes {
        println!("@ exp_s.{} {}", o.name, o.secs);
    }
    // The simulator times each simulation by wall clock; scale by the
    // pass's net-to-wall ratio to take host steal out of them as well.
    let net_share = if raw_s > 0.0 { sweep_s / raw_s } else { 1.0 };
    for (_, secs) in &sims {
        println!("@ sim_s {}", secs * net_share);
    }
    println!("@ memo.requests {}", memo.requests);
    println!("@ memo.computed {}", memo.simulated());
    println!("@ memo.hits {}", memo.hits());
    println!("@ store.durable_writes {}", store_stats.durable_writes);
    println!("@ warp_insts {insts}");
    for (key, values) in ["bdi", "sc", "latte", "energy"].iter().zip(&design) {
        println!("@ design.{key} {}", latte_bench::geomean(values));
    }
    println!("@ attempted {attempted}");
    println!("@ peak_rss_mb {}", peak_rss_mb());
    for (key, value) in [
        ("probes", compress.probe_ops),
        ("probe_ns", compress.probe_ns),
        ("encodes", compress.encode_ops),
        ("encode_ns", compress.encode_ns),
        ("decodes", compress.decode_ops),
        ("decode_ns", compress.decode_ns),
    ] {
        println!("@ compress.{key} {value}");
    }
    if let Err(e) = ran_once {
        failures.push(e);
    }
    for f in &failures {
        println!("@! {f}");
    }
    0
}

/// What one child pass reported, plus the parent's checks of its files.
#[derive(Debug, Clone, Default)]
pub struct SweepRun {
    /// Every numeric `@ key value` line of the child.
    pub values: BTreeMap<String, f64>,
    /// Per-simulation host seconds (memo computes only).
    pub sim_s: Vec<f64>,
    /// Failed simulations, experiments and CSV mismatches.
    pub failures: Vec<String>,
    /// Digest of the written CSVs.
    pub digest: u128,
    /// Bytes the store holds on disk after the pass.
    pub store_bytes: u64,
}

impl SweepRun {
    /// A reported value (0 when absent).
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs one pass in a fresh child process, with the store at `store`
/// (created if missing) and the CSVs written to `results`, and checks
/// them against `committed`.
pub fn run_pass(
    store: &Path,
    results: &Path,
    clock: bool,
    committed: &Path,
) -> Result<SweepRun, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    std::fs::create_dir_all(results)
        .map_err(|e| format!("cannot create {}: {e}", results.display()))?;
    let output = Command::new(exe)
        .arg("--sweep-child")
        .arg(store)
        .arg(results)
        .arg(if clock { "1" } else { "0" })
        .output()
        .map_err(|e| format!("cannot start the sweep child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "sweep child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut run = SweepRun::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some(failure) = line.strip_prefix("@! ") {
            run.failures.push(failure.to_owned());
        } else if let Some(rest) = line.strip_prefix("@ ") {
            let mut parts = rest.splitn(2, ' ');
            let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if key == "sim_s" {
                run.sim_s.push(value);
            } else {
                run.values.insert(key.to_owned(), value);
            }
        }
    }
    if run.get("failed_experiments") > 0.0 {
        run.failures.push(format!(
            "{} experiment(s) failed",
            run.get("failed_experiments")
        ));
    }
    let mut fp = Fingerprinter::salted("perfbench-csv");
    for name in CSVS {
        let written = std::fs::read(results.join(name)).unwrap_or_default();
        let want = std::fs::read(committed.join(name)).unwrap_or_default();
        if written.is_empty() || written != want {
            run.failures
                .push(format!("{name} differs from the committed results/"));
        }
        fp.write_str(name);
        fp.write_bytes(&written);
    }
    run.digest = fp.finish();
    run.store_bytes = dir_bytes(store);
    Ok(run)
}

/// Seconds to open (and shut down) a fresh store at `dir`, the part of a
/// pass's set-up the simulations do not cover.
pub fn store_open_s(dir: &Path) -> f64 {
    let start = now_ns();
    let (store, _report) =
        latte_store::Store::open(latte_store::StoreConfig::at(dir.to_path_buf()));
    store.shutdown();
    let secs = secs_since(start);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    secs
}
