//! The LATTE-CC simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (it reads the committed `results/`).
//! With `--trace 0` it measures the workload's end-to-end metrics with
//! tracing off; with `--trace 1` it makes one untraced and one traced
//! pass and reports per-layer metrics. The last line of standard output
//! is one JSON object; a record of the run, with the host context and
//! (traced runs) the span log, goes to `.bench_out/records/`. See
//! `perfbench/README.md` for the workloads and every metric.

mod sims;
mod sweep;
mod trace;
mod util;

use sims::{Rep, SimSet};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use trace::{SpanLog, BOUNDARIES};
use util::{json_num, json_str, median, now_ns, peak_rss_mb, secs_since, tail};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "csens-2sm",
    "csens-15sm-t2",
    "writeback-oracle",
    "sweep-jobs2",
];

/// End-to-end metrics and their units (`--trace 0`).
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("minst_per_s", "Minst/s"),
    ("sim_p50_s", "s"),
    ("sim_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latte_speedup", "x"),
    ("latte_vs_best_static", "x"),
    ("latte_energy", "ratio"),
];

/// Per-layer metrics and their units (`--trace 1`).
const PER_LAYER: [(&str, &str); 73] = [
    ("workloads.build_s", "s"),
    ("workloads.ops", "count"),
    ("workloads.op_s", "s"),
    ("workloads.lines", "count"),
    ("workloads.line_s", "s"),
    ("gpusim.run_s", "s"),
    ("gpusim.self_s", "s"),
    ("gpusim.cycles", "cycles"),
    ("gpusim.warp_insts", "count"),
    ("gpusim.ns_per_inst", "ns"),
    ("gpusim.ipc", "inst/cycle"),
    ("gpusim.eps", "count"),
    ("gpusim.mshr_stalls", "cycles"),
    ("gpusim.hit_wait_cycles", "cycles"),
    ("gpusim.miss_wait_cycles", "cycles"),
    ("gpusim.barrier_wait_cycles", "cycles"),
    ("parallel.epochs", "count"),
    ("parallel.mean_epoch_cycles", "cycles"),
    ("parallel.busy_s_max", "s"),
    ("parallel.busy_s_min", "s"),
    ("parallel.stall_frac", "ratio"),
    ("parallel.scaling", "x"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_hit_rate", "ratio"),
    ("cache.l1_compressed_hits", "count"),
    ("cache.l1_fills", "count"),
    ("cache.l1_compressed_fill_ratio", "ratio"),
    ("cache.l1_capacity_ratio", "ratio"),
    ("cache.l1_evictions", "count"),
    ("cache.decomp_queue_wait", "cycles"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_hit_rate", "ratio"),
    ("cache.dram_accesses", "count"),
    ("cache.stores", "count"),
    ("cache.writebacks", "count"),
    ("compress.probes", "count"),
    ("compress.probe_s", "s"),
    ("compress.ns_per_probe", "ns"),
    ("compress.encodes", "count"),
    ("compress.encode_s", "s"),
    ("compress.decodes", "count"),
    ("compress.decode_s", "s"),
    ("core.fill_calls", "count"),
    ("core.fill_s", "s"),
    ("core.access_calls", "count"),
    ("core.access_s", "s"),
    ("core.ep_calls", "count"),
    ("core.ep_s", "s"),
    ("core.self_s", "s"),
    ("core.eps_none", "count"),
    ("core.eps_low_latency", "count"),
    ("core.eps_high_capacity", "count"),
    ("core.mode_switches", "count"),
    ("energy.account_s", "s"),
    ("oracle.loads_checked", "count"),
    ("oracle.checkpoints", "count"),
    ("oracle.stores_observed", "count"),
    ("oracle.violations", "count"),
    ("oracle.check_s", "s"),
    ("oracle.overhead_s", "s"),
    ("pool.sim_s_total", "s"),
    ("pool.busy_frac", "ratio"),
    ("pool.experiment_s.fig11", "s"),
    ("pool.experiment_s.fig12", "s"),
    ("pool.experiment_s.fig13", "s"),
    ("memo.requests", "count"),
    ("memo.computed", "count"),
    ("memo.hit_ratio", "ratio"),
    ("store.durable_writes", "count"),
    ("store.bytes", "bytes"),
    ("store.warm_replay_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;

/// Simulation times the tail statistic is taken over: at least this many,
/// from whole leading passes, so every run of a workload reports the
/// same percentile.
const TAIL_SAMPLES: usize = 44;

/// Shortest set-up sample: a sample averages as many set-up passes as
/// this takes, so timer and scheduler jitter stay small against it.
const SETUP_SAMPLE_S: f64 = 0.02;

/// Median, over [`SETUP_SAMPLES`] samples, of the mean seconds of one
/// set-up pass (`pass(i)` is the `i`-th pass of the run). Passes run for
/// one sample's length first, so the allocator and the page cache are
/// warm: the figure is the steady cost of setting a pass up.
fn setup_s(mut pass: impl FnMut(usize) -> f64) -> f64 {
    let mut next = 0;
    let mut warm = 0.0;
    while warm < SETUP_SAMPLE_S {
        warm += pass(next);
        next += 1;
    }
    let per_sample = ((SETUP_SAMPLE_S * next as f64 / warm).ceil() as usize).clamp(1, 10_000);
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let total: f64 = (0..per_sample)
                .map(|_| {
                    next += 1;
                    pass(next)
                })
                .sum();
            total / per_sample as f64
        })
        .collect();
    median(&samples)
}

/// The paper's C-Sens numbers (hpca 2018, Figs 11 and 13).
const PAPER_LATTE_SPEEDUP: f64 = 1.192;
const PAPER_BEST_STATIC: f64 = 1.137;
const PAPER_LATTE_ENERGY: f64 = 0.90;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run found and measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    /// Failed simulations (or experiments), one message each.
    failures: Vec<String>,
    /// Output checks that failed without a failed simulation.
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<String>,
    digest: u128,
    /// `(label, host seconds)` of every simulation measured.
    sim_times: Vec<(String, f64)>,
    spans: Option<SpanLog>,
}

impl Outcome {
    /// An outcome with every per-layer metric at its "layer not
    /// exercised" value: 0, and a scaling of 1 (nothing sharded).
    fn per_layer() -> Outcome {
        let mut o = Outcome::default();
        for (name, _) in PER_LAYER {
            o.set(name, 0.0);
        }
        o.set("parallel.scaling", 1.0);
        o
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn self_checks(&mut self) {
        for check in [sims::self_check_deadlock(), sims::self_check_transparency()] {
            if let Err(e) = check {
                self.problems.push(e);
            }
        }
    }

    fn count_failures(&mut self, rep: &Rep) {
        self.attempted += rep.cells.len() as u64;
        self.failures.extend(sims::failures(rep));
    }

    /// `samples` are every simulation time of the run, in run order, and
    /// `per_pass` how many simulations a pass runs.
    fn time_stats(&mut self, samples: &[f64], per_pass: usize) {
        self.set("sim_p50_s", median(samples));
        let leading = (tail_passes(per_pass) * per_pass).min(samples.len());
        let (value, pct, n) = tail(&samples[..leading]);
        self.set("sim_tail_s", value);
        self.info.push(format!(
            "sim_tail_s is the p{pct:.1} of {n} simulation times"
        ));
    }

    fn design(&mut self, d: sims::Design, paper: bool) {
        let sims::Design {
            latte_speedup: latte,
            best_other: best,
            best_other_name: best_name,
            latte_energy: energy,
        } = d;
        self.set("latte_speedup", latte);
        self.set("latte_vs_best_static", latte / best);
        self.set("latte_energy", energy);
        if paper {
            let paper_ratio = PAPER_LATTE_SPEEDUP / PAPER_BEST_STATIC;
            for (name, ours, theirs) in [
                ("latte_speedup", latte, PAPER_LATTE_SPEEDUP),
                ("latte_vs_best_static", latte / best, paper_ratio),
                ("latte_energy", energy, PAPER_LATTE_ENERGY),
            ] {
                self.info.push(format!(
                    "{name} {ours:.4} (paper C-Sens {theirs:.3}, difference {:+.4})",
                    ours - theirs
                ));
            }
            self.info.push(format!(
                "best static here is {best_name} at {best:.4}; the paper's is Static-BDI at {PAPER_BEST_STATIC}"
            ));
        } else {
            self.info.push(format!(
                "latte_vs_best_static compares with {best_name} (the set has no static policy); \
                 the paper reports no write-back figures"
            ));
        }
        self.info.push(
            "the simulated GPU is unvalidated against hardware: the repository holds no \
             measured-GPU reference, only the paper's reported numbers"
                .to_owned(),
        );
    }
}

/// The in-process workloads' set, at `threads` simulation threads.
fn sim_set(workload: &str, seed: u64, oracle: bool, threads: usize) -> SimSet {
    match workload {
        "csens-2sm" => sims::csens_2sm(seed),
        "csens-15sm-t2" => sims::csens_15sm(seed, threads),
        _ => sims::writeback_oracle(seed, oracle),
    }
}

/// Passes needed for [`TAIL_SAMPLES`] simulation times at `per_pass`
/// simulations a pass.
fn tail_passes(per_pass: usize) -> usize {
    TAIL_SAMPLES.div_ceil(per_pass.max(1))
}

/// Repeats `pass` until the next pass would end past `seconds`, and at
/// least `min_passes` times.
fn measure<T>(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = now_ns();
    let mut out = Vec::new();
    loop {
        out.push(pass(out.len()));
        let elapsed = secs_since(start);
        if out.len() >= min_passes && elapsed + elapsed / out.len() as f64 > seconds {
            return out;
        }
    }
}

fn end_to_end_sims(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    o.self_checks();
    let set = sim_set(&args.workload, args.seed, true, 2);
    o.set("setup_s", setup_s(|_| sims::setup_pass(&set)));
    let reps = measure(args.seconds, tail_passes(set.cells.len()), |_| {
        sims::run_rep(&set, None)
    });
    o.digest = reps[0].digest();
    if reps.iter().any(|r| r.digest() != o.digest) {
        o.problems
            .push("two passes over the same inputs simulated differently".to_owned());
    }
    for rep in &reps {
        o.count_failures(rep);
    }
    if args.seed == 0 {
        o.problems
            .extend(sims::check_committed(&set, &reps[0], Path::new("results")));
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.warp_insts() as f64 / r.wall_s / 1e6)
        .collect();
    o.set("wall_s", median(&walls));
    let raw: Vec<f64> = reps.iter().map(|r| r.raw_wall_s).collect();
    o.info.push(format!(
        "wall_s {:.4} s is net of host steal; the raw wall-clock median is {:.4} s",
        median(&walls),
        median(&raw)
    ));
    o.set("minst_per_s", median(&rates));
    o.sim_times = reps
        .iter()
        .flat_map(|r| r.cells.iter().map(|c| (c.label.clone(), c.host_s)))
        .collect();
    let samples: Vec<f64> = o.sim_times.iter().map(|s| s.1).collect();
    o.time_stats(&samples, set.cells.len());
    o.set("peak_rss_mb", peak_rss_mb());
    o.design(
        sims::design(&reps[0]),
        set.committed != sims::Committed::Nothing,
    );
    o.info.push(format!(
        "{} pass(es) of {} simulations",
        reps.len(),
        set.cells.len()
    ));
    o
}

fn install_clocks() {
    latte_compress::stats::install_clock(now_ns);
    latte_gpusim::install_epoch_clock(now_ns);
}

/// Fills every per-layer metric of an in-process workload from its
/// traced pass `t`, untraced pass `u` and compressor counter delta.
fn layer_metrics(o: &mut Outcome, t: &Rep, u: &Rep, compress: latte_compress::stats::Snapshot) {
    let ns = util::ns_to_s;
    let mut tally = trace::Tally::default();
    for c in &t.cells {
        tally.add(&c.tally);
    }
    let sum = |f: &dyn Fn(&sims::CellRun) -> u64| t.cells.iter().map(f).sum::<u64>();
    let build_ns = sum(&|c| c.build_ns);
    let run_ns = sum(&|c| c.run_ns);
    // Host time of run_kernel across threads: the calling thread's wall
    // plus, for parallel cells, the worker busy time beyond one worker's
    // share of the epoch spans (busy + stall is the same for every shard).
    let extra_thread_ns = sum(&|c| {
        let e = &c.epoch;
        let first =
            e.busy_ns.first().copied().unwrap_or(0) + e.stall_ns.first().copied().unwrap_or(0);
        e.busy_ns.iter().sum::<u64>().saturating_sub(first)
    });
    let wrapped: u64 = tally.ns.iter().sum();
    let gpusim_self = (sum(&|c| c.gpu_new_ns) + run_ns + extra_thread_ns)
        .saturating_sub(wrapped + compress.encode_ns + compress.decode_ns);
    let policy_ns = tally.ns[2] + tally.ns[3] + tally.ns[4];
    let core_self = policy_ns.saturating_sub(compress.probe_ns);
    let energy_ns = sum(&|c| c.energy_ns);
    let stat = |f: &dyn Fn(&latte_gpusim::KernelStats) -> u64| {
        t.cells.iter().map(|c| f(&c.stats)).sum::<u64>() as f64
    };
    let insts = stat(&|s| s.instructions);
    let cycles = stat(&|s| s.cycles);

    o.set("workloads.build_s", ns(build_ns));
    o.set("workloads.ops", tally.calls[0] as f64);
    o.set("workloads.op_s", ns(tally.ns[0]));
    o.set("workloads.lines", tally.calls[1] as f64);
    o.set("workloads.line_s", ns(tally.ns[1]));
    o.set("gpusim.run_s", ns(run_ns));
    o.set("gpusim.self_s", ns(gpusim_self));
    o.set("gpusim.cycles", cycles);
    o.set("gpusim.warp_insts", insts);
    o.set("gpusim.ns_per_inst", run_ns as f64 / insts.max(1.0));
    o.set("gpusim.ipc", insts / cycles.max(1.0));
    o.set("gpusim.eps", stat(&|s| s.eps_completed));
    o.set("gpusim.mshr_stalls", stat(&|s| s.mshr_stalls));
    o.set("gpusim.hit_wait_cycles", stat(&|s| s.hit_wait_cycles));
    o.set("gpusim.miss_wait_cycles", stat(&|s| s.miss_wait_cycles));
    o.set(
        "gpusim.barrier_wait_cycles",
        stat(&|s| s.barrier_wait_cycles),
    );

    let mut epoch = latte_gpusim::EpochStats::default();
    for c in &t.cells {
        epoch.merge(&c.epoch);
    }
    let busy: u64 = epoch.busy_ns.iter().sum();
    let stall: u64 = epoch.stall_ns.iter().sum();
    o.set("parallel.epochs", epoch.epochs as f64);
    o.set("parallel.mean_epoch_cycles", epoch.mean_epoch_cycles());
    o.set(
        "parallel.busy_s_max",
        ns(epoch.busy_ns.iter().copied().max().unwrap_or(0)),
    );
    o.set(
        "parallel.busy_s_min",
        ns(epoch.busy_ns.iter().copied().min().unwrap_or(0)),
    );
    o.set(
        "parallel.stall_frac",
        stall as f64 / ((busy + stall) as f64).max(1.0),
    );

    let l1 = |f: &dyn Fn(&latte_cache::CacheStats) -> u64| {
        t.cells.iter().map(|c| f(&c.stats.l1)).sum::<u64>() as f64
    };
    let l2 = |f: &dyn Fn(&latte_cache::CacheStats) -> u64| {
        t.cells.iter().map(|c| f(&c.stats.l2)).sum::<u64>() as f64
    };
    o.set("cache.l1_accesses", l1(&|s| s.accesses()));
    o.set(
        "cache.l1_hit_rate",
        l1(&|s| s.hits) / l1(&|s| s.accesses()).max(1.0),
    );
    o.set("cache.l1_compressed_hits", l1(&|s| s.compressed_hits));
    o.set("cache.l1_fills", l1(&|s| s.fills));
    o.set(
        "cache.l1_compressed_fill_ratio",
        l1(&|s| s.compressed_fills) / l1(&|s| s.fills).max(1.0),
    );
    o.set(
        "cache.l1_capacity_ratio",
        t.cells.iter().map(|c| c.capacity_ratio).sum::<f64>() / t.cells.len().max(1) as f64,
    );
    o.set("cache.l1_evictions", l1(&|s| s.evictions));
    o.set(
        "cache.decomp_queue_wait",
        stat(&|s| s.decompression_queue_wait),
    );
    o.set("cache.l2_accesses", l2(&|s| s.accesses()));
    o.set(
        "cache.l2_hit_rate",
        l2(&|s| s.hits) / l2(&|s| s.accesses()).max(1.0),
    );
    o.set("cache.dram_accesses", stat(&|s| s.dram_accesses));
    o.set("cache.stores", stat(&|s| s.stores));
    o.set("cache.writebacks", stat(&|s| s.writebacks));

    set_compress(o, compress);

    o.set("core.fill_calls", tally.calls[2] as f64);
    o.set("core.fill_s", ns(tally.ns[2]));
    o.set("core.access_calls", tally.calls[3] as f64);
    o.set("core.access_s", ns(tally.ns[3]));
    o.set("core.ep_calls", tally.calls[4] as f64);
    o.set("core.ep_s", ns(tally.ns[4]));
    o.set("core.self_s", ns(core_self));
    for (i, name) in [
        "core.eps_none",
        "core.eps_low_latency",
        "core.eps_high_capacity",
    ]
    .into_iter()
    .enumerate()
    {
        o.set(
            name,
            t.cells.iter().map(|c| c.eps_in_mode[i]).sum::<u64>() as f64,
        );
    }
    o.set("core.mode_switches", tally.mode_switches as f64);
    o.set("energy.account_s", ns(energy_ns));

    let oracle = |f: &dyn Fn(&latte_oracle::OracleReport) -> u64| {
        t.cells
            .iter()
            .filter_map(|c| c.oracle.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    o.set("oracle.loads_checked", oracle(&|r| r.loads_checked));
    o.set("oracle.checkpoints", oracle(&|r| r.checkpoints));
    o.set("oracle.stores_observed", oracle(&|r| r.stores_observed));
    o.set("oracle.violations", oracle(&|r| r.violations_total));
    o.set("oracle.check_s", ns(tally.ns[5]));

    let layers = build_ns
        + tally.ns[0]
        + tally.ns[1]
        + gpusim_self
        + core_self
        + compress.probe_ns
        + compress.encode_ns
        + compress.decode_ns
        + energy_ns
        + tally.ns[5];
    // Layer times are wall-clock readings, so the denominator is too.
    let host_s = t.raw_wall_s + ns(extra_thread_ns);
    o.set("trace.coverage", ns(layers) / host_s);
    o.set("trace.overhead_s", t.wall_s - u.wall_s);
    o.info.push(format!(
        "boundary calls: {}",
        BOUNDARIES
            .iter()
            .zip(tally.calls)
            .map(|(b, n)| format!("{b} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
}

fn set_compress(o: &mut Outcome, c: latte_compress::stats::Snapshot) {
    o.set("compress.probes", c.probe_ops as f64);
    o.set("compress.probe_s", util::ns_to_s(c.probe_ns));
    o.set(
        "compress.ns_per_probe",
        c.probe_ns as f64 / (c.probe_ops.max(1)) as f64,
    );
    o.set("compress.encodes", c.encode_ops as f64);
    o.set("compress.encode_s", util::ns_to_s(c.encode_ns));
    o.set("compress.decodes", c.decode_ops as f64);
    o.set("compress.decode_s", util::ns_to_s(c.decode_ns));
}

fn layers_sims(args: &Args) -> Outcome {
    let mut o = Outcome::per_layer();
    o.self_checks();
    let set = sim_set(&args.workload, args.seed, true, 2);
    let untraced = sims::run_rep(&set, None);
    // The comparison pass runs before any clock is installed, like the
    // untraced pass: serial cells for the scaling figure, oracle-free
    // cells for the oracle's overhead.
    let comparison = match args.workload.as_str() {
        "csens-15sm-t2" => Some(sims::run_rep(
            &sim_set(&args.workload, args.seed, true, 1),
            None,
        )),
        "writeback-oracle" => Some(sims::run_rep(
            &sim_set(&args.workload, args.seed, false, 1),
            None,
        )),
        _ => None,
    };
    install_clocks();
    let before = latte_compress::stats::snapshot();
    let mut log = SpanLog::default();
    let root = log.open("workload", args.workload.clone(), None);
    let traced = sims::run_rep(&set, Some((&mut log, root)));
    log.close(root, None);
    let delta = util::compress_since(before);

    o.digest = untraced.digest();
    if traced.digest() != o.digest {
        o.problems
            .push("the traced pass simulated differently from the untraced pass".to_owned());
    }
    o.count_failures(&untraced);
    o.count_failures(&traced);
    if args.seed == 0 {
        o.problems
            .extend(sims::check_committed(&set, &untraced, Path::new("results")));
    }
    layer_metrics(&mut o, &traced, &untraced, delta);
    match (args.workload.as_str(), &comparison) {
        ("csens-15sm-t2", Some(serial)) => {
            o.count_failures(serial);
            if serial.digest() != o.digest {
                o.problems.push(
                    "the 2-thread pass simulated differently from the serial pass".to_owned(),
                );
            }
            o.set("parallel.scaling", serial.wall_s / untraced.wall_s);
            o.info.push(format!(
                "parallel.scaling = serial {:.3} s / 2-thread {:.3} s over the same {} cells, \
                 identical digests, {} CPUs",
                serial.wall_s,
                untraced.wall_s,
                set.cells.len(),
                nproc()
            ));
        }
        ("writeback-oracle", Some(plain)) => {
            o.count_failures(plain);
            o.set("oracle.overhead_s", untraced.wall_s - plain.wall_s);
        }
        _ => {}
    }
    for c in &traced.cells {
        o.sim_times.push((c.label.clone(), c.host_s));
    }
    o.spans = Some(log);
    o
}

fn sweep_pass(
    o: &mut Outcome,
    store: &Path,
    results: &Path,
    clock: bool,
) -> Option<sweep::SweepRun> {
    match sweep::run_pass(store, results, clock, Path::new("results")) {
        Ok(run) => {
            o.attempted += run.get("attempted") as u64 + 3;
            o.failures.extend(run.failures.iter().cloned());
            if o.digest == 0 {
                o.digest = run.digest;
            } else if run.digest != o.digest {
                o.problems
                    .push("two sweep passes wrote different CSVs".to_owned());
            }
            Some(run)
        }
        Err(e) => {
            o.attempted += 1;
            o.failures.push(e);
            None
        }
    }
}

fn end_to_end_sweep(args: &Args, scratch: &Path) -> Outcome {
    let mut o = Outcome::default();
    o.self_checks();
    let cells = sims::fig11_suite();
    o.set(
        "setup_s",
        setup_s(|i| {
            sims::setup_pass(&cells) + sweep::store_open_s(&scratch.join(format!("open-{i}")))
        }),
    );
    let runs: Vec<sweep::SweepRun> = measure(args.seconds, 1, |i| {
        let store = scratch.join(format!("store-{i}"));
        let results = scratch.join(format!("results-{i}"));
        let run = sweep_pass(&mut o, &store, &results, false);
        let _ = std::fs::remove_dir_all(&store);
        let _ = std::fs::remove_dir_all(&results);
        run
    })
    .into_iter()
    .flatten()
    .collect();
    let Some(first) = runs.first() else { return o };
    let (bdi, sc) = (first.get("design.bdi"), first.get("design.sc"));
    let (best_other_name, best_other) = if bdi >= sc {
        ("Static-BDI", bdi)
    } else {
        ("Static-SC", sc)
    };
    let design = sims::Design {
        latte_speedup: first.get("design.latte"),
        best_other,
        best_other_name,
        latte_energy: first.get("design.energy"),
    };
    o.design(design, true);
    let walls: Vec<f64> = runs.iter().map(|r| r.get("sweep_s")).collect();
    let raw: Vec<f64> = runs.iter().map(|r| r.get("raw_sweep_s")).collect();
    o.info.push(format!(
        "wall_s {:.4} s is net of host steal; the raw wall-clock median is {:.4} s",
        median(&walls),
        median(&raw)
    ));
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.get("warp_insts") / r.get("sweep_s") / 1e6)
        .collect();
    o.set("wall_s", median(&walls));
    o.set("minst_per_s", median(&rates));
    let samples: Vec<f64> = runs.iter().flat_map(|r| r.sim_s.iter().copied()).collect();
    o.sim_times = samples
        .iter()
        .map(|&s| ("sweep sim".to_owned(), s))
        .collect();
    o.time_stats(&samples, first.sim_s.len());
    o.set(
        "peak_rss_mb",
        runs.iter()
            .map(|r| r.get("peak_rss_mb"))
            .fold(0.0, f64::max),
    );
    o.info.push(format!(
        "{} sweep pass(es), {} jobs, each in a fresh process",
        runs.len(),
        sweep::JOBS
    ));
    o
}

fn layers_sweep(scratch: &Path) -> Outcome {
    let mut o = Outcome::per_layer();
    o.self_checks();
    let mut log = SpanLog::default();
    let root = log.open("workload", "sweep-jobs2".to_owned(), None);
    let pass = |o: &mut Outcome, log: &mut SpanLog, name: &str, store: &str, clock: bool| {
        let id = log.open("pass", name.to_owned(), Some(root));
        let run = sweep_pass(
            o,
            &scratch.join(store),
            &scratch.join(format!("results-{name}")),
            clock,
        );
        log.close(id, None);
        run
    };
    let untraced = pass(&mut o, &mut log, "untraced", "store-a", false);
    let traced = pass(&mut o, &mut log, "traced", "store-b", true);
    let store_bytes = traced.as_ref().map_or(0, |t| t.store_bytes);
    let warm = pass(&mut o, &mut log, "warm-replay", "store-b", false);
    log.close(root, None);
    o.spans = Some(log);
    let (Some(u), Some(t), Some(w)) = (untraced, traced, warm) else {
        return o;
    };
    let get = |k: &str| t.get(k) as u64;
    set_compress(
        &mut o,
        latte_compress::stats::Snapshot {
            probe_ops: get("compress.probes"),
            probe_ns: get("compress.probe_ns"),
            encode_ops: get("compress.encodes"),
            encode_ns: get("compress.encode_ns"),
            decode_ops: get("compress.decodes"),
            decode_ns: get("compress.decode_ns"),
        },
    );
    let sim_total: f64 = t.sim_s.iter().sum();
    let busy = sim_total / (t.get("sweep_s") * sweep::JOBS as f64);
    o.set("pool.sim_s_total", sim_total);
    o.set("pool.busy_frac", busy);
    for (name, key) in [
        ("pool.experiment_s.fig11", "exp_s.fig11"),
        ("pool.experiment_s.fig12", "exp_s.fig12"),
        ("pool.experiment_s.fig13", "exp_s.fig13"),
    ] {
        o.set(name, t.get(key));
    }
    o.set("memo.requests", t.get("memo.requests"));
    o.set("memo.computed", t.get("memo.computed"));
    o.set(
        "memo.hit_ratio",
        t.get("memo.hits") / t.get("memo.requests").max(1.0),
    );
    o.set("store.durable_writes", t.get("store.durable_writes"));
    o.set("store.bytes", store_bytes as f64);
    o.set("store.warm_replay_s", w.get("sweep_s"));
    o.set("trace.coverage", busy);
    o.set("trace.overhead_s", t.get("sweep_s") - u.get("sweep_s"));
    o.sim_times = t
        .sim_s
        .iter()
        .map(|&s| ("sweep sim".to_owned(), s))
        .collect();
    o.info.push(format!(
        "memo: {} requests, {} computed; warm replay over the traced pass's store: {:.3} s",
        t.get("memo.requests"),
        t.get("memo.computed"),
        w.get("sweep_s")
    ));
    o
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// UTC date and time from the system clock, `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (H. Hinnant), days since 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The host context recorded with every result.
fn host_context() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("rustc", command_line(&rustc, &["-V"])),
        (
            "commit",
            if commit == "unavailable" {
                "unavailable (not a git checkout)".to_owned()
            } else {
                commit
            },
        ),
        ("date", utc_now()),
        ("command", std::env::args().collect::<Vec<_>>().join(" ")),
    ]
}

fn spans_json(log: &SpanLog) -> String {
    let spans: Vec<String> = log
        .spans()
        .iter()
        .map(|s| {
            let tally = s.tally.map_or(String::new(), |t| {
                let b: Vec<String> = BOUNDARIES
                    .iter()
                    .enumerate()
                    .map(|(i, name)| format!("{}:{{\"calls\":{},\"ns\":{}}}", json_str(name), t.calls[i], t.ns[i]))
                    .collect();
                format!(",\"boundaries\":{{{}}}", b.join(","))
            });
            format!(
                "{{\"id\":{},\"parent\":{},\"kind\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}{tally}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                json_str(s.kind),
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[{}]", spans.join(",\n"))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--sweep-child") {
        std::process::exit(sweep::child_main(&argv[2..]));
    }
    let args = match parse_args(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("latte-perfbench: {e}");
            eprintln!(
                "usage: latte-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if !Path::new("results").is_dir() || !Path::new("crates").is_dir() {
        eprintln!("latte-perfbench: run from the repository root (needs results/ and crates/)");
        std::process::exit(2);
    }
    let host = host_context();
    let scratch = PathBuf::from(".bench_out").join(format!("run-{}", std::process::id()));
    let mut o = match (args.workload.as_str(), args.trace) {
        ("sweep-jobs2", false) => end_to_end_sweep(&args, &scratch),
        ("sweep-jobs2", true) => layers_sweep(&scratch),
        (_, false) => end_to_end_sims(&args),
        (_, true) => layers_sims(&args),
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in wanted {
        if !o.metrics.contains_key(name) {
            o.problems.push(format!("metric {name} was not measured"));
        }
    }
    let failed = o.failures.len() as u64;
    let correct = failed == 0 && o.problems.is_empty() && o.attempted > 0;
    for (key, value) in &host {
        println!("host {key}: {value}");
    }
    println!(
        "workload {} seed {} trace {}: digest {:032x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        o.digest
    );
    for line in &o.info {
        println!("info: {line}");
    }
    for line in o.failures.iter().chain(&o.problems) {
        println!("FAILED: {line}");
    }
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = o.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        metrics.join(", ")
    );

    let record_dir = Path::new(".bench_out").join("records");
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\n\"host\":{{{}}},\n\"digest\":\"{:032x}\",\n\"failures\":[{}],\n\"info\":[{}],\n\"sim_times\":[{}],\n\"result\":{result},\n\"spans\":{}}}\n",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        host.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect::<Vec<_>>().join(","),
        o.digest,
        o.failures.iter().chain(&o.problems).map(|f| json_str(f)).collect::<Vec<_>>().join(","),
        o.info.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","),
        o.sim_times
            .iter()
            .map(|(l, s)| format!("[{},{}]", json_str(l), json_num(*s)))
            .collect::<Vec<_>>()
            .join(","),
        o.spans.as_ref().map_or("[]".to_owned(), spans_json),
    );
    let path = record_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&record_dir).and_then(|()| std::fs::write(&path, record))
    {
        println!(
            "info: could not write the run record {}: {e}",
            path.display()
        );
    }
    println!("{result}");
}
