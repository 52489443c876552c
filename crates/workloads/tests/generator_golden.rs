//! Golden digest of the synthetic workload generators.
//!
//! Every benchmark of `suite()` and `write_heavy_suite()` is walked: for
//! each kernel, the complete op streams of warps 0, 1 and the last warp
//! on SMs 0 and 1, plus the `line_data` bytes of every 16th distinct line
//! those streams touch (in first-touch order). Everything folds into one
//! `Fingerprinter` digest pinned below, so any drift in the address
//! generators, the phase walker, the store payloads or the value
//! profiles fails here directly rather than only through the simulated
//! results.

use latte_cache::LineAddr;
use latte_gpusim::{Fingerprinter, Kernel, Op};
use latte_workloads::{suite, write_heavy_suite, BenchmarkSpec};
use std::collections::HashSet;

/// The pinned digest. A change to it changes the inputs of every
/// simulation, so it must come with regenerated results.
const GOLDEN: u128 = 0xc36a_4fa6_74d9_bb79_3a6e_21f6_34ed_abfd;

/// Ops any one warp may emit before the walk is declared runaway.
const MAX_OPS_PER_WARP: usize = 1 << 22;

fn fold_op(fp: &mut Fingerprinter, op: Op) {
    match op {
        Op::Compute { cycles } => {
            fp.write_u64(0);
            fp.write_u32(cycles);
        }
        Op::Load { addr } => {
            fp.write_u64(1);
            fp.write_u64(addr);
        }
        Op::LoadAsync { addr } => {
            fp.write_u64(2);
            fp.write_u64(addr);
        }
        Op::Store { addr, data } => {
            fp.write_u64(3);
            fp.write_u64(addr);
            fp.write_bytes(&data);
        }
        Op::Barrier => fp.write_u64(4),
        Op::Exit => fp.write_u64(5),
    }
}

fn fold_benchmark(fp: &mut Fingerprinter, bench: &BenchmarkSpec) {
    fp.write_str(bench.abbr);
    for kernel in bench.build_kernels() {
        fp.write_str(kernel.name());
        let mut seen = HashSet::new();
        let mut distinct = 0usize;
        for sm in 0..2 {
            let last = kernel.warps_on_sm(sm).saturating_sub(1);
            let mut warps = vec![0, 1, last];
            warps.sort_unstable();
            warps.dedup();
            for warp in warps.into_iter().filter(|&w| w <= last) {
                let mut stream = kernel.warp_program(sm, warp);
                for n in 0.. {
                    assert!(n < MAX_OPS_PER_WARP, "{}: runaway op stream", bench.abbr);
                    let op = stream.next_op();
                    fold_op(fp, op);
                    let addr = match op {
                        Op::Exit => break,
                        Op::Load { addr } | Op::LoadAsync { addr } | Op::Store { addr, .. } => addr,
                        Op::Compute { .. } | Op::Barrier => continue,
                    };
                    let line = LineAddr::from_byte_addr(addr);
                    if seen.insert(line) {
                        if distinct % 16 == 0 {
                            fp.write_u64(line.line_number());
                            fp.write_bytes(kernel.line_data(line).as_bytes());
                        }
                        distinct += 1;
                    }
                }
            }
        }
        fp.write_usize(distinct);
    }
}

#[test]
fn generator_streams_and_line_data_match_golden_digest() {
    let mut fp = Fingerprinter::new();
    let benches: Vec<BenchmarkSpec> = suite().into_iter().chain(write_heavy_suite()).collect();
    assert!(benches.len() > 20, "suite shrank to {}", benches.len());
    for bench in &benches {
        fold_benchmark(&mut fp, bench);
    }
    let digest = fp.finish();
    assert_eq!(digest, GOLDEN, "generator digest drifted: got {digest:#034x}");
}
