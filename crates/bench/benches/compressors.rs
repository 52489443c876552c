//! Criterion micro-benchmarks: compressor throughput on characteristic
//! cache-line contents.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latte_cache::LineAddr;
use latte_compress::{Bdi, BitSink, Bpc, CacheLine, Compressor, CpackZ, Fpc, Sc, VftBuilder};
use latte_gpusim::Kernel;
use latte_workloads::{
    AccessPattern, BenchmarkSpec, Category, KernelSpec, LineGenerator, PhaseSpec, ValueProfile,
};
use std::hint::black_box;

fn lines_for(profile: ValueProfile) -> Vec<CacheLine> {
    (0..128).map(|i| profile.line(LineAddr::new(i), 7)).collect()
}

fn bench_compressors(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_line");
    let cases = [
        ("small_ints", ValueProfile::SmallInts { max: 1024 }),
        ("pointers", ValueProfile::Pointers),
        ("hot_floats", ValueProfile::HotFloats { alphabet: 64 }),
        ("random_floats", ValueProfile::RandomFloats),
    ];
    for (name, profile) in cases {
        let lines = lines_for(profile);
        let mut vft = VftBuilder::new();
        for l in &lines {
            vft.observe_line(l);
        }
        let sc = Sc::new(vft.build());
        let algos: Vec<(&str, Box<dyn Compressor>)> = vec![
            ("bdi", Box::new(Bdi::new())),
            ("fpc", Box::new(Fpc::new())),
            ("cpack", Box::new(CpackZ::new())),
            ("bpc", Box::new(Bpc::new())),
            ("sc", Box::new(sc)),
        ];
        for (algo_name, algo) in algos {
            group.bench_with_input(BenchmarkId::new(algo_name, name), &lines, |b, lines| {
                let mut i = 0;
                b.iter(|| {
                    let line = &lines[i % lines.len()];
                    i += 1;
                    black_box(algo.compress(black_box(line)))
                });
            });
        }
    }
    group.finish();
}

/// The simulator's per-access hot path: every L1 fill sizes the line
/// under one compressor via the size-only `probe()` stage. Benchmarked
/// as a whole mixed stream per iteration — the shape the cache model
/// actually produces — so this number tracks the staged/no-alloc work
/// directly. The `*_full_encode` entries run the payload-materialising
/// `BitWriter` path over the same stream: the probe/encode gap is the
/// point of the staging split. The `*_probe_batch` entries size the
/// stream through one batched call (per-burst setup amortised).
fn bench_hot_path_stream(c: &mut Criterion) {
    let mut stream: Vec<CacheLine> = Vec::new();
    for profile in [
        ValueProfile::Zeros,
        ValueProfile::SmallInts { max: 1024 },
        ValueProfile::Pointers,
        ValueProfile::HotFloats { alphabet: 64 },
        ValueProfile::RandomFloats,
    ] {
        stream.extend(lines_for(profile));
    }
    let mut vft = VftBuilder::new();
    for l in &stream {
        vft.observe_line(l);
    }
    let sc = Sc::new(vft.build());
    let algos: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("bdi", Box::new(Bdi::new())),
        ("fpc", Box::new(Fpc::new())),
        ("cpack", Box::new(CpackZ::new())),
        ("bpc", Box::new(Bpc::new())),
        ("sc", Box::new(sc)),
    ];
    let mut group = c.benchmark_group("hot_path_stream_640_lines");
    for (name, algo) in &algos {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut total = 0usize;
                for line in &stream {
                    total += black_box(algo.probe(black_box(line))).size_bytes();
                }
                black_box(total)
            });
        });
    }
    for (name, algo) in &algos {
        group.bench_function(format!("{name}_probe_batch"), |b| {
            let mut sizes = Vec::with_capacity(stream.len());
            b.iter(|| {
                sizes.clear();
                algo.probe_batch(black_box(&stream), &mut sizes);
                let total: usize = sizes.iter().map(|c| c.size_bytes()).sum();
                black_box(total)
            });
        });
    }
    let cpack = CpackZ::new();
    group.bench_function("cpack_full_encode", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for line in &stream {
                total += black_box(cpack.encode(black_box(line))).byte_len();
            }
            black_box(total)
        });
    });
    let bpc = Bpc::new();
    group.bench_function("bpc_full_encode", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for line in &stream {
                total += black_box(bpc.encode(black_box(line))).byte_len();
            }
            black_box(total)
        });
    });
    group.finish();
}

/// Size-only probe vs full bit-exact encode for the variable-length
/// coders: the gap is what routing `compress()` through `BitCounter`
/// instead of a real `BitWriter` buys on the hot path.
fn bench_size_probe_vs_encode(c: &mut Criterion) {
    let lines = lines_for(ValueProfile::SmallInts { max: 1024 });
    let fpc = Fpc::new();
    let bpc = Bpc::new();
    let mut group = c.benchmark_group("size_probe_vs_encode");
    group.bench_function("fpc_count_only", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                let mut counter = latte_compress::BitCounter::new();
                fpc.encode_into(black_box(line), &mut counter);
                bits += counter.bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("fpc_full_encode", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                bits += fpc.encode(black_box(line)).bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("bpc_count_only", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                let mut counter = latte_compress::BitCounter::new();
                bpc.encode_into(black_box(line), &mut counter);
                bits += counter.bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("bpc_fast_probe", |b| {
        // The transposed bit-plane probe: no BitCounter walk at all.
        b.iter(|| {
            let mut bytes = 0usize;
            for line in &lines {
                bytes += bpc.probe(black_box(line)).size_bytes();
            }
            black_box(bytes)
        });
    });
    let cpack = CpackZ::new();
    group.bench_function("cpack_count_only", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                let mut counter = latte_compress::BitCounter::new();
                cpack.encode_into(black_box(line), &mut counter);
                bits += counter.bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("cpack_full_encode", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                bits += cpack.encode(black_box(line)).bit_len();
            }
            black_box(bits)
        });
    });
    group.bench_function("bpc_full_encode", |b| {
        b.iter(|| {
            let mut bits = 0usize;
            for line in &lines {
                bits += bpc.encode(black_box(line)).bit_len();
            }
            black_box(bits)
        });
    });
    group.finish();
}

fn bench_sc_training(c: &mut Criterion) {
    let lines = lines_for(ValueProfile::HotFloats { alphabet: 256 });
    c.bench_function("sc_vft_train_and_build", |b| {
        b.iter(|| {
            let mut vft = VftBuilder::new();
            for l in &lines {
                vft.observe_line(black_box(l));
            }
            black_box(vft.build())
        });
    });
}

/// A one-kernel, one-phase benchmark whose single phase never ends
/// within a measurement (no compute ops: every `next_op` is an access).
fn one_phase(pattern: AccessPattern) -> BenchmarkSpec {
    BenchmarkSpec {
        abbr: "FILL",
        name: "fill-path input bench",
        category: Category::CSens,
        kernels: vec![KernelSpec {
            name: "k0".into(),
            warps_per_sm: 48,
            phases: vec![PhaseSpec::loads(pattern, u32::MAX, 0).with_mlp(4)],
        }],
        generator: LineGenerator::uniform(ValueProfile::Zeros, 7),
        seed: 7,
    }
}

/// The inputs of every simulated fill and issue, untimed by the
/// simulator's own tracing: one warp's `next_op` (the synthetic address
/// generator) on a Zipf and a Tiled phase, and `line_data` (the value
/// generator) under each value profile.
fn bench_fill_path_inputs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fill_path_inputs");
    let patterns = [
        (
            "next_op_zipf",
            AccessPattern::Zipf {
                universe_lines: 4096,
                alpha_x100: 90,
            },
        ),
        (
            "next_op_tiled",
            AccessPattern::Tiled {
                tile_lines: 64,
                reuse_factor: 4,
            },
        ),
    ];
    for (name, pattern) in patterns {
        let kernels = one_phase(pattern).build_kernels();
        let mut stream = kernels[0].warp_program(0, 5);
        group.bench_function(name, |b| b.iter(|| black_box(stream.next_op())));
    }
    let profiles = [
        ("line_data_zeros", ValueProfile::Zeros),
        ("line_data_small_ints", ValueProfile::SmallInts { max: 1024 }),
        ("line_data_pointers", ValueProfile::Pointers),
        (
            "line_data_indices",
            ValueProfile::Indices {
                stride: 4,
                noise_bits: 2,
            },
        ),
        ("line_data_hot_floats", ValueProfile::HotFloats { alphabet: 64 }),
        ("line_data_random_floats", ValueProfile::RandomFloats),
        ("line_data_text", ValueProfile::Text),
    ];
    for (name, profile) in profiles {
        let mut i = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                i += 1;
                black_box(profile.line(LineAddr::new(black_box(i)), 7))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compressors,
    bench_hot_path_stream,
    bench_size_probe_vs_encode,
    bench_sc_training,
    bench_fill_path_inputs
);
criterion_main!(benches);
