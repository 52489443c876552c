//! Memory access pattern generators: the synthetic stand-in for the
//! benchmarks' address streams.
//!
//! A benchmark's cache sensitivity is set by how its per-SM working set
//! compares to the 128-line L1 and how reuse is distributed; its latency
//! tolerance is set by warp parallelism and the compute:memory ratio.
//! Patterns are stateless functions of `(iteration, warp, seed)`, so warp
//! programs can be regenerated for oracle replays.

use crate::values::mix64;

/// How a phase's loads pick their target lines (within the phase's
/// region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential streaming, each warp over its own disjoint slice: no
    /// reuse at all (bandwidth-bound kernels).
    Stream,
    /// Uniform-random accesses over a shared working set of
    /// `working_set_lines`: hit rate ≈ min(1, capacity / working set),
    /// smooth in effective capacity (the C-Sens backbone).
    UniformReuse {
        /// Size of the shared working set, in lines.
        working_set_lines: u32,
    },
    /// Zipf-distributed accesses over `universe_lines` (graph-style skewed
    /// reuse); `alpha_x100` is the exponent × 100.
    Zipf {
        /// Universe size in lines.
        universe_lines: u32,
        /// Zipf exponent scaled by 100 (e.g. 90 → α = 0.9).
        alpha_x100: u32,
    },
    /// Blocked/tiled reuse: warps sweep a tile of `tile_lines` with
    /// `reuse_factor` passes before moving to the next tile — strong
    /// short-range temporal locality with phase changes at tile
    /// boundaries.
    Tiled {
        /// Tile size in lines.
        tile_lines: u32,
        /// Passes over each tile before advancing.
        reuse_factor: u32,
    },
}

impl AccessPattern {
    /// Folds this pattern (discriminant + parameters) into a simulation
    /// fingerprint.
    pub fn write_fingerprint(&self, fp: &mut latte_gpusim::Fingerprinter) {
        match *self {
            AccessPattern::Stream => fp.write_u64(0),
            AccessPattern::UniformReuse { working_set_lines } => {
                fp.write_u64(1);
                fp.write_u32(working_set_lines);
            }
            AccessPattern::Zipf {
                universe_lines,
                alpha_x100,
            } => {
                fp.write_u64(2);
                fp.write_u32(universe_lines);
                fp.write_u32(alpha_x100);
            }
            AccessPattern::Tiled {
                tile_lines,
                reuse_factor,
            } => {
                fp.write_u64(3);
                fp.write_u32(tile_lines);
                fp.write_u32(reuse_factor);
            }
        }
    }

    /// The line offset (within the phase's region) of load `i` issued by
    /// `warp`, out of `warps` total.
    #[must_use]
    pub fn line_offset(&self, i: u64, warp: u64, warps: u64, seed: u64) -> u64 {
        self.prepare().line_offset(i, warp, warps, seed)
    }

    /// This pattern with its per-phase constants evaluated once.
    pub(crate) fn prepare(&self) -> PhasePattern {
        match *self {
            AccessPattern::Stream => PhasePattern::Stream,
            AccessPattern::UniformReuse { working_set_lines } => PhasePattern::UniformReuse {
                working_set: u64::from(working_set_lines.max(1)),
            },
            AccessPattern::Zipf {
                universe_lines,
                alpha_x100,
            } => PhasePattern::Zipf(ZipfSampler::new(u64::from(universe_lines.max(1)), alpha_x100)),
            AccessPattern::Tiled {
                tile_lines,
                reuse_factor,
            } => {
                let tile_lines = u64::from(tile_lines.max(1));
                PhasePattern::Tiled {
                    tile_lines,
                    span: tile_lines * u64::from(reuse_factor.max(1)),
                }
            }
        }
    }
}

/// An [`AccessPattern`] with the constants that depend only on its
/// parameters evaluated once, when a warp enters the phase, instead of
/// on every load (Zipf's `n^(1-α)` above all). The address rule itself
/// lives only here; [`AccessPattern::line_offset`] prepares and calls it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PhasePattern {
    Stream,
    UniformReuse { working_set: u64 },
    Zipf(ZipfSampler),
    Tiled { tile_lines: u64, span: u64 },
}

impl PhasePattern {
    /// The line offset (within the phase's region) of load `i` issued by
    /// `warp`, out of `warps` total.
    pub(crate) fn line_offset(&self, i: u64, warp: u64, warps: u64, seed: u64) -> u64 {
        match *self {
            PhasePattern::Stream => {
                // Disjoint slices (within the 24-bit region offset space):
                // warp w covers [w << 17, (w + 1) << 17).
                (warp << 17) + i
            }
            PhasePattern::UniformReuse { working_set } => {
                mix64(seed ^ (i.wrapping_mul(warps) + warp).wrapping_mul(0x2545_f491_4f6c_dd1d))
                    % working_set
            }
            PhasePattern::Zipf(zipf) => {
                let u = mix64(seed ^ (i * 0x9e37 + warp * 0x79b9) ^ 0x5a5a);
                let rank = zipf.sample(u);
                // Scatter ranks over lines with a bijection so hot ranks
                // do not all land in the first few cache sets (which would
                // bias any set-sampling scheme).
                scatter(rank, zipf.n, seed)
            }
            PhasePattern::Tiled { tile_lines, span } => {
                // Stagger tile boundaries across warps (real blocks do not
                // cross tiles in lockstep); this also keeps the simulated
                // dynamics smooth instead of stampede-driven.
                let stagger = if warps > 1 { warp * span / warps } else { 0 };
                let tile = (i + stagger) / span;
                let r = mix64(seed ^ i ^ (warp << 40)) % tile_lines;
                tile * tile_lines + r
            }
        }
    }
}

/// A bijective scatter of `[0, n)` onto itself: a 3-round Feistel network
/// over the next power-of-two domain with cycle walking. Unlike an affine
/// map, this scrambles residues modulo small powers of two, so hot ranks
/// cannot correlate with cache-set indices.
fn scatter(x: u64, n: u64, seed: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let bits = 64 - (n - 1).leading_zeros() as u64;
    let half = bits.div_ceil(2);
    let mask = (1u64 << half) - 1;
    let mut v = x;
    loop {
        let (mut l, mut r) = (v & mask, v >> half);
        for round in 0..3u64 {
            let f = mix64(r ^ seed.wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))) & mask;
            (l, r) = (r, l ^ f);
        }
        v = (r << half) | l;
        if v < n {
            return v;
        }
    }
}

/// Samples Zipf(α)-distributed ranks in `[0, n)` from uniform random
/// bits using the inverse-CDF power-law approximation: rank ≈ n·u^(1/(1−α))
/// for α < 1, and a bounded harmonic approximation above. Exactness is
/// irrelevant — only the skew matters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ZipfSampler {
    n: u64,
    curve: ZipfCurve,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ZipfCurve {
    /// α ≈ 1: exponential of log-uniform.
    LogUniform,
    /// Inverse CDF of f(x) ∝ x^-α on [1, n], with p = 1 − α:
    /// `(u·span + 1)^inv_p − 1`, where `span = n^p − 1`, `inv_p = 1/p`.
    Power { span: f64, inv_p: f64 },
}

impl ZipfSampler {
    fn new(n: u64, alpha_x100: u32) -> ZipfSampler {
        let alpha = f64::from(alpha_x100) / 100.0;
        let curve = if (alpha - 1.0).abs() < 0.01 {
            ZipfCurve::LogUniform
        } else {
            let p = 1.0 - alpha;
            ZipfCurve::Power {
                span: (n as f64).powf(p) - 1.0,
                inv_p: 1.0 / p,
            }
        };
        ZipfSampler { n, curve }
    }

    fn sample(&self, random: u64) -> u64 {
        let u = ((random >> 11) as f64) / ((1u64 << 53) as f64); // [0, 1)
        let rank = match self.curve {
            ZipfCurve::LogUniform => ((self.n as f64).powf(u) - 1.0).max(0.0),
            ZipfCurve::Power { span, inv_p } => ((u * span + 1.0).powf(inv_p) - 1.0).max(0.0),
        };
        (rank as u64).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_disjoint_across_warps() {
        let p = AccessPattern::Stream;
        let a: Vec<u64> = (0..100).map(|i| p.line_offset(i, 0, 4, 1)).collect();
        let b: Vec<u64> = (0..100).map(|i| p.line_offset(i, 1, 4, 1)).collect();
        assert!(a.iter().all(|x| !b.contains(x)));
        // And sequential within a warp.
        assert_eq!(a[1], a[0] + 1);
    }

    #[test]
    fn uniform_reuse_stays_in_working_set() {
        let p = AccessPattern::UniformReuse {
            working_set_lines: 64,
        };
        for i in 0..1000 {
            assert!(p.line_offset(i, 3, 8, 42) < 64);
        }
    }

    #[test]
    fn uniform_reuse_covers_working_set() {
        let p = AccessPattern::UniformReuse {
            working_set_lines: 32,
        };
        let seen: std::collections::HashSet<u64> =
            (0..2000).map(|i| p.line_offset(i, 0, 1, 7)).collect();
        assert_eq!(seen.len(), 32);
    }

    /// Mass carried by the `k` most frequent lines of 20k samples.
    fn top_k_mass(p: &AccessPattern, k: usize) -> usize {
        let mut counts = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            *counts.entry(p.line_offset(i, 0, 1, 3)).or_insert(0usize) += 1;
        }
        let mut v: Vec<usize> = counts.into_values().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v.into_iter().take(k).sum()
    }

    #[test]
    fn zipf_is_skewed() {
        let p = AccessPattern::Zipf {
            universe_lines: 1024,
            alpha_x100: 90,
        };
        // The 32 hottest lines (of 1024) must carry a large share.
        assert!(top_k_mass(&p, 32) > 20_000 / 4);
        for i in 0..2000 {
            assert!(p.line_offset(i, 0, 1, 3) < 1024);
        }
    }

    #[test]
    fn zipf_alpha_controls_skew() {
        let flat = AccessPattern::Zipf {
            universe_lines: 1024,
            alpha_x100: 20,
        };
        let skewed = AccessPattern::Zipf {
            universe_lines: 1024,
            alpha_x100: 110,
        };
        assert!(top_k_mass(&skewed, 64) > top_k_mass(&flat, 64) * 2);
    }

    #[test]
    fn zipf_hot_lines_spread_over_sets() {
        // The hottest lines must not cluster in the low line numbers
        // (set-sampling bias).
        let p = AccessPattern::Zipf {
            universe_lines: 512,
            alpha_x100: 100,
        };
        let mut counts = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            *counts.entry(p.line_offset(i, 0, 1, 3)).or_insert(0usize) += 1;
        }
        let mut hot: Vec<(usize, u64)> = counts.into_iter().map(|(l, c)| (c, l)).collect();
        hot.sort_unstable_by(|a, b| b.cmp(a));
        let low_sets = hot
            .iter()
            .take(16)
            .filter(|&&(_, line)| line % 32 < 4)
            .count();
        assert!(low_sets <= 8, "hot lines clustered in low sets: {low_sets}/16");
    }

    #[test]
    fn tiled_advances_through_tiles() {
        let p = AccessPattern::Tiled {
            tile_lines: 16,
            reuse_factor: 4,
        };
        // First 64 loads stay in tile 0, next 64 in tile 1.
        for i in 0..64 {
            assert!(p.line_offset(i, 0, 1, 9) < 16);
        }
        for i in 64..128 {
            let off = p.line_offset(i, 0, 1, 9);
            assert!((16..32).contains(&off));
        }
    }
}
