//! Huffman-based Statistical Compression (SC) — Arelakis & Stenström,
//! ISCA 2014, with the LATTE-CC paper's GPU-specific revision (§IV-C2).
//!
//! SC exploits *temporal* value locality: frequent 32-bit values are
//! replaced with short Huffman codes. Code generation needs a trained
//! value-frequency table (VFT): a 1024-entry table with 12-bit saturating
//! counters, built by sampling inserted lines. The LATTE-CC revision
//! retrains the VFT each period (the controller drives retraining; this
//! module provides the mechanics):
//!
//! 1. sample lines into a [`VftBuilder`] during the training window,
//! 2. freeze it into an immutable [`ScCodebook`] (canonical Huffman codes
//!    plus an escape code for untabled values),
//! 3. compress with [`Sc`] until the next retraining point.

// Order-independence audit (2026-08): the three HashMaps here (VFT
// counts, codebook encode/decode tables) are keyed lookups; the one
// place a map is iterated — `ScCodebook::from_counts` — immediately
// sorts by symbol ("deterministic tie-breaking independent of HashMap
// order" below), so canonical code assignment cannot see map order.
// Since 2026-10 the maps hash with the fixed `ScHasher` instead of
// SipHash's per-process random keys, so their iteration order is also
// the same in every run; the sort stays regardless, because the
// canonical code must not depend on a hasher choice either.
// latte-lint: allow-file(D3, reason = "keyed lookups; the single iteration site sorts by symbol before use")

use crate::bitstream::{BitReader, BitWriter};
use crate::error::DecodeError;
use crate::line::CacheLine;
use crate::{stats, Compression, Compressor, Cycles};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fixed multiplicative hasher (Fx-style) for the SC tables.
///
/// Every fill probes the codebook once per 32-bit word, and every
/// training sample updates one VFT counter per word, so the tables'
/// hash function sits on the simulator's fill path. The keys are
/// simulated data values, not adversarial input, so SipHash's DoS
/// resistance buys nothing here; one multiply per word does. The
/// final rotation moves the product's well-mixed high bits into the
/// low bits the table indexes by, so keys differing only in their
/// high bits still spread over buckets.
#[derive(Debug, Clone, Copy, Default)]
struct ScHasher {
    hash: u64,
}

impl ScHasher {
    const SEED: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for ScHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A map over [`ScHasher`]: allocation-free until the first insert,
/// like any `HashMap`, and iterated in the same order in every run.
type ScMap<K, V> = HashMap<K, V, BuildHasherDefault<ScHasher>>;

/// Capacity of the value-frequency table (§IV-C2).
pub const VFT_ENTRIES: usize = 1024;

/// Saturation limit of the VFT's 12-bit counters.
pub const VFT_COUNTER_MAX: u32 = (1 << 12) - 1;

/// Longest permitted Huffman code. The builder degrades counter resolution
/// until all codes fit, which bounds decompressor pipeline depth.
const MAX_CODE_LEN: u32 = 27;

/// Accumulates value frequencies from sampled cache lines.
///
/// # Example
///
/// ```
/// use latte_compress::{CacheLine, VftBuilder};
///
/// let mut vft = VftBuilder::new();
/// vft.observe_line(&CacheLine::from_u32_words(&[42; 32]));
/// let codebook = vft.build();
/// assert!(codebook.code_len(42).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VftBuilder {
    counts: ScMap<u32, u32>,
    /// Samples that arrived while the table was full (statistics only).
    overflowed: u64,
}

impl VftBuilder {
    /// Creates an empty VFT.
    #[must_use]
    pub fn new() -> VftBuilder {
        VftBuilder::default()
    }

    /// Records one 32-bit value. New values are dropped once the table
    /// holds [`VFT_ENTRIES`] distinct entries (a hardware VFT has fixed
    /// capacity); existing counters saturate at [`VFT_COUNTER_MAX`].
    pub fn observe(&mut self, value: u32) {
        if let Some(c) = self.counts.get_mut(&value) {
            *c = (*c + 1).min(VFT_COUNTER_MAX);
        } else if self.counts.len() < VFT_ENTRIES {
            self.counts.insert(value, 1);
        } else {
            self.overflowed += 1;
        }
    }

    /// Records every 32-bit word of a line.
    pub fn observe_line(&mut self, line: &CacheLine) {
        for w in line.u32_words() {
            self.observe(w);
        }
    }

    /// Number of distinct values currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when no values have been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of samples dropped because the table was full.
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Freezes the table into a canonical-Huffman codebook.
    #[must_use]
    pub fn build(&self) -> ScCodebook {
        ScCodebook::from_counts(&self.counts)
    }

    /// Iterates the observed `(value, count)` pairs.
    ///
    /// Order is unspecified; callers must fold order-independently or
    /// sort (codebook construction sorts by `(count desc, value)`).
    pub fn iter_counts(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        // latte-lint: allow(T1, reason = "documented unordered iterator; the only consumers sort by (count desc, value) or fold commutatively")
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Estimated cost, in bits, of encoding this table's sample stream
    /// with `codebook` — used to judge whether a retrained codebook is
    /// actually better than the incumbent.
    #[must_use]
    pub fn estimated_cost_bits(&self, codebook: &ScCodebook) -> u64 {
        self.counts
            // latte-lint: allow(T1, reason = "order-independent fold: a sum of per-entry costs is the same under any iteration order")
            .iter()
            .map(|(&v, &c)| u64::from(c) * u64::from(codebook.cost_bits(v)))
            .sum()
    }
}

/// Symbols of the SC alphabet: tabled values plus the escape marker that
/// prefixes a raw 32-bit literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Symbol {
    Value(u32),
    Escape,
}

/// An immutable canonical-Huffman codebook (the compressor's code-word
/// table and the decompressor's lookup table, DeLUT, of §IV-C2).
#[derive(Debug, Clone, Default)]
pub struct ScCodebook {
    /// value -> code length in bits.
    encode: ScMap<u32, (u32, u32)>, // value -> (code, len)
    escape: (u32, u32),
    /// (len, code) -> symbol, for decoding.
    decode: ScMap<(u32, u32), Symbol>,
    max_len: u32,
}

impl ScCodebook {
    /// Builds a codebook from raw value counts. An escape symbol is always
    /// included so any line remains encodable. The map's hasher is
    /// irrelevant: the counts are sorted by symbol before use.
    #[must_use]
    pub fn from_counts<S>(counts: &HashMap<u32, u32, S>) -> ScCodebook {
        let mut weights: Vec<(Symbol, u64)> = counts
            .iter()
            .filter(|&(_, &c)| c > 0)
            .map(|(&v, &c)| (Symbol::Value(v), u64::from(c)))
            .collect();
        // Deterministic tie-breaking independent of HashMap order.
        weights.sort_unstable_by_key(|&(s, _)| s);
        // The escape symbol must stay cheap enough to be usable but should
        // not distort the tabled codes; weight 1 puts it at the bottom.
        weights.push((Symbol::Escape, 1));

        let mut lengths = huffman_code_lengths(&weights);
        while lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
            // Degrade counter resolution until the tree flattens enough.
            for w in weights.iter_mut() {
                w.1 = (w.1 / 2).max(1);
            }
            lengths = huffman_code_lengths(&weights);
        }

        // Canonical code assignment: sort by (length, symbol).
        lengths.sort_unstable_by_key(|&(s, l)| (l, s));
        let mut encode = ScMap::default();
        let mut decode = ScMap::default();
        let mut escape = (0, 0);
        let mut code = 0u32;
        let mut prev_len = 0u32;
        let mut max_len = 0;
        for &(sym, len) in &lengths {
            code <<= len - prev_len;
            prev_len = len;
            max_len = max_len.max(len);
            match sym {
                Symbol::Value(v) => {
                    encode.insert(v, (code, len));
                }
                Symbol::Escape => escape = (code, len),
            }
            decode.insert((len, code), sym);
            code += 1;
        }
        ScCodebook {
            encode,
            escape,
            decode,
            max_len,
        }
    }

    /// Code length in bits for a tabled value, or `None` if the value
    /// escapes.
    #[must_use]
    pub fn code_len(&self, value: u32) -> Option<u32> {
        self.encode.get(&value).map(|&(_, l)| l)
    }

    /// Cost in bits of encoding `value` (tabled code or escape + literal).
    #[must_use]
    pub fn cost_bits(&self, value: u32) -> u32 {
        self.code_len(value).unwrap_or(self.escape.1 + 32)
    }

    /// Number of tabled values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.encode.len()
    }

    /// `true` if both codebooks table exactly the same values. Used to
    /// detect no-op retrains: when the dictionary is unchanged, lines
    /// compressed under the old codebook would re-encode to the same
    /// values, so stale-line invalidation can be skipped.
    #[must_use]
    pub fn same_dictionary(&self, other: &ScCodebook) -> bool {
        self.encode.len() == other.encode.len()
            // latte-lint: allow(T1, reason = "order-independent predicate: all() over set membership is the same under any iteration order")
            && self.encode.keys().all(|k| other.encode.contains_key(k))
    }

    /// `true` when no values are tabled (everything escapes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.encode.is_empty()
    }

    /// Encodes a line against this codebook (the payload path; size
    /// probes go through [`Compressor::compress`] on [`Sc`], which sums
    /// code lengths without emitting bits).
    #[must_use]
    pub fn encode_line(&self, line: &CacheLine) -> BitWriter {
        let t = stats::start();
        let mut w = BitWriter::new();
        for word in line.u32_words() {
            match self.encode.get(&word) {
                Some(&(code, len)) => w.write_bits(u64::from(code), len),
                None => {
                    let (code, len) = self.escape;
                    w.write_bits(u64::from(code), len);
                    w.write_bits(u64::from(word), 32);
                }
            }
        }
        stats::record_encode(t);
        w
    }

    /// Decodes a line produced by [`ScCodebook::encode_line`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bitstream is truncated or was
    /// produced by a different codebook (a code exceeds the maximum
    /// length without matching any table entry).
    pub fn decode_line(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let t = stats::start();
        let result = self.decode_line_impl(w);
        stats::record_decode(t);
        result
    }

    fn decode_line_impl(&self, w: &BitWriter) -> Result<CacheLine, DecodeError> {
        let mut r = BitReader::new(w.as_slice(), w.bit_len());
        let mut words = [0u32; CacheLine::NUM_U32_WORDS];
        for slot in &mut words {
            let mut code = 0u32;
            let mut len = 0u32;
            let sym = loop {
                code = (code << 1) | u32::from(r.try_read_bit()?);
                len += 1;
                if len > self.max_len {
                    return Err(DecodeError::InvalidCode {
                        algo: "SC",
                        detail: "code exceeds codebook maximum length",
                    });
                }
                if let Some(&sym) = self.decode.get(&(len, code)) {
                    break sym;
                }
            };
            *slot = match sym {
                Symbol::Value(v) => v,
                Symbol::Escape => r.try_read_bits(32)? as u32,
            };
        }
        Ok(CacheLine::from_u32_words(&words))
    }
}

/// Computes Huffman code lengths for `weights` (symbol, weight) pairs.
// The heap pops below are guarded by the surrounding `len() > 1` checks;
// this is codebook construction, not a decode path.
#[allow(clippy::expect_used)]
fn huffman_code_lengths(weights: &[(Symbol, u64)]) -> Vec<(Symbol, u32)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    if weights.is_empty() {
        return Vec::new();
    }
    if weights.len() == 1 {
        return vec![(weights[0].0, 1)];
    }

    // Arena of tree nodes: leaves first, internal nodes appended.
    // children[i] is None for leaves.
    let mut children: Vec<Option<(usize, usize)>> = vec![None; weights.len()];
    // Min-heap over (weight, node index); the index doubles as a
    // deterministic tie-breaker.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = weights
        .iter()
        .enumerate()
        .map(|(i, &(_, w))| Reverse((w, i)))
        .collect();
    // Two pops per iteration are guaranteed by the len > 1 guard, and
    // the loop leaves exactly one node — the root — behind; written
    // let-else so no panicking path exists even if that reasoning rots.
    while heap.len() > 1 {
        let (Some(Reverse((w1, n1))), Some(Reverse((w2, n2)))) = (heap.pop(), heap.pop()) else {
            break;
        };
        let idx = children.len();
        children.push(Some((n1, n2)));
        heap.push(Reverse((w1 + w2, idx)));
    }
    let root = match heap.pop() {
        Some(Reverse((_, root))) => root,
        None => return Vec::new(), // unreachable: weights is non-empty
    };

    let mut lengths = vec![0u32; weights.len()];
    let mut stack = vec![(root, 0u32)];
    while let Some((node, depth)) = stack.pop() {
        match children[node] {
            None => lengths[node] = depth.max(1),
            Some((l, r)) => {
                stack.push((l, depth + 1));
                stack.push((r, depth + 1));
            }
        }
    }
    weights
        .iter()
        .zip(lengths)
        .map(|(&(s, _), l)| (s, l))
        .collect()
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// Manual Ord: Values sort by value, Escape sorts last.
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (Symbol::Value(a), Symbol::Value(b)) => a.cmp(b),
            (Symbol::Value(_), Symbol::Escape) => std::cmp::Ordering::Less,
            (Symbol::Escape, Symbol::Value(_)) => std::cmp::Ordering::Greater,
            (Symbol::Escape, Symbol::Escape) => std::cmp::Ordering::Equal,
        }
    }
}

/// The SC compressor: an immutable codebook plus the Table I cost model.
///
/// # Example
///
/// ```
/// use latte_compress::{CacheLine, Compressor, Sc, VftBuilder};
///
/// let hot = CacheLine::from_u32_words(&(0..32).map(|i| i % 4).collect::<Vec<_>>());
/// let mut vft = VftBuilder::new();
/// for _ in 0..100 {
///     vft.observe_line(&hot);
/// }
/// let sc = Sc::new(vft.build());
/// assert!(sc.compress(&hot).size_bytes() <= 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sc {
    codebook: ScCodebook,
}

impl Sc {
    /// Creates an SC compressor over a trained codebook.
    #[must_use]
    pub fn new(codebook: ScCodebook) -> Sc {
        Sc { codebook }
    }

    /// An SC compressor with an empty codebook: every word escapes, so
    /// every line stays uncompressed. Used as the state before the first
    /// training period completes.
    #[must_use]
    pub fn untrained() -> Sc {
        Sc::default()
    }

    /// The underlying codebook.
    #[must_use]
    pub fn codebook(&self) -> &ScCodebook {
        &self.codebook
    }

    /// Replaces the codebook at a retraining boundary.
    pub fn set_codebook(&mut self, codebook: ScCodebook) {
        self.codebook = codebook;
    }
}

impl Compressor for Sc {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn compress(&self, line: &CacheLine) -> Compression {
        // Size-only probe: sums code lengths; never emits a bit.
        let t = stats::start();
        let bits: u64 = line.u32_words().map(|w| u64::from(self.codebook.cost_bits(w))).sum();
        stats::record_probe(t);
        Compression::new((bits as usize).div_ceil(8))
    }

    fn decompression_latency(&self) -> Cycles {
        14
    }

    fn compression_latency(&self) -> Cycles {
        6
    }

    fn compression_energy_nj(&self) -> f64 {
        0.42
    }

    fn decompression_energy_nj(&self) -> f64 {
        0.336
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(lines: &[CacheLine]) -> ScCodebook {
        let mut vft = VftBuilder::new();
        for l in lines {
            vft.observe_line(l);
        }
        vft.build()
    }

    #[test]
    fn hot_values_get_short_codes() {
        let hot = CacheLine::from_u32_words(&vec![7u32; 32]);
        let cold = CacheLine::from_u32_words(&(100..132).collect::<Vec<_>>());
        let mut lines = vec![hot; 50];
        lines.push(cold);
        let cb = train(&lines);
        let hot_len = cb.code_len(7).expect("hot value tabled");
        let cold_len = cb.code_len(100).expect("cold value tabled");
        assert!(hot_len < cold_len, "{hot_len} vs {cold_len}");
    }

    #[test]
    fn encode_decode_round_trip_tabled() {
        let line = CacheLine::from_u32_words(&(0..32).map(|i| i % 8).collect::<Vec<_>>());
        let cb = train(&[line]);
        let w = cb.encode_line(&line);
        assert_eq!(cb.decode_line(&w), Ok(line));
    }

    #[test]
    fn foreign_codebook_stream_never_panics_or_aliases() {
        // Encode under one codebook, decode under a disjoint one: either a
        // detected error or a (wrong) well-formed line — never a panic,
        // never the original data by accident.
        let line = CacheLine::from_u32_words(&vec![7u32; 32]);
        let a = train(&[line]);
        let b = train(&[CacheLine::from_u32_words(&vec![0xdead_beefu32; 32])]);
        let w = a.encode_line(&line);
        assert_ne!(b.decode_line(&w), Ok(line));
    }

    #[test]
    fn encode_decode_round_trip_with_escapes() {
        let trained = CacheLine::from_u32_words(&vec![42u32; 32]);
        let cb = train(&[trained]);
        // A line full of values the codebook never saw.
        let unseen = CacheLine::from_u32_words(&(0..32).map(|i| 0xdead_0000 + i).collect::<Vec<_>>());
        let w = cb.encode_line(&unseen);
        assert_eq!(cb.decode_line(&w), Ok(unseen));
    }

    #[test]
    fn untrained_sc_never_compresses() {
        let sc = Sc::untrained();
        let line = CacheLine::from_u32_words(&vec![1u32; 32]);
        assert!(!sc.compress(&line).is_compressed());
    }

    #[test]
    fn trained_sc_beats_bdi_on_temporal_locality() {
        use crate::bdi::Bdi;
        // FP-like values: few distinct bit patterns, high per-word variance.
        let values = [
            f32::to_bits(3.25),
            f32::to_bits(-1.5e10),
            f32::to_bits(0.001),
            f32::to_bits(7.75e-20),
        ];
        let words: Vec<u32> = (0..32).map(|i| values[i % 4]).collect();
        let line = CacheLine::from_u32_words(&words);
        let mut vft = VftBuilder::new();
        for _ in 0..20 {
            vft.observe_line(&line);
        }
        let sc = Sc::new(vft.build());
        let sc_size = sc.compress(&line).size_bytes();
        let bdi_size = Bdi::new().compress(&line).size_bytes();
        assert!(
            sc_size < bdi_size,
            "SC ({sc_size}) should beat BDI ({bdi_size}) on temporal locality"
        );
    }

    #[test]
    fn vft_capacity_is_bounded() {
        let mut vft = VftBuilder::new();
        for v in 0..(VFT_ENTRIES as u32 * 2) {
            vft.observe(v);
        }
        assert_eq!(vft.len(), VFT_ENTRIES);
        assert_eq!(vft.overflowed(), VFT_ENTRIES as u64);
    }

    #[test]
    fn vft_counters_saturate() {
        let mut vft = VftBuilder::new();
        for _ in 0..(VFT_COUNTER_MAX + 100) {
            vft.observe(9);
        }
        let cb = vft.build();
        assert!(cb.code_len(9).is_some());
    }

    #[test]
    fn codebook_codes_are_prefix_free() {
        let mut vft = VftBuilder::new();
        for i in 0..200u32 {
            for _ in 0..(i % 17 + 1) {
                vft.observe(i * 3);
            }
        }
        let cb = vft.build();
        let mut codes: Vec<(u32, u32)> = cb.encode.values().copied().collect();
        codes.push(cb.escape);
        for (i, &(c1, l1)) in codes.iter().enumerate() {
            for &(c2, l2) in &codes[i + 1..] {
                if l1 == l2 {
                    assert_ne!(c1, c2, "duplicate code of length {l1}");
                } else {
                    let (short, slen, long, llen) =
                        if l1 < l2 { (c1, l1, c2, l2) } else { (c2, l2, c1, l1) };
                    assert_ne!(
                        long >> (llen - slen),
                        short,
                        "code {short:#b}/{slen} is a prefix of {long:#b}/{llen}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_codebooks() {
        // HashMap iteration order must not leak into code assignment.
        let build = || {
            let mut vft = VftBuilder::new();
            for i in 0..100u32 {
                for _ in 0..=(i % 5) {
                    vft.observe(i.wrapping_mul(0x9e37_79b9));
                }
            }
            vft.build()
        };
        let a = build();
        let b = build();
        for i in 0..100u32 {
            let v = i.wrapping_mul(0x9e37_79b9);
            assert_eq!(a.encode.get(&v), b.encode.get(&v));
        }
    }

    #[test]
    fn sc_hasher_spreads_keys_that_differ_only_in_high_bits() {
        use std::hash::BuildHasher;
        // Keys sharing their low 24 bits must still land in different
        // buckets of a 1024-entry table (its index is the hash's low bits).
        let build = BuildHasherDefault::<ScHasher>::default();
        let mut buckets: Vec<u64> =
            (0..256u32).map(|i| build.hash_one(i << 24) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() > 200, "only {} distinct buckets", buckets.len());
    }

    #[test]
    fn empty_codebook_contains_only_escape() {
        let cb = ScCodebook::from_counts(&HashMap::<u32, u32>::new());
        assert!(cb.is_empty());
        assert_eq!(cb.cost_bits(5), cb.escape.1 + 32);
        // Even an empty codebook round-trips via escapes.
        let line = CacheLine::from_u32_words(&(0..32).collect::<Vec<_>>());
        assert_eq!(cb.decode_line(&cb.encode_line(&line)), Ok(line));
    }
}
