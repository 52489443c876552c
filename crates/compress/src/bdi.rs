//! Base-Delta-Immediate (BDI) compression — Pekhimenko et al., PACT 2012.
//!
//! BDI exploits *spatial value locality*: words within a line tend to have
//! low dynamic range, so a line can be stored as one base value plus small
//! per-block deltas. The "Immediate" part adds an implicit second base of
//! zero, so a line mixing small immediates with large-but-close values still
//! compresses; a per-block mask selects which base each delta is relative to.
//!
//! The encodings follow §IV-C1 of the LATTE-CC paper: all-zeros;
//! (base = 8 B, Δ ∈ {0, 1, 2, 4}); (base = 4 B, Δ ∈ {0, 1, 2});
//! (base = 2 B, Δ ∈ {0, 1}); or uncompressed. The chosen encoding is stored
//! in a 4-bit `compression_enc` tag field, so it does not count towards the
//! data footprint.

use crate::error::DecodeError;
use crate::line::CacheLine;
use crate::{stats, Compression, Compressor, Cycles};

/// The 4-bit encoding selector stored in a tag block (§IV-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BdiEncoding {
    /// Every byte of the line is zero. Stored as 1 byte.
    Zeros,
    /// All 8-byte words are identical (Δ = 0). Stored as the 8-byte base.
    Rep8,
    /// 8-byte base, 1-byte deltas.
    B8D1,
    /// 8-byte base, 2-byte deltas.
    B8D2,
    /// 8-byte base, 4-byte deltas.
    B8D4,
    /// 4-byte base, 1-byte deltas.
    B4D1,
    /// 4-byte base, 2-byte deltas.
    B4D2,
    /// 2-byte base, 1-byte deltas.
    B2D1,
    /// Line did not fit any encoding; stored raw.
    Uncompressed,
}

impl BdiEncoding {
    /// All encodings BDI attempts, cheapest first (ties keep B2D1 ahead
    /// of B8D4), so the first candidate a line fits is its smallest
    /// encoding. (Δ = 0 with 4- or 2-byte bases is subsumed by
    /// [`BdiEncoding::Rep8`]: if all 4-byte or 2-byte blocks are equal,
    /// all 8-byte blocks are equal too.)
    pub const CANDIDATES: [BdiEncoding; 7] = [
        BdiEncoding::Rep8,
        BdiEncoding::B8D1,
        BdiEncoding::B4D1,
        BdiEncoding::B8D2,
        BdiEncoding::B4D2,
        BdiEncoding::B2D1,
        BdiEncoding::B8D4,
    ];

    /// Base size in bytes, or `None` for the degenerate encodings.
    #[must_use]
    pub fn base_bytes(self) -> Option<usize> {
        match self {
            BdiEncoding::Zeros | BdiEncoding::Uncompressed => None,
            BdiEncoding::Rep8 | BdiEncoding::B8D1 | BdiEncoding::B8D2 | BdiEncoding::B8D4 => {
                Some(8)
            }
            BdiEncoding::B4D1 | BdiEncoding::B4D2 => Some(4),
            BdiEncoding::B2D1 => Some(2),
        }
    }

    /// Delta size in bytes (0 for Δ = 0 / degenerate encodings).
    #[must_use]
    pub fn delta_bytes(self) -> usize {
        match self {
            BdiEncoding::Zeros | BdiEncoding::Uncompressed | BdiEncoding::Rep8 => 0,
            BdiEncoding::B8D1 | BdiEncoding::B4D1 | BdiEncoding::B2D1 => 1,
            BdiEncoding::B8D2 | BdiEncoding::B4D2 => 2,
            BdiEncoding::B8D4 => 4,
        }
    }

    /// Compressed size in bytes of a 128-byte line under this encoding:
    /// base + per-block deltas + base-selector mask (1 bit/block).
    #[must_use]
    pub fn compressed_bytes(self) -> usize {
        match self {
            BdiEncoding::Zeros => 1,
            BdiEncoding::Uncompressed => CacheLine::SIZE_BYTES,
            BdiEncoding::Rep8 => 8,
            enc => enc.base_bytes().map_or(CacheLine::SIZE_BYTES, |base| {
                let blocks = CacheLine::SIZE_BYTES / base;
                base + blocks * enc.delta_bytes() + blocks.div_ceil(8)
            }),
        }
    }
}

/// The most blocks any encoding splits a line into (B2D1: 128 B / 2 B).
const MAX_BLOCKS: usize = CacheLine::SIZE_BYTES / 2;

/// A BDI-compressed line, retained in full so it can be decompressed —
/// the simulator only needs sizes, but round-trip fidelity is what the unit
/// and property tests check.
///
/// Deltas and the zero-base mask live in fixed-size inline storage
/// (`MAX_BLOCKS` covers the narrowest base), so encoding a line performs
/// no heap allocation except the raw fallback copy for incompressible
/// lines — and the size-only [`Compressor::compress`] path skips even
/// that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BdiCompressed {
    encoding: BdiEncoding,
    /// Base value (zero-extended to u64).
    base: u64,
    /// Per-block deltas (sign info captured by two's-complement
    /// truncation); only the first `num_blocks` entries are meaningful
    /// and the rest stay zero.
    deltas: [u64; MAX_BLOCKS],
    /// Blocks the line splits into under `encoding` (0 for the
    /// degenerate encodings).
    num_blocks: u8,
    /// Bit `b` set: block `b` is relative to the implicit zero base.
    zero_base_mask: u64,
    /// Raw copy for the `Uncompressed` encoding.
    raw: Option<Box<CacheLine>>,
}

impl BdiCompressed {
    /// The encoding this line compressed to.
    #[must_use]
    pub fn encoding(&self) -> BdiEncoding {
        self.encoding
    }

    /// Compressed footprint in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.encoding.compressed_bytes()
    }

    /// Flips one bit of the stored payload (base, then deltas, then the
    /// zero-base mask; raw bytes for uncompressed lines), modelling
    /// storage corruption for the fault-injection harness. `bit` is taken
    /// modulo the payload width. Returns `false` when the encoding has no
    /// mutable payload (all-zeros lines).
    pub fn flip_bit(&mut self, bit: u64) -> bool {
        match self.encoding {
            BdiEncoding::Zeros => false,
            BdiEncoding::Uncompressed => match self.raw.as_deref_mut() {
                Some(raw) => {
                    let mut bytes = [0u8; CacheLine::SIZE_BYTES];
                    bytes.copy_from_slice(raw.as_bytes());
                    let b = (bit as usize) % (CacheLine::SIZE_BYTES * 8);
                    bytes[b / 8] ^= 1 << (b % 8);
                    *raw = CacheLine::from_bytes(bytes);
                    true
                }
                None => false,
            },
            enc => {
                let base_w = enc.base_bytes().map_or(64, |b| b as u64 * 8);
                let delta_w = enc.delta_bytes() as u64 * 8;
                let delta_total = u64::from(self.num_blocks) * delta_w;
                let total = base_w + delta_total + u64::from(self.num_blocks);
                let mut b = bit % total;
                if b < base_w {
                    self.base ^= 1 << b;
                    return true;
                }
                b -= base_w;
                if b < delta_total {
                    if let Some(d) = self.deltas.get_mut((b / delta_w) as usize) {
                        *d ^= 1 << (b % delta_w);
                        return true;
                    }
                    return false;
                }
                b -= delta_total;
                if b < u64::from(self.num_blocks) {
                    self.zero_base_mask ^= 1 << b;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// The BDI compressor.
///
/// # Example
///
/// ```
/// use latte_compress::{Bdi, BdiEncoding, CacheLine};
///
/// let line = CacheLine::from_u64_words(&[0x1000; 16]);
/// assert_eq!(Bdi::new().encode(&line).encoding(), BdiEncoding::Rep8);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bdi {
    _private: (),
}

impl Bdi {
    /// Creates a BDI compressor.
    #[must_use]
    pub fn new() -> Bdi {
        Bdi::default()
    }

    /// Compresses a line, keeping enough state to decompress it (the
    /// payload path; size probes use [`Compressor::probe`]).
    #[must_use]
    pub fn encode(&self, line: &CacheLine) -> BdiCompressed {
        let t = stats::start();
        let c = encode_as(line, select(line));
        stats::record_encode(t);
        c
    }

    /// Reconstructs the original line from its compressed form.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the stored metadata is inconsistent
    /// (missing raw copy, missing base, or short delta/mask arrays) —
    /// reachable only from corrupted state, never from [`Bdi::encode`].
    pub fn decode(&self, c: &BdiCompressed) -> Result<CacheLine, DecodeError> {
        let t = stats::start();
        let result = self.decode_impl(c);
        stats::record_decode(t);
        result
    }

    fn decode_impl(&self, c: &BdiCompressed) -> Result<CacheLine, DecodeError> {
        match c.encoding {
            BdiEncoding::Zeros => Ok(CacheLine::zeroed()),
            BdiEncoding::Uncompressed => c.raw.as_deref().copied().ok_or({
                DecodeError::CorruptMetadata {
                    algo: "BDI",
                    detail: "uncompressed line lost its raw bytes",
                }
            }),
            BdiEncoding::Rep8 => Ok(CacheLine::from_u64_words(&[c.base; CacheLine::NUM_U64_WORDS])),
            enc => {
                let base_bytes = enc.base_bytes().ok_or(DecodeError::CorruptMetadata {
                    algo: "BDI",
                    detail: "delta encoding without a base width",
                })?;
                let delta_bytes = enc.delta_bytes();
                let blocks = CacheLine::SIZE_BYTES / base_bytes;
                if (c.num_blocks as usize) < blocks {
                    return Err(DecodeError::LengthMismatch {
                        algo: "BDI",
                        expected: blocks,
                        actual: c.num_blocks as usize,
                    });
                }
                let mut out = [0u8; CacheLine::SIZE_BYTES];
                for (blk, &raw_delta) in c.deltas.iter().enumerate().take(blocks) {
                    let zero_base = (c.zero_base_mask >> blk) & 1 == 1;
                    let base = if zero_base { 0 } else { c.base };
                    let delta = sign_extend(raw_delta, delta_bytes * 8);
                    let value = base.wrapping_add(delta) & mask_bytes(base_bytes);
                    out[blk * base_bytes..(blk + 1) * base_bytes]
                        .copy_from_slice(&value.to_le_bytes()[..base_bytes]);
                }
                Ok(CacheLine::from_bytes(out))
            }
        }
    }
}

impl Compressor for Bdi {
    fn name(&self) -> &'static str {
        "BDI"
    }

    fn compress(&self, line: &CacheLine) -> Compression {
        // Size-only probe: the encoding alone fixes the size, so no
        // deltas are kept and no `BdiCompressed` is built.
        let t = stats::start();
        let enc = select(line);
        stats::record_probe(t);
        if enc == BdiEncoding::Uncompressed {
            Compression::UNCOMPRESSED
        } else {
            Compression::new(enc.compressed_bytes())
        }
    }

    fn decompression_latency(&self) -> Cycles {
        2
    }

    fn compression_latency(&self) -> Cycles {
        2
    }

    fn compression_energy_nj(&self) -> f64 {
        0.192
    }

    fn decompression_energy_nj(&self) -> f64 {
        0.056
    }
}

fn mask_bytes(n: usize) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (n * 8)) - 1
    }
}

fn sign_extend(v: u64, bits: usize) -> u64 {
    if bits == 0 || bits >= 64 {
        return v;
    }
    let shift = 64 - bits;
    (((v << shift) as i64) >> shift) as u64
}

/// `true` if `delta` (a wrapping difference within `base_bytes` bytes) fits
/// in `delta_bytes` as a signed value.
fn delta_fits(delta: u64, base_bytes: usize, delta_bytes: usize) -> bool {
    // Interpret the difference as signed within the base width.
    let d = sign_extend(delta & mask_bytes(base_bytes), base_bytes * 8) as i64;
    let half = 1i64 << (delta_bytes * 8 - 1);
    (-half..half).contains(&d)
}

/// Where a delta scan records each block's stored delta and the
/// zero-base mask: the encode path's sink. The size probe passes none.
struct Deltas {
    deltas: [u64; MAX_BLOCKS],
    zero_base_mask: u64,
}

/// The BDI delta-fit rule, specialised to a base of `B` bytes: each
/// block either fits in `delta_bytes` as an immediate (relative to the
/// implicit zero base) or as a delta from the line's base, which is the
/// first block that is not an immediate. Returns that base (0 when
/// every block is an immediate), or `None` as soon as one block fits
/// neither way. With a `sink`, every block's truncated delta and its
/// base selector are recorded as well.
fn delta_scan<const B: usize>(
    line: &CacheLine,
    delta_bytes: usize,
    mut sink: Option<&mut Deltas>,
) -> Option<u64> {
    let mut base: Option<u64> = None;
    for (blk, chunk) in line.as_bytes().chunks_exact(B).enumerate() {
        let mut word = [0u8; 8];
        word[..B].copy_from_slice(chunk);
        let v = u64::from_le_bytes(word);
        let (delta, zero_base) = if delta_fits(v, B, delta_bytes) {
            (v, true)
        } else {
            let delta = v.wrapping_sub(*base.get_or_insert(v));
            if !delta_fits(delta, B, delta_bytes) {
                return None;
            }
            (delta, false)
        };
        if let Some(sink) = sink.as_deref_mut() {
            sink.deltas[blk] = delta & mask_bytes(delta_bytes);
            sink.zero_base_mask |= u64::from(zero_base) << blk;
        }
    }
    Some(base.unwrap_or(0))
}

/// The shared 8-byte value of a line whose 8-byte words are all equal.
fn rep8_base(line: &CacheLine) -> Option<u64> {
    let first = line.u64_word(0);
    line.u64_words().all(|w| w == first).then_some(first)
}

/// Whether `line` fits `enc`, and with which base: the one fit test
/// behind both the size probe and the encoder. `sink` (delta encodings
/// only) receives the per-block deltas.
fn fit(line: &CacheLine, enc: BdiEncoding, sink: Option<&mut Deltas>) -> Option<u64> {
    if enc == BdiEncoding::Rep8 {
        return rep8_base(line);
    }
    let delta_bytes = enc.delta_bytes();
    match enc.base_bytes()? {
        8 => delta_scan::<8>(line, delta_bytes, sink),
        4 => delta_scan::<4>(line, delta_bytes, sink),
        2 => delta_scan::<2>(line, delta_bytes, sink),
        _ => None,
    }
}

/// The encoding BDI stores `line` under: all-zeros, else the first
/// (cheapest) candidate the line fits, else uncompressed.
fn select(line: &CacheLine) -> BdiEncoding {
    if line.is_zero() {
        return BdiEncoding::Zeros;
    }
    BdiEncoding::CANDIDATES
        .into_iter()
        .find(|&enc| fit(line, enc, None).is_some())
        .unwrap_or(BdiEncoding::Uncompressed)
}

/// Materialises `line` under `enc`, the encoding [`select`] chose. A
/// line that does not fit `enc` is stored raw.
fn encode_as(line: &CacheLine, enc: BdiEncoding) -> BdiCompressed {
    let mut sink = Deltas {
        deltas: [0; MAX_BLOCKS],
        zero_base_mask: 0,
    };
    let base = match enc {
        BdiEncoding::Zeros => Some(0),
        BdiEncoding::Uncompressed => None,
        enc => fit(line, enc, Some(&mut sink)),
    };
    let Some(base) = base else {
        return BdiCompressed {
            encoding: BdiEncoding::Uncompressed,
            base: 0,
            deltas: [0; MAX_BLOCKS],
            num_blocks: 0,
            zero_base_mask: 0,
            raw: Some(Box::new(*line)),
        };
    };
    // Delta encodings store one delta per block; Zeros and Rep8 none.
    let num_blocks = match enc {
        BdiEncoding::Rep8 => 0,
        enc => enc.base_bytes().map_or(0, |b| CacheLine::SIZE_BYTES / b),
    };
    BdiCompressed {
        encoding: enc,
        base,
        deltas: sink.deltas,
        num_blocks: num_blocks as u8,
        zero_base_mask: sink.zero_base_mask,
        raw: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(line: &CacheLine) -> BdiEncoding {
        let bdi = Bdi::new();
        let c = bdi.encode(line);
        assert_eq!(
            bdi.decode(&c).as_ref(),
            Ok(line),
            "round trip under {:?}",
            c.encoding()
        );
        c.encoding()
    }

    #[test]
    fn flipped_bit_changes_decode_and_restores() {
        let bdi = Bdi::new();
        let words: Vec<u64> = (0..16).map(|i| 0x7fff_0000_0000_0000u64 + i * 8).collect();
        let line = CacheLine::from_u64_words(&words);
        let mut c = bdi.encode(&line);
        assert!(c.flip_bit(13));
        let corrupted = bdi.decode(&c);
        assert!(corrupted.is_err() || corrupted.as_ref() != Ok(&line));
        assert!(c.flip_bit(13));
        assert_eq!(bdi.decode(&c).as_ref(), Ok(&line));
    }

    #[test]
    fn short_delta_storage_is_a_length_mismatch() {
        // A torn metadata write leaving fewer blocks than the encoding
        // needs must surface as an error, never zero-fill the tail.
        let bdi = Bdi::new();
        let words: Vec<u32> = (0..32).map(|i| 0x0100_0000 + i * 3).collect();
        let mut c = bdi.encode(&CacheLine::from_u32_words(&words));
        assert_ne!(c.encoding(), BdiEncoding::Uncompressed);
        c.num_blocks = 1;
        assert!(matches!(
            bdi.decode(&c),
            Err(DecodeError::LengthMismatch { algo: "BDI", .. })
        ));
    }

    #[test]
    fn lost_raw_copy_is_corrupt_metadata() {
        let bdi = Bdi::new();
        let mut bytes = [0u8; CacheLine::SIZE_BYTES];
        let mut state = 0xdeadbeefu64;
        for b in bytes.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 56) as u8;
        }
        let mut c = bdi.encode(&CacheLine::from_bytes(bytes));
        assert_eq!(c.encoding(), BdiEncoding::Uncompressed);
        c.raw = None;
        assert!(matches!(
            bdi.decode(&c),
            Err(DecodeError::CorruptMetadata { algo: "BDI", .. })
        ));
    }

    #[test]
    fn zero_line() {
        let enc = round_trip(&CacheLine::zeroed());
        assert_eq!(enc, BdiEncoding::Zeros);
        assert_eq!(BdiEncoding::Zeros.compressed_bytes(), 1);
    }

    #[test]
    fn repeated_u64() {
        let line = CacheLine::from_u64_words(&[0xdead_beef_cafe_f00d; 16]);
        assert_eq!(round_trip(&line), BdiEncoding::Rep8);
    }

    #[test]
    fn small_u32_values_use_narrow_base() {
        // Values fit entirely as 1-byte immediates from the zero base within
        // 4-byte blocks, the cheapest feasible encoding for this line.
        let words: Vec<u32> = (0..32).map(|i| u32::from(i as u8 % 100)).collect();
        let line = CacheLine::from_u32_words(&words);
        let enc = round_trip(&line);
        assert_eq!(enc, BdiEncoding::B4D1);
        assert_eq!(enc.compressed_bytes(), 4 + 32 + 4);
    }

    #[test]
    fn pointers_compress_with_b8d1() {
        // Pointer-like values: large shared base, byte-range offsets.
        let base = 0x7fff_aabb_0000_0000u64;
        let words: Vec<u64> = (0..16).map(|i| base + i * 8).collect();
        let line = CacheLine::from_u64_words(&words);
        assert_eq!(round_trip(&line), BdiEncoding::B8D1);
    }

    #[test]
    fn mixed_pointers_and_zeros_use_zero_base() {
        // The "immediate" part: half the blocks are null pointers.
        let base = 0x7fff_aabb_0000_0000u64;
        let words: Vec<u64> = (0..16)
            .map(|i| if i % 2 == 0 { 0 } else { base + i })
            .collect();
        let line = CacheLine::from_u64_words(&words);
        let enc = round_trip(&line);
        assert_ne!(enc, BdiEncoding::Uncompressed);
    }

    #[test]
    fn random_line_is_uncompressed() {
        // High-entropy bytes defeat every delta encoding.
        let mut bytes = [0u8; CacheLine::SIZE_BYTES];
        let mut state = 0x9e3779b97f4a7c15u64;
        for b in bytes.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        let line = CacheLine::from_bytes(bytes);
        assert_eq!(round_trip(&line), BdiEncoding::Uncompressed);
    }

    #[test]
    fn negative_deltas_fit() {
        let base = 0x1000u64;
        let words: Vec<u64> = (0..16)
            .map(|i| if i % 2 == 0 { base } else { base - 100 })
            .collect();
        let line = CacheLine::from_u64_words(&words);
        let enc = round_trip(&line);
        assert_ne!(enc, BdiEncoding::Uncompressed);
    }

    #[test]
    fn encoding_sizes_match_formula() {
        assert_eq!(BdiEncoding::B8D1.compressed_bytes(), 8 + 16 + 2);
        assert_eq!(BdiEncoding::B8D2.compressed_bytes(), 8 + 32 + 2);
        assert_eq!(BdiEncoding::B8D4.compressed_bytes(), 8 + 64 + 2);
        assert_eq!(BdiEncoding::B4D1.compressed_bytes(), 4 + 32 + 4);
        assert_eq!(BdiEncoding::B4D2.compressed_bytes(), 4 + 64 + 4);
        assert_eq!(BdiEncoding::B2D1.compressed_bytes(), 2 + 64 + 8);
        assert_eq!(BdiEncoding::Rep8.compressed_bytes(), 8);
    }

    #[test]
    fn compressor_trait_reports_table_i_numbers() {
        let bdi = Bdi::new();
        assert_eq!(bdi.decompression_latency(), 2);
        assert_eq!(bdi.compression_latency(), 2);
        assert!((bdi.compression_energy_nj() - 0.192).abs() < 1e-12);
        assert!((bdi.decompression_energy_nj() - 0.056).abs() < 1e-12);
        assert_eq!(bdi.name(), "BDI");
    }

    #[test]
    fn compress_picks_minimum_size() {
        // A line compressible as both B8D4 and B4D2 must report the smaller.
        let words: Vec<u32> = (0..32).map(|i| 0x0100_0000 + i * 3).collect();
        let line = CacheLine::from_u32_words(&words);
        let c = Bdi::new().encode(&line);
        for &enc in &BdiEncoding::CANDIDATES {
            if fit(&line, enc, None).is_some() {
                assert!(c.size_bytes() <= enc.compressed_bytes());
            }
        }
    }

    #[test]
    fn candidates_are_cheapest_first() {
        let sizes = BdiEncoding::CANDIDATES.map(BdiEncoding::compressed_bytes);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
    }
}
