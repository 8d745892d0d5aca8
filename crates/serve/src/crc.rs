//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! Every wire frame carries a CRC over its payload and every image frame
//! inside a submission carries its own CRC, so a corrupted transfer is
//! detected at the protocol layer before any pixel reaches the engine —
//! the serving-path analogue of the FITS checksum cards in `preflight-fits`.
//!
//! A served request crosses this module eight times: the frame CRCs and
//! the payload CRC are each computed once over the pixel bytes on the
//! client's encode, the daemon's ingest, the daemon's reply encode and the
//! client's decode. At 512 KiB of pixels per 128×128×16 request that is
//! 4 MiB of checksumming per round trip, so the CRC's speed is a serving
//! cost of the same order as the voter kernel. Two implementations compute
//! bit-identical values, and one runtime-dispatched `update` picks between
//! them:
//!
//! - **Carry-less multiply** (`x86_64` with `pclmulqdq`): folds 64 bytes
//!   per iteration into four 128-bit accumulators, then reduces them to 32
//!   bits with a Barrett step — the method of Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009),
//!   as used by Linux `crc32-pclmul` and zlib. It runs on every input of
//!   at least 64 bytes, over the largest multiple-of-16 prefix.
//! - **Slicing-by-8 tables**: eight compile-time lookup tables fold eight
//!   bytes per table walk. This is the portable fallback, the path for
//!   inputs shorter than 64 bytes and for the tail under 16 bytes after
//!   folding, and the oracle the fast path is tested against.
//!
//! [`backend`] reports which one runs. Detection happens once per process
//! and honours `PREFLIGHT_FORCE_PORTABLE`, like the voter kernel's
//! [`dispatch_tier`](preflight_core::bitslice::dispatch_tier).
//!
//! [`Crc32`] is the streaming variant for the event loop's chunked ingest
//! path, where payload bytes arrive straight off the socket and are never
//! re-assembled into one contiguous buffer; it goes through the same
//! `update`.
//!
//! # Unsafe
//!
//! The crate denies `unsafe` (see CONTRIBUTING.md); this module is a
//! documented exception alongside [`crate::signal`], [`crate::poll`] and
//! `bytes`. The fold is a `#[target_feature(enable = "pclmulqdq")]`
//! function written in safe code (its 16-byte loads go through
//! `u128::from_le_bytes`, which compiles to an unaligned `movdqu`), so the
//! audit surface is the single `unsafe` call to it in `update`. That call
//! runs only after runtime CPUID detection confirmed the feature, as its
//! `SAFETY` comment states.

use std::sync::OnceLock;

/// Eight byte-indexed lookup tables, built at compile time. `TABLES[0]` is
/// the classic CRC-32 table; `TABLES[k]` advances a byte `k` positions
/// deeper into the message.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds `data` into a raw (pre-inverted) CRC state with the
/// slicing-by-8 tables.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Folds `data` into a raw (pre-inverted) CRC state on the fastest path
/// this process may use.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && clmul_enabled() {
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: `clmul_enabled` is true only after runtime detection
        // confirmed this CPU supports `pclmulqdq`, the one feature `fold`
        // enables.
        #[allow(unsafe_code)]
        let crc = unsafe { clmul::fold(crc, blocks) };
        return update_table(crc, tail);
    }
    update_table(crc, data)
}

/// Whether [`update`] may take the carry-less-multiply path: detected once
/// per process, `false` under `PREFLIGHT_FORCE_PORTABLE`.
fn clmul_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if !preflight_core::bitslice::portable_forced()
            && std::arch::is_x86_feature_detected!("pclmulqdq")
        {
            return true;
        }
        false
    })
}

/// The CRC implementation this process uses for inputs of 64 bytes or
/// more: `"pclmulqdq"` (carry-less multiply folding) or `"table"`
/// (slicing-by-8, the portable fallback). Shorter inputs always take the
/// table walk. Recorded in bench artifacts next to the voter kernel's
/// dispatch tier.
pub fn backend() -> &'static str {
    if clmul_enabled() {
        "pclmulqdq"
    } else {
        "table"
    }
}

/// Carry-less-multiply folding (Gopal et al., Intel 2009), specialised to
/// the reflected CRC-32 polynomial. The constants are `x^n mod P(x)` for
/// the fold distances, bit-reflected and shifted left by one, exactly as
/// published with the paper and used by zlib's `crc32_simd.c`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold distance 4×128 bits: `x^(4·128+32)`, `x^(4·128−32)` mod P.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold distance 128 bits: `x^(128+32)`, `x^(128−32)` mod P.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 64 → 32-bit reduction: `x^64` mod P.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the polynomial P′ and μ = ⌊x^64 / P⌋.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Loads one 16-byte block as a 128-bit lane, first byte lowest. Safe
    /// code: the compiler emits one unaligned `movdqu` for it.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Multiplies both halves of `acc` by the fold constants in `k` and
    /// adds `next`: moves `acc` forward by the distance `k` encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Folds `blocks` (at least four) into the raw CRC state `crc` and
    /// returns the new raw state — the same value as the table walk over
    /// the same bytes. Callers without `pclmulqdq` enabled at compile time
    /// must have confirmed it at run time before calling.
    ///
    /// # Panics
    ///
    /// If `blocks` holds fewer than four 16-byte blocks.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (groups, singles) = blocks.as_chunks::<4>();
        let (first, groups) = groups
            .split_first()
            .expect("the carry-less fold needs at least 64 bytes");

        // Four independent 128-bit accumulators hide the multiplier's
        // latency; the running state enters through the first one.
        let mut x1 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&first[1]);
        let mut x3 = load(&first[2]);
        let mut x4 = load(&first[3]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for g in groups {
            x1 = fold_into(x1, k1k2, load(&g[0]));
            x2 = fold_into(x2, k1k2, load(&g[1]));
            x3 = fold_into(x3, k1k2, load(&g[2]));
            x4 = fold_into(x4, k1k2, load(&g[3]));
        }

        // Collapse the four accumulators, then fold any remaining blocks
        // one at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x1, k3k4, x2);
        x = fold_into(x, k3k4, x3);
        x = fold_into(x, k3k4, x4);
        for b in singles {
            x = fold_into(x, k3k4, load(b));
        }

        // 128 → 64 bits, then 64 → 32 bits.
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction to the 32-bit remainder.
        let poly = _mm_set_epi64x(MU, P);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        x = _mm_xor_si128(x, t);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(x)) as u32
    }
}

/// CRC-32 of `data` (the common `crc32("123456789") == 0xCBF43926` variant).
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

/// A streaming CRC-32: feed bytes in any chunking, [`Crc32::finish`] yields
/// exactly what [`crc32`] returns over the concatenation.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher (equivalent to `crc32(b"")` when finished untouched).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds another chunk into the running CRC.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// The CRC of everything fed so far. Non-destructive: more updates may
    /// follow and a later `finish` covers them too.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer() {
        // The check value from the CRC catalogue (CRC-32/ISO-HDLC).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(&[0x00, 0x01, 0x02, 0x03]);
        let b = crc32(&[0x00, 0x01, 0x02, 0x07]);
        assert_ne!(a, b);
    }

    /// The one-table, byte-at-a-time form the protocol shipped with
    /// originally, over a raw state.
    fn reference(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect()
    }

    /// Whether this CPU can run the carry-less fold, whatever the
    /// environment asks the dispatcher to do.
    fn cpu_has_clmul() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("pclmulqdq");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn sliced_matches_bytewise_reference() {
        // Every path must agree with the reference at every length (across
        // the 8-byte table stride and the 16- and 64-byte fold edges),
        // every start alignment, and from the initial state as well as
        // arbitrary mid-stream states. The carry-less fold is compared
        // directly whenever the CPU has it, so it stays covered under
        // PREFLIGHT_FORCE_PORTABLE too.
        let data = noise(1100 + 16, 0x1234_5678_9ABC_DEF0);
        #[cfg(target_arch = "x86_64")]
        let clmul = cpu_has_clmul();
        for seed in [0xFFFF_FFFFu32, 0, 0xDEAD_BEEF] {
            for offset in 0..16 {
                for len in 0..=1100 {
                    let bytes = &data[offset..offset + len];
                    let want = reference(seed, bytes);
                    let ctx = format!("seed {seed:#x}, offset {offset}, length {len}");
                    assert_eq!(update_table(seed, bytes), want, "table: {ctx}");
                    assert_eq!(update(seed, bytes), want, "dispatched: {ctx}");
                    #[cfg(target_arch = "x86_64")]
                    if clmul && len >= 64 {
                        let (blocks, tail) = bytes.as_chunks::<16>();
                        // SAFETY: `cpu_has_clmul` confirmed at run time
                        // that this CPU supports `pclmulqdq`.
                        #[allow(unsafe_code)]
                        let folded = unsafe { clmul::fold(seed, blocks) };
                        assert_eq!(update_table(folded, tail), want, "pclmulqdq: {ctx}");
                    }
                }
            }
        }
        assert_eq!(crc32(&data), !reference(0xFFFF_FFFF, &data));
    }

    #[test]
    fn streaming_matches_oneshot_across_chunkings() {
        // Chunk sizes straddle the table stride and both fold edges, so
        // consecutive updates alternate between the fold and the table
        // walk; the oracle is the table walk over the whole buffer.
        for len in [1000, (1 << 20) + 77] {
            let data: Vec<u8> = (0..len as u32)
                .map(|i| (i.wrapping_mul(31) >> 2) as u8)
                .collect();
            let want = !update_table(0xFFFF_FFFF, &data);
            assert_eq!(crc32(&data), want, "one-shot, length {len}");
            for chunk in [1, 3, 7, 8, 13, 15, 16, 17, 63, 64, 65, 999, 1000, 4099] {
                let mut h = Crc32::new();
                for c in data.chunks(chunk) {
                    h.update(c);
                }
                assert_eq!(h.finish(), want, "length {len}, chunk size {chunk}");
            }
        }
        // finish() is non-destructive.
        let data = noise(1000, 7);
        let mut h = Crc32::new();
        h.update(&data[..500]);
        let _ = h.finish();
        h.update(&data[500..]);
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn backend_reports_the_path_that_runs() {
        let want = if cpu_has_clmul() && !preflight_core::bitslice::portable_forced() {
            "pclmulqdq"
        } else {
            "table"
        };
        assert_eq!(backend(), want);
    }
}
