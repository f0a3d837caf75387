//! Shared stable-hash primitives.
//!
//! Three kernels live here, each with one job:
//!
//! * **FNV-1a 64** — the byte fold behind `dmcp-ir`'s structural
//!   fingerprints, and through them every `PlanKey` and golden digest;
//! * **[`checksum64`]** — the checksum on `dmcp-serve`'s wire frames and
//!   disk records: four independent multiply lanes over 8-byte words, so
//!   a 900 KB plan is verified in tens of microseconds rather than the
//!   milliseconds FNV-1a's byte-serial chain takes;
//! * **splitmix64** — the avalanche finalizer behind `dmcp-mach`'s RNG and
//!   fingerprint accumulator and `dmcp-pool`'s per-task seed streams.
//!
//! The crate sits at the very bottom of the dependency graph (no
//! dependencies, no consumers it couldn't have), and every former private
//! copy of a kernel re-exports from here, so the outputs are bit-identical
//! to the historical ones — the golden plan digests and `PlanKey` digests
//! in `dmcp-check::golden` pin FNV-1a and splitmix64, and this crate's
//! tests pin [`checksum64`].

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 golden-gamma increment.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The five odd 64-bit primes of xxh64, which [`checksum64`] borrows.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// A streaming FNV-1a 64 fold.
///
/// # Examples
///
/// ```
/// use dmcp_hash::{fnv1a64, Fnv64};
///
/// let mut h = Fnv64::new();
/// h.write(b"abc");
/// assert_eq!(h.finish(), fnv1a64(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh fold at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 over a byte slice. Not cryptographic; a stable,
/// platform-independent fold for fingerprints.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One lane round: folds `word` into `acc`. For a fixed word it is a
/// bijection of `acc` (add, rotate, multiply by an odd constant), and for a
/// fixed `acc` a bijection of `word`.
#[inline]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Folds one word into the single post-stripe state; a bijection of `h`
/// for a fixed word and of the word for a fixed `h`.
#[inline]
fn fold_word(h: u64, word: u64) -> u64 {
    (h ^ round(0, word)).rotate_left(27).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// The checksum of `dmcp-serve`'s wire frames and disk records: an
/// xxh64-style fold over 8-byte little-endian words. Not cryptographic,
/// and not xxh64 itself (the tail and the lane merge differ); its outputs
/// are pinned by this crate's tests.
///
/// Whole 32-byte stripes feed four independent lanes, one word each, so
/// the four multiply chains overlap in the CPU; the lanes are then merged,
/// the length is added, the remaining words (the last one zero-padded)
/// are folded in one at a time, and a final avalanche mixes the result.
/// Every step is a bijection of the state it updates for a fixed word, and
/// of the word for a fixed state, and the lane merge is a bijection of each
/// lane while the others stay fixed. So two inputs of the same length that
/// differ only inside one 8-byte word — any single flipped bit among them —
/// always have different checksums. The length is folded in, so a payload
/// and the same payload with a trailing zero byte differ too.
///
/// # Examples
///
/// ```
/// use dmcp_hash::checksum64;
///
/// let mut frame = b"plan bytes".to_vec();
/// let sum = checksum64(&frame);
/// frame[3] ^= 0x10;
/// assert_ne!(checksum64(&frame), sum);
/// ```
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, le_word(word));
            }
        }
        lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = fold_word(h, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold_word(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The splitmix64 finalizer: a stateless avalanche mix of one `u64`
/// (adds [`GOLDEN_GAMMA`], then avalanches).
///
/// Used directly (without an RNG object) wherever a pure function of a
/// key must look random and be independent of call order: fault-model
/// drop schedules, fingerprint accumulators, per-task seed derivation.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"hello ");
        h.write(b"world");
        assert_eq!(h.finish(), fnv1a64(b"hello world"));
    }

    /// A deterministic byte pattern with no zero runs to hide behind.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (mix(i as u64) >> 56) as u8).collect()
    }

    #[test]
    fn checksum_outputs_are_pinned() {
        // Taken once from this implementation; any drift is a format break
        // for frames and disk records already written.
        assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(&pattern(1)), 0x83FF_BEB1_C08F_F64A);
        assert_eq!(checksum64(&pattern(31)), 0x6269_BC3E_991D_256C);
        assert_eq!(checksum64(&pattern(32)), 0x8362_F09D_C4E2_BCB4);
        assert_eq!(checksum64(&pattern(33)), 0x8AEB_C6CF_3CDC_0325);
        assert_eq!(checksum64(&pattern(1 << 20)), 0xCBCD_3AD7_5E59_881A);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        for len in 0..=300 {
            let mut bytes = pattern(len);
            let sum = checksum64(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&bytes), sum, "len {len}: flip of bit {bit} undetected");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn checksum_detects_a_trailing_zero_byte() {
        for len in 0..=300 {
            let mut bytes = pattern(len);
            let sum = checksum64(&bytes);
            bytes.push(0);
            assert_ne!(checksum64(&bytes), sum, "len {len}: appended zero undetected");
            if len > 0 {
                let mut dropped = pattern(len);
                dropped[len - 1] = 0;
                let zero_ended = checksum64(&dropped);
                dropped.pop();
                assert_ne!(checksum64(&dropped), zero_ended, "len {len}: dropped zero undetected");
            }
        }
    }

    #[test]
    fn mix_avalanches_and_is_pure() {
        assert_ne!(mix(0), mix(1));
        assert_eq!(mix(12345), mix(12345));
        // Pin the historical output so any constant drift is loud.
        assert_eq!(mix(0), 0xE220_A839_7B1D_CDAF);
    }
}
