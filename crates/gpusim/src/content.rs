//! The one content hash: "is this the same work?" for the launch memo
//! and the server's single-flight key.
//!
//! A [`ContentKey`] is 128 bits: two 64-bit word hashes with different
//! multipliers and seeds side by side, so two inputs share a key only if
//! both halves collide. Each half is FNV-1a's xor-multiply on whole
//! words plus a fold of the high half down — a multiply only carries
//! upwards, and without the fold swapping `1.0f64` with `-1.0f64`
//! cancels in bit 63. Every step is a bijection of the state, so a
//! one-word difference always changes both halves. Keys are unseeded
//! (equal work hashes equal in every thread) and never leave the
//! process, so nothing needs them stable across builds.

use std::hash::{Hash, Hasher};

/// Identity of a piece of work. Tables key on the full 128 bits;
/// [`ContentKey::low`] picks one of `SharedLaunchCache`'s mutex shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentKey(pub u128);

impl ContentKey {
    /// The low 64 bits (avalanched, so uniformly spread).
    pub fn low(self) -> u64 {
        self.0 as u64
    }
}

/// Per-half multipliers (odd): the FNV-1a/64 prime, the golden ratio.
const PRIMES: [u64; 2] = [0x100_0000_01b3, 0x9e37_79b9_7f4a_7c15];

/// Per-half seeds: FNV-1a/64's offset basis, SplitMix64's first output.
const SEEDS: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0xe220_a839_7b1d_cdaf];

/// Absorb one word per half.
#[inline]
fn step(state: &mut [u64; 2], w: [u64; 2]) {
    for ((x, w), prime) in state.iter_mut().zip(w).zip(PRIMES) {
        *x = (*x ^ w).wrapping_mul(prime);
        *x ^= *x >> 32;
    }
}

/// Incremental builder of a [`ContentKey`], starting from
/// `ContentHasher::default()`. Three feeds — `word`, `bytes`, `value` —
/// and `key` to finish.
#[derive(Debug, Clone)]
pub struct ContentHasher([u64; 2]);

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher(SEEDS)
    }
}

impl ContentHasher {
    /// Absorb one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        step(&mut self.0, [w, w]);
    }

    /// Absorb a length-prefixed byte field, so `("ab","c")` never
    /// collides with `("a","bc")`. Whole 32-byte blocks are dealt
    /// round-robin as `u64`s to four lanes (a multiply takes three
    /// cycles and one lane would wait on each); the lanes, then the
    /// last `len % 32` bytes as zero-padded words, are folded back in
    /// order.
    pub fn bytes(&mut self, data: &[u8]) {
        self.word(data.len() as u64);
        let word = |c: &[u8]| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        };
        let blocks = data.chunks_exact(32);
        let tail = blocks.remainder();
        let mut lanes = [0u64, 1, 2, 3].map(|lane| self.0.map(|x| x ^ lane));
        for block in blocks {
            for (lane, c) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let w = word(c);
                step(lane, [w, w]);
            }
        }
        lanes.into_iter().for_each(|lane| step(&mut self.0, lane));
        tail.chunks(8).for_each(|c| self.word(word(c)));
    }

    /// Absorb a value by its fields, through its [`Hash`] impl: every
    /// integer is one word, every `str`/`[u8]` a `bytes` field, every
    /// enum its discriminant then its payload.
    pub fn value(&mut self, v: &impl Hash) {
        v.hash(self);
    }

    /// Finish: avalanche each half (xorshift-multiply, so nearby inputs
    /// spread into the low bits shard choice reads) and join them.
    #[inline]
    pub fn key(&self) -> ContentKey {
        let [a, b] = self.0.map(avalanche);
        ContentKey((a as u128) << 64 | b as u128)
    }
}

/// One half's finish.
#[inline]
fn avalanche(x: u64) -> u64 {
    let x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 33)
}

/// What [`ContentHasher::value`] drives, and what a map keyed with
/// `BuildHasherDefault<ContentHasher>` hashes with. The integer widths
/// `derive(Hash)` emits go in as one word each; anything else falls back
/// to `write`.
impl Hasher for ContentHasher {
    fn write(&mut self, data: &[u8]) {
        self.bytes(data);
    }

    #[inline]
    fn write_u32(&mut self, w: u32) {
        self.word(w as u64);
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.word(w);
    }

    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.word(w as u64);
    }

    /// [`ContentKey::low`] of [`ContentHasher::key`], finishing only the
    /// half it reads.
    #[inline]
    fn finish(&self) -> u64 {
        avalanche(self.0[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ParamVal;
    use crate::vir::VReg;

    fn key_of(feed: impl FnOnce(&mut ContentHasher)) -> ContentKey {
        let mut h = ContentHasher::default();
        feed(&mut h);
        h.key()
    }

    fn halves(k: ContentKey) -> [u64; 2] {
        [(k.0 >> 64) as u64, k.low()]
    }

    #[test]
    fn fields_are_delimited() {
        let pair = |a: &str, b: &str| {
            key_of(|h| {
                h.bytes(a.as_bytes());
                h.bytes(b.as_bytes());
            })
        };
        assert_ne!(pair("ab", "c"), pair("a", "bc"));
        assert_ne!(pair("ab", "c"), key_of(|h| h.bytes(b"abc")), "two fields are not their concatenation");
        assert_ne!(key_of(|h| h.value(&("ab", "c"))), key_of(|h| h.value(&("a", "bc"))));

        let launch = |spilled: &[VReg], params: &[ParamVal]| key_of(|h| h.value(&(spilled, params)));
        assert_ne!(launch(&[VReg(1)], &[]), launch(&[], &[ParamVal::Ptr(1)]));
    }

    #[test]
    fn a_map_hash_is_the_low_half_of_the_key() {
        let mut h = ContentHasher::default();
        h.value(&("ab", 7u64, [1u32, 2]));
        assert_eq!(h.finish(), h.key().low());
    }

    /// Every single-byte flip and every adjacent-word swap of a field,
    /// at every length that exercises each lane and the tail, moves both
    /// halves of the key.
    #[test]
    fn both_halves_see_every_byte_and_the_order_of_words() {
        let ramp: Vec<u8> = (0..72u32).map(|i| (i * 37 + 11) as u8).collect();
        // Words that differ in bit 63 only: what plain word-FNV cancels.
        let signs: Vec<u8> =
            (0..9).flat_map(|i| (if i % 2 == 0 { 1.0f64 } else { -1.0 }).to_le_bytes()).collect();
        for data in [ramp, signs] {
            for len in 0..=data.len() {
                let field = &data[..len];
                let base = halves(key_of(|h| h.bytes(field)));
                let moved = |what: &str, at: usize, changed: &[u8]| {
                    let got = halves(key_of(|h| h.bytes(changed)));
                    assert!(got[0] != base[0] && got[1] != base[1], "len {len}: {what} at {at}");
                };
                for at in 0..len {
                    let mut flipped = field.to_vec();
                    flipped[at] ^= 0x80;
                    moved("flip", at, &flipped);
                }
                for at in (0..len.saturating_sub(15)).step_by(8) {
                    let mut swapped = field.to_vec();
                    swapped[at..at + 16].rotate_left(8);
                    moved("swap", at, &swapped);
                }
            }
        }
    }
}
