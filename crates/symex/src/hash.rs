//! A fast keyed hasher for the analysis hot paths.
//!
//! Expression interning, the symbolic state maps and the alias fixpoint
//! hash small integer keys (`ExprId`s, addresses, `SymNode`s) millions
//! of times per scan. std's SipHash is built for long untrusted byte
//! strings and costs several rounds per word; this hasher folds each
//! word into a 64-bit accumulator with one widening multiply.
//!
//! **Keying.** Hashed keys are derived from untrusted firmware, so the
//! hasher is keyed: one seed per process, drawn from std's `RandomState`
//! on first use and then held in every map's [`FastState`] (copied at
//! map creation, never re-read per hash). Collisions then depend on a
//! seed the input cannot see, so firmware cannot be built to collide in
//! advance the way it could against an unkeyed hash (the hasher is not
//! a cryptographic PRF like SipHash). Iteration order is per-process,
//! as with `RandomState`, so nothing that must repeat may depend on it.
//!
//! **Mixing.** `folded_multiply(x, k)` XORs the high and low halves of
//! the 128-bit product `x * k`; one such fold per word, plus one in
//! `finish`, carries every input bit to the low output bits (which pick
//! the bucket) as well as the high ones (which hashbrown keeps as a
//! tag). Keys differing only in high bits — the Fx-hash weakness — still
//! spread over buckets.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` keyed by [`FastState`].
pub type FastSet<T> = HashSet<T, FastState>;

/// Odd multiplier with well-spread bits (the PCG-64 LCG constant).
const MUL: u64 = 0x5851_f42d_4c95_7f2d;

#[inline(always)]
fn folded_multiply(x: u64, k: u64) -> u64 {
    let full = u128::from(x) * u128::from(k);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process-wide seed, drawn once from std's randomly keyed hasher.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(MUL);
        // Odd, so the seed never zeroes a product.
        h.finish() | 1
    })
}

/// The [`BuildHasher`] of [`FastMap`]/[`FastSet`]: carries the process
/// seed so building a hasher reads no global state.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        FastState { seed: process_seed() }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { acc: self.seed }
    }
}

/// Folded-multiply hasher; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    acc: u64,
}

impl FastHasher {
    #[inline(always)]
    fn mix(&mut self, word: u64) {
        self.acc = folded_multiply(self.acc ^ word, MUL);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        // The length keeps `"ab"` and `"ab\0"` apart.
        self.mix(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    /// One more fold, so the last word's high bits also reach the low
    /// output bits: without it, keys that differ only above bit 20
    /// (`SymNode::Const(k << 20)`) land on about a sixth of the buckets.
    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, MUL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ExprId, SymNode};
    use std::hash::Hash;

    fn hash_of<T: Hash>(s: &FastState, v: &T) -> u64 {
        s.hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equally_within_a_process() {
        let (a, b) = (FastState::default(), FastState::default());
        for node in [
            SymNode::Const(-4),
            SymNode::Arg(3),
            SymNode::Add(ExprId(7), ExprId(9)),
            SymNode::Deref { addr: ExprId(12), width: 4 },
        ] {
            assert_eq!(hash_of(&a, &node), hash_of(&b, &node));
        }
        assert_eq!(hash_of(&a, &"strcpy"), hash_of(&b, &String::from("strcpy")));
        assert_eq!(hash_of(&a, &vec![ExprId(1), ExprId(2)]), hash_of(&b, &[ExprId(1), ExprId(2)]));
    }

    #[test]
    fn distinct_small_keys_differ() {
        let s = FastState::default();
        assert_ne!(
            hash_of(&s, &SymNode::Add(ExprId(1), ExprId(2))),
            hash_of(&s, &SymNode::Add(ExprId(2), ExprId(1)))
        );
        assert_ne!(hash_of(&s, &"ab"), hash_of(&s, &"ab\0"));
        assert_ne!(hash_of(&s, &(1u32, 0u32)), hash_of(&s, &(0u32, 1u32)));
    }

    #[test]
    fn keys_sharing_low_bits_spread_over_low_hash_bits() {
        // Constants that differ only above bit 20 — addresses and
        // shifted immediates look like this. A hasher that only
        // multiplies (Fx-style) maps them all onto a few buckets.
        let s = FastState::default();
        let low12: FastSet<u64> =
            (0..4096i64).map(|k| hash_of(&s, &SymNode::Const(k << 20)) & 0xfff).collect();
        assert!(low12.len() >= 1000, "only {} distinct low-12-bit values", low12.len());
    }

    #[test]
    fn maps_intern_like_std_maps() {
        let mut fast: FastMap<SymNode, u32> = FastMap::default();
        let mut std_map: HashMap<SymNode, u32> = HashMap::new();
        for i in 0..2000u32 {
            let node = if i % 2 == 0 {
                SymNode::Const(i64::from(i) << 24)
            } else {
                SymNode::Add(ExprId(i), ExprId(i / 3))
            };
            let n = fast.len() as u32;
            assert_eq!(*fast.entry(node).or_insert(n), *std_map.entry(node).or_insert(n));
        }
        assert_eq!(fast.len(), std_map.len());
        for (k, v) in &std_map {
            assert_eq!(fast.get(k), Some(v));
        }
    }
}
