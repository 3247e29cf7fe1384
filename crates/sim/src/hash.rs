//! The one hasher the simulator's integer-keyed maps use: fixed-seed,
//! folded-multiply, std-only.
//!
//! std's default `RandomState` seeds SipHash per map. That buys resistance
//! to keys crafted to collide, which nothing here needs — every key these
//! maps see is minted by the simulator itself (flow slots, content-derived
//! event keys, interned link sequences), never read from outside input —
//! and it costs twice: SipHash on every lookup of the per-packet and
//! per-timer paths, and allocation counts that differ between identical
//! runs (where a removal leaves a tombstone depends on the hash, and with
//! it when the table must grow). With one fixed seed the table layout, and
//! so every allocation, is a pure function of the key sequence.
//!
//! Each 8-byte word is folded in as `h = fold(h ^ word)`, where `fold(x)`
//! is the XOR of the high and low halves of the 128-bit product `x · K`.
//! Both halves matter: hashbrown takes the bucket index from the hash's low
//! bits, and the low half of a product depends only on the key's low bits.
//! Content-derived event keys keep the owning flow in bits 39–60 above a
//! small arm counter, so with the low half alone (or a fixed rotate of it)
//! flows that differ only in their high id bits would share buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of each fold (the constant of rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;
/// Fixed initial state (the fractional digits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The fixed-seed folded-multiply hasher (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedHasher {
    hash: u64,
}

impl Default for FixedHasher {
    fn default() -> Self {
        Self { hash: SEED }
    }
}

impl FixedHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(K);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields 8-byte words"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` under the fixed-seed hasher; build with `default()`.
pub(crate) type FixedHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;
/// `HashSet` under the fixed-seed hasher; build with `default()`.
pub(crate) type FixedHashSet<T> = HashSet<T, BuildHasherDefault<FixedHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildHasherDefault::<FixedHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_builders() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
        assert_eq!(
            hash_of([1usize, 2, 3].as_slice()),
            hash_of(vec![1usize, 2, 3])
        );
        assert_ne!(
            hash_of([1usize, 2, 3].as_slice()),
            hash_of([1usize, 2].as_slice())
        );
    }

    /// Flow-timer keys `(4 << 61) | (flow << 39) | arm` differ only above
    /// bit 39 across flows; the folded high half must still spread them
    /// over the low-bit bucket index (uniform hashing fills ≈ 63 %).
    #[test]
    fn high_bit_keys_spread_over_low_bits() {
        let buckets: FixedHashSet<u64> = (0..1024u64)
            .map(|flow| hash_of((4u64 << 61) | (flow << 39)) & 1023)
            .collect();
        assert!(
            buckets.len() > 600,
            "1024 flow-timer keys hit only {} of 1024 buckets",
            buckets.len()
        );
    }
}
