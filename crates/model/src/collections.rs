//! Hot-path hashed collections.
//!
//! The simulator's per-access tables are keyed by small integers: a
//! [`LineAddr`] for busy home lines, the DRAM backing store and each
//! core's miss-class history, a page number for the R-NUCA page table and
//! the coherence monitor's shadow-page index.
//! `std`'s default SipHash is a DoS-hardened cryptographic hash; paying it
//! per simulated memory access is pure overhead because the keys are not
//! attacker-controlled. This module provides an FxHash-style multiplicative
//! hasher (the `rustc-hash` construction: rotate, xor, multiply by a
//! golden-ratio-derived odd constant) with no external dependencies, plus
//! the [`FxHashMap`] and [`LineMap`]/[`LineSet`] aliases those tables use.
//! Only tables off the per-access path (barrier and lock state, the model
//! checker's bookkeeping) keep `std`'s hasher.
//!
//! The hasher is deterministic across processes (no random seeding), which
//! the repository's replay-equivalence tests rely on; nothing in the
//! simulator may depend on map iteration order regardless.
//!
//! # Examples
//!
//! ```
//! use lacc_model::collections::LineMap;
//! use lacc_model::LineAddr;
//!
//! let mut m: LineMap<u32> = LineMap::default();
//! m.insert(LineAddr::new(0x41), 7);
//! assert_eq!(m.get(&LineAddr::new(0x41)), Some(&7));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::LineAddr;

/// Multiplier from the 64-bit golden ratio (`2^64 / φ`), forced odd — the
/// same constant family rustc's FxHash uses. Multiplication by an odd
/// constant is a bijection on `u64`, so no information is lost; the
/// rotate-xor step mixes consecutive writes.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast, deterministic, non-cryptographic hasher for small integer keys.
///
/// One rotate + xor + multiply per 8 bytes of input. Do **not** use it for
/// attacker-controlled keys; simulated physical addresses are not.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
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

    #[inline]
    fn finish(&self) -> u64 {
        // Returned raw: multiplication by the odd constant is a bijection,
        // so the low bits hashbrown uses for bucket selection stay distinct
        // for sequential keys, and the well-mixed high bits feed its
        // control-byte tags.
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// The workspace's line-addressed table: `LineAddr -> V` with fx hashing.
pub type LineMap<V> = FxHashMap<LineAddr, V>;

/// A set of line addresses with fx hashing.
pub type LineSet = FxHashSet<LineAddr>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(v: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(0x1234), hash_of(0x1234));
        assert_eq!(
            FxBuildHasher::default().hash_one(LineAddr::new(99)),
            FxBuildHasher::default().hash_one(LineAddr::new(99)),
        );
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        // Sequential line addresses (the common workload pattern) must
        // spread over the low bits HashMap actually uses.
        let mut low7 = std::collections::BTreeSet::new();
        for i in 0..128u64 {
            low7.insert(hash_of(i) & 0x7f);
        }
        assert!(low7.len() > 96, "only {} distinct low-7-bit values", low7.len());
    }

    #[test]
    fn byte_writes_match_padded_word_writes() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn line_map_round_trips() {
        let mut m: LineMap<u64> = LineMap::default();
        for i in 0..10_000u64 {
            m.insert(LineAddr::new(i * 64 + 1), i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&LineAddr::new(i * 64 + 1)), Some(&i));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn line_set_membership() {
        let mut s = LineSet::default();
        assert!(s.insert(LineAddr::new(5)));
        assert!(!s.insert(LineAddr::new(5)));
        assert!(s.contains(&LineAddr::new(5)));
        assert!(!s.contains(&LineAddr::new(6)));
    }
}
