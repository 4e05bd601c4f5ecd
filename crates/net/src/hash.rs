//! A fast, unkeyed hasher for keys the program makes itself.
//!
//! std's `HashMap` hashes with SipHash under random keys, which resists
//! collision floods from hostile input at several times the cost of a
//! multiply per word. Names, addresses, ports and table tuples the
//! simulation builds are not hostile, so its own maps hash them with
//! [`FxHasher`], the multiply-and-rotate hash rustc uses for its
//! interners. Maps filled or probed with bytes from outside the program
//! (an upload's header and frames, anything the analyzer or `v6brickd`
//! reads off a wire, the analyzer's MAC index among them) keep std's
//! keyed hasher: Fx is public, so a client could choose colliding keys.
//!
//! The hasher has no keys, so a map iterates in the same order in every
//! process; no output of this workspace depends on that order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's FxHash multiplier: odd, with well-spread bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-and-rotate hasher over 64-bit words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*word)));
            bytes = rest;
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply carries each word's entropy toward the high bits,
    /// while a table picks its bucket from the low ones: rotate them
    /// down.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_unkeyed() {
        assert_eq!(hash("nest.example"), hash(&String::from("nest.example")));
        assert_ne!(hash("nest.example"), hash("nest.exampl"));
        assert_ne!(hash(&(1u16, 2u8)), hash(&(2u16, 1u8)));
    }

    #[test]
    fn name_keys_are_found_by_text_and_iterate_alike() {
        use crate::dns::Name;
        let names = ["cloud.example", "ntp.example", "a.b.c.example", "x.example"];
        let fill = || {
            let mut map = FxHashMap::default();
            for (i, n) in names.iter().enumerate() {
                map.insert(Name::new(n).unwrap(), i);
            }
            map
        };
        let (a, b) = (fill(), fill());
        for (i, n) in names.iter().enumerate() {
            assert_eq!(a.get(*n), Some(&i), "{n} by &str");
        }
        assert_eq!(a.get("missing.example"), None);
        assert!(a.iter().eq(b.iter()), "no per-map keys");
        let set: FxHashSet<Name> = a.into_keys().collect();
        assert!(set.contains("ntp.example"));
    }

    #[test]
    fn keys_differing_in_high_bits_spread_over_the_low_bits() {
        // A table picks buckets by the low bits, which a product takes
        // from the low bits of its key alone: without the rotation in
        // `finish`, these 64 keys would share one bucket of 64.
        let buckets: HashSet<u64> = (0..64u64).map(|i| hash(&(i << 32)) & 63).collect();
        assert!(buckets.len() > 48, "{} of 64 buckets", buckets.len());
    }
}
