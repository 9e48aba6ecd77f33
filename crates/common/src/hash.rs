//! The one hasher of every hash table keyed by integers: the delta store's
//! persistent maps and the query sinks' group tables, distinct sets and
//! `COUNT(DISTINCT)` code sets.
//!
//! Integers — offsets, primary keys, endpoint pairs, dictionary codes,
//! float bits — go through a multiply-rotate and murmur3's finalizer:
//! cheap, and for a single integer a bijection, so distinct integer keys
//! never share a full 64-bit hash. Byte strings go through std's randomly
//! keyed SipHash first.
//!
//! A full hash that never repeats is all the delta store's trie needs: it
//! reads every bit of the hash, so it uses the unseeded
//! [`IntHasher::default`] and hashes alike in every process. A
//! [`HashMap`] picks its bucket from the low bits only, and the unseeded
//! mix can be inverted: whoever writes property values could choose keys
//! whose hashes share their low bits and make every insert probe a
//! growing run. So [`IntMap`] and [`IntSet`] start each hash from a random
//! per-process seed ([`IntState`]), which such keys cannot be built
//! against.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// See the module docs.
#[derive(Default, Clone, Copy)]
pub struct IntHasher(u64);

/// The [`BuildHasher`] of [`IntMap`] and [`IntSet`]: an [`IntHasher`]
/// started from a seed drawn once per process.
#[derive(Clone, Copy)]
pub struct IntState(u64);

impl Default for IntState {
    fn default() -> IntState {
        static SEED: OnceLock<u64> = OnceLock::new();
        IntState(*SEED.get_or_init(|| RandomState::new().build_hasher().finish()))
    }
}

impl BuildHasher for IntState {
    type Hasher = IntHasher;

    #[inline]
    fn build_hasher(&self) -> IntHasher {
        IntHasher(self.0)
    }
}

/// A [`HashMap`] hashed by a seeded [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntState>;
/// A [`HashSet`] hashed by a seeded [`IntHasher`].
pub type IntSet<K> = HashSet<K, IntState>;

impl IntHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        self.mix(KEYS.get_or_init(RandomState::new).hash_one(bytes));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // murmur3's finalizer: every input bit reaches every output bit,
        // so the low bits a table indexes by are spread even for dense
        // offsets and codes.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = IntHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinct_integers_never_share_a_hash() {
        let hashes: HashSet<u64> = (0u64..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
        // The same integer hashes alike through every width it arrives in.
        assert_eq!(hash_of(&7u64), hash_of(&7usize));
        assert_eq!(hash_of(&-3i64), hash_of(&(-3i64 as u64)));
    }

    /// The key whose unseeded hash is `h`: the finalizer's steps and the
    /// mix's multiply undone.
    fn key_of_hash(mut h: u64) -> u64 {
        fn inverse(a: u64) -> u64 {
            // Newton's iteration: each step doubles the correct low bits.
            (0..6).fold(a, |x, _| x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x))))
        }
        h ^= h >> 33;
        h = h.wrapping_mul(inverse(0xc4ce_b9fe_1a85_ec53));
        h ^= h >> 33;
        h = h.wrapping_mul(inverse(0xff51_afd7_ed55_8ccd));
        h ^= h >> 33;
        h.wrapping_mul(inverse(0x517c_c1b7_2722_0a95))
    }

    #[test]
    fn keys_built_to_share_low_bits_spread_once_seeded() {
        let keys: Vec<u64> = (1..=1024u64).map(|i| key_of_hash(i << 12)).collect();
        // Unseeded, all 1 024 keys fall in one bucket of a 4 096-bucket table.
        assert!(keys.iter().all(|k| hash_of(k) & 0xfff == 0));
        let seeded = IntState::default();
        let buckets: HashSet<u64> = keys.iter().map(|k| seeded.hash_one(k) & 0xfff).collect();
        // Uniform hashes would fill ≈ 906 buckets.
        assert!(buckets.len() > 700, "{} buckets", buckets.len());
        let set: IntSet<u64> = keys.iter().copied().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn raw_rows_and_strings_hash_by_content() {
        let a: Vec<Option<u64>> = vec![Some(1), None, Some(0)];
        let b: Box<[Option<u64>]> = a.clone().into_boxed_slice();
        assert_eq!(hash_of(&a), hash_of(&b[..]));
        assert_ne!(hash_of(&a), hash_of(&[Some(1), Some(0), None][..]));
        assert_eq!(hash_of("Firefox"), hash_of(&String::from("Firefox")));
        let set: IntSet<&str> = ["a", "b", "a"].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
