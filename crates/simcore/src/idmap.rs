//! Hash maps keyed by ids the program mints itself.
//!
//! The standard `HashMap` hashes with SipHash under a per-process random
//! seed. That protects a map whose keys an adversary chooses: without
//! the seed nobody can aim many keys at one bucket. It costs a SipHash
//! round per lookup, and a request on the serving path does several.
//!
//! [`IdMap`] and [`IdSet`] use [`IdHasher`] instead: one folded
//! 64×64→128-bit multiply, no seed. The rule for choosing:
//!
//! * **`IdMap`/`IdSet`** for keys the program mints — BoT ids handed
//!   out by `registerQoS`, assignment and worker ids a server numbers.
//!   A request can only *name* such a key after the service has checked
//!   it exists, so no peer can insert keys of its choosing.
//! * **SipHash (`HashMap`) or a `BTreeMap`** for keys a client chooses —
//!   user ids, environment labels. Those may be picked to collide.
//!
//! Neither kind may be iterated where the visit order reaches an output:
//! `IdMap` order is deterministic, but it is still an accident of the
//! hash, not a sort (`spq-lint`'s `det-unordered-iter` tracks both).
//!
//! **The fold is not optional.** hashbrown picks a bucket from the low
//! bits of the hash. A bare `key × K` (odd `K`) maps ids `i, i+n, i+2n,
//! …` — a shard's BoT ids under a stride of `n` — to hashes whose low
//! `log2 n` bits never change, so only `1/n` of the buckets are used.
//! XOR-ing the high half of the 128-bit product into the low half feeds
//! every key bit into the bucket index.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from a program-minted `u64` id, hashed by [`IdHasher`].
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-minted `u64` ids, hashed by [`IdHasher`].
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// The multiplier: 2^64 / φ, odd, so `key × K` is a bijection on `u64`.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Unseeded hasher for minted ids: a folded multiply per `u64` written.
/// See the [module docs](self) for when it is safe.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write_u64(&mut self, key: u64) {
        let m = u128::from(self.state ^ key) * u128::from(K);
        self.state = m as u64 ^ (m >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (dst, src) in word.iter_mut().zip(chunk) {
                *dst = *src;
            }
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn id_hash(key: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The multiply without the fold: what the module docs warn about.
    fn bare_multiply(key: u64) -> u64 {
        key.wrapping_mul(K)
    }

    /// The first `(stride, k)` at which `hash` leaves buckets idle: 2^16
    /// ids `0, s, 2s, …` are dropped into 2^k buckets by the low `k` bits,
    /// as hashbrown does, and the mean load of the buckets in use must
    /// stay within twice the mean load of all of them. A uniform hash
    /// keeps it under 1.6 (at one id per bucket, 1 − 1/e of the buckets
    /// are hit); a hash whose low bits are stuck uses a fraction of the
    /// buckets and multiplies the load of each by its inverse.
    fn first_idle(hash: fn(u64) -> u64) -> Option<(u64, u32)> {
        const IDS: usize = 1 << 16;
        for stride in [1u64, 2, 4, 8, 64] {
            for k in 10..=16 {
                let buckets = 1usize << k;
                let mut load = vec![0u32; buckets];
                for i in 0..IDS as u64 {
                    if let Some(slot) = load.get_mut(hash(i * stride) as usize & (buckets - 1)) {
                        *slot += 1;
                    }
                }
                let used = load.iter().filter(|&&n| n > 0).count();
                let mean = IDS as f64 / buckets as f64;
                let mean_used = IDS as f64 / used as f64;
                if mean_used > 2.0 * mean {
                    return Some((stride, k));
                }
            }
        }
        None
    }

    #[test]
    fn folded_multiply_spreads_strided_ids() {
        assert_eq!(first_idle(id_hash), None);
    }

    #[test]
    fn a_bare_multiply_strands_buckets_at_stride_four() {
        // Stride 2 idles exactly half the buckets, which the bound still
        // allows; stride 4 idles three quarters of them.
        assert_eq!(first_idle(bare_multiply), Some((4, 10)));
        let quarter = (0..1u64 << 16)
            .map(|i| bare_multiply(i * 4) & 1023)
            .collect::<IdSet>()
            .len();
        assert_eq!(quarter, 256, "stride 4 uses a quarter of 1 024 buckets");
    }

    #[test]
    fn maps_behave_as_maps() {
        let mut map: IdMap<&str> = IdMap::default();
        for id in (3..3000).step_by(4) {
            map.insert(id, "bot");
        }
        assert_eq!(map.len(), 750);
        assert!(map.contains_key(&2999) && !map.contains_key(&3000));
        assert_eq!(map.remove(&7), Some("bot"));
        let set: IdSet = [1, 2, 2, 3].into_iter().collect();
        assert_eq!(set.len(), 3);
        // Unseeded: the same key hashes the same in every process.
        assert_eq!(id_hash(7), id_hash(7));
        assert_ne!(id_hash(7), id_hash(8));
    }
}
