//! The workspace's one fast hasher, shared by the Z-sets of this crate
//! ([`crate::zset`]: change records, pushed batches, and the arranged
//! state and derivation counts of `revere_query::dataflow` circuits), by
//! every join index of the vectorized engine in `revere_query` (`i64` and
//! `Vec<Value>` keys, and the string map that translates one dictionary's
//! codes into another's), by the PDMS reformulation and plan caches
//! (query-text and canonical-key strings), and by the triple store's
//! per-predicate counts (dense subject ids; its maps keyed by
//! page-supplied names and values keep SipHash).
//!
//! The default SipHash is collision-hardened but costs more than a whole
//! probe or fold on `i64`, short string and short `Value` keys. This
//! multiply-fold hash has no per-process seed, so a map's iteration order
//! is a pure function of what was inserted and removed: even where a map
//! is iterated it cannot leak nondeterminism, and every iteration that
//! reaches output is sorted first (a Z-set's [`crate::ZSet::sorted`]).
//! Keys hash through their own `Hash` impls, so `Value` keys keep the
//! query language's equality (`Int(2)` and `Float(2.0)` hash alike
//! because they compare equal).
//!
//! The price is SipHash's resistance to crafted collisions: a source that
//! chose its rows to collide could slow the joins and circuits over them,
//! and a client that chose its queries to collide the cache lookups,
//! though never change what they compute.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The odd multiplier of every fold.
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-fold hasher (the rustc "Fx" scheme) over 64-bit words.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn fold(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(MUL);
    }
}

impl Hasher for FxHasher {
    /// A fold's product bits depend only on the input bits at or below
    /// them, and an `Int` cell hashes as its `f64` bit pattern, whose low
    /// 32 bits are zero for every integer below 2²⁰: unmixed, one-column
    /// integer keys would share their low bits (the bucket a table probes
    /// first). One xor-shift, multiply, xor-shift spreads the high bits
    /// down and the low bits up.
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(MUL);
        h ^ (h >> 33)
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        for &b in words.remainder() {
            self.fold(b as u64);
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }
    fn write_i64(&mut self, n: i64) {
        self.fold(n as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// A `HashMap` under [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Make room for one more entry in a map whose keys churn at a stationary
/// size. Erasing from a swiss table can leave a tombstone that spends its
/// growth budget like a live entry; when the budget runs out, a table over
/// half full doubles although its live count never grew (and a hundred
/// identical circuits double in the same push). So when the next insert
/// may reallocate, the table is rebuilt at the size its live entries need
/// instead: the same amortized rehash, without the growth.
pub fn rebuild_if_full<K: Hash + Eq, V>(map: &mut FxMap<K, V>) {
    if map.len() == map.capacity() {
        let mut rebuilt = FxMap::with_capacity_and_hasher(map.len() + 1, Default::default());
        rebuilt.extend(map.drain());
        *map = rebuilt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    fn fx(key: &impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn equal_values_hash_equal() {
        for k in [0i64, 2, -7, 1 << 40] {
            assert_eq!(fx(&vec![Value::Int(k)]), fx(&vec![Value::Float(k as f64)]));
        }
    }

    #[test]
    fn small_integer_keys_spread_over_low_and_high_bits() {
        // Both ends matter to a swiss table: the low bits pick the first
        // bucket, the top seven are the tag compared within a group.
        let hashes: Vec<u64> = (0..256).map(|k| fx(&vec![Value::Int(k)])).collect();
        let low: BTreeSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
        assert!(tags.len() > 64, "{} distinct tags", tags.len());
    }
}
