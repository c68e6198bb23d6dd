//! The flat hash-join state shared by the iterator-model
//! [`HashJoin`](crate::ops::HashJoin) and the partitioned
//! [`HashJoinEvaluator`](crate::evaluator::HashJoinEvaluator).
//!
//! Layout: `rows` holds every stored build tuple with the 64-bit stable
//! hash of its key, in insertion order; `next[i]` links row `i` to the
//! next row with the same hash; `heads` maps each hash to the first and
//! last row of its chain. An insert is one push per array plus one map
//! probe, a probe walks one chain, and every candidate is confirmed with
//! [`Value::sql_eq`], so keys whose hashes collide never join.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use gridq_common::{Tuple, Value};

/// End of a chain in `next`.
const NONE: usize = usize::MAX;

/// The head map's hasher. Its keys are already 64-bit FNV-1a digests,
/// so one fold and one odd multiply spread them over both the bucket
/// index (low bits) and the control byte (high bits). A keyed hasher
/// would buy no collision resistance here: keys crafted to collide in
/// FNV share one chain whatever hashes the digest afterwards.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Build-side state of one equi hash join on column `key`.
#[derive(Debug)]
pub struct JoinTable {
    key: usize,
    rows: Vec<(u64, Tuple)>,
    next: Vec<usize>,
    heads: HashMap<u64, (usize, usize), BuildHasherDefault<StoredHash>>,
}

impl JoinTable {
    /// An empty table joining on column `key` of the build tuples.
    pub fn new(key: usize) -> Self {
        JoinTable {
            key,
            rows: Vec::new(),
            next: Vec::new(),
            heads: HashMap::default(),
        }
    }

    /// Stores a build tuple whose key hashes to `hash` (callers pass the
    /// key's [`Value::stable_hash`], which [`JoinTable::extract`] maps to
    /// routing buckets). A NULL key never joins and is not stored.
    pub fn insert(&mut self, hash: u64, row: Tuple) {
        if !row.value(self.key).is_null() {
            self.push(hash, row);
        }
    }

    fn push(&mut self, hash: u64, row: Tuple) {
        let idx = self.rows.len();
        self.rows.push((hash, row));
        self.next.push(NONE);
        match self.heads.entry(hash) {
            Entry::Occupied(mut e) => {
                let (_, last) = e.get_mut();
                self.next[*last] = idx;
                *last = idx;
            }
            Entry::Vacant(e) => {
                e.insert((idx, idx));
            }
        }
    }

    /// The stored tuples whose key equals `key` (which hashes to `hash`),
    /// in insertion order.
    pub fn probe<'a>(&'a self, hash: u64, key: &'a Value) -> impl Iterator<Item = &'a Tuple> + 'a {
        let mut at = if key.is_null() {
            NONE
        } else {
            self.heads.get(&hash).map_or(NONE, |&(first, _)| first)
        };
        std::iter::from_fn(move || {
            while at != NONE {
                let row = &self.rows[at].1;
                at = self.next[at];
                if row.value(self.key).sql_eq(key) {
                    return Some(row);
                }
            }
            None
        })
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Removes and returns, in insertion order, the tuples whose stored
    /// hash falls in one of `buckets` (bucket = `hash % bucket_count`),
    /// in one compaction pass that keeps the rest in insertion order.
    pub fn extract(&mut self, bucket_count: u32, buckets: &[u32]) -> Vec<Tuple> {
        if bucket_count == 0 || buckets.is_empty() {
            return Vec::new();
        }
        let mut wanted = buckets.to_vec();
        wanted.sort_unstable();
        let rows = std::mem::take(&mut self.rows);
        self.next.clear();
        self.heads.clear();
        let mut extracted = Vec::new();
        for (hash, row) in rows {
            let bucket = (hash % u64::from(bucket_count)) as u32;
            if wanted.binary_search(&bucket).is_ok() {
                extracted.push(row);
            } else {
                self.push(hash, row);
            }
        }
        extracted
    }
}

// Insertion order, which the multiset properties in
// `tests/join_table_props.rs` do not see.
#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: Value, tag: i64) -> Tuple {
        Tuple::new(vec![k, Value::Int(tag)])
    }

    fn tags<'a>(it: impl Iterator<Item = &'a Tuple>) -> Vec<i64> {
        it.map(|t| t.value(1).as_int().unwrap()).collect()
    }

    #[test]
    fn probe_returns_duplicates_in_insertion_order() {
        let mut t = JoinTable::new(0);
        let a = Value::str("a");
        for tag in 0..3 {
            t.insert(a.stable_hash(), row(a.clone(), tag));
        }
        t.insert(Value::str("b").stable_hash(), row(Value::str("b"), 9));
        assert_eq!(t.len(), 4);
        assert_eq!(tags(t.probe(a.stable_hash(), &a)), vec![0, 1, 2]);
    }

    #[test]
    fn extract_keeps_the_rest_probeable() {
        let mut t = JoinTable::new(0);
        for h in 0..8u64 {
            t.insert(h, row(Value::Int(h as i64), h as i64));
        }
        let moved = t.extract(4, &[1, 3]);
        assert_eq!(tags(moved.iter()), vec![1, 3, 5, 7]);
        assert_eq!(t.len(), 4);
        assert_eq!(tags(t.probe(6, &Value::Int(6))), vec![6]);
        assert_eq!(t.probe(5, &Value::Int(5)).count(), 0);
        assert!(t.extract(0, &[0]).is_empty());
    }
}
