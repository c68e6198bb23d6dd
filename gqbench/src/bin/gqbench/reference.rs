//! Reference results, computed by the benchmark itself from the generated
//! tables (never by the program under test), and an order-independent
//! multiset fingerprint to compare every query's result against them.

use gridq_common::{Tuple, Value};

/// An order-independent fingerprint of a result multiset: the row count
/// plus two wrapping sums of independent 64-bit row hashes. Two multisets
/// with equal fingerprints are equal except with negligible probability;
/// a lost, duplicated or altered row changes all three fields. Floats are
/// compared at 1e-9 resolution so a bit-level difference in summation
/// order does not read as a wrong result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    rows: u64,
    sum_a: u64,
    sum_b: u64,
}

impl Fingerprint {
    /// Adds one row given as its values.
    pub fn add_row<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) {
        let mut h = RowHash::new();
        for v in values {
            h.value(v);
        }
        let (a, b) = h.finish();
        self.rows += 1;
        self.sum_a = self.sum_a.wrapping_add(a);
        self.sum_b = self.sum_b.wrapping_add(b);
    }

    /// The fingerprint of a result set.
    pub fn of(results: &[Tuple]) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for t in results {
            fp.add_row(t.values());
        }
        fp
    }

    /// Rows in the multiset.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// Two independent multiply-rotate hashes over a canonical encoding of a
/// row, fed eight bytes at a time so checking a 47,000-row result stays a
/// small share of a query's time.
struct RowHash {
    a: u64,
    b: u64,
}

impl RowHash {
    fn new() -> Self {
        RowHash {
            a: 0x9e37_79b9_7f4a_7c15,
            b: 0xc2b2_ae3d_27d4_eb4f,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .rotate_left(29);
        self.b = (self.b ^ w.rotate_left(17))
            .wrapping_mul(0x94d0_49bb_1331_11eb)
            .rotate_left(37);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(
                c.try_into().expect("chunks of eight bytes"),
            ));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.word(0),
            Value::Int(i) => {
                self.word(1);
                self.word(*i as u64);
            }
            Value::Float(f) => {
                self.word(2);
                self.word((f * 1e9).round() as i64 as u64);
            }
            Value::Str(s) => {
                self.word(3 | (s.len() as u64) << 8);
                self.bytes(s.as_bytes());
            }
            Value::Bool(b) => self.word(4 | u64::from(*b) << 8),
        }
    }

    fn finish(&self) -> (u64, u64) {
        (mix(self.a), mix(self.b ^ 0x5851_f42d_4c95_7f2d))
    }
}

/// SplitMix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Q2's result: every (sequence, interaction) pair with `orf = orf1`, as
/// the concatenated row `[orf, sequence, orf1, orf2]`.
pub fn join_reference(sequences: &[Tuple], interactions: &[Tuple]) -> Fingerprint {
    let mut by_orf: std::collections::HashMap<&str, Vec<&Tuple>> =
        std::collections::HashMap::with_capacity(sequences.len());
    for s in sequences {
        if let Value::Str(orf) = s.value(0) {
            by_orf.entry(orf).or_default().push(s);
        }
    }
    let mut fp = Fingerprint::default();
    for i in interactions {
        let Value::Str(orf1) = i.value(0) else {
            continue;
        };
        for s in by_orf.get(&**orf1).into_iter().flatten() {
            fp.add_row(s.values().iter().chain(i.values()));
        }
    }
    fp
}

/// Shannon entropy in bits per symbol of a sequence's byte distribution,
/// summed in byte order.
pub fn entropy(sequence: &str) -> f64 {
    if sequence.is_empty() {
        return 0.0;
    }
    let mut counts = [0u32; 256];
    for &b in sequence.as_bytes() {
        counts[usize::from(b)] += 1;
    }
    let total = sequence.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = f64::from(c) / total;
            -p * p.log2()
        })
        .sum()
}

/// Q1's result: one `[entropy(sequence)]` row per sequence.
pub fn entropy_reference(sequences: &[Tuple]) -> Fingerprint {
    let mut fp = Fingerprint::default();
    for s in sequences {
        if let Value::Str(seq) = s.value(1) {
            fp.add_row([&Value::Float(entropy(seq))]);
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[&str]) -> Tuple {
        Tuple::new(vals.iter().map(Value::str).collect())
    }

    #[test]
    fn fingerprint_ignores_order_but_not_multiplicity() {
        let a = row(&["x", "1"]);
        let b = row(&["y", "2"]);
        let fp = Fingerprint::of(&[a.clone(), b.clone()]);
        assert_eq!(fp, Fingerprint::of(&[b.clone(), a.clone()]));
        assert_ne!(fp, Fingerprint::of(&[a.clone(), a.clone()]));
        assert_ne!(fp, Fingerprint::of(std::slice::from_ref(&a)));
        assert_ne!(fp, Fingerprint::of(&[a, row(&["y", "3"])]));
        assert_eq!(fp.rows(), 2);
    }

    #[test]
    fn join_reference_matches_a_hand_join() {
        let seqs = [row(&["o1", "AAA"]), row(&["o2", "CCC"])];
        let inter = [row(&["o2", "o1"]), row(&["o1", "o2"]), row(&["o9", "o1"])];
        let expected = Fingerprint::of(&[
            row(&["o2", "CCC", "o2", "o1"]),
            row(&["o1", "AAA", "o1", "o2"]),
        ]);
        assert_eq!(join_reference(&seqs, &inter), expected);
    }

    #[test]
    fn entropy_matches_known_values() {
        assert_eq!(entropy(""), 0.0);
        assert_eq!(entropy("AAAA"), 0.0);
        assert!((entropy("ACAC") - 1.0).abs() < 1e-12);
        assert!((entropy("ACGT") - 2.0).abs() < 1e-12);
    }
}
