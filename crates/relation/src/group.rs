//! First-occurrence grouping of numeric columns through a table of `u32`
//! representative rows.
//!
//! [`Column::group_codes`](crate::Column::group_codes) numbers the
//! equality classes of an `Int` or `Float` column by first occurrence.
//! The table behind it holds, per slot, the row that opened a class
//! (`EMPTY` while unused): at least two slots per row, rounded up to a
//! power of two, probed linearly. A probe compares the row's canonical
//! key with its representative's, recomputed from the column, and reads
//! the class code from the representative's row, so the table costs 4
//! bytes a slot (about 2 MB at 250k rows) where a map from key to code
//! grew to about 9 MB.
//!
//! Keys are hashed by a multiply-fold seeded once per process from std's
//! [`RandomState`], as std's maps are, so a crafted file cannot choose
//! the probe chains. Codes cannot depend on the seed: a class's code is
//! the number of classes opened before its first row.

use crate::column::Bitmap;
use crate::relation::Relation;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// An unused slot. A table holds at most `Relation::MAX_ROWS`
/// (`u32::MAX`) rows, so row ids stop one below it.
const EMPTY: u32 = u32::MAX;

/// The per-process hash seed: what is XORed into a key before the
/// multiply, and the (odd) multiplier.
static SEED: OnceLock<(u64, u64)> = OnceLock::new();

/// Per-row class codes for the `n` rows of a numeric column, plus an
/// exclusive bound on them: null rows (set in `nulls`) get code 0, and
/// the other rows get `1, 2, …` in order of their key's first
/// occurrence. Two non-null rows share a code iff `key` maps them to the
/// same value.
pub(crate) fn first_occurrence_codes(
    n: usize,
    nulls: &Bitmap,
    key: impl Fn(usize) -> u64,
) -> (Vec<u32>, usize) {
    let (xor, mul) = *SEED.get_or_init(|| {
        let state = RandomState::new();
        (state.hash_one(0u64), state.hash_one(1u64) | 1)
    });
    codes_with_hash(n, nulls, key, |k| fold_multiply(k ^ xor, mul))
}

/// The full 128-bit product of `a` and `b`, folded to 64 bits.
#[inline]
fn fold_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// [`first_occurrence_codes`] under an explicit `hash`.
fn codes_with_hash(
    n: usize,
    nulls: &Bitmap,
    key: impl Fn(usize) -> u64,
    hash: impl Fn(u64) -> u64,
) -> (Vec<u32>, usize) {
    assert!(n <= Relation::MAX_ROWS, "row ids are u32");
    let mask = (2 * n).next_power_of_two() - 1;
    let mut slots = vec![EMPTY; mask + 1];
    let mut codes = Vec::with_capacity(n);
    let mut next = 1u32;
    for row in 0..n {
        if nulls.get(row) {
            codes.push(0);
            continue;
        }
        let k = key(row);
        let mut slot = hash(k) as usize & mask;
        let code = loop {
            let rep = slots[slot];
            if rep == EMPTY {
                slots[slot] = row as u32;
                let fresh = next;
                next += 1;
                break fresh;
            }
            if key(rep as usize) == k {
                break codes[rep as usize];
            }
            slot = (slot + 1) & mask;
        };
        codes.push(code);
    }
    (codes, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Codes numbered by first occurrence through a map, the reference.
    fn reference(keys: &[Option<u64>]) -> (Vec<u32>, usize) {
        let mut seen = std::collections::HashMap::new();
        let codes = keys
            .iter()
            .map(|k| match k {
                None => 0,
                Some(k) => {
                    let fresh = seen.len() as u32 + 1;
                    *seen.entry(*k).or_insert(fresh)
                }
            })
            .collect();
        (codes, seen.len() + 1)
    }

    fn grouped(keys: &[Option<u64>], hash: impl Fn(u64) -> u64) -> (Vec<u32>, usize) {
        let mut nulls = Bitmap::new();
        for k in keys {
            nulls.push(k.is_none());
        }
        let key = |row: usize| keys.get(row).copied().flatten().unwrap_or(u64::MAX);
        codes_with_hash(keys.len(), &nulls, key, hash)
    }

    /// Hashes that send every key to slot 0, start every probe at the
    /// last slot (so every chain wraps), use the key itself (so keys equal
    /// modulo the slot count collide), or drop its low 32 bits.
    #[test]
    fn adversarial_hashes_still_group_by_key() {
        let shapes: Vec<Vec<Option<u64>>> = vec![
            vec![],
            vec![Some(7)],
            vec![None],
            (0..9).map(|k| Some(k % 3)).collect(),
            (0..16).map(|k| Some(k << 40)).collect(),
            (0..17).map(|k| Some(k * 64)).collect(),
            (0..33).map(|k| (k % 5 != 0).then_some(k % 11)).collect(),
            vec![Some(u64::MAX), Some(0), Some(u64::MAX), None, Some(0)],
        ];
        let hashes: [fn(u64) -> u64; 4] = [|_| 0, |_| u64::MAX, |k| k, |k| k >> 32];
        for keys in &shapes {
            for hash in hashes {
                assert_eq!(grouped(keys, hash), reference(keys), "{keys:?}");
            }
            let (xor, mul) = (0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d);
            let seeded = grouped(keys, |k| fold_multiply(k ^ xor, mul));
            assert_eq!(seeded, reference(keys), "{keys:?}");
        }
    }
}
