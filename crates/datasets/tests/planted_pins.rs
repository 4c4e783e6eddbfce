//! Byte-level pins on the planted-dependency tables.
//!
//! Every discovery test, the profile goldens and the scale bench read
//! these tables, so a generator rewrite must reproduce them exactly: the
//! same RNG draws in the same order, the same labels in the same
//! dictionary order, the same floats bit for bit. Each table is pinned by
//! the FNV-1a-64 hash and byte length of its CSV rendering with the kind
//! row, the form a CSV round trip must rebuild.

use mp_datasets::{all_classes_spec, scale_relation, SyntheticRelation};
use mp_relation::csv::{self, CsvOptions};

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(hash, length)` of the table's CSV with the kind row.
fn pin(out: &SyntheticRelation) -> (u64, usize) {
    let text = csv::write_str_with(&out.relation, &CsvOptions::with_kind_row());
    (fnv1a64(text.as_bytes()), text.len())
}

#[test]
fn all_classes_tables_are_pinned() {
    let expected: [((usize, u64), (u64, usize)); 5] = [
        ((0, 0), (0x9089_d729_db7b_5bc9, 129)),
        ((1, 0), (0x201b_4bcf_c965_c75c, 180)),
        ((150, 40), (0x155c_621f_9d18_aaf4, 10318)),
        ((300, 9), (0xad54_a431_7d41_4a49, 20631)),
        ((2000, 8), (0xbeae_a72b_8a58_0c03, 136766)),
    ];
    let got = expected.map(|((n_rows, seed), _)| {
        let out = all_classes_spec(n_rows, seed).generate().unwrap();
        ((n_rows, seed), pin(&out))
    });
    assert_eq!(
        got, expected,
        "all_classes_spec ((n_rows, seed), (fnv, bytes))"
    );
}

#[test]
fn scale_tables_are_pinned() {
    let expected: [((usize, u64), (u64, usize)); 2] = [
        ((0, 0), (0x9089_d729_db7b_5bc9, 129)),
        ((3000, 11), (0x3cae_292a_c9e4_83be, 219118)),
    ];
    let got = expected.map(|((n_rows, seed), _)| {
        let out = scale_relation(n_rows, seed).unwrap();
        ((n_rows, seed), pin(&out))
    });
    assert_eq!(
        got, expected,
        "scale_relation ((n_rows, seed), (fnv, bytes))"
    );
}

#[test]
fn both_layouts_plant_the_same_dependencies() {
    let small = all_classes_spec(150, 40).generate().unwrap();
    let large = scale_relation(3000, 11).unwrap();
    assert_eq!(small.planted, large.planted);
    assert_eq!(small.relation.schema(), large.relation.schema());
}
