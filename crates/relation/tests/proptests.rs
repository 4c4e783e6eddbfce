//! Property-based tests for the relational substrate.

use mp_relation::{
    csv, AttrKind, Attribute, Column, Domain, Pli, Relation, RelationError, Schema, Signature,
    Value,
};
use proptest::prelude::*;
use std::io::Read;

/// Strategy: a column of small integers (dense duplicates, exercising
/// partition clusters).
fn small_int_column() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec((0i64..6).prop_map(Value::Int), 0..60)
}

/// Smallest integer magnitude beyond ±2^53, where an `f64` stops holding
/// every integer exactly.
const HUGE: i64 = (1 << 53) + 1;

/// A one-column relation of `kind` built three ways: row by row
/// (`from_rows`), from one `Value` column (`from_columns`), and from a
/// typed column collected from the same cells (`from_typed_columns`).
fn built_three_ways(kind: AttrKind, cells: &[Value]) -> [Result<Relation, RelationError>; 3] {
    let schema = Schema::new(vec![Attribute::new("x", kind)]).unwrap();
    [
        Relation::from_rows(
            schema.clone(),
            cells.iter().map(|v| vec![v.clone()]).collect(),
        ),
        Relation::from_columns(schema.clone(), vec![cells.to_vec()]),
        Relation::from_typed_columns(schema, vec![cells.iter().cloned().collect::<Column>()]),
    ]
}

/// A cell of any variant: small ints, ints beyond ±2^53, floats (NaN and
/// both zeros included) and text.
fn any_cell() -> impl Strategy<Value = Value> {
    (0u8..5, HUGE..=i64::MAX, any::<bool>()).prop_map(|(variant, big, negative)| {
        let pick = (big % 6) as usize;
        match variant {
            0 => Value::Null,
            1 => Value::Int(pick as i64 - 3),
            2 => Value::Int(if negative { -big } else { big }),
            3 => Value::Float([-1.5, -0.0, 0.0, 2.0, 0.5, f64::NAN][pick]),
            _ => Value::from(["a", "b"][pick % 2]),
        }
    })
}

/// A reader that returns `reads[k % reads.len()]` bytes (or what is left)
/// from its `k`-th call.
struct ShortReader<'a> {
    bytes: &'a [u8],
    reads: &'a [usize],
    calls: usize,
}

impl Read for ShortReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.reads[self.calls % self.reads.len()];
        self.calls += 1;
        let n = want.min(buf.len()).min(self.bytes.len());
        let (head, rest) = self.bytes.split_at(n);
        buf[..n].copy_from_slice(head);
        self.bytes = rest;
        Ok(n)
    }
}

/// Reference partition semantics: group row indices by value.
fn naive_groups(col: &[Value]) -> Vec<Vec<usize>> {
    let mut sorted: Vec<(usize, &Value)> = col.iter().enumerate().collect();
    sorted.sort_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)));
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (i, v) in sorted {
        match out.last_mut() {
            Some(last) if col[last[0]] == *v => last.push(i),
            _ => out.push(vec![i]),
        }
    }
    out.retain(|g| g.len() >= 2);
    out.sort_by_key(|g| g[0]);
    out
}

proptest! {
    #[test]
    fn pli_matches_naive_grouping(col in small_int_column()) {
        let pli = Pli::from_column(&col);
        let clusters: Vec<Vec<usize>> = pli
            .clusters()
            .map(|c| c.iter().map(|&r| r as usize).collect())
            .collect();
        prop_assert_eq!(clusters, naive_groups(&col));
    }

    #[test]
    fn pli_intersection_commutes(a in small_int_column(), b in small_int_column()) {
        let n = a.len().min(b.len());
        let pa = Pli::from_column(&a[..n]);
        let pb = Pli::from_column(&b[..n]);
        prop_assert_eq!(pa.intersect(&pb), pb.intersect(&pa));
    }

    #[test]
    fn pli_intersection_associates(
        a in small_int_column(),
        b in small_int_column(),
        c in small_int_column(),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let pa = Pli::from_column(&a[..n]);
        let pb = Pli::from_column(&b[..n]);
        let pc = Pli::from_column(&c[..n]);
        prop_assert_eq!(
            pa.intersect(&pb).intersect(&pc),
            pa.intersect(&pb.intersect(&pc))
        );
    }

    #[test]
    fn pli_intersection_refines_both(a in small_int_column(), b in small_int_column()) {
        let n = a.len().min(b.len());
        let pa = Pli::from_column(&a[..n]);
        let pb = Pli::from_column(&b[..n]);
        let pab = pa.intersect(&pb);
        prop_assert!(pab.refines(&pa));
        prop_assert!(pab.refines(&pb));
    }

    #[test]
    fn pli_intersection_idempotent(a in small_int_column()) {
        let pa = Pli::from_column(&a);
        prop_assert_eq!(pa.intersect(&pa), pa);
    }

    #[test]
    fn pli_unit_is_intersection_identity(a in small_int_column()) {
        // Π_∅ = the unit partition (one cluster of all rows) is the
        // identity of ∩ — the base case the discovery engine's cache
        // relies on for the empty attribute set.
        let pa = Pli::from_column(&a);
        let unit = Pli::unit(a.len());
        prop_assert_eq!(pa.intersect(&unit), pa.clone());
        prop_assert_eq!(unit.intersect(&pa), pa);
    }

    #[test]
    fn refines_is_consistent_with_satisfies_fd(
        a in small_int_column(),
        b in small_int_column(),
    ) {
        // Π_X refines Π_Y exactly when the FD X → Y holds (checked via
        // the signature-based validator the TANE engine uses).
        let n = a.len().min(b.len());
        let pa = Pli::from_column(&a[..n]);
        let pb = Pli::from_column(&b[..n]);
        prop_assert_eq!(pa.refines(&pb), pa.satisfies_fd(&pb.signature()));
        prop_assert_eq!(pb.refines(&pa), pb.satisfies_fd(&pa.signature()));
    }

    #[test]
    fn pli_intersection_matches_pairwise_semantics(
        a in small_int_column(),
        b in small_int_column(),
    ) {
        // Two rows share a cluster in the product iff they agree on both
        // columns — the defining property of Π_{X∪Y}.
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let sig = Pli::from_column(a).intersect(&Pli::from_column(b)).signature();
        let ids = sig.ids();
        for i in 0..n {
            for j in (i + 1)..n {
                let together = ids[i] != Signature::SINGLETON && ids[i] == ids[j];
                let agree = a[i] == a[j] && b[i] == b[j];
                prop_assert_eq!(together, agree, "rows {} {}", i, j);
            }
        }
    }

    #[test]
    fn g3_zero_iff_fd_holds(a in small_int_column(), b in small_int_column()) {
        let n = a.len().min(b.len());
        let pa = Pli::from_column(&a[..n]);
        let pb = Pli::from_column(&b[..n]);
        let sig = pb.signature();
        prop_assert_eq!(pa.g3_violations(&sig) == 0, pa.satisfies_fd(&sig));
    }

    #[test]
    fn g3_bounded_by_covered_rows(a in small_int_column(), b in small_int_column()) {
        let n = a.len().min(b.len());
        let pa = Pli::from_column(&a[..n]);
        let pb = Pli::from_column(&b[..n]);
        let v = pa.g3_violations(&pb.signature());
        prop_assert!(v <= pa.covered_count().saturating_sub(pa.cluster_count()));
    }

    #[test]
    fn chunked_csv_ingest_matches_whole_string_read(
        rows in prop::collection::vec(
            (0i64..50, "[a-z ,\"\n\rü日\u{FEFF}]{0,6}", prop::option::of(-100.0f64..100.0)),
            1..30,
        ),
        reads in prop::collection::vec(1usize..8, 1..16),
        crlf in any::<bool>(),
        bom in any::<bool>(),
    ) {
        // Streaming ingest must be chunk-boundary invariant: reads of 1–7
        // bytes split records, quoted fields, `""` pairs, CRLF pairs, the
        // BOM and multi-byte scalars, and must yield what read_str does.
        let schema = Schema::new(vec![
            Attribute::continuous("id"),
            Attribute::categorical("label"),
            Attribute::continuous("score"),
        ]).unwrap();
        let rel = Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|(i, s, f)| vec![Value::Int(i), Value::Text(s), Value::from(f)])
                .collect(),
        ).unwrap();
        let mut text = csv::write_str(&rel);
        if crlf {
            text = text.replace('\n', "\r\n");
        }
        if bom {
            text.insert(0, '\u{FEFF}');
        }
        let expected = csv::read_str(&text, &csv::CsvOptions::default()).unwrap();
        let reader = ShortReader { bytes: text.as_bytes(), reads: &reads, calls: 0 };
        let streamed = csv::read_stream(reader, &csv::CsvOptions::default()).unwrap();
        prop_assert_eq!(&streamed, &expected);
        prop_assert_eq!(streamed.schema(), expected.schema());
    }

    #[test]
    fn value_ordering_is_total_and_consistent(
        x in any::<i64>(),
        y in any::<f64>(),
        s in "[a-z]{0,8}",
    ) {
        let vals = [Value::Null, Value::Int(x), Value::Float(y), Value::Text(s)];
        for a in &vals {
            prop_assert_eq!(a.cmp(a), std::cmp::Ordering::Equal);
            for b in &vals {
                prop_assert_eq!(a.cmp(b), b.cmp(a).reverse());
                prop_assert_eq!(a == b, a.cmp(b) == std::cmp::Ordering::Equal);
            }
        }
    }

    #[test]
    fn csv_roundtrips_relations(
        rows in prop::collection::vec((0i64..50, "[a-z]{1,6}", prop::option::of(-100.0f64..100.0)), 1..40)
    ) {
        let schema = Schema::new(vec![
            Attribute::continuous("id"),
            Attribute::categorical("label"),
            Attribute::continuous("score"),
        ]).unwrap();
        let rel = Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|(i, s, f)| vec![Value::Int(i), Value::Text(s), Value::from(f)])
                .collect(),
        ).unwrap();
        let text = csv::write_str(&rel);
        let back = csv::read_str(&text, &csv::CsvOptions::default()).unwrap();
        prop_assert_eq!(back.n_rows(), rel.n_rows());
        // Values round-trip (floats print exactly via Display for these).
        for c in 0..rel.arity() {
            prop_assert_eq!(back.column(c).unwrap(), rel.column(c).unwrap());
        }
    }

    #[test]
    fn domain_inference_contains_all_values(col in small_int_column()) {
        prop_assume!(!col.is_empty());
        let schema = Schema::new(vec![Attribute::categorical("x")]).unwrap();
        let rel = Relation::from_rows(schema, col.iter().map(|v| vec![v.clone()]).collect()).unwrap();
        let dom = Domain::infer(&rel, 0).unwrap();
        for v in &col {
            prop_assert!(dom.contains(v));
        }
        prop_assert_eq!(dom.cardinality().unwrap(), rel.distinct_count(0).unwrap());
    }

    #[test]
    fn continuous_domain_bounds_are_tight(xs in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let schema = Schema::new(vec![Attribute::continuous("x")]).unwrap();
        let rel = Relation::from_rows(
            schema,
            xs.iter().map(|&x| vec![Value::Float(x)]).collect(),
        ).unwrap();
        let dom = Domain::infer(&rel, 0).unwrap();
        let (min, max) = dom.bounds().unwrap();
        prop_assert!(xs.iter().all(|&x| x >= min && x <= max));
        prop_assert!(xs.contains(&min) && xs.contains(&max));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every constructor applies one kind rule: on any single column the
    /// three return an equal error or equal relations.
    #[test]
    fn constructors_agree_on_the_kind_rule(
        continuous in any::<bool>(),
        cells in prop::collection::vec(any_cell(), 0..12),
    ) {
        let kind = if continuous { AttrKind::Continuous } else { AttrKind::Categorical };
        let [rows, columns, typed] = built_three_ways(kind, &cells);
        prop_assert_eq!(&rows, &columns, "{:?} {:?}", kind, cells);
        prop_assert_eq!(&rows, &typed, "{:?} {:?}", kind, cells);
    }
}

/// The kind rule on fixed mixed-kind columns: every constructor returns
/// the same result, and that result is the `(expected, got)` mismatch
/// given, or a relation when none is. Cells are coded `n` null, `i` a
/// small int, `h` an int beyond ±2^53, `f` a float and `t` text.
#[test]
fn constructors_agree_on_mixed_kind_columns() {
    use AttrKind::{Categorical, Continuous};
    type Case = (AttrKind, &'static str, Option<(&'static str, &'static str)>);
    let cases: [Case; 12] = [
        (Categorical, "ti", Some(("text", "int"))),
        (Categorical, "it", Some(("int", "text"))),
        (Categorical, "if", Some(("int", "float"))),
        (Categorical, "fi", Some(("float", "int"))),
        (Categorical, "hf", Some(("int", "float"))),
        (Categorical, "nfit", Some(("float", "int"))),
        (Categorical, "nn", None),
        (Continuous, "it", Some(("numeric", "text"))),
        (Continuous, "ti", Some(("numeric", "text"))),
        (Continuous, "nt", Some(("numeric", "text"))),
        (Continuous, "hft", Some(("numeric", "text"))),
        (Continuous, "hf", None),
    ];
    for (kind, code, mismatch) in cases {
        let cells: Vec<Value> = code
            .chars()
            .map(|c| match c {
                'n' => Value::Null,
                'i' => Value::Int(3),
                'h' => Value::Int(HUGE),
                'f' => Value::Float(0.5),
                _ => Value::from("a"),
            })
            .collect();
        let [rows, columns, typed] = built_three_ways(kind, &cells);
        assert_eq!(rows, columns, "{kind:?} {cells:?}");
        assert_eq!(rows, typed, "{kind:?} {cells:?}");
        match (rows, mismatch) {
            (Err(err), Some((expected, got))) => assert_eq!(
                err,
                RelationError::TypeMismatch {
                    column: "x".into(),
                    expected,
                    got,
                },
                "{kind:?} {cells:?}"
            ),
            (Ok(rel), None) => assert_eq!(rel.column_values(0).unwrap(), cells),
            (other, _) => panic!("{kind:?} {cells:?}: {other:?}"),
        }
    }
    // The one column no typed layout holds: an integer beyond ±2^53 beside
    // a float stays boxed under a continuous attribute.
    for built in built_three_ways(Continuous, &[Value::Int(HUGE), Value::Float(0.5)]) {
        assert_eq!(built.unwrap().column(0).unwrap().repr_name(), "boxed");
    }
}

#[test]
fn attr_kind_is_exported() {
    // Smoke check that the public API surface re-exports what examples use.
    let _ = AttrKind::Categorical;
}
