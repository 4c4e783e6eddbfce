//! The CSV input that reaches [`Column::Boxed`]: a numeric column mixing
//! an integer beyond ±2^53 with a float. No typed layout holds both
//! losslessly (`Int` cannot hold 0.5, and `f64` rounds 2^53 + 1), so the
//! column stays boxed, and it must round-trip through CSV unchanged.
//!
//! [`Column::Boxed`]: mp_relation::Column::Boxed

use mp_relation::csv::{self, CsvOptions};
use mp_relation::Value;

fn repr(text: &str) -> &'static str {
    let relation = csv::read_str(text, &CsvOptions::default()).unwrap();
    relation.column(0).unwrap().repr_name()
}

#[test]
fn huge_int_mixed_with_float_reads_as_boxed_and_round_trips() {
    let text = "a,b\n9007199254740993,x\n0.5,y\n1,?\n";
    let opts = CsvOptions::default();
    let relation = csv::read_str(text, &opts).unwrap();
    let column = relation.column(0).unwrap();
    assert_eq!(column.repr_name(), "boxed");
    assert_eq!(
        column.to_values(),
        vec![
            Value::Int(9_007_199_254_740_993),
            Value::Float(0.5),
            Value::Int(1)
        ]
    );

    let written = csv::write_str(&relation);
    assert_eq!(written, text);
    let back = csv::read_str(&written, &opts).unwrap();
    assert_eq!(back, relation);
    assert_eq!(back.column(0).unwrap().repr_name(), "boxed");
    assert_eq!(csv::write_str(&back), written);
}

#[test]
fn neighbouring_inputs_take_typed_layouts() {
    // 2^53 is exact in an f64, so it joins the float column.
    assert_eq!(repr("a\n9007199254740992\n0.5\n"), "f64");
    // Without a float, a huge integer is an ordinary i64.
    assert_eq!(repr("a\n9007199254740993\n1\n"), "i64");
    // A text/number mix is read as text.
    assert_eq!(repr("a\n9007199254740993\nx\n"), "dict");
}
