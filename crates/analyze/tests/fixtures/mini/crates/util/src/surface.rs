//! Public-surface fixture for the `pub_items` counter: six bare-`pub`
//! items count; restricted visibility, re-exports, fields and test code
//! do not.

pub use std::collections::BTreeMap as Map;

/// Counted, but its `pub` field is not an item.
pub struct Point {
    pub x: i64,
    pub(crate) y: i64,
}

/// Counted.
pub const ORIGIN: Point = Point { x: 0, y: 0 };

/// Counted.
pub type Pair = (i64, i64);

impl Point {
    /// Counted.
    pub fn norm1(&self) -> i64 {
        self.x.abs() + self.y.abs()
    }

    /// Not counted: crate-visible only.
    pub(crate) fn pair(&self) -> Pair {
        (self.x, self.y)
    }
}

/// Counted, as is the bare-`pub` function inside it.
pub mod inner {
    /// Counted.
    pub fn visible() -> i64 {
        hidden()
    }

    /// Not counted: visible to the parent module only.
    pub(super) fn hidden() -> i64 {
        1
    }
}

#[cfg(test)]
mod tests {
    /// Not counted: test code.
    pub fn helper() -> i64 {
        super::inner::visible()
    }
}
