//! Minimal CSV export for figure data (no external dependency needed).
//!
//! The Fig. 4 reproduction emits the first-two-dimension projections of each
//! dataset as CSV for plotting; benches emit their series the same way.

use std::fmt::Write as _;

/// Serializes rows of `f64` values under a header line.
pub fn to_csv(header: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        debug_assert_eq!(row.len(), header.len(), "row width mismatch");
        let mut first = true;
        for v in row {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{v}");
            first = false;
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_header_and_rows() {
        let s = to_csv(&["a", "b"], &[vec![1.0, 2.5], vec![-3.0, 0.0]]);
        assert_eq!(s, "a,b\n1,2.5\n-3,0\n");
    }

    #[test]
    fn empty_rows_only_header() {
        assert_eq!(to_csv(&["x"], &[]), "x\n");
    }
}
