//! Tiny dense `f64` linear solver used by the exact minimum-enclosing-ball oracle.
//!
//! The systems solved here are at most `(d+1) × (d+1)` (circumsphere support sets),
//! so a plain Gaussian elimination with partial pivoting is the right tool — no
//! external linear-algebra dependency needed.

/// Solves `A x = b` for square `A` (row-major, `n*n`) by Gaussian elimination with
/// partial pivoting. Returns `None` when `A` is (numerically) singular.
pub(crate) fn solve(a: &[f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
    assert_eq!(a.len(), n * n, "A must be n*n");
    assert_eq!(b.len(), n, "b must be length n");
    let mut m = a.to_vec();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot: largest |entry| in this column at or below the diagonal.
        let mut pivot = col;
        let mut best = m[col * n + col].abs();
        for row in col + 1..n {
            let v = m[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..n {
                m.swap(col * n + k, pivot * n + k);
            }
            rhs.swap(col, pivot);
        }
        let diag = m[col * n + col];
        for row in col + 1..n {
            let factor = m[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                m[row * n + k] -= factor * m[col * n + k];
            }
            rhs[row] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0f64; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in row + 1..n {
            acc -= m[row * n + k] * x[k];
        }
        x[row] = acc / m[row * n + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let x = solve(&a, &[3.0, 4.0], 2).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the initial diagonal; succeeds only with row swaps.
        let a = [0.0, 1.0, 1.0, 0.0];
        let x = solve(&a, &[2.0, 5.0], 2).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn known_3x3() {
        let a = [2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let x = solve(&a, &[8.0, -11.0, -3.0], 3).unwrap();
        for (got, want) in x.iter().zip([2.0, 3.0, -1.0]) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_returns_none() {
        let a = [1.0, 2.0, 2.0, 4.0];
        assert!(solve(&a, &[1.0, 2.0], 2).is_none());
    }
}
