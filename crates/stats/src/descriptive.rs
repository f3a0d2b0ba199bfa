//! Descriptive statistics and small linear-algebra helpers.
//!
//! The FDX baseline (Zhang et al. \[43\]) estimates a precision matrix from the
//! auxiliary binary matrix; the covariance and matrix-inversion routines it
//! needs live here so the baselines crate stays algorithm-only.

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator). `NaN` for fewer than 2 points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample covariance matrix of `data` given as `n` rows × `d` columns
/// (row-major), with the n−1 denominator. Returns a `d × d` row-major matrix.
pub fn covariance_matrix(data: &[f64], n: usize, d: usize) -> Vec<f64> {
    assert_eq!(data.len(), n * d, "data must be n*d row-major");
    assert!(n >= 2, "need at least two rows");
    let mut means = vec![0.0; d];
    for row in 0..n {
        for col in 0..d {
            means[col] += data[row * d + col];
        }
    }
    for m in &mut means {
        *m /= n as f64;
    }
    let mut cov = vec![0.0; d * d];
    for row in 0..n {
        for i in 0..d {
            let di = data[row * d + i] - means[i];
            for j in i..d {
                let dj = data[row * d + j] - means[j];
                cov[i * d + j] += di * dj;
            }
        }
    }
    let denom = (n - 1) as f64;
    for i in 0..d {
        for j in i..d {
            cov[i * d + j] /= denom;
            cov[j * d + i] = cov[i * d + j];
        }
    }
    cov
}

/// Inverts a `d × d` row-major matrix via Gauss–Jordan elimination with
/// partial pivoting. Returns `None` when the matrix is singular or too
/// ill-conditioned (pivot below `1e-12`) — the failure mode FDX hits on the
/// paper's dataset #3.
pub fn invert_matrix(matrix: &[f64], d: usize) -> Option<Vec<f64>> {
    assert_eq!(matrix.len(), d * d, "matrix must be d*d");
    let mut a = matrix.to_vec();
    let mut inv = vec![0.0; d * d];
    for i in 0..d {
        inv[i * d + i] = 1.0;
    }
    for col in 0..d {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = a[col * d + col].abs();
        for row in (col + 1)..d {
            let v = a[row * d + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for k in 0..d {
                a.swap(col * d + k, pivot_row * d + k);
                inv.swap(col * d + k, pivot_row * d + k);
            }
        }
        let pivot = a[col * d + col];
        for k in 0..d {
            a[col * d + k] /= pivot;
            inv[col * d + k] /= pivot;
        }
        for row in 0..d {
            if row == col {
                continue;
            }
            let factor = a[row * d + col];
            if factor == 0.0 {
                continue;
            }
            for k in 0..d {
                a[row * d + k] -= factor * a[col * d + k];
                inv[row * d + k] -= factor * inv[col * d + k];
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn covariance_of_correlated_columns() {
        // Two columns, second = 2 * first.
        let data = [1.0, 2.0, 2.0, 4.0, 3.0, 6.0];
        let cov = covariance_matrix(&data, 3, 2);
        assert!((cov[0] - 1.0).abs() < 1e-12); // var(x)
        assert!((cov[1] - 2.0).abs() < 1e-12); // cov(x, 2x)
        assert!((cov[3] - 4.0).abs() < 1e-12); // var(2x)
        assert_eq!(cov[1], cov[2]);
    }

    #[test]
    fn invert_identity_and_known() {
        let id = [1.0, 0.0, 0.0, 1.0];
        assert_eq!(invert_matrix(&id, 2).unwrap(), id.to_vec());
        // [[4,7],[2,6]]^-1 = [[0.6,-0.7],[-0.2,0.4]]
        let m = [4.0, 7.0, 2.0, 6.0];
        let inv = invert_matrix(&m, 2).unwrap();
        let expect = [0.6, -0.7, -0.2, 0.4];
        for (a, b) in inv.iter().zip(expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn invert_requires_pivoting() {
        // Zero on the diagonal but nonsingular.
        let m = [0.0, 1.0, 1.0, 0.0];
        let inv = invert_matrix(&m, 2).unwrap();
        assert_eq!(inv, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn singular_returns_none() {
        let m = [1.0, 2.0, 2.0, 4.0];
        assert!(invert_matrix(&m, 2).is_none());
    }

    #[test]
    fn inverse_roundtrip() {
        let m = [3.0, 1.0, 0.5, 1.0, 4.0, 0.0, 0.25, 0.0, 2.0];
        let inv = invert_matrix(&m, 3).unwrap();
        // m * inv ≈ I
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += m[i * 3 + k] * inv[k * 3 + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-10, "cell ({i},{j}) = {s}");
            }
        }
    }
}
