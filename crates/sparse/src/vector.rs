//! Dense-vector kernels shared by the solvers and the model-checking
//! algorithms.
//!
//! All functions panic on length mismatches: these are programming errors,
//! not recoverable conditions, and every caller in the workspace constructs
//! the vectors itself.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// assert_eq!(mrmc_sparse::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum of all entries.
pub fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Maximum absolute component-wise difference between two vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Normalize `v` in place so its entries sum to one.
///
/// Returns `false` (leaving `v` untouched) when the entry sum is zero or
/// non-finite, which callers treat as a degenerate distribution.
pub fn normalize_l1(v: &mut [f64]) -> bool {
    let s = sum(v);
    if s == 0.0 || !s.is_finite() {
        return false;
    }
    for x in v.iter_mut() {
        *x /= s;
    }
    true
}

/// Scale every entry of `v` in place by `alpha`.
pub fn scale(v: &mut [f64], alpha: f64) {
    for x in v.iter_mut() {
        *x *= alpha;
    }
}

/// Clamp every entry of `v` into `[0, 1]`.
///
/// Iterative probability computations can stray out of the unit interval by
/// a few ulps; the model checker clamps before comparing against probability
/// bounds.
pub fn clamp_unit(v: &mut [f64]) {
    for x in v.iter_mut() {
        *x = x.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, -2.0, 3.0], &[4.0, 5.0, 6.0]), 12.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 0.0]), 2.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn normalize_l1_makes_distribution() {
        let mut v = vec![1.0, 3.0];
        assert!(normalize_l1(&mut v));
        assert_eq!(v, vec![0.25, 0.75]);
    }

    #[test]
    fn normalize_l1_rejects_zero_vector() {
        let mut v = vec![0.0, 0.0];
        assert!(!normalize_l1(&mut v));
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn clamp_unit_clamps() {
        let mut v = vec![-1e-17, 0.5, 1.0 + 1e-15];
        clamp_unit(&mut v);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
    }

    fn random_vec(rng: &mut Xoshiro256StarStar, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let len = rng.range_usize(max_len + 1);
        (0..len).map(|_| rng.range_f64(lo, hi)).collect()
    }

    #[test]
    fn dot_is_symmetric() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xD07);
        for _ in 0..64 {
            let v = random_vec(&mut rng, 31, -1e3, 1e3);
            let w: Vec<f64> = v.iter().rev().copied().collect();
            let d1 = dot(&v, &w);
            let d2 = dot(&w, &v);
            assert!((d1 - d2).abs() <= 1e-9 * (1.0 + d1.abs()));
        }
    }

    #[test]
    fn normalized_vector_sums_to_one() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x7E57);
        for _ in 0..64 {
            let mut v = random_vec(&mut rng, 30, 0.0, 1e3);
            v.push(rng.range_f64(0.0, 1e3)); // never empty
            if normalize_l1(&mut v) {
                assert!((sum(&v) - 1.0).abs() < 1e-9);
            }
        }
    }
}
