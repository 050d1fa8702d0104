//! Reverse Cuthill–McKee ordering.

use crate::CsrMatrix;

/// A reverse Cuthill–McKee ordering of the square matrix `a`: `order[k]`
/// is the original index of the row and column placed at position `k`.
///
/// The ordering works on the symmetrized pattern `a + aᵀ` (values are
/// ignored) and keeps nonzeros close to the diagonal, so a banded
/// factorization of the permuted matrix stays narrow. It is fully
/// deterministic: each connected component starts at its unplaced vertex
/// of least degree, and the neighbours a breadth-first step discovers are
/// placed by degree, then by index.
///
/// ```
/// use mrmc_sparse::{CooBuilder, solver::reverse_cuthill_mckee};
///
/// // A path 0 – 2 – 1 stored out of order.
/// let mut b = CooBuilder::new(3, 3);
/// b.push(0, 2, 1.0).push(2, 0, 1.0).push(2, 1, 1.0).push(1, 2, 1.0);
/// let order = reverse_cuthill_mckee(&b.build().unwrap());
/// assert_eq!(order, vec![1, 2, 0]);
/// ```
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "ordering needs a square matrix");
    let (start, adjacent) = symmetric_pattern(a);
    let degree = |v: usize| start[v + 1] - start[v];

    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_unstable_by_key(|&v| (degree(v), v));
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for root in by_degree {
        if placed[root] {
            continue;
        }
        placed[root] = true;
        order.push(root);
        let mut head = order.len() - 1;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let discovered = order.len();
            for &u in &adjacent[start[v]..start[v + 1]] {
                if !placed[u] {
                    placed[u] = true;
                    order.push(u);
                }
            }
            order[discovered..].sort_unstable_by_key(|&u| (degree(u), u));
        }
    }
    order.reverse();
    order
}

/// The off-diagonal pattern of `a + aᵀ` in compressed rows: the
/// neighbours of `v` are `adjacent[start[v]..start[v + 1]]`, ascending.
fn symmetric_pattern(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>) {
    let n = a.nrows();
    let transposed = a.transpose();
    let mut start = Vec::with_capacity(n + 1);
    let mut adjacent = Vec::with_capacity(2 * a.nnz());
    start.push(0);
    for v in 0..n {
        // Both rows list their columns in increasing order: merge them.
        let mut out = a.row(v).map(|(c, _)| c).peekable();
        let mut inc = transposed.row(v).map(|(c, _)| c).peekable();
        loop {
            let next = match (out.peek(), inc.peek()) {
                (Some(&x), Some(&y)) if x == y => {
                    inc.next();
                    out.next()
                }
                (Some(&x), Some(&y)) if y < x => inc.next(),
                (Some(_), _) => out.next(),
                (None, _) => inc.next(),
            };
            match next {
                Some(u) if u != v => adjacent.push(u),
                Some(_) => {}
                None => break,
            }
        }
        start.push(adjacent.len());
    }
    (start, adjacent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooBuilder;

    /// A path graph on `n` vertices whose labels are scrambled by
    /// `label(i) = i·k mod n` (for `k` coprime to `n`).
    fn scrambled_path(n: usize, k: usize) -> CsrMatrix {
        let label = |i: usize| i * k % n;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(label(i), label(i), 2.0);
            if i + 1 < n {
                b.push(label(i), label(i + 1), -1.0);
                b.push(label(i + 1), label(i), -1.0);
            }
        }
        b.build().unwrap()
    }

    fn bandwidth(a: &CsrMatrix, order: &[usize]) -> usize {
        let mut position = vec![0; order.len()];
        for (k, &v) in order.iter().enumerate() {
            position[v] = k;
        }
        a.iter()
            .map(|(r, c, _)| position[r].abs_diff(position[c]))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn recovers_the_bandwidth_of_a_scrambled_path() {
        let a = scrambled_path(50, 7);
        let natural: Vec<usize> = (0..50).collect();
        assert!(bandwidth(&a, &natural) > 1);
        let order = reverse_cuthill_mckee(&a);
        assert_eq!(bandwidth(&a, &order), 1);
    }

    #[test]
    fn is_a_permutation_covering_every_component() {
        // Two components plus an isolated vertex; one-sided entries count.
        let mut b = CooBuilder::new(6, 6);
        b.push(0, 3, 1.0).push(3, 5, 1.0).push(1, 4, 1.0);
        let order = reverse_cuthill_mckee(&b.build().unwrap());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        // The isolated vertex 2 has degree 0 and starts the first component,
        // so it ends the reversed order.
        assert_eq!(order.last(), Some(&2));
    }

    #[test]
    fn is_deterministic_under_equal_degrees() {
        // A cycle: every vertex has degree 2, so ties decide everything.
        let n = 9;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, (i + 1) % n, 1.0).push((i + 1) % n, i, 1.0);
        }
        let a = b.build().unwrap();
        let order = reverse_cuthill_mckee(&a);
        assert_eq!(order, reverse_cuthill_mckee(&a));
        assert_eq!(order, vec![5, 4, 6, 3, 7, 2, 8, 1, 0]);
    }
}
