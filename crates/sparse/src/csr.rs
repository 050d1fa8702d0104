//! Compressed-sparse-row matrices.
//!
//! [`CsrMatrix`] is the workhorse representation for rate matrices and
//! transition-probability matrices throughout the workspace. Matrices are
//! built through [`CooBuilder`], which accepts coordinate-format entries in
//! any order, merges duplicates by addition, and drops explicit zeros.

use crate::error::BuildError;

/// Builder collecting coordinate-format (`(row, col, value)`) entries for a
/// [`CsrMatrix`].
///
/// Entries may be pushed in any order; duplicates are summed. Exact zeros are
/// dropped during [`build`](CooBuilder::build) so the resulting sparsity
/// pattern only contains structural non-zeros.
///
/// ```
/// use mrmc_sparse::CooBuilder;
///
/// let mut b = CooBuilder::new(2, 3);
/// b.push(1, 2, 4.0);
/// b.push(0, 0, 1.0);
/// b.push(1, 2, 1.0); // merged with the earlier (1, 2) entry
/// let m = b.build().unwrap();
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.nnz(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Create a builder for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Create a builder with pre-allocated capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows the built matrix will have.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns the built matrix will have.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Queue an entry. Bounds and finiteness are validated in
    /// [`build`](CooBuilder::build).
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> &mut Self {
        self.entries.push((row, col, value));
        self
    }

    /// Number of queued (unmerged) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries have been queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Build the CSR matrix, merging duplicate coordinates by addition and
    /// dropping entries that merged to exactly zero.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::IndexOutOfBounds`] for entries outside the
    /// declared shape and [`BuildError::NonFiniteValue`] for NaN/infinite
    /// values.
    pub fn build(mut self) -> Result<CsrMatrix, BuildError> {
        for &(r, c, v) in &self.entries {
            if r >= self.nrows || c >= self.ncols {
                return Err(BuildError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows: self.nrows,
                    ncols: self.ncols,
                });
            }
            if !v.is_finite() {
                return Err(BuildError::NonFiniteValue { row: r, col: c });
            }
        }
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);

        let mut current_row = 0usize;
        let mut i = 0usize;
        while i < self.entries.len() {
            let (r, c, mut v) = self.entries[i];
            i += 1;
            while i < self.entries.len() && self.entries[i].0 == r && self.entries[i].1 == c {
                v += self.entries[i].2;
                i += 1;
            }
            if v == 0.0 {
                continue;
            }
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < self.nrows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }

        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        })
    }
}

/// An immutable matrix in compressed-sparse-row format.
///
/// Rows are stored contiguously; within each row, column indices are strictly
/// increasing. Use [`CooBuilder`] to construct one.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

/// Iterator over the `(column, value)` pairs of one matrix row, produced by
/// [`CsrMatrix::row`].
#[derive(Debug, Clone)]
pub struct RowEntries<'a> {
    cols: std::slice::Iter<'a, usize>,
    vals: std::slice::Iter<'a, f64>,
}

impl<'a> Iterator for RowEntries<'a> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        Some((*self.cols.next()?, *self.vals.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.cols.size_hint()
    }
}

impl<'a> ExactSizeIterator for RowEntries<'a> {}

impl CsrMatrix {
    /// An `n x n` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)`, `0.0` when the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows, "row {row} out of bounds");
        assert!(col < self.ncols, "col {col} out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterate over the stored `(column, value)` pairs of `row` in increasing
    /// column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> RowEntries<'_> {
        assert!(row < self.nrows, "row {row} out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        RowEntries {
            cols: self.col_idx[lo..hi].iter(),
            vals: self.values[lo..hi].iter(),
        }
    }

    /// Number of stored entries in `row`.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_ptr[row + 1] - self.row_ptr[row]
    }

    /// Iterate over all stored entries as `(row, col, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Sum of the stored values in each row.
    ///
    /// For a rate matrix this is the total exit rate `E(s)` of each state.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    #[expect(clippy::needless_range_loop, reason = "rows pair with dense outputs")]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "mul_vec: length mismatch");
        let mut y = vec![0.0; self.nrows];
        // Block-structured kernel: four rows at a time, each with its own
        // sequential accumulator. Every row still adds its entries in CSR
        // order, so each `y[r]` is bitwise identical to the one-row-at-a-time
        // reference loop (kept in the tests below); the blocking only
        // overlaps the dependency chains of *different* rows, giving the
        // superscalar core four independent fused-multiply chains to retire.
        let mut r = 0usize;
        while r + 4 <= self.nrows {
            let s0 = self.row_ptr[r];
            let e0 = self.row_ptr[r + 1];
            let e1 = self.row_ptr[r + 2];
            let e2 = self.row_ptr[r + 3];
            let e3 = self.row_ptr[r + 4];
            let (c0, v0) = (&self.col_idx[s0..e0], &self.values[s0..e0]);
            let (c1, v1) = (&self.col_idx[e0..e1], &self.values[e0..e1]);
            let (c2, v2) = (&self.col_idx[e1..e2], &self.values[e1..e2]);
            let (c3, v3) = (&self.col_idx[e2..e3], &self.values[e2..e3]);
            let lock = c0.len().min(c1.len()).min(c2.len()).min(c3.len());
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
            for i in 0..lock {
                a0 += v0[i] * x[c0[i]];
                a1 += v1[i] * x[c1[i]];
                a2 += v2[i] * x[c2[i]];
                a3 += v3[i] * x[c3[i]];
            }
            // Ragged tails: keep accumulating term by term into the same
            // accumulator so the per-row addition order is unchanged.
            for i in lock..c0.len() {
                a0 += v0[i] * x[c0[i]];
            }
            for i in lock..c1.len() {
                a1 += v1[i] * x[c1[i]];
            }
            for i in lock..c2.len() {
                a2 += v2[i] * x[c2[i]];
            }
            for i in lock..c3.len() {
                a3 += v3[i] * x[c3[i]];
            }
            y[r] = a0;
            y[r + 1] = a1;
            y[r + 2] = a2;
            y[r + 3] = a3;
            r += 4;
        }
        for rr in r..self.nrows {
            let s = self.row_ptr[rr];
            let e = self.row_ptr[rr + 1];
            let mut acc = 0.0;
            for (c, v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                acc += v * x[*c];
            }
            y[rr] = acc;
        }
        y
    }

    /// Vector–matrix product `y = x·A` (distribution propagation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    #[expect(clippy::needless_range_loop, reason = "rows pair with dense inputs")]
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "vec_mul: length mismatch");
        let mut y = vec![0.0; self.ncols];
        // Scatter kernel with a four-wide unrolled inner loop. Column
        // indices within a CSR row are strictly increasing, so the four
        // updates of one unrolled step always hit four *distinct* `y`
        // entries — reordering them cannot change any individual `y[c]`
        // accumulation order, and the result stays bitwise identical to the
        // plain scatter loop (kept in the tests below). Rows are processed
        // strictly in order because different rows may share columns.
        for r in 0..self.nrows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let s = self.row_ptr[r];
            let e = self.row_ptr[r + 1];
            let (cols, vals) = (&self.col_idx[s..e], &self.values[s..e]);
            let lock = cols.len() & !3;
            let mut i = 0usize;
            while i < lock {
                y[cols[i]] += xr * vals[i];
                y[cols[i + 1]] += xr * vals[i + 1];
                y[cols[i + 2]] += xr * vals[i + 2];
                y[cols[i + 3]] += xr * vals[i + 3];
                i += 4;
            }
            for i in lock..cols.len() {
                y[cols[i]] += xr * vals[i];
            }
        }
        y
    }

    /// The transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.ncols + 1);
        row_ptr.push(0);
        for c in 0..self.ncols {
            row_ptr.push(row_ptr[c] + counts[c]);
        }
        let mut next = row_ptr[..self.ncols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                let k = next[c];
                next[c] += 1;
                col_idx[k] = r;
                values[k] = v;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// A copy with every stored value transformed by `f`.
    ///
    /// Entries mapped to exactly zero are kept structurally; use
    /// [`CooBuilder`] to re-compress if that matters.
    pub fn map_values(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.nrows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for k in lo..hi {
                out.values[k] = f(r, self.col_idx[k], self.values[k]);
            }
        }
        out
    }

    /// A copy scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> CsrMatrix {
        self.map_values(|_, _, v| alpha * v)
    }

    /// Convert to a dense row-major `Vec<Vec<f64>>` (intended for tests and
    /// small direct solves).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, c, v) in self.iter() {
            d[r][c] = v;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn sample() -> CsrMatrix {
        // [ 0.5 0.5 0   ]
        // [ 0.25 0 0.75 ]
        // [ 0.2 0.6 0.2 ]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 0.5).push(0, 1, 0.5);
        b.push(1, 0, 0.25).push(1, 2, 0.75);
        b.push(2, 0, 0.2).push(2, 1, 0.6).push(2, 2, 0.2);
        b.build().unwrap()
    }

    #[test]
    fn build_and_get() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 0.5);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(1, 2), 0.75);
    }

    #[test]
    fn duplicates_merge_and_zeros_drop() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0)
            .push(0, 0, 2.0)
            .push(1, 1, 5.0)
            .push(1, 1, -5.0);
        let m = b.build().unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn out_of_bounds_entry_rejected() {
        let mut b = CooBuilder::new(2, 2);
        b.push(2, 0, 1.0);
        assert!(matches!(
            b.build(),
            Err(BuildError::IndexOutOfBounds { row: 2, .. })
        ));
    }

    #[test]
    fn non_finite_entry_rejected() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, f64::NAN);
        assert!(matches!(
            b.build(),
            Err(BuildError::NonFiniteValue { row: 0, col: 0 })
        ));
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut b = CooBuilder::new(4, 4);
        b.push(3, 0, 1.0);
        let m = b.build().unwrap();
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(3).count(), 1);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn row_iteration_sorted() {
        let mut b = CooBuilder::new(1, 5);
        b.push(0, 4, 4.0).push(0, 1, 1.0).push(0, 3, 3.0);
        let m = b.build().unwrap();
        let row: Vec<_> = m.row(0).collect();
        assert_eq!(row, vec![(1, 1.0), (3, 3.0), (4, 4.0)]);
    }

    #[test]
    fn mul_vec_and_vec_mul() {
        let m = sample();
        // A·x with x = e0.
        assert_eq!(m.mul_vec(&[1.0, 0.0, 0.0]), vec![0.5, 0.25, 0.2]);
        // x·A with x = e0 (one DTMC step from state 0).
        assert_eq!(m.vec_mul(&[1.0, 0.0, 0.0]), vec![0.5, 0.5, 0.0]);
    }

    #[test]
    fn transient_example_2_2_of_the_thesis() {
        // p(3) = p(0) · P^3 for the DTMC of Figure 2.1.
        let m = sample();
        let mut p = vec![1.0, 0.0, 0.0];
        for _ in 0..3 {
            p = m.vec_mul(&p);
        }
        assert!((p[0] - 0.325).abs() < 1e-12);
        assert!((p[1] - 0.4125).abs() < 1e-12);
        assert!((p[2] - 0.2625).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 1), 0.25);
        assert_eq!(t.get(2, 1), 0.75);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_sums_are_exit_rates() {
        let m = sample();
        let sums = m.row_sums();
        for s in sums {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        let z = CsrMatrix::zeros(2, 3);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.mul_vec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn map_and_scale() {
        let m = sample().scaled(2.0);
        assert_eq!(m.get(1, 2), 1.5);
        let m2 = m.map_values(|r, c, v| if r == c { 0.0 } else { v });
        assert_eq!(m2.get(0, 0), 0.0);
        assert_eq!(m2.get(0, 1), 1.0);
    }

    #[test]
    fn to_dense_matches() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[1], vec![0.25, 0.0, 0.75]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(3, 0);
    }

    fn random_matrix(rng: &mut Xoshiro256StarStar) -> CsrMatrix {
        let r = 1 + rng.range_usize(7);
        let c = 1 + rng.range_usize(7);
        let mut b = CooBuilder::new(r, c);
        for _ in 0..rng.range_usize(24) {
            b.push(
                rng.range_usize(r),
                rng.range_usize(c),
                rng.range_f64(-10.0, 10.0),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC5A1);
        for _ in 0..64 {
            let m = random_matrix(&mut rng);
            assert_eq!(m.transpose().transpose(), m);
        }
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC5A2);
        for seed in 0..64u64 {
            let m = random_matrix(&mut rng);
            let x: Vec<f64> = (0..m.ncols())
                .map(|i| ((seed as f64) + i as f64).sin())
                .collect();
            let y = m.mul_vec(&x);
            let d = m.to_dense();
            for r in 0..m.nrows() {
                let expect: f64 = (0..m.ncols()).map(|c| d[r][c] * x[c]).sum();
                assert!((y[r] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn vec_mul_agrees_with_transpose_mul_vec() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC5A3);
        for seed in 0..64u64 {
            let m = random_matrix(&mut rng);
            let x: Vec<f64> = (0..m.nrows())
                .map(|i| ((seed as f64) * 0.37 + i as f64).cos())
                .collect();
            let a = m.vec_mul(&x);
            let b = m.transpose().mul_vec(&x);
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn row_sums_match_iteration() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC5A4);
        for _ in 0..64 {
            let m = random_matrix(&mut rng);
            let sums = m.row_sums();
            for (r, total) in sums.iter().enumerate() {
                let s: f64 = m.row(r).map(|(_, v)| v).sum();
                assert!((total - s).abs() < 1e-12);
            }
        }
    }

    // ----- blocked-kernel property tests -------------------------------
    //
    // The four-wide blocked `mul_vec` and the unrolled `vec_mul` scatter
    // promise *bitwise* equality with the straightforward reference loops
    // below — that is what lets every engine adopt the fast kernels without
    // perturbing a single probability.

    /// The pre-blocking `mul_vec`: one row at a time, sequential accumulator.
    fn reference_mul_vec(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.nrows()];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in m.row(r) {
                acc += v * x[c];
            }
            *yr = acc;
        }
        y
    }

    /// The pre-blocking `vec_mul`: rows in order, plain scatter loop.
    fn reference_vec_mul(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.ncols()];
        for (r, &xr) in x.iter().enumerate().take(m.nrows()) {
            if xr == 0.0 {
                continue;
            }
            for (c, v) in m.row(r) {
                y[c] += xr * v;
            }
        }
        y
    }

    /// Larger random matrices than [`random_matrix`]: enough rows that the
    /// four-wide blocks, their ragged tails, and the row remainder
    /// (`nrows % 4 ≠ 0`) all get exercised, with row populations varying
    /// from empty to dense.
    fn random_blocked_matrix(rng: &mut Xoshiro256StarStar) -> CsrMatrix {
        let r = 1 + rng.range_usize(40);
        let c = 1 + rng.range_usize(24);
        let mut b = CooBuilder::new(r, c);
        for row in 0..r {
            // Leave roughly a fifth of the rows structurally empty.
            if rng.range_usize(5) == 0 {
                continue;
            }
            for _ in 0..rng.range_usize(c + 1) {
                b.push(row, rng.range_usize(c), rng.range_f64(-10.0, 10.0));
            }
        }
        b.build().unwrap()
    }

    fn assert_bits_eq(label: &str, seed: u64, got: &[f64], expect: &[f64]) {
        assert_eq!(got.len(), expect.len(), "{label}: seed {seed}");
        for (i, (g, e)) in got.iter().zip(expect).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{label}: seed {seed}, index {i}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn blocked_mul_vec_is_bitwise_reference_on_random_matrices() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB10C);
        for seed in 0..64u64 {
            let m = random_blocked_matrix(&mut rng);
            let x: Vec<f64> = (0..m.ncols())
                .map(|i| rng.range_f64(-1.0, 1.0) * (1.0 + i as f64))
                .collect();
            assert_bits_eq("mul_vec", seed, &m.mul_vec(&x), &reference_mul_vec(&m, &x));
        }
    }

    #[test]
    fn unrolled_vec_mul_is_bitwise_reference_on_random_matrices() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB10D);
        for seed in 0..64u64 {
            let m = random_blocked_matrix(&mut rng);
            let x: Vec<f64> = (0..m.nrows())
                .map(|i| {
                    // Mix in exact zeros so the scatter's skip path runs.
                    if i % 3 == 0 {
                        0.0
                    } else {
                        rng.range_f64(-2.0, 2.0)
                    }
                })
                .collect();
            assert_bits_eq("vec_mul", seed, &m.vec_mul(&x), &reference_vec_mul(&m, &x));
        }
    }

    #[test]
    fn blocked_kernels_handle_edge_shapes() {
        // Single row (no full block), empty rows inside a block, and a row
        // count that is not a multiple of the block width.
        let single = {
            let mut b = CooBuilder::new(1, 5);
            b.push(0, 0, 1.0).push(0, 3, -2.0).push(0, 4, 0.5);
            b.build().unwrap()
        };
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_bits_eq(
            "single-row",
            0,
            &single.mul_vec(&x),
            &reference_mul_vec(&single, &x),
        );

        let ragged = {
            // Seven rows (one full block + three remainder rows); rows 1, 2
            // and 5 empty; row lengths 5, 0, 0, 1, 2, 0, 3 — none a
            // multiple of the block width.
            let mut b = CooBuilder::new(7, 6);
            for c in 0..5 {
                b.push(0, c, 0.1 + c as f64);
            }
            b.push(3, 2, -7.0);
            b.push(4, 0, 3.0).push(4, 5, -1.5);
            b.push(6, 1, 0.25).push(6, 3, 0.5).push(6, 4, 1.0);
            b.build().unwrap()
        };
        let x6 = [0.5, -1.0, 2.0, 0.0, 1.0, -3.0];
        let x7 = [1.0, 0.0, -1.0, 2.0, 0.5, 0.0, -0.25];
        assert_bits_eq(
            "ragged mul_vec",
            0,
            &ragged.mul_vec(&x6),
            &reference_mul_vec(&ragged, &x6),
        );
        assert_bits_eq(
            "ragged vec_mul",
            0,
            &ragged.vec_mul(&x7),
            &reference_vec_mul(&ragged, &x7),
        );

        let empty = CsrMatrix::zeros(9, 4);
        assert_bits_eq("all-empty mul_vec", 0, &empty.mul_vec(&[1.0; 4]), &[0.0; 9]);
        assert_bits_eq("all-empty vec_mul", 0, &empty.vec_mul(&[1.0; 9]), &[0.0; 4]);
    }
}
