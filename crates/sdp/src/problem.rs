use crate::{Block, BlockMatrix, BlockShape, SdpError};
use snbc_linalg::Matrix;

/// A sparse symmetric coefficient entry: value `v` at `(row, col)` of a block
/// (mirrored at `(col, row)` when off-diagonal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub block: usize,
    pub row: usize,
    pub col: usize,
    pub value: f64,
}

/// A standard-form semidefinite program
/// `min Σⱼ⟨Cⱼ, Xⱼ⟩  s.t.  Σⱼ⟨A_{kj}, Xⱼ⟩ = b_k, Xⱼ ⪰ 0`.
///
/// Costs and constraint coefficient matrices are stored sparsely as symmetric
/// entries; the SOS layer generates them directly from monomial products.
///
/// # Example
///
/// ```
/// use snbc_sdp::{BlockShape, SdpProblem};
///
/// let mut p = SdpProblem::new(vec![BlockShape::Dense(2), BlockShape::Diag(1)]);
/// p.set_cost(1, 0, 0, 1.0);           // minimize the scalar in the diag block
/// let k = p.add_constraint(2.0);      // ⟨A_k, X⟩ = 2
/// p.set_coefficient(k, 0, 0, 0, 1.0); // X₀₀ of the dense block
/// p.set_coefficient(k, 1, 0, 0, 1.0); // plus the diag scalar
/// assert_eq!(p.num_constraints(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SdpProblem {
    shapes: Vec<BlockShape>,
    cost: Vec<Entry>,
    /// Constraint k occupies `constraints[k]`.
    constraints: Vec<Vec<Entry>>,
    b: Vec<f64>,
}

impl SdpProblem {
    /// Creates a problem with the given block structure and no constraints.
    pub fn new(shapes: Vec<BlockShape>) -> Self {
        SdpProblem {
            shapes,
            cost: Vec::new(),
            constraints: Vec::new(),
            b: Vec::new(),
        }
    }

    /// Block shapes of the variable.
    pub fn shapes(&self) -> &[BlockShape] {
        &self.shapes
    }

    /// Number of equality constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Right-hand sides `b`.
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// Adds a symmetric cost entry `⟨C, X⟩ += value·(X_{rc} + X_{cr})/…`
    /// (mirrored automatically for off-diagonal positions).
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the block.
    pub fn set_cost(&mut self, block: usize, row: usize, col: usize, value: f64) {
        self.check_pos(block, row, col);
        let (row, col) = if row <= col { (row, col) } else { (col, row) };
        self.cost.push(Entry {
            block,
            row,
            col,
            value,
        });
    }

    /// Appends a new constraint with right-hand side `rhs`; returns its index.
    pub fn add_constraint(&mut self, rhs: f64) -> usize {
        self.constraints.push(Vec::new());
        self.b.push(rhs);
        self.constraints.len() - 1
    }

    /// Adds `delta` to the right-hand side of constraint `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn add_rhs(&mut self, k: usize, delta: f64) {
        self.b[k] += delta;
    }

    /// Adds a symmetric coefficient entry to constraint `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or the position is out of range.
    pub fn set_coefficient(&mut self, k: usize, block: usize, row: usize, col: usize, value: f64) {
        assert!(k < self.constraints.len(), "constraint index out of range");
        self.check_pos(block, row, col);
        let (row, col) = if row <= col { (row, col) } else { (col, row) };
        self.constraints[k].push(Entry {
            block,
            row,
            col,
            value,
        });
    }

    fn check_pos(&self, block: usize, row: usize, col: usize) {
        let shape = self.shapes[block];
        match shape {
            BlockShape::Dense(n) => {
                assert!(row < n && col < n, "entry outside dense block of order {n}");
            }
            BlockShape::Diag(n) => {
                assert!(
                    row == col && row < n,
                    "diag block entries must be on the diagonal (order {n})"
                );
            }
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SdpError::Invalid`] for empty problems.
    pub fn validate(&self) -> Result<(), SdpError> {
        if self.shapes.is_empty() {
            return Err(SdpError::Invalid("no variable blocks".into()));
        }
        if self.constraints.is_empty() {
            return Err(SdpError::Invalid("no constraints".into()));
        }
        if self.shapes.iter().any(|s| s.order() == 0) {
            return Err(SdpError::Invalid("zero-order block".into()));
        }
        Ok(())
    }

    /// The cost as a block matrix.
    pub fn cost_matrix(&self) -> BlockMatrix {
        let mut c = BlockMatrix::zeros(&self.shapes);
        accumulate(&mut c, &self.cost, 1.0);
        c
    }

    /// Constraint `k` as a block matrix.
    pub fn constraint_matrix(&self, k: usize) -> BlockMatrix {
        let mut a = BlockMatrix::zeros(&self.shapes);
        accumulate(&mut a, &self.constraints[k], 1.0);
        a
    }

    /// Evaluates `⟨A_k, X⟩` using the sparse entries.
    pub fn constraint_dot(&self, k: usize, x: &BlockMatrix) -> f64 {
        entries_dot(&self.constraints[k], x)
    }

    /// Evaluates `⟨C, X⟩`.
    pub fn cost_dot(&self, x: &BlockMatrix) -> f64 {
        entries_dot(&self.cost, x)
    }

    /// Applies the adjoint `Aᵀy`: `Σ_k y_k A_k` accumulated into `out` with
    /// coefficient `alpha`.
    pub fn adjoint_accumulate(&self, y: &[f64], alpha: f64, out: &mut BlockMatrix) {
        for (k, entries) in self.constraints.iter().enumerate() {
            // Sparse skip: a zero multiplier contributes nothing exactly.
            if y[k] == 0.0 { // audit:allow(float-eq)
                continue;
            }
            accumulate(out, entries, alpha * y[k]);
        }
    }

    /// Computes `A(X)` into a vector.
    pub fn apply(&self, x: &BlockMatrix) -> Vec<f64> {
        (0..self.num_constraints())
            .map(|k| self.constraint_dot(k, x))
            .collect()
    }

    pub(crate) fn constraint_entries(&self, k: usize) -> &[Entry] {
        &self.constraints[k]
    }

}

/// Adds `alpha` times the symmetric entries into a block matrix.
pub(crate) fn accumulate(out: &mut BlockMatrix, entries: &[Entry], alpha: f64) {
    for e in entries {
        match out.block_mut(e.block) {
            Block::Dense(m) => {
                m[(e.row, e.col)] += alpha * e.value;
                if e.row != e.col {
                    m[(e.col, e.row)] += alpha * e.value;
                }
            }
            Block::Diag(d) => {
                d[e.row] += alpha * e.value;
            }
        }
    }
}

/// `⟨A, X⟩` where `A` is given by symmetric entries.
pub(crate) fn entries_dot(entries: &[Entry], x: &BlockMatrix) -> f64 {
    let mut acc = 0.0;
    for e in entries {
        match x.block(e.block) {
            Block::Dense(m) => {
                let factor = if e.row == e.col { 1.0 } else { 2.0 };
                acc += factor * e.value * m[(e.row, e.col)];
            }
            Block::Diag(d) => {
                acc += e.value * d[e.row];
            }
        }
    }
    acc
}

/// `A·X` for a sparse symmetric `A` given by its entries in one dense block,
/// written into the rows of a caller-provided `n×n` buffer that `A` touches.
/// `rows` lists those rows (every `e.row` and `e.col`); they are zeroed here,
/// and every other row of the product is zero and left untouched, so
/// per-worker scratch can be reused across Schur complement rows.
pub(crate) fn sparse_times_dense_into(
    entries: &[Entry],
    rows: &[usize],
    x: &Matrix,
    out: &mut Matrix,
) {
    for &r in rows {
        out.row_mut(r).fill(0.0);
    }
    for e in entries {
        // A has value v at (row, col) and (col, row).
        let v = e.value;
        {
            let xr = x.row(e.col);
            let or = out.row_mut(e.row);
            for (o, xv) in or.iter_mut().zip(xr) {
                *o += v * xv;
            }
        }
        if e.row != e.col {
            let xr = x.row(e.row);
            let or = out.row_mut(e.col);
            for (o, xv) in or.iter_mut().zip(xr) {
                *o += v * xv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_round_trip() {
        let mut p = SdpProblem::new(vec![BlockShape::Dense(2), BlockShape::Diag(2)]);
        p.set_cost(0, 0, 1, 0.5);
        p.set_cost(1, 1, 1, 2.0);
        let k = p.add_constraint(3.0);
        p.set_coefficient(k, 0, 0, 0, 1.0);
        p.set_coefficient(k, 1, 0, 0, -1.0);

        let c = p.cost_matrix();
        assert_eq!(c.block(0).as_dense().unwrap()[(0, 1)], 0.5);
        assert_eq!(c.block(0).as_dense().unwrap()[(1, 0)], 0.5);
        assert_eq!(c.block(1).as_diag().unwrap()[1], 2.0);

        let x = BlockMatrix::identity(p.shapes());
        assert_eq!(p.constraint_dot(k, &x), 0.0); // 1·1 + (−1)·1
        assert_eq!(p.cost_dot(&x), 2.0); // off-diagonal doesn't hit identity
    }

    #[test]
    fn constraint_dot_counts_off_diagonal_twice() {
        let mut p = SdpProblem::new(vec![BlockShape::Dense(2)]);
        let k = p.add_constraint(0.0);
        p.set_coefficient(k, 0, 0, 1, 1.0);
        let mut x = BlockMatrix::zeros(p.shapes());
        if let Block::Dense(m) = x.block_mut(0) {
            m[(0, 1)] = 3.0;
            m[(1, 0)] = 3.0;
        }
        // ⟨A, X⟩ = 2·1·3 = 6 for the mirrored entry.
        assert_eq!(p.constraint_dot(k, &x), 6.0);
        let a = p.constraint_matrix(k);
        assert_eq!(a.dot(&x).unwrap(), 6.0);
    }

    #[test]
    fn adjoint_matches_sum() {
        let mut p = SdpProblem::new(vec![BlockShape::Dense(2)]);
        let k0 = p.add_constraint(0.0);
        p.set_coefficient(k0, 0, 0, 0, 1.0);
        let k1 = p.add_constraint(0.0);
        p.set_coefficient(k1, 0, 1, 1, 1.0);
        let mut out = BlockMatrix::zeros(p.shapes());
        p.adjoint_accumulate(&[2.0, -3.0], 1.0, &mut out);
        assert_eq!(out.block(0).as_dense().unwrap()[(0, 0)], 2.0);
        assert_eq!(out.block(0).as_dense().unwrap()[(1, 1)], -3.0);
    }

    #[test]
    fn sparse_times_dense_symmetric() {
        let entries = vec![Entry {
            block: 0,
            row: 0,
            col: 1,
            value: 2.0,
        }];
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut prod = Matrix::from_rows(&[&[9.0, 9.0], &[9.0, 9.0]]);
        sparse_times_dense_into(&entries, &[0, 1], &x, &mut prod);
        // A = [[0,2],[2,0]]; A·X = [[6,8],[2,4]].
        assert_eq!(prod[(0, 0)], 6.0);
        assert_eq!(prod[(0, 1)], 8.0);
        assert_eq!(prod[(1, 0)], 2.0);
        assert_eq!(prod[(1, 1)], 4.0);
    }

    #[test]
    fn validate_catches_empty() {
        let p = SdpProblem::new(vec![]);
        assert!(p.validate().is_err());
        let p2 = SdpProblem::new(vec![BlockShape::Dense(2)]);
        assert!(p2.validate().is_err()); // no constraints
    }

    #[test]
    #[should_panic(expected = "diag block entries")]
    fn diag_off_diagonal_panics() {
        let mut p = SdpProblem::new(vec![BlockShape::Diag(2)]);
        let k = p.add_constraint(0.0);
        p.set_coefficient(k, 0, 0, 1, 1.0);
    }
}
