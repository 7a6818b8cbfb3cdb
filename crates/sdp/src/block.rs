use crate::error::SdpError;
use snbc_linalg::{LinalgError, Matrix};

/// Shape of one variable block in a block-diagonal SDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockShape {
    /// A dense symmetric PSD block of the given order.
    Dense(usize),
    /// A diagonal (linear-cone) block of the given length; equivalent to that
    /// many scalar `≥ 0` variables.
    Diag(usize),
}

impl BlockShape {
    /// Order of the block (matrix dimension / vector length).
    pub fn order(self) -> usize {
        match self {
            BlockShape::Dense(n) | BlockShape::Diag(n) => n,
        }
    }
}

/// One block of a [`BlockMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Dense symmetric block.
    Dense(Matrix),
    /// Diagonal block (only the diagonal is stored).
    Diag(Vec<f64>),
}

impl Block {
    /// Zero block of the given shape.
    pub fn zeros(shape: BlockShape) -> Self {
        match shape {
            BlockShape::Dense(n) => Block::Dense(Matrix::zeros(n, n)),
            BlockShape::Diag(n) => Block::Diag(vec![0.0; n]),
        }
    }

    /// Identity block of the given shape.
    pub fn identity(shape: BlockShape) -> Self {
        match shape {
            BlockShape::Dense(n) => Block::Dense(Matrix::identity(n)),
            BlockShape::Diag(n) => Block::Diag(vec![1.0; n]),
        }
    }

    /// Order of the block.
    pub fn order(&self) -> usize {
        match self {
            Block::Dense(m) => m.nrows(),
            Block::Diag(d) => d.len(),
        }
    }

    /// Frobenius inner product with another block of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`SdpError::BlockMismatch`] on shape mismatch.
    pub fn dot(&self, other: &Block) -> Result<f64, SdpError> {
        match (self, other) {
            (Block::Dense(a), Block::Dense(b)) => Ok(a.dot(b)),
            (Block::Diag(a), Block::Diag(b)) if a.len() == b.len() => {
                Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
            }
            _ => Err(SdpError::BlockMismatch { op: "dot" }),
        }
    }

    /// `self + α·other`, in place.
    ///
    /// # Errors
    ///
    /// Returns [`SdpError::BlockMismatch`] on shape mismatch (the block is
    /// left untouched).
    pub fn axpy(&mut self, alpha: f64, other: &Block) -> Result<(), SdpError> {
        match (self, other) {
            (Block::Dense(a), Block::Dense(b)) if a.nrows() == b.nrows() => {
                let bs = b.as_slice();
                for (x, y) in a.as_mut_slice().iter_mut().zip(bs) {
                    *x += alpha * y;
                }
                Ok(())
            }
            (Block::Diag(a), Block::Diag(b)) if a.len() == b.len() => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += alpha * y;
                }
                Ok(())
            }
            _ => Err(SdpError::BlockMismatch { op: "axpy" }),
        }
    }

    /// Scales in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        match self {
            Block::Dense(a) => {
                for x in a.as_mut_slice() {
                    *x *= alpha;
                }
            }
            Block::Diag(a) => {
                for x in a.iter_mut() {
                    *x *= alpha;
                }
            }
        }
    }

    /// Trace of the block.
    pub fn trace(&self) -> f64 {
        match self {
            Block::Dense(a) => a.trace(),
            Block::Diag(a) => a.iter().sum(),
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        match self {
            Block::Dense(a) => a.norm_fro(),
            Block::Diag(a) => a.iter().map(|v| v * v).sum::<f64>().sqrt(),
        }
    }

    /// Smallest eigenvalue (Jacobi for dense blocks, min for diagonal).
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures on dense blocks.
    pub fn min_eigenvalue(&self) -> Result<f64, LinalgError> {
        match self {
            Block::Dense(a) => a.min_eigenvalue(),
            Block::Diag(a) => Ok(a.iter().copied().fold(f64::INFINITY, f64::min)),
        }
    }

    /// Borrows the dense matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SdpError::BlockMismatch`] if the block is diagonal.
    pub fn as_dense(&self) -> Result<&Matrix, SdpError> {
        match self {
            Block::Dense(a) => Ok(a),
            Block::Diag(_) => Err(SdpError::BlockMismatch { op: "as_dense" }),
        }
    }

    /// Borrows the diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`SdpError::BlockMismatch`] if the block is dense.
    pub fn as_diag(&self) -> Result<&[f64], SdpError> {
        match self {
            Block::Diag(a) => Ok(a),
            Block::Dense(_) => Err(SdpError::BlockMismatch { op: "as_diag" }),
        }
    }
}

/// A block-diagonal symmetric matrix: the variable/cost/iterate type of the
/// SDP solver.
///
/// # Example
///
/// ```
/// use snbc_sdp::{BlockMatrix, BlockShape};
///
/// let shapes = [BlockShape::Dense(2), BlockShape::Diag(3)];
/// let x = BlockMatrix::identity(&shapes);
/// assert_eq!(x.trace(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMatrix {
    blocks: Vec<Block>,
}

impl BlockMatrix {
    /// Zero matrix with the given block shapes.
    pub fn zeros(shapes: &[BlockShape]) -> Self {
        BlockMatrix {
            blocks: shapes.iter().map(|&s| Block::zeros(s)).collect(),
        }
    }

    /// Identity matrix with the given block shapes.
    pub fn identity(shapes: &[BlockShape]) -> Self {
        BlockMatrix {
            blocks: shapes.iter().map(|&s| Block::identity(s)).collect(),
        }
    }

    /// Builds from explicit blocks.
    pub fn from_blocks(blocks: Vec<Block>) -> Self {
        BlockMatrix { blocks }
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Mutable access to the blocks.
    pub fn blocks_mut(&mut self) -> &mut [Block] {
        &mut self.blocks
    }

    /// Block `j`.
    pub fn block(&self, j: usize) -> &Block {
        &self.blocks[j]
    }

    /// Mutable block `j`.
    pub fn block_mut(&mut self, j: usize) -> &mut Block {
        &mut self.blocks[j]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Sum of block orders (the ambient dimension `N`).
    pub fn total_order(&self) -> usize {
        self.blocks.iter().map(Block::order).sum()
    }

    /// Frobenius inner product.
    ///
    /// # Errors
    ///
    /// Returns [`SdpError::BlockMismatch`] on shape mismatch.
    pub fn dot(&self, other: &BlockMatrix) -> Result<f64, SdpError> {
        if self.blocks.len() != other.blocks.len() {
            return Err(SdpError::BlockMismatch { op: "dot" });
        }
        let mut sum = 0.0;
        for (a, b) in self.blocks.iter().zip(&other.blocks) {
            sum += a.dot(b)?;
        }
        Ok(sum)
    }

    /// `self += α·other`.
    ///
    /// # Errors
    ///
    /// Returns [`SdpError::BlockMismatch`] on shape mismatch; blocks before
    /// the mismatching one will already have been updated.
    pub fn axpy(&mut self, alpha: f64, other: &BlockMatrix) -> Result<(), SdpError> {
        if self.blocks.len() != other.blocks.len() {
            return Err(SdpError::BlockMismatch { op: "axpy" });
        }
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            a.axpy(alpha, b)?;
        }
        Ok(())
    }

    /// Scales all blocks in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        for b in &mut self.blocks {
            b.scale_mut(alpha);
        }
    }

    /// Trace over all blocks.
    pub fn trace(&self) -> f64 {
        self.blocks.iter().map(Block::trace).sum()
    }

    /// Frobenius norm over all blocks.
    pub fn norm_fro(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                let n = b.norm_fro();
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Smallest eigenvalue across all blocks.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn min_eigenvalue(&self) -> Result<f64, LinalgError> {
        let mut min = f64::INFINITY;
        for b in &self.blocks {
            min = min.min(b.min_eigenvalue()?);
        }
        Ok(min)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn identity_trace_counts_orders() {
        let shapes = [BlockShape::Dense(3), BlockShape::Diag(2)];
        let x = BlockMatrix::identity(&shapes);
        assert_eq!(x.trace(), 5.0);
        assert_eq!(x.total_order(), 5);
        assert_eq!(x.num_blocks(), 2);
    }

    #[test]
    fn dot_and_axpy() {
        let shapes = [BlockShape::Dense(2), BlockShape::Diag(2)];
        let mut a = BlockMatrix::identity(&shapes);
        let b = BlockMatrix::identity(&shapes);
        assert_eq!(a.dot(&b).unwrap(), 4.0);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.trace(), 12.0);
        a.scale_mut(0.5);
        assert_eq!(a.trace(), 6.0);
    }

    #[test]
    fn min_eigenvalue_across_blocks() {
        let mut x = BlockMatrix::identity(&[BlockShape::Dense(2), BlockShape::Diag(2)]);
        if let Block::Diag(d) = x.block_mut(1) {
            d[1] = -3.0;
        }
        assert_eq!(x.min_eigenvalue().unwrap(), -3.0);
    }

    #[test]
    fn mismatched_kinds_error() {
        let a = Block::identity(BlockShape::Dense(2));
        let b = Block::identity(BlockShape::Diag(2));
        assert_eq!(a.dot(&b), Err(SdpError::BlockMismatch { op: "dot" }));
        let mut a2 = a.clone();
        assert_eq!(
            a2.axpy(1.0, &b),
            Err(SdpError::BlockMismatch { op: "axpy" })
        );
        assert!(a.as_diag().is_err());
        assert!(b.as_dense().is_err());
        // BlockMatrix level: count mismatch is also an error, not a panic.
        let x = BlockMatrix::identity(&[BlockShape::Dense(2)]);
        let y = BlockMatrix::identity(&[BlockShape::Dense(2), BlockShape::Diag(1)]);
        assert!(x.dot(&y).is_err());
    }
}
