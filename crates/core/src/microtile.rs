//! Micro-tiles and PIT rules (paper §3.1–3.2).
//!
//! Theorem 1 of the paper: *an axis is a PIT-axis iff all computation on
//! it is commutative and associative.* A spatial axis (one the output
//! keeps) only permutes the output, which `SWrite` undoes; a reduction
//! axis qualifies when its reduction is commutative and associative, as a
//! sum is; an axis inside a derived index such as convolution's `x + i`
//! never does. Table 1 of the paper applies it to common operators:
//!
//! | Operator      | Expression                                  | PIT-axes      |
//! |---------------|---------------------------------------------|---------------|
//! | ReduceSum     | `C[p] += A[p,l]`                            | `p, l`        |
//! | Vector add    | `C[p] = A[p] + B[p]`                        | `p`           |
//! | MatMul        | `C[m,n] += A[m,k] * B[k,n]`                 | `m, n, k`     |
//! | BatchMatMul   | `C[b,m,n] += A[b,m,k] * B[b,k,n]`           | `b, m, n, k`  |
//! | Convolution   | `C[n,f,x,y] += A[n,m,x+i,y+j] * B[f,m,i,j]` | `n, m, f`     |
//!
//! Every operator this reproduction runs is a matmul, so its PIT-axes are
//! the three [`MatmulAxis`] variants. [`PitRule::derive`] gives each one's
//! micro-tile for a dense tile `tile = (m, k, n)`:
//!
//! | Axis | Kind            | Micro-tile    | Merged by                          |
//! |------|-----------------|---------------|------------------------------------|
//! | `m`  | spatial         | `(1, tile.k)` | A-sparse selection (rows of `A`)   |
//! | `k`  | reduction (sum) | `(tile.m, 1)` | A-sparse selection (cols of `A`)   |
//! | `n`  | spatial         | `(tile.m, 1)` | nothing: `A[m,k]` has no `n` axis  |
//!
//! Algorithm 1 ([`crate::selection::select_kernel`]) sparsifies `A`, so it
//! merges along `m` or `k` only; its row-segment candidate is a `k`-axis
//! rule with a `(1, w)` micro-tile.

use pit_gpusim::cost::TileDims;

/// A micro-tile: the minimum data unit PIT covers non-zeros with.
///
/// Its shape is chosen so that one micro-tile saturates at least one
/// global-memory transaction (§3.1: 1×8 fp32 on a 32-byte transaction),
/// which is what makes sparse gathers as efficient as dense streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroTile {
    /// Height (rows) of the micro-tile on the sparse operand.
    pub h: usize,
    /// Width (columns) of the micro-tile on the sparse operand.
    pub w: usize,
}

impl MicroTile {
    /// Convenience constructor.
    pub const fn new(h: usize, w: usize) -> Self {
        MicroTile { h, w }
    }
}

impl std::fmt::Display for MicroTile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.h, self.w)
    }
}

/// The PIT-axis of a (possibly batched) matrix multiplication
/// `C[m,n] += A[m,k]·B[k,n]` that a rule permutes along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatmulAxis {
    /// Spatial axis `m`: permute rows of `A` (and of `C`).
    M,
    /// Reduction axis `k`: permute columns of `A` with rows of `B`.
    K,
    /// Spatial axis `n`: permute columns of `B` (and of `C`).
    N,
}

impl MatmulAxis {
    /// Axis name as used in the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            MatmulAxis::M => "m",
            MatmulAxis::K => "k",
            MatmulAxis::N => "n",
        }
    }
}

/// A PIT rule: the combination of a PIT-axis, a micro-tile shape and a
/// dense computation tile (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PitRule {
    /// The axis along which micro-tiles are merged.
    pub axis: MatmulAxis,
    /// The micro-tile shape on the sparse operand's `(m, k)` plane (for
    /// `A`-sparse rules) or the output's `(m, n)` plane (for output-sparse
    /// rules).
    pub micro: MicroTile,
    /// The dense computation tile micro-tiles are merged into.
    pub tile: TileDims,
    /// Whether the dense tile runs on the Tensor-Core path.
    pub tensor_core: bool,
}

impl PitRule {
    /// Derives the micro-tile for merging along `axis` with dense tile
    /// `tile`. Following §3.2, the micro-tile is 1 on the PIT-axis and
    /// matches the dense tile on the other axis of the sparse plane.
    pub fn derive(axis: MatmulAxis, tile: TileDims, tensor_core: bool) -> PitRule {
        let micro = match axis {
            // Merging rows: micro-tile is one row of a k-slice.
            MatmulAxis::M => MicroTile::new(1, tile.k),
            // Merging the reduction axis: micro-tile is one column of an
            // m-strip (Table 3's (16,1)/(8,1)/(32,1) micro-tiles).
            MatmulAxis::K => MicroTile::new(tile.m, 1),
            // Merging output columns: micro-tile is one column of an
            // m-strip of C.
            MatmulAxis::N => MicroTile::new(tile.m, 1),
        };
        PitRule {
            axis,
            micro,
            tile,
            tensor_core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_axis_micro_is_row_slice() {
        let r = PitRule::derive(MatmulAxis::M, TileDims::new(32, 64, 32), false);
        assert_eq!(r.micro, MicroTile::new(1, 64));
    }

    #[test]
    fn k_axis_micro_matches_table3() {
        // Table 3: micro-tile (16,1) derives from dense tile [16,32]x[32,128]
        // by PIT on the second axis (k) of the first input.
        let r = PitRule::derive(MatmulAxis::K, TileDims::new(16, 32, 128), false);
        assert_eq!(r.micro, MicroTile::new(16, 1));
        let r2 = PitRule::derive(MatmulAxis::K, TileDims::new(32, 64, 32), false);
        assert_eq!(r2.micro, MicroTile::new(32, 1));
    }
}
