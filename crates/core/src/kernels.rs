//! The generated PIT sparse kernels (paper Figure 7's template:
//! `SRead → DenseTileImpl → SWrite`).
//!
//! Three kernel shapes cover the paper's evaluation:
//!
//! - [`spmm_m_axis`]: `A` row-sparse (dynamic sequence length, MoE inputs)
//!   — merge non-zero *rows* into dense tiles (Figure 4, first example);
//! - [`spmm_k_axis`]: `A` fine-grained/column-sparse (ReLU activations,
//!   32×1-granular weights) — merge non-zero *k columns* per row-strip
//!   (Figure 4, second example);
//! - [`sdd_m_axis`]: output-sparse `C = (A·B) ⊙ mask` (dynamic sparse
//!   attention) — compute only covered output micro-tiles, merged along m.
//!
//! Plus [`moe_gemm`], the fused multi-expert GEMM (an instance of the
//! multi-axis `(b, m)` rule the paper sketches in §3.2 and uses for MoE):
//! every expert's gathered tokens become row-merged tiles of one kernel
//! launch; and [`spmm_row_segments`], the `(1, w)` row-segment kernel.
//!
//! Each kernel computes the real `f32` result in one pass over the
//! operands' original buffers, as the modelled GPU does (zero-copy,
//! §3.3): SRead is index arithmetic into `A` and `B` — a gathered row or
//! k-column is an offset, never a packed copy — the dense tile is
//! [`mac_rows`], and SWrite writes the rows of `C` in place.
//!
//! The dense tile reuses each loaded element of `B` across up to four
//! rows of `C` that share a term list: a k-strip's rows (its gathered
//! columns), the listed rows of [`spmm_m_axis`] and one expert's tokens
//! of [`moe_gemm`] (both over the full `k`), through
//! [`pit_kernels::dense::gemm_rows`]. Rows left over from a group of
//! four, and a group that repeats a row, go one at a time, as do the
//! rows of [`spmm_row_segments`] and [`sdd_m_axis`], whose term lists
//! differ from row to row. Blocking never changes an element's sum: each
//! output element still accumulates its non-zero terms one `+=` at a
//! time in ascending `k` (for [`spmm_k_axis`], in the index's
//! within-strip order, which the detector emits ascending), with no
//! fused multiply-add, and the AVX2 instance of the MAC that x86 CPUs run
//! performs the same operations as the portable one. So each kernel's
//! output equals `pit_tensor::ops::matmul` on the same operands exactly.
//! Modelled latency and waste are reported in [`KernelStats`].

use crate::detector::{scan_strips, MicroTileIndex};
use crate::microtile::MicroTile;
use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, KernelStats};
use pit_kernels::dense::{gemm_rows, mac_rows, matmul_dims};
use pit_kernels::KernelOutput;
use pit_sparse::Mask;
use pit_tensor::{DType, Tensor, TensorError};

/// `C[M,N] = A[M,K]·B[K,N]` where only `rows` of `A` are non-zero: each
/// listed row of `A` (SRead on the m-axis) is multiplied through the dense
/// tile and written to the same row of `C` (SWrite); unlisted rows of `C`
/// are zero. Rows may be in any order — permutation invariance of the
/// spatial m-axis guarantees the result — and a repeated row is written
/// once.
///
/// Returns [`TensorError::IndexOutOfBounds`] for a row `≥ M`.
pub fn spmm_m_axis(
    cost: &CostModel,
    a: &Tensor,
    b: &Tensor,
    rows: &[u32],
    tile: TileDims,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let listed = rows
        .iter()
        .map(|&r| bounded(r as usize, m, 0))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Tensor::zeros([m, n]);
    gemm_rows(out.data_mut(), a.data(), b.data(), (k, n), listed, 0..k);
    let nnz = a.nnz();
    let stats = spmm_m_axis_cost(cost, rows.len(), k, n, nnz, tile, dtype);
    Ok(KernelOutput { tensor: out, stats })
}

/// `Ok` when `index` was detected at micro-tile `micro` over an operand
/// whose micro-tile grid is `grid`, else [`TensorError::ShapeMismatch`]
/// (expected, then found): a kernel handed any other index would read the
/// wrong rows or columns of `A` and still return a product.
fn built_at(
    index: &MicroTileIndex,
    micro: MicroTile,
    grid: (usize, usize),
) -> Result<(), TensorError> {
    let mismatch = |lhs: (usize, usize), rhs: (usize, usize)| TensorError::ShapeMismatch {
        lhs: vec![lhs.0, lhs.1],
        rhs: vec![rhs.0, rhs.1],
    };
    if index.micro != micro {
        Err(mismatch((micro.h, micro.w), (index.micro.h, index.micro.w)))
    } else if index.grid != grid {
        Err(mismatch(grid, index.grid))
    } else {
        Ok(())
    }
}

/// `index` itself when it addresses one of `extent` positions of `axis`.
fn bounded(index: usize, extent: usize, axis: usize) -> Result<usize, TensorError> {
    if index < extent {
        Ok(index)
    } else {
        Err(TensorError::IndexOutOfBounds {
            index,
            extent,
            axis,
        })
    }
}

/// Analytic cost of [`spmm_m_axis`] with `r` gathered rows.
pub fn spmm_m_axis_cost(
    cost: &CostModel,
    r: usize,
    k: usize,
    n: usize,
    nnz: usize,
    tile: TileDims,
    dtype: DType,
) -> KernelStats {
    let tc = dtype.tensor_core_eligible();
    let elem = dtype.size_bytes();
    let tiles = r.div_ceil(tile.m) * n.div_ceil(tile.n);
    let latency = cost.tiled_gemm_latency(tiles, tile, k, elem, tc) * cost.gather_factor();
    let r_pad = r.div_ceil(tile.m) * tile.m;
    let executed = 2.0 * (r_pad * k) as f64 * n as f64;
    KernelStats {
        flops_useful: 2.0 * nnz as f64 * n as f64,
        flops_executed: executed.max(0.0),
        bytes_read: ((r * k + k * n) * elem) as f64,
        bytes_written: (r * n * elem) as f64,
        tiles_executed: tiles,
        latency_s: latency,
    }
}

/// `C[M,N] = A[M,K]·B[K,N]` with `A` sparse at micro-tile granularity
/// `(tile.m, 1)`: for every `tile.m`-row strip of `A`, the non-zero column
/// micro-tiles are merged along the k-axis into dense tiles; the matching
/// rows of `B` are read with them (Figure 4, second example).
///
/// `index` must be a detection of `A` at micro-tile `(tile.m, 1)`: one at
/// another micro-tile, or over another grid than `A`'s at that micro-tile,
/// is [`TensorError::ShapeMismatch`], and a coordinate outside `A`'s
/// strips or columns is [`TensorError::IndexOutOfBounds`]. Each row of a
/// strip accumulates the strip's columns in the index's order.
pub fn spmm_k_axis(
    cost: &CostModel,
    a: &Tensor,
    b: &Tensor,
    index: &MicroTileIndex,
    tile: TileDims,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let strips = m.div_ceil(tile.m);
    built_at(index, MicroTile::new(tile.m, 1), (strips, k))?;
    // Group detected micro-tiles by strip, preserving the detector's
    // unordered within-strip order (legal by k-axis permutation
    // invariance).
    let mut strip_cols: Vec<Vec<usize>> = vec![Vec::new(); strips];
    for &(s, c) in &index.coords {
        let s = bounded(s as usize, strips, 0)?;
        strip_cols[s].push(bounded(c as usize, k, 1)?);
    }
    let mut out = Tensor::zeros([m, n]);
    let od = out.data_mut();
    let mut total_passes = 0usize;
    for (s, cols) in strip_cols.iter().enumerate() {
        if cols.is_empty() {
            continue;
        }
        let rows = s * tile.m..((s + 1) * tile.m).min(m);
        gemm_rows(od, a.data(), b.data(), (k, n), rows, cols.iter().copied());
        total_passes += cols.len().div_ceil(tile.k) * n.div_ceil(tile.n);
    }
    let nnz = a.nnz();
    let stats = spmm_k_axis_cost_from_passes(
        cost,
        total_passes,
        strips * n.div_ceil(tile.n),
        n,
        nnz,
        index.len(),
        tile,
        dtype,
    );
    Ok(KernelOutput { tensor: out, stats })
}

/// Analytic cost of [`spmm_k_axis`] given the per-strip non-zero micro-tile
/// counts.
pub fn spmm_k_axis_cost(
    cost: &CostModel,
    strip_counts: &[usize],
    n: usize,
    nnz: usize,
    tile: TileDims,
    dtype: DType,
) -> KernelStats {
    let n_tiles = n.div_ceil(tile.n);
    let total_passes: usize = strip_counts
        .iter()
        .map(|&c| c.div_ceil(tile.k) * n_tiles)
        .sum();
    let out_tiles = strip_counts.iter().filter(|&&c| c > 0).count() * n_tiles;
    let micro_total: usize = strip_counts.iter().sum();
    spmm_k_axis_cost_from_passes(
        cost,
        total_passes,
        out_tiles,
        n,
        nnz,
        micro_total,
        tile,
        dtype,
    )
}

#[allow(clippy::too_many_arguments)]
fn spmm_k_axis_cost_from_passes(
    cost: &CostModel,
    total_passes: usize,
    out_tiles: usize,
    n: usize,
    nnz: usize,
    micro_tiles: usize,
    tile: TileDims,
    dtype: DType,
) -> KernelStats {
    let tc = dtype.tensor_core_eligible();
    let elem = dtype.size_bytes();
    let latency = cost.pass_based_latency(
        total_passes,
        out_tiles,
        tile,
        elem,
        tc,
        cost.gather_factor(),
    );
    // Executed work: every pass is a full [m,k]x[k,n] tile MAC block.
    let executed = 2.0 * (total_passes * tile.macs_per_pass()) as f64;
    KernelStats {
        flops_useful: 2.0 * nnz as f64 * n as f64,
        flops_executed: executed,
        bytes_read: (micro_tiles * tile.m * elem) as f64
            + (total_passes * tile.k * tile.n * elem) as f64,
        bytes_written: (out_tiles * tile.area() * elem) as f64,
        tiles_executed: total_passes,
        latency_s: latency,
    }
}

/// Output-sparse `C = (A·B) ⊙ mask` (SDD): only output micro-tiles
/// `(1, tile.n)` covering non-zeros of `mask` are computed, merged along
/// the m-axis within each `tile.n`-wide column strip. Fine-grained mask
/// positions inside a covered micro-tile are zeroed by predicated SWrite.
///
/// Returns [`TensorError::ShapeMismatch`] unless `mask` is `M × N`.
pub fn sdd_m_axis(
    cost: &CostModel,
    a: &Tensor,
    b: &Tensor,
    mask: &Mask,
    tile: TileDims,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    if (mask.rows(), mask.cols()) != (m, n) {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, n],
            rhs: vec![mask.rows(), mask.cols()],
        });
    }
    // The covered output micro-tiles, row-major: (row, column strip).
    let mut covered_tiles = Vec::new();
    scan_strips(mask, MicroTile::new(1, tile.n), 0..m, &mut covered_tiles);
    let (ad, bd) = (a.data(), b.data());
    let mut out = Tensor::zeros([m, n]);
    let od = out.data_mut();
    let mut strip_rows = vec![0usize; n.div_ceil(tile.n)];
    let mut row_words = Vec::new();
    // A run of adjacent covered strips on one row is one MAC pass over
    // their columns: an element's sum does not depend on which other
    // columns share its pass.
    for run in covered_tiles.chunk_by(|x, y| (y.0, y.1) == (x.0, x.1 + 1)) {
        let (r, j0) = (run[0].0 as usize, run[0].1 as usize);
        let j1 = j0 + run.len();
        for rows in &mut strip_rows[j0..j1] {
            *rows += 1;
        }
        let (c0, c1) = (j0 * tile.n, (j1 * tile.n).min(n));
        let orow = &mut od[r * n + c0..r * n + c1];
        let arow = &ad[r * k..(r + 1) * k];
        mac_rows(
            [&mut *orow],
            &bd[c0..],
            n,
            arow.iter().map(|&a| [a]).enumerate(),
        );
        // Predicated SWrite: keep values only where the fine mask is set.
        let words = mask.strip_or(r, 1, &mut row_words);
        for (c, o) in (c0..c1).zip(orow) {
            if words[c / 64] >> (c % 64) & 1 == 0 {
                *o = 0.0;
            }
        }
    }
    let (mut total_passes, mut out_tiles, mut covered) = (0usize, 0usize, 0usize);
    for (j, &rows) in strip_rows.iter().enumerate() {
        if rows == 0 {
            continue;
        }
        covered += rows * tile.n.min(n - j * tile.n);
        let m_tiles = rows.div_ceil(tile.m);
        total_passes += m_tiles * k.div_ceil(tile.k);
        out_tiles += m_tiles;
    }
    let stats = sdd_m_axis_cost_from_counts(
        cost,
        total_passes,
        out_tiles,
        k,
        mask.nnz(),
        covered,
        tile,
        dtype,
    );
    Ok(KernelOutput { tensor: out, stats })
}

#[allow(clippy::too_many_arguments)]
fn sdd_m_axis_cost_from_counts(
    cost: &CostModel,
    total_passes: usize,
    out_tiles: usize,
    k: usize,
    out_nnz: usize,
    covered_elems: usize,
    tile: TileDims,
    dtype: DType,
) -> KernelStats {
    let tc = dtype.tensor_core_eligible();
    let elem = dtype.size_bytes();
    let latency = cost.pass_based_latency(
        total_passes,
        out_tiles,
        tile,
        elem,
        tc,
        cost.gather_factor(),
    );
    KernelStats {
        flops_useful: 2.0 * out_nnz as f64 * k as f64,
        flops_executed: 2.0 * covered_elems as f64 * k as f64,
        bytes_read: (total_passes * (tile.m * tile.k + tile.k * tile.n) * elem) as f64,
        bytes_written: (covered_elems * elem) as f64,
        tiles_executed: total_passes,
        latency_s: latency,
    }
}

/// Fused sparse MoE expert GEMM: `out[t] = tokens[t] · W[expert(t)]` for
/// every token, executed as one kernel launch whose tiles are the
/// row-merged gathered tokens of each expert (the `(b, m)` multi-axis PIT
/// rule; paper §5.1 "PIT employs SRead to load the relevant tokens for
/// each expert ... and writes the results directly ... using SWrite").
/// A token listed under several experts keeps the last one's row.
///
/// Returns [`TensorError::ShapeMismatch`] when the expert and token-list
/// counts differ or an expert's width differs from the first one's,
/// [`TensorError::ContractionMismatch`] for an expert whose rows are not
/// the token width, [`TensorError::RankMismatch`] for an operand that is
/// not rank 2, and [`TensorError::IndexOutOfBounds`] for a token index
/// past the last token.
pub fn moe_gemm(
    cost: &CostModel,
    tokens: &Tensor,
    expert_weights: &[Tensor],
    expert_tokens: &[Vec<usize>],
    tile: TileDims,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (t_total, h, f) = moe_dims(tokens, expert_weights, expert_tokens)?;
    let mut out = Tensor::zeros([t_total, f]);
    for (w, toks) in expert_weights.iter().zip(expert_tokens) {
        let rows = toks.iter().copied();
        gemm_rows(out.data_mut(), tokens.data(), w.data(), (h, f), rows, 0..h);
    }
    let counts: Vec<usize> = expert_tokens.iter().map(Vec::len).collect();
    let stats = moe_gemm_cost(cost, &counts, h, f, tile, dtype);
    Ok(KernelOutput { tensor: out, stats })
}

/// The `(T, h, f)` of a [`moe_gemm`] call — `T` tokens of width `h`,
/// experts `h → f` — or the error that makes the call malformed.
pub(crate) fn moe_dims(
    tokens: &Tensor,
    expert_weights: &[Tensor],
    expert_tokens: &[Vec<usize>],
) -> Result<(usize, usize, usize), TensorError> {
    if expert_weights.len() != expert_tokens.len() {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![expert_weights.len()],
            rhs: vec![expert_tokens.len()],
        });
    }
    if tokens.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: tokens.rank(),
        });
    }
    let (t_total, h) = (tokens.shape().dim(0), tokens.shape().dim(1));
    let mut f = None;
    for w in expert_weights {
        let (_, _, wf) = matmul_dims(tokens, w)?;
        if *f.get_or_insert(wf) != wf {
            return Err(TensorError::ShapeMismatch {
                lhs: expert_weights[0].shape().dims().to_vec(),
                rhs: w.shape().dims().to_vec(),
            });
        }
    }
    for &t in expert_tokens.iter().flatten() {
        bounded(t, t_total, 0)?;
    }
    Ok((t_total, h, f.unwrap_or(0)))
}

/// Analytic cost of [`moe_gemm`] given per-expert token counts.
pub fn moe_gemm_cost(
    cost: &CostModel,
    expert_counts: &[usize],
    h: usize,
    f: usize,
    tile: TileDims,
    dtype: DType,
) -> KernelStats {
    let tc = dtype.tensor_core_eligible();
    let elem = dtype.size_bytes();
    let f_tiles = f.div_ceil(tile.n);
    let k_passes = h.div_ceil(tile.k);
    let out_tiles: usize = expert_counts
        .iter()
        .map(|&c| c.div_ceil(tile.m) * f_tiles)
        .sum();
    let total_passes = out_tiles * k_passes;
    let latency = cost.pass_based_latency(
        total_passes,
        out_tiles,
        tile,
        elem,
        tc,
        cost.gather_factor(),
    );
    let tokens: usize = expert_counts.iter().sum();
    let padded: usize = expert_counts
        .iter()
        .map(|&c| c.div_ceil(tile.m) * tile.m)
        .sum();
    KernelStats {
        flops_useful: 2.0 * (tokens * h * f) as f64,
        flops_executed: 2.0 * (padded * h * f) as f64,
        bytes_read: ((tokens + padded) * h * elem) as f64
            + (expert_counts.iter().filter(|&&c| c > 0).count() * h * f * elem) as f64,
        bytes_written: (tokens * f * elem) as f64,
        tiles_executed: total_passes,
        latency_s: latency,
    }
}

/// The row-segment PIT kernel: `C[M,N] = A[M,K]·B[K,N]` with `A` sparse
/// in horizontal runs, computed from `index`, a detection of `A` at a
/// `(1, w)` micro-tile. Each row of `C` accumulates the `k`s of its
/// detected segments in ascending order, so when every non-zero of `A` is
/// covered the result equals `pit_tensor::ops::matmul` exactly. `nnz`,
/// the non-zero count of `A`'s mask, sizes the modelled cost
/// ([`spmm_segment_cost`]).
///
/// Returns [`TensorError::ShapeMismatch`] for an index whose micro-tile is
/// more than one row high or whose grid is not `A`'s at its micro-tile,
/// and [`TensorError::IndexOutOfBounds`] for a coordinate outside `A`.
pub fn spmm_row_segments(
    cost: &CostModel,
    a: &Tensor,
    b: &Tensor,
    index: &MicroTileIndex,
    nnz: usize,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let w = index.micro.w;
    built_at(index, MicroTile::new(1, w), (m, k.div_ceil(w)))?;
    let segments = index.sorted_coords();
    let (ad, bd) = (a.data(), b.data());
    let mut out = Tensor::zeros([m, n]);
    let od = out.data_mut();
    for row in segments.chunk_by(|x, y| x.0 == y.0) {
        let r = bounded(row[0].0 as usize, m, 0)?;
        // Sorted, so the row's last segment is its largest.
        bounded(row[row.len() - 1].1 as usize, k.div_ceil(w), 1)?;
        let arow = &ad[r * k..(r + 1) * k];
        let terms = row.iter().flat_map(|&(_, seg)| {
            let p0 = seg as usize * w;
            (p0..(p0 + w).min(k)).map(|p| (p, [arow[p]]))
        });
        mac_rows([&mut od[r * n..(r + 1) * n]], bd, n, terms);
    }
    let stats = spmm_segment_cost(cost, m, n, nnz, w as f64, dtype);
    Ok(KernelOutput { tensor: out, stats })
}

/// Fraction of peak a row-segment kernel sustains per unit sqrt(segment
/// length); longer runs give longer coalesced vector loads.
pub const SEGMENT_BASE_EFFICIENCY: f64 = 0.08;

/// Analytic cost of the *row-segment* PIT kernel: `A`'s non-zeros occur in
/// horizontal runs of ~`seg_len` elements (e.g. `1x64` granularity), which
/// `(1, w)` micro-tiles stream as whole memory transactions into
/// vectorised per-row MACs. There is no cross-row reuse to exploit, so the
/// kernel is Sputnik-shaped, but micro-tile loads raise its efficiency
/// with segment length (paper Figure 16, middle panel: PIT 1.1–2.3x over
/// Sputnik).
pub fn spmm_segment_cost(
    cost: &CostModel,
    m: usize,
    n: usize,
    nnz: usize,
    seg_len: f64,
    dtype: DType,
) -> KernelStats {
    let elem = dtype.size_bytes();
    let eff = (SEGMENT_BASE_EFFICIENCY * (seg_len / 8.0).sqrt()).clamp(0.04, 0.30);
    let flops = 2.0 * nnz as f64 * n as f64;
    let peak = cost.device().flops_per_sm(false) * cost.device().num_sms as f64;
    let compute = flops / (peak * eff);
    let traffic =
        (nnz * elem) as f64 + nnz as f64 * n as f64 * elem as f64 / 16.0 + (m * n * elem) as f64;
    let memory = traffic / cost.device().bw_total();
    KernelStats {
        flops_useful: flops,
        flops_executed: flops,
        bytes_read: traffic - (m * n * elem) as f64,
        bytes_written: (m * n * elem) as f64,
        tiles_executed: 0,
        latency_s: compute.max(memory) * cost.gather_factor() + cost.device().kernel_launch_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect_mask;
    use crate::microtile::MicroTile;
    use pit_gpusim::DeviceSpec;
    use pit_sparse::generate;
    use pit_tensor::ops;

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::a100_80gb())
    }

    fn tile() -> TileDims {
        TileDims::new(16, 16, 16)
    }

    #[test]
    fn m_axis_matches_reference() {
        let cost = cost();
        // Rows {1, 4, 7, ...} non-zero.
        let lens_mask = generate::token_row_mask(&[3, 2], 8, 24);
        let a = lens_mask.apply(&Tensor::random([16, 24], 1));
        let b = Tensor::random([24, 20], 2);
        let rows: Vec<u32> = lens_mask.nonzero_rows().iter().map(|&r| r as u32).collect();
        let out = spmm_m_axis(&cost, &a, &b, &rows, tile(), DType::F32).unwrap();
        let reference = ops::matmul(&a, &b).unwrap();
        assert!(out.tensor.allclose(&reference, 1e-4));
    }

    #[test]
    fn row_segments_match_reference_exactly() {
        let cost = cost();
        let mask = generate::granular_random(40, 100, 1, 8, 0.8, 21);
        let a = mask.apply(&Tensor::random([40, 100], 22));
        let b = Tensor::random([100, 24], 23);
        let index = detect_mask(&cost, &mask, MicroTile::new(1, 8), 2);
        let out = spmm_row_segments(&cost, &a, &b, &index, mask.nnz(), DType::F32).unwrap();
        assert_eq!(out.tensor, ops::matmul(&a, &b).unwrap());
        let analytic = spmm_segment_cost(&cost, 40, 24, mask.nnz(), 8.0, DType::F32);
        assert_eq!(out.stats, analytic);
    }

    #[test]
    fn m_axis_rows_order_is_irrelevant() {
        let cost = cost();
        let a = Tensor::random([8, 8], 3);
        let b = Tensor::random([8, 8], 4);
        let fwd = spmm_m_axis(&cost, &a, &b, &[0, 3, 5], tile(), DType::F32).unwrap();
        let rev = spmm_m_axis(&cost, &a, &b, &[5, 0, 3], tile(), DType::F32).unwrap();
        assert!(fwd.tensor.allclose(&rev.tensor, 1e-5));
    }

    #[test]
    fn m_axis_rejects_row_out_of_bounds() {
        let a = Tensor::random([16, 8], 30);
        let b = Tensor::random([8, 8], 31);
        let err = spmm_m_axis(&cost(), &a, &b, &[3, 16], tile(), DType::F32).unwrap_err();
        let want = TensorError::IndexOutOfBounds {
            index: 16,
            extent: 16,
            axis: 0,
        };
        assert_eq!(err, want);
    }

    #[test]
    fn k_axis_matches_reference() {
        let cost = cost();
        let mask = generate::granular_random(48, 64, 16, 1, 0.85, 5);
        let a = mask.apply(&Tensor::random([48, 64], 6));
        let b = Tensor::random([64, 32], 7);
        let index = detect_mask(&cost, &mask, MicroTile::new(16, 1), 4);
        let out = spmm_k_axis(&cost, &a, &b, &index, tile(), DType::F32).unwrap();
        let reference = ops::matmul(&a, &b).unwrap();
        assert!(out.tensor.allclose(&reference, 1e-4));
    }

    #[test]
    fn k_axis_handles_fine_granularity_not_aligned_to_micro() {
        // Sparsity granularity (2,1) detected at micro (16,1): covered
        // columns include zeros — waste, but still correct.
        let cost = cost();
        let mask = generate::granular_random(32, 64, 2, 1, 0.9, 8);
        let a = mask.apply(&Tensor::random([32, 64], 9));
        let b = Tensor::random([64, 16], 10);
        let index = detect_mask(&cost, &mask, MicroTile::new(16, 1), 2);
        let out = spmm_k_axis(&cost, &a, &b, &index, tile(), DType::F32).unwrap();
        assert!(out.tensor.allclose(&ops::matmul(&a, &b).unwrap(), 1e-4));
        assert!(out.stats.wasted_fraction() > 0.0);
    }

    #[test]
    fn k_axis_empty_input_gives_zero_output() {
        let cost = cost();
        let a = Tensor::zeros([32, 32]);
        let b = Tensor::random([32, 16], 1);
        let index = detect_mask(&cost, &Mask::zeros(32, 32), MicroTile::new(16, 1), 2);
        let out = spmm_k_axis(&cost, &a, &b, &index, tile(), DType::F32).unwrap();
        assert_eq!(out.tensor.data().iter().filter(|&&v| v != 0.0).count(), 0);
    }

    /// A `[64, 64]·[64, 16]` product whose `A` follows `mask`, and the
    /// error a kernel returns for `index` on it.
    fn misbuilt(index: MicroTileIndex, segments: bool) -> TensorError {
        let cost = cost();
        let mask = generate::granular_random(64, 64, 1, 1, 0.7, 40);
        let a = mask.apply(&Tensor::random([64, 64], 41));
        let b = Tensor::random([64, 16], 42);
        let tile = TileDims::new(8, 8, 16);
        let out = if segments {
            spmm_row_segments(&cost, &a, &b, &index, mask.nnz(), DType::F32)
        } else {
            spmm_k_axis(&cost, &a, &b, &index, tile, DType::F32)
        };
        out.unwrap_err()
    }

    fn index_at(rows: usize, micro: MicroTile) -> MicroTileIndex {
        let mask = generate::granular_random(rows, 64, 1, 1, 0.7, 40);
        detect_mask(&cost(), &mask, micro, 1)
    }

    #[test]
    fn k_axis_rejects_index_of_micro_wider_than_one_column() {
        let err = misbuilt(index_at(64, MicroTile::new(8, 4)), false);
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn k_axis_rejects_index_of_micro_taller_than_the_tile() {
        // Strips 0..4 of 16 rows are all in range of the 8 strips of 8.
        let err = misbuilt(index_at(64, MicroTile::new(16, 1)), false);
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn k_axis_rejects_index_over_another_grid() {
        let err = misbuilt(index_at(32, MicroTile::new(8, 1)), false);
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn row_segments_reject_index_of_micro_taller_than_one_row() {
        let err = misbuilt(index_at(64, MicroTile::new(8, 4)), true);
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn row_segments_reject_index_over_another_grid() {
        let err = misbuilt(index_at(32, MicroTile::new(1, 8)), true);
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn sdd_matches_masked_reference() {
        let cost = cost();
        let a = Tensor::random([40, 24], 11);
        let b = Tensor::random([24, 48], 12);
        let mask = generate::longformer_mask(40, 8, &[0]);
        // Clip mask to the 40x48 output shape.
        let mask = Mask::from_fn(40, 48, |r, c| c < 40 && mask.get(r, c));
        let out = sdd_m_axis(&cost, &a, &b, &mask, tile(), DType::F32).unwrap();
        let reference = mask.apply(&ops::matmul(&a, &b).unwrap());
        assert!(out.tensor.allclose(&reference, 1e-4));
    }

    #[test]
    fn sdd_empty_mask_is_zero() {
        let cost = cost();
        let a = Tensor::random([16, 16], 1);
        let b = Tensor::random([16, 16], 2);
        let out = sdd_m_axis(&cost, &a, &b, &Mask::zeros(16, 16), tile(), DType::F32).unwrap();
        assert!(out.tensor.allclose(&Tensor::zeros([16, 16]), 0.0));
    }

    #[test]
    fn moe_gemm_matches_per_expert_reference() {
        let cost = cost();
        let tokens = Tensor::random([24, 16], 13);
        let weights: Vec<Tensor> = (0..4).map(|e| Tensor::random([16, 12], 20 + e)).collect();
        let plan = generate::RoutingPlan::sample(24, 4, 1.0, 14);
        let lists = plan.expert_token_lists();
        let out = moe_gemm(&cost, &tokens, &weights, &lists, tile(), DType::F32).unwrap();
        for (e, list) in lists.iter().enumerate() {
            for &t in list {
                let tok = Tensor::from_vec(tokens.row(t).unwrap(), [1, 16]).unwrap();
                let want = ops::matmul(&tok, &weights[e]).unwrap();
                let got = Tensor::from_vec(out.tensor.row(t).unwrap(), [1, 12]).unwrap();
                assert!(got.allclose(&want, 1e-4), "token {t} expert {e}");
            }
        }
    }

    #[test]
    fn moe_gemm_handles_empty_experts() {
        let cost = cost();
        let tokens = Tensor::random([4, 8], 1);
        let weights: Vec<Tensor> = (0..3).map(|e| Tensor::random([8, 8], 30 + e)).collect();
        // All tokens to expert 0.
        let lists = vec![vec![0, 1, 2, 3], vec![], vec![]];
        let out = moe_gemm(&cost, &tokens, &weights, &lists, tile(), DType::F32).unwrap();
        assert_eq!(out.tensor.shape().dims(), &[4, 8]);
    }

    #[test]
    fn moe_cost_scales_with_imbalance_padding() {
        // Balanced 64/64 vs imbalanced 120/8 with tile.m = 16: the
        // imbalanced case pads 8 -> 16 (waste) but executes the same
        // useful flops.
        let cost = cost();
        let t = TileDims::new(16, 16, 16);
        let balanced = moe_gemm_cost(&cost, &[64, 64], 32, 32, t, DType::F32);
        let imbalanced = moe_gemm_cost(&cost, &[120, 8], 32, 32, t, DType::F32);
        assert_eq!(balanced.flops_useful, imbalanced.flops_useful);
        assert!(imbalanced.flops_executed >= balanced.flops_executed);
    }

    #[test]
    fn k_axis_cost_helper_matches_kernel_accounting() {
        let cost = cost();
        let mask = generate::granular_random(64, 64, 16, 1, 0.8, 15);
        let a = mask.apply(&Tensor::random([64, 64], 16));
        let b = Tensor::random([64, 32], 17);
        let index = detect_mask(&cost, &mask, MicroTile::new(16, 1), 2);
        let out = spmm_k_axis(&cost, &a, &b, &index, tile(), DType::F32).unwrap();
        // Rebuild strip counts and compare latencies.
        let mut counts = vec![0usize; 4];
        for &(s, _) in &index.coords {
            counts[s as usize] += 1;
        }
        let nnz = a.data().iter().filter(|&&v| v != 0.0).count();
        let analytic = spmm_k_axis_cost(&cost, &counts, 32, nnz, tile(), DType::F32);
        assert!((analytic.latency_s - out.stats.latency_s).abs() < 1e-12);
    }
}
