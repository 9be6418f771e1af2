//! Dense tiled kernels: real host arithmetic + modelled device latency.
//!
//! [`mac_rows`] is the one host multiply-accumulate every kernel's dense
//! tile runs, here and in `pit_core`'s sparse kernels: up to four output
//! rows that share a term list at once, each element still summing its
//! terms one `+=` at a time in order, so results stay bit-identical to
//! `pit_tensor::ops::matmul`. x86 CPUs with AVX2 run the same body
//! compiled for AVX2, chosen at run time.

use crate::KernelOutput;
use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, KernelStats};
use pit_tensor::{ops, DType, Tensor, TensorError};

/// Dense `[m,k]×[k,n]` GEMM with the given tile shape: the real product
/// on the host, the modelled latency of the tiled device kernel.
///
/// The host computes the rows four at a time with [`gemm_rows`]. Tiling
/// never changed an element's accumulation order — every tile's k-passes
/// visit `p` in ascending order — so the tile shape only enters the
/// modelled statistics, and the result equals `pit_tensor::ops::matmul`
/// exactly.
pub fn matmul_tiled(
    cost: &CostModel,
    a: &Tensor,
    b: &Tensor,
    tile: TileDims,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let mut out = vec![0.0f32; m * n];
    gemm_rows(&mut out, a.data(), b.data(), (k, n), 0..m, 0..k);
    Ok(KernelOutput {
        tensor: Tensor::from_vec(out, [m, n])?,
        stats: matmul_cost_only(cost, m, k, n, tile, dtype),
    })
}

/// The `(m, k, n)` of the product `A[m,k]·B[k,n]`, or why it is undefined:
/// an operand that is not rank 2, or inner dimensions that differ.
pub fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ContractionMismatch {
            lhs_inner: k,
            rhs_inner: k2,
        });
    }
    Ok((m, k, n))
}

/// Sets each listed row `r` of `C[_, n]` to `Σ_p A[r,p]·B[p,..]` over the
/// terms `p` of `cols`, in `cols`'s order, for the row-major buffers of
/// `A[_, k]` and `B[k, n]`: the dense tile of a kernel whose rows share
/// one term list (the whole `0..k`, or one strip's gathered columns).
///
/// Rows go through [`mac_rows`] four at a time, so each loaded element of
/// B serves four rows. A group of four that repeats a row, and the last
/// rows of the list, take one row at a time; a repeated row is computed
/// again from zero, so it ends up written once.
///
/// # Panics
///
/// Panics if a row or term is outside its operand.
pub fn gemm_rows(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    (k, n): (usize, usize),
    rows: impl IntoIterator<Item = usize>,
    cols: impl Iterator<Item = usize> + Clone,
) {
    let mut rows = rows.into_iter();
    loop {
        let mut group = [0usize; 4];
        let mut len = 0;
        for (slot, r) in group.iter_mut().zip(&mut rows) {
            *slot = r;
            len += 1;
        }
        if len == group.len() {
            if let Ok(mut out) = c.get_disjoint_mut(group.map(|r| r * n..(r + 1) * n)) {
                out.iter_mut().for_each(|o| o.fill(0.0));
                let arows = group.map(|r| &a[r * k..(r + 1) * k]);
                mac_rows(out, b, n, cols.clone().map(|p| (p, arows.map(|ar| ar[p]))));
                continue;
            }
        }
        for &r in &group[..len] {
            let out = &mut c[r * n..(r + 1) * n];
            out.fill(0.0);
            let ar = &a[r * k..(r + 1) * k];
            mac_rows([out], b, n, cols.clone().map(|p| (p, [ar[p]])));
        }
        if len < group.len() {
            return;
        }
    }
}

/// The dense tile's multiply-accumulate on `R` output rows that share a
/// term list: `out[r][j] += a_p[r] · b[p·ldb + j]` for every term
/// `(p, a_p)`, in the order given, skipping the rows where `a_p[r] == 0`
/// as `pit_tensor::ops::matmul` does. `b` is read in place — row `p` of
/// the B operand starts at `p·ldb`, so a column strip of B is passed as
/// the slice starting at the strip's first column. `R = 1` is the
/// single-row case.
///
/// Terms are applied in groups of four. Each element of a group's four
/// B rows is loaded once and stays in a register across all `R` rows,
/// which is where the blocking saves memory traffic. A term that is zero
/// in only some rows cannot join a group: it and the group's pending
/// terms go to each row's own batch of four, applied before the next
/// group; a term that is zero in every row is skipped. Either way, each
/// element sees its own non-zero terms as separate `+=`s in the given
/// order, with no reassociation and no fused multiply-add, so rows fed
/// their terms in ascending `p` are bit-identical to the reference
/// product's rows.
///
/// On x86 CPUs with AVX2 the same body runs compiled a second time with
/// AVX2 enabled (chosen at run time): wider vectors over independent
/// elements, the same operations on each element, so the results are
/// bit-identical to the portable instance.
///
/// `R` is 1 to 32, checked at compile time.
///
/// # Panics
///
/// Panics if the rows differ in width, or if a term's B row does not fit
/// in `b`.
pub fn mac_rows<const R: usize>(
    out: [&mut [f32]; R],
    b: &[f32],
    ldb: usize,
    terms: impl IntoIterator<Item = (usize, [f32; R])>,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above.
        return unsafe { mac_rows_avx2(out, b, ldb, terms) };
    }
    mac_rows_body(out, b, ldb, terms)
}

/// [`mac_rows`] compiled with AVX2 enabled.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn mac_rows_avx2<const R: usize>(
    out: [&mut [f32]; R],
    b: &[f32],
    ldb: usize,
    terms: impl IntoIterator<Item = (usize, [f32; R])>,
) {
    mac_rows_body(out, b, ldb, terms)
}

/// The body of [`mac_rows`]; it and its helpers are always inlined, so
/// each caller compiles all of it with its own target features: the
/// build's baseline in [`mac_rows`], AVX2 in `mac_rows_avx2`.
#[inline(always)]
fn mac_rows_body<'b, const R: usize>(
    mut out: [&mut [f32]; R],
    b: &'b [f32],
    ldb: usize,
    terms: impl IntoIterator<Item = (usize, [f32; R])>,
) {
    const { assert!(R >= 1 && R <= 32, "mac_rows takes 1 to 32 rows") };
    let w = out[0].len();
    assert!(
        out.iter().all(|o| o.len() == w),
        "mac_rows: rows differ in width"
    );
    // Terms non-zero in every row, not applied yet.
    let mut group: [(&'b [f32], [f32; R]); 4] = [(&[], [0.0; R]); 4];
    let mut grouped = 0;
    // Each row's own terms: earlier than the group's, not applied yet.
    let mut own: [[(&'b [f32], [f32; 1]); 4]; R] = [[(&[], [0.0]); 4]; R];
    let mut owned = [0usize; R];
    let every_row = (1u32 << R) - 1;
    for (p, coefs) in terms {
        // Bit `r` set when the term applies to row `r`.
        let rows = (0..R).fold(0u32, |m, r| m | u32::from(coefs[r] != 0.0) << r);
        if rows == 0 {
            continue;
        }
        let brow = &b[p * ldb..p * ldb + w];
        if rows == every_row {
            group[grouped] = (brow, coefs);
            grouped += 1;
            if grouped == group.len() {
                for (r, row) in out.iter_mut().enumerate() {
                    add_terms(row, &own[r][..owned[r]]);
                    owned[r] = 0;
                }
                mac_block(&mut out, &group);
                grouped = 0;
            }
            continue;
        }
        // Zero in some rows only: the group's pending terms join each
        // row's own batch, then this term joins the batches of the rows
        // it applies to.
        for (r, row) in out.iter_mut().enumerate() {
            for &(x, a) in &group[..grouped] {
                push_own(row, &mut own[r], &mut owned[r], (x, a[r]));
            }
        }
        grouped = 0;
        let mut rest = rows;
        while rest != 0 {
            let r = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            push_own(out[r], &mut own[r], &mut owned[r], (brow, coefs[r]));
        }
    }
    for (r, row) in out.iter_mut().enumerate() {
        add_terms(row, &own[r][..owned[r]]);
        for &(x, a) in &group[..grouped] {
            add_terms(row, &[(x, [a[r]])]);
        }
    }
}

/// Appends a term to one row's own batch of `len` terms, applying the
/// batch once it holds four.
#[inline(always)]
fn push_own<'b>(
    row: &mut [f32],
    batch: &mut [(&'b [f32], [f32; 1]); 4],
    len: &mut usize,
    (x, a): (&'b [f32], f32),
) {
    batch[*len] = (x, [a]);
    *len += 1;
    if *len == batch.len() {
        mac_block(&mut [row], batch);
        *len = 0;
    }
}

/// Applies fewer than four terms to one row, one pass per term.
#[inline(always)]
fn add_terms(row: &mut [f32], terms: &[(&[f32], [f32; 1])]) {
    for &(x, [a]) in terms {
        for (o, &x) in row.iter_mut().zip(x) {
            *o += a * x;
        }
    }
}

/// Applies four terms to `R` rows: `row[r][j] += a[r]·x[j]` for each term
/// `(x, a)` in order. Elements go in register-sized chunks; a chunk of
/// each term's `x` is loaded once and used for every row.
#[inline(always)]
fn mac_block<const R: usize>(out: &mut [&mut [f32]; R], terms: &[(&[f32], [f32; R]); 4]) {
    const LANES: usize = 8;
    let w = out[0].len();
    let [(x0, a0), (x1, a1), (x2, a2), (x3, a3)] = *terms;
    let (x0, x1, x2, x3) = (&x0[..w], &x1[..w], &x2[..w], &x3[..w]);
    let chunks = w / LANES * LANES;
    for j in (0..chunks).step_by(LANES) {
        let x: [[f32; LANES]; 4] =
            [x0, x1, x2, x3].map(|x| x[j..j + LANES].try_into().expect("one chunk"));
        for (r, row) in out.iter_mut().enumerate() {
            let o: &mut [f32; LANES] = (&mut row[j..j + LANES]).try_into().expect("one chunk");
            for l in 0..LANES {
                let mut acc = o[l];
                acc += a0[r] * x[0][l];
                acc += a1[r] * x[1][l];
                acc += a2[r] * x[2][l];
                acc += a3[r] * x[3][l];
                o[l] = acc;
            }
        }
    }
    for j in chunks..w {
        for (r, row) in out.iter_mut().enumerate() {
            let mut acc = row[j];
            acc += a0[r] * x0[j];
            acc += a1[r] * x1[j];
            acc += a2[r] * x2[j];
            acc += a3[r] * x3[j];
            row[j] = acc;
        }
    }
}

/// Analytic-only dense GEMM latency (no numeric result), for model-level
/// simulation where weights are never materialised.
pub fn matmul_cost_only(
    cost: &CostModel,
    m: usize,
    k: usize,
    n: usize,
    tile: TileDims,
    dtype: DType,
) -> KernelStats {
    let latency = cost.dense_gemm_latency(
        m,
        k,
        n,
        tile,
        dtype.size_bytes(),
        dtype.tensor_core_eligible(),
    );
    gemm_stats(m, k, n, tile, dtype, latency)
}

/// The statistics of a dense `[m,k]×[k,n]` GEMM run with `tile`, at a
/// modelled latency the caller already has.
pub(crate) fn gemm_stats(
    m: usize,
    k: usize,
    n: usize,
    tile: TileDims,
    dtype: DType,
    latency_s: f64,
) -> KernelStats {
    let elem = dtype.size_bytes();
    let flops = 2.0 * (m * k * n) as f64;
    KernelStats {
        flops_useful: flops,
        flops_executed: flops,
        bytes_read: ((m * k + k * n) * elem) as f64,
        bytes_written: (m * n * elem) as f64,
        tiles_executed: tile.tiles_over(m, n),
        latency_s,
    }
}

/// Memory-bound elementwise kernel stats (ReLU/GELU/bias/residual adds).
pub fn elementwise_cost(
    cost: &CostModel,
    numel: usize,
    dtype: DType,
    n_inputs: usize,
) -> KernelStats {
    let elem = dtype.size_bytes();
    let read = (numel * elem * n_inputs) as f64;
    let write = (numel * elem) as f64;
    KernelStats {
        flops_useful: numel as f64,
        flops_executed: numel as f64,
        bytes_read: read,
        bytes_written: write,
        tiles_executed: 0,
        latency_s: cost.elementwise(read, write),
    }
}

/// Row-softmax kernel stats: three memory passes (max, exp-sum, normalise)
/// fused into roughly two streams in practice; modelled as 2.5 passes.
pub fn softmax_cost(cost: &CostModel, rows: usize, cols: usize, dtype: DType) -> KernelStats {
    let bytes = (rows * cols * dtype.size_bytes()) as f64;
    let latency = cost.elementwise(1.5 * bytes, bytes);
    KernelStats {
        flops_useful: (rows * cols * 4) as f64,
        flops_executed: (rows * cols * 4) as f64,
        bytes_read: 1.5 * bytes,
        bytes_written: bytes,
        tiles_executed: 0,
        latency_s: latency,
    }
}

/// LayerNorm kernel stats: two read passes plus one write.
pub fn layernorm_cost(cost: &CostModel, rows: usize, cols: usize, dtype: DType) -> KernelStats {
    let bytes = (rows * cols * dtype.size_bytes()) as f64;
    let latency = cost.elementwise(2.0 * bytes, bytes);
    KernelStats {
        flops_useful: (rows * cols * 6) as f64,
        flops_executed: (rows * cols * 6) as f64,
        bytes_read: 2.0 * bytes,
        bytes_written: bytes,
        tiles_executed: 0,
        latency_s: latency,
    }
}

/// ReLU executed for real, with elementwise cost.
pub fn relu(cost: &CostModel, a: &Tensor, dtype: DType) -> KernelOutput {
    KernelOutput {
        tensor: ops::relu(a),
        stats: elementwise_cost(cost, a.numel(), dtype, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::a100_80gb())
    }

    #[test]
    fn tiled_matmul_matches_reference() {
        let cost = cost();
        let a = Tensor::random([50, 70], 1);
        let b = Tensor::random([70, 30], 2);
        let reference = ops::matmul(&a, &b).unwrap();
        for tile in [
            TileDims::new(8, 8, 8),
            TileDims::new(16, 16, 16),
            TileDims::new(32, 64, 32),
        ] {
            let out = matmul_tiled(&cost, &a, &b, tile, DType::F32).unwrap();
            assert_eq!(out.tensor, reference, "tile {tile} diverged");
        }
    }

    #[test]
    fn tiled_matmul_ragged_edges() {
        let cost = cost();
        // Dimensions deliberately not multiples of the tile.
        let a = Tensor::random([33, 17], 3);
        let b = Tensor::random([17, 41], 4);
        let reference = ops::matmul(&a, &b).unwrap();
        let out = matmul_tiled(&cost, &a, &b, TileDims::new(16, 16, 16), DType::F32).unwrap();
        assert_eq!(out.tensor, reference);
        assert_eq!(out.stats.tiles_executed, 3 * 3);
    }

    #[test]
    fn mac_row_applies_terms_one_at_a_time_in_order() {
        // In f32, ((((1e8 + 1) - 1e8) + 1) + 1) is 2, while any regrouping
        // such as (1e8 - 1e8) + (1 + 1 + 1) gives 3. Five terms cover the
        // four-term group and the tail.
        let b = [1e8f32, 1.0, -1e8, 1.0, 1.0];
        let mut out = [0.0f32];
        mac_rows([&mut out], &b, 1, (0..5).map(|p| (p, [1.0])));
        assert_eq!(out, [2.0]);
        // A zero coefficient is skipped, not multiplied: 0 · inf would be NaN.
        let mut out = [0.0f32];
        mac_rows(
            [&mut out],
            &[f32::INFINITY, 3.0],
            1,
            [(0, [0.0]), (1, [2.0])],
        );
        assert_eq!(out, [6.0]);
        // The same per row when a term is zero in one row only: row 1
        // skips term 0 and applies the rest in order, from its own batch.
        let (mut r0, mut r1) = ([0.0f32], [0.0f32]);
        let b = [f32::INFINITY, 1e8, 1.0, -1e8, 1.0, 1.0];
        let terms = [(0, [1.0, 0.0])]
            .into_iter()
            .chain((1..6).map(|p| (p, [0.0, 1.0])));
        mac_rows([&mut r0, &mut r1], &b, 1, terms);
        assert_eq!((r0, r1), ([f32::INFINITY], [2.0]));
    }

    /// Pseudo-random values in [-2, 2), a tenth of them zero and one in
    /// fifty `-0.0`.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut t = Tensor::random([len.max(1)], seed).data()[..len].to_vec();
        for (i, v) in t.iter_mut().enumerate() {
            *v *= 2.0;
            match (i as u64 ^ seed) % 50 {
                0..=4 => *v = 0.0,
                5 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    /// `v` split into four rows of equal width.
    fn four_rows(v: &mut [f32]) -> [&mut [f32]; 4] {
        let mut rows = v.chunks_exact_mut(v.len() / 4);
        std::array::from_fn(|_| rows.next().expect("four rows"))
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn avx2_instance_is_bit_identical_to_portable() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // Widths around the 8-lane chunk; terms in a shuffled order, with
        // zero coefficients in some rows only.
        let (k, ldb) = (37, 43);
        let b = values(k * ldb, 7);
        for w in [1, 7, 8, 9, 24, 43] {
            let order: Vec<usize> = (0..k).map(|i| (i * 17 + 5) % k).collect();
            let a = values(4 * k, w as u64);
            let coef = |p: usize| std::array::from_fn::<f32, 4, _>(|r| a[r * k + p]);
            let start = values(4 * w, 99);
            let (mut portable, mut avx2) = (start.clone(), start);
            let terms = order.iter().map(|&p| (p, coef(p)));
            mac_rows_body(four_rows(&mut portable), &b, ldb, terms.clone());
            // SAFETY: the CPU supports AVX2, checked above.
            unsafe { mac_rows_avx2(four_rows(&mut avx2), &b, ldb, terms) };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&portable), bits(&avx2), "width {w}");
        }
    }

    #[test]
    fn cost_only_matches_tiled_stats() {
        let cost = cost();
        let a = Tensor::random([64, 64], 5);
        let b = Tensor::random([64, 64], 6);
        let tile = TileDims::new(32, 32, 32);
        let real = matmul_tiled(&cost, &a, &b, tile, DType::F32).unwrap();
        let analytic = matmul_cost_only(&cost, 64, 64, 64, tile, DType::F32);
        assert_eq!(real.stats.latency_s, analytic.latency_s);
        assert_eq!(real.stats.tiles_executed, analytic.tiles_executed);
    }

    #[test]
    fn shape_errors_propagate() {
        let cost = cost();
        let a = Tensor::random([4, 5], 1);
        let b = Tensor::random([6, 4], 2);
        assert!(matmul_tiled(&cost, &a, &b, TileDims::new(8, 8, 8), DType::F32).is_err());
    }

    #[test]
    fn fp16_gemm_is_faster_than_fp32() {
        let cost = cost();
        let s16 = matmul_cost_only(
            &cost,
            1024,
            1024,
            1024,
            TileDims::new(64, 32, 64),
            DType::F16,
        );
        let s32 = matmul_cost_only(
            &cost,
            1024,
            1024,
            1024,
            TileDims::new(64, 32, 64),
            DType::F32,
        );
        assert!(s16.latency_s < s32.latency_s);
    }

    #[test]
    fn relu_output_and_cost() {
        let cost = cost();
        let a = Tensor::from_vec(vec![-1.0, 2.0], [1, 2]).unwrap();
        let out = relu(&cost, &a, DType::F32);
        assert_eq!(out.tensor.data(), &[0.0, 2.0]);
        assert!(out.stats.latency_s > 0.0);
    }

    #[test]
    fn softmax_and_layernorm_costs_scale_with_size() {
        let cost = cost();
        let small = softmax_cost(&cost, 128, 128, DType::F32);
        let large = softmax_cost(&cost, 1024, 1024, DType::F32);
        assert!(large.latency_s > small.latency_s);
        let ln = layernorm_cost(&cost, 1024, 1024, DType::F32);
        assert!(ln.latency_s > 0.0);
    }
}
