//! Property-based tests (proptest) for the core PIT invariants:
//! permutation invariance, exactness against the dense oracle (down to
//! the multi-row MAC every kernel's dense tile runs), coverage accounting
//! and detector completeness.

use pit::core::detector::detect_mask;
use pit::core::kernels::spmm_m_axis;
use pit::core::microtile::MicroTile;
use pit::core::ops::Pit;
use pit::gpusim::cost::TileDims;
use pit::gpusim::{CostModel, DeviceSpec};
use pit::kernels::dense::mac_rows;
use pit::sparse::{cover_count, generate, Mask};
use pit::tensor::{ops, DType, Tensor};
use proptest::prelude::*;

fn cost() -> CostModel {
    CostModel::new(DeviceSpec::v100_32gb())
}

/// SplitMix64: the MAC inputs' own seeded stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-2, 2)`.
    fn value(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 22) as f32 - 2.0
    }
}

/// Drives `mac_rows::<R>` on `R` rows of width `w` over a B of `k` rows
/// (row stride `w + pad`) with `n_terms` terms in a random order (a B row
/// may repeat), and compares every element by its bits with the scalar
/// definition: each row, term by term, `out += a·b` unless the row's
/// coefficient is zero. A third of the terms apply to every row; the rest
/// hold `0.0` or `-0.0` in some rows, or in all. B holds `±inf` and NaN,
/// so a skipped zero shows (`0·inf` is NaN) and so does any regrouping of
/// the sums. Any NaN equals any other: IEEE 754 leaves the payload of an
/// operation on two NaNs open, and the compiler may commute an addition's
/// operands.
fn check_mac_rows<const R: usize>(w: usize, pad: usize, k: usize, n_terms: usize, seed: u64) {
    let mut s = Stream(seed);
    let ldb = w + pad;
    let b: Vec<f32> = (0..k * ldb)
        .map(|_| match s.below(16) {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => f32::NAN,
            _ => s.value(),
        })
        .collect();
    let terms: Vec<(usize, [f32; R])> = (0..n_terms)
        .map(|_| {
            let p = s.below(k);
            let every_row = s.below(3) == 0;
            let coefs = std::array::from_fn(|_| match (every_row, s.below(4)) {
                (false, 0) => 0.0,
                (false, 1) => -0.0,
                _ => s.value(),
            });
            (p, coefs)
        })
        .collect();
    let start: Vec<f32> = (0..R * w).map(|_| s.value()).collect();
    let mut got = start.clone();
    let mut rows = got.chunks_exact_mut(w);
    let out: [&mut [f32]; R] = std::array::from_fn(|_| rows.next().expect("R rows"));
    mac_rows(out, &b, ldb, terms.iter().copied());
    let mut want = start;
    for (r, row) in want.chunks_exact_mut(w).enumerate() {
        for &(p, a) in &terms {
            if a[r] == 0.0 {
                continue;
            }
            for (o, &x) in row.iter_mut().zip(&b[p * ldb..]) {
                *o += a[r] * x;
            }
        }
    }
    let bits = |v: &[f32]| -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    };
    assert_eq!(bits(&got), bits(&want), "R = {R}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1 in action: reading any permutation of rows through the
    /// m-axis kernel reproduces the dense product on exactly those rows
    /// and leaves the others zero (m-axis permutation invariance).
    #[test]
    fn m_axis_permutation_invariance(
        rows in 4usize..24,
        cols in 4usize..24,
        n in 2usize..16,
        perm_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let a = Tensor::random([rows, cols], data_seed);
        let b = Tensor::random([cols, n], data_seed ^ 0xabcd);
        let reference = ops::matmul(&a, &b).unwrap();
        // Build a pseudo-random subset+permutation of rows.
        let mut selected: Vec<u32> = (0..rows as u32)
            .filter(|r| {
                r.wrapping_mul(2_654_435_761)
                    .wrapping_add(perm_seed as u32)
                    % 3
                    != 0
            })
            .collect();
        let k = selected.len();
        for i in (1..k).rev() {
            let j = ((perm_seed as usize).wrapping_mul(i * 31 + 7)) % (i + 1);
            selected.swap(i, j);
        }
        let tile = TileDims::new(16, 16, 16);
        let out = spmm_m_axis(&cost(), &a, &b, &selected, tile, DType::F32).unwrap();
        for r in 0..rows {
            let want = if selected.contains(&(r as u32)) {
                reference.row(r).unwrap()
            } else {
                vec![0.0; n]
            };
            prop_assert_eq!(out.tensor.row(r).unwrap(), want);
        }
    }

    /// Every `Pit` entry point equals the dense oracle element for element
    /// on random granular masks, whatever kernel Algorithm 1 picks and
    /// however many threads the detector may use.
    #[test]
    fn pipeline_matches_oracle(
        gh in 1usize..9,
        gw in 1usize..9,
        sparsity in 0.0f64..1.0,
        seed in 0u64..1000,
        threads in vec![1usize, 2, 8],
    ) {
        let pit = Pit::new(DeviceSpec::a100_80gb()).with_detect_threads(threads);
        let mask = generate::granular_random(96, 64, gh, gw, sparsity, seed);
        let a = mask.apply(&Tensor::random([96, 64], seed ^ 1));
        let b = Tensor::random([64, 48], seed ^ 2);
        let reference = ops::matmul(&a, &b).unwrap();
        let exec = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
        prop_assert_eq!(&exec.output.tensor, &reference);
        let exec = pit.matmul_dyn_sparse(&a, &b, DType::F32).unwrap();
        prop_assert_eq!(&exec.output.tensor, &reference);
        let rows: Vec<u32> = mask.nonzero_rows().iter().map(|&r| r as u32).collect();
        let out = pit.matmul_rows(&a, &rows, &b, None, DType::F32).unwrap();
        prop_assert_eq!(&out.tensor, &reference);
        // A row listed twice in one group of four, and once more at the end.
        let mut repeated = rows.clone();
        if let Some(&first) = rows.first() {
            repeated.insert(1, first);
            repeated.push(first);
        }
        let out = pit.matmul_rows(&a, &repeated, &b, None, DType::F32).unwrap();
        prop_assert_eq!(&out.tensor, &reference);
        let out_mask = generate::granular_random(96, 48, gh, gw, sparsity, seed ^ 3);
        let exec = pit.sdd(&a, &b, &out_mask, DType::F32).unwrap();
        prop_assert_eq!(exec.output.tensor, out_mask.apply(&reference));
        let experts: Vec<Tensor> = (0..4).map(|e| Tensor::random([64, 48], seed ^ (4 + e))).collect();
        let mut routing = generate::RoutingPlan::sample(96, 4, 1.0, seed).expert_token_lists();
        // One expert gets its first token twice, within one group of four.
        if let Some(list) = routing.iter_mut().find(|l| !l.is_empty()) {
            list.insert(1, list[0]);
        }
        let out = pit.moe_gemm(&a, &experts, &routing, DType::F32).unwrap();
        for (w, toks) in experts.iter().zip(&routing) {
            let want = ops::matmul(&ops::gather_rows(&a, toks).unwrap(), w).unwrap();
            for (i, &t) in toks.iter().enumerate() {
                prop_assert_eq!(out.tensor.row(t).unwrap(), want.row(i).unwrap());
            }
        }
    }

    /// The multi-row MAC applies each row's non-zero terms one `+=` at a
    /// time in the given order, for every row count it is built for.
    #[test]
    fn mac_rows_matches_scalar_oracle(
        w in 1usize..40,
        pad in 0usize..5,
        k in 1usize..12,
        n_terms in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        check_mac_rows::<1>(w, pad, k, n_terms, seed);
        check_mac_rows::<2>(w, pad, k, n_terms, seed ^ 2);
        check_mac_rows::<3>(w, pad, k, n_terms, seed ^ 3);
        check_mac_rows::<4>(w, pad, k, n_terms, seed ^ 4);
    }

    /// The unordered detector finds exactly the non-zero micro-tiles, for
    /// any micro-tile shape and thread count, each grid row's in ascending
    /// column order. A quarter of the masks are 1024², large enough for the
    /// scan to fan out over several workers.
    #[test]
    fn detector_is_complete_and_sound(
        mh in 1usize..9,
        mw in 1usize..9,
        threads in 1usize..7,
        sparsity in 0.0f64..1.0,
        seed in 0u64..1000,
        side in vec![64usize, 64, 64, 1024],
    ) {
        let mask = generate::granular_random(side, side, 2, 2, sparsity, seed);
        let idx = detect_mask(&cost(), &mask, MicroTile::new(mh, mw), threads);
        let reference = pit::sparse::cover::nonzero_tiles(&mask, mh, mw);
        let got = idx.sorted_coords();
        prop_assert_eq!(got.len(), reference.len());
        for ((gr, gc), (rr, rc)) in got.iter().zip(reference.iter()) {
            prop_assert_eq!(*gr as usize, *rr);
            prop_assert_eq!(*gc as usize, *rc);
        }
        let mut last_col = vec![None; idx.grid.0];
        for &(r, c) in &idx.coords {
            let last = &mut last_col[r as usize];
            prop_assert!(last.is_none_or(|l| l < c), "grid row {} not ascending at {}", r, c);
            *last = Some(c);
        }
    }

    /// CoverAlgo invariants: covered elements bound nnz, and the after-cover
    /// sparsity is a valid fraction that shrinks as tiles align.
    #[test]
    fn cover_accounting_invariants(
        sparsity in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let mask = generate::granular_random(64, 64, 4, 1, sparsity, seed);
        let fine = cover_count(&mask, 4, 1);
        let coarse = cover_count(&mask, 16, 16);
        prop_assert!(fine.covered_elems >= mask.nnz());
        prop_assert!(coarse.covered_elems >= fine.covered_elems);
        prop_assert!((0.0..=1.0).contains(&fine.after_cover_sparsity()));
        // Aligned tiles cover exactly: no residual sparsity.
        prop_assert!(fine.after_cover_sparsity() < 1e-9);
    }

    /// Masks round-trip through apply/from_tensor, on widths that are
    /// mostly not multiples of 64; `from_tensor` marks exactly the values
    /// that are not zero (-0.0 reads as zero, NaN as non-zero).
    #[test]
    fn mask_apply_roundtrip(cols in 1usize..200, sparsity in 0.0f64..1.0, seed in 0u64..1000) {
        let mask = generate::granular_random(32, cols, 1, 1, sparsity, seed);
        let t = mask.apply(&Tensor::full([32, cols], 1.5));
        let back = Mask::from_tensor(&t);
        prop_assert_eq!(back.nnz(), mask.nnz());
        prop_assert_eq!(&back, &mask);
        prop_assert!((t.sparsity() - mask.sparsity()).abs() < 1e-9);
        let mut odd = Tensor::random([32, cols], seed);
        for (i, v) in odd.data_mut().iter_mut().enumerate() {
            match (i + seed as usize) % 5 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                2 => *v = f32::NAN,
                _ => {}
            }
        }
        let want = Mask::from_fn(32, cols, |r, c| odd.data()[r * cols + c] != 0.0);
        prop_assert_eq!(Mask::from_tensor(&odd), want);
    }
}
