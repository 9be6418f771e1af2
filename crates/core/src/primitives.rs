//! Tests of `SRead` and `SWrite`, PIT's data-rearrangement primitives
//! (§3.1).
//!
//! The primitives have no code of their own: the kernels in
//! [`crate::kernels`] read the listed rows of `A` by index arithmetic
//! (`SRead`) and write each result row into its own position of `C`
//! (`SWrite`), in one pass. So their semantics are checked here through
//! [`crate::kernels::spmm_m_axis`].

mod tests {
    use crate::kernels::spmm_m_axis;
    use pit_gpusim::cost::TileDims;
    use pit_gpusim::{CostModel, DeviceSpec};
    use pit_tensor::{ops, DType, Tensor};

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::a100_80gb())
    }

    fn tile() -> TileDims {
        TileDims::new(16, 16, 16)
    }

    #[test]
    fn sread_swrite_round_trip() {
        // With B the identity, the dense tile passes the gathered rows
        // through unchanged, so SWrite must put back exactly the rows
        // SRead took and leave every other row zero.
        let a = Tensor::random([10, 4], 2);
        let mut eye = Tensor::zeros([4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        let rows = [9u32, 2, 5, 1];
        let c = spmm_m_axis(&cost(), &a, &eye, &rows, tile(), DType::F32).unwrap();
        for &r in &rows {
            assert_eq!(
                c.tensor.row(r as usize).unwrap(),
                a.row(r as usize).unwrap()
            );
        }
        assert_eq!(c.tensor.row(0).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn permutation_invariance_of_gathered_gemm() {
        // The heart of the paper: any permutation of the gathered rows
        // yields the same C, with SWrite restoring every row's position
        // (Figure 4); rows left out stay zero.
        let cost = cost();
        let a = Tensor::random([6, 4], 3);
        let b = Tensor::random([4, 5], 4);
        let reference = ops::matmul(&a, &b).unwrap();
        for perm in [[2u32, 0, 4], [4, 2, 0], [0, 4, 2]] {
            let c = spmm_m_axis(&cost, &a, &b, &perm, tile(), DType::F32).unwrap();
            for r in 0..6 {
                let want = if perm.contains(&(r as u32)) {
                    reference.row(r).unwrap()
                } else {
                    vec![0.0; 5]
                };
                assert_eq!(c.tensor.row(r).unwrap(), want);
            }
        }
    }
}
