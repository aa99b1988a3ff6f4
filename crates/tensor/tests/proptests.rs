//! Property-based tests for the tensor substrate.

use deepmorph_tensor::backend::ComputeCtx;
use deepmorph_tensor::conv::{self, Conv2dGeometry, PoolGeometry};
use deepmorph_tensor::{io, stats, Tensor};
use proptest::prelude::*;

fn tensor_strategy(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_identity_left_right(t in tensor_strategy(6)) {
        let rows = t.shape()[0];
        let cols = t.shape()[1];
        let ctx = ComputeCtx::default();
        let left = ctx.matmul(&Tensor::eye(rows), &t).unwrap();
        let right = ctx.matmul(&t, &Tensor::eye(cols)).unwrap();
        for (a, b) in left.data().iter().zip(t.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        for (a, b) in right.data().iter().zip(t.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(5),
        seed in 0u64..1000,
    ) {
        // Build b, c with shapes compatible with a.
        let k = a.shape()[1];
        let n = (seed % 4 + 1) as usize;
        let b = Tensor::from_vec(
            (0..k * n).map(|i| ((i as u64 * 37 + seed) % 19) as f32 - 9.0).collect(),
            &[k, n],
        ).unwrap();
        let c = Tensor::from_vec(
            (0..k * n).map(|i| ((i as u64 * 11 + seed) % 23) as f32 - 11.0).collect(),
            &[k, n],
        ).unwrap();
        let ctx = ComputeCtx::default();
        let lhs = ctx.matmul(&a, &b.add_tensor(&c).unwrap()).unwrap();
        let rhs = ctx
            .matmul(&a, &b)
            .unwrap()
            .add_tensor(&ctx.matmul(&a, &c).unwrap())
            .unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_preserves_matmul(a in tensor_strategy(5), b in tensor_strategy(5)) {
        // (A B)^T = B^T A^T whenever shapes align; build an aligned b.
        let k = a.shape()[1];
        let b = b.reshape(&[b.len(), 1]).unwrap();
        let b = if b.len() >= k {
            b.slice_rows(0, k).unwrap()
        } else {
            return Ok(());
        };
        let ctx = ComputeCtx::default();
        let ab_t = ctx.matmul(&a, &b).unwrap().transpose().unwrap();
        let bt_at = ctx
            .matmul(&b.transpose().unwrap(), &a.transpose().unwrap())
            .unwrap();
        for (x, y) in ab_t.data().iter().zip(bt_at.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor_strategy(8)) {
        let s = t.softmax_rows().unwrap();
        for r in 0..s.shape()[0] {
            let row = s.row(r).unwrap();
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_argmax_matches_logit_argmax(t in tensor_strategy(8)) {
        let s = t.softmax_rows().unwrap();
        prop_assert_eq!(t.argmax_rows().unwrap(), s.argmax_rows().unwrap());
    }

    #[test]
    fn js_similarity_symmetric_and_bounded(
        p in proptest::collection::vec(0.01f32..1.0, 4),
        q in proptest::collection::vec(0.01f32..1.0, 4),
    ) {
        let mut p = p;
        let mut q = q;
        stats::normalize_in_place(&mut p);
        stats::normalize_in_place(&mut q);
        let ab = stats::js_similarity(&p, &q);
        let ba = stats::js_similarity(&q, &p);
        prop_assert!((ab - ba).abs() < 1e-4);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!(stats::js_similarity(&p, &p) > 0.999);
    }

    #[test]
    fn im2col_col2im_adjoint(
        n in 1usize..3,
        c in 1usize..3,
        hw in 3usize..7,
        k in 1usize..4,
        pad in 0usize..2,
    ) {
        prop_assume!(k <= hw + 2 * pad);
        let geo = Conv2dGeometry::new(c, 1, hw, hw, k, k, 1, pad).unwrap();
        let x = Tensor::from_vec(
            (0..n * c * hw * hw).map(|i| ((i * 7) % 13) as f32 - 6.0).collect(),
            &[n, c, hw, hw],
        ).unwrap();
        let cols = conv::im2col(&x, &geo).unwrap();
        let y = Tensor::from_vec(
            (0..cols.len()).map(|i| ((i * 3) % 11) as f32 - 5.0).collect(),
            cols.shape(),
        ).unwrap();
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = conv::col2im(&y, &geo, n).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-1 * lhs.abs().max(1.0), "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn maxpool_output_bounded_by_input(hw in 2usize..8, window in 1usize..3) {
        prop_assume!(window <= hw);
        let geo = PoolGeometry::new(1, hw, hw, window, window).unwrap();
        let x = Tensor::from_vec(
            (0..hw * hw).map(|i| ((i * 17) % 29) as f32 - 14.0).collect(),
            &[1, 1, hw, hw],
        ).unwrap();
        let (y, _) = conv::maxpool2d(&x, &geo).unwrap();
        prop_assert!(y.max() <= x.max() + 1e-6);
        prop_assert!(y.min() >= x.min() - 1e-6);
    }

    #[test]
    fn stack_then_rows_recovers_inputs(t in tensor_strategy(4)) {
        let flat = t.reshape(&[t.len()]).unwrap();
        let s = Tensor::stack(&[&flat, &flat]).unwrap();
        prop_assert_eq!(s.shape()[0], 2);
        let row0 = s.row(0).unwrap();
        prop_assert_eq!(row0, flat.data());
    }

    // --- binary codec (io module) -------------------------------------

    #[test]
    fn codec_round_trips_any_tensor_bitwise(t in tensor_strategy(9)) {
        let bytes = io::encode_tensor(&t);
        let back = io::decode_tensor(&bytes).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_round_trips_higher_ranks(
        n in 1usize..4, c in 1usize..4, h in 1usize..5, w in 1usize..5, salt in 0u64..100,
    ) {
        let len = n * c * h * w;
        let data: Vec<f32> = (0..len)
            .map(|i| f32::from_bits(((i as u64 * 0x9E37 + salt * 0x1234_5677) % 0x7F7F_FFFF) as u32))
            .collect();
        let t = Tensor::from_vec(data, &[n, c, h, w]).unwrap();
        let back = io::decode_tensor(&io::encode_tensor(&t)).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_rejects_any_truncation(t in tensor_strategy(5), cut_frac in 0.0f64..1.0) {
        let bytes = io::encode_tensor(&t);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let err = io::decode_tensor(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                io::CodecError::Truncated { .. } | io::CodecError::ChecksumMismatch { .. }
            ),
            "unexpected error for cut {cut}: {err}"
        );
    }

    #[test]
    fn codec_rejects_any_single_bitflip(t in tensor_strategy(5), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = io::encode_tensor(&t);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        // Any corruption must surface as a typed error, never a wrong
        // tensor: either the checksum catches it or a header field
        // becomes invalid.
        match io::decode_tensor(&bytes) {
            Ok(_) => prop_assert!(false, "corrupted container decoded successfully"),
            Err(e) => prop_assert!(
                !format!("{e}").is_empty(),
                "error must be displayable"
            ),
        }
    }
}
