//! Property-based tests for the tensor and autograd core.

use a3cs_tensor::{
    check_gradients, col2im, im2col, matmul, matmul_a_bt, matmul_at_b, Conv2dGeometry, Tape,
    Tensor, Var,
};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, len)
}

/// A random convolution: `(batch, geometry, data seed)` with kernel 1, 3 or
/// 5, stride 1 or 2 and padding up to `k/2`. Half the draws are small
/// (`N = 1` and `Co = 1` among them); the other half have a kernel of at
/// least 3 and are mostly large enough to clear `PAR_MIN_MACS`, with `Co`
/// of 2 or 3 among them, so the 2- and 4-lane runs fork, some with fewer
/// GEMM rows than lanes.
fn conv_case() -> impl Strategy<Value = (usize, Conv2dGeometry, u64)> {
    (
        (1usize..=6, 1usize..=6, 1usize..=8, 1usize..=14, 1usize..=14),
        (
            12usize..=16,
            8usize..=12,
            prop::sample::select(vec![1usize, 2, 3, 8]),
            10usize..=14,
            10usize..=14,
        ),
        (
            prop::sample::select(vec![1usize, 3, 5]),
            1usize..=2,
            0usize..=2,
            prop::sample::select(vec![false, true]),
            any::<u64>(),
        ),
    )
        .prop_map(|(small, large, (kernel, stride, pad, big, seed))| {
            let (n, ci, co, h, w) = if big { large } else { small };
            let kernel = if big { kernel.max(3) } else { kernel };
            let padding = pad.min(kernel / 2);
            let fit = |len: usize| len.max(kernel - 2 * padding);
            let geom = Conv2dGeometry {
                in_channels: ci,
                out_channels: co,
                kernel,
                stride,
                padding,
                in_h: fit(h),
                in_w: fit(w),
            };
            (n, geom, seed)
        })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Forward value, input gradient and weight gradient of one op, as bits.
type Bits3 = (Vec<u32>, Vec<u32>, Vec<u32>);

/// Run `op` on a fresh tape at `threads` lanes, seeding backward with `g`.
fn run_op(
    threads: usize,
    x: &Tensor,
    w: &Tensor,
    g: &Tensor,
    op: impl Fn(&Var, &Var) -> Var,
) -> Bits3 {
    threadpool::with_threads(threads, || {
        let tape = Tape::new();
        let (xv, wv) = (tape.leaf(x.clone()), tape.leaf(w.clone()));
        let y = op(&xv, &wv);
        y.backward_with(g.clone());
        let grad = |v: &Var| bits(&v.grad().unwrap());
        (bits(&y.value()), grad(&xv), grad(&wv))
    })
}

/// The per-image convolution: lower and multiply each image on its own,
/// scatter each image's column gradient back, and add the per-image weight
/// gradients in image order.
fn conv2d_per_image(x: &Tensor, w: &Tensor, g: &Tensor, geom: &Conv2dGeometry) -> Bits3 {
    let n = x.shape()[0];
    let (co, ckk, p) = (geom.out_channels, geom.col_rows(), geom.col_cols());
    let image_len = geom.in_channels * geom.in_h * geom.in_w;
    let w2d = w.reshape(&[co, ckk]);
    let (mut y, mut dx, mut dw) = (Vec::new(), Vec::new(), vec![0.0f32; co * ckk]);
    for img in 0..n {
        let col = im2col(&x.data()[img * image_len..(img + 1) * image_len], geom);
        y.extend_from_slice(matmul(&w2d, &col).data());
        let gmat = Tensor::from_vec(
            g.data()[img * co * p..(img + 1) * co * p].to_vec(),
            &[co, p],
        )
        .unwrap();
        dx.extend_from_slice(col2im(&matmul_at_b(&w2d, &gmat), geom).data());
        for (d, &v) in dw.iter_mut().zip(matmul_a_bt(&gmat, &col).data()) {
            *d += v;
        }
    }
    let to_bits = |v: Vec<f32>| v.iter().map(|f| f.to_bits()).collect();
    (to_bits(y), to_bits(dx), to_bits(dw))
}

/// The direct per-image depthwise loop: taps in the padding are skipped,
/// and each image's weight gradient is added in image order.
fn depthwise_per_image(x: &Tensor, w: &Tensor, g: &Tensor, geom: &Conv2dGeometry) -> Bits3 {
    let n = x.shape()[0];
    let (c, h, wd, k) = (geom.in_channels, geom.in_h, geom.in_w, geom.kernel);
    let (s, pad, oh, ow) = (geom.stride, geom.padding, geom.out_h(), geom.out_w());
    let (xd, wv, gd) = (x.data(), w.data(), g.data());
    let mut y = vec![0.0f32; n * c * oh * ow];
    let mut dx = vec![0.0f32; n * c * h * wd];
    let mut dw = vec![0.0f32; c * k * k];
    for img in 0..n {
        let mut dw_img = vec![0.0f32; c * k * k];
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = ((img * c + ci) * oh + oy) * ow + ox;
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        for kx in 0..k {
                            let (iy, ix) = (oy * s + ky, ox * s + kx);
                            if iy < pad || ix < pad || iy - pad >= h || ix - pad >= wd {
                                continue;
                            }
                            let i = ((img * c + ci) * h + iy - pad) * wd + ix - pad;
                            let t = (ci * k + ky) * k + kx;
                            acc += xd[i] * wv[t];
                            dx[i] += gd[o] * wv[t];
                            dw_img[t] += gd[o] * xd[i];
                        }
                    }
                    y[o] = acc;
                }
            }
        }
        for (d, v) in dw.iter_mut().zip(dw_img) {
            *d += v;
        }
    }
    let to_bits = |v: Vec<f32>| v.iter().map(|f| f.to_bits()).collect();
    (to_bits(y), to_bits(dx), to_bits(dw))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(data in small_vec(12)) {
        let a = Tensor::from_vec(data[..6].to_vec(), &[6]).unwrap();
        let b = Tensor::from_vec(data[6..].to_vec(), &[6]).unwrap();
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn mul_distributes_over_add(data in small_vec(12)) {
        let a = Tensor::from_vec(data[..4].to_vec(), &[4]).unwrap();
        let b = Tensor::from_vec(data[4..8].to_vec(), &[4]).unwrap();
        let c = Tensor::from_vec(data[8..].to_vec(), &[4]).unwrap();
        let lhs = a.mul(&b.add(&c));
        let rhs = a.mul(&b).add(&a.mul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn scale_matches_mul_by_full(data in small_vec(8), c in -2.0f32..2.0) {
        let a = Tensor::from_vec(data, &[8]).unwrap();
        let full = Tensor::full(&[8], c);
        prop_assert!(a.scale(c).max_abs_diff(&a.mul(&full)) < 1e-5);
    }

    #[test]
    fn transpose_is_involutive(data in small_vec(12)) {
        let a = Tensor::from_vec(data, &[3, 4]).unwrap();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_is_linear_in_lhs(data in small_vec(24), s in -2.0f32..2.0) {
        let a = Tensor::from_vec(data[..6].to_vec(), &[2, 3]).unwrap();
        let b = Tensor::from_vec(data[6..12].to_vec(), &[2, 3]).unwrap();
        let m = Tensor::from_vec(data[12..].to_vec(), &[3, 4]).unwrap();
        let lhs = matmul(&a.scale(s).add(&b), &m);
        let rhs = matmul(&a, &m).scale(s).add(&matmul(&b, &m));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn softmax_rows_are_distributions(data in small_vec(15)) {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(data, &[3, 5]).unwrap());
        let p = x.softmax_rows();
        let v = p.value();
        for r in 0..3 {
            let row = &v.data()[r * 5..(r + 1) * 5];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn backward_of_sum_is_ones(data in small_vec(10)) {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(data, &[10]).unwrap());
        x.sum().backward();
        prop_assert_eq!(x.grad().unwrap(), Tensor::ones(&[10]));
    }

    #[test]
    fn gradient_of_quadratic_matches_numeric(data in small_vec(6)) {
        let x = Tensor::from_vec(data, &[6]).unwrap();
        let report = check_gradients(
            &|_t, v| v.square().sum(),
            &x,
            1e-2,
        );
        prop_assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn gradient_is_linear_in_seed(data in small_vec(5), k in 0.5f32..3.0) {
        // backward_with(k * seed) must produce k * grad.
        let x_t = Tensor::from_vec(data, &[5]).unwrap();
        let run = |scale: f32| {
            let tape = Tape::new();
            let x = tape.leaf(x_t.clone());
            let y = x.square();
            y.backward_with(Tensor::full(&[5], scale));
            x.grad().unwrap()
        };
        let g1 = run(1.0);
        let gk = run(k);
        prop_assert!(gk.max_abs_diff(&g1.scale(k)) < 1e-3);
    }

    #[test]
    fn reshape_roundtrip_preserves_values(data in small_vec(24)) {
        let t = Tensor::from_vec(data, &[2, 3, 4]).unwrap();
        let r = t.reshape(&[4, 6]).reshape(&[2, 3, 4]);
        prop_assert_eq!(r, t);
    }

    #[test]
    fn concat0_len_is_sum(rows_a in 1usize..4, rows_b in 1usize..4) {
        let a = Tensor::ones(&[rows_a, 3]);
        let b = Tensor::zeros(&[rows_b, 3]);
        let c = Tensor::concat0(&[&a, &b]);
        prop_assert_eq!(c.shape(), &[rows_a + rows_b, 3]);
        prop_assert!((c.sum() - (rows_a * 3) as f32).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // One lowering and one GEMM for the whole batch must give the same bits
    // as the per-image algorithm, at every lane count.
    #[test]
    fn batched_conv2d_is_bit_identical_to_per_image(case in conv_case()) {
        let (n, geom, seed) = case;
        let (ci, co, k) = (geom.in_channels, geom.out_channels, geom.kernel);
        let x = Tensor::randn(&[n, ci, geom.in_h, geom.in_w], 1.0, seed);
        let w = Tensor::randn(&[co, ci, k, k], 1.0, seed ^ 1);
        let g = Tensor::randn(&[n, co, geom.out_h(), geom.out_w()], 1.0, seed ^ 2);
        let reference = conv2d_per_image(&x, &w, &g, &geom);
        for threads in [1usize, 2, 4] {
            let got = run_op(threads, &x, &w, &g, |x, w| x.conv2d(w, geom));
            prop_assert_eq!(&got, &reference, "{:?} n={} threads={}", geom, n, threads);
        }
    }

    #[test]
    fn batched_depthwise_is_bit_identical_to_per_image(case in conv_case()) {
        let (n, geom, seed) = case;
        let geom = Conv2dGeometry { out_channels: geom.in_channels, ..geom };
        let (c, k) = (geom.in_channels, geom.kernel);
        let x = Tensor::randn(&[n, c, geom.in_h, geom.in_w], 1.0, seed);
        let w = Tensor::randn(&[c, k, k], 1.0, seed ^ 1);
        let g = Tensor::randn(&[n, c, geom.out_h(), geom.out_w()], 1.0, seed ^ 2);
        let reference = depthwise_per_image(&x, &w, &g, &geom);
        for threads in [1usize, 2, 4] {
            let got = run_op(threads, &x, &w, &g, |x, w| x.depthwise_conv2d(w, geom));
            prop_assert_eq!(&got, &reference, "{:?} n={} threads={}", geom, n, threads);
        }
    }
}
