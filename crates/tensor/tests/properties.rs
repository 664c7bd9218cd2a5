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

/// Batch-norm value, input gradient, dγ, dβ, batch mean and batch variance,
/// as bits (the statistics are empty in inference mode).
type BnBits = [Vec<u32>; 6];

/// The per-channel batch-norm loops. In train mode (`running` is `None`)
/// each channel's mean adds its planes' `iter().sum()` in image order, and
/// its variance and backward sums run over images and positions in order;
/// in inference mode the given running statistics normalise.
fn batch_norm_per_channel(
    x: &Tensor,
    affine: (&Tensor, &Tensor),
    g: &Tensor,
    running: Option<(&Tensor, &Tensor)>,
) -> BnBits {
    let eps = 1e-5f32;
    let s = x.shape();
    let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
    let m = n * hw;
    let (xd, gd) = (x.data(), g.data());
    let (gamma, beta) = (affine.0.data(), affine.1.data());
    let (mean, var) = match running {
        Some((rm, rv)) => (rm.data().to_vec(), rv.data().to_vec()),
        None => {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut acc = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * hw;
                    acc += xd[base..base + hw].iter().sum::<f32>();
                }
                mean[ci] = acc / m as f32;
                let mut vacc = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * hw;
                    for &xv in &xd[base..base + hw] {
                        let d = xv - mean[ci];
                        vacc += d * d;
                    }
                }
                var[ci] = vacc / m as f32;
            }
            (mean, var)
        }
    };
    let ivar: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let mut y = vec![0.0f32; xd.len()];
    let mut xhat = vec![0.0f32; xd.len()];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * hw;
            for o in 0..hw {
                let xh = (xd[base + o] - mean[ci]) * ivar[ci];
                xhat[base + o] = xh;
                y[base + o] = gamma[ci] * xh + beta[ci];
            }
        }
    }
    let mut dgamma = vec![0.0f32; c];
    let mut dbeta = vec![0.0f32; c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * hw;
            for o in 0..hw {
                dbeta[ci] += gd[base + o];
                dgamma[ci] += gd[base + o] * xhat[base + o];
            }
        }
    }
    let mut dx = vec![0.0f32; xd.len()];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * hw;
            for o in 0..hw {
                let (gg, xh) = (gd[base + o], xhat[base + o]);
                dx[base + o] = if running.is_some() {
                    gg * (gamma[ci] * ivar[ci])
                } else {
                    let k = gamma[ci] * ivar[ci] / m as f32;
                    k * (m as f32 * gg - dbeta[ci] - xh * dgamma[ci])
                };
            }
        }
    }
    let stats = if running.is_some() {
        (Vec::new(), Vec::new())
    } else {
        (mean, var)
    };
    let to_bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect();
    [
        to_bits(&y),
        to_bits(&dx),
        to_bits(&dgamma),
        to_bits(&dbeta),
        to_bits(&stats.0),
        to_bits(&stats.1),
    ]
}

/// Run train-mode (`running` is `None`) or inference-mode batch norm on a
/// recording tape, seeding backward with `g`, and on a `Tape::no_grad()`
/// tape. Returns the recording run's bits and the no-grad run's value and
/// statistics.
fn run_batch_norm(
    x: &Tensor,
    affine: (&Tensor, &Tensor),
    g: &Tensor,
    running: Option<(&Tensor, &Tensor)>,
) -> (BnBits, [Vec<u32>; 3]) {
    let to_bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let forward = |xv: &Var, gv: &Var, bv: &Var| match running {
        Some((rm, rv)) => {
            let y = xv.batch_norm2d_inference(gv, bv, rm, rv, 1e-5);
            (y, Vec::new(), Vec::new())
        }
        None => {
            let (y, stats) = xv.batch_norm2d(gv, bv, 1e-5);
            (y, to_bits(&stats.mean), to_bits(&stats.var))
        }
    };
    let tape = Tape::new();
    let leaf = |t: &Tensor| tape.leaf(t.clone());
    let (xv, gv, bv) = (leaf(x), leaf(affine.0), leaf(affine.1));
    let (y, mean, var) = forward(&xv, &gv, &bv);
    y.backward_with(g.clone());
    let grad = |v: &Var| bits(&v.grad().unwrap());
    let recorded = [bits(&y.value()), grad(&xv), grad(&gv), grad(&bv), mean, var];
    let side = Tape::no_grad();
    let constant = |t: &Tensor| side.constant(t.clone());
    let (y, mean, var) = forward(&constant(x), &constant(affine.0), &constant(affine.1));
    (recorded, [bits(&y.value()), mean, var])
}

/// A batch-norm input: `(n, c, (h, w), data seed, poison mask)`, with
/// channel counts on and off the side-by-side width, one-pixel planes and
/// single images among them. Poison bit 0 puts a NaN in the input, bit 1 a
/// `+∞` and a `-∞`, bit 2 makes one whole plane `-0.0`.
fn bn_case() -> impl Strategy<Value = (usize, usize, (usize, usize), u64, u8)> {
    (
        prop::sample::select(vec![1usize, 2, 4, 20]),
        prop::sample::select(vec![1usize, 7, 8, 9, 17, 160]),
        prop::sample::select(vec![(1usize, 1usize), (1, 3), (2, 2), (3, 3), (6, 6)]),
        any::<u64>(),
        0u8..8,
    )
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

    // Channels summed side by side and planes walked by slices must keep
    // every per-channel loop's bits, in train and inference mode, on a
    // recording and on a no-grad tape, with NaN, ±∞ and -0.0 inputs.
    #[test]
    fn batch_norm_is_bit_identical_to_per_channel_loops(case in bn_case()) {
        let (n, c, (h, w), seed, poison) = case;
        let shape = [n, c, h, w];
        let mut x = Tensor::randn(&shape, 2.0, seed);
        let len = x.len();
        let at = |k: u64| (seed.rotate_left(k as u32 * 16) % len as u64) as usize;
        if poison & 1 != 0 {
            x.data_mut()[at(1)] = f32::NAN;
        }
        if poison & 2 != 0 {
            x.data_mut()[at(2)] = f32::INFINITY;
            x.data_mut()[at(3)] = f32::NEG_INFINITY;
        }
        if poison & 4 != 0 {
            let plane = at(0) / (h * w);
            x.data_mut()[plane * h * w..(plane + 1) * h * w].fill(-0.0);
        }
        let gamma = Tensor::randn(&[c], 1.0, seed ^ 1);
        let beta = Tensor::randn(&[c], 1.0, seed ^ 2);
        let g = Tensor::randn(&shape, 1.0, seed ^ 3);
        let rm = Tensor::randn(&[c], 1.0, seed ^ 4);
        let rv = Tensor::randn(&[c], 1.0, seed ^ 5).map(f32::abs);
        for running in [None, Some((&rm, &rv))] {
            let reference = batch_norm_per_channel(&x, (&gamma, &beta), &g, running);
            let (recorded, forward_only) = run_batch_norm(&x, (&gamma, &beta), &g, running);
            let mode = if running.is_some() { "inference" } else { "train" };
            prop_assert_eq!(&recorded, &reference, "{} {:?} poison={}", mode, shape, poison);
            let [value, _, _, _, mean, var] = &reference;
            prop_assert_eq!(&forward_only, &[value.clone(), mean.clone(), var.clone()]);
        }
    }
}

/// The supernet's depthwise shapes: 6×6, 3×3 and 2×2 maps, kernels 3 and 5
/// with same padding, strides 1 and 2, batches of 1, 4 and 20, and widths
/// of 24 to 160 channels plus one off the vector width. Channel 0 has a NaN
/// and the last channel an ∞ weight in a corner tap, which reads the
/// padding at the map's corners: a kernel that multiplied the padding
/// would turn those outputs and gradients into NaN.
#[test]
fn depthwise_is_bit_identical_to_per_image_at_supernet_shapes() {
    let widths = [24usize, 40, 80, 160, 13];
    let mut case = 0u64;
    for hw in [6usize, 3, 2] {
        for kernel in [3usize, 5] {
            for stride in [1usize, 2] {
                for n in [1usize, 4, 20] {
                    let c = widths[case as usize % widths.len()];
                    case += 1;
                    let geom = Conv2dGeometry {
                        in_channels: c,
                        out_channels: c,
                        kernel,
                        stride,
                        padding: kernel / 2,
                        in_h: hw,
                        in_w: hw,
                    };
                    let x = Tensor::randn(&[n, c, hw, hw], 1.0, case);
                    let mut w = Tensor::randn(&[c, kernel, kernel], 1.0, case ^ 1);
                    w.data_mut()[0] = f32::NAN;
                    w.data_mut()[c * kernel * kernel - 1] = f32::INFINITY;
                    let g = Tensor::randn(&[n, c, geom.out_h(), geom.out_w()], 1.0, case ^ 2);
                    let reference = depthwise_per_image(&x, &w, &g, &geom);
                    for threads in [1usize, 2, 4] {
                        let got = run_op(threads, &x, &w, &g, |x, w| x.depthwise_conv2d(w, geom));
                        assert_eq!(got, reference, "{geom:?} n={n} threads={threads}");
                    }
                }
            }
        }
    }
}
