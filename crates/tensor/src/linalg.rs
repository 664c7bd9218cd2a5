//! Matrix multiplication and convolution kernels operating on raw [`Tensor`]s.
//!
//! These are the hot loops of the crate. A convolution lowers its whole
//! batch at once: [`im2col`] turns `[N, Ci, H, W]` into one
//! `[Ci·k·k, N·Ho·Wo]` matrix, and a single GEMM against the
//! `[Co, Ci·k·k]` weight yields every image's output, so the GEMM's columns
//! span the batch instead of one small feature map. The backward pass
//! lowers again (the lowering is never kept on the tape), gets the input
//! gradient from one [`matmul_at_b`] plus [`col2im`], and the weight
//! gradient from one row kernel. The GEMM kernels hold a fixed-width tile
//! of output columns in registers across the whole inner loop; there are
//! no SIMD intrinsics and no `unsafe`, the compiler vectorises the tiles.
//!
//! # Bit identity: one operation order per output element
//!
//! Batching, tiling and threading only move work around; each output
//! element keeps the float operations of the plain per-image loops:
//!
//! - a GEMM element starts from `0.0` and adds `a·b` over the inner index
//!   `p` in ascending order (the ikj order);
//! - a convolution weight-gradient element keeps one partial sum per image,
//!   accumulated like a GEMM element over that image's output pixels, and
//!   adds the partials in image order starting from `0.0` — the per-image
//!   `matmul_a_bt` results reduced in image order;
//! - a [`col2im`] element adds its contributions in (kernel row, kernel
//!   column, output pixel) order, as the per-image scatter does.
//!
//! So a batched convolution is bit-identical to lowering and multiplying
//! each image on its own (`tests/properties.rs` checks this), and no kernel
//! skips `a == 0.0` entries: `0 × NaN = NaN` and `0 × ∞ = NaN` must
//! propagate like IEEE-754 says they do.
//!
//! # Determinism under parallelism
//!
//! Every kernel fans out by rows of its output through
//! [`threadpool::ThreadPool::parallel_fill_rows`] once the work reaches
//! [`PAR_MIN_MACS`]: GEMM rows, lowered-matrix rows, the NCHW ↔
//! `[C, N·H·W]` gather and scatter, and per-(image, channel) planes of
//! [`col2im`]. Each row is computed by one lane from the inputs alone and
//! overwrites a disjoint slice, so results are bit-identical for every
//! thread count (`A3CS_THREADS=1` included), and a row whose lane panicked
//! under isolation can be re-run.

use crate::tensor::Tensor;
use std::ops::Range;

/// Minimum multiply–accumulate count (or element moves, for data-layout
/// kernels) before a kernel fans rows out across the thread pool. A
/// fork-join round trip costs tens of microseconds on a 2-vCPU host, about
/// what a tiled GEMM spends on this many MACs; below it the fork loses.
pub const PAR_MIN_MACS: usize = 256 * 1024;

/// Output columns a GEMM row keeps in registers across its inner loop:
/// four 4-lane vectors on the baseline x86-64 target.
const TILE: usize = 16;

/// Work of moving one element in a data-layout kernel (lowering, scatter,
/// gather), in multiply–accumulates of a tiled GEMM, for the
/// [`PAR_MIN_MACS`] fan-out threshold.
const MOVE_COST: usize = 4;

/// Wrap a buffer that the caller sized as exactly `m * n` elements.
fn tensor2(data: Vec<f32>, m: usize, n: usize) -> Tensor {
    match Tensor::from_vec(data, &[m, n]) {
        Ok(t) => t,
        // Callers allocate `vec![0.0; m * n]`, so the length always matches
        // and the element count already fit in memory.
        Err(e) => unreachable!("buffer sized by construction for [{m}, {n}]: {e:?}"),
    }
}

/// Run `fill(row, row_slice)` for every row of `out`, fanning rows across
/// the pool when the kernel is worth `work` multiply–accumulates. `fill`
/// must overwrite its row from the inputs alone, so that any partition of
/// rows across lanes (or a re-run of one) gives the same bits.
pub(crate) fn fan_rows(
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    work: usize,
    fill: impl Fn(usize, &mut [f32]) + Sync,
) {
    if rows == 0 || row_len == 0 {
        return;
    }
    if rows >= 2 && work >= PAR_MIN_MACS {
        threadpool::current().parallel_fill_rows(out, rows, row_len, fill);
    } else {
        for (i, orow) in out.chunks_mut(row_len).enumerate() {
            fill(i, orow);
        }
    }
}

/// [`fan_rows`] for one GEMM of `macs` multiply–accumulates, counted in the
/// `gemm.*` metrics.
fn fill_rows(
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    macs: usize,
    fill: impl Fn(usize, &mut [f32]) + Sync,
) {
    if rows == 0 || row_len == 0 {
        return;
    }
    // Observe-only cost attribution; one relaxed load when telemetry is off.
    if telemetry::enabled() {
        telemetry::GEMM_CALLS.add(1);
        telemetry::GEMM_MACS.add(macs as u64);
        telemetry::GEMM_MACS_HIST.record(macs as u64);
    }
    fan_rows(out, rows, row_len, macs, fill);
}

/// One output row of a GEMM-shaped kernel over a row-major `b` with
/// `n = orow.len()` columns:
/// `orow[j] = Σ_block Σ_{p ∈ block} mul(a(p), b[p·n + j])`, the `k` inner
/// indices split into consecutive blocks of `block`. Each block's partial
/// sum starts from `0.0` and runs over `p` in ascending order; the partials
/// are added in block order, starting from `0.0`. With `block >= k` this is
/// the plain GEMM element: the partial is never `-0.0` (it starts at
/// `+0.0`), so `0.0 + partial` returns it unchanged.
///
/// Columns go [`TILE`] at a time, then 8, 4 and 1 for the remainder, each
/// width a constant so its sums stay in registers.
#[inline(always)]
fn gemm_row(
    orow: &mut [f32],
    k: usize,
    block: usize,
    a: impl Fn(usize) -> f32,
    b: &[f32],
    mul: impl Fn(f32, f32) -> f32,
) {
    let j = tiles::<TILE>(orow, 0, k, block, &a, b, &mul);
    let j = tiles::<8>(orow, j, k, block, &a, b, &mul);
    let j = tiles::<4>(orow, j, k, block, &a, b, &mul);
    tiles::<1>(orow, j, k, block, &a, b, &mul);
}

/// Fill `orow[j0..]` by whole `W`-column tiles of [`gemm_row`]; returns
/// the first column left over.
#[inline(always)]
fn tiles<const W: usize>(
    orow: &mut [f32],
    j0: usize,
    k: usize,
    block: usize,
    a: &impl Fn(usize) -> f32,
    b: &[f32],
    mul: &impl Fn(f32, f32) -> f32,
) -> usize {
    let n = orow.len();
    let mut j = j0;
    for otile in orow[j0..].chunks_exact_mut(W) {
        let mut total = [0.0f32; W];
        for start in (0..k).step_by(block.max(1)) {
            let mut part = [0.0f32; W];
            for p in start..(start + block).min(k) {
                let av = a(p);
                for (s, &bv) in part.iter_mut().zip(&b[p * n + j..p * n + j + W]) {
                    *s += mul(av, bv);
                }
            }
            for (t, s) in total.iter_mut().zip(part) {
                *t += s;
            }
        }
        otile.copy_from_slice(&total);
        j += W;
    }
    j
}

/// `A[m,k] @ B[k,n] -> [m,n]`.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching inner dimension.
#[must_use]
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    fill_rows(&mut out, m, n, m * k * n, |i, orow| {
        let arow = &ad[i * k..(i + 1) * k];
        gemm_row(orow, k, k, |p| arow[p], bd, |av, bv| av * bv);
    });
    tensor2(out, m, n)
}

/// `A^T[k,m] @ B[k,n] -> [m,n]` without materialising the transpose.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching leading dimension.
#[must_use]
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_at_b lhs");
    let (k2, n) = dims2(b, "matmul_at_b rhs");
    assert_eq!(k, k2, "matmul_at_b leading dims differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    fill_rows(&mut out, m, n, m * k * n, |i, orow| {
        gemm_row(orow, k, k, |p| ad[p * m + i], bd, |av, bv| av * bv);
    });
    tensor2(out, m, n)
}

/// `A[m,k] @ B^T[n,k] -> [m,n]` without materialising the transpose.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching trailing dimension.
#[must_use]
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_a_bt lhs");
    let (n, k2) = dims2(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt trailing dims differ: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    fill_rows(&mut out, m, n, m * k * n, |i, orow| {
        let arow = &ad[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            *o = acc;
        }
    });
    tensor2(out, m, n)
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 2, "{what} must be rank 2, got {s:?}");
    (s[0], s[1])
}

/// Copy `src`, laid out `[outer, a, b, inner]`, to `[outer, b, a, inner]`:
/// the NCHW ↔ `[C, N·H·W]` gather and scatter around a batched convolution
/// GEMM, the transpose of its weight gradient, and the NCHW ↔
/// channels-last (`[N, H·W, C]`) transposes around a depthwise
/// convolution.
pub(crate) fn swap_axes(src: &[f32], outer: usize, a: usize, b: usize, inner: usize) -> Vec<f32> {
    assert_eq!(src.len(), outer * a * b * inner, "swap_axes size mismatch");
    let mut out = vec![0.0f32; src.len()];
    fan_rows(
        &mut out,
        outer * b,
        a * inner,
        src.len() * MOVE_COST,
        |r, orow| {
            let (o, bi) = (r / b, r % b);
            let from = |ai: usize| ((o * a + ai) * b + bi) * inner;
            if inner == 1 {
                for (ai, d) in orow.iter_mut().enumerate() {
                    *d = src[from(ai)];
                }
            } else {
                for (ai, dst) in orow.chunks_exact_mut(inner).enumerate() {
                    dst.copy_from_slice(&src[from(ai)..from(ai) + inner]);
                }
            }
        },
    );
    out
}

/// Static geometry of a 2-D convolution (shared by forward and backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
    /// Input spatial height.
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
}

impl Conv2dGeometry {
    /// Output spatial height.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    #[must_use]
    pub fn out_h(&self) -> usize {
        out_dim(self.in_h, self.kernel, self.stride, self.padding)
    }

    /// Output spatial width.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    #[must_use]
    pub fn out_w(&self) -> usize {
        out_dim(self.in_w, self.kernel, self.stride, self.padding)
    }

    /// Number of rows of the lowered (im2col) matrix: `Ci * k * k`.
    #[must_use]
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of lowered (im2col) columns per image: `Ho * Wo`.
    #[must_use]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Per kernel row and per kernel column, the output positions whose tap
    /// reads inside the input (see [`Taps`]), computed once per call so no
    /// inner loop tests padding bounds.
    pub(crate) fn taps(&self) -> (Vec<Taps>, Vec<Taps>) {
        let (s, pad) = (self.stride, self.padding);
        let (oh, ow) = (self.out_h(), self.out_w());
        let rows = (0..self.kernel)
            .map(|t| Taps::new(oh, self.in_h, t, s, pad))
            .collect();
        let cols = (0..self.kernel)
            .map(|t| Taps::new(ow, self.in_w, t, s, pad))
            .collect();
        (rows, cols)
    }

    /// For every lowered column `(img, oy, ox)` of `images` images, the
    /// offset of its top-left tap in a zero-padded `(H+2p) x (W+2p)` plane,
    /// plus `img * image_stride`.
    fn tap_offsets(&self, images: usize, image_stride: usize) -> Vec<usize> {
        let (oh, ow, s) = (self.out_h(), self.out_w(), self.stride);
        let wp = self.in_w + 2 * self.padding;
        let mut offsets = Vec::with_capacity(images * oh * ow);
        for img in 0..images {
            for oy in 0..oh {
                offsets.extend((0..ow).map(|ox| img * image_stride + oy * s * wp + ox * s));
            }
        }
        offsets
    }
}

fn out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    assert!(
        padded >= kernel && stride > 0,
        "kernel {kernel} with stride {stride} does not fit input {input} (+2*{padding} pad)"
    );
    (padded - kernel) / stride + 1
}

/// The output positions `out` whose kernel tap `t` reads inside an input
/// of length `len` (`0 <= o·stride + t - padding < len`), and the input
/// index `first` that `out.start` reads (`0` when `out` is empty). Output
/// `out.start + i` reads input `first + i·stride`.
#[derive(Debug, Clone)]
pub(crate) struct Taps {
    pub(crate) out: Range<usize>,
    pub(crate) first: usize,
}

impl Taps {
    fn new(out_len: usize, len: usize, t: usize, stride: usize, padding: usize) -> Taps {
        let lo = padding.saturating_sub(t).div_ceil(stride);
        let hi = (len + padding)
            .checked_sub(t + 1)
            .map_or(0, |last| (last / stride + 1).min(out_len));
        if lo >= hi {
            return Taps {
                out: 0..0,
                first: 0,
            };
        }
        Taps {
            out: lo..hi,
            first: lo * stride + t - padding,
        }
    }
}

/// Lower a batch of images `[N, Ci, H, W]` (flat; `N` is the number of
/// whole images in `images`) to the im2col matrix `[Ci*k*k, N*Ho*Wo]` for
/// `geom`: row `(c*k + ky)*k + kx`, column `img*Ho*Wo + oy*Wo + ox`. Taps
/// that fall in the padding read `0`.
///
/// # Panics
///
/// Panics if `images` does not hold a whole number of `Ci*H*W` images.
#[must_use]
pub fn im2col(images: &[f32], geom: &Conv2dGeometry) -> Tensor {
    let (ci, h, w, k) = (geom.in_channels, geom.in_h, geom.in_w, geom.kernel);
    assert!(
        ci * h * w > 0 && images.len().is_multiple_of(ci * h * w),
        "im2col: {} elements are not whole [{ci}, {h}, {w}] images",
        images.len()
    );
    let n = images.len() / (ci * h * w);
    let pad = geom.padding;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    // Zero-padded copy, channel-major `[Ci, N, H+2p, W+2p]`, so that every
    // lowered row is one gather from one channel's block with no bounds.
    let mut padded = vec![0.0f32; ci * n * hp * wp];
    for (plane, src) in images.chunks_exact(h * w).enumerate() {
        let (img, c) = (plane / ci, plane % ci);
        let dst = &mut padded[(c * n + img) * hp * wp..][..hp * wp];
        for (drow, srow) in dst[pad * wp..]
            .chunks_exact_mut(wp)
            .zip(src.chunks_exact(w))
        {
            drow[pad..pad + w].copy_from_slice(srow);
        }
    }
    let offsets = geom.tap_offsets(n, hp * wp);
    let (rows, cols) = (geom.col_rows(), offsets.len());
    let mut out = vec![0.0f32; rows * cols];
    fan_rows(
        &mut out,
        rows,
        cols,
        rows * cols * MOVE_COST,
        |row, orow| {
            let (c, ky, kx) = (row / (k * k), row / k % k, row % k);
            let block = &padded[c * n * hp * wp + ky * wp + kx..];
            for (o, &at) in orow.iter_mut().zip(&offsets) {
                *o = block[at];
            }
        },
    );
    tensor2(out, rows, cols)
}

/// Inverse of [`im2col`]: scatter-add a `[Ci*k*k, N*Ho*Wo]` matrix back into
/// a fresh image batch `[N, Ci, H, W]` (used by the convolution backward
/// pass). Each input element sums its contributions in (kernel row, kernel
/// column, output pixel) order, starting from `0.0`.
///
/// # Panics
///
/// Panics if `col` does not have `Ci*k*k` rows and a whole number of
/// `Ho*Wo` column blocks.
#[must_use]
pub fn col2im(col: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    let (rows, cols) = dims2(col, "col2im column matrix");
    let per_image = geom.col_cols();
    assert!(
        rows == geom.col_rows() && cols.is_multiple_of(per_image),
        "col2im column matrix shape mismatch: {:?}",
        col.shape()
    );
    let n = cols / per_image;
    let (ci, h, w, k) = (geom.in_channels, geom.in_h, geom.in_w, geom.kernel);
    let pad = geom.padding;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let offsets = geom.tap_offsets(1, 0);
    let cd = col.data();
    // Accumulate into zero-padded planes `[N, Ci, H+2p, W+2p]`; sums that
    // land in the padding are dropped by the crop below.
    let mut padded = vec![0.0f32; n * ci * hp * wp];
    fan_rows(
        &mut padded,
        n * ci,
        hp * wp,
        rows * cols * MOVE_COST,
        |r, acc| {
            let (img, c) = (r / ci, r % ci);
            acc.fill(0.0);
            for ky in 0..k {
                for kx in 0..k {
                    let src = &cd[((c * k + ky) * k + kx) * cols + img * per_image..][..per_image];
                    let dst = &mut acc[ky * wp + kx..];
                    for (&v, &at) in src.iter().zip(&offsets) {
                        dst[at] += v;
                    }
                }
            }
        },
    );
    let mut out = vec![0.0f32; n * ci * h * w];
    for (plane, acc) in out
        .chunks_exact_mut(h * w)
        .zip(padded.chunks_exact(hp * wp))
    {
        for (drow, arow) in plane
            .chunks_exact_mut(w)
            .zip(acc[pad * wp..].chunks_exact(wp))
        {
            drow.copy_from_slice(&arow[pad..pad + w]);
        }
    }
    match Tensor::from_vec(out, &[n, ci, h, w]) {
        Ok(t) => t,
        Err(e) => unreachable!("col2im buffer sized by construction: {e:?}"),
    }
}

/// Weight gradient `[Co, Ci*k*k]` of a batched convolution from its
/// lowered input `col` ([`im2col`] of the batch) and output gradient `g`
/// (`[N, Co, Ho, Wo]`, flat). One row kernel over the rows of `col`: row
/// `r` holds, for every output channel, one partial per image accumulated
/// over that image's output pixels in order and the partials added in
/// image order — the per-image `matmul_a_bt(g_img, col_img)` summed over
/// images. Counts as one GEMM.
pub(crate) fn conv_weight_grad(col: &Tensor, g: &[f32], geom: &Conv2dGeometry) -> Vec<f32> {
    let (rows, cols) = dims2(col, "conv_weight_grad lowering");
    let (co, per_image) = (geom.out_channels, geom.col_cols());
    assert_eq!(
        g.len(),
        co * cols,
        "conv_weight_grad gradient size mismatch"
    );
    let n = cols / per_image;
    // `[N, Co, P]` -> `[N·P, Co]`: the rhs rows, contiguous over channels.
    let gt = swap_axes(g, n, co, per_image, 1);
    let cd = col.data();
    let mut dwt = vec![0.0f32; rows * co];
    fill_rows(&mut dwt, rows, co, rows * cols * co, |r, orow| {
        let crow = &cd[r * cols..(r + 1) * cols];
        gemm_row(orow, cols, per_image, |q| crow[q], &gt, |cv, gv| gv * cv);
    });
    swap_axes(&dwt, 1, rows, co, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn matmul_small_known() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::randn(&[5, 5], 1.0, 1);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_entries() {
        // 0 × NaN must yield NaN per IEEE-754; a zero-skip fast path used to
        // silently drop it.
        let a = t(vec![0.0, 0.0], &[1, 2]);
        let b = t(vec![f32::NAN, f32::INFINITY, 1.0, 2.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert!(c.data()[0].is_nan(), "0*NaN row must stay NaN");
        assert!(c.data()[1].is_nan(), "0*inf must stay NaN");

        let at = t(vec![0.0, 0.0], &[2, 1]);
        let cat = matmul_at_b(&at, &b);
        assert!(cat.data()[0].is_nan() && cat.data()[1].is_nan());

        let bt = t(vec![f32::NAN, f32::INFINITY], &[1, 2]);
        let cbt = matmul_a_bt(&a, &bt);
        assert!(cbt.data()[0].is_nan());
    }

    #[test]
    fn gemm_kernels_bit_identical_across_thread_counts() {
        // Big enough to clear PAR_MIN_MACS so the 4-thread run really forks.
        let a = Tensor::randn(&[80, 66], 1.0, 21);
        let b = Tensor::randn(&[66, 74], 1.0, 22);
        let at = Tensor::randn(&[66, 80], 1.0, 23);
        let bt = Tensor::randn(&[74, 66], 1.0, 24);
        const { assert!(80 * 66 * 74 >= PAR_MIN_MACS) };
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let seq = threadpool::with_threads(1, || {
            (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
        });
        for threads in [2usize, 4] {
            let par = threadpool::with_threads(threads, || {
                (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
            });
            assert_eq!(bits(&seq.0), bits(&par.0), "matmul threads={threads}");
            assert_eq!(bits(&seq.1), bits(&par.1), "matmul_at_b threads={threads}");
            assert_eq!(bits(&seq.2), bits(&par.2), "matmul_a_bt threads={threads}");
        }
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::randn(&[4, 6], 1.0, 2);
        let b = Tensor::randn(&[4, 3], 1.0, 3);
        let c = Tensor::randn(&[5, 6], 1.0, 4);
        assert!(matmul_at_b(&a, &b).max_abs_diff(&matmul(&a.transpose(), &b)) < 1e-5);
        assert!(matmul_a_bt(&a, &c).max_abs_diff(&matmul(&a, &c.transpose())) < 1e-5);
    }

    #[test]
    fn geometry_output_dims() {
        let g = Conv2dGeometry {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
            in_h: 8,
            in_w: 8,
        };
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
        assert_eq!(g.col_rows(), 27);
        assert_eq!(g.col_cols(), 16);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is just a reshape.
        let g = Conv2dGeometry {
            in_channels: 2,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_h: 2,
            in_w: 2,
        };
        let img: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let col = im2col(&img, &g);
        assert_eq!(col.shape(), &[2, 4]);
        assert_eq!(col.data(), img.as_slice());
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let g = Conv2dGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_h: 2,
            in_w: 2,
        };
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let col = im2col(&img, &g);
        assert_eq!(col.shape(), &[9, 4]);
        // Top-left kernel tap at output (0,0) reads the padded corner => 0.
        assert_eq!(col.at(&[0, 0]), 0.0);
        // Centre tap reproduces the image.
        assert_eq!(col.at(&[4, 0]), 1.0);
        assert_eq!(col.at(&[4, 3]), 4.0);
    }

    #[test]
    fn conv_via_im2col_matches_naive() {
        let g = Conv2dGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
            in_h: 5,
            in_w: 5,
        };
        let img = Tensor::randn(&[2 * 5 * 5], 1.0, 9);
        let w = Tensor::randn(&[3, g.col_rows()], 1.0, 10);
        let col = im2col(img.data(), &g);
        let out = matmul(&w, &col); // [Co, Ho*Wo]

        // naive direct convolution
        let (oh, ow) = (g.out_h(), g.out_w());
        for co in 0..3 {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..2 {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let iy = (oy * 2 + ky) as isize - 1;
                                let ix = (ox * 2 + kx) as isize - 1;
                                if iy < 0 || ix < 0 || iy >= 5 || ix >= 5 {
                                    continue;
                                }
                                let iv = img.data()[(ci * 5 + iy as usize) * 5 + ix as usize];
                                let wv = w.at(&[co, (ci * 3 + ky) * 3 + kx]);
                                acc += iv * wv;
                            }
                        }
                    }
                    let got = out.at(&[co, oy * ow + ox]);
                    assert!((got - acc).abs() < 1e-4, "mismatch at {co},{oy},{ox}");
                }
            }
        }
    }

    #[test]
    fn col2im_roundtrip_counts_overlaps() {
        // With kernel 1 / stride 1 / no padding col2im must be the exact
        // inverse scatter of im2col.
        let g = Conv2dGeometry {
            in_channels: 2,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_h: 3,
            in_w: 3,
        };
        let img: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let col = im2col(&img, &g);
        assert_eq!(col2im(&col, &g).data(), img.as_slice());
    }

    #[test]
    fn col2im_accumulates_overlapping_windows() {
        // kernel 2, stride 1 on a 3-wide row: centre pixel is visited twice.
        let g = Conv2dGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
            in_h: 2,
            in_w: 3,
        };
        let ones = Tensor::ones(&[g.col_rows(), g.col_cols()]);
        let img = col2im(&ones, &g);
        assert_eq!(img.shape(), &[1, 1, 2, 3]);
        // Visit counts: corners 1, edge-centres 2 (2x3 input, 2x2 kernel -> 1x2 outputs).
        assert_eq!(img.data(), &[1.0, 2.0, 1.0, 1.0, 2.0, 1.0]);
    }
}
