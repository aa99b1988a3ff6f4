//! Convolution and pooling kernels.
//!
//! The convolution layers in `deepmorph-nn` lower 2-D convolution onto
//! matrix multiplication through the classic `im2col` transformation: each
//! receptive field of the (padded) input becomes one row of a patch matrix,
//! so `conv2d(x, w)` is `patches @ w_flat.T`. The backward pass reverses the
//! lowering with [`col2im`].
//!
//! Layers that run the same geometry every batch should build an
//! [`Im2colMap`] once and use the `*_mapped_into` kernels: the gather
//! indices are precomputed per layer, and outputs land in caller-provided
//! (workspace-recycled) buffers, so the steady-state batch loop performs no
//! heap allocations and no per-element bounds arithmetic.
//!
//! All activation tensors are NCHW.

use crate::{workspace, Result, Tensor, TensorError};

/// Static geometry of a 2-D convolution: input/output sizes, kernel,
/// stride, and padding.
///
/// Constructing a `Conv2dGeometry` validates the configuration once, so the
/// per-batch hot paths can index without re-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding applied to all four sides.
    pub padding: usize,
    /// Output height (derived).
    pub out_h: usize,
    /// Output width (derived).
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes and validates convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit
    /// in the padded input, or any dimension is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel_h == 0 || kernel_w == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "zero dimension: in_c={in_channels} out_c={out_channels} \
                     kernel={kernel_h}x{kernel_w} stride={stride}"
                ),
            });
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if kernel_h > padded_h || kernel_w > padded_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "kernel {kernel_h}x{kernel_w} larger than padded input {padded_h}x{padded_w}"
                ),
            });
        }
        let out_h = (padded_h - kernel_h) / stride + 1;
        let out_w = (padded_w - kernel_w) / stride + 1;
        Ok(Conv2dGeometry {
            in_channels,
            out_channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            padding,
            out_h,
            out_w,
        })
    }

    /// Number of elements in one flattened receptive field
    /// (`in_channels * kernel_h * kernel_w`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Number of output spatial positions (`out_h * out_w`).
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }

    fn check_input(&self, input: &Tensor, op: &'static str) -> Result<usize> {
        input.expect_rank(4, op)?;
        let [n, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        if c != self.in_channels || h != self.in_h || w != self.in_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "input {:?} does not match geometry (c={}, h={}, w={})",
                    input.shape(),
                    self.in_channels,
                    self.in_h,
                    self.in_w
                ),
            });
        }
        Ok(n)
    }
}

/// Sentinel in an [`Im2colMap`] marking a padding slot (reads as `0.0`).
const PAD: usize = usize::MAX;

/// Precomputed gather indices for one convolution geometry.
///
/// Entry `(p * patch_len + k)` holds the offset of patch slot `k` at output
/// position `p` within one image's `c*h*w` buffer, or the `PAD` sentinel when the slot
/// falls in the zero padding. Layers cache one map per instance so the
/// per-batch kernels do table lookups instead of recomputing receptive
/// fields.
#[derive(Debug, Clone)]
pub struct Im2colMap {
    geo: Conv2dGeometry,
    idx: Vec<usize>,
}

impl Im2colMap {
    /// Builds the index table for `geo`.
    pub fn new(geo: &Conv2dGeometry) -> Self {
        let patch_len = geo.patch_len();
        let (c, h, w) = (geo.in_channels, geo.in_h, geo.in_w);
        let (kh, kw, stride, pad) = (geo.kernel_h, geo.kernel_w, geo.stride, geo.padding);
        let mut idx = vec![PAD; geo.out_positions() * patch_len];
        for oy in 0..geo.out_h {
            let base_y = (oy * stride) as isize - pad as isize;
            for ox in 0..geo.out_w {
                let base_x = (ox * stride) as isize - pad as isize;
                let row = &mut idx[(oy * geo.out_w + ox) * patch_len..][..patch_len];
                let mut k = 0;
                for ch in 0..c {
                    for ky in 0..kh {
                        let y = base_y + ky as isize;
                        if y < 0 || y >= h as isize {
                            k += kw;
                            continue;
                        }
                        for kx in 0..kw {
                            let x = base_x + kx as isize;
                            if x >= 0 && x < w as isize {
                                row[k] = ch * h * w + y as usize * w + x as usize;
                            }
                            k += 1;
                        }
                    }
                }
            }
        }
        Im2colMap { geo: *geo, idx }
    }

    /// The geometry this map was built for.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }
}

/// Lowers a batch of NCHW inputs to a patch matrix.
///
/// `input` is `[n, c, h, w]`; the result is
/// `[n * out_h * out_w, c * kernel_h * kernel_w]` where row
/// `(i * out_positions + p)` is the receptive field of sample `i` at output
/// position `p` (row-major over `out_h x out_w`). The result buffer comes
/// from the thread's [`workspace`] arena.
///
/// # Errors
///
/// Returns a shape error if `input` is not rank 4 or disagrees with `geo`.
pub fn im2col(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    let n = geo.check_input(input, "im2col")?;
    let patch_len = geo.patch_len();
    let positions = geo.out_positions();
    // Padding slots rely on the zero fill (only in-bounds slots are
    // written below).
    let mut out = workspace::take_zeroed(n * positions * patch_len);
    let src = input.data();
    let (c, h, w) = (geo.in_channels, geo.in_h, geo.in_w);
    let (kh, kw, stride, pad) = (geo.kernel_h, geo.kernel_w, geo.stride, geo.padding);
    let (out_h, out_w) = (geo.out_h, geo.out_w);

    // One chunk per (sample, output row): a pure gather, so chunks are
    // independent and the parallel split is bitwise exact.
    crate::chunks::for_chunks_mut(
        &mut out,
        out_w * patch_len,
        crate::chunks::PAR_GRAIN_ELEMS,
        |chunk_idx, rows| {
            let i = chunk_idx / out_h;
            let oy = chunk_idx % out_h;
            let src_img = &src[i * c * h * w..(i + 1) * c * h * w];
            let base_y = (oy * stride) as isize - pad as isize;
            for (ox, row) in rows.chunks_mut(patch_len).enumerate() {
                let base_x = (ox * stride) as isize - pad as isize;
                let mut k = 0;
                for ch in 0..c {
                    let src_ch = &src_img[ch * h * w..(ch + 1) * h * w];
                    for ky in 0..kh {
                        let y = base_y + ky as isize;
                        if y < 0 || y >= h as isize {
                            k += kw;
                            continue;
                        }
                        let src_row = &src_ch[y as usize * w..(y as usize + 1) * w];
                        for kx in 0..kw {
                            let x = base_x + kx as isize;
                            if x >= 0 && x < w as isize {
                                row[k] = src_row[x as usize];
                            }
                            k += 1;
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(out, &[n * positions, patch_len])
}

/// Table-driven [`im2col`] writing into a caller-provided buffer
/// (`n * out_positions * patch_len`, fully overwritten — stale contents are
/// fine). Identical output to [`im2col`], zero allocations.
///
/// # Errors
///
/// Returns a shape error if `input` disagrees with the map's geometry or
/// `out` has the wrong length.
pub fn im2col_mapped_into(input: &Tensor, map: &Im2colMap, out: &mut [f32]) -> Result<()> {
    let geo = &map.geo;
    let n = geo.check_input(input, "im2col")?;
    let patch_len = geo.patch_len();
    let positions = geo.out_positions();
    if out.len() != n * positions * patch_len {
        return Err(TensorError::LengthMismatch {
            shape: vec![n * positions, patch_len],
            len: out.len(),
        });
    }
    let src = input.data();
    let img_len = geo.in_channels * geo.in_h * geo.in_w;
    let idx = &map.idx;
    let out_h = geo.out_h;
    let row_len = geo.out_w * patch_len;

    // Same (sample, output row) chunking as `im2col`; each row is a pure
    // table gather with `0.0` written for padding slots.
    crate::chunks::for_chunks_mut(
        out,
        row_len,
        crate::chunks::PAR_GRAIN_ELEMS,
        |chunk_idx, rows| {
            let i = chunk_idx / out_h;
            let oy = chunk_idx % out_h;
            let src_img = &src[i * img_len..(i + 1) * img_len];
            let tbl = &idx[oy * row_len..(oy + 1) * row_len];
            for (slot, &ix) in rows.iter_mut().zip(tbl) {
                *slot = if ix == PAD { 0.0 } else { src_img[ix] };
            }
        },
    );
    Ok(())
}

/// Reverses [`im2col`]: scatters patch-matrix gradients back onto the NCHW
/// input gradient, summing where receptive fields overlap. The result
/// buffer comes from the thread's [`workspace`] arena.
///
/// `cols` must be `[n * out_h * out_w, patch_len]`; the result is
/// `[n, c, h, w]`.
///
/// # Errors
///
/// Returns a shape error if `cols` disagrees with `geo` or `n`.
pub fn col2im(cols: &Tensor, geo: &Conv2dGeometry, n: usize) -> Result<Tensor> {
    let mut out = workspace::take_raw(n * geo.in_channels * geo.in_h * geo.in_w);
    col2im_scatter(cols, geo, n, None, &mut out)?;
    Tensor::from_vec(out, &[n, geo.in_channels, geo.in_h, geo.in_w])
}

/// Table-driven [`col2im`] writing into a caller-provided buffer
/// (`n * c * h * w`, fully overwritten). Identical output to [`col2im`],
/// zero allocations.
///
/// # Errors
///
/// Returns a shape error if `cols` disagrees with the map's geometry or
/// `out` has the wrong length.
pub fn col2im_mapped_into(cols: &Tensor, map: &Im2colMap, n: usize, out: &mut [f32]) -> Result<()> {
    col2im_scatter(cols, &map.geo, n, Some(&map.idx), out)
}

/// Shared scatter core of [`col2im`] / [`col2im_mapped_into`]: zeroes each
/// image chunk, then adds overlapping receptive fields in the pinned order
/// (output positions row-major, patch slots `ch, ky, kx`).
fn col2im_scatter(
    cols: &Tensor,
    geo: &Conv2dGeometry,
    n: usize,
    idx: Option<&[usize]>,
    out: &mut [f32],
) -> Result<()> {
    cols.expect_rank(2, "col2im")?;
    let patch_len = geo.patch_len();
    let positions = geo.out_positions();
    if cols.shape() != [n * positions, patch_len] {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "cols {:?} does not match geometry [{} x {}]",
                cols.shape(),
                n * positions,
                patch_len
            ),
        });
    }
    let (c, h, w) = (geo.in_channels, geo.in_h, geo.in_w);
    if out.len() != n * c * h * w {
        return Err(TensorError::LengthMismatch {
            shape: vec![n, c, h, w],
            len: out.len(),
        });
    }
    let (kh, kw, stride, pad) = (geo.kernel_h, geo.kernel_w, geo.stride, geo.padding);
    let src = cols.data();

    // col2im scatter-adds overlapping receptive fields, so the parallel
    // split is per sample: each image's accumulation stays on one thread
    // in serial order (bitwise exact).
    crate::chunks::for_chunks_mut(
        out,
        c * h * w,
        crate::chunks::PAR_GRAIN_ELEMS,
        |i, dst_img| {
            dst_img.fill(0.0);
            if let Some(idx) = idx {
                for p in 0..positions {
                    let row = &src[(i * positions + p) * patch_len..][..patch_len];
                    let tbl = &idx[p * patch_len..(p + 1) * patch_len];
                    for (&v, &ix) in row.iter().zip(tbl) {
                        if ix != PAD {
                            dst_img[ix] += v;
                        }
                    }
                }
                return;
            }
            for oy in 0..geo.out_h {
                for ox in 0..geo.out_w {
                    let row_idx = i * positions + oy * geo.out_w + ox;
                    let row = &src[row_idx * patch_len..(row_idx + 1) * patch_len];
                    let base_y = (oy * stride) as isize - pad as isize;
                    let base_x = (ox * stride) as isize - pad as isize;
                    let mut k = 0;
                    for ch in 0..c {
                        for ky in 0..kh {
                            let y = base_y + ky as isize;
                            if y < 0 || y >= h as isize {
                                k += kw;
                                continue;
                            }
                            for kx in 0..kw {
                                let x = base_x + kx as isize;
                                if x >= 0 && x < w as isize {
                                    dst_img[ch * h * w + y as usize * w + x as usize] += row[k];
                                }
                                k += 1;
                            }
                        }
                    }
                }
            }
        },
    );
    Ok(())
}

/// Static geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGeometry {
    /// Channels (pooling is per-channel).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Pooling window size (square).
    pub window: usize,
    /// Stride.
    pub stride: usize,
    /// Output height (derived).
    pub out_h: usize,
    /// Output width (derived).
    pub out_w: usize,
}

impl PoolGeometry {
    /// Computes and validates pooling geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit
    /// or any dimension is zero.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        if channels == 0 || window == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: format!("zero dimension: c={channels} window={window} stride={stride}"),
            });
        }
        if window > in_h || window > in_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!("pool window {window} larger than input {in_h}x{in_w}"),
            });
        }
        let out_h = (in_h - window) / stride + 1;
        let out_w = (in_w - window) / stride + 1;
        Ok(PoolGeometry {
            channels,
            in_h,
            in_w,
            window,
            stride,
            out_h,
            out_w,
        })
    }

    fn check_input(&self, input: &Tensor, op: &'static str) -> Result<usize> {
        input.expect_rank(4, op)?;
        let [n, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        if c != self.channels || h != self.in_h || w != self.in_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!("input {:?} does not match pool geometry", input.shape()),
            });
        }
        Ok(n)
    }
}

/// Max-pools an NCHW batch; also returns the argmax index (into each image's
/// `c*h*w` buffer) of every output element, for the backward pass.
///
/// # Errors
///
/// Returns a shape error if `input` disagrees with `geo`.
pub fn maxpool2d(input: &Tensor, geo: &PoolGeometry) -> Result<(Tensor, Vec<usize>)> {
    let n = geo.check_input(input, "maxpool2d")?;
    let mut out = workspace::take_raw(n * geo.channels * geo.out_h * geo.out_w);
    let mut argmax = vec![0usize; out.len()];
    maxpool2d_kernel(input, geo, &mut out, &mut argmax);
    Ok((
        Tensor::from_vec(out, &[n, geo.channels, geo.out_h, geo.out_w])?,
        argmax,
    ))
}

/// [`maxpool2d`] into caller-provided buffers (both fully overwritten;
/// zero allocations). Layers keep `out`/`argmax` across batches.
///
/// # Errors
///
/// Returns a shape error if `input` disagrees with `geo` or buffer lengths
/// are wrong.
pub fn maxpool2d_into(
    input: &Tensor,
    geo: &PoolGeometry,
    out: &mut [f32],
    argmax: &mut [usize],
) -> Result<()> {
    let n = geo.check_input(input, "maxpool2d")?;
    let expected = n * geo.channels * geo.out_h * geo.out_w;
    if out.len() != expected || argmax.len() != expected {
        return Err(TensorError::LengthMismatch {
            shape: vec![n, geo.channels, geo.out_h, geo.out_w],
            len: out.len().min(argmax.len()),
        });
    }
    maxpool2d_kernel(input, geo, out, argmax);
    Ok(())
}

fn maxpool2d_kernel(input: &Tensor, geo: &PoolGeometry, out: &mut [f32], argmax: &mut [usize]) {
    let (c, h, w) = (geo.channels, geo.in_h, geo.in_w);
    let src = input.data();
    let plane_len = geo.out_h * geo.out_w;
    // One chunk per (sample, channel) output plane; each plane only reads
    // its own input plane, so the parallel split is bitwise exact.
    crate::chunks::for_chunks2_mut(
        out,
        plane_len,
        argmax,
        plane_len,
        crate::chunks::PAR_GRAIN_ELEMS,
        |chunk_idx, out_plane, arg_plane| {
            // `chunk_idx` counts (sample, channel) planes; the channel is
            // still needed because argmax indexes into the sample's
            // `c*h*w` buffer.
            let ch = chunk_idx % c;
            let plane = &src[chunk_idx * h * w..(chunk_idx + 1) * h * w];
            for oy in 0..geo.out_h {
                for ox in 0..geo.out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..geo.window {
                        for kx in 0..geo.window {
                            let y = oy * geo.stride + ky;
                            let x = ox * geo.stride + kx;
                            let v = plane[y * w + x];
                            if v > best {
                                best = v;
                                best_idx = ch * h * w + y * w + x;
                            }
                        }
                    }
                    let o = oy * geo.out_w + ox;
                    out_plane[o] = best;
                    arg_plane[o] = best_idx;
                }
            }
        },
    );
}

/// Backward pass of [`maxpool2d`]: routes each output gradient to the input
/// position that produced the max. The result buffer comes from the
/// thread's [`workspace`] arena.
///
/// # Errors
///
/// Returns a shape error if `grad` disagrees with `geo`.
pub fn maxpool2d_backward(grad: &Tensor, argmax: &[usize], geo: &PoolGeometry) -> Result<Tensor> {
    grad.expect_rank(4, "maxpool2d_backward")?;
    let n = grad.shape()[0];
    let mut out = workspace::take_raw(n * geo.channels * geo.in_h * geo.in_w);
    let img_len = geo.channels * geo.in_h * geo.in_w;
    let grad_img_len = geo.channels * geo.out_h * geo.out_w;
    let g = grad.data();
    // Scatter-adds stay within one sample; split per sample.
    crate::chunks::for_chunks_mut(
        &mut out,
        img_len,
        crate::chunks::PAR_GRAIN_ELEMS,
        |i, dst_img| {
            dst_img.fill(0.0);
            let lo = i * grad_img_len;
            for (gv, &idx) in g[lo..lo + grad_img_len]
                .iter()
                .zip(&argmax[lo..lo + grad_img_len])
            {
                dst_img[idx] += gv;
            }
        },
    );
    Tensor::from_vec(out, &[n, geo.channels, geo.in_h, geo.in_w])
}

/// Average-pools an NCHW batch. The result buffer comes from the thread's
/// [`workspace`] arena.
///
/// # Errors
///
/// Returns a shape error if `input` disagrees with `geo`.
pub fn avgpool2d(input: &Tensor, geo: &PoolGeometry) -> Result<Tensor> {
    let n = geo.check_input(input, "avgpool2d")?;
    let norm = 1.0 / (geo.window * geo.window) as f32;
    let mut out = workspace::take_raw(n * geo.channels * geo.out_h * geo.out_w);
    let (h, w) = (geo.in_h, geo.in_w);
    let src = input.data();
    // One chunk per (sample, channel) output plane; pure gather.
    crate::chunks::for_chunks_mut(
        &mut out,
        geo.out_h * geo.out_w,
        crate::chunks::PAR_GRAIN_ELEMS,
        |chunk_idx, out_plane| {
            let plane = &src[chunk_idx * h * w..(chunk_idx + 1) * h * w];
            for oy in 0..geo.out_h {
                for ox in 0..geo.out_w {
                    let mut acc = 0.0;
                    for ky in 0..geo.window {
                        for kx in 0..geo.window {
                            acc += plane[(oy * geo.stride + ky) * w + ox * geo.stride + kx];
                        }
                    }
                    out_plane[oy * geo.out_w + ox] = acc * norm;
                }
            }
        },
    );
    Tensor::from_vec(out, &[n, geo.channels, geo.out_h, geo.out_w])
}

/// Backward pass of [`avgpool2d`]: spreads each output gradient uniformly
/// over its window. The result buffer comes from the thread's
/// [`workspace`] arena.
///
/// # Errors
///
/// Returns a shape error if `grad` disagrees with `geo`.
pub fn avgpool2d_backward(grad: &Tensor, geo: &PoolGeometry) -> Result<Tensor> {
    grad.expect_rank(4, "avgpool2d_backward")?;
    let n = grad.shape()[0];
    let norm = 1.0 / (geo.window * geo.window) as f32;
    let mut out = workspace::take_raw(n * geo.channels * geo.in_h * geo.in_w);
    let g = grad.data();
    // Scatter-adds stay within one (sample, channel) plane; split per plane.
    crate::chunks::for_chunks_mut(
        &mut out,
        geo.in_h * geo.in_w,
        crate::chunks::PAR_GRAIN_ELEMS,
        |chunk_idx, out_plane| {
            out_plane.fill(0.0);
            for oy in 0..geo.out_h {
                for ox in 0..geo.out_w {
                    let gv = g[(chunk_idx * geo.out_h + oy) * geo.out_w + ox] * norm;
                    for ky in 0..geo.window {
                        for kx in 0..geo.window {
                            let y = oy * geo.stride + ky;
                            let x = ox * geo.stride + kx;
                            out_plane[y * geo.in_w + x] += gv;
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(out, &[n, geo.channels, geo.in_h, geo.in_w])
}

/// Global average pool: `[n, c, h, w]` → `[n, c]`. The result buffer comes
/// from the thread's [`workspace`] arena.
///
/// Used both by the classifier heads and by DeepMorph's softmax probes to
/// summarize a convolutional activation into a fixed-size vector.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    input.expect_rank(4, "global_avg_pool")?;
    let [n, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let norm = 1.0 / (h * w) as f32;
    let mut out = workspace::take_raw(n * c);
    let src = input.data();
    // One chunk per sample row of the [n, c] output; pure reduction over
    // that sample's planes. The work scales with the *input* size, so the
    // parallel threshold is computed on it rather than on `out.len()`.
    let grain = if n * c * h * w >= crate::chunks::PAR_GRAIN_ELEMS {
        0
    } else {
        usize::MAX
    };
    crate::chunks::for_chunks_mut(&mut out, c, grain, |i, row| {
        for (ch, slot) in row.iter_mut().enumerate() {
            let plane = &src[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            *slot = plane.iter().sum::<f32>() * norm;
        }
    });
    Tensor::from_vec(out, &[n, c])
}

/// Backward pass of [`global_avg_pool`]. The result buffer comes from the
/// thread's [`workspace`] arena.
///
/// # Errors
///
/// Returns a shape error if `grad` is not `[n, c]`.
pub fn global_avg_pool_backward(grad: &Tensor, h: usize, w: usize) -> Result<Tensor> {
    grad.expect_rank(2, "global_avg_pool_backward")?;
    let (n, c) = (grad.shape()[0], grad.shape()[1]);
    let norm = 1.0 / (h * w) as f32;
    let mut out = workspace::take_raw(n * c * h * w);
    for i in 0..n {
        for ch in 0..c {
            let gv = grad.data()[i * c + ch] * norm;
            for p in 0..h * w {
                out[(i * c + ch) * h * w + p] = gv;
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ComputeCtx;

    fn seq_tensor(shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec((0..len).map(|v| v as f32).collect(), shape).unwrap()
    }

    #[test]
    fn geometry_computes_output_size() {
        let g = Conv2dGeometry::new(3, 8, 16, 16, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (16, 16));
        let g = Conv2dGeometry::new(3, 8, 16, 16, 3, 3, 2, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (8, 8));
        let g = Conv2dGeometry::new(1, 1, 5, 5, 5, 5, 1, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (1, 1));
    }

    #[test]
    fn geometry_rejects_oversized_kernel() {
        assert!(Conv2dGeometry::new(1, 1, 4, 4, 5, 5, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 1, 4, 4, 5, 5, 1, 1).is_ok());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: patches are just the pixels.
        let x = seq_tensor(&[1, 2, 2, 2]);
        let g = Conv2dGeometry::new(2, 1, 2, 2, 1, 1, 1, 0).unwrap();
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 2]);
        // Position (0,0): channels 0 and 1 at pixel 0 → values 0 and 4.
        assert_eq!(cols.row(0).unwrap(), &[0.0, 4.0]);
        assert_eq!(cols.row(3).unwrap(), &[3.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(1, 1, 2, 2, 3, 3, 1, 1).unwrap();
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 9]);
        // Top-left position: only the bottom-right 2x2 of the kernel overlaps.
        let r = cols.row(0).unwrap();
        assert_eq!(r.iter().filter(|&&v| v == 1.0).count(), 4);
        assert_eq!(r.iter().filter(|&&v| v == 0.0).count(), 5);
    }

    #[test]
    fn mapped_im2col_matches_direct() {
        for (c, h, w, k, s, p) in [(2, 5, 5, 3, 1, 1), (3, 8, 6, 3, 2, 0), (1, 4, 4, 4, 1, 2)] {
            let geo = Conv2dGeometry::new(c, 4, h, w, k, k, s, p).unwrap();
            let map = Im2colMap::new(&geo);
            let x = seq_tensor(&[2, c, h, w]);
            let direct = im2col(&x, &geo).unwrap();
            let mut mapped = vec![7.7f32; direct.len()]; // stale contents
            im2col_mapped_into(&x, &map, &mut mapped).unwrap();
            assert_eq!(direct.data(), &mapped[..], "geometry {geo:?}");
        }
    }

    #[test]
    fn mapped_col2im_matches_direct() {
        let geo = Conv2dGeometry::new(2, 3, 5, 5, 3, 3, 1, 1).unwrap();
        let map = Im2colMap::new(&geo);
        let cols = seq_tensor(&[2 * geo.out_positions(), geo.patch_len()]);
        let direct = col2im(&cols, &geo, 2).unwrap();
        let mut mapped = vec![9.9f32; direct.len()];
        col2im_mapped_into(&cols, &map, 2, &mut mapped).unwrap();
        assert_eq!(direct.data(), &mapped[..]);
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct 2D convolution (valid, stride 1) computed naively.
        let x = seq_tensor(&[1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[1, 1, 2, 2]).unwrap();
        let g = Conv2dGeometry::new(1, 1, 4, 4, 2, 2, 1, 0).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let wf = w.reshape(&[1, 4]).unwrap();
        let out = ComputeCtx::default().matmul_nt(&cols, &wf).unwrap(); // [9, 1]

        // Direct: out[y][x] = x[y][x] - x[y+1][x+1] = -5 for this ramp.
        for v in out.data() {
            assert!((v + 5.0).abs() < 1e-5);
        }
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the operators are adjoint.
        let x = seq_tensor(&[2, 2, 4, 4]);
        let g = Conv2dGeometry::new(2, 3, 4, 4, 3, 3, 1, 1).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let y = Tensor::from_vec(
            (0..cols.len()).map(|v| (v % 7) as f32 - 3.0).collect(),
            cols.shape(),
        )
        .unwrap();
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &g, 2).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        let (y, argmax) = maxpool2d(&x, &g).unwrap();
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let grad = Tensor::ones(&[1, 1, 2, 2]);
        let gx = maxpool2d_backward(&grad, &argmax, &g).unwrap();
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.at(&[0, 0, 1, 1]).unwrap(), 1.0); // position of 6
        assert_eq!(gx.at(&[0, 0, 3, 3]).unwrap(), 1.0); // position of 16
        assert_eq!(gx.at(&[0, 0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn maxpool_into_matches_allocating_version() {
        let x = seq_tensor(&[2, 2, 4, 4]);
        let g = PoolGeometry::new(2, 4, 4, 2, 2).unwrap();
        let (y, argmax) = maxpool2d(&x, &g).unwrap();
        let mut out = vec![-1.0f32; y.len()];
        let mut arg = vec![usize::MAX; y.len()];
        maxpool2d_into(&x, &g, &mut out, &mut arg).unwrap();
        assert_eq!(y.data(), &out[..]);
        assert_eq!(argmax, arg);
        assert!(maxpool2d_into(&x, &g, &mut out[..3], &mut arg).is_err());
    }

    #[test]
    fn avgpool_forward_and_backward() {
        let x = seq_tensor(&[1, 1, 4, 4]);
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        let y = avgpool2d(&x, &g).unwrap();
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
        let grad = Tensor::ones(&[1, 1, 2, 2]);
        let gx = avgpool2d_backward(&grad, &g).unwrap();
        assert!((gx.sum() - 4.0).abs() < 1e-6);
        assert!((gx.at(&[0, 0, 0, 0]).unwrap() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn global_avg_pool_round_trip() {
        let x = seq_tensor(&[2, 3, 2, 2]);
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert!((y.at(&[0, 0]).unwrap() - 1.5).abs() < 1e-6);
        let grad = Tensor::ones(&[2, 3]);
        let gx = global_avg_pool_backward(&grad, 2, 2).unwrap();
        assert_eq!(gx.shape(), &[2, 3, 2, 2]);
        assert!((gx.sum() - 6.0).abs() < 1e-5);
    }

    #[test]
    fn pool_geometry_rejects_oversized_window() {
        assert!(PoolGeometry::new(1, 2, 2, 3, 1).is_err());
    }
}
