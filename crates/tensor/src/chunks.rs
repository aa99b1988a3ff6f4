//! Serial/parallel dispatch for chunked kernels.
//!
//! Every hot kernel in this crate is written as "apply `f` to contiguous
//! chunk `i` of an output buffer", which makes the serial and parallel
//! executions *bitwise identical*: the parallel path only changes which
//! thread runs a chunk, never the per-element operation order. These
//! wrappers fall back to a plain loop when the buffer is below the given
//! grain size (thread spawn costs ~tens of µs; tiny kernels lose), and
//! `deepmorph-parallel` runs the same loop when only one thread is
//! available (`DEEPMORPH_THREADS=1`).

/// Minimum output elements before a memory-bound kernel (im2col, pooling,
/// permutes, ReLU, the tanh gradient) fans out to threads.
pub const PAR_GRAIN_ELEMS: usize = 1 << 15;

/// Minimum output elements before a compute-bound elementwise pass fans
/// out: [`Tensor::map`](crate::Tensor::map) (a tanh costs about 30 copies
/// per element) and batch-norm (several passes per element). The
/// threshold is set by work, so it is a quarter of [`PAR_GRAIN_ELEMS`].
/// A single-row LeNet, AlexNet or ResNet forward stays below it (at most
/// 6,144 elements per activation) and runs serially.
pub const PAR_GRAIN_MAP_ELEMS: usize = 1 << 13;

/// Chunk length of the elementwise passes: at [`PAR_GRAIN_MAP_ELEMS`]
/// each thread gets two chunks, so a worker that wakes late still finds
/// one.
pub const ELEM_CHUNK: usize = 1 << 11;

/// Minimum multiply-accumulate count before a matmul fans out to threads.
pub const PAR_GRAIN_FLOPS: usize = 1 << 18;

/// The `grain` argument that fans a kernel out by its total `work` rather
/// than by the length of the buffer it writes (a reduction writes far
/// fewer elements than it reads): `0` once `work` reaches `threshold`,
/// otherwise never.
pub fn grain_by_work(work: usize, threshold: usize) -> usize {
    if work >= threshold {
        0
    } else {
        usize::MAX
    }
}

/// Runs `f(chunk_index, chunk)` over contiguous `chunk_len`-sized chunks,
/// in parallel when worthwhile (buffer at least `grain` elements and more
/// than one thread available).
pub fn for_chunks_mut<T: Send, F>(data: &mut [T], chunk_len: usize, grain: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() || chunk_len == 0 {
        return;
    }
    if data.len() >= grain {
        deepmorph_parallel::par_chunks_mut(data, chunk_len, f);
        return;
    }
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        f(i, chunk);
    }
}

/// Two-buffer variant of [`for_chunks_mut`] (lockstep chunks).
pub fn for_chunks2_mut<T: Send, U: Send, F>(
    a: &mut [T],
    a_chunk: usize,
    b: &mut [U],
    b_chunk: usize,
    grain: usize,
    f: F,
) where
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    if a.is_empty() || a_chunk == 0 || b_chunk == 0 {
        return;
    }
    if a.len() >= grain {
        deepmorph_parallel::par_chunks2_mut(a, a_chunk, b, b_chunk, f);
        return;
    }
    for (i, (ca, cb)) in a.chunks_mut(a_chunk).zip(b.chunks_mut(b_chunk)).enumerate() {
        f(i, ca, cb);
    }
}
