//! A reusable scratch arena for kernel intermediates.
//!
//! Steady-state training and inference repeatedly materialise the same
//! short-lived buffers — the `im2col` patch matrix, weight windows, GEMM
//! outputs, pooling argmax tables. A [`Workspace`] keeps those allocations
//! alive between steps: a kernel takes a buffer, uses it, and gives it
//! back, so after the first step the hot path stops touching the system
//! allocator entirely.
//!
//! Buffers from [`Workspace::take_zeroed`], [`Workspace::take_indices`]
//! and [`Workspace::tensor_zeroed`] are zero-filled, so a
//! workspace-backed kernel is bit-identical to its allocating twin.
//! [`Workspace::take_dirty`] is the explicit opt-out for scratch the
//! caller fully overwrites (e.g. GEMM packing panels) — its contents are
//! unspecified.
//!
//! ## Example
//!
//! ```
//! use fluid_tensor::{Tensor, Workspace};
//!
//! let mut ws = Workspace::new();
//! let t = ws.tensor_zeroed(&[4, 4]);
//! assert!(t.data().iter().all(|&x| x == 0.0));
//! ws.recycle(t); // the 16-element buffer is now reusable
//! assert_eq!(ws.buffers_held(), 1);
//! let again = ws.tensor_zeroed(&[2, 8]); // same buffer, new shape
//! assert_eq!(ws.buffers_held(), 0);
//! assert_eq!(again.numel(), 16);
//! ```

use crate::shape::numel;
use crate::tensor::Tensor;

/// Upper bound on pooled buffers per kind; beyond this, recycled buffers
/// are simply dropped. Generous enough for the deepest forward/backward in
/// the workspace's model families.
const MAX_POOLED: usize = 64;

/// A free-list arena of `f32`, `usize`, `i8` and `i32` scratch buffers
/// (the integer kinds serve the quantized inference path).
///
/// Cloning a workspace yields an **empty** one (scratch is per-executor
/// state, not data), which is what lets owners like model executors keep
/// deriving `Clone`.
#[derive(Default)]
pub struct Workspace {
    free_f32: Vec<Vec<f32>>,
    free_idx: Vec<Vec<usize>>,
    free_i8: Vec<Vec<i8>>,
    free_i32: Vec<Vec<i32>>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-filled `f32` buffer of exactly `len` elements,
    /// preferring the smallest pooled buffer that fits it without wasting
    /// more than half its capacity.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        take_zeroed_from(&mut self.free_f32, len)
    }

    /// Takes an `f32` buffer of exactly `len` elements with **unspecified
    /// contents** (recycled buffers keep their old values). For scratch the
    /// caller fully overwrites before reading — skipping the zero-fill of
    /// [`take_zeroed`](Workspace::take_zeroed) matters for large packing
    /// buffers on hot paths.
    pub fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        take_dirty_from(&mut self.free_f32, len)
    }

    /// Takes a zero-filled `usize` buffer of exactly `len` elements.
    pub fn take_indices(&mut self, len: usize) -> Vec<usize> {
        take_zeroed_from(&mut self.free_idx, len)
    }

    /// Takes an `i8` buffer of exactly `len` elements with **unspecified
    /// contents** (the quantized path's packing scratch — always fully
    /// overwritten before reading).
    pub fn take_dirty_i8(&mut self, len: usize) -> Vec<i8> {
        take_dirty_from(&mut self.free_i8, len)
    }

    /// Takes an `i32` buffer of exactly `len` elements with **unspecified
    /// contents** (the quantized path's cross-block accumulator, which
    /// stores — not adds — on the first depth block).
    pub fn take_dirty_i32(&mut self, len: usize) -> Vec<i32> {
        take_dirty_from(&mut self.free_i32, len)
    }

    /// Takes a zero tensor with the given dims, backed by a pooled buffer.
    pub fn tensor_zeroed(&mut self, dims: &[usize]) -> Tensor {
        Tensor::from_vec(self.take_zeroed(numel(dims)), dims)
    }

    /// Copies `t` into a pooled buffer (no intermediate zero-fill).
    pub fn tensor_copy(&mut self, t: &Tensor) -> Tensor {
        let mut v = match best_fit(&self.free_f32, t.numel()) {
            Some(i) => self.free_f32.swap_remove(i),
            None => Vec::with_capacity(t.numel()),
        };
        v.clear();
        v.extend_from_slice(t.data());
        Tensor::from_vec(v, t.dims())
    }

    /// Returns a tensor's buffer to the arena.
    pub fn recycle(&mut self, t: Tensor) {
        self.recycle_vec(t.into_vec());
    }

    /// Returns a raw `f32` buffer to the arena.
    pub fn recycle_vec(&mut self, v: Vec<f32>) {
        recycle_into(&mut self.free_f32, v);
    }

    /// Returns a `usize` buffer to the arena.
    pub fn recycle_indices(&mut self, v: Vec<usize>) {
        recycle_into(&mut self.free_idx, v);
    }

    /// Returns an `i8` buffer to the arena.
    pub fn recycle_i8(&mut self, v: Vec<i8>) {
        recycle_into(&mut self.free_i8, v);
    }

    /// Returns an `i32` buffer to the arena.
    pub fn recycle_i32(&mut self, v: Vec<i32>) {
        recycle_into(&mut self.free_i32, v);
    }

    /// Number of buffers currently pooled (all kinds).
    pub fn buffers_held(&self) -> usize {
        self.free_f32.len() + self.free_idx.len() + self.free_i8.len() + self.free_i32.len()
    }

    /// Total bytes currently pooled.
    pub fn bytes_held(&self) -> usize {
        let f: usize = self.free_f32.iter().map(|v| v.capacity() * 4).sum();
        let i: usize = self
            .free_idx
            .iter()
            .map(|v| v.capacity() * std::mem::size_of::<usize>())
            .sum();
        let q: usize = self.free_i8.iter().map(|v| v.capacity()).sum();
        let a: usize = self.free_i32.iter().map(|v| v.capacity() * 4).sum();
        f + i + q + a
    }

    /// Drops every pooled buffer.
    pub fn clear(&mut self) {
        self.free_f32.clear();
        self.free_idx.clear();
        self.free_i8.clear();
        self.free_i32.clear();
    }
}

/// Index of the smallest pooled buffer that fits `len` with at most half
/// of its capacity wasted (`cap / 2 <= len <= cap`), if any.
///
/// A request nothing fits is served by a fresh exact-size allocation
/// instead of growing a pooled buffer — growing would slowly inflate every
/// pooled buffer toward the largest request size and delay the steady
/// state. The waste bound is for callers that *keep* what they take: a
/// 10-float logits tensor must not walk off with a 28 KB pack buffer. Once
/// recycled, the exact-size buffer is its own size class, so a steady
/// take/recycle cycle still stops allocating after its first round.
fn best_fit<T>(pool: &[Vec<T>], len: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, v) in pool.iter().enumerate() {
        let cap = v.capacity();
        if cap >= len && cap / 2 <= len && best.is_none_or(|(_, b)| cap < b) {
            best = Some((i, cap));
        }
    }
    best.map(|(i, _)| i)
}

/// Takes a zero-filled buffer of exactly `len` elements from `pool`
/// (see [`best_fit`]), or allocates one.
fn take_zeroed_from<T: Copy + Default>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    match best_fit(pool, len) {
        Some(i) => {
            let mut v = pool.swap_remove(i);
            v.clear();
            v.resize(len, T::default());
            v
        }
        None => vec![T::default(); len],
    }
}

/// Takes a buffer of exactly `len` elements with unspecified contents from
/// `pool` (see [`best_fit`]), or allocates one.
fn take_dirty_from<T: Copy + Default>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    match best_fit(pool, len) {
        Some(i) => {
            let mut v = pool.swap_remove(i);
            if v.len() >= len {
                v.truncate(len); // O(1): keep old contents, no fill
            } else {
                v.resize(len, T::default()); // fills only the grown region
            }
            v
        }
        None => vec![T::default(); len],
    }
}

/// Pools `v` unless it holds no allocation or `pool` is full.
fn recycle_into<T>(pool: &mut Vec<Vec<T>>, v: Vec<T>) {
    if v.capacity() > 0 && pool.len() < MAX_POOLED {
        pool.push(v);
    }
}

impl Clone for Workspace {
    /// Clones as an **empty** workspace: scratch buffers are per-executor.
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Workspace {{ buffers: {}, bytes: {} }}",
            self.buffers_held(),
            self.bytes_held()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_after_dirty_recycle() {
        let mut ws = Workspace::new();
        let mut t = ws.tensor_zeroed(&[8]);
        t.data_mut().iter_mut().for_each(|x| *x = 7.0);
        ws.recycle(t);
        let t2 = ws.tensor_zeroed(&[8]);
        assert!(t2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        ws.recycle_vec(Vec::with_capacity(100));
        ws.recycle_vec(Vec::with_capacity(10));
        let v = ws.take_zeroed(8);
        assert!(v.capacity() >= 8 && v.capacity() < 100, "took the 10-cap");
        assert_eq!(ws.buffers_held(), 1);
    }

    #[test]
    fn kept_small_tensors_do_not_walk_off_with_big_buffers() {
        // A caller that keeps its results (an oracle keeping logits) must
        // retain about what it asked for, not the arena's larger classes.
        let mut ws = Workspace::new();
        for cap in [7_000, 15_000, 60_000] {
            ws.recycle_vec(Vec::with_capacity(cap));
        }
        let kept: Vec<Tensor> = (0..256)
            .map(|_| {
                let scratch = ws.take_dirty(7_000);
                let logits = ws.tensor_zeroed(&[1, 10]);
                ws.recycle_vec(scratch);
                logits
            })
            .collect();
        let retained: usize = kept.into_iter().map(|t| t.into_vec().capacity()).sum();
        assert!(
            retained <= 2 * 256 * 10,
            "256 logits retain {retained} floats"
        );
        assert_eq!(ws.buffers_held(), 3, "the big classes stayed pooled");
    }

    #[test]
    fn steady_take_recycle_cycle_reuses() {
        // Mixed sizes, each too small for the next class up: after one
        // round every size has its own buffer and nothing grows.
        let mut ws = Workspace::new();
        let round = |ws: &mut Workspace| {
            let big = ws.take_dirty(7_000);
            let mid = ws.take_zeroed(720);
            let small = ws.tensor_zeroed(&[1, 10]);
            let idx = ws.take_indices(9);
            ws.recycle_vec(big);
            ws.recycle_vec(mid);
            ws.recycle(small);
            ws.recycle_indices(idx);
        };
        round(&mut ws);
        let (held, bytes) = (ws.buffers_held(), ws.bytes_held());
        assert_eq!(held, 4);
        for _ in 0..100 {
            round(&mut ws);
        }
        assert_eq!((ws.buffers_held(), ws.bytes_held()), (held, bytes));
    }

    #[test]
    fn oversized_request_allocates_fresh() {
        let mut ws = Workspace::new();
        ws.recycle_vec(Vec::with_capacity(4));
        let v = ws.take_zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert_eq!(
            ws.buffers_held(),
            1,
            "the too-small pooled buffer must stay pooled"
        );
    }

    #[test]
    fn clone_is_empty() {
        let mut ws = Workspace::new();
        ws.recycle_vec(vec![0.0; 32]);
        assert_eq!(ws.clone().buffers_held(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..(MAX_POOLED + 10) {
            ws.recycle_vec(vec![0.0; 4]);
        }
        assert_eq!(ws.buffers_held(), MAX_POOLED);
    }

    #[test]
    fn indices_roundtrip() {
        let mut ws = Workspace::new();
        let mut v = ws.take_indices(5);
        v[0] = 99;
        ws.recycle_indices(v);
        let v2 = ws.take_indices(3);
        assert_eq!(v2, vec![0, 0, 0]);
    }
}
