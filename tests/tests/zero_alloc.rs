//! The zero-allocation contract: once warmed up, a serving batch
//! (`infer_batch` + `recycle_output`) and a training step (forward, loss,
//! backward, optimizer) run entirely out of the executor's workspace
//! arena and never touch the heap.
//!
//! A counting global allocator counts the calls of the thread that makes
//! them, in a `const`-initialised thread-local, so the test harness's
//! other threads cannot leak into a count. Both gates run at one kernel
//! thread: the compute path is what's under test, and with more threads
//! the pool's queued fan-out boxes one closure per chunk, a property of
//! the pool, not of the kernels.

use fluid_models::{Arch, FluidModel};
use fluid_nn::{softmax_cross_entropy_ws, Optimizer, Sgd};
use fluid_serve::{Backend, EngineBackend};
use fluid_tensor::{pool, Prng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Allocation calls (alloc, alloc_zeroed, realloc) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread being torn down still allocates, uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to the system allocator, counting every allocation call.
/// Frees are not counted: the contract is "no new memory", and a path
/// that frees without allocating only shrinks its arena.
struct CountingAllocator;

// SAFETY: a pass-through to `System` plus a thread-local counter bump
// that never allocates; every `GlobalAlloc` obligation is `System`'s.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap allocations this thread performs while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn steady_state_serving_batch_does_not_allocate() {
    pool::set_threads(1);
    let model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    let mut backend = EngineBackend::new(
        "alloc-gate",
        model.net().clone(),
        model.spec("combined100").expect("spec").clone(),
    );
    let mut rng = Prng::new(7);
    let batch = Tensor::from_fn(&[8, 1, 28, 28], |_| rng.uniform(0.0, 1.0));
    // Warm-up: the arena's size classes settle over the first batches.
    for _ in 0..5 {
        let out = backend.infer_batch(&batch).expect("warm-up infer");
        backend.recycle_output(out);
    }
    const BATCHES: u64 = 100;
    let allocs = allocations_during(|| {
        for _ in 0..BATCHES {
            let out = backend.infer_batch(&batch).expect("steady-state infer");
            black_box(out.data().len());
            backend.recycle_output(out);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state serving compute path allocated {allocs} times over {BATCHES} \
         [8,1,28,28] batches; a kernel or layer has fallen off the workspace arena"
    );
}

#[test]
fn steady_state_training_step_does_not_allocate() {
    pool::set_threads(1);
    let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    let mut rng = Prng::new(1);
    let x = Tensor::from_fn(&[16, 1, 28, 28], |_| rng.uniform(0.0, 1.0));
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let spec = model.spec("combined100").expect("spec").clone();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut step = |model: &mut FluidModel| {
        let net = model.net_mut();
        net.zero_grad();
        let logits = net.forward_subnet(&x, &spec, true);
        let (_, grad) = softmax_cross_entropy_ws(&logits, &labels, net.workspace_mut());
        net.recycle(logits);
        net.backward_subnet(&grad, &spec);
        net.recycle(grad);
        let mut params = net.param_set();
        opt.step(&mut params);
    };
    // Warm-up: the first steps allocate optimizer state and grow the
    // arena to its high-water mark.
    for _ in 0..5 {
        step(&mut model);
    }
    const STEPS: u64 = 50;
    let allocs = allocations_during(|| {
        for _ in 0..STEPS {
            step(&mut model);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state combined100 training step allocated {allocs} times over {STEPS} \
         steps; a kernel or layer has fallen off the workspace arena"
    );
}
