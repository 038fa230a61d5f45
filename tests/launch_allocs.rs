//! Heap allocations on the write side of an artifact.
//!
//! Medusa's offline phase runs one decode warm-up per captured batch size
//! before capturing it (§2.3), so every write of an artifact launches the
//! whole decode schedule eagerly 35 times. A launch borrows its kernel
//! definition from the shared catalog and runs from the launch's value
//! slice, so once a process is warm (libraries initialised, modules
//! loaded, workspace and magic buffers allocated, every output buffer's
//! digest written once) a further untraced warm-up allocates nothing.
//!
//! The analysis and the owned decode share each kernel's names among its
//! nodes and hold constants inline, so a whole write and the decode of
//! its bytes stay within fixed allocation budgets.
//!
//! A counting global allocator counts per thread, so tests running in
//! parallel in this binary do not disturb each other's counts. A tp = 1
//! write and decode run on the calling thread.

use medusa::{ColdStart, Maf2Reader};
use medusa_gpu::{AllocTag, CostModel, GpuSpec, ProcessRuntime};
use medusa_model::{build_catalog, load_weights, warmup_decode, KvView, ModelInstance, ModelSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may be gone while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so bumping it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Allocations of a second decode warm-up of `batch` in a process that has
/// run one already.
fn second_warmup_allocations(model: &str, batch: u32) -> u64 {
    let spec = ModelSpec::by_name(model).expect("catalog model");
    let mut rt = ProcessRuntime::new(
        build_catalog(&spec),
        GpuSpec::a100_40gb(),
        CostModel::default(),
        31,
    );
    let mut inst = ModelInstance::initialize(&mut rt, &spec).expect("structure init");
    load_weights(&mut rt, &inst, 1.0).expect("weights");
    let mut kv_buf = || {
        rt.cuda_malloc(1 << 20, AllocTag::KvCache)
            .expect("kv buffer")
    };
    let (kcache, vcache, block_table) = (kv_buf(), kv_buf(), kv_buf());
    for (ptr, content) in [(kcache, [1; 16]), (vcache, [2; 16]), (block_table, [3; 16])] {
        rt.memory_mut()
            .write_digest(ptr.addr(), content)
            .expect("kv content");
    }
    let kv = KvView {
        kcache,
        vcache,
        block_table,
        block_size: 16,
    };
    assert!(!rt.is_tracing(), "the warm-ups run untraced");
    warmup_decode(&mut rt, &mut inst, batch, &kv).expect("first warm-up");
    let (allocs, out) = allocations_in(|| warmup_decode(&mut rt, &mut inst, batch, &kv));
    out.expect("second warm-up");
    allocs
}

#[test]
fn warm_decode_warmup_allocates_nothing_qwen() {
    assert_eq!(second_warmup_allocations("Qwen1.5-0.5B", 8), 0);
}

#[test]
fn warm_decode_warmup_allocates_nothing_llama() {
    assert_eq!(second_warmup_allocations("Llama2-7B", 8), 0);
}

/// A Qwen1.5-0.5B tp = 1 write made 148,429 allocations and the decode of
/// its bytes 49,844 while every launch and node allocated; they make
/// about 40k and 10k now.
#[test]
fn a_write_and_its_decode_stay_within_their_allocation_budgets() {
    let spec = ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model");
    // One write first, so one-time process state is not counted.
    ColdStart::new(&spec).materialize(1).expect("first write");
    let (write, arts) = allocations_in(|| ColdStart::new(&spec).materialize(9));
    let (arts, _) = arts.expect("write");
    let bytes = arts.to_maf2().expect("encode");
    let (decode, states) = allocations_in(|| {
        Maf2Reader::open(&bytes)
            .and_then(|r| r.materialize_all())
            .expect("decode")
    });
    assert_eq!(&states[0], arts.rank(0));
    assert!(write <= 45_000, "materialize made {write} allocations");
    assert!(
        decode <= 15_000,
        "the owned decode made {decode} allocations"
    );
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let (allocs, v) = allocations_in(|| vec![0u8; 64]);
    assert_eq!(v.len(), 64);
    assert!(allocs >= 1);
}
