//! Per-thread working memory for the kernels that need any.
//!
//! The radix sort needs its packed words and a ping-pong buffer, the order
//! statistics a buffer of values, MergeK a heap and a cursor per run. Allocating them per call was a measurable
//! share of Sort (three `Vec`s per invocation) and most of TopKPerKey (two
//! per ~100-event key group), so each worker thread keeps one set and reuses
//! it: after the first call at a given size a kernel allocates nothing but
//! what its sink does. The buffers stay at their high-water capacity for the
//! life of the thread (two words per event of the largest array the thread
//! has sorted).

use std::cell::RefCell;

/// One thread's reusable buffers.
#[derive(Default)]
pub(crate) struct Scratch {
    /// `(field << 32) | index` words of the array being sorted; MergeK's
    /// heap of `(head key << 32) | run` words.
    pub packed: Vec<u64>,
    /// The radix passes' second buffer; MergeK's run cursors.
    pub spare: Vec<u64>,
    /// Values of the key group (or window) an order statistic is taken over.
    pub values: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` with this thread's scratch. The buffers are taken out for the
/// call, so a kernel that (through its sink) re-enters another kernel finds
/// an empty set and allocates instead of panicking on a double borrow.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let result = f(&mut scratch);
    SCRATCH.set(scratch);
    result
}
