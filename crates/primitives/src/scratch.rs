//! Per-thread working memory for the kernels that need any.
//!
//! The event sort needs a second buffer of events to scatter into, the word
//! sort (TopK's long kept prefix) its words and a second buffer of them,
//! the order statistics a buffer of values, the key-group walker one key's
//! span in each run. Allocating them per call was a measurable share of
//! Sort and most of TopKPerKey (two per ~100-event key group), so each
//! worker thread keeps one set and reuses it: after the first call at a
//! given size a kernel allocates nothing but what its sink does. The
//! buffers stay at their high-water capacity for the life of the thread;
//! Sort's is one 12-byte event per event of the largest array the thread
//! has sorted.
//! There is no packed `(field, index)` word and no gather through a
//! permutation any more: the sort moves the events themselves.

use sbt_types::Event;
use std::cell::RefCell;

/// One thread's reusable buffers.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The event sort's second buffer: its passes ping-pong between the
    /// array and this.
    pub events: Vec<Event>,
    /// Words the word sort orders.
    pub packed: Vec<u64>,
    /// The word sort's second buffer.
    pub spare: Vec<u64>,
    /// Values of the key group (or window) an order statistic is taken
    /// over; the right side's values of the key a join is at.
    pub values: Vec<u32>,
    /// The key-group walker's `[start, end)` of the current key in each
    /// run.
    pub spans: Vec<(usize, usize)>,
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
