//! The worker-pool hook shared by every layer that fans work out in lanes.
//!
//! The data plane (the encrypt lanes of egress and checkpoint seals) and
//! the cloud-side verifier (per-segment signature checks and decompression)
//! both borrow worker threads from whoever assembled them, without
//! depending on the engine crate that owns the threads. The engine's
//! executor is the one production implementation.

use std::time::{Duration, Instant};

/// A task handed to a [`LanePool`].
pub type LaneTask = Box<dyn FnOnce() + Send + 'static>;

/// A pool of worker threads that lane-parallel code may fan tasks onto.
///
/// `run` must execute every task to completion before returning. Tasks may
/// run on any thread, in any order, including all of them on the caller's —
/// a helping join satisfies this — so tasks of one `run` must never block
/// on a sibling that has not started.
pub trait LanePool: Send + Sync {
    /// Worker threads in the pool (the caller of `run` helps beside them).
    /// Each caller applies its own fan-out floor to this: lane splits of one
    /// payload need two workers to be worth planning, a two-stage pipeline
    /// overlaps with one.
    fn workers(&self) -> usize;
    /// Run the tasks to completion (barrier).
    fn run(&self, tasks: Vec<LaneTask>);
}

/// One beat of a polling wait, for a thread that expects another thread to
/// hand it work (or a result) within microseconds to milliseconds.
///
/// Pool threads and pipeline stages wait by polling rather than blocking:
/// see `IDLE_POLL` in the engine's executor for why a blocked thread is
/// expensive to bring back beside its peer. The beat is a yield, then —
/// only if the yield came straight back — a few microseconds of `PAUSE`:
///
/// * the yield hands the CPU to any other runnable thread stacked on it.
///   If one was (the yield took longer than a context switch), the waiter
///   is sharing a core, so it goes straight back to checking: polling then
///   costs the peer two context switches per time slice and nothing more;
/// * if the waiter has a CPU to itself, the peer is probably on the sibling
///   hyperthread, where a bare yield loop (a system call per iteration)
///   competes for the core's execution units: measured on the reference
///   host, single-threaded primitives ran 15–25 % slower beside one.
///   `PAUSE` is what leaves those units to the sibling, and 512 of them
///   (about 20 µs) is still well under the work a waiter is waiting for.
pub fn poll_wait() {
    let before = Instant::now();
    std::thread::yield_now();
    if before.elapsed() < Duration::from_micros(20) {
        for _ in 0..512 {
            std::hint::spin_loop();
        }
    }
}
