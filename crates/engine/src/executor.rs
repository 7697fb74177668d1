//! The work-stealing executor: the control plane's execution substrate.
//!
//! The engine "elastically maps pipeline parallelism onto worker threads"
//! (§4.2) — and under multi-tenancy that parallelism arrives from many
//! independent pipelines at once. A single shared channel with a global
//! `run_all` barrier serializes tenants against each other: one slow
//! tenant's round stalls everyone else's ingestion. This executor removes
//! the barrier:
//!
//! * every worker owns a deque; it pushes and pops its own back (LIFO, for
//!   locality) and steals from the front of its siblings' deques when idle;
//! * submissions from outside the pool land in a shared injector queue;
//! * every task runs in a panic-safe slot: a panicking task is caught,
//!   surfaced to the submitter as a [`TaskPanicked`] error, and the worker
//!   thread survives;
//! * callers get a [`JoinHandle`] per task, so work can be submitted
//!   incrementally and each result joined when it is needed;
//! * joining **helps**: a thread blocked on a handle runs queued tasks
//!   while it waits, so tasks may freely submit and join subtasks on the
//!   same executor (nested parallelism cannot deadlock the pool).
//!
//! # The fire class
//!
//! Tasks come in two classes, one bit apart. A window fire is *latency*:
//! its result is due at the watermark, and everything it spawns (partition
//! lists, seal lanes) is on its critical path. An ingest batch is
//! *throughput*: nobody waits for the one batch. With both in one FIFO a
//! fire queues behind every tenant's ingest, and — worse — a fire
//! that joins its subtasks *helps*, so it can pick a foreign ingest batch
//! off the queue and sit under it mid-window. So:
//!
//! * [`Executor::spawn_fire`] puts a task in the **fire class**; every task
//!   spawned while a fire-class task runs inherits the class (a thread-local
//!   that is set for the task's duration and restored after it);
//! * fire-class tasks spawned from a pool worker go on its deque like any
//!   other; from any other thread they go to the **fire queue** instead of
//!   the injector;
//! * a thread looking for work takes its own deque, then the fire queue,
//!   then the injector, then steals;
//! * a thread that is *inside* a fire-class task takes fire-class work only:
//!   never the injector, and from a sibling's deque only a fire-class task.
//!   A fire is thus never suspended under someone else's ingest batch;
//! * nor does it take a **root** fire, one [`Executor::spawn_fire`] queued
//!   from outside any fire: a root may be a later watermark's fire of the
//!   same engine, which blocks on the engine's fire lock — held by the fire
//!   the thread is running beneath it — and would block forever. Idle
//!   workers and threads outside a fire run roots. An engine's inline fire
//!   and its checkpoint hold that lock on the caller's thread, outside any
//!   task, so they run as fire class too (`as_fire`).
//!
//! The helping join stays deadlock-free at any pool size: a task is awaited
//! by the task that spawned it, and a fire-class spawner put it on its own
//! deque or on the fire queue — both of which it searches — unless another
//! thread already took it, in which case it is running.
//!
//! The barrier API survives as [`Executor::run_all`] for callers that
//! submit a batch of tasks and wait for all of them.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle as ThreadHandle;
use std::time::{Duration, Instant};

/// A queued task and its class.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    /// Whether the task is fire class (see the module docs).
    fire: bool,
    /// Whether the task is a root fire: spawned fire class from outside
    /// any fire (see the module docs).
    root: bool,
}

/// How long a worker with nothing to run keeps polling for work before it
/// parks: longer than any serial stretch inside a window fire and than the
/// gap between two batches of a paced stream (both under 20 ms on the
/// reference host), so a worker parks only when its engine has gone idle.
///
/// An idle worker polls ([`sbt_types::poll_wait`]) because a parked one is
/// expensive to bring back *beside* its caller. A woken thread runs where
/// the scheduler puts it, and on the reference host (a 2-vCPU guest whose
/// cpuset has load balancing switched off) that is the CPU it last ran on
/// or the waker's: it then time-shares one core with the caller it was
/// meant to run beside, and because the two sleep in turns the kernel never
/// sees two runnable threads to spread. A thread that stays runnable does
/// get moved to the idle vCPU, and keeps it.
///
/// Measured over the 1.9 MB egress seals of `join` (encrypt lane on the
/// worker, MAC stage on the caller). On the portable crypto kernels, where
/// a seal is ≈ 14 ms and the share of seals in which the two overlapped
/// decides the workload: 4 % with a 2 ms poll, 28 % with 10 ms, 67 % with
/// 20 ms, 95 % with 50 ms; a worker that naps between polls instead of
/// staying runnable never got there. With AES-NI and SHA-NI the same seal
/// is ≈ 1.5 ms of a ≈ 4 ms window and the poll length no longer resolves
/// (`join`, three 8 s rounds each: 17.9–20.1 Mev/s at 2 ms, 16.9–19.1 at
/// 10 ms, 15.8–19.5 at 50 ms) — the value stays where the slower back-end
/// needs it, and the paced gaps it must outlast do not depend on the crypto.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// A task panicked. The panic was caught in the task's slot: the worker
/// thread survived, and the payload's message is carried here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// The panic payload's message, when it was a string.
    pub message: String,
}

impl TaskPanicked {
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "task panicked (non-string payload)".to_string()
        };
        TaskPanicked { message }
    }
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanicked {}

/// Outcome of a spawned task: its return value, or the caught panic.
pub type TaskResult<T> = Result<T, TaskPanicked>;

/// Where a task's result lands; the join side blocks on it.
enum SlotState<T> {
    Pending,
    Done(TaskResult<T>),
    Taken,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot { state: Mutex::new(SlotState::Pending) }
    }

    fn complete(&self, result: TaskResult<T>) {
        *self.state.lock().expect("slot lock") = SlotState::Done(result);
    }

    /// Take the result if the task has finished (at most one caller gets it).
    fn try_take(&self) -> Option<TaskResult<T>> {
        let mut state = self.state.lock().expect("slot lock");
        match &*state {
            SlotState::Pending => None,
            SlotState::Taken => panic!("task result already taken"),
            SlotState::Done(_) => match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Done(r) => Some(r),
                _ => unreachable!(),
            },
        }
    }

    fn is_finished(&self) -> bool {
        !matches!(*self.state.lock().expect("slot lock"), SlotState::Pending)
    }
}

/// Wakeup bookkeeping: a version counter bumped on every push, so idle
/// workers can sleep without missing work pushed between their last scan
/// and the wait.
struct Signal {
    version: u64,
    shutdown: bool,
}

struct Shared {
    /// One deque per worker: the owner pushes/pops the back, thieves pop the
    /// front.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Normal-class submissions from threads outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Fire-class submissions from threads outside the pool.
    fire_queue: Mutex<VecDeque<Job>>,
    signal: Mutex<Signal>,
    work_ready: Condvar,
    /// Rotates the first victim probed so steals spread across workers.
    probe: AtomicUsize,
    counters: PoolCounters,
}

sbt_telemetry::counters! {
    /// The pool's work counters (registry section `executor`, beside the
    /// `workers` gauge).
    struct PoolCounters {
        /// Tasks stolen across worker deques.
        steals,
        /// Tasks executed, including those run by helping joiners.
        executed,
        /// Times a worker went to sleep with nothing runnable.
        parks,
        /// Task panics caught in their slots.
        panics,
    }
    /// A point-in-time copy of [`PoolCounters`].
    struct PoolCounts;
}

thread_local! {
    /// (executor identity, worker index) of the pool this thread belongs to.
    static CURRENT_WORKER: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
    /// Whether the task this thread is running is fire class. Executors do
    /// not share tasks, but a thread only ever runs one task at a time, so
    /// one flag per thread serves them all.
    static IN_FIRE: Cell<bool> = const { Cell::new(false) };
}

impl Shared {
    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// The calling thread's worker index on this executor, if any.
    fn home_of(self: &Arc<Self>) -> Option<usize> {
        let (id, ix) = CURRENT_WORKER.get();
        (id == self.identity() && ix != usize::MAX).then_some(ix)
    }

    /// Enqueue a job: onto the caller's own deque when the caller is one of
    /// this pool's workers, otherwise into the queue of its class.
    fn push(self: &Arc<Self>, job: Job) {
        let queue = match self.home_of() {
            Some(ix) => &self.locals[ix],
            None if job.fire => &self.fire_queue,
            None => &self.injector,
        };
        queue.lock().expect("queue lock").push_back(job);
        let mut signal = self.signal.lock().expect("signal lock");
        signal.version = signal.version.wrapping_add(1);
        drop(signal);
        self.work_ready.notify_all();
    }

    /// Find one runnable job: own deque back first, then the fire queue,
    /// then the injector, then steal from the front of a sibling's deque. A
    /// thread inside a fire-class task takes only fire-class jobs that are
    /// not roots: it skips the injector and every root fire. `fire_only`
    /// asks for fire-class jobs alone outside a fire too.
    fn find_job(&self, home: Option<usize>, fire_only: bool) -> Option<Job> {
        let in_fire = IN_FIRE.get();
        let fire_only = fire_only || in_fire;
        let takes = |job: &Job| (job.fire || !fire_only) && !(in_fire && job.root);
        if let Some(ix) = home {
            let mut deque = self.locals[ix].lock().expect("queue lock");
            if let Some(at) = deque.iter().rposition(takes) {
                return deque.remove(at);
            }
        }
        let mut fire_queue = self.fire_queue.lock().expect("queue lock");
        if let Some(at) = fire_queue.iter().position(takes) {
            return fire_queue.remove(at);
        }
        drop(fire_queue);
        if !fire_only {
            if let Some(job) = self.injector.lock().expect("queue lock").pop_front() {
                return Some(job);
            }
        }
        let n = self.locals.len();
        let start = self.probe.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let ix = (start + k) % n;
            if Some(ix) == home {
                continue;
            }
            let mut deque = self.locals[ix].lock().expect("queue lock");
            if deque.front().is_some_and(takes) {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                return deque.pop_front();
            }
        }
        None
    }

    /// Run a job on the calling thread in the job's class, restoring the
    /// thread's own class afterwards (a job never unwinds: task panics are
    /// caught inside it).
    fn run(&self, job: Job) {
        let outer = IN_FIRE.replace(job.fire);
        (job.run)();
        IN_FIRE.set(outer);
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Run one queued job on the calling thread, if any is available: a
    /// fire-class one if `fire_only`.
    fn help_one(self: &Arc<Self>, fire_only: bool) -> bool {
        match self.find_job(self.home_of(), fire_only) {
            Some(job) => {
                self.run(job);
                true
            }
            None => false,
        }
    }
}

/// Run `f` on the calling thread as a fire-class task runs (see the module
/// docs): what it spawns is fire class, and its helping joins take no root
/// fire. For work that holds an engine's fire lock outside any task.
pub(crate) fn as_fire<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_FIRE.set(self.0);
        }
    }
    let _outer = Restore(IN_FIRE.replace(true));
    f()
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.set((shared.identity(), index));
    let mut idle_since: Option<Instant> = None;
    loop {
        let version = {
            let signal = shared.signal.lock().expect("signal lock");
            signal.version
        };
        if let Some(job) = shared.find_job(Some(index), false) {
            shared.run(job);
            idle_since = None;
            continue;
        }
        if idle_since.get_or_insert_with(Instant::now).elapsed() < IDLE_POLL {
            sbt_types::poll_wait();
            continue;
        }
        let signal = shared.signal.lock().expect("signal lock");
        if signal.shutdown {
            // Queues were empty on the last scan and no new push can arrive
            // (the owning Executor is being dropped): clean exit.
            break;
        }
        if signal.version == version {
            // Nothing arrived since the scan; sleep until a push (or the
            // safety timeout) wakes us.
            shared.counters.parks.fetch_add(1, Ordering::Relaxed);
            let _ = shared
                .work_ready
                .wait_timeout(signal, Duration::from_millis(10))
                .expect("signal lock");
        }
    }
}

/// A handle on one spawned task's result.
///
/// Dropping the handle detaches the task (it still runs). `join` blocks,
/// but **helps**: while the task is unfinished the joining thread executes
/// other queued tasks, so joining from inside a task is safe.
pub struct JoinHandle<T> {
    slot: Arc<Slot<T>>,
    shared: Arc<Shared>,
}

impl<T> JoinHandle<T> {
    /// Whether the task has finished (successfully or by panicking).
    pub fn is_finished(&self) -> bool {
        self.slot.is_finished()
    }

    /// Harvest the result without blocking. Returns `None` while the task
    /// is still running; at most one call gets the result.
    pub fn try_join(&self) -> Option<TaskResult<T>> {
        self.slot.try_take()
    }

    /// Wait for the task, executing other queued tasks while it runs.
    pub fn join(self) -> TaskResult<T> {
        loop {
            if let Some(result) = self.slot.try_take() {
                return result;
            }
            if !self.shared.help_one(false) {
                // The task is running on a worker: poll rather than block,
                // for the reason given at `IDLE_POLL`.
                sbt_types::poll_wait();
            }
        }
    }
}

/// The work-stealing pool of worker threads.
pub struct Executor {
    shared: Arc<Shared>,
    threads: Vec<ThreadHandle<()>>,
    size: usize,
}

impl Executor {
    /// Spawn an executor with `size` workers (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            locals: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            fire_queue: Mutex::new(VecDeque::new()),
            signal: Mutex::new(Signal { version: 0, shutdown: false }),
            work_ready: Condvar::new(),
            probe: AtomicUsize::new(0),
            counters: PoolCounters::new(),
        });
        let threads = (0..size)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sbt-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning worker thread")
            })
            .collect();
        Executor { shared, threads, size }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Tasks stolen across worker deques so far (observability).
    pub fn steals(&self) -> u64 {
        self.shared.counters.steals.load(Ordering::Relaxed)
    }

    /// Tasks executed so far, including those run by helping joiners.
    pub fn executed(&self) -> u64 {
        self.shared.counters.executed.load(Ordering::Relaxed)
    }

    /// Times a worker parked with nothing runnable (idle-pressure signal).
    pub fn parks(&self) -> u64 {
        self.shared.counters.parks.load(Ordering::Relaxed)
    }

    /// Task panics caught so far (the workers survived each one).
    pub fn panics(&self) -> u64 {
        self.shared.counters.panics.load(Ordering::Relaxed)
    }

    /// Submit one task and get a joinable handle on its result. The task
    /// is fire class if the task spawning it is, normal class otherwise.
    pub fn spawn<T, F>(&self, task: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_in(IN_FIRE.get(), task)
    }

    /// Submit one task in the fire class (see the module docs): it runs
    /// ahead of every queued normal-class task, and so does everything it
    /// spawns. For window fires — work whose result is already due.
    pub fn spawn_fire<T, F>(&self, task: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_in(true, task)
    }

    fn spawn_in<T, F>(&self, fire: bool, task: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(Slot::new());
        let task_slot = slot.clone();
        let shared = self.shared.clone();
        let run = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                TaskPanicked::from_payload(payload)
            });
            task_slot.complete(result);
        });
        // Inside a fire, every task is the fire's own: only one spawned from
        // outside any fire is a root.
        let root = fire && !IN_FIRE.get();
        self.shared.push(Job { run, fire, root });
        JoinHandle { slot, shared: self.shared.clone() }
    }

    /// Run one queued task on the calling thread, if any is ready. Lets an
    /// orchestration thread (e.g. the server's offer loop) lend itself to
    /// the pool while it has nothing else to do.
    pub fn help_one(&self) -> bool {
        self.shared.help_one(false)
    }

    /// Run one queued fire-class task on the calling thread, if any is
    /// ready: [`help_one`](Executor::help_one) for a thread that must not
    /// sit under an ingest batch while a window fire waits.
    pub fn help_fire(&self) -> bool {
        self.shared.help_one(true)
    }

    /// Barrier-style batch API: run tasks to completion, results in
    /// submission order. The calling thread helps execute while it waits.
    /// A task panic is re-raised on the caller (the worker that caught it
    /// stays alive).
    pub fn run_all<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let handles: Vec<_> = tasks.into_iter().map(|t| self.spawn(t)).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(value) => value,
                Err(p) => panic!("pool task panicked: {}", p.message),
            })
            .collect()
    }
}

/// The executor is the lane pool of every layer that fans out: the worker
/// threads that run operators also run the data plane's egress and
/// checkpoint seal lanes and the cloud verifier's per-segment checks. `run`
/// is the barrier-style `run_all`, whose helping join keeps nested fan-out
/// (a pool task spawning lane tasks) deadlock-free at any pool size and
/// makes a one-thread executor degenerate to serial work on the caller.
impl sbt_types::LanePool for Executor {
    fn workers(&self) -> usize {
        self.size()
    }

    fn run(&self, tasks: Vec<sbt_types::LaneTask>) {
        self.run_all(tasks);
    }
}

impl sbt_telemetry::CounterSource for Executor {
    fn section(&self) -> String {
        "executor".to_string()
    }

    fn collect(&self, emit: &mut dyn FnMut(&str, i64)) {
        emit("workers", self.size as i64);
        self.shared.counters.export(emit);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut signal = self.shared.signal.lock().expect("signal lock");
            signal.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawn_and_join_returns_the_value() {
        let exec = Executor::new(2);
        let h = exec.spawn(|| 41 + 1);
        assert_eq!(h.join(), Ok(42));
    }

    #[test]
    fn panicking_task_surfaces_as_error_and_worker_survives() {
        // The satellite regression: a panicking task used to kill its worker
        // thread and wedge result collection. Now the unwind is caught,
        // reported, and the pool keeps working at full strength.
        let exec = Executor::new(2);
        let boom = exec.spawn(|| -> u32 { panic!("boom {}", 7) });
        let err = boom.join().unwrap_err();
        assert!(err.message.contains("boom 7"), "{err}");
        // Both workers still alive: a follow-up batch wider than one worker
        // completes fine.
        let results = exec.run_all((0..16).map(|i| move || i * 3).collect::<Vec<_>>());
        assert_eq!(results, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "pool task panicked: legacy")]
    fn run_all_reraises_task_panics_on_the_caller() {
        let exec = Executor::new(1);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("legacy")), Box::new(|| 3)];
        exec.run_all(tasks);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Executor::new(4);
        let tasks: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    // Vary the work so completion order differs from
                    // submission order.
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) as u64 * 10));
                    i * 2
                }
            })
            .collect();
        let results = pool.run_all(tasks);
        assert_eq!(results, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_returns_immediately() {
        let pool = Executor::new(2);
        let results: Vec<i32> = pool.run_all(Vec::<fn() -> i32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn pool_size_is_clamped_and_reported() {
        assert_eq!(Executor::new(0).size(), 1);
        assert_eq!(Executor::new(3).size(), 3);
    }

    #[test]
    fn park_and_panic_counters_are_exposed() {
        let exec = Executor::new(2);
        assert_eq!(exec.panics(), 0);
        let boom = exec.spawn(|| -> u32 { panic!("counted") });
        assert!(boom.join().is_err());
        assert_eq!(exec.panics(), 1);
        // Idle workers poll for `IDLE_POLL`, then park.
        let deadline = Instant::now() + 40 * IDLE_POLL;
        while exec.parks() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(exec.parks() > 0, "idle workers never parked");
        // And the counter source mirrors the getters.
        use sbt_telemetry::CounterSource;
        let mut pairs = Vec::new();
        exec.collect(&mut |name, value| pairs.push((name.to_string(), value)));
        let get = |n: &str| pairs.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(get("panics"), 1);
        assert_eq!(get("workers"), 2);
        assert!(get("parks") > 0);
    }

    #[test]
    fn nested_spawns_and_joins_do_not_deadlock() {
        // Tasks submit and join subtasks on the same (tiny) pool: the
        // joining tasks must help execute or this deadlocks instantly.
        let exec = Arc::new(Executor::new(1));
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                let exec = exec.clone();
                move || {
                    let subs: Vec<_> = (0..3).map(|j| move || i * 10 + j).collect();
                    exec.run_all(subs).into_iter().sum::<usize>()
                }
            })
            .collect();
        let sums = exec.run_all(tasks);
        assert_eq!(sums, vec![3, 33, 63, 93]);
    }

    #[test]
    fn external_threads_can_help() {
        let exec = Executor::new(1);
        let h = exec.spawn(|| 5);
        // Helping from the test thread either runs the task or loses the
        // race to the worker; both are fine — join always gets the value.
        let _ = exec.help_one();
        assert_eq!(h.join(), Ok(5));
    }

    #[test]
    fn stress_randomized_durations_with_steals() {
        // The satellite stress test: many tasks of randomized duration and
        // random class, some nesting subtasks (which inherit their parent's
        // class). Everything must complete with correct results — none lost
        // in either class's queue — and with skewed durations the idle
        // workers must actually steal.
        let exec = Arc::new(Executor::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut handles: Vec<JoinHandle<u64>> = Vec::new();
        let mut expected: u64 = 0;
        for i in 0..200u64 {
            let micros = next() % 400;
            let nested = next() % 4 == 0;
            let fire = next() % 3 == 0;
            let c = counter.clone();
            let e2 = exec.clone();
            expected += i;
            let task = move || {
                std::thread::sleep(Duration::from_micros(micros));
                c.fetch_add(1, Ordering::Relaxed);
                if nested {
                    // Park subtasks on this worker's deque, then sleep while
                    // holding them: idle siblings must steal from the front.
                    let subs: Vec<_> =
                        (0..3).map(|_| e2.spawn(move || i)).collect::<Vec<JoinHandle<u64>>>();
                    std::thread::sleep(Duration::from_micros(200));
                    let total: u64 = subs.into_iter().map(|h| h.join().unwrap()).sum();
                    total / 3
                } else {
                    i
                }
            };
            handles.push(if fire { exec.spawn_fire(task) } else { exec.spawn(task) });
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, expected);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert!(exec.executed() >= 200);

        // Forced-steal phase: with the injector drained and every other
        // worker idle, one worker parks slow subtasks on its own deque and
        // sleeps while holding them — the idle workers must steal from its
        // front to make progress.
        let before = exec.steals();
        let e2 = exec.clone();
        let started = Arc::new(AtomicUsize::new(0));
        let s2 = started.clone();
        let holder = exec.spawn(move || {
            s2.store(1, Ordering::SeqCst);
            let subs: Vec<JoinHandle<u64>> = (0..8)
                .map(|j| {
                    e2.spawn(move || {
                        std::thread::sleep(Duration::from_millis(2));
                        j
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(6));
            subs.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        });
        // Join only once a worker has the holder: a joiner helps, and had it
        // taken the holder from the injector itself, the subtasks of a
        // non-worker thread would land in the injector with nothing to steal.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(holder.join(), Ok(28));
        assert!(exec.steals() > before, "idle workers never stole from the held deque");
    }

    /// A one-worker pool whose worker is held inside a normal-class task
    /// until the returned sender is used (or dropped): whatever the test
    /// enqueues meanwhile stays queued, and only the test thread can run it.
    fn gated_single_worker() -> (Arc<Executor>, std::sync::mpsc::Sender<()>, JoinHandle<()>) {
        let exec = Arc::new(Executor::new(1));
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (started, has_started) = std::sync::mpsc::channel::<()>();
        let held = exec.spawn(move || {
            started.send(()).unwrap();
            let _ = gate.recv();
        });
        has_started.recv().unwrap();
        (exec, release, held)
    }

    #[test]
    fn a_fire_class_task_runs_before_normal_tasks_queued_ahead_of_it() {
        let (exec, release, held) = gated_single_worker();
        let (log, order) = std::sync::mpsc::channel::<&'static str>();
        for _ in 0..8 {
            let log = log.clone();
            drop(exec.spawn(move || log.send("normal").unwrap()));
        }
        let fire_log = log.clone();
        drop(exec.spawn_fire(move || fire_log.send("fire").unwrap()));
        // Only the worker runs anything (the test thread blocks on the
        // channel, it does not help), so receipt order is execution order.
        release.send(()).unwrap();
        let ran: Vec<_> = (0..9).map(|_| order.recv().unwrap()).collect();
        assert_eq!(ran[0], "fire", "{ran:?}");
        assert!(ran[1..].iter().all(|&name| name == "normal"));
        assert_eq!(held.join(), Ok(()));
    }

    #[test]
    fn help_fire_runs_fire_class_work_only() {
        let (exec, release, held) = gated_single_worker();
        let normal = exec.spawn(|| "normal");
        let fire = exec.spawn_fire(|| "fire");
        assert!(exec.help_fire());
        assert_eq!(fire.try_join(), Some(Ok("fire")));
        assert!(!exec.help_fire(), "only a normal task is left");
        assert_eq!(normal.try_join(), None);
        assert!(exec.help_one());
        assert_eq!(normal.try_join(), Some(Ok("normal")));
        release.send(()).unwrap();
        assert_eq!(held.join(), Ok(()));
    }

    #[test]
    fn a_fire_helps_its_own_subtasks_but_never_another_root_fire() {
        let (exec, release, held) = gated_single_worker();
        let e2 = exec.clone();
        let first = exec.spawn_fire(move || {
            // A child spawned ahead of nothing: the fire runs it while it
            // joins. The second root fire queued behind the first is not
            // this fire's to run.
            let child = e2.spawn_fire(|| 7);
            let got = child.join();
            (got, e2.help_one())
        });
        let second = exec.spawn_fire(|| "second");
        // The worker is held: the test thread, outside any fire, takes the
        // first root, and then the second.
        assert!(exec.help_one());
        assert_eq!(first.try_join(), Some(Ok((Ok(7), false))));
        assert_eq!(second.try_join(), None);
        assert!(exec.help_one());
        assert_eq!(second.try_join(), Some(Ok("second")));
        release.send(()).unwrap();
        assert_eq!(held.join(), Ok(()));
    }

    #[test]
    fn a_thread_running_as_fire_takes_no_root_fire() {
        let (exec, release, held) = gated_single_worker();
        let root = exec.spawn_fire(|| "root");
        let normal = exec.spawn(|| "normal");
        as_fire(|| {
            // What it spawns is its own fire-class work, and it runs that;
            // the queued root fire and the normal task are not its to run.
            let child = exec.spawn(|| IN_FIRE.get());
            assert_eq!(child.join(), Ok(true));
            assert!(!exec.help_one());
        });
        assert!(!IN_FIRE.get(), "the class is restored");
        assert!(exec.help_one());
        assert_eq!(root.try_join(), Some(Ok("root")));
        release.send(()).unwrap();
        assert_eq!(normal.join(), Ok("normal"));
        assert_eq!(held.join(), Ok(()));
    }

    #[test]
    fn a_fire_on_a_helping_thread_keeps_its_subtasks_ahead_and_runs_no_normal_task() {
        let (exec, release, held) = gated_single_worker();
        let normals_run = Arc::new(AtomicUsize::new(0));
        let normals: Vec<_> = (0..8)
            .map(|_| {
                let n = normals_run.clone();
                exec.spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let (e2, n2) = (exec.clone(), normals_run.clone());
        let fire = exec.spawn_fire(move || {
            assert!(IN_FIRE.get());
            // Spawned from a non-worker thread inside a fire: the child is
            // fire class and lands on the fire queue, not behind the eight
            // normal tasks in the injector.
            let child = e2.spawn(|| IN_FIRE.get());
            assert_eq!(child.join(), Ok(true));
            // With only normal tasks left, a fire-class joiner finds nothing
            // to help with: it never runs one of them.
            assert!(!e2.help_one());
            n2.load(Ordering::SeqCst)
        });
        // The worker is held, so the test thread is the non-worker helper;
        // the first thing it is handed is the fire, not a normal task.
        assert!(!IN_FIRE.get());
        assert!(exec.help_one());
        assert!(!IN_FIRE.get(), "the class is the task's, not the thread's");
        assert_eq!(fire.try_join(), Some(Ok(0)));
        assert_eq!(normals_run.load(Ordering::SeqCst), 0);
        // Outside the fire the same thread takes normal tasks again.
        assert!(exec.help_one());
        assert_eq!(normals_run.load(Ordering::SeqCst), 1);
        release.send(()).unwrap();
        for h in normals {
            assert_eq!(h.join(), Ok(()));
        }
        assert_eq!(held.join(), Ok(()));
    }

    #[test]
    fn a_panicking_fire_class_task_leaves_the_thread_in_the_normal_class() {
        // On a helping thread.
        let (exec, release, held) = gated_single_worker();
        let boom = exec.spawn_fire(|| -> u32 { panic!("fire boom") });
        assert!(exec.help_one());
        assert!(!IN_FIRE.get());
        assert!(boom.try_join().unwrap().unwrap_err().message.contains("fire boom"));
        // And on the worker: the next task it runs is normal class, and it
        // still serves the injector.
        release.send(()).unwrap();
        assert_eq!(held.join(), Ok(()));
        let (done, finished) = std::sync::mpsc::channel::<()>();
        drop(exec.spawn_fire(move || {
            let _done = done;
            panic!("worker fire boom")
        }));
        assert!(finished.recv().is_err(), "the sender is dropped when the task unwinds");
        // Not joined (a joiner would help and run it here): only the worker
        // can answer, and only if it left the fire class.
        let (answer, answered) = std::sync::mpsc::channel();
        drop(exec.spawn(move || answer.send(IN_FIRE.get()).unwrap()));
        assert_eq!(
            answered.recv_timeout(Duration::from_secs(30)),
            Ok(false),
            "the worker stopped serving the injector"
        );
        assert_eq!(exec.panics(), 2);
    }

    #[test]
    fn drop_waits_for_queued_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let exec = Executor::new(2);
            for _ in 0..32 {
                let c = counter.clone();
                drop(exec.spawn(move || {
                    std::thread::sleep(Duration::from_micros(100));
                    c.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        // Every detached task ran before the workers exited.
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }
}
