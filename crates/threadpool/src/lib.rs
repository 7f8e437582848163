//! A work-stealing worker pool tailored to the `weakdep` task runtime.
//!
//! The pool is deliberately lower level than `rayon`: the task runtime built on top needs to
//! control *where* ready tasks are enqueued, because the paper's scheduling policy ("dispatch a
//! successor to the same core that released its dependency", §VIII-A) is what produces the
//! temporal-locality / cache-miss-ratio effect of Figure 3.
//!
//! Design (following the idioms of *Rust Atomics and Locks* and the crossbeam ecosystem):
//!
//! * one OS thread per worker, each owning a [`crossbeam_deque::Worker`] LIFO deque;
//! * a global [`crossbeam_deque::Injector`] for submissions from outside the pool;
//! * an *immediate-successor slot* per worker: the highest-priority, single-entry slot a job can
//!   be placed in from within the executor, bypassing all queues (the locality hint);
//! * a pluggable [`SchedulingPolicy`] deciding successor-slot usage, ready-wave placement and
//!   the steal-victim order (see `docs/scheduling.md` for the inventory);
//! * a mutex/condvar sleep protocol with an epoch counter so wake-ups are never lost, extended
//!   with per-domain wake targeting for the hierarchical policy;
//! * an optional idle hook ([`IdleHook`]) through which the embedder finishes work it deferred
//!   (the runtime's retire batches) before a worker turns to shared queues, assists or sleeps.
//!
//! The pool is generic over the job type `T` and executes jobs through a caller-provided
//! executor callback, which receives a [`WorkerContext`] usable to schedule follow-up jobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod assist;
pub mod sleep;
pub mod watchdog;

pub use admission::{AdmissionGate, AdmissionStats};
pub use assist::{AssistRegistry, LoopDescriptor};
pub use watchdog::{Tick, Watchdog};

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crossbeam_deque::{Injector, Steal, Stealer, Worker as Deque};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sleep::{SleepState, WakeTarget};

/// The executor callback: invoked once per job on a worker thread.
pub type Executor<T> = dyn Fn(T, &WorkerContext<'_, T>) + Send + Sync;

/// The idle hook: invoked when a worker finds no job in its own successor slot or deque — on
/// the idle path before it turns to the injector, steals, assists or sleeps, and in
/// [`WorkerContext::help_one`]. It lets the embedder finish work it deferred (the runtime's
/// retire batches). Returns whether it made progress; the worker then rescans its own queues.
pub type IdleHook<T> = dyn Fn(&WorkerContext<'_, T>) -> bool + Send + Sync;

/// How the pool places ready jobs and searches for work. Every policy is *observationally
/// equivalent* on data results — policies reorder execution, they never change what executes —
/// but they produce very different (task → worker) schedules, which is exactly the Figure 3
/// axis the cache model measures.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// The paper's §VIII-A policy (the default): the first successor a finishing job releases
    /// goes to the releasing worker's immediate-successor slot, the rest to its LIFO deque;
    /// idle workers batch-steal from a random victim.
    #[default]
    LocalitySlot,
    /// Breadth-first baseline with **no** locality: every ready job goes to the global FIFO
    /// injector, the successor slot and the per-worker deques are bypassed, and idle workers
    /// take single jobs from the injector in strict submission order. This is the "scheduler
    /// ignores the dependency information" baseline Figure 3 compares against.
    Fifo,
    /// Depth-first without the successor slot: every ready job goes to the releasing worker's
    /// LIFO deque (so chains are still followed, newest-first), but no job ever bypasses the
    /// deque; idle workers batch-steal from a random victim. Isolates the slot's contribution
    /// from plain LIFO ordering.
    DepthFirst,
    /// [`SchedulingPolicy::LocalitySlot`] plus locality domains: workers are grouped into
    /// domains of `domain_size` (modelling cores that share an L2/L3 slice), idle workers
    /// steal *single* jobs from their own domain first and only batch-steal across domains,
    /// and wake-ups prefer sleepers of the domain whose queues hold the work (see
    /// `sleep.rs`).
    HierarchicalSteal {
        /// Workers per locality domain (clamped to `1..=workers`). Domain of worker `i` is
        /// `i / domain_size`.
        domain_size: usize,
    },
    /// Multi-tenant fairness: ready work submitted through the tenant-tagged entry points
    /// ([`ThreadPool::submit_tenant`], [`WorkerContext::dispatch_ready_tenant`], ...) goes to a
    /// per-tenant FIFO queue, and idle workers drain the queues round-robin — one job per
    /// tenant per turn — so one heavy tenant cannot starve the others. The immediate-successor
    /// slot **is** used (since ISSUE 10; it bypassed the queues before, burying hot successors
    /// behind the rotation): the first successor a finishing job releases goes to the
    /// releasing worker's slot, and a displaced slot occupant rejoins the *front* of its own
    /// tenant's queue. Everything else is breadth-first *across tenants*: no per-worker wave
    /// placement, and untagged submissions fall back to the global injector, which workers
    /// only consult when every tenant queue is empty.
    FairShare,
}

impl SchedulingPolicy {
    /// The default domain size of [`SchedulingPolicy::hierarchical`] (4 workers per domain,
    /// loosely an L2 cluster).
    pub const DEFAULT_DOMAIN_SIZE: usize = 4;

    /// The hierarchical policy with the default domain size.
    pub fn hierarchical() -> Self {
        SchedulingPolicy::HierarchicalSteal { domain_size: Self::DEFAULT_DOMAIN_SIZE }
    }

    /// All concrete policies (hierarchical with its default domain size), in ablation order.
    pub fn all() -> [SchedulingPolicy; 5] {
        [
            SchedulingPolicy::LocalitySlot,
            SchedulingPolicy::HierarchicalSteal { domain_size: Self::DEFAULT_DOMAIN_SIZE },
            SchedulingPolicy::DepthFirst,
            SchedulingPolicy::Fifo,
            SchedulingPolicy::FairShare,
        ]
    }

    /// The name used in benchmark output and `BENCH_overheads.json`.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::LocalitySlot => "locality-slot",
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::DepthFirst => "depth-first",
            SchedulingPolicy::HierarchicalSteal { .. } => "hierarchical-steal",
            SchedulingPolicy::FairShare => "fair-share",
        }
    }

    /// Parses a policy name as printed by [`SchedulingPolicy::name`] (hierarchical gets the
    /// default domain size).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|p| p.name() == name)
    }

    /// Whether the policy dispatches through the immediate-successor slot. Fair-share keeps
    /// its breadth-first tenant queues but regained the §VIII-A slot in ISSUE 10 — the hot
    /// successor no longer waits behind the round-robin rotation.
    pub fn uses_successor_slot(&self) -> bool {
        matches!(
            self,
            SchedulingPolicy::LocalitySlot
                | SchedulingPolicy::HierarchicalSteal { .. }
                | SchedulingPolicy::FairShare
        )
    }

    /// Whether ready waves go to the producing worker's deque (`true`) or to the global
    /// injector (`false`, the breadth-first baselines).
    fn wave_goes_local(&self) -> bool {
        !matches!(self, SchedulingPolicy::Fifo | SchedulingPolicy::FairShare)
    }

    /// Effective workers-per-domain for a pool of `workers` (1 domain for every
    /// non-hierarchical policy).
    pub fn domain_size(&self, workers: usize) -> usize {
        match self {
            SchedulingPolicy::HierarchicalSteal { domain_size } => {
                (*domain_size).clamp(1, workers.max(1))
            }
            _ => workers.max(1),
        }
    }

    /// Locality domain of worker `index` in a pool of `workers`.
    pub fn domain_of(&self, index: usize, workers: usize) -> usize {
        index / self.domain_size(workers)
    }

    /// Number of locality domains in a pool of `workers`.
    pub fn domain_count(&self, workers: usize) -> usize {
        workers.max(1).div_ceil(self.domain_size(workers))
    }
}

/// Statistics counters exposed by the pool (all monotonically increasing).
///
/// Accounting invariant (asserted by tests): `executed == from_successor_slot + from_local +
/// from_injector + stolen` — every executed job was acquired from exactly one source.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Jobs executed, across all workers.
    pub executed: AtomicUsize,
    /// Jobs taken from the immediate-successor slot.
    pub from_successor_slot: AtomicUsize,
    /// Jobs popped from the worker's own deque.
    pub from_local: AtomicUsize,
    /// Jobs taken from the global injector.
    pub from_injector: AtomicUsize,
    /// Jobs stolen from another worker.
    pub stolen: AtomicUsize,
    /// Subset of `stolen` taken from a victim in the thief's own locality domain (all steals,
    /// for single-domain policies).
    pub stolen_same_domain: AtomicUsize,
    /// Subset of `stolen` taken from a victim in another locality domain (hierarchical policy
    /// only; always the batch-steal path).
    pub stolen_cross_domain: AtomicUsize,
    /// Jobs displaced out of the successor slot by a newer successor (each was re-dispatched
    /// through the policy's wave placement).
    pub successor_displacements: AtomicUsize,
    /// Domain-preferring wake-ups that woke a sleeper of the preferred domain.
    pub targeted_wakes: AtomicUsize,
    /// Domain-preferring wake-ups that fell back to a sleeper of another domain.
    pub fallback_wakes: AtomicUsize,
    /// Times a worker went to sleep.
    pub sleeps: AtomicUsize,
    /// Loop chunks executed by *assisting* workers (idle-path acquisitions from the
    /// [`AssistRegistry`]; owner-driven chunks are not counted). Chunks are not pool jobs, so
    /// this stands **beside** the `executed == slot + local + injector + stolen` identity;
    /// its own invariant is `assisted_loops <= assist_steals <= assist_chunks`.
    pub assist_chunks: AtomicUsize,
    /// Published loops that received at least one assist chunk (distinct loops).
    pub assisted_loops: AtomicUsize,
    /// Times an idle worker acquired a loop from the registry and executed ≥ 1 chunk (one
    /// acquisition may run many chunks).
    pub assist_steals: AtomicUsize,
}

impl PoolStats {
    fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the executed-jobs counter.
    pub fn executed_jobs(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }
}

/// Per-tenant FIFO queues plus the round-robin rotation, for [`SchedulingPolicy::FairShare`].
///
/// Invariant: a tenant appears in `order` **iff** its queue is non-empty (each tenant at most
/// once). Empty queues are removed from the map immediately, so the map's footprint tracks the
/// number of tenants with queued work, not the number of tenants ever seen.
struct FairInner<T> {
    queues: HashMap<u64, VecDeque<T>>,
    order: VecDeque<u64>,
}

impl<T> Default for FairInner<T> {
    fn default() -> Self {
        FairInner { queues: HashMap::new(), order: VecDeque::new() }
    }
}

struct Shared<T: Send + 'static> {
    injector: Injector<T>,
    stealers: Vec<Stealer<T>>,
    sleep: SleepState,
    shutdown: AtomicBool,
    stats: PoolStats,
    workers: usize,
    policy: SchedulingPolicy,
    /// Tenant queues for [`SchedulingPolicy::FairShare`]; untouched (and empty) under every
    /// other policy. Guarded by one mutex: pushes and the round-robin pop both rotate `order`,
    /// and fairness is inherently a global ordering decision. The lock is a **leaf**: nothing
    /// is called while it is held — sleep-protocol notifies happen strictly after release (see
    /// docs/locking.md).
    fair: Mutex<FairInner<T>>,
    /// In-progress data-parallel loops idle workers may assist (lock-free fast path + its own
    /// leaf lock, see `assist.rs` and docs/parallel_loops.md).
    assist: AssistRegistry,
}

impl<T: Send + 'static> Shared<T> {
    /// Enqueues one job on `tenant`'s FIFO queue. The caller signals the sleep protocol
    /// *after* this returns — never while the fair lock is held.
    fn fair_push(&self, tenant: u64, job: T) {
        let mut inner = self.fair.lock();
        let FairInner { queues, order } = &mut *inner;
        let queue = queues.entry(tenant).or_default();
        if queue.is_empty() {
            order.push_back(tenant);
        }
        queue.push_back(job);
    }

    /// Enqueues a wave of jobs on `tenant`'s FIFO queue, returning the count.
    fn fair_push_batch(&self, tenant: u64, jobs: impl IntoIterator<Item = T>) -> usize {
        let mut inner = self.fair.lock();
        let FairInner { queues, order } = &mut *inner;
        let queue = queues.entry(tenant).or_default();
        let was_empty = queue.is_empty();
        let before = queue.len();
        queue.extend(jobs);
        let pushed = queue.len() - before;
        if was_empty && pushed > 0 {
            order.push_back(tenant);
        } else if was_empty {
            // `entry().or_default()` may have created an empty queue; uphold the invariant.
            queues.remove(&tenant);
        }
        pushed
    }

    /// Front-enqueues a job displaced from the successor slot onto its own tenant's queue:
    /// it must outrank that tenant's older queued work (the §VIII-A demotion order — the
    /// displaced job sits directly below its displacer in priority), but it does not re-enter
    /// the slot.
    fn fair_push_front(&self, tenant: u64, job: T) {
        let mut inner = self.fair.lock();
        let FairInner { queues, order } = &mut *inner;
        let queue = queues.entry(tenant).or_default();
        if queue.is_empty() {
            order.push_back(tenant);
        }
        queue.push_front(job);
    }

    /// Round-robin pop: takes the front job of the next tenant in rotation and moves that
    /// tenant to the back of the rotation (if it still has queued work).
    fn fair_pop(&self) -> Option<T> {
        let mut inner = self.fair.lock();
        let FairInner { queues, order } = &mut *inner;
        let tenant = order.pop_front()?;
        let queue = queues.get_mut(&tenant).expect("tenant in rotation has a queue");
        let job = queue.pop_front().expect("queued tenant has a job");
        if queue.is_empty() {
            queues.remove(&tenant);
        } else {
            order.push_back(tenant);
        }
        Some(job)
    }
    /// Records the outcome of a domain-preferring wake into the stats counters.
    fn count_wake(&self, target: WakeTarget) {
        match target {
            WakeTarget::Preferred => PoolStats::bump(&self.stats.targeted_wakes),
            WakeTarget::Fallback => PoolStats::bump(&self.stats.fallback_wakes),
            WakeTarget::NoSleeper => {}
        }
    }

    fn count_wakes(&self, (hit, fallback): (usize, usize)) {
        self.stats.targeted_wakes.fetch_add(hit, Ordering::Relaxed);
        self.stats.fallback_wakes.fetch_add(fallback, Ordering::Relaxed);
    }
}

/// A handle to the worker pool. Dropping the pool shuts it down and joins all worker threads;
/// jobs still queued at that point are dropped without being executed.
pub struct ThreadPool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    executor: Arc<Executor<T>>,
    handles: Vec<JoinHandle<()>>,
}

/// Per-worker context handed to the executor callback. Used to schedule follow-up jobs with
/// explicit placement and to help execute queued jobs while waiting (work-conserving waits).
pub struct WorkerContext<'a, T: Send + 'static> {
    shared: &'a Shared<T>,
    executor: &'a Executor<T>,
    idle: &'a IdleHook<T>,
    deque: &'a Deque<T>,
    successor_slot: &'a Cell<Option<T>>,
    /// Tenant tag of the current slot occupant (`None` = untagged), so a job displaced under
    /// [`SchedulingPolicy::FairShare`] rejoins *its own* tenant's queue. Meaningful only
    /// while the slot is occupied; always rewritten when the slot is filled.
    successor_tenant: &'a Cell<Option<u64>>,
    rng: &'a RefCell<SmallRng>,
    index: usize,
    domain: usize,
}

impl<T: Send + 'static> ThreadPool<T> {
    /// Creates a pool with `workers` worker threads executing jobs through `executor`, under
    /// the default [`SchedulingPolicy::LocalitySlot`] policy.
    ///
    /// `workers` is clamped to at least 1.
    pub fn new<F>(workers: usize, executor: F) -> Self
    where
        F: Fn(T, &WorkerContext<'_, T>) + Send + Sync + 'static,
    {
        Self::with_policy(workers, SchedulingPolicy::default(), executor)
    }

    /// Creates a pool with `workers` worker threads and an explicit scheduling policy.
    pub fn with_policy<F>(workers: usize, policy: SchedulingPolicy, executor: F) -> Self
    where
        F: Fn(T, &WorkerContext<'_, T>) + Send + Sync + 'static,
    {
        Self::with_idle_hook(workers, policy, executor, |_| false)
    }

    /// Creates a pool with an explicit scheduling policy and an [`IdleHook`], which workers
    /// call whenever their own successor slot and deque are empty.
    pub fn with_idle_hook<F, I>(
        workers: usize,
        policy: SchedulingPolicy,
        executor: F,
        idle: I,
    ) -> Self
    where
        F: Fn(T, &WorkerContext<'_, T>) + Send + Sync + 'static,
        I: Fn(&WorkerContext<'_, T>) -> bool + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let deques: Vec<Deque<T>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(Deque::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleep: SleepState::new(policy.domain_count(workers)),
            shutdown: AtomicBool::new(false),
            stats: PoolStats::default(),
            workers,
            policy,
            fair: Mutex::new(FairInner::default()),
            assist: AssistRegistry::new(),
        });
        let executor: Arc<Executor<T>> = Arc::new(executor);
        let idle: Arc<IdleHook<T>> = Arc::new(idle);

        let mut handles = Vec::with_capacity(workers);
        for (index, deque) in deques.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let executor = Arc::clone(&executor);
            let idle = Arc::clone(&idle);
            let handle = std::thread::Builder::new()
                .name(format!("weakdep-worker-{index}"))
                .spawn(move || worker_main(index, deque, shared, executor, idle))
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        ThreadPool { shared, executor, handles }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// The scheduling policy the pool was created with.
    pub fn policy(&self) -> SchedulingPolicy {
        self.shared.policy
    }

    /// Access to the pool statistics counters.
    pub fn stats(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// Approximate queue depths for diagnostics (stall reports): the global injector's length
    /// plus each worker deque's length. Racy by nature — lengths are sampled independently
    /// while workers run — so only suitable for reporting, never for scheduling decisions.
    pub fn queue_depths(&self) -> (usize, Vec<usize>) {
        let injector = self.shared.injector.len();
        let deques = self.shared.stealers.iter().map(|s| s.len()).collect();
        (injector, deques)
    }

    /// Jobs queued in the fair-share tenant queues (0 under every other policy), for
    /// diagnostics alongside [`ThreadPool::queue_depths`].
    pub fn fair_queue_depth(&self) -> usize {
        let inner = self.shared.fair.lock();
        inner.queues.values().map(VecDeque::len).sum()
    }

    /// Submits a job from outside the pool (goes to the global injector).
    pub fn submit(&self, job: T) {
        self.shared.injector.push(job);
        self.shared.sleep.notify_one(None);
    }

    /// Submits many jobs at once, waking as many workers as needed. The whole wave enters the
    /// injector in one operation, and the sleep protocol is signalled once.
    pub fn submit_batch(&self, jobs: impl IntoIterator<Item = T>) {
        let mut count = 0usize;
        self.shared.injector.push_batch(jobs.into_iter().inspect(|_| count += 1));
        if count > 0 {
            self.shared.sleep.notify_many(count, None);
        }
    }

    /// Tenant-tagged [`ThreadPool::submit`]: under [`SchedulingPolicy::FairShare`] the job
    /// joins `tenant`'s FIFO queue in the round-robin rotation; under every other policy the
    /// tag is ignored and the job goes to the global injector.
    pub fn submit_tenant(&self, tenant: u64, job: T) {
        if self.shared.policy == SchedulingPolicy::FairShare {
            self.shared.fair_push(tenant, job);
            self.shared.sleep.notify_one(None);
        } else {
            self.submit(job);
        }
    }

    /// Publishes an in-progress data-parallel loop from *outside* the pool (the owner is not
    /// a worker — e.g. a root task running on the submitting thread) and recruits parked
    /// workers through the epoch protocol. The owner must drive the loop to quiescence and
    /// then call [`ThreadPool::retire_loop`].
    pub fn publish_loop(&self, desc: Arc<LoopDescriptor>) {
        self.shared.assist.publish(desc);
        self.shared.sleep.notify_many(self.shared.workers, None);
    }

    /// Removes a quiescent loop from the assist registry (see [`ThreadPool::publish_loop`]).
    pub fn retire_loop(&self, desc: &Arc<LoopDescriptor>) {
        self.shared.assist.retire(desc);
    }

    /// Number of currently published loops (diagnostics).
    pub fn active_loops(&self) -> usize {
        self.shared.assist.active_loops()
    }

    /// Tenant-tagged [`ThreadPool::submit_batch`] (see [`ThreadPool::submit_tenant`]).
    pub fn submit_batch_tenant(&self, tenant: u64, jobs: impl IntoIterator<Item = T>) {
        if self.shared.policy == SchedulingPolicy::FairShare {
            let count = self.shared.fair_push_batch(tenant, jobs);
            if count > 0 {
                self.shared.sleep.notify_many(count, None);
            }
        } else {
            self.submit_batch(jobs);
        }
    }

    /// Requests shutdown and joins all workers. Queued jobs that have not started are dropped
    /// **without being executed**: each worker stops taking work the moment it observes the
    /// shutdown flag and drains its own deque and successor slot (running the jobs'
    /// destructors) before exiting, so by the time `shutdown` returns every undelivered job of
    /// a joined worker has been dropped. Jobs still in the global injector are drained by
    /// [`ThreadPool::drop`].
    ///
    /// The shutdown may itself run *on* a worker thread: the executor callback can hold the last
    /// reference to the structure owning the pool (e.g. a runtime dropped on the main thread
    /// while a worker was still retiring its final task). A thread cannot join itself, so that
    /// worker's handle is detached instead — the thread observes the shutdown flag and exits
    /// (draining its deque and slot) on its own, keeping the shared state alive through its own
    /// `Arc`. **This is the one documented exception** to the destructors-before-return
    /// guarantee: jobs stranded in the *detached self-shutdown worker's* deque or slot are
    /// dropped when that thread exits, which happens after `shutdown`/`drop` returns (covered
    /// by `self_shutdown_worker_drains_after_drop` in the tests).
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.sleep.notify_all();
        let current = std::thread::current().id();
        let mut _detached = false;
        for handle in self.handles.drain(..) {
            if handle.thread().id() == current {
                drop(handle);
                _detached = true;
            } else {
                let _ = handle.join();
            }
        }
        // Scheduler accounting identities, checkable only at quiescence because `executed` is
        // bumped before the per-source counter (both relaxed). All workers are joined here —
        // unless one was the detached self-shutdown worker, which may still be draining.
        #[cfg(debug_assertions)]
        if !_detached {
            use std::sync::atomic::Ordering::Relaxed;
            let stats = &self.shared.stats;
            let executed = stats.executed.load(Relaxed);
            let sourced = stats.from_successor_slot.load(Relaxed)
                + stats.from_local.load(Relaxed)
                + stats.from_injector.load(Relaxed)
                + stats.stolen.load(Relaxed);
            debug_assert_eq!(
                executed, sourced,
                "pool accounting: every executed job must come from exactly one source \
                 (slot + local + injector + stolen)"
            );
            let stolen = stats.stolen.load(Relaxed);
            let split = stats.stolen_same_domain.load(Relaxed)
                + stats.stolen_cross_domain.load(Relaxed);
            debug_assert_eq!(
                stolen, split,
                "pool accounting: every steal is either same-domain or cross-domain"
            );
            let assist_chunks = stats.assist_chunks.load(Relaxed);
            let assist_steals = stats.assist_steals.load(Relaxed);
            let assisted_loops = stats.assisted_loops.load(Relaxed);
            debug_assert!(
                assisted_loops <= assist_steals && assist_steals <= assist_chunks,
                "assist accounting: every assisted loop was acquired at least once and every \
                 acquisition ran at least one chunk \
                 (loops {assisted_loops} <= steals {assist_steals} <= chunks {assist_chunks})"
            );
        }
    }
}

impl<T: Send + 'static> Drop for ThreadPool<T> {
    fn drop(&mut self) {
        self.shutdown();
        // Drain jobs left in the injector so their destructors run deterministically. Loop until
        // the injector reports `Empty`: `Steal::Retry` only means the probe lost a race, and
        // breaking on it would silently leave queued jobs (and their destructors) behind.
        loop {
            match self.shared.injector.steal() {
                Steal::Success(_job) => {}
                Steal::Retry => std::hint::spin_loop(),
                Steal::Empty => break,
            }
        }
        // Same for the fair-share tenant queues (empty under every other policy).
        while self.shared.fair_pop().is_some() {}
        let _ = &self.executor;
    }
}

impl<'a, T: Send + 'static> WorkerContext<'a, T> {
    /// Index of the current worker (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of workers in the pool.
    pub fn pool_size(&self) -> usize {
        self.shared.workers
    }

    /// The pool's scheduling policy.
    pub fn policy(&self) -> SchedulingPolicy {
        self.shared.policy
    }

    /// Locality domain of the current worker (always 0 for non-hierarchical policies).
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Places one ready job according to the policy's *wave* rule: the local LIFO deque for
    /// the locality policies, the global injector for [`SchedulingPolicy::Fifo`].
    pub fn dispatch_spawned(&self, job: T) {
        if self.shared.policy.wave_goes_local() {
            self.push_local(job);
        } else {
            self.push_global(job);
        }
    }

    /// Tenant-tagged [`WorkerContext::dispatch_spawned`]: under
    /// [`SchedulingPolicy::FairShare`] the job joins `tenant`'s FIFO queue; under every other
    /// policy the tag is ignored.
    pub fn dispatch_spawned_tenant(&self, tenant: u64, job: T) {
        if self.shared.policy == SchedulingPolicy::FairShare {
            self.shared.fair_push(tenant, job);
            let target = self.shared.sleep.notify_one(None);
            self.shared.count_wake(target);
        } else {
            self.dispatch_spawned(job);
        }
    }

    /// Dispatches a wave of ready jobs according to the policy, in one shot.
    ///
    /// `successor_hint` marks the wave as produced by a *finished* job (its first entry is the
    /// immediate successor of §VIII-A); waves produced mid-body (the `release` directive) pass
    /// `false`, so other workers can steal everything while the producer keeps running.
    ///
    /// Priority order established on this worker (highest first): the slot job, then a job it
    /// displaced from the slot, then the rest of this wave (newest first), then older deque
    /// content. The displaced job is re-pushed **after** the wave so the LIFO pop order keeps
    /// it ahead of the colder wave jobs — pushing it first (as `schedule_next` + per-job
    /// pushes used to) buried the previous hot successor *below* the incoming wave, inverting
    /// the §VIII-A priority (see `displaced_successor_outranks_the_displacing_wave`).
    pub fn dispatch_ready(&self, jobs: Vec<T>, successor_hint: bool) {
        let policy = self.shared.policy;
        if policy == SchedulingPolicy::FairShare {
            // Untagged fair-share wave: the successor takes the slot, the rest go to the
            // global injector (fair-share never uses per-worker deques for waves).
            let mut jobs = jobs.into_iter();
            let mut pushed = 0usize;
            if successor_hint {
                if let Some(first) = jobs.next() {
                    if let Some((displaced, tenant)) = self.slot_put(first, None) {
                        self.fair_requeue_displaced(displaced, tenant);
                        pushed += 1;
                    }
                }
            }
            for job in jobs {
                self.shared.injector.push(job);
                pushed += 1;
            }
            if pushed > 0 {
                self.shared.sleep.notify_many(pushed, None);
            }
            return;
        }
        if !(successor_hint && policy.uses_successor_slot()) {
            if policy.wave_goes_local() {
                let count = jobs.len();
                for job in jobs {
                    self.deque.push(job);
                }
                let woken = self.shared.sleep.notify_many(count, Some(self.domain));
                self.shared.count_wakes(woken);
            } else {
                let count = jobs.len();
                self.shared.injector.push_batch(jobs);
                self.shared.sleep.notify_many(count, None);
            }
            return;
        }
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        let mut pushed = 0usize;
        for job in jobs {
            self.deque.push(job);
            pushed += 1;
        }
        if let Some(first) = first {
            if let Some((displaced, _)) = self.slot_put(first, None) {
                self.deque.push(displaced);
                pushed += 1;
            }
        }
        if pushed > 0 {
            let woken = self.shared.sleep.notify_many(pushed, Some(self.domain));
            self.shared.count_wakes(woken);
        }
    }

    /// Tenant-tagged [`WorkerContext::dispatch_ready`]: under [`SchedulingPolicy::FairShare`]
    /// the wave joins `tenant`'s FIFO queue — except the immediate successor, which takes the
    /// releasing worker's slot when `successor_hint` is set (ISSUE 10: the queues used to
    /// bypass the slot, burying the hot successor behind the round-robin rotation). A job the
    /// successor displaces from the slot rejoins the *front* of its own tenant's queue, so it
    /// runs ahead of that tenant's colder queued work — the same §VIII-A demotion order
    /// [`WorkerContext::dispatch_ready`] pins for the deque policies. Under every other
    /// policy the tag is ignored and the wave takes the policy's normal placement.
    pub fn dispatch_ready_tenant(&self, tenant: u64, jobs: Vec<T>, successor_hint: bool) {
        if self.shared.policy == SchedulingPolicy::FairShare {
            let mut jobs = jobs.into_iter();
            let mut count = 0usize;
            if successor_hint {
                if let Some(first) = jobs.next() {
                    if let Some((displaced, displaced_tenant)) = self.slot_put(first, Some(tenant)) {
                        self.fair_requeue_displaced(displaced, displaced_tenant);
                        count += 1;
                    }
                }
            }
            count += self.shared.fair_push_batch(tenant, jobs);
            if count > 0 {
                self.shared.sleep.notify_many(count, None);
            }
        } else {
            self.dispatch_ready(jobs, successor_hint);
        }
    }

    /// Puts `job` (owned by `tenant`, `None` = untagged) in the successor slot; returns the
    /// displaced occupant and *its* tenant tag, with the displacement counted.
    fn slot_put(&self, job: T, tenant: Option<u64>) -> Option<(T, Option<u64>)> {
        let previous_tenant = self.successor_tenant.replace(tenant);
        let displaced = self.successor_slot.replace(Some(job))?;
        PoolStats::bump(&self.shared.stats.successor_displacements);
        Some((displaced, previous_tenant))
    }

    /// Re-queues a job displaced from the slot under fair-share: the front of its own
    /// tenant's queue, or the global injector if it was untagged. The caller signals the
    /// sleep protocol (the displaced job is part of the caller's wake count).
    fn fair_requeue_displaced(&self, displaced: T, tenant: Option<u64>) {
        match tenant {
            Some(tenant) => self.shared.fair_push_front(tenant, displaced),
            None => self.shared.injector.push(displaced),
        }
    }

    /// Schedules `job` to run *next* on this worker (the locality hint used when a finishing
    /// task releases a dependency and its successor should reuse the warm cache). Under a
    /// policy without a successor slot this degrades to the policy's wave placement.
    ///
    /// If the slot is already occupied, the previously stored job is demoted through the
    /// policy's wave placement; on the deque it lands on top, i.e. directly *below* the
    /// incoming job in priority (the slot always outranks the deque). Callers dispatching a
    /// whole wave must use [`WorkerContext::dispatch_ready`], which also orders the displaced
    /// job against the rest of the wave.
    pub fn schedule_next(&self, job: T) {
        if !self.shared.policy.uses_successor_slot() {
            self.dispatch_spawned(job);
            return;
        }
        if let Some((previous, previous_tenant)) = self.slot_put(job, None) {
            if self.shared.policy == SchedulingPolicy::FairShare {
                self.fair_requeue_displaced(previous, previous_tenant);
                let target = self.shared.sleep.notify_one(None);
                self.shared.count_wake(target);
            } else {
                self.dispatch_spawned(previous);
            }
        }
    }

    /// Pushes `job` onto this worker's LIFO deque (recently produced work, likely cache warm).
    pub fn push_local(&self, job: T) {
        self.deque.push(job);
        let target = self.shared.sleep.notify_one(Some(self.domain));
        self.shared.count_wake(target);
    }

    /// Pushes `job` onto the global injector (oldest-first, any worker may pick it up).
    pub fn push_global(&self, job: T) {
        self.shared.injector.push(job);
        self.shared.sleep.notify_one(None);
    }

    /// Tries to find one queued job (including the successor slot, which only this worker can
    /// see) and executes it inline. When this worker's own slot and deque are empty, the
    /// [`IdleHook`] runs first — so deferred work is finished before a `taskwait` sleeps — and
    /// its progress counts as help.
    ///
    /// Returns `true` if a job was executed or the idle hook made progress. Used to keep
    /// workers productive while they wait for a condition (e.g. a `taskwait`), instead of
    /// blocking the OS thread; it is also the worker loop's own scan, before assist and sleep.
    pub fn help_one(&self) -> bool {
        if let Some(job) = self.find_local(true) {
            self.run(job);
            return true;
        }
        if (self.idle)(self) {
            return true;
        }
        if let Some(job) = self.find_global() {
            self.run(job);
            return true;
        }
        false
    }

    /// Whether this worker's successor slot or deque holds a job — work it will run next
    /// without looking anywhere else.
    pub fn has_local_work(&self) -> bool {
        let slot = self.successor_slot.take();
        let occupied = slot.is_some();
        self.successor_slot.set(slot);
        occupied || !self.deque.is_empty()
    }

    /// Publishes work that idle workers find by scanning (through the [`IdleHook`]) rather
    /// than in a queue, under the sleep-epoch protocol: the epoch bump makes a worker that is
    /// between its scan and its sleep rescan. Returns `true` when a worker is already parked;
    /// the caller must then finish the work itself instead of deferring it (see
    /// [`SleepState::announce`]).
    pub fn announce_deferred(&self) -> bool {
        self.shared.sleep.announce()
    }

    /// Whether any worker of the pool is parked in the sleep protocol (a relaxed snapshot).
    pub fn any_parked(&self) -> bool {
        self.shared.sleep.has_sleepers()
    }

    /// Publishes an in-progress data-parallel loop registered by the task running on this
    /// worker, and recruits every parked worker through the epoch protocol (a published loop
    /// is claimable by *all* of them — the wake count is the pool size, domain-preferring so
    /// hierarchical sleepers near the owner wake first). The owner must drive the loop to
    /// quiescence and then call [`WorkerContext::retire_loop`].
    pub fn publish_loop(&self, desc: Arc<LoopDescriptor>) {
        self.shared.assist.publish(desc);
        let woken = self.shared.sleep.notify_many(self.shared.workers, Some(self.domain));
        self.shared.count_wakes(woken);
    }

    /// Removes a quiescent loop from the assist registry (see
    /// [`WorkerContext::publish_loop`]).
    pub fn retire_loop(&self, desc: &Arc<LoopDescriptor>) {
        self.shared.assist.retire(desc);
    }

    /// The idle path's **assist** step, ranked below every task source (successor slot →
    /// local deque → injector → steal) and above sleep: picks a published loop — same-domain
    /// first under [`SchedulingPolicy::HierarchicalSteal`], round-robin over loops (and
    /// therefore tenants) otherwise — and runs chunks until the loop is drained or shutdown
    /// is requested. Returns whether at least one chunk was executed (the worker then rescans
    /// the task sources before assisting again, preserving the priority order).
    fn assist_once(&self) -> bool {
        let prefer = matches!(self.shared.policy, SchedulingPolicy::HierarchicalSteal { .. })
            .then_some(self.domain);
        let Some(desc) = self.shared.assist.select(prefer) else {
            return false;
        };
        let mut ran = 0usize;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            let Some((chunk_start, chunk_end)) = desc.claim() else {
                break;
            };
            // Recorded *before* the chunk completes so the owner's quiescence wait
            // (`completed == claimed`) is guaranteed to observe the final per-loop assist
            // count when it returns.
            desc.note_assist_chunks(1);
            desc.run_chunk(chunk_start, chunk_end);
            ran += 1;
        }
        if ran == 0 {
            return false;
        }
        self.shared.stats.assist_chunks.fetch_add(ran, Ordering::Relaxed);
        PoolStats::bump(&self.shared.stats.assist_steals);
        if desc.mark_assisted() {
            PoolStats::bump(&self.shared.stats.assisted_loops);
        }
        true
    }

    fn run(&self, job: T) {
        PoolStats::bump(&self.shared.stats.executed);
        (self.executor)(job, self);
    }

    /// Looks for work only this worker can see first: the successor slot (if
    /// `use_successor_slot`), then the local deque.
    fn find_local(&self, use_successor_slot: bool) -> Option<T> {
        if use_successor_slot {
            if let Some(job) = self.successor_slot.take() {
                PoolStats::bump(&self.shared.stats.from_successor_slot);
                return Some(job);
            }
        }
        let job = self.deque.pop()?;
        PoolStats::bump(&self.shared.stats.from_local);
        Some(job)
    }

    /// Looks for shared work: the fair-share tenant queues, the injector, then steals in the
    /// policy's victim order.
    fn find_global(&self) -> Option<T> {
        // Fair-share: the tenant rotation outranks the untagged injector, and each visit takes
        // exactly one job — that *is* the round-robin. Counted as an injector acquisition (it
        // is the policy's global queue).
        if self.shared.policy == SchedulingPolicy::FairShare {
            if let Some(job) = self.shared.fair_pop() {
                PoolStats::bump(&self.shared.stats.from_injector);
                return Some(job);
            }
        }
        // Retry loop around the lock-free structures that can return `Steal::Retry`.
        loop {
            let mut retry = false;
            // Fifo takes single jobs in strict submission order (breadth-first by
            // construction), fair-share one at a time to keep the rotation authoritative;
            // every other policy batch-refills its deque from the injector.
            let taken = if matches!(
                self.shared.policy,
                SchedulingPolicy::Fifo | SchedulingPolicy::FairShare
            ) {
                self.shared.injector.steal()
            } else {
                self.shared.injector.steal_batch_and_pop(self.deque)
            };
            match taken {
                Steal::Success(job) => {
                    PoolStats::bump(&self.shared.stats.from_injector);
                    return Some(job);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            if let Some(job) = self.try_steal(&mut retry) {
                return Some(job);
            }
            if !retry {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// One pass over the steal victims in the policy's order. Under Fifo all deques are empty
    /// by construction, so the pass is skipped entirely.
    fn try_steal(&self, retry: &mut bool) -> Option<T> {
        let victims = self.shared.stealers.len();
        if victims <= 1 || self.shared.policy == SchedulingPolicy::Fifo {
            return None;
        }
        if let SchedulingPolicy::HierarchicalSteal { .. } = self.shared.policy {
            // Nearest first: single-job steals inside the domain (fine-grained, keeps the
            // victim's backlog — and its locality — mostly intact) ...
            let size = self.shared.policy.domain_size(victims);
            let first = self.domain * size;
            let len = size.min(victims - first);
            let start = self.rng.borrow_mut().gen_range(0..len.max(1));
            for offset in 0..len {
                let victim = first + (start + offset) % len;
                if victim == self.index {
                    continue;
                }
                match self.shared.stealers[victim].steal() {
                    Steal::Success(job) => {
                        PoolStats::bump(&self.shared.stats.stolen);
                        PoolStats::bump(&self.shared.stats.stolen_same_domain);
                        return Some(job);
                    }
                    Steal::Retry => *retry = true,
                    Steal::Empty => {}
                }
            }
            // ... then batch migration across domains (amortise the cross-domain traffic by
            // moving a chunk of the victim's backlog over in one steal).
            return self.batch_steal_pass(
                retry,
                |victim| self.shared.policy.domain_of(victim, victims) == self.domain,
                &self.shared.stats.stolen_cross_domain,
            );
        }
        // Single-domain policies: batch-steal from a random victim, then scan the rest.
        self.batch_steal_pass(retry, |victim| victim == self.index, &self.shared.stats.stolen_same_domain)
    }

    /// One randomized batch-steal sweep over all victims, skipping those `skip` rejects;
    /// `counter` is the same/cross-domain sub-counter the successful steal is attributed to.
    fn batch_steal_pass(
        &self,
        retry: &mut bool,
        skip: impl Fn(usize) -> bool,
        counter: &AtomicUsize,
    ) -> Option<T> {
        let victims = self.shared.stealers.len();
        let start = self.rng.borrow_mut().gen_range(0..victims);
        for offset in 0..victims {
            let victim = (start + offset) % victims;
            if skip(victim) {
                continue;
            }
            match self.shared.stealers[victim].steal_batch_and_pop(self.deque) {
                Steal::Success(job) => {
                    PoolStats::bump(&self.shared.stats.stolen);
                    PoolStats::bump(counter);
                    return Some(job);
                }
                Steal::Retry => *retry = true,
                Steal::Empty => {}
            }
        }
        None
    }
}

fn worker_main<T: Send + 'static>(
    index: usize,
    deque: Deque<T>,
    shared: Arc<Shared<T>>,
    executor: Arc<Executor<T>>,
    idle: Arc<IdleHook<T>>,
) {
    let successor_slot = Cell::new(None);
    let successor_tenant = Cell::new(None);
    let rng = RefCell::new(SmallRng::seed_from_u64(0x9E3779B97F4A7C15 ^ index as u64));
    let ctx = WorkerContext {
        shared: &shared,
        executor: executor.as_ref(),
        idle: idle.as_ref(),
        deque: &deque,
        successor_slot: &successor_slot,
        successor_tenant: &successor_tenant,
        rng: &rng,
        index,
        domain: shared.policy.domain_of(index, shared.workers),
    };

    loop {
        // Stop taking work the moment shutdown is observed (checked *before* scanning, so
        // undelivered jobs are dropped, not executed — see `ThreadPool::shutdown`).
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Record the sleep epoch *before* scanning, so a submission racing with the scan is
        // guaranteed to be observed either by the scan or by the epoch check before sleeping.
        // Publishing a loop bumps the same epoch, so the scan → assist → sleep sequence can
        // never sleep through a loop published while it ran.
        let epoch = shared.sleep.current_epoch();
        // Idle-path priority order: successor slot → local (`find_local`) → the **idle hook**
        // (the runtime drains its own retire batch, then takes over another worker's
        // published one) → injector → steal (`find_global`), all inside `help_one` →
        // **assist** an in-progress loop → sleep. The epoch was read before the hook, so work
        // announced through `announce_deferred` after the hook's scan prevents the sleep.
        if ctx.help_one() {
            continue;
        }
        if ctx.assist_once() {
            continue;
        }
        PoolStats::bump(&shared.stats.sleeps);
        shared.sleep.sleep(ctx.domain, epoch, || shared.shutdown.load(Ordering::SeqCst));
    }
    // Shutdown drain: run the destructors of every job stranded in this worker's private
    // structures (successor slot + deque) before the thread exits, so `shutdown`'s join
    // returns only after they ran. Nobody can re-fill them: only the owner pushes to either.
    drop(successor_slot.take());
    while deque.pop().is_some() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn wait_for(pred: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < timeout {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        pred()
    }

    #[test]
    fn executes_submitted_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool: ThreadPool<usize> = ThreadPool::new(4, move |job, _ctx| {
            c.fetch_add(job, Ordering::SeqCst);
        });
        for i in 0..100 {
            pool.submit(i);
        }
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == (0..100).sum(), Duration::from_secs(5)));
    }

    /// Counter identity: every executed job was acquired from exactly one source
    /// (`executed == slot + local + injector + stolen`) and every steal is classified by
    /// domain. Sound only at quiescence (`executed` is bumped before the source counter), so
    /// the assertion runs after `shutdown` joins the workers — the same checkpoint where the
    /// pool's own `debug_assert`s fire.
    #[test]
    fn execution_source_accounting_identity() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let mut pool: ThreadPool<usize> = ThreadPool::new(4, move |_job, _ctx| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..500 {
            pool.submit(i);
        }
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == 500, Duration::from_secs(5)));
        pool.shutdown();
        let stats = pool.stats();
        let executed = stats.executed.load(Ordering::Relaxed);
        assert_eq!(executed, 500);
        let sourced = stats.from_successor_slot.load(Ordering::Relaxed)
            + stats.from_local.load(Ordering::Relaxed)
            + stats.from_injector.load(Ordering::Relaxed)
            + stats.stolen.load(Ordering::Relaxed);
        assert_eq!(executed, sourced, "each job comes from exactly one source");
        assert_eq!(
            stats.stolen.load(Ordering::Relaxed),
            stats.stolen_same_domain.load(Ordering::Relaxed)
                + stats.stolen_cross_domain.load(Ordering::Relaxed),
            "each steal is same-domain or cross-domain"
        );
    }

    #[test]
    fn follow_up_jobs_from_executor_run() {
        // Each job spawns two children until depth 0; count total executions = 2^(d+1)-1.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool: ThreadPool<u32> = ThreadPool::new(4, move |depth, ctx| {
            c.fetch_add(1, Ordering::SeqCst);
            if depth > 0 {
                ctx.push_local(depth - 1);
                ctx.push_global(depth - 1);
            }
        });
        pool.submit(10);
        let expected = (1usize << 11) - 1;
        assert!(wait_for(
            || counter.load(Ordering::SeqCst) == expected,
            Duration::from_secs(10)
        ));
    }

    #[test]
    fn schedule_next_runs_on_same_worker() {
        // The follow-up job scheduled via schedule_next must execute on the same worker index.
        let ok = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let ok_c = Arc::clone(&ok);
        let done_c = Arc::clone(&done);
        let pool: ThreadPool<(u32, usize)> = ThreadPool::new(4, move |(step, origin), ctx| {
            if step == 0 {
                ctx.schedule_next((1, ctx.index()));
            } else {
                if ctx.index() == origin {
                    ok_c.fetch_add(1, Ordering::SeqCst);
                }
                done_c.fetch_add(1, Ordering::SeqCst);
            }
        });
        for _ in 0..64 {
            pool.submit((0, usize::MAX));
        }
        assert!(wait_for(|| done.load(Ordering::SeqCst) == 64, Duration::from_secs(5)));
        assert_eq!(ok.load(Ordering::SeqCst), 64, "successor jobs must stay on the releasing worker");
    }

    #[test]
    fn help_one_executes_queued_work() {
        // A job that blocks until a side job (queued behind it) has run, by helping.
        let side_done = Arc::new(AtomicUsize::new(0));
        let all_done = Arc::new(AtomicUsize::new(0));
        let side_c = Arc::clone(&side_done);
        let all_c = Arc::clone(&all_done);
        // Single worker: without help_one this would deadlock.
        let pool: ThreadPool<u8> = ThreadPool::new(1, move |job, ctx| {
            match job {
                0 => {
                    ctx.push_local(1);
                    while side_c.load(Ordering::SeqCst) == 0 {
                        assert!(ctx.help_one(), "the helper must find the queued job");
                    }
                }
                _ => {
                    side_c.fetch_add(1, Ordering::SeqCst);
                }
            }
            all_c.fetch_add(1, Ordering::SeqCst);
        });
        pool.submit(0);
        assert!(wait_for(|| all_done.load(Ordering::SeqCst) == 2, Duration::from_secs(5)));
    }

    #[test]
    fn stats_are_populated() {
        let pool: ThreadPool<usize> = ThreadPool::new(2, |_job, _ctx| {});
        for i in 0..50 {
            pool.submit(i);
        }
        assert!(wait_for(
            || pool.stats().executed_jobs() == 50,
            Duration::from_secs(5)
        ));
        let stats = pool.stats();
        assert_eq!(stats.executed.load(Ordering::Relaxed), 50);
        assert!(
            stats.from_injector.load(Ordering::Relaxed) + stats.from_local.load(Ordering::Relaxed)
                + stats.stolen.load(Ordering::Relaxed)
                >= 50
        );
    }

    /// The accounting identity behind `RuntimeStats`: every executed job was acquired from
    /// exactly one of the four sources, under every policy.
    #[test]
    fn stats_accounting_identity_holds_for_every_policy() {
        for policy in SchedulingPolicy::all() {
            let pool: ThreadPool<u32> = ThreadPool::with_policy(3, policy, |depth, ctx| {
                if depth > 0 {
                    ctx.schedule_next(depth - 1);
                    ctx.push_local(depth - 1);
                }
            });
            pool.submit_batch((0..32).map(|_| 4u32));
            let expected = 32 * ((1usize << 5) - 1);
            assert!(
                wait_for(|| pool.stats().executed_jobs() == expected, Duration::from_secs(10)),
                "policy {}: executed {} of {expected}",
                policy.name(),
                pool.stats().executed_jobs()
            );
            let s = pool.stats();
            let acquired = s.from_successor_slot.load(Ordering::Relaxed)
                + s.from_local.load(Ordering::Relaxed)
                + s.from_injector.load(Ordering::Relaxed)
                + s.stolen.load(Ordering::Relaxed);
            assert_eq!(acquired, expected, "policy {}", policy.name());
            assert_eq!(
                s.stolen.load(Ordering::Relaxed),
                s.stolen_same_domain.load(Ordering::Relaxed)
                    + s.stolen_cross_domain.load(Ordering::Relaxed),
                "policy {}: steals must split into same- and cross-domain",
                policy.name()
            );
            if !policy.uses_successor_slot() {
                assert_eq!(
                    s.from_successor_slot.load(Ordering::Relaxed),
                    0,
                    "policy {} must never use the successor slot",
                    policy.name()
                );
            }
        }
    }

    /// Regression test for the §VIII-A demotion order (ISSUE 5 satellite): a job displaced
    /// from the successor slot must execute directly after its displacer — *before* the rest
    /// of the displacing wave — not buried below it.
    #[test]
    fn displaced_successor_outranks_the_displacing_wave() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let pool: ThreadPool<usize> = ThreadPool::new(1, move |job, ctx| {
            o.lock().push(job);
            if job == 0 {
                // First wave: 1 takes the slot, 2 and 3 go to the deque.
                ctx.dispatch_ready(vec![1, 2, 3], true);
                // Second wave displaces 1: priority must become 4 (slot), 1 (displaced),
                // then the wave 6, 5 (LIFO), then the older wave 3, 2.
                ctx.dispatch_ready(vec![4, 5, 6], true);
            }
        });
        pool.submit(0);
        assert!(wait_for(|| order.lock().len() == 7, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![0, 4, 1, 6, 5, 3, 2]);
        assert_eq!(pool.stats().successor_displacements.load(Ordering::Relaxed), 1);
    }

    /// Satellite: every undelivered job's destructor runs before `drop` returns — deque,
    /// successor slot and injector occupancy all covered (main-thread shutdown).
    #[test]
    fn shutdown_drops_jobs_in_deque_slot_and_injector() {
        struct Job {
            id: usize,
            dropped: Arc<AtomicUsize>,
        }
        impl Drop for Job {
            fn drop(&mut self) {
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let executed = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));
        let job = |id: usize| Job { id, dropped: Arc::clone(&dropped) };

        let (e, r, p, d) = (
            Arc::clone(&executed),
            Arc::clone(&ready),
            Arc::clone(&proceed),
            Arc::clone(&dropped),
        );
        let mut pool: ThreadPool<Job> = ThreadPool::new(1, move |incoming: Job, ctx| {
            e.fetch_add(1, Ordering::SeqCst);
            if incoming.id == 0 {
                // Occupy the slot and the deque while the worker is pinned inside this job.
                ctx.schedule_next(Job { id: 1, dropped: Arc::clone(&d) });
                ctx.push_local(Job { id: 2, dropped: Arc::clone(&d) });
                ctx.push_local(Job { id: 3, dropped: Arc::clone(&d) });
                r.store(true, Ordering::SeqCst);
                while !p.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        pool.submit(job(0));
        assert!(wait_for(|| ready.load(Ordering::SeqCst), Duration::from_secs(5)));
        // Two more stranded in the injector (the single worker is busy inside job 0).
        pool.submit(job(4));
        pool.submit(job(5));
        let unblocker = {
            let p = Arc::clone(&proceed);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                p.store(true, Ordering::SeqCst);
            })
        };
        // shutdown() sets the flag, then the worker finishes job 0, observes the flag before
        // scanning again, and drains its slot + deque (destructors run) before being joined.
        pool.shutdown();
        unblocker.join().unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 1, "only job 0 may execute");
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            4,
            "job 0 + slot + two deque jobs must be dropped once the workers are joined"
        );
        drop(pool);
        assert_eq!(dropped.load(Ordering::SeqCst), 6, "drop must drain the injector too");
    }

    /// The documented exception: a pool shut down *from a worker thread* cannot join that
    /// worker, so jobs stranded in its private deque/slot outlive `drop` (they are still
    /// dropped when the detached thread exits).
    #[test]
    fn self_shutdown_worker_drains_after_drop() {
        struct Job {
            shutdown_here: bool,
            dropped: Arc<AtomicUsize>,
        }
        impl Drop for Job {
            fn drop(&mut self) {
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let pool: Arc<parking_lot::Mutex<Option<ThreadPool<Job>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let pool_ref = Arc::clone(&pool);
        let d = Arc::clone(&dropped);
        let created: ThreadPool<Job> = ThreadPool::new(1, move |incoming: Job, ctx| {
            if incoming.shutdown_here {
                // Strand one job in the deque, then drop the pool from this worker thread.
                ctx.push_local(Job { shutdown_here: false, dropped: Arc::clone(&d) });
                let taken = pool_ref.lock().take();
                drop(taken);
            }
        });
        *pool.lock() = Some(created);
        pool.lock()
            .as_ref()
            .unwrap()
            .submit(Job { shutdown_here: true, dropped: Arc::clone(&dropped) });
        // The detached worker exits on its own and drains its deque; the stranded job's
        // destructor runs then (after `drop(taken)` returned inside the executor).
        assert!(
            wait_for(|| dropped.load(Ordering::SeqCst) == 2, Duration::from_secs(5)),
            "the self-shutdown worker must still drain its deque on exit"
        );
    }

    /// Fifo is strictly breadth-first: a single worker executes jobs in submission order, and
    /// never touches the slot or its deque.
    #[test]
    fn fifo_policy_preserves_submission_order() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let pool: ThreadPool<usize> =
            ThreadPool::with_policy(1, SchedulingPolicy::Fifo, move |job, ctx| {
                o.lock().push(job);
                if job == 0 {
                    // Even "locality" requests degrade to the injector under Fifo.
                    ctx.schedule_next(100);
                    ctx.dispatch_spawned(101);
                }
            });
        // One batch: all ten enter the injector atomically, so the follow-ups the first job
        // pushes are guaranteed to queue behind them (plain per-job submits could race the
        // worker and interleave 100/101 into the middle).
        pool.submit_batch(0..10);
        assert!(wait_for(|| order.lock().len() == 12, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101]);
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot.load(Ordering::Relaxed), 0);
        assert_eq!(stats.from_local.load(Ordering::Relaxed), 0);
        assert_eq!(stats.stolen.load(Ordering::Relaxed), 0);
        assert_eq!(stats.from_injector.load(Ordering::Relaxed), 12);
    }

    /// Fair-share round-robins across tenant queues: one job per tenant per turn, regardless
    /// of how many jobs the heavy tenant has queued ahead of the light one.
    #[test]
    fn fair_share_round_robins_across_tenants() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));
        let (o, r, p) = (Arc::clone(&order), Arc::clone(&ready), Arc::clone(&proceed));
        let pool: ThreadPool<usize> =
            ThreadPool::with_policy(1, SchedulingPolicy::FairShare, move |job, _ctx| {
                if job == 0 {
                    // Pin the single worker so the tenant queues fill while it is busy.
                    r.store(true, Ordering::SeqCst);
                    while !p.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return;
                }
                o.lock().push(job);
            });
        pool.submit(0);
        assert!(wait_for(|| ready.load(Ordering::SeqCst), Duration::from_secs(5)));
        // Heavy tenant 1 queues three jobs before light tenant 2 queues two.
        pool.submit_batch_tenant(1, [10, 11, 12]);
        pool.submit_tenant(2, 20);
        pool.submit_tenant(2, 21);
        proceed.store(true, Ordering::SeqCst);
        assert!(wait_for(|| order.lock().len() == 5, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![10, 20, 11, 21, 12]);
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot.load(Ordering::Relaxed), 0);
        assert_eq!(stats.from_local.load(Ordering::Relaxed), 0);
        assert_eq!(
            stats.from_injector.load(Ordering::Relaxed),
            6,
            "job 0 from the injector plus five round-robin pops"
        );
    }

    /// Regression test for the ISSUE 10 fair-share follow-up: the per-tenant queues used to
    /// bypass the successor slot, so a hot successor was buried behind the round-robin
    /// rotation. `dispatch_ready_tenant` now routes the successor through the slot, and a
    /// displaced slot occupant rejoins the *front* of its own tenant's queue — below its
    /// displacer, above that tenant's colder queued work, without jumping another tenant's
    /// turn.
    #[test]
    fn fair_share_successor_takes_the_slot() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));
        let (o, r, p) = (Arc::clone(&order), Arc::clone(&ready), Arc::clone(&proceed));
        let pool: ThreadPool<usize> =
            ThreadPool::with_policy(1, SchedulingPolicy::FairShare, move |job, ctx| {
                o.lock().push(job);
                if job == 0 {
                    // Pin the single worker so tenant 9's jobs queue up behind this body.
                    r.store(true, Ordering::SeqCst);
                    while !p.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // First wave of tenant 1: 1 takes the slot, 2 and 3 join the queue.
                    ctx.dispatch_ready_tenant(1, vec![1, 2, 3], true);
                    // Second wave displaces 1 from the slot: it must come back at the front
                    // of tenant 1's queue — after the displacer 4 and tenant 9's turn, but
                    // before tenant 1's colder jobs 2, 3 and the new wave 5, 6.
                    ctx.dispatch_ready_tenant(1, vec![4, 5, 6], true);
                }
            });
        pool.submit(0);
        assert!(wait_for(|| ready.load(Ordering::SeqCst), Duration::from_secs(5)));
        pool.submit_tenant(9, 90);
        pool.submit_tenant(9, 91);
        proceed.store(true, Ordering::SeqCst);
        assert!(wait_for(|| order.lock().len() == 9, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![0, 4, 90, 1, 91, 2, 3, 5, 6]);
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot.load(Ordering::Relaxed), 1, "4 came from the slot");
        assert_eq!(stats.successor_displacements.load(Ordering::Relaxed), 1);
    }

    /// An idle worker assists a published loop: the pool-level round trip of
    /// publish → recruit → claim-by-atomic-cursor → retire, with the assist counters
    /// satisfying their identity (`assisted_loops <= assist_steals <= assist_chunks`).
    #[test]
    fn idle_workers_assist_published_loops() {
        let covered = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&covered);
        let pool: ThreadPool<u8> = ThreadPool::new(2, move |_job, ctx| {
            let sum = Arc::clone(&c);
            let desc = Arc::new(LoopDescriptor::new(
                0..256,
                4,
                1,
                ctx.domain(),
                move |_d, s, e| {
                    sum.fetch_add(e - s, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                },
                || false,
            ));
            ctx.publish_loop(Arc::clone(&desc));
            // Drive one chunk, then hold until the idle worker has joined in, so the test
            // deterministically exercises the assist path (it is woken by publish_loop and
            // finds no stealable task — the loop is all there is).
            if let Some((s, e)) = desc.claim() {
                desc.run_chunk(s, e);
            }
            while desc.assist_chunk_count() == 0 && !desc.exhausted() {
                std::thread::yield_now();
            }
            desc.drive();
            desc.wait_quiescent();
            ctx.retire_loop(&desc);
            assert!(desc.assist_chunk_count() > 0, "the idle worker must have assisted");
        });
        pool.submit(0);
        assert!(wait_for(|| covered.load(Ordering::SeqCst) == 256, Duration::from_secs(10)));
        // The last chunk body sets `covered`, but the owner retires the loop only after
        // `drive` and `wait_quiescent` return, and the assisting worker bumps the pool's assist
        // counters only after its claim loop ends (`assisted_loops` last): wait for each of
        // those later side effects instead of asserting them right after `covered`.
        assert!(
            wait_for(|| pool.active_loops() == 0, Duration::from_secs(10)),
            "retire removes the loop"
        );
        assert!(
            wait_for(
                || pool.stats().assisted_loops.load(Ordering::Relaxed) == 1,
                Duration::from_secs(10)
            ),
            "the assisted loop is counted once its assisting worker leaves it"
        );
        let stats = pool.stats();
        let chunks = stats.assist_chunks.load(Ordering::Relaxed);
        let steals = stats.assist_steals.load(Ordering::Relaxed);
        let loops = stats.assisted_loops.load(Ordering::Relaxed);
        assert!(chunks > 0, "assist chunks were executed");
        assert!(loops <= steals && steals <= chunks, "assist counter identity");
        assert_eq!(loops, 1);
    }

    /// `help_one` runs the idle hook once the worker's own slot and deque are empty — before
    /// the injector — and counts the hook's progress as help; with local work it does not.
    #[test]
    fn help_one_runs_the_idle_hook_before_global_work() {
        let deferred = Arc::new(AtomicUsize::new(0));
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (d, l) = (Arc::clone(&deferred), Arc::clone(&log));
        let (d2, l2) = (Arc::clone(&deferred), Arc::clone(&log));
        let pool: ThreadPool<u8> = ThreadPool::with_idle_hook(
            1,
            SchedulingPolicy::LocalitySlot,
            move |job, ctx| {
                l.lock().push(format!("job {job}"));
                if job == 0 {
                    ctx.push_local(1);
                    d.store(1, Ordering::SeqCst);
                    ctx.push_global(2);
                    assert!(ctx.has_local_work());
                    assert!(ctx.help_one(), "runs the local job");
                    assert!(!ctx.has_local_work());
                    assert!(ctx.help_one(), "drains the deferred work");
                    assert!(ctx.help_one(), "runs the injector job");
                    assert!(!ctx.help_one(), "nothing is left");
                }
            },
            move |_ctx| {
                let drained = d2.swap(0, Ordering::SeqCst) == 1;
                if drained {
                    l2.lock().push("hook".to_string());
                }
                drained
            },
        );
        pool.submit(0);
        assert!(wait_for(|| log.lock().len() == 4, Duration::from_secs(5)));
        assert_eq!(*log.lock(), ["job 0", "job 1", "hook", "job 2"]);
    }

    /// The idle path runs the hook before it steals or sleeps, and the worker rescans after
    /// hook progress: a job the hook publishes is picked up without any wake-up.
    #[test]
    fn idle_path_runs_the_hook_before_sleeping() {
        let deferred = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let (d, c) = (Arc::clone(&deferred), Arc::clone(&done));
        let d2 = Arc::clone(&deferred);
        let pool: ThreadPool<u8> = ThreadPool::with_idle_hook(
            1,
            SchedulingPolicy::LocalitySlot,
            move |job, _ctx| {
                if job == 0 {
                    // Deferred work the worker must finish on its idle path.
                    d.store(1, Ordering::SeqCst);
                } else {
                    c.fetch_add(1, Ordering::SeqCst);
                }
            },
            move |ctx| {
                if d2.swap(0, Ordering::SeqCst) == 0 {
                    return false;
                }
                // Like a retire batch releasing a successor into the slot (no notify).
                ctx.schedule_next(7);
                true
            },
        );
        pool.submit(0);
        assert!(wait_for(|| done.load(Ordering::SeqCst) == 1, Duration::from_secs(5)));
    }

    /// `announce_deferred` reports a parked worker, and its epoch bump keeps a worker that
    /// already scanned from parking.
    #[test]
    fn announce_deferred_reports_parked_workers() {
        let answers = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let a = Arc::clone(&answers);
        let pool: ThreadPool<u8> = ThreadPool::new(2, move |_job, ctx| {
            // The other worker has nothing to do, so it parks.
            while !ctx.any_parked() {
                std::thread::yield_now();
            }
            a.lock().push(ctx.announce_deferred());
        });
        pool.submit(0);
        assert!(wait_for(|| answers.lock().len() == 1, Duration::from_secs(5)));
        assert_eq!(*answers.lock(), [true]);
    }

    /// Under a non-fair-share policy the tenant-tagged entry points are transparent aliases
    /// of the untagged ones.
    #[test]
    fn tenant_api_degrades_to_untagged_under_other_policies() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool: ThreadPool<usize> = ThreadPool::new(2, move |_job, _ctx| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.submit_tenant(7, 1);
        pool.submit_batch_tenant(8, [2, 3, 4]);
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == 4, Duration::from_secs(5)));
    }

    /// DepthFirst follows chains through the deque (LIFO) without ever using the slot.
    #[test]
    fn depth_first_policy_bypasses_the_slot() {
        let done = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&done);
        let pool: ThreadPool<u32> =
            ThreadPool::with_policy(1, SchedulingPolicy::DepthFirst, move |depth, ctx| {
                c.fetch_add(1, Ordering::SeqCst);
                if depth > 0 {
                    ctx.dispatch_ready(vec![depth - 1], true);
                }
            });
        pool.submit(16);
        assert!(wait_for(|| done.load(Ordering::SeqCst) == 17, Duration::from_secs(5)));
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot.load(Ordering::Relaxed), 0);
        assert_eq!(stats.from_local.load(Ordering::Relaxed), 16);
    }

    /// Hierarchical stealing keeps the counters consistent and executes everything; domain
    /// arithmetic is pinned separately (which domain wins a steal is timing-dependent).
    #[test]
    fn hierarchical_policy_executes_and_splits_steal_counters() {
        let policy = SchedulingPolicy::HierarchicalSteal { domain_size: 2 };
        assert_eq!(policy.domain_count(4), 2);
        assert_eq!(policy.domain_of(0, 4), 0);
        assert_eq!(policy.domain_of(1, 4), 0);
        assert_eq!(policy.domain_of(2, 4), 1);
        assert_eq!(policy.domain_of(3, 4), 1);

        let done = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&done);
        let pool: ThreadPool<u32> = ThreadPool::with_policy(4, policy, move |fanout, ctx| {
            c.fetch_add(1, Ordering::SeqCst);
            if fanout > 0 {
                // Pile work on the producing worker's deque so the others must steal.
                for _ in 0..8 {
                    ctx.push_local(fanout - 1);
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        });
        pool.submit(2);
        let expected = 1 + 8 + 64;
        assert!(wait_for(|| done.load(Ordering::SeqCst) == expected, Duration::from_secs(10)));
        let s = pool.stats();
        assert_eq!(
            s.stolen.load(Ordering::Relaxed),
            s.stolen_same_domain.load(Ordering::Relaxed)
                + s.stolen_cross_domain.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in SchedulingPolicy::all() {
            assert_eq!(SchedulingPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(SchedulingPolicy::from_name("nope"), None);
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::LocalitySlot);
        // Degenerate domain sizes clamp instead of dividing by zero.
        let degenerate = SchedulingPolicy::HierarchicalSteal { domain_size: 0 };
        assert_eq!(degenerate.domain_size(4), 1);
        assert_eq!(SchedulingPolicy::hierarchical().domain_size(2), 2);
    }

    #[test]
    fn shutdown_with_idle_workers_terminates() {
        let mut pool: ThreadPool<usize> = ThreadPool::new(8, |_job, _ctx| {});
        std::thread::sleep(Duration::from_millis(20));
        pool.shutdown();
    }

    #[test]
    fn drop_without_explicit_shutdown_terminates() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        {
            let pool: ThreadPool<usize> = ThreadPool::new(3, move |_job, _ctx| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            for i in 0..10 {
                pool.submit(i);
            }
            assert!(wait_for(|| counter.load(Ordering::SeqCst) == 10, Duration::from_secs(5)));
        }
        // Pool dropped: all threads joined, no hang.
    }

    #[test]
    fn submit_batch_wakes_enough_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool: ThreadPool<usize> = ThreadPool::new(4, move |_job, _ctx| {
            std::thread::sleep(Duration::from_millis(1));
            c.fetch_add(1, Ordering::SeqCst);
        });
        // Let the workers fall asleep first.
        std::thread::sleep(Duration::from_millis(50));
        pool.submit_batch(0..200);
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == 200, Duration::from_secs(10)));
    }

    #[test]
    fn single_worker_pool_executes_every_job_exactly_once() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let pool: ThreadPool<usize> = ThreadPool::new(1, move |job, _ctx| {
            o.lock().push(job);
        });
        for i in 0..20 {
            pool.submit(i);
        }
        assert!(wait_for(|| order.lock().len() == 20, Duration::from_secs(5)));
        let got = order.lock().clone();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_concurrent_submissions() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool = Arc::new(ThreadPool::new(4, move |_job: usize, _ctx| {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000 {
                    pool.submit(t * 10_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == 20_000, Duration::from_secs(20)));
    }
}
