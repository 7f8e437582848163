//! Per-worker retire batches: finished tasks wait here, a few at a time, and are retired
//! together through one [`DependencyEngine::body_finished_batch`] call, so the engine applies
//! consecutive messages to the same domain under one lock acquisition per batch instead of one
//! per task.
//!
//! Each worker owns one slot. Only the owner parks tasks into it, but any worker may drain it:
//! the owner when a flush rule fires (see `docs/runtime.md`, "Batched retire"), and an idle
//! worker that *takes over* the batch on its idle path. A batch is therefore published work,
//! and the owner announces a batch that just became non-empty under the pool's sleep-epoch
//! protocol (`WorkerContext::announce_deferred`, model-checked in
//! `crates/threadpool/tests/loom_model.rs`).
//!
//! The slot lock is a **leaf**: only the batch is read or swapped under it. The engine calls
//! and the dispatch of the effects happen strictly after the batch has been moved out and the
//! lock released (`lint-locks` class `retire-batch`, docs/locking.md).
//!
//! [`DependencyEngine::body_finished_batch`]: crate::DependencyEngine::body_finished_batch

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::TaskId;
use crate::job::JobState;

/// Capacity of a worker's retire batch. A constant rather than a setting: 16 retires amortise
/// the shared domains' lock acquisitions well, while the wait a deferred retire can add stays
/// bounded by 16 short bodies (and idle workers take batches over in any case).
pub(crate) const RETIRE_BATCH: usize = 16;

/// Finished tasks of **one** job whose retirement is deferred (the engine's effects of a
/// retire are dispatched per job). Inline storage that is moved, never grown: parking and
/// draining allocate nothing.
pub(crate) struct Batch {
    job: Option<Arc<JobState>>,
    ids: [TaskId; RETIRE_BATCH],
    len: usize,
}

impl Batch {
    fn empty() -> Self {
        Batch { job: None, ids: [TaskId::synthetic(0); RETIRE_BATCH], len: 0 }
    }

    /// The job every task of the batch belongs to.
    pub(crate) fn job(&self) -> &Arc<JobState> {
        self.job.as_ref().expect("a drained batch holds at least one task")
    }

    /// The parked tasks, in the order they finished.
    pub(crate) fn ids(&self) -> &[TaskId] {
        &self.ids[..self.len]
    }
}

/// One worker's batch. `parked` mirrors `batch.len` so the idle path can skip an empty slot
/// with one atomic load instead of a lock; it is written only under the lock.
struct Slot {
    parked: AtomicUsize,
    batch: Mutex<Batch>,
}

/// The retire batches of every worker of one runtime.
pub(crate) struct RetireSlots {
    slots: Box<[Slot]>,
}

impl RetireSlots {
    pub(crate) fn new(workers: usize) -> Self {
        RetireSlots {
            slots: (0..workers.max(1))
                .map(|_| Slot { parked: AtomicUsize::new(0), batch: Mutex::new(Batch::empty()) })
                .collect(),
        }
    }

    /// Parks `id`, a finished task of `job`, in `worker`'s batch. A batch of another job
    /// cannot take it, so such a batch is moved out first and returned: the caller must drain
    /// it. Also returns how many tasks are parked now (1 means the batch just became
    /// non-empty, so the caller must announce it).
    pub(crate) fn park(
        &self,
        worker: usize,
        job: &Arc<JobState>,
        id: TaskId,
    ) -> (Option<Batch>, usize) {
        let slot = &self.slots[worker];
        let mut batch = slot.batch.lock();
        let evicted = match &batch.job {
            Some(current) if batch.len > 0 && !Arc::ptr_eq(current, job) => {
                Some(std::mem::replace(&mut *batch, Batch::empty()))
            }
            _ => None,
        };
        if batch.len == 0 {
            batch.job = Some(Arc::clone(job));
        }
        debug_assert!(batch.len < RETIRE_BATCH, "a full batch is drained before the next park");
        let len = batch.len;
        batch.ids[len] = id;
        batch.len = len + 1;
        slot.parked.store(len + 1, Ordering::Release);
        (evicted, len + 1)
    }

    /// Whether `worker` has tasks parked (a lock-free look at the length hint).
    pub(crate) fn has_parked(&self, worker: usize) -> bool {
        self.slots[worker].parked.load(Ordering::Acquire) > 0
    }

    /// Whether any worker has tasks parked (a lock-free look at every length hint).
    pub(crate) fn any_parked(&self) -> bool {
        (0..self.slots.len()).any(|worker| self.has_parked(worker))
    }

    /// Moves `worker`'s whole batch out, leaving the slot empty; `None` if nothing is parked.
    pub(crate) fn take(&self, worker: usize) -> Option<Batch> {
        if !self.has_parked(worker) {
            return None;
        }
        let slot = &self.slots[worker];
        let mut batch = slot.batch.lock();
        if batch.len == 0 {
            return None;
        }
        slot.parked.store(0, Ordering::Release);
        Some(std::mem::replace(&mut *batch, Batch::empty()))
    }

    /// Takes over the first non-empty batch of a worker other than `thief`, scanning from
    /// the thief's right-hand neighbour.
    pub(crate) fn take_other(&self, thief: usize) -> Option<Batch> {
        let n = self.slots.len();
        (1..n).find_map(|offset| self.take((thief + offset) % n))
    }
}
