//! The traced run's view of the runtime: a [`RuntimeObserver`] that keeps task events in
//! memory, and deltas of the runtime's public counters.
//!
//! Everything here sits outside the program. The observer sees only what the public hook
//! hands it; the counters come from `Runtime::stats()`, `Runtime::capacity()` and the
//! counting allocator, which only the `perfbench-traced` binary installs.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use weakdep_core::{Runtime, RuntimeObserver, RuntimeStats, TaskExecution, TaskId, TaskInfo};

/// One executed task body.
struct Execution {
    id: TaskId,
    label: &'static str,
    start: Instant,
    end: Instant,
}

/// Records `task_created` times and `task_executed` spans.
#[derive(Default)]
pub struct Recorder {
    created: Mutex<Vec<(TaskId, Instant)>>,
    executed: Mutex<Vec<Execution>>,
}

impl RuntimeObserver for Recorder {
    fn task_created(&self, info: &TaskInfo<'_>) {
        let now = Instant::now();
        self.created
            .lock()
            .expect("recorder lock poisoned")
            .push((info.id, now));
    }

    fn task_executed(&self, e: &TaskExecution<'_>) {
        let record = Execution {
            id: e.id,
            label: e.label,
            start: e.start,
            end: e.end,
        };
        self.executed
            .lock()
            .expect("recorder lock poisoned")
            .push(record);
    }
}

/// Task events of one measured window, reduced to what the metrics need.
#[derive(Debug, Default)]
pub struct Window {
    /// Body time of every executed task.
    pub body: Duration,
    /// Body time of the tasks whose label marks them as leaves.
    pub leaf_body: Duration,
    /// For each task with a recorded creation, creation to body start, in µs.
    pub ready_wait_us: Vec<f64>,
}

impl Window {
    /// Adds another window's events to this one.
    pub fn absorb(&mut self, other: Window) {
        self.body += other.body;
        self.leaf_body += other.leaf_body;
        self.ready_wait_us.extend(other.ready_wait_us);
    }
}

impl Recorder {
    /// Takes the events recorded since the last call. Call it only when the tasks created in
    /// the window have all run, so every creation finds its execution.
    pub fn take(&self, leaf_labels: &[&str]) -> Window {
        let created = std::mem::take(&mut *self.created.lock().expect("recorder lock poisoned"));
        let executed = std::mem::take(&mut *self.executed.lock().expect("recorder lock poisoned"));
        let created: HashMap<TaskId, Instant> = created.into_iter().collect();
        let mut window = Window::default();
        for e in &executed {
            let body = e.end - e.start;
            window.body += body;
            if leaf_labels.contains(&e.label) {
                window.leaf_body += body;
            }
            // Job roots are submitted, not spawned, so they have no creation event.
            if let Some(&at) = created.get(&e.id) {
                window
                    .ready_wait_us
                    .push(e.start.saturating_duration_since(at).as_secs_f64() * 1e6);
            }
        }
        window
    }

    /// Drops the events recorded so far (warm-up, phases that are not analysed).
    pub fn discard(&self) {
        self.created.lock().expect("recorder lock poisoned").clear();
        self.executed
            .lock()
            .expect("recorder lock poisoned")
            .clear();
    }
}

/// Public counters at one instant, so a measured window can be reported as deltas.
pub struct Counters {
    stats: RuntimeStats,
    allocations: u64,
}

impl Counters {
    /// Reads the counters now.
    pub fn read(rt: &Runtime) -> Self {
        Counters {
            stats: rt.stats(),
            allocations: weakdep_bench::alloc_counter::allocations(),
        }
    }

    /// Counter growth from `self` to `later`.
    pub fn delta(&self, later: &Counters) -> Delta {
        let (a, b) = (&self.stats, &later.stats);
        let d = |x: usize, y: usize| (y - x) as f64;
        Delta {
            tasks_executed: d(a.tasks_executed, b.tasks_executed),
            tasks_registered: d(a.engine.tasks_registered, b.engine.tasks_registered),
            spawn_ns: (b.spawn_ns - a.spawn_ns) as f64,
            retire_ns: (b.retire_ns - a.retire_ns) as f64,
            allocations: (later.allocations - self.allocations) as f64,
            accesses: d(a.engine.accesses_registered, b.engine.accesses_registered),
            release_edges: d(a.engine.release_edges, b.engine.release_edges),
            satisfaction_edges: d(a.engine.satisfaction_edges, b.engine.satisfaction_edges),
            incremental_releases: d(a.engine.incremental_releases, b.engine.incremental_releases),
            ready_at_registration: d(
                a.engine.ready_at_registration,
                b.engine.ready_at_registration,
            ),
            exact_hits: d(a.engine.exact_hits, b.engine.exact_hits),
            promotions: d(a.engine.promotions, b.engine.promotions),
            fragmented_updates: d(a.engine.fragmented_updates, b.engine.fragmented_updates),
            demotions: d(a.engine.demotions, b.engine.demotions),
            slot_hits: d(a.successor_slot_hits, b.successor_slot_hits),
            steals: d(a.steals, b.steals),
            assist_chunks: d(a.assist_chunks, b.assist_chunks),
            assisted_loops: d(a.assisted_loops, b.assisted_loops),
            admission_blocked: d(a.admission.blocked, b.admission.blocked),
        }
    }
}

/// Growth of the public counters over a measured window.
#[derive(Debug)]
pub struct Delta {
    pub tasks_executed: f64,
    pub tasks_registered: f64,
    pub spawn_ns: f64,
    pub retire_ns: f64,
    pub allocations: f64,
    pub accesses: f64,
    pub release_edges: f64,
    pub satisfaction_edges: f64,
    pub incremental_releases: f64,
    pub ready_at_registration: f64,
    pub exact_hits: f64,
    pub promotions: f64,
    pub fragmented_updates: f64,
    pub demotions: f64,
    pub slot_hits: f64,
    pub steals: f64,
    pub assist_chunks: f64,
    pub assisted_loops: f64,
    pub admission_blocked: f64,
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Highest per-task slot counts seen while sampling `Runtime::capacity()`.
#[derive(Debug, Default)]
pub struct CapacityMax {
    pub task_table_slots: usize,
    pub pending_slots: usize,
}

impl CapacityMax {
    /// Folds in the runtime's current capacity.
    pub fn sample(&mut self, rt: &Runtime) {
        let c = rt.capacity();
        self.task_table_slots = self.task_table_slots.max(c.task_table_slots);
        self.pending_slots = self.pending_slots.max(c.pending_slots);
    }
}
