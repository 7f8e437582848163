//! Model checks of the completion gate (`src/completion.rs`) under loom-lite.
//!
//! Run with `cargo test -p weakdep_core --features loom-model --test loom_completion`.
//! Under the `loom-model` feature the gate's `Mutex`/`Condvar`/atomics are loom-lite shims,
//! so these tests explore every bounded interleaving of the shipped gate code. The engine-side
//! predicates (`is_deeply_completed`, `live_children`, the worker's queue scan) are modelled
//! as atomics — the protocol under test is the gate, not the engine.

#![cfg(feature = "loom-model")]

use loom_lite::sync::atomic::{AtomicUsize, Ordering};
use loom_lite::{thread, Checker};
use std::sync::Arc;
use weakdep_core::completion::CompletionGate;

/// `Runtime::run` vs task retirement: the root-completion notify must never be lost, whichever
/// way it interleaves with the waiter's register-then-check-then-wait.
#[test]
fn root_completion_wake_is_never_lost() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let gate = Arc::new(CompletionGate::new());
        let done = Arc::new(AtomicUsize::new(0));
        let (g2, d2) = (Arc::clone(&gate), Arc::clone(&done));
        // The finishing task: flip the predicate, then fire the gated notify — the order
        // `schedule_effects` uses.
        let finisher = thread::spawn(move || {
            d2.store(1, Ordering::SeqCst);
            g2.notify(true, false);
        });
        // The `run` caller.
        gate.wait_until(|| done.load(Ordering::SeqCst) == 1);
        finisher.join().unwrap();
    });
    report.assert_ok();
    assert!(report.exhausted, "root-completion model should be exhaustible");
}

/// The `taskwait` loop of a non-worker waiter: one child finishing must unblock it.
#[test]
fn taskwait_child_drain_wakes_nonworker() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let gate = Arc::new(CompletionGate::new());
        let children = Arc::new(AtomicUsize::new(1));
        let (g2, c2) = (Arc::clone(&gate), Arc::clone(&children));
        let child = thread::spawn(move || {
            c2.store(0, Ordering::SeqCst);
            g2.notify(true, false);
        });
        // Non-worker taskwait: no queue scan, no epoch.
        loop {
            if children.load(Ordering::SeqCst) == 0 {
                break;
            }
            let epoch = gate.recruit_epoch();
            gate.wait_once(false, epoch, || children.load(Ordering::SeqCst) != 0);
        }
        child.join().unwrap();
    });
    report.assert_ok();
}

/// Work recruitment: a dispatch racing a worker `taskwait`er's queue scan must not strand the
/// ready task. This is exactly the race the recruitment epoch exists for — with the epoch
/// re-check under the mutex removed (see `epoch_recheck_is_load_bearing`), the dispatch can
/// miss both the scan and the helper gate and the worker sleeps forever.
#[test]
fn recruitment_never_strands_ready_work() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let gate = Arc::new(CompletionGate::new());
        // One unfinished child; it is dispatched as ready work by the producer and executed
        // by the waiting worker itself (the single-worker scenario from the PR 3 bug).
        let children = Arc::new(AtomicUsize::new(1));
        let queue = Arc::new(AtomicUsize::new(0));
        let (g2, q2) = (Arc::clone(&gate), Arc::clone(&queue));
        let producer = thread::spawn(move || {
            // `schedule_effects`: push, then publish, then gated notify.
            q2.fetch_add(1, Ordering::SeqCst);
            g2.publish_dispatch();
            g2.notify(false, true);
        });
        // Worker taskwait: scan the queue (help_one), else sleep against the pre-scan epoch.
        loop {
            if children.load(Ordering::SeqCst) == 0 {
                break;
            }
            let epoch = gate.recruit_epoch();
            if queue.load(Ordering::SeqCst) > 0 {
                // help_one: execute the child task; its retirement flips the predicate.
                queue.fetch_sub(1, Ordering::SeqCst);
                children.fetch_sub(1, Ordering::SeqCst);
                gate.notify(true, false);
                continue;
            }
            gate.wait_once(true, epoch, || children.load(Ordering::SeqCst) != 0);
        }
        producer.join().unwrap();
    });
    report.assert_ok();
    assert!(report.exhausted, "recruitment model should be exhaustible");
}

/// A worker's deferred retire batch against a `taskwait` helper, the recruitment half of the
/// publish-vs-park protocol (`worker_parked` in `runtime.rs`). The batch holds the helper's
/// only child. The owner parks it and announces it — recruitment epoch bump, then the helper
/// count — and drains it itself only if it saw a helper (otherwise it defers behind a body
/// that, in this model, never ends). The helper runs the `taskwait` loop, whose `help_one`
/// takes the batch over. With `bump` off (the seeded mutation) the helper can register after
/// the owner looked and sleep on an unchanged epoch: a deadlock.
fn deferred_batch_vs_helper(bump: bool) {
    let gate = Arc::new(CompletionGate::new());
    let children = Arc::new(AtomicUsize::new(1));
    let batch = Arc::new(AtomicUsize::new(0));
    let (g2, c2, b2) = (Arc::clone(&gate), Arc::clone(&children), Arc::clone(&batch));
    let owner = thread::spawn(move || {
        b2.fetch_add(1, Ordering::SeqCst);
        if bump {
            g2.publish_dispatch();
        }
        if g2.recruitment().helpers() > 0 && b2.swap(0, Ordering::SeqCst) > 0 {
            c2.fetch_sub(1, Ordering::SeqCst);
            g2.notify(true, false);
        }
    });
    loop {
        if children.load(Ordering::SeqCst) == 0 {
            break;
        }
        let epoch = gate.recruit_epoch();
        if batch.swap(0, Ordering::SeqCst) > 0 {
            // help_one's idle hook: take the batch over; retiring the child flips the
            // predicate.
            children.fetch_sub(1, Ordering::SeqCst);
            gate.notify(true, false);
            continue;
        }
        gate.wait_once(true, epoch, || children.load(Ordering::SeqCst) != 0);
    }
    owner.join().unwrap();
}

#[test]
fn deferred_batch_never_strands_a_taskwait_helper() {
    let report = Checker::new()
        .preemption_bound(4)
        .random_runs(500)
        .check(|| deferred_batch_vs_helper(true));
    report.assert_ok();
    assert!(report.exhausted, "the deferred-batch model should be exhaustible");
}

#[test]
fn deferred_batch_without_epoch_bump_strands_the_helper() {
    let report = Checker::new()
        .preemption_bound(4)
        .random_runs(0)
        .check(|| deferred_batch_vs_helper(false));
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded missing recruitment bump: {report:?}"
    );
}

// ---------------------------------------------------------------------------------------------
// Mutation: a gate fork whose notify fires *outside* the mutex. The notify can then land in
// the window between a waiter's predicate re-check (under the mutex) and its wait — the
// textbook lost wake-up the real gate's notify-under-mutex discipline prevents. loom-lite must
// find it.
// ---------------------------------------------------------------------------------------------

mod buggy {
    use loom_lite::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use loom_lite::sync::{Condvar, Mutex};

    /// `CompletionGate` with the one discipline removed: `notify` does not take the mutex.
    pub struct BuggyGate {
        mutex: Mutex<()>,
        condvar: Condvar,
        waiters: AtomicUsize,
    }

    impl BuggyGate {
        pub fn new() -> Self {
            BuggyGate {
                mutex: Mutex::new(()),
                condvar: Condvar::new(),
                waiters: AtomicUsize::new(0),
            }
        }

        pub fn wait_until(&self, mut done: impl FnMut() -> bool) {
            self.waiters.fetch_add(1, SeqCst);
            {
                let mut guard = self.mutex.lock();
                while !done() {
                    self.condvar.wait(&mut guard);
                }
            }
            self.waiters.fetch_sub(1, SeqCst);
        }

        /// BUG (deliberate): the notify is not serialized with the waiter's check-then-wait.
        pub fn notify(&self) {
            if self.waiters.load(SeqCst) > 0 {
                self.condvar.notify_all();
            }
        }
    }
}

/// The unlocked-notify fork must be caught as a deadlock (waiter asleep forever).
#[test]
fn unlocked_notify_fork_is_caught_as_deadlock() {
    let report = Checker::new().preemption_bound(4).random_runs(0).check(|| {
        let gate = Arc::new(buggy::BuggyGate::new());
        let done = Arc::new(AtomicUsize::new(0));
        let (g2, d2) = (Arc::clone(&gate), Arc::clone(&done));
        let finisher = thread::spawn(move || {
            d2.store(1, Ordering::SeqCst);
            g2.notify();
        });
        gate.wait_until(|| done.load(Ordering::SeqCst) == 1);
        finisher.join().unwrap();
    });
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded unlocked-notify bug: {report:?}"
    );
}
