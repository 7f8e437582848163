//! Model checks of the sleep/wake protocol (`src/sleep.rs`) under loom-lite.
//!
//! Run with `cargo test -p weakdep_threadpool --features loom-model --test loom_model`.
//! Under the `loom-model` feature the protocol's `Mutex`/`Condvar`/atomics are loom-lite
//! shims, so these tests explore **every** interleaving within the preemption bound (plus a
//! seeded-random tail) of the real shipped code — not a transcription of it.
//!
//! The property in every test is deadlock-freedom: a lost wake-up manifests as a worker
//! parked forever on the condvar while the producer blocks in `join`, which the checker
//! reports as a deadlock with a replayable schedule.

#![cfg(feature = "loom-model")]

use loom_lite::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom_lite::sync::Mutex;
use loom_lite::{thread, Checker};
use std::sync::Arc;
use weakdep_threadpool::sleep::{SleepState, WakeTarget};

/// The worker side of the protocol, as `ThreadPool` runs it: read the epoch, scan for work,
/// and only sleep when the scan found nothing and the epoch still matches.
fn worker_loop(sleep: &SleepState, domain: usize, work: &AtomicBool) {
    loop {
        let epoch = sleep.current_epoch();
        if work.load(Ordering::SeqCst) {
            return;
        }
        sleep.sleep(domain, epoch, || false);
    }
}

/// One worker, one producer: the submission (work flag + notify) must never be lost,
/// whichever way it interleaves with the worker's scan-then-sleep.
#[test]
fn wake_is_never_lost_single_domain() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let sleep = Arc::new(SleepState::new(1));
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
        let worker = thread::spawn(move || worker_loop(&s2, 0, &w2));
        work.store(true, Ordering::SeqCst);
        sleep.notify_one(None);
        worker.join().unwrap();
    });
    report.assert_ok();
    assert!(report.exhausted, "single-domain wake model should be exhaustible");
}

/// Two workers, one shutdown broadcast: `notify_all` must release every sleeper regardless of
/// how far each has progressed toward its wait.
#[test]
fn notify_all_releases_every_sleeper() {
    let report = Checker::new().preemption_bound(2).random_runs(300).check(|| {
        let sleep = Arc::new(SleepState::new(1));
        let work = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
                thread::spawn(move || worker_loop(&s2, 0, &w2))
            })
            .collect();
        work.store(true, Ordering::SeqCst);
        sleep.notify_all();
        for w in workers {
            w.join().unwrap();
        }
    });
    report.assert_ok();
}

/// The hierarchical-policy invariant: a notify preferring domain 0 while the only sleeper
/// lives in domain 1 must fall back and wake it — work is never stranded for locality's sake.
#[test]
fn domain_fallback_never_strands_work() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let sleep = Arc::new(SleepState::new(2));
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
        let worker = thread::spawn(move || worker_loop(&s2, 1, &w2));
        work.store(true, Ordering::SeqCst);
        let target = sleep.notify_one(Some(0));
        // Whatever the interleaving, the wake must not claim a preferred-domain hit: the only
        // possible sleeper is in domain 1.
        assert_ne!(target, WakeTarget::Preferred);
        worker.join().unwrap();
    });
    report.assert_ok();
}

/// `notify_many` with enough budget must wake sleepers across domains, not just the
/// preferred one.
#[test]
fn notify_many_crosses_domains() {
    let report = Checker::new().preemption_bound(2).random_runs(300).check(|| {
        let sleep = Arc::new(SleepState::new(2));
        let work = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|domain| {
                let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
                thread::spawn(move || worker_loop(&s2, domain, &w2))
            })
            .collect();
        work.store(true, Ordering::SeqCst);
        sleep.notify_many(2, Some(0));
        for w in workers {
            w.join().unwrap();
        }
    });
    report.assert_ok();
}

// ---------------------------------------------------------------------------------------------
// Mutation test: a test-only fork of the protocol with the PR 3-era epoch re-check removed.
// loom-lite must find the dropped wake-up as a deadlock — proof the harness isn't vacuous.
// ---------------------------------------------------------------------------------------------

mod buggy {
    //! `SleepState` with the one load-bearing line removed: `sleep` parks without re-checking
    //! the epoch under the mutex, so a notify that lands between the caller's scan and the
    //! wait is dropped on the floor.

    use loom_lite::sync::{Condvar, Mutex};

    pub struct BuggySleepState {
        epoch: Mutex<u64>,
        condvar: Condvar,
    }

    impl BuggySleepState {
        pub fn new() -> Self {
            BuggySleepState { epoch: Mutex::new(0), condvar: Condvar::new() }
        }

        pub fn current_epoch(&self) -> u64 {
            *self.epoch.lock()
        }

        pub fn notify_one(&self) {
            let mut epoch = self.epoch.lock();
            *epoch += 1;
            self.condvar.notify_one();
        }

        /// BUG (deliberate): `seen_epoch` is ignored — the epoch is not re-checked under the
        /// mutex before waiting, which is exactly the dropped-wake the real protocol's
        /// re-check exists to prevent.
        pub fn sleep(&self, _seen_epoch: u64) {
            let mut epoch = self.epoch.lock();
            self.condvar.wait(&mut epoch);
        }
    }
}

/// The dropped-wake fork must be caught: some interleaving parks the worker after the only
/// notify has fired, and the checker reports the resulting sleep-forever as a deadlock.
#[test]
fn dropped_wake_fork_is_caught_as_deadlock() {
    let report = Checker::new().preemption_bound(4).random_runs(0).check(|| {
        let sleep = Arc::new(buggy::BuggySleepState::new());
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
        let worker = thread::spawn(move || loop {
            let epoch = s2.current_epoch();
            if w2.load(Ordering::SeqCst) {
                return;
            }
            s2.sleep(epoch);
        });
        work.store(true, Ordering::SeqCst);
        sleep.notify_one();
        worker.join().unwrap();
    });
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded dropped-wake bug: {report:?}"
    );
}

// ---------------------------------------------------------------------------------------------
// Deferred work published by scanning (the runtime's retire batches): publish vs park.
// ---------------------------------------------------------------------------------------------

/// A worker's deferred batch, as the runtime keeps it: a locked slot that idle workers scan.
struct BatchSlot {
    parked: Mutex<usize>,
    drained: AtomicUsize,
    owner_flushed: AtomicBool,
}

/// The publish-vs-park protocol. The owner parks one task in its batch while it still has
/// local work, then either announces the batch — epoch bump, then the sleeper count under the
/// sleep mutex (`SleepState::announce`) — or, in the seeded mutation, only reads the sleeper
/// count. It keeps deferring unless it saw a parked worker; a deferring owner then runs a body
/// that never ends in this model, so only the idle worker can drain the batch. The idle
/// worker reads the epoch, scans the slot, and parks until the epoch moves (exactly the
/// pool's worker loop around the idle hook).
fn publish_vs_park(announce: fn(&SleepState) -> bool) {
    let sleep = Arc::new(SleepState::new(1));
    let slot = Arc::new(BatchSlot {
        parked: Mutex::new(0),
        drained: AtomicUsize::new(0),
        owner_flushed: AtomicBool::new(false),
    });
    let (s2, b2) = (Arc::clone(&sleep), Arc::clone(&slot));
    let owner = thread::spawn(move || {
        *b2.parked.lock() += 1;
        if announce(&s2) {
            // A worker is parked: the owner must not defer, so it drains the batch itself
            // (and, in this model only, wakes the parked worker so the run can end).
            let taken = std::mem::take(&mut *b2.parked.lock());
            b2.drained.fetch_add(taken, Ordering::SeqCst);
            b2.owner_flushed.store(true, Ordering::SeqCst);
            s2.notify_all();
        }
    });
    let idle = thread::spawn(move || loop {
        let epoch = sleep.current_epoch();
        if slot.owner_flushed.load(Ordering::SeqCst) {
            return;
        }
        let taken = std::mem::take(&mut *slot.parked.lock());
        if taken > 0 {
            slot.drained.fetch_add(taken, Ordering::SeqCst);
            return;
        }
        sleep.sleep(0, epoch, || false);
    });
    owner.join().unwrap();
    idle.join().unwrap();
}

/// Whichever way the publication interleaves with the idle worker's scan-then-sleep, the
/// batch is drained: either the idle worker's scan sees it, or the epoch bump makes it
/// rescan, or the owner sees it parked and drains the batch itself.
#[test]
fn published_batch_is_never_stranded() {
    let report = Checker::new()
        .preemption_bound(4)
        .random_runs(500)
        .check(|| publish_vs_park(SleepState::announce));
    report.assert_ok();
    assert!(report.exhausted, "the publish-vs-park model should be exhaustible");
}

/// Seeded mutation: publishing without the epoch bump. The idle worker scans the empty slot,
/// the owner publishes and sees no sleeper yet, and the idle worker then parks on an
/// unchanged epoch — the batch is stranded with its only drainer asleep, which the checker
/// reports as a deadlock.
#[test]
fn publish_without_epoch_bump_strands_the_batch() {
    let report = Checker::new()
        .preemption_bound(4)
        .random_runs(0)
        .check(|| publish_vs_park(SleepState::has_sleepers));
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the stranded batch of the seeded mutation: {report:?}"
    );
}
