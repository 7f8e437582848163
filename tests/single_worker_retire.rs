//! Batched retire on a single worker: with nobody to take a batch over, every retire the
//! worker defers must still be drained by its own flush rules. Each job shape below — nested
//! `weakwait`/`release`, `taskwait` inside a worker, cancel, deadline, and a runtime dropped
//! with jobs in flight — must drain completely: `executed + skipped == registered ==
//! deeply_completed` for every job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use weakdep::{JobOptions, JobStats, Runtime, SharedSlice, TaskCtx};

fn assert_drained(stats: JobStats) {
    assert!(stats.finished, "job {} did not finish: {stats:?}", stats.job_id);
    assert_eq!(
        stats.tasks_executed + stats.tasks_skipped,
        stats.tasks_registered,
        "every registered body ran or was skipped: {stats:?}"
    );
    assert_eq!(
        stats.tasks_registered, stats.tasks_deeply_completed,
        "every registered task retired: {stats:?}"
    );
}

/// Two rounds of weak outer tasks with `weakwait`, each spawning strong leaves over blocks
/// and releasing every block it handed out (the nest-weak-release pattern), then a reader.
fn nested_weakwait_release(root: &TaskCtx<'_>, data: &SharedSlice<u64>) {
    let n = data.len();
    for _ in 0..2 {
        let d = data.clone();
        root.task().weak_inout(data.region(0..n)).weakwait().label("outer").spawn(move |outer| {
            for start in (0..n).step_by(8) {
                let leaf = d.clone();
                outer.task().inout(d.region(start..start + 8)).label("leaf").spawn(move |t| {
                    for v in leaf.write(t, start..start + 8) {
                        *v += 1;
                    }
                });
                outer.release(d.region(start..start + 8));
            }
        });
    }
    let d = data.clone();
    root.task().input(data.region(0..n)).label("check").spawn(move |t| {
        assert!(d.read(t, 0..n).iter().all(|&v| v == 2), "both rounds reached every block");
    });
}

#[test]
fn single_worker_drains_every_job_shape() {
    let rt = Runtime::with_workers(1);
    let mut stats = Vec::new();

    let data = SharedSlice::<u64>::new(64);
    let d = data.clone();
    let nested = rt.submit(move |root| nested_weakwait_release(root, &d));
    assert!(nested.wait_timeout(Duration::from_secs(60)).expect("finishes").is_ok());
    stats.push(nested.stats());

    let taskwait = rt.submit(|root| {
        root.task().label("waiter").spawn(|t| {
            for _ in 0..24 {
                t.task().spawn(|_| {});
            }
            t.taskwait();
        });
        root.taskwait();
    });
    assert!(taskwait.wait_timeout(Duration::from_secs(60)).expect("finishes").is_ok());
    stats.push(taskwait.stats());

    let started = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&started);
    let cancelled = rt.submit(move |root| {
        for _ in 0..32 {
            let s = Arc::clone(&s);
            root.task().spawn(move |_| {
                s.store(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            });
        }
    });
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    cancelled.cancel();
    assert!(cancelled.wait_timeout(Duration::from_secs(60)).is_some(), "cancel drains");
    let cancel_stats = cancelled.stats();
    assert!(cancel_stats.tasks_skipped > 0, "the cancel skipped queued bodies");
    stats.push(cancel_stats);

    let overdue = rt.submit_with(JobOptions::new().deadline(Duration::from_millis(20)), |root| {
        for _ in 0..64 {
            root.task().spawn(|_| std::thread::sleep(Duration::from_millis(2)));
        }
        root.taskwait();
    });
    assert!(overdue.wait_timeout(Duration::from_secs(60)).is_some(), "the abort drains");
    stats.push(overdue.stats());

    // Dropping the runtime cancels and drains the jobs still in flight.
    let in_flight: Vec<_> = (0..3)
        .map(|_| {
            let data = SharedSlice::<u64>::new(64);
            rt.submit(move |root| nested_weakwait_release(root, &data))
        })
        .collect();
    drop(rt);
    stats.extend(in_flight.iter().map(|handle| handle.stats()));

    for job in stats {
        assert_drained(job);
    }
}
