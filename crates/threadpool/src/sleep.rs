//! The sleep/wake protocol for idle workers, with per-domain wake targeting.
//!
//! The protocol follows the classic epoch-guarded condition-variable pattern (see *Rust Atomics
//! and Locks*, ch. 9): a worker records the wake epoch *before* scanning the queues; if the scan
//! finds nothing it re-checks the epoch under the mutex and only then waits. Every submission
//! bumps the epoch under the same mutex, so a submission that races with the scan either is seen
//! by the scan or changes the epoch and prevents the sleep — wake-ups are never lost.
//!
//! For the hierarchical scheduling policy the sleepers are additionally grouped into **locality
//! domains**: every worker waits on its domain's condition variable (all condvars share the one
//! epoch mutex, so the lost-wake-up argument is unchanged), and a notify carrying a preferred
//! domain wakes a sleeper *from that domain* when one exists — the woken worker's first steal
//! scan starts at the queues of the notifying worker's own domain, so the warm data stays
//! inside the domain whenever it can. When the preferred domain has no sleeper the notify falls
//! back to any domain with one (work must never be stranded to preserve locality).

// The protocol is written against this two-line sync shim so the `loom-model` feature can swap
// in loom-lite's model-checked primitives; `tests/loom_model.rs` then explores every bounded
// interleaving of the exact code below. The default build uses the real primitives and the shim
// compiles away entirely.
#[cfg(not(feature = "loom-model"))]
use parking_lot::{Condvar, Mutex};
#[cfg(not(feature = "loom-model"))]
use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(feature = "loom-model")]
use loom_lite::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "loom-model")]
use loom_lite::sync::{Condvar, Mutex};

/// Where a wake-up with a domain preference actually landed (feeds the pool's
/// `targeted_wakes` / `fallback_wakes` counters).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WakeTarget {
    /// A sleeper of the preferred domain was woken.
    Preferred,
    /// No sleeper in the preferred domain; a sleeper of another domain was woken instead.
    Fallback,
    /// Nobody was asleep (the epoch bump alone prevents a racing sleeper from blocking).
    NoSleeper,
}

/// Sleep state of one locality domain: its condvar plus the number of workers currently
/// blocked on it. The counter is mutated only while the epoch mutex is held; it is an atomic
/// solely so `SleepState` stays `Sync` without wrapping the whole vector in the mutex.
struct DomainSleep {
    condvar: Condvar,
    sleepers: AtomicUsize,
}

/// Shared sleep state for all workers of a pool.
pub struct SleepState {
    epoch: Mutex<u64>,
    domains: Vec<DomainSleep>,
}

impl SleepState {
    /// Creates the sleep state for `domains` locality domains (non-hierarchical policies use a
    /// single domain, which makes every notify trivially "targeted").
    pub fn new(domains: usize) -> Self {
        SleepState {
            epoch: Mutex::new(0),
            domains: (0..domains.max(1))
                .map(|_| DomainSleep { condvar: Condvar::new(), sleepers: AtomicUsize::new(0) })
                .collect(),
        }
    }

    /// The current wake epoch. Workers read this before scanning for work.
    pub fn current_epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Picks the domain to wake: the preferred one if it has a sleeper, otherwise the first
    /// domain (scanning from the preferred one, for fairness) that has one. Must run under the
    /// epoch mutex.
    fn pick(&self, preferred: Option<usize>) -> (Option<usize>, bool) {
        let n = self.domains.len();
        let start = preferred.unwrap_or(0).min(n - 1);
        for offset in 0..n {
            let d = (start + offset) % n;
            if self.domains[d].sleepers.load(Ordering::Relaxed) > 0 {
                return (Some(d), preferred == Some(d));
            }
        }
        (None, false)
    }

    /// Signals that one unit of work became available, preferring to wake a sleeper of
    /// `preferred` (the domain whose queues hold the work).
    pub fn notify_one(&self, preferred: Option<usize>) -> WakeTarget {
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        match self.pick(preferred) {
            (Some(d), hit) => {
                self.domains[d].condvar.notify_one();
                if preferred.is_none() || hit {
                    WakeTarget::Preferred
                } else {
                    WakeTarget::Fallback
                }
            }
            (None, _) => WakeTarget::NoSleeper,
        }
    }

    /// Signals that `count` units of work became available, waking up to `count` workers —
    /// sleepers of `preferred` first, then the remaining domains. Returns how many wakes
    /// landed in the preferred domain and how many fell back to another one.
    pub fn notify_many(&self, count: usize, preferred: Option<usize>) -> (usize, usize) {
        if count == 0 {
            return (0, 0);
        }
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        let n = self.domains.len();
        let start = preferred.unwrap_or(0).min(n - 1);
        let mut remaining = count;
        let (mut hit, mut miss) = (0usize, 0usize);
        for offset in 0..n {
            let d = (start + offset) % n;
            let sleepers = self.domains[d].sleepers.load(Ordering::Relaxed);
            if sleepers == 0 {
                continue;
            }
            let woken = remaining.min(sleepers);
            if woken == sleepers {
                self.domains[d].condvar.notify_all();
            } else {
                for _ in 0..woken {
                    self.domains[d].condvar.notify_one();
                }
            }
            if preferred.is_none() || preferred == Some(d) {
                hit += woken;
            } else {
                miss += woken;
            }
            remaining -= woken;
            if remaining == 0 {
                break;
            }
        }
        (hit, miss)
    }

    /// Publishes work that idle workers find by *scanning* but that sits in no queue (a
    /// worker's deferred retire batch): bumps the epoch, so a worker between its scan and its
    /// sleep rescans instead of parking, and reports whether a worker is already parked. A
    /// `true` answer means the publisher must not defer the work, since no parked worker
    /// scans again until something wakes it. Wakes nobody itself.
    pub fn announce(&self) -> bool {
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        self.has_sleepers()
    }

    /// Whether any worker is parked. Exact only under the epoch mutex (as inside
    /// [`SleepState::announce`]); elsewhere a relaxed snapshot, good for heuristics only.
    pub fn has_sleepers(&self) -> bool {
        self.domains.iter().any(|d| d.sleepers.load(Ordering::Relaxed) > 0)
    }

    /// Wakes every worker in every domain (used for shutdown).
    pub fn notify_all(&self) {
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        for domain in &self.domains {
            domain.condvar.notify_all();
        }
    }

    /// Blocks the current worker (a member of `domain`) until the epoch advances past
    /// `seen_epoch` (or immediately returns if it already has, or if `should_exit` is true).
    pub fn sleep(&self, domain: usize, seen_epoch: u64, should_exit: impl Fn() -> bool) {
        let domain = &self.domains[domain.min(self.domains.len() - 1)];
        let mut epoch = self.epoch.lock();
        if *epoch != seen_epoch || should_exit() {
            return;
        }
        domain.sleepers.fetch_add(1, Ordering::Relaxed);
        domain.condvar.wait(&mut epoch);
        domain.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

// These tests exercise the protocol with real OS threads and real primitives; under
// `loom-model` the primitives are loom-lite shims that only work inside a model run, so the
// module is compiled out (the model harness in `tests/loom_model.rs` covers the feature).
#[cfg(all(test, not(feature = "loom-model")))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn sleep_returns_when_epoch_already_advanced() {
        let s = SleepState::new(1);
        let epoch = s.current_epoch();
        s.notify_one(None);
        // Must not block.
        s.sleep(0, epoch, || false);
    }

    #[test]
    fn sleep_returns_when_exit_requested() {
        let s = SleepState::new(2);
        let epoch = s.current_epoch();
        s.sleep(1, epoch, || true);
    }

    #[test]
    fn notify_wakes_a_sleeper() {
        let s = Arc::new(SleepState::new(1));
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || {
            let epoch = s2.current_epoch();
            s2.sleep(0, epoch, || false);
        });
        // Give the thread a moment to actually sleep, then wake it.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.notify_one(None), WakeTarget::Preferred);
        handle.join().unwrap();
    }

    #[test]
    fn notify_many_wakes_all_needed() {
        let s = Arc::new(SleepState::new(2));
        let mut handles = Vec::new();
        for domain in 0..3 {
            let s2 = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let epoch = s2.current_epoch();
                s2.sleep(domain % 2, epoch, || false);
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        let (hit, miss) = s.notify_many(10, Some(0));
        assert_eq!(hit + miss, 3, "all three sleepers must be woken");
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn notify_targets_the_preferred_domain_first() {
        let s = Arc::new(SleepState::new(2));
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || {
            let epoch = s2.current_epoch();
            s2.sleep(1, epoch, || false);
        });
        std::thread::sleep(Duration::from_millis(50));
        // The only sleeper lives in domain 1: preferring 1 is a targeted wake, preferring 0
        // falls back to it (work must never be stranded for locality's sake).
        {
            let _guard = s.epoch.lock();
            assert_eq!(s.pick(Some(1)), (Some(1), true));
            assert_eq!(s.pick(Some(0)), (Some(1), false));
        }
        assert_eq!(s.notify_one(Some(0)), WakeTarget::Fallback);
        handle.join().unwrap();
    }

    #[test]
    fn no_sleeper_reports_no_sleeper() {
        let s = SleepState::new(3);
        assert_eq!(s.notify_one(Some(2)), WakeTarget::NoSleeper);
        assert_eq!(s.notify_many(4, None), (0, 0));
    }
}
