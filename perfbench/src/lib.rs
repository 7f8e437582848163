//! The repository benchmark. One command runs one workload for a fixed time with a seed, checks
//! every output and prints one JSON result line: the end-to-end metrics from the untraced
//! binary (`perfbench`), the per-layer metrics from the traced one (`perfbench-traced`).
//!
//! The runtime is driven only through its public API: `Runtime::run` inside the kernels'
//! `run_on`, `Runtime::submit_with`, `JobHandle::try_wait_result`, the task builders and
//! `TaskCtx::for_each`/`scan`. Per-layer numbers come from outside the program: deltas of
//! `Runtime::stats()`, `Runtime::capacity()` and `JobHandle::stats()`, the
//! [`trace::Recorder`] observer, the counting allocator and the benchmark's own timers.
//! `README.md` beside this crate says why each workload was chosen and which end-to-end
//! metric each layer metric should move.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use weakdep_core::{Runtime, RuntimeConfig, SchedulingPolicy};

mod kernels;
mod metrics;
mod rng;
mod service;
mod stats;
mod trace;

use metrics::{Meta, Metrics};
use trace::{ratio, CapacityMax, Delta, Recorder, Window};

/// Worker threads of every runtime the benchmark builds: one per CPU of the 2-CPU machine the
/// benchmark was defined on. The main thread is the only other thread that does work.
pub const WORKERS: usize = 2;

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_TRIALS: usize = 5;

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Multiple AXPY, `nest-weak-release`, fine leaves: the per-task path dominates.
    AxpyFine,
    /// Gauss-Seidel `nest-weak`, coarse tiles: kernel bodies dominate.
    GaussSeidelCoarse,
    /// Open-loop Poisson arrivals of mixed jobs into one fair-share service.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AxpyFine,
        Workload::GaussSeidelCoarse,
        Workload::ServiceMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AxpyFine => "axpy_fine",
            Workload::GaussSeidelCoarse => "gauss_seidel_coarse",
            Workload::ServiceMixed => "service_mixed",
        }
    }
}

/// Checked command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: Duration,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <axpy_fine|gauss_seidel_coarse|service_mixed> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all required.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(1.0..=600.0).contains(&s) {
                        return Err(format!("--seconds must be within 1..=600, got {s}"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Verified operations (solves or jobs, warm-up included).
    pub attempted: u64,
    /// Operations that failed verification or returned a `JobError`.
    pub failed: u64,
    /// The end-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Run metadata.
    pub meta: Meta,
}

/// Builds a runtime with the benchmark's worker count, the given policy and admission budget,
/// and the recorder when the run is traced.
pub fn runtime(
    policy: SchedulingPolicy,
    budget: Option<usize>,
    recorder: Option<&Arc<Recorder>>,
) -> Runtime {
    let mut config = RuntimeConfig::new()
        .workers(WORKERS)
        .scheduling_policy(policy);
    if let Some(budget) = budget {
        config = config.live_task_budget(budget);
    }
    if let Some(recorder) = recorder {
        config = config.observer(Arc::clone(recorder) as Arc<dyn weakdep_core::RuntimeObserver>);
    }
    Runtime::new(config)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets the runtime, engine, region-store, pool and capacity metrics of a traced window.
/// `units` is the number of solves (or jobs) in the window; `offered` is the worker time the
/// pool had in it, workers × wall time.
pub fn set_common_layers(
    m: &mut Metrics,
    d: &Delta,
    units: f64,
    window: &Window,
    offered: Duration,
    capacity: &CapacityMax,
) {
    let per_unit = |v: f64| ratio(v, units);
    m.set(
        "runtime.spawn_ns_per_task",
        ratio(d.spawn_ns, d.tasks_executed),
    );
    m.set(
        "runtime.retire_ns_per_task",
        ratio(d.retire_ns, d.tasks_executed),
    );
    m.set(
        "runtime.allocs_per_task",
        ratio(d.allocations, d.tasks_executed),
    );
    m.set("runtime.tasks_per_solve", per_unit(d.tasks_executed));
    let waits = stats::sorted(window.ready_wait_us.clone());
    m.set(
        "runtime.ready_wait_us_p50",
        stats::percentile(&waits, 500).unwrap_or(0.0),
    );
    m.set(
        "runtime.ready_wait_us_p99",
        stats::tail(&waits, 990).map_or(0.0, |t| t.value),
    );
    m.set(
        "engine.accesses_per_task",
        ratio(d.accesses, d.tasks_registered),
    );
    m.set("engine.release_edges", per_unit(d.release_edges));
    m.set("engine.satisfaction_edges", per_unit(d.satisfaction_edges));
    m.set(
        "engine.incremental_releases",
        per_unit(d.incremental_releases),
    );
    m.set(
        "engine.ready_at_registration",
        per_unit(d.ready_at_registration),
    );
    m.set("regions.exact_hits", per_unit(d.exact_hits));
    m.set("regions.promotions", per_unit(d.promotions));
    m.set("regions.fragmented_updates", per_unit(d.fragmented_updates));
    m.set("regions.demotions", per_unit(d.demotions));
    m.set(
        "regions.exact_hit_frac",
        ratio(d.exact_hits, d.exact_hits + d.fragmented_updates),
    );
    m.set("pool.slot_hit_frac", ratio(d.slot_hits, d.tasks_executed));
    m.set("pool.steals", per_unit(d.steals));
    m.set(
        "pool.busy_frac",
        ratio(window.body.as_secs_f64(), offered.as_secs_f64()),
    );
    m.set(
        "pool.idle_ms_per_solve",
        per_unit(ms(offered.saturating_sub(window.body))),
    );
    m.set(
        "capacity.task_table_slots_max",
        capacity.task_table_slots as f64,
    );
    m.set("capacity.pending_slots_max", capacity.pending_slots as f64);
}

/// Sets the end-to-end metrics from a run's samples: set-up times in s, and sorted solve and
/// job times in ms. The solve tail is taken at p90 when at least ten samples lie beyond it,
/// else at the highest percentile that has ten; `tails` in the metadata records which and
/// over how many samples.
pub fn set_end_to_end(
    m: &mut Metrics,
    meta: &mut Meta,
    setup_s: Vec<f64>,
    solve_ms: &[f64],
    job_ms: &[f64],
    max_jobs_per_s: f64,
) -> Result<(), String> {
    let setup_s = stats::sorted(setup_s);
    m.set(
        "setup_s",
        stats::percentile(&setup_s, 500).ok_or("no set-up ran")?,
    );
    let tail = stats::tail(solve_ms, 900).ok_or(format!(
        "solve_ms_p90: {} samples are too few for any percentile",
        solve_ms.len()
    ))?;
    m.set(
        "solve_ms_p50",
        stats::percentile(solve_ms, 500).expect("a tail implies samples"),
    );
    m.set("solve_ms_p90", tail.value);
    let tail_pct = tail.per_mille as f64 / 10.0;
    meta.json(
        "tails",
        format!(
            "{{\"solve_ms_p90\": {{\"pct\": {tail_pct}, \"n\": {}}}}}",
            tail.n
        ),
    );
    m.set(
        "job_ms_p50",
        stats::percentile(job_ms, 500).ok_or("no job completed")?,
    );
    m.set("max_jobs_per_s", max_jobs_per_s);
    m.set("peak_rss_mb", peak_rss_mib()?);
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("unreadable VmHWM line: {line}"))?;
    Ok(kib / 1024.0)
}

/// Stolen and total CPU ticks of the machine so far (`/proc/stat`), when readable. On a
/// virtual machine, stolen time is time the host ran something else while a CPU of this one
/// wanted to run: runs with much of it measured the host, not the runtime.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The entry point of both binaries. `traced` says whether this binary has the counting
/// allocator installed; it must agree with `--trace`.
pub fn main(traced: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced {
        eprintln!(
            "perfbench: --trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    let recorder = args.trace.then(|| Arc::new(Recorder::default()));
    let ticks_before = cpu_ticks();
    let result = match args.workload {
        Workload::AxpyFine | Workload::GaussSeidelCoarse => kernels::run(&args, recorder.as_ref()),
        Workload::ServiceMixed => service::run(&args, recorder.as_ref()),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = &mut outcome.meta;
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, cpu_ticks()) {
        meta.json(
            "cpu_steal_frac",
            ratio((steal1 - steal0) as f64, (total1 - total0) as f64),
        );
    }
    meta.text("workload", args.workload.name());
    meta.json("seed", args.seed);
    meta.json("seconds", args.seconds.as_secs_f64());
    meta.json("trace", args.trace);
    meta.json("nproc", nproc);
    meta.json("workers", WORKERS);
    // Runs with more workers than CPUs measure time slicing, not the runtime: keep them out of
    // comparisons.
    meta.json("oversubscribed", WORKERS > nproc);
    meta.text(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"meta\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(),
        outcome.meta.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let args = parse("--workload service_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::ServiceMixed);
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Duration::from_secs(10), true)
        );
        assert!(parse("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload axpy_fine --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload axpy_fine --seed 7 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload axpy_fine --seed 7 --seconds 10").is_err());
        assert!(parse("--workload axpy_fine --seed").is_err());
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
