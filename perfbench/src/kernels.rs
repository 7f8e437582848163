//! The kernel workloads: one paper kernel solved over and over in a closed loop, each solve
//! checked bit for bit against the kernel's sequential reference.
//!
//! * `axpy_fine` — Multiple AXPY, `nest-weak-release`: 1 Mi f64 elements (8 MiB per vector),
//!   20 calls, 2 Ki-element leaves, so 20 × (512 + 1) = 10 260 tasks per solve.
//! * `gauss_seidel_coarse` — Gauss-Seidel `nest-weak`: a 2048² interior in 128² tiles, 8
//!   iterations, so 8 × (16² + 1) = 2 056 tasks per solve.
//!
//! A solve is the kernel's `run_on`; a job is the closed loop's unit as a user sees it: reset
//! the inputs, solve, read the result back and check it. The next job is due the moment the
//! previous one is verified.

use std::sync::Arc;
use std::time::{Duration, Instant};

use weakdep_core::{Runtime, SchedulingPolicy, SharedSlice};
use weakdep_kernels::axpy::{self, AxpyConfig, AxpyVariant};
use weakdep_kernels::gauss_seidel::{self, Grid, GsConfig, GsVariant};

use crate::metrics::{Meta, Metrics};
use crate::rng::Rng;
use crate::stats;
use crate::trace::{CapacityMax, Counters, Recorder, Window};
use crate::{ms, Args, Outcome, Workload, SETUP_TRIALS, WORKERS};

/// One kernel problem at the workload's size.
#[derive(Clone, Copy)]
enum Problem {
    Axpy(AxpyConfig),
    Gs(GsConfig),
}

impl Problem {
    /// The workload's problem. The seed picks the AXPY scalar; the Gauss-Seidel field is the
    /// kernel's fixed initial condition, so its inputs are the same for every seed.
    fn new(workload: Workload, seed: u64) -> Problem {
        match workload {
            Workload::AxpyFine => {
                let alpha = 0.5 + Rng::new(seed, 1).unit();
                Problem::Axpy(AxpyConfig {
                    n: 1 << 20,
                    calls: 20,
                    task_size: 2 << 10,
                    alpha,
                })
            }
            Workload::GaussSeidelCoarse => Problem::Gs(GsConfig {
                blocks: 2048 / 128,
                ts: 128,
                iterations: 8,
            }),
            Workload::ServiceMixed => unreachable!("service_mixed is not a kernel workload"),
        }
    }

    /// The kernel's sequential reference result.
    fn reference(&self) -> Vec<f64> {
        match self {
            Problem::Axpy(cfg) => axpy::reference(cfg),
            Problem::Gs(cfg) => gauss_seidel::reference(cfg),
        }
    }

    /// Tasks one solve spawns, by the kernel's own count.
    fn tasks(&self) -> usize {
        match self {
            Problem::Axpy(cfg) => cfg.calls * (cfg.blocks() + 1),
            Problem::Gs(cfg) => cfg.task_count(GsVariant::NestWeak),
        }
    }

    /// The label of the leaf tasks, whose bodies do the kernel's arithmetic.
    fn leaf_label(&self) -> &'static str {
        match self {
            Problem::Axpy(_) => "axpy-block",
            Problem::Gs(_) => "gs-tile",
        }
    }

    /// Bytes a solve moves by the kernel's own count, ignoring caches: AXPY reads x and y and
    /// writes y (24 B per element and call); a Gauss-Seidel tile reads and writes its centre
    /// (16 B per element) and reads one border row or column of each of four neighbours.
    fn computed_bytes(&self) -> f64 {
        match self {
            Problem::Axpy(cfg) => 24.0 * cfg.n as f64 * cfg.calls as f64,
            Problem::Gs(cfg) => {
                let tiles = (cfg.blocks * cfg.blocks) as f64;
                let per_tile = 16.0 * cfg.block_elems() as f64 + 4.0 * 8.0 * cfg.ts as f64;
                tiles * per_tile * cfg.iterations as f64
            }
        }
    }
}

/// A problem's buffers.
enum Inputs {
    Axpy {
        cfg: AxpyConfig,
        x: SharedSlice<f64>,
        y: SharedSlice<f64>,
    },
    /// The grid and a copy of its starting field: copying it back is cheaper than
    /// `Grid::reset`, which recomputes every element's block, and keeps more of the run for
    /// solves.
    Gs { grid: Grid, initial: Vec<f64> },
}

impl Inputs {
    /// Allocates and initialises the buffers.
    fn new(problem: Problem) -> Inputs {
        match problem {
            Problem::Axpy(cfg) => {
                let inputs = Inputs::Axpy {
                    cfg,
                    x: SharedSlice::new(cfg.n),
                    y: SharedSlice::new(cfg.n),
                };
                inputs.reset();
                inputs
            }
            Problem::Gs(cfg) => {
                let grid = Grid::new(cfg);
                let initial = grid.snapshot();
                Inputs::Gs { grid, initial }
            }
        }
    }

    /// Restores the initial values, which the previous solve overwrote.
    fn reset(&self) {
        match self {
            Inputs::Axpy { x, y, .. } => axpy::initialize(x, y),
            Inputs::Gs { grid, initial } => grid.data().init_with(|i| initial[i]),
        }
    }

    /// One solve on `rt`.
    fn solve(&self, rt: &Runtime) {
        match self {
            Inputs::Axpy { cfg, x, y } => {
                axpy::run_on(rt, AxpyVariant::NestWeakRelease, cfg, x, y);
            }
            Inputs::Gs { grid, .. } => {
                gauss_seidel::run_on(rt, GsVariant::NestWeak, grid);
            }
        }
    }

    /// The solve's result.
    fn output(&self) -> Vec<f64> {
        match self {
            Inputs::Axpy { y, .. } => y.snapshot(),
            Inputs::Gs { grid, .. } => grid.snapshot(),
        }
    }
}

/// Runs a kernel workload for `args.seconds` of solves.
pub fn run(args: &Args, recorder: Option<&Arc<Recorder>>) -> Result<Outcome, String> {
    let problem = Problem::new(args.workload, args.seed);
    let started = Instant::now();
    let expected = problem.reference();
    let seq_ms = ms(started.elapsed());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |inputs: &Inputs| {
        attempted += 1;
        failed += u64::from(inputs.output() != expected);
    };

    // Set-up: build the runtime and the inputs, and run one verified warm-up solve so the
    // first timed solve finds warm pages and a grown task table. Repeated; the last is kept.
    let mut setup_s = Vec::with_capacity(SETUP_TRIALS);
    let mut kept = None;
    for _ in 0..SETUP_TRIALS {
        drop(kept.take());
        let t = Instant::now();
        let rt = crate::runtime(SchedulingPolicy::LocalitySlot, None, recorder);
        let inputs = Inputs::new(problem);
        inputs.solve(&rt);
        check(&inputs);
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((rt, inputs));
    }
    let (rt, inputs) = kept.expect("at least one set-up trial");
    if let Some(r) = recorder {
        r.discard();
    }

    let before = Counters::read(&rt);
    let mut capacity = CapacityMax::default();
    let mut window = Window::default();
    let (mut solve_ms, mut job_ms) = (Vec::new(), Vec::new());
    let mut solve_wall = Duration::ZERO;
    let loop_start = Instant::now();
    while loop_start.elapsed() < args.seconds {
        let due = Instant::now();
        inputs.reset();
        let t = Instant::now();
        inputs.solve(&rt);
        let solve = t.elapsed();
        check(&inputs);
        job_ms.push(ms(due.elapsed()));
        solve_ms.push(ms(solve));
        solve_wall += solve;
        if let Some(r) = recorder {
            window.absorb(r.take(&[problem.leaf_label()]));
            capacity.sample(&rt);
        }
    }
    let loop_wall = loop_start.elapsed();
    let solves = solve_ms.len() as f64;
    let solve_ms = stats::sorted(solve_ms);
    let job_ms = stats::sorted(job_ms);
    let solve_p50 = stats::percentile(&solve_ms, 500).ok_or("no solve completed")?;

    let mut meta = Meta::default();
    meta.text("policy", rt.scheduling_policy().name());
    meta.json("tasks_per_solve", problem.tasks());
    meta.json("headline_p50_ms", solve_p50);
    let mut m = Metrics::new(args.trace);
    if recorder.is_some() {
        let d = before.delta(&Counters::read(&rt));
        let offered = solve_wall * WORKERS as u32;
        crate::set_common_layers(&mut m, &d, solves, &window, offered, &capacity);
        m.set(
            "kernels.leaf_body_ms_per_solve",
            ms(window.leaf_body) / solves,
        );
        m.set(
            "kernels.gbytes_per_s_computed",
            problem.computed_bytes() / solve_p50 / 1e6,
        );
        m.set("kernels.seq_ms", seq_ms);
        m.set("kernels.speedup_vs_seq", seq_ms / solve_p50);
        // No jobs are submitted and no loops published here.
        for name in [
            "jobs.latency_ms_p99",
            "jobs.submit_us_p50",
            "jobs.start_lag_us_p50",
            "jobs.start_lag_us_p99",
            "jobs.generator_lag_ms_p99",
            "assist.chunk_frac",
            "assist.loop_ms_p50",
            "admission.submit_us_p99",
        ] {
            m.set(name, 0.0);
        }
        m.set("assist.chunks", d.assist_chunks / solves);
        m.set("assist.loops", d.assisted_loops / solves);
        m.set("admission.blocked", d.admission_blocked);
        meta.json(
            "spawn_plus_retire_ms_per_solve",
            (d.spawn_ns + d.retire_ns) / 1e6 / solves,
        );
    } else {
        let max_jobs_per_s = solves / loop_wall.as_secs_f64();
        crate::set_end_to_end(
            &mut m,
            &mut meta,
            setup_s,
            &solve_ms,
            &job_ms,
            max_jobs_per_s,
        )?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        meta,
    })
}
