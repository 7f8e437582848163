//! The `service_mixed` workload: seeded Poisson arrivals of mixed jobs into one `Runtime`
//! running `FairShare` with a live-task budget, driven open loop by the main thread.
//!
//! A run has three phases, in shares of its measured time:
//!
//! 1. **isolated** ([`ISOLATED_SHARE`]): one job at a time, `submit_with` to its result.
//!    These are the workload's solves (`solve_ms_*`): service time on an idle service.
//! 2. **fixed rate** ([`FIXED_SHARE`]): the open loop at [`FIXED_RATE`] (`job_ms_*`).
//! 3. **ladder** (the rest): the open loop at each rate of [`LADDER`] in turn
//!    (`max_jobs_per_s`).
//!
//! A job is timed from its due time on the schedule, not from when the generator got round to
//! submitting it, so a stall counts against the program instead of stretching the schedule.
//! Its result is verified by its last task, which stamps the time the verified result exists.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use weakdep_core::{
    JobError, JobHandle, JobOptions, Runtime, SchedulingPolicy, SharedSlice, TaskCtx,
};

use crate::metrics::{Meta, Metrics};
use crate::rng::Rng;
use crate::stats;
use crate::trace::{ratio, CapacityMax, Counters, Recorder};
use crate::{ms, Args, Outcome, SETUP_TRIALS, WORKERS};

/// Live-task budget of the service: a submission blocks while this many tasks are live.
pub const LIVE_TASK_BUDGET: usize = 256;
/// Offered rate of the fixed-rate phase, in jobs per second.
pub const FIXED_RATE: f64 = 1000.0;
/// Offered rates of the ladder, in jobs per second, lowest first. The service sustains
/// 3000 to 4000 jobs/s depending on the run, so no rate sits in that range, where the
/// outcome would flip from run to run; the top rate is always an overload, which is where
/// admission control has to act.
pub const LADDER: [f64; 4] = [500.0, 1000.0, 2000.0, 8000.0];
/// The p99 latency limit a ladder rate must meet to count as sustained. Loose for jobs of
/// well under a millisecond: on a shared virtual machine, host stalls alone put the p99 at
/// 2 to 25 ms from run to run, and the limit should separate overload, where the backlog grows
/// without bound, from that noise.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Share of the run spent on isolated jobs.
pub const ISOLATED_SHARE: f64 = 0.1;
/// Share of the run spent at the fixed rate.
pub const FIXED_SHARE: f64 = 0.45;
/// Warm-up jobs of each shape per set-up trial.
const WARMUP_PER_SHAPE: usize = 100;

/// Streams of the seed, so each phase's inputs are independent of the others' lengths. Ladder
/// rate `i` draws from `STREAM_LADDER + i`.
const STREAM_ISOLATED: u64 = 10;
const STREAM_FIXED: u64 = 11;
const STREAM_INPUTS: u64 = 12;
const STREAM_LADDER: u64 = 100;

const CHAIN_LINKS: usize = 16;
const CHAIN_LEN: usize = 16 << 10;
const FANOUT_TASKS: usize = 32;
const FANOUT_CELL: usize = 1 << 10;
const NESTED_BLOCKS: usize = 8;
const NESTED_LEN: usize = 32 << 10;
const DEEP_ROUNDS: usize = 2;
const DEEP_DEPTH: u32 = 3;
const DEEP_LEN: usize = 32 << 10;
const LOOP_LEN: usize = 1 << 20;
const LOOP_CHUNK: usize = 16 << 10;
const SCAN_LEN: usize = 64 << 10;
const SCAN_CHUNK: usize = 4 << 10;
/// Chunks one scan issues: one per block in the first phase, one per block after the first
/// in the second.
const SCAN_CHUNKS: u64 = (2 * SCAN_LEN.div_ceil(SCAN_CHUNK) - 1) as u64;

/// The job shapes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A serial chain of `inout` tasks over one buffer.
    Chain,
    /// Independent tasks over disjoint cells.
    Fanout,
    /// Two outer tasks with `weak_inout` and `weakwait`, each spawning strong inner blocks.
    Nested,
    /// Two rounds of recursive `weak_inout` splits at seeded points, three levels deep, so
    /// the rounds' accesses overlap partially at every level.
    Deep,
    /// A task running `for_each` over 1 Mi elements and a `scan`, which idle workers assist.
    Loop,
}

/// Every shape, equally likely in the mix.
pub const SHAPES: [Shape; 5] = [
    Shape::Chain,
    Shape::Fanout,
    Shape::Nested,
    Shape::Deep,
    Shape::Loop,
];

/// Leaf task labels: their bodies do the jobs' arithmetic.
const LEAF_LABELS: [&str; 5] = [
    "chain-link",
    "fanout-cell",
    "nested-block",
    "deep-leaf",
    "loop",
];

/// One job of the mix: its shape and the key its seeded parameters derive from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The task graph the job builds.
    pub shape: Shape,
    /// Seed of the job's parameters (increments, split points, multipliers).
    pub key: u64,
}

/// A job and when it is due, relative to the start of its phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Due time from the phase start.
    pub at: Duration,
    /// The job.
    pub job: JobSpec,
}

/// Draws the next job of the mix.
fn draw_job(rng: &mut Rng) -> JobSpec {
    let shape = SHAPES[rng.below(SHAPES.len() as u64) as usize];
    JobSpec {
        shape,
        key: rng.next_u64(),
    }
}

/// `count` jobs of the mix, drawn from `stream` of `seed`.
pub fn job_mix(seed: u64, stream: u64, count: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, stream);
    (0..count).map(|_| draw_job(&mut rng)).collect()
}

/// Poisson arrivals at `rate` jobs per second over `span`, drawn from `stream` of `seed`.
pub fn schedule(seed: u64, stream: u64, rate: f64, span: Duration) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, stream);
    let mut at = 0.0;
    let mut arrivals = Vec::new();
    loop {
        at += rng.exponential(1.0 / rate);
        if at >= span.as_secs_f64() {
            return arrivals;
        }
        arrivals.push(Arrival {
            at: Duration::from_secs_f64(at),
            job: draw_job(&mut rng),
        });
    }
}

/// Read-only inputs every job of the run shares, generated from the seed at set-up.
struct Shared {
    /// Input of the `for_each` loop.
    big: SharedSlice<u32>,
    /// Wrapping sum of `big`.
    big_sum: u64,
    /// Input of the scan.
    small: SharedSlice<u64>,
    /// Inclusive wrapping prefix sums of `small`: the scan's expected output.
    prefix: Arc<Vec<u64>>,
}

impl Shared {
    fn new(seed: u64) -> Shared {
        let mut rng = Rng::new(seed, STREAM_INPUTS);
        let big: Vec<u32> = (0..LOOP_LEN).map(|_| rng.next_u64() as u32).collect();
        let big_sum = big.iter().fold(0u64, |a, &x| a.wrapping_add(u64::from(x)));
        let small: Vec<u64> = (0..SCAN_LEN).map(|_| rng.next_u64() >> 8).collect();
        let prefix = small
            .iter()
            .scan(0u64, |acc, &x| {
                *acc = acc.wrapping_add(x);
                Some(*acc)
            })
            .collect::<Vec<u64>>();
        Shared {
            big: SharedSlice::from_vec(big),
            big_sum,
            small: SharedSlice::from_vec(small),
            prefix: Arc::new(prefix),
        }
    }
}

/// A job's checked result, left by the job's last task.
struct Verdict {
    /// Whether the result was right.
    ok: bool,
    /// When the check finished: the verified result exists from here on.
    finished: Instant,
    /// Time inside `for_each` and `scan` (loop jobs only).
    loop_time: Option<Duration>,
    /// Loop chunks issued (loop jobs only).
    chunks: u64,
}

/// Where a job's last task leaves its verdict.
type VerdictSlot = Arc<Mutex<Option<Verdict>>>;

/// Records a verdict in its slot.
fn deliver(slot: &VerdictSlot, verdict: Verdict) {
    *slot.lock().expect("a verdict slot is never poisoned") = Some(verdict);
}

/// What a job's root body hands back: when it started and where the verdict will be.
struct Started {
    started: Instant,
    verdict: VerdictSlot,
}

/// `0, 1, 2, …` as a buffer, the starting values of the in-place shapes.
fn iota(len: usize) -> SharedSlice<u64> {
    SharedSlice::from_vec((0..len as u64).collect())
}

/// Whether `values` holds `i + add` at every index `i`.
fn is_iota_plus(values: &[u64], add: u64) -> bool {
    values
        .iter()
        .enumerate()
        .all(|(i, &v)| v == (i as u64).wrapping_add(add))
}

/// Spawns a task adding `add` to every element of `range`.
fn spawn_add(
    ctx: &TaskCtx<'_>,
    data: &SharedSlice<u64>,
    range: Range<usize>,
    add: u64,
    label: &'static str,
) {
    let d = data.clone();
    ctx.task()
        .inout(data.region(range.clone()))
        .label(label)
        .spawn(move |t| {
            for v in d.write(t, range) {
                *v = v.wrapping_add(add);
            }
        });
}

/// Spawns the job's last task: it reads the whole buffer once every writer is done, which its
/// dependency on the buffer orders, and checks that element `i` holds `i + add`. Checking in
/// a dependent task rather than after a `taskwait` in the root keeps job roots from blocking
/// a worker.
fn spawn_check(ctx: &TaskCtx<'_>, data: &SharedSlice<u64>, add: u64, verdict: &VerdictSlot) {
    let (d, slot) = (data.clone(), Arc::clone(verdict));
    ctx.task()
        .input(data.full_region())
        .label("check")
        .spawn(move |t| {
            let ok = is_iota_plus(d.read(t, 0..d.len()), add);
            deliver(
                &slot,
                Verdict {
                    ok,
                    finished: Instant::now(),
                    loop_time: None,
                    chunks: 0,
                },
            );
        });
}

/// Spawns two children of `ctx` covering `range`, cut at a seeded point of its middle half.
/// Above depth 1 a child is a `weak_inout` task with `weakwait` that splits its part the same
/// way; at depth 1 the children are the strong leaves.
fn split(
    ctx: &TaskCtx<'_>,
    data: &SharedSlice<u64>,
    range: Range<usize>,
    depth: u32,
    key: u64,
    add: u64,
) {
    let len = range.len();
    let mut rng = Rng::new(key, (range.start as u64) << 8 | u64::from(depth));
    let cut = range.start + len / 4 + rng.below((len / 2) as u64) as usize;
    for part in [range.start..cut, cut..range.end] {
        if depth == 1 {
            spawn_add(ctx, data, part, add, "deep-leaf");
        } else {
            let d = data.clone();
            ctx.task()
                .weak_inout(data.region(part.clone()))
                .weakwait()
                .label("deep-split")
                .spawn(move |t| split(t, &d, part, depth - 1, key, add));
        }
    }
}

impl JobSpec {
    /// The job's root body: spawns the graph, ending in the task that checks the result.
    fn spawn(self, ctx: &TaskCtx<'_>, shared: &Shared, verdict: &VerdictSlot) {
        let mut rng = Rng::new(self.key, 0);
        let mut increment = || rng.next_u64() >> 32;
        match self.shape {
            Shape::Chain => {
                let data = iota(CHAIN_LEN);
                let mut total = 0u64;
                for _ in 0..CHAIN_LINKS {
                    let add = increment();
                    total = total.wrapping_add(add);
                    spawn_add(ctx, &data, 0..CHAIN_LEN, add, "chain-link");
                }
                spawn_check(ctx, &data, total, verdict);
            }
            Shape::Fanout => {
                let data = iota(FANOUT_TASKS * FANOUT_CELL);
                let add = increment();
                for c in 0..FANOUT_TASKS {
                    spawn_add(
                        ctx,
                        &data,
                        c * FANOUT_CELL..(c + 1) * FANOUT_CELL,
                        add,
                        "fanout-cell",
                    );
                }
                spawn_check(ctx, &data, add, verdict);
            }
            Shape::Nested => {
                let data = iota(NESTED_LEN);
                let mut total = 0u64;
                for _ in 0..2 {
                    let add = increment();
                    total = total.wrapping_add(add);
                    let d = data.clone();
                    ctx.task()
                        .weak_inout(data.full_region())
                        .weakwait()
                        .label("nested-outer")
                        .spawn(move |outer| {
                            let block = NESTED_LEN / NESTED_BLOCKS;
                            for b in 0..NESTED_BLOCKS {
                                spawn_add(
                                    outer,
                                    &d,
                                    b * block..(b + 1) * block,
                                    add,
                                    "nested-block",
                                );
                            }
                        });
                }
                spawn_check(ctx, &data, total, verdict);
            }
            Shape::Deep => {
                let data = iota(DEEP_LEN);
                let mut total = 0u64;
                for _ in 0..DEEP_ROUNDS {
                    let add = increment();
                    total = total.wrapping_add(add);
                    split(ctx, &data, 0..DEEP_LEN, DEEP_DEPTH, increment(), add);
                }
                spawn_check(ctx, &data, total, verdict);
            }
            Shape::Loop => {
                let k = increment() | 1;
                let sums = SharedSlice::<u64>::filled(LOOP_LEN / LOOP_CHUNK, 0);
                let out = SharedSlice::<u64>::new(SCAN_LEN);
                let (big, small) = (shared.big.clone(), shared.small.clone());
                let (expected_sum, prefix) =
                    (shared.big_sum.wrapping_mul(k), Arc::clone(&shared.prefix));
                let slot = Arc::clone(verdict);
                let s = sums.clone();
                ctx.task()
                    .input(big.full_region())
                    .input(small.full_region())
                    .output(sums.full_region())
                    .output(out.full_region())
                    .label("loop")
                    .spawn(move |t| {
                        let started = Instant::now();
                        let xs = big.loop_view(t, 0..LOOP_LEN);
                        let sv = s.loop_view_mut(t, 0..s.len());
                        let chunks = Arc::new(AtomicU64::new(0));
                        let counted = Arc::clone(&chunks);
                        t.for_each(0..LOOP_LEN, LOOP_CHUNK, move |start, end| {
                            let acc = xs
                                .get(start..end)
                                .iter()
                                .fold(0u64, |a, &x| a.wrapping_add(u64::from(x).wrapping_mul(k)));
                            let slot = start / LOOP_CHUNK;
                            sv.chunk(slot..slot + 1)[0] = acc;
                            counted.fetch_add(1, Relaxed);
                        });
                        t.scan(&small, &out, SCAN_CHUNK, 0u64, u64::wrapping_add);
                        let loop_time = started.elapsed();
                        let total = s
                            .write(t, 0..s.len())
                            .iter()
                            .fold(0u64, |a, &v| a.wrapping_add(v));
                        let ok = total == expected_sum && out.write(t, 0..SCAN_LEN) == &prefix[..];
                        let chunks = chunks.load(Relaxed) + SCAN_CHUNKS;
                        let verdict = Verdict {
                            ok,
                            finished: Instant::now(),
                            loop_time: Some(loop_time),
                            chunks,
                        };
                        deliver(&slot, verdict);
                    });
            }
        }
    }
}

/// Submits `job` to the service.
fn submit(rt: &Runtime, shared: &Arc<Shared>, job: JobSpec) -> JobHandle<Started> {
    let shared = Arc::clone(shared);
    rt.submit_with(JobOptions::new(), move |ctx| {
        let started = Instant::now();
        let verdict = VerdictSlot::default();
        job.spawn(ctx, &shared, &verdict);
        Started { started, verdict }
    })
}

/// Waits for the job and returns the loop chunks assisting workers ran for it, which its
/// stats hold once it has finished, with its outcome. It polls instead of blocking, for the
/// reason [`open_loop`] gives.
fn finish(handle: JobHandle<Started>) -> (usize, Result<Option<Started>, JobError>) {
    loop {
        if let Some(result) = handle.try_wait_result() {
            return (handle.stats().assist_chunks, result);
        }
        std::thread::yield_now();
    }
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Due time to verified result, in ms, in arrival order.
    latency_ms: Vec<f64>,
    /// Due time to root body start, in µs.
    start_lag_us: Vec<f64>,
    /// Due time to the generator's submission, in ms.
    generator_lag_ms: Vec<f64>,
    /// Time inside `submit_with`, in µs.
    submit_us: Vec<f64>,
    /// Time inside each loop job's `for_each` and `scan`, in ms.
    loop_ms: Vec<f64>,
    /// Loop chunks issued and, by `JobHandle::stats()`, chunks run by assisting workers.
    chunks: u64,
    assist_chunks: u64,
    /// Whether every scheduled job was submitted before the phase's cut-off.
    complete: bool,
    /// Phase start to the last result.
    wall: Duration,
}

impl Phase {
    /// Records a finished job due at `due`.
    fn record(
        &mut self,
        due: Instant,
        assist_chunks: usize,
        result: Result<Option<Started>, JobError>,
    ) {
        self.attempted += 1;
        self.assist_chunks += assist_chunks as u64;
        let verdict = result.map(|started| {
            started.and_then(|s| {
                let verdict = s
                    .verdict
                    .lock()
                    .expect("a verdict slot is never poisoned")
                    .take();
                verdict.map(|v| (s.started, v))
            })
        });
        match verdict {
            Ok(Some((started, v))) if v.ok => {
                self.latency_ms
                    .push(ms(v.finished.saturating_duration_since(due)));
                self.start_lag_us
                    .push(started.saturating_duration_since(due).as_secs_f64() * 1e6);
                self.loop_ms.extend(v.loop_time.map(ms));
                self.chunks += v.chunks;
            }
            Ok(_) => {
                self.failed += 1;
                eprintln!("perfbench: a job returned a wrong result");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: a job failed: {e}");
            }
        }
    }

    /// Jobs completed per second of the phase.
    fn achieved_rate(&self) -> f64 {
        self.latency_ms.len() as f64 / self.wall.as_secs_f64()
    }

    /// Whether the offered rate was sustained: every job submitted and verified, the p99
    /// within [`P99_LIMIT_MS`], and no growing backlog — the median latency of the last
    /// quarter of arrivals at most twice that of the first quarter plus 1 ms.
    fn sustained(&self) -> bool {
        let n = self.latency_ms.len();
        if !self.complete || self.failed > 0 || n < 4 {
            return false;
        }
        let median = |part: &[f64]| stats::percentile(&stats::sorted(part.to_vec()), 500);
        let (first, last) = (
            median(&self.latency_ms[..n / 4]),
            median(&self.latency_ms[n - n / 4..]),
        );
        let p99 = stats::tail(&stats::sorted(self.latency_ms.clone()), 990).map(|t| t.value);
        match (first, last, p99) {
            (Some(first), Some(last), Some(p99)) => {
                p99 <= P99_LIMIT_MS && last <= 2.0 * first + 1.0
            }
            _ => false,
        }
    }
}

/// Drives the open loop over `arrivals`, which span `span` from the phase start. Submission
/// stops at `span` plus the p99 limit: a generator that far behind has lost the rate.
///
/// The generator yields until each due time instead of sleeping. A sleeping main thread
/// lets its CPU idle, and an idle CPU of a virtual machine can take milliseconds to get back
/// from the host when the host is busy; that delay would land on every job as generator lag
/// and wake-up time, and make the latencies measure the host.
fn open_loop(rt: &Runtime, shared: &Arc<Shared>, arrivals: &[Arrival], span: Duration) -> Phase {
    let mut phase = Phase {
        complete: true,
        ..Phase::default()
    };
    let cutoff = span + Duration::from_secs_f64(P99_LIMIT_MS / 1e3);
    let mut pending: VecDeque<(Instant, JobHandle<Started>)> = VecDeque::new();
    let start = Instant::now();
    for arrival in arrivals {
        let due = start + arrival.at;
        let now = Instant::now();
        if now < due {
            while Instant::now() < due {
                std::thread::yield_now();
            }
        }
        let submitted = Instant::now();
        if submitted - start > cutoff {
            phase.complete = false;
            break;
        }
        let handle = submit(rt, shared, arrival.job);
        phase
            .submit_us
            .push(submitted.elapsed().as_secs_f64() * 1e6);
        phase
            .generator_lag_ms
            .push(ms(submitted.saturating_duration_since(due)));
        pending.push_back((due, handle));
        while let Some(result) = pending.front().and_then(|(_, h)| h.try_wait_result()) {
            let (due, handle) = pending.pop_front().expect("front exists");
            phase.record(due, handle.stats().assist_chunks, result);
        }
    }
    for (due, handle) in pending {
        let (assist, result) = finish(handle);
        phase.record(due, assist, result);
    }
    phase.wall = start.elapsed();
    phase
}

/// Submits the jobs one at a time until `span` has passed, timing each from `submit_with` to
/// its verified result; returns the phase and the times in ms.
fn isolated(
    rt: &Runtime,
    shared: &Arc<Shared>,
    jobs: &[JobSpec],
    span: Duration,
) -> (Phase, Vec<f64>) {
    let mut phase = Phase::default();
    let mut solve_ms = Vec::new();
    let start = Instant::now();
    for &job in jobs.iter().cycle() {
        if start.elapsed() >= span {
            break;
        }
        let due = Instant::now();
        let (assist, result) = finish(submit(rt, shared, job));
        solve_ms.push(ms(due.elapsed()));
        phase.record(due, assist, result);
    }
    phase.wall = start.elapsed();
    (phase, solve_ms)
}

/// Runs the `service_mixed` workload.
pub fn run(args: &Args, recorder: Option<&Arc<Recorder>>) -> Result<Outcome, String> {
    let seed = args.seed;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut absorb = |phase: &Phase| {
        attempted += phase.attempted;
        failed += phase.failed;
    };

    // Set-up: the service, the shared inputs and a closed-loop warm-up of every shape.
    // Repeated; the last is kept.
    let warmup: Vec<JobSpec> = SHAPES
        .iter()
        .flat_map(|&shape| (0..WARMUP_PER_SHAPE as u64).map(move |key| JobSpec { shape, key }))
        .collect();
    let mut setup_s = Vec::with_capacity(SETUP_TRIALS);
    let mut kept = None;
    for _ in 0..SETUP_TRIALS {
        drop(kept.take());
        let t = Instant::now();
        let rt = crate::runtime(
            SchedulingPolicy::FairShare,
            Some(LIVE_TASK_BUDGET),
            recorder,
        );
        let shared = Arc::new(Shared::new(seed));
        let mut phase = Phase::default();
        for &job in &warmup {
            let (assist, result) = finish(submit(&rt, &shared, job));
            phase.record(Instant::now(), assist, result);
        }
        absorb(&phase);
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((rt, shared));
    }
    let (rt, shared) = kept.expect("at least one set-up trial");
    let discard = || {
        if let Some(r) = recorder {
            r.discard();
        }
    };
    discard();

    let total = args.seconds.as_secs_f64();
    let isolated_span = Duration::from_secs_f64(total * ISOLATED_SHARE);
    let fixed_span = Duration::from_secs_f64(total * FIXED_SHARE);
    let rung_span =
        Duration::from_secs_f64(total * (1.0 - ISOLATED_SHARE - FIXED_SHARE) / LADDER.len() as f64);

    let (iso, solve_ms) = isolated(
        &rt,
        &shared,
        &job_mix(seed, STREAM_ISOLATED, 1 << 16),
        isolated_span,
    );
    absorb(&iso);
    discard();

    let mut capacity = CapacityMax::default();
    let before = Counters::read(&rt);
    let fixed = open_loop(
        &rt,
        &shared,
        &schedule(seed, STREAM_FIXED, FIXED_RATE, fixed_span),
        fixed_span,
    );
    let fixed_delta = before.delta(&Counters::read(&rt));
    absorb(&fixed);
    capacity.sample(&rt);
    let window = recorder.map(|r| r.take(&LEAF_LABELS)).unwrap_or_default();

    let mut rungs = Vec::with_capacity(LADDER.len());
    let mut top_blocked = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let arrivals = schedule(seed, STREAM_LADDER + i as u64, rate, rung_span);
        let before = Counters::read(&rt);
        let phase = open_loop(&rt, &shared, &arrivals, rung_span);
        top_blocked = before.delta(&Counters::read(&rt)).admission_blocked;
        capacity.sample(&rt);
        discard();
        absorb(&phase);
        rungs.push((rate, phase));
    }

    let latency = stats::sorted(fixed.latency_ms.clone());
    let job_p50 = stats::percentile(&latency, 500).ok_or("no job completed at the fixed rate")?;
    let generator_lag = stats::sorted(fixed.generator_lag_ms.clone());
    let generator_lag_p99 = stats::tail(&generator_lag, 990).map_or(0.0, |t| t.value);

    let mut meta = Meta::default();
    meta.text("policy", rt.scheduling_policy().name());
    meta.json("live_task_budget", LIVE_TASK_BUDGET);
    meta.json("fixed_rate_per_s", FIXED_RATE);
    meta.json("p99_limit_ms", P99_LIMIT_MS);
    meta.json("headline_p50_ms", job_p50);
    // The generator sleeps to each due time; a p99 lag beyond 1 ms at the fixed rate means the
    // schedule was not kept (the latencies still count from the due times).
    meta.json("generator_behind", generator_lag_p99 > 1.0);
    meta.json("generator_lag_ms_p99", generator_lag_p99);
    let ladder: Vec<String> = rungs
        .iter()
        .map(|(rate, p)| {
            let sorted = stats::sorted(p.latency_ms.clone());
            let p99 = stats::tail(&sorted, 990).map_or(-1.0, |t| t.value);
            format!(
                "{{\"rate\": {rate}, \"jobs\": {}, \"achieved_per_s\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {p99:.4}, \"complete\": {}, \"sustained\": {}, \"assist_chunk_frac\": {:.4}}}",
                p.latency_ms.len(),
                p.achieved_rate(),
                stats::percentile(&sorted, 500).unwrap_or(-1.0),
                p.complete,
                p.sustained(),
                ratio(p.assist_chunks as f64, p.chunks as f64)
            )
        })
        .collect();
    meta.json("ladder", format!("[{}]", ladder.join(", ")));

    let mut m = Metrics::new(args.trace);
    if recorder.is_some() {
        let jobs = fixed.latency_ms.len() as f64;
        let offered = fixed.wall * WORKERS as u32;
        crate::set_common_layers(&mut m, &fixed_delta, jobs, &window, offered, &capacity);
        m.set(
            "kernels.leaf_body_ms_per_solve",
            ms(window.leaf_body) / jobs,
        );
        // Not kernel workloads: no bandwidth count and no sequential baseline.
        for name in [
            "kernels.gbytes_per_s_computed",
            "kernels.seq_ms",
            "kernels.speedup_vs_seq",
        ] {
            m.set(name, 0.0);
        }
        let p50 = |v: &[f64]| stats::percentile(&stats::sorted(v.to_vec()), 500).unwrap_or(0.0);
        let p99 = |v: &[f64]| stats::tail(&stats::sorted(v.to_vec()), 990).map_or(0.0, |t| t.value);
        m.set("jobs.latency_ms_p99", p99(&fixed.latency_ms));
        m.set("jobs.submit_us_p50", p50(&fixed.submit_us));
        m.set("jobs.start_lag_us_p50", p50(&fixed.start_lag_us));
        m.set("jobs.start_lag_us_p99", p99(&fixed.start_lag_us));
        m.set("jobs.generator_lag_ms_p99", generator_lag_p99);
        m.set(
            "assist.chunk_frac",
            ratio(fixed.assist_chunks as f64, fixed.chunks as f64),
        );
        m.set("assist.chunks", ratio(fixed_delta.assist_chunks, jobs));
        m.set("assist.loops", ratio(fixed_delta.assisted_loops, jobs));
        m.set("assist.loop_ms_p50", p50(&fixed.loop_ms));
        let (_, top) = rungs.last().expect("the ladder has rates");
        m.set("admission.blocked", top_blocked);
        m.set("admission.submit_us_p99", p99(&top.submit_us));
    } else {
        let best = rungs
            .iter()
            .rev()
            .find(|(_, p)| p.sustained())
            .ok_or(format!("no rate of the ladder {LADDER:?} was sustained"))?;
        let solve_ms = stats::sorted(solve_ms);
        let max_jobs_per_s = best.1.achieved_rate();
        crate::set_end_to_end(
            &mut m,
            &mut meta,
            setup_s,
            &solve_ms,
            &latency,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_mix() {
        let span = Duration::from_secs(2);
        assert_eq!(
            schedule(42, STREAM_FIXED, 1000.0, span),
            schedule(42, STREAM_FIXED, 1000.0, span)
        );
        assert_ne!(
            schedule(42, STREAM_FIXED, 1000.0, span),
            schedule(43, STREAM_FIXED, 1000.0, span)
        );
        assert_eq!(
            job_mix(42, STREAM_ISOLATED, 500),
            job_mix(42, STREAM_ISOLATED, 500)
        );
        assert_ne!(
            job_mix(42, STREAM_ISOLATED, 500),
            job_mix(43, STREAM_ISOLATED, 500)
        );
    }

    #[test]
    fn schedules_offer_the_requested_rate_and_every_shape() {
        let arrivals = schedule(7, STREAM_FIXED, 1000.0, Duration::from_secs(10));
        let n = arrivals.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        for shape in SHAPES {
            let share = arrivals.iter().filter(|a| a.job.shape == shape).count() as f64 / n;
            assert!((share - 0.2).abs() < 0.03, "{shape:?}: {share}");
        }
    }

    #[test]
    fn every_shape_verifies_under_a_small_service() {
        let rt = crate::runtime(SchedulingPolicy::FairShare, Some(LIVE_TASK_BUDGET), None);
        let shared = Arc::new(Shared::new(3));
        for (key, &shape) in SHAPES.iter().enumerate() {
            let started = submit(
                &rt,
                &shared,
                JobSpec {
                    shape,
                    key: key as u64,
                },
            )
            .wait_result()
            .expect("no job error")
            .expect("the root returns");
            let verdict = started
                .verdict
                .lock()
                .unwrap()
                .take()
                .expect("the check ran");
            assert!(verdict.ok, "{shape:?} computed a wrong result");
            assert_eq!(verdict.loop_time.is_some(), shape == Shape::Loop);
        }
    }

    #[test]
    fn a_wrong_result_is_caught() {
        let data = iota(16).snapshot();
        assert!(is_iota_plus(&data, 0));
        assert!(!is_iota_plus(&data, 1));
    }

    #[test]
    fn sustained_needs_the_limit_and_a_flat_backlog() {
        let phase = |latency_ms: Vec<f64>| Phase {
            complete: true,
            latency_ms,
            ..Phase::default()
        };
        assert!(phase(vec![1.0; 2000]).sustained());
        assert!(!phase(vec![P99_LIMIT_MS + 1.0; 2000]).sustained());
        let growing: Vec<f64> = (0..2000).map(|i| 0.5 + i as f64 * 0.005).collect();
        assert!(!phase(growing).sustained());
        let mut incomplete = phase(vec![1.0; 2000]);
        incomplete.complete = false;
        assert!(!incomplete.sustained());
    }
}
