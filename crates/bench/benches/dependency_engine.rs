//! Micro-benchmarks of the dependency engine itself (no threads): registration and release
//! throughput for the access patterns that dominate the paper's kernels, plus an ablation of
//! weak vs. strong outer accesses (how much work the engine does to link domains).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use weakdep_core::{AccessType, DependencyEngine, FootprintEntry, Region, SpaceId, WaitMode};

fn region(start: usize, end: usize) -> Region {
    Region::new(SpaceId(1), start, end)
}

/// Registers and immediately completes a chain of `n` tasks with an `inout` dependency over the
/// same block (the axpy inter-call pattern).
fn chain(n: usize) {
    let engine = DependencyEngine::new();
    let root = engine.register_root();
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let (id, _ready) = engine
            .register_task(
                root,
                &[FootprintEntry::new(AccessType::InOut, region(0, 4096))],
                WaitMode::None,
            )
            .expect("live parent");
        ids.push(id);
    }
    for id in ids {
        engine.body_finished(id).expect("live task");
    }
}

/// Registers `calls` outer weak tasks each carrying `blocks` strong children over disjoint
/// blocks (the nest-weak axpy pattern), then completes everything.
fn nested_weak(calls: usize, blocks: usize) {
    let block_bytes = 1024usize;
    let total = blocks * block_bytes;
    let engine = DependencyEngine::new();
    let root = engine.register_root();
    let mut order = Vec::new();
    for _ in 0..calls {
        let (outer, _) = engine
            .register_task(
                root,
                &[FootprintEntry::new(AccessType::WeakInOut, region(0, total))],
                WaitMode::WeakWait,
            )
            .expect("live parent");
        for b in 0..blocks {
            let (inner, _) = engine
                .register_task(
                    outer,
                    &[FootprintEntry::new(
                        AccessType::InOut,
                        region(b * block_bytes, (b + 1) * block_bytes),
                    )],
                    WaitMode::None,
                )
                .expect("live parent");
            order.push(inner);
        }
        order.push(outer);
    }
    for id in order {
        engine.body_finished(id).expect("live task");
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency-engine");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("inout-chain", n), &n, |b, &n| {
            b.iter(|| chain(n));
        });
    }
    for &(calls, blocks) in &[(10usize, 100usize), (20, 500)] {
        let tasks = calls * (blocks + 1);
        group.throughput(Throughput::Elements(tasks as u64));
        group.bench_with_input(
            BenchmarkId::new("nested-weak", format!("{calls}x{blocks}")),
            &(calls, blocks),
            |b, &(calls, blocks)| {
                b.iter(|| nested_weak(calls, blocks));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
