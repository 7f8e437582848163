//! Traced runs: the per-layer metrics (`--trace 1`). This binary counts heap allocations
//! with the bench crate's counting allocator (the one its `count-allocs` builds install), so
//! the untraced binary pays nothing for it.

#[global_allocator]
static ALLOC: weakdep_bench::alloc_counter::CountingAllocator =
    weakdep_bench::alloc_counter::CountingAllocator;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
