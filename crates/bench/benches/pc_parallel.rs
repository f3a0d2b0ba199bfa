//! Criterion: parallel PC-stable skeleton phase vs. the sequential baseline.
//!
//! Per-edge CI tests within one level of PC-stable are independent given the
//! previous level's adjacency snapshot, so the skeleton phase fans them out
//! across worker threads. The merge is deterministic, so before timing
//! anything the bench asserts the parallel CPDAG is identical to the
//! sequential one — a speedup that changes the answer is not a speedup.
//!
//! Measured variants:
//!
//! * `sequential` / `threads-2` — a fresh oracle per iteration, built
//!   outside the timing, so each run starts with empty memos and computes
//!   every distinct CI test: the raw parallel speedup.
//! * `cached/sequential` / `cached/threads-2` — one oracle across
//!   iterations, its memos warm: how much headroom remains once
//!   memoization has taken its share.
//!
//! The parallel variants run a fixed two workers, whatever the host's
//! thread count, so their names match the seeded lines on every runner.
//!
//! `CRITERION_JSON=<path>` archives the timings as JSON lines.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use guardrail_datasets::chaos;
use guardrail_governor::{Budget, Parallelism};
use guardrail_pgm::{pc_algorithm, DataOracle, EncodedData, PcConfig};

/// Worker count of the parallel variants.
const THREADS: usize = 2;

fn config(parallelism: Parallelism) -> PcConfig {
    PcConfig { max_cond_size: 3, parallelism }
}

fn bench_pc_parallel(c: &mut Criterion) {
    // Dense pairwise dependence: the skeleton phase runs hundreds of CI
    // tests per level, which is the regime the parallel fan-out targets.
    let table = chaos::entangled_table(12, 2000, 9);
    let encoded = EncodedData::from_table(&table);

    // Correctness gate: parallel and sequential must agree bit-for-bit.
    let unlimited = Budget::unlimited();
    let seq = pc_algorithm(&DataOracle::new(&encoded), config(Parallelism::Sequential), &unlimited);
    let par =
        pc_algorithm(&DataOracle::new(&encoded), config(Parallelism::threads(THREADS)), &unlimited);
    assert_eq!(seq.0, par.0, "parallel PC must produce the sequential CPDAG");
    assert_eq!(seq.1.is_complete(), par.1.is_complete());

    let mut group = c.benchmark_group("pc_parallel");
    group.sample_size(20);
    for (name, parallelism) in [
        ("sequential".to_string(), Parallelism::Sequential),
        (format!("threads-{THREADS}"), Parallelism::threads(THREADS)),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || DataOracle::new(&encoded),
                |oracle| pc_algorithm(black_box(&oracle), config(parallelism), &unlimited),
                BatchSize::SmallInput,
            )
        });
    }
    for (name, parallelism) in [
        ("cached/sequential".to_string(), Parallelism::Sequential),
        (format!("cached/threads-{THREADS}"), Parallelism::threads(THREADS)),
    ] {
        group.bench_function(name, |b| {
            let oracle = DataOracle::new(&encoded);
            b.iter(|| pc_algorithm(black_box(&oracle), config(parallelism), &unlimited))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pc_parallel);
criterion_main!(benches);
