//! Parallel-execution suite: determinism and governability of the threaded
//! hot paths.
//!
//! Three invariants, checked through the public facade:
//!
//! 1. **Thread-count invariance.** Synthesis and detection produce
//!    bit-identical results at 1, 2, and N workers — parallelism is a
//!    throughput knob, never a semantics knob.
//! 2. **Cache transparency.** An oracle answering from its memos agrees
//!    with a fresh oracle and with the reference CI test, and the memos a
//!    fit's workers share count the same at any thread count.
//! 3. **Budgets reach into parallel stages.** Deadlines and caps interrupt
//!    a parallel PC level mid-flight, and the degraded result keeps the
//!    conservative-supergraph guarantee.

use std::time::{Duration, Instant};

use guardrail::datasets::chaos;
use guardrail::graph::NodeSet;
use guardrail::pgm::{
    pc_algorithm, DataOracle, EncodedData, IndependenceOracle, PcConfig, Sampler, SlowOracle,
};
use guardrail::prelude::*;
use guardrail::stats::{ci_test_reference, CiTestKind, StratumPack};
use proptest::prelude::*;

/// Generous wall-clock ceiling for "returned promptly".
const PROMPT: Duration = Duration::from_secs(30);

/// zip → city → state chain with mild noise plus an unconstrained column:
/// enough structure that synthesis produces a non-trivial program.
fn structured_table(seed: u64, rows: usize) -> Table {
    let mut csv = String::from("zip,city,state,extra\n");
    let mut s = seed.wrapping_mul(2654435761).max(1);
    for _ in 0..rows {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let z = s % 6;
        let c = if s % 97 == 0 { (z + 1) % 3 } else { z / 2 };
        let st = if s % 89 == 0 { (c + 1) % 2 } else { c / 2 };
        csv.push_str(&format!("{z},c{c},s{st},{}\n", (s >> 8) % 5));
    }
    Table::from_csv_str(&csv).unwrap()
}

#[test]
fn fit_and_detect_are_identical_at_any_thread_count() {
    let table = structured_table(3, 2500);
    let dirty = structured_table(4, 500);
    let baseline = Guardrail::builder()
        .config(GuardrailConfig::default().with_parallelism(Parallelism::Sequential))
        .fit(&table)
        .expect("schema is supported");
    let base_report = baseline.detect(&dirty);
    assert!(!baseline.program().statements.is_empty(), "nothing synthesized");
    for threads in [2, 4, 16] {
        let guard = Guardrail::builder()
            .config(GuardrailConfig::default().with_parallelism(Parallelism::threads(threads)))
            .fit(&table)
            .expect("schema is supported");
        assert_eq!(
            guard.program().to_string(),
            baseline.program().to_string(),
            "{threads} threads: program differs"
        );
        assert_eq!(guard.coverage(), baseline.coverage(), "{threads} threads");
        let report = guard.detect(&dirty);
        assert_eq!(report.violations, base_report.violations, "{threads} threads");
        for scheme in [ErrorScheme::Coerce, ErrorScheme::Rectify] {
            let (seq_fixed, seq_rep) = baseline.apply(&dirty, scheme);
            let (par_fixed, par_rep) = guard.apply(&dirty, scheme);
            assert_eq!(seq_rep.cells_changed, par_rep.cells_changed, "{threads}/{scheme:?}");
            assert_eq!(
                seq_fixed.to_csv_string(),
                par_fixed.to_csv_string(),
                "{threads}/{scheme:?}"
            );
        }
    }
}

/// `Sampler::Identity` runs PC on the raw table, so its non-binary columns
/// take the packed path and every pair tested against one conditioning set
/// shares its entry in the packs memo across workers.
#[test]
fn identity_sampler_fit_is_thread_count_invariant() {
    let table = structured_table(11, 3000);
    let mut config = GuardrailConfig::default();
    config.learn.sampler = Sampler::Identity;
    let fit = |threads: usize| {
        Guardrail::builder()
            .config(config.with_parallelism(Parallelism::threads(threads)))
            .fit(&table)
            .expect("schema is supported")
    };
    let seq = fit(1);
    let oracle = seq.outcome().oracle_cache;
    assert!(oracle.packed_tests > 0, "identity fit must take the packed path: {oracle:?}");
    for threads in [2, 3] {
        let par = fit(threads);
        assert_eq!(par.program().to_string(), seq.program().to_string(), "{threads} threads");
        assert_eq!(par.outcome().oracle_cache, oracle, "{threads} threads");
        assert_eq!(par.outcome().cache_stats, seq.outcome().cache_stats, "{threads} threads");
    }
}

#[test]
fn deadline_interrupts_a_parallel_pc_level() {
    // Dense pairwise dependence keeps PC busy for a long time, and the slow
    // oracle makes each CI test take ~1ms, so the 30ms deadline lands
    // mid-level while worker threads are in flight.
    let table = chaos::entangled_table(14, 600, 21);
    let encoded = EncodedData::from_table(&table);
    let slow = SlowOracle::new(DataOracle::new(&encoded), 2_000_000);
    let budget = Budget::with_deadline(Duration::from_millis(30));
    let start = Instant::now();
    let (pdag, status) = pc_algorithm(
        &slow,
        PcConfig { parallelism: Parallelism::threads(4), ..PcConfig::default() },
        &budget,
    );
    assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());
    assert!(!status.is_complete(), "a run past its deadline must report degradation");
    assert_eq!(pdag.num_nodes(), 14, "degraded CPDAG still covers all variables");
}

#[test]
fn work_cap_tripping_mid_level_keeps_justified_removals_only() {
    // Every removal in a budget-interrupted parallel level must be backed by
    // a completed independence verdict: re-running sequentially without a
    // budget must remove at least those edges (conservative supergraph).
    let table = structured_table(7, 1500);
    let encoded = EncodedData::from_table(&table);
    let oracle = DataOracle::new(&encoded);
    let full = pc_algorithm(
        &oracle,
        PcConfig { parallelism: Parallelism::Sequential, ..PcConfig::default() },
        &Budget::unlimited(),
    )
    .0;
    for cap in [1u64, 3, 6, 10] {
        let oracle = DataOracle::new(&encoded);
        let (capped, status) = pc_algorithm(
            &oracle,
            PcConfig { parallelism: Parallelism::threads(4), ..PcConfig::default() },
            &Budget::with_work_cap(cap),
        );
        assert!(!status.is_complete(), "cap {cap} must exhaust");
        for x in 0..full.num_nodes() {
            for y in (x + 1)..full.num_nodes() {
                if full.adjacent(x, y) {
                    assert!(
                        capped.adjacent(x, y),
                        "cap {cap}: edge ({x},{y}) of the full skeleton was dropped"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Synthesis is thread-count invariant across random inputs: the
    /// program, the work it charged and the statement-cache counters.
    #[test]
    fn synthesis_is_thread_count_invariant(seed in 0u64..500) {
        let table = structured_table(seed, 400);
        let work_units = |g: &Guardrail| {
            let stage = g.report().find("synthesis")?;
            stage.metrics.iter().find(|(k, _)| k == "work_units").map(|(_, v)| v.clone())
        };
        let seq = Guardrail::builder()
            .config(GuardrailConfig::default().with_parallelism(Parallelism::Sequential))
            .fit(&table)
            .unwrap();
        prop_assert!(work_units(&seq).is_some());
        for threads in [2, 3] {
            let par = Guardrail::builder()
            .config(GuardrailConfig::default().with_parallelism(Parallelism::threads(threads)))
                .fit(&table)
                .unwrap();
            prop_assert_eq!(seq.program().to_string(), par.program().to_string());
            prop_assert_eq!(seq.coverage(), par.coverage());
            prop_assert_eq!(work_units(&seq), work_units(&par), "{} threads", threads);
            prop_assert_eq!(
                seq.outcome().cache_stats,
                par.outcome().cache_stats,
                "{} threads",
                threads
            );
        }
    }

    /// The oracle's memos never change an independence verdict: a warm
    /// oracle agrees with a fresh one and with the reference test on every
    /// query of a random table.
    #[test]
    fn oracle_cache_is_transparent(seed in 0u64..500) {
        let table = structured_table(seed, 300);
        let encoded = EncodedData::from_table(&table);
        let warm = DataOracle::new(&encoded);
        let n = encoded.num_attrs();
        for x in 0..n {
            for y in 0..n {
                if x == y { continue; }
                for z in 0..n {
                    if z == x || z == y { continue; }
                    let zset = NodeSet::singleton(z);
                    let got = warm.ci_result(x, y, zset);
                    let fresh = DataOracle::new(&encoded);
                    prop_assert_eq!(got, fresh.ci_result(x, y, zset), "x={} y={} z={}", x, y, z);
                    prop_assert_eq!(
                        warm.independent(x, y, zset),
                        fresh.independent(x, y, zset),
                        "x={} y={} z={}", x, y, z
                    );
                    if let Some(got) = got {
                        let (a, b) = (x.min(y), x.max(y));
                        let pack = StratumPack::pack(&[encoded.column(z)], &[encoded.card(z)]);
                        let want = ci_test_reference(
                            CiTestKind::G2,
                            encoded.column(a),
                            encoded.column(b),
                            Some(pack.unwrap().keys()),
                            encoded.card(a),
                            encoded.card(b),
                        );
                        prop_assert_eq!(got, want, "x={} y={} z={}", x, y, z);
                    }
                }
            }
        }
    }
}
