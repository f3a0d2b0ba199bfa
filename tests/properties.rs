//! Property-based tests (proptest) over the workspace's core invariants.

use guardrail::dsl::ast::{Branch, Condition, Program, Statement};
use guardrail::dsl::parse_program;
use guardrail::governor::Budget;
use guardrail::graph::{acyclic_orientations, enumerate_extensions, Dag};
use guardrail::prelude::*;
use guardrail::stats::metrics::{min_max_normalize, BinaryConfusion};
use guardrail::stats::special::{gamma_p, gamma_q};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// DSL: parse ∘ print = id
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1000i32..1000, 1u32..100).prop_map(|(m, d)| Value::Float(m as f64 / d as f64)),
        "[a-zA-Z0-9 _.-]{0,12}".prop_map(Value::Str),
    ]
}

fn arb_ident() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9_-]{0,8}",
        // exercise the backquote path with spaces and keywords
        Just("has space".to_string()),
        Just("GIVEN".to_string()),
    ]
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    (
        proptest::collection::vec(arb_ident(), 1..3),
        arb_ident(),
        proptest::collection::vec((arb_value(), arb_value()), 1..4),
    )
        .prop_filter_map("self-dependence", |(mut given, on, branch_seed)| {
            given.sort();
            given.dedup();
            if given.contains(&on) {
                return None;
            }
            let branches = branch_seed
                .into_iter()
                .map(|(cv, lit)| Branch {
                    condition: Condition::new(
                        given.iter().map(|g| (g.clone(), cv.clone())).collect(),
                    ),
                    target: on.clone(),
                    literal: lit,
                })
                .collect();
            Some(Statement { given, on, branches })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dsl_print_parse_roundtrip(stmts in proptest::collection::vec(arb_statement(), 0..4)) {
        let program = Program { statements: stmts };
        prop_assume!(program.validate().is_ok());
        let printed = program.to_string();
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{printed}"));
        prop_assert_eq!(reparsed, program);
    }

    #[test]
    fn rectify_is_idempotent(seed in 0u64..500) {
        // Random zip→city style table with corruption.
        let mut csv = String::from("zip,city\n");
        for i in 0..60u64 {
            let z = (seed.wrapping_mul(31).wrapping_add(i)) % 5;
            let c = z / 2;
            csv.push_str(&format!("{z},c{c}\n"));
        }
        csv.push_str("0,c9\n"); // inject
        let table = Table::from_csv_str(&csv).unwrap();
        let program = parse_program(
            "GIVEN zip ON city HAVING \
             IF zip = 0 THEN city <- \"c0\"; IF zip = 1 THEN city <- \"c0\"; \
             IF zip = 2 THEN city <- \"c1\"; IF zip = 3 THEN city <- \"c1\"; \
             IF zip = 4 THEN city <- \"c2\";",
        ).unwrap();
        let compiled = CompiledProgram::compile(&program, &table).unwrap();
        let mut once = table.clone();
        compiled.rectify_table(&mut once);
        let compiled2 = CompiledProgram::compile(&program, &once).unwrap();
        let mut twice = once.clone();
        prop_assert_eq!(compiled2.rectify_table(&mut twice), 0);
        prop_assert_eq!(once.to_csv_string(), twice.to_csv_string());
    }
}

// ---------------------------------------------------------------------------
// Graph: orientation counting matches brute force; MEC members are equivalent
// ---------------------------------------------------------------------------

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (3usize..6).prop_flat_map(|n| {
        let all_edges: Vec<(usize, usize)> =
            (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))).collect();
        proptest::sample::subsequence(all_edges.clone(), 0..=all_edges.len().min(7))
            .prop_map(move |edges| (n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn orientation_count_matches_brute_force((n, edges) in arb_graph()) {
        let fast = acyclic_orientations(n, &edges, 1_000_000);
        prop_assert!(fast.exact);
        // Brute force over 2^E orientations.
        let mut brute = 0u64;
        for mask in 0u64..(1 << edges.len()) {
            let mut dag = Dag::new(n);
            for (i, &(u, v)) in edges.iter().enumerate() {
                let (a, b) = if mask >> i & 1 == 0 { (u, v) } else { (v, u) };
                dag.add_edge_unchecked(a, b);
            }
            if dag.topological_order().is_some() {
                brute += 1;
            }
        }
        prop_assert_eq!(fast.count, brute as f64);
    }

    #[test]
    fn mec_members_are_markov_equivalent((n, edges) in arb_graph()) {
        // Orient edges low→high: always acyclic.
        let mut dag = Dag::new(n);
        for &(u, v) in &edges {
            dag.add_edge_unchecked(u, v);
        }
        let cpdag = dag.to_cpdag();
        let (members, status) = enumerate_extensions(&cpdag, &Budget::with_work_cap(2000));
        prop_assert!(status.is_complete());
        prop_assert!(members.iter().any(|m| m == &dag), "ground truth missing from its own MEC");
        for m in &members {
            prop_assert!(m.markov_equivalent(&dag));
            prop_assert_eq!(m.to_cpdag(), cpdag.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Stats: numeric invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gamma_complement(a in 0.05f64..50.0, x in 0.0f64..100.0) {
        let sum = gamma_p(a, x) + gamma_q(a, x);
        prop_assert!((sum - 1.0).abs() < 1e-9, "P+Q = {sum}");
    }

    #[test]
    fn min_max_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..40)) {
        let out = min_max_normalize(&values);
        prop_assert_eq!(out.len(), values.len());
        prop_assert!(out.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn mcc_and_f1_ranges(tp in 0u64..50, fp in 0u64..50, tn in 0u64..50, fn_ in 0u64..50) {
        let c = BinaryConfusion { tp, fp, tn, fn_ };
        let mcc = c.mcc();
        prop_assert!(mcc.is_nan() || (-1.0..=1.0).contains(&mcc));
        let f1 = c.f1();
        prop_assert!(f1.is_nan() || (0.0..=1.0).contains(&f1));
    }
}

// ---------------------------------------------------------------------------
// Table: CSV and dictionary round-trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_roundtrip(rows in proptest::collection::vec(
        (any::<i32>(), "[a-zA-Z0-9 ,\"_-]{0,10}", any::<bool>()), 0..20)
    ) {
        let mut builder = guardrail::table::TableBuilder::new(
            vec!["i".into(), "s".into(), "b".into()],
        );
        for (i, s, b) in &rows {
            builder.push_row(vec![
                Value::Int(*i as i64),
                // Leading/trailing whitespace is trimmed by the parser;
                // normalize here so the roundtrip is well-defined. Tokens
                // that parse as non-strings (numbers, "true", "NA") change
                // type on re-read, so prefix to keep them strings.
                Value::from(format!("s{}", s.trim())),
                Value::Bool(*b),
            ]).unwrap();
        }
        let table = builder.finish().unwrap();
        let reparsed = Table::from_csv_str(&table.to_csv_string()).unwrap();
        prop_assert_eq!(reparsed.num_rows(), table.num_rows());
        for r in 0..table.num_rows() {
            for c in 0..3 {
                prop_assert_eq!(reparsed.get(r, c), table.get(r, c), "cell ({}, {})", r, c);
            }
        }
    }

    #[test]
    fn split_partitions_exactly(n in 1usize..200, frac in 0.0f64..1.0, seed in any::<u64>()) {
        let mut builder = guardrail::table::TableBuilder::new(vec!["i".into()]);
        for i in 0..n {
            builder.push_row(vec![Value::Int(i as i64)]).unwrap();
        }
        let table = builder.finish().unwrap();
        let (a, b) = SplitSpec::new(frac, seed).split(&table);
        prop_assert_eq!(a.num_rows() + b.num_rows(), n);
        let mut all: Vec<i64> = a.column(0).unwrap().iter()
            .chain(b.column(0).unwrap().iter())
            .map(|v| v.as_i64().unwrap()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n as i64).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------
// Synthesis: ε-validity of everything the synthesizer emits
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn synthesized_programs_are_epsilon_valid(seed in 0u64..1000) {
        use guardrail::datasets::{random_sem, RandomSemConfig};
        use guardrail::dsl::semantics::program_epsilon_valid;
        use rand::SeedableRng;
        let sem = random_sem(&RandomSemConfig { attrs: 5, seed, ..Default::default() });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = sem.sample(600, &mut rng);
        let config = SynthesisConfig::default();
        let guard = Guardrail::fit(&table, &config);
        prop_assert!(
            program_epsilon_valid(guard.program(), &table, config.epsilon),
            "emitted program violates its own ε bound:\n{}",
            guard.program()
        );
    }
}

// ---------------------------------------------------------------------------
// Baselines: TANE against brute-force exact-FD discovery
// ---------------------------------------------------------------------------

/// Exact-FD check by direct grouping: does `lhs → rhs` hold on `table`?
fn fd_holds(table: &Table, lhs: &[usize], rhs: usize) -> bool {
    use std::collections::HashMap;
    let mut seen: HashMap<Vec<u32>, u32> = HashMap::new();
    for row in 0..table.num_rows() {
        let key: Vec<u32> = lhs.iter().map(|&c| table.column(c).unwrap().code(row)).collect();
        let val = table.column(rhs).unwrap().code(row);
        match seen.get(&key) {
            Some(&v) if v != val => return false,
            Some(_) => {}
            None => {
                seen.insert(key, val);
            }
        }
    }
    true
}

/// All minimal exact FDs with 1 ≤ |lhs| ≤ 2 by brute force.
fn brute_force_minimal_fds(table: &Table) -> Vec<guardrail::baselines::Fd> {
    use guardrail::baselines::Fd;
    let n = table.num_columns();
    let mut out = Vec::new();
    for rhs in 0..n {
        for a in 0..n {
            if a != rhs && fd_holds(table, &[a], rhs) {
                out.push(Fd::new(vec![a], rhs));
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if a == rhs || b == rhs {
                    continue;
                }
                if fd_holds(table, &[a, b], rhs)
                    && !fd_holds(table, &[a], rhs)
                    && !fd_holds(table, &[b], rhs)
                {
                    out.push(Fd::new(vec![a, b], rhs));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tane_matches_brute_force_on_small_tables(
        rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..2, 0u8..3), 4..24)
    ) {
        use guardrail::baselines::{tane_discover, TaneConfig};
        let mut builder = guardrail::table::TableBuilder::new(
            (0..4).map(|i| format!("c{i}")).collect(),
        );
        for (a, b, c, d) in &rows {
            builder.push_row(vec![
                Value::Int(*a as i64),
                Value::Int(*b as i64),
                Value::Int(*c as i64),
                Value::Int(*d as i64),
            ]).unwrap();
        }
        let table = builder.finish().unwrap();
        let config = TaneConfig { epsilon: 0.0, max_lhs: 2, max_candidates: 100_000 };
        let tane: std::collections::HashSet<_> =
            tane_discover(&table, &config).unwrap().into_iter().collect();
        let brute: std::collections::HashSet<_> =
            brute_force_minimal_fds(&table).into_iter().collect();
        // Every TANE FD must hold exactly…
        for fd in &tane {
            prop_assert!(
                fd_holds(&table, &fd.lhs, fd.rhs),
                "TANE emitted a non-FD {fd} on\n{}",
                table.to_csv_string()
            );
        }
        // …and every minimal exact FD must be found.
        for fd in &brute {
            prop_assert!(
                tane.contains(fd),
                "TANE missed minimal FD {fd} on\n{}",
                table.to_csv_string()
            );
        }
    }
}
