//! Criterion: `Table::from_csv_bytes` on the shapes the workspace decodes.
//!
//! * `chain_200k` — a 200k × 8 categorical chain table (`b = a mod 7`,
//!   `d = (5b + c) mod 11`, `f = (d + e) mod 4`, `h = g mod 9`, 1% noise on
//!   `b` and `h`): the CLI `synth`/`check` shape, 3.5 MB of 1- and 2-byte
//!   tokens.
//! * `sem10_16_rows` and `sem10_1024_rows` — request-sized payloads of
//!   dataset #10's SEM, the shape a server `detect`/`vet`/`rectify` decodes.
//!
//! Before any timing, each input must decode to the table it was rendered
//! from, render back to its own bytes, and decode to the same codes,
//! dictionaries (first spellings included) and types as a fresh decode of
//! the same bytes.
//!
//! `CRITERION_JSON=<path>` archives the timings as JSON lines;
//! `results/bench/csv_decode.jsonl` holds the seeded reference run that
//! `bench_diff` guards against regressions.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guardrail_datasets::paper_dataset;
use guardrail_table::{Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn chain_table(rows: usize, seed: u64) -> Table {
    let names = ["a", "b", "c", "d", "e", "f", "g", "h"].map(String::from).to_vec();
    let mut builder = TableBuilder::new(names);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rows {
        let a: i64 = rng.gen_range(0..50);
        let b = if rng.gen_bool(0.01) { rng.gen_range(0..7) } else { a % 7 };
        let c: i64 = rng.gen_range(0..11);
        let d = (5 * b + c) % 11;
        let e: i64 = rng.gen_range(0..4);
        let f = (d + e) % 4;
        let g: i64 = rng.gen_range(0..20);
        let h = if rng.gen_bool(0.01) { rng.gen_range(0..9) } else { g % 9 };
        builder.push_row([a, b, c, d, e, f, g, h].map(Value::Int).to_vec()).unwrap();
    }
    builder.finish().unwrap()
}

fn sem_table(id: u8, rows: usize, seed: u64) -> Table {
    paper_dataset(id, 0).sem.sample(rows, &mut StdRng::seed_from_u64(seed))
}

/// Fails unless `csv`, rendered from `source`, decodes back to `source` and
/// to itself, identically twice.
fn assert_decodes(source: &Table, csv: &str) {
    let table = Table::from_csv_str(csv).expect("rendered CSV decodes");
    assert_eq!(&table, source, "decode returns the rendered table");
    assert!(table.to_csv_string() == csv, "decode renders back to its input");
    let again = Table::from_csv_str(csv).unwrap();
    assert_eq!(table, again, "codes");
    for (a, b) in table.columns().iter().zip(again.columns()) {
        let (a, b) = (a.dictionary().values(), b.dictionary().values());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "dictionaries");
    }
    let types = |t: &Table| format!("{:?}", t.schema().fields());
    assert_eq!(types(&table), types(&again), "types");
}

fn bench_csv_decode(c: &mut Criterion) {
    let inputs = [
        ("chain_200k", chain_table(200_000, 1)),
        ("sem10_16_rows", sem_table(10, 16, 1)),
        ("sem10_1024_rows", sem_table(10, 1024, 1)),
    ]
    .map(|(name, table)| {
        let csv = table.to_csv_string();
        assert_decodes(&table, &csv);
        (name, csv)
    });
    let mut group = c.benchmark_group("csv_decode");
    group.sample_size(20);
    for (name, csv) in &inputs {
        group
            .bench_function(*name, |b| b.iter(|| Table::from_csv_bytes(black_box(csv.as_bytes()))));
    }
    group.finish();
}

criterion_group!(benches, bench_csv_decode);
criterion_main!(benches);
