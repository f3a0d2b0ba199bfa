//! Seeded inputs: tables sampled from the `datasets` SEMs, the 200k-row
//! chain table, dirty copies, and CSV payload slicing.
//!
//! `paper_dataset` pins its own sampling seed, so the benchmark takes only
//! the generating SEM from it and samples that with the run's seed.

use guardrail_datasets::{inject_errors, paper_dataset, InjectConfig};
use guardrail_table::{Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mixes a run seed with a per-use salt so that each input gets its own
/// stream and no two inputs share a draw.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// A paper dataset's SEM sampled at `rows` rows with the run's seed, plus
/// the index of its label column.
pub fn sem_table(id: u8, rows: usize, seed: u64) -> (Table, usize) {
    let generated = paper_dataset(id, 0);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, id as u64));
    (generated.sem.sample(rows, &mut rng), generated.label_col)
}

/// The 8-column categorical chain table of the ROADMAP probe:
/// `b = a mod 7`, `d = (5b + c) mod 11`, `f = (d + e) mod 4`,
/// `h = g mod 9`, with 1% noise on `b` and `h`.
pub fn chain_table(rows: usize, seed: u64) -> Table {
    let names = ["a", "b", "c", "d", "e", "f", "g", "h"].map(String::from).to_vec();
    let mut builder = TableBuilder::new(names);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0xC4A1));
    for _ in 0..rows {
        let a: i64 = rng.gen_range(0..50);
        let b = if rng.gen_bool(0.01) { rng.gen_range(0..7) } else { a % 7 };
        let c: i64 = rng.gen_range(0..11);
        let d = (5 * b + c) % 11;
        let e: i64 = rng.gen_range(0..4);
        let f = (d + e) % 4;
        let g: i64 = rng.gen_range(0..20);
        let h = if rng.gen_bool(0.01) { rng.gen_range(0..9) } else { g % 9 };
        let row = [a, b, c, d, e, f, g, h].map(Value::Int).to_vec();
        builder.push_row(row).expect("arity matches the header");
    }
    builder.finish().expect("non-empty schema")
}

/// A copy of `table` with errors injected at the `inject_errors` defaults
/// (1% of rows, one cell each), optionally restricted to `columns`.
pub fn dirty_copy(table: &Table, columns: Option<Vec<usize>>, seed: u64) -> Table {
    let mut dirty = table.clone();
    let config = InjectConfig { columns, seed: sub_seed(seed, 0xBAD), ..InjectConfig::default() };
    inject_errors(&mut dirty, &config);
    dirty
}

/// A table rendered as CSV, kept as its header line and one line per row,
/// so payloads of any row range can be cut without re-rendering.
pub struct CsvLines {
    pub header: String,
    pub rows: Vec<String>,
}

impl CsvLines {
    pub fn new(table: &Table) -> Self {
        let text = table.to_csv_string();
        let mut lines = text.lines().map(str::to_string);
        let header = lines.next().unwrap_or_default();
        CsvLines { header, rows: lines.collect() }
    }

    /// CSV text of the header plus rows `start..start + len`.
    pub fn payload(&self, start: usize, len: usize) -> String {
        let rows = &self.rows[start..start + len];
        let mut out = String::with_capacity(
            self.header.len() + rows.iter().map(String::len).sum::<usize>() + len + 1,
        );
        out.push_str(&self.header);
        out.push('\n');
        for row in rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}

/// `n` draws whose composition is fixed: value `cells[i].0` appears
/// `n * cells[i].1` times (largest remainders round), in an order shuffled
/// by `rng`. Only the order depends on the seed, so every seed runs the
/// same mix.
pub fn stratified<T: Copy>(n: usize, cells: &[(T, f64)], rng: &mut StdRng) -> Vec<T> {
    let exact: Vec<f64> = cells.iter().map(|c| c.1 * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..cells.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite weights").then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().cycle().take(short) {
        counts[i] += 1;
    }
    let mut out: Vec<T> =
        cells.iter().zip(&counts).flat_map(|(c, &k)| std::iter::repeat_n(c.0, k)).collect();
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..=i);
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_mix_is_exact_and_seeded() {
        let cells = [(16, 0.6), (128, 0.3), (1024, 0.1)];
        let a = stratified(1000, &cells, &mut StdRng::seed_from_u64(1));
        let b = stratified(1000, &cells, &mut StdRng::seed_from_u64(2));
        assert_eq!(a.len(), 1000);
        for (value, weight) in cells {
            let expect = (weight * 1000.0_f64).round() as usize;
            assert_eq!(a.iter().filter(|&&x| x == value).count(), expect);
            assert_eq!(b.iter().filter(|&&x| x == value).count(), expect);
        }
        assert_ne!(a, b);
        let thirds = stratified(
            10,
            &[(0, 1.0 / 3.0), (1, 1.0 / 3.0), (2, 1.0 / 3.0)],
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(thirds.len(), 10);
    }
}
