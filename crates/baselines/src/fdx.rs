//! FDX: statistical FD discovery (Zhang et al. \[43\]).
//!
//! FDX models the auxiliary binary distribution (Def. 4.5) with a **linear**
//! structural equation model and reads FDs off the estimated autoregressive
//! structure. Our implementation follows that recipe:
//!
//! 1. sample the auxiliary indicator matrix with the circular-shift trick;
//! 2. estimate its covariance and invert it (graphical-model estimation —
//!    the precision matrix's nonzeros are the conditional dependencies under
//!    the linearity assumption);
//! 3. keep attribute pairs whose partial correlation exceeds a threshold;
//! 4. orient each kept pair by match-rate asymmetry: for a true FD `A → B`,
//!    matching `A`-values force matching `B`-values, so
//!    `P(𝕀_B = 1) ≥ P(𝕀_A = 1)`; orient from the lower-match-rate attribute
//!    to the higher.
//!
//! §6 of the Guardrail paper argues the linear-additive assumption is wrong
//! for binary indicators, and Table 3 shows the consequences: an
//! ill-conditioned inversion on dataset #3 (surfaced here as
//! [`BaselineError::Numerical`]) and degenerate all-rows-flagged behavior.
//! Both failure modes are reproduced faithfully rather than patched.

use crate::fd::Fd;
use crate::BaselineError;
use guardrail_pgm::{auxiliary_sample, EncodedData};
use guardrail_stats::descriptive::{covariance_matrix, invert_matrix};
use guardrail_table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FDX configuration.
#[derive(Debug, Clone, Copy)]
pub struct FdxConfig {
    /// Target auxiliary pair count.
    pub aux_pairs: usize,
    /// Partial-correlation magnitude needed to keep an edge.
    pub tau: f64,
    /// Sampler seed.
    pub seed: u64,
}

impl Default for FdxConfig {
    fn default() -> Self {
        Self { aux_pairs: 20_000, tau: 0.12, seed: 0xFD }
    }
}

/// Runs FDX on `table`, returning single-attribute FDs.
pub fn fdx_discover(table: &Table, config: &FdxConfig) -> Result<Vec<Fd>, BaselineError> {
    let encoded = EncodedData::from_table(table);
    let d = encoded.num_attrs();
    if encoded.num_rows() < 2 || d < 2 {
        return Ok(Vec::new());
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let aux = auxiliary_sample(&encoded, config.aux_pairs, &mut rng);
    let n = aux.num_rows();

    // Row-major n × d matrix of indicators.
    let mut data = vec![0.0f64; n * d];
    for (j, col) in (0..d).map(|j| (j, aux.column(j))) {
        for i in 0..n {
            data[i * d + j] = col[i] as f64;
        }
    }
    let cov = covariance_matrix(&data, n, d);
    // Constant indicator columns (key-like attributes whose values never
    // repeat, so 𝕀 ≡ 0, or constant attributes) carry no signal; FDX drops
    // them from the linear model. What it cannot survive is *collinearity*
    // among the remaining indicators — e.g. bijectively dependent attributes
    // with identical indicator vectors — which leaves Σ singular: the
    // paper's dataset #3 failure mode.
    let active: Vec<usize> = (0..d).filter(|&i| cov[i * d + i] >= 1e-9).collect();
    if active.len() < 2 {
        return Err(BaselineError::Numerical(
            "fewer than two non-degenerate indicator columns".into(),
        ));
    }
    let k = active.len();
    let mut sub = vec![0.0; k * k];
    for (ri, &i) in active.iter().enumerate() {
        for (rj, &j) in active.iter().enumerate() {
            sub[ri * k + rj] = cov[i * d + j];
        }
    }
    // Light ridge regularization (as in regularized graphical estimation);
    // exact or near-exact collinearity still surfaces as an exploding
    // precision matrix, which is the genuine failure condition.
    let ridge = 1e-6 * sub.iter().step_by(k + 1).sum::<f64>() / k as f64;
    for i in 0..k {
        sub[i * k + i] += ridge;
    }
    let theta_sub = invert_matrix(&sub, k)
        .ok_or_else(|| BaselineError::Numerical("ill-conditioned covariance inversion".into()))?;
    let magnitude = theta_sub.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if magnitude > 1e7 {
        return Err(BaselineError::Numerical(format!(
            "collinear indicators: precision magnitude {magnitude:.1e}"
        )));
    }
    // Re-embed into d × d with zeros for dropped columns.
    let mut theta = vec![0.0; d * d];
    for (ri, &i) in active.iter().enumerate() {
        for (rj, &j) in active.iter().enumerate() {
            theta[i * d + j] = theta_sub[ri * k + rj];
        }
    }
    // Guard against a numerically garbage inverse (huge entries mean the
    // ridge did not save us).
    if theta.iter().any(|x| !x.is_finite()) {
        return Err(BaselineError::Numerical("non-finite precision matrix".into()));
    }

    // Match rates for orientation.
    let match_rate: Vec<f64> =
        (0..d).map(|j| aux.column(j).iter().map(|&b| b as f64).sum::<f64>() / n as f64).collect();

    let mut fds = Vec::new();
    for i in 0..d {
        for j in (i + 1)..d {
            let denom = (theta[i * d + i] * theta[j * d + j]).sqrt();
            if denom <= 0.0 || !denom.is_finite() {
                continue;
            }
            let pcorr = -theta[i * d + j] / denom;
            if pcorr.abs() < config.tau {
                continue;
            }
            // Orient low match rate → high match rate (determinant has more
            // distinct structure, dependent is implied).
            let (from, to) = if match_rate[i] <= match_rate[j] { (i, j) } else { (j, i) };
            fds.push(Fd::new(vec![from], to));
        }
    }
    Ok(fds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_table(n: usize) -> Table {
        // zip → city → state (deterministic), plus an independent column
        // (hash-mixed so it shares no modular structure with zip).
        let mut csv = String::from("zip,city,state,noise\n");
        for i in 0..n {
            let zip = i % 6;
            let city = zip / 2;
            let state = usize::from(city == 2);
            let noise = (i.wrapping_mul(2654435761) >> 13) % 4;
            csv.push_str(&format!("{zip},c{city},s{state},n{noise}\n"));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    #[test]
    fn discovers_chain_edges_and_orientation() {
        let fds = fdx_discover(&chain_table(2000), &FdxConfig::default()).unwrap();
        assert!(fds.contains(&Fd::new(vec![0], 1)), "zip→city missing: {fds:?}");
        assert!(fds.contains(&Fd::new(vec![1], 2)), "city→state missing: {fds:?}");
        // No FD involving the noise column.
        assert!(fds.iter().all(|fd| fd.rhs != 3 && !fd.lhs.contains(&3)), "{fds:?}");
    }

    #[test]
    fn ill_conditioned_failure_mode() {
        // Two all-distinct columns: both indicators are constant zero under
        // every shift, the covariance is singular, and FDX dies — the
        // paper's dataset #3 behavior.
        let mut csv = String::from("id1,id2\n");
        for i in 0..300 {
            csv.push_str(&format!("u{i},v{i}\n"));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let out = fdx_discover(&t, &FdxConfig::default());
        assert!(matches!(out, Err(BaselineError::Numerical(_))), "{out:?}");
    }

    #[test]
    fn independent_columns_yield_no_fds() {
        // Independently seeded generators: the columns share no structure.
        use rand::{Rng, SeedableRng};
        let mut ra = rand::rngs::StdRng::seed_from_u64(11);
        let mut rb = rand::rngs::StdRng::seed_from_u64(47);
        let mut csv = String::from("a,b\n");
        for _ in 0usize..1500 {
            let a = ra.gen_range(0u8..5);
            let b = rb.gen_range(0u8..4);
            csv.push_str(&format!("{a},{b}\n"));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let fds = fdx_discover(&t, &FdxConfig::default()).unwrap();
        assert!(fds.is_empty(), "{fds:?}");
    }

    #[test]
    fn tiny_inputs_degrade_gracefully() {
        let t = Table::from_csv_str("a,b\n1,2\n").unwrap();
        assert_eq!(fdx_discover(&t, &FdxConfig::default()).unwrap(), Vec::new());
    }
}
