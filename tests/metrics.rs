//! Property and concurrency tests for the lock-free histogram at the heart
//! of `obs::metrics`.
//!
//! Three families of claims, none of which the unit tests in the module can
//! pin as hard as random inputs do:
//!
//! * **Merge is a lattice join on the count vectors**: merging histograms
//!   is associative and commutative, and merged quantiles equal the
//!   quantiles of recording the concatenated sample into one histogram —
//!   the property parallel workers rely on when they record locally and
//!   merge at the end.
//! * **Quantile error is bounded by the bucket scheme**: for any sample
//!   and any rank, the reported quantile lands in the same log-linear
//!   bucket as the exact order statistic (≤25% relative width above 16,
//!   exact below), and never exceeds the true maximum.
//! * **Concurrent recording loses nothing**: N threads hammering one
//!   histogram account for every observation in `count`/`sum`, and every
//!   bucket total matches a single-threaded replay of the same values.

use guardrail::obs::metrics::{bucket_index, bucket_upper, Histogram};
use proptest::prelude::*;

/// Records a sample into a fresh histogram.
fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The exact order statistic the histogram's `quantile(q)` approximates:
/// the value at rank `ceil(q * n)` (1-based) of the sorted sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Values spanning every bucket regime: exact small values, the log-linear
/// mid range, and the clamped giants near `u64::MAX`.
fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..16,
        16u64..100_000,
        any::<u64>().prop_map(|v| v % 1_000_000_000_000),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative_and_associative(
        a in proptest::collection::vec(arb_value(), 0..200),
        b in proptest::collection::vec(arb_value(), 0..200),
        c in proptest::collection::vec(arb_value(), 0..200),
    ) {
        // (a ∪ b) ∪ c, recorded pairwise in both association orders and
        // both argument orders, must equal one histogram of the
        // concatenation — bucket vector, count, sum, and max alike.
        let ab_c = hist_of(&a);
        ab_c.merge_from(&hist_of(&b));
        ab_c.merge_from(&hist_of(&c));

        let a_bc = hist_of(&c);
        a_bc.merge_from(&hist_of(&b));
        a_bc.merge_from(&hist_of(&a));

        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let flat = hist_of(&all);

        for h in [&ab_c, &a_bc] {
            prop_assert_eq!(h.bucket_counts(), flat.bucket_counts());
            prop_assert_eq!(h.count(), flat.count());
            prop_assert_eq!(h.sum(), flat.sum());
            prop_assert_eq!(h.max(), flat.max());
        }
        for q in [0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(ab_c.quantile(q), flat.quantile(q));
            prop_assert_eq!(a_bc.quantile(q), flat.quantile(q));
        }
    }

    #[test]
    fn quantiles_land_in_the_exact_order_statistic_bucket(
        mut values in proptest::collection::vec(arb_value(), 1..400),
        q in 0.0f64..1.0,
    ) {
        let h = hist_of(&values);
        values.sort_unstable();
        let exact = exact_quantile(&values, q);
        let got = h.quantile(q);
        // Same bucket as the true order statistic: the report never
        // undershoots the exact value's bucket and never overshoots its
        // upper bound (≤25% relative width in the log-linear range).
        prop_assert_eq!(
            bucket_index(got), bucket_index(exact),
            "q={} exact={} got={}", q, exact, got
        );
        prop_assert!(got >= exact);
        prop_assert!(got <= bucket_upper(bucket_index(exact)));
        // And the global cap: no quantile exceeds the observed maximum.
        prop_assert!(got <= h.max());
    }

    #[test]
    fn max_quantile_is_exact(values in proptest::collection::vec(arb_value(), 1..200)) {
        let h = hist_of(&values);
        prop_assert_eq!(h.quantile(1.0), *values.iter().max().unwrap());
    }
}

#[test]
fn concurrent_recording_loses_no_observations() {
    // 8 threads × 40k records into one histogram; totals and every bucket
    // must match a single-threaded replay. Exercises the relaxed
    // fetch_add/fetch_max path under real contention.
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 40_000;
    let shared = Histogram::new();
    let value_of = |t: u64, i: u64| {
        // Deterministic per-thread mix hitting exact, mid, and huge buckets.
        let x = t
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i)
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
        x >> (x % 64)
    };
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    shared.record(value_of(t, i));
                }
            });
        }
    });

    let replay = Histogram::new();
    let mut max = 0u64;
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let v = value_of(t, i);
            replay.record(v);
            max = max.max(v);
        }
    }
    assert_eq!(shared.count(), THREADS * PER_THREAD, "every record accounted for");
    assert_eq!(shared.sum(), replay.sum(), "sums agree (mod 2^64) with a serial replay");
    assert_eq!(shared.max(), max);
    assert_eq!(
        shared.bucket_counts(),
        replay.bucket_counts(),
        "per-bucket totals match a serial replay"
    );
}
