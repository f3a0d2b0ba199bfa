//! Integration: baselines vs Guardrail on data with known constraints.

use guardrail::baselines::{
    ctane_discover, detect_fd_violations, fdx_discover, tane_discover, CtaneConfig, Fd, FdxConfig,
    TaneConfig,
};
use guardrail::datasets::{inject_errors, InjectConfig};
use guardrail::prelude::*;
use guardrail::stats::metrics::confusion_from_indices;

/// zip → city → state chain with 2% exogenous noise, plus a noise column.
fn chain_table(rows: usize) -> Table {
    let mut csv = String::from("zip,city,state,noise\n");
    let mut s1 = 0x12345u64;
    let mut s2 = 0xABCDEu64;
    let next = |s: &mut u64| {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    };
    for _ in 0..rows {
        let zip = next(&mut s1) % 8;
        let city = zip / 3;
        let state = u64::from(city == 2);
        let noise = next(&mut s2) % 5;
        csv.push_str(&format!("{zip},c{city},s{state},n{noise}\n"));
    }
    Table::from_csv_str(&csv).unwrap()
}

#[test]
fn tane_and_guardrail_agree_on_the_backbone() {
    let table = chain_table(3000);
    let fds = tane_discover(&table, &TaneConfig { epsilon: 0.0, ..Default::default() }).unwrap();
    assert!(fds.contains(&Fd::new(vec![0], 1)), "TANE misses zip→city: {fds:?}");
    assert!(fds.contains(&Fd::new(vec![1], 2)), "TANE misses city→state: {fds:?}");

    let guard = Guardrail::builder().fit(&table).unwrap();
    let constrained: Vec<(&str, Vec<&str>)> = guard
        .program()
        .statements
        .iter()
        .map(|s| (s.on.as_str(), s.given.iter().map(|g| g.as_str()).collect()))
        .collect();
    assert!(
        constrained.iter().any(|(on, given)| {
            (*on == "city" && given == &vec!["zip"]) || (*on == "zip" && given == &vec!["city"])
        }),
        "Guardrail misses the zip↔city relationship: {constrained:?}"
    );
}

#[test]
fn guardrail_is_more_succinct_than_tane() {
    // TANE reports the full minimal cover including transitive consequences
    // (e.g. zip → state); Guardrail's GNT sketch should not contain a
    // statement skipping over the chain.
    let table = chain_table(4000);
    let fds = tane_discover(&table, &TaneConfig { epsilon: 0.0, ..Default::default() }).unwrap();
    assert!(
        fds.contains(&Fd::new(vec![0], 2)),
        "expected TANE to report the transitive zip→state: {fds:?}"
    );
    let guard = Guardrail::builder().fit(&table).unwrap();
    for s in &guard.program().statements {
        assert!(
            !(s.given == vec!["zip".to_string()] && s.on == "state"),
            "Guardrail emitted the non-GNT statement GIVEN zip ON state:\n{}",
            guard.program()
        );
    }
}

#[test]
fn detection_comparison_on_injected_errors() {
    let clean = chain_table(4000);
    let (discover, mut detect) = SplitSpec::new(0.5, 21).split(&clean);
    let report = inject_errors(
        &mut detect,
        &InjectConfig { count: Some(25), columns: Some(vec![1, 2]), ..Default::default() },
    );
    let truth = report.dirty_rows();
    let n = detect.num_rows();

    let guard = Guardrail::builder().fit(&discover).unwrap();
    let g = confusion_from_indices(&guard.detect(&detect).dirty_rows(), &truth, n);

    let fds = tane_discover(&discover, &TaneConfig::default()).unwrap();
    let t = confusion_from_indices(&detect_fd_violations(&detect, &fds), &truth, n);

    // Both detectors find real signal on this noiseless backbone…
    assert!(g.recall() > 0.7, "guardrail recall {}", g.recall());
    assert!(t.recall() > 0.5, "tane recall {}", t.recall());
    // …and Guardrail's F1 is at least competitive.
    assert!(g.f1() >= t.f1() - 0.05, "guardrail F1 {} much worse than TANE {}", g.f1(), t.f1());
}

#[test]
fn ctane_discovers_rules_fdx_orients_edges() {
    let table = chain_table(2500);
    let cfds = ctane_discover(&table, &CtaneConfig::default()).unwrap();
    assert!(!cfds.is_empty(), "CTANE found nothing");
    assert!(
        cfds.iter().any(|r| r.target == 1 || r.target == 2),
        "no rule about the chain: {cfds:?}"
    );

    let fds = fdx_discover(&table, &FdxConfig::default()).unwrap();
    assert!(fds.contains(&Fd::new(vec![0], 1)), "FDX misses zip→city: {fds:?}");
}
