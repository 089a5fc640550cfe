//! End-to-end check of the runtime audit hooks: with `PBPPM_AUDIT=1`
//! forced on, a realistic multi-day training run must pass every
//! build/prune/rebuild audit silently, and the finished model must verify
//! clean through the public API too.
//!
//! This file is its own process (integration test binary), so setting the
//! environment variable here cannot race the `OnceLock` cache against
//! other test suites.

use pbppm_audit::{runtime_audit_enabled, verify_model_with_urls, ModelRef};
use pbppm_core::{
    OnlinePbPpm, Order1Markov, PbConfig, PbPpm, Predictor, PruneConfig, StandardPpm, UrlId,
};

fn force_audit_on() {
    std::env::set_var("PBPPM_AUDIT", "1");
    assert!(
        runtime_audit_enabled(),
        "PBPPM_AUDIT=1 must force audits on"
    );
}

fn u(n: u32) -> UrlId {
    UrlId(n)
}

/// A deterministic seven-day workload: a Zipf-ish core of hot pages with
/// day-varying tails, the same shape the simulator's presets use.
fn week_of_sessions() -> Vec<Vec<UrlId>> {
    let mut sessions = Vec::new();
    for day in 0..7u32 {
        for visitor in 0..20u32 {
            let mut s = vec![u(0), u(1 + (visitor % 3))];
            s.push(u(4 + (day % 3)));
            s.push(u(7 + ((day + visitor) % 5)));
            if visitor % 4 == 0 {
                s.push(u(0));
                s.push(u(2));
            }
            sessions.push(s);
        }
    }
    sessions
}

#[test]
fn week_long_training_passes_every_runtime_audit() {
    force_audit_on();
    let sessions = week_of_sessions();
    let url_count = 12usize;

    // Popularity from pass one, exactly like offline two-pass training.
    let mut pop = pbppm_core::PopularityTable::builder();
    for s in &sessions {
        for &url in s {
            pop.record(url);
        }
    }
    let pop = pop.build();

    // PB-PPM with pruning enabled: finalize runs build + prune + audit.
    let mut pb = PbPpm::new(pop, PbConfig::default());
    for s in &sessions {
        pb.train_session(s);
    }
    pb.finalize(); // runtime audit fires here; a violation panics
    let report = verify_model_with_urls(&ModelRef::Pb(&pb), Some(url_count));
    assert!(report.is_clean(), "{report}");

    // The comparators under the same hooks.
    let mut std_m = StandardPpm::new(Some(6));
    let mut lrs = StandardPpm::lrs();
    let mut o1 = Order1Markov::new();
    for s in &sessions {
        std_m.train_session(s);
        lrs.train_session(s);
        o1.train_session(s);
    }
    std_m.finalize();
    lrs.finalize();
    o1.finalize();
    for (model, report) in [
        (
            "standard",
            verify_model_with_urls(&ModelRef::Standard(&std_m), Some(url_count)),
        ),
        (
            "lrs",
            verify_model_with_urls(&ModelRef::Standard(&lrs), Some(url_count)),
        ),
        (
            "order1",
            verify_model_with_urls(&ModelRef::Order1(&o1), Some(url_count)),
        ),
    ] {
        assert!(report.is_clean(), "{model}: {report}");
    }
}

#[test]
fn online_rebuild_schedule_passes_every_runtime_audit() {
    force_audit_on();
    let mut online = OnlinePbPpm::new(
        PbConfig {
            prune: PruneConfig {
                relative_threshold: Some(0.05),
                min_abs_count: Some(2),
            },
            ..PbConfig::default()
        },
        40,
        10,
    );
    // Every 10th session triggers a rebuild (popularity + tree + prune),
    // and each rebuild runs the audit hook.
    for s in week_of_sessions() {
        online.train_session(&s);
    }
    online.finalize();
    let report = verify_model_with_urls(&ModelRef::OnlinePb(&online), Some(12));
    assert!(report.is_clean(), "{report}");
}
