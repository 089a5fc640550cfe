//! Property: no prune schedule can leave the model structurally invalid.
//!
//! The paper's two post-build space optimizations (§3.4) delete nodes out
//! from under special links and root registrations; the online wrapper
//! repeats that surgery on every rebuild. This suite drives randomized
//! workloads through randomized prune configurations and rebuild cadences
//! (fixed seeds — failures reproduce) and requires `verify_model` to come
//! back clean every time. In particular a special link may never dangle:
//! the level-order arena keeps each root's links as a run beside it, so a
//! link outlives its root nowhere, and the audit checks each link's
//! back-pointer, grade rule and self-link rule.

use pbppm_audit::{verify_model, verify_model_with_urls, ModelRef};
use pbppm_core::{OnlinePbPpm, PbConfig, PbPpm, PopularityTable, Predictor, PruneConfig, UrlId};
use rand::{rngs::StdRng, Rng, SeedableRng};

const URL_SPACE: u32 = 24;

fn random_sessions(rng: &mut StdRng, count: usize) -> Vec<Vec<UrlId>> {
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1usize..9);
            (0..len)
                .map(|_| {
                    // Zipf-ish: half the mass on the first few URLs.
                    if rng.gen_bool(0.5) {
                        UrlId(rng.gen_range(0u32..4))
                    } else {
                        UrlId(rng.gen_range(0u32..URL_SPACE))
                    }
                })
                .collect()
        })
        .collect()
}

fn random_prune(rng: &mut StdRng) -> PruneConfig {
    PruneConfig {
        relative_threshold: if rng.gen_bool(0.7) {
            Some(rng.gen_range(0.0f64..0.3))
        } else {
            None
        },
        min_abs_count: if rng.gen_bool(0.7) {
            Some(rng.gen_range(1u64..5))
        } else {
            None
        },
    }
}

#[test]
fn pruned_offline_models_always_verify_clean() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sessions = random_sessions(&mut rng, 60);
        let mut pop = PopularityTable::builder();
        for s in &sessions {
            for &url in s {
                pop.record(url);
            }
        }
        let cfg = PbConfig {
            prune: random_prune(&mut rng),
            special_links: rng.gen_bool(0.8),
            ..PbConfig::default()
        };
        let mut m = PbPpm::new(pop.build(), cfg);
        for s in &sessions {
            m.train_session(s);
        }
        m.finalize();
        let report = verify_model_with_urls(&ModelRef::Pb(&m), Some(URL_SPACE as usize));
        assert!(report.is_clean(), "seed {seed}: {report}");

        // The snapshot of the pruned model re-verifies clean after a
        // round-trip through the loader, too.
        let reloaded = PbPpm::from_snapshot(&m.to_snapshot()).expect("clean snapshot loads");
        let report = verify_model(&ModelRef::Pb(&reloaded));
        assert!(report.is_clean(), "seed {seed} reloaded: {report}");
    }
}

#[test]
fn online_rebuild_schedules_always_verify_clean() {
    for seed in 100..115u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = PbConfig {
            prune: random_prune(&mut rng),
            ..PbConfig::default()
        };
        let max_window = rng.gen_range(5usize..40);
        let rebuild_every = rng.gen_range(1usize..12);
        let mut online = OnlinePbPpm::new(cfg, max_window, rebuild_every);
        for s in random_sessions(&mut rng, 80) {
            online.train_session(&s);
            // Audit mid-stream occasionally, not just at the end: the
            // invariant must hold after *every* rebuild, and the window /
            // schedule bookkeeping must stay consistent throughout.
            if rng.gen_bool(0.1) {
                let report = verify_model(&ModelRef::OnlinePb(&online));
                assert!(report.is_clean(), "seed {seed} mid-stream: {report}");
            }
        }
        online.finalize();
        let report = verify_model_with_urls(&ModelRef::OnlinePb(&online), Some(URL_SPACE as usize));
        assert!(report.is_clean(), "seed {seed}: {report}");
    }
}
