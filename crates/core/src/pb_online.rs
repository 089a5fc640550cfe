//! An **online** popularity-based PPM: sliding-window retraining.
//!
//! The paper's simulator trains offline ("the models are dynamically
//! maintained and updated based on historical data during a period of
//! time") and notes that "the popularities of different URLs can be ranked
//! by a server dynamically from time to time" (§3.1). This module is that
//! production shape: the model keeps the most recent `window` sessions,
//! and every `rebuild_every` sessions re-ranks popularity over the window
//! and rebuilds the (small — that is the whole point) PB-PPM tree from it.
//!
//! Rebuilding a PB-PPM tree is cheap precisely because of the paper's
//! design: the tree is orders of magnitude smaller than a standard PPM
//! forest, so periodic reconstruction costs milliseconds, while the
//! sliding window keeps the popularity ranking fresh — the stale-grade
//! problem an incremental update of a two-pass model would otherwise have.

use crate::interner::UrlId;
use crate::pb::{PbConfig, PbPpm};
use crate::predictor::{ModelKind, PredictUsage, Prediction, Predictor};
use crate::stats::ModelStats;
use std::collections::VecDeque;

/// Sliding-window online PB-PPM.
pub struct OnlinePbPpm {
    pub(crate) cfg: PbConfig,
    pub(crate) window: VecDeque<Vec<UrlId>>,
    pub(crate) max_window: usize,
    pub(crate) rebuild_every: usize,
    pub(crate) since_rebuild: usize,
    pub(crate) rebuilds: u64,
    pub(crate) model: Option<PbPpm>,
    /// Worker count for rebuilds (`0` = auto via `PBPPM_THREADS`/available
    /// parallelism). Runtime tuning, not model state: deliberately absent
    /// from [`OnlinePbSnapshot`] — rebuilds are deterministic at every
    /// thread count, so this can never change what the model predicts.
    pub(crate) threads: usize,
}

impl OnlinePbPpm {
    /// Creates an online model keeping the last `max_window` sessions and
    /// rebuilding every `rebuild_every` new sessions (both at least 1).
    pub fn new(cfg: PbConfig, max_window: usize, rebuild_every: usize) -> Self {
        Self {
            cfg,
            window: VecDeque::new(),
            max_window: max_window.max(1),
            rebuild_every: rebuild_every.max(1),
            since_rebuild: 0,
            rebuilds: 0,
            model: None,
            threads: 0,
        }
    }

    /// Sets the rebuild worker count (`0` = auto). Rebuilds are
    /// bit-identical at every thread count, so this only changes rebuild
    /// wall time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// How many times the inner model has been rebuilt.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Sessions currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The current inner model, if one has been built yet.
    pub fn current(&self) -> Option<&PbPpm> {
        self.model.as_ref()
    }

    /// Sessions trained since the last rebuild (0 right after a rebuild).
    pub fn since_rebuild(&self) -> usize {
        self.since_rebuild
    }

    /// Serializes the complete online state: configuration, the sliding
    /// window, the rebuild schedule counters, and the current inner model
    /// (if one has been built). Restoring via
    /// [`OnlinePbPpm::from_snapshot`] resumes exactly where the snapshot
    /// was taken — including a model that is stale with respect to the
    /// window (sessions trained since the last rebuild).
    pub fn to_snapshot(&self) -> OnlinePbSnapshot {
        OnlinePbSnapshot {
            cfg: self.cfg,
            window: self.window.iter().cloned().collect(),
            max_window: self.max_window,
            rebuild_every: self.rebuild_every,
            since_rebuild: self.since_rebuild,
            rebuilds: self.rebuilds,
            model: self.model.as_ref().map(PbPpm::to_snapshot),
        }
    }

    /// Restores an online model from a snapshot.
    pub fn from_snapshot(snap: &OnlinePbSnapshot) -> Result<Self, crate::frozen::SnapshotError> {
        let model = match &snap.model {
            Some(m) => Some(PbPpm::from_snapshot(m)?),
            None => None,
        };
        Ok(Self {
            cfg: snap.cfg,
            window: snap.window.iter().cloned().collect(),
            max_window: snap.max_window.max(1),
            rebuild_every: snap.rebuild_every.max(1),
            since_rebuild: snap.since_rebuild,
            rebuilds: snap.rebuilds,
            model,
            threads: 0,
        })
    }

    /// Rebuilds the inner model from the window now.
    ///
    /// Popularity counting and tree training both run on
    /// [`OnlinePbPpm::set_threads`] workers (deterministic: the rebuilt
    /// model is bit-identical at every thread count). Wall time lands in
    /// the `serve.rebuild_ms` histogram so a serving-tail spike can be
    /// attributed to a rebuild stall.
    pub fn rebuild(&mut self) {
        let started = std::time::Instant::now();
        let threads = self.threads;
        // One contiguous slice of the window: the partition/merge training
        // path wants `&[Vec<UrlId>]`, and a VecDeque that has wrapped is
        // two slices. Rearranging is O(window) like the rebuild itself.
        let sessions: &[Vec<UrlId>] = self.window.make_contiguous();
        let counts = crate::popularity::PopularityBuilder::count_sessions(sessions, threads);
        let mut model = PbPpm::new(counts.build(), self.cfg);
        model.train_sessions(sessions, threads);
        model.finalize();
        self.model = Some(model);
        self.since_rebuild = 0;
        self.rebuilds += 1;
        if pbppm_obs::ENABLED {
            let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            let reg = pbppm_obs::global();
            reg.histogram("serve.rebuild_ms", "").observe(ms);
            reg.counter("serve.rebuilds", "").add(1);
            reg.gauge("serve.last_rebuild_ms", "").set(ms);
        }
        // The inner finalize audited the fresh PbPpm; this pass also covers
        // the online wrapper's own window/schedule invariants.
        crate::verify::runtime_audit(
            &crate::verify::ModelRef::OnlinePb(self),
            "OnlinePbPpm::rebuild",
        );
    }
}

/// A serializable image of an [`OnlinePbPpm`]: window, schedule counters,
/// and the current inner model.
#[derive(Debug, Clone)]
pub struct OnlinePbSnapshot {
    /// Construction parameters for the inner PB-PPM.
    pub cfg: PbConfig,
    /// The sliding window of recent sessions, oldest first.
    pub window: Vec<Vec<UrlId>>,
    /// Window capacity in sessions.
    pub max_window: usize,
    /// Rebuild cadence in sessions.
    pub rebuild_every: usize,
    /// Sessions trained since the last rebuild.
    pub since_rebuild: usize,
    /// Lifetime rebuild counter.
    pub rebuilds: u64,
    /// The current inner model, if one was built.
    pub model: Option<crate::pb::PbSnapshot>,
}

impl Predictor for OnlinePbPpm {
    fn kind(&self) -> ModelKind {
        ModelKind::Pb
    }

    fn train_session(&mut self, session: &[UrlId]) {
        if session.is_empty() {
            return;
        }
        if self.window.len() == self.max_window {
            self.window.pop_front();
        }
        self.window.push_back(session.to_vec());
        self.since_rebuild += 1;
        if self.since_rebuild >= self.rebuild_every {
            self.rebuild();
        }
    }

    /// Rebuilds so the model reflects every session seen so far. A no-op
    /// when nothing was trained since the last rebuild: repeating a rebuild
    /// over the unchanged window would waste the work and inflate
    /// [`OnlinePbPpm::rebuild_count`], and on a never-trained model it would
    /// install a useless empty tree. Unlike the offline models, the online
    /// model may keep training after this.
    fn finalize(&mut self) {
        // `since_rebuild == 0` holds in exactly two states: right after a
        // rebuild (model is up to date) or before any training (window is
        // empty) — both are no-ops.
        if self.since_rebuild == 0 {
            return;
        }
        self.rebuild();
    }

    fn predict_ro(&self, context: &[UrlId], out: &mut Vec<Prediction>, usage: &mut PredictUsage) {
        out.clear();
        if let Some(model) = &self.model {
            model.predict_ro(context, out, usage);
        }
    }

    fn apply_usage(&mut self, usage: &PredictUsage) {
        if let Some(model) = &mut self.model {
            model.apply_usage(usage);
        }
    }

    fn frozen(&self) -> Option<&crate::frozen::FrozenTree> {
        self.model.as_ref().and_then(PbPpm::frozen)
    }

    fn node_count(&self) -> usize {
        self.model.as_ref().map_or(0, |m| m.node_count())
    }

    fn image(&self) -> Option<crate::snapshot::ModelImage> {
        Some(crate::snapshot::ModelImage::OnlinePb(self.to_snapshot()))
    }

    fn stats(&self) -> ModelStats {
        self.model
            .as_ref()
            .map_or_else(ModelStats::default, |m| m.stats())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_sign_loss)] // tiny fixture indices

    use super::*;
    use crate::popularity::PopularityTable;
    use crate::prune::PruneConfig;

    fn u(n: u32) -> UrlId {
        UrlId(n)
    }

    fn cfg() -> PbConfig {
        PbConfig {
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        }
    }

    #[test]
    fn empty_model_predicts_nothing() {
        let mut m = OnlinePbPpm::new(cfg(), 100, 10);
        let mut out = vec![Prediction::new(u(0), 1.0)];
        m.predict(&[u(0)], &mut out);
        assert!(out.is_empty());
        assert_eq!(m.node_count(), 0);
    }

    #[test]
    fn rebuilds_on_schedule() {
        let mut m = OnlinePbPpm::new(cfg(), 100, 3);
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(0), u(1)]);
        assert_eq!(m.rebuild_count(), 0);
        m.train_session(&[u(0), u(1)]);
        assert_eq!(m.rebuild_count(), 1);
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert_eq!(out[0].url, u(1));
    }

    #[test]
    fn matches_offline_model_when_window_covers_everything() {
        let sessions: Vec<Vec<UrlId>> =
            (0..20).map(|i| vec![u(0), u(1 + (i % 3) as u32)]).collect();
        let mut online = OnlinePbPpm::new(cfg(), 1000, 1000);
        let mut counts = PopularityTable::builder();
        for s in &sessions {
            online.train_session(s);
            for &x in s {
                counts.record(x);
            }
        }
        online.finalize();
        let mut offline = PbPpm::new(counts.build(), cfg());
        for s in &sessions {
            offline.train_session(s);
        }
        offline.finalize();

        assert_eq!(online.node_count(), offline.node_count());
        let mut a = Vec::new();
        let mut b = Vec::new();
        online.predict(&[u(0)], &mut a);
        offline.predict(&[u(0)], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn window_forgets_old_behaviour() {
        // First 30 sessions: 0 -> 1. Next 30 (window size): 0 -> 2.
        let mut m = OnlinePbPpm::new(cfg(), 30, 5);
        for _ in 0..30 {
            m.train_session(&[u(0), u(1)]);
        }
        for _ in 0..30 {
            m.train_session(&[u(0), u(2)]);
        }
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert_eq!(out[0].url, u(2));
        assert!(
            out.iter().all(|p| p.url != u(1)),
            "pre-window behaviour must be forgotten: {out:?}"
        );
    }

    #[test]
    fn node_count_stays_bounded_by_the_window() {
        let mut m = OnlinePbPpm::new(cfg(), 20, 10);
        // A stream with ever-new URLs: an offline model would grow forever.
        let mut sizes = Vec::new();
        for i in 0..200u32 {
            m.train_session(&[u(0), u(100 + i), u(200 + i)]);
            if i % 10 == 9 {
                sizes.push(m.node_count());
            }
        }
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().skip(2).min().unwrap();
        assert!(
            max <= 2 * min.max(1),
            "window should bound growth: sizes {sizes:?}"
        );
    }

    #[test]
    fn finalize_on_empty_model_is_a_noop() {
        let mut m = OnlinePbPpm::new(cfg(), 10, 3);
        m.finalize();
        assert_eq!(m.rebuild_count(), 0, "nothing to build from");
        assert!(m.current().is_none(), "no empty model installed");
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn finalize_right_after_a_scheduled_rebuild_does_not_rebuild_again() {
        let mut m = OnlinePbPpm::new(cfg(), 100, 2);
        m.train_session(&[u(0), u(1)]);
        m.train_session(&[u(0), u(1)]); // triggers the scheduled rebuild
        assert_eq!(m.rebuild_count(), 1);
        m.finalize();
        m.finalize();
        assert_eq!(m.rebuild_count(), 1, "window unchanged: no-op");
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert_eq!(out[0].url, u(1), "the existing model keeps serving");
    }

    #[test]
    fn finalize_still_rebuilds_pending_sessions() {
        let mut m = OnlinePbPpm::new(cfg(), 100, 1000);
        m.train_session(&[u(0), u(1)]);
        assert_eq!(m.rebuild_count(), 0);
        m.finalize();
        assert_eq!(m.rebuild_count(), 1);
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert_eq!(out[0].url, u(1));
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_predictions() {
        let mut m = OnlinePbPpm::new(cfg(), 50, 4);
        for i in 0..10u32 {
            m.train_session(&[u(0), u(1 + i % 3), u(4)]);
        }
        // Deliberately leave the model stale: 10 % 4 = 2 pending sessions.
        assert_eq!(m.since_rebuild(), 2);
        let back = OnlinePbPpm::from_snapshot(&m.to_snapshot()).unwrap();
        assert_eq!(back.rebuild_count(), m.rebuild_count());
        assert_eq!(back.window_len(), m.window_len());
        assert_eq!(back.since_rebuild(), m.since_rebuild());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut ua = PredictUsage::default();
        let mut ub = PredictUsage::default();
        m.predict_ro(&[u(0)], &mut a, &mut ua);
        back.predict_ro(&[u(0)], &mut b, &mut ub);
        assert_eq!(a, b, "restored model serves identical predictions");
        // The restored arena holds exactly the original's rows: every stat
        // survives the round-trip, arena bytes included.
        assert_eq!(m.stats(), back.stats());

        // Training resumes seamlessly: two more sessions complete the
        // rebuild schedule on both instances alike.
        let mut m2 = back;
        m2.train_session(&[u(0), u(1)]);
        m2.train_session(&[u(0), u(1)]);
        assert_eq!(m2.rebuild_count(), m.rebuild_count() + 1);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let m = OnlinePbPpm::new(cfg(), 10, 2);
        let back = OnlinePbPpm::from_snapshot(&m.to_snapshot()).unwrap();
        assert!(back.current().is_none());
        assert_eq!(back.window_len(), 0);
        assert_eq!(back.rebuild_count(), 0);
    }

    #[test]
    fn training_after_finalize_is_allowed() {
        let mut m = OnlinePbPpm::new(cfg(), 10, 1);
        m.train_session(&[u(0), u(1)]);
        m.finalize();
        m.train_session(&[u(0), u(1)]);
        let mut out = Vec::new();
        m.predict(&[u(0)], &mut out);
        assert!(!out.is_empty());
    }
}
