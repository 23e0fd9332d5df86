//! Trust policies: the gates that decide who may host or read data.

use scdn_social::author::AuthorId;

use crate::interaction::InteractionLedger;
use crate::model::TrustModel;

/// A trust policy: minimum score and minimum evidence to be considered
/// trusted. Mirrors the paper's trust thresholds ("continue to explore
/// different trust thresholds", Section VIII).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrustPolicy {
    /// Minimum trust score in (0, 1).
    pub min_score: f64,
    /// Minimum decayed evidence (effective interaction count).
    pub min_evidence: f64,
}

impl Default for TrustPolicy {
    fn default() -> Self {
        TrustPolicy {
            min_score: 0.6,
            min_evidence: 1.0,
        }
    }
}

impl TrustPolicy {
    /// A policy that trusts anyone (evidence-free).
    pub fn open() -> TrustPolicy {
        TrustPolicy {
            min_score: 0.0,
            min_evidence: 0.0,
        }
    }

    /// `true` if `a` trusts `b` under this policy at time `now`.
    pub fn trusted(
        &self,
        model: &TrustModel,
        ledger: &InteractionLedger,
        a: AuthorId,
        b: AuthorId,
        now: f64,
    ) -> bool {
        model.score(ledger, a, b, now) >= self.min_score
            && model.evidence(ledger, a, b, now) >= self.min_evidence
    }

    /// Filter a candidate list down to the trusted ones.
    pub fn filter_trusted(
        &self,
        model: &TrustModel,
        ledger: &InteractionLedger,
        a: AuthorId,
        candidates: &[AuthorId],
        now: f64,
    ) -> Vec<AuthorId> {
        candidates
            .iter()
            .copied()
            .filter(|&b| self.trusted(model, ledger, a, b, now))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::{Interaction, InteractionKind};
    use crate::model::TrustParams;

    fn ledger_with(n_success: usize, pair: (u32, u32)) -> InteractionLedger {
        let mut l = InteractionLedger::new();
        for _ in 0..n_success {
            l.record(
                AuthorId(pair.0),
                AuthorId(pair.1),
                Interaction {
                    at: 2010.0,
                    kind: InteractionKind::Publication,
                    success: true,
                },
            );
        }
        l
    }

    #[test]
    fn default_policy_requires_history() {
        let m = TrustModel::new(TrustParams::default());
        let p = TrustPolicy::default();
        let empty = InteractionLedger::new();
        assert!(!p.trusted(&m, &empty, AuthorId(0), AuthorId(1), 2010.0));
        let l = ledger_with(3, (0, 1));
        assert!(p.trusted(&m, &l, AuthorId(0), AuthorId(1), 2010.0));
    }

    #[test]
    fn open_policy_trusts_strangers() {
        let m = TrustModel::new(TrustParams::default());
        let p = TrustPolicy::open();
        let empty = InteractionLedger::new();
        assert!(p.trusted(&m, &empty, AuthorId(0), AuthorId(1), 2010.0));
    }

    #[test]
    fn filter_keeps_only_trusted() {
        let m = TrustModel::new(TrustParams::default());
        let p = TrustPolicy::default();
        let l = ledger_with(3, (0, 1));
        let kept = p.filter_trusted(
            &m,
            &l,
            AuthorId(0),
            &[AuthorId(1), AuthorId(2), AuthorId(3)],
            2010.0,
        );
        assert_eq!(kept, vec![AuthorId(1)]);
    }

    #[test]
    fn decayed_evidence_eventually_fails_policy() {
        let m = TrustModel::new(TrustParams {
            decay: 1.0,
            ..Default::default()
        });
        let p = TrustPolicy::default();
        let l = ledger_with(2, (0, 1));
        assert!(p.trusted(&m, &l, AuthorId(0), AuthorId(1), 2010.0));
        // 10 time units later the evidence has decayed below 1.0.
        assert!(!p.trusted(&m, &l, AuthorId(0), AuthorId(1), 2020.0));
    }
}
