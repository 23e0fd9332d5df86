//! Access audit trail.
//!
//! The paper lists *accountability* among the S-CDN's goals ("trustworthy
//! data storage, caching, data provenance management, access control, and
//! accountability"). Every access decision — grant or denial — is recorded
//! with who, what, when, and why, and the trail is queryable.

use scdn_social::platform::UserId;
use scdn_storage::object::DatasetId;

use crate::authz::AccessDecision;

/// One recorded access decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// Simulation timestamp in milliseconds.
    pub at_ms: u64,
    /// The requesting user.
    pub user: UserId,
    /// The dataset involved.
    pub dataset: DatasetId,
    /// The decision taken.
    pub decision: AccessDecision,
}

impl AuditEntry {
    /// `true` if this entry records a granted access.
    pub fn granted(&self) -> bool {
        self.decision.allowed()
    }
}

/// Append-only audit log.
#[derive(Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a decision; returns its sequence number.
    pub fn record(
        &mut self,
        at_ms: u64,
        user: UserId,
        dataset: DatasetId,
        decision: AccessDecision,
    ) -> u64 {
        let seq = self.entries.len() as u64;
        self.entries.push(AuditEntry {
            seq,
            at_ms,
            user,
            dataset,
            decision,
        });
        seq
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries for one dataset, in order.
    pub fn by_dataset(&self, dataset: DatasetId) -> Vec<AuditEntry> {
        self.entries
            .iter()
            .filter(|e| e.dataset == dataset)
            .cloned()
            .collect()
    }

    /// All denials, in order.
    pub fn denials(&self) -> Vec<AuditEntry> {
        self.entries
            .iter()
            .filter(|e| !e.granted())
            .cloned()
            .collect()
    }

    /// Grant ratio over the whole trail (0 when empty).
    pub fn grant_ratio(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let granted = self.entries.iter().filter(|e| e.granted()).count();
        granted as f64 / self.entries.len() as f64
    }

    /// The most recent `n` entries (oldest first).
    pub fn tail(&self, n: usize) -> Vec<AuditEntry> {
        let start = self.entries.len().saturating_sub(n);
        self.entries[start..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant() -> AccessDecision {
        AccessDecision::Granted
    }

    fn deny() -> AccessDecision {
        AccessDecision::DeniedNotGroupMember
    }

    #[test]
    fn records_in_order_with_sequence() {
        let mut log = AuditLog::new();
        assert!(log.is_empty());
        let s0 = log.record(10, UserId(1), DatasetId(0), grant());
        let s1 = log.record(20, UserId(2), DatasetId(0), deny());
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn query_by_dataset() {
        let mut log = AuditLog::new();
        log.record(1, UserId(1), DatasetId(0), grant());
        log.record(2, UserId(2), DatasetId(0), deny());
        log.record(3, UserId(1), DatasetId(1), grant());
        assert_eq!(log.by_dataset(DatasetId(0)).len(), 2);
        assert_eq!(log.by_dataset(DatasetId(9)).len(), 0);
    }

    #[test]
    fn denials_and_grant_ratio() {
        let mut log = AuditLog::new();
        log.record(1, UserId(1), DatasetId(0), grant());
        log.record(2, UserId(2), DatasetId(0), deny());
        log.record(3, UserId(3), DatasetId(0), grant());
        let denials = log.denials();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].user, UserId(2));
        assert!((log.grant_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_returns_newest() {
        let mut log = AuditLog::new();
        for i in 0..10u64 {
            log.record(i, UserId(0), DatasetId(0), grant());
        }
        let t = log.tail(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].seq, 7);
        assert_eq!(t[2].seq, 9);
        assert_eq!(log.tail(100).len(), 10);
    }

    #[test]
    fn empty_log_ratio_zero() {
        assert_eq!(AuditLog::new().grant_ratio(), 0.0);
    }
}
