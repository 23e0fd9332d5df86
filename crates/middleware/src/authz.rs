//! Authorization: who may read which dataset.
//!
//! Policy combines the paper's three access ingredients (Section IV/V):
//! sensitivity level of the data, project-group membership from the social
//! platform, and inter-personal trust. "S-CDN can … derive specific
//! properties of the social graph … that can be used in access control."

use scdn_social::author::AuthorId;
use scdn_social::platform::{GroupId, SocialPlatform, UserId};
use scdn_storage::object::Sensitivity;
use scdn_trust::interaction::InteractionLedger;
use scdn_trust::model::TrustModel;
use scdn_trust::threshold::TrustPolicy;

/// Outcome of an access check, with the reason (for audit logs — the paper
/// lists accountability among the S-CDN's goals).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessDecision {
    /// Access granted.
    Granted,
    /// Denied: dataset restricted to a project group the user is not in.
    DeniedNotGroupMember,
    /// Denied: confidential data and the requester lacks an explicit grant.
    DeniedNotGranted,
    /// Denied: trust policy between requester and data owner not met.
    DeniedUntrusted,
}

impl AccessDecision {
    /// `true` if access was granted.
    pub fn allowed(&self) -> bool {
        matches!(self, AccessDecision::Granted)
    }
}

/// A dataset's access policy.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessPolicy {
    /// Sensitivity of the dataset.
    pub sensitivity: Sensitivity,
    /// Owning author (trust is evaluated against the owner).
    pub owner: AuthorId,
    /// Project group gating `Restricted` data.
    pub group: Option<GroupId>,
    /// Explicit per-user grants for `Confidential` data.
    pub grants: Vec<UserId>,
    /// Trust gate applied on top of the structural checks (None = no trust
    /// requirement).
    pub trust: Option<TrustPolicy>,
}

impl AccessPolicy {
    /// Public data owned by `owner` with no extra gates.
    pub fn public(owner: AuthorId) -> AccessPolicy {
        AccessPolicy {
            sensitivity: Sensitivity::Public,
            owner,
            group: None,
            grants: Vec::new(),
            trust: None,
        }
    }

    /// Check whether `user` (linked to `author` in the corpus, if any) may
    /// read a dataset under this policy.
    pub fn check(
        &self,
        platform: &SocialPlatform,
        user: UserId,
        author: Option<AuthorId>,
        trust_model: &TrustModel,
        ledger: &InteractionLedger,
        now: f64,
    ) -> AccessDecision {
        match self.sensitivity {
            Sensitivity::Public => {}
            Sensitivity::Restricted => {
                let in_group = self
                    .group
                    .map(|g| platform.is_member(g, user))
                    .unwrap_or(false);
                if !in_group {
                    return AccessDecision::DeniedNotGroupMember;
                }
            }
            Sensitivity::Confidential => {
                if !self.grants.contains(&user) {
                    return AccessDecision::DeniedNotGranted;
                }
            }
        }
        if let Some(policy) = self.trust {
            // The owner always trusts themselves.
            let is_owner = author == Some(self.owner);
            if !is_owner {
                let Some(a) = author else {
                    return AccessDecision::DeniedUntrusted;
                };
                if !policy.trusted(trust_model, ledger, self.owner, a, now) {
                    return AccessDecision::DeniedUntrusted;
                }
            }
        }
        AccessDecision::Granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_trust::interaction::{Interaction, InteractionKind};
    use scdn_trust::model::TrustParams;

    struct Fixture {
        platform: SocialPlatform,
        owner_user: UserId,
        member_user: UserId,
        outsider_user: UserId,
        group: GroupId,
        model: TrustModel,
        ledger: InteractionLedger,
    }

    fn fixture() -> Fixture {
        let platform = SocialPlatform::new();
        let owner_user = platform
            .register("owner", "Owner", "pw", Some(AuthorId(0)))
            .expect("register");
        let member_user = platform
            .register("member", "Member", "pw", Some(AuthorId(1)))
            .expect("register");
        let outsider_user = platform
            .register("outsider", "Outsider", "pw", Some(AuthorId(2)))
            .expect("register");
        let group = platform.create_group(owner_user, "trial").expect("group");
        platform
            .add_to_group(owner_user, group, member_user)
            .expect("add");
        let mut ledger = InteractionLedger::new();
        // Owner (author 0) has published with member (author 1).
        for _ in 0..3 {
            ledger.record(
                AuthorId(0),
                AuthorId(1),
                Interaction {
                    at: 2010.0,
                    kind: InteractionKind::Publication,
                    success: true,
                },
            );
        }
        Fixture {
            platform,
            owner_user,
            member_user,
            outsider_user,
            group,
            model: TrustModel::new(TrustParams::default()),
            ledger,
        }
    }

    #[test]
    fn public_data_open_to_all() {
        let f = fixture();
        let p = AccessPolicy::public(AuthorId(0));
        for u in [f.owner_user, f.member_user, f.outsider_user] {
            assert!(p
                .check(&f.platform, u, None, &f.model, &f.ledger, 2011.0)
                .allowed());
        }
    }

    #[test]
    fn restricted_requires_group() {
        let f = fixture();
        let p = AccessPolicy {
            sensitivity: Sensitivity::Restricted,
            owner: AuthorId(0),
            group: Some(f.group),
            grants: vec![],
            trust: None,
        };
        assert!(p
            .check(
                &f.platform,
                f.member_user,
                Some(AuthorId(1)),
                &f.model,
                &f.ledger,
                2011.0
            )
            .allowed());
        assert_eq!(
            p.check(
                &f.platform,
                f.outsider_user,
                Some(AuthorId(2)),
                &f.model,
                &f.ledger,
                2011.0
            ),
            AccessDecision::DeniedNotGroupMember
        );
    }

    #[test]
    fn confidential_requires_explicit_grant() {
        let f = fixture();
        let p = AccessPolicy {
            sensitivity: Sensitivity::Confidential,
            owner: AuthorId(0),
            group: Some(f.group),
            grants: vec![f.member_user],
            trust: None,
        };
        assert!(p
            .check(
                &f.platform,
                f.member_user,
                Some(AuthorId(1)),
                &f.model,
                &f.ledger,
                2011.0
            )
            .allowed());
        assert_eq!(
            p.check(
                &f.platform,
                f.owner_user,
                Some(AuthorId(0)),
                &f.model,
                &f.ledger,
                2011.0
            ),
            AccessDecision::DeniedNotGranted,
            "even the owner needs a grant for confidential data"
        );
    }

    #[test]
    fn trust_gate_blocks_strangers() {
        let f = fixture();
        let p = AccessPolicy {
            sensitivity: Sensitivity::Public,
            owner: AuthorId(0),
            group: None,
            grants: vec![],
            trust: Some(TrustPolicy::default()),
        };
        // Member has publication history with the owner → trusted.
        assert!(p
            .check(
                &f.platform,
                f.member_user,
                Some(AuthorId(1)),
                &f.model,
                &f.ledger,
                2011.0
            )
            .allowed());
        // Outsider has none → untrusted.
        assert_eq!(
            p.check(
                &f.platform,
                f.outsider_user,
                Some(AuthorId(2)),
                &f.model,
                &f.ledger,
                2011.0
            ),
            AccessDecision::DeniedUntrusted
        );
        // Owner always passes their own trust gate.
        assert!(p
            .check(
                &f.platform,
                f.owner_user,
                Some(AuthorId(0)),
                &f.model,
                &f.ledger,
                2011.0
            )
            .allowed());
    }

    #[test]
    fn trust_gate_requires_author_identity() {
        let f = fixture();
        let p = AccessPolicy {
            sensitivity: Sensitivity::Public,
            owner: AuthorId(0),
            group: None,
            grants: vec![],
            trust: Some(TrustPolicy::default()),
        };
        assert_eq!(
            p.check(
                &f.platform,
                f.member_user,
                None,
                &f.model,
                &f.ledger,
                2011.0
            ),
            AccessDecision::DeniedUntrusted
        );
    }
}
