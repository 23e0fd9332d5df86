//! Property-based tests for the trust substrate.

use proptest::prelude::*;
use scdn_social::author::AuthorId;
use scdn_trust::interaction::{Interaction, InteractionKind, InteractionLedger};
use scdn_trust::model::{TrustModel, TrustParams};
use scdn_trust::reputation::reputations;

fn arb_ledger() -> impl Strategy<Value = InteractionLedger> {
    proptest::collection::vec(
        (0u32..12, 0u32..12, 2000.0f64..2012.0, any::<bool>()),
        0..60,
    )
    .prop_map(|events| {
        let mut l = InteractionLedger::new();
        for (a, b, at, success) in events {
            l.record(
                AuthorId(a),
                AuthorId(b),
                Interaction {
                    at,
                    kind: InteractionKind::Publication,
                    success,
                },
            );
        }
        l
    })
}

proptest! {
    #[test]
    fn scores_always_in_unit_interval(ledger in arb_ledger(), now in 2000.0f64..2020.0) {
        let model = TrustModel::new(TrustParams::default());
        for a in 0..12u32 {
            for b in 0..12u32 {
                let s = model.score(&ledger, AuthorId(a), AuthorId(b), now);
                prop_assert!((0.0..=1.0).contains(&s), "score {s}");
                prop_assert!(model.evidence(&ledger, AuthorId(a), AuthorId(b), now) >= 0.0);
            }
        }
    }

    #[test]
    fn score_is_symmetric(ledger in arb_ledger(), now in 2000.0f64..2020.0) {
        let model = TrustModel::new(TrustParams::default());
        for a in 0..12u32 {
            for b in (a + 1)..12u32 {
                let ab = model.score(&ledger, AuthorId(a), AuthorId(b), now);
                let ba = model.score(&ledger, AuthorId(b), AuthorId(a), now);
                prop_assert!((ab - ba).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn more_successes_never_lower_the_score(
        ledger in arb_ledger(),
        extra in 1usize..5,
    ) {
        let model = TrustModel::new(TrustParams::default());
        let now = 2012.0;
        let before = model.score(&ledger, AuthorId(0), AuthorId(1), now);
        let mut grown = ledger.clone();
        for _ in 0..extra {
            grown.record(
                AuthorId(0),
                AuthorId(1),
                Interaction {
                    at: now,
                    kind: InteractionKind::Publication,
                    success: true,
                },
            );
        }
        let after = model.score(&grown, AuthorId(0), AuthorId(1), now);
        prop_assert!(after + 1e-12 >= before, "{before} -> {after}");
    }

    #[test]
    fn reputation_scores_bounded(ledger in arb_ledger(), now in 2000.0f64..2020.0) {
        let model = TrustModel::new(TrustParams::default());
        for (_, r) in reputations(&model, &ledger, now) {
            prop_assert!((0.0..=1.0).contains(&r.score));
            prop_assert!(r.partners >= 1);
            prop_assert!(r.evidence >= 0.0);
        }
    }
}
