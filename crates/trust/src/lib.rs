//! # scdn-trust — proven trust from interaction histories
//!
//! Section III of the paper defines trust as "a positive expectation …
//! that results from proven contextualized personal interaction-histories",
//! observable in scientific computing "via publications or previous
//! projects". This crate turns that definition into machinery:
//!
//! * [`interaction`] — a ledger of pairwise interactions (publications,
//!   data exchanges, hosting requests) with outcomes and timestamps;
//! * [`model`] — trust scores from histories: a Beta-prior success model
//!   with exponential recency decay, seedable from a publication corpus;
//! * [`threshold`] — trust policies (minimum score / minimum history) that
//!   gate participation, mirroring the trust-graph pruning of Section VI;
//! * [`reputation`] — per-author rollups of the scores a ledger yields.

pub mod interaction;
pub mod model;
pub mod reputation;
pub mod threshold;

pub use interaction::{Interaction, InteractionKind, InteractionLedger};
pub use model::{TrustModel, TrustParams};
pub use reputation::{reputations, Reputation};
pub use threshold::TrustPolicy;
