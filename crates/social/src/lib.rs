//! # scdn-social — the social fabric of the S-CDN
//!
//! Models everything "social" in the paper:
//!
//! * authors, institutions, and publications ([`author`], [`publication`],
//!   [`corpus`]) — the DBLP-like record layer;
//! * coauthorship graph construction ([`coauthorship`]) with edge weights =
//!   number of joint publications;
//! * 3-hop ego-network extraction and the three trust-pruning heuristics of
//!   Section VI ([`ego`], [`trustgraph`]);
//! * a synthetic DBLP generator calibrated against Table I of the paper
//!   ([`generator`]) — the substitution for the proprietary DBLP ego
//!   network (documented in DESIGN.md);
//! * a plain-text corpus format with parser ([`dblp_format`]) so ingestion
//!   follows a realistic file-based path;
//! * the Social Network Platform of the architecture ([`platform`]): users,
//!   credentials, groups, and token issuance, consumed by
//!   `scdn-middleware`.

pub mod author;
pub mod coauthorship;
pub mod corpus;
pub mod dblp_format;
pub mod ego;
pub mod generator;
pub mod interests;
pub mod platform;
pub mod publication;
pub mod trustgraph;

pub use author::{Author, AuthorId, Institution, InstitutionId, Region};
pub use coauthorship::{build_coauthorship, CoauthorNetwork, NodeIndexMap};
pub use corpus::Corpus;
pub use generator::{CaseStudyParams, SyntheticDblp};
pub use publication::{PubId, Publication};
pub use trustgraph::{SubgraphStats, TrustFilter, TrustSubgraph};
