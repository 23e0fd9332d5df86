//! Test-only knobs and references.
//!
//! * [`Scdn::apply_graph_delta_flush`] is the twin of `apply_graph_delta`
//!   that re-freezes the CSR from scratch and tells no cache, so every
//!   cache flushes wholesale on its next use; the announced delta path
//!   must never resolve differently (`system_tests`).
//! * [`Scdn::set_publish_coding`] lets one fixture hold coded and
//!   whole-replica datasets side by side (`fixtures::mixed_system`).

use scdn_graph::{CsrGraph, GraphDelta};
use scdn_storage::coding::CodingConfig;

use super::{Scdn, ScdnError};

impl Scdn {
    /// Publish later datasets under `coding`; earlier ones keep theirs.
    pub(crate) fn set_publish_coding(&mut self, coding: CodingConfig) {
        self.config.coding = coding;
    }

    /// Flush-everything oracle for `apply_graph_delta`: apply the same ops
    /// but re-freeze the CSR from scratch *without* announcing the delta
    /// (an unannounced generation change).
    pub(crate) fn apply_graph_delta_flush(&mut self, delta: &GraphDelta) -> Result<(), ScdnError> {
        self.check_delta(delta)?;
        delta.apply_to(&mut self.social);
        self.social_csr = CsrGraph::from(&self.social);
        for (a, b) in delta.edge_pairs() {
            self.overlay.refresh_link(&self.social, a, b);
        }
        Ok(())
    }
}
