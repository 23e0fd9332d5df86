//! The metric tables. `BENCHMARK.json` lists exactly these names and
//! units (the smoke test compares the two); a run that fails to produce
//! one of them panics rather than print a partial table.

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Reads the same on every run of one seed (counted or simulated),
    /// as opposed to host wall time or memory.
    pub exact: bool,
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    host("requests_per_s", "1/s"),
    host("serve_p50_ms", "ms"),
    exact("served_share", "ratio"),
    exact("sim_response_mean_ms", "sim_ms"),
    exact("sim_response_p90_ms", "sim_ms"),
    exact("transfer_bytes_per_request", "bytes"),
    exact("stored_bytes_per_published_byte", "ratio"),
    host("setup_s", "s"),
    host("peak_rss_mib", "MiB"),
];

/// Single layers (layers are the crate names); from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    host("core.request_batch.us_per_request", "us"),
    host("core.request.us_per_call", "us"),
    host("core.request_coded.us_per_call", "us"),
    host("core.maintain.ms_per_cycle", "ms"),
    host("core.repair.ms_per_cycle", "ms"),
    host("core.apply_graph_delta.ms_per_delta", "ms"),
    host("core.depart.us_per_call", "us"),
    host("core.background.wall_share", "ratio"),
    exact("core.batch.replan_ratio", "ratio"),
    exact("core.maintain.replan_ratio", "ratio"),
    exact("core.batch.snapshot_reuse_ratio", "ratio"),
    exact("core.maintenance.bytes_per_request", "bytes"),
    host("core.serve.p99_ms", "ms"),
    host("core.request_batch.speedup_2w", "ratio"),
    host("core.build.s", "s"),
    host("core.publish_replicate.ms_per_dataset", "ms"),
    host("core.unattributed_share", "ratio"),
    host("alloc.snapshot.us_per_call", "us"),
    host("alloc.resolve_hit.us_per_call", "us"),
    host("alloc.resolve_miss.us_per_call", "us"),
    exact("alloc.resolve_cache.hit_ratio", "ratio"),
    exact("alloc.resolve_cache.evictions_per_kreq", "count"),
    exact("alloc.resolve_cache.retained_ratio", "ratio"),
    host("alloc.commit_resolution.us_per_call", "us"),
    host("alloc.rebalance_plan.ms_per_call", "ms"),
    host("alloc.note_graph_delta.ms_per_call", "ms"),
    host("alloc.ranking.ms_per_miss", "ms"),
    exact("alloc.ranking_cache.hit_ratio", "ratio"),
    exact("alloc.social_hit_ratio", "ratio"),
    host("alloc.est_share", "ratio"),
    host("graph.bfs_to_targets.us_per_call", "us"),
    host("graph.apply_delta.ms_per_delta", "ms"),
    exact("graph.apply_delta.bytes_copied_per_delta", "bytes"),
    exact("graph.apply_delta.chunks_shared_ratio", "ratio"),
    host("graph.freeze.ms", "ms"),
    host("graph.generate.s", "s"),
    host("graph.est_share", "ratio"),
    host("middleware.peek_op.ns_per_call", "ns"),
    host("middleware.authorize_op.ns_per_call", "ns"),
    host("middleware.est_share", "ratio"),
    host("net.simulate_segment.ns_per_call", "ns"),
    host("net.transfer_many.us_per_segment", "us"),
    host("net.transfer_coded.us_per_fetch", "us"),
    exact("net.attempts_per_request", "count"),
    exact("net.retry_ratio", "ratio"),
    host("net.est_share", "ratio"),
    host("storage.checksum.mib_per_s", "MiB/s"),
    host("storage.store.us_per_segment", "us"),
    host("storage.fetch.us_per_segment", "us"),
    host("storage.cache_touch.ns_per_segment", "ns"),
    host("storage.encode.mib_per_s", "MiB/s"),
    host("storage.decode.mib_per_s", "MiB/s"),
    host("storage.est_share", "ratio"),
    host("obs.snapshot_export.ms", "ms"),
    host("obs.trace_record.us_per_trace", "us"),
    exact("obs.traces_recorded_per_request", "count"),
    host("obs.est_share", "ratio"),
    host("sim.generate_requests.ms", "ms"),
    host("sim.generate_churn.ms", "ms"),
    host("social.corpus_build.ms", "ms"),
    host("trust.subgraph_build.ms", "ms"),
    host("harness.trace_overhead_share", "ratio"),
    host("harness.generator_share", "ratio"),
    host("harness.calibration.ns_per_hop", "ns"),
    host("harness.calibrated_cost", "ratio"),
    exact("harness.allocs_per_request", "count"),
    exact("harness.alloc_bytes_per_request", "bytes"),
];

/// Values of one run, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.0.iter().any(|&(n, _)| n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} was never measured"))
    }

    /// The values in `table` order; panics if the run's set of names
    /// differs from the table's.
    pub fn in_table_order(&self, table: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        assert_eq!(
            self.0.len(),
            table.len(),
            "run produced a different number of metrics than its table lists"
        );
        table.iter().map(|&def| (def, self.get(def.name))).collect()
    }
}
