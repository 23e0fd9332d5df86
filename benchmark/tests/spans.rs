//! Span self time: duration minus what the direct children cover.

use scdn_benchmark::spans::{self_times_ns, to_json, Recorder, Span};

fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name: "t",
        start_ns,
        end_ns,
        parent,
        op_id: 0,
    }
}

#[test]
fn self_time_subtracts_child_coverage_once() {
    let spans = vec![
        span(0, 100, None),
        // Two overlapping children cover 10..50, a third 60..70.
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),
        span(60, 70, Some(0)),
        // A grandchild takes from its parent only.
        span(22, 28, Some(2)),
    ];
    assert_eq!(self_times_ns(&spans), vec![50, 20, 24, 10, 6]);
}

#[test]
fn children_are_clipped_to_their_parent() {
    let spans = vec![
        span(100, 200, None),
        span(50, 120, Some(0)),
        span(190, 400, Some(0)),
        span(500, 600, Some(0)),
    ];
    // 100..120 and 190..200 are covered; the last child lies outside.
    assert_eq!(self_times_ns(&spans)[0], 70);
}

#[test]
fn a_leaf_keeps_its_whole_duration_and_siblings_do_not_interact() {
    let spans = vec![span(0, 10, None), span(0, 10, None)];
    assert_eq!(self_times_ns(&spans), vec![10, 10]);
}

#[test]
fn recorder_nests_calls_under_an_open_root_and_a_disabled_one_stores_nothing() {
    let mut rec = Recorder::new(true);
    let root = rec.open("epoch", u32::MAX);
    let start = rec.now_ns();
    let end = rec.now_ns();
    let call = rec.record("core.request", start, end, Some(root), 7);
    rec.close(root);
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[call as usize].parent, Some(root));
    assert_eq!(spans[call as usize].op_id, 7);
    assert!(spans[root as usize].end_ns >= spans[call as usize].end_ns);
    let json = to_json(spans);
    assert!(json.contains("\"name\": \"core.request\""));
    assert!(json.contains("\"parent\": null"));

    let mut off = Recorder::new(false);
    let root = off.open("epoch", 0);
    off.record("core.request", 1, 2, Some(root), 0);
    off.close(root);
    assert!(off.spans().is_empty());
}
