//! ISSUE 7 acceptance suite: the camj-obs tracing + metrics subsystem.
//!
//! * spans balance — every `B` has a properly nested `E` on its thread,
//! * the determinism digest (span counts + non-racy counter sums,
//!   timestamps excluded) is byte-identical across repeat runs and
//!   across serial vs parallel execution,
//! * tracing never changes results — the sweep JSON is byte-identical
//!   with a recording session on and off,
//! * the metrics report attributes ≥95 % of thread-active time to named
//!   stages, and the Chrome trace export is valid JSON.
//!
//! Everything lives in **one** test function: recording sessions are
//! process-exclusive, and the untraced phases must not run while a
//! concurrent test's session would soak up their events.

use camj::core::energy::EstimateCache;
use camj::core::functional::Stimulus;
use camj::explore::{Explorer, PointError, Sweep};
use camj::obs::{ObsSession, Recording};
use camj::workloads::quickstart;

/// Shared convention with `tests/incremental.rs` / `tests/noise.rs`:
/// every test binary pins the same worker count.
fn force_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
}

/// The sweep under trace: 16 frame-rate points through the incremental
/// engine with a fresh shared cache, exactly the `camj sweep` path.
fn sweep_json(explorer: &Explorer) -> String {
    let sweep = Sweep::new().fps_targets((0..16).map(|i| 15.0 + f64::from(i)));
    let cache = EstimateCache::shared();
    let results = explorer.sweep_incremental(&sweep, &cache, |point| {
        quickstart::model(point.fps("fps"))
            .map(camj::core::energy::CamJ::into_validated)
            .map_err(PointError::new)
    });
    assert_eq!(results.error_count(), 0, "grid must be fully feasible");
    results.to_json(Some(&cache.stats()))
}

/// One traced run of [`sweep_json`] under a `cli.sweep` top-level span
/// (what the real CLI opens), returning the output and the recording.
fn traced_sweep(explorer: &Explorer) -> (String, Recording) {
    let session = ObsSession::begin();
    let json = {
        let _span = obs_core::span("cli.sweep");
        sweep_json(explorer)
    };
    (json, session.finish())
}

/// Replays one thread's event log asserting stack discipline: every
/// end closes the most recent open span of that name, and nothing
/// stays open.
fn assert_spans_balance(recording: &Recording) {
    use camj::obs::EventKind;
    for (tid, events) in recording.threads() {
        let mut stack: Vec<&'static str> = Vec::new();
        for event in events {
            match event.kind {
                EventKind::Begin => stack.push(event.name),
                EventKind::End => {
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!("tid {tid}: end of '{}' with no open span", event.name)
                    });
                    assert_eq!(
                        open, event.name,
                        "tid {tid}: spans not properly nested (end of '{}' closes '{open}')",
                        event.name
                    );
                }
                EventKind::Counter => {}
            }
        }
        assert!(
            stack.is_empty(),
            "tid {tid}: spans left open at session end: {stack:?}"
        );
    }
}

#[test]
fn tracing_is_balanced_deterministic_and_invisible() {
    force_threads();

    // Untraced baseline: the facade is disabled, so this is the
    // zero-overhead path every normal run takes.
    let baseline = sweep_json(&Explorer::serial());

    // Traced serial run: identical output (tracing must never affect
    // estimates), balanced spans, ≥95 % coverage.
    let (traced_json, serial_rec) = traced_sweep(&Explorer::serial());
    assert_eq!(
        baseline, traced_json,
        "sweep output must be byte-identical with tracing on"
    );
    assert!(serial_rec.event_count() > 0, "the session recorded nothing");
    assert_spans_balance(&serial_rec);
    let metrics = serial_rec.metrics();
    assert!(
        metrics.coverage >= 0.95,
        "named stages must cover >= 95% of thread-active time, got {:.1}%",
        metrics.coverage * 100.0
    );
    assert!(
        metrics.spans.iter().any(|s| s.name == "cli.sweep"),
        "the top-level command span is missing"
    );

    // The Chrome export is valid JSON with the documented shape.
    let chrome: serde_json::Value =
        serde_json::from_str(&serial_rec.chrome_trace_json()).expect("trace JSON parses");
    let events = chrome
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Determinism: repeat runs and the parallel explorer digest
    // identically (timestamps and the inherently racy counter names
    // are excluded by construction).
    let digest = serial_rec.determinism_digest();
    let (json_again, serial_again) = traced_sweep(&Explorer::serial());
    assert_eq!(baseline, json_again);
    assert_eq!(
        digest,
        serial_again.determinism_digest(),
        "repeat runs must digest identically"
    );
    let (parallel_json, parallel_rec) = traced_sweep(&Explorer::parallel());
    assert_eq!(
        baseline, parallel_json,
        "parallel sweep output must match serial"
    );
    assert_spans_balance(&parallel_rec);
    assert_eq!(
        digest,
        parallel_rec.determinism_digest(),
        "serial and parallel runs must digest identically"
    );

    // The frame engine: a traced Monte-Carlo batch attributes the
    // stimulus render and the clean-reference DAG pass to their own
    // spans, once per plan and nested under `frame.plan`, and the noisy
    // DAG pass once per seed. Tracing leaves the frames untouched.
    let model = quickstart::model(30.0).unwrap().into_validated();
    let seeds = [1, 2, 3];
    let untraced = model.simulate_frames(&seeds, &Stimulus::default()).unwrap();
    let session = ObsSession::begin();
    let traced = model.simulate_frames(&seeds, &Stimulus::default()).unwrap();
    let frames = session.finish();
    assert_eq!(untraced, traced, "frames must be identical with tracing on");
    assert_spans_balance(&frames);
    let count = |name: &str| {
        frames
            .metrics()
            .spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count)
    };
    assert_eq!(count("frame.plan"), 1);
    assert_eq!(count("frame.render"), 1);
    assert_eq!(count("functional.dag_reference"), 1);
    assert_eq!(count("functional.dag"), seeds.len() as u64);
    assert_nested_under(
        &frames,
        &["frame.render", "functional.dag_reference"],
        "frame.plan",
    );

    // And after everything, the facade is disabled again: a fresh
    // untraced run still matches.
    assert!(!obs_core::enabled());
    assert_eq!(baseline, sweep_json(&Explorer::serial()));
}

/// Asserts every span named in `children` opens while a `parent` span
/// is open on the same thread.
fn assert_nested_under(recording: &Recording, children: &[&str], parent: &str) {
    use camj::obs::EventKind;
    for (tid, events) in recording.threads() {
        let mut stack: Vec<&'static str> = Vec::new();
        for event in events {
            match event.kind {
                EventKind::Begin => {
                    assert!(
                        !children.contains(&event.name) || stack.contains(&parent),
                        "tid {tid}: '{}' opened outside '{parent}' (open: {stack:?})",
                        event.name
                    );
                    stack.push(event.name);
                }
                EventKind::End => {
                    stack.pop();
                }
                EventKind::Counter => {}
            }
        }
    }
}
