//! `serve_mix`: a seeded request mix against `camj serve` over two
//! closed-loop TCP connections.
//!
//! Each connection sends its next request only after the `done` frame
//! of the previous one. The mix, over the five committed descriptions:
//! ~60% `estimate` at a feasible fps, ~20% `sweep` (32 fps values),
//! ~10% `pareto` (16 fps values), ~10% `simulate` (uniform stimuli on
//! the small designs, Ed-Gaze on its eye image). About a quarter are
//! exact repeats of an earlier request, half from the last few and half
//! from the whole history.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use camj_desc::DesignDesc;
use camj_serve::protocol::{parse_frame, parse_request, stamp_line};
use camj_serve::SharedState;
use serde_json::Value;

use crate::calib::Calib;
use crate::daemon::{Conn, Daemon};
use crate::pass::{Budget, PassOut, Run};
use crate::proc;
use crate::setup::Setup;
use crate::stats::{fnv, Rng};

/// Closed-loop client connections (the host has two cores).
const CONNECTIONS: usize = 2;
/// Request fps in milli-fps: 1..=100 fps, feasible for every committed
/// design, on a grid fine enough that fresh requests rarely collide.
const FPS_M: (u32, u32) = (1_000, 100_000);
/// Sweep and pareto grid steps, milli-fps.
const STEPS_M: [u32; 4] = [250, 500, 1_000, 2_000];
const SWEEP_POINTS: u32 = 32;
const PARETO_POINTS: u32 = 16;
const REPEAT_SHARE: f64 = 0.25;
const RECENT: usize = 16;
/// Indices into `setup::DESIGNS` of the designs simulated under a
/// uniform stimulus, and of Ed-Gaze (simulated on its own image).
const SMALL_DESIGNS: [usize; 3] = [0, 1, 2];
const EDGAZE: usize = 4;
/// Unmeasured requests at the start of a fixed-size pass.
const FIXED_WARMUP: u64 = 100;
/// The daemon's cache and dedup map grow with every distinct request,
/// so its high-water mark is sampled after a fixed number of measured
/// requests rather than after a fixed time (which would tie it to
/// throughput).
const RSS_AFTER: u64 = 8_000;
/// Distinct requests replayed in process after timing, to check the
/// daemon's bytes and time the serve layer from inside.
const VERIFY_SAMPLE: usize = 24;
/// `stats` round trips timed after the mix.
const STATS_PROBES: u64 = 32;
/// How often each client re-times the calibration kernel; every
/// request is scaled by its client's latest sample.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);
/// First id of the mix (ids 1..4 are the golden and probe requests).
const FIRST_ID: u64 = 100;

#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Spec {
    Estimate {
        design: usize,
        fps_m: u32,
    },
    Sweep {
        design: usize,
        start_m: u32,
        step_m: u32,
    },
    Pareto {
        design: usize,
        start_m: u32,
        step_m: u32,
    },
    Simulate {
        design: usize,
        seed: u32,
        level_q: Option<u32>,
    },
}

fn fps_list(start_m: u32, step_m: u32, n: u32) -> String {
    (0..n)
        .map(|i| format!("{}", f64::from(start_m + i * step_m) / 1e3))
        .collect::<Vec<_>>()
        .join(",")
}

impl Spec {
    fn design(&self) -> usize {
        match *self {
            Spec::Estimate { design, .. }
            | Spec::Sweep { design, .. }
            | Spec::Pareto { design, .. }
            | Spec::Simulate { design, .. } => design,
        }
    }

    /// The request line (no newline).
    fn line(&self, id: u64, setup: &Setup) -> String {
        let design = &setup.designs[self.design()].served;
        let tail = match *self {
            Spec::Estimate { fps_m, .. } => {
                format!("\"kind\":\"estimate\",\"fps\":[{}]", fps_list(fps_m, 0, 1))
            }
            Spec::Sweep {
                start_m, step_m, ..
            } => format!(
                "\"kind\":\"sweep\",\"fps\":[{}]",
                fps_list(start_m, step_m, SWEEP_POINTS)
            ),
            Spec::Pareto {
                start_m, step_m, ..
            } => format!(
                "\"kind\":\"pareto\",\"fps\":[{}]",
                fps_list(start_m, step_m, PARETO_POINTS)
            ),
            Spec::Simulate {
                seed,
                level_q: Some(q),
                ..
            } => format!(
                "\"kind\":\"simulate\",\"seed\":{seed},\"stimulus\":\"uniform:{}\"",
                f64::from(q) / 20.0
            ),
            Spec::Simulate { seed, .. } => format!("\"kind\":\"simulate\",\"seed\":{seed}"),
        };
        format!("{{\"id\":{id},{tail},\"design\":{design}}}")
    }

    /// Frames before `done` in a successful reply.
    fn frames(&self) -> usize {
        match self {
            Spec::Sweep { .. } => SWEEP_POINTS as usize + 1,
            _ => 1,
        }
    }
}

/// The seeded request generator.
struct Mix {
    rng: Rng,
    fresh: Vec<Spec>,
}

impl Mix {
    fn next(&mut self) -> Spec {
        let rng = &mut self.rng;
        if !self.fresh.is_empty() && rng.unit() < REPEAT_SHARE {
            let n = self.fresh.len();
            let from = if rng.unit() < 0.5 {
                n - n.min(RECENT)
            } else {
                0
            };
            return self.fresh[from + rng.below((n - from) as u64) as usize].clone();
        }
        let design = rng.below(5) as usize;
        let range = |rng: &mut Rng, n: u32| {
            let step_m = *rng.pick(&STEPS_M);
            let span = (n - 1) * step_m;
            let start_m = FPS_M.0 + rng.below(u64::from(FPS_M.1 - FPS_M.0 - span + 1)) as u32;
            (start_m, step_m)
        };
        let roll = rng.unit();
        let spec = if roll < 0.6 {
            Spec::Estimate {
                design,
                fps_m: FPS_M.0 + rng.below(u64::from(FPS_M.1 - FPS_M.0 + 1)) as u32,
            }
        } else if roll < 0.8 {
            let (start_m, step_m) = range(rng, SWEEP_POINTS);
            Spec::Sweep {
                design,
                start_m,
                step_m,
            }
        } else if roll < 0.9 {
            let (start_m, step_m) = range(rng, PARETO_POINTS);
            Spec::Pareto {
                design,
                start_m,
                step_m,
            }
        } else if rng.below(4) == 0 {
            Spec::Simulate {
                design: EDGAZE,
                seed: rng.below(1 << 20) as u32,
                level_q: None,
            }
        } else {
            Spec::Simulate {
                design: *rng.pick(&SMALL_DESIGNS),
                seed: rng.below(1 << 20) as u32,
                level_q: Some(2 + rng.below(17) as u32),
            }
        };
        self.fresh.push(spec.clone());
        spec
    }
}

/// One answered request.
struct Record {
    seq: u64,
    spec: Spec,
    latency: f64,
    /// The host's slowness when the request was sent (see `calib`).
    slowness: f64,
    done_at: Instant,
    measured: bool,
    /// Digest of the reply frames without ids and without `done`.
    digest: Option<u64>,
}

/// The reply lines with their `{"id":N,` prefix removed, or why they
/// are not a successful reply of the expected shape.
fn strip(frames: &[String], id: u64, expect: usize) -> Result<Vec<&str>, String> {
    let prefix = format!("{{\"id\":{id},");
    let mut body = Vec::with_capacity(frames.len());
    for f in frames {
        let rest = f
            .strip_prefix(&prefix)
            .ok_or_else(|| format!("frame without id {id}: {}", clip(f)))?;
        if rest.starts_with("\"frame\":\"error\"") {
            return Err(format!("error frame: {}", clip(f)));
        }
        body.push(rest);
    }
    if body.len() != expect + 1 {
        return Err(format!("{} frames, expected {}", body.len(), expect + 1));
    }
    body.pop();
    Ok(body)
}

fn clip(s: &str) -> &str {
    let mut n = s.len().min(200);
    while !s.is_char_boundary(n) {
        n -= 1;
    }
    &s[..n]
}

fn digest(body: &[&str]) -> u64 {
    let chunks: Vec<&[u8]> = body.iter().flat_map(|l| [l.as_bytes(), b"\n"]).collect();
    fnv(&chunks)
}

pub fn run(run: &Run, setup: &mut Setup, budget: Budget) -> PassOut {
    let mut out = PassOut::default();
    let conns: Result<Vec<Conn>, _> = (0..CONNECTIONS)
        .map(|_| Conn::connect(&setup.daemon.addr))
        .collect();
    let mut conns = match conns {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("connecting to the daemon: {e}"));
            return out;
        }
    };
    if budget.opens() {
        golden_and_probe(setup, &mut conns[0], &mut out);
    }

    let start = Instant::now();
    let (warm_end, end, total) = match budget {
        Budget::Timed { warmup, measure } => (start + warmup, start + warmup + measure, u64::MAX),
        Budget::Fixed { size, .. } => (start, start + Duration::from_secs(120), size as u64),
    };
    let loop_state = Clients {
        mix: Mutex::new((
            Mix {
                rng: Rng::new(run.seed_for(budget, 3)),
                fresh: Vec::new(),
            },
            0,
        )),
        budget,
        warm_end,
        end,
        total,
        measured: AtomicU64::new(0),
        rss: OnceLock::new(),
        pid: setup.daemon.pid(),
    };
    let shared = &*setup;
    let results: Vec<(Vec<Record>, PassOut)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let state = &loop_state;
                scope.spawn(move || client(run, shared, conn, state))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    drop(conns);

    let mut records = Vec::new();
    for (r, o) in results {
        records.extend(r);
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.problems.extend(o.problems);
        out.traced_walls.extend(o.traced_walls);
        out.untraced_walls.extend(o.untraced_walls);
    }
    records.sort_by_key(|r| r.seq);
    summarize(&records, &mut out);
    if budget.closes() {
        post(run, setup, &records, &mut out);
    }
    if let Some(&rss) = loop_state.rss.get() {
        out.notes.push(format!(
            "peak_rss_mb is the daemon's VmHWM after {RSS_AFTER} measured requests; \
             {:.1} MB at the end",
            out.peak_rss_mb.unwrap_or(0.0)
        ));
        out.peak_rss_mb = Some(rss);
    } else if budget.is_timed() {
        // The daemon's memory grows with the distinct requests it has
        // seen, so a high-water mark taken after fewer requests would
        // read a slowdown as a memory gain.
        out.problems.push(format!(
            "fewer than {RSS_AFTER} requests measured: peak_rss_mb is not comparable"
        ));
    }
    out
}

/// What the client loops share: the request sequence, the time window,
/// and the daemon's high-water mark sampled after [`RSS_AFTER`]
/// measured requests.
struct Clients {
    mix: Mutex<(Mix, u64)>,
    budget: Budget,
    warm_end: Instant,
    end: Instant,
    total: u64,
    measured: AtomicU64,
    rss: OnceLock<f64>,
    pid: String,
}

/// The committed transcript's estimate and sweep (request ids 1 and 2
/// of `descriptions/quickstart.serve.txt`) must come back byte for
/// byte; then the known-defect probe: Ed-Gaze sent verbatim, whose
/// relative image path the daemon resolves against its own working
/// directory instead of the description's.
fn golden_and_probe(setup: &Setup, conn: &mut Conn, out: &mut PassOut) {
    let quickstart = &setup.designs[0].served;
    let sweep_fps: Vec<String> = (10..74).map(|f| f.to_string()).collect();
    let requests = [
        (
            1,
            format!("{{\"id\":1,\"kind\":\"estimate\",\"design\":{quickstart},\"fps\":[30]}}"),
        ),
        (
            2,
            format!(
                "{{\"id\":2,\"kind\":\"sweep\",\"design\":{quickstart},\"fps\":[{}]}}",
                sweep_fps.join(",")
            ),
        ),
    ];
    for (id, line) in requests {
        out.attempted += 1;
        match conn.request(&line, id) {
            Ok(frames) if frames == setup.goldens.serve_frames(id) => {}
            Ok(_) => out.fail(format!(
                "served request {id} differs from descriptions/quickstart.serve.txt"
            )),
            Err(e) => out.fail(format!("golden request {id}: {e}")),
        }
    }
    out.opening_ops += 2;
    let edgaze = &setup.designs[EDGAZE].verbatim;
    let line = format!("{{\"id\":4,\"kind\":\"validate\",\"design\":{edgaze}}}");
    out.probes += 1;
    match conn.request(&line, 4) {
        Ok(frames)
            if frames.iter().any(|f| {
                f.starts_with("{\"id\":4,\"frame\":\"error\"") && f.contains("stimulus.image.path")
            }) =>
        {
            out.probes_failed += 1;
            out.notes.push(format!(
                "known defect, counted in ok_ratio: an inline design's relative \
                 stimulus path resolves against the daemon's cwd: {}",
                clip(&frames[0])
            ));
        }
        Ok(frames) if frames.iter().any(|f| f.contains("\"frame\":\"error\"")) => {
            out.attempted += 1;
            out.fail(format!(
                "defect probe failed with another error: {}",
                clip(&frames[0])
            ));
        }
        Ok(_) => out
            .notes
            .push("known defect probe: edgaze.json sent verbatim now validates".to_owned()),
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("defect probe: {e}"));
        }
    }
}

/// One closed-loop connection: take the next request of the shared
/// sequence, send it, wait for `done`, check the reply.
fn client(run: &Run, setup: &Setup, conn: &mut Conn, state: &Clients) -> (Vec<Record>, PassOut) {
    let budget = state.budget;
    let mut records = Vec::new();
    let mut out = PassOut::default();
    let mut calib = Calib::new();
    let mut slowness = calib.slowness();
    let mut calibrated = Instant::now();
    loop {
        if calibrated.elapsed() >= CALIBRATE_EVERY {
            slowness = calib.slowness();
            calibrated = Instant::now();
        }
        let now = Instant::now();
        if now >= state.end {
            break;
        }
        let (seq, spec) = {
            let mut guard = state
                .mix
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (gen, next) = &mut *guard;
            if *next >= state.total {
                break;
            }
            *next += 1;
            (*next - 1, gen.next())
        };
        let id = FIRST_ID + seq;
        let line = spec.line(id, setup);
        let ctx = run.op(seq, budget);
        let measured = match budget {
            Budget::Timed { .. } => now >= state.warm_end,
            Budget::Fixed { .. } => seq >= FIXED_WARMUP,
        };
        let ((reply, latency), wall) = run.tracer.span(ctx, "bench.job", |c| {
            let (reply, latency) = run
                .tracer
                .span(c, "serve.request", |_| conn.request(&line, id));
            let reply = reply
                .map_err(|e| format!("request {id}: {e}"))
                .and_then(|frames| {
                    strip(&frames, id, spec.frames())
                        .map(|body| digest(&body))
                        .map_err(|e| format!("request {id} ({spec:?}): {e}"))
                });
            (reply, latency)
        });
        out.attempted += 1;
        let digest = match reply {
            Ok(d) => Some(d),
            Err(e) => {
                let broken = e.contains("daemon closed") || e.contains("timed out");
                out.fail(e);
                if broken {
                    break;
                }
                None
            }
        };
        if measured {
            out.op_wall(ctx, wall);
            if budget.is_timed() && state.measured.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER
            {
                if let Some(rss) = proc::vm_hwm_mb(&state.pid) {
                    let _ = state.rss.set(rss);
                }
            }
        }
        records.push(Record {
            seq,
            spec,
            latency,
            slowness,
            done_at: Instant::now(),
            measured,
            digest,
        });
    }
    (records, out)
}

/// Latency and throughput over the measured requests, and the
/// repeat-consistency check over all of them.
fn summarize(records: &[Record], out: &mut PassOut) {
    let mut by_spec: BTreeMap<&Spec, u64> = BTreeMap::new();
    for r in records {
        if let Some(d) = r.digest {
            if *by_spec.entry(&r.spec).or_insert(d) != d {
                out.fail(format!(
                    "{:?}: repeated request answered differently",
                    r.spec
                ));
            }
        }
    }
    let measured: Vec<&Record> = records
        .iter()
        .filter(|r| r.measured && r.digest.is_some())
        .collect();
    for r in &measured {
        out.timing(
            "serve_latency_ms",
            r.latency * 1e3 / r.slowness,
            r.latency * 1e3,
        );
        out.obs.push(("slowness", r.slowness));
    }
    let repeats = records.len() - by_spec.len();
    out.notes.push(format!(
        "serve mix: {} requests ({} measured, {} distinct, {} exact repeats)",
        records.len(),
        measured.len(),
        by_spec.len(),
        repeats
    ));
    // Throughput over the measured requests: each is counted scaled by
    // its slowness, so that the ratio to the window is the rate on the
    // nominal host.
    let from = measured
        .iter()
        .map(|r| r.done_at - Duration::from_secs_f64(r.latency))
        .min();
    let last = measured.iter().map(|r| r.done_at).max();
    if let (Some(from), Some(last)) = (from, last) {
        let scaled: f64 = measured.iter().map(|r| r.slowness).sum();
        out.obs.push(("serve_done", scaled));
        out.raw.push(("serve_done", measured.len() as f64));
        out.obs
            .push(("serve_window_s", last.duration_since(from).as_secs_f64()));
    }
}

/// After the mix: `stats` round trips (transport + queue + render with
/// no work), the daemon's counters and peak RSS, and an in-process
/// replay of distinct requests through `SharedState::respond`, which
/// must match the daemon's bytes.
fn post(run: &Run, setup: &mut Setup, records: &[Record], out: &mut PassOut) {
    let ctx = run.post();
    let tracer = &run.tracer;
    tracer.span(ctx, "bench.post", |ctx| {
        let mut last = None;
        for k in 0..STATS_PROBES {
            let id = 10_000_000 + k;
            let line = format!("{{\"id\":{id},\"kind\":\"stats\"}}");
            let (reply, _) =
                tracer.span(ctx, "serve.rtt_stats", |_| setup.daemon.control(&line, id));
            match reply {
                Ok(frames) => last = frames.into_iter().next(),
                Err(e) => out.fail(format!("stats request: {e}")),
            }
        }
        if let Some(stats) = last.as_deref().and_then(|l| parse_frame(l).ok()) {
            let body = stats.body.unwrap_or(Value::Null);
            let num = |path: &[&str]| -> Option<f64> {
                let mut v = &body;
                for key in path {
                    v = v.as_object()?.get(key)?;
                }
                v.as_f64()
            };
            if let (Some(hits), Some(requests)) = (num(&["dedup_hits"]), num(&["requests"])) {
                out.layer
                    .push(("serve.dedup_hit_ratio", hits / requests.max(1.0)));
            }
            if let (Some(h), Some(m)) = (num(&["cache", "hits"]), num(&["cache", "misses"])) {
                out.layer.push(("cache.hit_ratio", h / (h + m).max(1.0)));
            }
            for (name, key) in [("cache.entries", "entries"), ("cache.bytes", "bytes")] {
                if let Some(v) = num(&["cache", key]) {
                    out.layer.push((name, v));
                }
            }
        }
        out.peak_rss_mb = proc::vm_hwm_mb(&setup.daemon.pid());
        replay(run, ctx, setup, records, out);
    });
}

fn replay(run: &Run, ctx: crate::trace::Ctx, setup: &Setup, records: &[Record], out: &mut PassOut) {
    let tracer = &run.tracer;
    let state = match SharedState::new(None, false) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("in-process serve state: {e}")),
    };
    let mut picked: HashMap<&Spec, u64> = HashMap::new();
    for r in records {
        if picked.len() == VERIFY_SAMPLE {
            break;
        }
        if let Some(d) = r.digest {
            picked.entry(&r.spec).or_insert(d);
        }
    }
    let mut picked: Vec<(&Spec, u64)> = picked.into_iter().collect();
    picked.sort();
    for (k, (spec, want)) in picked.into_iter().enumerate() {
        let id = 1_000_000 + k as u64;
        let line = spec.line(id, setup);
        let (request, _) = tracer.span(ctx, "serve.parse", |_| parse_request(&line));
        let Ok(request) = request else {
            out.fail(format!("{spec:?}: the request line does not parse"));
            continue;
        };
        let text = &setup.designs[spec.design()].served;
        let (desc, _) = tracer.span(ctx, "desc.parse", |_| DesignDesc::from_json(text));
        match desc {
            Ok(desc) => {
                if let (Err(e), _) = tracer.span(ctx, "desc.build", |_| desc.build()) {
                    out.fail(format!("{spec:?}: design does not build: {e}"));
                }
            }
            Err(e) => out.fail(format!("{spec:?}: design does not parse: {e}")),
        }
        let ((rendered, _), _) =
            tracer.span(ctx, "serve.respond_cold", |_| state.respond(&request));
        tracer.span(ctx, "serve.respond_warm", |_| state.respond(&request));
        let (stamped, _) = tracer.span(ctx, "serve.stamp", |_| {
            rendered
                .iter()
                .map(|l| stamp_line(l, id))
                .collect::<Vec<_>>()
        });
        let prefix = format!("{{\"id\":{id},");
        let body: Vec<&str> = stamped
            .iter()
            .filter_map(|l| l.strip_prefix(&prefix))
            .collect();
        if body.len() != stamped.len() || digest(&body) != want {
            out.fail(format!(
                "{spec:?}: in-process respond differs from the daemon's reply"
            ));
        }
    }
}

/// Shuts the daemon down as request 3 of the committed transcript and
/// checks its reply bytes.
pub fn shutdown(daemon: Daemon, setup_goldens: &crate::setup::Goldens) -> Result<(), String> {
    let (reply, _) = daemon.shutdown()?;
    if reply != setup_goldens.serve_frames(3) {
        return Err("shutdown reply differs from descriptions/quickstart.serve.txt".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_has_the_documented_shape() {
        let mut mix = Mix {
            rng: Rng::new(7),
            fresh: Vec::new(),
        };
        let n = 20_000;
        let mut seen = std::collections::HashSet::new();
        let (mut repeats, mut kinds) = (0, [0usize; 4]);
        for _ in 0..n {
            let spec = mix.next();
            kinds[match spec {
                Spec::Estimate { .. } => 0,
                Spec::Sweep { .. } => 1,
                Spec::Pareto { .. } => 2,
                Spec::Simulate { .. } => 3,
            }] += 1;
            if !seen.insert(spec) {
                repeats += 1;
            }
        }
        let share = |k: usize| k as f64 / n as f64;
        assert!((0.22..0.30).contains(&share(repeats)), "{repeats} repeats");
        for (k, want) in kinds.iter().zip([0.6, 0.2, 0.1, 0.1]) {
            assert!((share(*k) - want).abs() < 0.03, "{kinds:?}");
        }
    }
}
