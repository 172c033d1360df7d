//! The request executor shared by the local CLI and the daemon, plus
//! the daemon's shared state: one process-wide [`EstimateCache`]
//! (optionally disk-backed) and a request dedup map.
//!
//! [`execute`] is the one place a [`Request`] turns into a result. It
//! loads the design — a description file's text, or the request's
//! inline value — resolves frame-rate targets, objectives,
//! constraints, and search knobs, runs the estimation stack against a
//! caller-owned cache, and returns a typed [`Outcome`] or a
//! path-qualified [`Reject`]. `camj estimate|simulate|sweep|pareto|
//! search` call it in-process against a fresh cache and render text,
//! JSON, or CSV; [`SharedState::respond`] calls it against the
//! daemon's warm cache and renders protocol frames. `camj --connect`
//! only swaps the transport.
//!
//! A description's `stimulus` block is resolved — an image file read
//! and decoded — only when something reads it: `simulate` without a
//! `stimulus` override, and `pareto`/`search` with an `accuracy:*`
//! objective. A relative image path resolves against the description
//! file's directory, or the daemon's working directory for an inline
//! design.
//!
//! ## Dedup / in-flight contract
//!
//! Deterministic request kinds (`estimate`, `simulate`, `sweep`,
//! `pareto`, `search`) are keyed by [`Request::fingerprint`] — the
//! request with its correlation id zeroed — into a map of per-request
//! `OnceLock` slots, the same shape the estimate cache uses per entry:
//!
//! * two clients submitting the same fingerprint **join the same
//!   in-flight slot** — the computation runs once, late arrivals block
//!   on the slot and replay the finished frames under their own id;
//! * completed slots stay resident, so a repeat of any earlier request
//!   is answered from memory without touching the estimation stack
//!   (this is what makes a warm repeat orders of magnitude faster);
//! * a handler panic propagates out of `get_or_init` leaving the slot
//!   **uninitialized** — the panicking request gets a structured
//!   `error` frame from the worker's `catch_unwind`, and the next
//!   identical request recomputes cleanly instead of replaying a
//!   half-built response.
//!
//! `validate` is cheap and side-effect-free, and `stats`/`shutdown`
//! are volatile by design; none of them deduplicate. A request
//! carrying a `fault` directive never enters the map either, so
//! injected failures can't poison real traffic.
//!
//! Result bodies are **deterministic**: they exclude cache statistics
//! and any other warmth-dependent value (the `stats` request exposes
//! those separately), so a cold daemon, a tier-warmed daemon, and a
//! dedup replay all produce byte-identical frames for the same
//! request.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use serde_json::Value;

use camj_core::energy::{EstimateCache, EstimateReport, ValidatedModel};
use camj_core::functional::{FrameSimReport, McFrameSimReport, Stimulus};
use camj_desc::ir::SweepIr;
use camj_desc::DesignDesc;
use camj_explore::{
    Constraint, DesignPoint, Explorer, Objective, ParetoQuery, ParetoResults, PointError,
    SearchResults, SearchSpec, Sweep, SweepResults,
};
use camj_tech::fingerprint::Fingerprint;

use crate::protocol::{serialize_frame, ConstraintsReq, Frame, Reject, Request, RequestKind};
use crate::tier::DiskTier;

/// Where [`execute`] reads the design from.
#[derive(Debug, Clone, Copy)]
pub enum Design<'a> {
    /// The request's inline `design` value (`None` when absent, which
    /// rejects at `request.design`). A relative image stimulus
    /// resolves against the working directory.
    Inline(Option<&'a Value>),
    /// A description file's text, parsed once, and the directory a
    /// relative image stimulus resolves against.
    File {
        /// The file's contents.
        text: &'a str,
        /// The file's directory.
        dir: Option<&'a Path>,
    },
}

/// What [`execute`] produced for one request.
#[derive(Debug)]
pub struct Outcome {
    /// The design's `name`.
    pub name: String,
    /// The design's frame rate, after any single-target override.
    pub fps: f64,
    /// The kind-specific result.
    pub answer: Answer,
}

/// The typed result of one request kind.
#[derive(Debug)]
pub enum Answer {
    /// `validate`: the design parsed, validated, and built.
    Validated,
    /// `estimate`: one energy report.
    Estimate(Box<EstimateReport>),
    /// `simulate` with one seed.
    Frame(Box<FrameSimReport>),
    /// `simulate` with `samples > 1`: the Monte-Carlo batch.
    MonteCarlo(Box<McFrameSimReport>),
    /// `sweep`: one outcome per frame-rate target, in grid order.
    Sweep(SweepResults<EstimateReport>),
    /// `pareto`, with the query (objectives and constraints) it ran.
    Pareto(Box<ParetoResults>, ParetoQuery),
    /// `search`, with the query it ran.
    Search(Box<SearchResults>, ParetoQuery),
}

/// Executes one request against `cache`: the single implementation of
/// every request kind's resolution rules, shared by the CLI and the
/// daemon. `stats` and `shutdown` are daemon-only and reject at
/// `request.kind`.
///
/// Rejections name the offending field: `request.design…` for a
/// design that cannot be loaded, built, or estimated, and
/// `request.fps`, `request.samples`, `request.stimulus`,
/// `request.objectives`, `request.constraints.*`, or a search knob for
/// a bad request field.
///
/// May panic when `CAMJ_FAULT_PANIC_FPS` targets a grid point (a test
/// hook); grid walks capture that panic per point.
pub fn execute(
    request: &Request,
    design: Design<'_>,
    cache: &Arc<EstimateCache>,
) -> Result<Outcome, Reject> {
    match request.kind {
        RequestKind::Validate => {
            let loaded = Loaded::new(design, None)?;
            Ok(outcome(loaded.desc, Answer::Validated))
        }
        RequestKind::Estimate => {
            let Loaded { desc, model, .. } = Loaded::new(design, single_fps(request)?)?;
            let report = model
                .with_cache(Arc::clone(cache))
                .estimate()
                .map_err(|e| Reject::at("request.design", format!("estimation failed: {e}")))?;
            Ok(outcome(desc, Answer::Estimate(Box::new(report))))
        }
        RequestKind::Simulate => simulate(request, design, cache),
        RequestKind::Sweep => {
            let loaded = Loaded::new(design, None)?;
            let sweep = Sweep::new().fps_targets(sweep_targets(request, &loaded.desc)?);
            let results =
                Explorer::new().sweep_incremental(&sweep, cache, point_builder(&loaded.model));
            Ok(outcome(loaded.desc, Answer::Sweep(results)))
        }
        RequestKind::Pareto | RequestKind::Search => explore(request, design, cache),
        RequestKind::Stats | RequestKind::Shutdown => Err(Reject::at(
            "request.kind",
            format!("'{}' is answered by the daemon", request.kind.as_str()),
        )),
    }
}

/// A loaded design: the description, its built model (without the
/// stimulus), and where a relative stimulus path resolves.
struct Loaded<'a> {
    desc: DesignDesc,
    model: ValidatedModel,
    dir: Option<&'a Path>,
}

impl<'a> Loaded<'a> {
    /// Parses, validates, and builds the design, optionally overriding
    /// its frame rate. The stimulus block is left unresolved.
    fn new(design: Design<'a>, fps: Option<f64>) -> Result<Self, Reject> {
        let reject = |e: camj_desc::DescError| Reject::at("request.design", e.to_string());
        let (mut desc, dir) = match design {
            Design::File { text, dir } => (DesignDesc::from_json(text).map_err(reject)?, dir),
            Design::Inline(None) => {
                return Err(Reject::at(
                    "request.design",
                    "the request needs an inline design description",
                ))
            }
            // Round-trip through text so camj-desc's own loader — with
            // its path-qualified diagnostics — is the single authority.
            Design::Inline(Some(value)) => {
                let text = serde_json::to_string(value)
                    .map_err(|e| Reject::at("request.design", e.to_string()))?;
                (DesignDesc::from_json(&text).map_err(reject)?, None)
            }
        };
        if let Some(fps) = fps {
            desc.fps = fps;
        }
        let model = desc.build().map_err(reject)?;
        Ok(Self { desc, model, dir })
    }

    /// The description's own stimulus block, resolved (reading an
    /// image file) — `None` when the description has none.
    fn stimulus(&self) -> Result<Option<Stimulus>, Reject> {
        self.desc
            .stimulus
            .as_ref()
            .map(|ir| ir.resolve(self.dir))
            .transpose()
            .map_err(|e| Reject::at("request.design.stimulus", e.to_string()))
    }
}

fn outcome(desc: DesignDesc, answer: Answer) -> Outcome {
    Outcome {
        name: desc.name,
        fps: desc.fps,
        answer,
    }
}

fn simulate(
    request: &Request,
    design: Design<'_>,
    cache: &Arc<EstimateCache>,
) -> Result<Outcome, Reject> {
    let fps = single_fps(request)?;
    let seed = request.seed.unwrap_or(42);
    let samples = request.samples.unwrap_or(1);
    if !(1..=1024).contains(&samples) {
        return Err(Reject::at(
            "request.samples",
            format!("samples must be in 1..=1024, got {samples}"),
        ));
    }
    let requested = request
        .stimulus
        .as_deref()
        .map(str::parse::<Stimulus>)
        .transpose()
        .map_err(|e| Reject::at("request.stimulus", e))?;
    let loaded = Loaded::new(design, fps)?;
    // `request.stimulus` overrides the design's own block, which is
    // then never read.
    let stimulus = match requested {
        Some(stimulus) => stimulus,
        None => match loaded.stimulus()? {
            Some(stimulus) => stimulus,
            None => loaded.model.stimulus().clone(),
        },
    };
    let model = loaded.model.with_cache(Arc::clone(cache));
    let failed = |e| {
        Reject::at(
            "request.design",
            format!("functional simulation failed: {e}"),
        )
    };
    let answer = if samples > 1 {
        let seeds: Vec<u64> = (0..u64::from(samples))
            .map(|i| seed.wrapping_add(i))
            .collect();
        let report = model.simulate_frames(&seeds, &stimulus).map_err(failed)?;
        Answer::MonteCarlo(Box::new(report))
    } else {
        let report = model.simulate_frame(seed, &stimulus).map_err(failed)?;
        Answer::Frame(Box::new(report))
    };
    Ok(outcome(loaded.desc, answer))
}

/// `pareto` and `search` share their whole request surface; search
/// adds the adaptive-search knobs.
fn explore(
    request: &Request,
    design: Design<'_>,
    cache: &Arc<EstimateCache>,
) -> Result<Outcome, Reject> {
    let mut loaded = Loaded::new(design, None)?;
    let targets = sweep_targets(request, &loaded.desc)?;
    let spec = loaded.desc.sweep.as_ref();
    let names = match (&request.objectives, spec) {
        (Some(list), _) => list.clone(),
        (None, Some(sweep)) => sweep
            .objectives
            .clone()
            .unwrap_or_else(default_objective_names),
        (None, None) => default_objective_names(),
    };
    let objectives = names
        .iter()
        .map(|name| name.parse::<Objective>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| Reject::at("request.objectives", e))?;
    if objectives.is_empty() {
        return Err(Reject::at(
            "request.objectives",
            "at least one objective is required",
        ));
    }
    let accuracy = objectives.iter().any(|o| o.accuracy_metric().is_some());
    let query = constrain(ParetoQuery::new(objectives), request, spec)?;
    let search_spec = match request.kind {
        RequestKind::Search => Some(search_spec(request, spec)?),
        _ => None,
    };
    // Only accuracy objectives push the design's stimulus through the
    // pipeline; the others never read it.
    if accuracy {
        if let Some(stimulus) = loaded.stimulus()? {
            loaded.model = loaded.model.with_stimulus(stimulus);
        }
    }
    let sweep = Sweep::new().fps_targets(targets);
    let build = point_builder(&loaded.model);
    let answer = match search_spec {
        None => {
            let results = Explorer::new().pareto(&sweep, cache, &query, build);
            Answer::Pareto(Box::new(results), query)
        }
        Some(search_spec) => {
            let results = Explorer::new().search(&sweep, cache, &query, &search_spec, build);
            Answer::Search(Box::new(results), query)
        }
    };
    Ok(outcome(loaded.desc, answer))
}

/// Applies the feasibility budgets: the request's `constraints`
/// override the description's whole `sweep.constraints` block (the two
/// never mix).
fn constrain(
    mut query: ParetoQuery,
    request: &Request,
    spec: Option<&SweepIr>,
) -> Result<ParetoQuery, Reject> {
    let requested = request.constraints.filter(ConstraintsReq::any);
    let budgets = match (requested, spec.and_then(|s| s.constraints.as_ref())) {
        (Some(c), _) => [
            c.max_power_density_mw_per_mm2,
            c.max_digital_latency_ms,
            c.max_total_energy_pj,
        ],
        (None, Some(c)) => [
            c.max_power_density_mw_per_mm2,
            c.max_digital_latency_ms,
            c.max_total_energy_pj,
        ],
        (None, None) => return Ok(query),
    };
    let fields = [
        "max_power_density_mw_per_mm2",
        "max_digital_latency_ms",
        "max_total_energy_pj",
    ];
    for (field, budget) in fields.into_iter().zip(budgets) {
        let Some(budget) = budget else { continue };
        if !(budget.is_finite() && budget > 0.0) {
            let path = match requested {
                Some(_) => format!("request.constraints.{field}"),
                None => "request.design".to_owned(),
            };
            return Err(Reject::at(
                &path,
                format!("constraint budgets must be positive and finite, got {budget}"),
            ));
        }
        query = query.constrain(match field {
            "max_power_density_mw_per_mm2" => Constraint::MaxPowerDensity(budget),
            "max_digital_latency_ms" => Constraint::MaxDigitalLatency(budget),
            _ => Constraint::MaxTotalEnergy(budget),
        });
    }
    Ok(query)
}

/// Search knobs: the description's `sweep.search` defaults, overridden
/// by the request's. Description-side zeros were already rejected by
/// validation, so the builder asserts can't fire from user input.
fn search_spec(request: &Request, spec: Option<&SweepIr>) -> Result<SearchSpec, Reject> {
    let mut search = SearchSpec::new();
    if let Some(ir) = spec.and_then(|s| s.search.as_ref()) {
        if let Some(n) = ir.population {
            search = search.population(clamp_to_usize(n));
        }
        if let Some(n) = ir.generations {
            search = search.generations(clamp_to_usize(n));
        }
        if let Some(n) = ir.seed {
            search = search.seed(n);
        }
        if let Some(n) = ir.budget {
            search = search.budget(clamp_to_usize(n));
        }
    }
    let knobs = [
        (request.population, "request.population"),
        (request.generations, "request.generations"),
        (request.budget, "request.budget"),
    ];
    for (value, path) in knobs {
        let Some(n) = value else { continue };
        if n == 0 {
            return Err(Reject::at(path, "must be a positive integer"));
        }
        search = match path {
            "request.population" => search.population(clamp_to_usize(n)),
            "request.generations" => search.generations(clamp_to_usize(n)),
            _ => search.budget(clamp_to_usize(n)),
        };
    }
    if let Some(seed) = request.seed {
        search = search.seed(seed);
    }
    Ok(search)
}

/// The per-point model builder every grid walk shares. Test hook:
/// `CAMJ_FAULT_PANIC_FPS=<fps>` makes it panic at that frame-rate
/// target, so the captured-panic paths can be driven end to end.
fn point_builder(
    model: &ValidatedModel,
) -> impl Fn(&DesignPoint) -> Result<ValidatedModel, PointError> + Sync + '_ {
    let fault_fps: Option<f64> = std::env::var("CAMJ_FAULT_PANIC_FPS")
        .ok()
        .and_then(|v| v.parse().ok());
    move |point| {
        let fps = point.fps("fps");
        if fault_fps == Some(fps) {
            panic!("injected fault: fps {fps}");
        }
        Ok(model.with_fps(fps))
    }
}

/// `estimate`/`simulate` take at most one frame-rate target.
fn single_fps(request: &Request) -> Result<Option<f64>, Reject> {
    match request.fps.as_deref() {
        None | Some([]) => Ok(None),
        Some([fps]) if fps.is_finite() && *fps > 0.0 => Ok(Some(*fps)),
        Some([fps]) => Err(Reject::at(
            "request.fps",
            format!("fps must be positive and finite, got {fps}"),
        )),
        Some(more) => Err(Reject::at(
            "request.fps",
            format!(
                "'{}' takes a single fps target, got {}",
                request.kind.as_str(),
                more.len()
            ),
        )),
    }
}

/// Sweep targets: the request's list, else the design's `sweep.fps`.
fn sweep_targets(request: &Request, desc: &DesignDesc) -> Result<Vec<f64>, Reject> {
    let targets = match (&request.fps, &desc.sweep) {
        (Some(list), _) if !list.is_empty() => list.clone(),
        (_, Some(sweep)) if !sweep.fps.is_empty() => sweep.fps.clone(),
        _ => {
            return Err(Reject::at(
                "request.fps",
                "no frame-rate targets: set request.fps or a `sweep.fps` list in the design",
            ))
        }
    };
    if let Some(fps) = targets.iter().find(|f| !(f.is_finite() && **f > 0.0)) {
        return Err(Reject::at(
            "request.fps",
            format!("fps targets must be positive and finite, got {fps}"),
        ));
    }
    Ok(targets)
}

/// The objectives minimised when neither the request nor the design
/// names any.
fn default_objective_names() -> Vec<String> {
    vec!["total_energy".to_owned(), "power_density".to_owned()]
}

/// Saturating u64 → usize for description/request knobs (the explorer
/// caps everything by the grid size anyway).
fn clamp_to_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

// ---------------------------------------------------------------------
// The daemon's shared state
// ---------------------------------------------------------------------

/// A finished response: the id-less wire lines of one request's frames.
type Rendered = Arc<Vec<String>>;

/// One in-flight/completed dedup slot (same shape as a cache entry).
type DedupSlot = Arc<OnceLock<Rendered>>;

/// The daemon's process-wide shared state.
#[derive(Debug)]
pub struct SharedState {
    cache: Arc<EstimateCache>,
    tier: Option<Arc<DiskTier>>,
    fault_injection: bool,
    requests: AtomicU64,
    dedup_hits: AtomicU64,
    dedup: Mutex<HashMap<Fingerprint, DedupSlot>>,
}

impl SharedState {
    /// Builds the daemon state: a fresh estimate cache, disk-backed
    /// when `cache_dir` is given. `fault_injection` arms the request
    /// `fault` directive (tests only).
    pub fn new(cache_dir: Option<&Path>, fault_injection: bool) -> std::io::Result<Self> {
        let tier = match cache_dir {
            Some(dir) => Some(Arc::new(DiskTier::open(dir)?)),
            None => None,
        };
        let cache = match &tier {
            Some(tier) => EstimateCache::shared_with_tier(Arc::clone(tier) as _),
            None => EstimateCache::shared(),
        };
        Ok(Self {
            cache,
            tier,
            fault_injection,
            requests: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup: Mutex::new(HashMap::new()),
        })
    }

    /// The shared estimate cache (tests inspect its stats).
    #[must_use]
    pub fn cache(&self) -> &Arc<EstimateCache> {
        &self.cache
    }

    /// Answers one request: the response frames, pre-rendered as
    /// id-less protocol lines (the caller stamps the client's id with
    /// [`crate::protocol::stamp_line`]) and whether the daemon should
    /// stop afterwards. Rendering once at compute time is what makes a
    /// dedup replay nearly free: late arrivals splice their id into
    /// finished strings instead of re-serializing frame bodies.
    ///
    /// May panic (a handler bug, or an armed `fault` directive); the
    /// worker loop catches that and renders a structured error frame,
    /// keeping the daemon up.
    pub fn respond(&self, request: &Request) -> (Rendered, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let _span = obs_core::span("serve.request");
        match request.kind {
            RequestKind::Shutdown => {
                let mut body = serde_json::Map::new();
                body.insert("stopping", Value::Bool(true));
                (
                    Arc::new(render(&[Frame::result(Value::Object(body))])),
                    true,
                )
            }
            RequestKind::Stats | RequestKind::Validate => {
                (Arc::new(render(&self.compute(request))), false)
            }
            _ if request.fault.is_some() => (Arc::new(render(&self.compute(request))), false),
            _ => (self.deduped(request), false),
        }
    }

    /// The dedup path: join or create the in-flight slot for this
    /// request's fingerprint, computing at most once process-wide.
    fn deduped(&self, request: &Request) -> Rendered {
        let fp = request.fingerprint();
        let slot = {
            let mut map = self.dedup.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&fp) {
                Some(slot) => {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    obs_core::counter("serve.dedup.hit", 0, 1);
                    Arc::clone(slot)
                }
                None => {
                    let slot = Arc::new(OnceLock::new());
                    map.insert(fp, Arc::clone(&slot));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(render(&self.compute(request)))))
    }

    /// Computes a request unconditionally (no dedup), returning the
    /// id-less response frames.
    fn compute(&self, request: &Request) -> Vec<Frame> {
        if self.fault_injection && request.fault.as_deref() == Some("panic") {
            panic!("injected fault: request asked the handler to panic");
        }
        if request.kind == RequestKind::Stats {
            return vec![self.stats()];
        }
        match execute(
            request,
            Design::Inline(request.design.as_ref()),
            &self.cache,
        ) {
            Ok(outcome) => frames(outcome),
            Err(reject) => vec![reject.frame()],
        }
    }

    fn stats(&self) -> Frame {
        let count =
            |n: &AtomicU64| Value::Number(serde_json::Number::from_u64(n.load(Ordering::Relaxed)));
        let mut body = serde_json::Map::new();
        body.insert("requests", count(&self.requests));
        body.insert("dedup_hits", count(&self.dedup_hits));
        body.insert("cache", serde_json::to_value(&self.cache.stats()));
        body.insert(
            "tier",
            match &self.tier {
                Some(tier) => tier.stats().to_value(),
                None => Value::Null,
            },
        );
        Frame::result(Value::Object(body))
    }
}

/// The wire form of an outcome. Bodies carry no cache statistics
/// (`"cache": null` where the CLI's JSON embeds them), so they stay
/// warmth-independent; a sweep streams one `point` frame per row first.
fn frames(outcome: Outcome) -> Vec<Frame> {
    let body = match outcome.answer {
        Answer::Validated => {
            let mut body = serde_json::Map::new();
            body.insert("ok", Value::Bool(true));
            body.insert("name", Value::String(outcome.name));
            body.insert(
                "fps",
                Value::Number(serde_json::Number::from_f64(outcome.fps)),
            );
            Value::Object(body)
        }
        Answer::Estimate(report) => serde_json::to_value(&*report),
        Answer::Frame(report) => serde_json::to_value(&*report),
        Answer::MonteCarlo(report) => serde_json::to_value(&*report),
        Answer::Sweep(results) => {
            let rows = results.to_json_rows();
            let mut frames: Vec<Frame> = rows
                .iter()
                .enumerate()
                .map(|(seq, row)| Frame::point(seq as u64, row.clone()))
                .collect();
            let mut body = serde_json::Map::new();
            body.insert("points", Value::Array(rows));
            body.insert("cache", Value::Null);
            frames.push(Frame::result(Value::Object(body)));
            return frames;
        }
        Answer::Pareto(results, _) => reparse(&results.to_json(None)),
        Answer::Search(results, _) => reparse(&results.to_json(None)),
    };
    vec![Frame::result(body)]
}

/// Renders frames into their wire lines (id-less: every frame here
/// carries id 0, which [`crate::protocol::stamp_line`] rewrites).
fn render(frames: &[Frame]) -> Vec<String> {
    frames.iter().map(serialize_frame).collect()
}

/// Re-parses a serializer's JSON string into a `Value` body. The
/// serializers print shortest-round-trip floats, so this is exact.
fn reparse(json: &str) -> Value {
    serde_json::from_str(json).unwrap_or(Value::Null)
}
