//! The staged estimation pipeline.
//!
//! [`CamJ::estimate`](super::CamJ::estimate) used to be one monolithic
//! pass. It is now five explicit, independently-invokable stages over a
//! [`ValidatedModel`]:
//!
//! ```text
//! validate ─→ route ─→ simulate ─→ estimate_delay ─→ energy
//! (new)       (new)    (cached)     (per FPS)         (kernels)
//! ```
//!
//! * **validate + route** run once, in [`ValidatedModel::new`]: the
//!   static checks (paper Sec. 3.2) and the physical routes are
//!   intrinsic to the design, not to the frame-rate target.
//! * **simulate** ([`ValidatedModel::simulate`]) runs the elastic
//!   cycle-level simulation that measures digital latency `T_D`. It is
//!   FPS-independent, so the result is memoised per model — and, when a
//!   cross-point [`EstimateCache`] is attached, shared across *models*
//!   keyed by [`ValidatedModel::sim_fingerprint`]: a hash of the
//!   dataflow topology only, independent of analog parameters and
//!   energy numbers, so sweeping bit widths or technology nodes pays
//!   for one simulation, not one per point.
//! * **estimate_delay** ([`ValidatedModel::estimate_delay`]) solves the
//!   frame budget `N_A·T_A + T_D = 1/FPS` (Sec. 4.1).
//! * **energy** ([`ValidatedModel::energy_breakdown`]) books the three
//!   energy domains of Eq. 1 plus communication through the four
//!   [`EnergyKernel`](super::EnergyKernel)s, each content-addressed by
//!   a fingerprint of its resolved inputs and replayed from the shared
//!   cache on a hit.
//!
//! [`ValidatedModel::estimate`] chains the stages into the classic
//! one-call flow (including the constant-rate-readout stall check);
//! [`ValidatedModel::estimate_at_fps`] re-runs only the FPS-dependent
//! tail. The `camj-explore` crate drives either entry point across
//! design grids in parallel, threading one shared cache through every
//! point via [`ValidatedModel::with_cache`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use camj_digital::memory::MemoryStructure;
use camj_digital::sim::{NodeId, PipelineSimBuilder, SimError, SimReport, SourceMode};
use camj_tech::fingerprint::{Fingerprint, FpHasher};
use camj_tech::units::{Energy, Time};

use crate::check;
use crate::delay::DelayEstimate;
use crate::error::CamjError;
use crate::functional::{Stimulus, DEFAULT_SIGNAL_FRACTION};
use crate::hw::{DigitalUnitKind, HardwareDesc, UnitKind};
use crate::mapping::Mapping;
use crate::power_density::layer_powers;
use crate::route::{routes, Route};
use crate::sw::{AlgorithmGraph, Stage, StageKind};

use super::breakdown::EnergyBreakdown;
use super::cache::EstimateCache;
use super::kernel::{
    AnalogKernel, DigitalComputeKernel, DigitalMemoryKernel, EnergyKernel, InterfaceKernel,
    KernelKind,
};
use super::model::EstimateReport;

/// Safety bound for the cycle-level simulation.
const MAX_SIM_CYCLES: u64 = 200_000_000;

/// Number of energy kernels the **energy** stage runs per estimate
/// (analog, digital compute, digital memory, interface — in that
/// order). Gated estimation reports progress against this total.
pub const ENERGY_KERNEL_COUNT: usize = 4;

/// The partial estimation state an energy gate inspects between
/// pipeline steps (see [`ValidatedModel::estimate_at_fps_gated`]).
///
/// Every component energy is non-negative, so any aggregate over
/// [`GateContext::partial`] — a total, a category split, a per-layer
/// power density — is a **lower bound** of the value the completed
/// breakdown would report. That makes "abort when a partial aggregate
/// already exceeds a budget" a sound pruning rule: it can only reject
/// points the finished estimate would also reject.
#[derive(Debug)]
pub struct GateContext<'a> {
    /// The solved frame-timing split for this point.
    pub delay: &'a DelayEstimate,
    /// Energy items booked so far (empty before the first kernel).
    pub partial: &'a EnergyBreakdown,
    /// Kernels that have already contributed to `partial`, in
    /// `0..=ENERGY_KERNEL_COUNT`. Zero means the gate runs right after
    /// the delay solve, before the stall check and every kernel.
    pub kernels_done: usize,
}

/// Outcome of [`ValidatedModel::estimate_at_fps_gated`].
#[derive(Debug, Clone, PartialEq)]
pub enum GatedEstimate {
    /// The gate admitted every step; the report is byte-identical to
    /// what [`ValidatedModel::estimate_at_fps`] returns for the same
    /// frame rate.
    Complete(Box<EstimateReport>),
    /// The gate stopped the pass. `kernels_done` counts the energy
    /// kernels that ran before the stop (the remaining
    /// `ENERGY_KERNEL_COUNT - kernels_done` were skipped entirely);
    /// `partial` retains their bookings for reporting.
    Pruned {
        /// The solved frame-timing split (always available: pruning
        /// happens after the delay solve).
        delay: DelayEstimate,
        /// The partial breakdown at the moment the gate said stop.
        partial: EnergyBreakdown,
        /// Number of energy kernels that ran (`0..=ENERGY_KERNEL_COUNT`).
        kernels_done: usize,
    },
}

impl GatedEstimate {
    /// Energy kernels that contributed to this outcome:
    /// [`ENERGY_KERNEL_COUNT`] when complete, the gate's stopping point
    /// when pruned.
    #[must_use]
    pub fn kernels_done(&self) -> usize {
        match self {
            GatedEstimate::Complete(_) => ENERGY_KERNEL_COUNT,
            GatedEstimate::Pruned { kernels_done, .. } => *kernels_done,
        }
    }

    /// The energy booked so far: the full per-frame total when
    /// complete, the partial aggregate when pruned. Because kernels
    /// only ever *add* energy, a pruned outcome's value is a sound
    /// lower bound on the point's true total — the property adaptive
    /// search's successive-halving warm-up ranks candidates by.
    #[must_use]
    pub fn partial_total(&self) -> Energy {
        match self {
            GatedEstimate::Complete(report) => report.total(),
            GatedEstimate::Pruned { partial, .. } => partial.total(),
        }
    }
}

/// Domain tag of the elastic-simulation fingerprint; bump when the
/// simulator's semantics change so stale cache keys cannot alias.
const SIM_FINGERPRINT_DOMAIN: &str = "camj.sim/v1";

/// The FPS-independent result of the **simulate** stage: the elastic
/// cycle-level simulation and the digital latency derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSim {
    /// Simulation statistics (`None` for all-analog designs, which have
    /// nothing to simulate).
    pub report: Option<SimReport>,
    /// Digital latency `T_D` at the hardware's digital clock.
    pub digital_latency: Time,
}

/// Per-digital-stage simulation parameters.
pub(crate) struct StagePlan<'a> {
    pub(crate) stage: &'a Stage,
    pub(crate) firings: u64,
    pub(crate) out_rate: f64,
    pub(crate) pipeline_depth: u32,
    /// Physical buffer reads per fresh input pixel.
    pub(crate) reads_per_fresh: f64,
}

/// Memoised stall-check verdict, exploiting monotonicity in the
/// readout time: a pipeline that keeps pace with a readout of `T_A`
/// seconds per stage also keeps pace with any slower readout. Sweeping
/// the frame-rate axis therefore needs one stall simulation at its
/// fastest passing point instead of one per point. Only passes are
/// cached: failures re-simulate so each failing point reports a
/// diagnosis exact for its own readout.
///
/// This is the per-model L1; with an [`EstimateCache`] attached the
/// verdict is also shared cross-model, keyed by the simulation
/// fingerprint plus the analog stage count.
#[derive(Debug, Clone, Default)]
struct StallCache {
    /// Fastest (smallest) per-stage readout time known to pass.
    pass_min: Option<f64>,
}

/// Locks the per-model stall cache, recovering from poisoning: the
/// guarded scalar is only ever overwritten whole, so the cache stays
/// consistent even if a panicking thread died while holding the lock
/// (per-point panics are caught by sweep drivers and must not corrupt
/// neighbouring evaluations).
/// The observability span name of one energy kernel; a static table so
/// recording never formats (see `obs_core`'s static-name rule).
fn kernel_span_name(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Analog => "kernel.analog",
        KernelKind::DigitalCompute => "kernel.digital_compute",
        KernelKind::DigitalMemory => "kernel.digital_memory",
        KernelKind::Interface => "kernel.interface",
    }
}

fn lock_stall(stall: &Mutex<StallCache>) -> std::sync::MutexGuard<'_, StallCache> {
    stall
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A design that has passed the **validate** and **route** stages, with
/// the routes and (lazily) the elastic simulation cached for reuse.
///
/// The caches are what make sweeps cheap: clones made through
/// [`ValidatedModel::with_fps`] share the already-resolved routes and
/// simulation, [`ValidatedModel::estimate_at_fps`] re-runs only the
/// FPS-dependent stages, and a cross-point [`EstimateCache`] attached
/// via [`ValidatedModel::with_cache`] shares simulations, stall
/// verdicts, and energy-kernel outputs *between* models whose
/// fingerprinted inputs coincide.
#[derive(Debug)]
pub struct ValidatedModel {
    algo: AlgorithmGraph,
    hw: HardwareDesc,
    mapping: Mapping,
    fps: f64,
    stimulus: Stimulus,
    routes: Vec<Route>,
    elastic: OnceLock<Arc<Result<ElasticSim, CamjError>>>,
    sim_fp: OnceLock<Fingerprint>,
    stall: Mutex<StallCache>,
    cache: Option<Arc<EstimateCache>>,
}

impl Clone for ValidatedModel {
    fn clone(&self) -> Self {
        Self {
            algo: self.algo.clone(),
            hw: self.hw.clone(),
            mapping: self.mapping.clone(),
            fps: self.fps,
            stimulus: self.stimulus.clone(),
            routes: self.routes.clone(),
            elastic: self.elastic.clone(),
            sim_fp: self.sim_fp.clone(),
            stall: Mutex::new(lock_stall(&self.stall).clone()),
            cache: self.cache.clone(),
        }
    }
}

impl ValidatedModel {
    /// The **validate** and **route** stages: runs all static checks
    /// (paper Sec. 3.2) and resolves every physical route.
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`CamjError`].
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    pub fn new(
        algo: AlgorithmGraph,
        hw: HardwareDesc,
        mapping: Mapping,
        fps: f64,
    ) -> Result<Self, CamjError> {
        assert!(
            fps.is_finite() && fps > 0.0,
            "FPS must be positive, got {fps}"
        );
        {
            let _span = obs_core::span("pipeline.validate");
            check::validate(&algo, &hw, &mapping)?;
        }
        let routes = {
            let _span = obs_core::span("pipeline.route");
            routes(&algo, &hw, &mapping)?
        };
        Ok(Self {
            algo,
            hw,
            mapping,
            fps,
            stimulus: Stimulus::default(),
            routes,
            elastic: OnceLock::new(),
            sim_fp: OnceLock::new(),
            stall: Mutex::new(StallCache::default()),
            cache: None,
        })
    }

    /// The algorithm description.
    #[must_use]
    pub fn algorithm(&self) -> &AlgorithmGraph {
        &self.algo
    }

    /// The hardware description.
    #[must_use]
    pub fn hardware(&self) -> &HardwareDesc {
        &self.hw
    }

    /// The stage-to-unit mapping.
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The target frame rate.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The resolved physical routes (the **route** stage's artifact).
    #[must_use]
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Attaches a cross-point estimate cache (builder-style). All
    /// models of one sweep should share one cache: simulations, stall
    /// verdicts, and energy-kernel outputs are then computed once per
    /// distinct fingerprint instead of once per model.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached cross-point cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<EstimateCache>> {
        self.cache.as_ref()
    }

    /// A copy of this model targeting a different frame rate, sharing
    /// the cached routes and elastic simulation. Checks do not re-run:
    /// FPS feasibility is established by the delay/stall stages, not by
    /// the static checks.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not a positive finite number.
    #[must_use]
    pub fn with_fps(&self, fps: f64) -> Self {
        assert!(
            fps.is_finite() && fps > 0.0,
            "FPS must be positive, got {fps}"
        );
        let mut clone = self.clone();
        clone.fps = fps;
        clone
    }

    /// Attaches the scene the functional pipeline simulates
    /// (builder-style). This is the stimulus `accuracy:<metric>`
    /// objectives and [`Self::task_metrics`] evaluate under; explicit
    /// `stimulus` arguments to [`Self::simulate_frame`] /
    /// [`Self::simulate_frames`] are unaffected.
    #[must_use]
    pub fn with_stimulus(mut self, stimulus: Stimulus) -> Self {
        self.stimulus = stimulus;
        self
    }

    /// The attached scene (defaults to [`Stimulus::default`]).
    #[must_use]
    pub fn stimulus(&self) -> &Stimulus {
        &self.stimulus
    }

    /// The content address of this model's elastic simulation: a hash
    /// of the dataflow topology the cycle-level simulator reads —
    /// stage firing plans, producer/consumer edges, buffer geometry,
    /// and the digital clock. Deliberately independent of analog
    /// parameters and of every energy number, so designs differing
    /// only along those axes share one cached simulation.
    #[must_use]
    pub fn sim_fingerprint(&self) -> Fingerprint {
        *self
            .sim_fp
            .get_or_init(|| self.compute_sim_fingerprint(&self.stage_plans()))
    }

    fn compute_sim_fingerprint(&self, plans: &[StagePlan<'_>]) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_str(SIM_FINGERPRINT_DOMAIN);
        h.write_f64(self.hw.digital_clock_hz());
        h.write_usize(plans.len());
        for plan in plans {
            h.write_str(plan.stage.name());
            h.write_u64(plan.firings);
            h.write_f64(plan.out_rate);
            h.write_u32(plan.pipeline_depth);
            h.write_f64(plan.reads_per_fresh);
            let producers = self.algo.producers_of(plan.stage.name());
            h.write_usize(producers.len());
            for producer_name in producers {
                h.write_str(producer_name);
                let producer_stage = self.algo.stage(producer_name).expect("producer exists");
                h.write_u64(producer_stage.output_size().count());
                // Digital producers connect stage-to-stage; analog
                // producers become readout sources.
                let is_digital = plans.iter().any(|p| p.stage.name() == producer_name);
                h.write_bool(is_digital);
                self.buffer_between(producer_name, plan.stage.name())
                    .feed_sim_view(&mut h);
            }
        }
        h.finish()
    }

    /// The cross-model stall-verdict key: the simulation topology plus
    /// the analog stage count (which converts a readout time into the
    /// frame budget the stall simulation runs under).
    fn stall_fingerprint(&self) -> Fingerprint {
        let (hi, lo) = self.sim_fingerprint().parts();
        let mut h = FpHasher::new();
        h.write_u64(hi);
        h.write_u64(lo);
        h.write_str("stall");
        h.write_usize(self.analog_stage_count());
        h.finish()
    }

    /// The **simulate** stage: the elastic cycle-level simulation
    /// measuring digital latency `T_D` (Sec. 4.1). FPS-independent and
    /// memoised — repeated calls (and calls on [`Self::with_fps`]
    /// clones made *after* the first call) return the cached artifact.
    /// With an attached [`EstimateCache`], the artifact is shared
    /// across every model whose [`Self::sim_fingerprint`] matches.
    ///
    /// # Errors
    ///
    /// Returns [`CamjError::Sim`] when the simulation fails.
    pub fn simulate(&self) -> Result<&ElasticSim, CamjError> {
        self.elastic
            .get_or_init(|| match &self.cache {
                Some(cache) => cache.elastic_or(self.sim_fingerprint(), || self.run_elastic()),
                None => Arc::new(self.run_elastic()),
            })
            .as_ref()
            .as_ref()
            .map_err(Clone::clone)
    }

    fn run_elastic(&self) -> Result<ElasticSim, CamjError> {
        // Inside the cache's compute closure, so the span count is one
        // per *unique* topology — deterministic across thread counts.
        let _span = obs_core::span("pipeline.simulate");
        let plans = self.stage_plans();
        if plans.is_empty() {
            return Ok(ElasticSim {
                report: None,
                digital_latency: Time::ZERO,
            });
        }
        let sim = self.build_sim(&plans, None)?;
        let report = sim.run(MAX_SIM_CYCLES)?;
        let digital_latency = report.digital_latency(self.hw.digital_clock_hz());
        Ok(ElasticSim {
            report: Some(report),
            digital_latency,
        })
    }

    /// The **estimate_delay** stage at this model's frame rate.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; returns
    /// [`CamjError::FrameRateInfeasible`] when `T_D` exceeds the frame
    /// budget.
    pub fn estimate_delay(&self) -> Result<DelayEstimate, CamjError> {
        self.estimate_delay_at(self.fps)
    }

    /// The **estimate_delay** stage at an explicit frame rate.
    ///
    /// # Errors
    ///
    /// See [`Self::estimate_delay`].
    pub fn estimate_delay_at(&self, fps: f64) -> Result<DelayEstimate, CamjError> {
        let t_d = self.simulate()?.digital_latency;
        DelayEstimate::solve(fps, t_d, self.analog_stage_count())
    }

    /// Whether the stall check for readout `t_a` is already answered by
    /// a cached pass — the per-model L1 first, then the cross-model
    /// cache.
    fn stall_settled(&self, t_a: f64) -> bool {
        if lock_stall(&self.stall)
            .pass_min
            .is_some_and(|pass| t_a >= pass)
        {
            return true;
        }
        match &self.cache {
            Some(cache) => cache.stall_settled(self.stall_fingerprint(), t_a),
            None => false,
        }
    }

    /// Records a stall pass in the per-model L1 and the cross-model
    /// cache.
    fn record_stall_pass(&self, t_a: f64) {
        let mut local = lock_stall(&self.stall);
        local.pass_min = Some(local.pass_min.map_or(t_a, |p| p.min(t_a)));
        drop(local);
        if let Some(cache) = &self.cache {
            cache.record_stall_pass(self.stall_fingerprint(), t_a);
        }
    }

    /// The stall check (Sec. 4.1): re-simulates with the source pinned
    /// to the constant readout rate the delay estimate implies.
    ///
    /// Passing verdicts are memoised by readout time (stall freedom is
    /// monotone in it: a slower readout only relaxes the source rate),
    /// so a frame-rate sweep pays for one stall simulation at its
    /// fastest passing point plus one per failing point. Failures are
    /// never answered from cache — each re-simulates so the overflow
    /// diagnosis is exact for that readout and results stay identical
    /// across serial and parallel sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`CamjError::StallDetected`] when the digital pipeline
    /// cannot keep pace with the pixel readout.
    pub fn check_stall(&self, delay: &DelayEstimate) -> Result<(), CamjError> {
        if self.stall_settled(delay.analog_unit_time.secs()) {
            return Ok(());
        }
        self.check_stall_with(&self.stage_plans(), delay)
    }

    fn check_stall_with(
        &self,
        plans: &[StagePlan<'_>],
        delay: &DelayEstimate,
    ) -> Result<(), CamjError> {
        if plans.is_empty() {
            return Ok(());
        }
        // How many checks reach this point depends on which sibling
        // settled the monotone stall verdict first — the span count is
        // inherently racy across thread counts (see `camj-obs`).
        let _span = obs_core::span("pipeline.stall_check");
        let t_a = delay.analog_unit_time.secs();
        let readout = delay.analog_unit_time;
        let sim = self.build_sim(plans, Some(readout))?;
        let budget =
            (delay.frame_time.secs() * self.hw.digital_clock_hz() * 2.0) as u64 + 1_000_000;
        // Verdict-only: a passing stall check discards the report, so
        // the simulator may fast-forward recurrent readout periods; a
        // failing one re-simulates exactly inside `run_check` so the
        // diagnosis below matches a cycle-exact run byte for byte.
        match sim.run_check(budget.min(MAX_SIM_CYCLES)) {
            Ok(()) => {
                self.record_stall_pass(t_a);
                Ok(())
            }
            Err(e @ SimError::SourceOverflow { .. }) => Err(CamjError::StallDetected { cause: e }),
            Err(e) => Err(e.into()),
        }
    }

    /// The **energy** stage: books all component energies (Eq. 1's
    /// three domains plus communication) for a solved delay split, by
    /// running the four energy kernels (replaying cached outputs when a
    /// cross-point cache is attached).
    #[must_use]
    pub fn energy_breakdown(
        &self,
        sim: Option<&SimReport>,
        delay: &DelayEstimate,
    ) -> EnergyBreakdown {
        self.energy_breakdown_with(&self.stage_plans(), sim, delay)
    }

    fn energy_breakdown_with(
        &self,
        plans: &[StagePlan<'_>],
        sim: Option<&SimReport>,
        delay: &DelayEstimate,
    ) -> EnergyBreakdown {
        self.run_energy_kernels(plans, sim, delay, &mut |_| true)
            .unwrap_or_else(|_| unreachable!("an always-admitting gate never prunes"))
    }

    /// Runs the four energy kernels in order, consulting `gate` after
    /// each one. Both the gated and the ungated estimate paths go
    /// through here, so an admitted pass is byte-identical to a plain
    /// [`Self::energy_breakdown`] — same kernels, same order, same
    /// cache fingerprints.
    ///
    /// Returns the completed breakdown, or `Err((partial, done))` when
    /// the gate stopped after `done` kernels.
    fn run_energy_kernels(
        &self,
        plans: &[StagePlan<'_>],
        sim: Option<&SimReport>,
        delay: &DelayEstimate,
        gate: &mut dyn FnMut(&GateContext<'_>) -> bool,
    ) -> Result<EnergyBreakdown, (EnergyBreakdown, usize)> {
        let analog = AnalogKernel::new(self, delay);
        let digital_compute = DigitalComputeKernel::new(self, plans, sim);
        let digital_memory = DigitalMemoryKernel::new(self, plans, sim, delay);
        let interface = InterfaceKernel::new(self);
        let kernels: [&dyn EnergyKernel; ENERGY_KERNEL_COUNT] =
            [&analog, &digital_compute, &digital_memory, &interface];
        let mut breakdown = EnergyBreakdown::new();
        for (ran, kernel) in kernels.into_iter().enumerate() {
            // The span/invocation counter sits inside the compute path,
            // so cached replays cost nothing and the invocation count
            // is one per unique kernel fingerprint.
            let instrumented = || {
                let _span = obs_core::span(kernel_span_name(kernel.kind()));
                obs_core::counter("kernel.invocations", ran as u64, 1);
                kernel.compute()
            };
            match &self.cache {
                Some(cache) => {
                    let items = cache.energy_or(kernel.fingerprint(), instrumented);
                    for item in items.iter() {
                        breakdown.push(item.clone());
                    }
                }
                None => {
                    for item in instrumented() {
                        breakdown.push(item);
                    }
                }
            }
            let kernels_done = ran + 1;
            let admitted = gate(&GateContext {
                delay,
                partial: &breakdown,
                kernels_done,
            });
            if !admitted {
                return Err((breakdown, kernels_done));
            }
        }
        Ok(breakdown)
    }

    /// Runs the full staged flow at this model's frame rate.
    ///
    /// # Errors
    ///
    /// See [`super::CamJ::estimate`].
    pub fn estimate(&self) -> Result<EstimateReport, CamjError> {
        self.estimate_at_fps(self.fps)
    }

    /// Runs the FPS-dependent stages (delay → stall check → energy) at
    /// an explicit frame rate, reusing the cached routes and elastic
    /// simulation. This is the sweep fast path: across N frame-rate
    /// targets the checks, routing, and latency simulation run once
    /// instead of N times.
    ///
    /// # Errors
    ///
    /// See [`super::CamJ::estimate`].
    pub fn estimate_at_fps(&self, fps: f64) -> Result<EstimateReport, CamjError> {
        let elastic = self.simulate()?;
        let delay = {
            let _span = obs_core::span("pipeline.delay");
            DelayEstimate::solve(fps, elastic.digital_latency, self.analog_stage_count())?
        };
        // Plans serve both the stall check and the energy passes; build
        // them once (and only after the cheap feasibility solve above).
        let stall_settled = self.stall_settled(delay.analog_unit_time.secs());
        let plans = self.stage_plans();
        if !stall_settled {
            self.check_stall_with(&plans, &delay)?;
        }
        let breakdown = self.energy_breakdown_with(&plans, elastic.report.as_ref(), &delay);
        Ok(self.assemble_report(breakdown, delay, elastic))
    }

    /// The budget-gated variant of [`Self::estimate_at_fps`]: runs the
    /// same FPS-dependent stages, but consults `gate` right after the
    /// delay solve (with `kernels_done == 0`, before the stall check)
    /// and again after each energy kernel. The first `false` stops the
    /// pass and returns [`GatedEstimate::Pruned`], skipping every
    /// remaining kernel.
    ///
    /// This is the engine behind constraint-based sweep pruning
    /// (`camj-explore`'s Pareto path): a point whose partial energy
    /// already blows a power-density or total-energy budget — or whose
    /// digital latency blows a delay budget — never pays for the
    /// kernels it no longer needs. Admitted passes stay cache-compatible
    /// and byte-identical to the ungated path: kernels run in the same
    /// order with the same fingerprints, so surviving points replay and
    /// populate a shared [`EstimateCache`] exactly as a plain sweep
    /// would.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Self::estimate_at_fps`]; a gate stop is
    /// not an error but a [`GatedEstimate::Pruned`] outcome. Note that
    /// a point pruned at `kernels_done == 0` skips the stall check, so
    /// a design that would *also* stall reports as pruned, not stalled.
    pub fn estimate_at_fps_gated<G>(
        &self,
        fps: f64,
        mut gate: G,
    ) -> Result<GatedEstimate, CamjError>
    where
        G: FnMut(&GateContext<'_>) -> bool,
    {
        let elastic = self.simulate()?;
        let delay = {
            let _span = obs_core::span("pipeline.delay");
            DelayEstimate::solve(fps, elastic.digital_latency, self.analog_stage_count())?
        };
        let empty = EnergyBreakdown::new();
        let admitted = gate(&GateContext {
            delay: &delay,
            partial: &empty,
            kernels_done: 0,
        });
        if !admitted {
            return Ok(GatedEstimate::Pruned {
                delay,
                partial: empty,
                kernels_done: 0,
            });
        }
        let stall_settled = self.stall_settled(delay.analog_unit_time.secs());
        let plans = self.stage_plans();
        if !stall_settled {
            self.check_stall_with(&plans, &delay)?;
        }
        match self.run_energy_kernels(&plans, elastic.report.as_ref(), &delay, &mut gate) {
            Ok(breakdown) => Ok(GatedEstimate::Complete(Box::new(
                self.assemble_report(breakdown, delay, elastic),
            ))),
            Err((partial, kernels_done)) => Ok(GatedEstimate::Pruned {
                delay,
                partial,
                kernels_done,
            }),
        }
    }

    /// Bundles a completed breakdown into the full [`EstimateReport`]
    /// (per-layer power densities, input pixel count, simulation
    /// statistics). Shared by the gated and ungated estimate paths.
    fn assemble_report(
        &self,
        breakdown: EnergyBreakdown,
        delay: DelayEstimate,
        elastic: &ElasticSim,
    ) -> EstimateReport {
        let layers = layer_powers(&breakdown, &self.hw, delay.frame_time);
        let input_pixels = self
            .algo
            .stages()
            .iter()
            .filter(|s| matches!(s.kind(), StageKind::Input))
            .map(|s| s.output_size().count())
            .sum();
        let noise = self.noise_report_for(&delay, DEFAULT_SIGNAL_FRACTION);
        EstimateReport {
            breakdown,
            delay,
            sim: elastic.report.clone(),
            layers,
            input_pixels,
            noise,
        }
    }

    /// Builds per-digital-stage simulation parameters.
    pub(crate) fn stage_plans(&self) -> Vec<StagePlan<'_>> {
        let mut plans = Vec::new();
        for stage in self.algo.stages() {
            let Some(unit_name) = self.mapping.unit_for(stage.name()) else {
                continue;
            };
            let Some(unit) = self.hw.digital(unit_name) else {
                continue;
            };
            let outputs = stage.output_size().count();
            let fresh_total: f64 = self
                .algo
                .producers_of(stage.name())
                .iter()
                .map(|p| {
                    self.algo
                        .stage(p)
                        .expect("producer exists")
                        .output_size()
                        .count() as f64
                })
                .sum();
            let (firings, out_rate, depth, reads_total) = match unit.kind() {
                DigitalUnitKind::Pipelined(cu) => {
                    // The unit fires until BOTH its output quota and its
                    // input stream are through — a reducing stage (many
                    // inputs per output) is input-throughput-limited.
                    let out_limited = outputs.div_ceil(cu.output_pixels_per_cycle());
                    let in_limited =
                        (fresh_total / cu.input_pixels_per_cycle() as f64).ceil() as u64;
                    let firings = out_limited.max(in_limited).max(1);
                    let reads = stage.reads_per_output() * outputs as f64;
                    (
                        firings,
                        outputs as f64 / firings as f64,
                        cu.num_stages(),
                        reads,
                    )
                }
                DigitalUnitKind::Systolic(sa) => {
                    let (macs, weights) = match stage.kind() {
                        StageKind::Dnn { macs, weights } => (macs, weights),
                        _ => (stage.ops_per_frame(), 0),
                    };
                    let firings = sa.cycles_for_macs(macs).max(1);
                    // Tiled weight-stationary dataflow with on-array
                    // register reuse: each activation and each weight is
                    // fetched from SRAM a small constant number of times
                    // across tiles (2 on average), not once per MAC.
                    const SRAM_FETCH_PASSES: f64 = 2.0;
                    let reads = SRAM_FETCH_PASSES * (fresh_total + weights as f64);
                    (firings, outputs as f64 / firings as f64, sa.rows(), reads)
                }
            };
            let reads_per_fresh = if fresh_total > 0.0 {
                reads_total / fresh_total
            } else {
                0.0
            };
            plans.push(StagePlan {
                stage,
                firings,
                out_rate,
                pipeline_depth: depth,
                reads_per_fresh,
            });
        }
        plans
    }

    /// Builds the pipeline simulation. `readout_time` selects the source
    /// mode: `None` ⇒ elastic (latency measurement), `Some(T_A)` ⇒
    /// continuous at the physical readout rate (stall check).
    fn build_sim(
        &self,
        plans: &[StagePlan<'_>],
        readout_time: Option<Time>,
    ) -> Result<camj_digital::sim::PipelineSim, CamjError> {
        let mut b = PipelineSimBuilder::new();
        let mut nodes: BTreeMap<&str, NodeId> = BTreeMap::new();
        for plan in plans {
            let id = b.add_stage(plan.stage.name(), plan.pipeline_depth);
            nodes.insert(plan.stage.name(), id);
        }
        for plan in plans {
            let consumer = nodes[plan.stage.name()];
            for producer_name in self.algo.producers_of(plan.stage.name()) {
                let producer_stage = self.algo.stage(producer_name).expect("producer exists");
                let edge_pixels = producer_stage.output_size().count() as f64;
                let fresh_rate = (edge_pixels / plan.firings as f64).max(f64::MIN_POSITIVE);
                let buffer = self.buffer_between(producer_name, plan.stage.name());
                let (from, producer_rate) = match nodes.get(producer_name) {
                    Some(&id) => {
                        let producer_plan = plans
                            .iter()
                            .find(|p| p.stage.name() == producer_name)
                            .expect("digital producer has a plan");
                        (id, producer_plan.out_rate)
                    }
                    None => {
                        // Analog producer: a readout source.
                        let (mode, rate) = match readout_time {
                            None => (SourceMode::Elastic, fresh_rate),
                            Some(t_a) => {
                                let cycles = t_a.secs() * self.hw.digital_clock_hz();
                                (SourceMode::Continuous, edge_pixels / cycles.max(1.0))
                            }
                        };
                        let id = b.add_source(format!("src:{producer_name}"), mode);
                        (id, rate)
                    }
                };
                b.connect_with_reuse(
                    from,
                    consumer,
                    &buffer,
                    producer_rate,
                    fresh_rate,
                    edge_pixels,
                    plan.reads_per_fresh,
                );
            }
        }
        b.build().map_err(CamjError::from)
    }

    /// The physical buffer a consumer reads its input from: the last
    /// memory on the route, or a synthetic free wire when the units are
    /// directly connected (or fused on one unit).
    pub(crate) fn buffer_between(&self, producer: &str, consumer: &str) -> MemoryStructure {
        let route = self
            .routes
            .iter()
            .find(|r| r.from_stage == producer && r.to_stage.as_deref() == Some(consumer));
        if let Some(route) = route {
            let mem = route
                .intermediates()
                .iter()
                .rev()
                .find(|hop| self.hw.kind_of(hop) == Some(UnitKind::Memory));
            if let Some(name) = mem {
                return self
                    .hw
                    .memory(name)
                    .expect("kind said memory")
                    .structure()
                    .clone();
            }
        }
        // Fused or directly-wired: a generous free conduit.
        MemoryStructure::fifo(format!("wire:{producer}->{consumer}"), 1 << 20)
            .with_pixels_per_word(64)
            .with_ports(64, 64)
    }

    /// Analog pipeline stage count `N_A`, including exposure.
    pub(crate) fn analog_stage_count(&self) -> usize {
        let mut units: Vec<String> = Vec::new();
        let mapped = self
            .mapping
            .iter()
            .filter(|(stage, _)| self.algo.stage(stage).is_some())
            .map(|(_, unit)| unit);
        let routed = self
            .routes
            .iter()
            .flat_map(|r| r.path.iter().map(String::as_str));
        for name in mapped.chain(routed) {
            if self.hw.analog(name).is_some() && !units.iter().any(|u| u == name) {
                units.push(name.to_owned());
            }
        }
        units.len() + 1 // + exposure
    }
}
