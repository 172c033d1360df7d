//! The model-facing half of the functional simulation: the resolved
//! noise chain, its analytic budget, and the frame engine that renders
//! a stimulus and pushes seeded noise realisations through it.

use camj_analog::noise::NoiseSource;
use camj_tech::fingerprint::{Fingerprint, FpHasher};

use crate::delay::DelayEstimate;
use crate::energy::ValidatedModel;
use crate::error::CamjError;
use crate::hw::{AnalogUnitDesc, HardwareDesc};
use crate::sw::{AlgorithmGraph, StageKind};

use super::dag::DagPlan;
use super::{
    DagSim, DagStageSim, FrameSimReport, McDagSim, McFrameSimReport, NoiseReport, NoiseStage,
    OutputStats, Spread, StageNoise, StageSim, Stimulus, TaskMetrics, DEFAULT_SIGNAL_FRACTION,
    MAX_FRAME_ELEMENTS,
};

/// Domain tag of the functional (task-metrics) fingerprint; bump when
/// the frame pipeline or DAG semantics change so stale cache keys
/// cannot alias.
const FUNCTIONAL_FINGERPRINT_DOMAIN: &str = "camj.functional/v1";

impl ValidatedModel {
    /// The analog units of the signal chain in signal-flow order:
    /// the units Input stages map onto first (the pixel array leads),
    /// then every analog unit the routes traverse in route order, then
    /// any remaining mapped analog unit.
    fn analog_signal_chain(&self) -> Vec<&AnalogUnitDesc> {
        fn push<'a>(hw: &'a HardwareDesc, name: &str, units: &mut Vec<&'a AnalogUnitDesc>) {
            if let Some(unit) = hw.analog(name) {
                if !units.iter().any(|u| u.name() == name) {
                    units.push(unit);
                }
            }
        }
        let mut units: Vec<&AnalogUnitDesc> = Vec::new();
        for stage in self.algorithm().stages() {
            if matches!(stage.kind(), StageKind::Input) {
                if let Some(unit) = self.mapping().unit_for(stage.name()) {
                    push(self.hardware(), unit, &mut units);
                }
            }
        }
        for route in self.routes() {
            for hop in &route.path {
                push(self.hardware(), hop, &mut units);
            }
        }
        for (stage, unit) in self.mapping().iter() {
            if self.algorithm().stage(stage).is_some() {
                push(self.hardware(), unit, &mut units);
            }
        }
        units
    }

    /// Resolves the noise chain: one [`NoiseStage`] per analog unit,
    /// carrying the component's declared [`NoiseSource`]s and the
    /// implicit quantization of a digitising back end.
    fn noise_chain(&self) -> Vec<NoiseStage> {
        self.analog_signal_chain()
            .into_iter()
            .map(|unit| {
                let component = unit.array().component();
                NoiseStage {
                    unit: unit.name().to_owned(),
                    sources: component.noise_sources().to_vec(),
                    quant_bits: component.conversion_bits(),
                }
            })
            .collect()
    }

    /// The analytic noise budget for an already-solved delay split:
    /// per-stage variance accumulation at `signal_fraction` of full
    /// scale. `None` when the chain contributes no noise at all —
    /// no descriptors and no digitising component, or only
    /// zero-amplitude sources (a `read` of 0, a dark current of
    /// 0 e⁻/s), which validation deliberately allows.
    pub(crate) fn noise_report_for(
        &self,
        delay: &DelayEstimate,
        signal_fraction: f64,
    ) -> Option<NoiseReport> {
        assert!(
            signal_fraction > 0.0 && signal_fraction <= 1.0,
            "signal fraction must be in (0, 1], got {signal_fraction}"
        );
        let chain = self.noise_chain();
        if !chain.iter().any(NoiseStage::is_noisy) {
            return None;
        }
        let exposure = delay.analog_unit_time;
        let mut cumulative_var = 0.0;
        let stages: Vec<StageNoise> = chain
            .iter()
            .map(|stage| {
                let added_var = stage.variance(
                    signal_fraction,
                    exposure,
                    camj_tech::constants::DEFAULT_TEMPERATURE_K,
                );
                cumulative_var += added_var;
                let cumulative = cumulative_var.sqrt();
                StageNoise {
                    unit: stage.unit.clone(),
                    added_noise_rms: added_var.sqrt(),
                    cumulative_noise_rms: cumulative,
                    snr_db: super::snr_db(signal_fraction, cumulative),
                }
            })
            .collect();
        let output_noise_rms = cumulative_var.sqrt();
        // Declared sources can all be zero-amplitude; such a chain is
        // effectively noise-free, not an error.
        let output_snr_db = super::snr_db(signal_fraction, output_noise_rms)?;
        Some(NoiseReport {
            signal_fraction,
            stages,
            output_noise_rms,
            output_snr_db,
        })
    }

    /// The analytic noise budget at an explicit frame rate, quoted at
    /// the default mid-scale signal level. This is the quantity the
    /// explorer's `snr` objective minimises (as output noise RMS), and
    /// what [`EstimateReport::noise`](crate::energy::EstimateReport)
    /// carries.
    ///
    /// # Errors
    ///
    /// Propagates simulation/feasibility failures from the delay solve
    /// (the exposure time the dark-current sources integrate over
    /// comes from the frame budget).
    pub fn noise_report_at_fps(&self, fps: f64) -> Result<Option<NoiseReport>, CamjError> {
        let delay = self.estimate_delay_at(fps)?;
        Ok(self.noise_report_for(&delay, DEFAULT_SIGNAL_FRACTION))
    }

    /// Simulates one frame functionally: renders `stimulus` at the
    /// input stage's resolution, pushes it through the analog signal
    /// chain injecting each stage's noise with a seeded ziggurat
    /// Gaussian sampler (and applying real mid-tread quantization at
    /// digitising stages), and measures per-stage SNR against the clean
    /// frame.
    ///
    /// This is [`Self::simulate_frames`] on a batch of one: the same
    /// per-seed routine, so the frame, its digest and the DAG digest
    /// equal `simulate_frames(&[seed], stimulus)`'s.
    ///
    /// Determinism contract: the result is a pure function of
    /// `(model, seed, stimulus)` — per-stage RNG streams are derived
    /// by fingerprint-mixing, never shared, so repeated runs and any
    /// `RAYON_NUM_THREADS` setting produce byte-identical reports
    /// (pinned by [`FrameSimReport::digest`]).
    ///
    /// # Errors
    ///
    /// * [`CamjError::FrameTooLarge`] when the input frame or a DAG
    ///   stage tensor exceeds [`MAX_FRAME_ELEMENTS`],
    /// * [`CamjError::CheckDag`] when the algorithm has no input stage
    ///   to render the stimulus at,
    /// * the delay-solve errors of [`Self::estimate_delay`] (exposure
    ///   time comes from the frame budget).
    pub fn simulate_frame(
        &self,
        seed: u64,
        stimulus: &Stimulus,
    ) -> Result<FrameSimReport, CamjError> {
        Ok(self.frame_plan(stimulus)?.simulate(seed))
    }

    /// Simulates the same stimulus under several independent seeds and
    /// aggregates the per-stage noise statistics — the Monte-Carlo SNR
    /// estimate behind the explorer's `mc_snr:<samples>` objective and
    /// `camj simulate --samples N`.
    ///
    /// The frame plan (clean frame, resolved variance terms, per-pixel
    /// noise std) is built once and shared; seeds then simulate
    /// independently, in parallel when more than one worker is
    /// available. Because every seed's RNG streams are derived by
    /// fingerprint-mixing (never shared), each per-seed frame — and
    /// therefore the whole report — is byte-identical whatever
    /// `RAYON_NUM_THREADS` says, and seed `s`'s frame is the one
    /// [`Self::simulate_frame`]`(s, …)` returns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::simulate_frame`].
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty (there is nothing to aggregate).
    pub fn simulate_frames(
        &self,
        seeds: &[u64],
        stimulus: &Stimulus,
    ) -> Result<McFrameSimReport, CamjError> {
        use rayon::prelude::*;
        assert!(!seeds.is_empty(), "simulate_frames needs at least one seed");
        let _span = obs_core::span("frame.simulate_mc");
        obs_core::counter("frame.seeds", 0, seeds.len() as u64);
        let plan = self.frame_plan(stimulus)?;
        let reports: Vec<FrameSimReport> =
            seeds.par_iter().map(|&seed| plan.simulate(seed)).collect();
        let first = &reports[0];
        let stages = (0..first.stages.len())
            .map(|i| fold_stage(&reports.iter().map(|r| &r.stages[i]).collect::<Vec<_>>()))
            .collect();
        let output = fold_output(&reports.iter().map(|r| &r.output).collect::<Vec<_>>());
        // Every report shares the plan, so DAG presence and stage lists
        // agree across seeds.
        let dags: Vec<&DagSim> = reports.iter().filter_map(|r| r.dag.as_ref()).collect();
        let dag = first.dag.as_ref().map(|dag| McDagSim {
            stages: (0..dag.stages.len())
                .map(|i| fold_dag_stage(&dags.iter().map(|d| &d.stages[i]).collect::<Vec<_>>()))
                .collect(),
            sink: dag.sink.clone(),
            metrics: fold_metrics(&dags.iter().map(|d| &d.metrics).collect::<Vec<_>>()),
            digests: dags.iter().map(|d| d.digest.clone()).collect(),
        });
        Ok(McFrameSimReport {
            stimulus: stimulus.to_string(),
            seeds: seeds.to_vec(),
            width: first.width,
            height: first.height,
            channels: first.channels,
            stages,
            output,
            digests: reports.iter().map(|r| r.digest.clone()).collect(),
            dag,
        })
    }

    /// Task-level accuracy of the **attached** stimulus
    /// ([`Self::with_stimulus`]) pushed through the full functional
    /// pipeline — analog chain, ADC quantization, then the mapped
    /// digital DAG — averaged over `seeds` Monte-Carlo noise
    /// realisations. This is the quantity `accuracy:<metric>`
    /// objectives minimise.
    ///
    /// With an [`EstimateCache`](crate::energy::EstimateCache) attached,
    /// the result is shared across models keyed by
    /// [`Self::functional_fingerprint`], the same
    /// machinery the energy kernels use: repeated evaluations of a
    /// point (or of fingerprint-identical points) replay instead of
    /// re-simulating.
    ///
    /// # Errors
    ///
    /// * [`CamjError::CheckDag`] when the algorithm has no non-input
    ///   stage (there is no task output to judge),
    /// * the conditions of [`Self::simulate_frames`].
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn task_metrics(&self, seeds: &[u64]) -> Result<TaskMetrics, CamjError> {
        assert!(!seeds.is_empty(), "task_metrics needs at least one seed");
        let compute = || -> Result<TaskMetrics, CamjError> {
            let report = self.simulate_frames(seeds, self.stimulus())?;
            match report.dag {
                Some(McDagSim { metrics: m, .. }) => Ok(TaskMetrics {
                    mse: m.mse.mean,
                    rmse: m.rmse.mean,
                    psnr_db: m.psnr_db.map(|s| s.mean),
                    centroid_err: m.centroid_err.mean,
                }),
                None => Err(CamjError::CheckDag {
                    reason: "accuracy metrics need at least one non-input algorithm stage to judge"
                        .to_owned(),
                }),
            }
        };
        match self.cache() {
            Some(cache) => {
                let fp = self.functional_fingerprint(seeds)?;
                cache.functional_or(fp, compute).as_ref().clone()
            }
            None => compute(),
        }
    }

    /// The content address of one functional (task-metrics) evaluation:
    /// everything [`Self::task_metrics`] reads — the exposure time from
    /// the delay solve, the resolved noise chain, the stimulus content
    /// (pixel data included, path excluded), the algorithm DAG with its
    /// bit widths, and the seed list. Models agreeing on all of that
    /// produce byte-identical metrics, so they may share one cache
    /// entry.
    ///
    /// # Errors
    ///
    /// Propagates the delay-solve errors of [`Self::estimate_delay`].
    pub fn functional_fingerprint(&self, seeds: &[u64]) -> Result<Fingerprint, CamjError> {
        let delay = self.estimate_delay()?;
        let mut h = FpHasher::new();
        h.write_str(FUNCTIONAL_FINGERPRINT_DOMAIN);
        h.write_f64(delay.analog_unit_time.secs());
        let chain = self.noise_chain();
        h.write_usize(chain.len());
        for stage in &chain {
            h.write_str(&stage.unit);
            // The source list is tiny; its JSON encoding (shortest
            // round-trip floats) is an exact, stable content key.
            h.write_str(&serde_json::to_string(&stage.sources).unwrap_or_default());
            match stage.quant_bits {
                Some(bits) => {
                    h.write_bool(true);
                    h.write_u32(bits);
                }
                None => h.write_bool(false),
            }
        }
        match self.stimulus() {
            Stimulus::Uniform { level } => {
                h.write_tag(1);
                h.write_f64(*level);
            }
            Stimulus::Gradient { low, high } => {
                h.write_tag(2);
                h.write_f64(*low);
                h.write_f64(*high);
            }
            Stimulus::Image {
                width,
                height,
                pixels,
                ..
            } => {
                h.write_tag(3);
                h.write_u32(*width);
                h.write_u32(*height);
                h.write_f64_slice_bulk(pixels);
            }
        }
        use camj_tech::fingerprint::Fingerprintable;
        let stages = self.algorithm().stages();
        h.write_usize(stages.len());
        for stage in stages {
            stage.feed(&mut h);
        }
        let edges = self.algorithm().edge_names();
        h.write_usize(edges.len());
        for (from, to) in edges {
            h.write_str(from);
            h.write_str(to);
        }
        h.write_usize(seeds.len());
        for seed in seeds {
            h.write_u64(*seed);
        }
        Ok(h.finish())
    }

    /// Resolves everything about a frame simulation that does not
    /// depend on the seed: the rendered clean frame, the signal level,
    /// each stage's per-pixel noise standard deviation, and the DAG
    /// pass with its clean reference tensors. One plan serves every
    /// seed of a Monte-Carlo run.
    fn frame_plan(&self, stimulus: &Stimulus) -> Result<FramePlan, CamjError> {
        let _span = obs_core::span("frame.plan");
        check_tensor_sizes(self.algorithm())?;
        let delay = self.estimate_delay()?;
        let input = self
            .algorithm()
            .stages()
            .iter()
            .find(|s| matches!(s.kind(), StageKind::Input))
            .ok_or_else(|| CamjError::CheckDag {
                reason: "functional simulation needs an input stage to render the stimulus at"
                    .to_owned(),
            })?;
        let size = input.output_size();
        let (width, height, channels) = (size.width, size.height, size.channels);
        let pixels = size.count() as usize;

        let clean = {
            let _span = obs_core::span("frame.render");
            stimulus.render(width, height, channels)
        };
        let signal_rms = (clean.iter().map(|v| v * v).sum::<f64>() / pixels.max(1) as f64).sqrt();
        let dag = DagPlan::build(self.algorithm(), (width, height, channels), &clean);

        let exposure = delay.analog_unit_time;
        let temperature_k = camj_tech::constants::DEFAULT_TEMPERATURE_K;
        let stages = self
            .noise_chain()
            .into_iter()
            .map(|stage| {
                // Only photon shot noise depends on the pixel value;
                // every other source's variance is constant across the
                // frame, so evaluate it once per stage.
                let terms: Vec<VarTerm> = stage
                    .sources
                    .iter()
                    .map(|s| match *s {
                        NoiseSource::PhotonShot {
                            full_well_electrons,
                        } => VarTerm::Shot {
                            full_well_electrons,
                        },
                        _ => {
                            let rms = s.rms_fraction(0.0, exposure, temperature_k);
                            VarTerm::Constant(rms * rms)
                        }
                    })
                    .collect();
                PlanStage {
                    unit: stage.unit,
                    std: (!terms.is_empty()).then(|| noise_std(&terms, &clean)),
                    quant_bits: stage.quant_bits,
                }
            })
            .collect();
        Ok(FramePlan {
            stimulus: stimulus.to_string(),
            width,
            height,
            channels,
            clean,
            signal_rms,
            stages,
            dag,
        })
    }
}

/// The Monte-Carlo folds: one per row type, each taking that row of
/// every seed, in seed order.
fn fold_stage(rows: &[&StageSim]) -> StageSim<Spread> {
    StageSim {
        unit: rows[0].unit.clone(),
        noise_rms: Spread::of(rows.iter().map(|r| r.noise_rms)),
        snr_db: Spread::of_opt(rows.iter().map(|r| r.snr_db)),
    }
}

fn fold_output(rows: &[&OutputStats]) -> OutputStats<Spread> {
    OutputStats {
        mean: Spread::of(rows.iter().map(|r| r.mean)),
        min: Spread::of(rows.iter().map(|r| r.min)),
        max: Spread::of(rows.iter().map(|r| r.max)),
        noise_rms: Spread::of(rows.iter().map(|r| r.noise_rms)),
        snr_db: Spread::of_opt(rows.iter().map(|r| r.snr_db)),
    }
}

fn fold_dag_stage(rows: &[&DagStageSim]) -> DagStageSim<Spread> {
    DagStageSim {
        stage: rows[0].stage.clone(),
        error_rms: Spread::of(rows.iter().map(|r| r.error_rms)),
        snr_db: Spread::of_opt(rows.iter().map(|r| r.snr_db)),
    }
}

fn fold_metrics(rows: &[&TaskMetrics]) -> TaskMetrics<Spread> {
    TaskMetrics {
        mse: Spread::of(rows.iter().map(|r| r.mse)),
        rmse: Spread::of(rows.iter().map(|r| r.rmse)),
        psnr_db: Spread::of_opt(rows.iter().map(|r| r.psnr_db)),
        centroid_err: Spread::of(rows.iter().map(|r| r.centroid_err)),
    }
}

/// Rejects a design whose functional simulation would allocate a
/// tensor above [`MAX_FRAME_ELEMENTS`]: the rendered input frame or any
/// stage's input or output. Runs before anything is allocated, so an
/// oversized description fails with an error instead of aborting the
/// process.
fn check_tensor_sizes(algo: &AlgorithmGraph) -> Result<(), CamjError> {
    for stage in algo.stages() {
        for size in [stage.input_size(), stage.output_size()] {
            let elements = size.count();
            if elements > MAX_FRAME_ELEMENTS {
                return Err(CamjError::FrameTooLarge {
                    stage: stage.name().to_owned(),
                    elements,
                    limit: MAX_FRAME_ELEMENTS,
                });
            }
        }
    }
    Ok(())
}

/// One resolved variance term of a noise stage (see
/// [`ValidatedModel::frame_plan`]).
enum VarTerm {
    Shot { full_well_electrons: f64 },
    Constant(f64),
}

/// A stage's per-pixel noise standard deviation: the variance terms
/// summed in source order per pixel, then `sqrt` (`0` where nothing
/// is added). The variance is seed-independent, so the plan computes
/// it once and every seed's loop touches no variance term, no
/// division and no square root.
fn noise_std(terms: &[VarTerm], clean: &[f64]) -> Vec<f64> {
    let mut std = vec![0.0_f64; clean.len()];
    for (std_span, clean_span) in std.chunks_mut(FRAME_CHUNK).zip(clean.chunks(FRAME_CHUNK)) {
        for term in terms {
            match *term {
                VarTerm::Shot {
                    full_well_electrons,
                } => {
                    // Signal-dependent sources (photon shot) read the
                    // clean pixel value: deterministic, and unbiased by
                    // upstream noise realisations.
                    for (v, reference) in std_span.iter_mut().zip(clean_span) {
                        let rms = (*reference / full_well_electrons).sqrt();
                        *v += rms * rms;
                    }
                }
                VarTerm::Constant(c) => {
                    for v in std_span.iter_mut() {
                        *v += c;
                    }
                }
            }
        }
        for v in std_span.iter_mut() {
            *v = if *v > 0.0 { v.sqrt() } else { 0.0 };
        }
    }
    std
}

/// One stage of a frame plan: the unit name (cold path — report rows
/// only), its per-pixel noise std, and the back-end quantization.
struct PlanStage {
    unit: String,
    /// `None` when the stage declares no sources (noise injection is
    /// skipped entirely and the stage draws no normals).
    std: Option<Vec<f64>>,
    quant_bits: Option<u32>,
}

/// Everything about a frame simulation that is independent of the
/// seed. Plain shared data — seeds simulate concurrently against one
/// plan.
struct FramePlan {
    stimulus: String,
    width: u32,
    height: u32,
    channels: u32,
    clean: Vec<f64>,
    signal_rms: f64,
    stages: Vec<PlanStage>,
    /// The digital-DAG functional pass, resolved once per plan (clean
    /// reference tensors included); `None` when the algorithm has no
    /// non-input stages.
    dag: Option<DagPlan>,
}

/// Pixels processed per span: the normal scratch buffer stays
/// L1-resident at this size.
const FRAME_CHUNK: usize = 1024;

impl FramePlan {
    /// Pushes one seeded noise realisation through the planned chain —
    /// the one per-seed frame routine behind both
    /// [`ValidatedModel::simulate_frame`] and
    /// [`ValidatedModel::simulate_frames`].
    ///
    /// Noise is applied from the plan's per-pixel std lanes and drawn
    /// with the ziggurat sampler
    /// ([`rand::normal::fill_standard_normal_fast`]), one normal per
    /// pixel of every noisy stage, one [`FRAME_CHUNK`] span at a time.
    /// The frame is bit-identical to a per-pixel scalar evaluation of
    /// the same chain (pinned by the oracle in this module's tests).
    fn simulate(&self, seed: u64) -> FrameSimReport {
        // One coarse span per frame; the chunked loops below are never
        // probed individually.
        let _span = obs_core::span("frame.simulate");
        obs_core::counter("frame.pixels", 0, self.clean.len() as u64);
        obs_core::counter(
            "frame.chunks",
            0,
            (self.clean.len().div_ceil(FRAME_CHUNK) * self.stages.len()) as u64,
        );
        let mut noisy = self.clean.clone();
        let mut normals = [0.0_f64; FRAME_CHUNK];
        let mut stages = Vec::with_capacity(self.stages.len());
        let len = noisy.len().max(1) as f64;
        for (index, stage) in self.stages.iter().enumerate() {
            let mut rng = super::stage_rng(seed, index, &stage.unit);
            // Squared error against the clean frame, accumulated by
            // whichever fused pass ran last (pixel order, so the value
            // matches what `rms_error` would measure).
            let mut sq = None;
            if let Some(std) = &stage.std {
                let mut acc = 0.0;
                for ((noisy_span, std_span), clean_span) in noisy
                    .chunks_mut(FRAME_CHUNK)
                    .zip(std.chunks(FRAME_CHUNK))
                    .zip(self.clean.chunks(FRAME_CHUNK))
                {
                    // One draw per pixel, zero-std lanes included: the
                    // add of `n · 0.0` is exact, and the branch-free
                    // span keeps the loop superscalar. (Zero-std
                    // pixels are rare — they need a shot-only stage
                    // over black pixels.)
                    let normals = &mut normals[..noisy_span.len()];
                    rand::normal::fill_standard_normal_fast(&mut rng, normals);
                    for (((value, s), n), c) in noisy_span
                        .iter_mut()
                        .zip(std_span.iter())
                        .zip(normals.iter())
                        .zip(clean_span.iter())
                    {
                        // The physical rails clip: charge saturates at
                        // the full well, swings at the supplies.
                        *value = (*value + n * s).clamp(0.0, 1.0);
                        let d = *value - c;
                        acc += d * d;
                    }
                }
                sq = Some(acc);
            }
            if let Some(bits) = stage.quant_bits {
                sq = Some(camj_digital::quantize::quantize_slice_sq_err(
                    &mut noisy,
                    &self.clean,
                    bits,
                ));
            }
            let noise_rms =
                sq.map_or_else(|| rms_error(&noisy, &self.clean), |sq| (sq / len).sqrt());
            stages.push(StageSim {
                unit: stage.unit.clone(),
                noise_rms,
                snr_db: super::snr_db(self.signal_rms, noise_rms),
            });
        }
        // The last stage already measured the final frame against the
        // clean frame; recompute only when there was no stage at all.
        let noise_rms = stages
            .last()
            .map_or_else(|| rms_error(&noisy, &self.clean), |s| s.noise_rms);
        let (sum, min, max, digest) = frame_stats(&noisy);
        FrameSimReport {
            seed,
            stimulus: self.stimulus.clone(),
            width: self.width,
            height: self.height,
            channels: self.channels,
            stages,
            output: OutputStats {
                mean: sum / noisy.len().max(1) as f64,
                min,
                max,
                noise_rms,
                snr_db: super::snr_db(self.signal_rms, noise_rms),
            },
            digest,
            // The digital-DAG pass runs on the finished frame and draws
            // no randomness.
            dag: self.dag.as_ref().map(|dag| dag.run(&noisy)),
        }
    }
}

/// Domain tag of a frame digest: word-at-a-time hashing of the final
/// frame's raw `f64` bits.
const FRAME_DIGEST_DOMAIN: &str = "camj.frame-digest-mc/v1";

/// The final frame's sum, minimum, maximum and digest in one pass, so
/// the four loop-carried chains overlap. The sum runs left to right,
/// as a plain `iter().sum()` would, and per-value bulk hashing yields
/// the exact stream one whole-slice call would. The bounds are plain
/// comparisons without the NaN fix-up of `f64::min`/`f64::max` on the
/// loop-carried path (frame values are never NaN). They equal those
/// folds except on a `-0.0`/`0.0` tie, whose sign `f64::min` leaves
/// unspecified; there the first-seen zero is kept, deterministically.
fn frame_stats(frame: &[f64]) -> (f64, f64, f64, String) {
    let mut sum = 0.0;
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut h = FpHasher::new();
    h.write_str(FRAME_DIGEST_DOMAIN);
    for &v in frame {
        sum += v;
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
        h.write_f64_bulk(v);
    }
    let (hi, lo) = h.finish().parts();
    (sum, min, max, format!("{hi:016x}{lo:016x}"))
}

/// RMS deviation of `noisy` from `clean`, fraction of full scale.
pub(super) fn rms_error(noisy: &[f64], clean: &[f64]) -> f64 {
    if noisy.is_empty() {
        return 0.0;
    }
    (noisy
        .iter()
        .zip(clean)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / noisy.len() as f64)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use camj_analog::array::AnalogArray;
    use camj_analog::components::{aps_4t, column_adc, ApsParams};
    use camj_digital::compute::ComputeUnit;
    use camj_digital::memory::{MemoryEnergy, MemoryStructure};
    use camj_tech::units::Energy;

    use super::*;
    use crate::energy::CamJ;
    use crate::functional::{snr_db, stage_rng};
    use crate::hw::{AnalogCategory, DigitalUnitDesc, Layer, MemoryDesc};
    use crate::mapping::Mapping;
    use crate::sw::Stage;

    /// Front-end constants of the bundled workloads.
    const FULL_WELL_ELECTRONS: f64 = 10_000.0;
    const DARK_CURRENT_E_PER_S: f64 = 50.0;
    const READ_NOISE_FRACTION: f64 = 0.001;

    /// The per-pixel scalar oracle of the frame engine: each pixel's
    /// variance summed source by source, one ziggurat normal per pixel
    /// of every stage that declares sources, clamp, scalar quantize,
    /// and a separate pass for every statistic and the digest. The
    /// whole stage is drawn in one sampler call: the ziggurat stream is
    /// block-splittable, so this is the stream the engine consumes span
    /// by span.
    fn scalar_reference(model: &ValidatedModel, seed: u64, stimulus: &Stimulus) -> FrameSimReport {
        let delay = model.estimate_delay().unwrap();
        let input = model
            .algorithm()
            .stages()
            .iter()
            .find(|s| matches!(s.kind(), StageKind::Input))
            .unwrap();
        let size = input.output_size();
        let (width, height, channels) = (size.width, size.height, size.channels);
        let clean = stimulus.render(width, height, channels);
        let signal_rms =
            (clean.iter().map(|v| v * v).sum::<f64>() / clean.len().max(1) as f64).sqrt();
        let exposure = delay.analog_unit_time;
        let temperature_k = camj_tech::constants::DEFAULT_TEMPERATURE_K;
        let mut noisy = clean.clone();
        let mut stages = Vec::new();
        for (index, stage) in model.noise_chain().iter().enumerate() {
            if !stage.sources.is_empty() {
                let mut rng = stage_rng(seed, index, &stage.unit);
                let mut normals = vec![0.0; noisy.len()];
                rand::normal::fill_standard_normal_fast(&mut rng, &mut normals);
                for ((value, reference), n) in noisy.iter_mut().zip(&clean).zip(&normals) {
                    // Photon shot noise reads the clean pixel value;
                    // every other source is signal-independent.
                    let var: f64 = stage
                        .sources
                        .iter()
                        .map(|s| {
                            let rms = match *s {
                                NoiseSource::PhotonShot {
                                    full_well_electrons,
                                } => (*reference / full_well_electrons).sqrt(),
                                _ => s.rms_fraction(0.0, exposure, temperature_k),
                            };
                            rms * rms
                        })
                        .sum();
                    let std = if var > 0.0 { var.sqrt() } else { 0.0 };
                    *value = (*value + n * std).clamp(0.0, 1.0);
                }
            }
            if let Some(bits) = stage.quant_bits {
                for value in &mut noisy {
                    *value = camj_digital::quantize::quantize(*value, bits);
                }
            }
            let noise_rms = rms_error(&noisy, &clean);
            stages.push(StageSim {
                unit: stage.unit.clone(),
                noise_rms,
                snr_db: snr_db(signal_rms, noise_rms),
            });
        }
        let noise_rms = rms_error(&noisy, &clean);
        let mut h = FpHasher::new();
        h.write_str(FRAME_DIGEST_DOMAIN);
        h.write_f64_slice_bulk(&noisy);
        let (hi, lo) = h.finish().parts();
        FrameSimReport {
            seed,
            stimulus: stimulus.to_string(),
            width,
            height,
            channels,
            stages,
            output: OutputStats {
                mean: noisy.iter().sum::<f64>() / noisy.len().max(1) as f64,
                min: noisy.iter().copied().fold(f64::INFINITY, f64::min),
                max: noisy.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                noise_rms,
                snr_db: snr_db(signal_rms, noise_rms),
            },
            digest: format!("{hi:016x}{lo:016x}"),
            dag: DagPlan::build(model.algorithm(), (width, height, channels), &clean)
                .map(|dag| dag.run(&noisy)),
        }
    }

    /// A minimal two-stage analog chain (noisy pixel front end + ADC)
    /// at an arbitrary sensor resolution, so properties can sweep frame
    /// sizes the fixed workload models never exercise — including
    /// sizes straddling the engine's internal span length.
    fn toy_model(width: u32, height: u32, noisy_pixel: bool, fps: f64) -> ValidatedModel {
        let mut algo = AlgorithmGraph::new();
        algo.add_stage(Stage::input("Input", [width, height, 1]));
        algo.add_stage(Stage::element_wise("Gain", [width, height, 1], 1));
        algo.connect("Input", "Gain").unwrap();

        let mut hw = HardwareDesc::new(200e6);
        let mut pixel = aps_4t(ApsParams::default());
        if noisy_pixel {
            pixel = pixel
                .with_noise_source(NoiseSource::photon_shot(FULL_WELL_ELECTRONS))
                .with_noise_source(NoiseSource::dark_current(
                    DARK_CURRENT_E_PER_S,
                    FULL_WELL_ELECTRONS,
                ))
                .with_noise_source(NoiseSource::read(READ_NOISE_FRACTION));
        }
        hw.add_analog(
            AnalogUnitDesc::new(
                "PixelArray",
                AnalogArray::new(pixel, height, width),
                Layer::Sensor,
                AnalogCategory::Sensing,
            )
            .with_pixel_pitch_um(3.0),
        );
        hw.add_analog(AnalogUnitDesc::new(
            "ADCArray",
            AnalogArray::new(column_adc(10), 1, width),
            Layer::Sensor,
            AnalogCategory::Sensing,
        ));
        hw.connect("PixelArray", "ADCArray");

        let mapping = Mapping::new()
            .map("Input", "PixelArray")
            .map("Gain", "ADCArray");

        CamJ::new(algo, hw, mapping, fps).unwrap().into_validated()
    }

    /// The paper's Fig. 5 model, as `descriptions/quickstart.json`
    /// declares it: 2x2 binning in a noisy pixel array, a 10-bit column
    /// ADC, and a 3x3 edge detector behind a line buffer.
    fn quickstart_model() -> ValidatedModel {
        let mut algo = AlgorithmGraph::new();
        algo.add_stage(Stage::input("Input", [32, 32, 1]));
        algo.add_stage(Stage::stencil(
            "Binning",
            [32, 32, 1],
            [16, 16, 1],
            [2, 2, 1],
            [2, 2, 1],
        ));
        algo.add_stage(Stage::stencil(
            "EdgeDetection",
            [16, 16, 1],
            [16, 16, 1],
            [3, 3, 1],
            [1, 1, 1],
        ));
        algo.connect("Input", "Binning").unwrap();
        algo.connect("Binning", "EdgeDetection").unwrap();

        let mut hw = HardwareDesc::new(200e6);
        let pixel = aps_4t(ApsParams::default().with_shared_pixels(4))
            .with_noise_source(NoiseSource::photon_shot(FULL_WELL_ELECTRONS))
            .with_noise_source(NoiseSource::dark_current(
                DARK_CURRENT_E_PER_S,
                FULL_WELL_ELECTRONS,
            ))
            .with_noise_source(NoiseSource::read(READ_NOISE_FRACTION));
        hw.add_analog(
            AnalogUnitDesc::new(
                "PixelArray",
                AnalogArray::new(pixel, 16, 16),
                Layer::Sensor,
                AnalogCategory::Sensing,
            )
            .with_pixel_pitch_um(3.0),
        );
        hw.add_analog(AnalogUnitDesc::new(
            "ADCArray",
            AnalogArray::new(column_adc(10), 1, 16),
            Layer::Sensor,
            AnalogCategory::Sensing,
        ));
        hw.add_memory(MemoryDesc::new(
            MemoryStructure::line_buffer("LineBuffer", 3, 16)
                .with_energy(MemoryEnergy::from_pj_per_word(0.3, 0.3, 0.0))
                .with_ports(3, 1),
            Layer::Sensor,
            0.0,
        ));
        hw.add_digital(DigitalUnitDesc::pipelined(
            ComputeUnit::new("EdgeUnit", [1, 3, 1], [1, 1, 1], 2)
                .with_energy_per_cycle(Energy::from_picojoules(3.0)),
            Layer::Sensor,
        ));
        hw.connect("PixelArray", "ADCArray");
        hw.connect("ADCArray", "LineBuffer");
        hw.connect("LineBuffer", "EdgeUnit");

        let mapping = Mapping::new()
            .map("Input", "PixelArray")
            .map("Binning", "PixelArray")
            .map("EdgeDetection", "EdgeUnit");

        CamJ::new(algo, hw, mapping, 30.0).unwrap().into_validated()
    }

    proptest! {
        /// The frame engine is byte-identical to the scalar reference
        /// for arbitrary seeds, stimuli, and resolutions — digests
        /// (128-bit frame fingerprints) and every report field.
        #[test]
        fn vectorized_frame_sim_matches_scalar_reference(
            seed in 0u64..u64::MAX / 2,
            width in 1u32..80,
            height in 1u32..80,
            level in 0u32..11,
            gradient in 0u32..2,
            noisy_pixel in 0u32..2,
        ) {
            let stimulus = if gradient == 1 {
                Stimulus::gradient(f64::from(level) / 20.0, f64::from(level) / 10.0)
            } else {
                Stimulus::uniform(f64::from(level) / 10.0)
            };
            let model = toy_model(width, height, noisy_pixel == 1, 30.0);
            let fast = model.simulate_frame(seed, &stimulus).unwrap();
            let slow = scalar_reference(&model, seed, &stimulus);
            prop_assert_eq!(&fast.digest, &slow.digest, "{width}x{height} seed {seed}");
            prop_assert_eq!(&fast, &slow, "full reports must match bit-for-bit");
        }
    }

    /// The scalar reference at the committed quickstart snapshot point:
    /// pins `simulate_frame` to the exact reference output, and the
    /// reference to the digests of `descriptions/quickstart.simulate.txt`.
    #[test]
    fn quickstart_digest_matches_reference_and_snapshot_seed() {
        let model = quickstart_model();
        let fast = model.simulate_frame(42, &Stimulus::default()).unwrap();
        let slow = scalar_reference(&model, 42, &Stimulus::default());
        assert_eq!(fast, slow);
        let snapshot = include_str!("../../../../descriptions/quickstart.simulate.txt");
        let dag_digest = &slow.dag.as_ref().expect("quickstart has a DAG").digest;
        assert!(snapshot.contains(&format!("\ndigest: {}\n", slow.digest)));
        assert!(snapshot.contains(&format!("\ndag digest: {dag_digest}\n")));
    }

    /// The one-pass statistics keep what separate folds compute: the
    /// left-to-right sum, the `f64::min`/`f64::max` bounds, and the
    /// whole-slice digest.
    #[test]
    fn frame_stats_match_separate_folds() {
        let ramp: Vec<f64> = (0..2500).map(|i| f64::from(i % 97) / 96.0).collect();
        for frame in [vec![0.25, 1.0, 0.0, 1.0, 0.5], vec![0.0, 0.0], ramp] {
            let (sum, min, max, digest) = frame_stats(&frame);
            let mut want_sum = 0.0;
            for v in &frame {
                want_sum += v;
            }
            let want_min = frame.iter().copied().fold(f64::INFINITY, f64::min);
            let want_max = frame.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(sum.to_bits(), want_sum.to_bits(), "{frame:?}");
            assert_eq!(min.to_bits(), want_min.to_bits(), "{frame:?}");
            assert_eq!(max.to_bits(), want_max.to_bits(), "{frame:?}");
            let mut h = FpHasher::new();
            h.write_str(FRAME_DIGEST_DOMAIN);
            h.write_f64_slice_bulk(&frame);
            let (hi, lo) = h.finish().parts();
            assert_eq!(digest, format!("{hi:016x}{lo:016x}"));
        }
    }

    /// On a signed-zero tie, where `f64::min`/`f64::max` leave the sign
    /// unspecified, the bounds keep the first-seen zero.
    #[test]
    fn frame_stats_keep_the_first_zero_of_a_tie() {
        for (frame, first) in [
            (vec![0.5, -0.0, 0.0, 1.0], -0.0_f64),
            (vec![0.5, 0.0, -0.0, 1.0], 0.0),
        ] {
            let (_, min, _, _) = frame_stats(&frame);
            assert_eq!(min.to_bits(), first.to_bits(), "{frame:?}");
        }
        for (frame, first) in [(vec![-0.0, 0.0], -0.0_f64), (vec![0.0, -0.0], 0.0)] {
            let (_, min, max, _) = frame_stats(&frame);
            assert_eq!(min.to_bits(), first.to_bits(), "{frame:?}");
            assert_eq!(max.to_bits(), first.to_bits(), "{frame:?}");
        }
    }

    #[test]
    fn oversized_tensors_are_rejected_before_allocation() {
        let side = 1 << 12; // 2^24 elements: exactly the limit
        let model = toy_model(side + 1, side, false, 30.0);
        let err = model
            .simulate_frame(0, &Stimulus::uniform(0.5))
            .unwrap_err();
        assert!(
            matches!(&err, CamjError::FrameTooLarge { stage, limit, .. }
                if stage == "Input" && *limit == MAX_FRAME_ELEMENTS),
            "{err}"
        );
        assert!(err.to_string().contains("16777216"), "{err}");
        assert!(toy_model(side, side, false, 30.0)
            .simulate_frames(&[0], &Stimulus::uniform(0.5))
            .is_ok());
    }
}
