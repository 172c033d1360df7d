//! The digital-DAG functional pass: every non-input algorithm stage
//! executed on a simulated frame and judged against the same pass on
//! the clean frame.

use camj_tech::fingerprint::FpHasher;

use crate::sw::{AlgorithmGraph, StageKind};

use super::frame::{rms_error, FRAME_CHUNK};
use super::{DagSim, DagStageSim, TaskMetrics};

/// One functionally executable stage of a [`DagPlan`].
struct DagPlanStage {
    name: String,
    kind: StageKind,
    /// Producer tensor slots: `0` is the sensor frame, `i + 1` is plan
    /// stage `i`'s output. Edge order matches the DAG's edge list, so
    /// execution is deterministic.
    producers: Vec<usize>,
    in_shape: (u32, u32, u32),
    out_shape: (u32, u32, u32),
    bits: u32,
}

/// The resolved digital-DAG functional pass: every non-input stage of
/// the algorithm in topological order, plus the clean-frame reference
/// tensors the noisy pass is judged against.
///
/// Execution semantics per stage kind live in
/// [`camj_digital::functional`]; each stage output is requantized to
/// the stage's declared bit width (`camj_digital::quantize`), applied
/// identically to the clean reference run so the metrics isolate what
/// the *noise* cost the task. Everything here is pure slice
/// arithmetic in index order — a DAG pass is a deterministic function
/// of its input tensor alone, byte-identical across thread counts.
pub(super) struct DagPlan {
    frame_shape: (u32, u32, u32),
    stages: Vec<DagPlanStage>,
    /// The judged output: index of the last stage in topological order.
    sink: usize,
    /// Per-stage clean-frame reference outputs.
    references: Vec<Vec<f64>>,
    /// RMS of each reference tensor (the signal level stage SNR is
    /// quoted against).
    reference_rms: Vec<f64>,
}

impl DagPlan {
    /// Resolves the plan and runs the clean reference pass. `None`
    /// when the algorithm has no non-input stages (nothing digital to
    /// execute).
    pub(super) fn build(
        algo: &AlgorithmGraph,
        frame_shape: (u32, u32, u32),
        clean: &[f64],
    ) -> Option<DagPlan> {
        let topo = algo.topo_order().ok()?;
        let mut slot_of: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let mut stages: Vec<DagPlanStage> = Vec::new();
        for name in topo {
            let stage = algo.stage(name).expect("topo-ordered stages exist");
            if matches!(stage.kind(), StageKind::Input) {
                slot_of.insert(name, 0);
                continue;
            }
            let producers = algo.producers_of(name).iter().map(|p| slot_of[p]).collect();
            slot_of.insert(name, stages.len() + 1);
            let (i, o) = (stage.input_size(), stage.output_size());
            stages.push(DagPlanStage {
                name: name.to_owned(),
                kind: stage.kind(),
                producers,
                in_shape: (i.width, i.height, i.channels),
                out_shape: (o.width, o.height, o.channels),
                bits: stage.bits(),
            });
        }
        if stages.is_empty() {
            return None;
        }
        let sink = stages.len() - 1;
        let mut plan = DagPlan {
            frame_shape,
            stages,
            sink,
            references: Vec::new(),
            reference_rms: Vec::new(),
        };
        let references = plan.execute(clean);
        plan.reference_rms = references
            .iter()
            .map(|t| (t.iter().map(|v| v * v).sum::<f64>() / t.len().max(1) as f64).sqrt())
            .collect();
        plan.references = references;
        Some(plan)
    }

    /// Pushes one source frame through every stage, returning the
    /// per-stage output tensors in plan order.
    fn execute(&self, source: &[f64]) -> Vec<Vec<f64>> {
        use camj_digital::functional::{box_stencil, elementwise_mean, resample_nearest};
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            // Gather producer tensors, shape-adapting each to the
            // stage's declared input shape.
            let adapted: Vec<Vec<f64>> = stage
                .producers
                .iter()
                .map(|&slot| {
                    let (tensor, shape) = if slot == 0 {
                        (source, self.frame_shape)
                    } else {
                        (
                            outputs[slot - 1].as_slice(),
                            self.stages[slot - 1].out_shape,
                        )
                    };
                    resample_nearest(tensor, shape, stage.in_shape)
                })
                .collect();
            let operands: Vec<&[f64]> = adapted.iter().map(Vec::as_slice).collect();
            // Multiple producers (and temporal element-wise operands at
            // steady state) combine as their mean, which keeps the
            // signal in [0, 1].
            let combined = elementwise_mean(&operands);
            let mut out = match stage.kind {
                StageKind::Stencil { kernel, stride } => {
                    box_stencil(&combined, stage.in_shape, kernel, stride, stage.out_shape)
                }
                // Element-wise stages already combined above; DNN and
                // custom stages carry no declarative arithmetic, so
                // they act as shape adapters preserving signal content.
                StageKind::Input
                | StageKind::ElementWise { .. }
                | StageKind::Dnn { .. }
                | StageKind::Custom { .. } => {
                    resample_nearest(&combined, stage.in_shape, stage.out_shape)
                }
            };
            // Requantize at the stage's declared data resolution —
            // the same bit width the energy side prices.
            camj_digital::quantize::quantize_slice(&mut out, stage.bits);
            outputs.push(out);
        }
        outputs
    }

    /// Runs the noisy pass and measures every stage against its clean
    /// reference, judging the sink at the task level.
    pub(super) fn run(&self, noisy: &[f64]) -> DagSim {
        let _span = obs_core::span("functional.dag");
        obs_core::counter("functional.stages", 0, self.stages.len() as u64);
        let outputs = self.execute(noisy);
        let stages: Vec<DagStageSim> = outputs
            .iter()
            .enumerate()
            .map(|(i, out)| {
                let error_rms = rms_error(out, &self.references[i]);
                DagStageSim {
                    stage: self.stages[i].name.clone(),
                    error_rms,
                    snr_db: super::snr_db(self.reference_rms[i], error_rms),
                }
            })
            .collect();
        let sink_out = &outputs[self.sink];
        let (sw, sh, _) = self.stages[self.sink].out_shape;
        let metrics = TaskMetrics::measure(sink_out, &self.references[self.sink], sw, sh);
        let mut h = FpHasher::new();
        h.write_str("camj.dag-digest/v1");
        for span in sink_out.chunks(FRAME_CHUNK) {
            h.write_f64_slice_bulk(span);
        }
        let (hi, lo) = h.finish().parts();
        DagSim {
            stages,
            sink: self.stages[self.sink].name.clone(),
            metrics,
            digest: format!("{hi:016x}{lo:016x}"),
        }
    }
}
