//! The digital-DAG functional pass: every non-input algorithm stage
//! executed on a simulated frame and judged against the same pass on
//! the clean frame.

use std::borrow::Cow;

use camj_tech::fingerprint::FpHasher;

use crate::sw::{AlgorithmGraph, StageKind};

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
    /// The sink reference's centroid, the seed-independent half of the
    /// task metrics.
    reference_centroid: (f64, f64),
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
        let _span = obs_core::span("functional.dag_reference");
        let sink = stages.len() - 1;
        let mut plan = DagPlan {
            frame_shape,
            stages,
            sink,
            references: Vec::new(),
            reference_rms: Vec::new(),
            reference_centroid: (0.0, 0.0),
        };
        let (references, _) = plan.execute(clean, None);
        plan.reference_rms = references
            .iter()
            .map(|t| (t.iter().map(|v| v * v).sum::<f64>() / t.len().max(1) as f64).sqrt())
            .collect();
        let (sw, sh, _) = plan.stages[sink].out_shape;
        plan.reference_centroid = super::centroid(&references[sink], sw, sh);
        plan.references = references;
        Some(plan)
    }

    /// Pushes one source frame through every stage, returning the
    /// per-stage output tensors in plan order. With `references`
    /// given (the noisy pass), requantization also sums each stage's
    /// squared error against its clean reference in the same pass;
    /// the sums come back in plan order, empty otherwise.
    ///
    /// A producer tensor whose shape already matches the stage input
    /// is borrowed, not copied, and operands are averaged only when a
    /// stage has more than one, so a single-producer stage allocates
    /// exactly its output.
    fn execute(
        &self,
        source: &[f64],
        references: Option<&[Vec<f64>]>,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        use camj_digital::functional::{box_stencil, elementwise_mean, resample_nearest};
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(self.stages.len());
        let mut sq_errs = Vec::with_capacity(references.map_or(0, <[_]>::len));
        for (i, stage) in self.stages.iter().enumerate() {
            // Gather producer tensors, shape-adapting each to the
            // stage's declared input shape.
            let mut adapted: Vec<Cow<'_, [f64]>> = stage
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
                    if shape == stage.in_shape {
                        Cow::Borrowed(tensor)
                    } else {
                        Cow::Owned(resample_nearest(tensor, shape, stage.in_shape))
                    }
                })
                .collect();
            // Multiple producers (and temporal element-wise operands at
            // steady state) combine as their mean, which keeps the
            // signal in [0, 1].
            let combined = if adapted.len() == 1 {
                adapted.pop().expect("one operand")
            } else {
                let operands: Vec<&[f64]> = adapted.iter().map(AsRef::as_ref).collect();
                Cow::Owned(elementwise_mean(&operands))
            };
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
                    if stage.in_shape == stage.out_shape {
                        combined.into_owned()
                    } else {
                        resample_nearest(&combined, stage.in_shape, stage.out_shape)
                    }
                }
            };
            // Requantize at the stage's declared data resolution —
            // the same bit width the energy side prices.
            match references {
                Some(references) => sq_errs.push(camj_digital::quantize::quantize_slice_sq_err(
                    &mut out,
                    &references[i],
                    stage.bits,
                )),
                None => camj_digital::quantize::quantize_slice(&mut out, stage.bits),
            }
            outputs.push(out);
        }
        (outputs, sq_errs)
    }

    /// Runs the noisy pass and measures every stage against its clean
    /// reference, judging the sink at the task level.
    pub(super) fn run(&self, noisy: &[f64]) -> DagSim {
        let _span = obs_core::span("functional.dag");
        obs_core::counter("functional.stages", 0, self.stages.len() as u64);
        let (outputs, sq_errs) = self.execute(noisy, Some(&self.references));
        let stages: Vec<DagStageSim> = outputs
            .iter()
            .zip(&sq_errs)
            .enumerate()
            .map(|(i, (out, sq))| {
                // The fused sum is `rms_error`'s, term for term.
                let error_rms = if out.is_empty() {
                    0.0
                } else {
                    (sq / out.len() as f64).sqrt()
                };
                DagStageSim {
                    stage: self.stages[i].name.clone(),
                    error_rms,
                    snr_db: super::snr_db(self.reference_rms[i], error_rms),
                }
            })
            .collect();
        let sink_out = &outputs[self.sink];
        let (sw, sh, _) = self.stages[self.sink].out_shape;
        let metrics = TaskMetrics::from_sq_err(
            sink_out,
            sq_errs[self.sink],
            self.reference_centroid,
            sw,
            sh,
        );
        let mut h = FpHasher::new();
        h.write_str("camj.dag-digest/v1");
        h.write_f64_slice_bulk(sink_out);
        let (hi, lo) = h.finish().parts();
        DagSim {
            stages,
            sink: self.stages[self.sink].name.clone(),
            metrics,
            digest: format!("{hi:016x}{lo:016x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use camj_digital::functional::{box_stencil, elementwise_mean, resample_nearest};

    use super::super::frame::rms_error;
    use super::*;
    use crate::sw::Stage;

    /// The executor the plan replaced: every producer tensor is
    /// resampled into a fresh copy (shape-matched ones included), the
    /// operands are always averaged, even a single one, and every
    /// stage is requantized on its own. The kernels are the product
    /// ones; their per-tap oracles are in `camj_digital::functional`.
    fn oracle_execute(plan: &DagPlan, source: &[f64]) -> Vec<Vec<f64>> {
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(plan.stages.len());
        for stage in &plan.stages {
            let adapted: Vec<Vec<f64>> = stage
                .producers
                .iter()
                .map(|&slot| {
                    let (tensor, shape) = if slot == 0 {
                        (source, plan.frame_shape)
                    } else {
                        (
                            outputs[slot - 1].as_slice(),
                            plan.stages[slot - 1].out_shape,
                        )
                    };
                    resample_nearest(tensor, shape, stage.in_shape)
                })
                .collect();
            let operands: Vec<&[f64]> = adapted.iter().map(Vec::as_slice).collect();
            let combined = elementwise_mean(&operands);
            let mut out = match stage.kind {
                StageKind::Stencil { kernel, stride } => {
                    box_stencil(&combined, stage.in_shape, kernel, stride, stage.out_shape)
                }
                _ => resample_nearest(&combined, stage.in_shape, stage.out_shape),
            };
            camj_digital::quantize::quantize_slice(&mut out, stage.bits);
            outputs.push(out);
        }
        outputs
    }

    /// The pass the plan replaced: the oracle's clean references, a
    /// separate error pass per stage, and task metrics measured from
    /// scratch (reference centroid included).
    fn oracle_run(plan: &DagPlan, clean: &[f64], noisy: &[f64]) -> DagSim {
        let references = oracle_execute(plan, clean);
        let outputs = oracle_execute(plan, noisy);
        let stages = outputs
            .iter()
            .zip(&references)
            .zip(&plan.stages)
            .map(|((out, reference), stage)| {
                let reference_rms = (reference.iter().map(|v| v * v).sum::<f64>()
                    / reference.len().max(1) as f64)
                    .sqrt();
                let error_rms = rms_error(out, reference);
                DagStageSim {
                    stage: stage.name.clone(),
                    error_rms,
                    snr_db: super::super::snr_db(reference_rms, error_rms),
                }
            })
            .collect();
        let sink_out = &outputs[plan.sink];
        let (sw, sh, _) = plan.stages[plan.sink].out_shape;
        let mut h = FpHasher::new();
        h.write_str("camj.dag-digest/v1");
        h.write_f64_slice_bulk(sink_out);
        let (hi, lo) = h.finish().parts();
        DagSim {
            stages,
            sink: plan.stages[plan.sink].name.clone(),
            metrics: TaskMetrics::measure(sink_out, &references[plan.sink], sw, sh),
            digest: format!("{hi:016x}{lo:016x}"),
        }
    }

    /// xorshift64: the test's own deterministic stream.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn shape(&mut self) -> [u32; 3] {
            [
                1 + self.below(64) as u32,
                1 + self.below(64) as u32,
                1 + self.below(4) as u32,
            ]
        }
    }

    /// A random DAG over an input frame of `frame` shape: `count`
    /// non-input stages of every kind, each fed by one to three
    /// earlier stages. Stages often take their first producer's shape
    /// (the borrowed path) and keep it (the moved path); the rest
    /// adapt through resampling. Stencil kernels and strides range
    /// past the input size.
    fn random_dag(draw: &mut Draw, frame: [u32; 3], count: usize) -> AlgorithmGraph {
        let mut algo = AlgorithmGraph::new();
        algo.add_stage(Stage::input("S0", frame));
        let mut shapes = vec![frame];
        for i in 1..=count {
            let name = format!("S{i}");
            let fan_in = (1 + draw.below(3) as usize).min(i);
            let mut producers: Vec<usize> = Vec::new();
            while producers.len() < fan_in {
                let p = draw.below(i as u64) as usize;
                if !producers.contains(&p) {
                    producers.push(p);
                }
            }
            let input = if draw.below(3) > 0 {
                shapes[producers[0]]
            } else {
                draw.shape()
            };
            let output = if draw.below(2) == 0 {
                input
            } else {
                draw.shape()
            };
            let bits = 1 + draw.below(16) as u32;
            let small = |draw: &mut Draw, n: u64| 1 + draw.below(n) as u32;
            let stage = match draw.below(4) {
                0 => Stage::stencil(
                    name.clone(),
                    input,
                    output,
                    [small(draw, 9), small(draw, 9), small(draw, 5)],
                    [small(draw, 12), small(draw, 12), small(draw, 5)],
                ),
                1 => Stage::element_wise(name.clone(), input, fan_in as u32),
                2 => Stage::dnn(name.clone(), input, output, 1, 1),
                _ => Stage::custom(name.clone(), input, output, 1, 1.0),
            };
            let out = stage.output_size();
            shapes.push([out.width, out.height, out.channels]);
            algo.add_stage(stage.with_bits(bits));
            for p in producers {
                algo.connect(&format!("S{p}"), &name).unwrap();
            }
        }
        algo
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Builds the plan for `algo`, then checks the clean references,
    /// every noisy stage tensor, and the whole report against the
    /// oracle, bit for bit.
    fn assert_matches_oracle(algo: &AlgorithmGraph, frame: [u32; 3], draw: &mut Draw) {
        let shape = (frame[0], frame[1], frame[2]);
        let len = (frame[0] * frame[1] * frame[2]) as usize;
        let clean: Vec<f64> = (0..len).map(|_| draw.unit()).collect();
        let noisy: Vec<f64> = clean
            .iter()
            .map(|c| (c + (draw.unit() - 0.5) * 0.1).clamp(0.0, 1.0))
            .collect();
        let plan = DagPlan::build(algo, shape, &clean).expect("a non-input stage");
        let references = oracle_execute(&plan, &clean);
        for (got, want) in plan.references.iter().zip(&references) {
            assert_eq!(bits(got), bits(want), "clean reference");
        }
        let (outputs, _) = plan.execute(&noisy, Some(&plan.references));
        for ((got, want), stage) in outputs
            .iter()
            .zip(oracle_execute(&plan, &noisy))
            .zip(&plan.stages)
        {
            assert_eq!(bits(got), bits(&want), "stage {}", stage.name);
        }
        assert_eq!(plan.run(&noisy), oracle_run(&plan, &clean, &noisy));
    }

    proptest! {
        /// Borrowed adapters, single-operand pass-through, the fused
        /// stage error and the planned reference centroid change no
        /// bit of any stage tensor or of the report.
        #[test]
        fn dag_pass_matches_oracle(seed in 1u64..u64::MAX, count in 1usize..6) {
            let mut draw = Draw(seed);
            let frame = draw.shape();
            let algo = random_dag(&mut draw, frame, count);
            assert_matches_oracle(&algo, frame, &mut draw);
        }
    }

    /// No committed description has a multi-producer stage: pin a DAG
    /// whose sink averages three producers of different shapes, one of
    /// them shape-matched.
    #[test]
    fn three_producer_stage_matches_oracle() {
        let mut algo = AlgorithmGraph::new();
        algo.add_stage(Stage::input("Input", [24, 16, 2]));
        algo.add_stage(Stage::stencil(
            "Bin",
            [24, 16, 2],
            [12, 8, 2],
            [2, 2, 1],
            [2, 2, 1],
        ));
        algo.add_stage(Stage::dnn("Net", [24, 16, 2], [5, 7, 1], 1, 1).with_bits(6));
        algo.add_stage(Stage::element_wise("Mix", [12, 8, 2], 3).with_bits(10));
        for (from, to) in [
            ("Input", "Bin"),
            ("Input", "Net"),
            ("Bin", "Mix"),
            ("Net", "Mix"),
            ("Input", "Mix"),
        ] {
            algo.connect(from, to).unwrap();
        }
        assert_matches_oracle(&algo, [24, 16, 2], &mut Draw(0x5eed));
    }
}
