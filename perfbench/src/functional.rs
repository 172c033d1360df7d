//! `functional_frames`: images pushed through the functional core.
//!
//! One job: decode the committed eye image; simulate one Ed-Gaze frame
//! on it, then a 16-seed Monte-Carlo batch; simulate one Rhythmic frame
//! under a seeded gradient; measure task metrics; run the two digital
//! DAG kernels on the 640×400 frame; and a cold 7-point Ed-Gaze pareto
//! on (total energy, centroid accuracy). Seeds come from small seeded
//! pools, so repeats recur and are checked for bit-identical output.

use std::collections::HashMap;

use camj_core::functional::Stimulus;
use camj_desc::ir::StageKindIr;
use camj_digital::functional::{box_stencil, resample_nearest};
use camj_explore::{Constraint, EstimateCache, Explorer, Objective, ParetoQuery, Sweep};

use crate::calib::Calib;
use crate::pass::{Budget, Loop, PassOut, Run};
use crate::setup::{Setup, EYE_IMAGE};
use crate::stats::{fnv, Rng};
use crate::trace::Ctx;

/// Seeds in the Monte-Carlo batch.
const MC_SEEDS: u64 = 16;
/// The seed of the committed `camj simulate` transcript.
const GOLDEN_SEED: u64 = 42;

/// Inputs fixed for a whole pass.
struct Inputs {
    singles: Vec<u64>,
    batches: Vec<u64>,
    gradients: Vec<(u64, f64, f64)>,
    accuracy: ParetoQuery,
    accuracy_grid: Sweep,
    frame: (u32, u32, u32),
    downsample: ([u32; 3], [u32; 3], (u32, u32, u32)),
}

fn inputs(setup: &Setup, rng: &mut Rng) -> Result<Inputs, String> {
    let edgaze = setup.design("edgaze");
    let pool = |rng: &mut Rng| -> Vec<u64> { (0..8).map(|_| rng.below(1 << 32)).collect() };
    let singles = pool(rng);
    let batches = pool(rng);
    let gradients = (0..8)
        .map(|_| {
            let low = rng.below(40) as f64 / 100.0;
            let high = low + 0.2 + rng.below(40) as f64 / 100.0;
            (rng.below(1 << 32), low, high)
        })
        .collect();
    // The accuracy frontier exactly as `camj pareto --objectives
    // total_energy,accuracy:centroid` computes it from the description.
    let sweep_ir = edgaze
        .desc
        .sweep
        .as_ref()
        .ok_or("edgaze has no sweep block")?;
    let mut accuracy = ParetoQuery::new(vec![
        Objective::TotalEnergy,
        "accuracy:centroid".parse::<Objective>()?,
    ]);
    if let Some(c) = &sweep_ir.constraints {
        if let Some(v) = c.max_power_density_mw_per_mm2 {
            accuracy = accuracy.constrain(Constraint::MaxPowerDensity(v));
        }
        if let Some(v) = c.max_digital_latency_ms {
            accuracy = accuracy.constrain(Constraint::MaxDigitalLatency(v));
        }
        if let Some(v) = c.max_total_energy_pj {
            accuracy = accuracy.constrain(Constraint::MaxTotalEnergy(v));
        }
    }
    let stage = |name: &str| {
        edgaze
            .desc
            .sw
            .stages
            .iter()
            .find(|s| s.name == name)
            .ok_or(format!("edgaze has no stage {name}"))
    };
    let [w, h, c] = stage("Input")?.output_size;
    let ds = stage("Downsample")?;
    let StageKindIr::Stencil { kernel, stride, .. } = &ds.kind else {
        return Err("edgaze Downsample is not a stencil".to_owned());
    };
    let [ow, oh, oc] = ds.output_size;
    Ok(Inputs {
        singles,
        batches,
        gradients,
        accuracy,
        accuracy_grid: Sweep::new().fps_targets(sweep_ir.fps.iter().copied()),
        frame: (w, h, c),
        downsample: (*kernel, *stride, (ow, oh, oc)),
    })
}

/// Output digests by input, so every repeat is checked bit for bit.
#[derive(Default)]
struct Seen(HashMap<String, String>);

impl Seen {
    fn check(&mut self, key: String, digest: String, out: &mut PassOut) {
        let first = self.0.entry(key.clone()).or_insert_with(|| digest.clone());
        if *first != digest {
            out.fail(format!("{key}: output changed between repeats"));
        }
    }
}

pub fn run(run: &Run, setup: &Setup, budget: Budget) -> PassOut {
    let mut rng = Rng::new(run.seed_for(budget, 2));
    let mut out = PassOut::default();
    let inputs = match inputs(setup, &mut rng) {
        Ok(i) => i,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("functional_frames inputs: {e}"));
            return out;
        }
    };
    let mut seen = Seen::default();
    let mut calib = Calib::new();
    let mut jobs = Loop::new(budget);
    while jobs.more() {
        let ctx = run.op(jobs.index(), budget);
        let slowness = calib.slowness();
        let first = jobs.index() == 0 && budget.opens();
        let (job, wall) = run.tracer.span(ctx, "bench.job", |c| {
            job(run, c, setup, &inputs, first, &mut rng, &mut seen, &mut out)
        });
        out.attempted += 1;
        let counts = jobs.finish();
        match job {
            Ok(rate) if counts => {
                out.op_wall(ctx, wall);
                out.timing("frame_rate", rate * slowness, rate);
                out.obs.push(("slowness", slowness));
            }
            Ok(_) => {}
            Err(e) => out.fail(format!("functional_frames job: {e}")),
        }
    }
    out
}

/// One job; returns megapixels (× seeds) per second of frame
/// simulation.
#[allow(clippy::too_many_arguments)]
fn job(
    run: &Run,
    ctx: Ctx,
    setup: &Setup,
    inputs: &Inputs,
    first: bool,
    rng: &mut Rng,
    seen: &mut Seen,
    out: &mut PassOut,
) -> Result<f64, String> {
    let tracer = &run.tracer;
    let edgaze = &setup.design("edgaze").model;
    let rhythmic = &setup.design("rhythmic").model;

    let (eye, _) = tracer.span(ctx, "image.decode", |_| {
        Stimulus::image_from_path(EYE_IMAGE)
    });
    let eye = eye?;
    if eye != setup.eye {
        return Err("the eye image decoded differently".to_owned());
    }

    // One Ed-Gaze frame; the first job of a pass uses the seed of the
    // committed transcript and checks its digests.
    let seed = if first {
        GOLDEN_SEED
    } else {
        *rng.pick(&inputs.singles)
    };
    let (single, t_single) =
        tracer.span(ctx, "frame.single", |_| edgaze.simulate_frame(seed, &eye));
    let single = single.map_err(|e| format!("edgaze frame (seed {seed}): {e}"))?;
    let dag_digest = single.dag.as_ref().map_or("", |d| d.digest.as_str());
    if seed == GOLDEN_SEED {
        let golden = &setup.goldens.edgaze_simulate;
        let want = |label: &str, got: &str| golden.lines().any(|l| l == format!("{label}: {got}"));
        if !(want("digest", &single.digest) && want("dag digest", dag_digest)) {
            out.fail("edgaze frame digests differ from descriptions/edgaze.simulate.txt".into());
        }
    }
    seen.check(
        format!("edgaze frame seed {seed}"),
        format!("{} {dag_digest}", single.digest),
        out,
    );
    let mut pixels = u64::from(single.width) * u64::from(single.height);

    // A Monte-Carlo batch.
    let base = *rng.pick(&inputs.batches);
    let seeds: Vec<u64> = (base..base + MC_SEEDS).collect();
    let (batch, t_batch) = tracer.span(ctx, "frame.mc", |_| edgaze.simulate_frames(&seeds, &eye));
    let batch = batch.map_err(|e| format!("edgaze batch (seed {base}): {e}"))?;
    seen.check(
        format!("edgaze batch seed {base}"),
        batch.digests.join(" "),
        out,
    );
    pixels += MC_SEEDS * u64::from(batch.width) * u64::from(batch.height);

    // One Rhythmic frame under a seeded gradient.
    let &(rseed, low, high) = rng.pick(&inputs.gradients);
    let gradient = Stimulus::gradient(low, high);
    let (frame, t_rhythmic) = tracer.span(ctx, "frame.rhythmic", |_| {
        rhythmic.simulate_frame(rseed, &gradient)
    });
    let frame = frame.map_err(|e| format!("rhythmic frame (seed {rseed}): {e}"))?;
    seen.check(
        format!("rhythmic seed {rseed} {low}..{high}"),
        frame.digest,
        out,
    );
    pixels += u64::from(frame.width) * u64::from(frame.height);
    out.layer.push(("frame.pixels", pixels as f64));

    // Task metrics of the attached eye stimulus (no cache).
    let (metrics, _) = tracer.span(ctx, "frame.task_metrics", |_| edgaze.task_metrics(&[seed]));
    let metrics = metrics.map_err(|e| format!("edgaze task metrics: {e}"))?;
    seen.check(
        format!("edgaze task metrics seed {seed}"),
        format!("{:?}", metrics),
        out,
    );

    // The two digital-DAG kernels on the Ed-Gaze frame shape.
    let Stimulus::Image {
        width,
        height,
        pixels: plane,
        ..
    } = &eye
    else {
        return Err("the eye stimulus is not an image".to_owned());
    };
    let (frame_in, _) = tracer.span(ctx, "dag.resample", |_| {
        resample_nearest(plane, (*width, *height, 1), inputs.frame)
    });
    let (kernel, stride, ds_out) = inputs.downsample;
    let (down, _) = tracer.span(ctx, "dag.box_stencil", |_| {
        box_stencil(&frame_in, inputs.frame, kernel, stride, ds_out)
    });
    let bits: Vec<u8> = down
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    seen.check(
        "dag kernels".to_owned(),
        format!("{:x}", fnv(&[&bits])),
        out,
    );

    // Cold accuracy frontier on a freshly built model, as `camj pareto`
    // computes it, compared with the committed one.
    let (fresh, _) = tracer.span(ctx, "desc.build", |_| setup.design("edgaze").desc.build());
    let fresh = fresh
        .map_err(|e| format!("edgaze build: {e}"))?
        .with_stimulus(eye.clone());
    let cache = EstimateCache::shared();
    let (front, _) = tracer.span(ctx, "explore.pareto_accuracy", |_| {
        Explorer::parallel().pareto(&inputs.accuracy_grid, &cache, &inputs.accuracy, |p| {
            Ok(fresh.with_fps(p.fps("fps")))
        })
    });
    out.layer
        .push(("explore.pruned", front.pruned().len() as f64));
    let rendered = format!("{}\n", front.to_json(Some(&cache.stats())));
    if rendered != setup.goldens.edgaze_pareto_accuracy {
        out.fail("accuracy frontier differs from descriptions/edgaze.pareto-accuracy.json".into());
    }

    Ok(pixels as f64 / 1e6 / (t_single + t_batch + t_rhythmic))
}
