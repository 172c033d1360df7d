//! `design_space`: energy-model exploration over the 4096-point Ed-Gaze
//! 2D-In grid, cold cache per call.
//!
//! One job: an exhaustive `Explorer::pareto` (total energy, power
//! density), a seeded `Explorer::search` on the same grid, 256 grid
//! points sampled by seed and each built and estimated uncached through
//! the staged path (simulate, stall check, energy), and the nine Fig. 7
//! validation chips.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use camj_core::energy::{CamJ, ValidatedModel};
use camj_explore::{
    DesignPoint, EstimateCache, Explorer, MemoryKind, Objective, ParetoQuery, PointError,
    ProcessNode, SearchSpec, Sweep,
};
use camj_workloads::configs::SensorVariant;
use camj_workloads::edgaze;
use camj_workloads::validation;

use crate::calib::Calib;
use crate::pass::{Budget, Loop, PassOut, Run};
use crate::stats::{median, Rng};
use crate::trace::Ctx;

/// Grid points each job estimates one by one through the staged path.
const STAGED_SAMPLE: usize = 256;
/// Search budget as a share of the grid, and its population.
const SEARCH_BUDGET_SHARE: f64 = 0.15;
const SEARCH_POPULATION: usize = 32;
/// The acceptance floors the checks apply.
const RECALL_FLOOR: f64 = 0.95;
const PEARSON_FLOOR: f64 = 0.999;
const MAPE_CEILING_PCT: f64 = 10.0;

/// fps(64) × bit_width(8) × tech_node(4) × memory(2) = 4096 points.
pub fn grid() -> Sweep {
    Sweep::new()
        .fps_targets((0..64).map(|i| 10.0 + 0.25 * f64::from(i)))
        .bit_widths(8..16)
        .tech_nodes([
            ProcessNode::N130,
            ProcessNode::N110,
            ProcessNode::N90,
            ProcessNode::N65,
        ])
        .memory_kinds([MemoryKind::DoubleBuffer, MemoryKind::LineBuffer])
}

/// The benchmark's own build closure: the Ed-Gaze model a grid point
/// describes, plus the run's injected delay (zero unless the harness
/// self-test asks for one).
fn build_point(run: &Run, ctx: Ctx, point: &DesignPoint) -> Result<ValidatedModel, PointError> {
    run.tracer
        .span(ctx, "explore.build_point", |_| {
            if !run.inject_build_point.is_zero() {
                let until = Instant::now() + run.inject_build_point;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            let config = edgaze::EdGazeConfig::new(SensorVariant::TwoDIn, point.node("tech_node"))
                .with_adc_bits(point.u32("bit_width"))
                .with_frame_buffer_kind(point.memory("memory"));
            edgaze::model_with(config)
                .map(CamJ::into_validated)
                .map_err(PointError::new)
        })
        .0
}

/// Per-pass memory of earlier outputs, so every repeat of an input is
/// checked for bit-identical output.
#[derive(Default)]
struct Seen {
    staged: HashMap<usize, u64>,
    fig7: Option<(u64, u64)>,
}

pub fn run(run: &Run, budget: Budget) -> PassOut {
    let sweep = grid();
    let query = ParetoQuery::new(vec![Objective::TotalEnergy, Objective::PowerDensity]);
    let mut rng = Rng::new(run.seed_for(budget, 1));
    let mut out = PassOut::default();
    let mut seen = Seen::default();
    let mut recalls = Vec::new();
    let mut calib = Calib::new();
    let mut jobs = Loop::new(budget);
    while jobs.more() {
        let ctx = run.op(jobs.index(), budget);
        let slowness = calib.slowness();
        let (job, wall) = run.tracer.span(ctx, "bench.job", |c| {
            job(run, c, &sweep, &query, &mut rng, &mut seen, &mut out)
        });
        out.attempted += 1;
        let counts = jobs.finish();
        match job {
            Ok(j) if counts => {
                out.op_wall(ctx, wall);
                out.timing("explore_rate", j.explore_rate * slowness, j.explore_rate);
                out.timing("estimate_rate", j.estimate_rate * slowness, j.estimate_rate);
                out.obs.push(("slowness", slowness));
                out.obs.push(("search_recall", j.recall));
                out.obs.push(("fig7_mape", j.mape));
                recalls.push(j.recall);
            }
            Ok(_) => {}
            Err(e) => out.fail(format!("design_space job: {e}")),
        }
    }
    if budget.closes() {
        post(run, &sweep, &query, &mut out);
    }
    // Recall varies with the search seed (by 1/64 steps on this grid),
    // so the run reports and checks the mean over its jobs; the floor
    // is the search's acceptance bar, meaningful over many seeds only.
    if !recalls.is_empty() {
        let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
        let min = recalls.iter().copied().fold(f64::INFINITY, f64::min);
        out.notes.push(format!(
            "search_recall is the mean over {} seeded searches (lowest {min:.4})",
            recalls.len()
        ));
        if budget.is_timed() && mean < RECALL_FLOOR {
            out.fail(format!(
                "mean search recall {mean:.4} is below {RECALL_FLOOR}"
            ));
        }
    }
    out
}

struct Job {
    explore_rate: f64,
    estimate_rate: f64,
    recall: f64,
    mape: f64,
}

fn job(
    run: &Run,
    ctx: Ctx,
    sweep: &Sweep,
    query: &ParetoQuery,
    rng: &mut Rng,
    seen: &mut Seen,
    out: &mut PassOut,
) -> Result<Job, String> {
    let tracer = &run.tracer;
    let explorer = Explorer::parallel();

    // Exhaustive frontier, cold cache.
    let cache = EstimateCache::shared();
    let (front, t_pareto) = tracer.span(ctx, "explore.pareto", |c| {
        explorer.pareto(sweep, &cache, query, |p| build_point(run, c, p))
    });
    if !front.errors().is_empty() {
        return Err(format!("{} grid points failed", front.errors().len()));
    }
    let stats = cache.stats();
    out.layer.push(("energy.kernel_runs", stats.misses as f64));
    out.layer.push(("cache.hit_ratio", stats.hit_rate()));
    out.layer.push(("cache.entries", stats.entries as f64));
    out.layer.push(("cache.bytes", stats.bytes as f64));

    // Seeded adaptive search, cold cache.
    let budget = (sweep.len() as f64 * SEARCH_BUDGET_SHARE).floor() as usize;
    let spec = SearchSpec::new()
        .seed(rng.next_u64())
        .budget(budget)
        .population(SEARCH_POPULATION);
    let cache = EstimateCache::shared();
    let (searched, t_search) = tracer.span(ctx, "explore.search", |c| {
        explorer.search(sweep, &cache, query, &spec, |p| build_point(run, c, p))
    });
    out.layer
        .push(("explore.evaluations", searched.evaluations() as f64));
    let oracle: BTreeSet<usize> = front.frontier().iter().map(|e| e.point.index).collect();
    let found = searched
        .frontier()
        .iter()
        .filter(|e| oracle.contains(&e.point.index))
        .count();
    let recall = found as f64 / oracle.len().max(1) as f64;
    if searched.evaluations() > budget {
        return Err(format!(
            "search (seed {}) used {} evaluations, over its budget of {budget}",
            spec.seed_value(),
            searched.evaluations()
        ));
    }
    let answered = front.total_points() + searched.evaluations();

    // Uncached staged estimates of a seeded sample of the grid.
    let mut picked = BTreeSet::new();
    while picked.len() < STAGED_SAMPLE {
        picked.insert(rng.below(sweep.len() as u64) as usize);
    }
    let staged_start = Instant::now();
    for &index in &picked {
        let point = sweep.point_at(index);
        let fps = point.fps("fps");
        let model = build_point(run, ctx, &point).map_err(|e| e.to_string())?;
        let (sim, t_sim) = tracer.span(ctx, "sim.elastic", |_| {
            model
                .simulate()
                .map(|s| s.report.as_ref().map_or(0, |r| r.total_cycles))
        });
        let cycles = sim.map_err(|e| format!("point {index}: {e}"))?;
        out.layer.push(("sim.cycles", cycles as f64));
        if cycles > 0 {
            out.layer
                .push(("sim.ns_per_cycle", t_sim * 1e9 / cycles as f64));
        }
        tracer
            .span(ctx, "energy.stall_check", |_| {
                model
                    .estimate_delay_at(fps)
                    .and_then(|delay| model.check_stall(&delay))
            })
            .0
            .map_err(|e| format!("point {index}: {e}"))?;
        let report = tracer
            .span(ctx, "energy.estimate", |_| model.estimate_at_fps(fps))
            .0
            .map_err(|e| format!("point {index}: {e}"))?;
        let bits = report.total().picojoules().to_bits();
        if *seen.staged.entry(index).or_insert(bits) != bits {
            out.fail(format!(
                "point {index}: staged estimate changed between jobs"
            ));
        }
    }
    let t_staged = staged_start.elapsed().as_secs_f64();

    // The nine Fig. 7 chips.
    let (chips, t_chips) = tracer.span(ctx, "validation.chips", |_| validation::validate_all());
    let chips = chips.map_err(|e| format!("validation chips: {e}"))?;
    let mape = validation::mape(&chips);
    let pearson = validation::pearson(&chips);
    if !(pearson > PEARSON_FLOOR && mape < MAPE_CEILING_PCT) {
        return Err(format!(
            "Fig. 7 validation: Pearson {pearson}, MAPE {mape}%"
        ));
    }
    let fig7 = (mape.to_bits(), pearson.to_bits());
    if *seen.fig7.get_or_insert(fig7) != fig7 {
        out.fail("Fig. 7 validation changed between jobs".to_owned());
    }

    Ok(Job {
        explore_rate: answered as f64 / (t_pareto + t_search),
        estimate_rate: (STAGED_SAMPLE + chips.len()) as f64 / (t_staged + t_chips),
        recall,
        mape,
    })
}

/// Checks and per-layer extras after the timed loop: serial and
/// parallel explorers must agree byte for byte (their time ratio is
/// recorded), and the incremental fps sweep is timed.
fn post(run: &Run, sweep: &Sweep, query: &ParetoQuery, out: &mut PassOut) {
    let ctx = run.post();
    let tracer = &run.tracer;
    tracer.span(ctx, "bench.post", |ctx| {
        let (mut serial, mut parallel) = (Vec::new(), Vec::new());
        let mut rendered = BTreeSet::new();
        let pool = |threads| {
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global();
        };
        for _ in 0..3 {
            for (explorer, name, times) in [
                (Explorer::serial(), "explore.pareto_serial", &mut serial),
                (
                    Explorer::parallel(),
                    "explore.pareto_parallel",
                    &mut parallel,
                ),
            ] {
                pool(crate::THREADS);
                let cache = EstimateCache::shared();
                let (front, t) = tracer.span(ctx, name, |c| {
                    explorer.pareto(sweep, &cache, query, |p| build_point(run, c, p))
                });
                pool(crate::HARNESS_THREADS);
                times.push(t);
                rendered.insert(front.to_json(None));
            }
        }
        if rendered.len() != 1 {
            out.fail("serial and parallel explorers disagree on the 4096-point frontier".into());
        }
        if let (Some(p), Some(s)) = (median(&parallel), median(&serial)) {
            out.layer.push(("explore.parallel_over_serial", p / s));
        }

        let fps = Sweep::new().fps_targets((0..64).map(|i| 10.0 + 0.25 * f64::from(i)));
        let baseline = sweep.point_at(0);
        let mut rendered = BTreeSet::new();
        for _ in 0..3 {
            let cache = EstimateCache::shared();
            let (results, _) = tracer.span(ctx, "explore.sweep", |c| {
                Explorer::parallel()
                    .sweep_incremental(&fps, &cache, |_| build_point(run, c, &baseline))
            });
            if results.error_count() != 0 {
                out.fail(format!(
                    "fps sweep: {} points failed",
                    results.error_count()
                ));
            }
            rendered.insert(results.to_json(None));
        }
        if rendered.len() != 1 {
            out.fail("repeated fps sweeps disagree".into());
        }
    });
}
