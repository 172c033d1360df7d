//! `cli_oneshot`: a fixed suite of `camj` subprocesses over every
//! committed description, one at a time.
//!
//! Per description: `validate`, `estimate`, `simulate` (default
//! stimulus), `sweep`, `pareto` and `search`; plus Ed-Gaze `simulate
//! --samples 16`, an Ed-Gaze `sweep` over the wide `--fps 1..256` grid,
//! and `camj list` (process start alone). The seed picks `--seed` and
//! `--fps` from small pools, so arguments recur and every repeat is
//! checked for identical output. The first suite of a pass runs the
//! arguments of the committed transcripts and compares with them.

use std::collections::HashMap;
use std::process::Command;
use std::time::Instant;

use crate::calib::Calib;
use crate::pass::{Budget, PassOut, Run};
use crate::proc;
use crate::setup::{Setup, DESIGNS};
use crate::stats::{fnv, median, Rng};
use crate::trace::Ctx;

/// Which committed file an invocation's stdout must equal.
#[derive(Clone, Copy)]
enum Golden {
    QuickstartEstimate,
    EdgazeSimulate,
    EdgazePareto,
    EdgazeSearch,
}

struct Invocation {
    span: &'static str,
    args: Vec<String>,
    golden: Option<Golden>,
}

fn inv(span: &'static str, args: &[&str]) -> Invocation {
    Invocation {
        span,
        args: args.iter().map(|a| (*a).to_owned()).collect(),
        golden: None,
    }
}

/// Seeded argument pools of one pass.
struct Pools {
    fps: Vec<u32>,
    seeds: Vec<u64>,
    grids: Vec<String>,
}

impl Pools {
    fn new(rng: &mut Rng) -> Self {
        let fps = (0..6).map(|_| 1 + rng.below(100) as u32).collect();
        let seeds = (0..6).map(|_| rng.below(10_000)).collect();
        let grids = (0..6)
            .map(|_| {
                let step = *rng.pick(&[1u32, 2, 4]);
                let start = 1 + rng.below(u64::from(100 - 7 * step)) as u32;
                (0..8)
                    .map(|i| (start + i * step).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        Self { fps, seeds, grids }
    }
}

/// One suite. `golden` selects the committed transcripts' arguments.
fn suite(rng: &mut Rng, pools: &Pools, golden: bool) -> Vec<Invocation> {
    let mut out = Vec::new();
    for name in DESIGNS {
        let file = format!("descriptions/{name}.json");
        let f = file.as_str();
        let fps = rng.pick(&pools.fps).to_string();
        let seed = rng.pick(&pools.seeds).to_string();
        let grid = rng.pick(&pools.grids).clone();
        out.push(inv("cli.validate", &["validate", f]));
        if golden && name == "quickstart" {
            let mut i = inv("cli.estimate", &["estimate", "--design", f]);
            i.golden = Some(Golden::QuickstartEstimate);
            out.push(i);
        } else {
            out.push(inv(
                "cli.estimate",
                &["estimate", "--design", f, "--fps", &fps],
            ));
        }
        if golden && name == "edgaze" {
            let mut i = inv("cli.simulate", &["simulate", "--design", f, "--seed", "42"]);
            i.golden = Some(Golden::EdgazeSimulate);
            out.push(i);
            let mut i = inv(
                "cli.pareto",
                &[
                    "pareto",
                    "--design",
                    f,
                    "--format",
                    "json",
                    "--threads",
                    "2",
                ],
            );
            i.golden = Some(Golden::EdgazePareto);
            out.push(i);
            let mut i = inv(
                "cli.search",
                &[
                    "search",
                    "--design",
                    f,
                    "--format",
                    "json",
                    "--threads",
                    "2",
                ],
            );
            i.golden = Some(Golden::EdgazeSearch);
            out.push(i);
        } else {
            out.push(inv(
                "cli.simulate",
                &["simulate", "--design", f, "--seed", &seed],
            ));
            out.push(inv(
                "cli.pareto",
                &["pareto", "--design", f, "--fps", &grid, "--threads", "2"],
            ));
            out.push(inv(
                "cli.search",
                &[
                    "search",
                    "--design",
                    f,
                    "--fps",
                    &grid,
                    "--seed",
                    &seed,
                    "--threads",
                    "2",
                ],
            ));
        }
        out.push(inv(
            "cli.sweep",
            &["sweep", "--design", f, "--fps", &grid, "--threads", "2"],
        ));
    }
    let seed = rng.pick(&pools.seeds).to_string();
    out.push(inv(
        "cli.simulate_mc",
        &[
            "simulate",
            "--design",
            "descriptions/edgaze.json",
            "--samples",
            "16",
            "--seed",
            &seed,
        ],
    ));
    let wide: Vec<String> = (1..=256).map(|f| f.to_string()).collect();
    out.push(inv(
        "cli.sweep_wide",
        &[
            "sweep",
            "--design",
            "descriptions/edgaze.json",
            "--fps",
            &wide.join(","),
            "--threads",
            "2",
        ],
    ));
    out.push(inv("cli.startup", &["list"]));
    out
}

pub fn run(run: &Run, setup: &Setup, budget: Budget) -> PassOut {
    let mut rng = Rng::new(run.seed_for(budget, 4));
    let pools = Pools::new(&mut rng);
    let mut out = PassOut::default();
    let mut seen: HashMap<Vec<String>, u64> = HashMap::new();
    let mut peak_kb = 0u64;
    let mut walls = Vec::new();
    let start = Instant::now();
    let mut suites = 0usize;
    let mut index = 0u64;
    let mut calib = Calib::new();
    loop {
        let more = match budget {
            Budget::Fixed { size, .. } => suites < size,
            Budget::Timed { measure, .. } => suites == 0 || start.elapsed() < measure,
        };
        if !more {
            break;
        }
        for invocation in suite(&mut rng, &pools, suites == 0 && budget.opens()) {
            let ctx = run.op(index, budget);
            index += 1;
            out.attempted += 1;
            let slowness = calib.slowness();
            let (result, wall) = run.tracer.span(ctx, "bench.job", |c| {
                execute(run, c, setup, &invocation, &mut seen)
            });
            match result {
                Ok((child_wall, cpu, maxrss_kb)) => {
                    out.timing("cli_cpu_ms", cpu * 1e3 / slowness, cpu * 1e3);
                    out.obs.push(("slowness", slowness));
                    walls.push(child_wall * 1e3);
                    peak_kb = peak_kb.max(maxrss_kb);
                    out.op_wall(ctx, wall);
                }
                Err(e) => out.fail(e),
            }
        }
        suites += 1;
    }
    if budget.is_timed() {
        if let Some(p50) = median(&walls) {
            out.notes.push(format!(
                "cli wall time (spawn to reap): p50 {p50:.3} ms over {} invocations",
                walls.len()
            ));
        }
    }
    if peak_kb > 0 {
        let peak_mb = peak_kb as f64 / 1024.0;
        out.peak_rss_mb = Some(peak_mb);
        // A child's peak includes the harness's high-water mark at
        // spawn (the kernel carries it over at exec), so the children's
        // own memory only shows while it stays above the harness's.
        let harness_mb = proc::vm_hwm_mb("self").unwrap_or(f64::INFINITY);
        if budget.is_timed() {
            out.notes.push(format!(
                "peak_rss_mb is the largest CLI child's; the harness's is {harness_mb:.1} MB"
            ));
            if peak_mb <= harness_mb {
                out.problems.push(format!(
                    "the largest CLI child's peak RSS ({peak_mb:.1} MB) does not exceed \
                     the harness's ({harness_mb:.1} MB), so it measures the harness"
                ));
            }
        }
    }
    out
}

/// Runs one invocation and checks it: exit 0, the committed output
/// where one applies, and the same output as every earlier run with
/// the same arguments. Returns the child's wall time, CPU time (user
/// plus system) and peak RSS.
fn execute(
    run: &Run,
    ctx: Ctx,
    setup: &Setup,
    invocation: &Invocation,
    seen: &mut HashMap<Vec<String>, u64>,
) -> Result<(f64, f64, u64), String> {
    let mut cmd = Command::new(&run.camj);
    cmd.args(&invocation.args)
        .env("RAYON_NUM_THREADS", crate::THREADS.to_string());
    let (output, _) = run
        .tracer
        .span(ctx, invocation.span, |_| proc::run(&mut cmd));
    let what = || {
        let mut shown = invocation.args.join(" ");
        shown.truncate(120);
        format!("camj {shown}")
    };
    let output = output.map_err(|e| format!("{}: {e}", what()))?;
    if output.exit.code != 0 {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "{} exited with {}: {}",
            what(),
            output.exit.code,
            stderr.lines().next().unwrap_or("")
        ));
    }
    if let Some(golden) = invocation.golden {
        let g = &setup.goldens;
        let want = match golden {
            Golden::QuickstartEstimate => &g.quickstart_estimate,
            Golden::EdgazeSimulate => &g.edgaze_simulate,
            Golden::EdgazePareto => &g.edgaze_pareto,
            Golden::EdgazeSearch => &g.edgaze_search,
        };
        if output.stdout != want.as_bytes() {
            return Err(format!("{} differs from its committed output", what()));
        }
    }
    let digest = fnv(&[&output.stdout]);
    if *seen.entry(invocation.args.clone()).or_insert(digest) != digest {
        return Err(format!(
            "{} printed something else than its first run",
            what()
        ));
    }
    Ok((output.wall, output.exit.cpu_s, output.exit.maxrss_kb))
}
