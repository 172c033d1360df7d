//! perfbench — the camj benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --camj PATH
//!           [--out-dir DIR] [--inject-build-point-us N]
//! ```
//!
//! Run from the root of a camj checkout (it reads `descriptions/`);
//! `perfbench/run.py` builds everything and calls this. One run sets up
//! (descriptions, eye image, a `camj serve` daemon) several times and
//! keeps the last, runs the named workload for `--seconds` after a
//! warm-up, and around it a fixed pass of each other workload (half
//! before, half after) so that every metric has a value; it checks
//! every output, and prints a metric table and, as the last line of
//! stdout, one JSON object.
//!
//! With `--trace 1` the same run records spans around every call into a
//! camj crate (every other op of the timed loop, all of the rest) and
//! reports per-layer metrics instead of end-to-end ones.

mod calib;
mod cli;
mod daemon;
mod design_space;
mod functional;
mod pass;
mod proc;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pass::{Budget, Part, PassOut, Run};
use setup::Setup;

/// The workloads, in the order their fixed passes run.
pub const WORKLOADS: [&str; 4] = [
    "design_space",
    "functional_frames",
    "serve_mix",
    "cli_oneshot",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Daemon workers, and rayon threads of the daemon and CLI children
/// (the host has two cores).
pub const THREADS: usize = 2;
/// Rayon threads of the harness's own in-process work (explorer, frame
/// batches). On a shared two-vCPU host the second vCPU's speed swings
/// from run to run, and two-thread in-process figures spread by 0.1 to
/// 0.35 (IQR / median over ten runs) against 0.06 to 0.09 with one. The
/// two-thread explorer is still timed against the serial one
/// (`explore.parallel_over_serial`), and the daemon and CLI children run
/// two threads.
pub const HARNESS_THREADS: usize = 1;
/// Warm-up before the timed window of the serve mix.
const SERVE_WARMUP: Duration = Duration::from_secs(1);
/// Sizes of each half of a fixed pass (see `bench`): in-process jobs
/// (the first is warm-up), served requests, CLI suites.
const FIXED_JOBS: usize = 12;
const FIXED_REQUESTS: usize = 2400;
const FIXED_SUITES: usize = 12;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    camj: PathBuf,
    out_dir: PathBuf,
    inject_build_point_us: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut camj) = (None, None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut inject_build_point_us = 0;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload '{value}' ({WORKLOADS:?})"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--camj" => camj = Some(PathBuf::from(&value)),
            "--out-dir" => out_dir = PathBuf::from(&value),
            "--inject-build-point-us" => inject_build_point_us = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        camj: camj.ok_or("--camj is required")?,
        out_dir,
        inject_build_point_us,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(HARNESS_THREADS)
        .build_global();
    match bench(&args, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn bench(args: &Args, started: Instant) -> Result<(), String> {
    // Set up several times; the first is timed from process start.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for i in 0..SETUPS {
        let t = if i == 0 { started } else { Instant::now() };
        let fresh = Setup::open(&args.camj, THREADS)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if let Some(old) = setup.replace(fresh) {
            let Setup {
                daemon, goldens, ..
            } = old;
            serve::shutdown(daemon, &goldens)?;
        }
    }
    let mut setup = setup.expect("at least one set-up");

    let run = Run::new(
        args.trace,
        args.seed,
        args.camj.clone(),
        Duration::from_micros(args.inject_build_point_us),
    );
    let measure = Duration::from_secs(args.seconds);
    let in_process = Budget::Timed {
        warmup: Duration::ZERO,
        measure,
    };
    // Each fixed pass runs in two halves, one before the timed loop and
    // one after it, so it samples the shared host at two moments of the
    // run.
    let fixed = |name: &str, setup: &mut Setup, part: Part| {
        let size = match name {
            "design_space" | "functional_frames" => FIXED_JOBS,
            "serve_mix" => FIXED_REQUESTS,
            _ => FIXED_SUITES,
        };
        let budget = Budget::Fixed { size, part };
        match name {
            "design_space" => design_space::run(&run, budget),
            "functional_frames" => functional::run(&run, setup, budget),
            "serve_mix" => serve::run(&run, setup, budget),
            _ => cli::run(&run, setup, budget),
        }
    };
    let others: Vec<&'static str> = WORKLOADS
        .into_iter()
        .filter(|w| *w != args.workload)
        .collect();
    let mut passes: Vec<(&'static str, PassOut)> = others
        .iter()
        .map(|&w| (w, fixed(w, &mut setup, Part::Before)))
        .collect();
    // The harness's high-water mark is `peak_rss_mb` on design_space and
    // functional_frames, and every CLI child inherits it in its own peak
    // (the kernel records it at exec): start it afresh, so that it
    // measures the timed loop and not the first halves.
    if let Err(e) = proc::reset_hwm() {
        return Err(format!("resetting the peak RSS: {e}"));
    }
    let rss_before = proc::vm_hwm_mb("self");
    let mut main_pass = match args.workload {
        "design_space" => design_space::run(&run, in_process),
        "functional_frames" => functional::run(&run, &setup, in_process),
        "serve_mix" => serve::run(
            &run,
            &mut setup,
            Budget::Timed {
                warmup: SERVE_WARMUP,
                measure,
            },
        ),
        _ => cli::run(&run, &setup, in_process),
    };
    // If the timed loop did not raise the harness's high-water mark, it
    // would measure what ran before.
    let harness_rss = proc::vm_hwm_mb("self");
    if main_pass.peak_rss_mb.is_none() && harness_rss <= rss_before {
        main_pass.problems.push(format!(
            "the timed loop did not raise the harness's peak RSS ({:.1} MB), \
             so peak_rss_mb would not measure it",
            harness_rss.unwrap_or(0.0)
        ));
    }
    passes.insert(0, (args.workload, main_pass));
    for name in others {
        passes.push((name, fixed(name, &mut setup, Part::After)));
    }
    let Setup {
        daemon, goldens, ..
    } = setup;
    let shutdown = serve::shutdown(daemon, &goldens);

    let peak_rss_mb = passes[0].1.peak_rss_mb.or(harness_rss);
    let report = report::Report::new(
        args.workload,
        &passes,
        &setup_times,
        peak_rss_mb,
        shutdown.err(),
    );
    if args.trace {
        let spans = run.tracer.spans();
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        report.print_traced(&passes, &spans, &path);
    } else {
        report.print_untraced();
    }
    Ok(())
}
