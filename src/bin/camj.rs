//! `camj` — estimate, sweep, validate, and export sensor designs from
//! declarative JSON descriptions, without recompiling.
//!
//! ```text
//! camj list
//! camj export <workload> [--out FILE]
//! camj validate <file>...
//! camj estimate --design FILE [--fps N] [--json] [--stats]
//! camj simulate --design FILE [--seed N] [--samples N] [--fps N] [--stimulus SPEC] [--json] [--stats]
//! camj sweep --design FILE [--fps A,B,C] [--format json|csv]
//! camj pareto --design FILE [--fps A,B,C] [--objectives O,O,...]
//!             [--max-density X] [--max-latency-ms X] [--max-energy-pj X]
//!             [--format json|csv]
//! camj search --design FILE [--fps A,B,C] [--population N] [--generations N]
//!             [--budget N] [--seed N] [--format json|csv]
//! camj serve [--listen ADDR | --stdio] [--cache-dir DIR]
//!            [--workers N] [--queue N]
//! ```
//!
//! `estimate`, `simulate`, `sweep`, `pareto`, and `search` build one
//! `camj_serve` [`Request`] from their flags and run it through the
//! same executor the daemon uses ([`camj_serve::execute`]), in-process
//! against a fresh estimate cache — or, with `--connect ADDR`, send it
//! to a running `camj serve` daemon. They additionally accept
//! `--trace FILE` (Chrome trace-event JSON; the `CAMJ_TRACE`
//! environment variable sets a default path) and `--metrics text|json`
//! (an aggregated per-stage timing report, printed to stderr).
//!
//! Exit codes: 0 success, 1 validation/model failure (including any
//! captured per-point panic in sweep/pareto/search results), 2 usage
//! or I/O error, or a rejected request field. All output is
//! deterministic — CI diffs `camj estimate` against a committed
//! snapshot. Tracing never changes stdout: the recording drains to the
//! side channels above.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use camj_core::energy::EstimateReport;
use camj_core::functional::{FrameSimReport, McFrameSimReport, Spread};
use camj_explore::{EstimateCache, ParetoEntry, ParetoQuery, SweepFormat};
use camj_obs::ObsSession;
use camj_serve::protocol::{ConstraintsReq, FrameKind, Reject, Request, RequestKind};
use camj_serve::{Answer, Design, Outcome, ServeConfig};

const USAGE: &str = "\
camj — declarative energy estimation for in-sensor visual computing

USAGE:
    camj list
        List the built-in workloads available to `export`.
    camj export <workload> [--out FILE]
        Write a built-in workload's design description (JSON) to stdout
        or FILE.
    camj validate <file>...
        Parse, validate, and type-check one or more descriptions (an
        image stimulus file is not opened).
    camj estimate --design FILE [--fps N] [--json] [--stats]
        Estimate per-frame energy for a description (optionally
        overriding its frame rate). --stats reports the run's estimate
        cache hit/miss line.
    camj simulate --design FILE [--seed N] [--samples N] [--fps N] [--stimulus SPEC] [--json] [--stats]
        Noise-aware functional simulation of one frame: renders the
        stimulus (uniform:<level>, gradient:<low>,<high>, or
        image:<path> for a PGM/PPM file; default: the description's
        `stimulus` block, else gradient:0.1,0.9) at the input stage's
        resolution, injects each analog stage's noise sources with the
        seeded deterministic RNG (default seed 42), applies ADC
        quantization, executes the mapped digital DAG on the frame, and
        reports per-stage SNR, task-level metrics (MSE/RMSE/PSNR and
        centroid error at the DAG sink), plus digests pinning the
        analog output and the DAG sink bit-for-bit. Identical across
        runs and thread counts. --samples N (default 1, max 1024) runs
        a Monte-Carlo batch over seeds seed..seed+N and reports
        per-stage mean ± σ instead; its digests are the first seed's,
        the same a single-frame run at that seed prints.
    camj sweep --design FILE [--fps A,B,C] [--format json|csv]
        Sweep frame-rate targets (from --fps, or the description's
        `sweep.fps` list) through the incremental estimation engine.
        --format selects machine-readable output (--json is shorthand
        for --format json).
    camj pareto --design FILE [--fps A,B,C] [--objectives O,O,...]
                [--max-density X] [--max-latency-ms X] [--max-energy-pj X]
                [--format json|csv]
        Multi-objective Pareto exploration over the frame-rate grid.
        Objectives (minimised): total_energy, delay, power_density,
        snr, category:<LABEL>, stage:<name>, noise:<unit>,
        mc_snr:<samples> (Monte-Carlo mean output noise RMS),
        accuracy:<mse|rmse|centroid> (task-level error of the design's
        stimulus pushed through the full functional pipeline); defaults
        come from the description's `sweep.objectives` (falling back
        to total_energy,power_density). Constraint flags override the
        description's `sweep.constraints`; violating points are pruned
        mid-estimate, skipping their remaining energy kernels.
    camj search --design FILE [--fps A,B,C] [--objectives O,O,...]
                [--population N] [--generations N] [--budget N] [--seed N]
                [--max-density X] [--max-latency-ms X] [--max-energy-pj X]
                [--format json|csv]
        Adaptive frontier search: approximates the pareto frontier on
        grids too large to enumerate, spending gated evaluations only
        near the frontier (successive-halving warm-up + evolutionary
        crossover/mutation over the axis grid). Defaults come from the
        description's `sweep.search` block; a fixed --seed reproduces
        the run byte-identically across repeat runs and thread counts.
        Small grids fall back to exact cartesian evaluation.

    camj serve [--listen ADDR | --stdio] [--cache-dir DIR]
               [--workers N] [--queue N]
        Run the estimation daemon: newline-delimited JSON requests
        (validate/estimate/simulate/sweep/pareto/search/stats/
        shutdown) over TCP (default 127.0.0.1:0; the bound address is
        printed to stderr) or stdin/stdout with --stdio. All requests
        share one warm estimate cache; --cache-dir adds a persistent
        on-disk tier that survives restarts. --workers (default 4)
        sizes the execution pool, --queue (default 64) bounds the job
        queue (full queue = backpressure on readers). --trace and
        --metrics record the whole daemon run.

    sweep, pareto, and search accept --threads N to pin the worker
    count (equivalent to RAYON_NUM_THREADS=N; N must be positive).

    estimate, simulate, sweep, pareto, and search run the daemon's
    request executor in-process; a rejected request prints
    `error[<field path>]: <message>`. --connect ADDR sends the same
    request to a `camj serve` daemon instead: the design file is sent
    inline, the daemon's shared cache does the work, and the result
    JSON prints to stdout.

OBSERVABILITY (estimate, simulate, sweep, pareto, search, serve):
    --trace FILE
        Record the command as Chrome trace-event JSON, loadable in
        Perfetto or chrome://tracing. The CAMJ_TRACE environment
        variable supplies a default path when the flag is absent.
    --metrics text|json
        Print an aggregated report (per-stage wall time, cache and
        kernel counters) to stderr after the command, so stdout stays
        exactly the command's own output.
    --stats
        estimate/simulate only: print the run's estimate cache
        hit/miss line (sweep and pareto always report cache stats).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "list" => cmd_list(),
        "export" => cmd_export(rest),
        "validate" => cmd_validate(rest),
        "estimate" => cmd_request(RequestKind::Estimate, rest),
        "simulate" => cmd_request(RequestKind::Simulate, rest),
        "sweep" => cmd_request(RequestKind::Sweep, rest),
        "pareto" => cmd_request(RequestKind::Pareto, rest),
        "search" => cmd_request(RequestKind::Search, rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            to_stdout(|out| out.write_all(USAGE.as_bytes()).map(|()| ExitCode::SUCCESS))
        }
        other => {
            eprintln!("unknown subcommand '{other}'\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------

/// Flags that take a value.
const VALUE_FLAGS: [&str; 22] = [
    "--design",
    "--fps",
    "--out",
    "--format",
    "--seed",
    "--samples",
    "--stimulus",
    "--objectives",
    "--max-density",
    "--max-latency-ms",
    "--max-energy-pj",
    "--threads",
    "--population",
    "--generations",
    "--budget",
    "--trace",
    "--metrics",
    "--listen",
    "--cache-dir",
    "--workers",
    "--queue",
    "--connect",
];

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["--json", "--stats", "--stdio", "--fault-injection"];

/// Parsed `--flag value` / `--switch` arguments plus positionals.
#[derive(Default)]
struct Flags {
    /// Every flag given, in order, with its value (`None` for switches).
    given: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Flags {
    /// The value of `flag`; the last one wins when it repeats.
    fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// Parses `flag`'s value, if given; `what` names the expected form.
    fn parsed<T: std::str::FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|text| {
                text.parse()
                    .map_err(|_| format!("{flag} needs {what}, got '{text}'"))
            })
            .transpose()
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(&flag) = VALUE_FLAGS.iter().find(|f| **f == arg) {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.given.push((flag, Some(value.clone())));
        } else if let Some(&flag) = SWITCHES.iter().find(|f| **f == arg) {
            flags.given.push((flag, None));
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag '{arg}'"));
        } else {
            flags.positional.push(arg.clone());
        }
    }
    Ok(flags)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

// ---------------------------------------------------------------------
// Observability wiring
// ---------------------------------------------------------------------

/// How `--metrics` renders the aggregated report.
#[derive(Clone, Copy)]
enum MetricsFormat {
    Text,
    Json,
}

/// One command's recording session (if any) plus its export targets.
struct Obs {
    session: Option<ObsSession>,
    trace_path: Option<String>,
    metrics: Option<MetricsFormat>,
}

/// Starts a recording session when `--trace`, `CAMJ_TRACE`, or
/// `--metrics` asks for one. Otherwise the facade stays disabled and
/// every instrumentation site costs a single atomic load.
fn obs_begin(flags: &Flags) -> Result<Obs, String> {
    let trace_path = flags
        .value("--trace")
        .map(str::to_owned)
        .or_else(|| std::env::var("CAMJ_TRACE").ok().filter(|p| !p.is_empty()));
    let metrics = match flags.value("--metrics") {
        None => None,
        Some("text") => Some(MetricsFormat::Text),
        Some("json") => Some(MetricsFormat::Json),
        Some(other) => return Err(format!("--metrics needs 'text' or 'json', got '{other}'")),
    };
    let session = (trace_path.is_some() || metrics.is_some()).then(ObsSession::begin);
    Ok(Obs {
        session,
        trace_path,
        metrics,
    })
}

/// Finishes the session (if one ran): writes the Chrome trace file and
/// prints the metrics report to stderr, leaving stdout exactly what the
/// command printed. Returns `code` unless an export failed.
fn obs_finish(obs: Obs, code: ExitCode) -> ExitCode {
    let Some(session) = obs.session else {
        return code;
    };
    let recording = session.finish();
    if let Some(path) = &obs.trace_path {
        if let Err(e) = fs::write(path, recording.chrome_trace_json()) {
            eprintln!("error: could not write trace {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("trace: wrote {path} ({} events)", recording.event_count());
    }
    match obs.metrics {
        None => {}
        Some(MetricsFormat::Text) => eprint!("{}", recording.metrics().to_text()),
        Some(MetricsFormat::Json) => eprintln!("{}", recording.metrics().to_json()),
    }
    code
}

// ---------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------

fn cmd_list() -> ExitCode {
    to_stdout(|out| {
        writeln!(
            out,
            "built-in workloads (usable with `camj export <name>`):"
        )?;
        for b in camj_workloads::describe::builtins() {
            writeln!(out, "  {:<12} {}", b.name, b.summary)?;
        }
        Ok(ExitCode::SUCCESS)
    })
}

fn cmd_export(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let [name] = flags.positional.as_slice() else {
        return usage_error("export takes exactly one workload name");
    };
    let desc = match camj_workloads::describe::export(name) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = match desc.to_json_pretty() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(path) = flags.value("--out") else {
        return to_stdout(|out| out.write_all(json.as_bytes()).map(|()| ExitCode::SUCCESS));
    };
    if let Err(e) = fs::write(path, &json) {
        eprintln!("error: could not write {path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    if flags.positional.is_empty() {
        return usage_error("validate needs at least one description file");
    }
    let request = Request::new(RequestKind::Validate);
    let cache = EstimateCache::shared();
    to_stdout(|out| {
        let mut failures = 0usize;
        for path in &flags.positional {
            let validated = read_design(path).and_then(|text| {
                camj_serve::execute(&request, design_file(path, &text), &cache)
                    .map_err(|reject| reject.message)
            });
            match validated {
                Ok(outcome) => writeln!(out, "{path}: OK ({}, fps {})", outcome.name, outcome.fps)?,
                Err(message) => {
                    failures += 1;
                    writeln!(out, "{path}: FAILED")?;
                    for line in message.lines() {
                        writeln!(out, "    {line}")?;
                    }
                }
            }
        }
        if failures == 0 {
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!(
            "{failures} of {} description(s) failed",
            flags.positional.len()
        );
        Ok(ExitCode::FAILURE)
    })
}

/// `estimate`, `simulate`, `sweep`, `pareto`, and `search`: one
/// request, run locally or against a daemon, inside a `cli.<kind>`
/// span.
fn cmd_request(kind: RequestKind, args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let span = match kind {
        RequestKind::Estimate => "cli.estimate",
        RequestKind::Simulate => "cli.simulate",
        RequestKind::Sweep => "cli.sweep",
        RequestKind::Pareto => "cli.pareto",
        _ => "cli.search",
    };
    let code = {
        let _span = obs_core::span(span);
        run_request(&flags, kind)
    };
    obs_finish(obs, code)
}

/// Whether a request subcommand reads `flag`; it rejects any other
/// flag as a usage error.
fn reads_flag(kind: RequestKind, flag: &str) -> bool {
    const EXPLORE: [&str; 6] = [
        "--format",
        "--threads",
        "--objectives",
        "--max-density",
        "--max-latency-ms",
        "--max-energy-pj",
    ];
    let own: &[&str] = match kind {
        RequestKind::Estimate => &["--stats"],
        RequestKind::Simulate => &["--stats", "--seed", "--samples", "--stimulus"],
        RequestKind::Sweep => &["--format", "--threads"],
        RequestKind::Pareto => &EXPLORE,
        _ => &["--seed", "--population", "--generations", "--budget"],
    };
    [
        "--design",
        "--fps",
        "--json",
        "--connect",
        "--trace",
        "--metrics",
    ]
    .contains(&flag)
        || own.contains(&flag)
        || (kind == RequestKind::Search && EXPLORE.contains(&flag))
}

fn run_request(flags: &Flags, kind: RequestKind) -> ExitCode {
    let name = kind.as_str();
    if let Some((flag, _)) = flags.given.iter().find(|(f, _)| !reads_flag(kind, f)) {
        return usage_error(&format!("{name} takes no {flag}"));
    }
    if let [stray, ..] = flags.positional.as_slice() {
        return usage_error(&format!("{name} takes no positional argument '{stray}'"));
    }
    let Some(path) = flags.value("--design") else {
        return usage_error(&format!("{name} needs --design FILE"));
    };
    let format = match (flags.value("--format"), flags.switch("--json")) {
        (Some(text), _) => match text.parse::<SweepFormat>() {
            Ok(f) => f,
            Err(e) => return usage_error(&e),
        },
        (None, true) => SweepFormat::Json,
        (None, false) => SweepFormat::Human,
    };
    let request = match build_request(flags, kind) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    if let Some(addr) = flags.value("--connect") {
        let local_only = [
            (
                flags.switch("--stats"),
                "--stats is local-only; the daemon's `stats` request reports cache state",
            ),
            (
                flags.value("--threads").is_some(),
                "--threads is local-only; worker count is the daemon's --workers",
            ),
            (
                format == SweepFormat::Csv,
                "--connect prints the daemon's JSON result; --format csv is local-only",
            ),
        ];
        if let Some((_, message)) = local_only.iter().find(|(given, _)| *given) {
            return usage_error(message);
        }
        return run_connected(addr, request, path);
    }
    if let Err(e) = apply_threads(flags) {
        return usage_error(&e);
    }
    let text = match read_design(path) {
        Ok(text) => text,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let cache = EstimateCache::shared();
    match camj_serve::execute(&request, design_file(path, &text), &cache) {
        Ok(outcome) => render(&outcome, format, &cache, flags.switch("--stats")),
        Err(reject) => rejected(&reject),
    }
}

/// Builds the protocol request a subcommand's flags describe — the one
/// flags-to-request mapping, shared by local runs and `--connect`. The
/// design is left out: a local run hands the executor the file's text,
/// `--connect` inlines it.
fn build_request(flags: &Flags, kind: RequestKind) -> Result<Request, String> {
    let mut request = Request::new(kind);
    request.id = 1;
    if let Some(list) = flags.value("--fps") {
        request.fps = Some(
            list.split(',')
                .map(parse_fps_single)
                .collect::<Result<Vec<f64>, String>>()?,
        );
    }
    request.seed = flags.parsed("--seed", "an unsigned integer")?;
    request.samples = flags.parsed("--samples", "an integer in 1..=1024")?;
    request.stimulus = flags.value("--stimulus").map(str::to_owned);
    request.objectives = flags
        .value("--objectives")
        .map(|list| list.split(',').map(|s| s.trim().to_owned()).collect());
    let budget = |flag: &str| -> Result<Option<f64>, String> {
        match flags.parsed::<f64>(flag, "a positive number")? {
            Some(v) if !(v.is_finite() && v > 0.0) => {
                Err(format!("{flag} needs a positive number, got '{v}'"))
            }
            v => Ok(v),
        }
    };
    let constraints = ConstraintsReq {
        max_power_density_mw_per_mm2: budget("--max-density")?,
        max_digital_latency_ms: budget("--max-latency-ms")?,
        max_total_energy_pj: budget("--max-energy-pj")?,
    };
    request.constraints = constraints.any().then_some(constraints);
    request.population = flags.parsed("--population", "a positive integer")?;
    request.generations = flags.parsed("--generations", "a positive integer")?;
    request.budget = flags.parsed("--budget", "a positive integer")?;
    Ok(request)
}

fn read_design(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))
}

/// A description file as the executor's design source: a relative
/// image stimulus resolves against the file's directory.
fn design_file<'a>(path: &'a str, text: &'a str) -> Design<'a> {
    Design::File {
        text,
        dir: Path::new(path).parent(),
    }
}

/// A rejected request: `error[path]: message` on stderr, exit 1 for a
/// design failure and 2 for a bad request field (a flag's value).
fn rejected(reject: &Reject) -> ExitCode {
    eprintln!("error[{}]: {}", reject.path, reject.message);
    if reject.path.starts_with("request.design") {
        ExitCode::FAILURE
    } else {
        ExitCode::from(2)
    }
}

// ---------------------------------------------------------------------
// Rendering a local outcome
// ---------------------------------------------------------------------

/// Runs `write` against stdout — the one path every command prints
/// through. A reader that closed the pipe early (`camj … | head`)
/// ends the command quietly with exit 0; any other failure to print
/// is exit 1.
fn to_stdout(write: impl FnOnce(&mut dyn Write) -> io::Result<ExitCode>) -> ExitCode {
    let mut out = io::stdout().lock();
    match write(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: could not print the result: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints an outcome as text, JSON, or CSV. Machine-readable sweep,
/// pareto, and search output embeds the run's cache stats; `--stats`
/// adds the cache line to estimate/simulate (on stderr under `--json`,
/// so stdout stays pure JSON).
fn render(outcome: &Outcome, format: SweepFormat, cache: &EstimateCache, stats: bool) -> ExitCode {
    to_stdout(|out| {
        let json = format == SweepFormat::Json;
        match &outcome.answer {
            Answer::Validated => {}
            Answer::Estimate(report) if json => print_json(out, report)?,
            Answer::Estimate(report) => print_report(out, outcome, report)?,
            Answer::Frame(report) if json => print_json(out, report)?,
            Answer::Frame(report) => print_frame(out, outcome, report)?,
            Answer::MonteCarlo(report) if json => print_json(out, report)?,
            Answer::MonteCarlo(report) => print_monte_carlo(out, outcome, report)?,
            Answer::Sweep(results) => {
                match format {
                    SweepFormat::Json => {
                        writeln!(out, "{}", results.to_json(Some(&cache.stats())))?
                    }
                    SweepFormat::Csv => write!(out, "{}", results.to_csv())?,
                    SweepFormat::Human => print_sweep(out, outcome, results, cache)?,
                }
                let panicked = results
                    .outcomes()
                    .iter()
                    .filter(|o| matches!(&o.result, Err(e) if e.is_panic()))
                    .count();
                return Ok(finish_with_panic_check(panicked, "sweep"));
            }
            Answer::Pareto(results, query) => {
                match format {
                    SweepFormat::Json => {
                        writeln!(out, "{}", results.to_json(Some(&cache.stats())))?
                    }
                    SweepFormat::Csv => write!(out, "{}", results.to_csv())?,
                    SweepFormat::Human => print_pareto(out, outcome, results, query, cache)?,
                }
                return Ok(finish_with_panic_check(
                    count_panics(results.errors()),
                    "pareto",
                ));
            }
            Answer::Search(results, query) => {
                match format {
                    SweepFormat::Json => {
                        writeln!(out, "{}", results.to_json(Some(&cache.stats())))?
                    }
                    SweepFormat::Csv => write!(out, "{}", results.to_csv())?,
                    SweepFormat::Human => print_search(out, outcome, results, query, cache)?,
                }
                return Ok(finish_with_panic_check(
                    count_panics(results.pareto().errors()),
                    "search",
                ));
            }
        }
        if stats {
            if json {
                eprintln!("cache: {}", cache.stats());
            } else {
                writeln!(out, "cache: {}", cache.stats())?;
            }
        }
        Ok(ExitCode::SUCCESS)
    })
}

/// Pretty-prints a report as JSON.
fn print_json<T: serde::Serialize>(out: &mut dyn Write, report: &T) -> io::Result<()> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| io::Error::other(format!("could not serialize the report: {e}")))?;
    writeln!(out, "{json}")
}

fn print_report(out: &mut dyn Write, outcome: &Outcome, report: &EstimateReport) -> io::Result<()> {
    writeln!(out, "== {} @ {} FPS ==", outcome.name, outcome.fps)?;
    writeln!(
        out,
        "total: {:.4} pJ/frame  ({:.4} pJ/pixel over {} input pixels)",
        report.total().picojoules(),
        report.energy_per_pixel().picojoules(),
        report.input_pixels
    )?;
    writeln!(
        out,
        "frame time: {:.4} ms = {} analog stages x {:.4} ms + {:.4} ms digital",
        report.delay.frame_time.millis(),
        report.delay.analog_stage_count,
        report.delay.analog_unit_time.millis(),
        report.delay.digital_latency.millis()
    )?;
    writeln!(out, "breakdown by category:")?;
    for (category, energy) in report.breakdown.by_category() {
        if energy.joules() > 0.0 {
            let (label, pj) = (category.label(), energy.picojoules());
            writeln!(out, "  {label:<7} {pj:>14.4} pJ")?;
        }
    }
    writeln!(out, "breakdown by unit:")?;
    for item in report.breakdown.items() {
        let stage = item.stage.as_deref().unwrap_or("-");
        writeln!(
            out,
            "  {:<24} {:<7} stage={:<16} {:>14.4} pJ",
            item.unit,
            item.category.label(),
            stage,
            item.energy.picojoules()
        )?;
    }
    for layer in &report.layers {
        writeln!(
            out,
            "layer {:?}: {:.4} mW over {:.4} mm2{}",
            layer.layer,
            layer.power.milliwatts(),
            layer.area_mm2,
            layer
                .density_mw_per_mm2
                .map_or(String::new(), |d| format!(" -> {d:.4} mW/mm2")),
        )?;
    }
    Ok(())
}

fn print_frame(out: &mut dyn Write, outcome: &Outcome, report: &FrameSimReport) -> io::Result<()> {
    writeln!(
        out,
        "== simulate: {} @ {} FPS (seed {}, stimulus {}) ==",
        outcome.name, outcome.fps, report.seed, report.stimulus
    )?;
    writeln!(
        out,
        "frame: {}x{}x{} pixels",
        report.width, report.height, report.channels
    )?;
    let db = |db: Option<f64>| db.map_or_else(|| "-".to_owned(), |db| format!("{db:.2}"));
    if report.stages.is_empty() {
        writeln!(out, "analog chain: no stages (nothing to simulate)")?;
    } else {
        writeln!(
            out,
            "{:<24} {:>16} {:>12}",
            "stage", "noise rms (FS)", "SNR dB"
        )?;
        for stage in &report.stages {
            let (unit, rms, snr) = (&stage.unit, stage.noise_rms, db(stage.snr_db));
            writeln!(out, "{unit:<24} {rms:>16.6} {snr:>12}")?;
        }
    }
    writeln!(
        out,
        "output: mean {:.6}, range [{:.6}, {:.6}], noise rms {:.6}{}",
        report.output.mean,
        report.output.min,
        report.output.max,
        report.output.noise_rms,
        report
            .output
            .snr_db
            .map_or_else(String::new, |db| format!(", SNR {db:.2} dB")),
    )?;
    if let Some(dag) = &report.dag {
        writeln!(
            out,
            "digital DAG (sink {}): {:<12} {:>16} {:>12}",
            dag.sink, "stage", "error rms (FS)", "SNR dB"
        )?;
        for stage in &dag.stages {
            let (name, rms, snr) = (&stage.stage, stage.error_rms, db(stage.snr_db));
            writeln!(out, "  {name:<36} {rms:>16.6} {snr:>12}")?;
        }
        writeln!(
            out,
            "task: mse {:.6e}, rmse {:.6}, psnr {}, centroid err {:.6}",
            dag.metrics.mse,
            dag.metrics.rmse,
            dag.metrics
                .psnr_db
                .map_or_else(|| "-".to_owned(), |db| format!("{db:.2} dB")),
            dag.metrics.centroid_err,
        )?;
        writeln!(out, "dag digest: {}", dag.digest)?;
    }
    writeln!(out, "digest: {}", report.digest)
}

/// A Monte-Carlo batch: per-stage mean ± σ over seeds seed..seed+N;
/// the digests are the first seed's.
fn print_monte_carlo(
    out: &mut dyn Write,
    outcome: &Outcome,
    mc: &McFrameSimReport,
) -> io::Result<()> {
    writeln!(
        out,
        "== simulate: {} @ {} FPS ({} seeds {}.., stimulus {}) ==",
        outcome.name,
        outcome.fps,
        mc.seeds.len(),
        mc.seeds[0],
        mc.stimulus
    )?;
    writeln!(
        out,
        "frame: {}x{}x{} pixels",
        mc.width, mc.height, mc.channels
    )?;
    let spread_db = |db: Option<Spread>, unit: &str| {
        db.map_or_else(
            || "-".to_owned(),
            |db| format!("{:.2} ±{:.2}{unit}", db.mean, db.std),
        )
    };
    if mc.stages.is_empty() {
        writeln!(out, "analog chain: no stages (nothing to simulate)")?;
    } else {
        writeln!(
            out,
            "{:<24} {:>22} {:>18}",
            "stage", "noise rms (FS)", "SNR dB"
        )?;
        for stage in &mc.stages {
            writeln!(
                out,
                "{:<24} {:>14.6} ±{:.1e} {:>18}",
                stage.unit,
                stage.noise_rms.mean,
                stage.noise_rms.std,
                spread_db(stage.snr_db, ""),
            )?;
        }
    }
    writeln!(
        out,
        "output: mean {:.6}, noise rms {:.6} ±{:.1e}{}",
        mc.output.mean.mean,
        mc.output.noise_rms.mean,
        mc.output.noise_rms.std,
        mc.output.snr_db.map_or_else(String::new, |db| format!(
            ", SNR {}",
            spread_db(Some(db), " dB")
        )),
    )?;
    if let Some(dag) = &mc.dag {
        writeln!(
            out,
            "digital DAG (sink {}): {:<12} {:>20} {:>18}",
            dag.sink, "stage", "error rms (FS)", "SNR dB"
        )?;
        for stage in &dag.stages {
            writeln!(
                out,
                "  {:<36} {:>12.6} ±{:.1e} {:>18}",
                stage.stage,
                stage.error_rms.mean,
                stage.error_rms.std,
                spread_db(stage.snr_db, ""),
            )?;
        }
        let m = &dag.metrics;
        writeln!(
            out,
            "task: mse {:.6e} ±{:.1e}, rmse {:.6} ±{:.1e}, psnr {}, centroid err {:.6} ±{:.1e}",
            m.mse.mean,
            m.mse.std,
            m.rmse.mean,
            m.rmse.std,
            spread_db(m.psnr_db, " dB"),
            m.centroid_err.mean,
            m.centroid_err.std,
        )?;
        writeln!(out, "dag digest: {}", dag.digests[0])?;
    }
    writeln!(out, "digest: {}", mc.digests[0])
}

fn print_sweep(
    out: &mut dyn Write,
    outcome: &Outcome,
    results: &camj_explore::SweepResults<EstimateReport>,
    cache: &EstimateCache,
) -> io::Result<()> {
    writeln!(
        out,
        "== sweep: {} ({} points) ==",
        outcome.name,
        results.len()
    )?;
    writeln!(
        out,
        "{:>10}  {:>16}  {:>14}",
        "fps", "total pJ/frame", "pJ/pixel"
    )?;
    for o in results.outcomes() {
        let fps = o.point.fps("fps");
        match &o.result {
            Ok(r) => writeln!(
                out,
                "{:>10}  {:>16.3}  {:>14.4}",
                fps,
                r.total().picojoules(),
                r.energy_per_pixel().picojoules()
            )?,
            Err(e) => writeln!(out, "{fps:>10}  infeasible: {}", e.message())?,
        }
    }
    if let Some((point, best)) = results.min_energy() {
        writeln!(
            out,
            "minimum: {:.3} pJ/frame at {point}",
            best.total().picojoules()
        )?;
    }
    writeln!(out, "cache: {}", cache.stats())
}

/// The constraint lines and the frontier table pareto and search share.
fn print_frontier(
    out: &mut dyn Write,
    query: &ParetoQuery,
    frontier: &[ParetoEntry],
) -> io::Result<()> {
    for constraint in query.constraints().constraints() {
        writeln!(out, "constraint: {constraint}")?;
    }
    write!(out, "{:>10}", "fps")?;
    for objective in query.objectives() {
        write!(out, "  {:>24}", objective.key())?;
    }
    writeln!(out)?;
    for entry in frontier {
        write!(out, "{:>10}", entry.point.fps("fps"))?;
        for value in entry.metrics.values() {
            write!(out, "  {value:>24.4}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn print_pareto(
    out: &mut dyn Write,
    outcome: &Outcome,
    results: &camj_explore::ParetoResults,
    query: &ParetoQuery,
    cache: &EstimateCache,
) -> io::Result<()> {
    writeln!(
        out,
        "== pareto: {} ({} points, {} objectives) ==",
        outcome.name,
        results.total_points(),
        query.objectives().len()
    )?;
    print_frontier(out, query, results.frontier())?;
    writeln!(
        out,
        "frontier: {} point(s); dominated: {}; pruned: {}; errors: {}",
        results.frontier().len(),
        results.dominated_count(),
        results.pruned().len(),
        results.errors().len()
    )?;
    for pruned in results.pruned() {
        writeln!(
            out,
            "  pruned [{}]: violates {} after {} kernel(s)",
            pruned.point, pruned.constraint, pruned.kernels_done
        )?;
    }
    for (point, error) in results.errors() {
        writeln!(out, "  error [{point}]: {}", error.message())?;
    }
    writeln!(out, "prune: {}", results.stats())?;
    writeln!(out, "cache: {}", cache.stats())
}

fn print_search(
    out: &mut dyn Write,
    outcome: &Outcome,
    results: &camj_explore::SearchResults,
    query: &ParetoQuery,
    cache: &EstimateCache,
) -> io::Result<()> {
    writeln!(
        out,
        "== search: {} ({} grid points, {} objectives) ==",
        outcome.name,
        results.grid_points(),
        query.objectives().len()
    )?;
    print_frontier(out, query, results.frontier())?;
    let pareto = results.pareto();
    writeln!(
        out,
        "frontier: {} point(s); dominated: {}; pruned: {}; errors: {}",
        results.frontier().len(),
        pareto.dominated_count(),
        pareto.pruned().len(),
        pareto.errors().len()
    )?;
    let termination = if results.exhaustive() {
        "exact cartesian (grid below the exhaustive threshold)".to_owned()
    } else if results.converged() {
        format!(
            "converged after {} generation(s)",
            results.generations_run()
        )
    } else {
        format!(
            "stopped at the {} generation/budget cap",
            results.generations_run()
        )
    };
    writeln!(
        out,
        "search: {} of {} grid points evaluated ({:.1}%); {termination}",
        results.evaluations(),
        results.grid_points(),
        results.evaluation_fraction() * 100.0
    )?;
    writeln!(out, "prune: {}", pareto.stats())?;
    writeln!(out, "cache: {}", cache.stats())
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    let obs = match obs_begin(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let code = {
        let _span = obs_core::span("cli.serve");
        run_serve(&flags)
    };
    obs_finish(obs, code)
}

fn run_serve(flags: &Flags) -> ExitCode {
    if let [stray, ..] = flags.positional.as_slice() {
        return usage_error(&format!("serve takes no positional argument '{stray}'"));
    }
    let stdio = flags.switch("--stdio");
    if stdio && flags.value("--listen").is_some() {
        return usage_error("--stdio and --listen are mutually exclusive");
    }
    let positive = |flag: &str, default: usize| -> Result<usize, String> {
        match flags.parsed::<usize>(flag, "a positive integer")? {
            None => Ok(default),
            Some(n) if n >= 1 => Ok(n),
            Some(n) => Err(format!("{flag} needs a positive integer, got '{n}'")),
        }
    };
    let (workers, queue_capacity) = match (positive("--workers", 4), positive("--queue", 64)) {
        (Ok(w), Ok(q)) => (w, q),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let config = ServeConfig {
        cache_dir: flags.value("--cache-dir").map(std::path::PathBuf::from),
        workers,
        queue_capacity,
        fault_injection: flags.switch("--fault-injection"),
    };
    let served = if stdio {
        camj_serve::serve_stdio(&config)
    } else {
        let addr = flags.value("--listen").unwrap_or("127.0.0.1:0");
        match std::net::TcpListener::bind(addr) {
            Ok(listener) => camj_serve::serve_tcp(listener, &config),
            Err(e) => {
                eprintln!("error: could not bind {addr}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// --connect: run a subcommand against a `camj serve` daemon
// ---------------------------------------------------------------------

/// Sends the request, with the design file inlined, to the daemon and
/// renders its response: result bodies pretty-printed to stdout,
/// errors path-qualified to stderr.
fn run_connected(addr: &str, mut request: Request, path: &str) -> ExitCode {
    let design = read_design(path).and_then(|text| {
        let design =
            serde_json::from_str(&text).map_err(|e| format!("could not parse {path}: {e}"))?;
        anchor_image_path(design, path)
    });
    match design {
        Ok(design) => request.design = Some(design),
        Err(message) => {
            eprintln!("error[request.design]: {message}");
            return ExitCode::FAILURE;
        }
    }
    let frames = match camj_serve::roundtrip(addr, &request) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: could not reach the daemon at {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    to_stdout(|out| {
        let mut failed = false;
        for frame in &frames {
            match frame.frame {
                FrameKind::Error => {
                    failed = true;
                    eprintln!(
                        "error[{}]: {}",
                        frame.path.as_deref().unwrap_or("request"),
                        frame.message.as_deref().unwrap_or("unspecified failure"),
                    );
                }
                FrameKind::Result => {
                    if let Some(body) = &frame.body {
                        print_json(out, body)?;
                    }
                }
                FrameKind::Point | FrameKind::Done => {}
            }
        }
        Ok(if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        })
    })
}

/// The inlined design with a relative `stimulus.image.path` made
/// absolute against the description file's directory — the rule a
/// local run applies through [`Design::File`] — so a daemon in any
/// working directory reads the image the local run would.
fn anchor_image_path(
    mut design: serde_json::Value,
    path: &str,
) -> Result<serde_json::Value, String> {
    use serde_json::Value;
    let Value::Object(top) = &mut design else {
        return Ok(design);
    };
    let Some(Value::Object(mut stimulus)) = top.get("stimulus").cloned() else {
        return Ok(design);
    };
    let Some(Value::Object(mut image)) = stimulus.get("image").cloned() else {
        return Ok(design);
    };
    let Some(file) = image
        .get("path")
        .and_then(Value::as_str)
        .filter(|f| Path::new(f).is_relative())
    else {
        return Ok(design);
    };
    let dir = match Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let dir = fs::canonicalize(dir)
        .map_err(|e| format!("could not resolve the directory of {path}: {e}"))?;
    let anchored = dir.join(file).to_string_lossy().into_owned();
    image.insert("path", Value::String(anchored));
    stimulus.insert("image", Value::Object(image));
    top.insert("stimulus", Value::Object(stimulus));
    Ok(design)
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

fn count_panics(errors: &[(camj_explore::DesignPoint, camj_explore::PointError)]) -> usize {
    errors.iter().filter(|(_, e)| e.is_panic()).count()
}

/// The shared epilogue of sweep/pareto/search: results were printed,
/// but any *captured panic* among them is a bug, not an infeasible
/// point — exit 1 with a one-line stderr summary so scripted callers
/// notice without parsing the JSON.
fn finish_with_panic_check(panicked: usize, command: &str) -> ExitCode {
    if panicked == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "error: {panicked} point(s) panicked during {command}; their result rows carry the panic message"
    );
    ExitCode::FAILURE
}

/// Applies `--threads N`: pins the worker count before any parallel
/// evaluation starts (same effect as `RAYON_NUM_THREADS=N`, but
/// programmatic). Zero is rejected rather than passed through, because
/// rayon reads zero as "derive from the environment" and the flag
/// would be silently ignored.
fn apply_threads(flags: &Flags) -> Result<(), String> {
    let Some(n) = flags.parsed::<usize>("--threads", "a positive integer")? else {
        return Ok(());
    };
    if n == 0 {
        return Err(
            "--threads must be at least 1; omit the flag to derive the worker count \
             from the environment"
                .to_owned(),
        );
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| format!("could not pin the worker count: {e}"))
}

fn parse_fps_single(s: &str) -> Result<f64, String> {
    let fps = s
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("invalid FPS value '{s}'"))?;
    if !(fps.is_finite() && fps > 0.0) {
        return Err(format!("FPS must be positive and finite, got '{s}'"));
    }
    Ok(fps)
}
