//! Metric definitions, assembly from the passes, and output: a table,
//! then one JSON object as the last line of stdout.

use std::fmt::Write as _;
use std::path::Path;

use crate::pass::PassOut;
use crate::stats::{median, percentile, tail};
use crate::trace::{self, Span};

/// How an end-to-end metric is computed from the passes' per-op
/// observations.
enum Agg {
    Median(&'static str),
    Mean(&'static str),
    /// The highest percentile with at least ten samples beyond it.
    Tail(&'static str),
    /// A fixed percentile.
    Percentile(&'static str, f64),
    /// Sum of the first over sum of the second.
    Ratio(&'static str, &'static str),
    /// Computed by the run itself (set-up, peak RSS, failures).
    Run,
}

/// End-to-end metrics, as listed in `BENCHMARK.json`: name, unit, and
/// how they aggregate.
///
/// Each is taken from the first workload (the run's own first) whose
/// passes observed it, pooling all its passes: the timed loop, or both
/// halves of a fixed pass. Timings are scaled to the nominal host (see
/// `calib`); the unscaled value is printed as a note.
const END_TO_END: [(&str, &str, Agg); 13] = [
    ("setup_s", "s", Agg::Run),
    (
        "explore_points_per_s",
        "points/s",
        Agg::Median("explore_rate"),
    ),
    (
        "estimate_per_s",
        "estimates/s",
        Agg::Median("estimate_rate"),
    ),
    ("search_recall", "fraction", Agg::Mean("search_recall")),
    ("fig7_mape_pct", "%", Agg::Median("fig7_mape")),
    ("frame_mpix_per_s", "Mpx/s", Agg::Median("frame_rate")),
    ("serve_p50_ms", "ms", Agg::Median("serve_latency_ms")),
    (
        "serve_tail_ms",
        "ms",
        Agg::Percentile("serve_latency_ms", 99.0),
    ),
    (
        "serve_req_per_s",
        "req/s",
        Agg::Ratio("serve_done", "serve_window_s"),
    ),
    ("cli_cpu_p50_ms", "ms", Agg::Median("cli_cpu_ms")),
    ("cli_cpu_tail_ms", "ms", Agg::Tail("cli_cpu_ms")),
    ("peak_rss_mb", "MB", Agg::Run),
    ("ok_ratio", "fraction", Agg::Run),
];

/// The samples named `name` of the first workload with any, pooled over
/// that workload's passes.
fn samples(
    passes: &[(&'static str, PassOut)],
    name: &str,
    field: fn(&PassOut) -> &[(&'static str, f64)],
) -> Option<(&'static str, Vec<f64>)> {
    let pick = |p: &PassOut| -> Vec<f64> {
        field(p)
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    };
    let workload = passes.iter().find(|(_, p)| !pick(p).is_empty())?.0;
    let values = passes
        .iter()
        .filter(|(w, _)| *w == workload)
        .flat_map(|(_, p)| pick(p))
        .collect();
    Some((workload, values))
}

fn observations(p: &PassOut) -> &[(&'static str, f64)] {
    &p.obs
}

fn raw_observations(p: &PassOut) -> &[(&'static str, f64)] {
    &p.raw
}

fn layer_samples(p: &PassOut) -> &[(&'static str, f64)] {
    &p.layer
}

/// An end-to-end value and where it came from.
struct Value {
    value: f64,
    workload: &'static str,
    /// For tails: the percentile and the sample count.
    tail: Option<(f64, usize)>,
}

/// The aggregate `agg` over the samples `field` holds.
fn aggregate(
    passes: &[(&'static str, PassOut)],
    agg: &Agg,
    field: fn(&PassOut) -> &[(&'static str, f64)],
) -> Option<Value> {
    let of = |name| samples(passes, name, field);
    let plain = |value, workload| Value {
        value,
        workload,
        tail: None,
    };
    match *agg {
        Agg::Median(obs) => of(obs).and_then(|(w, v)| Some(plain(median(&v)?, w))),
        Agg::Mean(obs) => of(obs)
            .filter(|(_, v)| !v.is_empty())
            .map(|(w, v)| plain(v.iter().sum::<f64>() / v.len() as f64, w)),
        Agg::Tail(obs) => of(obs).and_then(|(workload, v)| {
            let (pct, value) = tail(&v)?;
            Some(Value {
                value,
                workload,
                tail: Some((pct, v.len())),
            })
        }),
        Agg::Percentile(obs, pct) => of(obs).and_then(|(workload, v)| {
            Some(Value {
                value: percentile(&v, pct)?,
                workload,
                tail: Some((pct, v.len())),
            })
        }),
        // The denominator is never scaled, so it comes from `obs`.
        Agg::Ratio(num, den) => of(num)
            .zip(samples(passes, den, observations))
            .map(|((w, n), (_, d))| plain(n.iter().sum::<f64>() / d.iter().sum::<f64>(), w)),
        Agg::Run => None,
    }
}

/// Per-layer metrics taken from spans: (metric, span name, unit,
/// nanoseconds per unit, divisor). The value is the median span
/// duration over all calls, divided by the divisor.
const FROM_SPANS: [(&str, &str, &str, f64, f64); 21] = [
    ("desc.parse_us", "desc.parse", "us", 1e3, 1.0),
    ("desc.build_us", "desc.build", "us", 1e3, 1.0),
    ("sim.elastic_ms", "sim.elastic", "ms", 1e6, 1.0),
    (
        "energy.stall_check_ms",
        "energy.stall_check",
        "ms",
        1e6,
        1.0,
    ),
    ("energy.estimate_us", "energy.estimate", "us", 1e3, 1.0),
    ("frame.single_ms", "frame.single", "ms", 1e6, 1.0),
    ("frame.mc_per_seed_ms", "frame.mc", "ms", 1e6, 16.0),
    (
        "frame.task_metrics_ms",
        "frame.task_metrics",
        "ms",
        1e6,
        1.0,
    ),
    ("dag.box_stencil_ms", "dag.box_stencil", "ms", 1e6, 1.0),
    ("dag.resample_ms", "dag.resample", "ms", 1e6, 1.0),
    ("image.decode_ms", "image.decode", "ms", 1e6, 1.0),
    ("explore.pareto_ms", "explore.pareto", "ms", 1e6, 1.0),
    ("explore.search_ms", "explore.search", "ms", 1e6, 1.0),
    ("explore.sweep_ms", "explore.sweep", "ms", 1e6, 1.0),
    (
        "explore.build_point_us",
        "explore.build_point",
        "us",
        1e3,
        1.0,
    ),
    ("serve.parse_us", "serve.parse", "us", 1e3, 1.0),
    (
        "serve.respond_cold_ms",
        "serve.respond_cold",
        "ms",
        1e6,
        1.0,
    ),
    (
        "serve.respond_warm_us",
        "serve.respond_warm",
        "us",
        1e3,
        1.0,
    ),
    ("serve.stamp_us", "serve.stamp", "us", 1e3, 1.0),
    ("serve.rtt_stats_us", "serve.rtt_stats", "us", 1e3, 1.0),
    ("cli.startup_ms", "cli.startup", "ms", 1e6, 1.0),
];

/// Per-layer metrics the passes count: the median of their samples,
/// taken from the first pass (the run's own workload first) that has
/// any.
const FROM_COUNTS: [(&str, &str); 11] = [
    ("sim.cycles", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("energy.kernel_runs", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.entries", "count"),
    ("cache.bytes", "bytes"),
    ("frame.pixels", "count"),
    ("explore.evaluations", "count"),
    ("explore.pruned", "count"),
    ("explore.parallel_over_serial", "ratio"),
    ("serve.dedup_hit_ratio", "fraction"),
];

/// Layers whose share of traced time is reported, by span-name key.
const SHARES: [(&str, &str); 10] = [
    ("self_share.desc", "desc"),
    ("self_share.sim", "sim"),
    ("self_share.energy", "energy"),
    ("self_share.frame", "frame"),
    ("self_share.dag", "dag"),
    ("self_share.image", "image"),
    ("self_share.explore", "explore"),
    ("self_share.workloads", "workloads"),
    ("self_share.serve", "serve"),
    ("self_share.cli", "cli"),
];

pub struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    end_to_end: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    pub fn new(
        workload: &'static str,
        passes: &[(&'static str, PassOut)],
        setup_times: &[f64],
        peak_rss_mb: Option<f64>,
        shutdown_error: Option<String>,
    ) -> Self {
        let attempted: u64 = passes.iter().map(|(_, p)| p.attempted).sum();
        let failed: u64 = passes.iter().map(|(_, p)| p.failed).sum();
        // `ok_ratio` counts the ops whose number does not move with
        // throughput: every op of the fixed passes, the timed pass's
        // opening checks, and the known-defect probes. Over all
        // attempted ops, a slowdown of the timed loop would move it with
        // no op failing.
        let fixed_ops: u64 =
            passes[0].1.opening_ops + passes[1..].iter().map(|(_, p)| p.attempted).sum::<u64>();
        let probes: u64 = passes.iter().map(|(_, p)| p.probes).sum();
        let not_ok = failed + passes.iter().map(|(_, p)| p.probes_failed).sum::<u64>();
        let ok_ratio = 1.0 - not_ok as f64 / (fixed_ops + probes).max(1) as f64;
        let mut problems: Vec<String> = passes
            .iter()
            .flat_map(|(name, p)| p.problems.iter().map(move |m| format!("{name}: {m}")))
            .collect();
        problems.extend(shutdown_error);
        let mut notes: Vec<String> = passes
            .iter()
            .flat_map(|(name, p)| p.notes.iter().map(move |m| format!("{name}: {m}")))
            .collect();
        let slowness: Vec<f64> = passes
            .iter()
            .flat_map(|(_, p)| p.obs.iter().filter(|(n, _)| *n == "slowness"))
            .map(|(_, v)| *v)
            .collect();
        if let Some(m) = median(&slowness) {
            notes.push(format!(
                "host slowness (calibration kernel / nominal): median {m:.3} over {} ops",
                slowness.len()
            ));
        }
        let mut end_to_end = Vec::new();
        for (name, unit, agg) in END_TO_END {
            let value = match agg {
                Agg::Run => match name {
                    "setup_s" => median(setup_times),
                    "peak_rss_mb" => peak_rss_mb,
                    _ => Some(ok_ratio.max(0.0)),
                },
                _ => aggregate(passes, &agg, observations).map(|v| {
                    if let Some((pct, n)) = v.tail {
                        let beyond =
                            n.saturating_sub((n as f64 * pct / 100.0 - 1e-9).ceil() as usize);
                        notes.push(format!(
                            "{name} is p{pct:.2} of {n} {} samples ({beyond} beyond it)",
                            v.workload
                        ));
                    }
                    if let Some(raw) = aggregate(passes, &agg, raw_observations) {
                        notes.push(format!("{name} unscaled: {:.6} {unit}", raw.value));
                    }
                    v.value
                }),
            };
            let value = match value {
                Some(v) if v.is_finite() => v,
                _ => {
                    problems.push(format!("{name} has no value"));
                    0.0
                }
            };
            end_to_end.push((name, unit, value));
        }
        Self {
            workload,
            attempted,
            failed,
            problems,
            notes,
            end_to_end,
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn print_notes(&self) {
        for note in &self.notes {
            println!("note: {note}");
        }
        for problem in &self.problems {
            println!("CHECK FAILED: {problem}");
        }
        println!(
            "ops: {} attempted, {} failed; outputs {}",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "NOT correct"
            }
        );
    }

    pub fn print_untraced(self) {
        println!("== {} (end to end) ==", self.workload);
        for (name, unit, value) in &self.end_to_end {
            println!("{name:<24} {value:>16.6} {unit}");
        }
        self.print_notes();
        println!("{}", self.json(&self.end_to_end));
    }

    pub fn print_traced(mut self, passes: &[(&'static str, PassOut)], spans: &[Span], path: &Path) {
        let names = trace::by_name(spans);
        let selfs = trace::self_times(spans);
        let root_total: u64 = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end - s.start)
            .sum();
        let share = |ns: u64| ns as f64 / root_total.max(1) as f64;

        println!(
            "== {} (traced: self time per span, {} spans in {}) ==",
            self.workload,
            spans.len(),
            path.display()
        );
        println!(
            "{:<28} {:<28} {:>8} {:>12} {:>12} {:>7}",
            "span", "layer", "calls", "total ms", "self ms", "self %"
        );
        let mut rows: Vec<_> = names.iter().collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_total));
        for (name, s) in rows {
            println!(
                "{:<28} {:<28} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
                name,
                trace::layer_of(name).1,
                s.calls,
                s.total as f64 / 1e6,
                s.self_total as f64 / 1e6,
                100.0 * share(s.self_total)
            );
        }

        let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
        let mut put = |name: &'static str, unit: &'static str, value: Option<f64>| {
            let value = value.filter(|v| v.is_finite()).unwrap_or_else(|| {
                self.problems.push(format!("{name} has no value"));
                0.0
            });
            metrics.push((name, unit, value));
        };
        for (metric, span, unit, ns_per_unit, divisor) in FROM_SPANS {
            let durations: Vec<f64> = names
                .get(span)
                .map(|s| s.durations.iter().map(|&d| d as f64).collect())
                .unwrap_or_default();
            put(
                metric,
                unit,
                median(&durations).map(|v| v / ns_per_unit / divisor),
            );
        }
        for (metric, unit) in FROM_COUNTS {
            let pooled = samples(passes, metric, layer_samples).and_then(|(_, v)| median(&v));
            put(metric, unit, pooled);
        }
        let own = &passes[0].1;
        let overhead = median(&own.traced_walls)
            .zip(median(&own.untraced_walls))
            .map(|(t, u)| t / u);
        put("trace_overhead", "ratio", overhead);
        let mut by_layer = std::collections::BTreeMap::new();
        for (s, own) in spans.iter().zip(&selfs) {
            *by_layer.entry(trace::layer_of(s.name).0).or_insert(0u64) += own;
        }
        let unattributed = by_layer.get("bench").copied().unwrap_or(0);
        put(
            "unattributed_fraction",
            "fraction",
            Some(share(unattributed)),
        );
        for (name, key) in SHARES {
            put(
                name,
                "fraction",
                Some(share(by_layer.get(key).copied().unwrap_or(0))),
            );
        }

        println!("== {} per layer ==", self.workload);
        for (name, unit, value) in &metrics {
            println!("{name:<30} {value:>16.6} {unit}");
        }
        println!(
            "unattributed remainder ({}): {:.2}% of traced time",
            self.workload,
            100.0 * share(unattributed)
        );
        self.print_notes();
        println!("{}", self.json(&metrics));
    }

    fn json(&self, metrics: &[(&str, &str, f64)]) -> String {
        let mut body = String::new();
        for (i, (name, unit, value)) in metrics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}
