//! What the four workload passes share: how long they run, how ops
//! are traced, and what they report.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::trace::{Ctx, Tracer};

/// How much work a pass does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The run's own workload: a warm-up, then ops until `measure`
    /// has elapsed.
    Timed { warmup: Duration, measure: Duration },
    /// One half of a fixed-size pass of another workload.
    Fixed { size: usize, part: Part },
}

/// Which half of a fixed pass runs; the two halves run at different
/// moments of the run (see `main`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    Before,
    After,
}

impl Budget {
    pub fn is_timed(self) -> bool {
        matches!(self, Budget::Timed { .. })
    }

    /// Whether this pass does its once-per-run opening checks.
    pub fn opens(self) -> bool {
        !matches!(
            self,
            Budget::Fixed {
                part: Part::After,
                ..
            }
        )
    }

    /// Whether this pass does its once-per-run closing phase.
    pub fn closes(self) -> bool {
        !matches!(
            self,
            Budget::Fixed {
                part: Part::Before,
                ..
            }
        )
    }
}

/// Run-wide settings and the span store.
pub struct Run {
    pub tracer: Tracer,
    /// `--trace 1`: interleave traced and untraced ops in the timed
    /// loop, and trace everything else.
    pub trace: bool,
    pub seed: u64,
    pub camj: PathBuf,
    /// Known delay added to the benchmark's own `build_point` closure
    /// (the harness self-test; zero in normal runs).
    pub inject_build_point: Duration,
    next_op: AtomicU64,
}

impl Run {
    pub fn new(trace: bool, seed: u64, camj: PathBuf, inject_build_point: Duration) -> Self {
        Self {
            tracer: Tracer::new(),
            trace,
            seed,
            camj,
            inject_build_point,
            next_op: AtomicU64::new(1),
        }
    }

    /// The context of the `index`-th op of a pass. In a traced run the
    /// timed loop records every other op, so traced and untraced ops
    /// of the same mix can be compared; fixed passes record all ops.
    pub fn op(&self, index: u64, budget: Budget) -> Ctx {
        let record = self.trace && (!budget.is_timed() || index % 2 == 1);
        Ctx::op(self.next_op.fetch_add(1, Ordering::Relaxed), record)
    }

    /// The context of a pass's post-timing phase (checks and
    /// per-layer extras): recorded whenever the run is traced.
    pub fn post(&self) -> Ctx {
        Ctx::op(self.next_op.fetch_add(1, Ordering::Relaxed), self.trace)
    }

    /// The seed a pass draws its inputs from: the run's seed for its
    /// own workload, a fixed one for the fixed-size passes, so those
    /// measure the same inputs in every run.
    pub fn seed_for(&self, budget: Budget, stream: u64) -> u64 {
        match budget {
            Budget::Timed { .. } => self.seed.wrapping_mul(0x100_0000_01b3) ^ stream,
            Budget::Fixed { part, .. } => stream ^ ((part as u64) << 8),
        }
    }
}

/// Drives a loop of in-process jobs: one untimed warm-up job, then
/// jobs until the budget is spent.
pub struct Loop {
    budget: Budget,
    done: usize,
    measure_start: Option<Instant>,
}

impl Loop {
    pub fn new(budget: Budget) -> Self {
        Self {
            budget,
            done: 0,
            measure_start: None,
        }
    }

    /// Whether another job should run; the first job is the warm-up.
    pub fn more(&mut self) -> bool {
        if self.done == 1 {
            self.measure_start = Some(Instant::now());
        }
        match self.budget {
            Budget::Fixed { size, .. } => self.done < size.max(2),
            Budget::Timed { measure, .. } => self
                .measure_start
                .is_none_or(|start| start.elapsed() < measure),
        }
    }

    /// Marks a job finished; returns whether it counts (not warm-up).
    pub fn finish(&mut self) -> bool {
        self.done += 1;
        self.done > 1
    }

    pub fn index(&self) -> u64 {
        self.done as u64
    }
}

/// What a pass reports.
#[derive(Debug, Default)]
pub struct PassOut {
    pub attempted: u64,
    pub failed: u64,
    /// What failed ops failed with.
    pub problems: Vec<String>,
    /// Ops of the opening checks (the golden requests). A timed pass's
    /// other ops grow with throughput; these do not, so `ok_ratio`
    /// counts them in its denominator.
    pub opening_ops: u64,
    /// Known-defect probes sent, and how many of them still hit the
    /// defect. A probe is not a workload op: it is left out of
    /// `attempted` and `failed` and counted in `ok_ratio` only.
    pub probes: u64,
    pub probes_failed: u64,
    /// Per-op observations the end-to-end metrics aggregate (see
    /// `report::END_TO_END`).
    pub obs: Vec<(&'static str, f64)>,
    /// The measured (unscaled) values of the timing observations.
    pub raw: Vec<(&'static str, f64)>,
    /// Per-layer samples (counts and ratios); medians are reported.
    pub layer: Vec<(&'static str, f64)>,
    /// Peak RSS of the process that did this pass's work, MiB.
    pub peak_rss_mb: Option<f64>,
    /// Wall time of timed-loop ops, split by whether they were traced.
    pub traced_walls: Vec<f64>,
    pub untraced_walls: Vec<f64>,
    /// Lines printed with the metric table.
    pub notes: Vec<String>,
}

impl PassOut {
    /// Records a failed op: an unexpected error, or a failed output
    /// check (each counts as one failed op).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// Records a timing observation: `scaled` to the nominal host (see
    /// `calib`) in `obs`, which the metric aggregates, and the measured
    /// value in `raw`, which the notes report.
    pub fn timing(&mut self, name: &'static str, scaled: f64, raw: f64) {
        self.obs.push((name, scaled));
        self.raw.push((name, raw));
    }

    /// Files an op's wall time under traced or untraced.
    pub fn op_wall(&mut self, ctx: Ctx, wall: f64) {
        if ctx.record {
            self.traced_walls.push(wall);
        } else {
            self.untraced_walls.push(wall);
        }
    }
}
