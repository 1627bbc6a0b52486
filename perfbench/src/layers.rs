//! Per-layer attribution for the traced run.
//!
//! Nothing inside the crates is instrumented for this benchmark. The
//! traced run wraps the public `TaskOracle` and `Domain` traits in timing
//! wrappers, times its own calls into `dc-vspace`, puts benchmark-side
//! spans around the calls it makes into each crate, and reads the
//! counters, histograms and spans the program already exports through
//! `dc_telemetry::export_json()`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dc_grammar::frontier::Frontier;
use dc_grammar::library::Library;
use dc_lambda::expr::Expr;
use dc_lambda::primitives::PrimitiveSet;
use dc_lambda::types::Type;
use dc_tasks::task::{Task, TaskOracle};
use dc_tasks::Domain;
use dc_vspace::SpaceArena;
use rand::RngCore;
use serde_json::Value;

/// Statistics only: these counters publish no other data, so `Relaxed`.
static ORACLE_CALLS: AtomicU64 = AtomicU64::new(0);
static ORACLE_HITS: AtomicU64 = AtomicU64::new(0);
static ORACLE_NS: AtomicU64 = AtomicU64::new(0);
static DREAM_TASKS: AtomicU64 = AtomicU64::new(0);
static DREAM_NS: AtomicU64 = AtomicU64::new(0);
static REFACTOR_NS: AtomicU64 = AtomicU64::new(0);
static REFACTOR_NODES: AtomicU64 = AtomicU64::new(0);

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times every likelihood query of the oracle it wraps.
struct TimedOracle {
    inner: Arc<dyn TaskOracle>,
}

impl TaskOracle for TimedOracle {
    fn log_likelihood(&self, program: &Expr) -> f64 {
        let t = Instant::now();
        let ll = self.inner.log_likelihood(program);
        ORACLE_NS.fetch_add(nanos_since(t), Ordering::Relaxed);
        ORACLE_CALLS.fetch_add(1, Ordering::Relaxed);
        if ll.is_finite() {
            ORACLE_HITS.fetch_add(1, Ordering::Relaxed);
        }
        ll
    }
}

/// `task` with its oracle behind a timing wrapper.
pub fn timed_task(task: &Task) -> Task {
    Task {
        oracle: Arc::new(TimedOracle {
            inner: Arc::clone(&task.oracle),
        }),
        ..task.clone()
    }
}

/// A domain whose tasks (and dreamed tasks) have timed oracles and whose
/// `dream` calls are timed.
pub struct TimedDomain<D> {
    inner: D,
    train: Vec<Task>,
    test: Vec<Task>,
}

impl<D: Domain> TimedDomain<D> {
    pub fn new(inner: D) -> TimedDomain<D> {
        let train = inner.train_tasks().iter().map(timed_task).collect();
        let test = inner.test_tasks().iter().map(timed_task).collect();
        TimedDomain { inner, train, test }
    }
}

impl<D: Domain> Domain for TimedDomain<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn primitives(&self) -> &PrimitiveSet {
        self.inner.primitives()
    }
    fn initial_library(&self) -> Arc<Library> {
        self.inner.initial_library()
    }
    fn train_tasks(&self) -> &[Task] {
        &self.train
    }
    fn test_tasks(&self) -> &[Task] {
        &self.test
    }
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn dream_requests(&self) -> Vec<Type> {
        self.inner.dream_requests()
    }
    fn dream(&self, program: &Expr, request: &Type, rng: &mut dyn RngCore) -> Option<Task> {
        let t = Instant::now();
        let task = self.inner.dream(program, request, rng);
        DREAM_NS.fetch_add(nanos_since(t), Ordering::Relaxed);
        if task.is_some() {
            DREAM_TASKS.fetch_add(1, Ordering::Relaxed);
        }
        task.as_ref().map(timed_task)
    }
}

/// Build the version space of every frontier at `n` inverse-β steps, one
/// arena per frontier as abstraction sleep does, recording time and node
/// count. Returns the seconds spent, so callers can take the probe out of
/// the repetition's time.
pub fn refactor_probe(frontiers: &[Frontier], n: usize) -> f64 {
    let _span = dc_telemetry::span("bench.refactor");
    let t = Instant::now();
    let mut nodes = 0;
    for frontier in frontiers {
        let mut arena = SpaceArena::new();
        for entry in &frontier.entries {
            arena.refactor(&entry.expr, n);
        }
        nodes += arena.len() as u64;
    }
    let ns = nanos_since(t);
    REFACTOR_NS.fetch_add(ns, Ordering::Relaxed);
    REFACTOR_NODES.fetch_add(nodes, Ordering::Relaxed);
    ns as f64 * 1e-9
}

/// Run a benchmark-side output check with telemetry off, so it does not
/// count as program work. Returns its result and the seconds it took,
/// which the caller takes out of the repetition's time.
pub fn check<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let was = dc_telemetry::is_enabled();
    dc_telemetry::disable();
    let t = Instant::now();
    let out = f();
    let seconds = t.elapsed().as_secs_f64();
    if was {
        dc_telemetry::enable();
    }
    (out, seconds)
}

/// What the traced run needs besides the telemetry export.
pub struct TracedRun {
    /// Timed repetitions in the traced half.
    pub reps: usize,
    /// Median wall seconds of one repetition, traced.
    pub traced_wall_s: f64,
    /// Median wall seconds of one repetition in the untraced half.
    pub untraced_wall_s: f64,
    pub workers: usize,
    pub solved: f64,
    pub score_gain: f64,
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric, per repetition of the workload's fixed work.
pub fn per_layer(run: &TracedRun) -> Vec<Metric> {
    let telemetry: Value = serde_json::from_str(&dc_telemetry::export_json())
        .expect("dc_telemetry::export_json returns JSON");
    let reps = run.reps as f64;
    let counter = |name: &str| -> f64 {
        telemetry
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            / reps
    };
    // Spans feed same-named histograms, so histograms give each span's
    // total over every place in the tree it occurs.
    let histogram = |name: &str, field: &str| -> f64 {
        telemetry
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            * 1e-3
    };
    let span_s = |name: &str| histogram(name, "total_ms") / reps;
    let atomic = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / reps;

    let programs = counter("enumeration.programs");
    let typed_out = counter("enumeration.typed_out");
    let eval_calls = atomic(&ORACLE_CALLS);
    let eval_s = atomic(&ORACLE_NS) * 1e-9;
    let enumeration_self_s = (span_s("enumeration.run_time") - eval_s).max(0.0);
    // Per-task spans inside the parallel fan-outs: wake and held-out
    // searches, MAP fantasies, and compression candidates.
    let fanned = [
        "wake.search",
        "eval.search",
        "dream.fantasy",
        "compression.candidate_time",
    ];
    let task_s_sum: f64 = fanned.iter().map(|n| span_s(n)).sum();
    let task_s_max = fanned
        .iter()
        .map(|n| histogram(n, "max_ms"))
        .fold(0.0, f64::max);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    vec![
        ("enumeration.programs", programs, "count"),
        (
            "enumeration.programs_per_s",
            ratio(programs, enumeration_self_s),
            "1/s",
        ),
        ("enumeration.self_s", enumeration_self_s, "s"),
        ("enumeration.typed_out", typed_out, "count"),
        (
            "enumeration.typed_out_per_program",
            ratio(typed_out, programs),
            "ratio",
        ),
        (
            "enumeration.budget_windows",
            counter("enumeration.budget_windows"),
            "count",
        ),
        (
            "enumeration.unification_failures",
            counter("enumeration.unification_failures"),
            "count",
        ),
        ("eval.calls", eval_calls, "count"),
        ("eval.s", eval_s, "s"),
        ("eval.us_per_call", ratio(eval_s * 1e6, eval_calls), "us"),
        (
            "eval.hit_rate",
            ratio(atomic(&ORACLE_HITS), eval_calls),
            "ratio",
        ),
        (
            "eval.fuel_exhausted",
            counter("eval.fuel_exhausted"),
            "count",
        ),
        ("eval.errors", counter("eval.errors"), "count"),
        ("vspace.refactor_s", atomic(&REFACTOR_NS) * 1e-9, "s"),
        ("vspace.nodes", atomic(&REFACTOR_NODES), "count"),
        (
            "compression.s",
            span_s("bench.compress") + span_s("bench.abstraction"),
            "s",
        ),
        (
            "compression.candidates_proposed",
            counter("compression.candidates_proposed"),
            "count",
        ),
        (
            "compression.candidates_scored",
            counter("compression.candidates_scored"),
            "count",
        ),
        (
            "compression.inventions",
            counter("compression.inventions_accepted"),
            "count",
        ),
        ("recognition.predict_s", span_s("wake.predict"), "s"),
        ("recognition.train_s", span_s("dream.train"), "s"),
        (
            "recognition.examples_trained",
            counter("recognition.examples_trained"),
            "count",
        ),
        ("phase.wake_s", span_s("bench.wake"), "s"),
        ("phase.abstraction_s", span_s("bench.abstraction"), "s"),
        ("phase.dream_s", span_s("bench.dream"), "s"),
        ("phase.test_s", span_s("bench.test"), "s"),
        ("dream.fantasies", atomic(&DREAM_TASKS), "count"),
        ("dream.fantasy_s", atomic(&DREAM_NS) * 1e-9, "s"),
        ("fanout.workers", run.workers as f64, "count"),
        ("fanout.task_s_sum", task_s_sum, "s"),
        ("fanout.task_s_max", task_s_max, "s"),
        (
            "fanout.idle_s",
            (run.workers as f64 * run.traced_wall_s - task_s_sum).max(0.0),
            "s",
        ),
        (
            "telemetry.overhead",
            ratio(run.traced_wall_s, run.untraced_wall_s),
            "ratio",
        ),
        ("result.solved", run.solved, "count"),
        ("result.score_gain", run.score_gain, "nats"),
    ]
}
