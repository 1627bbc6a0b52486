//! The four fixed-work workloads and the output checks each repetition
//! passes.
//!
//! Every search is bounded by nats, never by wall clock, so one
//! repetition performs the same computation on every host and at every
//! worker count. Each repetition returns a fingerprint of everything that
//! must repeat exactly: solved tasks, program and oracle-call counts,
//! inventions and the bit patterns of scores and losses.

use std::fmt::Write as _;
use std::sync::Arc;

use dc_grammar::enumeration::EnumerationConfig;
use dc_grammar::frontier::{Frontier, FrontierEntry};
use dc_grammar::grammar::Grammar;
use dc_grammar::library::Library;
use dc_lambda::eval::{EvalCtx, Value};
use dc_lambda::expr::Expr;
use dc_lambda::types::{tint, tlist, Context, Type};
use dc_tasks::domains::list::ListDomain;
use dc_tasks::domains::symreg::SymRegDomain;
use dc_tasks::task::Task;
use dc_tasks::Domain;
use dc_vspace::{compress, CompressionConfig};
use dc_wakesleep::{
    wake, Condition, DreamCoder, DreamCoderConfig, Guide, RecognitionConfig, SearchOutcome,
    TaskSearchResult,
};
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use crate::layers::{check, refactor_probe, timed_task, TimedDomain};
use crate::probe::peak_rss_during;

/// Beam size of every search (the paper's and the CLI's default).
const BEAM: usize = 5;
/// `search`: nats budget of the list-domain wake.
const SEARCH_NATS: f64 = 9.0;
/// `symreg`: nats budget of the symbolic-regression wake.
const SYMREG_NATS: f64 = 9.0;
/// `learn`: cycles and budgets of the deterministic wake-sleep loop.
const LEARN_TRAJECTORIES: usize = 6;
const LEARN_CYCLES: usize = 3;
const LEARN_WAKE_NATS: f64 = 9.0;
const LEARN_TEST_NATS: f64 = 9.0;
const LEARN_FANTASY_NATS: f64 = 6.5;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Search,
    Symreg,
    Compress,
    Learn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "search" => Some(Kind::Search),
            "symreg" => Some(Kind::Symreg),
            "compress" => Some(Kind::Compress),
            "learn" => Some(Kind::Learn),
            _ => None,
        }
    }
}

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Everything that must repeat exactly across repetitions and worker
    /// counts.
    pub fingerprint: String,
    /// Operations run: searched tasks, `compress` calls or cycles.
    pub attempted: u64,
    /// Operations that hit an evaluator panic or failed an output check.
    pub failed: u64,
    /// Tasks solved (held-out tasks after the last cycle for `learn`).
    pub solved: f64,
    /// MDL objective gain of compression, in nats.
    pub score_gain: f64,
    /// Peak resident set of each program call (each trajectory for
    /// `learn`), in MiB.
    pub peak_rss_mb: Vec<f64>,
}

/// A workload with its inputs built.
pub trait Workload {
    /// How many distinct units of fixed work the workload has;
    /// repetitions cycle through them.
    fn units(&self) -> usize {
        1
    }

    /// One repetition: the fixed work of `unit`. Returns its outcome and
    /// the seconds spent in benchmark-side probes and output checks, which
    /// are not program work.
    fn run(&self, unit: usize) -> (Outcome, f64);
}

/// Build `kind`'s inputs from `seed`. With `traced`, oracles and domains
/// sit behind timing wrappers.
pub fn setup(kind: Kind, seed: u64, traced: bool) -> Box<dyn Workload> {
    match kind {
        Kind::Search => {
            let domain = ListDomain::new(seed);
            let tasks = [domain.train_tasks(), domain.test_tasks()].concat();
            Box::new(Search::new(
                &domain.initial_library(),
                tasks,
                SEARCH_NATS,
                traced,
            ))
        }
        Kind::Symreg => {
            // A second domain seed doubles the task count: budget windows
            // are 1.5 nats apart, too coarse to lengthen the run by budget.
            let domains = [SymRegDomain::new(seed), SymRegDomain::new(seed ^ 0x5eed)];
            let tasks = domains
                .iter()
                .flat_map(|d| d.train_tasks().iter().chain(d.test_tasks()).cloned())
                .collect();
            Box::new(Search::new(
                &domains[0].initial_library(),
                tasks,
                SYMREG_NATS,
                traced,
            ))
        }
        Kind::Compress => Box::new(Compress::new(seed, traced)),
        Kind::Learn => Box::new(Learn::new(seed, traced)),
    }
}

fn nats_budget(max_budget: f64) -> EnumerationConfig {
    EnumerationConfig {
        max_budget,
        timeout: None,
        ..EnumerationConfig::default()
    }
}

/// Does `program` have a type at `request`?
fn typechecks(program: &Expr, request: &Type) -> bool {
    let mut ctx = Context::new();
    let Ok(inferred) = program.infer_with(&mut ctx, &[]) else {
        return false;
    };
    let wanted = request.instantiate(&mut ctx);
    ctx.unify(&inferred, &wanted).is_ok()
}

/// Does every entry of `frontier` solve `task` afresh and typecheck at its
/// request?
fn frontier_holds(task: &Task, frontier: &Frontier) -> bool {
    frontier
        .entries
        .iter()
        .all(|e| typechecks(&e.expr, &task.request) && task.check(&e.expr))
}

/// `search` and `symreg`: one `wake` over every task of the domain under
/// the uniform generative grammar.
struct Search {
    /// Tasks handed to the program (timed oracles in a traced run).
    tasks: Vec<Task>,
    /// The same tasks with their own oracles, for output checks.
    plain: Vec<Task>,
    guides: Vec<Guide>,
    grammar: Grammar,
    config: EnumerationConfig,
}

impl Search {
    fn new(library: &Arc<Library>, plain: Vec<Task>, nats: f64, traced: bool) -> Search {
        let grammar = Grammar::uniform(Arc::clone(library));
        let tasks = if traced {
            plain.iter().map(timed_task).collect()
        } else {
            plain.clone()
        };
        Search {
            guides: vec![Guide::Generative(grammar.clone()); plain.len()],
            tasks,
            plain,
            grammar,
            config: nats_budget(nats),
        }
    }
}

impl Workload for Search {
    fn run(&self, _unit: usize) -> (Outcome, f64) {
        let tasks: Vec<&Task> = self.tasks.iter().collect();
        let (results, peak) = peak_rss_during(|| {
            let _span = dc_telemetry::span("bench.wake");
            wake(&tasks, &self.guides, &self.grammar, BEAM, &self.config)
        });
        let (mut out, bench_s) = check(|| check_searches(&self.plain, &results));
        out.peak_rss_mb.push(peak);
        (out, bench_s)
    }
}

fn check_searches(tasks: &[Task], results: &[TaskSearchResult]) -> Outcome {
    let mut out = Outcome::default();
    let mut solved = Vec::new();
    let (mut programs, mut evaluated, mut typed_out) = (0, 0, 0);
    for (i, (task, r)) in tasks.iter().zip(results).enumerate() {
        out.attempted += 1;
        if r.trace.outcome == SearchOutcome::EvalPanic || !frontier_holds(task, &r.frontier) {
            out.failed += 1;
        }
        if !r.frontier.is_empty() {
            solved.push(format!("{i}:{}", task.name));
        }
        programs += r.trace.programs_enumerated;
        evaluated += r.trace.programs_evaluated;
        typed_out += r.trace.typed_out;
    }
    out.solved = solved.len() as f64;
    out.fingerprint = format!(
        "solved={solved:?} programs={programs} oracle_calls={evaluated} typed_out={typed_out}"
    );
    out
}

/// `compress`: abstraction sleep at the paper's n = 3 inverse-β steps on
/// a seeded corpus.
struct Compress {
    library: Arc<Library>,
    corpus: Vec<Frontier>,
    /// Inputs each corpus program is run on, and the outputs it gives.
    behaviour: Vec<(Vec<Vec<Value>>, Vec<Value>)>,
    config: CompressionConfig,
    traced: bool,
}

/// Evaluate `program` on each input tuple.
fn outputs(program: &Expr, inputs: &[Vec<Value>]) -> Option<Vec<Value>> {
    inputs
        .iter()
        .map(|ins| EvalCtx::with_fuel(100_000).run(program, ins).ok())
        .collect()
}

impl Compress {
    fn new(seed: u64, traced: bool) -> Compress {
        let prims = dc_lambda::primitives::base_primitives();
        let library = Arc::new(Library::from_primitives(prims.iter().cloned()));
        let grammar = Grammar::uniform(Arc::clone(&library));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let list_to_list = Type::arrow(tlist(tint()), tlist(tint()));
        let list = |xs: &[i64]| Value::list(xs.iter().map(|&x| Value::Int(x)).collect());
        let list_inputs: Vec<Vec<Value>> = [&[][..], &[3], &[1, 2, 3], &[4, 0, -2, 7]]
            .iter()
            .map(|xs| vec![list(xs)])
            .collect();

        // One fixed template corpus whose operators and constants the seed
        // relabels by a consistent permutation: every seed gives different
        // programs with isomorphic version spaces, so the same work.
        let mut ops = ["+", "-", "*"];
        ops.shuffle(&mut rng);
        let mut consts = ["0", "1"];
        consts.shuffle(&mut rng);
        let [a, b, _] = ops;
        let [z, o] = consts;
        // Recursive maps sharing the map skeleton, with seeded element
        // operations.
        let map = |body: String| {
            format!(
                "(lambda (fix (lambda (lambda (if (is-nil $0) nil \
                 (cons {body} ($1 (cdr $0)))))) $0))"
            )
        };
        let mut sources: Vec<(String, Type)> = vec![
            (
                map(format!("({a} (car $0) (car $0))")),
                list_to_list.clone(),
            ),
            (map(format!("({b} (car $0) {o})")), list_to_list.clone()),
        ];
        // Arithmetic sharing a doubling motif.
        for src in [
            format!("({a} {o} {o})"),
            format!("({a} {z} {z})"),
            format!("({b} ({a} {o} {o}) ({a} {o} {o}))"),
            format!("({a} ({a} {o} {o}) ({a} {o} {o}))"),
        ] {
            sources.push((src, tint()));
        }

        let mut corpus = Vec::new();
        let mut behaviour = Vec::new();
        for (src, request) in sources {
            let expr = Expr::parse(&src, &prims).expect("corpus program parses");
            let inputs = if request == tint() {
                vec![Vec::new()]
            } else {
                list_inputs.clone()
            };
            let expected = outputs(&expr, &inputs).expect("corpus program evaluates");
            behaviour.push((inputs, expected));
            let mut frontier = Frontier::new(request.clone());
            frontier.insert(
                FrontierEntry {
                    log_prior: grammar.log_prior(&request, &expr),
                    log_likelihood: 0.0,
                    expr,
                },
                BEAM,
            );
            corpus.push(frontier);
        }
        Compress {
            library,
            corpus,
            behaviour,
            config: CompressionConfig {
                refactor_steps: 3,
                top_candidates: 30,
                max_inventions: 1,
                ..CompressionConfig::default()
            },
            traced,
        }
    }
}

impl Compress {
    /// Does every rewritten corpus program keep its type and its outputs?
    fn rewrites_hold(&self, rewritten: &[Frontier]) -> bool {
        rewritten.len() == self.corpus.len()
            && rewritten
                .iter()
                .zip(&self.behaviour)
                .all(|(f, (inputs, expected))| {
                    !f.entries.is_empty()
                        && f.entries.iter().all(|e| {
                            typechecks(&e.expr, &f.request)
                                && outputs(&e.expr, inputs).as_ref() == Some(expected)
                        })
                })
    }
}

impl Workload for Compress {
    fn run(&self, _unit: usize) -> (Outcome, f64) {
        let mut bench_s = if self.traced {
            refactor_probe(&self.corpus, self.config.refactor_steps)
        } else {
            0.0
        };
        let (result, peak) = peak_rss_during(|| {
            let _span = dc_telemetry::span("bench.compress");
            compress(&self.library, &self.corpus, &self.config)
        });
        let mut out = Outcome {
            attempted: 1,
            peak_rss_mb: vec![peak],
            ..Outcome::default()
        };
        let (holds, check_s) = check(|| self.rewrites_hold(&result.frontiers));
        bench_s += check_s;
        if !holds {
            out.failed = 1;
        }
        if let (Some(first), Some(last)) = (result.steps.first(), result.steps.last()) {
            out.score_gain = last.score_after - first.score_before;
        }
        for step in &result.steps {
            let _ = write!(
                out.fingerprint,
                "{} {:x}->{:x}; ",
                step.invention.body,
                step.score_before.to_bits(),
                step.score_after.to_bits()
            );
        }
        for f in &result.frontiers {
            for e in &f.entries {
                let _ = write!(out.fingerprint, "{} ", e.expr);
            }
        }
        (out, bench_s)
    }
}

/// `learn`: the deterministic `Condition::Full` wake-sleep loop on the
/// list domain, one benchmark-side span per phase. A run's cost follows
/// what it happens to solve, so the workload holds several independent
/// runs (trajectories), their seeds drawn from the workload seed, and
/// each repetition is one of them: the median is that of a typical run.
struct Learn {
    trajectories: Vec<Trajectory>,
}

impl Learn {
    fn new(seed: u64, traced: bool) -> Learn {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        Learn {
            trajectories: (0..LEARN_TRAJECTORIES)
                .map(|_| Trajectory::new(rng.next_u64(), traced))
                .collect(),
        }
    }
}

impl Workload for Learn {
    fn units(&self) -> usize {
        self.trajectories.len()
    }

    fn run(&self, unit: usize) -> (Outcome, f64) {
        let mut out = Outcome::default();
        let (bench_s, peak) = peak_rss_during(|| self.trajectories[unit].run(&mut out));
        out.peak_rss_mb.push(peak);
        (out, bench_s)
    }
}

/// One seeded wake-sleep run.
struct Trajectory {
    plain: ListDomain,
    timed: Option<TimedDomain<ListDomain>>,
    config: DreamCoderConfig,
}

impl Trajectory {
    fn new(seed: u64, traced: bool) -> Trajectory {
        let plain = ListDomain::new(seed);
        let config = DreamCoderConfig {
            condition: Condition::Full,
            cycles: LEARN_CYCLES,
            // Every train task each cycle: which tasks a random minibatch
            // holds would otherwise set most of the run's cost.
            minibatch: plain.train_tasks().len(),
            enumeration: nats_budget(LEARN_WAKE_NATS),
            test_enumeration: nats_budget(LEARN_TEST_NATS),
            // One inverse-β step: at three, a single large solution can
            // multiply the cost of a cycle (`compress` covers n = 3).
            compression: CompressionConfig {
                refactor_steps: 1,
                top_candidates: 30,
                max_inventions: 3,
                ..CompressionConfig::default()
            },
            recognition: RecognitionConfig {
                epochs: 10,
                fantasies: 20,
                map_fantasies: true,
                map_fantasy_budget: Some(LEARN_FANTASY_NATS),
                ..RecognitionConfig::default()
            },
            seed,
            deterministic_timing: true,
            ..DreamCoderConfig::default()
        };
        // Covers the model's construction in set-up; each repetition
        // starts a fresh run of its own.
        drop(DreamCoder::new(&plain, config.clone()));
        Trajectory {
            timed: traced.then(|| TimedDomain::new(ListDomain::new(seed))),
            plain,
            config,
        }
    }

    fn domain(&self) -> &dyn Domain {
        match &self.timed {
            Some(timed) => timed,
            None => &self.plain,
        }
    }

    /// Run every cycle, adding to `out`; returns the seconds spent in
    /// benchmark-side probes and checks.
    fn run(&self, out: &mut Outcome) -> f64 {
        let domain = self.domain();
        let train = self.plain.train_tasks();
        let mut dc = DreamCoder::new(domain, self.config.clone());
        let mut bench_s = 0.0;
        for cycle in 0..self.config.cycles {
            out.attempted += 1;
            let wake = {
                let _span = dc_telemetry::span("bench.wake");
                dc.wake_cycle()
            };
            let mut ok = wake
                .iter()
                .all(|(_, r)| r.trace.outcome != SearchOutcome::EvalPanic);
            let programs: usize = wake.iter().map(|(_, r)| r.trace.programs_enumerated).sum();
            let evaluated: usize = wake.iter().map(|(_, r)| r.trace.programs_evaluated).sum();
            if self.timed.is_some() {
                let mut keys: Vec<usize> = dc.frontiers.keys().copied().collect();
                keys.sort_unstable();
                let fronts: Vec<Frontier> = keys
                    .iter()
                    .map(|k| {
                        let mut f = dc.frontiers[k].clone();
                        f.entries.truncate(self.config.compression_beam.max(1));
                        f
                    })
                    .collect();
                bench_s += refactor_probe(&fronts, self.config.compression.refactor_steps);
            }
            let inventions = {
                let _span = dc_telemetry::span("bench.abstraction");
                dc.abstraction_cycle()
            };
            // The north-star invariant: every stored solution still types
            // at its request and solves its task after the rewrite.
            let (holds, check_s) = check(|| {
                dc.frontiers
                    .iter()
                    .all(|(&i, f)| frontier_holds(&train[i], f))
            });
            ok &= holds;
            bench_s += check_s;
            let bias = dc.grammar.weights.clone();
            if let Some(model) = dc.recognition.as_mut() {
                model.set_prior_bias(Some(bias));
            }
            let dream = {
                let _span = dc_telemetry::span("bench.dream");
                dc.dream_cycle()
            };
            let loss = dream.as_ref().map_or(f64::NAN, |d| d.final_loss);
            ok &= loss.is_finite();
            if !ok {
                out.failed += 1;
            }
            let mut solved: Vec<usize> = dc.frontiers.keys().copied().collect();
            solved.sort_unstable();
            let _ = write!(
                out.fingerprint,
                "cycle {cycle}: train={solved:?} programs={programs} oracle_calls={evaluated} \
                 inventions={inventions:?} fantasies={} loss={:x}; ",
                dream.as_ref().map_or(0, |d| d.fantasies),
                loss.to_bits()
            );
        }
        // Held-out evaluation reads the model without changing it, so it
        // runs once, after the last cycle: per-cycle evaluations would add
        // the recognition-guided search whose cost varies most by seed.
        let (test_solved, _) = {
            let _span = dc_telemetry::span("bench.test");
            dc.evaluate(domain.test_tasks(), &self.config.test_enumeration)
        };
        let _ = write!(out.fingerprint, "test={:x}; ", test_solved.to_bits());
        out.solved += (test_solved * domain.test_tasks().len() as f64).round();
        bench_s
    }
}
