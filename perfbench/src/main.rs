//! `dc-perfbench`: fixed-work end-to-end and per-layer benchmark of the
//! DreamCoder-rs crates.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload search --seed 1 --seconds 8 --trace 0
//! ```
//!
//! One process runs one workload. It builds the workload's inputs from
//! `--seed` (several times, reporting the median as `setup_s`), runs each
//! unit of fixed work once with the worker cap at 1 as a reference, then
//! repeats the units with the cap at `nproc` for `--seconds`. Every
//! repetition passes its output checks and reproduces its reference's
//! outputs exactly.
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (medians over repetitions); with `--trace 1` the same untraced
//! repetitions are followed by as many seconds of traced ones, and the
//! line carries the per-layer metrics. See `README.md` beside this file.

mod layers;
mod probe;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::{Kind, Outcome};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| {
        format!("unknown workload {workload:?} (search, symreg, compress, learn)")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Failure accounting across every repetition of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count `outcome`'s operations; a repetition whose outputs differ
    /// from the reference's counts as one more failed operation.
    fn add(&mut self, outcome: &Outcome, reference: &str) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        if outcome.fingerprint != reference {
            self.failed += 1;
            eprintln!(
                "[perfbench] outputs differ from the one-worker reference:\n  \
                 reference: {reference}\n  this run:  {}",
                outcome.fingerprint
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <search|symreg|compress|learn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Fix the worker cap once; otherwise the vendored rayon re-resolves it
    // from DC_THREADS and available_parallelism on every parallel call.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_max_threads(Some(workers));
    eprintln!(
        "[perfbench] workload {:?}, seed {}, {} s, trace {}, {workers} workers",
        args.kind, args.seed, args.seconds, args.trace
    );

    let (workload, setup_s) = probe::median_setup(|| workloads::setup(args.kind, args.seed, false));
    let units = workload.units();
    // At least three samples, and every unit measured at least once.
    let min_samples = units.max(3);
    let references: Vec<Outcome> = rayon::with_max_threads(Some(1), || {
        (0..units).map(|unit| workload.run(unit).0).collect()
    });
    let mut tally = Tally::default();
    for reference in &references {
        tally.add(reference, &reference.fingerprint);
    }
    let samples = probe::repeat(args.seconds, min_samples, |i| workload.run(i % units));
    for (i, s) in samples.iter().enumerate() {
        tally.add(&s.outcome, &references[i % units].fingerprint);
    }
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let wall_s = probe::median(&walls);
    let peaks: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.outcome.peak_rss_mb.iter().copied())
        .collect();
    let solved: f64 = references.iter().map(|r| r.solved).sum();
    let score_gain: f64 = references.iter().map(|r| r.score_gain).sum();
    eprintln!(
        "[perfbench] {} repetitions, wall {walls:.3?} s, peak RSS {peaks:.1?} MB; \
         solved {solved}, score gain {score_gain:.4}",
        samples.len()
    );

    let metrics: Vec<layers::Metric> = if args.trace {
        dc_telemetry::enable();
        let traced_workload = workloads::setup(args.kind, args.seed, true);
        let traced = probe::repeat(args.seconds, min_samples, |i| {
            traced_workload.run(i % units)
        });
        for (i, s) in traced.iter().enumerate() {
            tally.add(&s.outcome, &references[i % units].fingerprint);
        }
        let traced_walls: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
        layers::per_layer(&layers::TracedRun {
            reps: traced.len(),
            traced_wall_s: probe::median(&traced_walls),
            untraced_wall_s: wall_s,
            workers,
            solved,
            score_gain,
        })
    } else {
        let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
        vec![
            ("wall_s", wall_s, "s"),
            ("cpu_s", probe::median(&cpus), "s"),
            ("peak_rss_mb", probe::median(&peaks), "MB"),
            ("setup_s", setup_s, "s"),
        ]
    };

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
