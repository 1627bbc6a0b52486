//! Whole-process resource readings and the repetition loop.
//!
//! CPU and peak memory come from `/proc/self`, which covers every thread
//! the process ever ran: the vendored rayon spawns scoped workers on each
//! parallel call, so per-thread clocks would miss workers that already
//! exited.

use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on Linux regardless of the kernel's internal tick rate).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU-seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space separated, utime and stime being the
    // 14th and 15th fields of the whole line.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick count") as f64 };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Restart the peak resident set reading (`VmHWM`) from the current
/// resident set.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Run `f`, returning its result and the process's peak resident set
/// while it ran, in MiB (`VmHWM`, restarted from the current resident set
/// before the call).
pub fn peak_rss_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    reset_peak_rss();
    let out = f();
    (out, peak_rss_mb())
}

fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[mid - 1] + v[mid])
    } else {
        v[mid]
    }
}

/// Build the workload inputs repeatedly and return the last build with the
/// median build time. Single builds take milliseconds, so one reading
/// would be mostly scheduler noise.
pub fn median_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    const MIN_BUILDS: usize = 5;
    const MIN_TOTAL: Duration = Duration::from_millis(500);
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = build();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= MIN_BUILDS && started.elapsed() >= MIN_TOTAL {
            return (inputs, median(&times));
        }
        drop(inputs);
    }
}

/// One timed repetition of a workload's fixed work.
pub struct Sample<R> {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub outcome: R,
}

/// Run `unit` once, timing wall clock and whole-process CPU. `unit`
/// returns its outcome plus the seconds it spent on benchmark-side probes
/// and checks, which run on one thread and are taken out of both.
pub fn timed<R>(unit: impl FnOnce() -> (R, f64)) -> Sample<R> {
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let (outcome, bench_s) = unit();
    let wall_s = t.elapsed().as_secs_f64() - bench_s;
    Sample {
        wall_s,
        cpu_s: cpu_seconds() - cpu0 - bench_s,
        outcome,
    }
}

/// Repeat `unit` (called with the repetition's index) until `seconds` have
/// passed and at least `min_samples` samples exist.
pub fn repeat<R>(
    seconds: f64,
    min_samples: usize,
    mut unit: impl FnMut(usize) -> (R, f64),
) -> Vec<Sample<R>> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_samples || started.elapsed().as_secs_f64() < seconds {
        let i = samples.len();
        samples.push(timed(|| unit(i)));
    }
    samples
}
