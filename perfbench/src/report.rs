//! Metric records, summary statistics and the result line.

use std::time::Instant;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Measurements the value summarizes.
    pub samples: usize,
    /// The statistic, the base of a ratio, or why a bypassed layer reads 0.
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (alignments or serve jobs).
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
    /// Correctness-gate findings, one line each.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Count one failed operation and say why.
    pub fn fail_op(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Record a gate finding that is not tied to one operation.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(why());
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, note: &str) {
        self.end_to_end.push(metric(name, value, unit, samples, note));
    }

    pub fn layer(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.per_layer.push(metric(name, value, unit, samples, note));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Print the human-readable table, then the JSON result as the last
    /// line of standard output. `traced` selects the per-layer set.
    pub fn print(&self, workload: &str, traced: bool) {
        for e in &self.errors {
            println!("GATE FAILED: {e}");
        }
        let shown = if traced { &self.per_layer } else { &self.end_to_end };
        println!("workload {workload}: {} attempted, {} failed", self.attempted, self.failed);
        if traced {
            for m in &self.end_to_end {
                print_row(m, " (untraced)");
            }
        }
        for m in shown {
            print_row(m, "");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in shown.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize, note: &str) -> Metric {
    Metric { name: name.to_string(), value, unit, samples, note: note.to_string() }
}

fn print_row(m: &Metric, suffix: &str) {
    println!(
        "  {:<28} {:>14.4} {:<8} n={:<5} {}{}",
        m.name, m.value, m.unit, m.samples, m.note, suffix
    );
}

/// Shortest round-trip form; JSON has no NaN or infinity, and a metric
/// that is not finite is a harness bug reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `a / b`, or 0 when there is no base.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p99.9 / p99 / p90 with at least ten samples beyond it,
/// and its label. With fewer than 100 samples no tail percentile is
/// supported, and the median is reported instead, labelled as such.
pub fn tail(xs: &[f64]) -> (f64, &'static str) {
    for (permille, label) in [(999, "p99.9"), (990, "p99"), (900, "p90")] {
        if xs.len() * (1000 - permille) >= 10 * 1000 {
            return (quantile(xs, permille as f64 / 1000.0), label);
        }
    }
    (median(xs), "p50: under 100 samples, no tail percentile has 10 beyond it")
}

/// Batches behind a `setup_s` reading, and constructions per batch.
pub const SETUP_SAMPLES: usize = 50;
pub const SETUP_BATCH: usize = 20;

/// Set-up cost per construction: the median over [`SETUP_SAMPLES`]
/// batches of the mean time of [`SETUP_BATCH`] timed calls of `make`. A
/// single construction is tens of microseconds of thread spawning, and
/// its time moves with whatever the host runs at that moment; batch means
/// vary less from run to run than single readings do. Each batch is kept
/// alive until its last construction is timed, so no timed call overlaps
/// the teardown of the one before.
pub fn median_setup<T>(mut make: impl FnMut() -> T) -> f64 {
    let mut means = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let mut alive = Vec::with_capacity(SETUP_BATCH);
        let mut secs = 0.0;
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            let v = std::hint::black_box(make());
            secs += t.elapsed().as_secs_f64();
            alive.push(v);
        }
        means.push(secs / SETUP_BATCH as f64);
        // `WorkerPool`'s drop sets its shutdown flag and notifies without
        // holding the queue lock, so a worker thread that has not yet
        // parked can miss the wake-up and the join hangs. Give freshly
        // spawned workers time to park before the batch is dropped.
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(alive);
    }
    median(&means)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Share of the guest's CPU time that the hypervisor may take away
/// during a timed interval before the interval is left out.
pub const STEAL_LIMIT: f64 = 0.03;

/// Hypervisor steal time of the whole guest so far, in seconds: the
/// `steal` column of the `cpu` line of `/proc/stat`, in USER_HZ ticks
/// (100 per second on Linux). 0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or("");
    cpu.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).map_or(0.0, |t| t / 100.0)
}

/// Steal over an interval of `wall_s` seconds, as a share of what the
/// host's CPUs could have run in it.
pub fn steal_share(steal_s: f64, wall_s: f64) -> f64 {
    ratio(steal_s, wall_s * crate::host_parallelism() as f64)
}

/// The values whose interval lost at most [`STEAL_LIMIT`] of the CPU to
/// the hypervisor, when at least `min` of them did; every value
/// otherwise. Each sample is `(value, steal share)`. Returns the kept
/// values and how many were left out.
///
/// On a shared host the hypervisor takes a vCPU away for tens of seconds
/// at a time, and an alignment that loses a quarter of one CPU that way
/// runs about half again as long. That time is the host's, not the
/// program's: the program cannot change how much the hypervisor steals.
pub fn unstolen<T: Copy>(samples: &[(T, f64)], min: usize) -> (Vec<T>, usize) {
    let kept: Vec<T> =
        samples.iter().filter(|(_, share)| *share <= STEAL_LIMIT).map(|(v, _)| *v).collect();
    if kept.len() >= min {
        let dropped = samples.len() - kept.len();
        (kept, dropped)
    } else {
        (samples.iter().map(|(v, _)| *v).collect(), 0)
    }
}

/// Fixed work for a run: `seconds` worth of units at their nominal cost
/// on a 2-CPU host, at least `min`. Derived from the arguments only, so
/// the same arguments always do the same work.
pub fn units(seconds: u64, nominal_s: f64, min: usize) -> usize {
    ((seconds as f64 / nominal_s).round() as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn unstolen_keeps_enough_or_everything() {
        let xs = [(1.0, 0.0), (2.0, 0.5), (3.0, STEAL_LIMIT), (4.0, STEAL_LIMIT + 0.01)];
        assert_eq!(unstolen(&xs, 2), (vec![1.0, 3.0], 2));
        assert_eq!(unstolen(&xs, 3), (vec![1.0, 2.0, 3.0, 4.0], 0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).1, "p99");
        assert_eq!(tail(&xs[..100]).1, "p90");
        assert_eq!(tail(&xs[..30]).0, 15.5);
    }
}
