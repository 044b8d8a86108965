//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chromosome|unrelated|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs made from `--seed`, checks every output
//! against an independent reference, prints a table of every metric with
//! its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, measured untraced; `--trace 1` repeats those
//! measurements and then runs a traced pass (traced repetitions plus
//! direct layer probes) and reports the per-layer metrics. Exits 1 when a
//! correctness gate fails and 2 on bad arguments. See `perfbench/README.md`
//! for why each workload and metric exists.

mod layers;
mod pairs;
mod probes;
mod report;
mod serve_mix;
mod trace;

use cudalign::PipelineResult;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use sw_core::Scoring;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run the single-thread baseline and print one `ChildOut` line
    /// (the traced pass spawns this as a child process).
    w1: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args =
            Args { workload: String::new(), seed: 1, seconds: 10, trace: false, w1: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--w1" {
                args.w1 = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad)?,
                "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

/// Threads a workload may keep busy: the host's CPU count.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Scratch directory inside the benchmark's own directory, removed on
/// drop (special-row files of the traced pass's disk-backed alignment).
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails while another run's directory is still there, as it should.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Two runs of one input returned the identical alignment.
pub fn same_result(a: &PipelineResult, b: &PipelineResult) -> bool {
    a.best_score == b.best_score
        && a.start == b.start
        && a.end == b.end
        && a.transcript == b.transcript
        && a.binary == b.binary
}

/// The transcript is a valid alignment of the reported span of `s0` x
/// `s1` and re-scores to `best_score`.
pub fn check_transcript(
    r: &PipelineResult,
    s0: &[u8],
    s1: &[u8],
    scoring: &Scoring,
) -> Result<(), String> {
    if r.best_score <= 0 {
        return Ok(());
    }
    let (a, b) = (&s0[r.start.0..r.end.0], &s1[r.start.1..r.end.1]);
    r.transcript.validate(a, b).map_err(|e| format!("transcript invalid: {e}"))?;
    let rescored = r.transcript.score(a, b, scoring);
    if rescored != r.best_score {
        return Err(format!("transcript re-scores to {rescored}, not {}", r.best_score));
    }
    Ok(())
}

/// What the single-thread child reports.
#[derive(Default, Debug, Clone, Copy)]
pub struct ChildOut {
    pub gcups: f64,
    pub rss_mib: f64,
    /// A checksum of the child's results for the parent's gate.
    pub check: i64,
}

/// Run this workload's single-thread baseline in a child process (so its
/// peak RSS is its own) and wait for it.
pub fn w1_child(args: &Args) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--w1"])
        .output()
        .map_err(|e| format!("spawn w1 child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("w1 child exited {}: {text}", out.status));
    }
    let mut c = ChildOut::default();
    for field in text.lines().last().unwrap_or("").split_whitespace() {
        match field.split_once('=') {
            Some(("gcups", v)) => c.gcups = v.parse().unwrap_or(0.0),
            Some(("rss_mib", v)) => c.rss_mib = v.parse().unwrap_or(0.0),
            Some(("check", v)) => c.check = v.parse().unwrap_or(-1),
            _ => {}
        }
    }
    Ok(c)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    if args.w1 {
        let out = match args.workload.as_str() {
            "chromosome" => pairs::w1(&pairs::CHROMOSOME, &args),
            "unrelated" => pairs::w1(&pairs::UNRELATED, &args),
            "serve_mix" => serve_mix::w1(&args),
            other => Err(format!("unknown workload {other}")),
        };
        return match out {
            Ok(c) => {
                println!("gcups={} rss_mib={} check={}", c.gcups, c.rss_mib, c.check);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench --w1: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let rep = match args.workload.as_str() {
        "chromosome" => pairs::run(&pairs::CHROMOSOME, &args, &work.0),
        "unrelated" => pairs::run(&pairs::UNRELATED, &args, &work.0),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (chromosome, unrelated, serve_mix)");
            return ExitCode::from(2);
        }
    };
    drop(work);
    rep.print(&args.workload, args.trace);
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
