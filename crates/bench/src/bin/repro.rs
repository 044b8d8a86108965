//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... | all | list
//!
//! experiments: table1..table10, fig11, fig12, ablation-split,
//!              ablation-blocks, ablation-utilization, ablation-linear-space,
//!              ablation-multigpu
//! env: REPRO_SCALE (default 1000)  REPRO_SEED (default 42)
//!      REPRO_JSON=FILE (append each report as a JSON line)
//! ```

use cudalign_bench::{repro_scale, repro_seed, tables};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    eprintln!(
        "repro: scale 1/{}, seed {}, {} cores",
        repro_scale(),
        repro_seed(),
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    );
    for arg in &args {
        match arg.as_str() {
            "list" => {
                for t in tables::ALL {
                    println!("{t}");
                }
            }
            "all" => {
                for t in tables::ALL {
                    eprintln!("repro: running {t} ...");
                    tables::run(t);
                }
            }
            other => {
                if !tables::run(other) {
                    eprintln!("unknown experiment {other:?}");
                    usage();
                    std::process::exit(2);
                }
            }
        }
    }
}

fn usage() {
    eprintln!("usage: repro <experiment>... | all | list");
    eprintln!("experiments: {}", tables::ALL.join(", "));
    eprintln!("env: REPRO_SCALE (default 1000), REPRO_SEED (default 42), REPRO_JSON (append JSON lines to a file)");
}
