//! Per-layer numbers derived from a pipeline's NDJSON trace records.

use cudalign::obs::{parse_json, validate_trace, Json};

/// Totals from one trace (a traced `Pipeline::align_observed` run or one
/// serve job's report); serve totals add traces together.
#[derive(Default, Debug, Clone)]
pub struct TraceTotals {
    /// Traces that opened a pipeline run.
    pub runs: usize,
    /// `run_end` seconds.
    pub run_s: f64,
    /// `stage_end` seconds per stage 1..=6.
    pub stage_s: [f64; 6],
    /// `stage_end` cells per stage 1..=6.
    pub stage_cells: [u64; 6],
    /// Kernel tiles per rung: i8, i8 then i16, i16, scalar.
    pub tiles: [u64; 4],
    pub profile_hits: u64,
    pub profile_misses: u64,
    /// `storage_flush` records and bytes into the special-rows area.
    pub sra_rows: u64,
    pub sra_bytes: u64,
    /// Stage-4 `iteration` records.
    pub iterations: u64,
    /// `pool.handoffs` from the metrics dump.
    pub pool_handoffs: u64,
    /// Sum of `pool.busy_ratio` gauges (divide by `runs` for the mean).
    pub pool_busy_sum: f64,
    pub storage_retries: u64,
    pub storage_dropped_rows: u64,
    /// Serve jobs: seconds from `job_submit` to `job_start`, and from
    /// `job_start` to `job_end`, one entry per job.
    pub queue_wait_s: Vec<f64>,
    pub job_run_s: Vec<f64>,
}

impl TraceTotals {
    /// Validate `text` against the trace schema and fold its records in.
    pub fn add_trace(&mut self, text: &str) -> Result<(), String> {
        validate_trace(text).map_err(|e| format!("trace fails validation: {e:?}"))?;
        let (mut submit, mut start) = (None, None);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let rec = parse_json(line).map_err(|e| format!("trace record: {e:?}"))?;
            let t = num(&rec, "t");
            match rec.get("ev").and_then(Json::str_val).unwrap_or("") {
                "run_begin" => self.runs += 1,
                "run_end" => self.run_s += num(&rec, "seconds"),
                "stage_end" => {
                    let i = (num(&rec, "stage") as usize).clamp(1, 6) - 1;
                    self.stage_s[i] += num(&rec, "seconds");
                    self.stage_cells[i] += num(&rec, "cells") as u64;
                }
                "kernel" => {
                    for (slot, key) in self.tiles.iter_mut().zip([
                        "striped8",
                        "striped8_fb16",
                        "striped16",
                        "fallback",
                    ]) {
                        *slot += num(&rec, key) as u64;
                    }
                    self.profile_hits += num(&rec, "profile_hits") as u64;
                    self.profile_misses += num(&rec, "profile_misses") as u64;
                }
                "storage_flush" if rec.get("store").and_then(Json::str_val) == Some("sra") => {
                    self.sra_rows += 1;
                    self.sra_bytes += num(&rec, "bytes") as u64;
                }
                "iteration" => self.iterations += 1,
                "metrics" => {
                    let counter = |k: &str| {
                        rec.get("counters")
                            .and_then(|c| c.get(k))
                            .and_then(Json::num)
                            .unwrap_or(0.0)
                    };
                    self.pool_handoffs += counter("pool.handoffs") as u64;
                    self.storage_retries += counter("storage.retries") as u64;
                    self.storage_dropped_rows += counter("storage.dropped_rows") as u64;
                    self.pool_busy_sum += rec
                        .get("gauges")
                        .and_then(|g| g.get("pool.busy_ratio"))
                        .and_then(Json::num)
                        .unwrap_or(0.0);
                }
                "job_submit" => submit = Some(t),
                "job_start" => start = Some(t),
                "job_end" => {
                    if let (Some(s), Some(b)) = (submit, start) {
                        self.queue_wait_s.push(b - s);
                        self.job_run_s.push(t - b);
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// `total / runs`: a total over every traced run as a mean per run.
    pub fn per_run(&self, total: f64) -> f64 {
        crate::report::ratio(total, self.runs as f64)
    }

    /// Tiles committed on any rung.
    pub fn tiles_total(&self) -> u64 {
        self.tiles.iter().sum()
    }

    /// Seconds inside the stage spans 1..=5 (stage 6 is the pipeline's
    /// own packing epilogue).
    pub fn stages_1_to_5_s(&self) -> f64 {
        self.stage_s[..5].iter().sum()
    }
}

fn num(rec: &Json, key: &str) -> f64 {
    rec.get(key).and_then(Json::num).unwrap_or(0.0)
}
