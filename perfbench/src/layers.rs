//! Per-layer metric rows shared by every workload. A layer a workload
//! bypasses reads 0 and says so. Counts, cells and seconds taken from
//! traces are means per traced pipeline run, so they do not grow with the
//! number of runs or jobs traced.

use crate::report::{ratio, Report};
use crate::trace::TraceTotals;

pub fn kernel(rep: &mut Report, tr: &TraceTotals, tile_mcups: f64, probe: &str) {
    let total = tr.tiles_total() as usize;
    rep.layer("kernel.tile_mcups", tile_mcups, "MCUPS", 5, probe);
    let rungs = [
        ("kernel.tiles_i8", "per run: committed on the i8 rung"),
        ("kernel.tiles_i8_fb16", "per run: i8 overflowed, committed on i16"),
        ("kernel.tiles_i16", "per run: i8 ineligible, committed on i16"),
        ("kernel.tiles_scalar", "per run: i16 overflowed, re-ran scalar"),
    ];
    for ((name, note), n) in rungs.into_iter().zip(tr.tiles) {
        rep.layer(name, tr.per_run(n as f64), "count", tr.runs, note);
    }
    let escalated = (tr.tiles[1] + tr.tiles[3]) as f64;
    rep.layer(
        "kernel.escalation_ratio",
        ratio(escalated, total as f64),
        "ratio",
        total,
        "(i8_fb16 + scalar) / all tiles, stages 1-3",
    );
    let lookups = tr.profile_hits + tr.profile_misses;
    rep.layer(
        "kernel.profile_hit_ratio",
        ratio(tr.profile_hits as f64, lookups as f64),
        "ratio",
        lookups as usize,
        "profile-cache hits / lookups, stages 1-3",
    );
}

pub fn wavefront(
    rep: &mut Report,
    tr: &TraceTotals,
    tile_mcups: f64,
    wavefront_mcups: f64,
    probe: &str,
) {
    rep.layer("wavefront.mcups", wavefront_mcups, "MCUPS", 1, probe);
    rep.layer(
        "wavefront.pool_busy_ratio",
        ratio(tr.pool_busy_sum, tr.runs as f64),
        "ratio",
        tr.runs,
        "pool.busy_ratio gauge, mean over runs",
    );
    rep.layer(
        "wavefront.pool_handoffs",
        tr.per_run(tr.pool_handoffs as f64),
        "count",
        tr.runs,
        "pool.handoffs counter, mean per run",
    );
    rep.layer(
        "tax.kernel_to_wavefront",
        ratio(tile_mcups, wavefront_mcups),
        "ratio",
        1,
        "kernel.tile_mcups / wavefront.mcups (1/workers is ideal)",
    );
}

pub fn stage1(rep: &mut Report, tr: &TraceTotals, wavefront_mcups: f64) {
    let mcups = ratio(tr.stage_cells[0] as f64, tr.stage_s[0]) / 1e6;
    rep.layer(
        "stage1.s",
        tr.per_run(tr.stage_s[0]),
        "s",
        tr.runs,
        "stage_end seconds, mean per run",
    );
    rep.layer("stage1.mcups", mcups, "MCUPS", tr.runs, "stage-1 cells / stage-1 seconds");
    rep.layer(
        "stage1.special_rows",
        tr.per_run(tr.sra_rows as f64),
        "count",
        tr.runs,
        "sra storage_flush records, mean per run",
    );
    rep.layer(
        "stage1.sra_mb",
        tr.per_run(tr.sra_bytes as f64) / (1 << 20) as f64,
        "MiB",
        tr.runs,
        "sra storage_flush bytes, mean per run",
    );
    rep.layer(
        "storage.retries",
        tr.per_run(tr.storage_retries as f64),
        "count",
        tr.runs,
        "storage.retries counter, mean per run",
    );
    rep.layer(
        "storage.dropped_rows",
        tr.per_run(tr.storage_dropped_rows as f64),
        "count",
        tr.runs,
        "storage.dropped_rows counter, mean per run",
    );
    rep.layer(
        "tax.wavefront_to_stage1",
        ratio(wavefront_mcups, mcups),
        "ratio",
        1,
        "wavefront.mcups / stage1.mcups",
    );
}

/// The special-rows area on disk: one alignment's wall and stage-2
/// seconds (stage 2 reads the rows back).
pub fn disk(rep: &mut Report, align_s: f64, stage2_s: f64, note: &str) {
    rep.layer("storage.disk_align_s", align_s, "s", 1, note);
    rep.layer("storage.disk_stage2_s", stage2_s, "s", 1, note);
}

/// `crosspoints` is summed over the traced runs.
pub fn traceback(rep: &mut Report, tr: &TraceTotals, crosspoints: [usize; 4]) {
    const SECONDS: [&str; 4] = ["stage2.s", "stage3.s", "stage4.s", "stage5.s"];
    const CELLS: [&str; 4] = ["stage2.cells", "stage3.cells", "stage4.cells", "stage5.cells"];
    const CROSS: [&str; 4] = ["crosspoints.1", "crosspoints.2", "crosspoints.3", "crosspoints.4"];
    for k in 0..4 {
        let (secs, cells) = (tr.stage_s[k + 1], tr.stage_cells[k + 1] as f64);
        rep.layer(SECONDS[k], tr.per_run(secs), "s", tr.runs, "stage_end seconds, mean per run");
        rep.layer(CELLS[k], tr.per_run(cells), "count", tr.runs, "stage_end cells, mean per run");
    }
    for (name, n) in CROSS.into_iter().zip(crosspoints) {
        let note = "crosspoints after the stage, mean per run";
        rep.layer(name, tr.per_run(n as f64), "count", tr.runs, note);
    }
    let iterations = tr.per_run(tr.iterations as f64);
    rep.layer("stage4.iterations", iterations, "count", tr.runs, "iteration records, mean per run");
}

pub fn pipeline(rep: &mut Report, tr: &TraceTotals, cold_first_s: f64, cold_note: &str) {
    rep.layer(
        "pipeline.self_s",
        tr.per_run(tr.run_s - tr.stages_1_to_5_s()),
        "s",
        tr.runs,
        "run_end seconds - stage 1-5 spans, mean per run",
    );
    rep.layer("pipeline.cold_first_s", cold_first_s, "s", 1, cold_note);
    rep.layer(
        "tax.stage1_to_pipeline",
        ratio(tr.run_s, tr.stage_s[0]),
        "ratio",
        tr.runs,
        "run seconds / stage-1 seconds",
    );
}

pub fn serve_bypassed(rep: &mut Report) {
    for (name, unit) in [
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.run_ms_p50", "ms"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.queue_peak", "count"),
        ("serve.failed", "count"),
        ("serve.rejected", "count"),
        ("serve.strip_level_jobs_s", "jobs/s"),
    ] {
        rep.layer(name, 0.0, unit, 0, "serve layer bypassed");
    }
}

pub struct Scaling {
    pub w1_gcups: f64,
    pub efficiency: f64,
    pub w1_rss_mib: f64,
}

pub fn scaling(rep: &mut Report, s: &Scaling, how: &str) {
    rep.layer("scaling.w1_gcups", s.w1_gcups, "GCUPS", 1, how);
    rep.layer("scaling.efficiency", s.efficiency, "ratio", 1, "GCUPS / (threads * w1_gcups)");
    rep.layer(
        "scaling.w1_peak_rss_mb",
        s.w1_rss_mib,
        "MiB",
        1,
        "VmHWM of the single-thread process",
    );
}

pub fn trace_overhead(
    rep: &mut Report,
    traced_s: f64,
    untraced_s: f64,
    samples: usize,
    note: &str,
) {
    rep.layer(
        "obs.trace_overhead_ratio",
        ratio(traced_s, untraced_s) - 1.0,
        "ratio",
        samples,
        note,
    );
}
