//! One generator per paper table/figure. Each prints a [`Report`] with
//! measured values (CPU engine at the configured scale) and, where the
//! paper reports GPU runtimes, paper-scale projections from the GTX 285
//! device model.

use crate::report::{big, sci, secs, Report};
use crate::runs::{
    paper_sra_bytes, project_seconds, remove_repro_dir, repro_config, run_pipeline,
    scaled_sra_bytes, Workload,
};
use crate::{repro_scale, repro_seed};
use cudalign::sra::LineStore;
use cudalign::{stage1, stage2, stage3, stage4, stage5, stage6};
use cudalign::{PipelineConfig, StageContext, WorkerPool};
use gpu_sim::DeviceModel;
use seqio::DatasetRegistry;
use std::time::Instant;

/// Every experiment id, in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "fig11",
    "fig12",
    "ablation-split",
    "ablation-blocks",
    "ablation-utilization",
    "ablation-linear-space",
    "ablation-multigpu",
];

/// Run one experiment by id, then remove its special-row directory
/// ([`remove_repro_dir`]); returns `false` for unknown ids.
pub fn run(name: &str) -> bool {
    match name {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(),
        "table6" => table6(),
        "table7" => table7(),
        "table8" => table8(),
        "table9" => table9(),
        "table10" => table10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "ablation-split" => ablation_split(),
        "ablation-blocks" => ablation_blocks(),
        "ablation-utilization" => ablation_utilization(),
        "ablation-linear-space" => ablation_linear_space(),
        "ablation-multigpu" => ablation_multigpu(),
        _ => return false,
    }
    remove_repro_dir();
    true
}

fn workloads() -> Vec<Workload> {
    let reg = DatasetRegistry::paper();
    let scale = repro_scale();
    let seed = repro_seed();
    reg.pairs().iter().map(|p| Workload::new(p, scale, seed)).collect()
}

fn chromosome_workload() -> Workload {
    let reg = DatasetRegistry::paper();
    Workload::new(reg.chromosome_pair(), repro_scale(), repro_seed())
}

/// Table I — the related-work survey (static context; no measurement).
pub fn table1() {
    let mut r = Report::new(
        "Table I: GPU Smith-Waterman papers (context, reprinted from the paper)",
        &["Paper", "Align", "Max. Query", "GCUPS", "GPU"],
    );
    let rows: &[(&str, &str, &str, &str, &str)] = &[
        ("DASW [6]", "yes", "16,384", "0.2", "7800 GTX"),
        ("Weiguo Liu [7]", "no", "4,095", "0.6", "7800 GTX"),
        ("SW-CUDA [8]", "no", "567", "3.4", "8800 GTX"),
        ("CUDASW++ 1.0 [9]", "no", "5,478", "16.1", "GTX 295"),
        ("Ligowski [10]", "no", "1,000", "14.5", "9800 GX2"),
        ("CUDASW++ 2.0 [11]", "no", "5,478", "29.7", "GTX 295"),
        ("CUDA-SSCA#1 [12]", "yes", "1,024", "1.0", "GTX 295"),
        ("CUDAlign 1.0 [13]", "no", "32,799,110", "20.3", "GTX 285"),
        ("CUDAlign 2.0 (this repro)", "yes", "unbounded*", "model 23.8", "GTX 285 (modelled)"),
    ];
    for (a, b, c, d, e) in rows {
        r.row(&[a.to_string(), b.to_string(), c.to_string(), d.to_string(), e.to_string()]);
    }
    r.note = "*bounded only by disk (SRA) and bus memory, as in the paper".into();
    r.print();
}

/// Table II — the sequence pairs, at paper scale and reproduction scale.
pub fn table2() {
    let scale = repro_scale();
    let mut r = Report::new(
        format!("Table II: sequence pairs (synthetic homologs, scale 1/{scale})"),
        &["Comparison", "Real size", "Scaled size", "Accession", "Name", "Similarity class"],
    );
    for w in workloads() {
        let class = format!("{:?}", w.spec.relation);
        let class = class.split_whitespace().next().unwrap_or("?").trim_end_matches('{');
        r.row(&[
            w.spec.key.to_string(),
            big(w.spec.real_sizes.0 as u64),
            big(w.s0.len() as u64),
            w.spec.accessions.0.to_string(),
            w.spec.organisms.0.to_string(),
            class.to_string(),
        ]);
        r.row(&[
            String::new(),
            big(w.spec.real_sizes.1 as u64),
            big(w.s1.len() as u64),
            w.spec.accessions.1.to_string(),
            w.spec.organisms.1.to_string(),
            String::new(),
        ]);
    }
    r.note =
        "sequences are synthetic stand-ins with the similarity regime of the paper's Table III"
            .into();
    r.print();
}

/// Table III — score, end/start positions, length and gaps per pair.
pub fn table3() {
    let mut r = Report::new(
        format!("Table III: stage 1-5 results per pair (scale 1/{})", repro_scale()),
        &[
            "Comparison",
            "Cells",
            "Score",
            "End Position",
            "Start Position",
            "Length",
            "Gaps",
            "paper Score",
            "paper Length",
        ],
    );
    for w in workloads() {
        let cfg = repro_config(&w);
        let res = run_pipeline(&w, &cfg);
        let gaps = res.binary.gap_columns();
        let paper = crate::paper_data::paper_pair(w.spec.key);
        r.row(&[
            w.spec.key.to_string(),
            sci(w.cells() as f64),
            big(res.best_score.max(0) as u64),
            format!("({}, {})", res.end.0, res.end.1),
            format!("({}, {})", res.start.0, res.start.1),
            big(res.transcript.len() as u64),
            big(gaps as u64),
            paper.map_or("-".into(), |p| big(p.score as u64)),
            paper.map_or("-".into(), |p| big(p.length)),
        ]);
    }
    r.note = "scores are for the synthetic pairs; the similarity regime (tiny vs whole-sequence alignments) mirrors the paper".into();
    r.print();
}

/// Table IV — Stage 1 with and without flushing special rows.
pub fn table4() {
    let scale = repro_scale();
    let device = DeviceModel::gtx285();
    let mut r = Report::new(
        format!("Table IV: stage 1 runtimes with/without SRA flushing (scale 1/{scale})"),
        &[
            "Comparison",
            "NoFlush time(s)",
            "NoFlush MCUPS",
            "SRA",
            "Flush time(s)",
            "Flush MCUPS",
            "rows",
            "GTX285 model (s)",
            "paper flush (s)",
            "paper MCUPS",
        ],
    );
    for w in workloads() {
        let mut cfg = repro_config(&w);

        let pool = WorkerPool::new(cfg.workers);

        // Without flushing.
        cfg.sra_bytes = 0;
        let fp = cfg.job_fingerprint(w.s0.len(), w.s1.len());
        let mut rows0 = LineStore::new(&cfg.backend, 0, "row", fp).unwrap();
        let t = Instant::now();
        let res0 = stage1::run(
            &mut StageContext::new(w.s0.bases(), w.s1.bases(), &cfg, &pool),
            &mut rows0,
            None,
            None,
        )
        .unwrap();
        let t0 = t.elapsed().as_secs_f64();

        // With flushing at the paper's (scaled) SRA size.
        let sra = scaled_sra_bytes(paper_sra_bytes(w.spec.key), w.scale, w.s1.len());
        cfg.sra_bytes = sra;
        let mut rows1 = LineStore::new(&cfg.backend, sra, "row", fp).unwrap();
        let t = Instant::now();
        let res1 = stage1::run(
            &mut StageContext::new(w.s0.bases(), w.s1.bases(), &cfg, &pool),
            &mut rows1,
            None,
            None,
        )
        .unwrap();
        let t1 = t.elapsed().as_secs_f64();

        let projected = project_seconds(&device, res1.cells, res1.flushed_bytes, scale);
        let paper = crate::paper_data::paper_pair(w.spec.key);
        r.row(&[
            w.spec.key.to_string(),
            secs(t0),
            format!("{:.0}", DeviceModel::mcups(res0.cells, t0)),
            human_bytes(sra),
            secs(t1),
            format!("{:.0}", DeviceModel::mcups(res1.cells, t1)),
            res1.special_rows.len().to_string(),
            secs(projected),
            paper.map_or("-".into(), |p| secs(p.stage1_flush_s)),
            paper.map_or("-".into(), |p| format!("{:.0}", p.stage1_flush_mcups)),
        ]);
    }
    r.note = "model column projects paper-scale GTX 285 time from measured cells/bytes (23.8 GCUPS + 13 s/GB)".into();
    r.print();
}

/// Table V — per-stage runtimes across pairs.
pub fn table5() {
    let mut r = Report::new(
        format!("Table V: per-stage runtimes (seconds, scale 1/{})", repro_scale()),
        &["Comparison", "1", "2", "3", "4", "5+6", "Total", "stage1 frac", "paper frac"],
    );
    for w in workloads() {
        let cfg = repro_config(&w);
        let res = run_pipeline(&w, &cfg);
        // Stage 6: timed reconstruction (text rendering of the alignment).
        let t6 = Instant::now();
        let _ = res.binary.to_transcript(w.s0.bases(), w.s1.bases());
        let t6 = t6.elapsed().as_secs_f64();
        let s = &res.stats.stage_seconds;
        let paper = crate::paper_data::paper_pair(w.spec.key);
        r.row(&[
            w.spec.key.to_string(),
            secs(s[0]),
            secs(s[1]),
            secs(s[2]),
            secs(s[3]),
            secs(s[4] + t6),
            secs(res.stats.total_seconds + t6),
            format!("{:.0}%", 100.0 * s[0] / (res.stats.total_seconds + t6).max(1e-9)),
            paper.map_or("-".into(), |p| format!("{:.0}%", 100.0 * p.stage_seconds[0] / p.total_s)),
        ]);
    }
    r.note = "same shape as the paper: stage 1 dominates; stages 2-5 only matter when the optimal alignment is long".into();
    r.print();
}

/// Table VI — speedups against the Z-align-style CPU baseline.
///
/// Two groups of columns: *measured* (both aligners on this machine's
/// cores — with one core the speedup only reflects CUDAlign's smaller
/// processed area) and *paper-scale model* (CUDAlign on the modelled
/// GTX 285 vs Z-align extrapolated from its measured single-core MCUPS,
/// with a 64-core column assuming the cluster's near-linear scaling).
pub fn table6() {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let device = DeviceModel::gtx285();
    let scale = repro_scale();
    let mut r = Report::new(
        format!(
            "Table VI: CUDAlign vs Z-align-style CPU baseline (scale 1/{scale}, {cores} core(s))"
        ),
        &[
            "Size",
            "Z-align(s)",
            "CUDAlign(s)",
            "meas. speedup",
            "model Z 1core(s)",
            "model Z 64c(s)",
            "model GTX285(s)",
            "speedup 1c",
            "speedup 64c",
        ],
    );
    // The paper's Table VI sizes map onto these registry pairs.
    let keys = [
        "162Kx172K",
        "543Kx536K",
        "1044Kx1073K",
        "3147Kx3283K",
        "5227Kx5229K",
        "23012Kx24544K",
        "32799Kx46944K",
    ];
    let reg = DatasetRegistry::paper();
    for key in keys {
        let w = Workload::new(reg.get(key).unwrap(), repro_scale(), repro_seed());
        let sc = sw_core::Scoring::paper();

        let t = Instant::now();
        let z1 = baselines::zalign(w.s0.bases(), w.s1.bases(), &sc, cores);
        let t_z1 = t.elapsed().as_secs_f64();

        let cfg = repro_config(&w);
        let t = Instant::now();
        let res = run_pipeline(&w, &cfg);
        let t_c = t.elapsed().as_secs_f64();
        assert_eq!(res.best_score, z1.score, "pipeline and baseline must agree");

        // Paper-scale projections. Z-align's work is ~z1.cells scaled by
        // scale^2 at its measured single-core MCUPS.
        let z_mcups = z1.cells as f64 / t_z1.max(1e-9) / 1e6;
        let s2 = (scale as f64) * (scale as f64);
        let z_paper_1c = z1.cells as f64 * s2 / (z_mcups * 1e6);
        let z_paper_64c = z_paper_1c / 64.0;
        let gtx =
            project_seconds(&device, res.stats.total_cells(), res.stats.sra_bytes_used, scale);

        r.row(&[
            key.to_string(),
            secs(t_z1),
            secs(t_c),
            format!("{:.2}", t_z1 / t_c.max(1e-9)),
            secs(z_paper_1c),
            secs(z_paper_64c),
            secs(gtx),
            format!("{:.0}", z_paper_1c / gtx.max(1e-9)),
            format!("{:.2}", z_paper_64c / gtx.max(1e-9)),
        ]);
    }
    r.note = "paper reports 521-702x (1 core) and 12.6-19.5x (64 cores) against 2009 CPUs; \
              today's cores are ~5x faster per core while the GTX 285 model is pinned to 2009, \
              so the model columns land proportionally lower — the shape (GPU wins, margin grows \
              with size, 64 cores close most of the gap) is what reproduces"
        .into();
    r.print();
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1}G", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}M", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}K", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// The paper's Table VII/VIII SRA sweep points, scaled.
fn sra_sweep(w: &Workload) -> Vec<(String, u64)> {
    [10u64, 20, 30, 40, 50]
        .iter()
        .map(|gb| {
            let paper = gb << 30;
            (format!("{gb}GB/s^2"), scaled_sra_bytes(paper, w.scale, w.s1.len()))
        })
        .collect()
}

/// Table VII — chromosome comparison: per-stage runtimes vs SRA size.
pub fn table7() {
    let w = chromosome_workload();
    let mut r = Report::new(
        format!("Table VII: chromosome pair stage runtimes vs SRA size (scale 1/{})", w.scale),
        &["SRA", "1", "2", "3", "4", "5", "6", "Sum", "rows"],
    );
    // 0GB row: stage 1 only, like the paper.
    {
        let mut cfg = repro_config(&w);
        cfg.sra_bytes = 0;
        let pool = WorkerPool::new(cfg.workers);
        let fp = cfg.job_fingerprint(w.s0.len(), w.s1.len());
        let mut rows = LineStore::new(&cfg.backend, 0, "row", fp).unwrap();
        let t = Instant::now();
        let _ = stage1::run(
            &mut StageContext::new(w.s0.bases(), w.s1.bases(), &cfg, &pool),
            &mut rows,
            None,
            None,
        );
        r.row(&[
            "0".into(),
            secs(t.elapsed().as_secs_f64()),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "0".into(),
        ]);
    }
    for (label, sra) in sra_sweep(&w) {
        let mut cfg = repro_config(&w);
        cfg.sra_bytes = sra;
        cfg.sca_bytes = sra / 4;
        let res = run_pipeline(&w, &cfg);
        let t6 = Instant::now();
        let _ = res.binary.to_transcript(w.s0.bases(), w.s1.bases());
        let t6 = t6.elapsed().as_secs_f64();
        let s = &res.stats.stage_seconds;
        r.row(&[
            label,
            secs(s[0]),
            secs(s[1]),
            secs(s[2]),
            secs(s[3]),
            secs(s[4]),
            secs(t6),
            secs(res.stats.total_seconds + t6),
            res.stats.special_rows.to_string(),
        ]);
    }
    r.note = "larger SRA: stage 1 slightly slower (flush), stage 2/4 faster — the paper's tradeoff"
        .into();
    r.print();
}

/// Table VIII — execution statistics vs SRA size.
pub fn table8() {
    let w = chromosome_workload();
    let mut r = Report::new(
        format!("Table VIII: execution statistics vs SRA size (scale 1/{})", w.scale),
        &[
            "SRA",
            "B1",
            "B2",
            "B3",
            "Cells1",
            "Cells2",
            "Cells3",
            "|L1|",
            "|L2|",
            "|L3|",
            "Hmax",
            "Wmax",
            "VRAM1",
            "VRAM2",
            "VRAM3",
            "paper |L2|",
            "paper |L3|",
        ],
    );
    let paper_sweep = crate::paper_data::PAPER_SRA_SWEEP;
    for ((label, sra), paper) in sra_sweep(&w).into_iter().zip(paper_sweep) {
        let mut cfg = repro_config(&w);
        cfg.sra_bytes = sra;
        cfg.sca_bytes = sra / 4;
        let res = run_pipeline(&w, &cfg);
        let st = &res.stats;
        r.row(&[
            label,
            st.effective_blocks[0].to_string(),
            st.effective_blocks[1].to_string(),
            st.effective_blocks[2].to_string(),
            sci(st.stage_cells[0] as f64),
            sci(st.stage_cells[1] as f64),
            sci(st.stage_cells[2] as f64),
            st.crosspoints[0].to_string(),
            st.crosspoints[1].to_string(),
            st.crosspoints[2].to_string(),
            st.h_max.to_string(),
            st.w_max.to_string(),
            human_bytes(st.vram_bytes[0]),
            human_bytes(st.vram_bytes[1]),
            human_bytes(st.vram_bytes[2]),
            paper.l2.to_string(),
            paper.l3.to_string(),
        ]);
    }
    r.note = "more SRA -> more special rows -> more crosspoints (|L2|, |L3|) and smaller Hmax/Wmax; B3 shrinks under the minimum-size requirement".into();
    r.print();
}

/// Run stages 1-3 on the chromosome pair, returning what Stage 4 needs.
fn stages_123(
    w: &Workload,
    cfg: &PipelineConfig,
) -> (cudalign::CrosspointChain, LineStore<gpu_sim::CellHF>) {
    let pool = WorkerPool::new(cfg.workers);
    let fp = cfg.job_fingerprint(w.s0.len(), w.s1.len());
    let mut rows = LineStore::new(&cfg.backend, cfg.sra_bytes, "row", fp).unwrap();
    let s1r = stage1::run(
        &mut StageContext::new(w.s0.bases(), w.s1.bases(), cfg, &pool),
        &mut rows,
        None,
        None,
    )
    .unwrap();
    assert!(s1r.best_score > 0, "chromosome pair must align");
    let mut cols = LineStore::new(&cfg.backend, cfg.sca_bytes, "col", fp).unwrap();
    let s2r = stage2::run(
        &mut StageContext::new(w.s0.bases(), w.s1.bases(), cfg, &pool),
        s1r.best_score,
        s1r.end,
        &mut rows,
        &mut cols,
    )
    .unwrap();
    let s3r = stage3::run(
        &mut StageContext::new(w.s0.bases(), w.s1.bases(), cfg, &pool),
        &s2r.chain,
        &cols,
    )
    .unwrap();
    (s3r.chain, rows)
}

/// Table IX — Stage-4 iterations: classic MM (Time1) vs orthogonal (Time2).
pub fn table9() {
    let w = chromosome_workload();
    let mut cfg = repro_config(&w);
    cfg.max_partition_size = 16;
    let (l3, _rows) = stages_123(&w, &cfg);

    let pool = WorkerPool::new(cfg.workers);
    cfg.orthogonal_stage4 = false;
    let classic =
        stage4::run(&mut StageContext::new(w.s0.bases(), w.s1.bases(), &cfg, &pool), &l3).unwrap();
    cfg.orthogonal_stage4 = true;
    let orth =
        stage4::run(&mut StageContext::new(w.s0.bases(), w.s1.bases(), &cfg, &pool), &l3).unwrap();

    let mut r = Report::new(
        format!(
            "Table IX: stage 4 iterations, MM (Time1) vs orthogonal (Time2), scale 1/{}",
            w.scale
        ),
        &["It.", "Hmax", "Wmax", "crosspoints", "Time1 (s)", "Time2 (s)", "Cells1", "Cells2"],
    );
    let n = classic.iterations.len().max(orth.iterations.len());
    for k in 0..n {
        let c = classic.iterations.get(k);
        let o = orth.iterations.get(k);
        let pick = o.or(c).unwrap();
        r.row(&[
            (k + 1).to_string(),
            pick.h_max.to_string(),
            pick.w_max.to_string(),
            pick.crosspoints.to_string(),
            c.map_or("-".into(), |it| secs(it.seconds)),
            o.map_or("-".into(), |it| secs(it.seconds)),
            c.map_or("-".into(), |it| big(it.cells)),
            o.map_or("-".into(), |it| big(it.cells)),
        ]);
    }
    let gain = 1.0 - orth.cells as f64 / classic.cells.max(1) as f64;
    r.note = format!(
        "orthogonal execution processed {:.1}% fewer cells (paper: ~25%); totals {} vs {}",
        gain * 100.0,
        big(orth.cells),
        big(classic.cells)
    );
    r.print();
}

/// Table X — alignment composition of the chromosome pair.
pub fn table10() {
    let w = chromosome_workload();
    let cfg = repro_config(&w);
    let res = run_pipeline(&w, &cfg);
    let stats = res.transcript.stats();
    let rows = stats.score_breakdown(&cfg.scoring);
    let total = stats.total_columns().max(1);

    let mut r = Report::new(
        format!("Table X: chromosome alignment composition (scale 1/{})", w.scale),
        &["", "occurrences", "%", "score"],
    );
    for (name, occ, score) in rows {
        r.row(&[
            name,
            big(occ as u64),
            format!("{:.1}%", 100.0 * occ as f64 / total as f64),
            score.to_string(),
        ]);
    }
    r.note = format!(
        "paper: 94.4% matches / 1.5% mismatches / 0.2% openings / 3.9% extensions; binary file {} bytes",
        res.stats.binary_bytes
    );
    r.print();
}

/// Figure 11 — runtime vs matrix size (log-log series).
pub fn fig11() {
    let mut r = Report::new(
        format!("Figure 11: runtime vs DP matrix size (scale 1/{})", repro_scale()),
        &["Comparison", "Cells", "Time (s)", "MCUPS", "GTX285 model (s)", "model MCUPS"],
    );
    let device = DeviceModel::gtx285();
    for w in workloads() {
        let cfg = repro_config(&w);
        let t = Instant::now();
        let res = run_pipeline(&w, &cfg);
        let dt = t.elapsed().as_secs_f64();
        let model_t =
            project_seconds(&device, res.stats.total_cells(), res.stats.sra_bytes_used, w.scale);
        r.row(&[
            w.spec.key.to_string(),
            sci(w.cells() as f64),
            secs(dt),
            format!("{:.0}", DeviceModel::mcups(w.cells(), dt)),
            secs(model_t),
            format!("{:.0}", DeviceModel::mcups(w.paper_cells(), model_t)),
        ]);
    }
    r.note = "MCUPS is roughly flat for megacell+ matrices (the paper's ~23,000 MCUPS plateau, CPU-scaled)".into();
    r.print();
}

/// Figure 12 — dot plot of the chromosome alignment.
pub fn fig12() {
    let w = chromosome_workload();
    let cfg = repro_config(&w);
    let res = run_pipeline(&w, &cfg);
    println!("\n== Figure 12: chromosome alignment dot plot (scale 1/{}) ==", w.scale);
    println!("{}", stage6::summary(&res.binary, &res.transcript));
    let plot = stage6::dot_plot(w.s0.len(), w.s1.len(), &res.binary, &res.transcript, 24, 72);
    println!("{plot}");
}

/// Ablation: balanced vs middle-row splitting in Stage 4 (Figure 10's
/// claim, measured).
pub fn ablation_split() {
    let w = chromosome_workload();
    let mut cfg = repro_config(&w);
    cfg.max_partition_size = 16;
    let (l3, _rows) = stages_123(&w, &cfg);

    let mut r = Report::new(
        format!("Ablation: balanced vs middle-row splitting (scale 1/{})", w.scale),
        &["Mode", "iterations", "cells", "final crosspoints", "time (s)"],
    );
    let pool = WorkerPool::new(cfg.workers);
    for (label, balanced) in [("balanced", true), ("middle-row", false)] {
        cfg.balanced_split = balanced;
        let t = Instant::now();
        let res = stage4::run(&mut StageContext::new(w.s0.bases(), w.s1.bases(), &cfg, &pool), &l3)
            .unwrap();
        r.row(&[
            label.to_string(),
            res.iterations.len().to_string(),
            big(res.cells),
            res.chain.len().to_string(),
            secs(t.elapsed().as_secs_f64()),
        ]);
    }
    r.note = "balanced splitting halves the larger dimension, reducing iterations on narrow partitions (paper Figure 10)".into();
    r.print();
}

/// Ablation: Stage-3 block count under the minimum size requirement.
pub fn ablation_blocks() {
    let w = chromosome_workload();
    let mut r = Report::new(
        format!("Ablation: stage 2/3 runtimes vs configured B (scale 1/{})", w.scale),
        &["B23", "stage2 (s)", "stage3 (s)", "B2 eff", "B3 eff", "|L3|"],
    );
    for blocks in [4usize, 15, 30, 60] {
        let mut cfg = repro_config(&w);
        cfg.grid23.blocks = blocks;
        let res = run_pipeline(&w, &cfg);
        r.row(&[
            blocks.to_string(),
            secs(res.stats.stage_seconds[1]),
            secs(res.stats.stage_seconds[2]),
            res.stats.effective_blocks[1].to_string(),
            res.stats.effective_blocks[2].to_string(),
            res.stats.crosspoints[2].to_string(),
        ]);
    }
    r.note = "narrow partitions force B3 below the configured B (minimum size requirement), as in the paper's Table VIII".into();
    r.print();
}

/// Ablation: wavefront utilization vs grid shape — the property that
/// CUDAlign 1.0's *cells delegation* provides on the GPU. The pipeline's
/// tall grids (many block rows, few block columns) keep nearly every
/// block slot busy; squat grids drain at the corners.
pub fn ablation_utilization() {
    let w = chromosome_workload();
    let mut r = Report::new(
        format!("Ablation: stage-1 wavefront utilization vs grid shape (scale 1/{})", w.scale),
        &["grid (BxTxalpha)", "block rows", "block cols", "diagonals", "utilization"],
    );
    let a = w.s0.bases();
    let b = w.s1.bases();
    let pool = WorkerPool::new(0);
    for grid in [
        gpu_sim::GridSpec { blocks: 4, threads: 8, alpha: 2 }, // tall
        gpu_sim::GridSpec { blocks: 16, threads: 8, alpha: 2 },
        gpu_sim::GridSpec { blocks: 64, threads: 8, alpha: 2 },
        gpu_sim::GridSpec { blocks: 64, threads: 16, alpha: 8 }, // squat
    ] {
        let job = gpu_sim::RegionJob {
            a,
            b,
            scoring: sw_core::Scoring::paper(),
            mode: gpu_sim::Mode::Local,
            grid,
            workers: 0,
            watch: None,
        };
        let res = gpu_sim::wavefront::run_pooled(&pool, &job, &mut gpu_sim::NoObserver)
            .expect("no worker panic");
        r.row(&[
            format!("{}x{}x{}", grid.blocks, grid.threads, grid.alpha),
            res.layout.block_rows.to_string(),
            res.layout.block_cols.to_string(),
            res.diagonals_run.to_string(),
            format!("{:.3}", res.utilization()),
        ]);
    }
    r.note = "tall grids stay ~fully parallel except at the start/end — the paper's cells-delegation claim".into();
    r.print();
}

/// Ablation: linear-space traceback strategies (the paper's Section
/// III-A landscape): Myers-Miller recomputes ~2x the matrix; FastLSA
/// trades `k` cached rows for ~`1 + 1/k`; CUDAlign's special-rows design
/// moves the cache to disk and reuses the Stage-1 pass.
pub fn ablation_linear_space() {
    let w = chromosome_workload();
    let sc = sw_core::Scoring::paper();
    let mut r = Report::new(
        format!("Ablation: linear-space strategies on the chromosome pair (scale 1/{})", w.scale),
        &["Strategy", "total cells", "vs matrix", "aux memory", "time (s)"],
    );
    let a = w.s0.bases();
    let b = w.s1.bases();
    let mn = (a.len() * b.len()) as f64;

    let t = Instant::now();
    let mm = baselines::mm_local_align(a, b, &sc);
    r.row(&[
        "Myers-Miller (1 core)".into(),
        big(mm.cells),
        format!("{:.2}x", mm.cells as f64 / mn),
        human_bytes(8 * (a.len() as u64 + b.len() as u64)),
        secs(t.elapsed().as_secs_f64()),
    ]);

    for buffer in [1u64 << 16, 1 << 20] {
        let t = Instant::now();
        let fl = baselines::fastlsa_local(a, b, &sc, buffer);
        assert_eq!(fl.score, mm.score, "aligners disagree");
        r.row(&[
            format!("FastLSA (buffer {})", human_bytes(buffer)),
            big(fl.stats.total_cells()),
            format!("{:.2}x", fl.stats.total_cells() as f64 / mn),
            human_bytes(fl.stats.cache_bytes + buffer),
            secs(t.elapsed().as_secs_f64()),
        ]);
    }

    let cfg = repro_config(&w);
    let t = Instant::now();
    let res = run_pipeline(&w, &cfg);
    assert_eq!(res.best_score, mm.score, "pipeline disagrees");
    r.row(&[
        "CUDAlign 2.0 pipeline".into(),
        big(res.stats.total_cells()),
        format!("{:.2}x", res.stats.total_cells() as f64 / mn),
        format!("{} disk", human_bytes(res.stats.sra_bytes_used + res.stats.sca_bytes_used)),
        secs(t.elapsed().as_secs_f64()),
    ]);
    r.note = "all strategies reach the same optimum; they differ in recomputation vs cache".into();
    r.print();
}

/// Ablation: multi-device column splitting (the paper's dual-card future
/// work). Results are verified identical to the single-card engine; the
/// model projects paper-scale Stage-1 time per card count.
pub fn ablation_multigpu() {
    let w = chromosome_workload();
    let device = DeviceModel::gtx285();
    let scale = repro_scale();
    let mut r = Report::new(
        format!("Ablation: stage 1 across simulated cards (scale 1/{scale})"),
        &["cards", "measured (s)", "exchange cells", "paper-scale model (s)", "vs 1 card"],
    );
    let job = gpu_sim::RegionJob {
        a: w.s0.bases(),
        b: w.s1.bases(),
        scoring: sw_core::Scoring::paper(),
        mode: gpu_sim::Mode::Local,
        grid: gpu_sim::GridSpec::stage1_gtx285(),
        workers: 0,
        watch: None,
    };
    let pool = WorkerPool::new(0);
    let mut base_model = 0.0f64;
    let mut reference: Option<Option<(sw_core::Score, usize, usize)>> = None;
    for cards in [1usize, 2, 4] {
        let t = Instant::now();
        let res = gpu_sim::multi::run_split(&pool, &job, cards).expect("no worker panic");
        let dt = t.elapsed().as_secs_f64();
        match &reference {
            None => reference = Some(res.best),
            Some(b) => assert_eq!(&res.best, b, "multi-card result must not change"),
        }
        let s2 = (scale as u64) * (scale as u64);
        let model = device.multi_device_seconds(
            res.cells.saturating_mul(s2),
            cards,
            res.exchanged_cells.saturating_mul(scale as u64) * 8,
        );
        if cards == 1 {
            base_model = model;
        }
        r.row(&[
            cards.to_string(),
            secs(dt),
            big(res.exchanged_cells),
            secs(model),
            format!("{:.2}x", base_model / model.max(1e-9)),
        ]);
    }
    r.note = "identical results per card count; the model halves stage-1 compute per doubling, minus PCIe exchange".into();
    r.print();
}

// keep stage5 linked for doc purposes (stage 5 timing is inside table5/7)
#[allow(unused_imports)]
use stage5 as _stage5;
