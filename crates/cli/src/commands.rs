//! Command implementations. Each returns the text to print so the logic
//! is unit-testable without a process boundary.

use crate::args::{AlignArgs, DatasetArgs, GenerateArgs, ServeArgs, ViewArgs};
use cudalign::config::{CheckpointPolicy, SraBackend};
use cudalign::obs::{validate_trace, Event, Obs, Progress, Recorder, TraceWriter};
use cudalign::{
    stage6, BinaryAlignment, JobRequest, Pipeline, PipelineConfig, RunControl, ServeConfig, Server,
};
use seqio::generate::{self, HomologyParams};
use seqio::{fasta, DatasetRegistry};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;
use sw_core::{Scoring, Sequence};

/// Recorder that keeps a live progress line on stderr: redraws in place
/// with carriage returns (no newline spam), only when the rendered text
/// changes, and erases itself once the run finishes so the summary prints
/// on a clean line.
struct ProgressPrinter {
    inner: Progress,
    last: String,
}

impl ProgressPrinter {
    fn new() -> Self {
        ProgressPrinter { inner: Progress::new(), last: String::new() }
    }

    fn clear(&mut self) {
        if !self.last.is_empty() {
            eprint!("\r{}\r", " ".repeat(self.last.len()));
            self.last.clear();
        }
    }
}

impl Recorder for ProgressPrinter {
    fn record(&mut self, t: Duration, ev: &Event) {
        self.inner.record(t, ev);
        match self.inner.render() {
            Some(line) if line != self.last => {
                let pad = self.last.len().saturating_sub(line.len());
                eprint!("\r{line}{}", " ".repeat(pad));
                self.last = line;
            }
            Some(_) => {}
            None => self.clear(),
        }
    }
}

fn load_first_record(path: &Path) -> Result<Sequence, String> {
    let mut records =
        fasta::read_fasta_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if records.is_empty() {
        return Err(format!("{}: no FASTA records", path.display()));
    }
    Ok(records.remove(0))
}

/// `cudalign align`
pub fn align(args: &AlignArgs) -> Result<String, String> {
    let s0 = load_first_record(&args.a)?;
    let s1 = load_first_record(&args.b)?;

    let mut cfg = PipelineConfig::default_cpu();
    if let Some(v) = args.sra_bytes {
        cfg.sra_bytes = v;
    }
    if let Some(v) = args.sca_bytes {
        cfg.sca_bytes = v;
    }
    if let Some(dir) = &args.disk {
        cfg.backend = SraBackend::Disk(dir.clone());
    }
    if let Some(v) = args.max_partition {
        cfg.max_partition_size = v.max(1);
    }
    if let Some(v) = args.workers {
        cfg.workers = v;
    }
    let (ma, mi, gf, ge) = args.scoring;
    let base = Scoring::paper();
    cfg.scoring = Scoring::new(
        ma.unwrap_or(base.match_score),
        mi.unwrap_or(base.mismatch_score),
        gf.unwrap_or(base.gap_first),
        ge.unwrap_or(base.gap_ext),
    );
    if let Some(dir) = &args.checkpoint_dir {
        cfg.checkpoint = Some(CheckpointPolicy {
            dir: dir.clone(),
            every_diagonals: args.checkpoint_every.max(1),
        });
    }
    cfg.balanced_split = !args.middle_row_split;
    cfg.orthogonal_stage4 = !args.no_orthogonal;
    cfg.parallel_partitions = args.parallel_partitions;

    let mut tracer = match &args.trace {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Some(TraceWriter::new(std::io::BufWriter::new(f)))
        }
        None => None,
    };
    let mut progress = args.progress.then(ProgressPrinter::new);

    let mut obs = Obs::new();
    if let Some(t) = tracer.as_mut() {
        obs.add_recorder(t);
    }
    if let Some(p) = progress.as_mut() {
        obs.add_recorder(p);
    }
    let mut ctrl = RunControl::unlimited();
    if let Some(ms) = args.deadline_ms {
        ctrl = ctrl.with_deadline_ms(ms);
    }
    if let Some(d) = args.cancel_after_diag {
        ctrl = ctrl.with_cancel_after_diagonal(d);
    }
    let result = Pipeline::new(cfg).align_supervised(s0.bases(), s1.bases(), &mut obs, &ctrl);
    drop(obs);
    if let Some(p) = progress.as_mut() {
        p.clear();
    }
    if let (Some(t), Some(path)) = (tracer, &args.trace) {
        // Surface trace I/O failures even when the alignment itself
        // succeeded — a silently truncated trace is worse than an error.
        let mut w = t.finish().map_err(|e| format!("{}: {e}", path.display()))?;
        w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let result = result.map_err(|e| e.to_string())?;

    let mut out = String::new();
    writeln!(out, "{} x {}", s0.name(), s1.name()).unwrap();
    if result.best_score == 0 {
        writeln!(out, "no positive-scoring local alignment").unwrap();
        return Ok(out);
    }
    writeln!(out, "{}", stage6::summary(&result.binary, &result.transcript)).unwrap();
    if result.stats.resumed_from_diagonal > 0 {
        writeln!(
            out,
            "resumed stage 1 from checkpoint (external diagonal {})",
            result.stats.resumed_from_diagonal
        )
        .unwrap();
    }

    if let Some(path) = &args.out {
        std::fs::write(path, result.binary.encode())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(out, "wrote {} ({} bytes)", path.display(), result.stats.binary_bytes).unwrap();
    }
    if args.stats {
        let st = &result.stats;
        writeln!(out, "\nper-stage statistics:").unwrap();
        for k in 0..5 {
            let cells = if k < 4 { st.stage_cells[k] } else { st.stage5_cells };
            writeln!(out, "  stage {}: {:>10.3}s  {:>14} cells", k + 1, st.stage_seconds[k], cells)
                .unwrap();
        }
        writeln!(out, "  crosspoints |L1..L4|: {:?}", st.crosspoints).unwrap();
        writeln!(
            out,
            "  special rows: {} ({} bytes), special columns: {} ({} bytes)",
            st.special_rows, st.sra_bytes_used, st.special_columns, st.sca_bytes_used
        )
        .unwrap();
        writeln!(
            out,
            "  in-flight special rows: peak {} ({} bytes)",
            st.sra_inflight_peak_rows, st.sra_inflight_peak_bytes
        )
        .unwrap();
        writeln!(out, "  stage-4 iterations: {}", st.stage4_iterations.len()).unwrap();
        writeln!(
            out,
            "  storage: {} rows / {} cols dropped, {} checkpoint failures, {} write retries, {} files rejected, {} swept",
            st.dropped_special_rows,
            st.dropped_special_cols,
            st.checkpoint_failures,
            st.storage_retries,
            st.storage_rejected_files,
            st.storage_swept_files
        )
        .unwrap();
        writeln!(
            out,
            "  worker pool: {} lanes, {} handoffs, {} tasks, {:.1}% busy",
            st.pool_lanes,
            st.pool_handoffs,
            st.pool_tasks,
            st.pool_busy_ratio * 100.0
        )
        .unwrap();
        writeln!(
            out,
            "  kernel: {} cells updated ({} MCUPS), tiles i8/i8→i16/i16/fallback/scalar/pruned {}/{}/{}/{}/{}/{}",
            st.computed_cells(),
            // `-` for degenerate durations instead of the old inf/NaN.
            st.mcups().map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
            st.kernel_striped8_tiles,
            st.kernel_striped8_fb16_tiles,
            st.kernel_striped16_tiles,
            st.kernel_fallback_tiles,
            st.kernel_scalar_tiles,
            st.kernel_pruned_tiles
        )
        .unwrap();
        writeln!(
            out,
            "  query-profile cache: {} hits, {} misses",
            st.kernel_profile_hits, st.kernel_profile_misses
        )
        .unwrap();
        let p4 = &st.stage4_paths;
        writeln!(
            out,
            "  stage-4 kernel: tiles i8/i8→i16/i16/fallback/scalar {}/{}/{}/{}/{}, profile cache {} hits, {} misses",
            p4.striped8,
            p4.striped8_fb16,
            p4.striped16,
            p4.fallback,
            p4.scalar,
            st.stage4_profile_hits,
            st.stage4_profile_misses
        )
        .unwrap();
        writeln!(out, "  stage-1 strips: peak {} blocks parked", st.stage1_parked_peak).unwrap();
        writeln!(out, "  total: {:.3}s", st.total_seconds).unwrap();
    }
    Ok(out)
}

/// One parsed manifest line: FASTA pair plus an optional priority.
struct ManifestJob {
    a: std::path::PathBuf,
    b: std::path::PathBuf,
    priority: u8,
}

/// Parse a serve manifest: one `A.fasta B.fasta [priority]` job per
/// line; blank lines and `#` comments are skipped.
fn parse_manifest(path: &Path) -> Result<Vec<ManifestJob>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(format!(
                "{}:{}: expected `A.fasta B.fasta [priority]`, got {line:?}",
                path.display(),
                i + 1
            ));
        };
        let priority = match parts.next() {
            None => 0,
            Some(p) => p.parse().map_err(|_| {
                format!("{}:{}: invalid priority {p:?} (0-255)", path.display(), i + 1)
            })?,
        };
        if parts.next().is_some() {
            return Err(format!("{}:{}: trailing fields in {line:?}", path.display(), i + 1));
        }
        jobs.push(ManifestJob { a: a.into(), b: b.into(), priority });
    }
    if jobs.is_empty() {
        return Err(format!("{}: no jobs in manifest", path.display()));
    }
    Ok(jobs)
}

/// `cudalign serve` — batch service mode: submit every manifest job to
/// an in-process [`Server`] (bounded queue, shared worker pool, result
/// cache), wait for all of them, and print one line per job plus the
/// merged totals.
pub fn serve(args: &ServeArgs) -> Result<String, String> {
    let manifest = parse_manifest(&args.manifest)?;

    let mut cfg = PipelineConfig::default_cpu();
    if let Some(v) = args.workers {
        cfg.workers = v;
    }
    let mut scfg = ServeConfig::new(cfg);
    if let Some(v) = args.runners {
        scfg.runners = v.max(1);
    }
    if let Some(v) = args.queue_cap {
        scfg.queue_cap = v.max(1);
    }
    if let Some(v) = args.cache_cap {
        scfg.cache_cap = v;
    }
    let server = Server::new(scfg).map_err(|e| e.to_string())?;

    let mut labels = Vec::with_capacity(manifest.len());
    let mut reqs = Vec::with_capacity(manifest.len());
    for job in &manifest {
        let s0 = load_first_record(&job.a)?;
        let s1 = load_first_record(&job.b)?;
        labels.push(format!("{} x {}", s0.name(), s1.name()));
        let mut req =
            JobRequest::new(s0.bases().to_vec(), s1.bases().to_vec()).with_priority(job.priority);
        if let Some(ms) = args.deadline_ms {
            req = req.with_control(RunControl::unlimited().with_deadline_ms(ms));
        }
        reqs.push(req);
    }
    let handles = server.submit_batch(reqs).map_err(|e| e.to_string())?;

    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut out = String::new();
    let mut failures = 0usize;
    for (h, label) in handles.iter().zip(&labels) {
        let report = h.wait();
        match &report.outcome {
            Ok(r) => writeln!(
                out,
                "job {:>3} {label}: score {}{}",
                report.id,
                r.best_score,
                if report.cached { " (cached)" } else { "" }
            )
            .unwrap(),
            Err(e) => {
                failures += 1;
                writeln!(out, "job {:>3} {label}: {e}", report.id).unwrap();
            }
        }
        if let Some(dir) = &args.trace_dir {
            // Self-check before writing: a trace the schema validator
            // rejects is a serve bug, not a user error.
            validate_trace(&report.trace)
                .map_err(|e| format!("job {} produced an invalid trace: {e}", report.id))?;
            let path = dir.join(format!("job-{}.ndjson", report.id));
            std::fs::write(&path, &report.trace).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let stats = server.shutdown();
    if args.stats {
        writeln!(
            out,
            "\nserver: {} submitted, {} completed, {} cached, {} cancelled, {} failed",
            stats.submitted, stats.completed, stats.cache_hits, stats.cancelled, stats.failed
        )
        .unwrap();
        writeln!(
            out,
            "  queue peak {} (cap {}), {} batch(es) rejected",
            stats.queue_peak,
            args.queue_cap.unwrap_or(64),
            stats.rejected
        )
        .unwrap();
        writeln!(out, "  {} cells in {:.3} run-seconds (merged)", stats.cells, stats.run_seconds)
            .unwrap();
    }
    if failures > 0 {
        writeln!(out, "{failures} job(s) did not complete").unwrap();
    }
    Ok(out)
}

/// `cudalign view`
pub fn view(args: &ViewArgs) -> Result<String, String> {
    let bytes =
        std::fs::read(&args.alignment).map_err(|e| format!("{}: {e}", args.alignment.display()))?;
    let binary = BinaryAlignment::decode(&bytes).map_err(|e| e.to_string())?;
    let s0 = load_first_record(&args.a)?;
    let s1 = load_first_record(&args.b)?;
    if binary.end.0 > s0.len() || binary.end.1 > s1.len() {
        return Err(format!(
            "alignment ends at {:?} but sequences are {} x {} bp — wrong FASTA files?",
            binary.end,
            s0.len(),
            s1.len()
        ));
    }

    let mut out = String::new();
    let transcript = binary.to_transcript(s0.bases(), s1.bases());
    writeln!(out, "{}", stage6::summary(&binary, &transcript)).unwrap();

    let text = stage6::render_text(s0.bases(), s1.bases(), &binary, args.width);
    match args.head {
        Some(n) => {
            for line in text.lines().take(n) {
                writeln!(out, "{line}").unwrap();
            }
            let total = text.lines().count();
            if total > n {
                writeln!(out, "... ({} more lines)", total - n).unwrap();
            }
        }
        None => out.push_str(&text),
    }

    if let Some((rows, cols)) = args.plot {
        writeln!(
            out,
            "\n{}",
            stage6::dot_plot(s0.len(), s1.len(), &binary, &transcript, rows, cols)
        )
        .unwrap();
    }
    if let Some((path, w, h)) = &args.pgm {
        let img = stage6::dot_plot_pgm(s0.len(), s1.len(), &binary, &transcript, *w, *h);
        std::fs::write(path, &img).map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(out, "wrote {} ({} bytes, {}x{})", path.display(), img.len(), w, h).unwrap();
    }
    Ok(out)
}

/// `cudalign info`
pub fn info(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let b = BinaryAlignment::decode(&bytes).map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(out, "binary alignment {} ({} bytes)", path.display(), bytes.len()).unwrap();
    writeln!(out, "  score : {}", b.score).unwrap();
    writeln!(out, "  start : ({}, {})", b.start.0, b.start.1).unwrap();
    writeln!(out, "  end   : ({}, {})", b.end.0, b.end.1).unwrap();
    writeln!(out, "  span  : {} x {} bp", b.end.0 - b.start.0, b.end.1 - b.start.1).unwrap();
    writeln!(out, "  cols  : {}", b.columns()).unwrap();
    writeln!(
        out,
        "  gaps  : {} runs in S0, {} runs in S1, {} gap columns",
        b.gaps_s0.len(),
        b.gaps_s1.len(),
        b.gap_columns()
    )
    .unwrap();
    Ok(out)
}

fn write_pair(prefix: &Path, s0: &Sequence, s1: &Sequence) -> Result<String, String> {
    let p0 = prefix.with_file_name(format!(
        "{}-0.fasta",
        prefix.file_name().map(|s| s.to_string_lossy()).unwrap_or_default()
    ));
    let p1 = prefix.with_file_name(format!(
        "{}-1.fasta",
        prefix.file_name().map(|s| s.to_string_lossy()).unwrap_or_default()
    ));
    fasta::write_fasta_file(&p0, [s0]).map_err(|e| format!("{}: {e}", p0.display()))?;
    fasta::write_fasta_file(&p1, [s1]).map_err(|e| format!("{}: {e}", p1.display()))?;
    Ok(format!("wrote {} and {}", p0.display(), p1.display()))
}

/// `cudalign generate`
pub fn generate(args: &GenerateArgs) -> Result<String, String> {
    let (s0, s1) = match args.kind.as_str() {
        "unrelated" => generate::unrelated_pair(args.seed, args.len, args.len),
        "strain" => generate::homologous_pair(args.seed, args.len, &HomologyParams::strain()),
        "chromosome" => {
            generate::homologous_pair(args.seed, args.len, &HomologyParams::chromosome())
        }
        "diverged" => generate::homologous_pair(args.seed, args.len, &HomologyParams::diverged()),
        "island" => generate::island_pair(
            args.seed,
            args.len,
            args.len,
            (args.len / 10).max(16),
            &HomologyParams::chromosome(),
        ),
        other => {
            return Err(format!(
                "unknown kind {other:?}; expected unrelated|strain|chromosome|diverged|island"
            ))
        }
    };
    let mut out = format!(
        "generated {} pair: {} bp x {} bp (seed {})\n",
        args.kind,
        s0.len(),
        s1.len(),
        args.seed
    );
    if let Some(prefix) = &args.out {
        out.push_str(&write_pair(prefix, &s0, &s1)?);
        out.push('\n');
    }
    Ok(out)
}

/// `cudalign dataset`
pub fn dataset(args: &DatasetArgs) -> Result<String, String> {
    let reg = DatasetRegistry::paper();
    if args.key == "list" {
        let mut out = String::from("Table II pairs:\n");
        for p in reg.pairs() {
            writeln!(
                out,
                "  {:>14}  {} x {}  ({} / {})",
                p.key, p.real_sizes.0, p.real_sizes.1, p.organisms.0, p.organisms.1
            )
            .unwrap();
        }
        return Ok(out);
    }
    let spec = reg
        .get(&args.key)
        .ok_or_else(|| format!("unknown pair {:?}; try 'cudalign dataset list'", args.key))?;
    let (s0, s1) = spec.materialize(args.scale, args.seed);
    let mut out =
        format!("{} at scale 1/{}: {} bp x {} bp\n", spec.key, args.scale, s0.len(), s1.len());
    if let Some(prefix) = &args.out {
        out.push_str(&write_pair(prefix, &s0, &s1)?);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cudalign-cli-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Full workflow: generate -> align -> info -> view.
    #[test]
    fn end_to_end_workflow() {
        let dir = tmpdir();
        let prefix = dir.join("pair");

        let g = parse(&sv(&[
            "generate",
            "strain",
            "--len",
            "400",
            "--seed",
            "5",
            "--out",
            prefix.to_str().unwrap(),
        ]))
        .unwrap();
        let out = crate::run(g).unwrap();
        assert!(out.contains("generated strain pair"));

        let a = dir.join("pair-0.fasta");
        let b = dir.join("pair-1.fasta");
        let cal = dir.join("out.cal2");
        let trace = dir.join("run.ndjson");
        let cmd = parse(&sv(&[
            "align",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--out",
            cal.to_str().unwrap(),
            "--stats",
            "--trace",
            trace.to_str().unwrap(),
            "--progress",
        ]))
        .unwrap();
        let out = crate::run(cmd).unwrap();
        assert!(out.contains("score"), "{out}");
        assert!(out.contains("per-stage statistics"));
        assert!(cal.exists());

        // The trace must be schema-valid and cover all six stages.
        let text = std::fs::read_to_string(&trace).unwrap();
        let check = cudalign::obs::validate_trace(&text).unwrap();
        assert!(check.ended, "trace must end with run_end");
        assert!(
            check.stages_seen.iter().all(|s| *s),
            "all six stages traced: {:?}",
            check.stages_seen
        );

        let cmd = parse(&sv(&["info", cal.to_str().unwrap()])).unwrap();
        let out = crate::run(cmd).unwrap();
        assert!(out.contains("score"), "{out}");

        let pgm = dir.join("plot.pgm");
        let cmd = parse(&sv(&[
            "view",
            cal.to_str().unwrap(),
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--head",
            "8",
            "--plot",
            "8x32",
            "--pgm",
            &format!("{}:64x48", pgm.to_str().unwrap()),
        ]))
        .unwrap();
        let out = crate::run(cmd).unwrap();
        assert!(out.contains("S0"), "{out}");
        assert!(pgm.exists());
        let img = std::fs::read(&pgm).unwrap();
        assert!(img.starts_with(b"P5\n64 48\n255\n"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dataset_list_and_materialize() {
        let out =
            dataset(&DatasetArgs { key: "list".into(), scale: 1000, seed: 1, out: None }).unwrap();
        assert!(out.contains("32799Kx46944K"));
        let out =
            dataset(&DatasetArgs { key: "162Kx172K".into(), scale: 1000, seed: 1, out: None })
                .unwrap();
        assert!(out.contains("162 bp"));
        assert!(dataset(&DatasetArgs { key: "nope".into(), scale: 1, seed: 1, out: None }).is_err());
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let err = generate(&GenerateArgs { kind: "weird".into(), len: 10, seed: 1, out: None })
            .unwrap_err();
        assert!(err.contains("unknown kind"));
    }

    #[test]
    fn view_rejects_mismatched_sequences() {
        let dir = tmpdir();
        // Make a binary alignment that claims huge coordinates.
        let b = BinaryAlignment {
            start: (0, 0),
            end: (10_000, 10_000),
            score: 5,
            gaps_s0: vec![],
            gaps_s1: vec![],
        };
        let cal = dir.join("big.cal2");
        std::fs::write(&cal, b.encode()).unwrap();
        let fa = dir.join("tiny.fasta");
        fasta::write_fasta_file(&fa, [&Sequence::new("t", b"ACGT".to_vec()).unwrap()]).unwrap();
        let err = view(&ViewArgs {
            alignment: cal,
            a: fa.clone(),
            b: fa,
            width: 80,
            head: None,
            plot: None,
            pgm: None,
        })
        .unwrap_err();
        assert!(err.contains("wrong FASTA files"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn align_cancel_after_diag_yields_typed_error_and_resumes() {
        let dir = tmpdir();
        let prefix = dir.join("c");
        generate(&GenerateArgs { kind: "strain".into(), len: 300, seed: 11, out: Some(prefix) })
            .unwrap();
        let args = |cancel: Option<usize>| AlignArgs {
            a: dir.join("c-0.fasta"),
            b: dir.join("c-1.fasta"),
            out: None,
            sra_bytes: None,
            sca_bytes: None,
            disk: None,
            max_partition: None,
            workers: Some(2),
            scoring: (None, None, None, None),
            checkpoint_dir: Some(dir.join("ckpt")),
            checkpoint_every: 2,
            deadline_ms: None,
            cancel_after_diag: cancel,
            middle_row_split: false,
            no_orthogonal: false,
            parallel_partitions: false,
            stats: false,
            trace: None,
            progress: false,
        };
        let err = align(&args(Some(1))).unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
        assert!(err.contains("resume"), "{err}");
        // Re-running without the trigger picks up the checkpoint and
        // completes.
        let out = align(&args(None)).unwrap();
        assert!(out.contains("score"), "{out}");
        assert!(out.contains("resumed stage 1 from checkpoint"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn align_with_custom_scoring() {
        let dir = tmpdir();
        let prefix = dir.join("p");
        generate(&GenerateArgs { kind: "strain".into(), len: 200, seed: 3, out: Some(prefix) })
            .unwrap();
        let a = dir.join("p-0.fasta");
        let b = dir.join("p-1.fasta");
        let out = align(&AlignArgs {
            a,
            b,
            out: None,
            sra_bytes: None,
            sca_bytes: None,
            disk: None,
            max_partition: Some(8),
            workers: Some(1),
            scoring: (Some(2), Some(-1), Some(4), Some(1)),
            checkpoint_dir: None,
            checkpoint_every: 64,
            deadline_ms: None,
            cancel_after_diag: None,
            middle_row_split: true,
            no_orthogonal: true,
            parallel_partitions: true,
            stats: false,
            trace: None,
            progress: false,
        })
        .unwrap();
        assert!(out.contains("score"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
