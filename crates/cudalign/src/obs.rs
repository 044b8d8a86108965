//! Observability: event-sourced tracing, a metrics registry, and live
//! progress for the six-stage pipeline (DESIGN.md §10).
//!
//! The paper's flagship run takes 18.5 hours; a run that long needs more
//! than a stats struct printed after the fact. This module provides the
//! three sinks the pipeline reports into:
//!
//! 1. **Events** — [`Event`] values emitted at pipeline edges (stage
//!    begin/end spans, per-external-diagonal ticks, per-partition and
//!    per-strip records, storage flush/drop, checkpoints) and fanned out
//!    to any number of [`Recorder`]s through an [`Obs`] handle.
//! 2. **Metrics** — a [`Metrics`] registry of named counters and gauges.
//!    It is the single source of truth behind `PipelineStats`: the
//!    pipeline accumulates into the registry, the stats struct is built
//!    from it, and the trace dumps it verbatim as the final `metrics`
//!    record, so `--stats`, the MCUPS bench and the trace can never
//!    disagree.
//! 3. **Clock** — all wall-clock reads go through the injected [`Clock`].
//!    This file is the only place in `cudalign` allowed to touch
//!    `std::time::Instant` (enforced by the `clock-injection` lint in the
//!    `analysis` crate); everything else samples time via
//!    [`Obs::now`], which makes timing deterministic under test via
//!    [`SharedClock`].
//!
//! Hot paths (the DP kernels and the wavefront inner loops) do **not**
//! emit events — they keep reporting pre-aggregated counters through the
//! existing bus/stats plumbing, so the `no-wallclock` lint stays clean
//! and tracing adds no per-cell overhead.
//!
//! # Trace format
//!
//! [`TraceWriter`] encodes each event as one JSON object per line
//! (NDJSON). Every record carries `"t"` (seconds since the recorder's
//! clock origin, non-decreasing) and `"ev"` (the record type); the
//! remaining fields are the variant's own. One `events!` declaration of
//! [`Event`] names each record type, its scope and each field's JSON kind
//! (DESIGN.md §10); the encoder and [`validate_trace`]'s field checks are
//! both derived from it. The validator adds the rules that span records:
//! monotone timestamps and progress, and span nesting (stages open and
//! close in order, stage-scoped records fall inside their stage's span).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Clock injection
// ---------------------------------------------------------------------------

/// A monotone clock, injected at the pipeline edges.
///
/// Returns the elapsed time since the clock's origin (creation for
/// [`WallClock`], explicit for [`SharedClock`]). Implementations must be
/// monotone: successive calls never go backwards.
pub trait Clock {
    /// Time elapsed since this clock's origin.
    fn now(&self) -> Duration;
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now(&self) -> Duration {
        (**self).now()
    }
}

/// The production clock: monotone wall time since construction.
///
/// This is the only type in `cudalign` that reads `std::time::Instant`;
/// the `clock-injection` lint keeps it that way.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> Self {
        WallClock { origin: std::time::Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A hand-cranked clock for deterministic tests, `Send + Sync + Clone`.
///
/// Clones share one atomic nanosecond counter, so a test can hold one
/// clone, hand a second to [`Obs`] (or lend it `Box::new(&clock)`), and
/// derive the watchdog's time source from a third; advancing any of them
/// advances the run's whole notion of time.
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    nanos: Arc<AtomicU64>,
}

impl SharedClock {
    /// A shared clock starting at zero.
    pub fn new() -> Self {
        SharedClock::default()
    }

    /// Set the absolute time. Callers are responsible for monotonicity.
    pub fn set(&self, t: Duration) {
        self.nanos.store(t.as_nanos() as u64, Ordering::Release);
    }

    /// Advance the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }
}

impl Clock for SharedClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Acquire))
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// How a field is written on an NDJSON line and what [`validate_trace`]
/// requires of it.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A finite JSON number.
    Num,
    /// A finite JSON number that is not negative.
    NonNeg,
    /// A stage number: an integer in 1..=6.
    Stage,
    /// `true` or `false`.
    Bool,
    /// A string from a fixed set.
    OneOf(&'static [&'static str]),
    /// A `u64` written as 16 hex digits in a string: JSON numbers are
    /// f64 and would corrupt the high bits.
    Hex,
    /// An array of numbers.
    NumList,
    /// An object whose values are numbers, entries in order.
    NumMap,
}

/// Where a record may appear relative to the stage spans, beyond the
/// framing rules [`validate_trace`] applies to `run_*` and `job_*`.
#[derive(Debug, Clone, Copy)]
enum Scope {
    /// Inside the span of the stage its `stage` field names.
    OwnStage,
    /// Inside any stage span.
    AnyStage,
    /// Anywhere after `run_begin` (job records: anywhere).
    Free,
}

/// One record type of the trace schema: its `ev` name, its scope, and
/// its fields in encoding order.
#[derive(Debug)]
struct Record {
    name: &'static str,
    scope: Scope,
    fields: &'static [(&'static str, Kind)],
}

/// Declares [`Event`] and, from the same text, the trace schema
/// ([`SCHEMA`]) and the encoder ([`Event::put_fields`]). Each variant
/// names its record type and [`Scope`]; each field names its [`Kind`].
/// Every JSON key is the Rust field name, written in declaration order.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident($name:literal, $scope:ident) {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty = $kind:ident $(($set:expr))? ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $( $(#[$vmeta])* $Variant { $( $(#[$fmeta])* $field: $ty ),* } ),*
        }

        /// The trace schema, one record type per [`Event`] variant.
        const SCHEMA: &[Record] = &[$(Record {
            name: $name,
            scope: Scope::$scope,
            fields: &[$((stringify!($field), Kind::$kind $(($set))?)),*],
        }),*];

        impl Event {
            /// Append `,"ev":"<name>"` and every field to `out`.
            fn put_fields(&self, out: &mut String) {
                match self {
                    $(Event::$Variant { $($field),* } => {
                        out.push_str(concat!(",\"ev\":\"", $name, "\""));
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.put(Kind::$kind $(($set))?, out);
                        )*
                    })*
                }
            }
        }
    };
}

events! {
    /// One observable moment in a pipeline run.
    ///
    /// Events are pure data; the emission timestamp is stamped by
    /// [`Obs::emit`] and handed to each [`Recorder`] alongside the event.
    /// This declaration is the trace schema: each variant names its NDJSON
    /// record type and scope, each field its JSON kind, and both the
    /// encoder and [`validate_trace`] are derived from it (DESIGN.md §10).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// A run starts: matrix shape, stage-1 grid total, and where stage 1
        /// resumes (0 for a fresh run).
        RunBegin("run_begin", Free) {
            /// Rows of the DP matrix (`|S0|`).
            m: usize = Num,
            /// Columns of the DP matrix (`|S1|`).
            n: usize = Num,
            /// Total external diagonals in the stage-1 grid.
            total_diagonals: usize = Num,
            /// First diagonal stage 1 will execute (from a checkpoint).
            resumed_from_diagonal: usize = Num,
        },
        /// A pipeline stage opens (stages are numbered 1..=6).
        StageBegin("stage_begin", Free) {
            /// Stage number, 1..=6.
            stage: u8 = Stage,
        },
        /// A pipeline stage closes.
        StageEnd("stage_end", OwnStage) {
            /// Stage number, 1..=6.
            stage: u8 = Stage,
            /// Wall seconds the stage took (injected clock).
            seconds: f64 = Num,
            /// DP cells the stage processed in this run.
            cells: u64 = Num,
        },
        /// Stage-1 wavefront progress: `done` of `total` external diagonals
        /// are complete (absolute, i.e. inclusive of diagonals skipped by a
        /// checkpoint resume).
        Diagonal("diagonal", OwnStage) {
            /// Stage number (currently always 1).
            stage: u8 = Stage,
            /// External diagonals fully executed, counted from the matrix
            /// origin.
            done: usize = Num,
            /// Total external diagonals in the grid.
            total: usize = Num,
        },
        /// Stage-1 strip-scheduler progress: a worker published a batch of
        /// block rows of its column strip to its right neighbour.
        StripProgress("strip_progress", OwnStage) {
            /// Stage number (currently always 1).
            stage: u8 = Stage,
            /// Runner index (0 = the calling thread).
            worker: usize = Num,
            /// Column-strip index within the strip plan.
            strip: usize = Num,
            /// Block rows of this strip completed and published.
            rows_done: usize = Num,
            /// Total block rows in the grid.
            rows_total: usize = Num,
        },
        /// Stage-1 strip scheduler: a worker claimed a strip. `stolen` marks
        /// claims beyond the worker's first (bounded work stealing).
        StripSteal("strip_steal", OwnStage) {
            /// Stage number (currently always 1).
            stage: u8 = Stage,
            /// Runner index (0 = the calling thread).
            worker: usize = Num,
            /// Column-strip index that was claimed.
            strip: usize = Num,
            /// False for the worker's first claim (its home strip).
            stolen: bool = Bool,
        },
        /// Stage 2 starts a reverse strip.
        Strip("strip", OwnStage) {
            /// Stage number (currently always 2).
            stage: u8 = Stage,
            /// 1-based strip index.
            index: usize = Num,
            /// Strip height in rows.
            height: usize = Num,
            /// Strip width in columns.
            width: usize = Num,
        },
        /// A stage announces how many partitions it is about to solve.
        Partitions("partitions", OwnStage) {
            /// Stage number (3 or 5).
            stage: u8 = Stage,
            /// Partition count.
            count: usize = Num,
        },
        /// One partition a stage will solve.
        Partition("partition", OwnStage) {
            /// Stage number (currently always 3).
            stage: u8 = Stage,
            /// 0-based partition index.
            index: usize = Num,
            /// Partition height in rows.
            height: usize = Num,
            /// Partition width in columns.
            width: usize = Num,
        },
        /// One stage-4 refinement iteration finished.
        Iteration("iteration", OwnStage) {
            /// Stage number (currently always 4).
            stage: u8 = Stage,
            /// 1-based iteration index.
            index: usize = Num,
            /// Crosspoints known after this iteration.
            crosspoints: usize = Num,
            /// DP cells this iteration processed.
            cells: u64 = Num,
            /// Wall seconds this iteration took (injected clock).
            seconds: f64 = Num,
        },
        /// A special row/column was fully written to its store.
        StorageFlush("storage_flush", AnyStage) {
            /// Which store: `"sra"` (special rows) or `"sca"` (special
            /// columns).
            store: &'static str = OneOf(&["sra", "sca"]),
            /// Row (SRA) or column (SCA) index.
            index: usize = Num,
            /// Bytes the line occupies in the store.
            bytes: u64 = Num,
        },
        /// A line was dropped: a corrupt row rejected on read, or a special
        /// row whose disk write failed after retries.
        StorageDrop("storage_drop", AnyStage) {
            /// Which store: `"sra"` or `"sca"`.
            store: &'static str = OneOf(&["sra", "sca"]),
            /// Row (SRA) or column (SCA) index.
            index: usize = Num,
        },
        /// Precision-ladder and query-profile-cache outcome of one
        /// engine-driven stage (1..=3), emitted once per stage inside its
        /// span, just before [`Event::StageEnd`].
        Kernel("kernel", OwnStage) {
            /// Stage number, 1..=3.
            stage: u8 = Stage,
            /// Tiles that committed on the 32-lane saturating-`i8` rung.
            striped8: u64 = NonNeg,
            /// Tiles that attempted `i8`, overflowed its window, and
            /// committed on the `i16` rung.
            striped8_fb16: u64 = NonNeg,
            /// Tiles that went straight to the `i16` rung (`i8` ineligible).
            striped16: u64 = NonNeg,
            /// Tiles that re-ran on the scalar `i32` kernel after `i16`
            /// overflow.
            fallback: u64 = NonNeg,
            /// Tiles committed on the scalar `i32` kernel up front (too short
            /// for the ladder, or no striped rung eligible).
            scalar: u64 = NonNeg,
            /// Tiles no kernel computed: stage 1 proved that no path through
            /// them reaches the best score (cone pruning).
            pruned: u64 = NonNeg,
            /// Query-profile cache hits during the stage.
            profile_hits: u64 = NonNeg,
            /// Query-profile cache misses (profile bands built).
            profile_misses: u64 = NonNeg,
        },
        /// A stage-1 checkpoint snapshot was attempted.
        Checkpoint("checkpoint", AnyStage) {
            /// The diagonal the snapshot restarts from.
            diagonal: usize = Num,
            /// Whether the snapshot was persisted.
            ok: bool = Bool,
        },
        /// The run was interrupted — cancelled, past its deadline, or
        /// stalled. Terminal diagnostic: the pipeline returns the matching
        /// typed error immediately after emitting it, so an interrupted
        /// trace ends with this record (plus an optional [`Event::StallDiag`])
        /// instead of `run_end`. It may surface inside or after a stage
        /// span (the interrupted stage never emits `stage_end`).
        Interrupt("interrupt", Free) {
            /// Stage that observed the interruption, 1..=6.
            stage: u8 = Stage,
            /// `"cancelled"`, `"deadline"`, or `"stalled"`.
            kind: &'static str = OneOf(&["cancelled", "deadline", "stalled"]),
            /// External diagonal the run can resume from (stage 1), else 0.
            diagonal: usize = Num,
            /// Time from the cancel signal to the run unwinding, in
            /// milliseconds on the supervisor's clock (0 when unknown).
            latency_ms: f64 = NonNeg,
        },
        /// Strip-scheduler coordination snapshot attached to a stall
        /// diagnosis: where every strip and runner was when the run stopped.
        StallDiag("stall_diag", Free) {
            /// Stage that owned the strip launch (currently always 1).
            stage: u8 = Stage,
            /// Delivery frontier (external diagonal) at teardown.
            front: usize = Num,
            /// Per strip: block rows published to the right neighbour.
            published: Vec<usize> = NumList,
            /// Per runner: strips claimed (first claim = home, rest steals).
            claims: Vec<u64> = NumList,
            /// Per runner: blocks computed.
            blocks: Vec<u64> = NumList,
        },
        /// Final dump of the metrics registry (see [`Metrics::to_event`]).
        Metrics("metrics", Free) {
            /// Counter names and values, sorted by name.
            counters: Vec<(String, u64)> = NumMap,
            /// Gauge names and values, sorted by name.
            gauges: Vec<(String, f64)> = NumMap,
        },
        /// The run is over.
        RunEnd("run_end", Free) {
            /// Total wall seconds (injected clock).
            seconds: f64 = Num,
            /// Best local alignment score found.
            best_score: i64 = Num,
        },
        /// A job was admitted to the serve queue. Job-scoped record emitted
        /// by [`crate::serve`] into the job's own trace stream, *before* any
        /// `run_begin` — it gives every per-job trace a header even when the
        /// pipeline never runs (cancelled while queued, or served from the
        /// result cache).
        JobSubmit("job_submit", Free) {
            /// Serve-assigned job id, unique within the server.
            job: u64 = Num,
            /// Content fingerprint the result cache is keyed by, encoded as
            /// 16 hex digits.
            fingerprint: u64 = Hex,
            /// Query length.
            m: usize = Num,
            /// Database length.
            n: usize = Num,
            /// Job priority (higher drains first).
            priority: u8 = Num,
            /// Queue depth right after admission, this job included.
            queued: usize = Num,
        },
        /// A runner picked the job up (or resolved it from the result
        /// cache). Precedes `run_begin` when a pipeline actually runs.
        JobStart("job_start", Free) {
            /// Serve-assigned job id.
            job: u64 = Num,
            /// Whether the result came from the fingerprint cache (no
            /// pipeline run follows).
            cached: bool = Bool,
        },
        /// Terminal job record: nothing may follow it in the job's trace.
        /// Present even when the run never began, which is what keeps an
        /// immediately-cancelled job's trace schema-valid instead of
        /// [`TraceError::Empty`].
        JobEnd("job_end", Free) {
            /// Serve-assigned job id.
            job: u64 = Num,
            /// `"ok"`, `"cached"`, `"cancelled"`, `"deadline"`, `"stalled"`,
            /// or `"failed"`.
            outcome: &'static str =
                OneOf(&["ok", "cached", "cancelled", "deadline", "stalled", "failed"]),
            /// Queue wait plus run time, in seconds on the server's clock.
            seconds: f64 = Num,
        },
    }
}

/// A sink for timed [`Event`]s.
///
/// Recorders are driven synchronously from the pipeline's caller thread
/// (never from pool workers), in emission order.
pub trait Recorder {
    /// Record `ev`, emitted at clock time `t`.
    fn record(&mut self, t: Duration, ev: &Event);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Named counters (u64) and gauges (f64), the single source of truth for
/// the pipeline's scalar statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `delta` to counter `key` (creating it at zero).
    pub fn inc(&mut self, key: &'static str, delta: u64) {
        let slot = self.counters.entry(key).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Set counter `key` to `value`.
    pub fn set(&mut self, key: &'static str, value: u64) {
        self.counters.insert(key, value);
    }

    /// Read counter `key` (0 if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Set gauge `key` to `value`.
    pub fn set_gauge(&mut self, key: &'static str, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Add `delta` to gauge `key` (creating it at zero).
    pub fn add_gauge(&mut self, key: &'static str, delta: f64) {
        *self.gauges.entry(key).or_insert(0.0) += delta;
    }

    /// Read gauge `key` (0.0 if never touched).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// Snapshot the registry as an [`Event::Metrics`] record.
    pub fn to_event(&self) -> Event {
        Event::Metrics {
            counters: self.counters.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// The observability handle
// ---------------------------------------------------------------------------

/// The pipeline's observability handle: an injected clock, a metrics
/// registry, and a fan-out list of recorders.
///
/// `Obs::new()` (or `Obs::default()`) is the silent configuration: a
/// wall clock, no recorders. [`Pipeline::align`] uses it, so runs without
/// tracing pay only the cost of a few `Instant`-free duration reads.
///
/// [`Pipeline::align`]: crate::pipeline::Pipeline::align
pub struct Obs<'a> {
    clock: Box<dyn Clock + 'a>,
    recorders: Vec<&'a mut (dyn Recorder + 'a)>,
    /// The run's metrics registry. Pipeline code accumulates here; the
    /// final `PipelineStats` and the trace's `metrics` record are both
    /// derived from it.
    pub metrics: Metrics,
}

impl std::fmt::Debug for Obs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("recorders", &self.recorders.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl Default for Obs<'_> {
    fn default() -> Self {
        Obs::new()
    }
}

impl<'a> Obs<'a> {
    /// Wall clock, no recorders.
    pub fn new() -> Self {
        Obs { clock: Box::new(WallClock::new()), recorders: Vec::new(), metrics: Metrics::new() }
    }

    /// A handle driven by the given clock (e.g. `Box::new(&manual)`).
    pub fn with_clock(clock: Box<dyn Clock + 'a>) -> Self {
        Obs { clock, recorders: Vec::new(), metrics: Metrics::new() }
    }

    /// Attach a recorder; every subsequent [`Obs::emit`] reaches it.
    pub fn add_recorder(&mut self, recorder: &'a mut (dyn Recorder + 'a)) {
        self.recorders.push(recorder);
    }

    /// Current time on the injected clock.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Stamp `ev` with the current clock time and fan it out to every
    /// recorder.
    pub fn emit(&mut self, ev: Event) {
        let t = self.clock.now();
        for r in &mut self.recorders {
            r.record(t, &ev);
        }
    }
}

// ---------------------------------------------------------------------------
// NDJSON trace sink
// ---------------------------------------------------------------------------

/// A [`Recorder`] that encodes every event as one JSON object per line.
///
/// Write errors are sticky: the first failure is remembered, later
/// records are dropped, and [`TraceWriter::finish`] reports the error —
/// a broken trace file never aborts an alignment.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    records: u64,
    error: Option<String>,
    /// The line being encoded, reused across records.
    line: String,
}

impl<W: Write> TraceWriter<W> {
    /// Wrap a byte sink (commonly a buffered file handle).
    pub fn new(out: W) -> Self {
        TraceWriter { out, records: 0, error: None, line: String::with_capacity(128) }
    }

    /// Records successfully written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The first write error, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Flush and return the sink, or the first write/flush error.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if let Some(e) = self.error {
            return Err(TraceError::Io(e));
        }
        match self.out.flush() {
            Ok(()) => Ok(self.out),
            Err(e) => Err(TraceError::Io(e.to_string())),
        }
    }
}

/// Failures of the trace subsystem: sink errors from
/// [`TraceWriter::finish`], malformed JSON from [`parse_json`], and
/// schema violations from [`validate_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The byte sink failed to write or flush; payload is the I/O error
    /// text (kept as a string so the error stays `Clone + PartialEq`).
    Io(String),
    /// A line is not well-formed JSON.
    Json(String),
    /// A parsed record violates the DESIGN.md §10 schema.
    Schema {
        /// 1-based line number of the offending record.
        line: usize,
        /// What the record got wrong.
        msg: String,
    },
    /// The trace has no records at all (no `run_begin`).
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace sink error: {e}"),
            TraceError::Json(e) => write!(f, "{e}"),
            TraceError::Schema { line, msg } => write!(f, "line {line}: {msg}"),
            TraceError::Empty => write!(f, "empty trace: no run_begin record"),
        }
    }
}

impl std::error::Error for TraceError {}

impl<W: Write> Recorder for TraceWriter<W> {
    fn record(&mut self, t: Duration, ev: &Event) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        encode_record(t, ev, &mut self.line);
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.records += 1,
            Err(e) => self.error = Some(e.to_string()),
        }
    }
}

/// `s` with JSON string escapes applied, formatted without allocating.
struct Escaped<'a>(&'a str);

impl std::fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

fn json_escape(s: &str) -> Escaped<'_> {
    Escaped(s)
}

/// A field value's NDJSON encoding. `kind` only matters where one Rust
/// type has two encodings (`u64` as a number or as [`Kind::Hex`]).
trait Field {
    fn put(&self, kind: Kind, out: &mut String);
}

macro_rules! display_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn put(&self, _: Kind, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_fields!(u8, usize, i64, bool);

impl Field for u64 {
    fn put(&self, kind: Kind, out: &mut String) {
        let _ = match kind {
            Kind::Hex => write!(out, "\"{self:016x}\""),
            _ => write!(out, "{self}"),
        };
    }
}

/// Finite floats render as plain JSON numbers; NaN/inf (which valid runs
/// never produce) degrade to 0 rather than corrupting the line.
impl Field for f64 {
    fn put(&self, _: Kind, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push('0');
        }
    }
}

impl Field for &'static str {
    fn put(&self, _: Kind, out: &mut String) {
        let _ = write!(out, "\"{}\"", json_escape(self));
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, kind: Kind, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.put(kind, out);
        }
        out.push(']');
    }
}

impl<T: Field> Field for Vec<(String, T)> {
    fn put(&self, kind: Kind, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", json_escape(k));
            v.put(kind, out);
        }
        out.push('}');
    }
}

/// Append one record, `{"t":..,"ev":..,<fields>}` plus a newline, to `out`.
fn encode_record(t: Duration, ev: &Event, out: &mut String) {
    out.push_str("{\"t\":");
    t.as_secs_f64().put(Kind::Num, out);
    ev.put_fields(out);
    out.push_str("}\n");
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

/// A [`Recorder`] that tracks percent-complete and an ETA.
///
/// During stage 1 (by far the dominant cost — it sweeps the full `m x n`
/// matrix), progress is `done / total` external diagonals. The count is
/// **absolute**, so a run resumed from a stage-1 checkpoint starts at the
/// resumed diagonal, not at zero. The ETA extrapolates only from work
/// this run actually did: `remaining * elapsed / (done - resumed)` —
/// resumed (skipped) diagonals never inflate the apparent rate.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    total: usize,
    offset: usize,
    done: usize,
    stage: u8,
    started: Option<Duration>,
    now: Duration,
    finished: bool,
}

impl Progress {
    /// A fresh tracker; feed it events via [`Recorder::record`].
    pub fn new() -> Self {
        Progress::default()
    }

    /// Percent complete of the stage-1 sweep, if a run is in flight.
    pub fn percent(&self) -> Option<f64> {
        if self.stage == 0 || self.total == 0 {
            return None;
        }
        Some(100.0 * self.done as f64 / self.total as f64)
    }

    /// Estimated seconds until stage 1 completes, extrapolated from this
    /// run's own diagonal rate. `None` until at least one post-resume
    /// diagonal has finished in nonzero time.
    pub fn eta_seconds(&self) -> Option<f64> {
        let started = self.started?;
        let run = self.now.checked_sub(started)?.as_secs_f64();
        let fresh = self.done.checked_sub(self.offset)?;
        if fresh == 0 || run <= 0.0 || self.done >= self.total {
            return None;
        }
        Some((self.total - self.done) as f64 * run / fresh as f64)
    }

    /// One-line human summary, or `None` when idle/finished.
    pub fn render(&self) -> Option<String> {
        if self.finished || self.stage == 0 {
            return None;
        }
        if self.stage == 1 && self.total > 0 {
            let pct = 100.0 * self.done as f64 / self.total as f64;
            let eta = match self.eta_seconds() {
                Some(e) => format!("{e:.1}s"),
                None => "-".to_string(),
            };
            Some(format!(
                "align: stage 1/6  {pct:5.1}%  diagonal {}/{}  ETA {eta}",
                self.done, self.total
            ))
        } else {
            Some(format!("align: stage {}/6", self.stage))
        }
    }
}

impl Recorder for Progress {
    fn record(&mut self, t: Duration, ev: &Event) {
        self.now = t;
        match ev {
            Event::RunBegin { total_diagonals, resumed_from_diagonal, .. } => {
                self.total = *total_diagonals;
                self.offset = *resumed_from_diagonal;
                self.done = *resumed_from_diagonal;
                self.started = Some(t);
                self.stage = 0;
                self.finished = false;
            }
            Event::StageBegin { stage } => self.stage = *stage,
            Event::StageEnd { stage: 1, .. } => self.done = self.total,
            Event::Diagonal { done, total, .. } => {
                self.done = *done;
                self.total = *total;
            }
            Event::RunEnd { .. } => self.finished = true,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON (for the schema checker)
// ---------------------------------------------------------------------------

/// A parsed JSON value — the minimal model the trace validator needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` or `false`
    Bool(bool),
    /// Any JSON number, widened to `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, entries in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str_val(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn bool_val(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one JSON document. Rejects trailing garbage; never panics.
pub fn parse_json(src: &str) -> Result<Json, TraceError> {
    let mut pos = 0usize;
    let v = parse_value(src, &mut pos, 0).map_err(TraceError::Json)?;
    skip_ws(src.as_bytes(), &mut pos);
    if pos != src.len() {
        return Err(TraceError::Json(format!("trailing bytes at offset {pos}")));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect_byte(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    match b.get(*pos) {
        Some(&c) if c == want => {
            *pos += 1;
            Ok(())
        }
        other => Err(format!("expected '{}' at offset {}, found {:?}", want as char, *pos, other)),
    }
}

fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(src, pos, depth),
        Some(b'[') => parse_array(src, pos, depth),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while b.get(*pos).is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at offset {start}"))
}

fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let b = src.as_bytes();
    expect_byte(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one slice: all are ASCII, so the run ends on a char boundary.
        let run = *pos;
        while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20) {
            *pos += 1;
        }
        out.push_str(src.get(run..*pos).ok_or("string splits a UTF-8 character")?);
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            // JSON requires U+0000-U+001F to be escaped inside strings.
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control character {c:#04x} in string"))
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash: decode one escape.
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let cp = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        // Lone surrogates (which we never emit) degrade to
                        // the replacement character.
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let chunk = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    let text = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
    u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape {text:?}"))
}

fn parse_array(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    expect_byte(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    expect_byte(b, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(src, pos)?;
        skip_ws(b, pos);
        expect_byte(b, pos, b':')?;
        let value = parse_value(src, pos, depth + 1)?;
        entries.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Trace schema validation
// ---------------------------------------------------------------------------

/// Summary returned by a successful [`validate_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Number of records in the trace.
    pub records: usize,
    /// Which of stages 1..=6 opened a span (index = stage - 1).
    pub stages_seen: [bool; 6],
    /// Whether the trace ends with a `run_end` record.
    pub ended: bool,
    /// `strip_progress` records seen (stage-1 strip scheduler).
    pub strip_progress: usize,
    /// `strip_steal` records with `stolen: true` (work stealing).
    pub strip_steals: usize,
    /// `strip_steal` records total (home claims + steals).
    pub strip_claims: usize,
    /// `interrupt` records seen (cancel / deadline / stall diagnoses).
    pub interrupts: usize,
    /// `job_submit` records seen (serve-mode per-job traces).
    pub jobs: usize,
}

struct TraceState {
    last_t: f64,
    begun: bool,
    ended: bool,
    job_submitted: bool,
    job_done: bool,
    open_stage: Option<u8>,
    last_closed: u8,
    /// `done` of the open stage span's last `diagonal` record.
    last_done: Option<f64>,
    check: TraceCheck,
}

/// Check a whole NDJSON trace against the DESIGN.md §10 schema:
/// every line parses, required fields are present and typed, timestamps
/// are non-decreasing, and spans nest (`run_begin` first, stages open
/// and close in ascending order one at a time, stage-scoped records fall
/// inside a stage span, nothing follows `run_end` except a terminal
/// `job_end`, nothing at all follows `job_end`).
///
/// A trace with no `run_begin` is [`TraceError::Empty`] **unless** it is
/// a completed job stream (`job_submit` … `job_end`): a job cancelled
/// while queued, or served from the result cache, legitimately never
/// opens a run, and its explicitly-terminated trace still validates.
pub fn validate_trace(text: &str) -> Result<TraceCheck, TraceError> {
    let mut st = TraceState {
        last_t: 0.0,
        begun: false,
        ended: false,
        job_submitted: false,
        job_done: false,
        open_stage: None,
        last_closed: 0,
        last_done: None,
        check: TraceCheck::default(),
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_record(&mut st, line)
            .map_err(|msg| TraceError::Schema { line: lineno + 1, msg })?;
    }
    if !st.begun && !st.job_done {
        return Err(TraceError::Empty);
    }
    st.check.ended = st.ended;
    Ok(st.check)
}

/// Check one field of `obj` against its declared [`Kind`].
fn check_field(obj: &Json, ev: &str, key: &str, kind: Kind) -> Result<(), String> {
    let v = obj.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    let not = |what: &str| format!("field {key:?} is not {what}");
    match kind {
        Kind::Num | Kind::NonNeg | Kind::Stage => {
            let x = v.num().ok_or_else(|| not("a number"))?;
            if !x.is_finite() {
                return Err(not("finite"));
            }
            if matches!(kind, Kind::NonNeg) && x < 0.0 {
                return Err(format!("negative {key} {x}"));
            }
            if matches!(kind, Kind::Stage) && (!(1.0..=6.0).contains(&x) || x.fract() != 0.0) {
                return Err(format!("stage {x} out of range 1..=6"));
            }
        }
        Kind::Bool => {
            v.bool_val().ok_or_else(|| not("a bool"))?;
        }
        Kind::OneOf(set) => {
            let s = v.str_val().ok_or_else(|| not("a string"))?;
            if !set.contains(&s) {
                return Err(format!("unknown {ev} {key} {s:?}"));
            }
        }
        Kind::Hex => {
            let s = v.str_val().ok_or_else(|| not("a string"))?;
            if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("{key} {s:?} is not 16 hex digits"));
            }
        }
        Kind::NumList => {
            let items = v.arr().ok_or_else(|| not("an array"))?;
            if let Some(bad) = items.iter().find(|x| x.num().is_none()) {
                return Err(format!("non-numeric entry {bad:?} in {key:?}"));
            }
        }
        Kind::NumMap => {
            let entries = v.entries().ok_or_else(|| not("an object"))?;
            if let Some((k, _)) = entries.iter().find(|(_, x)| x.num().is_none()) {
                return Err(format!("{key}.{k} is not a number"));
            }
        }
    }
    Ok(())
}

/// Validate one record: its fields against [`SCHEMA`], then the rules
/// that span records (framing, span nesting, monotone progress).
fn validate_record(st: &mut TraceState, line: &str) -> Result<(), String> {
    let obj = parse_json(line).map_err(|e| e.to_string())?;
    if obj.entries().is_none() {
        return Err("record is not a JSON object".to_string());
    }
    let ev = obj.get("ev").and_then(Json::str_val).ok_or("missing or non-string \"ev\" field")?;
    if st.job_done {
        return Err("record after job_end".to_string());
    }
    if st.ended && ev != "job_end" {
        return Err("record after run_end".to_string());
    }
    let rec = SCHEMA
        .iter()
        .find(|r| r.name == ev)
        .ok_or_else(|| format!("unknown record type {ev:?}"))?;
    check_field(&obj, ev, "t", Kind::Num)?;
    for &(key, kind) in rec.fields {
        check_field(&obj, ev, key, kind)?;
    }
    // Every declared field is now present and of its kind.
    let num = |key: &str| obj.get(key).and_then(Json::num).unwrap_or(0.0);
    let t = num("t");
    if t < st.last_t {
        return Err(format!("timestamp went backwards ({} -> {t})", st.last_t));
    }
    st.last_t = t;

    // Framing: job records wrap the run, `run_begin` opens it.
    match ev {
        "job_submit" if st.job_submitted => return Err("duplicate job_submit".to_string()),
        "job_start" | "job_end" if !st.job_submitted => {
            return Err(format!("{ev} before job_submit"));
        }
        "job_submit" | "job_start" if st.begun => return Err(format!("{ev} after run_begin")),
        "job_submit" => {
            st.job_submitted = true;
            st.check.jobs += 1;
        }
        "job_start" => {}
        // A run that claims success must actually have run to completion;
        // a cache hit must not carry run records.
        "job_end" => match obj.get("outcome").and_then(Json::str_val) {
            Some("ok") if !st.ended => return Err("outcome \"ok\" without run_end".to_string()),
            Some("cached") if st.begun => {
                return Err("outcome \"cached\" on a trace with run records".to_string());
            }
            _ => st.job_done = true,
        },
        "run_begin" if st.begun => return Err("duplicate run_begin".to_string()),
        "run_begin" => {
            if num("resumed_from_diagonal") > num("total_diagonals") {
                return Err("resumed_from_diagonal exceeds total_diagonals".to_string());
            }
            st.begun = true;
        }
        _ if !st.begun => return Err(format!("{ev:?} before run_begin")),
        _ => {}
    }

    let stage = num("stage") as u8;
    match rec.scope {
        Scope::OwnStage if st.open_stage != Some(stage) => {
            return Err(format!("{ev} for stage {stage} but open stage is {:?}", st.open_stage));
        }
        Scope::AnyStage if st.open_stage.is_none() => {
            return Err(format!("{ev} outside any stage span"));
        }
        _ => {}
    }

    match ev {
        "stage_begin" => {
            if let Some(open) = st.open_stage {
                return Err(format!("stage {stage} begins inside open stage {open}"));
            }
            if stage <= st.last_closed {
                return Err(format!("stage {stage} begins after stage {} closed", st.last_closed));
            }
            st.open_stage = Some(stage);
            st.last_done = None;
            st.check.stages_seen[usize::from(stage) - 1] = true;
        }
        "stage_end" => {
            st.open_stage = None;
            st.last_closed = stage;
        }
        "diagonal" => {
            let (done, total) = (num("done"), num("total"));
            if done > total {
                return Err(format!("diagonal done {done} exceeds total {total}"));
            }
            // Progress is the completed-diagonal frontier, which never
            // moves back within one stage span.
            if let Some(prev) = st.last_done.filter(|&prev| done < prev) {
                return Err(format!("diagonal done {done} is below the previous {prev}"));
            }
            st.last_done = Some(done);
        }
        "strip_progress" => {
            let (done, total) = (num("rows_done"), num("rows_total"));
            if done > total {
                return Err(format!("strip_progress rows_done {done} exceeds total {total}"));
            }
            st.check.strip_progress += 1;
        }
        "strip_steal" => {
            st.check.strip_claims += 1;
            if obj.get("stolen").and_then(Json::bool_val) == Some(true) {
                st.check.strip_steals += 1;
            }
        }
        "interrupt" => st.check.interrupts += 1,
        "run_end" => {
            if let Some(open) = st.open_stage {
                return Err(format!("run_end with stage {open} still open"));
            }
            st.ended = true;
        }
        _ => {}
    }
    st.check.records += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emit a miniature but schema-complete run through a TraceWriter and
    /// return the NDJSON text.
    fn sample_trace(resumed: usize) -> String {
        let clk = SharedClock::new();
        let mut tw = TraceWriter::new(Vec::new());
        {
            let mut obs = Obs::with_clock(Box::new(&clk));
            obs.add_recorder(&mut tw);
            obs.emit(Event::RunBegin {
                m: 64,
                n: 48,
                total_diagonals: 10,
                resumed_from_diagonal: resumed,
            });
            obs.emit(Event::StageBegin { stage: 1 });
            for d in resumed..10 {
                clk.advance(Duration::from_millis(100));
                obs.emit(Event::Diagonal { stage: 1, done: d + 1, total: 10 });
                if d == resumed + 1 {
                    obs.emit(Event::Checkpoint { diagonal: d + 1, ok: true });
                    obs.emit(Event::StorageFlush { store: "sra", index: 16, bytes: 392 });
                }
            }
            obs.emit(Event::Kernel {
                stage: 1,
                striped8: 4,
                striped8_fb16: 2,
                striped16: 1,
                fallback: 0,
                scalar: 5,
                pruned: 6,
                profile_hits: 3,
                profile_misses: 1,
            });
            obs.emit(Event::StageEnd { stage: 1, seconds: 1.0, cells: 64 * 48 });
            obs.emit(Event::StageBegin { stage: 2 });
            obs.emit(Event::Strip { stage: 2, index: 1, height: 20, width: 40 });
            obs.emit(Event::StorageFlush { store: "sca", index: 7, bytes: 168 });
            obs.emit(Event::StorageDrop { store: "sra", index: 16 });
            obs.emit(Event::Kernel {
                stage: 2,
                striped8: 0,
                striped8_fb16: 1,
                striped16: 0,
                fallback: 1,
                scalar: 0,
                pruned: 0,
                profile_hits: 0,
                profile_misses: 2,
            });
            obs.emit(Event::StageEnd { stage: 2, seconds: 0.1, cells: 800 });
            obs.emit(Event::StageBegin { stage: 3 });
            obs.emit(Event::Partitions { stage: 3, count: 1 });
            obs.emit(Event::Partition { stage: 3, index: 0, height: 20, width: 40 });
            obs.emit(Event::StageEnd { stage: 3, seconds: 0.05, cells: 400 });
            obs.emit(Event::StageBegin { stage: 4 });
            obs.emit(Event::Iteration {
                stage: 4,
                index: 1,
                crosspoints: 5,
                cells: 200,
                seconds: 0.01,
            });
            obs.emit(Event::StageEnd { stage: 4, seconds: 0.02, cells: 200 });
            obs.emit(Event::StageBegin { stage: 5 });
            obs.emit(Event::Partitions { stage: 5, count: 4 });
            obs.emit(Event::StageEnd { stage: 5, seconds: 0.01, cells: 100 });
            obs.emit(Event::StageBegin { stage: 6 });
            obs.emit(Event::StageEnd { stage: 6, seconds: 0.0, cells: 0 });
            obs.metrics.set("stage1.cells", 64 * 48);
            obs.metrics.set_gauge("total.seconds", 1.18);
            obs.emit(obs.metrics.to_event());
            obs.emit(Event::RunEnd { seconds: 1.18, best_score: 42 });
        }
        String::from_utf8(tw.finish().unwrap()).unwrap()
    }

    /// One instance of every [`Event`] variant, each at its own time.
    fn every_variant() -> Vec<(Duration, Event)> {
        let t = Duration::from_millis(1500);
        vec![
            (
                Duration::ZERO,
                Event::RunBegin { m: 64, n: 48, total_diagonals: 10, resumed_from_diagonal: 3 },
            ),
            (Duration::from_nanos(1), Event::StageBegin { stage: 1 }),
            (t, Event::StageEnd { stage: 6, seconds: f64::NAN, cells: 12_345_678_901 }),
            (t, Event::Diagonal { stage: 1, done: 7, total: 10 }),
            (
                t,
                Event::StripProgress { stage: 1, worker: 2, strip: 3, rows_done: 4, rows_total: 9 },
            ),
            (t, Event::StripSteal { stage: 1, worker: 1, strip: 0, stolen: true }),
            (t, Event::Strip { stage: 2, index: 1, height: 20, width: 40 }),
            (t, Event::Partitions { stage: 5, count: 4 }),
            (t, Event::Partition { stage: 3, index: 0, height: 20, width: 40 }),
            (t, Event::Iteration { stage: 4, index: 1, crosspoints: 5, cells: 200, seconds: 0.01 }),
            (t, Event::StorageFlush { store: "sra", index: 16, bytes: 392 }),
            (t, Event::StorageDrop { store: "sca", index: 7 }),
            (
                t,
                Event::Kernel {
                    stage: 3,
                    striped8: 4,
                    striped8_fb16: 2,
                    striped16: 1,
                    fallback: 0,
                    scalar: 5,
                    pruned: 6,
                    profile_hits: 3,
                    profile_misses: 1,
                },
            ),
            (t, Event::Checkpoint { diagonal: 5, ok: false }),
            (t, Event::Interrupt { stage: 1, kind: "stalled", diagonal: 3, latency_ms: 12.5 }),
            (
                t,
                Event::StallDiag {
                    stage: 1,
                    front: 3,
                    published: vec![4, 3, 0],
                    claims: vec![],
                    blocks: vec![9],
                },
            ),
            (
                t,
                Event::Metrics {
                    counters: vec![
                        ("a\"b\\c\nd\tctl\u{1}".to_string(), 3),
                        ("stage1.cells".to_string(), 3072),
                    ],
                    gauges: vec![
                        ("inf".to_string(), f64::INFINITY),
                        ("total.seconds".to_string(), 1.18),
                    ],
                },
            ),
            (Duration::from_millis(2250), Event::RunEnd { seconds: 2.25, best_score: -7 }),
            (
                Duration::ZERO,
                Event::JobSubmit {
                    job: 3,
                    fingerprint: 0x00d3_adb3_3f00_0001,
                    m: 500,
                    n: 4000,
                    priority: 5,
                    queued: 2,
                },
            ),
            (Duration::ZERO, Event::JobStart { job: 3, cached: true }),
            (t, Event::JobEnd { job: 3, outcome: "cancelled", seconds: 0.25 }),
        ]
    }

    /// The NDJSON line each sample of [`every_variant`] encodes to. The
    /// `match` is exhaustive, so a new variant does not compile until it
    /// is sampled and pinned here.
    fn pinned(ev: &Event) -> &'static str {
        match ev {
            Event::RunBegin { .. } => {
                r#"{"t":0,"ev":"run_begin","m":64,"n":48,"total_diagonals":10,"resumed_from_diagonal":3}"#
            }
            Event::StageBegin { .. } => r#"{"t":0.000000001,"ev":"stage_begin","stage":1}"#,
            Event::StageEnd { .. } => {
                r#"{"t":1.5,"ev":"stage_end","stage":6,"seconds":0,"cells":12345678901}"#
            }
            Event::Diagonal { .. } => r#"{"t":1.5,"ev":"diagonal","stage":1,"done":7,"total":10}"#,
            Event::StripProgress { .. } => {
                r#"{"t":1.5,"ev":"strip_progress","stage":1,"worker":2,"strip":3,"rows_done":4,"rows_total":9}"#
            }
            Event::StripSteal { .. } => {
                r#"{"t":1.5,"ev":"strip_steal","stage":1,"worker":1,"strip":0,"stolen":true}"#
            }
            Event::Strip { .. } => {
                r#"{"t":1.5,"ev":"strip","stage":2,"index":1,"height":20,"width":40}"#
            }
            Event::Partitions { .. } => r#"{"t":1.5,"ev":"partitions","stage":5,"count":4}"#,
            Event::Partition { .. } => {
                r#"{"t":1.5,"ev":"partition","stage":3,"index":0,"height":20,"width":40}"#
            }
            Event::Iteration { .. } => {
                r#"{"t":1.5,"ev":"iteration","stage":4,"index":1,"crosspoints":5,"cells":200,"seconds":0.01}"#
            }
            Event::StorageFlush { .. } => {
                r#"{"t":1.5,"ev":"storage_flush","store":"sra","index":16,"bytes":392}"#
            }
            Event::StorageDrop { .. } => r#"{"t":1.5,"ev":"storage_drop","store":"sca","index":7}"#,
            Event::Kernel { .. } => {
                r#"{"t":1.5,"ev":"kernel","stage":3,"striped8":4,"striped8_fb16":2,"striped16":1,"fallback":0,"scalar":5,"pruned":6,"profile_hits":3,"profile_misses":1}"#
            }
            Event::Checkpoint { .. } => r#"{"t":1.5,"ev":"checkpoint","diagonal":5,"ok":false}"#,
            Event::Interrupt { .. } => {
                r#"{"t":1.5,"ev":"interrupt","stage":1,"kind":"stalled","diagonal":3,"latency_ms":12.5}"#
            }
            Event::StallDiag { .. } => {
                r#"{"t":1.5,"ev":"stall_diag","stage":1,"front":3,"published":[4,3,0],"claims":[],"blocks":[9]}"#
            }
            Event::Metrics { .. } => {
                r#"{"t":1.5,"ev":"metrics","counters":{"a\"b\\c\nd\tctl\u0001":3,"stage1.cells":3072},"gauges":{"inf":0,"total.seconds":1.18}}"#
            }
            Event::RunEnd { .. } => r#"{"t":2.25,"ev":"run_end","seconds":2.25,"best_score":-7}"#,
            Event::JobSubmit { .. } => {
                r#"{"t":0,"ev":"job_submit","job":3,"fingerprint":"00d3adb33f000001","m":500,"n":4000,"priority":5,"queued":2}"#
            }
            Event::JobStart { .. } => r#"{"t":0,"ev":"job_start","job":3,"cached":true}"#,
            Event::JobEnd { .. } => {
                r#"{"t":1.5,"ev":"job_end","job":3,"outcome":"cancelled","seconds":0.25}"#
            }
        }
    }

    fn encode_line(t: Duration, ev: &Event) -> String {
        let mut tw = TraceWriter::new(Vec::new());
        tw.record(t, ev);
        String::from_utf8(tw.finish().unwrap()).unwrap()
    }

    #[test]
    fn every_variant_encodes_to_its_pinned_line() {
        let samples = every_variant();
        let mut names = std::collections::BTreeSet::new();
        for (t, ev) in &samples {
            let line = encode_line(*t, ev);
            assert_eq!(line, format!("{}\n", pinned(ev)), "{ev:?}");
            let rec = parse_json(line.trim_end()).unwrap();
            assert!(names.insert(rec.get("ev").and_then(Json::str_val).unwrap().to_string()));
        }
        assert_eq!(names.len(), samples.len(), "each variant is sampled once");
    }

    /// Every variant's line validates inside the smallest framing its
    /// record type allows.
    #[test]
    fn every_variant_validates_inside_a_minimal_frame() {
        let run_begin = r#"{"t":0,"ev":"run_begin","m":1,"n":1,"total_diagonals":10,"resumed_from_diagonal":0}"#;
        let run_end = r#"{"t":9,"ev":"run_end","seconds":9,"best_score":0}"#;
        let submit = r#"{"t":0,"ev":"job_submit","job":3,"fingerprint":"0000000000000003","m":1,"n":1,"priority":0,"queued":1}"#;
        let job_end = r#"{"t":9,"ev":"job_end","job":3,"outcome":"cancelled","seconds":9}"#;
        for (t, ev) in every_variant() {
            let line = encode_line(t, &ev);
            let line = line.trim_end();
            let rec = parse_json(line).unwrap();
            let stage = rec.get("stage").and_then(Json::num).unwrap_or(1.0);
            let open = format!(r#"{{"t":0,"ev":"stage_begin","stage":{stage}}}"#);
            let close =
                format!(r#"{{"t":9,"ev":"stage_end","stage":{stage},"seconds":0,"cells":0}}"#);
            let frame: Vec<&str> = match rec.get("ev").and_then(Json::str_val).unwrap() {
                "job_submit" => vec![line, job_end],
                "job_start" => vec![submit, line, job_end],
                "job_end" => vec![submit, line],
                "run_begin" => vec![line, run_end],
                "run_end" => vec![run_begin, line],
                "stage_begin" => vec![run_begin, line, &close, run_end],
                "stage_end" => vec![run_begin, &open, line, run_end],
                _ => vec![run_begin, &open, line, &close, run_end],
            };
            let check = validate_trace(&frame.join("\n"));
            assert_eq!(check.map(|c| c.records), Ok(frame.len()), "{line}");
        }
    }

    /// The encoder and the schema table come from one declaration: each
    /// line's keys are `t`, `ev`, then its record's fields in order.
    #[test]
    fn encoded_keys_follow_the_schema_table() {
        let samples = every_variant();
        assert_eq!(SCHEMA.len(), samples.len());
        for (t, ev) in &samples {
            let rec = parse_json(encode_line(*t, ev).trim_end()).unwrap();
            let keys: Vec<&str> = rec.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            let name = rec.get("ev").and_then(Json::str_val).unwrap();
            let schema = SCHEMA.iter().find(|r| r.name == name).unwrap();
            let declared: Vec<&str> =
                ["t", "ev"].into_iter().chain(schema.fields.iter().map(|f| f.0)).collect();
            assert_eq!(keys, declared);
        }
    }

    /// The validator requires what the encoder writes: hiding any declared
    /// field fails the record.
    #[test]
    fn validator_requires_every_declared_field() {
        for (t, ev) in every_variant() {
            let line = encode_line(t, &ev);
            let name = parse_json(line.trim_end()).unwrap().get("ev").cloned();
            let schema = SCHEMA.iter().find(|r| Some(Json::Str(r.name.into())) == name).unwrap();
            for &(key, _) in schema.fields {
                let hidden = line.replacen(&format!(",\"{key}\":"), &format!(",\"{key}_\":"), 1);
                let msg = format!("missing field {key:?}");
                assert_eq!(validate_trace(&hidden), Err(TraceError::Schema { line: 1, msg }));
            }
        }
    }

    #[test]
    fn json_strings_round_trip_multibyte_utf8_between_escapes() {
        let text = "2-byte é, 3-byte €→, 4-byte 𝄞🧬, \"quoted\"\\\n\tmixed: ü\"ß\\中\u{1}𐍈";
        let encoded = format!("{{\"s\":\"{}\",\"k\":[\"ö\",\"\\u00e9\"]}}", json_escape(text));
        let parsed = parse_json(&encoded).unwrap();
        assert_eq!(parsed.get("s").and_then(Json::str_val), Some(text));
        let items = parsed.get("k").and_then(Json::arr).unwrap();
        assert_eq!(items[0].str_val(), Some("ö"));
        assert_eq!(items[1].str_val(), Some("é"));
        assert!(parse_json("\"unterminated é").is_err());
    }

    #[test]
    fn json_strings_reject_raw_control_characters() {
        assert!(parse_json("\"a\u{1}b\"").is_err());
        assert!(parse_json("\"a\tb\"").is_err());
        assert!(parse_json("{\"k\":\"\u{1f}\"}").is_err());
        assert_eq!(parse_json("\"a\\u0001b\"").unwrap().str_val(), Some("a\u{1}b"));
        assert_eq!(parse_json("\"a\\tb\"").unwrap().str_val(), Some("a\tb"));
    }

    #[test]
    fn round_trip_trace_validates_and_covers_all_stages() {
        let text = sample_trace(0);
        let check = validate_trace(&text).unwrap();
        assert!(check.stages_seen.iter().all(|&s| s), "stages seen: {:?}", check.stages_seen);
        assert!(check.ended);
        assert_eq!(check.records, text.lines().filter(|l| !l.trim().is_empty()).count());
    }

    #[test]
    fn every_record_parses_as_standalone_json() {
        for line in sample_trace(3).lines() {
            let v = parse_json(line).unwrap();
            assert!(v.get("t").and_then(Json::num).is_some(), "no t in {line}");
            assert!(v.get("ev").and_then(Json::str_val).is_some(), "no ev in {line}");
        }
    }

    #[test]
    fn resumed_trace_reports_resume_diagonal() {
        let text = sample_trace(4);
        validate_trace(&text).unwrap();
        let first = parse_json(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("resumed_from_diagonal").and_then(Json::num), Some(4.0));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let ok = sample_trace(0);
        // A record after run_end.
        let extra = format!("{ok}\n{{\"t\":99,\"ev\":\"stage_begin\",\"stage\":1}}");
        assert!(validate_trace(&extra).unwrap_err().to_string().contains("after run_end"));
        // Unbalanced span: drop the stage_end records.
        let unbalanced: String =
            ok.lines().filter(|l| !l.contains("stage_end")).collect::<Vec<_>>().join("\n");
        assert!(validate_trace(&unbalanced).is_err());
        // Non-monotone timestamps.
        let back = "{\"t\":1,\"ev\":\"run_begin\",\"m\":1,\"n\":1,\"total_diagonals\":1,\"resumed_from_diagonal\":0}\n{\"t\":0.5,\"ev\":\"stage_begin\",\"stage\":1}";
        assert!(validate_trace(back).unwrap_err().to_string().contains("backwards"));
        // Missing required field.
        let missing = "{\"t\":0,\"ev\":\"run_begin\",\"m\":1,\"n\":1,\"total_diagonals\":1}";
        assert!(validate_trace(missing).unwrap_err().to_string().contains("resumed_from_diagonal"));
        // Garbage line.
        assert!(validate_trace("not json").is_err());
        // Empty trace.
        assert!(validate_trace("").unwrap_err().to_string().contains("run_begin"));
    }

    /// `diagonal` progress is a frontier: it may repeat or jump, but it
    /// never moves back within one stage span.
    #[test]
    fn validator_rejects_diagonal_progress_that_moves_back() {
        let ok = sample_trace(0);
        let tick = |done: usize| format!("\"ev\":\"diagonal\",\"stage\":1,\"done\":{done},");
        assert!(ok.contains(&tick(3)) && ok.contains(&tick(4)));
        // Repeating a value is allowed.
        let repeated = ok.replace(&tick(4), &tick(3));
        validate_trace(&repeated).unwrap();
        // Moving back is not.
        let back = ok.replace(&tick(5), &tick(3));
        let err = validate_trace(&back).unwrap_err().to_string();
        assert!(err.contains("below the previous 4"), "{err}");
    }

    #[test]
    fn job_records_frame_a_run_and_terminate_the_stream() {
        // Full serve-job trace: submit/start wrap a complete run, job_end
        // closes the stream.
        let run = sample_trace(0);
        let submit = "{\"t\":0,\"ev\":\"job_submit\",\"job\":3,\"fingerprint\":\"00d3adb33f000001\",\"m\":1,\"n\":1,\"priority\":5,\"queued\":2}";
        let start = "{\"t\":0,\"ev\":\"job_start\",\"job\":3,\"cached\":false}";
        let full = format!("{submit}\n{start}\n{run}\n{{\"t\":99,\"ev\":\"job_end\",\"job\":3,\"outcome\":\"ok\",\"seconds\":99}}");
        let check = validate_trace(&full).unwrap();
        assert!(check.ended);
        assert_eq!(check.jobs, 1);

        // A job cancelled while queued never opens a run, yet its
        // explicitly-terminated two-record stream validates (the
        // empty-trace fix).
        let cancelled = format!(
            "{submit}\n{{\"t\":1,\"ev\":\"job_end\",\"job\":3,\"outcome\":\"cancelled\",\"seconds\":1}}"
        );
        let check = validate_trace(&cancelled).unwrap();
        assert!(!check.ended);
        assert_eq!(check.jobs, 1);
        assert_eq!(check.records, 2);

        // Cache hit: start with cached=true, outcome "cached", no run.
        let hit = format!(
            "{submit}\n{{\"t\":1,\"ev\":\"job_start\",\"job\":3,\"cached\":true}}\n{{\"t\":1,\"ev\":\"job_end\",\"job\":3,\"outcome\":\"cached\",\"seconds\":1}}"
        );
        assert_eq!(validate_trace(&hit).unwrap().jobs, 1);
    }

    #[test]
    fn validator_rejects_malformed_job_records() {
        let submit = "{\"t\":0,\"ev\":\"job_submit\",\"job\":3,\"fingerprint\":\"00d3adb33f000001\",\"m\":1,\"n\":1,\"priority\":5,\"queued\":2}";
        let end_ok = "{\"t\":9,\"ev\":\"job_end\",\"job\":3,\"outcome\":\"ok\",\"seconds\":9}";
        // "ok" without a completed run is a lie.
        let lie = format!("{submit}\n{end_ok}");
        assert!(validate_trace(&lie).unwrap_err().to_string().contains("without run_end"));
        // "cached" with run records is a lie the other way.
        let run = sample_trace(0);
        let cached = format!(
            "{submit}\n{run}\n{{\"t\":99,\"ev\":\"job_end\",\"job\":3,\"outcome\":\"cached\",\"seconds\":99}}"
        );
        assert!(validate_trace(&cached).unwrap_err().to_string().contains("cached"));
        // Nothing may follow job_end.
        let tail = format!(
            "{submit}\n{{\"t\":1,\"ev\":\"job_end\",\"job\":3,\"outcome\":\"failed\",\"seconds\":1}}\n{submit}"
        );
        assert!(validate_trace(&tail).unwrap_err().to_string().contains("after job_end"));
        // job_end needs its submit; a fingerprint must be 16 hex digits.
        assert!(validate_trace(end_ok).unwrap_err().to_string().contains("before job_submit"));
        let bad_fp = submit.replace("00d3adb33f000001", "xyz");
        assert!(validate_trace(&bad_fp).unwrap_err().to_string().contains("hex"));
        // A submit with no terminal record is still an empty run.
        assert!(matches!(validate_trace(submit), Err(TraceError::Empty)));
    }

    #[test]
    fn progress_is_resume_aware_and_eta_uses_this_runs_rate() {
        let mut p = Progress::new();
        let t0 = Duration::ZERO;
        p.record(
            t0,
            &Event::RunBegin { m: 100, n: 100, total_diagonals: 100, resumed_from_diagonal: 40 },
        );
        p.record(t0, &Event::StageBegin { stage: 1 });
        // Progress starts at the resumed diagonal, not zero.
        assert_eq!(p.percent(), Some(40.0));
        assert_eq!(p.eta_seconds(), None);
        // 30 fresh diagonals in 10 seconds -> 3/s; 30 remain -> ETA 10s.
        p.record(Duration::from_secs(10), &Event::Diagonal { stage: 1, done: 70, total: 100 });
        assert_eq!(p.percent(), Some(70.0));
        let eta = p.eta_seconds().unwrap();
        assert!((eta - 10.0).abs() < 1e-9, "eta = {eta}");
        let line = p.render().unwrap();
        assert!(line.contains("70.0%"), "{line}");
        assert!(line.contains("diagonal 70/100"), "{line}");
        // Later stages render a simple stage marker.
        p.record(Duration::from_secs(21), &Event::StageEnd { stage: 1, seconds: 21.0, cells: 1 });
        p.record(Duration::from_secs(21), &Event::StageBegin { stage: 4 });
        assert_eq!(p.render().unwrap(), "align: stage 4/6");
        p.record(Duration::from_secs(22), &Event::RunEnd { seconds: 22.0, best_score: 1 });
        assert_eq!(p.render(), None);
    }

    #[test]
    fn metrics_registry_counts_and_dumps_sorted() {
        let mut m = Metrics::new();
        m.inc("b.cells", 5);
        m.inc("b.cells", 7);
        m.set("a.rows", 3);
        m.set_gauge("z.seconds", 1.5);
        m.add_gauge("z.seconds", 0.25);
        assert_eq!(m.get("b.cells"), 12);
        assert_eq!(m.get("a.rows"), 3);
        assert_eq!(m.get("missing"), 0);
        assert!((m.gauge("z.seconds") - 1.75).abs() < 1e-12);
        match m.to_event() {
            Event::Metrics { counters, gauges } => {
                assert_eq!(counters, vec![("a.rows".to_string(), 3), ("b.cells".to_string(), 12)]);
                assert_eq!(gauges.len(), 1);
                assert_eq!(gauges[0].0, "z.seconds");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        let v = parse_json(r#"{"k":"a\"b\\c\nd\u0041","n":-1.5e2,"b":[true,false,null]}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::str_val), Some("a\"b\\c\ndA"));
        assert_eq!(v.get("n").and_then(Json::num), Some(-150.0));
        assert_eq!(
            v.get("b"),
            Some(&Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]))
        );
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "1 2", "\"\\q\""] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        // Escaping round-trips through our own encoder.
        let tricky = "quote\" slash\\ tab\t nl\n ctrl\u{1}";
        let encoded = format!("{{\"s\":\"{}\"}}", json_escape(tricky));
        let parsed = parse_json(&encoded).unwrap();
        assert_eq!(parsed.get("s").and_then(Json::str_val), Some(tricky));
    }

    #[test]
    fn trace_writer_reports_sticky_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut tw = TraceWriter::new(Failing);
        tw.record(Duration::ZERO, &Event::StageBegin { stage: 1 });
        tw.record(Duration::ZERO, &Event::StageBegin { stage: 2 });
        assert_eq!(tw.records(), 0);
        assert!(tw.error().is_some_and(|e| e.contains("disk full")));
        assert!(tw.finish().is_err());
    }

    #[test]
    fn interrupted_trace_validates_without_run_end() {
        let clk = SharedClock::new();
        let mut tw = TraceWriter::new(Vec::new());
        {
            let mut obs = Obs::with_clock(Box::new(&clk));
            obs.add_recorder(&mut tw);
            obs.emit(Event::RunBegin {
                m: 64,
                n: 48,
                total_diagonals: 10,
                resumed_from_diagonal: 0,
            });
            obs.emit(Event::StageBegin { stage: 1 });
            clk.advance(Duration::from_millis(40));
            obs.emit(Event::Diagonal { stage: 1, done: 3, total: 10 });
            obs.emit(Event::Interrupt { stage: 1, kind: "stalled", diagonal: 3, latency_ms: 12.5 });
            obs.emit(Event::StallDiag {
                stage: 1,
                front: 3,
                published: vec![4, 3, 0],
                claims: vec![2, 1],
                blocks: vec![9, 5],
            });
        }
        let text = String::from_utf8(tw.finish().unwrap()).unwrap();
        let check = validate_trace(&text).unwrap();
        assert!(!check.ended, "interrupted trace must not count as ended");
        assert_eq!(check.interrupts, 1);
        // The arrays survive the round trip through the encoder.
        let diag = text.lines().find(|l| l.contains("stall_diag")).unwrap();
        let v = parse_json(diag).unwrap();
        assert_eq!(v.get("published").and_then(Json::arr).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("claims").and_then(Json::arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("front").and_then(Json::num), Some(3.0));
    }

    #[test]
    fn validator_rejects_malformed_interrupt_records() {
        let head = "{\"t\":0,\"ev\":\"run_begin\",\"m\":1,\"n\":1,\"total_diagonals\":1,\"resumed_from_diagonal\":0}";
        let bad_kind = format!(
            "{head}\n{{\"t\":1,\"ev\":\"interrupt\",\"stage\":1,\"kind\":\"bored\",\"diagonal\":0,\"latency_ms\":0}}"
        );
        assert!(validate_trace(&bad_kind)
            .unwrap_err()
            .to_string()
            .contains("unknown interrupt kind"));
        let neg_latency = format!(
            "{head}\n{{\"t\":1,\"ev\":\"interrupt\",\"stage\":1,\"kind\":\"deadline\",\"diagonal\":0,\"latency_ms\":-3}}"
        );
        assert!(validate_trace(&neg_latency)
            .unwrap_err()
            .to_string()
            .contains("negative latency_ms"));
        let bad_diag = format!(
            "{head}\n{{\"t\":1,\"ev\":\"stall_diag\",\"stage\":1,\"front\":0,\"published\":[1,\"x\"],\"claims\":[],\"blocks\":[]}}"
        );
        assert!(validate_trace(&bad_diag).unwrap_err().to_string().contains("non-numeric"));
        let missing_arr = format!(
            "{head}\n{{\"t\":1,\"ev\":\"stall_diag\",\"stage\":1,\"front\":0,\"published\":[],\"claims\":[]}}"
        );
        assert!(validate_trace(&missing_arr).unwrap_err().to_string().contains("blocks"));
    }

    #[test]
    fn shared_clock_clones_share_time_across_threads() {
        let clk = SharedClock::new();
        let obs = Obs::with_clock(Box::new(clk.clone()));
        assert_eq!(obs.now(), Duration::ZERO);
        let remote = clk.clone();
        std::thread::scope(|s| {
            s.spawn(move || remote.advance(Duration::from_millis(300)));
        });
        assert_eq!(obs.now(), Duration::from_millis(300));
        clk.set(Duration::from_secs(2));
        assert_eq!(clk.now(), Duration::from_secs(2));
    }

    #[test]
    fn manual_clock_drives_obs_time() {
        let clk = SharedClock::new();
        let obs = Obs::with_clock(Box::new(&clk));
        assert_eq!(obs.now(), Duration::ZERO);
        clk.advance(Duration::from_millis(250));
        assert_eq!(obs.now(), Duration::from_millis(250));
        clk.set(Duration::from_secs(5));
        assert_eq!(obs.now(), Duration::from_secs(5));
    }
}
