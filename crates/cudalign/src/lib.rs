#![warn(missing_docs)]

//! # cudalign
//!
//! A Rust reproduction of **CUDAlign 2.0** (Sandes & de Melo, IPDPS 2011):
//! retrieving the full optimal Smith-Waterman alignment (affine gaps) of
//! huge DNA sequences in **linear space**, organized as the paper's six
//! stages:
//!
//! 1. [`stage1`] — forward SW over the whole matrix on the wavefront
//!    engine; finds the best score and its end point while flushing
//!    *special rows* to the [`sra`] (Special Rows Area).
//! 2. [`stage2`] — reverse pass from the end point with *goal-based
//!    matching* and *orthogonal execution*; produces crosspoints over the
//!    special rows, the alignment's start point, and special columns.
//! 3. [`stage3`] — forward pass inside each partition matching the stored
//!    special columns; more crosspoints.
//! 4. [`stage4`] — iterative Myers-Miller between successive crosspoints
//!    with *balanced splitting* and *orthogonal execution* until every
//!    partition fits the maximum partition size.
//! 5. [`stage5`] — exact alignment of each (tiny) partition and
//!    concatenation; compact binary representation ([`binary`]).
//! 6. [`stage6`] — reconstruction and visualization (text alignment, dot
//!    plot).
//!
//! The whole pipeline lives behind [`Pipeline`]; see `examples/` for
//! usage. Memory is `O(m + n)` plus the configured disk budget — the DP
//! matrix (up to `10^15` cells at paper scale) is never materialized.
//!
//! Every stage executes on one persistent [`WorkerPool`]
//! (`gpu_sim::exec`), created by [`Pipeline::new`] from
//! [`PipelineConfig::workers`] and shared across stages and runs: no OS
//! threads are spawned per diagonal or per partition batch, worker panics
//! surface as [`PipelineError::Worker`] instead of aborting the process,
//! and [`PipelineStats`] reports the pool's per-run utilization
//! (`pool_handoffs`, `pool_busy_ratio`).
//!
//! ```
//! use cudalign::{Pipeline, PipelineConfig};
//!
//! let cfg = PipelineConfig::for_tests();
//! let s0 = b"ACGTACGTACGTGACCA".to_vec();
//! let s1 = b"ACGTACGTCCGTGACCA".to_vec();
//! let result = Pipeline::new(cfg).align(&s0, &s1).unwrap();
//! assert!(result.best_score > 0);
//! result.transcript.validate(
//!     &s0[result.start.0..result.end.0],
//!     &s1[result.start.1..result.end.1],
//! ).unwrap();
//! ```

pub mod binary;
pub mod config;
pub mod crosspoint;
pub mod obs;
pub mod pipeline;
pub mod serve;
pub mod sra;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod stage4;
pub mod stage5;
pub mod stage6;
pub mod storage;
pub mod supervise;

pub use binary::BinaryAlignment;
pub use config::PipelineConfig;
pub use crosspoint::{Crosspoint, CrosspointChain, Partition};
pub use gpu_sim::{CancelCause, CancelToken, ExecError, PoolStats, WorkerPool};
pub use obs::{Event, Metrics, Obs, Progress, Recorder, TraceWriter};
pub use pipeline::{
    Pipeline, PipelineError, PipelineResult, PipelineStats, StageContext, StageError,
};
pub use serve::{JobHandle, JobReport, JobRequest, ServeConfig, ServeError, ServeStats, Server};
pub use storage::StorageError;
pub use supervise::RunControl;
