#![warn(missing_docs)]

//! # gpu-sim
//!
//! A CUDA-like block/thread wavefront execution engine in safe Rust — the
//! substrate that stands in for the paper's NVIDIA GTX 285.
//!
//! CUDAlign divides the DP matrix into a grid of blocks (`B` block-columns,
//! each block `alpha * T` rows tall, where `T` is the CUDA block's thread
//! count and each thread owns `alpha` rows). Blocks on the same *external
//! diagonal* are independent and run concurrently; values cross block
//! boundaries through a *horizontal bus* (last row of each block: `H`/`F`
//! pairs) and a *vertical bus* (last column: `H`/`E` pairs). This crate
//! reproduces that execution model with OS threads:
//!
//! * [`grid`] — grid geometry and the paper's *minimum size requirement*
//!   (`n >= 2 B T`), including the runtime reduction of `B`,
//! * [`kernel`] — the per-block tile kernel (Gotoh recurrences over a
//!   `block_height x block_width` tile fed by bus segments), dispatching
//!   between a scalar `i32` loop and the vector path below,
//! * [`striped`] — the lane-striped saturating kernel (the CPU analogue
//!   of the paper's internal-diagonal parallelism), written once over
//!   its lane type and instantiated as the 32-lane `i8` and 16-lane
//!   `i16` rungs of the per-tile precision ladder (i8 → i16 → scalar
//!   `i32`), with the query-profile cache and the overflow/fallback
//!   protocol,
//! * [`ctrl`] — run-supervision primitives: the clonable [`CancelToken`]
//!   (cancel flag + cause + heartbeat) polled cooperatively by every
//!   scheduler, with the deadline/stall watchdog living in [`exec`],
//! * [`exec`] — the persistent worker-pool executor (the CPU analogue of
//!   a persistent-kernel GPU design): long-lived threads that take strip
//!   runners and partition batches through a queue/condvar handoff, panic
//!   capture instead of process aborts, and busy-lane utilization
//!   counters,
//! * [`wavefront`] — the block scheduler behind one entry,
//!   [`wavefront::launch`]: serial runs walk the grid on the calling
//!   thread, parallel runs give each worker a strip of block columns that
//!   hands its right border to the next strip point to point, with no
//!   global barrier. Observer hooks let the pipeline flush special rows
//!   and run matching procedures,
//! * [`device`] — the calibrated GTX 285 time model used to project
//!   paper-scale runtimes from cell counts,
//! * [`multi`] — column-split execution across several simulated cards
//!   (the paper's dual-GPU future work): a strip run with one strip per
//!   card, its border exchange counted from the layout.
//!
//! What is *not* simulated: warp-level mechanics (the short/long phase
//! kernel split and the `alpha`-row memory access design) — these affect
//! GPU throughput, not results; their cost shows up in the [`device`]
//! model instead. Internal-diagonal parallelism *is* exploited, but as
//! real CPU SIMD via [`striped`] rather than as simulation. The data-flow the algorithm depends on —
//! bus hand-offs, block boundaries, diagonal-synchronous progress and the
//! minimum size requirement — is executed faithfully.

pub mod ctrl;
pub mod device;
pub mod exec;
pub mod grid;
pub mod kernel;
pub mod multi;
#[cfg(feature = "race-check")]
pub mod race;
pub mod striped;
pub mod wavefront;

pub use ctrl::{CancelCause, CancelToken, StripDiag};
pub use device::DeviceModel;
pub use exec::{ExecError, PoolStats, Watchdog, WorkerPool};
pub use grid::GridSpec;
pub use kernel::{CellHE, CellHF, GlobalOrigin, KernelPath, Mode, TileOutcome};
pub use wavefront::{
    BlockCoords, Launch, NoObserver, RegionJob, RegionResult, StripEvent, StripPlan, StripStats,
    WavefrontObserver,
};
