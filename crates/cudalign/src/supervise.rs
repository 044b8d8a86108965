//! Run supervision: cooperative cancellation, deadlines and the stall
//! watchdog for the six-stage pipeline (DESIGN.md §12).
//!
//! A [`RunControl`] is the per-run supervision policy: one clonable
//! handle bundling a [`CancelToken`] with an optional wall-clock
//! deadline, an optional stall budget, and an optional
//! cancel-after-diagonal trigger (the CLI's `--cancel-after-diag`).
//! The pipeline threads the token through every stage and the wavefront
//! engine; the deadline and stall budget are enforced by a single
//! watchdog thread ([`gpu_sim::exec::spawn_watchdog`]) that observes the
//! token's heartbeat — hot paths never read a clock.
//!
//! Time flows through an injectable [`TimeSource`] so tests drive
//! supervision with [`crate::obs::SharedClock`] instead of real wall
//! time; production controls default to a [`WallClock`].
//!
//! An interruption always surfaces as a typed
//! [`StageError`]/[`crate::pipeline::PipelineError`] variant
//! (`Cancelled`, `DeadlineExceeded`, `Stalled`) — never a partial score
//! — and, when stage-1 checkpointing is on, the engine flushes a
//! boundary snapshot before unwinding so cancellation is always
//! resumable.

use crate::obs::{Clock, WallClock};
use crate::pipeline::StageError;
use gpu_sim::exec::{spawn_watchdog, TimeSource, Watchdog};
use gpu_sim::{CancelCause, CancelToken};
use std::sync::Arc;
use std::time::Duration;

/// How often the watchdog thread samples the clock and heartbeat. Far
/// below any sensible budget, far above scheduler noise.
const DEFAULT_POLL: Duration = Duration::from_millis(2);

/// A wall-clock time source for production controls ([`WallClock`] is
/// the one sanctioned `Instant` reader; see the `clock-injection` lint).
fn wall_time_source() -> TimeSource {
    let clk = WallClock::new();
    Arc::new(move || clk.now())
}

/// Per-run supervision policy: cancel token, optional deadline, optional
/// stall budget, optional cancel-after-diagonal trigger, and the time
/// source the watchdog reads.
///
/// Cheap to clone (the token is one `Arc`, the time source another); all
/// clones control the same run. [`RunControl::unlimited`] is the silent
/// default used by the non-supervised entry points.
#[derive(Clone)]
pub struct RunControl {
    token: CancelToken,
    deadline: Option<Duration>,
    stall_budget: Option<Duration>,
    poll: Duration,
    cancel_after_diagonal: Option<usize>,
    time: TimeSource,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl::unlimited()
    }
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("token", &self.token)
            .field("deadline", &self.deadline)
            .field("stall_budget", &self.stall_budget)
            .field("cancel_after_diagonal", &self.cancel_after_diagonal)
            .finish_non_exhaustive()
    }
}

impl RunControl {
    /// No deadline, no stall budget, no trigger — cancellable only via
    /// [`RunControl::cancel`] on a clone.
    pub fn unlimited() -> Self {
        RunControl {
            token: CancelToken::new(),
            deadline: None,
            stall_budget: None,
            poll: DEFAULT_POLL,
            cancel_after_diagonal: None,
            time: wall_time_source(),
        }
    }

    /// Abort the run once `ms` milliseconds elapse on the time source.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Abort the run when the heartbeat (blocks computed, rows published)
    /// stops moving for `ms` milliseconds.
    pub fn with_stall_budget_ms(mut self, ms: u64) -> Self {
        self.stall_budget = Some(Duration::from_millis(ms));
        self
    }

    /// Cancel the run once the stage-1 wavefront's completed-diagonal
    /// frontier reaches external diagonal `d` (the CLI's
    /// `--cancel-after-diag`, and the chaos harness's deterministic
    /// cancel point).
    pub fn with_cancel_after_diagonal(mut self, d: usize) -> Self {
        self.cancel_after_diagonal = Some(d);
        self
    }

    /// Replace the watchdog's time source (default: a fresh [`WallClock`]).
    pub fn with_time_source(mut self, time: TimeSource) -> Self {
        self.time = time;
        self
    }

    /// [`RunControl::with_time_source`] from any owned `Send + Sync`
    /// [`Clock`] (e.g. a [`crate::obs::SharedClock`] clone).
    pub fn with_clock<C: Clock + Send + Sync + 'static>(self, clock: C) -> Self {
        self.with_time_source(Arc::new(move || clock.now()))
    }

    /// Override the watchdog's poll cadence (tests shrink it).
    pub fn with_poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// The cancel token stages and the engine poll.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The configured cancel-after-diagonal trigger, if any.
    pub fn cancel_after_diagonal(&self) -> Option<usize> {
        self.cancel_after_diagonal
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured stall budget, if any.
    pub fn stall_budget(&self) -> Option<Duration> {
        self.stall_budget
    }

    /// Request cancellation, stamping the time source for latency
    /// accounting. Returns `false` when the run was already cancelled.
    pub fn cancel(&self) -> bool {
        self.token.cancel_at(CancelCause::Requested, (self.time)().as_nanos() as u64)
    }

    /// Has the run been cancelled (by any clone, the watchdog, or the
    /// trigger)?
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// The winning cancellation's cause, if any.
    pub fn cause(&self) -> Option<CancelCause> {
        self.token.cause()
    }

    /// Milliseconds elapsed on the time source since the cancel signal —
    /// the time-to-cancel latency once the run has unwound. Zero when
    /// the run is not cancelled or the signal carried no stamp.
    pub fn cancel_latency_ms(&self) -> f64 {
        match self.token.cancel_stamp_nanos() {
            Some(stamp) if stamp > 0 => {
                ((self.time)().as_nanos() as u64).saturating_sub(stamp) as f64 / 1e6
            }
            _ => 0.0,
        }
    }

    /// Start the deadline/stall watchdog thread, or `None` when neither
    /// budget is configured. Hold the returned guard for the run's
    /// duration; dropping it stops and joins the thread.
    pub fn spawn_watchdog(&self) -> Option<Watchdog> {
        if self.deadline.is_none() && self.stall_budget.is_none() {
            return None;
        }
        Some(spawn_watchdog(
            self.token.clone(),
            Arc::clone(&self.time),
            self.deadline,
            self.stall_budget,
            self.poll,
        ))
    }

    /// Cooperative cancellation point: `Ok(())` while the run may
    /// continue, or the typed [`StageError`] for the winning cause.
    /// `diagonal` is the resume point reported in the error (stages
    /// without a stage-1 diagonal pass 0 — their resume re-runs from the
    /// last stage-1 state).
    pub fn check(&self, diagonal: usize) -> Result<(), StageError> {
        if !self.token.is_cancelled() {
            return Ok(());
        }
        Err(match self.token.cause() {
            Some(CancelCause::DeadlineExceeded { budget_ms }) => {
                StageError::DeadlineExceeded { diagonal, budget_ms }
            }
            Some(CancelCause::Stalled { budget_ms }) => StageError::Stalled { diagonal, budget_ms },
            // `Requested`, a future cause, or (unreachable in practice) a
            // flag set without a recorded cause: plain cancellation.
            _ => StageError::Cancelled { diagonal },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SharedClock;

    #[test]
    fn unlimited_control_never_spawns_a_watchdog_and_checks_pass() {
        let ctrl = RunControl::unlimited();
        assert!(ctrl.spawn_watchdog().is_none());
        assert!(ctrl.check(5).is_ok());
        assert!(!ctrl.is_cancelled());
        assert_eq!(ctrl.cancel_latency_ms(), 0.0);
    }

    #[test]
    fn cancel_maps_to_typed_cancelled_error_with_latency() {
        let clk = SharedClock::new();
        let ctrl = RunControl::unlimited().with_clock(clk.clone());
        clk.set(Duration::from_millis(10));
        assert!(ctrl.cancel());
        assert!(!ctrl.cancel(), "second cancel loses");
        clk.advance(Duration::from_millis(7));
        assert_eq!(ctrl.check(42), Err(StageError::Cancelled { diagonal: 42 }));
        assert!((ctrl.cancel_latency_ms() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn watchdog_causes_map_to_their_typed_errors() {
        let clk = SharedClock::new();
        let ctrl = RunControl::unlimited()
            .with_clock(clk.clone())
            .with_deadline_ms(20)
            .with_poll(Duration::from_millis(1));
        assert!(ctrl.deadline().is_some());
        {
            let _dog = ctrl.spawn_watchdog().expect("deadline configured");
            clk.advance(Duration::from_millis(25));
            while !ctrl.is_cancelled() {
                std::thread::yield_now();
            }
        }
        assert_eq!(ctrl.check(3), Err(StageError::DeadlineExceeded { diagonal: 3, budget_ms: 20 }));

        // Stall cause, injected directly (the watchdog's own detection
        // logic is covered in gpu_sim::exec).
        let ctrl2 = RunControl::unlimited();
        ctrl2.token().cancel(CancelCause::Stalled { budget_ms: 9 });
        assert_eq!(ctrl2.check(0), Err(StageError::Stalled { diagonal: 0, budget_ms: 9 }));
    }

    #[test]
    fn clones_share_the_token() {
        let ctrl = RunControl::unlimited().with_cancel_after_diagonal(8);
        let remote = ctrl.clone();
        assert_eq!(remote.cancel_after_diagonal(), Some(8));
        remote.cancel();
        assert!(ctrl.is_cancelled());
        assert_eq!(ctrl.cause(), Some(CancelCause::Requested));
    }
}
