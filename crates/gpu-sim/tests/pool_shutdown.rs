//! Regression for a lost wake-up in `WorkerPool`'s `Drop`.
//!
//! An idle worker checks the shutdown flag and then waits on the queue
//! `Condvar`, holding the queue lock across both. If `Drop` sets the flag
//! and notifies without that lock, both can land between the worker's
//! check and its wait: the worker then sleeps forever and `join` hangs.
//! The `park_before_wait` fault hook holds that gap open, so the bad
//! interleaving happens on every run instead of once in ~100k drops.
//!
//! Its own test binary: the hook is process-global, and any other pool
//! running in the same process could consume it.

use gpu_sim::exec::fault;
use gpu_sim::WorkerPool;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[test]
fn drop_wakes_a_worker_parked_between_its_shutdown_check_and_wait() {
    for round in 0..3 {
        fault::arm_park_before_wait();
        // Two lanes = one worker thread, which goes idle at once and parks.
        let pool = WorkerPool::new(2);
        let armed_at = Instant::now();
        while !fault::parked() {
            assert!(
                armed_at.elapsed() < Duration::from_secs(10),
                "round {round}: no worker parked"
            );
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("round {round}: WorkerPool::drop hung (lost wake-up)"));
    }
}
