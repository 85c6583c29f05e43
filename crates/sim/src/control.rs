//! Cooperative run control: pause, resume, and cancel a running engine.
//!
//! Every engine's hot loop periodically calls
//! [`RunControl::checkpoint`] (every [`CHECK_EVERY`] dispatch units —
//! events for the event/sharded engines, rounds for lockstep). A
//! checkpoint:
//!
//! * **blocks** while the control is paused (the simulation state is
//!   untouched, so a paused-and-resumed run is bit-identical to an
//!   uninterrupted one — pinned by the daemon determinism tests);
//! * returns [`RunError::Cancelled`] when the control was cancelled,
//!   unwinding the engine cleanly with no partial outcome;
//! * publishes a monotone progress counter and invokes the optional
//!   progress sink (at most once per checkpoint), which the daemon turns
//!   into streamed progress events.
//!
//! Cancellation-safety rule: engines may only observe the control at
//! checkpoint boundaries, never mid-event — all simulation state mutations
//! between two checkpoints either all happen (run continues) or are all
//! discarded (run returns `Cancelled`). Nothing is ever persisted from a
//! cancelled run.

use crate::engine::RunError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// How many dispatch units pass between two control checkpoints. Small
/// enough that pause/cancel feel immediate, large enough that the atomic
/// loads never show up in a profile.
pub const CHECK_EVERY: u64 = 4096;

/// Shared handle controlling one engine run (clone an `Arc<RunControl>`
/// to hand it to both the runner and the controller).
#[derive(Default)]
pub struct RunControl {
    cancelled: AtomicBool,
    paused: AtomicBool,
    progress: AtomicU64,
    gate: Mutex<()>,
    unpaused: Condvar,
    sink: Option<Box<dyn Fn(u64) + Send + Sync>>,
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancelled", &self.is_cancelled())
            .field("paused", &self.is_paused())
            .field("progress", &self.progress())
            .finish_non_exhaustive()
    }
}

impl RunControl {
    /// A fresh control: not paused, not cancelled, progress 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A control that reports progress to `sink` (called at most once per
    /// checkpoint, from the engine's thread, with the current progress
    /// counter).
    pub fn with_progress_sink(sink: impl Fn(u64) + Send + Sync + 'static) -> Self {
        Self {
            sink: Some(Box::new(sink)),
            ..Self::default()
        }
    }

    /// Request cancellation. The running engine returns
    /// [`RunError::Cancelled`] at its next checkpoint; a paused engine is
    /// woken first. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        let _g = self.gate.lock().unwrap();
        self.unpaused.notify_all();
    }

    /// Pause the run at its next checkpoint. The engine blocks (holding
    /// all simulation state intact) until [`resume`](Self::resume) or
    /// [`cancel`](Self::cancel).
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    /// Resume a paused run.
    pub fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
        let _g = self.gate.lock().unwrap();
        self.unpaused.notify_all();
    }

    /// Has [`cancel`](Self::cancel) been called?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Is a pause currently requested? (The engine may not have reached
    /// its checkpoint yet.)
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Dispatch units completed so far, as last published by the engine.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::SeqCst)
    }

    /// Engine-side: publish progress, honour a pause, fail on a cancel.
    /// Engines call this every [`CHECK_EVERY`] dispatch units.
    pub fn checkpoint(&self, done: u64) -> Result<(), RunError> {
        self.progress.store(done, Ordering::SeqCst);
        if let Some(sink) = &self.sink {
            sink(done);
        }
        if self.is_cancelled() {
            return Err(RunError::Cancelled { at: done });
        }
        if self.is_paused() {
            let mut g = self.gate.lock().unwrap();
            while self.is_paused() && !self.is_cancelled() {
                g = self.unpaused.wait(g).unwrap();
            }
        }
        if self.is_cancelled() {
            return Err(RunError::Cancelled { at: done });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn checkpoint_passes_counts_and_cancels() {
        let c = RunControl::new();
        assert!(c.checkpoint(10).is_ok());
        assert_eq!(c.progress(), 10);
        c.cancel();
        assert!(matches!(
            c.checkpoint(11),
            Err(RunError::Cancelled { at: 11 })
        ));
    }

    #[test]
    fn pause_blocks_until_resume() {
        let c = Arc::new(RunControl::new());
        c.pause();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.checkpoint(5));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_finished(), "checkpoint must block while paused");
        c.resume();
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn cancel_wakes_a_paused_run() {
        let c = Arc::new(RunControl::new());
        c.pause();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.checkpoint(7));
        std::thread::sleep(std::time::Duration::from_millis(30));
        c.cancel();
        assert!(matches!(
            h.join().unwrap(),
            Err(RunError::Cancelled { at: 7 })
        ));
    }

    #[test]
    fn progress_sink_sees_checkpoints() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let c = RunControl::with_progress_sink(move |p| s2.lock().unwrap().push(p));
        c.checkpoint(1).unwrap();
        c.checkpoint(2).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![1, 2]);
    }
}
