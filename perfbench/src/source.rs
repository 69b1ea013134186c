//! A timing [`EpochSource`] adapter: forwards every call to the wrapped
//! source and stamps the calls that delimit an epoch.

use std::time::{Duration, Instant};

use dlb_hypergraph::PartId;
use dlb_workloads::{EpochSnapshot, EpochSource, EpochUpdate};

/// Wraps a source and records, per epoch, when it was requested and how
/// long the `next_*` and `commit_assignment` calls took.
///
/// The epoch loop calls `next_epoch` or `next_delta` exactly once per epoch,
/// so the start stamps split the session into epochs: epoch `i` runs
/// from its own `next_*` call to the next one (or to the end of the
/// session for the last).
pub struct TimedSource<S> {
    inner: S,
    /// Start instant of every `next_*` call, in epoch order.
    pub starts: Vec<Instant>,
    /// Wall time inside `next_*`, per epoch.
    pub next: Vec<Duration>,
    /// Wall time inside `commit_assignment`, per epoch.
    pub commit: Vec<Duration>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            starts: Vec::new(),
            next: Vec::new(),
            commit: Vec::new(),
        }
    }

    /// Per-epoch wall times in seconds, given the instant the session
    /// returned.
    pub fn epoch_walls(&self, end: Instant) -> Vec<f64> {
        let ends = self
            .starts
            .iter()
            .skip(1)
            .copied()
            .chain(std::iter::once(end));
        self.starts
            .iter()
            .zip(ends)
            .map(|(s, e)| (e - *s).as_secs_f64())
            .collect()
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let t0 = Instant::now();
        self.starts.push(t0);
        let out = f(&mut self.inner);
        self.next.push(t0.elapsed());
        out
    }
}

impl<S: EpochSource> EpochSource for TimedSource<S> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn epochs_emitted(&self) -> usize {
        self.inner.epochs_emitted()
    }

    fn next_epoch(&mut self) -> EpochSnapshot {
        self.timed(|s| s.next_epoch())
    }

    fn next_delta(&mut self) -> EpochUpdate {
        self.timed(|s| s.next_delta())
    }

    fn commit_assignment(&mut self, snapshot: &EpochSnapshot, part: &[PartId]) {
        let t0 = Instant::now();
        self.inner.commit_assignment(snapshot, part);
        self.commit.push(t0.elapsed());
    }
}
