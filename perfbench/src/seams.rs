//! The public seams the benchmark wraps. Each wrapper delegates to the
//! real platform type and times the call as a span of its layer; nothing
//! inside the platform changes.

use crate::trace::{span, Layer};
use sa_core::{Merge, Result, Synopsis};
use sa_platform::{Spout, Storage, Tuple};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A [`Storage`] delegating to a real backend. Counts the bytes handed
/// to `append`/`write` whether or not tracing is on: that total is the
/// numerator of the `write_bytes_per_record` metric.
pub struct TracedStorage {
    inner: Arc<dyn Storage>,
    handed: AtomicU64,
}

impl TracedStorage {
    pub fn new(inner: Arc<dyn Storage>) -> Self {
        Self { inner, handed: AtomicU64::new(0) }
    }

    /// Bytes passed to `append` and `write` so far.
    pub fn bytes_handed(&self) -> u64 {
        self.handed.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for TracedStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedStorage").field("inner", &self.inner).finish()
    }
}

impl Storage for TracedStorage {
    fn read(&self, path: &str) -> Result<Vec<u8>> {
        span(Layer::StorageOther, 0, || self.inner.read(path))
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        self.handed.fetch_add(data.len() as u64, Ordering::Relaxed);
        span(Layer::StorageOther, data.len() as u64, || self.inner.write(path, data))
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<()> {
        self.handed.fetch_add(data.len() as u64, Ordering::Relaxed);
        span(Layer::StorageAppend, data.len() as u64, || self.inner.append(path, data))
    }

    fn sync(&self, path: &str) -> Result<()> {
        span(Layer::StorageFsync, 0, || self.inner.sync(path))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        span(Layer::StorageOther, 0, || self.inner.rename(from, to))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        span(Layer::StorageOther, 0, || self.inner.list(prefix))
    }

    fn remove(&self, path: &str) -> Result<()> {
        span(Layer::StorageOther, 0, || self.inner.remove(path))
    }

    fn len(&self, path: &str) -> Result<Option<u64>> {
        span(Layer::StorageOther, 0, || self.inner.len(path))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        span(Layer::StorageOther, 0, || self.inner.truncate(path, len))
    }
}

/// A [`Spout`] delegating to a log spout and timing `next_tuple`.
///
/// With `live` set it is also the live-source adapter: `live` is up
/// while a generator may still append, and until the inner spout has come
/// up empty after it dropped, `pending()` reports one more than the inner
/// spout. The engine ends an at-least-once run as soon as a spout returns
/// `None` with nothing pending, so without the adapter a consumer that
/// catches up with its generator would end the run early.
pub struct TracedSpout<S> {
    inner: S,
    live: Option<Arc<AtomicBool>>,
    drained: bool,
}

impl<S: Spout> TracedSpout<S> {
    pub fn new(inner: S, live: Option<Arc<AtomicBool>>) -> Self {
        Self { inner, live, drained: false }
    }
}

impl<S: Spout> Spout for TracedSpout<S> {
    fn next_tuple(&mut self) -> Option<Tuple> {
        // Read the flag before polling: once it is down, every append
        // happened before this poll, so coming up empty means drained.
        let finished = self.live.as_ref().is_some_and(|l| !l.load(Ordering::SeqCst));
        let t = span(Layer::LogNext, 0, || self.inner.next_tuple());
        if t.is_none() && finished {
            self.drained = true;
        }
        t
    }

    fn ack(&mut self, root: u64) {
        self.inner.ack(root)
    }

    fn fail(&mut self, root: u64) -> bool {
        self.inner.fail(root)
    }

    fn pending(&self) -> usize {
        self.inner.pending() + usize::from(self.live.is_some() && !self.drained)
    }

    fn quarantine(&mut self, root: u64) -> Option<Tuple> {
        self.inner.quarantine(root)
    }
}

/// An aggregate delegating [`Synopsis`] and [`Merge`] to the real
/// sketch: `snapshot` is the checkpoint encode (and partial emission)
/// layer, `restore` and `merge` are the serve bolt's publish work.
#[derive(Clone, Debug, PartialEq)]
pub struct Traced<S>(pub S);

impl<S: Synopsis> Synopsis for Traced<S> {
    fn snapshot(&self) -> Vec<u8> {
        let bytes = span(Layer::CheckpointEncode, 0, || self.0.snapshot());
        crate::trace::add_bytes(Layer::CheckpointEncode, bytes.len() as u64);
        bytes
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        span(Layer::ServingRestore, bytes.len() as u64, || self.0.restore(bytes))
    }
}

impl<S: Merge> Merge for Traced<S> {
    fn merge(&mut self, other: &Self) -> Result<()> {
        span(Layer::ServingMerge, 0, || self.0.merge(&other.0))
    }
}
