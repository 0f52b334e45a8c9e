//! The operator layer: checkpointed synopsis bolts with exactly-once
//! recovery — where the algorithm crates and the platform crate meet.
//!
//! [`SynopsisBolt`] runs any [`Synopsis`] (HyperLogLog, CountMin,
//! SpaceSaving, GK, reservoir, DGIM, Bloom, Welford, k-means, …) as a
//! partition-local stateful operator with MillWheel's exactly-once
//! recipe:
//!
//! 1. every applied tuple's stable record id ([`Tuple::lineage`]) is
//!    remembered, and replayed ids are skipped (lineage 0 marks an
//!    untracked input: it is applied, never deduplicated and never
//!    held; the executor never stamps a 0);
//! 2. the synopsis snapshot and the ids folded into it are committed to
//!    a [`CheckpointStore`] in one atomic step
//!    ([`CheckpointStore::commit_batch`]), so a crash can never separate
//!    state from its dedup tokens;
//! 3. after the commit, dedup tokens below the GC horizon are freed
//!    ([`CheckpointStore::gc`]) so the seen-set stays bounded.
//!
//! The recipe lives in one envelope, [`Checkpointed`], which
//! [`SynopsisBolt`] and [`crate::window::WindowBolt`] each own: one
//! dedup decision, one commit-with-retry path, one recovery path. The
//! operators keep only their state and how to encode it.
//!
//! On restart the bolt's constructor finds the latest checkpoint and
//! resumes from it; [`LogSpout`] replays the durable [`Log`] from
//! [`replay_offset`] — the oldest record any partition might be missing
//! — and the dedup tokens absorb everything the checkpoints already
//! cover. [`MergeBolt`] closes the loop for distributed queries: it
//! collects the partition-local snapshots (fields-grouped upstream) and
//! merges them into one global synopsis, the "merge" half of the
//! sketch contract the paper's §4 algorithms are chosen for.
//!
//! ## Correctness envelope
//!
//! Replay-from-minimum ([`replay_offset`]) is exact when in-run
//! delivery is FIFO and lossless (`link_drop_prob = 0`, no injected
//! panics — the default): each task's committed `last applied id` then
//! implies every lower id routed to it was applied. When tuples can
//! settle *out of order* — supervised restarts, injected panics, link
//! drops — a failed tuple awaiting replay can fall below another
//! task's checkpoint frontier and be skipped on recovery. For those
//! runs, [`LogSpout::with_frontier`] persists the spout's settled
//! frontier (the Samza committed-offset pattern) and
//! [`frontier_offset`] recovers from it: the frontier only advances
//! past acked records, and checkpointed bolts hold acks until their
//! commit is durable, so replay-from-frontier never skips live state.
//! One residual envelope: `OperatorConfig::gc_horizon` must exceed how
//! far the spout can run ahead of its oldest unsettled record (or be
//! `None`), so a deep replay is never mistaken for a duplicate by the
//! dedup-token low watermark.

use crate::checkpoint::CheckpointStore;
use crate::frame::Frame;
use crate::log::{Log, Record};
use crate::metrics::{CounterHandle, Metrics};
use crate::supervise::RestartPolicy;
use crate::topology::{Bolt, OutputCollector, Spout};
use crate::tuple::{Tuple, Value};
use sa_core::codec::{ByteReader, ByteWriter};
use sa_core::traits::QuantileSketch;
use sa_core::{Merge, Result, Synopsis};
use sa_sketches::quantiles::GkSketch;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Knobs of the exactly-once envelope ([`Checkpointed`]) that every
/// checkpointed operator ([`SynopsisBolt`],
/// [`crate::window::WindowBolt`]) owns.
#[derive(Clone, Debug)]
pub struct OperatorConfig {
    /// Commit a checkpoint after this many freshly applied tuples.
    /// Smaller = less replay after a crash, more commit overhead (the
    /// t2.c experiment sweeps this). `flush()` (topology drain) always
    /// commits whatever is pending.
    pub checkpoint_every: u64,
    /// After each commit, free dedup tokens more than this far below
    /// the newest applied id. Safe when upstream record ids reach the
    /// task in non-decreasing order with reordering smaller than the
    /// horizon (true for [`LogSpout`] replay over FIFO links); set to
    /// `None` to retain every token.
    pub gc_horizon: Option<u64>,
    /// After every successful mid-run commit, also emit the partial
    /// `[Str(key), Bytes(snapshot), Int(last applied id)]` downstream.
    /// This is how a compiled continuous query ([`crate::query`]) feeds
    /// its serving view *while the stream runs*, not only at drain; the
    /// emitted snapshot is exactly the durable checkpoint, so consumers
    /// never observe state a crash could roll back.
    pub emit_on_commit: bool,
    /// In-place retry of *transient* commit failures (flaky disk, I/O
    /// fault injection): up to `max_restarts` extra attempts, sleeping
    /// the policy's capped exponential backoff between them (the
    /// sliding-window fields are unused here). Retrying in place is what
    /// prevents a replay storm — without it, every transient fault costs
    /// a full replay-from-frontier cycle. `None` fails fast (the
    /// pre-retry behaviour); permanent and corruption errors never
    /// retry.
    pub commit_retry: Option<RestartPolicy>,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 256,
            gc_horizon: Some(65_536),
            emit_on_commit: false,
            commit_retry: Some(RestartPolicy { max_restarts: 3, ..RestartPolicy::default() }),
        }
    }
}

const CHECKPOINT_TAG: u8 = b'O';

/// Encode a checkpoint value: the newest applied record id plus the
/// synopsis snapshot, as one atomic unit.
pub(crate) fn encode_checkpoint(last_applied: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(1 + 8 + 8 + snapshot.len());
    w.tag(CHECKPOINT_TAG).put_u64(last_applied).put_bytes(snapshot);
    w.finish()
}

/// Decode a checkpoint value into `(last applied id, snapshot bytes)`.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(u64, Vec<u8>)> {
    let mut r = ByteReader::new(bytes);
    r.expect_tag(CHECKPOINT_TAG, "operator checkpoint")?;
    let last_applied = r.get_u64()?;
    let snapshot = r.get_bytes()?.to_vec();
    r.finish()?;
    Ok((last_applied, snapshot))
}

/// The log offset a restarted topology must replay from so that no
/// task misses a record: the minimum `last applied id` committed under
/// the given checkpoint keys (0 — replay everything — when any key has
/// no checkpoint yet). With [`LogSpout`]'s id scheme
/// (`id = id_base + offset + 1`) and `id_base = 0`, the returned value
/// is directly the `from_offset` to restart the spout at; tasks whose
/// checkpoints are ahead of it drop the overlap as duplicates.
pub fn replay_offset(store: &CheckpointStore, keys: &[&str]) -> u64 {
    let mut min_applied = u64::MAX;
    for key in keys {
        let Some((_, value)) = store.get(key) else { return 0 };
        let Ok((last_applied, _)) = decode_checkpoint(&value) else { return 0 };
        min_applied = min_applied.min(last_applied);
    }
    if min_applied == u64::MAX {
        0
    } else {
        min_applied
    }
}

/// The settled-frontier offset persisted by a
/// [`LogSpout::with_frontier`] spout (0 — replay everything — when no
/// frontier was ever committed). Unlike [`replay_offset`], this is safe
/// when tuples settle *out of order* — under supervised restarts, link
/// drops, or replays — because the frontier only advances past records
/// that were acked, and an ack implies durability everywhere.
pub fn frontier_offset(store: &CheckpointStore, key: &str) -> u64 {
    store
        .get(key)
        .and_then(|(_, value)| decode_checkpoint(&value).ok())
        .map_or(0, |(offset, _)| offset)
}

/// What [`Checkpointed::admit`] decided about one record id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Not applied before (or lineage 0, never deduplicated): apply it.
    Fresh,
    /// Applied but not yet durable: skip it and hold its ack, as the
    /// original attempt's is held — a crash could still lose it.
    Pending,
    /// Already durable: skip it; its ack may settle now.
    Durable,
}

/// The exactly-once envelope every checkpointed operator owns (see the
/// module docs): the dedup decision over record ids, the ids applied
/// since the last commit, their atomic commit together with the
/// operator's encoded state (retrying transient faults in place),
/// dedup-token GC, recovery, and the counters that report on all of
/// it. The operator keeps only its state and how to encode it.
pub struct Checkpointed {
    key: Arc<str>,
    store: CheckpointStore,
    cfg: OperatorConfig,
    /// Fresh ids applied since the last commit, in arrival order.
    pending: Vec<u64>,
    pending_set: HashSet<u64>,
    /// Newest id ever applied (committed or pending).
    last_applied: u64,
    duplicates_skipped: u64,
    /// Checkpoint writes rejected by the store after the in-place retry
    /// budget (if any) was spent. The ids stay pending and ride the
    /// next commit.
    commit_failures: u64,
    /// Transient commit errors absorbed by in-place retry (each one a
    /// replay cycle that did *not* happen).
    commit_retries: u64,
    /// `{component}.commit_failures` / `{component}.commit_retries`
    /// counters, wired by [`Bolt::register_metrics`] when the operator
    /// runs under an executor (absent when driven standalone).
    commit_failures_ctr: Option<CounterHandle>,
    commit_retries_ctr: Option<CounterHandle>,
    /// Commit (encode + store write + gc) latency in µs, observed with
    /// the repo's GK sketch.
    commit_us: GkSketch,
    /// How long restoring the checkpoint took, in µs (`None` when the
    /// operator started fresh).
    restore_us: Option<f64>,
}

impl Checkpointed {
    /// Open the envelope for `key`. If `store` holds a checkpoint for
    /// it, `restore` receives the checkpointed state payload and dedup
    /// resumes from the checkpointed ids.
    pub(crate) fn open(
        key: &str,
        store: &CheckpointStore,
        cfg: OperatorConfig,
        restore: impl FnOnce(&[u8]) -> Result<()>,
    ) -> Result<Self> {
        let mut ledger = Self {
            key: Arc::from(key),
            store: store.clone(),
            cfg,
            pending: Vec::new(),
            pending_set: HashSet::new(),
            last_applied: 0,
            duplicates_skipped: 0,
            commit_failures: 0,
            commit_retries: 0,
            commit_failures_ctr: None,
            commit_retries_ctr: None,
            commit_us: GkSketch::new(0.005).expect("valid commit-latency epsilon"),
            restore_us: None,
        };
        if let Some((_, value)) = store.get(key) {
            let restore_start = Instant::now();
            let (applied, payload) = decode_checkpoint(&value)?;
            restore(&payload)?;
            ledger.restore_us = Some(restore_start.elapsed().as_secs_f64() * 1e6);
            ledger.last_applied = applied;
        }
        Ok(ledger)
    }

    /// The one dedup decision: whether the input with record id `id`
    /// is applied. A fresh tracked id joins the pending batch.
    pub(crate) fn admit(&mut self, id: u64) -> Admit {
        if id == 0 {
            return Admit::Fresh;
        }
        if self.pending_set.contains(&id) {
            self.duplicates_skipped += 1;
            return Admit::Pending;
        }
        if self.store.is_seen(&self.key, id) {
            self.duplicates_skipped += 1;
            return Admit::Durable;
        }
        self.pending.push(id);
        self.pending_set.insert(id);
        self.last_applied = self.last_applied.max(id);
        Admit::Fresh
    }

    /// Whether the pending batch has reached the commit cadence.
    pub(crate) fn due(&self) -> bool {
        self.pending.len() as u64 >= self.cfg.checkpoint_every
    }

    /// Whether any applied id awaits a commit.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Commit the pending ids together with `payload()` — the
    /// operator's encoded state — in one atomic step, then GC dedup
    /// tokens below the horizon. The payload is encoded once, before any
    /// in-place retry. Returns whether the pending ids are durable
    /// (trivially true when there are none). A failed write is
    /// *skipped, state intact*: the ids stay pending (so the stored
    /// `last applied` — and with it [`replay_offset`] — never advances
    /// past unpersisted state) and the next commit retries them
    /// together with anything newer.
    pub(crate) fn commit<P: AsRef<[u8]>>(&mut self, payload: impl FnOnce() -> P) -> bool {
        if self.pending.is_empty() {
            return true;
        }
        let commit_start = Instant::now();
        let payload = payload();
        let mut attempt: u32 = 0;
        loop {
            let value = encode_checkpoint(self.last_applied, payload.as_ref());
            let Err(e) = self.store.commit_batch(&self.key, &self.pending, value) else { break };
            let retry = self.cfg.commit_retry.as_ref();
            if !e.is_transient() || attempt >= retry.map_or(0, |p| p.max_restarts) {
                self.commit_failures += 1;
                if let Some(c) = &self.commit_failures_ctr {
                    c.add(1);
                }
                return false;
            }
            let backoff = retry.expect("budget > 0").backoff(attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            attempt += 1;
            self.commit_retries += 1;
            if let Some(c) = &self.commit_retries_ctr {
                c.add(1);
            }
        }
        self.pending.clear();
        self.pending_set.clear();
        if let Some(horizon) = self.cfg.gc_horizon {
            self.store.gc(&self.key, self.last_applied.saturating_sub(horizon));
        }
        self.commit_us.insert(commit_start.elapsed().as_secs_f64() * 1e6);
        true
    }

    /// Wire the `{component}.commit_failures` and
    /// `{component}.commit_retries` counters.
    pub(crate) fn register_metrics(&mut self, metrics: &Metrics, component: &str) {
        self.commit_failures_ctr = Some(metrics.register(&format!("{component}.commit_failures")));
        self.commit_retries_ctr = Some(metrics.register(&format!("{component}.commit_retries")));
    }

    /// Newest record id applied.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Whether opening restored a prior checkpoint.
    pub fn recovered(&self) -> bool {
        self.restore_us.is_some()
    }

    /// Replayed inputs dropped by deduplication.
    pub fn duplicates_skipped(&self) -> u64 {
        self.duplicates_skipped
    }

    /// Checkpoint writes the store rejected (state kept, retried later).
    pub fn commit_failures(&self) -> u64 {
        self.commit_failures
    }

    /// Transient commit errors absorbed by in-place retry
    /// ([`OperatorConfig::commit_retry`]) — faults that did *not*
    /// surface as a failed commit or a replay.
    pub fn commit_retries(&self) -> u64 {
        self.commit_retries
    }

    /// Commit-latency quantiles `(p50, p90, p99)` in µs across the
    /// commits performed so far; `None` before the first commit.
    pub fn commit_latency_us(&self) -> Option<(f64, f64, f64)> {
        if self.commit_us.count() == 0 {
            return None;
        }
        Some((
            self.commit_us.query(0.5).unwrap_or(0.0),
            self.commit_us.query(0.9).unwrap_or(0.0),
            self.commit_us.query(0.99).unwrap_or(0.0),
        ))
    }

    /// How long restoring the checkpoint took, in µs (`None` when the
    /// operator started fresh).
    pub fn restore_us(&self) -> Option<f64> {
        self.restore_us
    }
}

/// Bulk update closure for [`SynopsisBolt`]: folds the fresh rows
/// (second argument, indices into the frame) of a whole [`Frame`]
/// into the synopsis in one call.
pub type BulkUpdate<S> = Box<dyn FnMut(&Frame, &[usize], &mut S) + Send>;

/// A partition-local checkpointed synopsis operator. See the module
/// docs for the exactly-once protocol it implements.
///
/// `update` folds one tuple into the synopsis; it runs only for tuples
/// whose record id has not been applied before. On `flush()` the bolt
/// commits, and once that commit is durable emits
/// `[Str(checkpoint key), Bytes(snapshot)]` for a downstream
/// [`MergeBolt`] (or any consumer of partial aggregates).
pub struct SynopsisBolt<S, F> {
    ledger: Checkpointed,
    summary: S,
    update: F,
    /// Columnar fast path (see [`SynopsisBolt::with_bulk`]): folds the
    /// fresh rows of a whole [`Frame`] into the synopsis in one call.
    bulk: Option<BulkUpdate<S>>,
    /// The summary's encoding, cleared by the next applied tuple: a
    /// commit's checkpoint, its emitted partial and a flush with nothing
    /// applied since all share these bytes.
    snapshot: Option<Arc<[u8]>>,
}

impl<S: Synopsis + Send, F: FnMut(&Tuple, &mut S) + Send> SynopsisBolt<S, F> {
    /// A bolt checkpointing under `key` in `store`. If `store` already
    /// holds a checkpoint for `key`, the bolt *recovers*: `initial` is
    /// replaced by the checkpointed synopsis and deduplication resumes
    /// from the checkpointed id set. Each parallel instance of a
    /// component needs its own key (e.g. `"wordcount/3"`).
    pub fn new(key: &str, store: &CheckpointStore, initial: S, update: F) -> Result<Self> {
        Self::with_config(key, store, initial, update, OperatorConfig::default())
    }

    /// [`SynopsisBolt::new`] with explicit [`OperatorConfig`].
    pub fn with_config(
        key: &str,
        store: &CheckpointStore,
        mut initial: S,
        update: F,
        cfg: OperatorConfig,
    ) -> Result<Self> {
        let ledger = Checkpointed::open(key, store, cfg, |payload| initial.restore(payload))?;
        Ok(Self { ledger, summary: initial, update, bulk: None, snapshot: None })
    }

    /// Opt into the columnar fast path. `bulk(frame, fresh, summary)`
    /// must fold exactly the rows whose indices appear in `fresh` (the
    /// deduplicated survivors, in arrival order) into the synopsis,
    /// producing the same final state as `update` called once per fresh
    /// row. With a bulk closure installed the bolt advertises
    /// [`Bolt::wants_frames`], upstream links ship columnar
    /// [`Frame`]s, and per-column hashes ([`Frame::column_hashes`]) are
    /// computed once per batch instead of once per tuple per sketch.
    ///
    /// Checkpoint cadence is evaluated once per frame (not per row), so
    /// commit *boundaries* may differ from the row-at-a-time path; the
    /// synopsis contents, dedup guarantees, and post-flush checkpoint
    /// are identical.
    pub fn with_bulk(
        mut self,
        bulk: impl FnMut(&Frame, &[usize], &mut S) + Send + 'static,
    ) -> Self {
        self.bulk = Some(Box::new(bulk));
        self
    }

    /// The live synopsis.
    pub fn summary(&self) -> &S {
        &self.summary
    }

    /// The exactly-once envelope: dedup, commit and recovery counters.
    pub fn ledger(&self) -> &Checkpointed {
        &self.ledger
    }

    /// The summary's encoding, computed at most once between two
    /// applied tuples.
    fn encoded(snapshot: &mut Option<Arc<[u8]>>, summary: &S) -> Arc<[u8]> {
        snapshot.get_or_insert_with(|| summary.snapshot().into()).clone()
    }

    /// Commit the pending batch with the summary's encoding; once it is
    /// durable, release every ack it covered.
    fn commit(&mut self, out: &mut OutputCollector) -> bool {
        let durable = self.ledger.commit(|| Self::encoded(&mut self.snapshot, &self.summary));
        if durable {
            out.release_acks();
        }
        durable
    }

    /// A mid-run [`Self::commit`] that, once durable, also streams the
    /// partial when [`OperatorConfig::emit_on_commit`] is set: key,
    /// durable snapshot, and the progress marker consumers fold into
    /// their `covers` watermark.
    fn commit_and_publish(&mut self, out: &mut OutputCollector) -> bool {
        let durable = self.commit(out);
        if durable && self.ledger.cfg.emit_on_commit {
            out.emit(Tuple::new(vec![
                Value::Str(self.ledger.key.clone()),
                Value::Bytes(Self::encoded(&mut self.snapshot, &self.summary)),
                Value::Int(self.ledger.last_applied as i64),
            ]));
        }
        durable
    }

    /// After a fold: commit when the cadence is due, which releases
    /// every held input including this one. Otherwise — below the
    /// cadence, or the write failed — hold this input's ack when `hold`,
    /// so a restart replays it.
    fn settle(&mut self, hold: bool, out: &mut OutputCollector) {
        let committed = self.ledger.due() && self.commit_and_publish(out);
        if !committed && hold {
            out.hold_ack();
        }
    }
}

impl<S: Synopsis + Send, F: FnMut(&Tuple, &mut S) + Send> Bolt for SynopsisBolt<S, F> {
    fn execute(&mut self, input: &Tuple, out: &mut OutputCollector) {
        match self.ledger.admit(input.lineage) {
            Admit::Fresh => {}
            Admit::Pending => {
                out.hold_ack();
                return;
            }
            Admit::Durable => return,
        }
        (self.update)(input, &mut self.summary);
        self.snapshot = None;
        self.settle(input.lineage != 0, out);
    }

    fn wants_frames(&self) -> bool {
        self.bulk.is_some()
    }

    fn execute_frame(&mut self, frame: &Frame, out: &mut OutputCollector) {
        // Dedup is protocol state and stays row-at-a-time; the synopsis
        // fold — the hot part — goes through the bulk closure once.
        let mut fresh: Vec<usize> = Vec::with_capacity(frame.len());
        // Whether some row is applied-but-not-durable (fresh, or a
        // pending replay — possibly of a row earlier in this very
        // frame): then the whole frame's ack is held for the next commit
        // to release. Holding the durable-duplicate rows too is safe —
        // their release rides the same commit.
        let mut hold = false;
        for (i, &id) in frame.lineages().iter().enumerate() {
            match self.ledger.admit(id) {
                Admit::Fresh => {
                    fresh.push(i);
                    hold |= id != 0;
                }
                Admit::Pending => hold = true,
                Admit::Durable => {}
            }
        }
        if !fresh.is_empty() {
            (self.bulk.as_mut().expect("frames imply bulk"))(frame, &fresh, &mut self.summary);
            self.snapshot = None;
        }
        self.settle(hold, out);
    }

    fn flush(&mut self, out: &mut OutputCollector) {
        // Durability before visibility: a drain whose final commit
        // failed emits nothing, so no consumer publishes state a
        // restart would not recover.
        if self.commit(out) {
            out.emit(Tuple::new(vec![
                Value::Str(self.ledger.key.clone()),
                Value::Bytes(Self::encoded(&mut self.snapshot, &self.summary)),
            ]));
        }
    }

    fn on_idle(&mut self, out: &mut OutputCollector) {
        // Input queue drained: make the tail durable and release its
        // held acks so the spout can settle.
        if self.ledger.has_pending() {
            self.commit_and_publish(out);
        }
    }

    fn register_metrics(&mut self, metrics: &Metrics, component: &str) {
        self.ledger.register_metrics(metrics, component);
    }
}

/// The global-view aggregator: collects the latest
/// `[Str(partition key), Bytes(snapshot)]` tuple per partition (emitted
/// by [`SynopsisBolt::flush`]) and, on its own flush, restores each
/// into a clone of the template and merges them into one synopsis,
/// emitting `[Str(name), Bytes(global snapshot)]`. Wire it with a
/// global (or fields) grouping downstream of the partitioned bolts.
pub struct MergeBolt<S> {
    name: std::sync::Arc<str>,
    template: S,
    parts: HashMap<String, Vec<u8>>,
    errors: u64,
}

impl<S: Synopsis + Merge + Clone + Send> MergeBolt<S> {
    /// An aggregator emitting under `name`; `template` supplies the
    /// synopsis configuration every partial must be compatible with.
    pub fn new(name: &str, template: S) -> Self {
        Self { name: std::sync::Arc::from(name), template, parts: HashMap::new(), errors: 0 }
    }

    /// Merge the collected partials into one synopsis.
    pub fn merged(&mut self) -> Result<S> {
        let mut global = self.template.clone();
        let mut keys: Vec<&String> = self.parts.keys().collect();
        keys.sort(); // deterministic merge order
        for key in keys {
            let mut part = self.template.clone();
            part.restore(&self.parts[key])?;
            global.merge(&part)?;
        }
        Ok(global)
    }

    /// Malformed or incompatible partials dropped so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

impl<S: Synopsis + Merge + Clone + Send> Bolt for MergeBolt<S> {
    fn execute(&mut self, input: &Tuple, _out: &mut OutputCollector) {
        match (input.get(0).and_then(Value::as_str), input.get(1).and_then(Value::as_bytes)) {
            (Some(key), Some(bytes)) => {
                self.parts.insert(key.to_string(), bytes.to_vec());
            }
            _ => self.errors += 1,
        }
    }

    fn flush(&mut self, out: &mut OutputCollector) {
        match self.merged() {
            Ok(global) => out.emit(Tuple::new(vec![
                Value::Str(self.name.clone()),
                Value::Bytes(global.snapshot().into()),
            ])),
            Err(_) => self.errors += 1,
        }
    }
}

/// Records fetched from the log per read (amortises lock traffic).
const READ_CHUNK: usize = 256;

/// Periodic persistence of a [`LogSpout`]'s settled frontier — the
/// Samza/Kafka committed-offset pattern.
struct FrontierCheckpoint {
    store: CheckpointStore,
    key: String,
    every: u64,
    settles: u64,
    /// Frontier puts the store rejected (flaky durable backend). Each
    /// one only defers the advance to the next cadence hit.
    put_failures: u64,
}

/// A reliable spout over one [`Log`] partition. Record ids are stable
/// across replays and restarts: `id = id_base + offset + 1` (`id_base`
/// keeps multi-partition topologies in disjoint id spaces; offsets are
/// shifted by one so id 0 never occurs). Failed tuples are re-read
/// from the log — the log *is* the replay buffer, as in Samza/Kafka.
pub struct LogSpout<F> {
    log: Log,
    partition: usize,
    id_base: u64,
    next_offset: u64,
    decode: F,
    buf: VecDeque<Record>,
    in_flight: HashSet<u64>,
    requeue: VecDeque<u64>,
    frontier: Option<FrontierCheckpoint>,
    /// Re-emissions performed (diagnostic).
    pub replays: u64,
    /// Failed records no longer retained by the log (unrecoverable).
    pub lost: u64,
}

impl<F: FnMut(&Record) -> Tuple + Send> LogSpout<F> {
    /// A spout reading `partition` of `log` from `from_offset`, turning
    /// each record into a tuple via `decode`. On recovery, pass
    /// [`replay_offset`] as `from_offset` (with the same `id_base` used
    /// before the crash) — or, when tuples can settle out of order (see
    /// [`frontier_offset`]), enable [`LogSpout::with_frontier`] and pass
    /// [`frontier_offset`] instead.
    pub fn new(log: &Log, partition: usize, from_offset: u64, id_base: u64, decode: F) -> Self {
        Self {
            log: log.clone(),
            partition,
            id_base,
            next_offset: from_offset,
            decode,
            buf: VecDeque::new(),
            in_flight: HashSet::new(),
            requeue: VecDeque::new(),
            frontier: None,
            replays: 0,
            lost: 0,
        }
    }

    /// Persist the spout's *settled frontier* — the oldest offset whose
    /// record has not yet been acked — under `key` in `store`, every
    /// `every` settled records (Samza's committed consumer offset).
    ///
    /// An ack only reaches the spout once the record's effects are
    /// durable everywhere (checkpointed bolts hold acks until their
    /// commit succeeds), so every offset below the frontier is fully
    /// recovered state: a restart may replay from [`frontier_offset`]
    /// regardless of how far individual tasks' checkpoints ran ahead,
    /// closing the replay-from-minimum gap described in the module
    /// docs' correctness envelope. At-most-once settles each record on
    /// emit, so there the frontier tracks the records consumed.
    pub fn with_frontier(mut self, store: &CheckpointStore, key: &str, every: u64) -> Self {
        self.frontier = Some(FrontierCheckpoint {
            store: store.clone(),
            key: key.to_string(),
            every: every.max(1),
            settles: 0,
            put_failures: 0,
        });
        self
    }

    /// Frontier persists the store rejected (flaky durable backend) —
    /// each one deferred the advance to the next cadence, it never
    /// loses settled state.
    pub fn frontier_put_failures(&self) -> u64 {
        self.frontier.as_ref().map_or(0, |fc| fc.put_failures)
    }

    /// The oldest offset not yet settled (== `next_offset` when nothing
    /// is pending). Every offset below it has been acked — durable
    /// everywhere — and never needs replay.
    fn settled_frontier(&self) -> u64 {
        self.in_flight
            .iter()
            .chain(self.requeue.iter())
            .min()
            .map_or(self.next_offset, |&id| id - self.id_base - 1)
    }

    /// Count one settled record; on a cadence hit, compute the frontier
    /// and persist it. The scan over the unsettled set runs only then.
    fn on_settle(&mut self) {
        let Some(fc) = self.frontier.as_mut() else { return };
        fc.settles += 1;
        if fc.settles % fc.every != 0 {
            return;
        }
        let frontier = self.settled_frontier();
        let fc = self.frontier.as_mut().expect("checked above");
        // The frontier is pure optimization: a rejected put only means a
        // deeper replay after the next crash, so a flaky durable store
        // must not panic the spout — the next cadence hit retries with a
        // fresher frontier.
        if fc.store.try_put(&fc.key, encode_checkpoint(frontier, &[])).is_err() {
            fc.put_failures += 1;
        }
    }

    fn emit(&mut self, rec: &Record) -> Tuple {
        let id = self.id_base + rec.offset + 1;
        let mut t = (self.decode)(rec);
        // The stable id rides in `root`; the runtime turns it into the
        // tuple's lineage (and assigns a fresh ack tree per attempt).
        t.root = id;
        // The log's event-time stamp survives replay, so recovered
        // tuples re-enter the same windows as the original attempt
        // (unless `decode` already chose a timestamp).
        if t.event_time.is_none() {
            t.event_time = rec.event_time;
        }
        self.in_flight.insert(id);
        t
    }
}

impl<F: FnMut(&Record) -> Tuple + Send> Spout for LogSpout<F> {
    fn next_tuple(&mut self) -> Option<Tuple> {
        while let Some(id) = self.requeue.pop_front() {
            let offset = id - self.id_base - 1;
            match self.log.read(self.partition, offset, 1).into_iter().next() {
                Some(rec) if rec.offset == offset => {
                    self.replays += 1;
                    return Some(self.emit(&rec));
                }
                // Trimmed out from under us: nothing left to replay.
                _ => self.lost += 1,
            }
        }
        if self.buf.is_empty() {
            self.buf.extend(self.log.read(self.partition, self.next_offset, READ_CHUNK));
        }
        let rec = self.buf.pop_front()?;
        self.next_offset = rec.offset + 1;
        Some(self.emit(&rec))
    }

    fn ack(&mut self, root: u64) {
        if self.in_flight.remove(&root) {
            self.on_settle();
        }
    }

    fn fail(&mut self, root: u64) -> bool {
        if self.in_flight.remove(&root) {
            self.requeue.push_back(root);
            true
        } else {
            false
        }
    }

    fn pending(&self) -> usize {
        self.in_flight.len() + self.requeue.len()
    }

    fn quarantine(&mut self, root: u64) -> Option<Tuple> {
        // Retire the record so it is never replayed again, then re-read
        // it from the log so the DLQ carries the original payload.
        if !self.in_flight.remove(&root) {
            let pos = self.requeue.iter().position(|&id| id == root)?;
            self.requeue.remove(pos);
        }
        // A quarantined record is settled: it will never be replayed,
        // so the frontier may advance past it.
        self.on_settle();
        let offset = root - self.id_base - 1;
        match self.log.read(self.partition, offset, 1).into_iter().next() {
            Some(rec) if rec.offset == offset => Some((self.decode)(&rec)),
            _ => {
                // Trimmed: quarantined *and* unrecoverable.
                self.lost += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple_of;

    /// Minimal mergeable synopsis for operator-protocol tests: a count
    /// and a sum.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct CountSum {
        n: u64,
        sum: i64,
    }

    impl CountSum {
        fn push(&mut self, v: i64) {
            self.n += 1;
            self.sum += v;
        }
    }

    impl Synopsis for CountSum {
        fn snapshot(&self) -> Vec<u8> {
            let mut w = ByteWriter::with_capacity(17);
            w.tag(b'T').put_u64(self.n).put_i64(self.sum);
            w.finish()
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<()> {
            let mut r = ByteReader::new(bytes);
            r.expect_tag(b'T', "CountSum")?;
            let n = r.get_u64()?;
            let sum = r.get_i64()?;
            r.finish()?;
            *self = Self { n, sum };
            Ok(())
        }
    }

    impl Merge for CountSum {
        fn merge(&mut self, other: &Self) -> Result<()> {
            self.n += other.n;
            self.sum += other.sum;
            Ok(())
        }
    }

    fn int_tuple(v: i64, lineage: u64) -> Tuple {
        let mut t = tuple_of([v]);
        t.lineage = lineage;
        t
    }

    fn apply(t: &Tuple, s: &mut CountSum) {
        s.push(t.get(0).unwrap().as_int().unwrap());
    }

    #[test]
    fn checkpoint_commits_batches_and_skips_duplicates() {
        let store = CheckpointStore::new();
        let cfg = OperatorConfig { checkpoint_every: 4, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        assert!(!bolt.ledger().recovered());
        let mut out = OutputCollector::new();
        for id in 1..=6u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        // Ids 1..=4 committed; 5, 6 still pending.
        let (applied, snap) = decode_checkpoint(&store.get("k").unwrap().1).unwrap();
        assert_eq!(applied, 4);
        let mut cp = CountSum::default();
        cp.restore(&snap).unwrap();
        assert_eq!(cp, CountSum { n: 4, sum: 4 });
        // Replays of committed AND pending ids are both dropped.
        bolt.execute(&int_tuple(1, 2), &mut out);
        bolt.execute(&int_tuple(1, 5), &mut out);
        assert_eq!(bolt.ledger().duplicates_skipped(), 2);
        assert_eq!(bolt.summary(), &CountSum { n: 6, sum: 6 });
        // Flush commits the tail and emits the snapshot.
        bolt.flush(&mut out);
        let (applied, _) = decode_checkpoint(&store.get("k").unwrap().1).unwrap();
        assert_eq!(applied, 6);
        let emitted = &out.emitted[0];
        assert_eq!(emitted.get(0).unwrap().as_str(), Some("k"));
        let mut from_emit = CountSum::default();
        from_emit.restore(emitted.get(1).unwrap().as_bytes().unwrap()).unwrap();
        assert_eq!(from_emit, *bolt.summary());
    }

    /// Lineage 0 marks an untracked input: applied every time, never
    /// deduplicated, never held — across a flush too.
    #[test]
    fn lineage_zero_is_applied_never_deduplicated_or_held() {
        let store = CheckpointStore::new();
        let mut bolt = SynopsisBolt::new("k", &store, CountSum::default(), apply).unwrap();
        let mut out = OutputCollector::new();
        for v in 1..=3i64 {
            bolt.execute(&tuple_of([v]), &mut out);
        }
        assert!(!out.hold, "an untracked input's ack is never held");
        bolt.flush(&mut out);
        bolt.execute(&tuple_of([4i64]), &mut out);
        assert_eq!(bolt.summary(), &CountSum { n: 4, sum: 10 });
        assert_eq!(bolt.ledger().duplicates_skipped(), 0);
        assert_eq!(store.seen_tokens("k"), 0, "lineage 0 never becomes a dedup token");
    }

    #[test]
    fn failed_commit_keeps_pending_and_never_advances_offset() {
        let store = CheckpointStore::new();
        store.inject_commit_failures(1.0, 7);
        let cfg = OperatorConfig { checkpoint_every: 2, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        bolt.execute(&int_tuple(1, 1), &mut out);
        assert!(out.hold && !out.release, "below cadence: ack must be held");
        bolt.execute(&int_tuple(1, 2), &mut out);
        // The commit failed: acks stay held, nothing is persisted, and
        // the replay offset must NOT advance past the unpersisted ids.
        assert!(out.hold && !out.release, "failed commit must not release acks");
        assert_eq!(bolt.ledger().commit_failures(), 1);
        assert!(store.get("k").is_none());
        assert_eq!(replay_offset(&store, &["k"]), 0);
        // State stays intact; the next interval retries and commits
        // the whole backlog.
        store.inject_commit_failures(0.0, 0);
        out.hold = false;
        bolt.execute(&int_tuple(1, 3), &mut out);
        assert!(out.release, "successful commit releases the held acks");
        let (applied, snap) = decode_checkpoint(&store.get("k").unwrap().1).unwrap();
        assert_eq!(applied, 3);
        let mut cp = CountSum::default();
        cp.restore(&snap).unwrap();
        assert_eq!(cp, CountSum { n: 3, sum: 3 });
        assert_eq!(replay_offset(&store, &["k"]), 3);
    }

    #[test]
    fn flush_emits_no_partial_when_the_final_commit_fails() {
        let store = CheckpointStore::new();
        let cfg = OperatorConfig { checkpoint_every: 100, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=3u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        store.inject_commit_failures(1.0, 7);
        bolt.flush(&mut out);
        assert_eq!(bolt.ledger().commit_failures(), 1);
        assert!(out.emitted.is_empty(), "a non-durable drain snapshot was emitted");
        assert!(!out.release, "failed commit must not release acks");
        // Once the commit goes through, the drain ships the durable state.
        store.inject_commit_failures(0.0, 0);
        bolt.flush(&mut out);
        assert!(out.release);
        let drained = out.emitted.last().unwrap().get(1).unwrap().as_bytes().unwrap();
        assert_eq!(drained, &decode_checkpoint(&store.get("k").unwrap().1).unwrap().1[..]);
    }

    #[test]
    fn on_idle_commits_the_tail_and_releases() {
        let store = CheckpointStore::new();
        let cfg = OperatorConfig { checkpoint_every: 100, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=3u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        assert!(out.hold && store.get("k").is_none());
        bolt.on_idle(&mut out);
        assert!(out.release);
        assert_eq!(replay_offset(&store, &["k"]), 3);
        // Idle with nothing pending is a no-op.
        out.release = false;
        bolt.on_idle(&mut out);
        assert!(!out.release);
    }

    #[test]
    fn emit_on_commit_streams_durable_partials() {
        let store = CheckpointStore::new();
        let cfg =
            OperatorConfig { checkpoint_every: 2, emit_on_commit: true, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=4u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        assert_eq!(out.emitted.len(), 2, "one partial per commit");
        let t = &out.emitted[1];
        assert_eq!(t.get(0).unwrap().as_str(), Some("k"));
        assert_eq!(t.get(2).unwrap().as_int(), Some(4), "partial carries its progress marker");
        let mut part = CountSum::default();
        part.restore(t.get(1).unwrap().as_bytes().unwrap()).unwrap();
        assert_eq!(part, CountSum { n: 4, sum: 4 }, "partial is the durable snapshot");
        // The on_idle tail commit publishes too.
        bolt.execute(&int_tuple(1, 5), &mut out);
        bolt.on_idle(&mut out);
        assert_eq!(out.emitted.len(), 3);
        assert_eq!(out.emitted[2].get(2).unwrap().as_int(), Some(5));
    }

    /// [`CountSum`] that counts its encodes in a counter shared by
    /// every clone.
    #[derive(Clone, Default)]
    struct CountingSum {
        inner: CountSum,
        snapshots: Arc<std::sync::atomic::AtomicU64>,
    }

    impl CountingSum {
        fn snapshots(&self) -> u64 {
            self.snapshots.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Synopsis for CountingSum {
        fn snapshot(&self) -> Vec<u8> {
            self.snapshots.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.snapshot()
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<()> {
            self.inner.restore(bytes)
        }
    }

    #[test]
    fn one_encode_per_commit_shared_by_checkpoint_and_partial() {
        let store = CheckpointStore::new();
        let no_backoff = RestartPolicy {
            backoff_base: std::time::Duration::ZERO,
            max_restarts: 2,
            ..RestartPolicy::default()
        };
        let cfg = OperatorConfig {
            checkpoint_every: 2,
            emit_on_commit: true,
            commit_retry: Some(no_backoff),
            ..Default::default()
        };
        let synopsis = CountingSum::default();
        let mut bolt = SynopsisBolt::with_config(
            "k",
            &store,
            synopsis.clone(),
            |t, s| apply(t, &mut s.inner),
            cfg,
        )
        .unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=6u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
            if id % 2 == 0 {
                // Each commit encodes once; its partial is the very bytes
                // the checkpoint holds.
                assert_eq!(synopsis.snapshots(), id / 2, "encodes after {id} tuples");
                let partial = out.emitted.last().unwrap().get(1).unwrap().as_bytes().unwrap();
                let durable = decode_checkpoint(&store.get("k").unwrap().1).unwrap().1;
                assert_eq!(partial, &durable[..]);
            }
        }
        assert_eq!(out.emitted.len(), 3, "one partial per commit");
        // A commit that exhausts its retries still encodes only once; the
        // next commit encodes the grown summary afresh.
        store.inject_commit_failures(1.0, 7);
        bolt.execute(&int_tuple(1, 7), &mut out);
        bolt.execute(&int_tuple(1, 8), &mut out);
        assert_eq!((bolt.ledger().commit_retries(), bolt.ledger().commit_failures()), (2, 1));
        assert_eq!(synopsis.snapshots(), 4);
        store.inject_commit_failures(0.0, 0);
        bolt.execute(&int_tuple(1, 9), &mut out);
        assert_eq!(synopsis.snapshots(), 5);
        // Nothing applied since that commit: the drain flush re-ships the
        // committed bytes without encoding.
        bolt.flush(&mut out);
        assert_eq!(synopsis.snapshots(), 5);
        let drained = out.emitted.last().unwrap().get(1).unwrap().as_bytes().unwrap();
        assert_eq!(drained, &decode_checkpoint(&store.get("k").unwrap().1).unwrap().1[..]);
    }

    #[test]
    fn restart_recovers_checkpoint_and_dedups_replay() {
        let store = CheckpointStore::new();
        let mut out = OutputCollector::new();
        {
            let mut bolt = SynopsisBolt::new("k", &store, CountSum::default(), apply).unwrap();
            for id in 1..=10u64 {
                bolt.execute(&int_tuple(id as i64, id), &mut out);
            }
            bolt.flush(&mut out);
        }
        // "Restart": same key, fresh initial state.
        let mut bolt = SynopsisBolt::new("k", &store, CountSum::default(), apply).unwrap();
        assert!(bolt.ledger().recovered());
        assert_eq!(bolt.ledger().last_applied(), 10);
        assert_eq!(bolt.summary(), &CountSum { n: 10, sum: 55 });
        // Full replay: every id rejected, state unchanged.
        for id in 1..=10u64 {
            bolt.execute(&int_tuple(id as i64, id), &mut out);
        }
        assert_eq!(bolt.ledger().duplicates_skipped(), 10);
        bolt.execute(&int_tuple(100, 11), &mut out);
        assert_eq!(bolt.summary(), &CountSum { n: 11, sum: 155 });
    }

    #[test]
    fn gc_keeps_seen_set_bounded() {
        let store = CheckpointStore::new();
        let cfg =
            OperatorConfig { checkpoint_every: 10, gc_horizon: Some(20), ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        let mut out = OutputCollector::new();
        for id in 1..=1_000u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        assert!(store.seen_tokens("k") <= 30, "seen set leaked: {} tokens", store.seen_tokens("k"));
        // Dedup still covers the GC'd range via the watermark.
        bolt.execute(&int_tuple(1, 3), &mut out);
        assert_eq!(bolt.summary().n, 1_000);
    }

    #[test]
    fn commit_and_restore_latencies_are_observed() {
        let store = CheckpointStore::new();
        let cfg = OperatorConfig { checkpoint_every: 4, ..Default::default() };
        let mut bolt =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg.clone())
                .unwrap();
        assert!(bolt.ledger().commit_latency_us().is_none(), "no commits yet");
        assert!(bolt.ledger().restore_us().is_none(), "fresh start restores nothing");
        let mut out = OutputCollector::new();
        for id in 1..=20u64 {
            bolt.execute(&int_tuple(1, id), &mut out);
        }
        let (p50, p90, p99) = bolt.ledger().commit_latency_us().expect("5 commits happened");
        assert!(p50 > 0.0 && p50 <= p90 && p90 <= p99, "bad quantiles: {p50} {p90} {p99}");
        drop(bolt);
        let restarted =
            SynopsisBolt::with_config("k", &store, CountSum::default(), apply, cfg).unwrap();
        assert!(restarted.ledger().recovered());
        assert!(restarted.ledger().restore_us().is_some(), "recovery must time the restore");
    }

    #[test]
    fn corrupt_checkpoint_rejected_at_construction() {
        let store = CheckpointStore::new();
        store.put("k", vec![0xFF, 1, 2, 3]);
        assert!(SynopsisBolt::new("k", &store, CountSum::default(), apply).is_err());
        assert!(decode_checkpoint(&[CHECKPOINT_TAG, 0]).is_err());
    }

    #[test]
    fn merge_bolt_builds_global_view() {
        let mut merge = MergeBolt::new("global", CountSum::default());
        let mut out = OutputCollector::new();
        for (i, (n, sum)) in [(3u64, 30i64), (2, 5), (5, 15)].iter().enumerate() {
            let part = CountSum { n: *n, sum: *sum };
            let t = Tuple::new(vec![
                Value::Str(format!("p{i}").into()),
                Value::Bytes(part.snapshot().into()),
            ]);
            merge.execute(&t, &mut out);
        }
        // Re-delivery of a newer partial for the same partition replaces
        // the old one instead of double counting.
        let t = Tuple::new(vec![
            Value::Str("p1".into()),
            Value::Bytes(CountSum { n: 4, sum: 6 }.snapshot().into()),
        ]);
        merge.execute(&t, &mut out);
        merge.flush(&mut out);
        let mut global = CountSum::default();
        global.restore(out.emitted[0].get(1).unwrap().as_bytes().unwrap()).unwrap();
        assert_eq!(global, CountSum { n: 12, sum: 51 });
        assert_eq!(merge.errors(), 0);
        merge.execute(&tuple_of([1i64]), &mut out);
        assert_eq!(merge.errors(), 1);
    }

    #[test]
    fn log_spout_replays_failures_from_the_log() {
        let log = Log::new(1).unwrap();
        for w in ["a", "b", "c"] {
            log.append(w, Vec::new());
        }
        let mut spout = LogSpout::new(&log, 0, 0, 0, |r: &Record| tuple_of([r.key.as_str()]));
        let t1 = spout.next_tuple().unwrap();
        let t2 = spout.next_tuple().unwrap();
        assert_eq!(t1.root, 1);
        assert_eq!(t2.root, 2);
        assert_eq!(spout.pending(), 2);
        spout.ack(1);
        spout.fail(2);
        // The failed record comes back, re-read from the log.
        let replayed = spout.next_tuple().unwrap();
        assert_eq!(replayed.root, 2);
        assert_eq!(replayed.get(0).unwrap().as_str(), Some("b"));
        assert_eq!(spout.replays, 1);
        let t3 = spout.next_tuple().unwrap();
        assert_eq!(t3.root, 3);
        assert!(spout.next_tuple().is_none());
        spout.ack(2);
        spout.ack(3);
        assert_eq!(spout.pending(), 0);
    }

    #[test]
    fn log_spout_resumes_mid_log_with_id_base() {
        let log = Log::new(1).unwrap();
        for i in 0..5u8 {
            log.append("k", vec![i]);
        }
        let base = 1u64 << 40;
        let mut spout =
            LogSpout::new(&log, 0, 3, base, |r: &Record| tuple_of([i64::from(r.value[0])]));
        let t = spout.next_tuple().unwrap();
        assert_eq!(t.root, base + 4);
        assert_eq!(t.get(0).unwrap().as_int(), Some(3));
    }

    #[test]
    fn log_spout_quarantine_retires_and_returns_the_record() {
        let log = Log::new(1).unwrap();
        for i in 0..3u8 {
            log.append("k", vec![i]);
        }
        let mut spout =
            LogSpout::new(&log, 0, 0, 0, |r: &Record| tuple_of([i64::from(r.value[0])]));
        let t = spout.next_tuple().unwrap();
        let root = t.root;
        // In-flight → quarantined: body comes back, nothing pends.
        let body = spout.quarantine(root).expect("record still in the log");
        assert_eq!(body.get(0).unwrap().as_int(), Some(0));
        assert_eq!(spout.pending(), 0);
        // Failed-and-requeued → quarantined before replay.
        let t = spout.next_tuple().unwrap();
        assert!(spout.fail(t.root));
        assert!(spout.quarantine(t.root).is_some());
        assert_eq!(spout.pending(), 0);
        // Unknown root: nothing to retire.
        assert!(spout.quarantine(9_999).is_none());
    }

    /// The persisted frontier is the oldest *unsettled* offset: acks
    /// arriving out of order must not advance it past a live record. With
    /// a cadence above one, only every `every`-th settle writes, and each
    /// write is the oldest unsettled offset at that settle.
    #[test]
    fn log_spout_frontier_tracks_oldest_unsettled_offset() {
        #[derive(Clone, Copy)]
        enum Op {
            Ack(u64),
            Fail(u64),
            Replay,
            Quarantine(u64),
        }
        use Op::*;
        // Out of order: roots 3 and 2 settle before 1; 6 fails, replays
        // and fails again; 4 (in flight) and 6 (requeued) are quarantined.
        let script = [
            Ack(3),
            Ack(2),
            Ack(1),
            Fail(6),
            Quarantine(4),
            Ack(8),
            Replay,
            Fail(6),
            Quarantine(6),
            Ack(5),
            Ack(7),
        ];
        for every in [1u64, 3] {
            let log = Log::new(1).unwrap();
            for i in 0..8u8 {
                log.append("k", vec![i]);
            }
            let store = CheckpointStore::new();
            let mut spout =
                LogSpout::new(&log, 0, 0, 0, |r: &Record| tuple_of([i64::from(r.value[0])]))
                    .with_frontier(&store, "f", every);
            for _ in 0..8 {
                spout.next_tuple().unwrap();
            }
            let persisted = |store: &CheckpointStore| {
                store.get("f").map(|(_, v)| decode_checkpoint(&v).unwrap().0)
            };
            // The model: offsets not yet settled, and the value the store
            // should hold.
            let mut unsettled: std::collections::BTreeSet<u64> = (0..8).collect();
            let (mut settles, mut expected) = (0, None);
            for op in script {
                let settled = match op {
                    Ack(root) => {
                        spout.ack(root);
                        root
                    }
                    Quarantine(root) => {
                        spout.quarantine(root).expect("record still in the log");
                        root
                    }
                    Fail(root) => {
                        assert!(spout.fail(root));
                        continue;
                    }
                    Replay => {
                        spout.next_tuple().expect("requeued record");
                        continue;
                    }
                };
                unsettled.remove(&(settled - 1));
                settles += 1;
                if settles % every == 0 {
                    expected = Some(unsettled.first().copied().unwrap_or(8));
                }
                assert_eq!(persisted(&store), expected, "every {every}, settle of root {settled}");
            }
            assert_eq!(spout.pending(), 0);
            if every == 1 {
                assert_eq!(frontier_offset(&store, "f"), 8, "all settled");
            }
        }
        // A key never committed reads as "replay everything".
        assert_eq!(frontier_offset(&CheckpointStore::new(), "missing"), 0);
    }

    #[test]
    fn replay_offset_is_min_over_keys() {
        let store = CheckpointStore::new();
        let snap = CountSum::default().snapshot();
        store.put("a", encode_checkpoint(42, &snap));
        store.put("b", encode_checkpoint(17, &snap));
        assert_eq!(replay_offset(&store, &["a", "b"]), 17);
        // A task with no checkpoint forces a full replay.
        assert_eq!(replay_offset(&store, &["a", "b", "c"]), 0);
        assert_eq!(replay_offset(&store, &[]), 0);
    }
}
