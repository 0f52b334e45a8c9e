//! The work-stealing runtime ([`crate::Scheduling::WorkStealing`]): a
//! fixed pool of N workers executes *activations* — "run this operator
//! task against its pending input" — instead of parking one OS thread
//! per task.
//!
//! Moving parts (primitives live in `channel.rs`):
//!
//! * one Chase–Lev [`WsDeque`] per worker (owner LIFO / stealer FIFO);
//! * a global [`Injector`] for out-of-pool submissions (spout
//!   activations, coordinator flush/terminate, timer firings) and
//!   deque overflow; idle workers spin → steal → park on its condvar —
//!   no sleep-polling anywhere;
//! * a timer heap for the two delayed re-activations the semantics
//!   need: a spout's ack-settle sweep cadence and a bolt's held-ack
//!   commit retry;
//! * per-slot `scheduled` flags so one task is never run by two
//!   workers, with the classic "clear, re-check inbox, re-claim"
//!   hand-off that cannot strand a message.
//!
//! Degree-1 co-located chains (the planner in `crate::topology`) fuse
//! into a single activation driving a [`FusedChain`] — intermediate
//! hops become inline `execute` calls with no channel, no re-batching,
//! no extra schedule. Supervision wraps activations, not threads: a
//! panic backs off and rebuilds the task's state inside its slot, and
//! the slot is simply re-enqueued.
//!
//! ## Why a slot never loses a wakeup
//!
//! An inbox send invokes `schedule(slot)`: claim `scheduled` via
//! `swap(true)`; only the winner enqueues. A finishing runner clears
//! the flag with `store(false)` and *then* re-checks the inbox: any
//! message that raced in either (a) arrived before the clear — the
//! runner's re-check sees it, re-claims, re-enqueues — or (b) arrived
//! after — the sender's own `schedule` sees `scheduled == false` and
//! enqueues. Parking is delegated to [`Injector::prepare_park`], whose
//! parked-count handshake closes the same window at the pool level.

use super::bolt::{BoltCore, TaskBolt, WorkerCtx};
use super::fuse::FusedChain;
use super::spout::{SpoutChain, SpoutCore, SpoutCtx, SpoutStep};
use super::{BoltTask, Msg, Route, RunCore, RunResult, Sender};
use crate::channel::{inbox_channel, InboxReceiver, Injector, WsDeque};
use crate::metrics::SchedCounters;
use crate::supervise::panic_message;
use crate::topology::plan_chains;
use sa_core::{Result, SaError};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tuples processed per bolt activation before the slot yields (keeps
/// a backlogged task from monopolizing a worker). Budgeting in tuples
/// rather than messages makes the fairness slice batch-size-agnostic:
/// an activation amortizes its fixed costs (unit lock, claim hand-off,
/// injector requeue) over ~2k tuples whether they arrive as 64-tuple
/// batches or singletons.
const DRAIN_TUPLES: usize = 2048;
/// Messages pulled from the inbox per lock acquisition (bulk drain).
const DRAIN_MSGS: usize = 32;
/// Spout-loop iterations per activation (same fairness bound).
const SPOUT_SLICE: usize = 128;
/// Held-ack commit retry cadence (mirrors thread-per-task's 1 ms).
const HELD_RETRY: Duration = Duration::from_millis(1);
/// Idle-spout settle sweep cadence (mirrors thread-per-task's 2 ms).
const SETTLE_SWEEP: Duration = Duration::from_millis(2);
/// Park ceiling: a worker re-checks shutdown at least this often.
const PARK_MAX: Duration = Duration::from_millis(100);

/// Distinguishes pool workers of *this* run from foreign threads (and
/// from workers of a nested run) in the thread-local below.
static SCHED_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(scheduler id, worker index)` of the current thread, if it is
    /// a pool worker — `enqueue` targets the worker's own deque.
    static WORKER: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };
}

/// One schedulable unit: a spout (optionally with a fused bolt tail)
/// or a bolt task / fused bolt chain with its inbox.
enum SlotKind {
    Spout(Box<Mutex<SpoutCore>>),
    Bolt { unit: Box<Mutex<(BoltCore, WorkerCtx)>>, rx: InboxReceiver<Msg> },
}

struct Slot {
    kind: SlotKind,
    /// Claimed-for-execution flag (see module docs).
    scheduled: AtomicBool,
    /// Terminal: the task ran to completion; never scheduled again.
    finished: AtomicBool,
}

/// Shared scheduler state. Slots are filled once (before any worker
/// starts) and immutable thereafter.
struct Sched {
    id: u64,
    injector: Injector,
    deques: Vec<WsDeque>,
    slots: OnceLock<Vec<Slot>>,
    /// Delayed re-activations: `(deadline, slot)` min-heap.
    timers: Mutex<BinaryHeap<Reverse<(Instant, usize)>>>,
    shutdown: AtomicBool,
    /// Coordinator waits here for slots to finish.
    done_mx: Mutex<()>,
    done_cv: Condvar,
}

impl Sched {
    fn new(workers: usize) -> Self {
        Self {
            id: SCHED_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Injector::new(),
            deques: (0..workers).map(|_| WsDeque::new(256)).collect(),
            slots: OnceLock::new(),
            timers: Mutex::new(BinaryHeap::new()),
            shutdown: AtomicBool::new(false),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    fn slots(&self) -> &[Slot] {
        self.slots.get().expect("slots set before workers start")
    }

    /// Request that `s` run (inbox wake hooks, ack progress, timers).
    /// Exactly one concurrent caller wins the `scheduled` claim and
    /// enqueues; the rest are free no-ops.
    fn schedule(&self, s: usize) {
        let Some(slots) = self.slots.get() else { return };
        let slot = &slots[s];
        if slot.finished.load(Ordering::Acquire) {
            return;
        }
        if slot.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        self.enqueue(s);
    }

    /// Enqueue an already-claimed slot: a pool worker keeps it local
    /// (LIFO, cache-warm) and signals stealable surplus; everyone else
    /// goes through the injector.
    fn enqueue(&self, s: usize) {
        let (owner, wi) = WORKER.with(|w| w.get());
        if owner == self.id {
            match self.deques[wi].push(s as u64) {
                Ok(()) => {
                    // Wake a parked sibling only when the push left
                    // stealable *surplus*: a lone item is popped by
                    // this worker right after its current activation,
                    // and waking someone to lose that race is a
                    // park/unpark round-trip per batch send.
                    if self.deques[wi].len() > 1 {
                        self.injector.wake_one();
                    }
                }
                Err(v) => self.injector.push(v),
            }
        } else {
            self.injector.push(s as u64);
        }
    }

    /// Enqueue an already-claimed slot at the global FIFO — used for
    /// self-requeues (a spout's next slice, a backlogged bolt's next
    /// drain) so local LIFO order cannot starve sibling slots.
    fn enqueue_global(&self, s: usize) {
        self.injector.push(s as u64);
    }

    fn timer_at(&self, at: Instant, s: usize) {
        self.timers.lock().unwrap().push(Reverse((at, s)));
    }

    /// Schedule every due timer. Returns whether any fired.
    fn fire_timers(&self, now: Instant) -> bool {
        let mut due = Vec::new();
        {
            let mut heap = self.timers.lock().unwrap();
            while let Some(&Reverse((at, s))) = heap.peek() {
                if at > now {
                    break;
                }
                heap.pop();
                due.push(s);
            }
        }
        for &s in &due {
            self.schedule(s);
        }
        !due.is_empty()
    }

    fn next_timer(&self) -> Option<Instant> {
        self.timers.lock().unwrap().peek().map(|&Reverse((at, _))| at)
    }

    /// Mark `s` terminal and wake the coordinator.
    fn finish(&self, s: usize) {
        self.slots()[s].finished.store(true, Ordering::Release);
        let _g = self.done_mx.lock().unwrap();
        self.done_cv.notify_all();
    }

    /// Block the coordinator until every listed slot has finished.
    fn wait_finished(&self, list: &[usize]) {
        for &s in list {
            while !self.slots()[s].finished.load(Ordering::Acquire) {
                let g = self.done_mx.lock().unwrap();
                if self.slots()[s].finished.load(Ordering::Acquire) {
                    break;
                }
                drop(self.done_cv.wait_timeout(g, Duration::from_millis(20)).unwrap());
            }
        }
    }
}

/// The worker loop: own deque (LIFO) → injector → steal (FIFO, oldest
/// first) → fire timers → park. `prepare_park` + a steal re-check +
/// `park`'s internal queue re-check make the descent lost-wakeup-free.
fn worker(sched: Arc<Sched>, wi: usize, counters: SchedCounters) {
    WORKER.with(|w| w.set((sched.id, wi)));
    loop {
        if sched.shutdown.load(Ordering::Acquire) {
            break;
        }
        let found = sched.deques[wi].pop().or_else(|| sched.injector.try_pop()).or_else(|| {
            let got = steal(&sched, wi);
            if got.is_some() {
                counters.steals.add(1);
            }
            got
        });
        if let Some(s) = found {
            counters.runs.add(1);
            run_slot(&sched, s as usize);
            continue;
        }
        if sched.fire_timers(Instant::now()) {
            continue;
        }
        // Announce the park *before* the final re-check: any producer
        // that enqueues after this sees parked > 0 and notifies.
        sched.injector.prepare_park();
        if let Some(s) = steal(&sched, wi) {
            sched.injector.cancel_park();
            counters.steals.add(1);
            counters.runs.add(1);
            run_slot(&sched, s as usize);
            continue;
        }
        if sched.shutdown.load(Ordering::Acquire) {
            sched.injector.cancel_park();
            break;
        }
        let timeout = sched
            .next_timer()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .map_or(PARK_MAX, |d| d.min(PARK_MAX));
        counters.parks.add(1);
        if let Some(s) = sched.injector.park(timeout) {
            counters.runs.add(1);
            run_slot(&sched, s as usize);
        }
    }
}

/// Fairness weight of one inbox message: data costs its row count,
/// control markers cost one.
fn msg_tuples(msg: &Msg) -> usize {
    match msg {
        Msg::Data(batch) => batch.len().max(1),
        Msg::Frame(frame) => frame.len(),
        _ => 1,
    }
}

/// One sweep over the sibling deques, oldest work first.
fn steal(sched: &Sched, wi: usize) -> Option<u64> {
    let n = sched.deques.len();
    (1..n).find_map(|k| sched.deques[(wi + k) % n].steal())
}

/// Execute one activation. The caller owns the slot's `scheduled`
/// claim; this either hands it back (clear → re-check → maybe
/// re-claim), keeps it across a self-requeue, or retires the slot.
fn run_slot(sched: &Arc<Sched>, s: usize) {
    let slot = &sched.slots()[s];
    match &slot.kind {
        SlotKind::Bolt { unit, rx } => {
            let mut guard = unit.lock().unwrap();
            let (core, ctx) = &mut *guard;
            if core.done {
                return;
            }
            // Chunked drain: one inbox lock per DRAIN_MSGS messages,
            // processed inline until the tuple budget runs out — the
            // run-inline-after-drain loop keeps a steady producer from
            // forcing an injector round-trip per handful of messages.
            let mut budget = DRAIN_TUPLES as i64;
            let mut chunk: Vec<Msg> = Vec::with_capacity(DRAIN_MSGS);
            while budget > 0 {
                if rx.drain(DRAIN_MSGS, &mut chunk) == 0 {
                    break;
                }
                // Every drained message is processed — the budget is
                // re-checked only between chunks, so a drained message
                // can never be stranded in the local buffer.
                for msg in chunk.drain(..) {
                    budget -= msg_tuples(&msg) as i64;
                    core.handle_msg(msg, ctx);
                    if core.done {
                        drop(guard);
                        sched.finish(s);
                        return;
                    }
                }
            }
            if rx.is_empty() {
                // Fully drained: idle hook (commit + release held acks,
                // flush partial batches) before the slot goes dormant.
                core.idle(ctx);
            }
            let held = !core.held_empty();
            drop(guard);
            slot.scheduled.store(false, Ordering::Release);
            if !rx.is_empty() {
                // Backlog (budget exhausted, or a racing send): re-claim
                // and requeue globally so siblings get the worker first.
                if !slot.scheduled.swap(true, Ordering::AcqRel) {
                    sched.enqueue_global(s);
                }
            } else if held {
                // A failed commit left acks held; retry the commit on a
                // cadence — fresh input still wakes the slot instantly.
                sched.timer_at(Instant::now() + HELD_RETRY, s);
            }
        }
        SlotKind::Spout(mx) => {
            let mut guard = mx.lock().unwrap();
            match guard.run_slice(SPOUT_SLICE) {
                SpoutStep::Progress => {
                    drop(guard);
                    // Keep the claim; yield the worker between slices.
                    sched.enqueue_global(s);
                }
                SpoutStep::Idle { seen } => {
                    let note = guard.ctx.ack_note.clone();
                    drop(guard);
                    slot.scheduled.store(false, Ordering::Release);
                    if note.seq() != seen {
                        // An ack landed between the settle and here:
                        // re-claim rather than sleep on a stale snapshot.
                        if !slot.scheduled.swap(true, Ordering::AcqRel) {
                            sched.enqueue_global(s);
                        }
                    } else {
                        // Dormant until ack progress (`on_ack` schedules
                        // spout slots directly) or the sweep cadence.
                        sched.timer_at(Instant::now() + SETTLE_SWEEP, s);
                    }
                }
                SpoutStep::Done => {
                    drop(guard);
                    sched.finish(s);
                }
            }
        }
    }
}

/// What each slot will hold, resolved before any channel or core is
/// built (wake hooks need final slot indices).
enum UnitSpec {
    /// `chain[0]` is the spout component; `chain[1..]` its fused tail.
    Spout { chain: Vec<usize>, local_idx: usize },
    /// `chain[0]` is the head bolt; singleton chains may have many
    /// tasks (`task_idx`), fused chains are parallelism-1.
    Bolt { chain: Vec<usize>, task_idx: usize },
}

pub(crate) fn run(mut core: RunCore) -> Result<RunResult> {
    let workers = core.config.scheduling.worker_count().max(1);
    let instrumented = core.config.latency_sample_every > 0;
    let watermarks = core.config.watermarks.is_some();
    let mut built = std::mem::take(&mut core.built);
    let mut spout_insts = std::mem::take(&mut core.spouts);

    // --- Plan the schedulable units: fused chains (degree-1 co-located
    //     pipelines collapse into one activation) or — with fusion off —
    //     one unit per task. ---
    let chains: Vec<Vec<usize>> = if core.config.fuse_chains {
        plan_chains(&core.decls)
    } else {
        (0..core.decls.len()).map(|i| vec![i]).collect()
    };

    // Spout task index (ack-root prefix) by declaration order — same
    // assignment as the thread-per-task runtime, so root encodings are
    // scheduler-independent.
    let mut spout_task: HashMap<(usize, usize), usize> = HashMap::new();
    let mut next_spout_task = 0usize;
    for (ci, c) in core.decls.iter().enumerate() {
        if !c.is_bolt() {
            for local in 0..c.parallelism {
                spout_task.insert((ci, local), next_spout_task);
                next_spout_task += 1;
            }
        }
    }

    let mut specs: Vec<UnitSpec> = Vec::new();
    let mut spout_slots: Vec<usize> = Vec::new();
    let mut bolt_slots_of: HashMap<String, Vec<usize>> = HashMap::new();
    for chain in &chains {
        let head = &core.decls[chain[0]];
        if head.is_bolt() {
            for task_idx in 0..head.parallelism {
                bolt_slots_of.entry(head.name.clone()).or_default().push(specs.len());
                specs.push(UnitSpec::Bolt { chain: chain.clone(), task_idx });
            }
        } else {
            for local_idx in 0..head.parallelism {
                spout_slots.push(specs.len());
                specs.push(UnitSpec::Spout { chain: chain.clone(), local_idx });
            }
        }
    }

    let sched = Arc::new(Sched::new(workers));

    // Ack progress re-activates dormant spouts immediately (and bumps
    // the run-wide notifier for the `Idle { seen }` re-check). The hook
    // lives inside the slots `Sched` owns, so it holds `Sched` weakly:
    // a strong reference would be a cycle that keeps the whole task
    // graph alive after the run.
    let on_ack: Arc<dyn Fn() + Send + Sync> = {
        let note = core.ack_note.clone();
        let sched = Arc::downgrade(&sched);
        let spout_slots = spout_slots.clone();
        Arc::new(move || {
            note.notify();
            if let Some(sched) = sched.upgrade() {
                for &s in &spout_slots {
                    sched.schedule(s);
                }
            }
        })
    };

    // --- Inboxes: one per bolt unit; a send invokes the slot's wake
    //     hook (schedule), not a thread unblock. One shared LinkStats
    //     gauge per component, as on the other scheduler. ---
    let mut senders: HashMap<String, Vec<Sender<Msg>>> = HashMap::new();
    let mut inboxes: HashMap<usize, InboxReceiver<Msg>> = HashMap::new();
    let mut link_stats: HashMap<String, crate::channel::LinkStats> = HashMap::new();
    for (slot, spec) in specs.iter().enumerate() {
        let UnitSpec::Bolt { chain, .. } = spec else { continue };
        let head = &core.decls[chain[0]];
        let stats = instrumented.then(|| {
            link_stats
                .entry(head.name.clone())
                .or_insert_with(|| core.metrics.register_link(&format!("{}.input", head.name)))
                .clone()
        });
        // Weak for the same reason as `on_ack`: senders live in the
        // slots' routes (and in a `RescaleController` that may outlive
        // the run); a send after the run is a no-op.
        let wake: Arc<dyn Fn() + Send + Sync> = {
            let sched = Arc::downgrade(&sched);
            Arc::new(move || {
                if let Some(sched) = sched.upgrade() {
                    sched.schedule(slot);
                }
            })
        };
        let (tx, rx) = inbox_channel(stats, wake);
        senders.entry(head.name.clone()).or_default().push(tx);
        inboxes.insert(slot, rx);
    }

    // Live rescaling: register every component's inbox with the
    // controller (a `Msg::Rescale` send schedules the parked slot via
    // the wake hook above) and publish the per-table `active` gauges.
    if let Some(ctl) = &core.config.rescale {
        ctl.bind(&core.metrics);
        for (name, txs) in &senders {
            ctl.register_senders(name, txs.clone());
        }
    }

    // --- Routing tables. A component fused into a chain has no inbox
    //     (no `senders` entry): its single input edge is delivered
    //     inline by the chain, so no route materializes for it. ---
    let mut routes: HashMap<String, Vec<Route>> = HashMap::new();
    for c in &core.decls {
        routes.entry(c.name.clone()).or_default();
    }
    // Columnar links require an unfused consumer: a bolt fused into a
    // chain is driven row-by-row by inline `execute` calls, so frames
    // would only be pivoted back. Singleton chain heads qualify.
    let singleton: std::collections::HashSet<&str> = chains
        .iter()
        .filter(|chain| chain.len() == 1 && core.decls[chain[0]].is_bolt())
        .map(|chain| core.decls[chain[0]].name.as_str())
        .collect();
    for c in &core.decls {
        for (upstream, grouping) in &c.inputs {
            if let Some(tx) = senders.get(&c.name) {
                routes.get_mut(upstream).unwrap().push(Route {
                    grouping: grouping.clone(),
                    senders: tx.clone(),
                    frames: singleton.contains(c.name.as_str())
                        && super::link_frames(&built, &c.name),
                    shard: core.config.rescale.as_ref().and_then(|ctl| ctl.table_of(&c.name)),
                });
            }
        }
    }

    // --- Build the slots. Seeds follow a mix64 chain in unit order,
    //     one draw per unit, as on the other scheduler. ---
    let mut task_seed = core.config.seed;
    let mut slots: Vec<Slot> = Vec::new();
    for (slot_idx, spec) in specs.iter().enumerate() {
        task_seed = sa_core::hash::mix64(task_seed);
        let kind = match spec {
            UnitSpec::Bolt { chain, task_idx } => {
                let head = &core.decls[chain[0]];
                let tail = &core.decls[*chain.last().unwrap()];
                let panic_prob = chain
                    .iter()
                    .map(|&i| core.config.faults.panic_prob_for(&core.decls[i].name))
                    .fold(0.0, f64::max);
                let ctx = WorkerCtx {
                    name: head.name.clone(),
                    emit_name: tail.name.clone(),
                    routes: routes[&tail.name].clone(),
                    acker: core.acker.clone(),
                    semantics: core.config.semantics,
                    metrics: core.metrics.clone(),
                    sink: core.sink.clone(),
                    drop_prob: core.drop_prob_for(&tail.name),
                    delay: core.config.faults.delay_for(&tail.name),
                    panic_prob,
                    restart: core.restart_for(head),
                    abort: core.abort.clone(),
                    failure: core.failure.clone(),
                    run_start: core.run_start,
                    seed: task_seed,
                    batch_size: core.config.batch_size,
                    batch_linger: core.config.batch_linger,
                    sample_every: core.config.latency_sample_every,
                    upstream_ids: core.upstream_ids[&head.name].clone(),
                    watermarks,
                    on_ack: on_ack.clone(),
                };
                let my_id = core.task_ids[&tail.name][if chain.len() == 1 { *task_idx } else { 0 }];
                let (bolt, factory) = if chain.len() == 1 {
                    let task = take_task(&mut built, &head.name);
                    (TaskBolt::Plain(task.bolt), task.factory)
                } else {
                    let names: Vec<String> =
                        chain.iter().map(|&i| core.decls[i].name.clone()).collect();
                    let tasks: Vec<BoltTask> =
                        names.iter().map(|n| take_task(&mut built, n)).collect();
                    let fc = FusedChain::build(
                        &names,
                        tasks,
                        &core.metrics,
                        core.sink.clone(),
                        watermarks,
                    );
                    (TaskBolt::Chain(fc), None)
                };
                let bc = BoltCore::new(0, *task_idx, my_id, bolt, factory, &ctx);
                let rx = inboxes.remove(&slot_idx).expect("bolt inbox");
                SlotKind::Bolt { unit: Box::new(Mutex::new((bc, ctx))), rx }
            }
            UnitSpec::Spout { chain, local_idx } => {
                let head = &core.decls[chain[0]];
                let tail = &core.decls[*chain.last().unwrap()];
                let fused = chain.len() > 1;
                // Emissions routed downstream are the tail's, so the
                // link chaos knobs (drop/delay) key on the tail; the
                // spout's own panic injection keys on the spout.
                let ctx = SpoutCtx {
                    task: spout_task[&(chain[0], *local_idx)],
                    name: head.name.clone(),
                    routes: routes[&tail.name].clone(),
                    acker: core.acker.clone(),
                    semantics: core.config.semantics,
                    metrics: core.metrics.clone(),
                    sink: core.sink.clone(),
                    drop_prob: core.drop_prob_for(&tail.name),
                    delay: core.config.faults.delay_for(&tail.name),
                    panic_prob: core.config.faults.panic_prob_for(&head.name),
                    restart: core.restart_for(head),
                    max_replays: core.config.max_replays,
                    abort: core.abort.clone(),
                    failure: core.failure.clone(),
                    run_start: core.run_start,
                    seed: task_seed,
                    batch_size: core.config.batch_size,
                    batch_linger: core.config.batch_linger,
                    sample_every: core.config.latency_sample_every,
                    ack_timeout: core.config.ack_timeout,
                    shutdown_timeout: core.config.shutdown_timeout,
                    unclean: core.unclean.clone(),
                    kill: core.config.kill.clone(),
                    wm_source: core.task_ids[&head.name][*local_idx],
                    watermarks: core.config.watermarks.clone(),
                    ack_note: core.ack_note.clone(),
                    on_ack: on_ack.clone(),
                };
                let spout_chain = fused.then(|| {
                    let names: Vec<String> =
                        chain[1..].iter().map(|&i| core.decls[i].name.clone()).collect();
                    let tasks: Vec<BoltTask> =
                        names.iter().map(|n| take_task(&mut built, n)).collect();
                    let fc = FusedChain::build(
                        &names,
                        tasks,
                        &core.metrics,
                        core.sink.clone(),
                        watermarks,
                    );
                    let panic_prob = chain[1..]
                        .iter()
                        .map(|&i| core.config.faults.panic_prob_for(&core.decls[i].name))
                        .fold(0.0, f64::max);
                    SpoutChain::new(
                        fc,
                        core.task_ids[&tail.name][0],
                        core.task_ids[&head.name][*local_idx],
                        core.restart_for(&core.decls[chain[1]]),
                        panic_prob,
                        task_seed,
                        &core.metrics,
                        core.config.latency_sample_every,
                    )
                });
                // Units are created in instance order, so the front of
                // the remaining list is always this unit's instance.
                let spout = spout_insts.get_mut(&head.name).expect("spout instances").remove(0);
                SlotKind::Spout(Box::new(Mutex::new(SpoutCore::new(spout, ctx, spout_chain))))
            }
        };
        slots.push(Slot {
            kind,
            scheduled: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        });
    }
    if sched.slots.set(slots).is_err() {
        unreachable!("slots set exactly once");
    }

    // --- Start the pool, then light the spouts. ---
    let mut joins = Vec::new();
    for wi in 0..workers {
        let sched = sched.clone();
        let counters = core.metrics.register_sched_worker(wi);
        joins.push(std::thread::spawn(move || worker(sched, wi, counters)));
    }
    for &s in &spout_slots {
        sched.schedule(s);
    }

    // --- Shutdown protocol (identical to thread-per-task): spouts
    //     retire, then flush+terminate bolt units in topological order
    //     so upstream flush output reaches live downstream slots. ---
    sched.wait_finished(&spout_slots);
    let killed = core.config.kill.as_ref().is_some_and(|k| k.load(Ordering::Relaxed));
    if killed {
        core.unclean.store(true, Ordering::Relaxed);
    }
    for name in &core.order {
        let Some(tx_list) = senders.get(name) else {
            continue; // a spout, or a bolt fused into a chain
        };
        for tx in tx_list {
            if !killed {
                let _ = tx.send(Msg::Flush);
            }
            let _ = tx.send(Msg::Terminate);
        }
        sched.wait_finished(&bolt_slots_of[name]);
    }
    sched.shutdown.store(true, Ordering::Release);
    sched.injector.wake_all();
    for (wi, h) in joins.into_iter().enumerate() {
        h.join().map_err(|payload| {
            SaError::Platform(format!(
                "scheduler worker {wi} panicked outside supervision: {}",
                panic_message(&*payload)
            ))
        })?;
    }

    core.conclude()
}

/// Pull the next materialized task of `name` out of the build table.
/// Units are created in task order, so the front of the remaining list
/// is always the requesting unit's task.
fn take_task(built: &mut HashMap<String, Vec<BoltTask>>, name: &str) -> BoltTask {
    built.get_mut(name).expect("built bolt tasks").remove(0)
}
