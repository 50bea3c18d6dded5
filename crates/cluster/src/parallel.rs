//! Shard lanes, deterministic mailboxes and the bounded worker pool behind
//! the windowed cluster engine.
//!
//! The cluster's shards only couple at gateway decisions — routing, loans,
//! shedding, faults — which all happen on the coordinator. Everything else
//! a shard does is local, so each shard runs as a [`Lane`]: its own
//! [`ShardEngine`] over its own event queue. The coordinator advances every
//! lane up to a synchronization bound (a `(time, key)` stamp), applies the
//! gateway decisions as [`Command`]s at their exact stamps, and repeats.
//!
//! Two properties make the result bit-for-bit reproducible at any thread
//! count (ARCHITECTURE.md invariant 11):
//!
//! * a lane's advancement is a pure function of `(lane state, bound,
//!   mailbox)` — no lane ever reads another lane or the coordinator;
//! * commands are ordered by the same `(time, key)` stamps the event
//!   queues already use, with command-before-event at equal stamps, never
//!   by thread arrival.
//!
//! The worker pool therefore only changes *where* a lane advances, not
//! *what* it computes. Observability rides the same structure: each lane's
//! `ObsSink` (flight recorder and/or online metric accumulator) is private
//! lane state fed from the lane's own hooks in its own push order, so a
//! traced or instrumented run parallelizes identically — the coordinator
//! only merges the per-lane partials (trace records by `(time, key, lane,
//! seq)`, online aggregates in lane order) after the run, which is how the
//! trace, the online registry (invariant 13), and the report all stay
//! thread-count invariant.

use std::collections::VecDeque;
use std::sync::mpsc;

use des_engine::{pack_stamp, unpack_time, SimDuration, SimTime, Simulation};
use inference_server::{ReplanRequest, ShardEngine, ShardEvent};
use inference_workload::{BatchDistribution, TaggedQuerySpec};
use mig_gpu::{ProfileSize, ResliceCostModel};
use paris_core::{pack_gpus, GpcBudget, ReconfigMode};

/// How the windowed cluster engine synchronizes its shard lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncWindow {
    /// One synchronization window per gateway event: every lane advances to
    /// exactly the next routing/fault decision's `(time, key)` stamp before
    /// the coordinator acts, so every gateway read (queue depths for JSQ,
    /// busy integrals, in-flight reconfigurations) is exact. This
    /// reproduces the shared-event-queue sequential order precisely — it is
    /// the default mode, and `CLUSTER_THREADS` only changes who advances
    /// the lanes, never the result.
    PerEvent,
    /// Conservative lookahead windows of the given width on an absolute
    /// grid: the coordinator makes **all** gateway decisions for a window
    /// at its leading edge (queue-depth and busy reads are up to one window
    /// stale — the modeled route-hop information latency), then the lanes
    /// execute the window's arrivals and fault commands at their exact
    /// stamps, in parallel. Deterministic at any thread count, but *not*
    /// equal to [`PerEvent`](SyncWindow::PerEvent): the staleness is a
    /// modeling choice, pinned separately. The width should be the minimum
    /// cross-shard information latency (route hop + decision grid).
    Lookahead(SimDuration),
}

/// An owned re-plan payload — [`ReplanRequest`] with the borrows resolved,
/// so the coordinator can mail it into a lane that fires it later.
#[derive(Debug, Clone)]
pub(crate) struct ArmedReplan {
    /// Monotone per-run id; a lane ignores stale re-arms (`id` at or below
    /// the last fired id) that crossed a window boundary in flight.
    pub id: u64,
    pub budget: GpcBudget,
    pub weights: Vec<f64>,
    pub dists: Vec<BatchDistribution>,
    pub cost: ResliceCostModel,
    pub extra_downtime: SimDuration,
    pub mode: ReconfigMode,
}

impl ArmedReplan {
    fn as_request(&self) -> ReplanRequest<'_> {
        ReplanRequest {
            budget: self.budget,
            weights: &self.weights,
            dists: &self.dists,
            cost: &self.cost,
            extra_downtime: self.extra_downtime,
            mode: self.mode,
        }
    }
}

/// One gateway decision delivered to a lane, executed at its exact
/// `(time, key)` stamp during lane advancement.
#[derive(Debug)]
pub(crate) enum Command {
    /// A routed (and admitted) arrival enters this shard's frontend.
    Offer(TaggedQuerySpec),
    /// Adopt a new budget now (a capacity loan/reclaim). If the lane
    /// started a reconfiguration the coordinator's edge-stale in-flight
    /// read missed, the in-flight transition aborts first — the ledger
    /// already moved the GPUs, so the budget must be adopted either way.
    Replan(Box<ArmedReplan>),
    /// A GPU failure: abort any in-flight reconfiguration, pack the live
    /// layout into physical-GPU bins, kill bin `gpu`'s instances and record
    /// how many queries requeued against `log_idx` in the fault log.
    Kill { gpu: usize, log_idx: usize },
    /// A slow-GPU fault: throttle the instances packed on bin `gpu` by
    /// `factor_milli / 1000` and remember the victims for the restore.
    Degrade { gpu: usize, factor_milli: u32 },
    /// The slow GPU recovered: un-throttle the recorded victims.
    Restore { gpu: usize },
    /// Arm a recovery re-plan to fire as soon as no reconfiguration is in
    /// flight (retried after every local event, exactly like the
    /// sequential engine's recovery poke).
    Arm(Box<ArmedReplan>),
    /// Recovery became infeasible (e.g. a second failure shrank the
    /// survivor budget below one GPU per model): drop any armed re-plan.
    Disarm,
}

/// First-fit-descending packing of the live layout into physical-GPU bins
/// of worker slots, per model group (groups never share a GPU) — the shared
/// deterministic convention for which instances a GPU fault hits.
fn gpu_bins(engine: &ShardEngine<'_>) -> Vec<Vec<usize>> {
    let mut bins: Vec<Vec<usize>> = Vec::new();
    for group in engine.live_members() {
        let sizes: Vec<ProfileSize> = group.iter().map(|&(_, size)| size).collect();
        for bin in pack_gpus(&sizes) {
            bins.push(bin.into_iter().map(|i| group[i].0).collect());
        }
    }
    bins
}

/// One shard's independent execution lane: the engine, its private event
/// queue, the command mailbox, and the cross-window recovery/fault state
/// the coordinator harvests at window edges.
pub(crate) struct Lane<'a> {
    pub shard: usize,
    pub engine: ShardEngine<'a>,
    pub sim: Simulation<ShardEvent>,
    /// Commands stamped with the **packed** `(time << 64) | key` stamp the
    /// event queues order by ([`pack_stamp`]), non-decreasing — the
    /// deterministic mailbox. The coordinator packs each command's stamp
    /// once at delivery; the merge loop in [`advance`](Lane::advance) then
    /// compares single integers against the lane queue's own packed front.
    /// Only used in [`SyncWindow::Lookahead`]; per-event windows apply
    /// commands synchronously through the same code path.
    pub mailbox: VecDeque<(u128, Command)>,
    /// Armed recovery re-plan waiting for the in-flight transition to end.
    armed: Option<Box<ArmedReplan>>,
    /// Highest recovery id this lane ever fired (stale re-arm guard).
    last_fired: u64,
    /// Recovery ids fired since the last harvest.
    pub fired: Vec<u64>,
    /// `(fault_log index, requeued count)` patches from executed kills.
    pub requeue_patches: Vec<(usize, u64)>,
    /// Per physical-GPU bin: worker slots throttled by an active degrade.
    degraded_victims: Vec<Option<Vec<usize>>>,
}

impl<'a> Lane<'a> {
    /// `capacity` pre-sizes the lane's event queue (see
    /// `Cluster::lane_capacity_hints`); `mailbox_capacity` pre-sizes the
    /// command mailbox (zero in per-event mode, where commands never queue).
    pub fn new(
        shard: usize,
        engine: ShardEngine<'a>,
        num_gpus: usize,
        capacity: usize,
        mailbox_capacity: usize,
    ) -> Self {
        Lane {
            shard,
            engine,
            sim: Simulation::with_capacity(capacity),
            mailbox: VecDeque::with_capacity(mailbox_capacity),
            armed: None,
            last_fired: 0,
            fired: Vec::new(),
            requeue_patches: Vec::new(),
            degraded_victims: vec![None; num_gpus],
        }
    }

    /// Advances this lane up to (strictly before) `bound`: local events and
    /// mailboxed commands merge by packed `(time, key)` stamp, commands
    /// first at equal stamps — the same order a single shared event queue
    /// would have produced with the gateway's items keyed at their stamps.
    /// Every comparison in the loop is a single `u128` compare: the bound
    /// is packed once, the mailbox stores pre-packed stamps, and the lane
    /// queue exposes its front as a packed stamp.
    pub fn advance(&mut self, bound: (SimTime, u64)) {
        let bound = pack_stamp(bound.0, bound.1);
        loop {
            let next_cmd = self.mailbox.front().map(|&(s, _)| s);
            let take_cmd = match (next_cmd, self.sim.peek_stamp()) {
                (Some(c), Some(e)) => c <= e,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_cmd {
                let stamp = next_cmd.expect("checked above");
                if stamp >= bound {
                    break;
                }
                let (_, cmd) = self.mailbox.pop_front().expect("checked above");
                self.apply(unpack_time(stamp), cmd);
            } else {
                let Some((now, event)) = self.sim.next_event_if_before_stamp(bound) else {
                    break;
                };
                self.handle_event(now, event);
            }
        }
    }

    fn handle_event(&mut self, now: SimTime, event: ShardEvent) {
        let (engine, sim) = (&mut self.engine, &mut self.sim);
        engine.handle(now, event, &mut |t, k, e| sim.schedule_at_keyed(t, k, e));
        self.try_fire(now);
    }

    /// Executes one gateway command at its stamp. Shared by both sync
    /// modes: per-event windows call it synchronously, lookahead windows
    /// through the mailbox — identical lane state either way.
    pub fn apply(&mut self, t: SimTime, cmd: Command) {
        self.sim.advance_to(t);
        let (engine, sim) = (&mut self.engine, &mut self.sim);
        let mut sched = |ti: SimTime, k: u64, e: ShardEvent| sim.schedule_at_keyed(ti, k, e);
        match cmd {
            Command::Offer(tq) => engine.offer(tq, &mut sched),
            Command::Replan(r) => {
                if engine.reconfig_in_flight() {
                    engine.abort_reconfig(t, &mut sched);
                }
                engine.force_replan(&r.as_request(), t, &mut sched);
            }
            Command::Kill { gpu, log_idx } => {
                if engine.reconfig_in_flight() {
                    engine.abort_reconfig(t, &mut sched);
                }
                let bins = gpu_bins(engine);
                let requeued = match bins.get(gpu) {
                    Some(victims) => engine.kill_instances(victims, t, &mut sched),
                    None => 0,
                };
                self.requeue_patches.push((log_idx, requeued));
            }
            Command::Degrade { gpu, factor_milli } => {
                let victims = gpu_bins(engine).get(gpu).cloned().unwrap_or_default();
                if !victims.is_empty() {
                    // Sub-unit factors would mean a *faster* GPU; clamp so a
                    // malformed plan degrades to a recorded no-op.
                    let factor = f64::from(factor_milli.max(1000)) / 1000.0;
                    engine.set_degrade(&victims, factor);
                }
                if let Some(slot) = self.degraded_victims.get_mut(gpu) {
                    *slot = Some(victims);
                }
            }
            Command::Restore { gpu } => {
                if let Some(victims) = self.degraded_victims.get_mut(gpu).and_then(Option::take) {
                    if !victims.is_empty() {
                        engine.set_degrade(&victims, 1.0);
                    }
                }
            }
            Command::Arm(r) => {
                if r.id > self.last_fired {
                    self.armed = Some(r);
                    self.try_fire(t);
                }
            }
            Command::Disarm => self.armed = None,
        }
    }

    /// Fires the armed recovery re-plan if no reconfiguration is in flight
    /// — called after every local event and on arming, mirroring the
    /// sequential engine's poke-after-every-shard-event retry.
    fn try_fire(&mut self, now: SimTime) {
        if self.armed.is_some() && !self.engine.reconfig_in_flight() {
            let r = self.armed.take().expect("checked above");
            let (engine, sim) = (&mut self.engine, &mut self.sim);
            engine.force_replan(&r.as_request(), now, &mut |t, k, e| {
                sim.schedule_at_keyed(t, k, e);
            });
            self.last_fired = r.id;
            self.fired.push(r.id);
        }
    }
}

/// Who advances the lanes between gateway decisions. Implementations must
/// leave `lanes` in shard-index order.
pub(crate) trait LaneExecutor<'a> {
    fn advance_all(&mut self, lanes: &mut Vec<Lane<'a>>, bound: (SimTime, u64));
}

/// Single-threaded executor: advances lanes in place, in shard order.
pub(crate) struct SerialExecutor;

impl<'a> LaneExecutor<'a> for SerialExecutor {
    fn advance_all(&mut self, lanes: &mut Vec<Lane<'a>>, bound: (SimTime, u64)) {
        for lane in lanes.iter_mut() {
            lane.advance(bound);
        }
    }
}

/// The parallel structure of one windowed run, measured in lane events:
/// how much lane work each synchronization window held, and how that work
/// would bucket onto a lane worker pool of each profiled size.
///
/// Wall-clock scaling on a given host confounds the engine's structure
/// with the host's core count; this profile is the structure alone —
/// deterministic, bit-for-bit reproducible, and measured from the same
/// run that produced the report. `bench_megacluster` uses it to emit the
/// events/sec-vs-cores curve with the measurement basis spelled out.
#[derive(Debug, Clone)]
pub struct WindowProfile {
    /// Synchronization windows executed (lane-advancement barriers).
    pub windows: u64,
    /// Total lane events processed across all shards — the single-thread
    /// critical path.
    pub lane_events: u64,
    /// Per profiled thread count `k`: the sum over windows of the largest
    /// per-bucket lane-event count under the pool's `shard % workers`
    /// assignment — the lane work on the critical path when `k` workers
    /// advance the lanes. Always ≥ `lane_events / k` (imbalance) and ≤
    /// `lane_events` (never slower than serial).
    pub critical_path: Vec<(usize, u64)>,
}

impl WindowProfile {
    /// The modeled end-to-end speedup of running this exact window
    /// structure on `threads` workers, with `serial_events` events (the
    /// gateway's own items) that stay on the coordinator regardless:
    /// `(lane + serial) / (critical_path(threads) + serial)`.
    #[must_use]
    pub fn modeled_speedup(&self, threads: usize, serial_events: u64) -> f64 {
        let crit = self
            .critical_path
            .iter()
            .find(|&&(k, _)| k == threads)
            .map_or(self.lane_events, |&(_, c)| c);
        (self.lane_events + serial_events) as f64 / (crit + serial_events).max(1) as f64
    }
}

/// A [`SerialExecutor`] that additionally measures the run's
/// [`WindowProfile`]: per window, each lane's processed-event delta is
/// bucketed by the worker assignment each profiled thread count would use,
/// and the largest bucket joins that count's critical path.
pub(crate) struct ProfilingExecutor {
    thread_counts: Vec<usize>,
    snap: Vec<u64>,
    /// Per-window scratch, reused across the run's thousands of windows so
    /// profiling allocates nothing after the first window.
    deltas: Vec<u64>,
    buckets: Vec<u64>,
    profile: WindowProfile,
}

impl ProfilingExecutor {
    pub fn new(thread_counts: &[usize]) -> Self {
        ProfilingExecutor {
            thread_counts: thread_counts.to_vec(),
            snap: Vec::new(),
            deltas: Vec::new(),
            buckets: Vec::new(),
            profile: WindowProfile {
                windows: 0,
                lane_events: 0,
                critical_path: thread_counts.iter().map(|&k| (k, 0)).collect(),
            },
        }
    }

    pub fn into_profile(self) -> WindowProfile {
        self.profile
    }
}

impl<'a> LaneExecutor<'a> for ProfilingExecutor {
    fn advance_all(&mut self, lanes: &mut Vec<Lane<'a>>, bound: (SimTime, u64)) {
        self.snap.resize(lanes.len(), 0);
        for lane in lanes.iter_mut() {
            lane.advance(bound);
        }
        let (snap, deltas) = (&mut self.snap, &mut self.deltas);
        deltas.clear();
        deltas.extend(lanes.iter().map(|l| {
            let d = l.sim.events_processed() - snap[l.shard];
            snap[l.shard] = l.sim.events_processed();
            d
        }));
        let window_total: u64 = deltas.iter().sum();
        self.profile.windows += 1;
        self.profile.lane_events += window_total;
        for (idx, &k) in self.thread_counts.iter().enumerate() {
            let workers = k.clamp(1, lanes.len());
            self.buckets.clear();
            self.buckets.resize(workers, 0);
            for (lane, &d) in lanes.iter().zip(deltas.iter()) {
                self.buckets[lane.shard % workers] += d;
            }
            self.profile.critical_path[idx].1 += self.buckets.iter().copied().max().unwrap_or(0);
        }
    }
}

struct AdvanceJob<'a> {
    lanes: Vec<Lane<'a>>,
    bound: (SimTime, u64),
}

/// A bounded pool of persistent workers (the cluster-engine sibling of the
/// pool behind `parallel_map_indexed`): shard `s` always advances on worker
/// `s % threads`, lanes travel to their worker and back each window, and
/// because each lane's advancement is self-contained the assignment is pure
/// bookkeeping — any thread count computes identical lanes.
pub(crate) struct WorkerPool<'a> {
    jobs: Vec<mpsc::Sender<AdvanceJob<'a>>>,
    done: Vec<mpsc::Receiver<Vec<Lane<'a>>>>,
    /// Per-worker lane buckets: each window the filled buckets move into
    /// the jobs and the emptied vectors come home through `done`, so the
    /// steady state ships lanes both ways with zero allocation.
    buckets: Vec<Vec<Lane<'a>>>,
    sent: Vec<bool>,
    /// Shard-indexed return slots, reused across windows.
    slots: Vec<Option<Lane<'a>>>,
}

impl<'a> WorkerPool<'a> {
    /// Spawns `threads` workers inside `scope`.
    pub fn new<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        threads: usize,
    ) -> Self
    where
        'a: 'scope + 'env,
    {
        let mut jobs = Vec::with_capacity(threads);
        let mut done = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (job_tx, job_rx) = mpsc::channel::<AdvanceJob<'a>>();
            let (done_tx, done_rx) = mpsc::channel::<Vec<Lane<'a>>>();
            scope.spawn(move || {
                while let Ok(AdvanceJob { mut lanes, bound }) = job_rx.recv() {
                    for lane in &mut lanes {
                        lane.advance(bound);
                    }
                    if done_tx.send(lanes).is_err() {
                        break;
                    }
                }
            });
            jobs.push(job_tx);
            done.push(done_rx);
        }
        WorkerPool {
            jobs,
            done,
            buckets: Vec::new(),
            sent: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<'a> LaneExecutor<'a> for WorkerPool<'a> {
    fn advance_all(&mut self, lanes: &mut Vec<Lane<'a>>, bound: (SimTime, u64)) {
        let n = lanes.len();
        let workers = self.jobs.len();
        self.buckets.resize_with(workers, Vec::new);
        for lane in lanes.drain(..) {
            self.buckets[lane.shard % workers].push(lane);
        }
        self.sent.clear();
        self.sent.resize(workers, false);
        for w in 0..workers {
            if self.buckets[w].is_empty() {
                continue;
            }
            self.sent[w] = true;
            let bucket = std::mem::take(&mut self.buckets[w]);
            self.jobs[w]
                .send(AdvanceJob {
                    lanes: bucket,
                    bound,
                })
                .expect("worker alive for the whole run");
        }
        self.slots.clear();
        self.slots.resize_with(n, || None);
        for w in 0..workers {
            if !self.sent[w] {
                continue;
            }
            let mut advanced = self.done[w].recv().expect("worker alive for the whole run");
            for lane in advanced.drain(..) {
                let home = lane.shard;
                self.slots[home] = Some(lane);
            }
            // The drained vector keeps its capacity for next window's bucket.
            self.buckets[w] = advanced;
        }
        lanes.extend(
            self.slots
                .drain(..)
                .map(|s| s.expect("every lane comes home")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lookahead mailboxes are pre-sized to the lane capacity, so the slot
    /// size multiplies straight into peak memory: re-plan payloads stay
    /// boxed and a slot stays one stamp plus a query.
    #[test]
    fn mailbox_slot_stays_small() {
        assert!(std::mem::size_of::<(u128, Command)>() <= 48);
    }
}
