//! Causal tail attribution: *why* was this window's p99 what it was?
//!
//! For a grid window and query class, [`attribute_window`] finds the
//! window's p99 completion (nearest-rank over the completions that landed
//! in the window, tie-broken by `(latency, lane, query)` so the pick is
//! deterministic) and splits its latency **excess** — everything above
//! frontend overhead plus clean service time — into ranked causes:
//!
//! - `reconfig:loan_handover` — queue time spent inside reconfig downtime
//!   whose latest trigger on that shard was a pool loan;
//! - `reconfig:fault_recovery` — downtime triggered by a fault action;
//! - `reconfig:drift` — downtime with no recorded trigger (planned
//!   re-sharding);
//! - `fault_outage_wait` — queue time inside a fail→repair window not
//!   already covered by reconfig downtime;
//! - `degrade_wait` — queue time inside a degrade window not covered above;
//! - `queue_growth` — the remaining queue time: ordinary load;
//! - `degrade_inflation` — service-time inflation from running degraded;
//! - `service_noise` — signed service-time noise around the degraded base.
//!
//! The wait-side causes are **incremental-union overlaps**: each cause is
//! the overlap of the wait span with the union of its interval set and all
//! sets before it, minus the previous cause's running total. Differences of
//! a telescoping sum add back to the full wait exactly, and the service
//! side is the analyzer's integer identity (`service = clean + inflation +
//! noise`), so [`WindowAttribution::causes_sum`] equals
//! [`WindowAttribution::excess_ns`] with **zero residual** — enforced by
//! `bench_obs` on a live fault scenario.

use crate::analyze::{overlap_ns, union_intervals};
use crate::event::{FaultKind, TraceEvent};
use crate::recorder::{QueryTrace, TraceRecord};
use crate::slo::Alert;
use std::collections::HashMap;

/// One ranked cause share of a window's p99 excess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CauseRow {
    /// Stable cause label (see module docs).
    pub cause: &'static str,
    /// Signed share in integer nanoseconds (`service_noise` can be
    /// negative; everything else is non-negative).
    pub share_ns: i128,
}

/// The full attribution of one window's p99 completion.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAttribution {
    /// Query class attributed.
    pub group: usize,
    /// Grid bin attributed.
    pub bin: usize,
    /// Completions of `group` that landed in the bin.
    pub completions: usize,
    /// Lane of the p99 completion.
    pub p99_lane: u32,
    /// Per-lane query id of the p99 completion.
    pub p99_query: u64,
    /// Its end-to-end latency.
    pub p99_latency_ns: u64,
    /// Serialized frontend overhead (not part of the excess).
    pub frontend_ns: u64,
    /// Clean (undegraded profile-table) service time (not part of the
    /// excess).
    pub service_clean_ns: u64,
    /// `latency − frontend − clean`: the nanoseconds the causes explain.
    pub excess_ns: i128,
    /// Causes ranked by descending share (ties broken by label).
    pub causes: Vec<CauseRow>,
}

impl WindowAttribution {
    /// Sum of all cause shares — always exactly [`excess_ns`].
    ///
    /// [`excess_ns`]: WindowAttribution::excess_ns
    #[must_use]
    pub fn causes_sum(&self) -> i128 {
        self.causes.iter().map(|c| c.share_ns).sum()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct QueryState {
    group: usize,
    arrival_ns: u64,
    dispatched_ns: u64,
    last_start_ns: u64,
    clean_ns: u64,
    base_ns: u64,
    arrived: bool,
    started: bool,
}

#[derive(Debug, Clone, Copy)]
struct Completion {
    latency_ns: u64,
    lane: u32,
    query: u64,
    complete_ns: u64,
    state: QueryState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    Loan,
    Fault,
}

/// Everything attribution needs, extracted from the trace in one pass.
struct TailContext {
    /// Per shard lane: reconfig downtime split by trigger, then fault and
    /// degrade exposure windows — all unioned.
    reconfig_loan: HashMap<u32, Vec<(u64, u64)>>,
    reconfig_fault: HashMap<u32, Vec<(u64, u64)>>,
    reconfig_drift: HashMap<u32, Vec<(u64, u64)>>,
    fault_windows: HashMap<u32, Vec<(u64, u64)>>,
    degrade_windows: HashMap<u32, Vec<(u64, u64)>>,
    /// The completions the caller can pick from, with full per-query state
    /// (the order of two completions of one query is their trace order).
    completions: Vec<Completion>,
}

/// The state slot of `(lane, query)`, growing the dense tables on demand.
/// Query ids are dense per lane (each dispatch core numbers its own
/// queries from zero), so a `Vec` indexed by id replaces a hashed map.
fn state_mut(states: &mut Vec<Vec<QueryState>>, lane: u32, query: u64) -> &mut QueryState {
    let (lane, query) = (lane as usize, query as usize);
    if lane >= states.len() {
        states.resize_with(lane + 1, Vec::new);
    }
    let lane_states = &mut states[lane];
    if query >= lane_states.len() {
        lane_states.resize(query + 1, QueryState::default());
    }
    &mut lane_states[query]
}

/// Extracts the attribution context in one pass over the lane buffers,
/// without realizing the trace's global sort, keeping only completions for
/// which `keep(group, complete_ns)` holds.
///
/// The lifecycle fold needs no global order: all records of one query
/// share its lane and key, so the global `(at, key, lane, seq)` order
/// restricted to them is their push order. Only the loan/fault/reconfig
/// annotations are order-sensitive across lanes — loans and faults are
/// recorded on the gateway lane and classify the reconfig steps of the
/// shard lanes — so that small subset is collected and sorted into its
/// exact relative global order before it is folded.
fn build_context(trace: &QueryTrace, keep: impl Fn(usize, u64) -> bool) -> TailContext {
    let mut horizon = 0;
    let mut states: Vec<Vec<QueryState>> = Vec::new();
    let mut completions = Vec::new();
    let mut annotations: Vec<TraceRecord> = Vec::new();
    trace.for_each_unordered(|r| {
        let at = r.at.as_nanos();
        horizon = horizon.max(at);
        match r.event {
            TraceEvent::Arrival {
                query,
                group,
                dispatched_ns,
                ..
            } => {
                let st = state_mut(&mut states, r.lane, query);
                st.group = group;
                st.arrival_ns = at;
                st.dispatched_ns = dispatched_ns;
                st.arrived = true;
            }
            TraceEvent::ServiceStart {
                query,
                clean_ns,
                base_ns,
                ..
            } => {
                let st = state_mut(&mut states, r.lane, query);
                st.last_start_ns = at;
                st.clean_ns = clean_ns;
                st.base_ns = base_ns;
                st.started = true;
            }
            TraceEvent::Complete {
                query, latency_ns, ..
            } => {
                let state = states
                    .get(r.lane as usize)
                    .and_then(|lane| lane.get(query as usize));
                if let Some(&state) = state {
                    if state.arrived && state.started && keep(state.group, at) {
                        completions.push(Completion {
                            latency_ns,
                            lane: r.lane,
                            query,
                            complete_ns: at,
                            state,
                        });
                    }
                }
            }
            TraceEvent::Loan { .. }
            | TraceEvent::Fault { .. }
            | TraceEvent::ReconfigStep { .. } => {
                annotations.push(*r);
            }
            _ => {}
        }
    });
    annotations.sort_by_key(|r| (r.at, r.key, r.lane, r.seq));
    let mut ctx = TailContext {
        reconfig_loan: HashMap::new(),
        reconfig_fault: HashMap::new(),
        reconfig_drift: HashMap::new(),
        fault_windows: HashMap::new(),
        degrade_windows: HashMap::new(),
        completions,
    };
    fold_annotations(&mut ctx, &annotations, horizon);
    ctx
}

/// Folds loan/fault/reconfig annotations, in global trace order, into the
/// context's unioned interval sets; windows still open at the end of the
/// run extend to `horizon`.
fn fold_annotations(ctx: &mut TailContext, annotations: &[TraceRecord], horizon: u64) {
    // Latest loan/fault annotation per shard, in global trace order — the
    // classifier for reconfig downtime that follows it.
    let mut last_trigger: HashMap<usize, Trigger> = HashMap::new();
    // Open fail→repair windows keyed by (shard, gpu, shard_level) and open
    // degrade windows keyed by (shard, gpu).
    let mut open_fail: HashMap<(usize, usize, bool), u64> = HashMap::new();
    let mut open_degrade: HashMap<(usize, usize), u64> = HashMap::new();

    for r in annotations {
        let at = r.at.as_nanos();
        match r.event {
            TraceEvent::Loan { shard, .. } => {
                last_trigger.insert(shard, Trigger::Loan);
            }
            TraceEvent::Fault {
                kind, shard, gpu, ..
            } => {
                last_trigger.insert(shard, Trigger::Fault);
                match kind {
                    FaultKind::GpuFail => {
                        open_fail.entry((shard, gpu, false)).or_insert(at);
                    }
                    FaultKind::ShardFail => {
                        open_fail.entry((shard, 0, true)).or_insert(at);
                    }
                    FaultKind::GpuRepair => {
                        if let Some(s) = open_fail.remove(&(shard, gpu, false)) {
                            ctx.fault_windows
                                .entry(shard as u32)
                                .or_default()
                                .push((s, at));
                        }
                    }
                    FaultKind::ShardRepair => {
                        if let Some(s) = open_fail.remove(&(shard, 0, true)) {
                            ctx.fault_windows
                                .entry(shard as u32)
                                .or_default()
                                .push((s, at));
                        }
                    }
                    FaultKind::GpuDegrade => {
                        open_degrade.entry((shard, gpu)).or_insert(at);
                    }
                    FaultKind::GpuRestore => {
                        if let Some(s) = open_degrade.remove(&(shard, gpu)) {
                            ctx.degrade_windows
                                .entry(shard as u32)
                                .or_default()
                                .push((s, at));
                        }
                    }
                }
            }
            TraceEvent::ReconfigStep { downtime_ns, .. } => {
                let set = match last_trigger.get(&(r.lane as usize)) {
                    Some(Trigger::Loan) => &mut ctx.reconfig_loan,
                    Some(Trigger::Fault) => &mut ctx.reconfig_fault,
                    None => &mut ctx.reconfig_drift,
                };
                set.entry(r.lane).or_default().push((at, at + downtime_ns));
            }
            _ => {}
        }
    }
    // Fail/degrade windows still open at end of run extend to the horizon.
    for ((shard, _, _), s) in open_fail {
        ctx.fault_windows
            .entry(shard as u32)
            .or_default()
            .push((s, horizon.max(s)));
    }
    for ((shard, _), s) in open_degrade {
        ctx.degrade_windows
            .entry(shard as u32)
            .or_default()
            .push((s, horizon.max(s)));
    }
    for set in [
        &mut ctx.reconfig_loan,
        &mut ctx.reconfig_fault,
        &mut ctx.reconfig_drift,
        &mut ctx.fault_windows,
        &mut ctx.degrade_windows,
    ] {
        for intervals in set.values_mut() {
            union_intervals(intervals);
        }
    }
}

/// Nearest-rank p99 index for `n` sorted samples: `ceil(0.99 n) − 1`.
fn p99_index(n: usize) -> usize {
    (99 * n).div_ceil(100) - 1
}

fn attribute_completion(ctx: &TailContext, c: &Completion, bin: usize) -> WindowAttribution {
    let st = &c.state;
    let lane = c.lane;
    let empty: Vec<(u64, u64)> = Vec::new();
    let get = |set: &HashMap<u32, Vec<(u64, u64)>>| -> Vec<(u64, u64)> {
        set.get(&lane).unwrap_or(&empty).clone()
    };
    let (d, s) = (st.dispatched_ns, st.last_start_ns);
    let wait = s - d;

    // Telescoping unions: each cause = overlap(union so far) − previous
    // running total, so the six wait-side causes sum to `wait` exactly.
    let mut acc = get(&ctx.reconfig_loan);
    let o_loan = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.reconfig_fault));
    union_intervals(&mut acc);
    let o_lf = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.reconfig_drift));
    union_intervals(&mut acc);
    let o_reconfig = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.fault_windows));
    union_intervals(&mut acc);
    let o_fault = overlap_ns(&acc, d, s);
    acc.extend(get(&ctx.degrade_windows));
    union_intervals(&mut acc);
    let o_all = overlap_ns(&acc, d, s);

    let service = c.complete_ns - st.last_start_ns;
    let inflation = st.base_ns - st.clean_ns;
    let noise = i128::from(service) - i128::from(st.base_ns);

    let mut causes = vec![
        CauseRow {
            cause: "reconfig:loan_handover",
            share_ns: i128::from(o_loan),
        },
        CauseRow {
            cause: "reconfig:fault_recovery",
            share_ns: i128::from(o_lf - o_loan),
        },
        CauseRow {
            cause: "reconfig:drift",
            share_ns: i128::from(o_reconfig - o_lf),
        },
        CauseRow {
            cause: "fault_outage_wait",
            share_ns: i128::from(o_fault - o_reconfig),
        },
        CauseRow {
            cause: "degrade_wait",
            share_ns: i128::from(o_all - o_fault),
        },
        CauseRow {
            cause: "queue_growth",
            share_ns: i128::from(wait - o_all),
        },
        CauseRow {
            cause: "degrade_inflation",
            share_ns: i128::from(inflation),
        },
        CauseRow {
            cause: "service_noise",
            share_ns: noise,
        },
    ];
    causes.sort_by(|a, b| b.share_ns.cmp(&a.share_ns).then(a.cause.cmp(b.cause)));

    let frontend = st.dispatched_ns - st.arrival_ns;
    WindowAttribution {
        group: st.group,
        bin,
        completions: 0, // caller fills in
        p99_lane: lane,
        p99_query: c.query,
        p99_latency_ns: c.latency_ns,
        frontend_ns: frontend,
        service_clean_ns: st.clean_ns,
        excess_ns: i128::from(c.latency_ns) - i128::from(frontend) - i128::from(st.clean_ns),
        causes,
    }
}

/// The grid bin a completion at `complete_ns` lands in.
fn bin_of(complete_ns: u64, window_ns: u64) -> usize {
    (complete_ns / window_ns) as usize
}

/// Completions of `group` whose terminal event landed in `bin`, sorted by
/// `(latency, lane, query)` so the p99 pick is deterministic.
fn window_completions(
    ctx: &TailContext,
    window_ns: u64,
    bin: usize,
    group: usize,
) -> Vec<Completion> {
    let mut rows: Vec<Completion> = ctx
        .completions
        .iter()
        .filter(|c| c.state.group == group && bin_of(c.complete_ns, window_ns) == bin)
        .copied()
        .collect();
    rows.sort_by_key(|c| (c.latency_ns, c.lane, c.query));
    rows
}

/// Attributes the p99 completion of `group` in grid window `bin`. Returns
/// `None` when the window saw no completions of that class.
#[must_use]
pub fn attribute_window(
    trace: &QueryTrace,
    window_ns: u64,
    bin: usize,
    group: usize,
) -> Option<WindowAttribution> {
    assert!(window_ns > 0, "window must be positive");
    let ctx = build_context(trace, |g, at| g == group && bin_of(at, window_ns) == bin);
    attribute_window_in(&ctx, window_ns, bin, group)
}

fn attribute_window_in(
    ctx: &TailContext,
    window_ns: u64,
    bin: usize,
    group: usize,
) -> Option<WindowAttribution> {
    let rows = window_completions(ctx, window_ns, bin, group);
    if rows.is_empty() {
        return None;
    }
    let pick = &rows[p99_index(rows.len())];
    let mut out = attribute_completion(ctx, pick, bin);
    out.completions = rows.len();
    Some(out)
}

/// The grid bin where `group`'s windowed p99 latency peaks (earliest bin on
/// ties), or `None` if the class never completed a query.
#[must_use]
pub fn worst_window(trace: &QueryTrace, window_ns: u64, group: usize) -> Option<usize> {
    assert!(window_ns > 0, "window must be positive");
    let ctx = build_context(trace, |g, _| g == group);
    // One sort buckets the class's completions by bin, each bucket ordered
    // as `window_completions` orders it.
    let mut rows: Vec<(usize, u64, u32, u64)> = ctx
        .completions
        .iter()
        .map(|c| {
            (
                bin_of(c.complete_ns, window_ns),
                c.latency_ns,
                c.lane,
                c.query,
            )
        })
        .collect();
    rows.sort_unstable();
    let mut best: Option<(u64, usize)> = None;
    for rows in rows.chunk_by(|a, b| a.0 == b.0) {
        let p99 = rows[p99_index(rows.len())].1;
        if best.is_none_or(|(b, _)| p99 > b) {
            best = Some((p99, rows[0].0));
        }
    }
    best.map(|(_, bin)| bin)
}

/// Attributes each fired alert's worst violation window (the
/// [`Alert::worst_bin`] its burn computation identified), skipping alerts
/// whose worst window saw no completions of the class.
#[must_use]
pub fn attribute_alerts(
    trace: &QueryTrace,
    window_ns: u64,
    alerts: &[Alert],
) -> Vec<WindowAttribution> {
    assert!(window_ns > 0, "window must be positive");
    let mut windows: Vec<(usize, usize)> = alerts.iter().map(|a| (a.group, a.worst_bin)).collect();
    windows.sort_unstable();
    windows.dedup();
    let ctx = build_context(trace, |g, at| {
        windows.binary_search(&(g, bin_of(at, window_ns))).is_ok()
    });
    alerts
        .iter()
        .filter_map(|a| attribute_window_in(&ctx, window_ns, a.worst_bin, a.group))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, TraceSink, ANNOTATION_KEY};
    use des_engine::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Records one full lifecycle: arrive at `at` (dispatched same
    /// instant), start at `start`, complete at `start + actual`.
    #[allow(clippy::too_many_arguments)]
    fn query(
        r: &mut FlightRecorder,
        q: u64,
        group: usize,
        at: u64,
        start: u64,
        clean: u64,
        base: u64,
        actual: u64,
    ) {
        r.record(
            t(at),
            q,
            TraceEvent::Arrival {
                query: q,
                group,
                batch: 1,
                dispatched_ns: at,
                sla_ns: 0,
            },
        );
        r.record(
            t(start),
            q,
            TraceEvent::ServiceStart {
                query: q,
                worker: 0,
                gpcs: 7,
                clean_ns: clean,
                base_ns: base,
                actual_ns: actual,
            },
        );
        r.record(
            t(start + actual),
            q,
            TraceEvent::Complete {
                query: q,
                worker: 0,
                latency_ns: start + actual - at,
            },
        );
    }

    /// Sort-based reference for [`build_context`]: one fold over the
    /// realized global order with hashed per-query state, keeping every
    /// completion.
    fn build_context_reference(trace: &QueryTrace) -> TailContext {
        let mut states: HashMap<(u32, u64), QueryState> = HashMap::new();
        let mut completions = Vec::new();
        for r in trace.records() {
            let at = r.at.as_nanos();
            match r.event {
                TraceEvent::Arrival {
                    query,
                    group,
                    dispatched_ns,
                    ..
                } => {
                    let st = states.entry((r.lane, query)).or_default();
                    st.group = group;
                    st.arrival_ns = at;
                    st.dispatched_ns = dispatched_ns;
                    st.arrived = true;
                }
                TraceEvent::ServiceStart {
                    query,
                    clean_ns,
                    base_ns,
                    ..
                } => {
                    let st = states.entry((r.lane, query)).or_default();
                    st.last_start_ns = at;
                    st.clean_ns = clean_ns;
                    st.base_ns = base_ns;
                    st.started = true;
                }
                TraceEvent::Complete {
                    query, latency_ns, ..
                } => {
                    if let Some(&state) = states.get(&(r.lane, query)) {
                        if state.arrived && state.started {
                            completions.push(Completion {
                                latency_ns,
                                lane: r.lane,
                                query,
                                complete_ns: at,
                                state,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        let mut ctx = TailContext {
            reconfig_loan: HashMap::new(),
            reconfig_fault: HashMap::new(),
            reconfig_drift: HashMap::new(),
            fault_windows: HashMap::new(),
            degrade_windows: HashMap::new(),
            completions,
        };
        fold_annotations(&mut ctx, trace.records(), trace.horizon().as_nanos());
        ctx
    }

    /// Per-bin rescan reference for [`worst_window`].
    fn worst_window_reference(ctx: &TailContext, window_ns: u64, group: usize) -> Option<usize> {
        let bins = ctx
            .completions
            .iter()
            .filter(|c| c.state.group == group)
            .map(|c| bin_of(c.complete_ns, window_ns))
            .max()?
            + 1;
        let mut best: Option<(u64, usize)> = None;
        for bin in 0..bins {
            let rows = window_completions(ctx, window_ns, bin, group);
            if rows.is_empty() {
                continue;
            }
            let p99 = rows[p99_index(rows.len())].latency_ns;
            match best {
                Some((b, _)) if p99 <= b => {}
                _ => best = Some((p99, bin)),
            }
        }
        best.map(|(_, bin)| bin)
    }

    /// SplitMix64: a tiny deterministic generator for the random traces.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random multi-lane trace on a coarse 10 ns grid, so same-instant
    /// ties across lanes are common. Each shard lane runs query lifecycles
    /// (including `ServiceAbort` → `Requeue` → a second `ServiceStart`, and
    /// queries left waiting or running at the end) and reconfig steps; the
    /// gateway lane records loans and faults of every kind, keyed either by
    /// an event key or by [`ANNOTATION_KEY`], with windows left open at the
    /// end of the run.
    fn random_lanes(seed: u64) -> Vec<FlightRecorder> {
        let mut rng = Rng(seed);
        let shards = 1 + rng.below(3);
        let mut lanes = Vec::new();
        for lane in 0..shards {
            let mut r = FlightRecorder::new(lane as u32);
            let (mut now, mut arrivals) = (0u64, Vec::new());
            let (mut waiting, mut running): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
            for _ in 0..150 + rng.below(150) {
                now += 10 * rng.below(3);
                match rng.below(10) {
                    0..=2 => {
                        let q = arrivals.len() as u64;
                        let dispatched_ns = now + 10 * rng.below(3);
                        arrivals.push((now, dispatched_ns));
                        let group = rng.below(3) as usize;
                        let event = TraceEvent::Arrival {
                            query: q,
                            group,
                            batch: 1,
                            dispatched_ns,
                            sla_ns: 0,
                        };
                        r.record(t(now), q, event);
                        waiting.push(q);
                    }
                    3 | 4 => {
                        let ready = waiting.iter().position(|&q| arrivals[q as usize].1 <= now);
                        if let Some(i) = ready {
                            let q = waiting.remove(i);
                            let clean_ns = 10 * (1 + rng.below(5));
                            let event = TraceEvent::ServiceStart {
                                query: q,
                                worker: 0,
                                gpcs: 7,
                                clean_ns,
                                base_ns: clean_ns + 10 * rng.below(3),
                                actual_ns: 0,
                            };
                            r.record(t(now), q, event);
                            running.push(q);
                        }
                    }
                    5 | 6 if !running.is_empty() => {
                        let q = running.swap_remove(rng.below(running.len() as u64) as usize);
                        let latency_ns = now - arrivals[q as usize].0;
                        let event = TraceEvent::Complete {
                            query: q,
                            worker: 0,
                            latency_ns,
                        };
                        r.record(t(now), q, event);
                    }
                    7 if !running.is_empty() => {
                        let q = running.swap_remove(rng.below(running.len() as u64) as usize);
                        r.record(
                            t(now),
                            q,
                            TraceEvent::ServiceAbort {
                                query: q,
                                worker: 0,
                            },
                        );
                        r.record(t(now), q, TraceEvent::Requeue { query: q });
                        waiting.push(q);
                    }
                    8 => {
                        let downtime_ns = 10 * (1 + rng.below(8));
                        let event = TraceEvent::ReconfigStep {
                            step: 0,
                            downtime_ns,
                        };
                        r.record(t(now), ANNOTATION_KEY, event);
                    }
                    _ => {}
                }
            }
            lanes.push(r);
        }
        let mut gateway = FlightRecorder::new(shards as u32);
        let mut now = 0;
        for _ in 0..30 + rng.below(30) {
            now += 10 * rng.below(12);
            let key = if rng.below(2) == 0 {
                ANNOTATION_KEY
            } else {
                rng.below(300)
            };
            let shard = rng.below(shards) as usize;
            let kinds = [
                FaultKind::GpuFail,
                FaultKind::GpuRepair,
                FaultKind::GpuDegrade,
                FaultKind::GpuRestore,
                FaultKind::ShardFail,
                FaultKind::ShardRepair,
            ];
            let event = match rng.below(8) as usize {
                k @ 0..=5 => TraceEvent::Fault {
                    kind: kinds[k],
                    shard,
                    gpu: rng.below(2) as usize,
                    factor_milli: 0,
                },
                _ => TraceEvent::Loan {
                    shard,
                    gpus_delta: 1,
                    pool_free_after: 0,
                },
            };
            gateway.record(t(now), key, event);
        }
        lanes.push(gateway);
        lanes
    }

    #[test]
    fn one_pass_context_matches_the_sort_based_reference() {
        let mut tied = 0;
        for seed in 0..24 {
            let lanes = random_lanes(seed);
            let reference = build_context_reference(&QueryTrace::merge(lanes.clone()));
            // Same-instant gateway annotations tied with a shard's reconfig
            // step: the one place the cross-lane order decides the result.
            let merged = QueryTrace::merge(lanes.clone());
            let records = merged.records();
            tied += records
                .iter()
                .filter(|g| matches!(g.event, TraceEvent::Loan { .. } | TraceEvent::Fault { .. }))
                .filter(|g| {
                    records
                        .iter()
                        .any(|s| s.at == g.at && matches!(s.event, TraceEvent::ReconfigStep { .. }))
                })
                .count();
            let mut rng = Rng(seed ^ 0x5eed);
            for realized in [false, true] {
                let trace = QueryTrace::merge(lanes.clone());
                if realized {
                    let _ = trace.records();
                }
                for window_ns in [70, 400] {
                    let bins = (trace.horizon().as_nanos() / window_ns) as usize + 2;
                    for group in 0..4 {
                        assert_eq!(
                            worst_window(&trace, window_ns, group),
                            worst_window_reference(&reference, window_ns, group),
                            "seed {seed} window {window_ns} group {group}"
                        );
                        for bin in 0..bins {
                            assert_eq!(
                                attribute_window(&trace, window_ns, bin, group),
                                attribute_window_in(&reference, window_ns, bin, group),
                                "seed {seed} window {window_ns} bin {bin} group {group}"
                            );
                        }
                    }
                    let alerts: Vec<Alert> = (0..rng.below(8))
                        .map(|_| Alert {
                            slo: 0,
                            group: rng.below(4) as usize,
                            fired_bin: 0,
                            resolved_bin: None,
                            worst_bin: rng.below(bins as u64) as usize,
                            burn_short: 1.0,
                            burn_long: 1.0,
                        })
                        .collect();
                    let want: Vec<WindowAttribution> = alerts
                        .iter()
                        .filter_map(|a| {
                            attribute_window_in(&reference, window_ns, a.worst_bin, a.group)
                        })
                        .collect();
                    assert_eq!(attribute_alerts(&trace, window_ns, &alerts), want);
                }
                assert_eq!(trace.is_sorted(), realized, "attribution realized the sort");
            }
        }
        assert!(
            tied > 0,
            "no same-instant loan/fault vs reconfig tie generated"
        );
    }

    #[test]
    fn loan_triggered_reconfig_wait_is_attributed_with_zero_residual() {
        let mut r = FlightRecorder::new(0);
        // Loan arrives, then the reconfig it triggered takes the lane down
        // for 400 ns; the query waits out the downtime plus 100 ns of
        // ordinary queueing, then runs degraded (base 300 over clean 200)
        // with +50 noise.
        r.record(
            t(50),
            ANNOTATION_KEY,
            TraceEvent::Loan {
                shard: 0,
                gpus_delta: 2,
                pool_free_after: 1,
            },
        );
        r.record(
            t(100),
            ANNOTATION_KEY,
            TraceEvent::ReconfigStep {
                step: 0,
                downtime_ns: 400,
            },
        );
        query(&mut r, 0, 1, 100, 600, 200, 300, 350);
        let trace = crate::recorder::QueryTrace::merge([r]);
        let a = attribute_window(&trace, 1_000, 0, 1).expect("one completion");
        assert_eq!(a.completions, 1);
        assert_eq!((a.p99_lane, a.p99_query), (0, 0));
        assert_eq!(a.p99_latency_ns, 850);
        // excess = 850 − 0 frontend − 200 clean = 650.
        assert_eq!(a.excess_ns, 650);
        assert_eq!(a.causes_sum(), a.excess_ns, "zero residual");
        let share = |name: &str| {
            a.causes
                .iter()
                .find(|c| c.cause == name)
                .expect(name)
                .share_ns
        };
        assert_eq!(share("reconfig:loan_handover"), 400);
        assert_eq!(share("queue_growth"), 100);
        assert_eq!(share("degrade_inflation"), 100);
        assert_eq!(share("service_noise"), 50);
        assert_eq!(share("reconfig:fault_recovery"), 0);
        // Ranked descending.
        assert_eq!(a.causes[0].cause, "reconfig:loan_handover");
    }

    #[test]
    fn fault_windows_and_fault_triggered_reconfigs_split_apart() {
        let mut r = FlightRecorder::new(0);
        // Shard fails at 100, repaired at 300; the repair triggers a
        // reconfig with 200 ns downtime at 300. Query dispatched at 100
        // waits until 600: 100..300 is outage, 300..500 fault-triggered
        // reconfig, 500..600 plain queueing.
        r.record(
            t(100),
            ANNOTATION_KEY,
            TraceEvent::Fault {
                kind: FaultKind::ShardFail,
                shard: 0,
                gpu: 0,
                factor_milli: 0,
            },
        );
        r.record(
            t(300),
            ANNOTATION_KEY,
            TraceEvent::Fault {
                kind: FaultKind::ShardRepair,
                shard: 0,
                gpu: 0,
                factor_milli: 0,
            },
        );
        r.record(
            t(300),
            ANNOTATION_KEY,
            TraceEvent::ReconfigStep {
                step: 0,
                downtime_ns: 200,
            },
        );
        query(&mut r, 0, 0, 100, 600, 150, 150, 150);
        let trace = crate::recorder::QueryTrace::merge([r]);
        let a = attribute_window(&trace, 1_000, 0, 0).expect("completion");
        let share = |name: &str| a.causes.iter().find(|c| c.cause == name).unwrap().share_ns;
        assert_eq!(share("reconfig:fault_recovery"), 200);
        assert_eq!(share("fault_outage_wait"), 200);
        assert_eq!(share("queue_growth"), 100);
        assert_eq!(share("reconfig:loan_handover"), 0);
        assert_eq!(a.causes_sum(), a.excess_ns);
    }

    #[test]
    fn p99_pick_is_nearest_rank_and_deterministic() {
        let mut r = FlightRecorder::new(0);
        // Three completions in bin 0 with latencies 100 < 200 < 300:
        // nearest-rank p99 of n=3 is the max.
        for (q, start) in [(0u64, 100u64), (1, 200), (2, 300)] {
            query(&mut r, q, 0, 0, start, 50, 50, 50);
        }
        let trace = crate::recorder::QueryTrace::merge([r]);
        let a = attribute_window(&trace, 1_000, 0, 0).expect("completions");
        assert_eq!(a.completions, 3);
        assert_eq!(a.p99_query, 2, "nearest-rank p99 of 3 samples is the max");
        assert_eq!(a.p99_latency_ns, 350);
        assert_eq!(p99_index(100), 98);
        assert_eq!(p99_index(1), 0);
    }

    #[test]
    fn worst_window_finds_the_tail_spike() {
        let mut r = FlightRecorder::new(0);
        query(&mut r, 0, 0, 0, 100, 50, 50, 50); // bin 0, latency 150
        query(&mut r, 1, 0, 1_000, 1_900, 50, 50, 50); // bin 1, latency 950
        query(&mut r, 2, 0, 2_100, 2_200, 50, 50, 50); // bin 2, latency 150
        let trace = crate::recorder::QueryTrace::merge([r]);
        assert_eq!(worst_window(&trace, 1_000, 0), Some(1));
        assert_eq!(worst_window(&trace, 1_000, 9), None, "unknown class");
    }

    #[test]
    fn attribute_alerts_digs_into_each_worst_bin() {
        let mut r = FlightRecorder::new(0);
        query(&mut r, 0, 0, 0, 100, 50, 50, 50);
        query(&mut r, 1, 0, 1_000, 1_500, 50, 50, 50);
        let trace = crate::recorder::QueryTrace::merge([r]);
        let alerts = vec![Alert {
            slo: 0,
            group: 0,
            fired_bin: 1,
            resolved_bin: None,
            worst_bin: 1,
            burn_short: 2.0,
            burn_long: 1.5,
        }];
        let rows = attribute_alerts(&trace, 1_000, &alerts);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bin, 1);
        assert_eq!(rows[0].p99_query, 1);
        assert_eq!(rows[0].causes_sum(), rows[0].excess_ns);
    }
}
