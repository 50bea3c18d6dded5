//! The online telemetry plane: streaming per-lane metric accumulation.
//!
//! [`OnlineLane`] is a [`TraceSink`] that folds every observation into
//! windowed aggregates *as it is recorded*, instead of buffering the record
//! for post-hoc analysis the way [`FlightRecorder`] does. Memory is O(1)
//! per (series, window) — growable per-bin vectors, a bounded
//! in-flight-query map, and fixed-footprint latency histograms — so a lane
//! can stream telemetry for an arbitrarily long run without retaining the
//! trace.
//!
//! **Invariant 13 (ARCHITECTURE.md): the online registry IS the oracle
//! registry.** [`MetricRegistry::from_trace`] feeds the merged trace
//! through these same per-lane accumulators, so by construction the
//! registry an instrumented run streams live is byte-for-byte the registry
//! a retained trace reproduces after the fact — at any thread count,
//! because each lane only ever folds its own records (in its own push
//! order) and [`merge_online`] combines the per-lane partials with
//! order-independent arithmetic:
//!
//! - counter/gauge bins sum exactly-representable integers in `f64`
//!   (magnitudes ≪ 2⁵³), so addition order cannot change a single bit;
//! - SLA violations are integer `(count, over)` tallies per (model, bin),
//!   summed exactly across lanes. Each completion is judged on its own lane
//!   against the SLA its own `Arrival` carried (arrivals with `sla_ns == 0`
//!   are not tallied), with the bucket rule of
//!   [`LatencyHistogram::violations`](server_metrics::LatencyHistogram::violations)
//!   via [`violation_threshold_ns`] — the same per-query judgement the
//!   per-shard run reports make, so no cross-lane resolution is needed.
//!
//! Within one lane, the engine's push order and the merged trace's
//! `(time, key, lane, seq)` order differ only in the ordering of
//! same-instant records, and every per-lane fold above is invariant under
//! same-instant reordering (bin sums and tallies are commutative; a gauge
//! bin keeps only the net level).
//!
//! [`MetricRegistry::from_trace`]: crate::registry::MetricRegistry::from_trace

use crate::event::TraceEvent;
use crate::recorder::{FlightRecorder, TraceSink};
use crate::registry::{MetricRegistry, MetricSeries};
use des_engine::SimTime;
use server_metrics::violation_threshold_ns;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What a run should observe: a retained trace, a live metric plane, both,
/// or (the default) nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsRequest {
    /// Attach per-lane [`FlightRecorder`]s and merge a
    /// [`QueryTrace`](crate::QueryTrace) at the end of the run.
    pub trace: bool,
    /// Grid width of the online metric plane in nanoseconds; `0` disables
    /// it.
    pub online_window_ns: u64,
}

impl ObsRequest {
    /// Observe nothing (the zero-cost disabled path).
    pub const OFF: ObsRequest = ObsRequest {
        trace: false,
        online_window_ns: 0,
    };

    /// Retain the full trace only (the pre-existing traced mode).
    #[must_use]
    pub fn traced() -> Self {
        ObsRequest {
            trace: true,
            online_window_ns: 0,
        }
    }

    /// Stream online metrics on a `window_ns` grid, no trace retention.
    #[must_use]
    pub fn online(window_ns: u64) -> Self {
        ObsRequest {
            trace: false,
            online_window_ns: window_ns,
        }
    }

    /// Both: retain the trace *and* stream online metrics from one run —
    /// the configuration the invariant-13 identity checks drive.
    #[must_use]
    pub fn instrumented(window_ns: u64) -> Self {
        ObsRequest {
            trace: true,
            online_window_ns: window_ns,
        }
    }

    /// Whether this request observes anything at all.
    #[must_use]
    pub fn is_off(&self) -> bool {
        !self.trace && self.online_window_ns == 0
    }
}

/// A composite [`TraceSink`]: an optional retained-trace recorder plus an
/// optional online accumulator, fed from the same hook sites. Engines hold
/// `Option<ObsSink>`, so the fully disabled path is still one discriminant
/// test (invariant 12's zero-cost requirement).
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    /// Retained-trace half, when the run keeps the full trace.
    pub trace: Option<FlightRecorder>,
    /// Streaming half, when the run wants live metrics.
    pub online: Option<OnlineLane>,
}

impl ObsSink {
    /// Builds the sink a lane needs for `request` (`None` parts for the
    /// disabled halves). `capacity_gpcs` is the lane's total GPC budget —
    /// a hint that lets the online half skip peak-concurrency tracking.
    #[must_use]
    pub fn for_request(request: ObsRequest, lane: u32, capacity_gpcs: u32) -> ObsSink {
        ObsSink {
            trace: request.trace.then(|| FlightRecorder::new(lane)),
            online: (request.online_window_ns > 0).then(|| {
                OnlineLane::with_capacity_hint(lane, request.online_window_ns, capacity_gpcs)
            }),
        }
    }

    /// Whether both halves are disabled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_none() && self.online.is_none()
    }
}

impl TraceSink for ObsSink {
    #[inline]
    fn record(&mut self, at: SimTime, key: u64, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(at, key, event);
        }
        if let Some(online) = &mut self.online {
            online.record(at, key, event);
        }
    }
}

/// One lane's streaming metric accumulator.
///
/// Feed it records through [`TraceSink::record`] in non-decreasing stamp
/// order (what every engine lane and every merged trace guarantees), then
/// hand all lanes to [`merge_online`]. State per lane: one `f64` per
/// touched (series, bin), one `(count, over)` pair of `u32`s per touched
/// (model, bin), and a dense in-flight-query → (model, threshold) map that
/// shrinks as queries complete.
#[derive(Debug, Clone)]
pub struct OnlineLane {
    lane: u32,
    window_ns: u64,
    /// Latest stamp seen (any event kind — it defines the shared grid).
    horizon_ns: u64,
    /// Cached current bin: stamps are non-decreasing, so the division in
    /// `bin()` only runs on bin transitions.
    cur_bin: usize,
    cur_bin_end: u64,
    /// Running outstanding-query level and its per-bin close samples
    /// (`NaN` = no lifecycle event in that bin; the merge carries the last
    /// sample forward).
    out_level: i64,
    out: Vec<f64>,
    out_touched: bool,
    /// Per-bin busy GPC·ns.
    busy: Vec<f64>,
    busy_touched: bool,
    /// Min-heap of `(end_ns, gpcs)` for in-flight service spans — the
    /// streaming equivalent of the oracle's peak-concurrency edge sweep.
    /// Unused (empty) when `capacity_hint` is known.
    active: BinaryHeap<Reverse<(u64, u32)>>,
    gpc_level: i64,
    gpc_peak: i64,
    capacity_hint: u32,
    /// Per-bin admitted / shed counts and loan deltas (gateway lane).
    routed: Vec<f64>,
    shed: Vec<f64>,
    loaned: Vec<f64>,
    /// model → per-bin `(completions, violations)` tallies, indexed by
    /// group id — model ids are small and dense, so a direct vector keeps
    /// the per-completion hot path to one bounds check. A lane completes
    /// far fewer than 2³² queries in one bin.
    tallies: Vec<Vec<(u32, u32)>>,
    /// In-flight query → (model, [`violation_threshold_ns`] of the SLA its
    /// arrival carried), indexed by `query - groups_base` ([`VACANT`] =
    /// consumed, unknown or without an SLA). Completions punch holes and
    /// the base advances past the consumed prefix, so the deque tracks the
    /// outstanding window, not the whole run.
    groups: VecDeque<(usize, u64)>,
    groups_base: u64,
}

impl OnlineLane {
    /// Creates an accumulator for `lane` on a `window_ns` grid.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    #[must_use]
    pub fn new(lane: u32, window_ns: u64) -> Self {
        Self::with_capacity_hint(lane, window_ns, 0)
    }

    /// [`new`](Self::new), with the lane's total GPC capacity known up
    /// front: the busy-fraction denominator the registry merge would
    /// otherwise have to derive by tracking peak concurrency. A nonzero
    /// hint lets the hot path skip the concurrency heap entirely; `0`
    /// means "unknown, track it".
    #[must_use]
    pub fn with_capacity_hint(lane: u32, window_ns: u64, capacity_gpcs: u32) -> Self {
        assert!(window_ns > 0, "window must be positive");
        OnlineLane {
            lane,
            window_ns,
            horizon_ns: 0,
            cur_bin: 0,
            cur_bin_end: window_ns,
            out_level: 0,
            out: Vec::new(),
            out_touched: false,
            busy: Vec::new(),
            busy_touched: false,
            active: BinaryHeap::new(),
            gpc_level: 0,
            gpc_peak: 0,
            capacity_hint: capacity_gpcs,
            routed: Vec::new(),
            shed: Vec::new(),
            loaned: Vec::new(),
            tallies: Vec::new(),
            groups: VecDeque::new(),
            groups_base: 0,
        }
    }

    /// The lane id this accumulator stamps its series with.
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// The grid width the accumulator bins on.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    #[inline]
    fn bin(&mut self, at_ns: u64) -> usize {
        debug_assert!(
            at_ns >= self.cur_bin as u64 * self.window_ns,
            "stamps must be non-decreasing per lane"
        );
        if at_ns < self.cur_bin_end {
            self.cur_bin
        } else {
            let b = (at_ns / self.window_ns) as usize;
            self.cur_bin = b;
            self.cur_bin_end = (b as u64 + 1).saturating_mul(self.window_ns);
            b
        }
    }

    #[inline]
    fn sample_out(&mut self, bin: usize) {
        if bin >= self.out.len() {
            self.out.resize(bin + 1, f64::NAN);
        }
        self.out[bin] = self.out_level as f64;
        self.out_touched = true;
    }

    fn set_group(&mut self, query: u64, group: usize, threshold_ns: u64) {
        if query < self.groups_base {
            return; // malformed re-arrival of a consumed id
        }
        let idx = (query - self.groups_base) as usize;
        if idx >= self.groups.len() {
            self.groups.resize(idx + 1, VACANT);
        }
        self.groups[idx] = (group, threshold_ns);
    }

    fn take_group(&mut self, query: u64) -> Option<(usize, u64)> {
        if query < self.groups_base {
            return None;
        }
        let idx = (query - self.groups_base) as usize;
        let entry = *self.groups.get(idx)?;
        if entry == VACANT {
            return None;
        }
        self.groups[idx] = VACANT;
        while self.groups.front() == Some(&VACANT) {
            self.groups.pop_front();
            self.groups_base += 1;
        }
        Some(entry)
    }

    fn service(&mut self, at_ns: u64, gpcs: u32, actual_ns: u64) {
        self.busy_touched = true;
        let end = at_ns + actual_ns;
        if self.capacity_hint == 0 && actual_ns > 0 {
            // Streaming peak concurrency ≡ the oracle's edge sweep: ends at
            // or before `at_ns` retire first (the sweep sorts negative
            // deltas before positive at equal stamps), then this span
            // raises the level.
            while let Some(&Reverse((e, g))) = self.active.peek() {
                if e > at_ns {
                    break;
                }
                self.active.pop();
                self.gpc_level -= i64::from(g);
            }
            self.gpc_level += i64::from(gpcs);
            self.gpc_peak = self.gpc_peak.max(self.gpc_level);
            self.active.push(Reverse((end, gpcs)));
        }
        // Spread the execution's GPC·ns across the bins it covers. No grid
        // clamp here: bins beyond the final horizon are truncated at merge,
        // which reproduces the oracle's clamp bytes exactly (a clamped
        // overflow segment contributed `+0.0` to the last bin — a no-op).
        // Fast path: the whole span lands in the (cached) current bin.
        let first = self.bin(at_ns);
        if end <= self.cur_bin_end {
            if first >= self.busy.len() {
                self.busy.resize(first + 1, 0.0);
            }
            self.busy[first] += actual_ns as f64 * f64::from(gpcs);
            return;
        }
        let mut s = at_ns;
        while s < end {
            let b = (s / self.window_ns) as usize;
            let bin_end = (b as u64 + 1).saturating_mul(self.window_ns);
            let seg = end.min(bin_end) - s;
            if b >= self.busy.len() {
                self.busy.resize(b + 1, 0.0);
            }
            self.busy[b] += seg as f64 * f64::from(gpcs);
            s = bin_end;
        }
    }
}

/// An empty slot of [`OnlineLane`]'s in-flight map.
const VACANT: (usize, u64) = (usize::MAX, 0);

#[inline]
fn bump(values: &mut Vec<f64>, bin: usize, delta: f64) {
    if bin >= values.len() {
        values.resize(bin + 1, 0.0);
    }
    values[bin] += delta;
}

impl TraceSink for OnlineLane {
    /// Folds one record into the lane's aggregates. Kept out-of-line so the
    /// composite [`ObsSink`] dispatch stays small: trace-only and disabled
    /// sinks never pay this body in their instruction stream.
    #[inline(never)]
    fn record(&mut self, at: SimTime, _key: u64, event: TraceEvent) {
        let at_ns = at.as_nanos();
        // Stamps are non-decreasing per lane (debug-asserted in `bin`), so
        // the latest stamp IS the horizon — no compare needed.
        self.horizon_ns = at_ns;
        match event {
            TraceEvent::Arrival {
                query,
                group,
                sla_ns,
                ..
            } => {
                let bin = self.bin(at_ns);
                self.out_level += 1;
                self.sample_out(bin);
                if sla_ns > 0 {
                    self.set_group(query, group, violation_threshold_ns(sla_ns));
                }
            }
            TraceEvent::Complete {
                query, latency_ns, ..
            } => {
                let bin = self.bin(at_ns);
                self.out_level -= 1;
                self.sample_out(bin);
                if let Some((group, threshold_ns)) = self.take_group(query) {
                    if group >= self.tallies.len() {
                        self.tallies.resize_with(group + 1, Vec::new);
                    }
                    let bins = &mut self.tallies[group];
                    if bin >= bins.len() {
                        bins.resize(bin + 1, (0, 0));
                    }
                    bins[bin].0 += 1;
                    bins[bin].1 += u32::from(latency_ns > threshold_ns);
                }
            }
            TraceEvent::ServiceStart {
                gpcs, actual_ns, ..
            } => self.service(at_ns, gpcs, actual_ns),
            TraceEvent::RouteDecision { .. } => {
                let bin = self.bin(at_ns);
                bump(&mut self.routed, bin, 1.0);
            }
            TraceEvent::Shed { .. } => {
                let bin = self.bin(at_ns);
                bump(&mut self.shed, bin, 1.0);
            }
            TraceEvent::Loan { gpus_delta, .. } => {
                let bin = self.bin(at_ns);
                bump(&mut self.loaned, bin, gpus_delta as f64);
            }
            _ => {}
        }
    }
}

/// Merges per-lane online accumulators into one [`MetricRegistry`] —
/// the deterministic coordinator step of the online plane, and the shared
/// back half of [`MetricRegistry::from_trace`].
///
/// `lane_gpcs[s]` is lane `s`'s busy-fraction denominator; zero/missing
/// entries fall back to the lane's capacity hint, then to its tracked peak
/// concurrency (min 1), matching the post-hoc oracle.
///
/// The result is independent of the order lanes are handed in: per-lane
/// series only depend on their own lane, and cross-lane sums combine
/// exactly-representable integers.
///
/// [`MetricRegistry::from_trace`]: crate::registry::MetricRegistry::from_trace
#[must_use]
pub fn merge_online(
    window_ns: u64,
    lanes: impl IntoIterator<Item = OnlineLane>,
    lane_gpcs: &[u32],
) -> MetricRegistry {
    assert!(window_ns > 0, "window must be positive");
    let mut lanes: Vec<OnlineLane> = lanes.into_iter().collect();
    lanes.sort_by_key(OnlineLane::lane);
    let horizon = lanes.iter().map(|l| l.horizon_ns).max().unwrap_or(0);
    let windows = (horizon / window_ns + 1) as usize;

    let mut series: Vec<MetricSeries> = Vec::new();
    let mut routed = vec![0.0f64; windows];
    let mut shed = vec![0.0f64; windows];
    let mut loan_deltas = vec![0.0f64; windows];
    // model → per-bin (completions, violations), empty for unseen models.
    let mut tallies: Vec<Vec<(u64, u64)>> = Vec::new();

    for lane in &mut lanes {
        assert!(
            lane.window_ns == window_ns,
            "lane {} bins on a {} ns grid but the merge grid is {} ns",
            lane.lane,
            lane.window_ns,
            window_ns
        );
        if lane.out_touched {
            let mut values = std::mem::take(&mut lane.out);
            values.resize(windows, f64::NAN);
            let mut last = 0.0;
            for v in &mut values {
                if v.is_nan() {
                    *v = last;
                } else {
                    last = *v;
                }
            }
            series.push(MetricSeries {
                name: format!("shard{}/outstanding", lane.lane),
                values,
            });
        }
        if lane.busy_touched {
            let mut busy = std::mem::take(&mut lane.busy);
            busy.truncate(windows);
            busy.resize(windows, 0.0);
            let capacity = lane_gpcs
                .get(lane.lane as usize)
                .copied()
                .filter(|&c| c > 0)
                .unwrap_or_else(|| {
                    if lane.capacity_hint > 0 {
                        lane.capacity_hint
                    } else {
                        (lane.gpc_peak.max(0) as u32).max(1)
                    }
                });
            let denom = window_ns as f64 * f64::from(capacity);
            series.push(MetricSeries {
                name: format!("shard{}/busy_gpc_fraction", lane.lane),
                values: busy.iter().map(|&b| b / denom).collect(),
            });
        }
        for (b, &v) in lane.routed.iter().enumerate() {
            routed[b] += v;
        }
        for (b, &v) in lane.shed.iter().enumerate() {
            shed[b] += v;
        }
        for (b, &v) in lane.loaned.iter().enumerate() {
            loan_deltas[b] += v;
        }
        for (model, bins) in lane.tallies.iter().enumerate() {
            if bins.is_empty() {
                continue;
            }
            if model >= tallies.len() {
                tallies.resize_with(model + 1, Vec::new);
            }
            let merged = &mut tallies[model];
            merged.resize(windows, (0, 0));
            for (sum, &(count, over)) in merged.iter_mut().zip(bins) {
                sum.0 += u64::from(count);
                sum.1 += u64::from(over);
            }
        }
    }

    // Pool loans: integrate the per-bin deltas into a level.
    let mut level = 0.0;
    let loaned: Vec<f64> = loan_deltas
        .iter()
        .map(|&d| {
            level += d;
            level
        })
        .collect();
    if loaned.iter().any(|&v| v != 0.0) {
        series.push(MetricSeries {
            name: "pool/loaned_gpus".to_string(),
            values: loaned,
        });
    }

    // Shed rate per bin over offered load.
    if routed.iter().chain(&shed).any(|&v| v > 0.0) {
        let values = routed
            .iter()
            .zip(&shed)
            .map(|(&r, &s)| if r + s > 0.0 { s / (r + s) } else { 0.0 })
            .collect();
        series.push(MetricSeries {
            name: "fleet/shed_rate".to_string(),
            values,
        });
    }

    // Per-model SLA violation rate off the merged tallies.
    for (model, bins) in tallies.iter().enumerate() {
        if bins.is_empty() {
            continue;
        }
        let values = bins
            .iter()
            .map(|&(count, over)| {
                if count > 0 {
                    over as f64 / count as f64
                } else {
                    0.0
                }
            })
            .collect();
        series.push(MetricSeries {
            name: format!("model{model}/sla_violation_rate"),
            values,
        });
    }

    series.sort_by(|a, b| a.name.cmp(&b.name));
    MetricRegistry::from_parts(window_ns, windows, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::QueryTrace;
    use server_metrics::LatencyHistogram;
    use std::collections::{BTreeMap, HashMap};

    /// One lane's records in push order: `(at_ns, key, event)`.
    type LaneRecords = Vec<(u64, u64, TraceEvent)>;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn obs_sink_feeds_both_halves() {
        let mut sink = ObsSink::for_request(ObsRequest::instrumented(1_000), 3, 0);
        sink.record(t(10), 0, TraceEvent::Requeue { query: 0 });
        assert_eq!(sink.trace.as_ref().unwrap().len(), 1);
        assert_eq!(sink.online.as_ref().unwrap().horizon_ns, 10);
        assert!(ObsSink::for_request(ObsRequest::OFF, 0, 0).is_empty());
    }

    #[test]
    fn groups_deque_reclaims_completed_prefix() {
        let mut lane = OnlineLane::new(0, 1_000);
        for q in 0..100u64 {
            lane.set_group(q, (q % 2) as usize, 7);
        }
        for q in 0..99u64 {
            assert_eq!(lane.take_group(q), Some(((q % 2) as usize, 7)));
        }
        assert_eq!(lane.groups_base, 99, "consumed prefix reclaimed");
        assert!(lane.groups.len() <= 1);
        assert_eq!(lane.take_group(5), None, "completions consume");
    }

    #[test]
    fn peak_tracker_matches_edge_sweep() {
        // Overlapping, touching, and nested spans; compare against the
        // oracle sweep semantics by hand: peak is 7+3 = 10.
        let mut lane = OnlineLane::new(0, 1_000_000);
        let spans = [
            (0u64, 100u64, 7u32),
            (50, 150, 3),
            (100, 200, 7),
            (200, 300, 5),
        ];
        for (s, e, g) in spans {
            lane.service(s, g, e - s);
        }
        assert_eq!(lane.gpc_peak, 10);
    }

    #[test]
    fn merge_is_lane_order_independent() {
        let mk = |lane: u32, base: u64| {
            let mut l = OnlineLane::new(lane, 1_000);
            l.record(
                t(base),
                0,
                TraceEvent::Arrival {
                    query: 0,
                    group: 0,
                    batch: 1,
                    dispatched_ns: base,
                    sla_ns: 500,
                },
            );
            l.record(
                t(base + 700),
                0,
                TraceEvent::Complete {
                    query: 0,
                    worker: 0,
                    latency_ns: 700,
                },
            );
            l
        };
        let fwd = merge_online(1_000, [mk(0, 100), mk(1, 2_100)], &[]);
        let rev = merge_online(1_000, [mk(1, 2_100), mk(0, 100)], &[]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.windows(), 3);
        assert!(fwd.get("model0/sla_violation_rate").is_some());
    }

    #[test]
    #[should_panic(expected = "lane 0 bins on a 2000 ns grid but the merge grid is 1000 ns")]
    fn merge_rejects_a_lane_on_another_grid() {
        let _ = merge_online(1_000, [OnlineLane::new(0, 2_000)], &[]);
    }

    fn arrival(query: u64, group: usize, at_ns: u64, sla_ns: u64) -> TraceEvent {
        TraceEvent::Arrival {
            query,
            group,
            batch: 1,
            dispatched_ns: at_ns,
            sla_ns,
        }
    }

    fn completion(query: u64, latency_ns: u64) -> TraceEvent {
        TraceEvent::Complete {
            query,
            worker: 0,
            latency_ns,
        }
    }

    /// The online plane and `from_trace` over the same per-lane records.
    fn online_and_oracle(
        lanes: &[LaneRecords],
        window_ns: u64,
    ) -> (MetricRegistry, MetricRegistry) {
        let mut online = Vec::new();
        let mut recorders = Vec::new();
        for (lane, records) in (0u32..).zip(lanes) {
            let mut sink = ObsSink::for_request(ObsRequest::instrumented(window_ns), lane, 0);
            for &(at, key, event) in records {
                sink.record(t(at), key, event);
            }
            online.extend(sink.online);
            recorders.extend(sink.trace);
        }
        let oracle = MetricRegistry::from_trace(&QueryTrace::merge(recorders), window_ns, &[]);
        (merge_online(window_ns, online, &[]), oracle)
    }

    /// The fold the tallies replaced: a latency histogram per (model, bin),
    /// read back by `violation_rate` against the model's first-seen SLA
    /// (the earliest `(time, key, lane)` SLA-carrying arrival). Returns
    /// `registry` with its `sla_violation_rate` series recomputed that way.
    fn histogram_reference(lanes: &[LaneRecords], registry: &MetricRegistry) -> MetricRegistry {
        let window_ns = registry.window_ns();
        let mut tails: BTreeMap<usize, Vec<LatencyHistogram>> = BTreeMap::new();
        let mut slas: BTreeMap<usize, (u64, u64, u32, u64)> = BTreeMap::new();
        for (lane, records) in (0u32..).zip(lanes) {
            let mut in_flight: HashMap<u64, usize> = HashMap::new();
            for &(at, key, event) in records {
                match event {
                    TraceEvent::Arrival {
                        query,
                        group,
                        sla_ns,
                        ..
                    } => {
                        in_flight.insert(query, group);
                        if sla_ns > 0 {
                            let first = slas.entry(group).or_insert((at, key, lane, sla_ns));
                            if (at, key, lane) < (first.0, first.1, first.2) {
                                *first = (at, key, lane, sla_ns);
                            }
                        }
                    }
                    TraceEvent::Complete {
                        query, latency_ns, ..
                    } => {
                        if let Some(group) = in_flight.remove(&query) {
                            let bins = tails.entry(group).or_default();
                            let bin = (at / window_ns) as usize;
                            if bin >= bins.len() {
                                bins.resize_with(bin + 1, LatencyHistogram::new);
                            }
                            bins[bin].record(latency_ns);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut series: Vec<MetricSeries> = registry
            .series()
            .iter()
            .filter(|s| !s.name.ends_with("/sla_violation_rate"))
            .cloned()
            .collect();
        for (model, bins) in &tails {
            let Some(&(.., sla)) = slas.get(model) else {
                continue;
            };
            let values = (0..registry.windows())
                .map(|b| bins.get(b).map_or(0.0, |h| h.violation_rate(sla)))
                .collect();
            series.push(MetricSeries {
                name: format!("model{model}/sla_violation_rate"),
                values,
            });
        }
        series.sort_by(|a, b| a.name.cmp(&b.name));
        MetricRegistry::from_parts(window_ns, registry.windows(), series)
    }

    /// SplitMix64: a dependency-free seeded stream for the random traces.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random multi-lane trace with one SLA per model: same-instant
    /// records, multi-bin gaps, latencies on both sides of each SLA's
    /// threshold, queries still in flight at the end, and lanes that never
    /// see some models.
    fn random_lanes(seed: u64, window_ns: u64) -> Vec<LaneRecords> {
        let mut rng = seed;
        let models = 1 + (next(&mut rng) % 3) as usize;
        let slas: Vec<u64> = (0..models)
            .map(|_| 40 + next(&mut rng) % (4 * window_ns))
            .collect();
        (0..1 + next(&mut rng) % 4)
            .map(|lane| {
                // Lane 0 sees every model; later lanes a random non-empty subset.
                let seen: Vec<usize> = (0..models)
                    .filter(|&m| lane == 0 || m == 0 || next(&mut rng) % 2 == 0)
                    .collect();
                let mut records: LaneRecords = Vec::new();
                let mut at = 0u64;
                for query in 0..20 + next(&mut rng) % 150 {
                    at += match next(&mut rng) % 8 {
                        0..=2 => 0,
                        3 => window_ns * (2 + next(&mut rng) % 5),
                        _ => next(&mut rng) % (window_ns / 2),
                    };
                    let group = seen[(next(&mut rng) % seen.len() as u64) as usize];
                    let sla = slas[group];
                    records.push((at, query, arrival(query, group, at, sla)));
                    let threshold = violation_threshold_ns(sla);
                    let latency = match next(&mut rng) % 6 {
                        0 => threshold,
                        1 => threshold + 1,
                        2 => 0,
                        3 => continue, // still in flight at the end
                        _ => next(&mut rng) % (2 * sla),
                    };
                    records.push((at + latency, query, completion(query, latency)));
                }
                records.sort_by_key(|&(at, ..)| at);
                records
            })
            .collect()
    }

    #[test]
    fn tallies_match_the_histogram_reference_for_one_sla_per_model() {
        let window_ns = 1_000;
        // Seeds whose trace has same-instant records, an empty interior
        // bin, and a lane that never sees some model.
        let (mut same_instant, mut gaps, mut partial_lanes) = (0, 0, 0);
        for seed in 0..32u64 {
            let lanes = random_lanes(seed, window_ns);
            let pairs = || lanes.iter().flat_map(|l| l.windows(2));
            same_instant += usize::from(pairs().any(|w| w[0].0 == w[1].0));
            gaps += usize::from(pairs().any(|w| w[1].0 / window_ns > w[0].0 / window_ns + 1));
            let models_in = |l: &LaneRecords| {
                l.iter()
                    .filter_map(|r| match r.2 {
                        TraceEvent::Arrival { group, .. } => Some(group),
                        _ => None,
                    })
                    .collect::<std::collections::BTreeSet<_>>()
            };
            let all: std::collections::BTreeSet<_> = lanes.iter().flat_map(models_in).collect();
            partial_lanes += usize::from(lanes.iter().any(|l| models_in(l) != all));
            let (online, oracle) = online_and_oracle(&lanes, window_ns);
            assert_eq!(online, oracle, "seed {seed}: online vs from_trace");
            assert!(
                online
                    .series()
                    .iter()
                    .any(|s| s.name.ends_with("/sla_violation_rate")),
                "seed {seed}: no violation series"
            );
            assert_eq!(online, histogram_reference(&lanes, &online), "seed {seed}");
        }
        assert!(
            same_instant > 0 && gaps > 0 && partial_lanes > 0,
            "coverage: {same_instant} same-instant, {gaps} gap, {partial_lanes} partial-lane traces"
        );
    }

    #[test]
    fn each_completion_is_judged_against_its_own_arrivals_sla() {
        // One model, two lanes, two SLAs: lane 0 promises 1 µs, lane 1
        // 5 µs, and both complete a 3 µs query in bin 0.
        let lanes: Vec<LaneRecords> = [1_000u64, 5_000]
            .into_iter()
            .map(|sla| {
                vec![
                    (100, 0, arrival(0, 0, 100, sla)),
                    (3_100, 0, completion(0, 3_000)),
                ]
            })
            .collect();
        let (online, oracle) = online_and_oracle(&lanes, 10_000);
        assert_eq!(online, oracle);
        let rate = &online
            .get("model0/sla_violation_rate")
            .expect("series")
            .values;
        assert_eq!(
            rate,
            &vec![0.5],
            "one of two completions missed its own SLA"
        );
        // The first-seen rule judged both against lane 0's 1 µs SLA.
        let first_seen = histogram_reference(&lanes, &online);
        assert_eq!(
            first_seen.get("model0/sla_violation_rate").unwrap().values,
            vec![1.0]
        );
    }

    #[test]
    fn arrivals_without_an_sla_are_not_tallied() {
        let lanes: Vec<LaneRecords> = vec![vec![
            (0, 0, arrival(0, 0, 0, 0)),
            (0, 1, arrival(1, 1, 0, 2_000)),
            (5_000, 0, completion(0, 5_000)),
            (5_000, 1, completion(1, 5_000)),
        ]];
        let (online, oracle) = online_and_oracle(&lanes, 10_000);
        assert_eq!(online, oracle);
        assert!(online.get("model0/sla_violation_rate").is_none());
        assert_eq!(
            online.get("model1/sla_violation_rate").unwrap().values,
            vec![1.0]
        );
    }

    impl OnlineLane {
        /// Bytes the per-(model, bin) tallies hold, from `Vec` capacities.
        fn tally_bytes(&self) -> usize {
            self.tallies.capacity() * std::mem::size_of::<Vec<(u32, u32)>>()
                + self
                    .tallies
                    .iter()
                    .map(|bins| bins.capacity() * std::mem::size_of::<(u32, u32)>())
                    .sum::<usize>()
        }
    }

    #[test]
    fn tallies_cost_at_most_16_bytes_per_model_and_bin() {
        let (window_ns, models, bins) = (1_000u64, 2usize, 50u64);
        let mut lane = OnlineLane::new(0, window_ns);
        let mut query = 0;
        for bin in 0..bins {
            for group in 0..models {
                let at = bin * window_ns;
                lane.record(t(at), query, arrival(query, group, at, 500));
                lane.record(t(at + 400), query, completion(query, 400));
                query += 1;
            }
        }
        let touched = models * bins as usize;
        assert!(
            lane.tally_bytes() <= 16 * touched,
            "{} B for {touched} (model, bin) pairs",
            lane.tally_bytes()
        );
    }
}
