//! The flight recorder: per-lane `(time, key)`-stamped buffers that merge
//! deterministically.
//!
//! Each engine lane (a shard's dispatch core, or the cluster gateway) owns a
//! private [`FlightRecorder`]. Recording is a bounds-checked `Vec` push — no
//! locks, no clocks, no I/O — so a lane's buffer is exactly as deterministic
//! as the lane itself, which invariant 11 already guarantees is thread-count
//! invariant. At window close the buffers merge by `(time, key, lane, seq)`
//! into one [`QueryTrace`], so the merged order is a pure function of the
//! simulation too.
//!
//! **Invariant 12 (zero observer effect):** recording must never touch engine
//! state — no RNG draws, no report fields, no event keys. Hooks are
//! `if let Some(sink) = trace { ... }` on otherwise-unchanged paths, and the
//! property suite pins byte-identical reports with tracing on vs off.

use crate::event::TraceEvent;
use des_engine::SimTime;
use std::cell::{OnceCell, RefCell};

/// Same-instant ordering key for annotation events (reconfigs, loans,
/// faults, degrades): they sort after every query-keyed lifecycle event at
/// the same stamp, mirroring the engine's own command-before-event layering.
pub const ANNOTATION_KEY: u64 = u64::MAX;

/// One stamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation instant the event was observed.
    pub at: SimTime,
    /// Same-instant tiebreak key — the query id for lifecycle events,
    /// [`ANNOTATION_KEY`] for annotations.
    pub key: u64,
    /// Which recorder buffer this came from (shard index; the cluster
    /// gateway records as `shards.len()`).
    pub lane: u32,
    /// Per-lane monotone sequence number — the final within-lane tiebreak.
    pub seq: u64,
    /// The observation itself.
    pub event: TraceEvent,
}

/// Anything the engine can hand observations to.
pub trait TraceSink {
    /// Record `event` observed at `(at, key)`.
    fn record(&mut self, at: SimTime, key: u64, event: TraceEvent);
}

/// Records per arena chunk: large enough to amortize the chunk-list
/// bookkeeping, small enough that a quiet lane wastes little.
const CHUNK: usize = 1024;

/// A per-lane append-only trace buffer.
///
/// Storage is a chunked arena: appending never
/// moves earlier records, so a hot lane recording tens of thousands of
/// events never pays the doubling-growth memcpy of a flat `Vec` — the push
/// is the recorder's entire hot-path cost.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    lane: u32,
    seq: u64,
    /// The chunk being appended to — kept separate from `full` so the push
    /// is a direct `Vec::push`, not a `last_mut()` double indirection.
    current: Vec<TraceRecord>,
    /// Filled chunks, each exactly `CHUNK` records.
    full: Vec<Vec<TraceRecord>>,
}

impl FlightRecorder {
    /// Creates an empty recorder for `lane`.
    #[must_use]
    pub fn new(lane: u32) -> Self {
        FlightRecorder {
            lane,
            seq: 0,
            current: Vec::new(),
            full: Vec::new(),
        }
    }

    /// The lane this recorder stamps onto its records.
    #[must_use]
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Number of records buffered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seq as usize
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }

    /// Consumes the recorder, yielding its buffer in append order.
    #[must_use]
    pub fn into_records(self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.full {
            out.extend(chunk);
        }
        out.extend(self.current);
        out
    }

    /// Rolls a filled `current` chunk into `full` — out of line so the
    /// inlined push stays small.
    #[cold]
    fn grow(&mut self) {
        let filled = std::mem::replace(&mut self.current, Vec::with_capacity(CHUNK));
        if !filled.is_empty() {
            self.full.push(filled);
        }
    }
}

impl TraceSink for FlightRecorder {
    // Inlined into the engines' hook sites (cross-crate): the push IS the
    // traced hot path, and a call frame per record roughly doubles it.
    #[inline]
    fn record(&mut self, at: SimTime, key: u64, event: TraceEvent) {
        if self.current.len() == self.current.capacity() {
            self.grow();
        }
        self.current.push(TraceRecord {
            at,
            key,
            lane: self.lane,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }
}

/// A deterministically merged trace: every lane's records in one global
/// `(time, key, lane, seq)` order.
///
/// The global order is realized **lazily**: [`merge`] only takes ownership
/// of the lane buffers, and the flatten-and-sort runs on the first
/// [`records`] call. The sort's outcome is a pure function of the stamps
/// either way; deferring it keeps the traced run's wall-clock cost to the
/// per-record push alone, so the overhead number `bench_obs` reports
/// measures the recorder, not the post-run analysis.
///
/// Analyses that do not need the global order never realize it: [`len`],
/// [`horizon`] and causal tail attribution (`attribute_window`,
/// `attribute_alerts`, `worst_window`) read the lane buffers directly
/// through [`for_each_unordered`].
///
/// [`merge`]: QueryTrace::merge
/// [`records`]: QueryTrace::records
/// [`len`]: QueryTrace::len
/// [`horizon`]: QueryTrace::horizon
/// [`for_each_unordered`]: QueryTrace::for_each_unordered
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    parts: RefCell<Vec<FlightRecorder>>,
    sorted: OnceCell<Vec<TraceRecord>>,
}

impl QueryTrace {
    /// Merges per-lane buffers into the global order (lazily — see the
    /// type-level docs).
    ///
    /// Because each buffer is already time-sorted (lanes observe their own
    /// events in stamp order) a k-way merge would do, but a sort keeps the
    /// invariant local: the output order depends only on the stamps, never
    /// on the order buffers were handed in.
    #[must_use]
    pub fn merge(parts: impl IntoIterator<Item = FlightRecorder>) -> Self {
        QueryTrace {
            parts: RefCell::new(parts.into_iter().collect()),
            sorted: OnceCell::new(),
        }
    }

    /// The merged records in global order (realizes the sort on first use).
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        self.sorted.get_or_init(|| {
            let parts = self.parts.take();
            let total: usize = parts.iter().map(FlightRecorder::len).sum();
            let mut records: Vec<TraceRecord> = Vec::with_capacity(total);
            for part in parts {
                for chunk in part.full {
                    records.extend(chunk);
                }
                records.extend(part.current);
            }
            // The input is a handful of time-sorted runs, which the stable
            // sort detects and merges instead of sorting from scratch.
            records.sort_by_key(|r| (r.at, r.key, r.lane, r.seq));
            records
        })
    }

    /// Visits every record exactly once without realizing the global sort.
    ///
    /// Before [`records`] has run, each lane's records are visited in push
    /// order, lane by lane in the order the buffers were handed to
    /// [`merge`]; afterwards the sorted slice is visited. The order is
    /// therefore unspecified across lanes: use this only for folds whose
    /// result does not depend on it (a maximum, per-lane state machines).
    /// `f` must not call [`records`] on this trace.
    ///
    /// [`records`]: QueryTrace::records
    /// [`merge`]: QueryTrace::merge
    pub fn for_each_unordered(&self, mut f: impl FnMut(&TraceRecord)) {
        if let Some(records) = self.sorted.get() {
            records.iter().for_each(f);
            return;
        }
        for part in self.parts.borrow().iter() {
            for chunk in &part.full {
                chunk.iter().for_each(&mut f);
            }
            part.current.iter().for_each(&mut f);
        }
    }

    /// Whether [`records`](QueryTrace::records) has realized the sort.
    #[cfg(test)]
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted.get().is_some()
    }

    /// Total number of records (does not realize the sort).
    #[must_use]
    pub fn len(&self) -> usize {
        match self.sorted.get() {
            Some(records) => records.len(),
            None => self.parts.borrow().iter().map(FlightRecorder::len).sum(),
        }
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latest stamp in the trace, or zero when empty (does not realize the
    /// sort).
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        let mut latest = SimTime::ZERO;
        self.for_each_unordered(|r| latest = latest.max(r.at));
        latest
    }

    /// A copy of this trace with `extra` records (e.g. SLO alert
    /// annotations from [`crate::slo::alert_records`]) merged into the
    /// global `(time, key, lane, seq)` order. The original is untouched.
    #[must_use]
    pub fn annotated(&self, extra: impl IntoIterator<Item = TraceRecord>) -> QueryTrace {
        let mut records: Vec<TraceRecord> = self.records().to_vec();
        records.extend(extra);
        records.sort_by_key(|r| (r.at, r.key, r.lane, r.seq));
        let sorted = OnceCell::new();
        let _ = sorted.set(records);
        QueryTrace {
            parts: RefCell::new(Vec::new()),
            sorted,
        }
    }
}

impl PartialEq for QueryTrace {
    fn eq(&self, other: &Self) -> bool {
        self.records() == other.records()
    }
}

impl Eq for QueryTrace {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(q: u64) -> TraceEvent {
        TraceEvent::Requeue { query: q }
    }

    #[test]
    fn merge_orders_by_time_key_lane_seq() {
        let t = SimTime::from_nanos;
        let mut a = FlightRecorder::new(1);
        a.record(t(10), 5, ev(5));
        a.record(t(20), 1, ev(1));
        let mut b = FlightRecorder::new(0);
        b.record(t(10), 5, ev(50));
        b.record(t(10), ANNOTATION_KEY, ev(99));

        // Hand the buffers in "wrong" order on purpose.
        let merged = QueryTrace::merge([a, b]);
        let lanes: Vec<u32> = merged.records().iter().map(|r| r.lane).collect();
        let keys: Vec<u64> = merged.records().iter().map(|r| r.key).collect();
        // (10,5,lane0) < (10,5,lane1) < (10,MAX) < (20,1)
        assert_eq!(lanes, vec![0, 1, 0, 1]);
        assert_eq!(keys, vec![5, 5, ANNOTATION_KEY, 1]);
    }

    #[test]
    fn merge_is_input_order_invariant() {
        let t = SimTime::from_nanos;
        let mk = |lane: u32| {
            let mut r = FlightRecorder::new(lane);
            for i in 0..4 {
                r.record(t(i * 7 % 13), i, ev(i));
            }
            r
        };
        let fwd = QueryTrace::merge([mk(0), mk(1), mk(2)]);
        let rev = QueryTrace::merge([mk(2), mk(1), mk(0)]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn annotated_merges_extra_records_in_global_order() {
        let t = SimTime::from_nanos;
        let mut r = FlightRecorder::new(0);
        r.record(t(10), 1, ev(1));
        r.record(t(30), 2, ev(2));
        let trace = QueryTrace::merge([r]);
        let mut extra = FlightRecorder::new(7);
        extra.record(t(20), ANNOTATION_KEY, ev(99));
        let annotated = trace.annotated(extra.into_records());
        assert_eq!(annotated.len(), 3);
        let keys: Vec<u64> = annotated.records().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, ANNOTATION_KEY, 2]);
        assert_eq!(trace.len(), 2, "original untouched");
    }

    #[test]
    fn for_each_unordered_visits_every_record_once_in_both_states() {
        let t = SimTime::from_nanos;
        // Lane 1 stamps out of global order relative to lane 0, and spans
        // more than one arena chunk.
        let mut a = FlightRecorder::new(1);
        for i in 0..(CHUNK as u64 + 5) {
            a.record(t(2 * i), i, ev(i));
        }
        let mut b = FlightRecorder::new(0);
        for i in 0..7u64 {
            b.record(t(3 * i + 1), ANNOTATION_KEY, ev(i));
        }
        let expected: Vec<(u32, u64)> = (0..(CHUNK as u64 + 5))
            .map(|i| (1, i))
            .chain((0..7).map(|i| (0, i)))
            .collect();
        let trace = QueryTrace::merge([a, b]);
        let visit = |trace: &QueryTrace| {
            let mut seen = Vec::new();
            trace.for_each_unordered(|r| seen.push((r.lane, r.seq)));
            seen
        };
        // Unsorted: lane push order, lanes in hand-in order, and the visit
        // leaves the sort unrealized.
        assert_eq!(visit(&trace), expected);
        assert!(!trace.is_sorted(), "visit realized the sort");
        assert_eq!(trace.horizon(), t(2 * CHUNK as u64 + 8));
        assert!(!trace.is_sorted(), "horizon realized the sort");
        // Sorted: the global order, every record exactly once.
        let global: Vec<(u32, u64)> = trace.records().iter().map(|r| (r.lane, r.seq)).collect();
        assert_eq!(visit(&trace), global);
        let mut once = global.clone();
        once.sort_unstable();
        let mut want = expected;
        want.sort_unstable();
        assert_eq!(once, want, "every record exactly once");
        assert_eq!(trace.horizon(), t(2 * CHUNK as u64 + 8));
    }

    #[test]
    fn seq_breaks_ties_within_a_lane() {
        let t = SimTime::from_nanos(42);
        let mut r = FlightRecorder::new(3);
        r.record(t, 7, ev(70));
        r.record(t, 7, ev(71));
        let merged = QueryTrace::merge([r]);
        assert_eq!(merged.records()[0].event, ev(70));
        assert_eq!(merged.records()[1].event, ev(71));
        assert_eq!(merged.horizon(), t);
    }
}
