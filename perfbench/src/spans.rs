//! The benchmark's own tracing: one span around every set-up, run, rung and
//! analysis call it makes into the library, plus counts recorded at the
//! same boundaries. Spans live in memory and are written out once, when
//! the run ends. With tracing off a span still times its call (that is how
//! every host-time metric is measured) but records nothing.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of the spans it causes.
pub type SpanId = usize;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

struct Count {
    span: Option<SpanId>,
    name: &'static str,
    value: f64,
}

/// In-memory span and count store for one benchmark run.
pub struct Tracer {
    workload: &'static str,
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<Count>>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    /// Turns span recording on or off (timing is always on).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent` and returns its
    /// result with the call's host seconds. `f` receives the new span's id
    /// (`None` when recording is off) to parent the spans it opens.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> (T, f64) {
        let id = self.is_on().then(|| {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        });
        let start = Instant::now();
        let out = f(id);
        let secs = start.elapsed().as_secs_f64();
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans.lock().expect("span store poisoned")[id].end_ns = end;
        }
        (out, secs)
    }

    /// Records a count at the boundary of span `at`.
    pub fn count(&self, at: Option<SpanId>, name: &'static str, value: f64) {
        if self.is_on() {
            self.counts
                .lock()
                .expect("count store poisoned")
                .push(Count {
                    span: at,
                    name,
                    value,
                });
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// The recorded spans and counts as JSON lines, one object per line,
    /// after a header line carrying the run's provenance. Each span also
    /// carries its self time: its duration minus the part of it that its
    /// child spans cover.
    pub fn to_jsonl(&self, header: &str) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let counts = self.counts.lock().expect("count store poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for (id, s) in spans.iter().enumerate() {
            let covered = covered_ns(&mut children[id], s.start_ns, s.end_ns);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"name\": \"{}\", \"workload\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}}}",
                s.name,
                self.workload,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(covered),
            );
        }
        for c in counts.iter() {
            let span = c.span.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"count\": \"{}\", \"workload\": \"{}\", \"value\": {}, \"span\": {span}}}",
                c.name, self.workload, c.value
            );
        }
        out
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`, which
/// may overlap when children ran on several threads.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}
