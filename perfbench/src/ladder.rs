//! Rungs shared by every workload: the event-queue hold model and the
//! cluster, fault and observability rungs over a workload's cluster form.
//! Every rung is a public library call timed from outside; a rung's cost
//! is a difference between such calls on the same inputs.

use std::hint::black_box;

use paris_elsa::cluster::{Cluster, PinnedQuery, SyncWindow};
use paris_elsa::des::{EventQueue, SimTime};
use paris_elsa::faults::{
    run_with_faults_windowed, run_with_faults_windowed_instrumented,
    run_with_faults_windowed_observed, run_with_faults_windowed_traced, FaultPlan, FaultReport,
};
use paris_elsa::obs::{
    attribute_alerts, check_conservation, evaluate_slos, MetricRegistry, SloSpec,
};
use paris_elsa::prelude::{ReportDetail, TaggedQuerySpec};

use crate::metrics::Metrics;
use crate::spans::{SpanId, Tracer};
use crate::{alloc, median};

/// Repetitions of each timed rung; rung times are their medians.
pub const RUNG_REPS: usize = 3;

/// Online-plane bin width: 100 ms windows.
pub const OBS_WINDOW_NS: u64 = 100_000_000;

/// Burn-rate SLOs evaluated over the online registry: premium (class 0)
/// at 95 % and batch (class 1) at 50 % of queries within SLA. A spec whose
/// class a workload does not serve never fires.
pub fn slo_specs() -> Vec<SloSpec> {
    vec![
        SloSpec::new("premium-avail", 0, 0.95).with_windows(2, 6),
        SloSpec::new("batch-avail", 1, 0.5).with_windows(2, 6),
    ]
}

/// Times `reps` calls of `f` in spans named `name`; returns the last
/// result and the median host seconds.
pub fn timed<T>(
    tr: &Tracer,
    name: &str,
    at: Option<SpanId>,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, s) = tr.span(name, at, |_| f());
        secs.push(s);
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&secs))
}

/// `des.hold_ns`: the classic hold model on [`EventQueue`] — pop the
/// earliest event, push it back a random increment later — at the
/// workload's own peak pending depth, for as many operations as the
/// workload processed events. Host nanoseconds per hold operation.
pub fn hold_ns(depth: usize, events: u64, seed: u64) -> f64 {
    const GAP_NS: u64 = 1_000;
    let depth = depth.max(1);
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let span = depth as u64 * GAP_NS;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.push(SimTime::from_nanos(next() % span), i as u64);
    }
    let start = std::time::Instant::now();
    for _ in 0..events {
        let (t, e) = q.pop().expect("the hold model keeps its depth");
        let inc = next() % (2 * span);
        q.push(SimTime::from_nanos(t.as_nanos() + inc), black_box(e));
    }
    black_box(&q);
    start.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// A workload's inputs in cluster form: what the cluster, fault and
/// observability rungs run. `paper_server` wraps its single server as a
/// one-shard cluster; the cluster workloads pass themselves.
pub struct ClusterForm<'a> {
    pub cluster: &'a Cluster,
    pub trace: &'a [TaggedQuerySpec],
    pub plan: &'a FaultPlan,
    pub window: SyncWindow,
    /// Lane threads of the pool rung. Every other rung runs one lane
    /// thread, as the timed calls do.
    pub pool_threads: usize,
}

impl ClusterForm<'_> {
    fn arrivals(&self) -> impl Iterator<Item = PinnedQuery> + '_ {
        self.trace.iter().map(|&tq| (None, tq))
    }

    pub fn run(&self, detail: ReportDetail, window: SyncWindow, threads: usize) -> FaultReport {
        run_with_faults_windowed(
            self.cluster,
            self.arrivals(),
            detail,
            self.plan,
            window,
            threads,
        )
    }
}

/// Sets every `cluster.*`, `faults.*` and `obs.*` metric from rungs over
/// `form`, checking thread-count invariance (11), zero observer effect
/// (12), online ≡ oracle (13), trace conservation and zero-residual
/// attribution on the way.
pub fn cluster_rungs(
    form: &ClusterForm<'_>,
    tr: &Tracer,
    at: Option<SpanId>,
    m: &mut Metrics,
    errors: &mut Vec<String>,
) {
    // Serial and pooled lanes, alternated so drift in host speed hits both.
    let (mut serial_s, mut pool_s) = (Vec::new(), Vec::new());
    let mut serial = None;
    let mut pool = None;
    for _ in 0..RUNG_REPS {
        let (r, s) = tr.span("cluster.serial", at, |_| {
            form.run(ReportDetail::Summary, form.window, 1)
        });
        serial_s.push(s);
        serial = Some(r);
        let (r, s) = tr.span("cluster.pool", at, |_| {
            form.run(ReportDetail::Summary, form.window, form.pool_threads)
        });
        pool_s.push(s);
        pool = Some(r);
    }
    let serial = serial.expect("serial rung ran");
    let pool = pool.expect("pool rung ran");
    let untraced = format!("{serial:?}");
    if format!("{pool:?}") != untraced {
        errors.push(format!(
            "invariant 11: the 1-thread report differs from the {}-thread report",
            form.pool_threads
        ));
    }
    let (serial_s, pool_s) = (median(&serial_s), median(&pool_s));
    m.set_n("cluster.serial_s", serial_s, RUNG_REPS as u64);
    m.set_n("cluster.pool_s", pool_s, RUNG_REPS as u64);
    m.set_note(
        "cluster.pool_overhead_s",
        pool_s - serial_s,
        format!("pool at {} thread(s) minus serial", form.pool_threads),
    );
    let (_, per_event_s) = timed(tr, "cluster.per_event", at, RUNG_REPS, || {
        form.run(ReportDetail::Summary, SyncWindow::PerEvent, 1)
    });
    m.set_n("cluster.per_event_s", per_event_s, RUNG_REPS as u64);

    let ((profiled, profile), _) = tr.span("cluster.profile", at, |_| {
        form.cluster.run_windowed_profiled(
            form.arrivals(),
            ReportDetail::Summary,
            &form.plan.compile(),
            form.window,
            &[form.pool_threads],
        )
    });
    if format!("{profiled:?}") != format!("{:?}", serial.cluster) {
        errors.push("the profiled run's report differs from the plain run's".into());
    }
    let report = &serial.cluster;
    let gateway_items = report.events_processed - profile.lane_events;
    let critical = profile
        .critical_path
        .iter()
        .find(|&&(k, _)| k == form.pool_threads)
        .map_or(profile.lane_events, |&(_, c)| c);
    m.set("cluster.windows", profile.windows as f64);
    m.set("cluster.lane_events", profile.lane_events as f64);
    m.set("cluster.gateway_items", gateway_items as f64);
    m.set(
        "cluster.lane_events_per_window",
        profile.lane_events as f64 / profile.windows.max(1) as f64,
    );
    m.set_note(
        "cluster.critical_path_ratio",
        profile.lane_events as f64 / critical.max(1) as f64,
        format!(
            "structural bound at {} thread(s): lane events / critical path; not a speedup",
            form.pool_threads
        ),
    );
    let routed = &report.routed;
    let mean_routed = routed.iter().sum::<u64>() as f64 / routed.len() as f64;
    let max_routed = routed.iter().copied().max().unwrap_or(0) as f64;
    m.set("cluster.loans", report.loans.len() as f64);
    m.set("cluster.shed", report.total_shed() as f64);
    m.set(
        "cluster.route_imbalance",
        max_routed / mean_routed.max(f64::MIN_POSITIVE),
    );
    m.set("faults.applied", report.faults.len() as f64);
    m.set("faults.requeued", serial.requeued as f64);
    m.set("faults.outage_gpu_s", serial.outage_gpu_seconds);

    // Observability rungs at the workload's window mode on one lane
    // thread, each against the serial untraced run.
    let (mut online_s, mut trace_s, mut online_mb, mut trace_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RUNG_REPS {
        let base = alloc::reset_peak();
        let (observed, s) = tr.span("obs.online", at, |_| {
            run_with_faults_windowed_observed(
                form.cluster,
                form.arrivals(),
                ReportDetail::Summary,
                form.plan,
                form.window,
                1,
                OBS_WINDOW_NS,
            )
        });
        online_mb.push(alloc::peak_above(base));
        online_s.push(s);
        drop(observed);
        let base = alloc::reset_peak();
        let (traced, s) = tr.span("obs.trace", at, |_| {
            run_with_faults_windowed_traced(
                form.cluster,
                form.arrivals(),
                ReportDetail::Summary,
                form.plan,
                form.window,
                1,
            )
        });
        trace_mb.push(alloc::peak_above(base));
        trace_s.push(s);
        drop(traced);
    }
    let reps = RUNG_REPS as u64;
    m.set_n("obs.online_s", median(&online_s) - serial_s, reps);
    m.set_n("obs.trace_s", median(&trace_s) - serial_s, reps);
    m.set_n("obs.online_peak_mb", median(&online_mb), reps);
    m.set_n("obs.trace_peak_mb", median(&trace_mb), reps);

    let ((report, trace, registry), _) = tr.span("obs.instrumented", at, |_| {
        run_with_faults_windowed_instrumented(
            form.cluster,
            form.arrivals(),
            ReportDetail::Summary,
            form.plan,
            form.window,
            1,
            OBS_WINDOW_NS,
        )
    });
    let specs = slo_specs();
    let (alerts, slo_s) = timed(tr, "obs.slo_eval", at, RUNG_REPS, || {
        evaluate_slos(&registry, &specs)
    });
    let (attributions, attribute_s) = timed(tr, "obs.attribute", at, RUNG_REPS, || {
        attribute_alerts(&trace, OBS_WINDOW_NS, &alerts)
    });
    m.set_n("obs.slo_eval_s", slo_s, reps);
    m.set_n("obs.attribute_s", attribute_s, reps);
    m.set("obs.trace_events", trace.len() as f64);
    m.set(
        "obs.registry_bins",
        registry
            .series()
            .iter()
            .map(|s| s.values.len())
            .sum::<usize>() as f64,
    );
    m.set("obs.alerts", alerts.len() as f64);
    let residual = attribution_residual_ns(&attributions);
    m.set("obs.attribution_residual_ns", residual as f64);
    if format!("{report:?}") != untraced {
        errors.push("invariant 12: the instrumented report differs from the untraced one".into());
    }
    check_observed(form.cluster, &trace, &registry, residual, errors);
}

/// Σ |excess − Σ causes| over the attributions: zero when every alert's
/// p99 excess is fully explained.
pub fn attribution_residual_ns(attributions: &[paris_elsa::obs::WindowAttribution]) -> u128 {
    attributions
        .iter()
        .map(|a| (a.excess_ns - a.causes_sum()).unsigned_abs())
        .sum()
}

/// Invariant 13 (online registry ≡ `from_trace` oracle), trace
/// conservation and zero attribution residual for one instrumented run.
pub fn check_observed(
    cluster: &Cluster,
    trace: &paris_elsa::obs::QueryTrace,
    registry: &MetricRegistry,
    residual: u128,
    errors: &mut Vec<String>,
) {
    if *registry != MetricRegistry::from_trace(trace, registry.window_ns(), &cluster.lane_gpcs()) {
        errors.push(
            "invariant 13: the online registry differs from MetricRegistry::from_trace".into(),
        );
    }
    if let Err(e) = check_conservation(trace) {
        errors.push(format!("trace conservation: {e}"));
    }
    if residual != 0 {
        errors.push(format!("attribution residual is {residual} ns, not 0"));
    }
}
