//! `paper_server` — the paper's own question on its Table-I testbed:
//! ResNet-50 on 8 A100s, PARIS partitions scheduled by ELSA. Two timed
//! calls per repetition: the Figure-11 latency-bounded throughput search
//! and one long fixed-rate run at 0.9× the planned capacity. Host time is
//! almost all `EventQueue` + ELSA + `DispatchCore`, with the search's
//! doubling waves on the sweep pool; no cluster or observability layer.

use std::sync::Mutex;

use paris_elsa::cluster::{Cluster, RouterPolicy, SyncWindow};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::FaultPlan;
use paris_elsa::metrics::{latency_bounded_throughput, ThroughputPoint};
use paris_elsa::prelude::*;
use paris_elsa::server::{capacity_hint_qps, measure_point};
use paris_elsa::workload::QuerySpec;

use crate::ladder::{cluster_rungs, hold_ns, timed, ClusterForm, RUNG_REPS};
use crate::metrics::Metrics;
use crate::spans::{SpanId, Tracer};
use crate::{median, Outcome, Percentiles, Workload};

/// Simulated seconds of the fixed-rate run.
const FIXED_SECS: f64 = 200.0;
/// Offered load of the fixed-rate run, as a share of planned capacity.
const FIXED_LOAD: f64 = 0.9;
/// Simulated seconds per operating point of the throughput search.
const POINT_SECS: f64 = 10.0;
/// Queries of the fixed-rate trace replayed through `run_reference`.
const REFERENCE_PREFIX: usize = 20_000;

pub struct PaperServer {
    seed: u64,
    dist: BatchDistribution,
    sla_ns: u64,
    budget: GpcBudget,
    elsa: InferenceServer,
    /// The same partitions under FIFS: the `core.elsa_extra_s` baseline.
    fifs: InferenceServer,
    trace: Vec<QuerySpec>,
    start_qps: f64,
    plan_s: f64,
    generate_s: f64,
}

/// One operating point the search measured.
struct PointRun {
    secs: f64,
}

pub struct Report {
    lbt_qps: f64,
    /// The search's points in serial-search order (what the result rests
    /// on); speculative points past the first failure are not in it.
    points: Vec<(f64, ThroughputPoint)>,
    /// Every point measured, speculative ones included.
    measured: Vec<PointRun>,
    sweep_s: f64,
    fixed: RunReport,
}

impl PaperServer {
    /// One search point, streamed at summary detail with exact SLA
    /// counting: `measure_point`'s body, plus the query count.
    fn measure(&self, rate_qps: f64) -> (ThroughputPoint, u64) {
        let mut offered = 0u64;
        let arrivals = TraceGenerator::new(rate_qps, self.dist.clone(), self.seed)
            .stream_for(POINT_SECS)
            .inspect(|_| offered += 1);
        let report = self
            .elsa
            .run_stream_sla(arrivals, ReportDetail::Summary, Some(self.sla_ns));
        let point = ThroughputPoint {
            offered_qps: rate_qps,
            achieved_qps: report.achieved_qps,
            p95_ms: report.p95_ms(),
            sla_violation_rate: report.sla_violation_rate(self.sla_ns),
            mean_utilization: report.mean_utilization(),
        };
        assert_eq!(offered, report.completed(), "a single server sheds nothing");
        (point, offered)
    }

    fn fixed_run(&self, server: &InferenceServer, detail: ReportDetail) -> RunReport {
        server.run_stream_sla(self.trace.iter().copied(), detail, Some(self.sla_ns))
    }

    fn sweep_config(&self) -> SweepConfig {
        SweepConfig::new(POINT_SECS, self.seed, self.sla_ns)
    }
}

impl Workload for PaperServer {
    const NAME: &'static str = "paper_server";
    type Report = Report;

    fn setup(seed: u64, tr: &Tracer, at: Option<SpanId>) -> Self {
        let (bed, _) = tr.span("core.profile", at, |_| {
            Testbed::paper_default(ModelKind::ResNet50)
        });
        let (elsa, plan_s) = tr.span("core.plan", at, |_| {
            bed.server(DesignPoint::ParisElsa)
                .expect("PARIS plans the testbed")
        });
        let fifs = InferenceServer::new(
            elsa.partitions().to_vec(),
            bed.table().clone(),
            ServerConfig::new(SchedulerKind::Fifs),
        );
        let dist = bed.distribution().clone();
        let capacity = capacity_hint_qps(&elsa, &dist);
        let (trace, generate_s) = tr.span("workload.generate", at, |_| {
            TraceGenerator::new(FIXED_LOAD * capacity, dist.clone(), seed).generate_for(FIXED_SECS)
        });
        PaperServer {
            seed,
            sla_ns: bed.sla_ns(),
            budget: bed.budget_for(DesignPoint::ParisElsa),
            dist,
            elsa,
            fifs,
            trace,
            start_qps: (0.2 * capacity).max(1.0),
            plan_s,
            generate_s,
        }
    }

    fn setup_parts(&self) -> (f64, f64) {
        (self.plan_s, self.generate_s)
    }

    fn threads(&self) -> usize {
        // The doubling waves of the search run on the sweep pool.
        crate::host_cores().min(4)
    }

    fn run(&self, tr: &Tracer, at: Option<SpanId>) -> Outcome<Report> {
        let sla_ms = self.sweep_config().sla_ms();
        let measured = Mutex::new(Vec::new());
        let offered_sweep = Mutex::new(0u64);
        let (search, sweep_s) = tr.span("server.sweep", at, |sweep| {
            parallel_doubling_search(
                self.start_qps,
                20,
                7,
                false,
                |rate| {
                    let ((point, offered), secs) =
                        tr.span("server.sweep_point", sweep, |_| self.measure(rate));
                    measured.lock().expect("point log").push(PointRun { secs });
                    *offered_sweep.lock().expect("query count") += offered;
                    point
                },
                |p: &ThroughputPoint| p.meets_target(sla_ms),
            )
        });
        let points = search.points;
        let lbt_qps =
            latency_bounded_throughput(&points.iter().map(|&(_, p)| p).collect::<Vec<_>>(), sla_ms);
        let (fixed, _) = tr.span("server.fixed_rate", at, |_| {
            self.fixed_run(&self.elsa, ReportDetail::Summary)
        });
        let sweep_queries = offered_sweep.into_inner().expect("query count");
        tr.count(
            at,
            "workload.queries",
            (sweep_queries + self.trace.len() as u64) as f64,
        );
        Outcome {
            offered: sweep_queries + self.trace.len() as u64,
            completed: sweep_queries + fixed.completed(),
            shed: 0,
            sla_offered: self.trace.len() as u64,
            sla_missed: fixed.sla_violations,
            fingerprint: format!("{lbt_qps:?} {points:?} {fixed:?}"),
            report: Report {
                lbt_qps,
                points,
                measured: measured.into_inner().expect("point log"),
                sweep_s,
                fixed,
            },
        }
    }

    fn check(&self, first: &Outcome<Report>, errors: &mut Vec<String>) -> Percentiles {
        // The streamed fast path against the pre-loaded reference.
        let prefix = &self.trace[..self.trace.len().min(REFERENCE_PREFIX)];
        let fast = self.elsa.run_with_detail(prefix, ReportDetail::Full);
        let reference = self.elsa.run_reference(prefix);
        let same = fast.records == reference.records
            && fast.latency == reference.latency
            && fast.queue_hist == reference.queue_hist
            && fast.service_hist == reference.service_hist
            && fast.partition_utilization == reference.partition_utilization
            && fast.makespan == reference.makespan
            && fast.achieved_qps.to_bits() == reference.achieved_qps.to_bits()
            && fast.sla_violations == reference.sla_violations;
        if !same {
            errors.push(format!(
                "fast path differs from run_reference on the first {} queries",
                prefix.len()
            ));
        }
        // The benchmark's search point is the library's `measure_point`.
        if let Some(&(rate, point)) = first.report.points.last() {
            if measure_point(&self.elsa, &self.dist, rate, &self.sweep_config()) != point {
                errors.push(format!(
                    "search point at {rate} qps differs from measure_point"
                ));
            }
        }
        // Exact percentiles from a full-detail replay of the fixed-rate
        // run, which must land on the same histogram.
        let full = self.fixed_run(&self.elsa, ReportDetail::Full);
        let summary = &first.report.fixed;
        if full.histogram != summary.histogram || full.sla_violations != summary.sla_violations {
            errors.push("full-detail fixed-rate run differs from the summary run".into());
        }
        Percentiles::of(&full.latency)
    }

    fn ladder(
        &self,
        first: &Outcome<Report>,
        tr: &Tracer,
        at: Option<SpanId>,
        m: &mut Metrics,
        errors: &mut Vec<String>,
    ) {
        let r = &first.report;
        let fixed = &r.fixed;
        let events = 2 * fixed.completed();
        m.set_note(
            "des.events",
            events as f64,
            "fixed-rate run: one dispatch and one completion per query",
        );
        m.set("des.peak_pending", fixed.peak_pending_events as f64);
        let (hold, _) = timed(tr, "des.hold", at, RUNG_REPS, || {
            hold_ns(fixed.peak_pending_events, events, self.seed)
        });
        m.set("des.hold_ns", hold);
        m.set("workload.queries", first.offered as f64);

        let (mut elsa_s, mut fifs_s) = (Vec::new(), Vec::new());
        for _ in 0..RUNG_REPS {
            let (_, s) = tr.span("server.elsa", at, |_| {
                self.fixed_run(&self.elsa, ReportDetail::Summary)
            });
            elsa_s.push(s);
            let (_, s) = tr.span("core.fifs", at, |_| {
                self.fixed_run(&self.fifs, ReportDetail::Summary)
            });
            fifs_s.push(s);
        }
        m.set_n(
            "core.elsa_extra_s",
            median(&elsa_s) - median(&fifs_s),
            RUNG_REPS as u64,
        );
        m.set("core.replans", 0.0);
        m.set_n(
            "server.ns_per_query",
            median(&elsa_s) * 1e9 / self.trace.len() as f64,
            RUNG_REPS as u64,
        );
        let pool = self.threads() as f64;
        let busy: f64 = r.measured.iter().map(|p| p.secs).sum();
        m.set("server.sweep_points", r.measured.len() as f64);
        m.set(
            "server.sweep_useful_ratio",
            r.points.len() as f64 / r.measured.len() as f64,
        );
        m.set_note(
            "server.sweep_busy_ratio",
            busy / (r.sweep_s * pool),
            format!("summed point time / (search wall x {pool} pool threads)"),
        );
        m.set(
            "server.queue_wait_p95_ms",
            fixed.queue_hist.percentile_ms(0.95),
        );
        m.set(
            "server.service_p95_ms",
            fixed.service_hist.percentile_ms(0.95),
        );
        m.set("server.util_pct", 100.0 * fixed.mean_utilization());
        m.set("lbt_qps", r.lbt_qps);
        m.set_note("shed_pct", 0.0, "no admission control on a single server");

        // The same fixed-rate trace as a one-shard cluster.
        let (cluster, _) = tr.span("cluster.build", at, |_| {
            let spec = ModelSpec::new("resnet50", self.elsa.table().clone(), self.dist.clone());
            let shard = MultiModelServer::with_groups(
                vec![spec],
                vec![self.elsa.partitions().to_vec()],
                self.budget,
                MultiModelConfig::new().with_detail(ReportDetail::Summary),
            );
            Cluster::new(vec![shard], RouterPolicy::JoinShortestQueue)
        });
        let trace: Vec<TaggedQuerySpec> = self
            .trace
            .iter()
            .map(|&spec| TaggedQuerySpec { model: 0, spec })
            .collect();
        let plan = FaultPlan::new();
        let form = ClusterForm {
            cluster: &cluster,
            trace: &trace,
            plan: &plan,
            window: SyncWindow::PerEvent,
            pool_threads: 1,
        };
        let (_, _) = tr.span("cluster.rungs", at, |rungs| {
            cluster_rungs(&form, tr, rungs, m, errors)
        });
    }
}
