//! `drift_brownout` — control plane and observability at modest load: two
//! 4-GPU shards each hosting a MobileNet "premium" model (class 0) and a
//! ResNet-50 "batch" model (class 1), with drift-triggered PARIS re-plans,
//! a 2-GPU loan pool, brownout shedding and a rack outage inside a surge,
//! run with the online plane and the flight recorder on, then SLO
//! evaluation and causal attribution. Dispatch does little; re-plans,
//! loans, sheds, fault recovery and the telemetry fold do the work, and
//! the online plane's memory grows with simulated seconds.

use paris_elsa::cluster::{Cluster, LoanPolicy, RouterPolicy, ShedPolicy, SyncWindow};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::{
    run_with_faults_windowed_instrumented, FaultPlan, FaultReport, FaultTopology,
};
use paris_elsa::obs::{attribute_alerts, evaluate_slos, Alert, MetricRegistry, QueryTrace};
use paris_elsa::prelude::*;

use crate::clustered::{fifs_twin, Clustered, SeedRng};
use crate::fleet_faults::SERVICE_NOISE;
use crate::ladder::{attribution_residual_ns, check_observed, slo_specs, OBS_WINDOW_NS};
use crate::metrics::Metrics;
use crate::spans::{SpanId, Tracer};
use crate::{Outcome, Percentiles, Workload};

const SHARDS: usize = 2;
const GPUS_PER_SHARD: usize = 4;
const POOL_GPUS: usize = 2;
const GPUS_PER_RACK: usize = 2;
/// The four-phase schedule repeats this many times, each cycle with its
/// own rack outage: the tail percentiles then rest on several episodes
/// rather than on one, which keeps them steady from seed to seed.
const CYCLES: usize = 4;
/// Simulated seconds per phase (80 simulated seconds in all).
const PHASE_S: f64 = 5.0;
/// Drift detection window of the per-shard re-planner, seconds.
const REPLAN_WINDOW_S: f64 = 0.5;

pub struct DriftBrownout {
    c: Clustered,
}

/// The timed call's results: the run, its telemetry and its analysis.
pub struct Report {
    fault: FaultReport,
    trace: QueryTrace,
    registry: MetricRegistry,
    alerts: Vec<Alert>,
    residual: u128,
}

impl Workload for DriftBrownout {
    const NAME: &'static str = "drift_brownout";
    type Report = Report;

    fn setup(seed: u64, tr: &Tracer, at: Option<SpanId>) -> Self {
        let paper = BatchDistribution::paper_default();
        let small = BatchDistribution::log_normal_with_median(32, 0.9, 2.0);
        let large = BatchDistribution::log_normal_with_median(32, 0.9, 12.0);
        let ((premium, batch), _) = tr.span("core.profile", at, |_| {
            let perf = PerfModel::new(DeviceSpec::a100());
            let table = |kind: ModelKind| {
                ProfileTable::profile(&kind.build(), &perf, &ProfileSize::ALL, 32)
            };
            (table(ModelKind::MobileNet), table(ModelKind::ResNet50))
        });
        // Both shards start identical: plan once, clone.
        let (shard, plan_s) = tr.span("core.plan", at, |_| {
            MultiModelServer::new(
                vec![
                    ModelSpec::new("premium", premium, paper.clone()),
                    ModelSpec::new("batch", batch, paper.clone()),
                ],
                GpcBudget::new(GPUS_PER_SHARD * 7, GPUS_PER_SHARD),
                MultiModelConfig::new()
                    .with_detail(ReportDetail::Summary)
                    .with_service_noise(SERVICE_NOISE, seed)
                    .with_replan(ReplanPolicy::new(REPLAN_WINDOW_S)),
            )
            .expect("PARIS plans the shard")
        });
        // Per-model planned fleet capacity under the declared mix.
        let cap: Vec<f64> = shard
            .models()
            .iter()
            .zip(shard.groups())
            .map(|(m, g)| SHARDS as f64 * m.table.capacity_qps(g, &paper))
            .collect();
        let (trace, generate_s) = tr.span("workload.generate", at, |_| {
            let mix = |p: f64, pd: &BatchDistribution, b: f64, bd: &BatchDistribution| {
                PhaseSpec::new(
                    PHASE_S,
                    vec![(p * cap[0], pd.clone()), (b * cap[1], bd.clone())],
                )
            };
            let cycle = [
                // calm; batch drifts heavy; surge; premium-heavy recovery.
                mix(0.5, &small, 0.4, &paper),
                mix(0.3, &small, 0.6, &large),
                mix(0.6, &paper, 0.8, &large),
                mix(0.6, &small, 0.3, &paper),
            ];
            MultiTraceGenerator::new(
                cycle.iter().cycle().take(4 * CYCLES).cloned().collect(),
                seed,
            )
            .generate()
        });
        let (cluster, _) = tr.span("cluster.build", at, |_| {
            Cluster::new(vec![shard.clone(); SHARDS], RouterPolicy::JoinShortestQueue)
                .with_loan(LoanPolicy::new(POOL_GPUS, REPLAN_WINDOW_S))
                .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.5))
        });
        // In every cycle rack0 (two GPUs of shard 0) goes dark inside the
        // surge phase for about half a phase; the seed jitters where and
        // how long.
        let mut rng = SeedRng::new(seed);
        let topology = FaultTopology::racks(&[GPUS_PER_SHARD; SHARDS], GPUS_PER_RACK);
        let plan = (0..CYCLES).fold(FaultPlan::new(), |plan, c| {
            let fail = (4.0 * c as f64 + 2.2 + 0.05 * rng.unit()) * PHASE_S;
            let repair = fail + (0.5 + 0.05 * rng.unit()) * PHASE_S;
            plan.with_domain_outage(&topology, "rack0", fail, repair)
        });
        DriftBrownout {
            c: Clustered {
                seed,
                fifs: fifs_twin(&shard),
                shard,
                cluster,
                trace,
                plan,
                window: SyncWindow::PerEvent,
                pool_threads: 1,
                plan_s,
                generate_s,
            },
        }
    }

    fn setup_parts(&self) -> (f64, f64) {
        (self.c.plan_s, self.c.generate_s)
    }

    fn threads(&self) -> usize {
        1
    }

    fn run(&self, tr: &Tracer, at: Option<SpanId>) -> Outcome<Report> {
        let c = &self.c;
        let ((fault, trace, registry), _) = tr.span("obs.instrumented", at, |_| {
            run_with_faults_windowed_instrumented(
                &c.cluster,
                c.trace.iter().map(|&tq| (None, tq)),
                ReportDetail::Summary,
                &c.plan,
                c.window,
                1,
                OBS_WINDOW_NS,
            )
        });
        let (alerts, _) = tr.span("obs.slo_eval", at, |_| {
            evaluate_slos(&registry, &slo_specs())
        });
        let (attributions, _) = tr.span("obs.attribute", at, |_| {
            attribute_alerts(&trace, OBS_WINDOW_NS, &alerts)
        });
        tr.count(at, "obs.trace_events", trace.len() as f64);
        tr.count(at, "obs.alerts", alerts.len() as f64);
        let fingerprint = format!(
            "{fault:?} {registry:?} {alerts:?} {attributions:?} {}",
            trace.len()
        );
        c.outcome(&fault, fingerprint).with_report(Report {
            residual: attribution_residual_ns(&attributions),
            fault,
            trace,
            registry,
            alerts,
        })
    }

    fn check(&self, first: &Outcome<Report>, errors: &mut Vec<String>) -> Percentiles {
        let r = &first.report;
        check_observed(&self.c.cluster, &r.trace, &r.registry, r.residual, errors);
        if r.alerts.is_empty() {
            errors.push("the brownout fired no SLO alert to attribute".into());
        }
        self.c.check(&r.fault, "invariant 12", errors)
    }

    fn ladder(
        &self,
        first: &Outcome<Report>,
        tr: &Tracer,
        at: Option<SpanId>,
        m: &mut Metrics,
        errors: &mut Vec<String>,
    ) {
        self.c.ladder(&first.report.fault, tr, at, m, errors);
    }
}
