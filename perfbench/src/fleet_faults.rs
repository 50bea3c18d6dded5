//! `fleet_faults` — the megacluster fleet under failure: 32 MobileNet
//! shards of 4 GPUs behind a JSQ router with an 8-GPU loan pool, offered
//! 0.8× planned capacity, with a GPU and a whole shard failing and
//! repairing mid-run, on lookahead windows. Most host work is the
//! gateway, the mailboxes and the lane executor; per-query dispatch is
//! cheap. The only workload where thread count matters: the pool rung
//! runs the lanes on two threads.
//!
//! The timed call runs one lane thread. On a small shared host the
//! two-thread pool's per-window hand-offs stall whenever the host
//! deschedules a core, which moved repeat runs by up to 2×; the pool is
//! measured as the `cluster.pool_*` rungs instead.

use paris_elsa::cluster::{Cluster, LoanPolicy, RouterPolicy, SyncWindow};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::{FaultPlan, FaultReport};
use paris_elsa::prelude::*;

use crate::clustered::{fifs_twin, Clustered, SeedRng};
use crate::metrics::Metrics;
use crate::spans::{SpanId, Tracer};
use crate::{Outcome, Percentiles, Workload};

const SHARDS: usize = 32;
const GPUS_PER_SHARD: usize = 4;
const POOL_GPUS: usize = 8;
/// Offered load as a share of the fleet's planned capacity.
const LOAD: f64 = 0.8;
/// Simulated seconds of arrivals.
const DURATION_S: f64 = 2.0;
/// Lookahead window: one route hop of cross-shard information latency.
const LOOKAHEAD_NS: u64 = 1_000_000;
/// Relative stddev of per-query service-time jitter. Without it, lightly
/// queued latencies collapse onto the profile table's few discrete service
/// times and the latency percentiles would not depend on the seed.
pub const SERVICE_NOISE: f64 = 0.05;

pub struct FleetFaults {
    c: Clustered,
}

impl Workload for FleetFaults {
    const NAME: &'static str = "fleet_faults";
    type Report = FaultReport;

    fn setup(seed: u64, tr: &Tracer, at: Option<SpanId>) -> Self {
        let dist = BatchDistribution::paper_default();
        let (table, _) = tr.span("core.profile", at, |_| {
            let perf = PerfModel::new(DeviceSpec::a100());
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32)
        });
        // Every shard is identical: plan once, clone.
        let (shard, plan_s) = tr.span("core.plan", at, |_| {
            MultiModelServer::new(
                vec![ModelSpec::new("mobilenet_v1", table.clone(), dist.clone())],
                GpcBudget::new(GPUS_PER_SHARD * 7, GPUS_PER_SHARD),
                MultiModelConfig::new()
                    .with_detail(ReportDetail::Summary)
                    .with_service_noise(SERVICE_NOISE, seed),
            )
            .expect("PARIS plans the shard")
        });
        let offered_qps = LOAD * shard.capacity_hint_qps() * SHARDS as f64;
        let (trace, generate_s) = tr.span("workload.generate", at, |_| {
            MultiTraceGenerator::new(
                vec![PhaseSpec::new(
                    DURATION_S,
                    vec![(offered_qps, dist.clone())],
                )],
                seed,
            )
            .generate()
        });
        let (cluster, _) = tr.span("cluster.build", at, |_| {
            Cluster::new(vec![shard.clone(); SHARDS], RouterPolicy::JoinShortestQueue)
                .with_loan(LoanPolicy::new(POOL_GPUS, 0.25))
                .with_lane_capacity(offered_qps)
        });
        // A GPU of shard 3 fails in the first half and a whole shard drops
        // out shortly after; each repairs about 30 % of the run later. The
        // seed jitters where the failures land and how long they last.
        let mut rng = SeedRng::new(seed);
        let mut window = |start: f64| {
            let fail = (start + 0.02 * rng.unit()) * DURATION_S;
            (fail, fail + (0.3 + 0.02 * rng.unit()) * DURATION_S)
        };
        let (gpu_fail, gpu_repair) = window(0.25);
        let (shard_fail, shard_repair) = window(0.35);
        let plan = FaultPlan::new()
            .with_gpu_outage(3, 0, gpu_fail, gpu_repair)
            .with_shard_outage(17, shard_fail, shard_repair);
        FleetFaults {
            c: Clustered {
                seed,
                fifs: fifs_twin(&shard),
                shard,
                cluster,
                trace,
                plan,
                window: SyncWindow::Lookahead(SimDuration::from_nanos(LOOKAHEAD_NS)),
                pool_threads: crate::host_cores().min(2),
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

    fn run(&self, tr: &Tracer, at: Option<SpanId>) -> Outcome<FaultReport> {
        let c = &self.c;
        let (report, _) = tr.span("faults.run", at, |_| {
            c.form().run(ReportDetail::Summary, c.window, 1)
        });
        tr.count(at, "des.events", report.cluster.events_processed as f64);
        c.outcome(&report, format!("{report:?}"))
            .with_report(report)
    }

    fn check(&self, first: &Outcome<FaultReport>, errors: &mut Vec<String>) -> Percentiles {
        self.c.check(&first.report, "invariant 11", errors)
    }

    fn ladder(
        &self,
        first: &Outcome<FaultReport>,
        tr: &Tracer,
        at: Option<SpanId>,
        m: &mut Metrics,
        errors: &mut Vec<String>,
    ) {
        self.c.ladder(&first.report, tr, at, m, errors);
    }
}
