//! # inference-cluster — multi-server sharding with capacity loaning
//!
//! The layer above the server: a [`Cluster`] hosts N *shards* — each a full
//! `inference_server::MultiModelServer` over its own GPC budget — behind a
//! [`ClusterRouter`](RouterPolicy) inside **one** deterministic
//! discrete-event simulation. It scales the paper's elastic loop (PARIS
//! planning + ELSA dispatch + MIG reslicing) past a single server, the way
//! Aryl (arXiv:2202.07896) scales GPU clusters:
//!
//! * [`RouterPolicy`] routes each tagged arrival to a shard — static hash
//!   partitioning, join-shortest-queue on per-shard outstanding load, or
//!   weighted round-robin by planned capacity;
//! * [`LoanPolicy`] implements Aryl-style capacity loaning: a low-priority
//!   batch pool lends whole GPUs to serving shards when the cluster-level
//!   drift detector flags sustained overload, and reclaims them when load
//!   subsides. Both directions re-plan the shard onto its new budget
//!   through the ordinary `plan_diff` → quiesce/drain → reslice-downtime
//!   machinery, so no query is ever dropped mid-transfer;
//! * [`ShedPolicy`] adds brownout admission control: per-model priority
//!   classes, with low classes rejected at the gateway when lost capacity
//!   or surge makes their SLA hopeless — so a correlated outage degrades
//!   *gracefully* instead of dragging premium traffic down with it;
//! * [`ClusterReport`] aggregates per-shard reports, fleet-wide latency,
//!   per-model shed counts, the loan ledger and its opportunity cost.
//!
//! Every run goes through one call, [`Cluster::simulate`]: arrivals and a
//! [`FaultTimeline`] in, driven by a [`RunSpec`] (report detail,
//! [`SyncWindow`] mode, lane threads, what to observe), and a
//! [`RunOutput`] out — the report plus the trace and online registry when
//! the spec asked for them. [`Cluster::run`] is the fault-free
//! convenience over a materialized trace.
//!
//! Two contracts pin the layer down (see [`Cluster`]): a **1-shard cluster
//! degenerates bit-for-bit** to its shard's own run, and **conservation**
//! holds across routing, loans, reclaims and shedding — every offered
//! query is exactly served-or-shed (ARCHITECTURE.md invariant 10).

mod cluster;
mod faults;
mod loan;
mod parallel;
mod router;
mod shed;

pub use cluster::{
    cluster_threads_from_env, Cluster, ClusterReport, FaultRecord, PinnedQuery, RunOutput, RunSpec,
};
pub use faults::{FaultEvent, FaultTimeline};
pub use loan::{degrade_inflated_demand, LoanDemandModel, LoanEvent, LoanPolicy};
pub use parallel::{SyncWindow, WindowProfile};
pub use router::RouterPolicy;
pub use shed::{degraded_capacity_gpus, ShedPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_zoo::ModelKind;
    use inference_server::{
        ModelSpec, MultiModelConfig, MultiModelServer, MultiRunReport, ReportDetail,
    };
    use inference_workload::{
        BatchDistribution, DriftDetectorConfig, MultiTraceGenerator, PhaseSpec, TaggedQuerySpec,
    };
    use mig_gpu::{DeviceSpec, PerfModel, ProfileSize};
    use paris_core::{GpcBudget, ProfileTable};

    fn table() -> ProfileTable {
        let model = ModelKind::MobileNet.build();
        let perf = PerfModel::new(DeviceSpec::a100());
        ProfileTable::profile(&model, &perf, &ProfileSize::ALL, 32)
    }

    fn shard(gpus: usize, table: &ProfileTable, dist: &BatchDistribution) -> MultiModelServer {
        MultiModelServer::new(
            vec![ModelSpec::new("mobilenet", table.clone(), dist.clone())],
            GpcBudget::new(gpus * 7, gpus),
            MultiModelConfig::new(),
        )
        .expect("plan builds")
    }

    /// The offered rate that loads roughly `demand_gpus` full-GPU
    /// equivalents of this shard at planned efficiency — the demand proxy
    /// the loan controller estimates — so tests express load in capacity
    /// units instead of magic rates.
    fn rate_for_demand(server: &MultiModelServer, demand_gpus: f64) -> f64 {
        demand_gpus * server.capacity_hint_qps() / server.budget().num_gpus as f64
    }

    /// `cluster` over `trace` (unpinned) under `faults`, at full detail.
    fn run_full(
        cluster: &Cluster,
        trace: &[TaggedQuerySpec],
        faults: &FaultTimeline,
    ) -> ClusterReport {
        let arrivals = trace.iter().map(|&tq| (None, tq));
        let spec = RunSpec::new(ReportDetail::Full);
        cluster.simulate(arrivals, faults, &spec).report
    }

    fn assert_shard_reports_identical(a: &MultiRunReport, b: &MultiRunReport) {
        assert_eq!(a.records, b.records);
        assert_eq!(a.record_models, b.record_models);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.partition_utilization, b.partition_utilization);
        assert_eq!(a.partition_sizes, b.partition_sizes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.achieved_qps, b.achieved_qps);
        assert_eq!(a.reconfigs, b.reconfigs);
        for (ma, mb) in a.per_model.iter().zip(&b.per_model) {
            assert_eq!(ma.completed, mb.completed);
            assert_eq!(ma.sla_violations, mb.sla_violations);
        }
    }

    fn assert_conserved(report: &ClusterReport, trace: &[TaggedQuerySpec]) {
        let completed: usize = report.per_shard.iter().map(|r| r.records.len()).sum();
        assert_eq!(completed, trace.len(), "nothing dropped, nothing invented");
        for (s, shard_report) in report.per_shard.iter().enumerate() {
            // Query ids are shard-local and must be unique within a shard.
            let mut ids: Vec<u64> = shard_report.records.iter().map(|r| r.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                shard_report.records.len(),
                "shard {s} double-served a query"
            );
            assert_eq!(shard_report.records.len() as u64, report.routed[s]);
        }
    }

    #[test]
    fn one_shard_cluster_degenerates_to_the_server() {
        let t = table();
        let dist = BatchDistribution::paper_default();
        let server = shard(3, &t, &dist);
        let rate = rate_for_demand(&server, 1.5);
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(1.0, vec![(rate, dist)])], 11).generate();
        let expected = server.run_stream(trace.iter().copied(), ReportDetail::Full);
        for router in [
            RouterPolicy::StaticHash,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::WeightedByCapacity,
        ] {
            let cluster = Cluster::new(vec![server.clone()], router);
            let got = run_full(&cluster, &trace, &FaultTimeline::empty());
            assert_shard_reports_identical(&got.per_shard[0], &expected);
            assert_eq!(got.completed(), expected.completed());
            assert_eq!(got.makespan, expected.makespan);
            assert!(got.loans.is_empty());
        }
    }

    #[test]
    fn jsq_beats_static_hash_on_heterogeneous_shards() {
        let t = table();
        let dist = BatchDistribution::paper_default();
        // A 3-GPU shard next to a 1-GPU shard: uniform hashing sends half
        // the traffic to a quarter of the capacity. Offer 90 % of the
        // fleet's *planned* capacity, so balanced routing copes while the
        // hashed small shard drowns at ~1.8× its own capacity.
        let shards = || vec![shard(3, &t, &dist), shard(1, &t, &dist)];
        let rate = 0.9
            * shards()
                .iter()
                .map(MultiModelServer::capacity_hint_qps)
                .sum::<f64>();
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(2.0, vec![(rate, dist.clone())])], 5)
                .generate();
        let hashed = Cluster::new(shards(), RouterPolicy::StaticHash).run(&trace);
        let jsq = Cluster::new(shards(), RouterPolicy::JoinShortestQueue).run(&trace);
        let weighted = Cluster::new(shards(), RouterPolicy::WeightedByCapacity).run(&trace);
        assert_conserved(&hashed, &trace);
        assert_conserved(&jsq, &trace);
        assert_conserved(&weighted, &trace);
        // Load-aware (and capacity-aware) routing must beat uniform
        // hashing on the worst shard's tail.
        assert!(
            jsq.worst_p95_sla_ratio() < hashed.worst_p95_sla_ratio(),
            "jsq {} vs hash {}",
            jsq.worst_p95_sla_ratio(),
            hashed.worst_p95_sla_ratio()
        );
        assert!(weighted.worst_p95_sla_ratio() < hashed.worst_p95_sla_ratio());
        // JSQ sends more traffic to the bigger shard.
        assert!(jsq.routed[0] > 2 * jsq.routed[1]);
    }

    /// A calm → surge → calm schedule around a single 2-GPU shard with a
    /// 2-GPU batch pool.
    fn surge_cluster_and_trace(pool: usize) -> (Cluster, Cluster, Vec<TaggedQuerySpec>) {
        let t = table();
        let dist = BatchDistribution::paper_default();
        let serving = shard(2, &t, &dist);
        let calm = rate_for_demand(&serving, 1.0);
        let surge = rate_for_demand(&serving, 3.2);
        let trace = MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(1.5, vec![(calm, dist.clone())]),
                PhaseSpec::new(2.5, vec![(surge, dist.clone())]),
                PhaseSpec::new(2.0, vec![(calm, dist.clone())]),
            ],
            23,
        )
        .generate();
        let policy = LoanPolicy::new(pool, 0.25)
            .with_detector(DriftDetectorConfig::new(0.25).with_min_observations(20));
        let base = Cluster::new(vec![serving], RouterPolicy::JoinShortestQueue);
        let loaning = base.clone().with_loan(policy);
        (base, loaning, trace)
    }

    #[test]
    fn loans_engage_on_surge_and_reclaim_after() {
        let (_, loaning, trace) = surge_cluster_and_trace(2);
        let report = loaning.run(&trace);
        assert_conserved(&report, &trace);
        let borrowed: i64 = report
            .loans
            .iter()
            .filter(|l| l.gpus_delta > 0)
            .map(|l| l.gpus_delta)
            .sum();
        let returned: i64 = report
            .loans
            .iter()
            .filter(|l| l.gpus_delta < 0)
            .map(|l| -l.gpus_delta)
            .sum();
        assert!(borrowed > 0, "the surge must trigger a loan");
        assert!(returned > 0, "the calm tail must reclaim");
        assert!(returned <= borrowed, "cannot return more than was lent");
        assert!(report.loaned_gpu_seconds > 0.0);
        // The ledger never over-lends the pool.
        for l in &report.loans {
            assert!(l.pool_free_after <= 2);
        }
        // Loan-triggered re-plans really happened and charged downtime.
        assert!(report.total_reconfigs() >= 2);
    }

    #[test]
    fn loaning_outserves_the_fixed_shard_under_surge() {
        let (base, loaning, trace) = surge_cluster_and_trace(2);
        let fixed = base.run(&trace);
        let loaned = loaning.run(&trace);
        assert_conserved(&fixed, &trace);
        assert_conserved(&loaned, &trace);
        assert!(
            loaned.worst_violation_rate() < fixed.worst_violation_rate(),
            "borrowed GPUs must cut surge violations: loaned {} vs fixed {}",
            loaned.worst_violation_rate(),
            fixed.worst_violation_rate()
        );
    }

    #[test]
    fn rolling_loans_conserve_queries_and_still_engage() {
        // The loan path consumes the same ReconfigSchedule machinery as
        // drift re-plans: with rolling staging, borrowed GPUs still engage
        // on the surge, reclaims still return them, and conservation holds
        // across every partial step.
        use paris_core::ReconfigMode;
        let (_, loaning, trace) = surge_cluster_and_trace(2);
        let policy = loaning
            .loan()
            .expect("loaning cluster")
            .clone()
            .with_mode(ReconfigMode::Rolling);
        let rolling = Cluster::new(loaning.shards().to_vec(), loaning.router()).with_loan(policy);
        let report = run_full(&rolling, &trace, &FaultTimeline::empty());
        assert_conserved(&report, &trace);
        assert!(
            report.loans.iter().any(|l| l.gpus_delta > 0),
            "the surge must still trigger a loan under rolling staging"
        );
        for r in report.per_shard.iter().flat_map(|r| &r.records) {
            assert!(r.arrival <= r.dispatched);
            assert!(r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
        for rc in report.per_shard.iter().flat_map(|r| &r.reconfigs) {
            assert!(rc.steps >= 1);
        }
    }

    #[test]
    fn reclaim_mid_drain_strands_no_query() {
        // The reclaim path shrinks a shard's budget while its queues are
        // still busy: the removed instances must drain (serving every
        // queued query) before their GPUs go home. Conservation at full
        // detail proves no query was stranded on a removed GPU.
        let (_, loaning, trace) = surge_cluster_and_trace(2);
        let report = run_full(&loaning, &trace, &FaultTimeline::empty());
        assert_conserved(&report, &trace);
        assert!(
            report.loans.iter().any(|l| l.gpus_delta < 0),
            "scenario must exercise a reclaim"
        );
        // A reclaim destroys instances; the drained instances' queries all
        // completed (ids are dense per shard thanks to conservation), and
        // lifecycle timestamps stay ordered even across the transition.
        assert!(report
            .per_shard
            .iter()
            .flat_map(|r| &r.reconfigs)
            .any(|rc| rc.destroyed > 0));
        for r in report.per_shard.iter().flat_map(|r| &r.records) {
            assert!(r.arrival <= r.dispatched);
            assert!(r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
    }

    #[test]
    fn shared_event_queue_stays_small() {
        // O(partitions + frontend backlog): at this moderate load the
        // gateway backlog is a handful of bursty arrivals, never O(trace).
        let (_, loaning, trace) = surge_cluster_and_trace(2);
        let arrivals = trace.iter().map(|&tq| (None, tq));
        let spec = RunSpec::new(ReportDetail::Summary);
        let report = loaning
            .simulate(arrivals, &FaultTimeline::empty(), &spec)
            .report;
        let total_partitions: usize = report
            .per_shard
            .iter()
            .map(|r| r.partition_sizes.len())
            .sum();
        assert!(
            report.peak_pending_events <= total_partitions + report.per_shard.len() + 32,
            "streamed cluster queue stays O(partitions + backlog), got {}",
            report.peak_pending_events
        );
        assert!(report.peak_pending_events < trace.len() / 10);
    }

    #[test]
    fn empty_fault_timeline_and_lane_sizing_are_unobservable() {
        // Two ground rules in one comparison. With no fault events and no
        // pins, the general entry must be byte-identical to the fault-free
        // `run` — the machinery costs nothing until an event fires, which
        // keeps BENCH_cluster.json reproducible under an empty FaultPlan.
        // And `run` sizes its lanes from the trace's offered rate while
        // `simulate` uses the structural floor: lane pre-sizing is never
        // observable in any report.
        let t = table();
        let dist = BatchDistribution::paper_default();
        let cluster = Cluster::new(
            vec![shard(2, &t, &dist), shard(1, &t, &dist)],
            RouterPolicy::JoinShortestQueue,
        )
        .with_loan(
            LoanPolicy::new(1, 0.25)
                .with_detector(DriftDetectorConfig::new(0.25).with_min_observations(20)),
        );
        let rate = 0.8
            * cluster
                .shards()
                .iter()
                .map(MultiModelServer::capacity_hint_qps)
                .sum::<f64>();
        let trace = MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(0.6, vec![(0.5 * rate, dist.clone())]),
                PhaseSpec::new(0.8, vec![(rate, dist)]),
            ],
            31,
        )
        .generate();
        let plain = cluster.run(&trace);
        let faulted = run_full(&cluster, &trace, &FaultTimeline::empty());
        assert!(faulted.faults.is_empty());
        assert_eq!(faulted.routed, plain.routed);
        assert_eq!(faulted.loans, plain.loans);
        assert_eq!(faulted.makespan, plain.makespan);
        assert_eq!(faulted.peak_pending_events, plain.peak_pending_events);
        for (a, b) in faulted.per_shard.iter().zip(&plain.per_shard) {
            assert_shard_reports_identical(a, b);
        }
    }

    #[test]
    fn gpu_fail_requeues_work_and_recovery_replans() {
        use des_engine::SimTime;
        let t = table();
        let dist = BatchDistribution::paper_default();
        let serving = shard(2, &t, &dist);
        let rate = rate_for_demand(&serving, 1.6);
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(3.0, vec![(rate, dist)])], 41).generate();
        let cluster = Cluster::new(vec![serving], RouterPolicy::JoinShortestQueue);
        let timeline = FaultTimeline::new(vec![
            (
                SimTime::from_nanos(500_000_000),
                FaultEvent::GpuFail { shard: 0, gpu: 0 },
            ),
            (
                SimTime::from_nanos(1_500_000_000),
                FaultEvent::GpuRepair { shard: 0, gpu: 0 },
            ),
        ]);
        let report = run_full(&cluster, &trace, &timeline);
        assert_conserved(&report, &trace);
        assert_eq!(report.faults.len(), 2);
        assert!(
            report.faults[0].requeued > 0,
            "a loaded GPU must have had work to requeue: {:?}",
            report.faults
        );
        // Fail and repair each re-plan the shard (fail shrinks to the
        // survivor GPU, repair grows back).
        assert!(
            report.total_reconfigs() >= 2,
            "expected recovery re-plans, got {:?}",
            report.per_shard[0].reconfigs
        );
        // Lifecycle stays ordered across the kill/requeue path.
        for r in report.per_shard.iter().flat_map(|r| &r.records) {
            assert!(r.arrival <= r.dispatched);
            assert!(r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
    }

    #[test]
    fn shard_fail_drains_excludes_and_rejoins() {
        use des_engine::SimTime;
        let t = table();
        let dist = BatchDistribution::paper_default();
        let shards = vec![shard(2, &t, &dist), shard(2, &t, &dist)];
        let rate = 0.6
            * shards
                .iter()
                .map(MultiModelServer::capacity_hint_qps)
                .sum::<f64>();
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(3.0, vec![(rate, dist)])], 43).generate();
        let cluster = Cluster::new(shards, RouterPolicy::JoinShortestQueue);
        let fail_ns = 800_000_000u64;
        let repair_ns = 2_000_000_000u64;
        let timeline = FaultTimeline::new(vec![
            (
                SimTime::from_nanos(fail_ns),
                FaultEvent::ShardFail { shard: 1 },
            ),
            (
                SimTime::from_nanos(repair_ns),
                FaultEvent::ShardRepair { shard: 1 },
            ),
        ]);
        let report = run_full(&cluster, &trace, &timeline);
        assert_conserved(&report, &trace);
        // The drain contract: no query that arrived during the outage
        // landed on the failed shard...
        for r in &report.per_shard[1].records {
            let a = r.arrival.as_nanos();
            assert!(
                a < fail_ns || a >= repair_ns,
                "query arriving at {a} routed to the dead shard"
            );
        }
        // ...but everything it held at fail time was served, and traffic
        // returned after the repair.
        assert!(report.per_shard[1]
            .records
            .iter()
            .any(|r| r.arrival.as_nanos() >= repair_ns));
        assert!(report.routed[1] > 0);
    }

    #[test]
    fn pinned_queries_follow_their_shard_and_fail_over() {
        use des_engine::SimTime;
        let t = table();
        let dist = BatchDistribution::paper_default();
        let shards = vec![shard(2, &t, &dist), shard(2, &t, &dist)];
        let rate = 0.4 * shards[1].capacity_hint_qps();
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(2.0, vec![(rate, dist)])], 47).generate();
        // Every query pinned to shard 1; shard 1 dies mid-run and never
        // recovers within the trace.
        let fail_ns = 1_000_000_000u64;
        let timeline = FaultTimeline::new(vec![(
            SimTime::from_nanos(fail_ns),
            FaultEvent::ShardFail { shard: 1 },
        )]);
        let cluster = Cluster::new(shards, RouterPolicy::JoinShortestQueue);
        let pinned = trace.iter().map(|&tq| (Some(1), tq));
        let spec = RunSpec::new(ReportDetail::Full);
        let report = cluster.simulate(pinned, &timeline, &spec).report;
        assert_conserved(&report, &trace);
        // Pins honored while alive, router fallback after the fail.
        for r in &report.per_shard[0].records {
            assert!(
                r.arrival.as_nanos() >= fail_ns,
                "shard 0 only sees failed-over traffic"
            );
        }
        assert!(
            report.routed[0] > 0,
            "failover must have rerouted the pinned stream"
        );
        assert!(report.per_shard[1]
            .records
            .iter()
            .all(|r| r.arrival.as_nanos() < fail_ns));
    }

    #[test]
    fn measured_busy_demand_model_still_engages_loans() {
        // The measured model reads what the hardware did, so it saturates
        // at current capacity under overload: the surge must be coverable
        // by the pool (demand ≤ base + pool) or the drained backlog keeps
        // the calm windows busy and the reclaim honestly never triggers.
        use crate::loan::LoanDemandModel;
        let t = table();
        let dist = BatchDistribution::paper_default();
        let serving = shard(2, &t, &dist);
        let calm = rate_for_demand(&serving, 1.0);
        let surge = rate_for_demand(&serving, 2.4);
        let trace = MultiTraceGenerator::new(
            vec![
                PhaseSpec::new(1.5, vec![(calm, dist.clone())]),
                PhaseSpec::new(2.5, vec![(surge, dist.clone())]),
                PhaseSpec::new(2.0, vec![(calm, dist.clone())]),
            ],
            23,
        )
        .generate();
        let policy = LoanPolicy::new(2, 0.25)
            .with_detector(DriftDetectorConfig::new(0.25).with_min_observations(20))
            .with_demand_model(LoanDemandModel::MeasuredBusy);
        let measured =
            Cluster::new(vec![serving], RouterPolicy::JoinShortestQueue).with_loan(policy);
        let report = measured.run(&trace);
        assert_conserved(&report, &trace);
        assert!(
            report.loans.iter().any(|l| l.gpus_delta > 0),
            "measured busy fractions must still trigger the surge borrow: {:?}",
            report.loans
        );
        assert!(
            report.loans.iter().any(|l| l.gpus_delta < 0),
            "and the calm tail must still reclaim: {:?}",
            report.loans
        );
    }

    #[test]
    fn shed_policy_conserves_and_never_sheds_premium() {
        // Two models on one overloaded 2-GPU shard: "premium" (class 0)
        // and "batch" (class 1). Under a 3× surge the shed policy must
        // reject batch traffic at admission while premium is never shed,
        // and every offered query is exactly served-or-shed (invariant
        // 10).
        let t = table();
        let dist = BatchDistribution::paper_default();
        let serving = MultiModelServer::new(
            vec![
                ModelSpec::new("premium", t.clone(), dist.clone()),
                ModelSpec::new("batch", t.clone(), dist.clone()),
            ],
            GpcBudget::new(14, 2),
            MultiModelConfig::new(),
        )
        .expect("plan builds");
        let rate = 1.5 * serving.capacity_hint_qps();
        let trace = MultiTraceGenerator::new(
            vec![PhaseSpec::new(
                2.5,
                vec![(rate, dist.clone()), (rate, dist)],
            )],
            53,
        )
        .generate();
        let cluster = Cluster::new(vec![serving], RouterPolicy::JoinShortestQueue)
            .with_shed(ShedPolicy::new(vec![0, 1]));
        let report = cluster.run(&trace);
        let completed: usize = report.per_shard.iter().map(|r| r.records.len()).sum();
        assert_eq!(
            completed as u64 + report.total_shed(),
            trace.len() as u64,
            "every query is exactly served-or-shed"
        );
        assert_eq!(report.shed_per_model[0], 0, "premium is never shed");
        assert!(
            report.shed_per_model[1] > 0,
            "the surge must shed batch traffic: {:?}",
            report.shed_per_model
        );
        // Shed queries never became load: routed still equals records.
        for (s, shard_report) in report.per_shard.iter().enumerate() {
            assert_eq!(shard_report.records.len() as u64, report.routed[s]);
        }
    }

    #[test]
    fn gpu_fail_mid_rolling_recovery_aborts_and_conserves() {
        // A second GPU dies while the rolling recovery re-plan from the
        // first failure is still mid-step: the in-flight transition must
        // abort (reviving its quiesced survivors) rather than strand the
        // step, and conservation must hold through abort + kill + the
        // follow-up re-plan.
        use des_engine::SimTime;
        let t = table();
        let dist = BatchDistribution::paper_default();
        let serving = shard(3, &t, &dist);
        let rate = rate_for_demand(&serving, 2.0);
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(3.0, vec![(rate, dist)])], 59).generate();
        let cluster = Cluster::new(vec![serving], RouterPolicy::JoinShortestQueue);
        let timeline = FaultTimeline::new(vec![
            (
                SimTime::from_nanos(500_000_000),
                FaultEvent::GpuFail { shard: 0, gpu: 0 },
            ),
            (
                SimTime::from_nanos(501_000_000),
                FaultEvent::GpuFail { shard: 0, gpu: 1 },
            ),
            (
                SimTime::from_nanos(1_800_000_000),
                FaultEvent::GpuRepair { shard: 0, gpu: 0 },
            ),
            (
                SimTime::from_nanos(1_900_000_000),
                FaultEvent::GpuRepair { shard: 0, gpu: 1 },
            ),
        ]);
        let report = run_full(&cluster, &trace, &timeline);
        assert_conserved(&report, &trace);
        assert!(
            report.per_shard[0].reconfigs.iter().any(|rc| rc.aborted),
            "the second fail must abort the in-flight rolling recovery: {:?}",
            report.per_shard[0].reconfigs
        );
        // The cluster still recovered: a completed (non-aborted) re-plan
        // follows, and lifecycle stays ordered through the abort.
        assert!(report.per_shard[0].reconfigs.iter().any(|rc| !rc.aborted));
        for r in report.per_shard.iter().flat_map(|r| &r.records) {
            assert!(r.arrival <= r.dispatched);
            assert!(r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
    }

    #[test]
    fn unit_degrade_is_bit_identical_and_real_degrade_slows_the_tail() {
        use des_engine::SimTime;
        let t = table();
        let dist = BatchDistribution::paper_default();
        let serving = shard(2, &t, &dist);
        let rate = rate_for_demand(&serving, 1.5);
        let trace =
            MultiTraceGenerator::new(vec![PhaseSpec::new(3.0, vec![(rate, dist)])], 61).generate();
        let cluster = Cluster::new(vec![serving], RouterPolicy::JoinShortestQueue);
        let plain = run_full(&cluster, &trace, &FaultTimeline::empty());
        // Factor 1.0 "degrade": the whole degrade/restore cycle must be
        // bit-for-bit the fault-free run — the only trace it leaves is the
        // fault log itself.
        let unit = FaultTimeline::new(vec![
            (
                SimTime::from_nanos(400_000_000),
                FaultEvent::GpuDegrade {
                    shard: 0,
                    gpu: 0,
                    factor_milli: 1000,
                },
            ),
            (
                SimTime::from_nanos(1_200_000_000),
                FaultEvent::GpuRestore { shard: 0, gpu: 0 },
            ),
        ]);
        let unit_report = run_full(&cluster, &trace, &unit);
        assert_eq!(unit_report.faults.len(), 2);
        assert_eq!(unit_report.routed, plain.routed);
        for (a, b) in unit_report.per_shard.iter().zip(&plain.per_shard) {
            assert_shard_reports_identical(a, b);
        }
        // A real 4× slow-GPU window conserves every query but drags the
        // tail: the throttled instances keep serving, just slower.
        let slow = FaultTimeline::new(vec![
            (
                SimTime::from_nanos(400_000_000),
                FaultEvent::GpuDegrade {
                    shard: 0,
                    gpu: 0,
                    factor_milli: 4000,
                },
            ),
            (
                SimTime::from_nanos(2_000_000_000),
                FaultEvent::GpuRestore { shard: 0, gpu: 0 },
            ),
        ]);
        let slow_report = run_full(&cluster, &trace, &slow);
        assert_conserved(&slow_report, &trace);
        assert!(
            slow_report.histogram.percentile_ms(0.95) > plain.histogram.percentile_ms(0.95),
            "a 4x slow GPU must drag the p95 tail: slow {} vs plain {}",
            slow_report.histogram.percentile_ms(0.95),
            plain.histogram.percentile_ms(0.95)
        );
    }

    #[test]
    #[should_panic(expected = "same number of models")]
    fn mismatched_shard_model_counts_panic() {
        let t = table();
        let dist = BatchDistribution::paper_default();
        let one = shard(2, &t, &dist);
        let two = MultiModelServer::new(
            vec![
                ModelSpec::new("a", t.clone(), dist.clone()),
                ModelSpec::new("b", t.clone(), dist),
            ],
            GpcBudget::new(14, 2),
            MultiModelConfig::new(),
        )
        .expect("plan builds");
        let _ = Cluster::new(vec![one, two], RouterPolicy::StaticHash);
    }
}
