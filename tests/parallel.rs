//! Cross-shard conservation at the synchronization boundary.
//!
//! The shard-parallel engine exchanges router decisions, loan transfers,
//! shed verdicts and fault events between lanes only at conservative
//! window edges (ARCHITECTURE.md invariant 11). These tests aim fault and
//! loan traffic *exactly at* `SyncWindow::Lookahead` edges — the worst
//! case for an off-by-one in the `cmd_stamp <= event_stamp` merge rule —
//! and check that the conservation contracts (invariants 9 and 10) still
//! hold on both sides of the boundary, at every thread count.

use paris_elsa::cluster::{
    Cluster, ClusterReport, FaultTimeline, LoanDemandModel, LoanPolicy, RouterPolicy, ShedPolicy,
    SyncWindow,
};
use paris_elsa::dnn::ModelKind;
use paris_elsa::gpu::{DeviceSpec, PerfModel, ProfileSize};
use paris_elsa::paris::{GpcBudget, ProfileTable};
use paris_elsa::prelude::*;
use paris_elsa::server::{ModelSpec, MultiModelConfig, MultiModelServer, ReportDetail};
use paris_elsa::workload::{
    BatchDistribution, DriftDetectorConfig, MultiTraceGenerator, PhaseSpec, TaggedQuerySpec,
};

/// One conservative window, in nanoseconds. Fault instants in these
/// tests are exact multiples of this, so every injected event lands
/// precisely on a Lookahead window edge.
const WINDOW_NS: u64 = 1_000_000;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A full-detail run at the given window mode and lane thread count.
fn full(window: SyncWindow, threads: usize) -> RunSpec {
    RunSpec {
        window,
        threads,
        ..RunSpec::new(ReportDetail::Full)
    }
}

fn mobilenet_table() -> ProfileTable {
    let perf = PerfModel::new(DeviceSpec::a100());
    ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32)
}

fn shard(table: &ProfileTable, dist: &BatchDistribution, gpus: usize) -> MultiModelServer {
    MultiModelServer::new(
        vec![
            ModelSpec::new("premium", table.clone(), dist.clone()),
            ModelSpec::new("batch", table.clone(), dist.clone()),
        ],
        GpcBudget::new(gpus * 7, gpus),
        MultiModelConfig::new(),
    )
    .unwrap()
}

fn solo_shard(table: &ProfileTable, dist: &BatchDistribution, gpus: usize) -> MultiModelServer {
    MultiModelServer::new(
        vec![ModelSpec::new("m", table.clone(), dist.clone())],
        GpcBudget::new(gpus * 7, gpus),
        MultiModelConfig::new(),
    )
    .unwrap()
}

fn trace_for(cluster: &Cluster, load: f64, secs: f64, seed: u64) -> Vec<TaggedQuerySpec> {
    let dist = BatchDistribution::paper_default();
    let rate = load
        * cluster
            .shards()
            .iter()
            .map(MultiModelServer::capacity_hint_qps)
            .sum::<f64>();
    MultiTraceGenerator::new(
        vec![PhaseSpec::new(
            secs,
            vec![(rate, dist.clone()), (rate, dist)],
        )],
        seed,
    )
    .generate()
}

/// A calm phase (to form the drift detector's baseline) followed by a
/// surge — the rate step is what makes the loan controller wake up.
fn surge_trace(
    cluster: &Cluster,
    calm_load: f64,
    surge_load: f64,
    n_models: usize,
    seed: u64,
) -> Vec<TaggedQuerySpec> {
    let dist = BatchDistribution::paper_default();
    let fleet = cluster
        .shards()
        .iter()
        .map(MultiModelServer::capacity_hint_qps)
        .sum::<f64>();
    let calm = calm_load * fleet / n_models as f64;
    let surge = surge_load * fleet / n_models as f64;
    let mix = |rate: f64| vec![(rate, dist.clone()); n_models];
    MultiTraceGenerator::new(
        vec![
            PhaseSpec::new(0.5, mix(calm)),
            PhaseSpec::new(0.8, mix(surge)),
        ],
        seed,
    )
    .generate()
}

/// Served-or-shed exactness plus per-shard id uniqueness and lifecycle
/// ordering — invariants 9/10, checked from the outside.
fn assert_conserved(report: &ClusterReport, offered: usize) {
    let completed: u64 = report
        .per_shard
        .iter()
        .map(|r| r.records.len() as u64)
        .sum();
    let shed: u64 = report.shed_per_model.iter().sum();
    assert_eq!(
        completed + shed,
        offered as u64,
        "offered must be exactly served + shed"
    );
    for shard_report in &report.per_shard {
        let mut ids: Vec<u64> = shard_report.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            shard_report.records.len(),
            "a query was double-served"
        );
        for r in &shard_report.records {
            assert!(r.arrival <= r.dispatched);
            assert!(r.dispatched <= r.started);
            assert!(r.started < r.completed);
        }
    }
}

/// Replays the loan ledger event-by-event: the pool balance implied by
/// the deltas must match every event's `pool_free_after`, never go
/// negative, never exceed the pool, and no shard may return GPUs it does
/// not hold.
fn assert_pool_conserved(report: &ClusterReport, pool_gpus: usize, shards: usize) {
    let mut pool = pool_gpus as i64;
    let mut held = vec![0i64; shards];
    for ev in &report.loans {
        pool -= ev.gpus_delta;
        held[ev.shard] += ev.gpus_delta;
        assert_eq!(
            pool, ev.pool_free_after as i64,
            "ledger balance diverged at {:?}",
            ev.at
        );
        assert!(
            (0..=pool_gpus as i64).contains(&pool),
            "pool over-committed"
        );
        assert!(
            held[ev.shard] >= 0,
            "shard {} returned unheld GPUs",
            ev.shard
        );
    }
}

fn run_all_threads(
    cluster: &Cluster,
    trace: &[TaggedQuerySpec],
    timeline: &FaultTimeline,
    window: SyncWindow,
) -> ClusterReport {
    let run = |threads: usize| {
        let arrivals = trace.iter().map(|&tq| (None, tq));
        cluster
            .simulate(arrivals, timeline, &full(window, threads))
            .report
    };
    let reference = run(THREADS[0]);
    let want = format!("{reference:?}");
    for &threads in &THREADS[1..] {
        let got = format!("{:?}", run(threads));
        assert_eq!(
            got, want,
            "report diverged at {threads} threads ({window:?})"
        );
    }
    reference
}

#[test]
fn faults_landing_exactly_on_window_edges_conserve_queries() {
    let table = mobilenet_table();
    let dist = BatchDistribution::paper_default();
    let cluster = Cluster::new(
        vec![
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
        ],
        RouterPolicy::JoinShortestQueue,
    )
    .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.8));
    let trace = trace_for(&cluster, 0.6, 0.8, 11);

    // Every instant is an exact multiple of WINDOW_NS: the kill, the
    // whole-shard drain, both repairs and the degrade window all fire on
    // the leading edge of a Lookahead window, where a lane's local events
    // at the same instant race the mailboxed command for merge order.
    let edge = |k: u64| SimTime::from_nanos(k * WINDOW_NS);
    let timeline = FaultTimeline::new(vec![
        (edge(150), FaultEvent::GpuFail { shard: 0, gpu: 0 }),
        (
            edge(200),
            FaultEvent::GpuDegrade {
                shard: 2,
                gpu: 1,
                factor_milli: 2_500,
            },
        ),
        (edge(250), FaultEvent::ShardFail { shard: 1 }),
        (edge(400), FaultEvent::GpuRepair { shard: 0, gpu: 0 }),
        (edge(450), FaultEvent::ShardRepair { shard: 1 }),
        (edge(500), FaultEvent::GpuRestore { shard: 2, gpu: 1 }),
    ]);

    for window in [
        SyncWindow::Lookahead(SimDuration::from_nanos(WINDOW_NS)),
        SyncWindow::PerEvent,
    ] {
        let report = run_all_threads(&cluster, &trace, &timeline, window);
        assert_eq!(report.faults.len(), 6, "all six fault events logged");
        assert_conserved(&report, trace.len());
        let requeued: u64 = report.faults.iter().map(|f| f.requeued).sum();
        let served: u64 = report
            .per_shard
            .iter()
            .map(|r| r.records.len() as u64)
            .sum();
        assert!(
            served + report.shed_per_model.iter().sum::<u64>() >= requeued,
            "requeued queries must re-enter the served/shed population"
        );
    }
}

#[test]
fn loan_transfer_across_the_sync_boundary_conserves_pool_and_queries() {
    let table = mobilenet_table();
    let dist = BatchDistribution::paper_default();
    const POOL: usize = 2;
    let cluster = Cluster::new(
        vec![
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
        ],
        RouterPolicy::JoinShortestQueue,
    )
    .with_loan(
        LoanPolicy::new(POOL, 0.1)
            .with_thresholds(0.6, 0.2)
            .with_demand_model(LoanDemandModel::PlannedEfficiency)
            .with_detector(DriftDetectorConfig::new(0.1).with_min_observations(20)),
    );
    let base = surge_trace(&cluster, 0.4, 1.6, 2, 23);
    // Pin three of every four arrivals to shard 0 so it runs far past its
    // own capacity while the rest idle: the loan controller must move
    // pool GPUs to shard 0 mid-run, and the transfer command crosses the
    // sync boundary into shard 0's lane.
    let pinned: Vec<(Option<usize>, TaggedQuerySpec)> = base
        .iter()
        .enumerate()
        .map(|(i, &tq)| (if i % 4 != 3 { Some(0) } else { None }, tq))
        .collect();

    for window in [
        SyncWindow::Lookahead(SimDuration::from_nanos(WINDOW_NS)),
        SyncWindow::PerEvent,
    ] {
        let run = |threads: usize| {
            let spec = full(window, threads);
            let report = cluster.simulate(pinned.iter().copied(), &FaultTimeline::empty(), &spec);
            report.report
        };
        let reference = run(1);
        let want = format!("{reference:?}");
        for &threads in &THREADS[1..] {
            assert_eq!(
                format!("{:?}", run(threads)),
                want,
                "loan run diverged at {threads} threads ({window:?})"
            );
        }
        assert!(
            !reference.loans.is_empty(),
            "the skewed load must trigger at least one loan transfer"
        );
        assert_conserved(&reference, pinned.len());
        assert_pool_conserved(&reference, POOL, cluster.shards().len());
        assert!(reference.loaned_gpu_seconds > 0.0);
    }
}

#[test]
fn loan_storm_many_shards_one_pool_stays_deterministic() {
    let table = mobilenet_table();
    let dist = BatchDistribution::paper_default();
    const POOL: usize = 1;
    // Eight single-GPU shards all overloaded at once, one lendable GPU:
    // every loan decision window has more claimants than supply, so the
    // winner is decided purely by the deterministic `(time, key)` order —
    // any thread-arrival leak shows up as a different winner.
    let shards: Vec<MultiModelServer> = (0..8).map(|_| solo_shard(&table, &dist, 1)).collect();
    let cluster = Cluster::new(shards, RouterPolicy::JoinShortestQueue).with_loan(
        LoanPolicy::new(POOL, 0.1)
            .with_thresholds(0.5, 0.1)
            .with_demand_model(LoanDemandModel::MeasuredBusy)
            .with_detector(DriftDetectorConfig::new(0.1).with_min_observations(20)),
    );
    let trace = surge_trace(&cluster, 0.4, 1.8, 1, 37);

    for window in [
        SyncWindow::Lookahead(SimDuration::from_nanos(WINDOW_NS)),
        SyncWindow::PerEvent,
    ] {
        let report = run_all_threads(&cluster, &trace, &FaultTimeline::empty(), window);
        assert!(
            !report.loans.is_empty(),
            "the storm must produce loan traffic"
        );
        assert_conserved(&report, trace.len());
        assert_pool_conserved(&report, POOL, cluster.shards().len());
    }
}

#[test]
fn shard_fail_during_borrow_returns_the_loan_and_serves_everything() {
    let table = mobilenet_table();
    let dist = BatchDistribution::paper_default();
    const POOL: usize = 2;
    let cluster = Cluster::new(
        vec![
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
        ],
        RouterPolicy::JoinShortestQueue,
    )
    .with_loan(
        LoanPolicy::new(POOL, 0.1)
            .with_thresholds(0.6, 0.2)
            .with_demand_model(LoanDemandModel::PlannedEfficiency)
            .with_detector(DriftDetectorConfig::new(0.1).with_min_observations(20)),
    );
    let base = surge_trace(&cluster, 0.4, 1.6, 2, 51);
    let pinned: Vec<(Option<usize>, TaggedQuerySpec)> = base
        .iter()
        .enumerate()
        .map(|(i, &tq)| (if i % 3 != 2 { Some(0) } else { None }, tq))
        .collect();
    // Kill the borrower exactly on a window edge mid-run, repair it on a
    // later edge: the drain, the loan return forced by the fail and the
    // re-borrow after repair all cross the sync boundary.
    let edge = |k: u64| SimTime::from_nanos(k * WINDOW_NS);
    let timeline = FaultTimeline::new(vec![
        (edge(800), FaultEvent::ShardFail { shard: 0 }),
        (edge(1000), FaultEvent::ShardRepair { shard: 0 }),
    ]);

    for window in [
        SyncWindow::Lookahead(SimDuration::from_nanos(WINDOW_NS)),
        SyncWindow::PerEvent,
    ] {
        let run = |threads: usize| {
            let spec = full(window, threads);
            cluster
                .simulate(pinned.iter().copied(), &timeline, &spec)
                .report
        };
        let reference = run(1);
        let want = format!("{reference:?}");
        for &threads in &THREADS[1..] {
            assert_eq!(
                format!("{:?}", run(threads)),
                want,
                "fail-during-borrow diverged at {threads} threads ({window:?})"
            );
        }
        assert_conserved(&reference, pinned.len());
        assert_pool_conserved(&reference, POOL, cluster.shards().len());
        assert_eq!(reference.faults.len(), 2);
    }
}

/// Lane pre-sizing from the trace profile must cover the whole run: a
/// cluster built with `with_lane_capacity` sizes every lane's event queue
/// (and coordinator mailbox) up front, so no lane's DES high-water mark may
/// exceed its hint — i.e. the hot loop never grows a heap mid-run. The
/// hints come from `lane_capacity_hints`, pinned here so a formula
/// regression (hint below actual peak) fails loudly.
#[test]
fn lane_capacity_hints_cover_peak_pending() {
    let table = mobilenet_table();
    let dist = BatchDistribution::paper_default();
    let cluster = Cluster::new(
        vec![
            shard(&table, &dist, 2),
            shard(&table, &dist, 2),
            shard(&table, &dist, 3),
            shard(&table, &dist, 2),
        ],
        RouterPolicy::JoinShortestQueue,
    );
    let offered_qps = 0.9
        * cluster
            .shards()
            .iter()
            .map(MultiModelServer::capacity_hint_qps)
            .sum::<f64>();
    let hints = cluster.lane_capacity_hints(offered_qps);
    assert_eq!(hints.len(), cluster.shards().len());
    let cluster = cluster.with_lane_capacity(offered_qps);
    let trace = trace_for(&cluster, 0.9, 0.4, 23);
    for window in [
        SyncWindow::Lookahead(SimDuration::from_nanos(WINDOW_NS)),
        SyncWindow::PerEvent,
    ] {
        let spec = RunSpec {
            window,
            threads: 1,
            ..RunSpec::new(ReportDetail::Summary)
        };
        let arrivals = trace.iter().map(|&tq| (None, tq));
        let report = cluster
            .simulate(arrivals, &FaultTimeline::default(), &spec)
            .report;
        for (s, shard_report) in report.per_shard.iter().enumerate() {
            assert!(
                shard_report.peak_pending_events <= hints[s],
                "lane {s} peaked at {} pending events, above its pre-size hint {} ({window:?})",
                shard_report.peak_pending_events,
                hints[s]
            );
        }
    }
}

/// FNV-1a over a report's `Debug` bytes — a stable fingerprint of every
/// field, so a golden test can pin the whole report in one number.
fn debug_fingerprint(report: &ClusterReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Golden values for one lookahead fleet that exercises every gateway
/// read of shard load: JSQ routing, shed admission, loan rebalancing, a
/// GPU kill and a whole-shard drain. The thread-invariance tests compare a
/// run only against itself at other thread counts, so a load view that is
/// wrong the same way at every thread count passes them; these pinned
/// numbers do not.
#[test]
fn lookahead_fleet_matches_golden_values() {
    let table = mobilenet_table();
    let dist = BatchDistribution::paper_default();
    const SLA_NS: u64 = 20_000_000;
    let sla_shard = || {
        MultiModelServer::new(
            vec![
                ModelSpec::new("premium", table.clone(), dist.clone()).with_sla_ns(SLA_NS),
                ModelSpec::new("batch", table.clone(), dist.clone()).with_sla_ns(SLA_NS),
            ],
            GpcBudget::new(14, 2),
            MultiModelConfig::new(),
        )
        .unwrap()
    };
    let cluster = Cluster::new(
        (0..4).map(|_| sla_shard()).collect(),
        RouterPolicy::JoinShortestQueue,
    )
    .with_loan(
        LoanPolicy::new(2, 0.1)
            .with_thresholds(0.6, 0.2)
            .with_demand_model(LoanDemandModel::PlannedEfficiency)
            .with_detector(DriftDetectorConfig::new(0.1).with_min_observations(20)),
    )
    .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(1.0));
    let base = surge_trace(&cluster, 0.5, 0.9, 2, 61);
    // Pin every fourth arrival to shard 0: its overload drives the loan
    // controller and the shed policy while JSQ balances the remainder.
    let pinned: Vec<(Option<usize>, TaggedQuerySpec)> = base
        .iter()
        .enumerate()
        .map(|(i, &tq)| (if i % 4 == 0 { Some(0) } else { None }, tq))
        .collect();
    let timeline = FaultTimeline::new(vec![
        (
            SimTime::from_nanos(650_300_000),
            FaultEvent::GpuFail { shard: 1, gpu: 0 },
        ),
        (
            SimTime::from_nanos(900_700_000),
            FaultEvent::ShardFail { shard: 2 },
        ),
        (
            SimTime::from_nanos(1_050_000_000),
            FaultEvent::GpuRepair { shard: 1, gpu: 0 },
        ),
        (
            SimTime::from_nanos(1_150_500_000),
            FaultEvent::ShardRepair { shard: 2 },
        ),
    ]);
    let window = SyncWindow::Lookahead(SimDuration::from_nanos(WINDOW_NS));
    let report = cluster
        .simulate(pinned.iter().copied(), &timeline, &full(window, 1))
        .report;
    assert_conserved(&report, pinned.len());
    let loans: Vec<(usize, i64)> = report
        .loans
        .iter()
        .map(|l| (l.shard, l.gpus_delta))
        .collect();
    assert_eq!(report.routed, [4183, 1421, 2326, 2634]);
    assert_eq!(report.shed_per_model, [0, 1964]);
    assert_eq!(loans, [(0, 2)]);
    assert_eq!(debug_fingerprint(&report), 0x6850_1e03_bc3f_052c);
}
