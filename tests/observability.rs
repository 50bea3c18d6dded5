//! Observability-layer integration tests: invariant 12 (zero observer
//! effect), invariant 13 (online telemetry ≡ the `from_trace` oracle),
//! trace determinism across thread counts, and the flight recorder's
//! conservation / exact-breakdown guarantees.
//!
//! The property tests are the contract the whole `obs` crate hangs off:
//! attaching the recorder must leave the fault report **byte-identical**
//! (full `Debug` rendering) to the untraced run, and the live metric
//! registry must equal `MetricRegistry::from_trace` of the same run byte
//! for byte, for any router policy, sampled fault plan, sync-window mode
//! and lane thread count. The unit tests pin what the trace itself must
//! satisfy: offered = routed + shed, arrivals = completed, and per-class
//! latency components that sum to the measured end-to-end latency in
//! integer nanoseconds with no residual.

use paris_elsa::cluster::{Cluster, RouterPolicy, ShedPolicy, SyncWindow};
use paris_elsa::dnn::ModelKind;
use paris_elsa::faults::{FaultPlan, FaultReport, FaultTopology};
use paris_elsa::obs::{
    alert_records, analyze, attribute_alerts, attribute_window, check_conservation, evaluate_slos,
    worst_window, MetricRegistry, QueryTrace, SloSpec, WindowAttribution,
};
use paris_elsa::prelude::*;
use proptest::prelude::*;

fn mobilenet_table() -> ProfileTable {
    let perf = PerfModel::new(DeviceSpec::a100());
    ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32)
}

/// A two-model shard on `gpus` GPUs, summary detail (the scenario-bench
/// configuration, scaled down).
fn shard(table: &ProfileTable, gpus: usize) -> MultiModelServer {
    let dist = BatchDistribution::paper_default();
    MultiModelServer::new(
        vec![
            ModelSpec::new("premium", table.clone(), dist.clone()),
            ModelSpec::new("batch", table.clone(), dist),
        ],
        GpcBudget::new(gpus * 7, gpus),
        MultiModelConfig::new().with_detail(ReportDetail::Summary),
    )
    .expect("shard plan builds")
}

/// Two 2-GPU shards with brownout shedding on both classes.
fn small_cluster(table: &ProfileTable, policy: RouterPolicy) -> Cluster {
    Cluster::new(vec![shard(table, 2), shard(table, 2)], policy)
        .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.5))
}

/// Two equal-rate arrival streams (premium + batch) at `frac` of fleet
/// capacity combined, over `duration_s` simulated seconds.
fn arrivals(cluster: &Cluster, duration_s: f64, frac: f64, seed: u64) -> Vec<TaggedQuerySpec> {
    let dist = BatchDistribution::paper_default();
    let fleet: f64 = cluster
        .shards()
        .iter()
        .map(MultiModelServer::capacity_hint_qps)
        .sum();
    let per_model = 0.5 * frac * fleet;
    MultiTraceGenerator::new(
        vec![PhaseSpec::new(
            duration_s,
            vec![(per_model, dist.clone()), (per_model, dist)],
        )],
        seed,
    )
    .generate()
}

/// One unpinned run of `trace_in` under `plan`, driven as `spec` says.
fn run(
    cluster: &Cluster,
    trace_in: &[TaggedQuerySpec],
    plan: &FaultPlan,
    spec: RunSpec,
) -> RunOutput<FaultReport> {
    run_with_faults(cluster, trace_in.iter().map(|&tq| (None, tq)), plan, &spec)
}

/// The unit suite's fixture: a mid-run rack outage on shard 0 under
/// moderate overload, traced at the given sync window and thread count.
fn traced_outage_run(
    table: &ProfileTable,
    window: SyncWindow,
    threads: usize,
) -> (FaultReport, QueryTrace) {
    let cluster = small_cluster(table, RouterPolicy::JoinShortestQueue);
    let trace_in = arrivals(&cluster, 1.0, 0.8, 7);
    let topology = FaultTopology::racks(&[2, 2], 2);
    let plan = FaultPlan::new().with_domain_outage(&topology, "rack0", 0.3, 0.7);
    let spec = RunSpec {
        detail: ReportDetail::Summary,
        window,
        threads,
        obs: ObsRequest::traced(),
    };
    let out = run(&cluster, &trace_in, &plan, spec);
    (out.report, out.trace.expect("traced run"))
}

#[test]
fn flight_recorder_conserves_queries() {
    let table = mobilenet_table();
    let (report, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1);
    assert!(!trace.is_empty(), "outage run must record events");

    let stats = check_conservation(&trace).expect("per-query lifecycle balances");
    assert_eq!(stats.offered, stats.routed + stats.shed, "admission ledger");
    assert_eq!(stats.arrivals, stats.completed, "lifecycle conservation");
    assert!(stats.shed > 0, "the outage must brown out some batch load");
    assert_eq!(
        stats.completed,
        report.cluster.completed(),
        "trace-counted completions match the report"
    );
}

#[test]
fn breakdown_components_sum_exactly() {
    let table = mobilenet_table();
    let (_, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1);
    let analysis = analyze(&trace);
    assert_eq!(analysis.classes.len(), 2, "premium and batch rows");
    for class in &analysis.classes {
        assert!(
            class.completed > 0,
            "class {} completed nothing",
            class.group
        );
        assert_eq!(
            class.components_sum(),
            class.total_latency_ns as i128,
            "class {} breakdown must sum to end-to-end latency exactly",
            class.group
        );
    }
    let stats = check_conservation(&trace).expect("conserved");
    assert_eq!(
        analysis.classes.iter().map(|c| c.completed).sum::<u64>(),
        stats.completed,
        "per-class completions partition the total"
    );
}

#[test]
fn trace_is_thread_count_invariant() {
    let table = mobilenet_table();
    for window in [
        SyncWindow::PerEvent,
        SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000)),
    ] {
        let (report1, trace1) = traced_outage_run(&table, window, 1);
        let (report4, trace4) = traced_outage_run(&table, window, 4);
        assert_eq!(
            format!("{report1:?}"),
            format!("{report4:?}"),
            "report diverged across thread counts ({window:?})"
        );
        assert_eq!(
            trace1, trace4,
            "trace diverged across thread counts ({window:?})"
        );
    }
}

#[test]
fn metric_registry_covers_the_run() {
    let table = mobilenet_table();
    let (_, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1);
    let window_ns = 100_000_000;
    let registry = MetricRegistry::from_trace(&trace, window_ns, &[14, 14]);
    for s in 0..2 {
        let busy = registry
            .get(&format!("shard{s}/busy_gpc_fraction"))
            .unwrap_or_else(|| panic!("shard{s} busy series"));
        assert!(!busy.values.is_empty());
        assert!(
            busy.values.iter().all(|v| (0.0..=1.0).contains(v)),
            "busy-GPC fraction is a fraction"
        );
        assert!(
            registry.get(&format!("shard{s}/outstanding")).is_some(),
            "shard{s} outstanding series"
        );
    }
    let shed = registry.get("fleet/shed_rate").expect("fleet shed series");
    assert!(
        shed.values.iter().any(|&v| v > 0.0),
        "the outage window must show sheds on the grid"
    );
}

/// Alert annotations live on their own lane and hit no registry fold:
/// stamping a fired alert log back onto the trace must reproduce the
/// exact same registry (so `trace_report --slo` can annotate freely).
#[test]
fn alert_annotations_are_registry_neutral() {
    let table = mobilenet_table();
    let (_, trace) = traced_outage_run(&table, SyncWindow::PerEvent, 1);
    let window_ns = 100_000_000;
    let registry = MetricRegistry::from_trace(&trace, window_ns, &[14, 14]);
    let specs = [
        SloSpec::new("premium-avail", 0, 0.9).with_windows(2, 6),
        SloSpec::new("batch-avail", 1, 0.5).with_windows(2, 6),
    ];
    let alerts = evaluate_slos(&registry, &specs);
    assert!(
        !alerts.is_empty(),
        "a rack outage under overload must burn an error budget"
    );
    let annotated = trace.annotated(alert_records(&alerts, window_ns).into_records());
    assert!(annotated.len() > trace.len(), "annotations were merged");
    let replayed = MetricRegistry::from_trace(&annotated, window_ns, &[14, 14]);
    assert_eq!(registry, replayed, "alert rows changed the registry");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 12 (ARCHITECTURE.md): attaching the flight recorder is a
    /// pure observation — for ANY router policy, fault plan, sync-window
    /// mode and lane thread count, the traced run's report is byte-identical
    /// (full `Debug` rendering) to the untraced run's, and the trace itself
    /// is identical across thread counts.
    #[test]
    fn tracing_is_zero_observer_effect(
        seed in 0u64..8,
        router in 0u64..3,
        fault_kind in 0u64..4,
        mode in 0u64..2,
        degrade_factor in 1.5f64..4.0,
    ) {
        let table = mobilenet_table();
        let policy = match router {
            0 => RouterPolicy::StaticHash,
            1 => RouterPolicy::JoinShortestQueue,
            _ => RouterPolicy::WeightedByCapacity,
        };
        let cluster = small_cluster(&table, policy);
        let trace_in = arrivals(&cluster, 0.4, 0.7, seed);
        let plan = match fault_kind {
            0 => FaultPlan::new(),
            1 => FaultPlan::new().with_gpu_degrade(1, 0, degrade_factor, 0.1, 0.3),
            2 => FaultPlan::new().with_domain_outage(
                &FaultTopology::racks(&[2, 2], 2),
                "rack0",
                0.1,
                0.3,
            ),
            _ => FaultPlan::sample_gpu_mttf(&[2, 2], 0.9, 0.2, 0.4, seed),
        };
        let window = if mode == 0 {
            SyncWindow::PerEvent
        } else {
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000))
        };

        let mut traces: Vec<QueryTrace> = Vec::new();
        for threads in [1usize, 4] {
            let spec = RunSpec {
                detail: ReportDetail::Full,
                window,
                threads,
                obs: ObsRequest::OFF,
            };
            let untraced = run(&cluster, &trace_in, &plan, spec).report;
            let out = run(&cluster, &trace_in, &plan, RunSpec { obs: ObsRequest::traced(), ..spec });
            let (traced, trace) = (out.report, out.trace.expect("traced run"));
            prop_assert_eq!(
                format!("{untraced:?}"),
                format!("{traced:?}"),
                "observer effect at {} threads ({:?})",
                threads,
                window
            );
            prop_assert!(!trace.is_empty(), "a loaded run must record events");
            traces.push(trace);
        }
        prop_assert!(
            traces[0] == traces[1],
            "trace diverged between 1 and 4 threads ({:?})",
            window
        );
    }

    /// Invariant 13 (ARCHITECTURE.md): the online telemetry plane — per-lane
    /// streaming aggregates merged in lane order, no trace retention — must
    /// equal `MetricRegistry::from_trace` of the same run **byte for byte**,
    /// for any router policy, fault plan, sync-window mode and thread count,
    /// and the registry itself must be identical across thread counts.
    #[test]
    fn online_registry_matches_from_trace_oracle(
        seed in 0u64..8,
        router in 0u64..3,
        fault_kind in 0u64..4,
        mode in 0u64..2,
    ) {
        let table = mobilenet_table();
        let policy = match router {
            0 => RouterPolicy::StaticHash,
            1 => RouterPolicy::JoinShortestQueue,
            _ => RouterPolicy::WeightedByCapacity,
        };
        let cluster = small_cluster(&table, policy);
        let trace_in = arrivals(&cluster, 0.4, 0.7, seed);
        let plan = match fault_kind {
            0 => FaultPlan::new(),
            1 => FaultPlan::new().with_gpu_degrade(1, 0, 2.5, 0.1, 0.3),
            2 => FaultPlan::new().with_domain_outage(
                &FaultTopology::racks(&[2, 2], 2),
                "rack0",
                0.1,
                0.3,
            ),
            _ => FaultPlan::sample_gpu_mttf(&[2, 2], 0.9, 0.2, 0.4, seed),
        };
        let window = if mode == 0 {
            SyncWindow::PerEvent
        } else {
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000))
        };
        let window_ns = 50_000_000u64;

        let mut registries: Vec<MetricRegistry> = Vec::new();
        for threads in [1usize, 4] {
            let spec = RunSpec {
                detail: ReportDetail::Summary,
                window,
                threads,
                obs: ObsRequest::instrumented(window_ns),
            };
            let out = run(&cluster, &trace_in, &plan, spec);
            let trace = out.trace.expect("traced run");
            let registry = out.registry.expect("online run");
            let oracle = MetricRegistry::from_trace(&trace, window_ns, &[14, 14]);
            prop_assert_eq!(
                &registry,
                &oracle,
                "online registry diverged from the trace oracle at {} threads ({:?})",
                threads,
                window
            );
            registries.push(registry);
        }
        prop_assert_eq!(
            &registries[0],
            &registries[1],
            "online registry diverged between 1 and 4 threads ({:?})",
            window
        );
    }

    /// The SLO engine is a pure function of the registry, which is a pure
    /// function of the run: the alert log (fire bins, resolve bins, burn
    /// rates — full `Debug` rendering) must be identical across thread
    /// counts for any scenario.
    #[test]
    fn alert_log_is_thread_count_invariant(
        seed in 0u64..8,
        fault_kind in 0u64..3,
        mode in 0u64..2,
    ) {
        let table = mobilenet_table();
        let cluster = small_cluster(&table, RouterPolicy::JoinShortestQueue);
        let trace_in = arrivals(&cluster, 0.4, 0.8, seed);
        let plan = match fault_kind {
            0 => FaultPlan::new().with_domain_outage(
                &FaultTopology::racks(&[2, 2], 2),
                "rack0",
                0.1,
                0.3,
            ),
            1 => FaultPlan::new().with_gpu_degrade(0, 0, 3.0, 0.1, 0.3),
            _ => FaultPlan::sample_gpu_mttf(&[2, 2], 0.9, 0.2, 0.4, seed),
        };
        let window = if mode == 0 {
            SyncWindow::PerEvent
        } else {
            SyncWindow::Lookahead(SimDuration::from_nanos(2_000_000))
        };
        let specs = [
            SloSpec::new("premium-avail", 0, 0.9).with_windows(2, 6),
            SloSpec::new("batch-avail", 1, 0.5).with_windows(2, 6),
        ];
        let mut logs: Vec<String> = Vec::new();
        for threads in [1usize, 4] {
            let spec = RunSpec {
                detail: ReportDetail::Summary,
                window,
                threads,
                obs: ObsRequest::online(50_000_000),
            };
            let registry = run(&cluster, &trace_in, &plan, spec).registry.expect("online run");
            logs.push(format!("{:?}", evaluate_slos(&registry, &specs)));
        }
        prop_assert_eq!(
            &logs[0],
            &logs[1],
            "alert log diverged between 1 and 4 threads ({:?})",
            window
        );
    }
}

/// FNV-1a over a value's full `Debug` rendering: a stable fingerprint
/// (unlike `DefaultHasher`, fixed across toolchains).
fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Golden values for causal tail attribution on one instrumented, faulted
/// fleet: JSQ routing, a loan pool, brownout shedding and two rack outages
/// whose capacity loss triggers loans, so loan-handover, fault-recovery and
/// outage waits all show up in the attributed windows. Attribution has no
/// thread-count or online/oracle twin to be compared against, so these
/// pinned numbers are what catch a fold that reorders or drops records.
#[test]
fn alert_attribution_matches_golden_values() {
    let table = mobilenet_table();
    let sla_shard = || {
        let dist = BatchDistribution::paper_default();
        MultiModelServer::new(
            vec![
                ModelSpec::new("premium", table.clone(), dist.clone()).with_sla_ns(20_000_000),
                ModelSpec::new("batch", table.clone(), dist).with_sla_ns(50_000_000),
            ],
            GpcBudget::new(14, 2),
            MultiModelConfig::new().with_detail(ReportDetail::Summary),
        )
        .expect("shard plan builds")
    };
    let cluster = Cluster::new(
        vec![sla_shard(), sla_shard()],
        RouterPolicy::JoinShortestQueue,
    )
    .with_loan(LoanPolicy::new(2, 0.1))
    .with_shed(ShedPolicy::new(vec![0, 1]).with_margin(0.5));
    let trace_in = arrivals(&cluster, 1.5, 0.9, 11);
    let topology = FaultTopology::racks(&[2, 2], 2);
    let plan = FaultPlan::new()
        .with_domain_outage(&topology, "rack0", 0.4, 0.7)
        .with_domain_outage(&topology, "rack1", 1.1, 1.3);
    let window_ns = 100_000_000;
    let spec = RunSpec {
        detail: ReportDetail::Summary,
        window: SyncWindow::PerEvent,
        threads: 1,
        obs: ObsRequest::instrumented(window_ns),
    };
    let out = run(&cluster, &trace_in, &plan, spec);
    let (trace, registry) = (
        out.trace.expect("traced run"),
        out.registry.expect("online run"),
    );
    let specs = [
        SloSpec::new("premium-avail", 0, 0.9).with_windows(1, 3),
        SloSpec::new("batch-avail", 1, 0.9).with_windows(1, 3),
    ];
    let alerts = evaluate_slos(&registry, &specs);
    let attributions = attribute_alerts(&trace, window_ns, &alerts);
    let worst: Vec<Option<usize>> = (0..2).map(|g| worst_window(&trace, window_ns, g)).collect();
    // Every window of both classes, not only the alerted ones.
    let bins = (trace.horizon().as_nanos() / window_ns) as usize + 1;
    let windows: Vec<WindowAttribution> = (0..2)
        .flat_map(|g| (0..bins).map(move |b| (g, b)))
        .filter_map(|(g, b)| attribute_window(&trace, window_ns, b, g))
        .collect();
    for a in attributions.iter().chain(&windows) {
        assert_eq!(a.causes_sum(), a.excess_ns, "zero residual");
    }
    assert_eq!(alerts.len(), 3);
    assert_eq!(attributions.len(), 3);
    assert_eq!(debug_fingerprint(&attributions), 0xfb0e_603f_66b4_6b65);
    assert_eq!(worst, [Some(15), Some(15)]);
    assert_eq!(windows.len(), 32);
    assert_eq!(debug_fingerprint(&windows), 0xda4f_4304_c4f9_4b68);
}
