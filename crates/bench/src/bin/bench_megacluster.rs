//! `bench_megacluster` — the shard-parallel cluster engine at fleet scale,
//! behind `BENCH_megacluster.json`.
//!
//! Hosts MobileNet on 32 identical 4-GPU shards (128 serving GPUs) with an
//! 8-GPU batch pool behind a JSQ router, drives a 100k+ qps trace with a
//! mid-run GPU failure and a shard outage, and pins the tentpole contract
//! of ISSUE 7 / ARCHITECTURE.md invariant 11 **in the bench itself**:
//!
//! * **bit-for-bit determinism** — for each [`SyncWindow`] mode, the run
//!   is repeated at 1, 2, 4 and 8 lane worker threads and every report
//!   must be byte-identical (`Debug`-string equality over the full
//!   `ClusterReport`, histograms included). The bench aborts if any
//!   thread count diverges, and records the verdict as
//!   `parallel_bit_identical`.
//! * **events/sec-vs-cores scaling** — the conservative-window critical
//!   path is measured per thread count from the same run (per window,
//!   lane-event deltas bucketed by the worker pool's `shard % workers`
//!   assignment; the largest bucket is that window's parallel span). The
//!   curve multiplies the *measured* single-thread events/sec by the
//!   *measured* structural speedup, so it does not depend on how many
//!   cores the benchmarking host happens to have — `host_cores` and the
//!   per-run wall times are recorded alongside so the basis is explicit.
//!
//! Per-event windows synchronize at every gateway item and therefore
//! barely scale (their curve is the honest cost of exact sequential
//! semantics); lookahead windows batch a full route-hop's worth of
//! decisions per edge and carry the scaling claim.
//!
//! Usage: `cargo run --release --bin bench_megacluster [--quick] [--smoke] [--seed N]`

use std::fmt::Write as _;
use std::time::Instant;

use paris_elsa::cluster::{Cluster, ClusterReport, LoanPolicy, RouterPolicy, WindowProfile};
use paris_elsa::dnn::ModelKind;
use paris_elsa::prelude::*;

/// Lane worker thread counts every mode is verified at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The lookahead window: the modeled cross-shard information latency (a
/// route hop plus the decision grid). One millisecond holds ~160 arrivals
/// of coordinator work per window at the bench's offered rate.
const LOOKAHEAD_MS: f64 = 1.0;

struct Scenario {
    cluster: Cluster,
    faults: FaultTimeline,
    trace: Vec<TaggedQuerySpec>,
    shards: usize,
    gpus_per_shard: usize,
    pool_gpus: usize,
    offered_qps: f64,
    duration_secs: f64,
    seed: u64,
}

impl Scenario {
    fn new(duration_secs: f64, seed: u64) -> Self {
        let (shards, gpus_per_shard, pool_gpus) = (32usize, 4usize, 8usize);
        let perf = PerfModel::new(DeviceSpec::a100());
        let table =
            ProfileTable::profile(&ModelKind::MobileNet.build(), &perf, &ProfileSize::ALL, 32);
        let dist = BatchDistribution::paper_default();
        // All shards are identical: plan once, clone 32×.
        let shard = MultiModelServer::new(
            vec![ModelSpec::new("mobilenet_v1", table, dist.clone())],
            GpcBudget::new(gpus_per_shard * 7, gpus_per_shard),
            MultiModelConfig::new().with_detail(ReportDetail::Summary),
        )
        .expect("shard plan builds");
        let fleet_qps: f64 = shard.capacity_hint_qps() * shards as f64;
        // 80 % of planned fleet capacity: comfortably past the 100k qps
        // bar at 128 GPUs, with headroom for the injected faults.
        let offered_qps = 0.8 * fleet_qps;
        let trace = MultiTraceGenerator::new(
            vec![PhaseSpec::new(duration_secs, vec![(offered_qps, dist)])],
            seed,
        )
        .generate();
        let cluster = Cluster::new(vec![shard; shards], RouterPolicy::JoinShortestQueue)
            .with_loan(LoanPolicy::new(pool_gpus, 0.25))
            .with_lane_capacity(offered_qps);
        // A GPU dies on shard 3 and a whole shard drops out of rotation
        // mid-run; both repair before the end, so the run exercises kill +
        // requeue + recovery re-plan + drain/rejoin at fleet scale.
        let t = |frac: f64| SimTime::from_nanos((frac * duration_secs * 1e9) as u64);
        let faults = FaultTimeline::new(vec![
            (t(0.30), FaultEvent::GpuFail { shard: 3, gpu: 0 }),
            (t(0.40), FaultEvent::ShardFail { shard: 17 }),
            (t(0.60), FaultEvent::GpuRepair { shard: 3, gpu: 0 }),
            (t(0.70), FaultEvent::ShardRepair { shard: 17 }),
        ]);
        Scenario {
            cluster,
            faults,
            trace,
            shards,
            gpus_per_shard,
            pool_gpus,
            offered_qps,
            duration_secs,
            seed,
        }
    }

    /// One full run: report plus wall-clock seconds.
    fn run(&self, window: SyncWindow, threads: usize) -> (ClusterReport, f64) {
        let start = Instant::now();
        let spec = RunSpec {
            window,
            threads,
            ..RunSpec::new(ReportDetail::Summary)
        };
        let arrivals = self.trace.iter().map(|&tq| (None, tq));
        let report = self.cluster.simulate(arrivals, &self.faults, &spec).report;
        (report, start.elapsed().as_secs_f64())
    }

    fn profile(&self, window: SyncWindow) -> (ClusterReport, WindowProfile) {
        self.cluster.run_windowed_profiled(
            self.trace.iter().copied().map(|tq| (None, tq)),
            ReportDetail::Summary,
            &self.faults,
            window,
            &THREADS,
        )
    }
}

struct ModeResult {
    reference: ClusterReport,
    wall_secs: Vec<f64>,
    bit_identical: bool,
    profile: WindowProfile,
}

/// Runs one sync mode at every thread count, checks byte equality against
/// the single-thread run, and measures the window profile.
fn verify_mode(scenario: &Scenario, name: &'static str, window: SyncWindow) -> ModeResult {
    let (reference, wall_1) = scenario.run(window, 1);
    let reference_bytes = format!("{reference:?}");
    let mut wall_secs = vec![wall_1];
    let mut bit_identical = true;
    for &threads in &THREADS[1..] {
        let (report, wall) = scenario.run(window, threads);
        wall_secs.push(wall);
        let identical = format!("{report:?}") == reference_bytes;
        if !identical {
            eprintln!("DIVERGENCE: {name} at {threads} threads differs from 1 thread");
            bit_identical = false;
        }
    }
    let (profiled, profile) = scenario.profile(window);
    // The profiling pass re-runs the exact same simulation; it must land
    // on the same bytes too (profiling only reads event counters).
    if format!("{profiled:?}") != reference_bytes {
        eprintln!("DIVERGENCE: {name} profiled run differs from plain run");
        bit_identical = false;
    }
    ModeResult {
        reference,
        wall_secs,
        bit_identical,
        profile,
    }
}

fn main() {
    let opts = paris_bench::TrajectoryOpts::from_args(67);
    let duration_secs = opts.pick(1.0, 0.4, 0.05);
    let scenario = Scenario::new(duration_secs, opts.seed);
    println!(
        "megacluster: {} shards x {} GPUs (+{} pool), {:.0} qps offered for {:.2} s ({} queries)",
        scenario.shards,
        scenario.gpus_per_shard,
        scenario.pool_gpus,
        scenario.offered_qps,
        scenario.duration_secs,
        scenario.trace.len(),
    );

    let per_event = verify_mode(&scenario, "per_event", SyncWindow::PerEvent);
    let lookahead_width = SimDuration::from_nanos((LOOKAHEAD_MS * 1e6) as u64);
    let lookahead = verify_mode(
        &scenario,
        "lookahead",
        SyncWindow::Lookahead(lookahead_width),
    );

    let parallel_bit_identical = per_event.bit_identical && lookahead.bit_identical;
    assert!(
        parallel_bit_identical,
        "invariant 11 violated: thread count changed a report"
    );

    // Scaling curve: measured single-thread events/sec × the measured
    // structural speedup of each pool size (critical-path basis).
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let curve_of = |m: &ModeResult| -> Vec<(usize, f64, f64, f64)> {
        let gateway_items = m.reference.events_processed - m.profile.lane_events;
        let base_eps = m.reference.events_processed as f64 / m.wall_secs[0];
        THREADS
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let speedup = m.profile.modeled_speedup(k, gateway_items);
                (k, speedup, base_eps * speedup, m.wall_secs[i])
            })
            .collect()
    };
    let pe_curve = curve_of(&per_event);
    let la_curve = curve_of(&lookahead);
    // New/old single-thread events/sec against the artifact this run is
    // about to overwrite (the first curve entry after each mode key is
    // the threads=1 point).
    let prev = std::fs::read_to_string("BENCH_megacluster.json").ok();
    let vs_prev = |mode: &str, curve: &[(usize, f64, f64, f64)]| -> String {
        prev.as_deref()
            .and_then(|p| {
                paris_bench::scrape_number_after(p, &format!("\"{mode}\":"), "events_per_sec")
            })
            .map_or("null".to_string(), |old| format!("{:.3}", curve[0].2 / old))
    };
    let pe_vs_prev = vs_prev("per_event", &pe_curve);
    let la_vs_prev = vs_prev("lookahead", &la_curve);
    let speedup_at_4 = la_curve
        .iter()
        .find(|&&(k, ..)| k == 4)
        .map_or(0.0, |&(_, s, ..)| s);

    let rows: Vec<Vec<String>> = pe_curve
        .iter()
        .zip(&la_curve)
        .map(|(pe, la)| {
            vec![
                pe.0.to_string(),
                format!("{:.2}x", pe.1),
                format!("{:.0}", pe.2 / 1e3),
                format!("{:.2}x", la.1),
                format!("{:.0}", la.2 / 1e3),
            ]
        })
        .collect();
    paris_bench::print_table(
        &format!("events/sec vs lane threads (critical-path basis; host has {host_cores} core(s))"),
        &[
            "threads",
            "per-event speedup",
            "per-event kev/s",
            "lookahead speedup",
            "lookahead kev/s",
        ],
        &rows,
    );
    println!(
        "\nbit-identical across threads {{1,2,4,8}}: {parallel_bit_identical} \
         (per-event and lookahead modes, Debug-byte equality)"
    );
    println!(
        "lookahead speedup at 4 threads: {speedup_at_4:.2}x \
         ({} windows, {} lane events, {} gateway items)",
        lookahead.profile.windows,
        lookahead.profile.lane_events,
        lookahead.reference.events_processed - lookahead.profile.lane_events,
    );
    if !opts.smoke {
        assert!(
            scenario.offered_qps >= 100_000.0,
            "megacluster scenario must offer 100k+ qps, got {:.0}",
            scenario.offered_qps
        );
        assert!(
            speedup_at_4 > 1.5,
            "lookahead windows must scale >1.5x at 4 threads, got {speedup_at_4:.2}"
        );
    }

    let mode_json = |m: &ModeResult, curve: &[(usize, f64, f64, f64)]| -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bit_identical\": {}, \"completed\": {}, \"achieved_qps\": {:.1}, \
             \"events_processed\": {}, \"windows\": {}, \"lane_events\": {}, \"curve\": [",
            m.bit_identical,
            m.reference.completed(),
            m.reference.achieved_qps,
            m.reference.events_processed,
            m.profile.windows,
            m.profile.lane_events,
        );
        for (i, &(k, speedup, eps, wall)) in curve.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"threads\": {k}, \"modeled_speedup\": {speedup:.4}, \
                 \"events_per_sec\": {eps:.0}, \"measured_wall_secs\": {wall:.4}}}",
                if i == 0 { "" } else { ", " },
            );
        }
        s.push_str("]}");
        s
    };

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_megacluster/v1\",\n");
    json.push_str("  \"model\": \"mobilenet_v1\",\n");
    let _ = writeln!(json, "  \"shards\": {},", scenario.shards);
    let _ = writeln!(json, "  \"gpus_per_shard\": {},", scenario.gpus_per_shard);
    let _ = writeln!(
        json,
        "  \"serving_gpus\": {},",
        scenario.shards * scenario.gpus_per_shard
    );
    let _ = writeln!(json, "  \"pool_gpus\": {},", scenario.pool_gpus);
    let _ = writeln!(json, "  \"seed\": {},", scenario.seed);
    let _ = writeln!(json, "  \"duration_secs\": {},", scenario.duration_secs);
    let _ = writeln!(json, "  \"offered_qps\": {:.1},", scenario.offered_qps);
    let _ = writeln!(json, "  \"queries\": {},", scenario.trace.len());
    let _ = writeln!(json, "  \"faults\": {},", scenario.faults.events().len());
    let _ = writeln!(json, "  \"lookahead_ms\": {LOOKAHEAD_MS},");
    let _ = writeln!(json, "  \"thread_counts\": [1, 2, 4, 8],");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        json,
        "  \"scaling_basis\": \"measured single-thread events/sec x measured \
         conservative-window critical-path speedup (lane-event counts per window \
         bucketed by shard % workers); measured_wall_secs per thread count listed \
         for reference\","
    );
    let _ = writeln!(
        json,
        "  \"parallel_bit_identical\": {parallel_bit_identical},"
    );
    let _ = writeln!(
        json,
        "  \"lookahead_speedup_at_4_threads\": {speedup_at_4:.4},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_vs_prev\": {{\"per_event\": {pe_vs_prev}, \"lookahead\": {la_vs_prev}}},"
    );
    let _ = writeln!(
        json,
        "  \"per_event\": {},",
        mode_json(&per_event, &pe_curve)
    );
    let _ = writeln!(
        json,
        "  \"lookahead\": {}",
        mode_json(&lookahead, &la_curve)
    );
    json.push_str("}\n");
    std::fs::write("BENCH_megacluster.json", &json).expect("write BENCH_megacluster.json");
    println!("\nwrote BENCH_megacluster.json");
}
