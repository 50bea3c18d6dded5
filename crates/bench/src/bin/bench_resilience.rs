//! `bench_resilience` — graceful degradation under correlated and partial
//! failures, behind `BENCH_resilience.json`.
//!
//! Two scenarios, each running identical traces and fault schedules across
//! its configurations:
//!
//! 1. **Correlated rack outage + surge, brownout admission control.** Two
//!    3-GPU shards each serve a premium (class 0) and a batch (class 1)
//!    model; GPU lanes are racked pairwise ([`FaultTopology::racks`]) and
//!    `rack0` — two of shard 0's GPUs — goes out in the middle of a load
//!    surge. `noshed` admits everything and converts the capacity hole
//!    into fleet-wide SLA death; `shed` adds a [`ShedPolicy`] that rejects
//!    batch queries at admission when the picked shard's projected delay
//!    exhausts the SLA budget, concentrating survivor capacity on premium
//!    traffic. Invariant 10 is asserted: offered = served + shed, exactly,
//!    and premium is never shed.
//!
//! 2. **Slow-GPU (partial degradation), placement-aware vs blind.** One
//!    3-GPU shard; thermal throttling slows GPU 0 by 4× for half the run
//!    ([`FaultPlan::with_gpu_degrade`]). `aware` (the default) lets
//!    ELSA see the inflated service estimates and steer queries around the
//!    sick hardware; `blind` ([`MultiModelConfig::with_degrade_blind`])
//!    schedules on clean profiles while physical service times stretch.
//!
//! Headlines: shedding must hold the premium tail where `noshed` violates,
//! and degradation-aware placement must beat degradation-blind on the
//! degraded-window tail. The empty-plan degeneration check (an empty
//! [`FaultPlan`] is bit-for-bit the fault-free run) guards the whole fault
//! path.
//!
//! Usage: `cargo run --release --bin bench_resilience [--quick] [--smoke] [--seed N]`
//!
//! `--smoke` runs a tiny trace — CI uses it to catch bench regressions;
//! the numbers it writes are not comparable.

use std::fmt::Write as _;

use paris_bench::print_table;
use paris_bench::scenarios::{mobilenet_table, RackScenario, SlowScenario};
use paris_elsa::faults::{run_with_faults, FaultPlan, FaultReport};
use paris_elsa::metrics::LatencyHistogram;
use paris_elsa::prelude::*;

/// Model 0 = premium, model 1 = batch throughout the rack scenario.
struct RackRow {
    policy: &'static str,
    premium_p99_ms: f64,
    premium_violation: f64,
    batch_p99_ms: f64,
    shed_premium: u64,
    shed_batch: u64,
    served_premium: u64,
    served_batch: u64,
    goodput_qps: f64,
    availability: f64,
}

/// Fleet-wide latency histogram of one model across every shard.
fn model_histogram(report: &FaultReport, model: usize) -> LatencyHistogram {
    LatencyHistogram::merged(
        report
            .cluster
            .per_shard
            .iter()
            .map(|s| &s.per_model[model].histogram),
    )
}

/// Fleet-wide exact SLA violation rate of one model.
fn model_violation_rate(report: &FaultReport, model: usize) -> f64 {
    let (violations, completed) = report
        .cluster
        .per_shard
        .iter()
        .map(|s| {
            (
                s.per_model[model].sla_violations,
                s.per_model[model].completed,
            )
        })
        .fold((0u64, 0u64), |(v, c), (dv, dc)| (v + dv, c + dc));
    if completed == 0 {
        0.0
    } else {
        violations as f64 / completed as f64
    }
}

fn rack_row(policy: &'static str, report: &FaultReport) -> RackRow {
    let class = |v: &[u64], c: usize| v.get(c).copied().unwrap_or(0);
    // Served counts come from per-model completions so the no-policy
    // baseline row is populated too (served_per_class is empty without a
    // ShedPolicy).
    let served = |m: usize| {
        report
            .cluster
            .per_shard
            .iter()
            .map(|s| s.per_model[m].completed)
            .sum::<u64>()
    };
    RackRow {
        policy,
        premium_p99_ms: model_histogram(report, 0).percentile_ms(0.99),
        premium_violation: model_violation_rate(report, 0),
        batch_p99_ms: model_histogram(report, 1).percentile_ms(0.99),
        shed_premium: class(&report.shed_per_class, 0),
        shed_batch: class(&report.shed_per_class, 1),
        served_premium: served(0),
        served_batch: served(1),
        goodput_qps: report.goodput_qps(),
        availability: report.effective_availability,
    }
}

// ---------------------------------------------------------------------------
// Scenario 2: slow-GPU partial degradation, placement-aware vs blind.
// ---------------------------------------------------------------------------

struct SlowRow {
    policy: &'static str,
    p99_ms: f64,
    degraded_p99_ms: f64,
    healthy_p99_ms: f64,
    violation: f64,
    achieved_qps: f64,
}

fn slow_row(policy: &'static str, report: &FaultReport) -> SlowRow {
    SlowRow {
        policy,
        p99_ms: report.cluster.histogram.percentile_ms(0.99),
        degraded_p99_ms: report.degraded_p99_ms.unwrap_or(0.0),
        healthy_p99_ms: report.healthy_p99_ms.unwrap_or(0.0),
        violation: report.worst_violation_rate(),
        achieved_qps: report.cluster.achieved_qps,
    }
}

fn main() {
    let opts = paris_bench::TrajectoryOpts::from_args(41);
    let duration_s = opts.pick(12.0, 6.0, 2.0);
    let table = mobilenet_table();

    // -- Scenario 1: rack outage + surge, noshed vs shed -------------------
    let rack = RackScenario::new(duration_s, opts.seed, &table);
    let rack_trace = rack.trace();
    let rack_plan = rack.plan();
    let unpinned = || rack_trace.iter().copied().map(|tq| (None, tq));

    // Empty-plan degeneration guard: the fault path must cost nothing
    // until an event fires.
    let baseline = rack.cluster(false);
    let full = RunSpec::new(ReportDetail::Full);
    let plain = baseline
        .simulate(unpinned(), &FaultTimeline::empty(), &full)
        .report;
    let nofault = run_with_faults(&baseline, unpinned(), &FaultPlan::new(), &full).report;
    let bit_identical = plain
        .per_shard
        .iter()
        .zip(&nofault.cluster.per_shard)
        .all(|(a, b)| {
            a.records == b.records
                && a.makespan == b.makespan
                && a.partition_sizes == b.partition_sizes
        })
        && plain.routed == nofault.cluster.routed;
    assert!(
        bit_identical,
        "empty FaultPlan must reproduce the plain run bit-for-bit"
    );

    let noshed = run_with_faults(&rack.cluster(false), unpinned(), &rack_plan, &full).report;
    let shed = run_with_faults(&rack.cluster(true), unpinned(), &rack_plan, &full).report;
    // Invariant 10: every offered query is exactly served-or-shed.
    for (name, report) in [("noshed", &noshed), ("shed", &shed)] {
        let completed: u64 = report
            .cluster
            .per_shard
            .iter()
            .map(|s| s.records.len() as u64)
            .sum();
        assert_eq!(
            completed + report.shed_total,
            rack_trace.len() as u64,
            "{name}: offered must equal served + shed"
        );
    }
    assert_eq!(
        shed.shed_per_class.first().copied().unwrap_or(0),
        0,
        "premium (class 0) is never shed"
    );

    let rack_rows = [rack_row("noshed", &noshed), rack_row("shed", &shed)];
    let cells: Vec<Vec<String>> = rack_rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_owned(),
                format!("{:.1}", r.premium_p99_ms),
                format!("{:.4}", r.premium_violation),
                format!("{:.1}", r.batch_p99_ms),
                r.shed_premium.to_string(),
                r.shed_batch.to_string(),
                r.served_premium.to_string(),
                r.served_batch.to_string(),
                format!("{:.0}", r.goodput_qps),
                format!("{:.4}", r.availability),
            ]
        })
        .collect();
    print_table(
        &format!(
            "rack outage + surge: {:?} GPU shards racked by {}, rack0 out [{:.1}s, {:.1}s], \
             surge {:.0} q/s per class",
            rack.shard_gpus, rack.gpus_per_rack, rack.outage.0, rack.outage.1, rack.surge_qps,
        ),
        &[
            "policy",
            "prem p99",
            "prem viol",
            "batch p99",
            "shed prem",
            "shed batch",
            "served prem",
            "served batch",
            "goodput",
            "avail (eff)",
        ],
        &cells,
    );
    // -- Scenario 2: slow GPU, aware vs blind ------------------------------
    let slow = SlowScenario::new(duration_s, opts.seed, &table);
    let slow_trace = slow.trace();
    let slow_plan = slow.plan();
    let slow_unpinned = || slow_trace.iter().copied().map(|tq| (None, tq));
    let blind = run_with_faults(&slow.cluster(false), slow_unpinned(), &slow_plan, &full).report;
    let aware = run_with_faults(&slow.cluster(true), slow_unpinned(), &slow_plan, &full).report;
    for (name, report) in [("blind", &blind), ("aware", &aware)] {
        let completed: usize = report
            .cluster
            .per_shard
            .iter()
            .map(|s| s.records.len())
            .sum();
        assert_eq!(
            completed,
            slow_trace.len(),
            "{name}: degradation never drops a query"
        );
        assert_eq!(report.shed_total, 0, "{name}: no shed policy, no shedding");
    }
    let slow_rows = [slow_row("blind", &blind), slow_row("aware", &aware)];
    let cells: Vec<Vec<String>> = slow_rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_owned(),
                format!("{:.1}", r.p99_ms),
                format!("{:.1}", r.degraded_p99_ms),
                format!("{:.1}", r.healthy_p99_ms),
                format!("{:.4}", r.violation),
                format!("{:.0}", r.achieved_qps),
            ]
        })
        .collect();
    print_table(
        &format!(
            "slow GPU: 1 of {} GPUs at {:.0}x service time over [{:.1}s, {:.1}s]",
            slow.gpus, slow.factor, slow.window.0, slow.window.1,
        ),
        &[
            "placement",
            "p99",
            "degraded p99",
            "healthy p99",
            "worst viol",
            "qps",
        ],
        &cells,
    );

    let violation_cut = rack_rows[1].premium_violation / rack_rows[0].premium_violation.max(1e-9);
    println!(
        "\nshed vs noshed premium violations:   {violation_cut:.3}x \
         ({:.4} -> {:.4})",
        rack_rows[0].premium_violation, rack_rows[1].premium_violation
    );
    let aware_ratio = slow_rows[1].p99_ms / slow_rows[0].p99_ms.max(1e-9);
    println!(
        "aware vs blind p99 under slow GPU:   {aware_ratio:.3}x \
         ({:.1} ms -> {:.1} ms)",
        slow_rows[0].p99_ms, slow_rows[1].p99_ms
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_resilience/v1\",\n");
    json.push_str("  \"model\": \"mobilenet_v1\",\n");
    let _ = writeln!(json, "  \"duration_secs\": {duration_s},");
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"empty_plan_bit_identical\": {bit_identical},");
    json.push_str("  \"rack_outage\": {\n");
    let _ = writeln!(
        json,
        "    \"shard_gpus\": [{}, {}],",
        rack.shard_gpus[0], rack.shard_gpus[1]
    );
    let _ = writeln!(json, "    \"gpus_per_rack\": {},", rack.gpus_per_rack);
    let _ = writeln!(
        json,
        "    \"outage_secs\": [{:.3}, {:.3}],",
        rack.outage.0, rack.outage.1
    );
    let _ = writeln!(
        json,
        "    \"calm_qps\": {:.1}, \"surge_qps\": {:.1},",
        rack.calm_qps, rack.surge_qps
    );
    json.push_str("    \"configs\": [\n");
    for (i, r) in rack_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"policy\": \"{}\", \"premium_p99_ms\": {:.3}, \
             \"premium_violation\": {:.5}, \"batch_p99_ms\": {:.3}, \
             \"shed_premium\": {}, \"shed_batch\": {}, \
             \"served_premium\": {}, \"served_batch\": {}, \
             \"goodput_qps\": {:.1}, \"availability\": {:.5}}}",
            r.policy,
            r.premium_p99_ms,
            r.premium_violation,
            r.batch_p99_ms,
            r.shed_premium,
            r.shed_batch,
            r.served_premium,
            r.served_batch,
            r.goodput_qps,
            r.availability
        );
        json.push_str(if i + 1 < rack_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(
        json,
        "    \"shed_vs_noshed_premium_violation_ratio\": {violation_cut:.4}"
    );
    json.push_str("  },\n");
    json.push_str("  \"slow_gpu\": {\n");
    let _ = writeln!(json, "    \"gpus\": {},", slow.gpus);
    let _ = writeln!(json, "    \"factor\": {:.1},", slow.factor);
    let _ = writeln!(
        json,
        "    \"window_secs\": [{:.3}, {:.3}],",
        slow.window.0, slow.window.1
    );
    let _ = writeln!(
        json,
        "    \"degrade_gpu_seconds\": {:.3},",
        aware.degrade_gpu_seconds
    );
    json.push_str("    \"configs\": [\n");
    for (i, r) in slow_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"policy\": \"{}\", \"p99_ms\": {:.3}, \
             \"degraded_p99_ms\": {:.3}, \"healthy_p99_ms\": {:.3}, \
             \"worst_violation\": {:.5}, \"achieved_qps\": {:.1}}}",
            r.policy, r.p99_ms, r.degraded_p99_ms, r.healthy_p99_ms, r.violation, r.achieved_qps
        );
        json.push_str(if i + 1 < slow_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"aware_vs_blind_p99_ratio\": {aware_ratio:.4}");
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write("BENCH_resilience.json", &json).expect("write BENCH_resilience.json");
    println!("\nwrote BENCH_resilience.json");
}
