//! What the two cluster workloads share: their inputs in cluster form, the
//! checks on a faulted cluster run, and every per-layer rung except the
//! timed call's own.

use paris_elsa::cluster::{Cluster, SyncWindow};
use paris_elsa::faults::{FaultPlan, FaultReport};
use paris_elsa::metrics::{LatencyHistogram, LatencyRecorder};
use paris_elsa::prelude::*;

use crate::ladder::{cluster_rungs, hold_ns, timed, ClusterForm, RUNG_REPS};
use crate::metrics::Metrics;
use crate::spans::{SpanId, Tracer};
use crate::{Outcome, Percentiles};

pub struct Clustered {
    pub seed: u64,
    /// Shard 0's server: the server rung replays shard 0's share of the
    /// trace (every N-th query of N shards) through it.
    pub shard: MultiModelServer,
    /// `shard` with every model on FIFS: the `core.elsa_extra_s` baseline.
    pub fifs: MultiModelServer,
    pub cluster: Cluster,
    pub trace: Vec<TaggedQuerySpec>,
    pub plan: FaultPlan,
    pub window: SyncWindow,
    /// Lane threads of the pool rung; the timed call runs one.
    pub pool_threads: usize,
    pub plan_s: f64,
    pub generate_s: f64,
}

impl Clustered {
    pub fn form(&self) -> ClusterForm<'_> {
        ClusterForm {
            cluster: &self.cluster,
            trace: &self.trace,
            plan: &self.plan,
            window: self.window,
            pool_threads: self.pool_threads,
        }
    }

    /// The gated counts of one faulted run.
    pub fn outcome(&self, report: &FaultReport, fingerprint: String) -> Outcome<()> {
        let over_sla: u64 = report
            .cluster
            .per_shard
            .iter()
            .flat_map(|s| &s.per_model)
            .map(|m| m.sla_violations)
            .sum();
        let shed = report.cluster.total_shed();
        Outcome {
            offered: self.trace.len() as u64,
            completed: report.cluster.completed(),
            shed,
            sla_offered: self.trace.len() as u64,
            sla_missed: over_sla + shed,
            fingerprint,
            report: (),
        }
    }

    /// Replays the inputs untraced on the pool rung's lane threads, which
    /// must reproduce the timed call's report byte for byte
    /// (`untraced_rule` names the invariant that makes it so), then at
    /// full detail for exact latency percentiles, which must land on the
    /// same histogram.
    pub fn check(
        &self,
        timed_report: &FaultReport,
        untraced_rule: &str,
        errors: &mut Vec<String>,
    ) -> Percentiles {
        let replay = self
            .form()
            .run(ReportDetail::Summary, self.window, self.pool_threads);
        if format!("{replay:?}") != format!("{timed_report:?}") {
            errors.push(format!(
                "{untraced_rule}: the untraced {}-thread report differs from the timed call's",
                self.pool_threads
            ));
        }
        let full = self.form().run(ReportDetail::Full, self.window, 1);
        if full.cluster.histogram != timed_report.cluster.histogram {
            errors.push("the full-detail run's latency histogram differs".into());
        }
        let mut latency = LatencyRecorder::new();
        for shard in &full.cluster.per_shard {
            latency.merge(&shard.latency);
        }
        Percentiles::of(&latency)
    }

    /// Every per-layer metric a cluster workload measures the same way.
    pub fn ladder(
        &self,
        report: &FaultReport,
        tr: &Tracer,
        at: Option<SpanId>,
        m: &mut Metrics,
        errors: &mut Vec<String>,
    ) {
        let c = &report.cluster;
        m.set("des.events", c.events_processed as f64);
        m.set("des.peak_pending", c.peak_pending_events as f64);
        let (hold, _) = timed(tr, "des.hold", at, RUNG_REPS, || {
            hold_ns(c.peak_pending_events, c.events_processed, self.seed)
        });
        m.set("des.hold_ns", hold);
        m.set("workload.queries", self.trace.len() as f64);

        let shards = self.cluster.shards().len();
        let slice: Vec<TaggedQuerySpec> = self.trace.iter().copied().step_by(shards).collect();
        let (mut elsa_s, mut fifs_s) = (Vec::new(), Vec::new());
        for _ in 0..RUNG_REPS {
            let (_, s) = tr.span("server.shard", at, |_| {
                self.shard
                    .run_stream(slice.iter().copied(), ReportDetail::Summary)
            });
            elsa_s.push(s);
            let (_, s) = tr.span("core.fifs", at, |_| {
                self.fifs
                    .run_stream(slice.iter().copied(), ReportDetail::Summary)
            });
            fifs_s.push(s);
        }
        let (elsa_s, fifs_s) = (crate::median(&elsa_s), crate::median(&fifs_s));
        m.set_note(
            "core.elsa_extra_s",
            elsa_s - fifs_s,
            format!("shard 0 over 1/{shards} of the trace, ELSA minus FIFS"),
        );
        m.set("core.replans", c.total_reconfigs() as f64);
        m.set_note(
            "server.ns_per_query",
            elsa_s * 1e9 / slice.len() as f64,
            format!("shard 0's MultiModelServer over 1/{shards} of the trace"),
        );
        m.set_note("server.sweep_points", 0.0, "no throughput search");
        m.set("server.sweep_useful_ratio", 0.0);
        m.set("server.sweep_busy_ratio", 0.0);
        let queue = LatencyHistogram::merged(c.per_shard.iter().map(|r| &r.queue_hist));
        let service = LatencyHistogram::merged(c.per_shard.iter().map(|r| &r.service_hist));
        m.set("server.queue_wait_p95_ms", queue.percentile_ms(0.95));
        m.set("server.service_p95_ms", service.percentile_ms(0.95));
        let util: Vec<f64> = c
            .per_shard
            .iter()
            .flat_map(|r| r.partition_utilization.iter().copied())
            .collect();
        m.set(
            "server.util_pct",
            100.0 * util.iter().sum::<f64>() / util.len().max(1) as f64,
        );
        m.set_note("lbt_qps", 0.0, "no throughput search");
        m.set(
            "shed_pct",
            100.0 * c.total_shed() as f64 / self.trace.len() as f64,
        );
        let form = self.form();
        let (_, _) = tr.span("cluster.rungs", at, |rungs| {
            cluster_rungs(&form, tr, rungs, m, errors)
        });
    }
}

/// `shard` with every model scheduled by FIFS on the same partitions.
pub fn fifs_twin(shard: &MultiModelServer) -> MultiModelServer {
    let models = shard
        .models()
        .iter()
        .map(|m| m.clone().with_scheduler(SchedulerKind::Fifs))
        .collect();
    MultiModelServer::with_groups(
        models,
        shard.groups().to_vec(),
        shard.budget(),
        shard.config().clone(),
    )
}

/// A small deterministic generator for the seeded parts of a workload's
/// inputs that the library's trace generators do not cover (fault times).
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Uniform in `[0, 1)` (splitmix64).
    pub fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}
