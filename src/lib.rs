//! # paris-elsa — reproduction of "PARIS and ELSA" (DAC 2022)
//!
//! A full-system reproduction of *PARIS and ELSA: An Elastic Scheduling
//! Algorithm for Reconfigurable Multi-GPU Inference Servers* (Kim, Choi,
//! Rhu — DAC 2022): a partitioning algorithm (PARIS) that configures
//! MIG-capable GPUs into a heterogeneous set of partitions matched to the
//! batch-size distribution, and a heterogeneity-aware scheduler (ELSA) that
//! places queries using profiled-latency SLA-slack prediction.
//!
//! The workspace layers, bottom to top:
//!
//! * [`des`] — deterministic discrete-event simulation kernel,
//! * [`dnn`] — layer-level model zoo (ShuffleNet, MobileNet, ResNet-50,
//!   BERT-base, Conformer),
//! * [`gpu`] — A100/MIG geometry and the analytical performance model,
//! * [`workload`] — Poisson arrivals and log-normal batch distributions,
//! * [`metrics`] — latency/throughput/SLA statistics,
//! * [`paris`] — the PARIS and ELSA algorithms themselves,
//! * [`server`] — the simulated multi-GPU inference server and the
//!   evaluation harness (design points, load sweeps),
//! * [`cluster`] — multi-server sharding: N server shards behind a router
//!   in one DES, with Aryl-style batch-pool capacity loaning and brownout
//!   admission control ([`cluster::ShedPolicy`]),
//! * [`faults`] — fault injection & recovery: seedable GPU/shard outage
//!   scenarios with failure domains (racks), slow-GPU degradation,
//!   drain-and-redistribute, availability accounting,
//! * [`obs`] — deterministic observability: DES-clock query flight
//!   recorder, metric registry, Chrome-trace/JSONL exporters, and an
//!   exact latency-breakdown analyzer (zero observer effect).
//!
//! ## Quickstart
//!
//! ```
//! use paris_elsa::prelude::*;
//!
//! // Build the paper's default testbed for ResNet-50 and realize the
//! // full proposal (PARIS partitioning + ELSA scheduling).
//! let bed = Testbed::paper_default(ModelKind::ResNet50);
//! let server = bed.server(DesignPoint::ParisElsa)?;
//!
//! // Drive it with a Poisson/log-normal query stream for half a second.
//! let trace = TraceGenerator::new(200.0, bed.distribution().clone(), 7)
//!     .generate_for(0.5);
//! let report = server.run(&trace);
//! println!(
//!     "p95 {:.2} ms over {} queries",
//!     report.p95_ms(),
//!     report.records.len()
//! );
//! # Ok::<(), paris_elsa::paris::PlanError>(())
//! ```

pub use des_engine as des;
pub use dnn_zoo as dnn;
pub use inference_cluster as cluster;
pub use inference_faults as faults;
pub use inference_obs as obs;
pub use inference_server as server;
pub use inference_workload as workload;
pub use mig_gpu as gpu;
pub use paris_core as paris;
pub use server_metrics as metrics;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::cluster::{
        Cluster, ClusterReport, FaultEvent, FaultTimeline, LoanDemandModel, LoanPolicy,
        RouterPolicy, RunOutput, RunSpec, ShedPolicy, SyncWindow,
    };
    pub use crate::des::{SimDuration, SimTime};
    pub use crate::dnn::{ModelGraph, ModelKind};
    pub use crate::faults::{run_with_faults, FaultDomain, FaultPlan, FaultReport, FaultTopology};
    pub use crate::gpu::{DeviceSpec, GpuLayout, PerfModel, ProfileSize};
    pub use crate::metrics::{
        latency_bounded_throughput, LatencyBreakdown, LatencyRecorder, ThroughputPoint,
        WindowedTail,
    };
    pub use crate::obs::{
        analyze, check_conservation, ChromeTraceWriter, FlightRecorder, MetricRegistry, ObsRequest,
        QueryTrace, TraceEvent, TraceSink,
    };
    pub use crate::paris::{
        homogeneous_plan, random_plan, Elsa, ElsaConfig, GpcBudget, Paris, PartitionPlan,
        ProfileTable, ReconfigMode,
    };
    pub use crate::server::{
        parallel_doubling_search, parallel_map_indexed, rate_sweep,
        search_latency_bounded_throughput, DesignPoint, InferenceServer, ModelSpec,
        MultiModelConfig, MultiModelServer, MultiRunReport, ReplanPolicy, ReportDetail, RunReport,
        SchedulerKind, ServerConfig, SweepConfig, Testbed,
    };
    pub use crate::workload::{
        BatchDistribution, MultiTraceGenerator, PhaseSpec, QuerySpec, TaggedQuerySpec,
        TraceGenerator,
    };
}
