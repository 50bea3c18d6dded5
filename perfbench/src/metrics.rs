//! Metric definitions and the result printer. The two tables below are the
//! benchmark's contract with `BENCHMARK.json`: a run emits exactly one of
//! them (end-to-end with tracing off, per-layer with tracing on), every
//! entry exactly once, or it fails.

use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// Gated end-to-end metrics (tracing off). Host metrics are the noisy
/// ones; the `sim_*` and `sla_miss_pct` metrics are deterministic for a
/// seed, so any change to them is a behaviour change.
pub const END_TO_END: &[Def] = &[
    def("sim_qps_host", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_heap_mb", "MB", Lower),
    def("sim_p50_ms", "ms", Lower),
    def("sim_p95_ms", "ms", Lower),
    def("sim_p999_ms", "ms", Lower),
    def("sla_miss_pct", "%", Lower),
];

/// Per-layer metrics of the traced run, grouped by crate.
pub const PER_LAYER: &[Def] = &[
    def("des.events", "count", Lower),
    def("des.peak_pending", "count", Lower),
    def("des.hold_ns", "ns", Lower),
    def("workload.generate_s", "s", Lower),
    def("workload.queries", "count", Higher),
    def("core.plan_s", "s", Lower),
    def("core.elsa_extra_s", "s", Lower),
    def("core.replans", "count", Lower),
    def("server.ns_per_query", "ns", Lower),
    def("server.sweep_points", "count", Lower),
    def("server.sweep_useful_ratio", "ratio", Higher),
    def("server.sweep_busy_ratio", "ratio", Higher),
    def("server.queue_wait_p95_ms", "ms", Lower),
    def("server.service_p95_ms", "ms", Lower),
    def("server.util_pct", "%", Higher),
    def("cluster.windows", "count", Lower),
    def("cluster.lane_events", "count", Lower),
    def("cluster.gateway_items", "count", Lower),
    def("cluster.lane_events_per_window", "ratio", Higher),
    def("cluster.serial_s", "s", Lower),
    def("cluster.pool_s", "s", Lower),
    def("cluster.pool_overhead_s", "s", Lower),
    def("cluster.critical_path_ratio", "ratio", Higher),
    def("cluster.per_event_s", "s", Lower),
    def("cluster.loans", "count", Lower),
    def("cluster.shed", "count", Lower),
    def("cluster.route_imbalance", "ratio", Lower),
    def("faults.applied", "count", Lower),
    def("faults.requeued", "count", Lower),
    def("faults.outage_gpu_s", "gpu_s", Lower),
    def("obs.online_s", "s", Lower),
    def("obs.trace_s", "s", Lower),
    def("obs.online_peak_mb", "MB", Lower),
    def("obs.trace_peak_mb", "MB", Lower),
    def("obs.trace_events", "count", Lower),
    def("obs.registry_bins", "count", Lower),
    def("obs.slo_eval_s", "s", Lower),
    def("obs.attribute_s", "s", Lower),
    def("obs.alerts", "count", Lower),
    def("obs.attribution_residual_ns", "ns", Lower),
    def("lbt_qps", "1/s", Higher),
    def("shed_pct", "%", Lower),
    def("bench.trace_overhead_pct", "%", Lower),
    def("bench.host_cores", "count", Higher),
    def("bench.threads", "count", Higher),
];

struct Value {
    name: &'static str,
    value: f64,
    samples: Option<u64>,
    note: String,
}

/// The values one run measured, in the order they were set.
#[derive(Default)]
pub struct Metrics {
    values: Vec<Value>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.push(name, value, None, String::new());
    }

    /// A value with its sample count (percentiles, medians).
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.push(name, value, Some(samples), String::new());
    }

    /// A value with a short explanation printed beside it.
    pub fn set_note(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.push(name, value, None, note.into());
    }

    fn push(&mut self, name: &'static str, value: f64, samples: Option<u64>, note: String) {
        self.values.push(Value {
            name,
            value,
            samples,
            note,
        });
    }

    /// Every value set so far, by name.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|v| (v.name, v.value))
    }

    /// Checks the values against `defs` (each defined metric exactly once,
    /// nothing else, every value finite), prints one line per metric and
    /// returns the `"metrics"` JSON object.
    pub fn render(&self, defs: &[Def]) -> Result<String, String> {
        for v in &self.values {
            if !defs.iter().any(|d| d.name == v.name) {
                return Err(format!("metric {} is not in this run's table", v.name));
            }
            if !v.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", v.name, v.value));
            }
        }
        let mut json = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let mut found = self.values.iter().filter(|v| v.name == d.name);
            let v = found
                .next()
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if found.next().is_some() {
                return Err(format!("metric {} was set twice", d.name));
            }
            let better = match d.better {
                Better::Higher => "higher is better",
                Better::Lower => "lower is better",
            };
            let samples = v.samples.map_or(String::new(), |n| format!(", n={n}"));
            let note = if v.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", v.note)
            };
            println!(
                "  {:<30} {:>16.6} {:<6} ({better}{samples}){note}",
                d.name, v.value, d.unit
            );
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                v.value,
                d.unit
            );
        }
        json.push('}');
        Ok(json)
    }
}
