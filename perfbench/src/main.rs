//! `perfbench` — the repository benchmark: three seeded open-loop
//! workloads through the PARIS/ELSA stack, measured end to end (tracing
//! off) or rung by rung (tracing on), with every correctness check run on
//! every invocation.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_server|fleet_faults|drift_brownout \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `attempted` counts the
//! queries offered by the timed calls and `failed` the ones lost (offered −
//! completed − shed). A failed correctness check prints `"correct": false`
//! and exits with code 1. See `perfbench/README.md` for the workloads and
//! metric definitions.

mod alloc;
mod clustered;
mod drift_brownout;
mod fleet_faults;
mod ladder;
mod metrics;
mod paper_server;
mod spans;

use std::time::Instant;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use paris_elsa::gpu::{GpuLayout, ProfileSize};
use spans::{SpanId, Tracer};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Fewest timed repetitions per run, however long each one takes.
const MIN_REPS: usize = 3;

/// What one timed call simulated, reduced to what the harness gates on.
pub struct Outcome<R> {
    /// Queries offered to the system (the arrival schedule's length).
    pub offered: u64,
    pub completed: u64,
    /// Queries refused at admission.
    pub shed: u64,
    /// Queries the SLA gate covers (for `paper_server` the fixed-rate
    /// run; the throughput search overloads on purpose).
    pub sla_offered: u64,
    /// Of those, queries over their SLA or shed: a refused query misses.
    pub sla_missed: u64,
    /// `Debug` rendering of every simulated result of the call: the
    /// repetitions of a run must agree on it byte for byte.
    pub fingerprint: String,
    /// The call's full result, kept from the first repetition for the
    /// checks and the per-layer ladder.
    pub report: R,
}

impl Outcome<()> {
    /// Attaches the call's full result.
    pub fn with_report<R>(self, report: R) -> Outcome<R> {
        Outcome {
            offered: self.offered,
            completed: self.completed,
            shed: self.shed,
            sla_offered: self.sla_offered,
            sla_missed: self.sla_missed,
            fingerprint: self.fingerprint,
            report,
        }
    }
}

/// Exact simulated latency percentiles of the workload's queries.
pub struct Percentiles {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p999_ms: f64,
    pub samples: u64,
}

impl Percentiles {
    pub fn of(recorder: &paris_elsa::metrics::LatencyRecorder) -> Self {
        Percentiles {
            p50_ms: recorder.percentile_ms(0.50),
            p95_ms: recorder.percentile_ms(0.95),
            p999_ms: recorder.percentile_ms(0.999),
            samples: recorder.count() as u64,
        }
    }
}

/// One benchmark workload: its inputs, its timed calls, its checks and its
/// per-layer ladder. The library only ever sees the generated inputs.
pub trait Workload: Sized {
    const NAME: &'static str;
    type Report;

    /// Builds every input of the timed calls from the seed.
    fn setup(seed: u64, tr: &Tracer, at: Option<SpanId>) -> Self;
    /// Host seconds of this set-up's PARIS planning and trace generation.
    fn setup_parts(&self) -> (f64, f64);
    /// Worker threads the timed calls use.
    fn threads(&self) -> usize;
    /// One timed repetition of the workload's public calls.
    fn run(&self, tr: &Tracer, at: Option<SpanId>) -> Outcome<Self::Report>;
    /// The workload's correctness checks beyond conservation and
    /// repetition identity (each may re-run the inputs untimed), returning
    /// the exact latency percentiles of the run's queries.
    fn check(&self, first: &Outcome<Self::Report>, errors: &mut Vec<String>) -> Percentiles;
    /// The traced run's rungs, under span `at`; fills every per-layer
    /// metric not set by the harness.
    fn ladder(
        &self,
        first: &Outcome<Self::Report>,
        tr: &Tracer,
        at: Option<SpanId>,
        m: &mut Metrics,
        errors: &mut Vec<String>,
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper_server" => bench::<paper_server::PaperServer>(&args),
        "fleet_faults" => bench::<fleet_faults::FleetFaults>(&args),
        "drift_brownout" => bench::<drift_brownout::DriftBrownout>(&args),
        other => Err(format!(
            "unknown workload {other} (paper_server, fleet_faults, drift_brownout)"
        )),
    };
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The gated counts of every repetition of a run, and the first one's
/// results.
struct Tally<R> {
    reps: usize,
    attempted: u64,
    lost: u64,
    first: Option<Outcome<R>>,
}

impl<R> Default for Tally<R> {
    fn default() -> Self {
        Tally {
            reps: 0,
            attempted: 0,
            lost: 0,
            first: None,
        }
    }
}

impl<R> Tally<R> {
    /// Counts one repetition and checks it conserves queries and repeats
    /// the first repetition's simulated results byte for byte.
    fn add(&mut self, out: Outcome<R>, errors: &mut Vec<String>) {
        self.reps += 1;
        self.attempted += out.offered;
        self.lost += out.offered.saturating_sub(out.completed + out.shed);
        if out.offered != out.completed + out.shed {
            errors.push(format!(
                "conservation: offered {} != completed {} + shed {}",
                out.offered, out.completed, out.shed
            ));
        }
        match &self.first {
            None => self.first = Some(out),
            Some(f) if f.fingerprint != out.fingerprint => errors.push(format!(
                "repetition {} simulated different results than repetition 1",
                self.reps
            )),
            Some(_) => {}
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First quartile, median and third quartile (nearest rank).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| v[((p * (v.len() - 1) as f64).round() as usize).min(v.len() - 1)];
    [at(0.25), median(values), at(0.75)]
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one workload end to end and prints its result; returns whether
/// every check passed.
fn bench<W: Workload>(args: &Args) -> Result<bool, String> {
    let tr = Tracer::new(W::NAME);
    tr.set_on(args.trace);
    let mut errors: Vec<String> = Vec::new();

    // Set-up, several times; the last one's inputs are kept. The first
    // set-up also pays the process-wide lazy MIG layout table, so the timed
    // calls never do.
    let (mut setup_s, mut plan_s, mut generate_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<W> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (w, secs) = tr.span("setup", None, |at| {
            let _ = GpuLayout::fits(&[ProfileSize::G1]);
            W::setup(args.seed, &tr, at)
        });
        let (plan, generate) = w.setup_parts();
        setup_s.push(secs);
        plan_s.push(plan);
        generate_s.push(generate);
        kept = Some(w);
    }
    let w = kept.expect("at least one set-up ran");

    // Timed calls, untraced, for --seconds.
    tr.set_on(false);
    let budget = args.seconds as f64;
    let started = Instant::now();
    let (mut run_s, mut qps, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    while run_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < budget {
        let base = alloc::reset_peak();
        let (out, secs) = tr.span("run", None, |at| w.run(&tr, at));
        peaks.push(alloc::peak_above(base));
        run_s.push(secs);
        qps.push(out.completed as f64 / secs);
        tally.add(out, &mut errors);
    }

    // Traced repetitions of the same calls: the tracing overhead.
    let overhead_pct = if args.trace {
        tr.set_on(true);
        let mut traced_s = Vec::new();
        for _ in 0..MIN_REPS {
            let (out, secs) = tr.span("run", None, |at| w.run(&tr, at));
            traced_s.push(secs);
            tally.add(out, &mut errors);
        }
        100.0 * (median(&traced_s) / median(&run_s) - 1.0)
    } else {
        0.0
    };
    let Tally {
        attempted,
        lost,
        first,
        ..
    } = tally;
    let first = first.expect("at least one repetition ran");

    let exact = w.check(&first, &mut errors);

    let host_cores = host_cores();
    println!(
        "perfbench {} seed={} host_cores={} threads={} trace={} reps={} setups={}",
        W::NAME,
        args.seed,
        host_cores,
        w.threads(),
        u8::from(args.trace),
        run_s.len(),
        SETUP_REPS
    );
    println!(
        "  per repetition: offered {} completed {} shed {}; SLA missed {} of {}",
        first.offered, first.completed, first.shed, first.sla_missed, first.sla_offered
    );

    let q = quartiles(&run_s);
    println!(
        "  timed call host seconds over {} repetitions: q1 {:.4} median {:.4} q3 {:.4}",
        run_s.len(),
        q[0],
        q[1],
        q[2]
    );

    let mut m = Metrics::default();
    let json = if args.trace {
        let (ladder, _) = tr.span("ladder", None, |at| {
            w.ladder(&first, &tr, at, &mut m, &mut errors);
            at
        });
        m.set_n(
            "workload.generate_s",
            median(&generate_s),
            SETUP_REPS as u64,
        );
        m.set_n("core.plan_s", median(&plan_s), SETUP_REPS as u64);
        m.set_note(
            "bench.trace_overhead_pct",
            overhead_pct,
            format!(
                "median of {MIN_REPS} traced repetitions vs the median of {} untraced",
                run_s.len()
            ),
        );
        m.set("bench.host_cores", host_cores as f64);
        m.set("bench.threads", w.threads() as f64);
        for (name, value) in m.values() {
            tr.count(ladder, name, value);
        }
        let json = m.render(PER_LAYER)?;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", W::NAME, args.seed));
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host_cores\": {host_cores}, \"threads\": {}}}",
            W::NAME,
            args.seed,
            w.threads()
        );
        std::fs::create_dir_all(path.parent().expect("span file has a directory"))
            .and_then(|()| std::fs::write(&path, tr.to_jsonl(&header)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  {} spans written to {}", tr.span_count(), path.display());
        json
    } else {
        let n = run_s.len() as u64;
        m.set_n("sim_qps_host", median(&qps), n);
        m.set_n("setup_s", median(&setup_s), SETUP_REPS as u64);
        m.set_n("peak_heap_mb", median(&peaks), n);
        m.set_n("sim_p50_ms", exact.p50_ms, exact.samples);
        m.set_n("sim_p95_ms", exact.p95_ms, exact.samples);
        m.set_n("sim_p999_ms", exact.p999_ms, exact.samples);
        m.set_note(
            "sla_miss_pct",
            100.0 * first.sla_missed as f64 / first.sla_offered as f64,
            format!("of {} offered; shed counts as a miss", first.sla_offered),
        );
        m.render(END_TO_END)?
    };

    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {lost}, \"metrics\": {json}}}"
    );
    Ok(correct)
}
