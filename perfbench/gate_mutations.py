"""Shows that every correctness check of the benchmark fires.

Each entry below feeds one check a deliberately wrong input: it copies the
benchmark into `perfbench/out/gate/` (ignored by git), replaces one code
snippet, builds the copy against this repository and runs one workload
for one second. The run must exit with code 1, print `"correct": false`
and name the expected check on standard error. The benchmark itself is
never modified.

    python3 perfbench/gate_mutations.py [index ...]
"""
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
GATE = os.path.join(BENCH, "out", "gate")
COPY = os.path.join(GATE, "perfbench")
TARGET = os.path.join(GATE, "target")

MUTS = [
 ("conservation: drop a query from the fed arrivals", "src/ladder.rs",
  "self.trace.iter().map(|&tq| (None, tq))", "self.trace.iter().skip(1).map(|&tq| (None, tq))",
  "fleet_faults", "0", "conservation: offered"),
 ("repetition identity: rep 2+ replays a shifted fixed-rate trace", "src/paper_server.rs",
  """        let (fixed, _) = tr.span("server.fixed_rate", at, |_| {
            self.fixed_run(&self.elsa, ReportDetail::Summary)
        });""",
  """        static REP: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let skip = usize::from(REP.fetch_add(1, std::sync::atomic::Ordering::SeqCst) > 0);
        let (fixed, _) = tr.span("server.fixed_rate", at, |_| {
            self.elsa.run_stream_sla(self.trace.iter().skip(skip).copied(), ReportDetail::Summary, Some(self.sla_ns))
        });""",
  "paper_server", "0", "simulated different results"),
 ("paper reference: run_reference gets a shifted prefix", "src/paper_server.rs",
  "let reference = self.elsa.run_reference(prefix);", "let reference = self.elsa.run_reference(&prefix[1..]);",
  "paper_server", "0", "fast path differs from run_reference"),
 ("paper measure_point: library point at another seed", "src/paper_server.rs",
  "measure_point(&self.elsa, &self.dist, rate, &self.sweep_config())",
  "measure_point(&self.elsa, &self.dist, rate, &SweepConfig::new(POINT_SECS, self.seed + 1, self.sla_ns))",
  "paper_server", "0", "differs from measure_point"),
 ("paper full-detail replay: replay drops a query", "src/paper_server.rs",
  "let full = self.fixed_run(&self.elsa, ReportDetail::Full);",
  "let full = self.elsa.run_stream_sla(self.trace.iter().skip(1).copied(), ReportDetail::Full, Some(self.sla_ns));",
  "paper_server", "0", "full-detail fixed-rate run differs"),
 ("fleet invariant 11: the 2-thread replay uses per-event windows", "src/clustered.rs",
  ".run(ReportDetail::Summary, self.window, self.pool_threads);",
  ".run(ReportDetail::Summary, paris_elsa::cluster::SyncWindow::PerEvent, self.pool_threads);",
  "fleet_faults", "0", "invariant 11"),
 ("cluster full-detail replay: another window mode", "src/clustered.rs",
  ".run(ReportDetail::Full, self.window, 1);",
  ".run(ReportDetail::Full, paris_elsa::cluster::SyncWindow::PerEvent, 1);",
  "fleet_faults", "0", "full-detail run's latency histogram differs"),
 ("drift invariant 12: the untraced replay gets a fault-free plan", "src/clustered.rs",
  """        let replay = self
            .form()
            .run(""",
  """        let replay = crate::ladder::ClusterForm { plan: &FaultPlan::new(), ..self.form() }
            .run(""",
  "drift_brownout", "0", "invariant 12"),
 ("drift invariant 13: oracle on another bin width", "src/ladder.rs",
  "MetricRegistry::from_trace(trace, registry.window_ns(), &cluster.lane_gpcs())",
  "MetricRegistry::from_trace(trace, 2 * registry.window_ns(), &cluster.lane_gpcs())",
  "drift_brownout", "0", "invariant 13"),
 ("drift trace conservation: a complete with no arrival", "src/ladder.rs",
  "if let Err(e) = check_conservation(trace) {",
  """if let Err(e) = check_conservation(&trace.annotated([paris_elsa::obs::TraceRecord { at: paris_elsa::des::SimTime::ZERO, key: 0, lane: 0, seq: u64::MAX, event: paris_elsa::obs::TraceEvent::Complete { query: u64::MAX, worker: 0, latency_ns: 1 } }])) {""",
  "drift_brownout", "0", "trace conservation"),
 ("drift attribution residual: one cause share off by 1 ns", "src/ladder.rs",
  ".map(|a| (a.excess_ns - a.causes_sum()).unsigned_abs())",
  ".map(|a| (a.excess_ns + 1 - a.causes_sum()).unsigned_abs())",
  "drift_brownout", "0", "attribution residual"),
 ("drift alerts: SLOs on classes no workload serves", "src/ladder.rs",
  """        SloSpec::new("premium-avail", 0, 0.95).with_windows(2, 6),
        SloSpec::new("batch-avail", 1, 0.5).with_windows(2, 6),""",
  """        SloSpec::new("premium-avail", 7, 0.95).with_windows(2, 6),
        SloSpec::new("batch-avail", 8, 0.5).with_windows(2, 6),""",
  "drift_brownout", "0", "no SLO alert"),
 ("traced run invariant 11: the serial rung gets per-event windows", "src/ladder.rs",
  """        let (r, s) = tr.span("cluster.serial", at, |_| {
            form.run(ReportDetail::Summary, form.window, 1)""",
  """        let (r, s) = tr.span("cluster.serial", at, |_| {
            form.run(ReportDetail::Summary, SyncWindow::PerEvent, 1)""",
  "fleet_faults", "1", "invariant 11"),
 ("traced run: profiled run on an empty fault timeline", "src/ladder.rs",
  "&form.plan.compile(),", "&FaultPlan::new().compile(),",
  "fleet_faults", "1", "profiled run's report differs"),
 ("traced run invariant 12: instrumented rung drops a query", "src/ladder.rs",
  """        run_with_faults_windowed_instrumented(
            form.cluster,
            form.arrivals(),""",
  """        run_with_faults_windowed_instrumented(
            form.cluster,
            form.arrivals().skip(1),""",
  "paper_server", "1", "invariant 12"),
]
only = sys.argv[1:]
ok = True
for i, (name, f, old, new, w, trace, expect) in enumerate(MUTS):
    if only and str(i) not in only:
        continue
    shutil.rmtree(COPY, ignore_errors=True)
    shutil.copytree(BENCH, COPY, ignore=shutil.ignore_patterns("out", "target"))
    cargo = os.path.join(COPY, "Cargo.toml")
    with open(cargo) as fh:
        manifest = fh.read().replace('path = ".."', f'path = "{REPO}"')
    with open(cargo, "w") as fh:
        fh.write(manifest)
    path = os.path.join(COPY, f)
    with open(path) as fh:
        code = fh.read()
    if code.count(old) != 1:
        print(f"[{i}] SNIPPET NOT FOUND {name}")
        ok = False
        continue
    with open(path, "w") as fh:
        fh.write(code.replace(old, new))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", cargo],
        env={**os.environ, "CARGO_TARGET_DIR": TARGET},
        capture_output=True,
        text=True,
    )
    if build.returncode != 0:
        print(f"[{i}] BUILD FAILED {name}\n{build.stderr[-2000:]}")
        ok = False
        continue
    run = subprocess.run(
        [os.path.join(TARGET, "release", "perfbench"), "--workload", w, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        capture_output=True,
        text=True,
    )
    fired = [line for line in run.stderr.splitlines() if line.startswith("CHECK FAILED")]
    last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    good = run.returncode == 1 and any(expect in line for line in fired) and '"correct": false' in last
    ok &= good
    print(f"[{i}] {'FIRES' if good else 'DID NOT FIRE'} exit={run.returncode} {name}: {fired[:2]}", flush=True)
shutil.rmtree(COPY, ignore_errors=True)
print("every check fired" if ok else "SOME CHECKS DID NOT FIRE")
sys.exit(0 if ok else 1)
