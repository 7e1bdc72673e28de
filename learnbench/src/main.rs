//! Steady end-to-end benchmark of the circuit learner.
//!
//! ```text
//! learnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--cirlearn <path>]
//! ```
//!
//! One invocation runs one workload in its own process, so its peak
//! memory belongs to that workload. The load is one closed-loop
//! client: the learner sends a query batch, waits for the answers, and
//! only then sends the next, single-threaded.
//!
//! Work is fixed by counts, not clocks: the learner's and optimizer's
//! wall budgets sit far above any run, and FBDT work is capped by
//! `LearnerConfig::max_queries`. Queries, gates and accuracy therefore
//! repeat exactly for a seed; only time and memory vary. The workload
//! is learned repeatedly until `--seconds` are spent (at least
//! [`MIN_REPS`] times) and times are reported as medians over those
//! repetitions, leaving out repetitions the host disturbed with steal
//! (see [`steady`]).
//!
//! `--trace 0` runs with telemetry disabled and prints the end-to-end
//! metrics. `--trace 1` runs that untraced pass and then a traced pass
//! (`Telemetry::recording()`), and prints the per-layer metrics, read
//! from the benchmark's oracle probe and from the stage spans and
//! attribution ledger the learner emits.
//!
//! Every learned circuit is checked; the last line of stdout is one
//! JSON object, and a failed check exits with code 1.

mod host;
mod probe;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cirlearn::{LearnResult, Learner, LearnerConfig, Strategy};
use cirlearn_aig::Aig;
use cirlearn_oracle::{evaluate_accuracy, Category, EvalConfig, FaultStats, Oracle};
use cirlearn_synth::map::map_gates;
use cirlearn_telemetry::{counters, histograms, RunReport, Telemetry};
use cirlearn_verify::{lint, verify_pass, VerifyConfig, VerifyLevel};

use crate::probe::{Probe, ProbeStats};
use crate::workload::{BlackBox, Case, Workload};

/// Fewest repetitions of the workload per pass, so a median exists.
const MIN_REPS: usize = 3;
/// Full black-box constructions timed before each repetition; their
/// median over the run is `setup_s`.
const SETUP_REPS: usize = 5;
/// Wall budget far above any run: work is bounded by counts instead.
const NO_WALL_LIMIT: Duration = Duration::from_secs(24 * 3600);
/// How far the traced stage spans may miss the traced `learn_s`.
const LEDGER_TOLERANCE: f64 = 0.05;
/// Machine-wide steal above this share of a repetition's learning
/// time marks the repetition as disturbed by the host.
const STEAL_LIMIT: f64 = 0.05;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cirlearn: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_owned(), value);
    }
    let mut take = |key: &str| values.remove(key);
    let name = take("workload").ok_or("--workload is required")?;
    let workload = workload::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed = take("seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = take("seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match take("trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        cirlearn: take("cirlearn").map(PathBuf::from),
    };
    match values.keys().next() {
        Some(extra) => Err(format!("unknown option --{extra}")),
        None => Ok(args),
    }
}

fn learner_config(workload: &Workload) -> LearnerConfig {
    let mut config = LearnerConfig::fast();
    config.time_budget = NO_WALL_LIMIT;
    config.max_queries = workload.max_queries;
    if let Some(optimize) = &mut config.optimize {
        optimize.time_budget = NO_WALL_LIMIT;
    }
    config
}

/// The parts of a learning run that must repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    queries: u64,
    degraded: usize,
    /// FNV-1a of the learned circuit's AIGER text.
    circuit: u64,
}

/// Everything one learning run of one case produced.
struct CaseRun {
    learn: Duration,
    probe: ProbeStats,
    faults: FaultStats,
    result: LearnResult,
    report: Option<RunReport>,
    fingerprint: Fingerprint,
    problems: Vec<String>,
}

/// How good a learned circuit is. Scored once per case: every later
/// run must learn the identical circuit.
struct Score {
    gates: usize,
    hits: u64,
    total: u64,
    eval: Duration,
    problems: Vec<String>,
}

impl Score {
    fn percent(&self) -> f64 {
        100.0 * self.hits as f64 / self.total.max(1) as f64
    }
}

/// One repetition: every black box of the workload learned once.
struct Rep {
    runs: Vec<CaseRun>,
    /// Machine-wide steal while the repetition learned, seconds.
    steal_s: f64,
}

impl Rep {
    fn learn_s(&self) -> f64 {
        self.runs.iter().map(|r| r.learn.as_secs_f64()).sum()
    }

    fn steal_share(&self) -> f64 {
        ratio(self.steal_s, self.learn_s())
    }
}

/// The repetitions times are taken from: those during which the
/// hypervisor stole at most [`STEAL_LIMIT`] of the learning time, or,
/// when more than half were disturbed, the least-disturbed half.
///
/// Steal is time the host ran something else on this machine's CPUs.
/// It lengthens wall time without any change in the program, and on a
/// shared host it comes in bursts of seconds to minutes.
fn steady(reps: &[Rep]) -> Vec<&Rep> {
    let mut sorted: Vec<&Rep> = reps.iter().collect();
    sorted.sort_by(|a, b| a.steal_share().total_cmp(&b.steal_share()));
    let calm = sorted
        .iter()
        .filter(|r| r.steal_share() <= STEAL_LIMIT)
        .count();
    sorted.truncate(calm.max(reps.len().div_ceil(2)));
    sorted
}

/// Outputs of a run that count as failed: all of them when a check
/// failed, otherwise the degraded ones.
fn failed_outputs(run: &CaseRun, score: &Score) -> usize {
    if run.problems.is_empty() && score.problems.is_empty() {
        run.fingerprint.degraded
    } else {
        run.result.outputs.len()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `learner` on `oracle` behind the probe; the clock covers
/// `Learner::learn` only.
fn timed_learn<O: Oracle>(learner: &mut Learner, oracle: O) -> (LearnResult, Duration, ProbeStats) {
    let mut probe = Probe::new(oracle);
    let start = Instant::now();
    let result = learner.learn(&mut probe);
    (result, start.elapsed(), probe.stats())
}

/// Learns one case, then checks the circuit with the clock stopped.
fn learn_case(case: &mut Case, config: &LearnerConfig, traced: bool) -> CaseRun {
    let telemetry = if traced {
        Telemetry::recording()
    } else {
        Telemetry::disabled()
    };
    let mut learner = Learner::with_telemetry(config.clone(), telemetry.clone());
    let ((result, learn, probe), faults) = match &mut case.bbox {
        BlackBox::Local(oracle) => (timed_learn(&mut learner, oracle), FaultStats::default()),
        // Each repetition builds a fresh client, so its fault counters
        // cover this run only.
        BlackBox::Pipe(oracle) => (
            timed_learn(&mut learner, &mut **oracle),
            oracle.inner().fault_stats().clone(),
        ),
    };
    let report = traced.then(|| telemetry.report());

    let golden = &case.golden;
    let circuit = &result.circuit;
    let mut problems = Vec::new();
    let ports_ok = circuit.num_inputs() == golden.num_inputs()
        && circuit.num_outputs() == golden.num_outputs();
    if !ports_ok {
        problems.push(format!(
            "ports {}x{} differ from the black box's {}x{}",
            circuit.num_inputs(),
            circuit.num_outputs(),
            golden.num_inputs(),
            golden.num_outputs()
        ));
    }
    let lints = lint(circuit);
    if let Some(first) = lints.first() {
        problems.push(format!("lint: {} violations, first {first:?}", lints.len()));
    }
    if probe.patterns != result.queries {
        problems.push(format!(
            "learner reports {} queries, the probe saw {}",
            result.queries, probe.patterns
        ));
    }
    if let Some(report) = &report {
        let attributed = report.attribution_total_queries();
        if attributed != result.queries {
            problems.push(format!(
                "attribution ledger sums to {attributed} queries, not {}",
                result.queries
            ));
        }
    }
    let fingerprint = Fingerprint {
        queries: result.queries,
        degraded: result.degraded.len(),
        circuit: fnv1a(circuit.to_aiger_ascii().as_bytes()),
    };
    CaseRun {
        learn,
        probe,
        faults,
        result,
        report,
        fingerprint,
        problems,
    }
}

/// Scores a learned circuit against the hidden one and runs the
/// workload's exactness checks.
fn score_case(case: &Case, circuit: &Aig, exact: bool) -> Score {
    let golden = &case.golden;
    let mut problems = Vec::new();
    let ports_ok = circuit.num_inputs() == golden.num_inputs()
        && circuit.num_outputs() == golden.num_outputs();
    let start = Instant::now();
    let accuracy = ports_ok.then(|| evaluate_accuracy(golden, circuit, &EvalConfig::default()));
    let eval = start.elapsed();
    let (hits, total) = accuracy.map_or((0, 1), |a| (a.hits, a.total));
    if exact && hits != total {
        problems.push(format!("scored {hits}/{total}, expected every pattern"));
    }
    if exact && ports_ok && case.category == Category::Diag {
        if let Err(violation) =
            verify_pass(golden, circuit, &VerifyConfig::at_level(VerifyLevel::Sat))
        {
            problems.push(format!("SAT check against the hidden circuit: {violation}"));
        }
    }
    Score {
        gates: map_gates(circuit).gate_count(),
        hits,
        total,
        eval,
        problems,
    }
}

/// Builds the workload's black boxes and learns each once, repeatedly
/// for about `budget` and at least [`MIN_REPS`] times. Returns the last
/// build and the repetitions.
///
/// Rebuilding before every repetition spreads the timed set-up samples
/// over the whole run, as the learning samples are, so host drift
/// during the run moves both alike.
fn run_pass(
    args: &Args,
    config: &LearnerConfig,
    traced: bool,
    budget: Duration,
    setup_times: &mut Vec<Duration>,
) -> Result<(Vec<Case>, Vec<Rep>), String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep_start = Instant::now();
        let (mut cases, times) = workload::setup(
            args.workload,
            args.seed,
            args.cirlearn.as_deref(),
            SETUP_REPS,
        )?;
        setup_times.extend(times);
        let host_start = host::sample();
        let runs: Vec<CaseRun> = cases
            .iter_mut()
            .map(|case| learn_case(case, config, traced))
            .collect();
        let steal_s = host::sample().since(&host_start).steal_s;
        reps.push(Rep { runs, steal_s });
        // Stop before a repetition that would overrun the budget.
        if reps.len() >= MIN_REPS && start.elapsed() + rep_start.elapsed() > budget {
            return Ok((cases, reps));
        }
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of already sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A metric's name, unit and value, in print order.
type Metric = (&'static str, &'static str, f64);

/// Top-level stages the learner opens spans for.
const STAGES: [&str; 6] = [
    "templates",
    "support",
    "exhaustive",
    "compressed",
    "fbdt",
    "optimize",
];

/// Per-layer metrics of one traced repetition.
fn layer_metrics(rep: &Rep) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&CaseRun, &RunReport) -> f64| -> f64 {
        rep.runs
            .iter()
            .filter_map(|r| r.report.as_ref().map(|report| f(r, report)))
            .sum()
    };
    let stage_s =
        |name: &str| sum(&|_, report| report.stage(name).map_or(0.0, |s| s.elapsed.as_secs_f64()));
    let stage_q = |name: &str| sum(&|_, report| report.attribution_stage_queries(name) as f64);
    let hist = |name: &str, total: bool| {
        sum(&|_, report| {
            report.histograms.get(name).map_or(0.0, |h| {
                if total {
                    h.sum as f64
                } else {
                    h.count as f64
                }
            })
        })
    };

    let learn = rep.learn_s();
    let calls = sum(&|r, _| r.probe.calls as f64);
    let patterns = sum(&|r, _| r.probe.patterns as f64);
    let oracle_s = sum(&|r, _| r.probe.busy.as_secs_f64());
    let support_outputs = sum(&|_, report| report.stage("support").map_or(0.0, |s| s.calls as f64));
    let support_query_s = sum(&|_, report| {
        let ns: u64 = report
            .attribution
            .iter()
            .filter(|a| a.stage == "support")
            .map(|a| a.query_ns)
            .sum();
        ns as f64 / 1e9
    });
    let nodes = hist(histograms::FBDT_NODE_NS, false);
    let fbdt_q = stage_q("fbdt");
    let synth_s = stage_s("optimize");
    let gates_in = sum(&|r, _| {
        r.result
            .outputs
            .iter()
            .map(|o| o.gates_before_opt as f64)
            .sum()
    });
    let gates_out = sum(&|r, _| {
        r.result
            .outputs
            .iter()
            .map(|o| o.gates_after_opt as f64)
            .sum()
    });
    let spans: f64 = STAGES.iter().map(|s| stage_s(s)).sum();
    vec![
        ("trace.learn_s", "s", learn),
        ("trace.stage_cover", "ratio", ratio(spans, learn)),
        ("oracle.calls", "count", calls),
        ("oracle.patterns", "count", patterns),
        ("oracle.patterns_per_call", "count", ratio(patterns, calls)),
        ("oracle.busy_s", "s", oracle_s),
        (
            "oracle.ns_per_pattern",
            "ns",
            ratio(oracle_s * 1e9, patterns),
        ),
        ("oracle.share", "ratio", ratio(oracle_s, learn)),
        ("oracle.errors", "count", sum(&|r, _| r.probe.errors as f64)),
        (
            "oracle.retries",
            "count",
            sum(&|r, _| r.faults.retries as f64),
        ),
        (
            "oracle.respawns",
            "count",
            sum(&|r, _| r.faults.respawns as f64),
        ),
        (
            "oracle.timeouts",
            "count",
            sum(&|r, _| r.faults.timeouts as f64),
        ),
        ("support.busy_s", "s", stage_s("support")),
        ("support.queries", "count", stage_q("support")),
        ("support.query_s", "s", support_query_s),
        (
            "support.queries_per_output",
            "count",
            ratio(stage_q("support"), support_outputs),
        ),
        ("fbdt.busy_s", "s", stage_s("fbdt")),
        ("fbdt.queries", "count", fbdt_q),
        ("fbdt.nodes", "count", nodes),
        (
            "fbdt.ns_per_node",
            "ns",
            ratio(hist(histograms::FBDT_NODE_NS, true), nodes),
        ),
        ("fbdt.queries_per_node", "count", ratio(fbdt_q, nodes)),
        (
            "fbdt.forced_leaves",
            "count",
            sum(&|_, report| report.counter(counters::FBDT_FORCED_LEAVES) as f64),
        ),
        ("exhaustive.busy_s", "s", stage_s("exhaustive")),
        ("exhaustive.queries", "count", stage_q("exhaustive")),
        ("compressed.busy_s", "s", stage_s("compressed")),
        ("compressed.queries", "count", stage_q("compressed")),
        ("templates.busy_s", "s", stage_s("templates")),
        ("templates.queries", "count", stage_q("templates")),
        ("synth.busy_s", "s", synth_s),
        (
            "synth.passes",
            "count",
            hist(histograms::SYNTH_PASS_NS, false),
        ),
        ("synth.gates_in", "count", gates_in),
        ("synth.gates_out", "count", gates_out),
        ("synth.reduction", "ratio", 1.0 - ratio(gates_out, gates_in)),
        ("learner.self_s", "s", learn - oracle_s - synth_s),
    ]
}

/// Per-metric medians over the steady traced repetitions.
fn median_layers(reps: &[Rep]) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = steady(reps).into_iter().map(layer_metrics).collect();
    per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| (name, unit, median(per_rep.iter().map(|m| m[i].2).collect())))
        .collect()
}

/// Compares this run's quality line with the one an earlier run of the
/// same workload, seed and build recorded next to the executable; the
/// first such run records it. The build is identified by a hash of the
/// benchmark and `cirlearn` binaries.
fn check_against_earlier_runs(args: &Args, line: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut build = 0;
    for binary in std::iter::once(exe.as_path()).chain(args.cirlearn.as_deref()) {
        let bytes = fs::read(binary).map_err(|e| format!("reading {}: {e}", binary.display()))?;
        build ^= fnv1a(&bytes);
    }
    let dir = exe.with_file_name("learnbench-state");
    let key = format!("{}-{}-{build:016x}", args.workload.name, args.seed);
    let path = dir.join(format!("{key}.txt"));
    match fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == line => Ok(()),
        Ok(earlier) => Err(format!(
            "quality differs from an earlier run of this seed: now `{line}`, before `{}`",
            earlier.trim()
        )),
        Err(_) => {
            fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let tmp = dir.join(format!("{key}.tmp{}", std::process::id()));
            fs::write(&tmp, format!("{line}\n"))
                .and_then(|()| fs::rename(&tmp, &path))
                .map_err(|e| format!("recording {}: {e}", path.display()))
        }
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("learnbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let config = learner_config(workload);

    let seconds = Duration::from_secs_f64(args.seconds);
    let plain_budget = if args.trace { seconds / 2 } else { seconds };
    let mut setup_times = Vec::new();
    let host_start = host::sample();
    let passes = run_pass(&args, &config, false, plain_budget, &mut setup_times).and_then(
        |(cases, plain)| {
            let traced = if args.trace {
                Some(run_pass(&args, &config, true, seconds / 2, &mut setup_times)?.1)
            } else {
                None
            };
            Ok((cases, plain, traced))
        },
    );
    let host = host::sample().since(&host_start);
    let (cases, plain, traced) = match passes {
        Ok(passes) => passes,
        Err(e) => {
            eprintln!("learnbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let setup_s = median(setup_times.iter().map(Duration::as_secs_f64).collect());
    // Read before scoring, so the peak is set-up plus learning only.
    let peak_rss_mb = host::peak_rss_mb();

    // Checks: every run passed its own checks and learned exactly the
    // circuit of the first run, which is scored once.
    let first = &plain[0].runs;
    let scores: Vec<Score> = cases
        .iter()
        .zip(first)
        .map(|(case, run)| score_case(case, &run.result.circuit, workload.exact))
        .collect();
    let mut problems: Vec<String> = Vec::new();
    for (case, score) in cases.iter().zip(&scores) {
        let label = format!("{} (seed {})", case.name, case.seed);
        problems.extend(score.problems.iter().map(|p| format!("{label}: {p}")));
    }
    let all_reps = plain.iter().chain(traced.iter().flatten());
    let mut attempted = 0;
    let mut failed = 0;
    for (r, rep) in all_reps.enumerate() {
        for (((case, run), base), score) in cases.iter().zip(&rep.runs).zip(first).zip(&scores) {
            let label = format!("{} (seed {}) rep {r}", case.name, case.seed);
            problems.extend(run.problems.iter().map(|p| format!("{label}: {p}")));
            if run.fingerprint != base.fingerprint {
                problems.push(format!(
                    "{label}: not deterministic: {:?} vs {:?}",
                    run.fingerprint, base.fingerprint
                ));
            }
            attempted += run.result.outputs.len();
            failed += failed_outputs(run, score);
        }
    }

    let outputs: usize = first.iter().map(|r| r.result.outputs.len()).sum();
    let first_failed: usize = first
        .iter()
        .zip(&scores)
        .map(|(run, score)| failed_outputs(run, score))
        .sum();
    let accuracies: Vec<f64> = scores.iter().map(Score::percent).collect();
    let queries: u64 = first.iter().map(|r| r.fingerprint.queries).sum();
    let gates: usize = scores.iter().map(|s| s.gates).sum();
    let accuracy_pct = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    let accuracy_min_pct = accuracies.iter().copied().fold(f64::INFINITY, f64::min);
    let intact_frac = 1.0 - ratio(first_failed as f64, outputs as f64);
    let steady_plain = steady(&plain);
    let plain_learn_s = median(steady_plain.iter().map(|rep| rep.learn_s()).collect());
    let eval_s: f64 = scores.iter().map(|s| s.eval.as_secs_f64()).sum();

    let line = format!(
        "queries={queries} gates={gates} accuracy_pct={accuracy_pct} \
         accuracy_min_pct={accuracy_min_pct} failed_outputs={first_failed}"
    );
    if let Err(e) = check_against_earlier_runs(&args, &line) {
        problems.push(e);
    }

    let mut metrics: Vec<Metric> = Vec::new();
    match &traced {
        None => metrics.extend([
            ("learn_s", "s", plain_learn_s),
            ("setup_s", "s", setup_s),
            ("queries", "count", queries as f64),
            ("gates", "count", gates as f64),
            ("accuracy_pct", "%", accuracy_pct),
            ("accuracy_min_pct", "%", accuracy_min_pct),
            ("intact_frac", "ratio", intact_frac),
            ("peak_rss_mb", "MiB", peak_rss_mb),
        ]),
        Some(traced) => {
            let layers = median_layers(traced);
            let value = |name: &str| layers.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);
            let overhead_frac = value("trace.learn_s") / plain_learn_s - 1.0;
            let cover = value("trace.stage_cover");
            if (cover - 1.0).abs() > LEDGER_TOLERANCE {
                problems.push(format!(
                    "traced stage spans cover {cover:.4} of the traced learn_s"
                ));
            }
            if value("learner.self_s") < -LEDGER_TOLERANCE * value("trace.learn_s") {
                problems.push("oracle.busy_s + synth.busy_s exceed the traced learn_s".into());
            }
            let mut output_ms: Vec<f64> = traced
                .iter()
                .flat_map(|rep| &rep.runs)
                .flat_map(|r| &r.result.outputs)
                .filter(|o| {
                    !matches!(
                        o.strategy,
                        Strategy::LinearTemplate | Strategy::ComparatorTemplate
                    )
                })
                .map(|o| o.elapsed.as_secs_f64() * 1e3)
                .collect();
            output_ms.sort_by(f64::total_cmp);
            metrics.extend(layers);
            metrics.extend([
                ("learner.output_ms_p50", "ms", percentile(&output_ms, 0.5)),
                ("learner.output_ms_p90", "ms", percentile(&output_ms, 0.9)),
                ("learner.outputs_n", "count", output_ms.len() as f64),
                ("eval.busy_s", "s", eval_s),
                ("host.steal_s", "s", host.steal_s),
                ("host.runq_wait_s", "s", host.runq_wait_s),
                ("host.cpu_s", "s", host.cpu_s),
                ("trace.overhead_frac", "ratio", overhead_frac),
            ]);
        }
    }

    // Repetitions left out for steal are marked with their steal share.
    let rep_times: Vec<String> = plain
        .iter()
        .map(|rep| {
            if steady_plain.iter().any(|r| std::ptr::eq(*r, rep)) {
                format!("{:.3}", rep.learn_s())
            } else {
                format!(
                    "{:.3}(steal {:.0}%)",
                    rep.learn_s(),
                    100.0 * rep.steal_share()
                )
            }
        })
        .collect();
    eprintln!(
        "learnbench {} seed {}: learn_s {plain_learn_s:.4} over {} of {} untraced reps [{}]{}, \
         setup_s {setup_s:.6} [{:.6} .. {:.6}]; host steal_s {:.3} runq_wait_s {:.3} cpu_s {:.3}",
        workload.name,
        args.seed,
        steady_plain.len(),
        plain.len(),
        rep_times.join(" "),
        traced
            .as_ref()
            .map_or(String::new(), |t| format!(", {} traced reps", t.len())),
        setup_times.iter().min().map_or(0.0, Duration::as_secs_f64),
        setup_times.iter().max().map_or(0.0, Duration::as_secs_f64),
        host.steal_s,
        host.runq_wait_s,
        host.cpu_s,
    );
    for ((case, run), score) in cases.iter().zip(first).zip(&scores) {
        eprintln!(
            "  {:<8} seed {:>20}  learn {:>8.4}s  queries {:>9}  gates {:>6}  accuracy {:>8.3}%  degraded {}",
            case.name,
            case.seed,
            run.learn.as_secs_f64(),
            run.fingerprint.queries,
            score.gates,
            score.percent(),
            run.fingerprint.degraded
        );
    }
    for problem in &problems {
        eprintln!("learnbench: check failed: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            eprintln!("  {name:<28} {value:>14.6} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 0.9), 9.0);
    }
}
