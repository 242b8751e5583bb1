//! sebmc's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <engine-deep|qbf-shallow|batch-certify|daemon-mixed>
//!           --seed N --seconds S --trace 0|1 [--cli PATH] [--trace-out FILE]
//! perfbench --mint-expected
//! ```
//!
//! Every workload runs in three phases. Set-up is repeated
//! [`SETUP_ROUNDS`] times (model construction, daemon spawn and
//! handshake where there is one, and an untimed warm-up pass); its
//! median is `setup_s`. The timed phase then repeats the workload's
//! fixed pass of work, whole passes only, until `--seconds` have gone
//! by. With `--trace 1` untraced and traced passes alternate, the
//! traced ones record spans, and the per-layer metrics plus the tracing
//! overhead are printed instead of the end-to-end ones.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! A wrong verdict, a missing certificate or a count that differs
//! between passes makes `correct` false and the exit code 1. See
//! `README.md` for the workloads and the metric definitions.

mod batch_certify;
mod daemon_mixed;
mod engine_deep;
mod oracle;
mod qbf_shallow;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Span;

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// Every per-layer metric with its unit, in output order. A workload
/// reports the ones its layers produce; the rest read 0, meaning the
/// workload does not reach that layer.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.start_ms", "ms"),
    ("core.unroll.check_ms", "ms"),
    ("core.jsat.check_ms", "ms"),
    ("core.unroll.peak_db_bytes", "bytes"),
    ("core.jsat.peak_db_bytes", "bytes"),
    ("core.encode_lits_max", "count"),
    ("core.bounds_checked", "count"),
    ("sat.conflicts", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("sat.peak_watch_bytes", "bytes"),
    ("qbf.linear.check_ms", "ms"),
    ("qbf.squaring.check_ms", "ms"),
    ("qbf.decisions", "count"),
    ("qbf.peak_matrix_bytes", "bytes"),
    ("qbf.budget_overrun_ms", "ms"),
    ("qbf.linear.decided_frac", "ratio"),
    ("qbf.squaring.decided_frac", "ratio"),
    ("analysis.reduce_ms", "ms"),
    ("analysis.latches_removed", "count"),
    ("analysis.inputs_removed", "count"),
    ("proof.bytes_checked", "bytes"),
    ("proof.lemmas_checked", "count"),
    ("proof.certified_frac", "ratio"),
    ("proof.peak_active_clauses", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.attempts_per_job", "ratio"),
    ("service.queue_high_water", "count"),
    ("service.cache_hit_frac", "ratio"),
    ("serve.accept_ms", "ms"),
    ("serve.push_ms", "ms"),
    ("serve.push_tail_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// How one operation ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Decided, correct, certified where asked, inside its budget.
    Ok,
    /// No verdict under the E1 budget (timeout or budget overrun): a
    /// measured outcome that lowers `success_frac`, not an error.
    Undecided(String),
    /// Wrong verdict, missing certificate, refused or unexpectedly
    /// undecided: counted in `failed` and fails the run.
    Failed(String),
}

/// One operation: an engine-deep session, a QBF instance, or a job.
#[derive(Clone, Debug)]
pub struct Op {
    /// Instance or job label, for the failure listing.
    pub label: String,
    /// Time to verdict in milliseconds (submit to report for jobs).
    pub ms: f64,
    /// How it ended.
    pub outcome: Outcome,
    /// `RunStats::peak_formula_bytes`, or 0 when the operation did no
    /// solving of its own (a cache hit).
    pub db_bytes: u64,
}

/// One pass of a workload's fixed work.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the pass in seconds.
    pub wall_s: f64,
    /// Every operation of the pass.
    pub ops: Vec<Op>,
    /// Deterministic counts that must repeat exactly from pass to pass
    /// (empty when the workload's passes differ by design).
    pub counts: Vec<(&'static str, u64)>,
    /// Per-layer values of this pass (used from traced passes only).
    pub layers: Vec<(&'static str, f64)>,
    /// Spans recorded during the pass (traced passes only).
    pub spans: Vec<Span>,
}

/// What a workload reports after its timed phase.
pub struct Finish {
    /// Peak resident set of the process doing the work (VmHWM).
    pub peak_rss_bytes: u64,
    /// Correctness problems found after the fact (empty when correct).
    pub problems: Vec<String>,
    /// Label prefixes of operations found wrong after the fact; they
    /// are counted as failed.
    pub wrong: Vec<String>,
    /// Extra per-layer values that are only known at the end.
    pub layers: Vec<(&'static str, f64)>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// Stops whatever the previous set-up round started. It runs before
    /// every round and is not part of `setup_s`.
    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One set-up round: builds the inputs (and whatever serves them)
    /// from scratch and runs the untimed warm-up pass, which is
    /// returned. The state of the last round is what the timed phase
    /// uses.
    fn setup(&mut self) -> Result<Pass, String>;
    /// One timed pass, recording spans when `traced`.
    fn pass(&mut self, traced: bool) -> Result<Pass, String>;
    /// Reads the peak memory figure first, then tears down, runs the
    /// verdict oracle and reports the end-of-run figures.
    fn finish(&mut self) -> Result<Finish, String>;
}

/// Peak resident set (`VmHWM`) of process `pid`, in bytes.
pub fn vm_hwm(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Splits a seed into a stream of well-mixed 64-bit values.
pub fn rng(seed: u64, salt: u64) -> sebmc_logic::rng::SplitMix64 {
    sebmc_logic::rng::SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Shuffles `v` (Fisher-Yates) with the stream `rng(seed, salt)`.
pub fn shuffle<T>(v: &mut [T], seed: u64, salt: u64) {
    let mut r = rng(seed, salt);
    for i in (1..v.len()).rev() {
        v.swap(i, r.below(i + 1));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--mint-expected" {
            return Ok(None);
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad seconds '{v}'"))?,
            "--trace" => a.trace = v == "1",
            "--cli" => a.cli = Some(v.into()),
            "--trace-out" => a.trace_out = Some(v.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(a))
}

fn make_workload(a: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match a.workload.as_str() {
        "engine-deep" => Box::new(engine_deep::EngineDeep::new(a.seed)),
        "qbf-shallow" => Box::new(qbf_shallow::QbfShallow::new(a.seed)),
        "batch-certify" => Box::new(batch_certify::BatchCertify::new(a.seed)),
        "daemon-mixed" => {
            let cli = a.cli.clone().ok_or("daemon-mixed needs --cli PATH")?;
            Box::new(daemon_mixed::DaemonMixed::new(a.seed, cli))
        }
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match oracle::mint(&engine_deep::table_models()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints the report; `Ok(false)` when any
/// correctness check failed.
fn run(a: &Args) -> Result<bool, String> {
    let mut w = make_workload(a)?;
    let mut setup_s = Vec::new();
    let mut warm = Pass::default();
    for _ in 0..SETUP_ROUNDS {
        w.teardown()?;
        let t = Instant::now();
        warm = w.setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let budget = Duration::from_secs_f64(a.seconds);
    let min_passes = if a.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    while passes.len() < min_passes || start.elapsed() < budget {
        let traced = a.trace && passes.len() % 2 == 1;
        passes.push((traced, w.pass(traced)?));
    }
    let fin = w.finish()?;
    for (_, p) in &mut passes {
        for o in &mut p.ops {
            if fin.wrong.iter().any(|w| o.label.starts_with(w.as_str())) {
                o.outcome = Outcome::Failed("wrong verdict".into());
            }
        }
    }

    let mut problems = fin.problems;
    for (i, (_, p)) in passes.iter().enumerate() {
        if p.counts != warm.counts {
            problems.push(format!(
                "exact-repeat check: pass {i} counts {:?} differ from the warm-up pass {:?}",
                p.counts, warm.counts
            ));
        }
    }
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let measured: Vec<&Pass> = if a.trace {
        passes.iter().map(|(_, p)| p).collect()
    } else {
        untraced.clone()
    };
    let ops: Vec<&Op> = measured.iter().flat_map(|p| p.ops.iter()).collect();
    let failed: Vec<&&Op> = ops
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Failed(_)))
        .collect();
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    for o in &failed {
        if let Outcome::Failed(why) = &o.outcome {
            *failures.entry(format!("{}: {why}", o.label)).or_default() += 1;
        }
    }
    problems.extend(failures.into_iter().map(|(f, n)| format!("{f} (x{n})")));

    println!(
        "workload {} seed {} : {} set-up rounds, {} timed passes ({} traced) in {:.2} s",
        a.workload,
        a.seed,
        setup_s.len(),
        passes.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    for n in &fin.notes {
        println!("  {n}");
    }
    let walls: Vec<String> = passes
        .iter()
        .map(|(_, p)| format!("{:.3}", p.wall_s))
        .collect();
    println!("  pass walls (s): {}", walls.join(" "));
    list_undecided(&ops);

    let metrics: Vec<(&str, f64, &str)> = if a.trace {
        layer_metrics(&untraced, &traced, &fin.layers)
    } else {
        end_to_end(&setup_s, &untraced, fin.peak_rss_bytes)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if a.trace {
        if let Some(path) = &a.trace_out {
            let all: Vec<Span> = traced
                .iter()
                .flat_map(|p| p.spans.iter().cloned())
                .collect();
            spans::write_jsonl(path, &all)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("  spans written to {}", path.display());
        }
    }
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    let correct = problems.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    // A value that is not a finite number already made the run incorrect;
    // print it as 0 so the result line stays valid JSON.
    let body = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        ops.len(),
        failed.len()
    );
    Ok(correct)
}

/// Prints every undecided operation grouped by label and cause, so
/// nothing undecided is dropped silently.
fn list_undecided(ops: &[&Op]) {
    let mut by: BTreeMap<(String, String), usize> = BTreeMap::new();
    for o in ops {
        if let Outcome::Undecided(cause) = &o.outcome {
            *by.entry((o.label.clone(), cause.clone())).or_default() += 1;
        }
    }
    for ((label, cause), n) in by {
        println!("  undecided: {label} ({cause}) x{n}");
    }
}

/// The end-to-end metrics. Wall times, medians and geometric means are
/// taken per pass and their mean over the passes is reported: this
/// machine's speed flips between states lasting seconds, and the mean
/// averages the states a run saw where a median would pick one of them.
/// The tail needs ten samples beyond it and is taken over every
/// operation.
fn end_to_end(
    setup_s: &[f64],
    passes: &[&Pass],
    peak_rss_bytes: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_pass = |f: &dyn Fn(&[f64]) -> f64| {
        let v: Vec<f64> = passes
            .iter()
            .map(|p| f(&p.ops.iter().map(|o| o.ms).collect::<Vec<_>>()))
            .collect();
        stats::mean(&v)
    };
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops.iter().map(|o| o.ms))
        .collect();
    let ok = passes
        .iter()
        .flat_map(|p| p.ops.iter())
        .filter(|o| o.outcome == Outcome::Ok)
        .count();
    // Bytes repeat exactly from pass to pass (checked), so the first
    // timed pass stands for all of them.
    let bytes: Vec<f64> = passes[0]
        .ops
        .iter()
        .filter(|o| o.db_bytes > 0)
        .map(|o| o.db_bytes as f64)
        .collect();
    let (tail, pct, n) = stats::tail(&lat);
    println!("  latency tail is p{pct:.2} of {n} operations");
    vec![
        ("setup_s", stats::median(setup_s), "s"),
        (
            "wall_s",
            stats::mean(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
            "s",
        ),
        ("latency_p50_ms", per_pass(&stats::median), "ms"),
        ("latency_tail_ms", tail, "ms"),
        ("verdict_time_gmean_ms", per_pass(&stats::gmean), "ms"),
        ("success_frac", ok as f64 / lat.len() as f64, "ratio"),
        (
            "peak_db_bytes",
            bytes.iter().copied().fold(0.0, f64::max),
            "bytes",
        ),
        ("db_bytes_gmean", stats::gmean(&bytes), "bytes"),
        ("peak_rss_bytes", peak_rss_bytes as f64, "bytes"),
    ]
}

fn layer_metrics(
    untraced: &[&Pass],
    traced: &[&Pass],
    extra: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in traced {
        for (n, v) in &p.layers {
            values.entry(n).or_default().push(*v);
        }
    }
    for (n, v) in extra {
        values.entry(n).or_default().push(*v);
    }
    let wall = |ps: &[&Pass]| stats::mean(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let spans: usize = traced.iter().map(|p| p.spans.len()).sum();
    values.insert("trace.overhead_ratio", vec![wall(traced) / wall(untraced)]);
    values.insert("trace.spans", vec![spans as f64 / traced.len() as f64]);
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).map_or(0.0, |v| stats::median(v));
            (name, v, unit)
        })
        .collect()
}
