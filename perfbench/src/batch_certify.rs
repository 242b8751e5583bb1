//! `batch-certify`: a seeded stream of single-engine jobs through an
//! in-process `ServiceHandle` (2 workers, result cache off, as the
//! handle defaults), closed loop with 2 jobs outstanding.
//!
//! Certification and reduction are on, as the product defaults, so
//! `proof` (DRAT checking for Unreachable bounds, trace replay for
//! Reachable ones), `analysis` (reduction at admission, then lifting)
//! and the service job lifecycle all do real work. Jobs are
//! single-engine on purpose: a portfolio races engines per bound, so
//! its winner, proof size and clause-database bytes change from run to
//! run, which would make the byte and proof metrics noisy.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use sebmc::{BmcResult, Budget, Semantics};
use sebmc_model::{builders, suite, Model};
use sebmc_service::{EngineKind, Job, JobReport, ServiceConfig, ServiceHandle, ShutdownMode};

use crate::oracle::Oracle;
use crate::spans::Tracer;
use crate::{shuffle, stats, vm_hwm, Finish, Op, Outcome, Pass, Workload};

/// Jobs kept outstanding by the closed loop.
const OUTSTANDING: usize = 2;
/// Service workers.
const WORKERS: usize = 2;
/// Per-job budget; the slowest job needs well under a second.
const TIMEOUT: Duration = Duration::from_secs(60);
/// How long the loop waits for a report before calling the job lost.
const REPORT_WAIT: Duration = Duration::from_secs(120);

/// A pool entry: a model, the engines run on it, and the `max_bound`s
/// each engine gets (under both semantics).
struct Family {
    model: Model,
    engines: &'static [EngineKind],
    bounds: &'static [usize],
}

const BOTH: &[EngineKind] = &[EngineKind::Jsat, EngineKind::Unroll];
const UNROLL: &[EngineKind] = &[EngineKind::Unroll];
const JSAT: &[EngineKind] = &[EngineKind::Jsat];

/// The job pool: the paper-scale suite plus the deeper `engine-deep`
/// models. Its make-up is fixed; the seed only orders the stream, so
/// every seed asks for the same work. About 30 jobs finish in a
/// millisecond or two, about 60 take 2-60 ms, which puts the median
/// well inside a dense band, and six take 100-200 ms (deep unroll on
/// Peterson and on the dense FSM, jSAT on the FIFO), enough for the
/// tail's ten samples to stay among them. jSAT is left off the shift
/// register, where one job would take seconds.
fn pool() -> Vec<Family> {
    let suite = suite::suite13();
    let named = |n: &str| {
        suite
            .iter()
            .find(|m| m.name() == n)
            .expect("suite model")
            .clone()
    };
    let f = |model: Model, engines, bounds| Family {
        model,
        engines,
        bounds,
    };
    vec![
        f(named("arbiter_8"), BOTH, &[8]),
        f(named("gray_5"), BOTH, &[12]),
        f(named("johnson_9"), BOTH, &[12]),
        f(named("traffic"), BOTH, &[12]),
        f(named("lfsr_12_14"), BOTH, &[14]),
        f(named("ring_12"), BOTH, &[12]),
        f(named("counter_reset_4"), BOTH, &[16]),
        f(named("shift_16"), UNROLL, &[16]),
        f(named("counter_enable_10"), BOTH, &[12, 20]),
        f(named("elevator_4"), BOTH, &[12, 20]),
        f(named("random_28_3_2005"), BOTH, &[12, 24]),
        f(named("fifo_8"), UNROLL, &[12]),
        f(named("fifo_8"), JSAT, &[12]),
        f(builders::counter_with_enable(14), BOTH, &[24]),
        f(builders::elevator(5), BOTH, &[24, 32]),
        f(builders::elevator(6), BOTH, &[24, 32]),
        f(builders::token_ring(24), BOTH, &[24, 32]),
        f(builders::peterson(), JSAT, &[24, 32]),
        f(builders::peterson(), UNROLL, &[16, 32]),
        f(builders::dense_fsm(12, 3, 800, 7), BOTH, &[16]),
    ]
}

/// Pool models the verdict table must cover, with their deepest bound.
pub fn table_models() -> Vec<(Model, usize)> {
    pool()
        .into_iter()
        .filter(|f| !Oracle::is_explicit(&f.model))
        .map(|f| {
            let deepest = f.bounds.iter().copied().max().unwrap_or(0);
            (f.model, deepest)
        })
        .collect()
}

/// One job of the stream.
#[derive(Clone)]
struct Spec {
    family: usize,
    engine: EngineKind,
    semantics: Semantics,
    max_bound: usize,
}

/// Every job of the pool once, in an order drawn from the seed.
fn stream(seed: u64, families: &[Family]) -> Vec<Spec> {
    let mut jobs = Vec::new();
    for (family, f) in families.iter().enumerate() {
        for &engine in f.engines {
            for semantics in [Semantics::Exactly, Semantics::Within] {
                for &max_bound in f.bounds {
                    jobs.push(Spec {
                        family,
                        engine,
                        semantics,
                        max_bound,
                    });
                }
            }
        }
    }
    shuffle(&mut jobs, seed, 0xBA7C);
    jobs
}

/// The `batch-certify` workload.
pub struct BatchCertify {
    seed: u64,
    families: Vec<Family>,
    jobs: Vec<Spec>,
    handle: Option<ServiceHandle>,
    epoch: Instant,
    claims: BTreeSet<(usize, usize, Option<usize>)>,
}

impl BatchCertify {
    pub fn new(seed: u64) -> Self {
        BatchCertify {
            seed,
            families: Vec::new(),
            jobs: Vec::new(),
            handle: None,
            epoch: Instant::now(),
            claims: BTreeSet::new(),
        }
    }

    fn job(&self, s: &Spec) -> Job {
        let budget = Budget {
            timeout: Some(TIMEOUT),
            certify: true,
            ..Budget::default()
        };
        Job::new(
            self.families[s.family].model.clone(),
            vec![s.engine],
            s.max_bound,
        )
        .with_semantics(s.semantics)
        .with_budget(budget)
    }

    /// Judges one report; records the verdict claim for the oracle.
    fn judge(&mut self, s: &Spec, r: &JobReport) -> Outcome {
        let model = &self.families[s.family].model;
        let got = match &r.verdict {
            BmcResult::Unknown(why) => return Outcome::Failed(format!("unknown: {why}")),
            BmcResult::Unreachable => None,
            BmcResult::Reachable(trace) => {
                match trace {
                    Some(t) => {
                        if let Err(e) = model.check_trace(t) {
                            return Outcome::Failed(format!("witness fails replay: {e:?}"));
                        }
                    }
                    None => return Outcome::Failed("reachable without a witness".into()),
                }
                r.bound
            }
        };
        self.claims.insert((s.family, s.max_bound, got));
        match &r.certificate {
            Some(c) if c.fully_certified() => Outcome::Ok,
            Some(_) => Outcome::Failed("certificate not fully certified".into()),
            None => Outcome::Failed("certificate missing".into()),
        }
    }

    fn run_pass(&mut self, traced: bool) -> Result<Pass, String> {
        let mut tr = Tracer::new(traced, self.epoch, 1);
        let handle = self.handle.take().expect("set-up started the service");
        let start = Instant::now();
        let mut next = 0usize;
        let mut inflight: HashMap<usize, (usize, Instant, u32)> = HashMap::new();
        let mut done: Vec<(usize, JobReport, f64)> = Vec::new();
        let mut reduce_ms = 0.0;
        let mut removed = (0usize, 0usize);
        let jobs = self.jobs.clone();
        let mut submit = |next: &mut usize,
                          inflight: &mut HashMap<usize, (usize, Instant, u32)>,
                          tr: &mut Tracer|
         -> Result<(), String> {
            let i = *next;
            *next += 1;
            let job = self.job(&jobs[i]);
            if tr.on() {
                let t = Instant::now();
                let red = sebmc_analysis::reduce(&job.model);
                let end = Instant::now();
                tr.leaf("analysis.reduce", 0, i as u64, t, end);
                reduce_ms += (end - t).as_secs_f64() * 1e3;
                if let Some(red) = red {
                    removed.0 += red.analysis.swept.len() + red.analysis.removed.len();
                    removed.1 += red.analysis.unused_inputs.len();
                }
            }
            let span = tr.id();
            let t = Instant::now();
            let id = handle
                .submit(job)
                .map_err(|e| format!("submit refused: {e:?}"))?;
            tr.leaf("service.submit", span, i as u64, t, Instant::now());
            inflight.insert(id, (i, t, span));
            Ok(())
        };
        while next < jobs.len() && inflight.len() < OUTSTANDING {
            submit(&mut next, &mut inflight, &mut tr)?;
        }
        while !inflight.is_empty() {
            let r = handle
                .next_report(Some(REPORT_WAIT))
                .ok_or("no report within the wait; a job was lost")?;
            let end = Instant::now();
            let (i, t, span) = inflight
                .remove(&r.job_id)
                .ok_or_else(|| format!("report for unknown job {}", r.job_id))?;
            if next < jobs.len() {
                submit(&mut next, &mut inflight, &mut tr)?;
            }
            tr.child_interval("service.queue_wait", span, i as u64, t, r.queue_wait);
            tr.child_interval(
                "service.solve",
                span,
                i as u64,
                t + r.queue_wait,
                r.solve_time,
            );
            tr.record(span, "batch.job", 0, i as u64, t, end);
            done.push((i, r, (end - t).as_secs_f64() * 1e3));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let high_water = handle.queue_telemetry().0;
        self.handle = Some(handle);
        done.sort_by_key(|(i, _, _)| *i);

        let mut ops = Vec::new();
        let (mut wait, mut solve, mut over) = (Vec::new(), Vec::new(), Vec::new());
        let mut check_ms: HashMap<&str, f64> = HashMap::new();
        let mut peak_by: HashMap<&str, usize> = HashMap::new();
        let (mut conflicts, mut lits_max, mut bounds, mut watch) = (0u64, 0usize, 0usize, 0usize);
        let (mut proof_bytes, mut lemmas, mut attempted, mut certified, mut active) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut swept, mut attempts) = (0usize, 0u64);
        for (i, r, ms) in &done {
            let s = &jobs[*i];
            let outcome = self.judge(s, r);
            let w = r.queue_wait.as_secs_f64() * 1e3;
            let v = r.solve_time.as_secs_f64() * 1e3;
            wait.push(w);
            solve.push(v);
            over.push(ms - w - v);
            let e = s.engine.as_str();
            *check_ms.entry(e).or_default() += r.stats.duration.as_secs_f64() * 1e3;
            let p = peak_by.entry(e).or_default();
            *p = (*p).max(r.stats.peak_formula_bytes);
            conflicts += r.stats.solver_effort;
            lits_max = lits_max.max(r.stats.encode_lits);
            bounds += r.stats.bounds_checked;
            watch = watch.max(r.stats.peak_watch_bytes);
            swept += r.stats.latches_swept;
            attempts += u64::from(r.attempts);
            if let Some(c) = &r.certificate {
                proof_bytes += c.proof_bytes;
                lemmas += c.lemmas_checked;
                attempted += c.bounds_attempted;
                certified += c.bounds_certified;
                active = active.max(c.peak_active_clauses);
            }
            ops.push(Op {
                label: format!(
                    "{}/{}/{:?}/{}",
                    self.families[s.family].model.name(),
                    e,
                    s.semantics,
                    s.max_bound
                ),
                ms: *ms,
                outcome,
                db_bytes: r.stats.peak_formula_bytes as u64,
            });
        }
        let spans = tr.take();
        let total_check: f64 = check_ms.values().sum();
        let bytes: Vec<f64> = ops.iter().map(|o| o.db_bytes as f64).collect();
        let n = ops.len() as f64;
        Ok(Pass {
            wall_s,
            counts: vec![
                ("sat.conflicts", conflicts),
                ("proof.bytes_checked", proof_bytes),
                ("analysis.latches_swept", swept as u64),
                (
                    "peak_db_bytes",
                    bytes.iter().copied().fold(0.0, f64::max) as u64,
                ),
                ("db_bytes_gmean_bits", stats::gmean(&bytes).to_bits()),
            ],
            layers: vec![
                (
                    "core.unroll.check_ms",
                    check_ms.get("unroll").copied().unwrap_or(0.0),
                ),
                (
                    "core.jsat.check_ms",
                    check_ms.get("jsat").copied().unwrap_or(0.0),
                ),
                (
                    "core.unroll.peak_db_bytes",
                    peak_by.get("unroll").copied().unwrap_or(0) as f64,
                ),
                (
                    "core.jsat.peak_db_bytes",
                    peak_by.get("jsat").copied().unwrap_or(0) as f64,
                ),
                ("core.encode_lits_max", lits_max as f64),
                ("core.bounds_checked", bounds as f64),
                ("sat.conflicts", conflicts as f64),
                (
                    "sat.conflicts_per_s",
                    conflicts as f64 / (total_check / 1e3),
                ),
                ("sat.peak_watch_bytes", watch as f64),
                ("analysis.reduce_ms", reduce_ms),
                ("analysis.latches_removed", removed.0 as f64),
                ("analysis.inputs_removed", removed.1 as f64),
                ("proof.bytes_checked", proof_bytes as f64),
                ("proof.lemmas_checked", lemmas as f64),
                ("proof.certified_frac", certified as f64 / attempted as f64),
                ("proof.peak_active_clauses", active as f64),
                ("service.queue_wait_ms", stats::median(&wait)),
                ("service.solve_ms", stats::median(&solve)),
                ("service.overhead_ms", stats::median(&over)),
                ("service.attempts_per_job", attempts as f64 / n),
                ("service.queue_high_water", high_water as f64),
                ("service.cache_hit_frac", 0.0),
            ],
            ops,
            spans,
        })
    }
}

impl Workload for BatchCertify {
    fn teardown(&mut self) -> Result<(), String> {
        if let Some(old) = self.handle.take() {
            old.shutdown(ShutdownMode::Graceful);
        }
        Ok(())
    }

    fn setup(&mut self) -> Result<Pass, String> {
        self.families = pool();
        self.jobs = stream(self.seed, &self.families);
        self.handle = Some(ServiceHandle::start(ServiceConfig::with_workers(WORKERS)));
        self.run_pass(false)
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        self.run_pass(traced)
    }

    fn finish(&mut self) -> Result<Finish, String> {
        // Before the oracle's explicit search.
        let peak_rss_bytes = vm_hwm("self");
        if let Some(h) = self.handle.take() {
            let left = h.shutdown(ShutdownMode::Graceful);
            if !left.is_empty() {
                return Err(format!("{} reports left uncollected", left.len()));
            }
        }
        let mut oracle = Oracle::new();
        let mut problems = Vec::new();
        let mut wrong = Vec::new();
        for &(family, max_bound, got) in &self.claims {
            let model = &self.families[family].model;
            oracle.prepare(model, got.unwrap_or(max_bound));
            if let Err(e) = oracle.check(model.name(), max_bound, got) {
                problems.push(e);
                wrong.push(format!("{}/", model.name()));
            }
        }
        Ok(Finish {
            peak_rss_bytes,
            problems,
            wrong,
            layers: Vec::new(),
            notes: vec![format!(
                "{} jobs per pass from {} model families, {WORKERS} workers, {OUTSTANDING} outstanding",
                self.jobs.len(),
                self.families.len()
            )],
        })
    }
}
