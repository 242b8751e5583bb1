//! `daemon-mixed`: `sebmc serve` as a child process on 127.0.0.1:0,
//! driven by two `WireClient` connections from two threads, each a
//! closed loop with one job outstanding.
//!
//! Jobs are cheap small-suite models whose solve time is far below the
//! wire latency, so the time goes to `serve`/`protocol`, the queue and
//! the result cache. A quarter of the submissions repeat the key of a
//! job whose report has already arrived (a guaranteed cache hit); the
//! rest are misses. Keeping hits to a third or fewer keeps the median
//! and the tail inside the miss latency cluster.
//!
//! Every miss is a reachable model whose `max_bound` lies at or past
//! its first reachable bound `f`, so the sweep always stops at `f`.
//! Each pass raises every `max_bound` by one: the cache keys are new,
//! but the work, the verdicts and the bytes repeat exactly.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sebmc::Semantics;
use sebmc_logic::json::Json;
use sebmc_model::{explicit, suite};
use sebmc_service::{EngineKind, JobSpec, WireClient};

use crate::spans::{Span, Tracer};
use crate::{rng, shuffle, stats, vm_hwm, Finish, Op, Outcome, Pass, Workload};

/// Client connections (and load threads).
const CONNECTIONS: usize = 2;
/// Every `REPEAT_EVERY`-th submission is a cache hit.
const REPEAT_EVERY: usize = 4;
/// Deepest first-reachable bound a small-suite model may have to be
/// used here.
const MAX_FIRST: usize = 8;
/// How long a client waits for one report before calling it lost.
const REPORT_WAIT: Duration = Duration::from_secs(60);

/// A miss class: model, engine, semantics, certify, and the model's
/// first reachable bound.
#[derive(Clone)]
struct Class {
    model: String,
    engine: EngineKind,
    semantics: Semantics,
    certify: bool,
    first: usize,
}

/// What a job submission is.
#[derive(Clone)]
enum Sub {
    /// A new key: class index and `max_bound`.
    Miss(usize, usize),
    /// A repeat of an answered key.
    Hit,
}

/// A running daemon and its two connections.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
    clients: Vec<WireClient>,
    /// Passes run against this daemon (its warm-up included); the
    /// `max_bound` offset of the next pass.
    passes: usize,
    /// Keys answered so far, for repeats.
    answered: Vec<JobSpec>,
    hits_sent: u64,
    misses_sent: u64,
}

impl Daemon {
    fn spawn(cli: &PathBuf) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--quiet",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(a) = line.trim().strip_prefix("sebmc: listening on ") {
                break a.to_string();
            }
        };
        let mut d = Daemon {
            child,
            addr,
            stdout,
            clients: Vec::new(),
            passes: 0,
            answered: Vec::new(),
            hits_sent: 0,
            misses_sent: 0,
        };
        d.reconnect()?;
        Ok(d)
    }

    /// Replaces both connections with fresh ones (handshake included).
    fn reconnect(&mut self) -> Result<(), String> {
        self.clients.clear();
        for _ in 0..CONNECTIONS {
            let c = WireClient::connect(self.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
            self.clients.push(c);
        }
        Ok(())
    }

    /// Asks for a graceful shutdown, waits for the process, and returns
    /// its exit summary line.
    fn stop(mut self) -> Result<Json, String> {
        let res = self.clients[0].shutdown("graceful");
        self.clients.clear();
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        res.map_err(|e| format!("shutdown: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        let last = rest.lines().last().unwrap_or("");
        Json::parse(last).map_err(|e| format!("bad exit summary '{last}': {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on error paths (or after `stop` has already
        // reaped it); never leave a daemon behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one load thread hands back: its answers and its spans.
type ThreadResult = Result<(Vec<Answer>, Vec<Span>), String>;

/// One answered job as the load thread saw it.
struct Answer {
    pos: usize,
    spec: JobSpec,
    hit_expected: bool,
    accept_ms: f64,
    ms: f64,
    report: Json,
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for p in path {
        match cur.get(p) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    match cur {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

/// The `daemon-mixed` workload.
pub struct DaemonMixed {
    seed: u64,
    cli: PathBuf,
    classes: Vec<Class>,
    daemon: Option<Daemon>,
    epoch: Instant,
}

impl DaemonMixed {
    pub fn new(seed: u64, cli: PathBuf) -> Self {
        DaemonMixed {
            seed,
            cli,
            classes: Vec::new(),
            daemon: None,
            epoch: Instant::now(),
        }
    }

    /// The pass's submissions, in order: seeded class order with every
    /// `REPEAT_EVERY`-th slot a repeat.
    fn plan(&self, offset: usize) -> Vec<Sub> {
        let mut order: Vec<usize> = (0..self.classes.len()).collect();
        shuffle(&mut order, self.seed, 0xDAE0 + offset as u64);
        let mut subs = Vec::new();
        for c in order {
            if subs.len() % REPEAT_EVERY == REPEAT_EVERY - 1 {
                subs.push(Sub::Hit);
            }
            subs.push(Sub::Miss(c, self.classes[c].first + offset));
        }
        subs
    }

    fn spec(&self, class: usize, max_bound: usize) -> JobSpec {
        let c = &self.classes[class];
        let mut s = JobSpec::new(format!("suite:{}", c.model), vec![c.engine], max_bound);
        s.semantics = c.semantics;
        s.certify = c.certify;
        s
    }

    fn run_pass(&mut self, traced: bool) -> Result<Pass, String> {
        let mut d = self.daemon.take().ok_or("set-up started no daemon")?;
        d.reconnect()?;
        let subs = self.plan(d.passes);
        let specs: Vec<Option<JobSpec>> = subs
            .iter()
            .map(|s| match s {
                Sub::Miss(c, b) => Some(self.spec(*c, *b)),
                Sub::Hit => None,
            })
            .collect();
        let next = AtomicUsize::new(0);
        let answered = Mutex::new(std::mem::take(&mut d.answered));
        let epoch = self.epoch;
        let seed = self.seed ^ d.passes as u64;
        let start = Instant::now();
        let results: Vec<ThreadResult> = std::thread::scope(|s| {
            let handles: Vec<_> = d
                .clients
                .iter_mut()
                .enumerate()
                .map(|(ci, client)| {
                    let (next, answered, specs) = (&next, &answered, &specs);
                    s.spawn(move || {
                        let mut tr = Tracer::new(traced, epoch, ((ci as u32) + 1) << 24);
                        let mut r = rng(seed, 0xC11E + ci as u64);
                        let mut out = Vec::new();
                        loop {
                            let pos = next.fetch_add(1, Ordering::Relaxed);
                            let Some(slot) = specs.get(pos) else { break };
                            let (spec, hit) = match slot {
                                Some(spec) => (spec.clone(), false),
                                None => {
                                    let a = answered.lock().expect("no load thread panics");
                                    (a[r.below(a.len())].clone(), true)
                                }
                            };
                            let span = tr.id();
                            let t = Instant::now();
                            let id = client
                                .submit(&spec)
                                .map_err(|e| format!("submit: {e}"))?
                                .map_err(|e| format!("submit refused: {e}"))?;
                            let acc = Instant::now();
                            tr.leaf("serve.submit", span, id as u64, t, acc);
                            let report = client
                                .next_report(Some(REPORT_WAIT))
                                .map_err(|e| format!("report: {e}"))?
                                .ok_or("no report within the wait")?;
                            let end = Instant::now();
                            if num(&report, &["id"]) as usize != id {
                                return Err(format!(
                                    "report for job {} while waiting for {id}",
                                    num(&report, &["id"])
                                ));
                            }
                            let wait =
                                Duration::from_millis(num(&report, &["queue_wait_ms"]) as u64);
                            let solve = Duration::from_millis(num(&report, &["solve_ms"]) as u64);
                            tr.child_interval("service.queue_wait", span, id as u64, acc, wait);
                            tr.child_interval("service.solve", span, id as u64, acc + wait, solve);
                            tr.record(span, "serve.job", 0, id as u64, t, end);
                            if !hit {
                                answered
                                    .lock()
                                    .expect("no load thread panics")
                                    .push(spec.clone());
                            }
                            out.push(Answer {
                                pos,
                                spec,
                                hit_expected: hit,
                                accept_ms: (acc - t).as_secs_f64() * 1e3,
                                ms: (end - t).as_secs_f64() * 1e3,
                                report,
                            });
                        }
                        Ok((out, tr.take()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("load thread panicked".into()))
                })
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        d.answered = answered.into_inner().expect("no load thread panics");
        d.passes += 1;
        let mut answers = Vec::new();
        let mut all_spans = Vec::new();
        for r in results {
            let (a, s) = r?;
            answers.extend(a);
            all_spans.extend(s);
        }
        answers.sort_by_key(|a| a.pos);
        for a in &answers {
            if a.hit_expected {
                d.hits_sent += 1;
            } else {
                d.misses_sent += 1;
            }
        }
        self.daemon = Some(d);
        Ok(self.summarize(wall_s, &answers, all_spans))
    }

    fn judge(&self, a: &Answer) -> Outcome {
        let r = &a.report;
        let verdict = r.get("verdict").and_then(Json::as_str).unwrap_or("");
        let cached = r.get("cached").and_then(Json::as_bool).unwrap_or(false);
        if cached != a.hit_expected {
            return Outcome::Failed(format!("cached={cached}, expected {}", a.hit_expected));
        }
        let name = a.spec.model.trim_start_matches("suite:");
        let Some(class) = self.classes.iter().find(|c| c.model == name) else {
            return Outcome::Failed(format!("unknown model {name}"));
        };
        let want = (class.first <= a.spec.max_bound).then_some(class.first);
        let got = match verdict {
            "reachable" => r.get("bound").and_then(Json::as_u64).map(|b| b as usize),
            "unreachable" => None,
            other => {
                let why = r.get("reason").and_then(Json::as_str).unwrap_or("");
                return Outcome::Failed(format!("verdict {other}: {why}"));
            }
        };
        if got != want {
            return Outcome::Failed(format!("wrong verdict: expected {want:?}, got {got:?}"));
        }
        if a.spec.certify {
            let ok = r
                .get("certificate")
                .and_then(|c| c.get("certified"))
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if !ok {
                return Outcome::Failed("certificate missing or not fully certified".into());
            }
        }
        Outcome::Ok
    }

    fn summarize(&self, wall_s: f64, answers: &[Answer], spans: Vec<Span>) -> Pass {
        let mut ops = Vec::new();
        let (mut accept, mut push, mut wait, mut solve, mut over) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut unroll_ms, mut jsat_ms, mut peak_u, mut peak_j) = (0.0, 0.0, 0.0f64, 0.0f64);
        let (mut conflicts, mut lits, mut bounds, mut watch) = (0.0, 0.0f64, 0.0, 0.0f64);
        let (mut proof_bytes, mut lemmas, mut att, mut cert, mut active) =
            (0.0, 0.0, 0.0, 0.0, 0.0f64);
        let (mut attempts, mut cached) = (0.0, 0usize);
        for a in answers {
            let r = &a.report;
            let w = num(r, &["queue_wait_ms"]);
            let v = num(r, &["solve_ms"]);
            accept.push(a.accept_ms);
            push.push(a.ms - a.accept_ms - w - v);
            wait.push(w);
            solve.push(v);
            over.push(a.ms - w - v);
            attempts += num(r, &["attempts"]);
            let is_cached = r.get("cached").and_then(Json::as_bool).unwrap_or(false);
            let bytes = if is_cached {
                cached += 1;
                0.0
            } else {
                let b = num(r, &["stats", "peak_formula_bytes"]);
                let dur = num(r, &["stats", "duration_ms"]);
                let jsat = r
                    .get("engines")
                    .and_then(Json::as_arr)
                    .and_then(|e| e.first())
                    .and_then(Json::as_str)
                    == Some("jsat");
                if jsat {
                    jsat_ms += dur;
                    peak_j = peak_j.max(b);
                } else {
                    unroll_ms += dur;
                    peak_u = peak_u.max(b);
                }
                conflicts += num(r, &["stats", "solver_effort"]);
                lits = lits.max(num(r, &["stats", "encode_lits"]));
                bounds += num(r, &["stats", "bounds_checked"]);
                watch = watch.max(num(r, &["stats", "peak_watch_bytes"]));
                proof_bytes += num(r, &["certificate", "proof_bytes"]);
                lemmas += num(r, &["certificate", "lemmas_checked"]);
                att += num(r, &["certificate", "bounds_attempted"]);
                cert += num(r, &["certificate", "bounds_certified"]);
                active = active.max(num(r, &["certificate", "peak_active_clauses"]));
                b
            };
            ops.push(Op {
                label: format!(
                    "{}/{}/{:?}",
                    a.spec.model, a.spec.max_bound, a.spec.semantics
                ),
                ms: a.ms,
                outcome: self.judge(a),
                db_bytes: bytes as u64,
            });
        }
        let n = ops.len() as f64;
        let bytes: Vec<f64> = ops.iter().map(|o| o.db_bytes as f64).collect();
        Pass {
            wall_s,
            counts: vec![
                ("sat.conflicts", conflicts as u64),
                ("proof.bytes_checked", proof_bytes as u64),
                ("cache_hits", cached as u64),
                (
                    "peak_db_bytes",
                    bytes.iter().copied().fold(0.0, f64::max) as u64,
                ),
                ("db_bytes_gmean_bits", stats::gmean(&bytes).to_bits()),
            ],
            layers: vec![
                ("core.unroll.check_ms", unroll_ms),
                ("core.jsat.check_ms", jsat_ms),
                ("core.unroll.peak_db_bytes", peak_u),
                ("core.jsat.peak_db_bytes", peak_j),
                ("core.encode_lits_max", lits),
                ("core.bounds_checked", bounds),
                ("sat.conflicts", conflicts),
                ("sat.peak_watch_bytes", watch),
                ("proof.bytes_checked", proof_bytes),
                ("proof.lemmas_checked", lemmas),
                (
                    "proof.certified_frac",
                    if att > 0.0 { cert / att } else { 0.0 },
                ),
                ("proof.peak_active_clauses", active),
                ("service.queue_wait_ms", stats::median(&wait)),
                ("service.solve_ms", stats::median(&solve)),
                ("service.overhead_ms", stats::median(&over)),
                ("service.attempts_per_job", attempts / n),
                ("service.cache_hit_frac", cached as f64 / n),
                ("serve.accept_ms", stats::median(&accept)),
                ("serve.push_ms", stats::median(&push)),
                ("serve.push_tail_ms", stats::tail(&push).0),
            ],
            ops,
            spans,
        }
    }
}

impl Workload for DaemonMixed {
    fn teardown(&mut self) -> Result<(), String> {
        if let Some(old) = self.daemon.take() {
            old.stop()?;
        }
        Ok(())
    }

    fn setup(&mut self) -> Result<Pass, String> {
        // Model construction: the classes come from the small suite's
        // reachable models, with their first bound from explicit search.
        let mut classes = Vec::new();
        for (i, m) in suite::suite13_small().iter().enumerate() {
            let Some(first) = explicit::min_steps_to_target(m, MAX_FIRST) else {
                continue;
            };
            for (j, semantics) in [Semantics::Exactly, Semantics::Within]
                .into_iter()
                .enumerate()
            {
                classes.push(Class {
                    model: m.name().to_string(),
                    engine: if (i + j) % 2 == 0 {
                        EngineKind::Jsat
                    } else {
                        EngineKind::Unroll
                    },
                    semantics,
                    certify: i % 2 == 0,
                    first,
                });
            }
        }
        self.classes = classes;
        self.daemon = Some(Daemon::spawn(&self.cli)?);
        self.run_pass(false)
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        self.run_pass(traced)
    }

    fn finish(&mut self) -> Result<Finish, String> {
        let mut d = self.daemon.take().ok_or("no daemon")?;
        let peak_rss_bytes = vm_hwm(&d.child.id().to_string());
        let st = d.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
        let m = |k: &str| num(&st, &["metrics", k]) as u64;
        let (hits, misses, high_water) = (
            m("cache_hits"),
            m("cache_misses"),
            m("queue_depth_high_water"),
        );
        let (sent_h, sent_m) = (d.hits_sent, d.misses_sent);
        let summary = d.stop()?;
        let mut problems = Vec::new();
        if (hits, misses) != (sent_h, sent_m) {
            problems.push(format!(
                "stats frame counts {hits} hits / {misses} misses, the load sent {sent_h} / {sent_m}"
            ));
        }
        let sh = num(&summary, &["cache", "hits"]) as u64;
        let sm = num(&summary, &["cache", "misses"]) as u64;
        if (sh, sm) != (sent_h, sent_m) {
            problems.push(format!(
                "exit summary counts {sh} hits / {sm} misses, the load sent {sent_h} / {sent_m}"
            ));
        }
        Ok(Finish {
            peak_rss_bytes,
            problems,
            wrong: Vec::new(),
            layers: vec![("service.queue_high_water", high_water as f64)],
            notes: vec![format!(
                "{} miss classes per pass, every {REPEAT_EVERY}th submission a repeat; daemon saw {hits} hits / {misses} misses",
                self.classes.len()
            )],
        })
    }
}
