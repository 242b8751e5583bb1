//! Reports: per-job results and the whole-service aggregate.
//!
//! Every submitted job produces exactly one [`JobReport`] — cancelled
//! and budget-exhausted jobs included (they carry
//! [`BmcResult::Unknown`], they are never dropped). The
//! [`ServiceReport`] folds all job stats with [`RunStats::absorb`]
//! (peaks maxed, durations and solver effort summed) and splits the
//! wall clock into queue wait and solve time.

use std::time::Duration;

use sebmc::{BmcResult, Certificate, RunStats};

/// One failed attempt of a job, preserved verbatim in the job's report
/// — a panic, spurious cancellation, or expired attempt deadline never
/// silently discards the work that led up to it.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Which attempt failed (1-based).
    pub attempt: u32,
    /// The deepest bound *decided* before the failure (`None` when the
    /// attempt failed before deciding anything).
    pub bound_reached: Option<usize>,
    /// Why the attempt failed: the truncated panic payload, `"spurious
    /// cancellation"`, or `"attempt deadline exceeded"`.
    pub reason: String,
    /// Partial run stats accumulated by the failed attempt (per-bound
    /// outcomes absorbed as they were decided; at most the in-flight
    /// bound's effort is lost to a panic).
    pub stats: RunStats,
}

/// Outcome and accounting of one job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The id handed out by `CheckService::submit`.
    pub job_id: usize,
    /// The job's label.
    pub name: String,
    /// The model's name.
    pub model: String,
    /// Engine names, in job order.
    pub engines: Vec<&'static str>,
    /// The job verdict: the first reachable bound's verdict, or
    /// `Unreachable` after a clean sweep to `max_bound`, or `Unknown`
    /// (budget exhausted / cancelled / service cancelled / skipped
    /// bounds).
    pub verdict: BmcResult,
    /// The decided bound, when `verdict` is `Reachable`.
    pub bound: Option<usize>,
    /// Bounds actually raced/checked.
    pub bounds_checked: usize,
    /// Bounds no selected engine supports (skipped, not failed).
    pub bounds_skipped: usize,
    /// Per-bound race winners `(bound, engine)` — for a single-engine
    /// job, every decided bound; for a portfolio, the engine whose
    /// verdict was shared at that bound.
    pub winners: Vec<(usize, &'static str)>,
    /// The byte cap the session actually ran under, after admission
    /// control (`min` of the job's and the service's caps).
    pub byte_cap: Option<usize>,
    /// Cumulative run stats — for a portfolio job this sums the racing
    /// effort of *all* engines, losers included.
    pub stats: RunStats,
    /// Certification summary across the job's decided bounds (present
    /// when the job ran under a certify budget on a proof-capable
    /// engine; for a portfolio, the chain of per-bound race winners).
    /// [`Certificate::fully_certified`] says whether every decided
    /// bound was machine-checked.
    pub certificate: Option<Certificate>,
    /// Path of the streamed witness file, when the service ran with a
    /// witness directory and this job was reachable — the in-memory
    /// trace is dropped in that case and `verdict` is
    /// `Reachable(None)`.
    pub witness_path: Option<String>,
    /// Steps of the streamed witness (the trace length the file holds).
    pub witness_steps: Option<usize>,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Wall-clock time on the worker (encode + solve across bounds,
    /// plus any admission deferrals and retry backoff).
    pub solve_time: Duration,
    /// Attempts the job took (1 for an untroubled run).
    pub attempts: u32,
    /// The bound the *last* retry resumed the sweep at (`None` when the
    /// job never retried). Retries never restart from bound 0 once a
    /// bound was decided.
    pub resumed_from: Option<usize>,
    /// Admission deferrals under memory pressure before the job ran.
    pub deferrals: usize,
    /// Whether memory pressure downgraded a portfolio job to its single
    /// first-listed engine.
    pub downgraded: bool,
    /// Whether the job exhausted every attempt and was quarantined (its
    /// id is on [`ServiceReport::quarantined`]; the verdict carries the
    /// last failure's reason).
    pub quarantined: bool,
    /// Every failed attempt, in order. Empty for an untroubled run.
    pub failures: Vec<FailureReport>,
    /// Path of the exported DRAT proof file, when the service ran with
    /// a proof directory and this single-engine job swept to a clean
    /// `Unreachable` verdict.
    pub proof_path: Option<String>,
    /// Whether this report was answered from the result cache: the
    /// verdict, bound, winners, certificate and artifact paths are the
    /// cold run's, `stats.solver_effort` is zero (no solving
    /// happened), and `engines` names the engines of the run that
    /// produced the verdict, not the ones this submission asked for.
    pub cached: bool,
    /// The scheduling priority the job was submitted with (0..=9).
    pub priority: u8,
}

impl JobReport {
    /// `"reachable"` / `"unreachable"` / `"unknown"` plus the Unknown
    /// reason, if any.
    pub fn verdict_parts(&self) -> (&'static str, Option<&str>) {
        match &self.verdict {
            BmcResult::Reachable(_) => ("reachable", None),
            BmcResult::Unreachable => ("unreachable", None),
            BmcResult::Unknown(r) => ("unknown", Some(r.as_str())),
        }
    }
}

/// Aggregate of one `CheckService::run`: every job's report plus the
/// service-level accounting.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Worker threads the pool ran with.
    pub workers: usize,
    /// Wall-clock time of the whole `run` call.
    pub wall: Duration,
    /// One report per submitted job, in submission order.
    pub jobs: Vec<JobReport>,
    /// All job stats folded with [`RunStats::absorb`]: durations and
    /// solver effort summed, formula sizes and memory peaks maxed.
    pub total: RunStats,
    /// Sum of all jobs' queue waits.
    pub queue_wait_total: Duration,
    /// Sum of all jobs' solve times (≥ `wall` when workers > 1).
    pub solve_total: Duration,
    /// Jobs that ended `Reachable`.
    pub reachable: usize,
    /// Jobs that ended `Unreachable`.
    pub unreachable: usize,
    /// Jobs that ended `Unknown` (budget, cancellation, skips).
    pub unknown: usize,
    /// Jobs whose certificate is fully certified (every decided bound
    /// machine-checked).
    pub jobs_certified: usize,
    /// All job certificates folded with [`Certificate::absorb`]
    /// (`None` when no job carried one).
    pub certificate: Option<Certificate>,
    /// Jobs that needed more than one attempt.
    pub jobs_retried: usize,
    /// The poison list: ids of jobs that exhausted every attempt. Their
    /// reports are still present in [`ServiceReport::jobs`] — nothing
    /// is dropped — this is the index of what needs human attention.
    pub quarantined: Vec<usize>,
    /// Jobs cancelled by the memory-pressure shedder.
    pub jobs_shed: usize,
    /// Portfolio jobs downgraded to a single engine under memory
    /// pressure.
    pub jobs_downgraded: usize,
    /// Jobs answered from the result cache (no solver effort spent).
    pub jobs_cached: usize,
    /// Highest pending-queue depth the run ever reached (0 when the
    /// aggregate was built without queue telemetry).
    pub queue_high_water: usize,
    /// Queue pops by *effective* (post-aging) priority level 0..=9 —
    /// how the scheduler actually spent its pickups.
    pub queue_pops: [u64; 10],
}

impl ServiceReport {
    /// Builds the aggregate from finished job reports.
    pub fn new(workers: usize, wall: Duration, jobs: Vec<JobReport>) -> Self {
        let mut total = RunStats::default();
        let mut queue_wait_total = Duration::ZERO;
        let mut solve_total = Duration::ZERO;
        let (mut reachable, mut unreachable, mut unknown) = (0, 0, 0);
        let mut jobs_certified = 0;
        let mut certificate: Option<Certificate> = None;
        let mut jobs_retried = 0;
        let mut quarantined = Vec::new();
        let mut jobs_shed = 0;
        let mut jobs_downgraded = 0;
        let mut jobs_cached = 0;
        for j in &jobs {
            total.absorb(&j.stats);
            queue_wait_total += j.queue_wait;
            solve_total += j.solve_time;
            match &j.verdict {
                BmcResult::Reachable(_) => reachable += 1,
                BmcResult::Unreachable => unreachable += 1,
                BmcResult::Unknown(r) => {
                    unknown += 1;
                    if r == "shed: memory pressure" {
                        jobs_shed += 1;
                    }
                }
            }
            if j.certificate
                .as_ref()
                .is_some_and(sebmc::Certificate::fully_certified)
            {
                jobs_certified += 1;
            }
            Certificate::fold_into(&mut certificate, j.certificate.as_ref());
            if j.attempts > 1 {
                jobs_retried += 1;
            }
            if j.quarantined {
                quarantined.push(j.job_id);
            }
            if j.downgraded {
                jobs_downgraded += 1;
            }
            if j.cached {
                jobs_cached += 1;
            }
        }
        ServiceReport {
            workers,
            wall,
            jobs,
            total,
            queue_wait_total,
            solve_total,
            reachable,
            unreachable,
            unknown,
            jobs_certified,
            certificate,
            jobs_retried,
            quarantined,
            jobs_shed,
            jobs_downgraded,
            jobs_cached,
            queue_high_water: 0,
            queue_pops: [0; 10],
        }
    }

    /// Attaches the scheduler's queue telemetry (see
    /// [`crate::ServiceHandle::queue_telemetry`]).
    #[must_use]
    pub fn with_queue_telemetry(mut self, high_water: usize, pops: [u64; 10]) -> Self {
        self.queue_high_water = high_water;
        self.queue_pops = pops;
        self
    }

    /// Jobs per second of wall clock (throughput of this run).
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.jobs.len() as f64 / self.wall.as_secs_f64()
    }

    /// Renders the whole report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.jobs.len() * 256);
        let quarantined_ids = self
            .quarantined
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"workers\":{},\"wall_ms\":{},\"jobs_total\":{},\
             \"reachable\":{},\"unreachable\":{},\"unknown\":{},\
             \"jobs_certified\":{},\"certificate\":{},\
             \"jobs_retried\":{},\"jobs_quarantined\":{},\"quarantined\":[{quarantined_ids}],\
             \"jobs_shed\":{},\"jobs_downgraded\":{},\"jobs_cached\":{},\
             \"queue_high_water\":{},\"queue_pops\":[{pops}],\
             \"queue_wait_ms_total\":{},\"solve_ms_total\":{},\
             \"jobs_per_sec\":{:.3},\"total_stats\":{},\"jobs\":[",
            self.workers,
            self.wall.as_millis(),
            self.jobs.len(),
            self.reachable,
            self.unreachable,
            self.unknown,
            self.jobs_certified,
            opt_cert_json(&self.certificate),
            self.jobs_retried,
            self.quarantined.len(),
            self.jobs_shed,
            self.jobs_downgraded,
            self.jobs_cached,
            self.queue_high_water,
            self.queue_wait_total.as_millis(),
            self.solve_total.as_millis(),
            self.jobs_per_sec(),
            stats_json(&self.total),
            pops = self
                .queue_pops
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ));
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&job_json(j));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders [`RunStats`] as one JSON object (the CLI `--json` shape).
pub fn stats_json(s: &RunStats) -> String {
    format!(
        "{{\"duration_ms\":{},\"encode_vars\":{},\"encode_clauses\":{},\
         \"encode_lits\":{},\"peak_formula_lits\":{},\"peak_formula_bytes\":{},\
         \"peak_watch_bytes\":{},\"peak_proof_bytes\":{},\"latches_swept\":{},\
         \"coi_latches\":{},\"inputs_removed\":{},\"solver_effort\":{},\
         \"bounds_checked\":{}}}",
        s.duration.as_millis(),
        s.encode_vars,
        s.encode_clauses,
        s.encode_lits,
        s.peak_formula_lits,
        s.peak_formula_bytes,
        s.peak_watch_bytes,
        s.peak_proof_bytes,
        s.latches_swept,
        s.coi_latches,
        s.inputs_removed,
        s.solver_effort,
        s.bounds_checked,
    )
}

/// Renders a [`Certificate`] as one JSON object (shared by the batch
/// report and the CLI `--json` output).
pub fn cert_json(c: &Certificate) -> String {
    format!(
        "{{\"certified\":{},\"bounds_attempted\":{},\"bounds_certified\":{},\
         \"originals\":{},\"lemmas_checked\":{},\"deletions\":{},\
         \"failed_checks\":{},\"missing_deletes\":{},\"unsat_proofs\":{},\
         \"proof_bytes\":{},\"peak_active_clauses\":{},\"peak_checker_bytes\":{}}}",
        c.fully_certified(),
        c.bounds_attempted,
        c.bounds_certified,
        c.originals,
        c.lemmas_checked,
        c.deletions,
        c.failed_checks,
        c.missing_deletes,
        c.unsat_proofs,
        c.proof_bytes,
        c.peak_active_clauses,
        c.peak_checker_bytes,
    )
}

/// `cert_json` for an optional certificate (`null` when absent).
fn opt_cert_json(c: &Option<Certificate>) -> String {
    c.as_ref().map_or("null".into(), cert_json)
}

/// Renders one [`JobReport`] as a JSON object — the shape the batch
/// report embeds under `"jobs"` and the wire protocol pushes as the
/// `"report"` payload of a result frame.
pub fn job_json(j: &JobReport) -> String {
    let (verdict, reason) = j.verdict_parts();
    let reason_s = reason.map_or("null".into(), |r| format!("\"{}\"", json_escape(r)));
    let bound_s = j.bound.map_or("null".into(), |b| b.to_string());
    let cap_s = j.byte_cap.map_or("null".into(), |c| c.to_string());
    let witness_s = j
        .witness_path
        .as_deref()
        .map_or("null".into(), |p| format!("\"{}\"", json_escape(p)));
    let steps_s = j.witness_steps.map_or("null".into(), |n| n.to_string());
    let engines = j
        .engines
        .iter()
        .map(|e| format!("\"{}\"", json_escape(e)))
        .collect::<Vec<_>>()
        .join(",");
    let winners = j
        .winners
        .iter()
        .map(|(k, e)| format!("[{k},\"{}\"]", json_escape(e)))
        .collect::<Vec<_>>()
        .join(",");
    let resumed_s = j.resumed_from.map_or("null".into(), |b| b.to_string());
    let proof_s = j
        .proof_path
        .as_deref()
        .map_or("null".into(), |p| format!("\"{}\"", json_escape(p)));
    let failures = j
        .failures
        .iter()
        .map(failure_json)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"id\":{},\"name\":\"{}\",\"model\":\"{}\",\"engines\":[{engines}],\
         \"verdict\":\"{verdict}\",\"reason\":{reason_s},\"bound\":{bound_s},\
         \"bounds_checked\":{},\"bounds_skipped\":{},\"byte_cap\":{cap_s},\
         \"certificate\":{},\"witness_path\":{witness_s},\"witness_steps\":{steps_s},\
         \"proof_path\":{proof_s},\
         \"queue_wait_ms\":{},\"solve_ms\":{},\
         \"attempts\":{},\"resumed_from\":{resumed_s},\"deferrals\":{},\
         \"downgraded\":{},\"quarantined\":{},\"cached\":{},\"priority\":{},\
         \"failures\":[{failures}],\
         \"winners\":[{winners}],\"stats\":{}}}",
        j.job_id,
        json_escape(&j.name),
        json_escape(&j.model),
        j.bounds_checked,
        j.bounds_skipped,
        opt_cert_json(&j.certificate),
        j.queue_wait.as_millis(),
        j.solve_time.as_millis(),
        j.attempts,
        j.deferrals,
        j.downgraded,
        j.quarantined,
        j.cached,
        j.priority,
        stats_json(&j.stats),
    )
}

/// Renders one [`FailureReport`] as JSON.
fn failure_json(f: &FailureReport) -> String {
    let bound_s = f.bound_reached.map_or("null".into(), |b| b.to_string());
    format!(
        "{{\"attempt\":{},\"bound_reached\":{bound_s},\"reason\":\"{}\",\"stats\":{}}}",
        f.attempt,
        json_escape(&f.reason),
        stats_json(&f.stats),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(verdict: BmcResult) -> JobReport {
        JobReport {
            job_id: 0,
            name: "j".into(),
            model: "m".into(),
            engines: vec!["jsat"],
            verdict,
            bound: None,
            bounds_checked: 1,
            bounds_skipped: 0,
            winners: vec![],
            byte_cap: None,
            stats: RunStats {
                duration: Duration::from_millis(3),
                solver_effort: 5,
                peak_formula_bytes: 100,
                bounds_checked: 1,
                ..RunStats::default()
            },
            certificate: None,
            witness_path: None,
            witness_steps: None,
            queue_wait: Duration::from_millis(1),
            solve_time: Duration::from_millis(2),
            attempts: 1,
            resumed_from: None,
            deferrals: 0,
            downgraded: false,
            quarantined: false,
            failures: Vec::new(),
            proof_path: None,
            cached: false,
            priority: 4,
        }
    }

    #[test]
    fn aggregate_sums_effort_and_maxes_peaks() {
        let mut a = report(BmcResult::Unreachable);
        a.stats.peak_formula_bytes = 50;
        let b = report(BmcResult::Unknown("cancelled".into()));
        let r = ServiceReport::new(2, Duration::from_millis(10), vec![a, b]);
        assert_eq!(r.total.solver_effort, 10);
        assert_eq!(r.total.peak_formula_bytes, 100, "peaks maxed");
        assert_eq!(r.total.bounds_checked, 2);
        assert_eq!((r.reachable, r.unreachable, r.unknown), (0, 1, 1));
        assert_eq!(r.queue_wait_total, Duration::from_millis(2));
    }

    #[test]
    fn json_is_well_formed_and_escapes_reasons() {
        let j = report(BmcResult::Unknown("a \"quoted\" reason".into()));
        let r = ServiceReport::new(1, Duration::from_millis(5), vec![j]);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"workers\":1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"total_stats\":{"));
        assert!(json.contains("\"jobs\":[{"));
        assert!(json.contains("\"peak_proof_bytes\":0"));
        assert!(json.contains("\"certificate\":null"));
        assert!(json.contains("\"witness_path\":null"));
    }

    #[test]
    fn failure_semantics_aggregate_and_render() {
        let mut retried = report(BmcResult::Unreachable);
        retried.attempts = 2;
        retried.resumed_from = Some(3);
        retried.failures.push(FailureReport {
            attempt: 1,
            bound_reached: Some(2),
            reason: "engine panicked: jsat: boom".into(),
            stats: RunStats::default(),
        });
        let mut quarantined = report(BmcResult::Unknown("engine panicked: jsat: boom".into()));
        quarantined.job_id = 1;
        quarantined.attempts = 3;
        quarantined.quarantined = true;
        let mut shed = report(BmcResult::Unknown("shed: memory pressure".into()));
        shed.job_id = 2;
        shed.deferrals = 4;
        let mut downgraded = report(BmcResult::Unreachable);
        downgraded.job_id = 3;
        downgraded.downgraded = true;
        let r = ServiceReport::new(
            2,
            Duration::from_millis(10),
            vec![retried, quarantined, shed, downgraded],
        );
        assert_eq!(r.jobs_retried, 2, "retried + quarantined both retried");
        assert_eq!(r.quarantined, vec![1]);
        assert_eq!(r.jobs_shed, 1);
        assert_eq!(r.jobs_downgraded, 1);
        let json = r.to_json();
        assert!(json.contains("\"jobs_quarantined\":1"));
        assert!(json.contains("\"quarantined\":[1]"));
        assert!(json.contains("\"jobs_shed\":1"));
        assert!(json.contains("\"jobs_downgraded\":1"));
        assert!(json.contains("\"resumed_from\":3"));
        assert!(json.contains("\"failures\":[{\"attempt\":1,\"bound_reached\":2"));
        assert!(json.contains("engine panicked: jsat: boom"));
    }

    #[test]
    fn cached_jobs_are_counted_and_rendered() {
        let mut hit = report(BmcResult::Unreachable);
        hit.cached = true;
        hit.priority = 9;
        let cold = report(BmcResult::Unreachable);
        let r = ServiceReport::new(1, Duration::from_millis(5), vec![hit, cold]);
        assert_eq!(r.jobs_cached, 1);
        let json = r.to_json();
        assert!(json.contains("\"jobs_cached\":1"));
        assert!(json.contains("\"cached\":true"));
        assert!(json.contains("\"priority\":9"));
    }

    #[test]
    fn queue_telemetry_rides_the_aggregate() {
        let r = ServiceReport::new(
            1,
            Duration::from_millis(5),
            vec![report(BmcResult::Unreachable)],
        );
        assert_eq!(r.queue_high_water, 0, "zero without telemetry attached");
        let mut pops = [0u64; 10];
        pops[4] = 3;
        pops[9] = 1;
        let r = r.with_queue_telemetry(7, pops);
        assert_eq!(r.queue_high_water, 7);
        let json = r.to_json();
        assert!(json.contains("\"queue_high_water\":7"));
        assert!(json.contains("\"queue_pops\":[0,0,0,0,3,0,0,0,0,1]"));
    }

    #[test]
    fn certificates_aggregate_across_jobs() {
        let mut a = report(BmcResult::Unreachable);
        a.certificate = Some(Certificate {
            bounds_attempted: 3,
            bounds_certified: 3,
            lemmas_checked: 10,
            proof_bytes: 500,
            ..Certificate::default()
        });
        let mut b = report(BmcResult::Unreachable);
        b.certificate = Some(Certificate {
            bounds_attempted: 2,
            bounds_certified: 1, // one bound escaped certification
            lemmas_checked: 4,
            proof_bytes: 200,
            ..Certificate::default()
        });
        let c = report(BmcResult::Unknown("cancelled".into())); // no cert
        let r = ServiceReport::new(1, Duration::from_millis(5), vec![a, b, c]);
        assert_eq!(r.jobs_certified, 1, "only the fully-certified job");
        let total = r.certificate.as_ref().expect("folded certificate");
        assert_eq!(total.bounds_attempted, 5);
        assert_eq!(total.bounds_certified, 4);
        assert_eq!(total.proof_bytes, 700);
        assert!(!total.fully_certified());
        let json = r.to_json();
        assert!(json.contains("\"jobs_certified\":1"));
        assert!(json.contains("\"certificate\":{\"certified\":false"));
    }
}
