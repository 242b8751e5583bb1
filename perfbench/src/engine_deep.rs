//! `engine-deep`: deepening `sat-unroll` and `jsat` sessions in
//! process, on one thread, with reduction and certification off.
//!
//! Each session deepens from bound 0 to its model's first reachable
//! bound or to a deep bound, so nearly all the time is spent in `core`
//! and `sat`, and the deep unreachable sweeps show unroll's clause
//! database growing with k while jSAT keeps one copy of the transition
//! relation. Every instance takes at least about 10 ms and decides far
//! inside its budget; the paper suite's sweeps are too small for this.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use sebmc::{BmcResult, Budget, Engine, JSat, Semantics};
use sebmc_model::{builders, Model};
use sebmc_service::EngineKind;

use crate::oracle::Oracle;
use crate::spans::{self, Tracer};
use crate::{rng, shuffle, stats, vm_hwm, Finish, Op, Outcome, Pass, Workload};

/// Generous per-session budget: the slowest instance needs ~0.2 s, so
/// an instance that hits this is a regression, reported as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Seeded `random_fsm(14, 2, s)` models join the tier only if their
/// jSAT sweep lands in this effort class (conflicts and clause-database
/// bytes, both deterministic). The class puts them at 10-25 ms, below
/// the tier's median, so the seed changes the models without moving
/// `latency_p50_ms` or the workload's cost by more than a few percent.
const RANDOM_CONFLICTS: (u64, u64) = (300, 1_000);
const RANDOM_BYTES: (usize, usize) = (60_000, 160_000);
const RANDOM_DEPTH: usize = 40;
const RANDOM_PICKS: usize = 2;

/// Extra copies of the dense FSM's unroll sweep (about 64 ms, the
/// steadiest instance of the tier). Sessions of 54-67 ms (the elevator,
/// counter and dense FSM jSAT sweeps, the 40-station token ring and the
/// dense FSM unroll sweep) trade places from pass to pass; with these
/// copies the median lies inside that band with at least two ranks to
/// spare on either side, rather than in the gap below it.
const MEDIAN_COPIES: usize = 4;

/// The fixed tier: `(model, engine, deepest bound)`. A session stops
/// early at the first reachable bound.
fn fixed_tier() -> Vec<(Model, EngineKind, usize)> {
    use EngineKind::{Jsat, Unroll};
    let dense = || builders::dense_fsm(12, 3, 800, 7);
    let mut tier = vec![
        (builders::peterson(), Unroll, 48),
        (builders::peterson(), Jsat, 48),
        (builders::elevator(5), Unroll, 48),
        (builders::elevator(5), Jsat, 48),
        (builders::elevator(6), Unroll, 48),
        (builders::elevator(6), Jsat, 48),
        (builders::counter_with_enable(14), Unroll, 48),
        (builders::counter_with_enable(14), Jsat, 48),
        (builders::counter_with_enable(16), Unroll, 48),
        (builders::counter_with_enable(16), Jsat, 48),
        (builders::token_ring(24), Jsat, 48),
        (builders::token_ring(40), Jsat, 48),
        (builders::token_ring(120), Unroll, 120),
        (builders::fifo(3), Jsat, 12),
        (builders::shift_register(16), Jsat, 12),
        (dense(), Unroll, 48),
        (dense(), Jsat, 48),
    ];
    tier.extend((0..MEDIAN_COPIES).map(|_| (dense(), Unroll, 48)));
    tier
}

/// The tier's models that need the checked-in verdict table, with the
/// depth each must be known through (used by `--mint-expected`, which
/// also covers the suite models the service workloads use).
pub fn table_models() -> Vec<(Model, usize)> {
    let mut out: Vec<(Model, usize)> = fixed_tier()
        .into_iter()
        .filter(|(m, _, _)| !Oracle::is_explicit(m))
        .map(|(m, _, d)| (m, d))
        .collect();
    out.extend(crate::batch_certify::table_models());
    // Deepest requirement first, so dedup keeps it.
    out.sort_by(|a, b| a.0.name().cmp(b.0.name()).then(b.1.cmp(&a.1)));
    out.dedup_by(|a, b| a.0.name() == b.0.name());
    out
}

/// Picks `RANDOM_PICKS` seeded random FSMs in the effort class.
fn pick_random(seed: u64) -> Vec<u64> {
    let mut r = rng(seed, 0xDEE9);
    let mut picks = Vec::new();
    while picks.len() < RANDOM_PICKS {
        let s = r.next_u64() % 1_000_000;
        let model = builders::random_fsm(14, 2, s);
        // An in-class candidate needs under 30 ms; one still running after
        // a second is far outside the class, so the cut-off never rejects
        // an in-class model.
        let mut budget = Budget::with_timeout(Duration::from_secs(1));
        budget.reduce = false;
        let mut session = JSat::default().start(&model, Semantics::Exactly, budget);
        let mut decided = true;
        for k in 0..=RANDOM_DEPTH {
            match session.check_bound(k).result {
                BmcResult::Unreachable => {}
                BmcResult::Reachable(_) => break,
                BmcResult::Unknown(_) => {
                    decided = false;
                    break;
                }
            }
        }
        let st = session.cumulative_stats();
        if decided
            && (RANDOM_CONFLICTS.0..=RANDOM_CONFLICTS.1).contains(&st.solver_effort)
            && (RANDOM_BYTES.0..=RANDOM_BYTES.1).contains(&st.peak_formula_bytes)
        {
            picks.push(s);
        }
    }
    picks
}

/// One deepening session's result.
pub struct Sweep {
    /// Bound of the first `Reachable`, `None` if none through the depth.
    pub first: Option<usize>,
    /// Why the sweep failed, if it did.
    pub error: Option<String>,
    /// Cumulative stats of the session.
    pub stats: sebmc::RunStats,
}

/// Deepens `engine` on `model` through `depth` (exactly-k semantics)
/// under `budget`, recording a span for `Engine::start` and for every
/// `check_bound` under `parent`, and replaying every witness on `model`.
/// The verdict oracle's `--mint-expected` runs it with tracing off.
pub fn sweep(
    tr: &mut Tracer,
    parent: u32,
    job: u64,
    eng: EngineKind,
    model: &Model,
    depth: usize,
    budget: Budget,
) -> Sweep {
    let engine = eng.build();
    let t = Instant::now();
    let mut session = engine.start(model, Semantics::Exactly, budget);
    tr.leaf("core.start", parent, job, t, Instant::now());
    let mut out = Sweep {
        first: None,
        error: None,
        stats: sebmc::RunStats::default(),
    };
    for k in 0..=depth {
        let t = Instant::now();
        let o = session.check_bound(k);
        tr.leaf(spans::check_span(eng), parent, job, t, Instant::now());
        match o.result {
            BmcResult::Unreachable => {}
            BmcResult::Reachable(Some(trace)) => {
                if let Err(e) = model.check_trace(&trace) {
                    out.error = Some(format!("witness at bound {k} fails replay: {e:?}"));
                }
                out.first = Some(k);
                break;
            }
            BmcResult::Reachable(None) => {
                out.error = Some(format!("reachable at bound {k} without a witness"));
                out.first = Some(k);
                break;
            }
            BmcResult::Unknown(r) => {
                out.error = Some(format!("unknown at bound {k}: {r}"));
                break;
            }
        }
    }
    out.stats = session.cumulative_stats();
    out
}

/// The `engine-deep` workload.
pub struct EngineDeep {
    random_seeds: Vec<u64>,
    /// Instance order, drawn from the seed.
    order: Vec<usize>,
    tier: Vec<(Model, EngineKind, usize)>,
    epoch: Instant,
    /// Distinct `(model, depth, first reachable)` claims to verify.
    claims: BTreeSet<(String, usize, Option<usize>)>,
    oracle: Oracle,
}

impl EngineDeep {
    pub fn new(seed: u64) -> Self {
        let random_seeds = pick_random(seed);
        let n = fixed_tier().len() + random_seeds.len();
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, seed, 0x0DE5);
        EngineDeep {
            random_seeds,
            order,
            tier: Vec::new(),
            epoch: Instant::now(),
            claims: BTreeSet::new(),
            oracle: Oracle::new(),
        }
    }

    fn run_pass(&mut self, traced: bool) -> Pass {
        let mut tr = Tracer::new(traced, self.epoch, 1);
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut per_eng: Vec<(EngineKind, sebmc::RunStats)> = Vec::new();
        for &i in &self.order {
            let (model, eng, depth) = &self.tier[i];
            let mut budget = Budget::with_timeout(TIMEOUT);
            budget.reduce = false;
            let span = tr.id();
            let t = Instant::now();
            let s = sweep(&mut tr, span, i as u64, *eng, model, *depth, budget);
            let end = Instant::now();
            tr.record(span, "engine_deep.instance", 0, i as u64, t, end);
            let label = format!("{}/{}/{}", model.name(), eng.as_str(), depth);
            self.claims
                .insert((model.name().to_string(), *depth, s.first));
            ops.push(Op {
                label,
                ms: (end - t).as_secs_f64() * 1e3,
                outcome: s.error.map_or(Outcome::Ok, Outcome::Failed),
                db_bytes: s.stats.peak_formula_bytes as u64,
            });
            per_eng.push((*eng, s.stats));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let spans = tr.take();
        let by = spans::self_ms_by_name(&spans);
        let conflicts: u64 = per_eng.iter().map(|(_, s)| s.solver_effort).sum();
        let peak = |e: EngineKind| {
            per_eng
                .iter()
                .filter(|(x, _)| *x == e)
                .map(|(_, s)| s.peak_formula_bytes)
                .max()
                .unwrap_or(0) as f64
        };
        let check_ms = spans::total_self_ms(&by, "core.unroll.check_bound")
            + spans::total_self_ms(&by, "core.jsat.check_bound");
        let bytes: Vec<f64> = ops.iter().map(|o| o.db_bytes as f64).collect();
        Pass {
            wall_s,
            counts: vec![
                ("sat.conflicts", conflicts),
                (
                    "peak_db_bytes",
                    bytes.iter().copied().fold(0.0, f64::max) as u64,
                ),
                ("db_bytes_gmean_bits", stats::gmean(&bytes).to_bits()),
            ],
            layers: vec![
                ("core.start_ms", spans::total_self_ms(&by, "core.start")),
                (
                    "core.unroll.check_ms",
                    spans::total_self_ms(&by, "core.unroll.check_bound"),
                ),
                (
                    "core.jsat.check_ms",
                    spans::total_self_ms(&by, "core.jsat.check_bound"),
                ),
                ("core.unroll.peak_db_bytes", peak(EngineKind::Unroll)),
                ("core.jsat.peak_db_bytes", peak(EngineKind::Jsat)),
                (
                    "core.encode_lits_max",
                    per_eng
                        .iter()
                        .map(|(_, s)| s.encode_lits)
                        .max()
                        .unwrap_or(0) as f64,
                ),
                (
                    "core.bounds_checked",
                    per_eng.iter().map(|(_, s)| s.bounds_checked).sum::<usize>() as f64,
                ),
                ("sat.conflicts", conflicts as f64),
                ("sat.conflicts_per_s", conflicts as f64 / (check_ms / 1e3)),
                (
                    "sat.peak_watch_bytes",
                    per_eng
                        .iter()
                        .map(|(_, s)| s.peak_watch_bytes)
                        .max()
                        .unwrap_or(0) as f64,
                ),
            ],
            ops,
            spans,
        }
    }
}

impl Workload for EngineDeep {
    fn setup(&mut self) -> Result<Pass, String> {
        let mut tier = fixed_tier();
        for &s in &self.random_seeds {
            tier.push((
                builders::random_fsm(14, 2, s),
                EngineKind::Jsat,
                RANDOM_DEPTH,
            ));
        }
        self.tier = tier;
        Ok(self.run_pass(false))
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        Ok(self.run_pass(traced))
    }

    fn finish(&mut self) -> Result<Finish, String> {
        // Before the oracle's explicit search, which can allocate more
        // than the engines did.
        let peak_rss_bytes = vm_hwm("self");
        let mut problems = Vec::new();
        let mut wrong = Vec::new();
        for (name, depth, got) in &self.claims {
            let (model, _, _) = self
                .tier
                .iter()
                .find(|(m, _, _)| m.name() == name)
                .expect("claim names a tier model");
            self.oracle.prepare(model, got.unwrap_or(*depth));
            if let Err(e) = self.oracle.check(name, *depth, *got) {
                problems.push(e);
                wrong.push(format!("{name}/"));
            }
        }
        Ok(Finish {
            peak_rss_bytes,
            problems,
            wrong,
            layers: Vec::new(),
            notes: vec![format!(
                "{} instances per pass; seeded random_fsm(14, 2, s) picks: {:?}",
                self.tier.len(),
                self.random_seeds
            )],
        })
    }
}
