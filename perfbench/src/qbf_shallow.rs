//! `qbf-shallow`: one-shot QBF instances in process, on one thread.
//!
//! `QbfLinear` (formulation (2) on QDPLL) and `QbfSquaring`
//! (formulation (3) on universal expansion) run on the small suite at
//! shallow bounds, each under experiment E1's per-instance budget
//! (500 ms, 256 MiB, as in `table1`). This is the only workload where
//! `crates/qbf` does the work. It deliberately keeps instances the
//! budget cuts off: a QDPLL timeout, and squaring at bound 4, where
//! expansion runs past its deadline. They count against `success_frac`
//! and show in the time metrics, listed with their cause.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use sebmc::{BmcResult, Budget, Semantics};
use sebmc_model::{builders, suite, Model};
use sebmc_service::EngineKind;

use crate::oracle::Oracle;
use crate::spans::{self, Tracer};
use crate::{rng, vm_hwm, Finish, Op, Outcome, Pass, Workload};

/// E1's per-instance wall-clock budget.
const BUDGET: Duration = Duration::from_millis(500);
/// E1's per-instance memory budget.
const MEM_BYTES: usize = 256 << 20;
/// Returning later than this past the deadline counts as an overrun.
const OVERRUN_SLACK: Duration = Duration::from_millis(25);

/// Two seeded `random_fsm(5, 1, s)` models join the set at bound 2 on
/// QDPLL, each only if QDPLL decides it in this many decisions: a
/// deterministic test that puts it in the 60-150 ms cluster, several
/// times inside the budget. (Expansion at bound 2 needs more than 2 MB
/// on nearly every such model, so a seeded squaring instance would
/// often set `peak_db_bytes`; the squaring side stays fixed.)
const RANDOM_DECISIONS: (u64, u64) = (8_000, 20_000);
const RANDOM_PICKS: usize = 2;
/// Screening deadline: an in-class candidate needs under 0.2 s, so only
/// candidates outside the class ever reach it.
const SCREEN: Duration = Duration::from_secs(1);

const L: EngineKind = EngineKind::QbfLinear;
const S: EngineKind = EngineKind::QbfSquaring;

/// The fixed instance set: `(small-suite model name, engine, bound)`.
///
/// Twenty-seven decided instances take 2-25 ms and nine (the two seeded
/// ones among them) 40-150 ms. The fast ones around the middle spread
/// over 11-17 ms and trade places from pass to pass, so nine of them are
/// the same instance, QDPLL at bound 1 on Peterson (about 14 ms), with
/// fifteen instances below it and fifteen above: the median is always
/// one of those nine, whatever the seed picks and whatever the noise.
/// The last three are cut off by the budget: QDPLL needs 4.4 s and over
/// 15 s on the two timeouts, and expansion needs 0.9 s on squaring at
/// bound 4, where it returns about 150 ms after its deadline. That
/// overrun instance keeps its matrix near 10 MB, so where its deadline
/// falls cannot double the process's peak memory, as a larger one would.
/// With one overrun and two timeouts per pass, the tail (ten samples
/// beyond it, over at least four passes) lands on a QDPLL timeout, never
/// on the overrun, whose return time jumps with the expansion step the
/// deadline falls in.
const FIXED: &[(&str, EngineKind, usize)] = &[
    ("counter_reset_3", L, 3),
    ("counter_enable_3", L, 3),
    ("lfsr_4_6", L, 2),
    ("gray_3", L, 3),
    ("johnson_4", L, 2),
    ("shift_4", L, 2),
    ("traffic", L, 3),
    ("elevator_2", L, 2),
    ("ring_4", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("peterson", L, 1),
    ("counter_reset_3", S, 2),
    ("counter_enable_3", S, 2),
    ("gray_3", S, 2),
    ("traffic", S, 2),
    ("shift_4", S, 2),
    ("lfsr_4_6", S, 2),
    ("johnson_4", S, 2),
    ("elevator_2", S, 2),
    ("ring_4", S, 2),
    ("counter_reset_3", L, 4),
    ("counter_enable_3", L, 4),
    ("shift_4", L, 3),
    ("gray_3", L, 4),
    ("johnson_4", L, 3),
    ("random_5_1_2005", L, 2),
    ("random_5_1_2005", S, 2),
    ("lfsr_4_6", L, 4),
    ("arbiter_3", L, 2),
    ("counter_enable_3", S, 4),
];

fn e1_budget() -> Budget {
    let mut b = Budget::with_timeout(BUDGET);
    b.max_formula_bytes = Some(MEM_BYTES);
    b.reduce = false;
    b
}

/// Picks the seeded small random FSMs in the class.
fn pick_random(seed: u64) -> Vec<u64> {
    let mut r = rng(seed, 0x0BF5);
    let mut picks = Vec::new();
    while picks.len() < RANDOM_PICKS {
        let s = r.next_u64() % 1_000_000;
        let model = builders::random_fsm(5, 1, s);
        let mut budget = Budget::with_timeout(SCREEN);
        budget.reduce = false;
        let o = L
            .build()
            .start(&model, Semantics::Exactly, budget)
            .check_bound(2);
        if !o.result.is_unknown()
            && (RANDOM_DECISIONS.0..=RANDOM_DECISIONS.1).contains(&o.stats.solver_effort)
        {
            picks.push(s);
        }
    }
    picks
}

/// The `qbf-shallow` workload.
pub struct QbfShallow {
    random_seeds: Vec<u64>,
    set: Vec<(Model, EngineKind, usize)>,
    epoch: Instant,
    /// Distinct `(model, bound, reachable)` claims to verify.
    claims: BTreeSet<(String, usize, bool)>,
}

impl QbfShallow {
    pub fn new(seed: u64) -> Self {
        QbfShallow {
            random_seeds: pick_random(seed),
            set: Vec::new(),
            epoch: Instant::now(),
            claims: BTreeSet::new(),
        }
    }

    fn run_pass(&mut self, traced: bool) -> Pass {
        let mut tr = Tracer::new(traced, self.epoch, 1);
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut decisions = 0u64;
        let mut overrun_ms = 0.0;
        let mut decided = [0usize; 2];
        let mut tried = [0usize; 2];
        for (i, (model, q, k)) in self.set.iter().enumerate() {
            let span = tr.id();
            let t = Instant::now();
            let mut session = q.build().start(model, Semantics::Exactly, e1_budget());
            tr.leaf("core.start", span, i as u64, t, Instant::now());
            let c = Instant::now();
            let o = session.check_bound(*k);
            let end = Instant::now();
            tr.leaf(spans::check_span(*q), span, i as u64, c, end);
            tr.record(span, "qbf_shallow.instance", 0, i as u64, t, end);
            let elapsed = end - t;
            let slot = usize::from(*q == S);
            tried[slot] += 1;
            overrun_ms += elapsed.saturating_sub(BUDGET).as_secs_f64() * 1e3;
            let outcome = if elapsed > BUDGET + OVERRUN_SLACK {
                Outcome::Undecided("budget overrun".into())
            } else {
                match &o.result {
                    BmcResult::Unknown(r) if r == "budget exhausted" => {
                        Outcome::Undecided("timeout".into())
                    }
                    BmcResult::Unknown(r) => Outcome::Failed(format!("unknown: {r}")),
                    _ => Outcome::Ok,
                }
            };
            if !o.result.is_unknown() {
                self.claims
                    .insert((model.name().to_string(), *k, o.result.is_reachable()));
            }
            if outcome == Outcome::Ok {
                decided[slot] += 1;
                decisions += o.stats.solver_effort;
            }
            ops.push(Op {
                label: format!("{}/{}/k{k}", model.name(), q.as_str()),
                ms: elapsed.as_secs_f64() * 1e3,
                // Only decided instances have a deterministic matrix
                // peak; a cut-off expansion stops wherever the clock
                // caught it.
                db_bytes: if outcome == Outcome::Ok {
                    o.stats.peak_formula_bytes as u64
                } else {
                    0
                },
                outcome,
            });
        }
        let wall_s = start.elapsed().as_secs_f64();
        let spans = tr.take();
        let by = spans::self_ms_by_name(&spans);
        let peak = ops.iter().map(|o| o.db_bytes).max().unwrap_or(0);
        let bytes: Vec<f64> = ops.iter().map(|o| o.db_bytes as f64).collect();
        Pass {
            wall_s,
            counts: vec![
                ("qbf.decisions", decisions),
                ("peak_db_bytes", peak),
                ("db_bytes_gmean_bits", crate::stats::gmean(&bytes).to_bits()),
            ],
            layers: vec![
                ("core.start_ms", spans::total_self_ms(&by, "core.start")),
                ("core.bounds_checked", ops.len() as f64),
                (
                    "qbf.linear.check_ms",
                    spans::total_self_ms(&by, "qbf.linear.check_bound"),
                ),
                (
                    "qbf.squaring.check_ms",
                    spans::total_self_ms(&by, "qbf.squaring.check_bound"),
                ),
                ("qbf.decisions", decisions as f64),
                ("qbf.peak_matrix_bytes", peak as f64),
                ("qbf.budget_overrun_ms", overrun_ms),
                (
                    "qbf.linear.decided_frac",
                    decided[0] as f64 / tried[0] as f64,
                ),
                (
                    "qbf.squaring.decided_frac",
                    decided[1] as f64 / tried[1] as f64,
                ),
            ],
            ops,
            spans,
        }
    }
}

impl Workload for QbfShallow {
    fn setup(&mut self) -> Result<Pass, String> {
        let small = suite::suite13_small();
        let mut set: Vec<(Model, EngineKind, usize)> = FIXED
            .iter()
            .map(|&(name, q, k)| {
                let m = small
                    .iter()
                    .find(|m| m.name() == name)
                    .expect("qbf-shallow names small-suite models");
                (m.clone(), q, k)
            })
            .collect();
        for &s in &self.random_seeds {
            set.push((builders::random_fsm(5, 1, s), L, 2));
        }
        self.set = set;
        Ok(self.run_pass(false))
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        Ok(self.run_pass(traced))
    }

    fn finish(&mut self) -> Result<Finish, String> {
        // Before the oracle's explicit search.
        let peak_rss_bytes = vm_hwm("self");
        let mut problems = Vec::new();
        let mut wrong = Vec::new();
        for (name, k, reachable) in &self.claims {
            let (model, _, _) = self
                .set
                .iter()
                .find(|(m, _, _)| m.name() == name)
                .expect("claim names a set model");
            if Oracle::reachable_exactly(model, *k) != *reachable {
                problems.push(format!(
                    "wrong verdict on {name} at bound {k}: engine says reachable={reachable}"
                ));
                wrong.push(format!("{name}/"));
            }
        }
        Ok(Finish {
            peak_rss_bytes,
            problems,
            wrong,
            layers: Vec::new(),
            notes: vec![format!(
                "{} instances per pass; seeded random_fsm(5, 1, s) at bound 2 for s in {:?}",
                self.set.len(),
                self.random_seeds
            )],
        })
    }
}
