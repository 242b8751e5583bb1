//! Integration tests of the session API: cooperative cancellation,
//! session-vs-one-shot agreement, and the solver-state reuse that the
//! deepening loop buys.

use std::time::{Duration, Instant};

use sebmc_repro::bmc::{
    find_shortest_witness, Budget, DeepeningResult, Engine, JSat, QbfBackend, QbfLinear,
    QbfSquaring, Semantics, UnrollSat,
};
use sebmc_repro::model::builders::{counter_with_enable, shift_register, token_ring};
use sebmc_repro::model::{explicit, suite13_small};

/// Every engine must notice a token that fired *before* the check even
/// started, without doing any real work.
#[test]
fn pre_fired_token_returns_unknown_immediately() {
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(UnrollSat::default()),
        Box::new(JSat::default()),
        Box::new(QbfLinear::new(QbfBackend::Qdpll)),
        Box::new(QbfSquaring::new(QbfBackend::Expansion)),
    ];
    let model = shift_register(6);
    for engine in &engines {
        let budget = Budget::none();
        budget.cancel.cancel();
        let start = Instant::now();
        let mut session = engine.start(&model, Semantics::Exactly, budget);
        let out = session.check_bound(4);
        assert!(
            out.result.is_unknown(),
            "{}: expected Unknown, got {}",
            Engine::name(engine.as_ref()),
            out.result
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{}: pre-fired token must not cost real work",
            Engine::name(engine.as_ref())
        );
    }
}

/// Fires the token 100 ms into a hard check and asserts the engine
/// backs out promptly with `Unknown("cancelled")`.
fn assert_cancels_mid_run(engine: &dyn Engine, model: &sebmc_repro::model::Model, k: usize) {
    // Generous fallback deadline so a broken cancellation path still
    // terminates the test (and fails the elapsed assertion).
    let budget = Budget::with_timeout(Duration::from_secs(120));
    let token = budget.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        token.cancel();
    });
    let start = Instant::now();
    let mut session = engine.start(model, Semantics::Exactly, budget);
    let out = session.check_bound(k);
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    assert_eq!(
        out.result,
        sebmc_repro::bmc::BmcResult::Unknown("cancelled".into()),
        "{} did not report cancellation (after {elapsed:?})",
        Engine::name(engine)
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "{} took {elapsed:?} to notice the token",
        Engine::name(engine)
    );
}

#[test]
fn unroll_cancels_mid_run() {
    // Exactly-100 on a 14-bit enable-counter: UNSAT but far beyond the
    // CDCL solver's quick reach.
    assert_cancels_mid_run(&UnrollSat::default(), &counter_with_enable(14), 100);
}

#[test]
fn jsat_cancels_mid_run() {
    // Exactly-400 on a 20-bit enable-counter: UNSAT, and the DFS is
    // still refuting paths after 20 s in release, far past the 100 ms
    // cancel (smaller instances can decide before the token fires).
    assert_cancels_mid_run(&JSat::default(), &counter_with_enable(20), 400);
}

#[test]
fn qbf_linear_cancels_mid_run() {
    // QDPLL needs far longer than the cancellation window here (the
    // CLI test relies on the same instance blowing a 50 ms budget).
    assert_cancels_mid_run(&QbfLinear::new(QbfBackend::Qdpll), &shift_register(8), 8);
}

#[test]
fn qbf_squaring_cancels_mid_run() {
    // Squaring at bound 4 carries 2 quantifier alternations; QDPLL
    // search over them is hopeless within the window.
    assert_cancels_mid_run(&QbfSquaring::new(QbfBackend::Qdpll), &shift_register(6), 4);
}

/// `find_shortest_witness` over a session must observe cancellation
/// between bounds too.
#[test]
fn deepening_observes_cancellation() {
    let budget = Budget::none();
    budget.cancel.cancel();
    let r = find_shortest_witness(
        &UnrollSat::default(),
        &counter_with_enable(8),
        1_000,
        budget,
    );
    match r {
        DeepeningResult::GaveUpAt { reason, .. } => assert_eq!(reason, "cancelled"),
        other => panic!("expected GaveUpAt, got {other:?}"),
    }
}

/// Session sweeps must give exactly the verdicts of fresh one-shot
/// checks on every model of the small suite, under both semantics —
/// persistent solver state (learnt clauses, caches, retired guards)
/// must never leak into a verdict.
#[test]
fn session_verdicts_match_oneshot_across_suite() {
    let engines: Vec<Box<dyn Engine>> =
        vec![Box::new(UnrollSat::default()), Box::new(JSat::default())];
    for engine in &engines {
        for semantics in [Semantics::Exactly, Semantics::Within] {
            for model in suite13_small() {
                let mut session = engine.start(&model, semantics, Budget::none());
                for k in 0..=5 {
                    let sess = session.check_bound(k);
                    let oneshot = engine
                        .start(&model, semantics, Budget::none())
                        .check_bound(k);
                    assert!(
                        !sess.result.is_unknown() && !oneshot.result.is_unknown(),
                        "{} gave up on {} at {k}",
                        Engine::name(engine.as_ref()),
                        model.name()
                    );
                    assert_eq!(
                        sess.result.is_reachable(),
                        oneshot.result.is_reachable(),
                        "{} session/one-shot disagree on {} at bound {k} ({semantics})",
                        Engine::name(engine.as_ref()),
                        model.name()
                    );
                    let expect = match semantics {
                        Semantics::Exactly => explicit::reachable_in_exactly(&model, k),
                        Semantics::Within => explicit::reachable_within(&model, k),
                    };
                    assert_eq!(
                        sess.result.is_reachable(),
                        expect,
                        "{} session disagrees with oracle on {} at bound {k} ({semantics})",
                        Engine::name(engine.as_ref()),
                        model.name()
                    );
                    if let Some(t) = sess.result.witness() {
                        assert_eq!(model.check_trace(t), Ok(()));
                    }
                }
            }
        }
    }
}

/// The deepening acceptance criterion: one session over bounds `0..=k`
/// on a token-ring model encodes measurably fewer literals (and needs
/// no more conflicts) than `k + 1` independent one-shot checks, because
/// frames and learnt clauses are reused instead of rebuilt.
#[test]
fn deepening_session_reuses_solver_state() {
    let model = token_ring(4);
    let max_k = 8;

    let mut session = UnrollSat::default().start(&model, Semantics::Exactly, Budget::none());
    for k in 0..=max_k {
        let out = session.check_bound(k);
        assert!(!out.result.is_unknown());
    }
    let total = session.cumulative_stats();

    let mut oneshot_lits = 0usize;
    let mut oneshot_conflicts = 0u64;
    for k in 0..=max_k {
        let out = UnrollSat::default()
            .start(&model, Semantics::Exactly, Budget::none())
            .check_bound(k);
        oneshot_lits += out.stats.encode_lits;
        oneshot_conflicts += out.stats.solver_effort;
    }

    println!(
        "session: {} lits / {} conflicts; one-shot: {} lits / {} conflicts",
        total.encode_lits, total.solver_effort, oneshot_lits, oneshot_conflicts
    );
    assert!(
        total.encode_lits * 2 < oneshot_lits,
        "session encoded {} lits, one-shots {} — reuse should at least halve it",
        total.encode_lits,
        oneshot_lits
    );
    assert!(
        total.solver_effort <= oneshot_conflicts,
        "session needed {} conflicts, one-shots {}",
        total.solver_effort,
        oneshot_conflicts
    );
}
