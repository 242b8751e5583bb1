//! Seeded differential tests of the forward checker.
//!
//! Streams of original, add, finalize and delete records — duplicate
//! clauses, deletes of absent clauses and mass deletions included — are
//! fed both to [`ForwardChecker`] and to a naive reference checker
//! defined here (linear scans over a clause list, no watches, no
//! index). Every lemma must get the same accept/reject verdict and the
//! certificates must agree field for field after every record (the
//! reference has no byte figure, so `peak_checker_bytes` is left out).

use sebmc_logic::rng::SplitMix64;
use sebmc_logic::Lit;
use sebmc_proof::{Certificate, ForwardChecker};

const UNASSIGNED: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// The checker's contract, by brute force: the active clauses as a
/// plain list, the permanent top-level units as an assignment that is
/// recomputed to its unit-propagation fixpoint after every insert.
struct Reference {
    clauses: Vec<Vec<Lit>>,
    units: Vec<u8>,
    proved_unsat: bool,
    last_final: Option<Vec<usize>>,
    cert: Certificate,
}

impl Reference {
    fn new(vars: usize) -> Self {
        Reference {
            clauses: Vec::new(),
            units: vec![UNASSIGNED; 2 * vars],
            proved_unsat: false,
            last_final: None,
            cert: Certificate::default(),
        }
    }

    fn set(vals: &mut [u8], l: Lit) {
        vals[l.code()] = TRUE;
        vals[(!l).code()] = FALSE;
    }

    /// Propagates `vals` to its fixpoint over every active clause;
    /// `true` = some clause is falsified.
    fn propagate(&self, vals: &mut [u8]) -> bool {
        loop {
            let mut changed = false;
            for c in &self.clauses {
                if c.iter().any(|l| vals[l.code()] == TRUE) {
                    continue;
                }
                let open: Vec<Lit> = c
                    .iter()
                    .copied()
                    .filter(|l| vals[l.code()] == UNASSIGNED)
                    .collect();
                match open.len() {
                    0 => return true,
                    1 => {
                        Self::set(vals, open[0]);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return false;
            }
        }
    }

    fn insert(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
        self.cert.peak_active_clauses =
            self.cert.peak_active_clauses.max(self.clauses.len() as u64);
        let mut units = std::mem::take(&mut self.units);
        if self.propagate(&mut units) {
            self.proved_unsat = true;
        }
        self.units = units;
    }

    fn rup(&self, lits: &[Lit]) -> bool {
        if self.proved_unsat {
            return true;
        }
        let mut vals = self.units.clone();
        for &l in lits {
            match vals[l.code()] {
                TRUE => return true,
                FALSE => {}
                _ => Self::set(&mut vals, !l),
            }
        }
        self.propagate(&mut vals)
    }

    fn original(&mut self, lits: &[Lit]) {
        self.cert.originals += 1;
        if lits.is_empty() {
            self.proved_unsat = true;
        } else {
            self.insert(lits);
        }
    }

    fn add(&mut self, lits: &[Lit], finalize: bool) -> bool {
        self.cert.lemmas_checked += 1;
        let ok = self.rup(lits);
        if ok {
            if finalize {
                self.cert.unsat_proofs += 1;
                self.last_final = Some(sorted_codes(lits));
            }
            if lits.is_empty() {
                self.proved_unsat = true;
            } else {
                self.insert(lits);
            }
        } else {
            self.cert.failed_checks += 1;
            if finalize {
                self.last_final = None;
            }
        }
        ok
    }

    fn delete(&mut self, lits: &[Lit]) {
        self.cert.deletions += 1;
        let key = sorted_codes(lits);
        match self.clauses.iter().position(|c| sorted_codes(c) == key) {
            Some(i) => {
                self.clauses.swap_remove(i);
            }
            None => self.cert.missing_deletes += 1,
        }
    }

    fn certifies(&self, assumptions: &[Lit]) -> bool {
        if self.proved_unsat {
            return true;
        }
        let Some(lemma) = &self.last_final else {
            return false;
        };
        let neg = sorted_codes(&assumptions.iter().map(|&a| !a).collect::<Vec<_>>());
        lemma.iter().all(|c| neg.contains(c))
    }
}

fn sorted_codes(lits: &[Lit]) -> Vec<usize> {
    let mut codes: Vec<usize> = lits.iter().map(|l| l.code()).collect();
    codes.sort_unstable();
    codes
}

/// A clause of `len` distinct variables; with a planted model, at
/// least one literal agrees with it (so the originals stay
/// satisfiable).
fn random_clause(
    rng: &mut SplitMix64,
    vars: usize,
    len: usize,
    model: Option<&[bool]>,
) -> Vec<Lit> {
    let mut picked: Vec<usize> = Vec::with_capacity(len);
    while picked.len() < len.min(vars) {
        let v = rng.below(vars);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    let mut lits: Vec<Lit> = picked
        .iter()
        .map(|&v| Lit::from_code(2 * v + usize::from(rng.coin())))
        .collect();
    if let Some(m) = model {
        let agrees = |l: &Lit| (l.code() & 1 == 0) == m[l.code() / 2];
        if !lits.iter().any(agrees) {
            let i = rng.below(lits.len());
            lits[i] = !lits[i];
        }
    }
    lits
}

fn shuffled(rng: &mut SplitMix64, lits: &[Lit]) -> Vec<Lit> {
    let mut out = lits.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// The resolvent of two clauses on their first clashing variable, if
/// they clash exactly once.
fn resolvent(a: &[Lit], b: &[Lit]) -> Option<Vec<Lit>> {
    let clashes: Vec<Lit> = a.iter().copied().filter(|l| b.contains(&!*l)).collect();
    if clashes.len() != 1 {
        return None;
    }
    let p = clashes[0];
    let mut out: Vec<Lit> = a.iter().copied().filter(|&l| l != p).collect();
    for &l in b {
        if l != !p && !out.contains(&l) {
            out.push(l);
        }
    }
    Some(out)
}

fn without_bytes(mut c: Certificate) -> Certificate {
    c.peak_checker_bytes = 0;
    c
}

/// One seeded stream through both checkers, compared record by record.
fn differential(seed: u64, steps: usize, max_vars: usize, max_len: usize) {
    let mut rng = SplitMix64::new(seed);
    let vars = rng.range_inclusive(5, max_vars);
    let model: Option<Vec<bool>> =
        (!seed.is_multiple_of(4)).then(|| (0..vars).map(|_| rng.coin()).collect());
    let mut fast = ForwardChecker::new();
    let mut slow = Reference::new(vars);
    let mut accepted = 0usize;
    for step in 0..steps {
        let roll = rng.below(100);
        let what;
        match roll {
            0..=29 => {
                let len = rng.range_inclusive(1, max_len);
                let c = random_clause(&mut rng, vars, len, model.as_deref());
                what = format!("original {c:?}");
                fast.original(&c);
                slow.original(&c);
            }
            30..=39 if !slow.clauses.is_empty() => {
                // A duplicate of an active clause, as an axiom or as a
                // (trivially RUP) lemma.
                let i = rng.below(slow.clauses.len());
                let c = shuffled(&mut rng, &slow.clauses[i].clone());
                what = format!("duplicate {c:?}");
                if rng.coin() {
                    fast.original(&c);
                    slow.original(&c);
                } else {
                    let (f, s) = (fast.add(&c, false), slow.add(&c, false));
                    assert_eq!(f, s, "seed {seed} step {step}: {what}");
                }
            }
            40..=64 => {
                let len = rng.range_inclusive(0, max_len - 1);
                let c = random_clause(&mut rng, vars, len, None);
                let finalize = rng.below(5) == 0;
                what = format!("add {c:?} finalize={finalize}");
                let (f, s) = (fast.add(&c, finalize), slow.add(&c, finalize));
                assert_eq!(f, s, "seed {seed} step {step}: {what}");
                accepted += usize::from(f);
            }
            65..=74 if slow.clauses.len() >= 2 => {
                let i = rng.below(slow.clauses.len());
                let j = rng.below(slow.clauses.len());
                let r = resolvent(&slow.clauses[i], &slow.clauses[j]);
                let c = r.unwrap_or_else(|| slow.clauses[i].clone());
                what = format!("resolvent {c:?}");
                let (f, s) = (fast.add(&c, false), slow.add(&c, false));
                assert_eq!(f, s, "seed {seed} step {step}: {what}");
                accepted += usize::from(f);
            }
            75..=89 if !slow.clauses.is_empty() => {
                let i = rng.below(slow.clauses.len());
                let c = shuffled(&mut rng, &slow.clauses[i].clone());
                what = format!("delete {c:?}");
                fast.delete(&c);
                slow.delete(&c);
            }
            90..=97 => {
                // Mostly absent: a fresh random clause.
                let len = rng.range_inclusive(1, max_len);
                let c = random_clause(&mut rng, vars, len, None);
                what = format!("delete (maybe absent) {c:?}");
                fast.delete(&c);
                slow.delete(&c);
            }
            _ => {
                // Mass deletion: all but about a tenth of the clauses.
                what = "mass deletion".to_string();
                let keep = slow.clauses.len() / 10;
                while slow.clauses.len() > keep {
                    let i = rng.below(slow.clauses.len());
                    let c = shuffled(&mut rng, &slow.clauses[i].clone());
                    fast.delete(&c);
                    slow.delete(&c);
                }
            }
        }
        assert_eq!(
            without_bytes(fast.certificate()),
            slow.cert,
            "seed {seed} step {step}: {what}"
        );
        assert_eq!(
            fast.active_clauses(),
            slow.clauses.len(),
            "seed {seed} step {step}"
        );
        assert_eq!(
            fast.proved_unsat(),
            slow.proved_unsat,
            "seed {seed} step {step}"
        );
        if step % 7 == 0 {
            let n = rng.below(vars + 1);
            let a = random_clause(&mut rng, vars, n, None);
            assert_eq!(
                fast.certifies(&a),
                slow.certifies(&a),
                "seed {seed} step {step}"
            );
        }
    }
    // The streams must exercise both verdicts, not just one.
    if model.is_some() {
        assert!(accepted > 0, "seed {seed}: no lemma was ever accepted");
        assert!(
            slow.cert.failed_checks > 0,
            "seed {seed}: no lemma was ever rejected"
        );
    }
}

#[test]
fn checker_matches_the_reference_on_seeded_streams() {
    for seed in 1..=48 {
        differential(seed, 1_500, 14, 4);
    }
}

/// Wider clauses over more variables: enough garbage per stream that
/// the arena is compacted (and slots renumbered) several times.
#[test]
fn checker_matches_the_reference_across_compactions() {
    for seed in 100..=107 {
        differential(seed, 4_000, 40, 7);
    }
}

#[test]
fn resident_bytes_return_to_the_live_clauses_after_mass_deletion() {
    let vars = 200;
    let mut rng = SplitMix64::new(7);
    let model: Vec<bool> = (0..vars).map(|_| rng.coin()).collect();
    let clauses: Vec<Vec<Lit>> = (0..4_000)
        .map(|_| {
            let len = rng.range_inclusive(3, 6);
            random_clause(&mut rng, vars, len, Some(&model))
        })
        .collect();
    let mut c = ForwardChecker::new();
    for cl in &clauses {
        c.original(cl);
    }
    let peak = c.resident_bytes();
    assert_eq!(c.certificate().peak_checker_bytes as usize, peak);

    let keep = 20;
    for cl in &clauses[keep..] {
        c.delete(&shuffled(&mut rng, cl));
    }
    assert_eq!(c.active_clauses(), keep);
    assert_eq!(c.certificate().missing_deletes, 0);
    let after = c.resident_bytes();

    // The same live clauses, inserted into a fresh checker that has
    // seen every variable: what a checker must hold anyway.
    let mut fresh = ForwardChecker::new();
    fresh.original(&[Lit::from_code(2 * vars - 1), Lit::from_code(2 * vars - 2)]);
    for cl in &clauses[..keep] {
        fresh.original(cl);
    }
    const SLACK: usize = 32 * 1024;
    assert!(
        after <= fresh.resident_bytes() + SLACK,
        "after mass deletion {after} B, fresh {} B",
        fresh.resident_bytes()
    );
    assert!(after * 4 < peak, "after {after} B vs peak {peak} B");
    assert_eq!(
        c.certificate().peak_checker_bytes as usize,
        peak,
        "the peak is sticky"
    );
}
