//! The verdict oracle every workload checks its answers against.
//!
//! A model small enough for explicit-state search (at most 22 state
//! plus input bits) is decided by `sebmc_model::explicit`. Larger
//! models are looked up in `expected.tsv`, a table checked in next to
//! this file and minted by `perfbench --mint-expected`, which refuses
//! to write a row unless both SAT engines agree. Either way the oracle
//! knows each model's first reachable bound, which fixes the verdict of
//! every bound and both semantics: a deepening sweep to `max_bound`
//! must stop at that bound, or report `Unreachable` when it lies beyond.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sebmc::Budget;
use sebmc_model::{explicit, Model};
use sebmc_service::EngineKind;

use crate::spans::Tracer;

/// Largest state+input width the explicit-state search accepts.
const EXPLICIT_BITS: usize = 22;

/// The checked-in table for models too wide for explicit search.
const TABLE: &str = include_str!("../expected.tsv");

/// What the oracle knows about one model.
#[derive(Clone, Copy, Debug)]
struct Known {
    /// First bound at which the target is reachable, if any within
    /// `through`.
    first: Option<usize>,
    /// Deepest bound the answer covers.
    through: usize,
}

/// Expected first-reachable bounds, computed once per model.
pub struct Oracle {
    table: HashMap<String, Known>,
    explicit: HashMap<String, Known>,
}

impl Oracle {
    /// Parses the checked-in table.
    pub fn new() -> Self {
        let mut table = HashMap::new();
        for line in TABLE.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "expected.tsv: bad row '{line}'");
            let first = (f[1] != "none").then(|| f[1].parse().expect("expected.tsv: bad bound"));
            let through = f[2].parse().expect("expected.tsv: bad depth");
            table.insert(f[0].to_string(), Known { first, through });
        }
        Oracle {
            table,
            explicit: HashMap::new(),
        }
    }

    /// Whether `model` is small enough for explicit-state search.
    pub fn is_explicit(model: &Model) -> bool {
        model.num_state_vars() + model.num_inputs() <= EXPLICIT_BITS
    }

    /// Whether the target of explicit-size `model` is reachable in
    /// exactly `k` steps (the one-shot question the QBF engines answer).
    pub fn reachable_exactly(model: &Model, k: usize) -> bool {
        explicit::reachable_in_exactly(model, k)
    }

    /// Makes the explicit answers for `model` cover bounds up to
    /// `depth` (no-op for table models).
    pub fn prepare(&mut self, model: &Model, depth: usize) {
        if !Self::is_explicit(model) {
            return;
        }
        let known = self.explicit.get(model.name());
        if known.is_some_and(|k| k.through >= depth) {
            return;
        }
        let first = explicit::min_steps_to_target(model, depth);
        self.explicit.insert(
            model.name().to_string(),
            Known {
                first,
                through: depth,
            },
        );
    }

    /// The first reachable bound of `model` within `max_bound`
    /// (`Ok(None)` = unreachable through `max_bound`), or an error when
    /// neither source covers that depth.
    pub fn first_reachable(&self, model: &str, max_bound: usize) -> Result<Option<usize>, String> {
        let k = self
            .explicit
            .get(model)
            .or_else(|| self.table.get(model))
            .ok_or_else(|| format!("oracle: no answer for model {model}"))?;
        match k.first {
            Some(f) if f <= max_bound => Ok(Some(f)),
            _ if max_bound <= k.through => Ok(None),
            _ => Err(format!(
                "oracle: {model} is known only through bound {}, asked {max_bound}",
                k.through
            )),
        }
    }

    /// Checks a sweep's outcome: `got` is the bound the sweep stopped
    /// at with `Reachable`, or `None` for `Unreachable` through
    /// `max_bound`. Returns a description of any mismatch.
    pub fn check(&self, model: &str, max_bound: usize, got: Option<usize>) -> Result<(), String> {
        let want = self.first_reachable(model, max_bound)?;
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "wrong verdict on {model} through bound {max_bound}: expected {}, got {}",
                show(want),
                show(got)
            ))
        }
    }
}

fn show(first: Option<usize>) -> String {
    first.map_or("unreachable".into(), |k| format!("reachable at {k}"))
}

/// Deepens one engine from bound 0 to `depth` with tracing off,
/// stopping at the first `Reachable` (its witness replayed); `Err` on
/// an `Unknown` or a bad witness.
fn sweep(engine: EngineKind, model: &Model, depth: usize) -> Result<Option<usize>, String> {
    let mut budget = Budget::with_timeout(Duration::from_secs(600));
    budget.reduce = false;
    let mut off = Tracer::new(false, Instant::now(), 1);
    let s = crate::engine_deep::sweep(&mut off, 0, 0, engine, model, depth, budget);
    match s.error {
        Some(e) => Err(format!("{} on {}: {e}", engine.as_str(), model.name())),
        None => Ok(s.first),
    }
}

/// Prints `expected.tsv` rows for the models too wide for explicit
/// search, after checking that `sat-unroll` and `jsat` agree on each.
pub fn mint(models: &[(Model, usize)]) -> Result<(), String> {
    println!("# model\tfirst_reachable_bound\tchecked_through");
    for (model, depth) in models {
        if Oracle::is_explicit(model) {
            continue;
        }
        let a = sweep(EngineKind::Unroll, model, *depth)?;
        let b = sweep(EngineKind::Jsat, model, *depth)?;
        if a != b {
            return Err(format!(
                "{}: engines disagree ({} vs {})",
                model.name(),
                show(a),
                show(b)
            ));
        }
        let first = a.map_or("none".to_string(), |k| k.to_string());
        println!("{}\t{first}\t{depth}", model.name());
    }
    Ok(())
}
