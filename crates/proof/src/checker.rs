//! The forward proof checker and its streaming front-end.

use std::mem::size_of;

use sebmc_logic::Lit;

use crate::cert::Certificate;
use crate::drat::{encode_record, DratDecoder, TAG_ADD, TAG_DELETE, TAG_FINAL, TAG_ORIG};
use crate::ring::ByteRing;
use crate::sink::ProofSink;

const UNASSIGNED: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// "No slot" / "no watch" marker in the `u32` links of [`Slot`].
const NONE: u32 = u32::MAX;

/// The arena is compacted once at least half of it is garbage, and
/// never while the garbage is below this many literals.
const COMPACT_MIN_GARBAGE: usize = 1024;

/// Smallest content-index table (a power of two).
const MIN_BUCKETS: usize = 16;

/// Default in-flight proof buffer of a [`StreamingChecker`], in bytes.
pub const DEFAULT_RING_BYTES: usize = 16 * 1024;

/// The fixed-size record of one clause: where its sorted literal codes
/// sit in the arena, which two codes it watches, and the next slot of
/// its content-index bucket (or of the free list, for a free slot).
///
/// A clause that was unit, satisfied-by-a-unit or falsified at insert
/// time watches nothing (`watch == [NONE; 2]`): its consequence, if
/// any, was propagated permanently on insert.
#[derive(Clone, Copy, Debug)]
struct Slot {
    off: u32,
    /// Literal count; 0 marks a free slot (the empty clause is never
    /// stored).
    len: u32,
    watch: [u32; 2],
    next: u32,
}

/// One watch-list entry: the watching slot and a literal code of the
/// same clause whose truth lets propagation skip the slot untouched.
#[derive(Clone, Copy, Debug)]
struct Watch {
    slot: u32,
    blocker: u32,
}

/// A forward (unit-propagation) proof checker over an explicit active
/// clause set.
///
/// The checker mirrors the solver's logical clause database: original
/// clauses are inserted as axioms, derived clauses are admitted only
/// after a **reverse-unit-propagation** (RUP) check — assume the
/// negation of every literal, propagate, demand a conflict — and
/// deletions remove clauses by literal content (a multiset, so
/// duplicate clauses are handled). Top-level units derived along the
/// way are kept permanently: everything ever verified is entailed by
/// the axioms, so deletions can never unsound them (see the
/// [crate docs](crate)).
///
/// Storage is flat, the way the solver's clause arena is:
///
/// * every clause's literal codes, sorted, live in one `Vec<u32>`
///   arena; a deletion turns them into garbage, and the arena is
///   compacted (slots renumbered, watch lists and index rebuilt) once
///   half of it is garbage;
/// * each clause owns one fixed-size slot (offset, length, two watched
///   codes, an index link); free slots form an intrusive list;
/// * the content index hashes the sorted codes to a bucket of chained
///   slots, and a match is confirmed by comparing literals, so a hash
///   collision can never delete the wrong clause;
/// * watch lists hold `(slot, blocker)` pairs by literal code.
///
/// Memory is `O(active clauses)` plus per-variable tables, and
/// [`ForwardChecker::resident_bytes`] reports it exactly — which is
/// what lets a *streaming* consumer certify an unbounded proof in
/// bounded, measured space.
#[derive(Debug, Default)]
pub struct ForwardChecker {
    /// Assignment by literal code (`UNASSIGNED`/`TRUE`/`FALSE`).
    vals: Vec<u8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Sorted literal codes of every stored clause, garbage included.
    arena: Vec<u32>,
    /// Arena words owned by deleted clauses.
    garbage: usize,
    slots: Vec<Slot>,
    /// Head of the free-slot list, linked through `Slot::next`.
    free_head: Option<u32>,
    /// Content index: bucket (hash of the sorted codes) → first slot
    /// of its chain. Empty or a power of two long.
    buckets: Vec<u32>,
    /// Watch lists by literal code.
    watches: Vec<Vec<Watch>>,
    /// Total capacity of the inner watch lists, in entries.
    watch_cap: usize,
    /// Sorted codes of the clause being inserted or deleted.
    scratch: Vec<u32>,
    proved_unsat: bool,
    /// The last *verified* finalization lemma, as sorted literal codes.
    last_final: Option<Vec<u32>>,
    originals: u64,
    lemmas_checked: u64,
    deletions: u64,
    failed_checks: u64,
    missing_deletes: u64,
    unsat_proofs: u64,
    active: usize,
    peak_active: usize,
    peak_bytes: usize,
}

impl ForwardChecker {
    /// An empty checker.
    pub fn new() -> Self {
        ForwardChecker::default()
    }

    /// Whether the empty clause has been verified: the axioms are
    /// unsatisfiable outright.
    pub fn proved_unsat(&self) -> bool {
        self.proved_unsat
    }

    /// Number of clauses currently active.
    pub fn active_clauses(&self) -> usize {
        self.active
    }

    /// Exact bytes the checker occupies: the struct itself plus the
    /// capacity of every buffer it owns (assignment, trail, arena,
    /// slots, index, watch lists, scratch, finalization lemma).
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>()
            + self.vals.capacity()
            + self.trail.capacity() * size_of::<Lit>()
            + self.arena.capacity() * size_of::<u32>()
            + self.slots.capacity() * size_of::<Slot>()
            + self.buckets.capacity() * size_of::<u32>()
            + self.watches.capacity() * size_of::<Vec<Watch>>()
            + self.watch_cap * size_of::<Watch>()
            + self.scratch.capacity() * size_of::<u32>()
            + self.last_final.as_ref().map_or(0, Vec::capacity) * size_of::<u32>()
    }

    /// Cumulative counters (the `proof_bytes` field is owned by the
    /// encoder and left 0 here).
    pub fn certificate(&self) -> Certificate {
        Certificate {
            originals: self.originals,
            lemmas_checked: self.lemmas_checked,
            deletions: self.deletions,
            failed_checks: self.failed_checks,
            missing_deletes: self.missing_deletes,
            unsat_proofs: self.unsat_proofs,
            proof_bytes: 0,
            peak_active_clauses: self.peak_active as u64,
            peak_checker_bytes: self.peak_bytes as u64,
            bounds_attempted: 0,
            bounds_certified: 0,
        }
    }

    /// Whether the proof so far establishes unsatisfiability under
    /// `assumptions`: the empty clause was verified, or the last
    /// verified finalization lemma is a subclause of
    /// `{¬a | a ∈ assumptions}`.
    pub fn certifies(&self, assumptions: &[Lit]) -> bool {
        if self.proved_unsat {
            return true;
        }
        let Some(lemma) = &self.last_final else {
            return false;
        };
        let mut neg: Vec<u32> = assumptions.iter().map(|&a| (!a).code() as u32).collect();
        neg.sort_unstable();
        lemma.iter().all(|c| neg.binary_search(c).is_ok())
    }

    /// Inserts an axiom clause (no check).
    pub fn original(&mut self, lits: &[Lit]) {
        self.originals += 1;
        if lits.is_empty() {
            self.proved_unsat = true;
        } else {
            self.insert(lits);
        }
        self.note_peak();
    }

    /// RUP-checks a derived clause and, when it passes, inserts it.
    /// With `finalize`, a passing clause is remembered as the stream's
    /// current finalization lemma. Returns whether the check passed;
    /// failures are counted and the clause is **not** inserted (only
    /// entailed clauses may enter the active set).
    pub fn add(&mut self, lits: &[Lit], finalize: bool) -> bool {
        self.lemmas_checked += 1;
        let ok = self.rup(lits);
        if ok {
            if finalize {
                self.unsat_proofs += 1;
                let mut codes = self.last_final.take().unwrap_or_default();
                codes.clear();
                codes.extend(lits.iter().map(|&l| l.code() as u32));
                codes.sort_unstable();
                self.last_final = Some(codes);
            }
            if lits.is_empty() {
                self.proved_unsat = true;
            } else {
                self.insert(lits);
            }
        } else {
            self.failed_checks += 1;
            if finalize {
                self.last_final = None;
            }
        }
        self.note_peak();
        ok
    }

    /// Removes one active clause with exactly these literals (in any
    /// order). A clause not in the active set is counted as a missing
    /// delete — a desynchronised log.
    pub fn delete(&mut self, lits: &[Lit]) {
        self.deletions += 1;
        self.load_scratch(lits);
        self.note_peak();
        let Some((b, id, prev)) = self.find() else {
            self.missing_deletes += 1;
            return;
        };
        let slot = self.slots[id as usize];
        // Unlink from the index chain.
        if prev == NONE {
            self.buckets[b] = slot.next;
        } else {
            self.slots[prev as usize].next = slot.next;
        }
        if slot.watch[0] != NONE {
            for code in slot.watch {
                let ws = &mut self.watches[code as usize];
                if let Some(i) = ws.iter().position(|w| w.slot == id) {
                    ws.swap_remove(i);
                }
            }
        }
        self.slots[id as usize] = Slot {
            off: 0,
            len: 0,
            watch: [NONE; 2],
            next: self.free_head.unwrap_or(NONE),
        };
        self.free_head = Some(id);
        self.garbage += slot.len as usize;
        self.active -= 1;
        if self.garbage >= COMPACT_MIN_GARBAGE && 2 * self.garbage >= self.arena.len() {
            self.compact();
        }
    }

    // ----- internals -----------------------------------------------------

    fn note_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes());
    }

    fn ensure_lit(&mut self, l: Lit) {
        let need = l.code().max((!l).code()) + 1;
        if self.vals.len() < need {
            self.vals.resize(need, UNASSIGNED);
            self.watches.resize_with(need, Vec::new);
        }
    }

    #[inline]
    fn value(&self, code: u32) -> u8 {
        self.vals[code as usize]
    }

    #[inline]
    fn assign(&mut self, p: Lit) {
        debug_assert_eq!(self.value(p.code() as u32), UNASSIGNED);
        self.vals[p.code()] = TRUE;
        self.vals[(!p).code()] = FALSE;
        self.trail.push(p);
    }

    fn push_watch(&mut self, code: u32, w: Watch) {
        let ws = &mut self.watches[code as usize];
        let before = ws.capacity();
        ws.push(w);
        self.watch_cap += ws.capacity() - before;
    }

    /// Puts `lits`' codes, sorted, into `scratch`.
    fn load_scratch(&mut self, lits: &[Lit]) {
        self.scratch.clear();
        self.scratch.extend(lits.iter().map(|&l| l.code() as u32));
        self.scratch.sort_unstable();
    }

    /// The bucket and slot holding exactly `scratch`'s literals, with
    /// the slot's predecessor in the chain (`NONE` at the chain head).
    fn find(&self) -> Option<(usize, u32, u32)> {
        if self.buckets.is_empty() {
            return None;
        }
        let b = bucket(content_hash(&self.scratch), self.buckets.len());
        let (mut prev, mut id) = (NONE, self.buckets[b]);
        while id != NONE {
            let s = self.slots[id as usize];
            if self.lits_of(s) == self.scratch.as_slice() {
                return Some((b, id, prev));
            }
            prev = id;
            id = s.next;
        }
        None
    }

    #[inline]
    fn lits_of(&self, s: Slot) -> &[u32] {
        &self.arena[s.off as usize..s.off as usize + s.len as usize]
    }

    /// Unit propagation from the current queue head; `true` = conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let fcode = (!p).code() as u32;
            // Walk a taken list so pushes onto *other* lists can go
            // through `push_watch`; a replacement is never `fcode`.
            let mut ws = std::mem::take(&mut self.watches[fcode as usize]);
            let mut conflict = false;
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                if self.value(w.blocker) == TRUE {
                    i += 1;
                    continue;
                }
                let s = self.slots[w.slot as usize];
                let which = usize::from(s.watch[0] != fcode);
                let other = s.watch[1 - which];
                if self.value(other) == TRUE {
                    ws[i].blocker = other;
                    i += 1;
                    continue;
                }
                // Look for a non-falsified replacement watch.
                let repl = self
                    .lits_of(s)
                    .iter()
                    .copied()
                    .find(|&c| c != fcode && c != other && self.value(c) != FALSE);
                match repl {
                    Some(code) => {
                        self.slots[w.slot as usize].watch[which] = code;
                        ws.swap_remove(i);
                        self.push_watch(
                            code,
                            Watch {
                                slot: w.slot,
                                blocker: other,
                            },
                        );
                    }
                    None if self.value(other) == UNASSIGNED => {
                        self.assign(Lit::from_code(other as usize));
                        i += 1;
                    }
                    None => {
                        conflict = true; // both watches false
                        break;
                    }
                }
            }
            self.watches[fcode as usize] = ws;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Unassigns everything past `mark` (the RUP probe).
    fn backtrack(&mut self, mark: usize) {
        for idx in mark..self.trail.len() {
            let l = self.trail[idx];
            self.vals[l.code()] = UNASSIGNED;
            self.vals[(!l).code()] = UNASSIGNED;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
    }

    /// Reverse unit propagation: negate the clause, propagate, expect
    /// a conflict. Leaves the permanent assignment untouched.
    fn rup(&mut self, lits: &[Lit]) -> bool {
        if self.proved_unsat {
            return true; // ex falso: anything is entailed
        }
        debug_assert_eq!(self.qhead, self.trail.len(), "permanent fixpoint");
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in lits {
            self.ensure_lit(l);
            match self.value(l.code() as u32) {
                TRUE => {
                    conflict = true; // ¬l contradicts an established unit
                    break;
                }
                FALSE => {}
                _ => self.assign(!l),
            }
        }
        let conflict = conflict || self.propagate();
        self.backtrack(mark);
        conflict
    }

    /// Inserts an entailed clause permanently, propagating its
    /// consequence if it is unit (or conflicting) under the permanent
    /// assignment.
    fn insert(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.ensure_lit(l);
        }
        self.load_scratch(lits);
        let off = to_u32(self.arena.len());
        self.arena.extend_from_slice(&self.scratch);
        let slot = Slot {
            off,
            len: to_u32(lits.len()),
            watch: [NONE; 2],
            next: NONE,
        };
        let id = match self.free_head {
            Some(id) => {
                let next = self.slots[id as usize].next;
                self.free_head = (next != NONE).then_some(next);
                self.slots[id as usize] = slot;
                id
            }
            None => {
                self.slots.push(slot);
                to_u32(self.slots.len() - 1)
            }
        };
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        if self.active > self.buckets.len() {
            self.rebuild_index((2 * self.buckets.len()).max(MIN_BUCKETS));
        } else {
            self.link(id);
        }

        // Pick up to two distinct non-falsified literals to watch;
        // fewer means the clause acts now.
        let mut picks = [NONE; 2];
        let mut found = 0;
        for &c in self.lits_of(slot) {
            if self.value(c) != FALSE && c != picks[0] {
                picks[found] = c;
                found += 1;
                if found == 2 {
                    break;
                }
            }
        }
        match found {
            2 => {
                self.slots[id as usize].watch = picks;
                self.push_watch(
                    picks[0],
                    Watch {
                        slot: id,
                        blocker: picks[1],
                    },
                );
                self.push_watch(
                    picks[1],
                    Watch {
                        slot: id,
                        blocker: picks[0],
                    },
                );
            }
            1 => {
                if self.value(picks[0]) == UNASSIGNED {
                    self.assign(Lit::from_code(picks[0] as usize));
                    if self.propagate() {
                        self.proved_unsat = true;
                    }
                }
                // Already TRUE: satisfied, nothing to do.
            }
            _ => self.proved_unsat = true, // fully falsified by units
        }
    }

    /// Pushes live slot `id` onto the front of its bucket chain.
    fn link(&mut self, id: u32) {
        let b = bucket(
            content_hash(self.lits_of(self.slots[id as usize])),
            self.buckets.len(),
        );
        self.slots[id as usize].next = self.buckets[b];
        self.buckets[b] = id;
    }

    /// Re-hashes every live slot into a fresh table of `n` buckets.
    fn rebuild_index(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two());
        self.buckets = vec![NONE; n];
        for id in 0..self.slots.len() {
            if self.slots[id].len != 0 {
                self.link(to_u32(id));
            }
        }
    }

    /// Drops the arena's garbage: live clauses are copied into a fresh
    /// arena and renumbered densely, and the free list, watch lists
    /// and content index are rebuilt around the new slot ids (watch
    /// *codes* are kept, so the propagation state is unchanged).
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.garbage);
        let mut slots = Vec::with_capacity(self.active);
        for s in &self.slots {
            if s.len != 0 {
                let off = to_u32(arena.len());
                arena.extend_from_slice(self.lits_of(*s));
                slots.push(Slot {
                    off,
                    next: NONE,
                    ..*s
                });
            }
        }
        self.arena = arena;
        self.slots = slots;
        self.garbage = 0;
        self.free_head = None;
        for ws in &mut self.watches {
            *ws = Vec::new();
        }
        self.watch_cap = 0;
        for id in 0..self.slots.len() {
            let [a, b] = self.slots[id].watch;
            if a != NONE {
                let slot = to_u32(id);
                self.push_watch(a, Watch { slot, blocker: b });
                self.push_watch(b, Watch { slot, blocker: a });
            }
        }
        self.rebuild_index(self.active.next_power_of_two().max(MIN_BUCKETS));
    }
}

/// 64-bit content hash of sorted literal codes.
fn content_hash(codes: &[u32]) -> u64 {
    let mut h = codes.len() as u64;
    for &c in codes {
        h = (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    // SplitMix64 finalizer: spread every input bit over the low bits
    // the bucket mask keeps.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Bucket of `hash` in a table of `n` (a power of two) buckets.
#[inline]
fn bucket(hash: u64, n: usize) -> usize {
    hash as usize & (n - 1)
}

/// Narrows an arena offset, length or slot id to the checker's `u32`
/// links.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("checker store exceeds 2^32 entries")
}

/// The streaming certifier: a [`ProofSink`] that encodes every event
/// as binary DRAT, pipes the bytes through a bounded [`ByteRing`], and
/// has a [`ForwardChecker`] consume records on the fly.
///
/// The ring is drained whenever it fills (and on every query), so the
/// in-flight proof never exceeds the ring capacity and total memory is
/// the checker's `O(active clauses)` plus a constant. Byte accounting
/// ([`ProofSink::bytes_emitted`]) is exact: it counts every encoded
/// byte, i.e. the size the proof stream would have on disk.
#[derive(Debug)]
pub struct StreamingChecker {
    ring: ByteRing,
    decoder: DratDecoder,
    checker: ForwardChecker,
    scratch: Vec<u8>,
    bytes: usize,
}

impl Default for StreamingChecker {
    fn default() -> Self {
        StreamingChecker::new()
    }
}

impl StreamingChecker {
    /// A checker with the default ring capacity
    /// ([`DEFAULT_RING_BYTES`]).
    pub fn new() -> Self {
        StreamingChecker::with_ring_capacity(DEFAULT_RING_BYTES)
    }

    /// A checker whose in-flight proof buffer holds `bytes` bytes.
    pub fn with_ring_capacity(bytes: usize) -> Self {
        StreamingChecker {
            ring: ByteRing::new(bytes),
            decoder: DratDecoder::new(),
            checker: ForwardChecker::new(),
            scratch: Vec::with_capacity(64),
            bytes: 0,
        }
    }

    /// Capacity of the in-flight ring buffer.
    pub fn ring_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Drains every buffered byte through the decoder into the checker.
    fn drain_ring(&mut self) {
        let mut chunk = [0u8; 128];
        loop {
            let n = self.ring.read_into(&mut chunk);
            if n == 0 {
                return;
            }
            for &b in &chunk[..n] {
                if self.decoder.feed(b) {
                    let tag = self.decoder.tag();
                    let lits = self.decoder.take_lits();
                    match tag {
                        TAG_ORIG => self.checker.original(&lits),
                        TAG_ADD => {
                            self.checker.add(&lits, false);
                        }
                        TAG_DELETE => self.checker.delete(&lits),
                        TAG_FINAL => {
                            self.checker.add(&lits, true);
                        }
                        _ => unreachable!("decoder only completes known tags"),
                    }
                    self.decoder.recycle(lits);
                }
            }
        }
    }

    fn emit(&mut self, tag: u8, lits: &[Lit]) {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        encode_record(tag, lits, &mut buf);
        self.bytes += buf.len();
        let mut off = 0;
        while off < buf.len() {
            off += self.ring.push(&buf[off..]);
            if off < buf.len() {
                // Ring full: certify the backlog before buffering more.
                self.drain_ring();
            }
        }
        self.scratch = buf;
    }
}

impl ProofSink for StreamingChecker {
    fn original(&mut self, lits: &[Lit]) {
        self.emit(TAG_ORIG, lits);
    }

    fn add(&mut self, lits: &[Lit]) {
        self.emit(TAG_ADD, lits);
    }

    fn delete(&mut self, lits: &[Lit]) {
        self.emit(TAG_DELETE, lits);
    }

    fn finalize_unsat(&mut self, neg_core: &[Lit]) {
        self.emit(TAG_FINAL, neg_core);
    }

    fn bytes_emitted(&self) -> usize {
        self.bytes
    }

    fn summary(&mut self) -> Option<Certificate> {
        self.drain_ring();
        let mut cert = self.checker.certificate();
        cert.proof_bytes = self.bytes as u64;
        cert.failed_checks += self.decoder.corrupt_bytes();
        Some(cert)
    }

    fn certifies(&mut self, assumptions: &[Lit]) -> bool {
        self.drain_ring();
        // A mangled stream certifies nothing, even if the records that
        // did decode would cover the claim.
        self.decoder.corrupt_bytes() == 0 && self.checker.certifies(assumptions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(code: usize) -> Lit {
        Lit::from_code(code)
    }

    #[test]
    fn rup_accepts_resolvents_and_rejects_non_consequences() {
        let mut c = ForwardChecker::new();
        let (a, b, x) = (l(0), l(2), l(4));
        c.original(&[a, b]);
        c.original(&[!a, b]);
        assert!(c.add(&[b], false), "resolvent is RUP");
        assert!(!c.add(&[x], false), "x is not entailed");
        assert_eq!(c.certificate().failed_checks, 1);
        assert_eq!(c.certificate().lemmas_checked, 2);
    }

    #[test]
    fn empty_clause_proves_unsat_and_certifies_everything() {
        let mut c = ForwardChecker::new();
        let a = l(0);
        c.original(&[a]);
        c.original(&[!a]);
        assert!(c.add(&[], true));
        assert!(c.proved_unsat());
        assert!(c.certifies(&[]));
        assert!(c.certifies(&[l(6)]), "ex falso: any assumption set");
    }

    #[test]
    fn finalization_lemma_matches_assumption_supersets() {
        let mut c = ForwardChecker::new();
        let (a, b, s) = (l(0), l(2), l(4));
        c.original(&[!s, a]);
        c.original(&[!a, !b]);
        // Under assumptions s ∧ b: s → a → ¬b, conflict. Core {s, b}.
        assert!(c.add(&[!s, !b], true), "negated core is RUP");
        assert!(c.certifies(&[s, b]));
        assert!(c.certifies(&[s, b, l(8)]), "subclause of a larger set");
        assert!(!c.certifies(&[s]), "core literal missing");
        assert!(!c.certifies(&[]));
    }

    #[test]
    fn deletions_are_multiset_and_missing_deletes_are_counted() {
        let mut c = ForwardChecker::new();
        let (a, b) = (l(0), l(2));
        c.original(&[a, b]);
        c.original(&[b, a]); // identical content, different order
        assert_eq!(c.active_clauses(), 2);
        c.delete(&[a, b]);
        assert_eq!(c.active_clauses(), 1);
        c.delete(&[b, a]);
        assert_eq!(c.active_clauses(), 0);
        c.delete(&[a, b]);
        let cert = c.certificate();
        assert_eq!(cert.deletions, 3);
        assert_eq!(cert.missing_deletes, 1);
    }

    #[test]
    fn deleted_clauses_stop_supporting_rup() {
        let mut c = ForwardChecker::new();
        let (a, b) = (l(0), l(2));
        c.original(&[a, b]);
        c.original(&[!a, b]);
        c.delete(&[a, b]);
        assert!(!c.add(&[b], false), "support clause gone");
        // But units already derived persist: re-add the clause, derive
        // b, delete everything, b stays.
        c.original(&[a, b]);
        assert!(c.add(&[b], false));
        c.delete(&[a, b]);
        c.delete(&[!a, b]);
        assert!(c.add(&[b], false), "permanent unit keeps b entailed");
    }

    #[test]
    fn unit_insert_propagates_permanently() {
        let mut c = ForwardChecker::new();
        let (a, b, x) = (l(0), l(2), l(4));
        c.original(&[a]);
        c.original(&[!a, b]);
        c.original(&[!b, x]);
        // a, b, x are all forced: the unit clause [x] must be RUP.
        assert!(c.add(&[x], false));
        assert!(!c.proved_unsat());
    }

    #[test]
    fn conflicting_axioms_prove_unsat_without_an_explicit_empty_clause() {
        let mut c = ForwardChecker::new();
        let a = l(0);
        c.original(&[a]);
        c.original(&[!a]);
        assert!(c.proved_unsat(), "unit conflict detected on insert");
    }

    #[test]
    fn streaming_checker_matches_direct_checking() {
        let mut s = StreamingChecker::with_ring_capacity(8); // tiny: forces drains
        let (a, b) = (l(0), l(2));
        s.original(&[a, b]);
        s.original(&[!a, b]);
        s.original(&[!b]);
        s.add(&[b]);
        s.finalize_unsat(&[]);
        assert!(s.certifies(&[]));
        let cert = s.summary().unwrap();
        assert_eq!(cert.originals, 3);
        assert_eq!(cert.lemmas_checked, 2);
        assert_eq!(cert.failed_checks, 0);
        assert_eq!(cert.unsat_proofs, 1);
        assert_eq!(cert.proof_bytes as usize, s.bytes_emitted());
        assert!(cert.proof_bytes > 0);
        assert!(cert.peak_active_clauses >= 3);
    }

    /// `resident_bytes` from first principles: every buffer walked,
    /// no running counters.
    fn recount(c: &ForwardChecker) -> usize {
        size_of::<ForwardChecker>()
            + c.vals.capacity()
            + c.trail.capacity() * size_of::<Lit>()
            + c.arena.capacity() * 4
            + c.slots.capacity() * size_of::<Slot>()
            + c.buckets.capacity() * 4
            + c.watches.capacity() * size_of::<Vec<Watch>>()
            + c.watches.iter().map(Vec::capacity).sum::<usize>() * size_of::<Watch>()
            + c.scratch.capacity() * 4
            + c.last_final.as_ref().map_or(0, |f| f.capacity() * 4)
    }

    #[test]
    fn resident_bytes_is_exact_through_growth_and_compaction() {
        let mut c = ForwardChecker::new();
        assert_eq!(c.resident_bytes(), recount(&c));
        let clause =
            |i: usize| -> Vec<Lit> { (0..4).map(|j| l(2 * ((i * 7 + j * 13) % 300))).collect() };
        for i in 0..8_000 {
            c.original(&clause(i));
            c.add(&[l(1), l(3)], i % 100 == 0);
        }
        assert_eq!(c.resident_bytes(), recount(&c));
        let peak = c.certificate().peak_checker_bytes as usize;
        assert!(peak >= c.resident_bytes());
        for i in 0..7_990 {
            c.delete(&clause(i));
        }
        assert_eq!(c.certificate().missing_deletes, 0);
        assert!(c.garbage < c.arena.len() || c.arena.len() < 2 * COMPACT_MIN_GARBAGE);
        assert_eq!(c.resident_bytes(), recount(&c), "exact after compaction");
        assert!(
            c.resident_bytes() < peak / 4,
            "compaction gave the bytes back"
        );
        assert_eq!(
            c.certificate().peak_checker_bytes as usize,
            peak,
            "peak is sticky"
        );
    }

    #[test]
    fn content_index_survives_hash_collisions() {
        // A one-bucket view of the index: every clause shares a chain,
        // so only the literal comparison tells them apart.
        let mut c = ForwardChecker::new();
        let clauses: Vec<Vec<Lit>> = (0..40).map(|i| vec![l(2 * i), l(2 * i + 3)]).collect();
        for cl in &clauses {
            c.original(cl);
        }
        c.rebuild_index(1);
        // The first half sits deepest in the chain.
        for cl in &clauses[..20] {
            c.delete(&[cl[1], cl[0]]);
        }
        assert_eq!(c.certificate().missing_deletes, 0);
        for cl in &clauses[..20] {
            c.delete(cl);
        }
        assert_eq!(c.certificate().missing_deletes, 20, "each is gone already");
        for cl in &clauses[20..] {
            c.delete(cl);
        }
        assert_eq!(
            c.certificate().missing_deletes,
            20,
            "the rest was untouched"
        );
        assert_eq!(c.active_clauses(), 0);
    }

    #[test]
    fn streaming_checker_active_set_shrinks_on_deletion() {
        let mut s = StreamingChecker::new();
        let lits: Vec<Lit> = (0..6).map(|i| l(2 * i)).collect();
        for w in lits.windows(2) {
            s.original(w);
        }
        let high = s.summary().unwrap().peak_active_clauses;
        for w in lits.windows(2) {
            s.delete(w);
        }
        let cert = s.summary().unwrap();
        assert_eq!(cert.peak_active_clauses, high, "peak is sticky");
        assert_eq!(cert.deletions, 5);
        assert_eq!(cert.missing_deletes, 0);
    }
}
