//! Model-based tests of the per-core cache against a naive reference (a
//! `Vec` of entries swept by a clock hand, found by linear search): the
//! same victim, the same lookups and the same resident set at every step.
//! Random operation sequences cover long runs and steps that grow the
//! cache's line index in the middle of a sequence; an exhaustive
//! enumeration covers every short sequence over three lines.

use interweave_coherence::cache::{Cache, Entry, Mesi};
use proptest::prelude::*;

fn sorted_entries(c: &Cache) -> Vec<(u64, Entry)> {
    let mut v: Vec<(u64, Entry)> = c.entries().collect();
    v.sort_unstable_by_key(|&(l, _)| l);
    v
}

/// The naive reference: a `Vec` of `(line, entry, ref bit)` in frame
/// order and a clock hand over it.
struct Model {
    capacity: usize,
    lines: Vec<(u64, Entry, bool)>,
    hand: usize,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            capacity,
            lines: Vec::new(),
            hand: 0,
        }
    }

    fn pos(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|&(l, _, _)| l == line)
    }

    fn peek(&self, line: u64) -> Option<Entry> {
        self.pos(line).map(|i| self.lines[i].1)
    }

    fn probe(&mut self, line: u64) -> Option<Entry> {
        let i = self.pos(line)?;
        self.lines[i].2 = true;
        Some(self.lines[i].1)
    }

    fn set_state(&mut self, line: u64, state: Mesi) {
        if let Some(i) = self.pos(line) {
            self.lines[i].1.state = state;
        }
    }

    /// A write hit: its probe sets the reference bit, then it marks M.
    fn write_hit(&mut self, line: u64, version: u64) {
        let i = self.pos(line).expect("resident");
        self.lines[i].1 = Entry {
            state: Mesi::M,
            version,
        };
        self.lines[i].2 = true;
    }

    fn invalidate(&mut self, line: u64) -> Option<Entry> {
        self.pos(line).map(|i| self.lines.swap_remove(i).1)
    }

    /// Insert, evicting by clock when full. At every eviction it asserts
    /// that the victim was unreferenced when the insert began, if any
    /// resident line was.
    fn insert(&mut self, line: u64, state: Mesi, version: u64) -> Option<(u64, Entry)> {
        let e = Entry { state, version };
        if let Some(i) = self.pos(line) {
            self.lines[i] = (line, e, false);
            return None;
        }
        if self.lines.len() < self.capacity {
            self.lines.push((line, e, false));
            return None;
        }
        let unreferenced: Vec<u64> = self.lines.iter().filter(|x| !x.2).map(|x| x.0).collect();
        loop {
            if self.hand >= self.lines.len() {
                self.hand = 0;
            }
            let i = self.hand;
            self.hand += 1;
            if self.lines[i].2 {
                self.lines[i].2 = false;
                continue;
            }
            let (gone, ge, _) = std::mem::replace(&mut self.lines[i], (line, e, false));
            assert!(
                unreferenced.is_empty() || unreferenced.contains(&gone),
                "victim {gone} was referenced while {unreferenced:?} were not"
            );
            return Some((gone, ge));
        }
    }

    fn sorted_entries(&self) -> Vec<(u64, Entry)> {
        let mut v: Vec<(u64, Entry)> = self.lines.iter().map(|&(l, e, _)| (l, e)).collect();
        v.sort_unstable_by_key(|&(l, _)| l);
        v
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, Mesi, u64),
    Probe(u64),
    Peek(u64),
    Invalidate(u64),
    SetState(u64, Mesi),
    WriteHit(u64, u64),
}

/// What an operation returns: a victim, or a looked-up or removed entry.
type Returned = Option<(u64, Entry)>;

/// Apply `op` to the cache and the model; returns what each returned. A
/// write hit on a line the model does not hold is skipped: a write hit
/// needs a resident line.
fn apply(c: &mut Cache, model: &mut Model, op: Op) -> (Returned, Returned) {
    let with = |l: u64| move |e: Entry| (l, e);
    match op {
        Op::Insert(l, s, v) => (c.insert(l, s, v), model.insert(l, s, v)),
        Op::Probe(l) => (c.probe(l).map(|(_, e)| (l, e)), model.probe(l).map(with(l))),
        Op::Peek(l) => (c.peek(l).map(with(l)), model.peek(l).map(with(l))),
        Op::Invalidate(l) => (
            c.invalidate(l).map(with(l)),
            model.invalidate(l).map(with(l)),
        ),
        Op::SetState(l, s) => {
            c.set_state(l, s);
            model.set_state(l, s);
            (None, None)
        }
        Op::WriteHit(l, _) if model.pos(l).is_none() => (None, None),
        Op::WriteHit(l, v) => {
            let (slot, _) = c.probe(l).expect("the resident sets agreed before this op");
            c.write_hit(slot, v);
            model.write_hit(l, v);
            (None, None)
        }
    }
}

/// Apply `op` and compare the returns and then both resident sets.
fn step(c: &mut Cache, model: &mut Model, op: Op) -> Result<(), String> {
    let (got, want) = apply(c, model, op);
    if got != want {
        return Err(format!("returned {got:?}, model {want:?}"));
    }
    let (got, want) = (sorted_entries(c), model.sorted_entries());
    if got != want {
        return Err(format!("resident {got:?}, model {want:?}"));
    }
    if c.len() > model.capacity {
        return Err(format!(
            "{} lines in a cache of {}",
            c.len(),
            model.capacity
        ));
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Mostly lines 80..130, with a few far above them, so the line index
    // grows in the middle of a sequence.
    let line = prop_oneof![80u64..130, 80u64..130, 80u64..130, 5_000u64..5_004].boxed();
    let state = || prop_oneof![Just(Mesi::M), Just(Mesi::E), Just(Mesi::S)];
    let insert = || (line.clone(), state(), 0u64..1000);
    // Inserts are listed twice so the cache fills and evicts.
    let op = prop_oneof![
        insert().prop_map(|(l, s, v)| Op::Insert(l, s, v)),
        insert().prop_map(|(l, s, v)| Op::Insert(l, s, v)),
        line.clone().prop_map(Op::Probe),
        line.clone().prop_map(Op::Peek),
        line.clone().prop_map(Op::Invalidate),
        (line.clone(), state()).prop_map(|(l, s)| Op::SetState(l, s)),
        (line, 0u64..1000).prop_map(|(l, v)| Op::WriteHit(l, v)),
    ];
    prop::collection::vec(op, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache matches the reference at every step: the same victim and
    /// the same resident set.
    #[test]
    fn matches_a_naive_reference_model(capacity in 1usize..=8, ops in ops()) {
        let mut c = Cache::new(capacity);
        let mut model = Model::new(capacity);
        for (i, &op) in ops.iter().enumerate() {
            if let Err(e) = step(&mut c, &mut model, op) {
                prop_assert!(false, "op {} {:?}: {}", i, op, e);
            }
        }
    }
}

/// Longest sequence `every_short_sequence_matches_the_model` enumerates.
const SMALL_DEPTH: u32 = 6;

/// The `i`-th of the nine small-scope operations: an insert, a probe or an
/// invalidation of one of lines 0, 1 and 2. An insert at step `t` writes
/// version `t` in a state that cycles with `t`, so no two inserts write
/// the same entry.
fn small_op(i: usize, t: u64) -> Op {
    let line = (i % 3) as u64;
    match i / 3 {
        0 => Op::Insert(line, [Mesi::S, Mesi::E, Mesi::M][t as usize % 3], t),
        1 => Op::Probe(line),
        _ => Op::Invalidate(line),
    }
}

/// Every sequence of inserts, probes and invalidations over lines 0..3, up
/// to [`SMALL_DEPTH`] long, on capacities 1 to 3. Sequences run shortest
/// first across the capacities, each replayed on a fresh cache and model with only its last
/// step compared (its prefixes ran before it as shorter sequences), so
/// every step of every sequence is checked and the first failure reported
/// is a minimal one.
#[test]
fn every_short_sequence_matches_the_model() {
    for len in 1..=SMALL_DEPTH {
        for capacity in 1..=3 {
            for code in 0..9usize.pow(len) {
                let seq: Vec<Op> = (0..len)
                    .map(|t| small_op(code / 9usize.pow(t) % 9, t as u64))
                    .collect();
                let (last, prefix) = seq.split_last().expect("len >= 1");
                let checked = std::panic::catch_unwind(|| {
                    let mut c = Cache::new(capacity);
                    let mut model = Model::new(capacity);
                    for &op in prefix {
                        apply(&mut c, &mut model, op);
                    }
                    step(&mut c, &mut model, *last)
                });
                match checked {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => panic!("capacity {capacity}, {seq:?}: {e}"),
                    Err(_) => panic!("capacity {capacity}, {seq:?}: panicked"),
                }
            }
        }
    }
}
