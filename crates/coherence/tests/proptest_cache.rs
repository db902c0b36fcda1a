//! Model-based test of the per-core cache: random operation sequences
//! against a naive reference (a `Vec` of entries plus the same lazy-skip
//! clock ring) must yield the same victim, the same lookups and the same
//! resident set at every step, including steps that grow the cache's line
//! index in the middle of a sequence.

use interweave_coherence::cache::{Cache, Entry, Mesi};
use proptest::prelude::*;
use std::collections::VecDeque;

fn sorted_entries(c: &Cache) -> Vec<(u64, Entry)> {
    let mut v: Vec<(u64, Entry)> = c.entries().collect();
    v.sort_unstable_by_key(|&(l, _)| l);
    v
}

/// The naive reference: a `Vec` of `(line, entry, ref bit)` and the
/// same lazy-skip clock ring.
struct Model {
    capacity: usize,
    lines: Vec<(u64, Entry, bool)>,
    clock: VecDeque<u64>,
}

impl Model {
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
        self.pos(line).map(|i| self.lines.remove(i).1)
    }

    fn insert(&mut self, line: u64, state: Mesi, version: u64) -> Option<(u64, Entry)> {
        let e = Entry { state, version };
        if let Some(i) = self.pos(line) {
            self.lines[i] = (line, e, false);
            return None;
        }
        let mut victim = None;
        if self.lines.len() >= self.capacity {
            loop {
                let cand = self.clock.pop_front().expect("clock tracks residents");
                match self.pos(cand) {
                    None => {}
                    Some(i) if self.lines[i].2 => {
                        self.lines[i].2 = false;
                        self.clock.push_back(cand);
                    }
                    Some(i) => {
                        victim = Some((cand, self.lines.remove(i).1));
                        break;
                    }
                }
            }
        }
        self.lines.push((line, e, false));
        self.clock.push_back(line);
        victim
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
        let mut model = Model { capacity, lines: Vec::new(), clock: VecDeque::new() };
        for (i, &op) in ops.iter().enumerate() {
            let want = match op {
                Op::Insert(l, s, v) => format!("{:?}", model.insert(l, s, v)),
                Op::Probe(l) => format!("{:?}", model.probe(l)),
                Op::Peek(l) => format!("{:?}", model.peek(l)),
                Op::Invalidate(l) => format!("{:?}", model.invalidate(l)),
                Op::SetState(l, s) => {
                    model.set_state(l, s);
                    String::new()
                }
                // A write hit needs a resident line.
                Op::WriteHit(l, v) if model.pos(l).is_some() => {
                    model.write_hit(l, v);
                    String::new()
                }
                Op::WriteHit(..) => continue,
            };
            let got = match op {
                Op::Insert(l, s, v) => format!("{:?}", c.insert(l, s, v)),
                Op::Probe(l) => format!("{:?}", c.probe(l).map(|(_, e)| e)),
                Op::Peek(l) => format!("{:?}", c.peek(l)),
                Op::Invalidate(l) => format!("{:?}", c.invalidate(l)),
                Op::SetState(l, s) => {
                    c.set_state(l, s);
                    String::new()
                }
                Op::WriteHit(l, v) => {
                    let (slot, _) = c.probe(l).expect("resident");
                    c.write_hit(slot, v);
                    String::new()
                }
            };
            prop_assert_eq!(&got, &want, "op {} {:?}", i, op);
            prop_assert_eq!(sorted_entries(&c), model.sorted_entries(), "op {} {:?}", i, op);
            prop_assert!(c.len() <= capacity);
        }
    }
}
