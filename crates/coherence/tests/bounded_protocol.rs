//! Bounded exhaustive check of the coherence engine: every access sequence
//! up to a small depth, on every small machine (2–3 cores, 1–2 lines,
//! private caches of 1–2 lines, both coherence modes, both MESI and MSI),
//! with region hand-offs between the accesses.
//!
//! Sequences run shortest first across all machines (the machines of one
//! length on parallel host threads). Each is replayed on a fresh `System`
//! and checked once, after its last step: its prefixes ran before it as
//! shorter sequences, so `check_swmr` has held after every step of every
//! sequence, and the first failure reported is a minimal trace. Read
//! freshness is checked inside `System::read` by its debug assertions,
//! which the test profile keeps on.

use interweave_coherence::protocol::{Class, CohMode, ProtocolKind, System, SystemConfig};
use interweave_core::par::{host_threads, parallel_map};

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(usize, u64),
    Write(usize, u64),
    /// Hand one line to a new class (`System::reclassify`).
    Reclassify(u64, Class),
}

impl Op {
    fn line(self) -> u64 {
        match self {
            Op::Read(_, l) | Op::Write(_, l) | Op::Reclassify(l, _) => l,
        }
    }

    /// Whether the language runtime may issue `self` on a line of
    /// `class`: a private line is its owner's alone, a read-only line is
    /// never written, and any line may be handed off.
    fn respects(self, class: Class) -> bool {
        match (self, class) {
            (Op::Read(c, _) | Op::Write(c, _), Class::Private(owner)) => c == owner,
            (Op::Write(..), Class::ReadOnly) => false,
            _ => true,
        }
    }
}

/// One small machine.
#[derive(Debug, Clone, Copy)]
struct Scope {
    cores: usize,
    lines: u64,
    l1_lines: usize,
    mode: CohMode,
    protocol: ProtocolKind,
}

impl Scope {
    /// Longest sequence enumerated on this machine: the op alphabet grows
    /// with cores and lines, so the larger machines stop shallower.
    fn depth(&self) -> usize {
        match (self.cores, self.lines) {
            (2, 1) => 6,
            (3, 1) => 5,
            _ => 4,
        }
    }

    fn alphabet(&self) -> Vec<Op> {
        let classes = (0..self.cores)
            .map(Class::Private)
            .chain([Class::ReadOnly, Class::Shared]);
        let mut ops = Vec::new();
        for l in 0..self.lines {
            ops.extend((0..self.cores).map(|c| Op::Read(c, l)));
            ops.extend((0..self.cores).map(|c| Op::Write(c, l)));
            ops.extend(classes.clone().map(|k| Op::Reclassify(l, k)));
        }
        ops
    }

    /// Run `seq` on a fresh system and check SWMR after its last step.
    fn replay(&self, seq: &[Op]) {
        let mut cfg = SystemConfig::test(self.cores, self.mode);
        cfg.l1_lines = self.l1_lines;
        cfg.protocol = self.protocol;
        let mut s = System::new(cfg);
        for &op in seq {
            match op {
                Op::Read(c, l) => s.read(c, l),
                Op::Write(c, l) => s.write(c, l),
                Op::Reclassify(l, k) => s.reclassify(&[l], k),
            };
        }
        s.check_swmr();
    }
}

/// Call `f` on every sequence of exactly `len` ops from `alphabet` that
/// respects each line's class, extending `seq` (whose lines currently
/// hold `classes`).
fn each_sequence(
    alphabet: &[Op],
    len: usize,
    seq: &mut Vec<Op>,
    classes: &mut [Class],
    f: &mut impl FnMut(&[Op]),
) {
    if seq.len() == len {
        f(seq);
        return;
    }
    for &op in alphabet {
        let l = op.line() as usize;
        let was = classes[l];
        if !op.respects(was) {
            continue;
        }
        if let Op::Reclassify(_, k) = op {
            classes[l] = k;
        }
        seq.push(op);
        each_sequence(alphabet, len, seq, classes, f);
        seq.pop();
        classes[l] = was;
    }
}

/// The first sequence of exactly `len` ops that fails on `scope`, as a
/// report naming the machine and the trace.
fn first_failure(scope: Scope, len: usize) -> Option<String> {
    let alphabet = scope.alphabet();
    // Unclassified lines run the full protocol, as Shared ones do.
    let mut classes = vec![Class::Shared; scope.lines as usize];
    let mut failure = None;
    each_sequence(&alphabet, len, &mut Vec::new(), &mut classes, &mut |seq| {
        if failure.is_none() && std::panic::catch_unwind(|| scope.replay(seq)).is_err() {
            failure = Some(format!("{scope:?} fails after {seq:?}"));
        }
    });
    failure
}

#[test]
fn every_small_access_sequence_keeps_swmr_and_fresh_reads() {
    let mut scopes = Vec::new();
    for cores in [2, 3] {
        for lines in [1, 2] {
            for l1_lines in [1, 2] {
                for mode in [CohMode::Full, CohMode::Selective] {
                    for protocol in [ProtocolKind::Mesi, ProtocolKind::Msi] {
                        scopes.push(Scope {
                            cores,
                            lines,
                            l1_lines,
                            mode,
                            protocol,
                        });
                    }
                }
            }
        }
    }
    let deepest = scopes.iter().map(Scope::depth).max().unwrap_or(0);
    for len in 1..=deepest {
        let live: Vec<Scope> = scopes
            .iter()
            .copied()
            .filter(|s| s.depth() >= len)
            .collect();
        let failures = parallel_map(live, host_threads(), |scope| first_failure(scope, len));
        if let Some(report) = failures.into_iter().flatten().next() {
            panic!("{report}");
        }
    }
}
