//! Property tests for the coherence protocol: the single-writer/multiple-
//! reader invariant and read freshness hold for arbitrary access
//! interleavings, in both modes, with classification respected.

use interweave_coherence::protocol::{Class, CohMode, ProtocolKind, System, SystemConfig};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Acc {
    core: usize,
    line: u64,
    write: bool,
}

fn accesses(cores: usize, lines: u64) -> impl Strategy<Value = Vec<Acc>> {
    prop::collection::vec(
        (0..cores, 0..lines, any::<bool>()).prop_map(|(core, line, write)| Acc {
            core,
            line,
            write,
        }),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full MESI: SWMR + directory consistency after every access; reads
    /// always observe the latest version (the debug asserts inside read()
    /// fire otherwise).
    #[test]
    fn full_mesi_swmr_under_random_interleavings(accs in accesses(4, 32)) {
        let mut s = System::new(SystemConfig::test(4, CohMode::Full));
        for a in accs {
            if a.write {
                s.write(a.core, a.line);
            } else {
                s.read(a.core, a.line);
            }
        }
        s.check_swmr();
    }

    /// Tiny caches force constant evictions; the invariants must survive
    /// the resulting writebacks and directory updates.
    #[test]
    fn swmr_survives_capacity_pressure(accs in accesses(3, 64)) {
        let mut s = System::new(SystemConfig {
            cores: 3,
            l1_lines: 4,
            mode: CohMode::Full,
            protocol: ProtocolKind::Mesi,
            lat: Default::default(),
        });
        for (i, a) in accs.iter().enumerate() {
            if a.write {
                s.write(a.core, a.line);
            } else {
                s.read(a.core, a.line);
            }
            if i % 16 == 0 {
                s.check_swmr();
            }
        }
        s.check_swmr();
    }

    /// Selective mode with a private partition: each core only touches its
    /// own private lines plus a shared tail. No protocol invariant breaks,
    /// and the private lines never involve the directory.
    #[test]
    fn selective_private_partition_is_sound(raw in accesses(4, 16), shared in accesses(4, 8)) {
        let mut s = System::new(SystemConfig::test(4, CohMode::Selective));
        // Lines 0..64 partitioned: core c owns [c*16, (c+1)*16).
        for c in 0..4u64 {
            s.classify(c * 16..(c + 1) * 16, Class::Private(c as usize));
        }
        // Shared region at 1000+.
        for a in raw {
            let line = a.core as u64 * 16 + (a.line % 16);
            if a.write {
                s.write(a.core, line);
            } else {
                s.read(a.core, line);
            }
        }
        prop_assert_eq!(s.stats.dir_lookups, 0, "private traffic touched the directory");
        for a in shared {
            let line = 1000 + (a.line % 8);
            if a.write {
                s.write(a.core, line);
            } else {
                s.read(a.core, line);
            }
        }
        s.check_swmr();
    }

    /// Selective never loses to Full on interconnect energy for purely
    /// private traffic, whatever the access pattern.
    #[test]
    fn deactivation_never_increases_private_energy(accs in accesses(1, 64)) {
        let run = |mode| {
            let mut s = System::new(SystemConfig::test(2, mode));
            s.classify(0..64, Class::Private(0));
            for a in &accs {
                if a.write {
                    s.write(0, a.line);
                } else {
                    s.read(0, a.line);
                }
            }
            s.noc_energy()
        };
        let full = run(CohMode::Full);
        let sel = run(CohMode::Selective);
        prop_assert!(sel <= full, "selective {sel} > full {full}");
    }
}
