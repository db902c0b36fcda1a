//! Property tests for kernel substrates: the buddy allocator's
//! disjointness/coalescing invariants.

use interweave_kernel::buddy::{BuddyZone, NumaAllocator};
use proptest::prelude::*;

/// A random interleaving of allocs (by size) and frees (by index into live
/// set).
#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    FreeNth(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..2048).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Live blocks never overlap, frees always succeed on live bases, and
    /// freeing everything restores one maximal block.
    #[test]
    fn buddy_disjoint_and_fully_coalescing(ops in ops()) {
        let mut z = BuddyZone::new(0x1_0000, 6, 12); // 256 KiB zone
        let mut live: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(sz) => {
                    if let Ok(a) = z.alloc(sz) {
                        live.push(a);
                    }
                }
                Op::FreeNth(i) => {
                    if !live.is_empty() {
                        let a = live.swap_remove(i % live.len());
                        prop_assert!(z.free(a).is_ok());
                    }
                }
            }
            // Disjointness of all live blocks.
            let mut spans: Vec<(u64, u64)> = live
                .iter()
                .map(|&a| z.containing(a).expect("live block"))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0, "overlap {w:?}");
            }
        }
        for a in live {
            prop_assert!(z.free(a).is_ok());
        }
        prop_assert!(z.fully_coalesced());
    }

    /// Double frees are always rejected, whatever preceded them.
    #[test]
    fn buddy_rejects_double_free(sizes in prop::collection::vec(1u64..512, 1..32)) {
        let mut z = BuddyZone::new(0, 6, 12);
        let addrs: Vec<u64> = sizes.iter().filter_map(|&s| z.alloc(s).ok()).collect();
        for &a in &addrs {
            prop_assert!(z.free(a).is_ok());
            prop_assert!(z.free(a).is_err());
        }
    }

    /// NUMA allocation falls back but never fabricates: every returned
    /// address frees cleanly in some zone.
    #[test]
    fn numa_alloc_free_roundtrip(reqs in prop::collection::vec((0usize..4, 1u64..512), 1..64)) {
        let mut n = NumaAllocator::new(4, 6, 10);
        let mut live = Vec::new();
        for (zone, sz) in reqs {
            if let Ok((addr, _)) = n.alloc(zone, sz) {
                live.push(addr);
            }
        }
        for a in live {
            prop_assert!(n.free(a).is_ok());
        }
        for z in 0..4 {
            prop_assert!(n.zone(z).fully_coalesced());
        }
    }
}
