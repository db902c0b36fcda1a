//! Model-based equivalence: the page-backed [`Memory`] against a naive
//! reimplementation of the original seed layout — a per-byte-address
//! `BTreeMap<u64, (i64, Option<u64>)>` plus a *linear* allocation list —
//! under arbitrary interleaved alloc/free/load/store/move sequences,
//! including provenance patching.
//!
//! The model deliberately reproduces the seed's allocator policy bit for
//! bit (first-fit over a coalescing free list, bump fallback, ids consumed
//! even by the transient home of a move), so every observable — returned
//! bases and ids, loaded values and provenance, traps, the free list,
//! live-byte accounting and the resident page count — must agree exactly
//! at every step. Besides the aligned mix, three workloads aim at the
//! dense layout's edges: unaligned byte addresses (the side map), more live
//! allocations accessed round robin than the allocation cache holds (its
//! invalidation on free and move), and large sparse allocations (the
//! resident page count).

use interweave_ir::interp::{AllocId, InterpConfig, Memory};
use interweave_ir::types::Val;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const HEAP_BASE: u64 = 0x10_000;
const HEAP_SIZE: u64 = 1 << 30;

/// Bytes per guest page, the unit [`Memory::resident_pages`] counts.
const GUEST_PAGE_BYTES: u64 = 4096;

/// The seed-layout reference: word map + linear allocation list.
struct ModelMemory {
    /// Words by byte address: words at overlapping addresses are
    /// independent entries.
    words: BTreeMap<u64, (i64, Option<u64>)>,
    /// The distinct 4 KiB guest pages a write has touched (the heap base
    /// is page-aligned): a store, or a move copying a non-zero word.
    touched: BTreeSet<u64>,
    /// Live allocations as `(id, base, size)` in creation order — lookups
    /// are linear scans, as in the pre-page implementation's
    /// `move_allocation`.
    allocs: Vec<(u64, u64, u64)>,
    free: BTreeMap<u64, u64>,
    bump: u64,
    limit: u64,
    next_id: u64,
    live_bytes: u64,
}

impl ModelMemory {
    fn new() -> ModelMemory {
        ModelMemory {
            words: BTreeMap::new(),
            touched: BTreeSet::new(),
            allocs: Vec::new(),
            free: BTreeMap::new(),
            bump: HEAP_BASE,
            limit: HEAP_BASE + HEAP_SIZE,
            next_id: 1,
            live_bytes: 0,
        }
    }

    fn alloc(&mut self, size: u64) -> Option<(u64, u64, u64)> {
        let size = size.max(8).div_ceil(8) * 8;
        let slot = self
            .free
            .iter()
            .find(|(_, &sz)| sz >= size)
            .map(|(&b, &sz)| (b, sz));
        let base = if let Some((b, sz)) = slot {
            self.free.remove(&b);
            if sz > size {
                self.free.insert(b + size, sz - size);
            }
            b
        } else {
            let b = self.bump;
            if b + size > self.limit {
                return None;
            }
            self.bump += size;
            b
        };
        let id = self.next_id;
        self.next_id += 1;
        self.allocs.push((id, base, size));
        self.live_bytes += size;
        Some((id, base, size))
    }

    fn free(&mut self, addr: u64) -> Option<(u64, u64, u64)> {
        let pos = self.allocs.iter().position(|&(_, b, _)| b == addr)?;
        let a = self.allocs.remove(pos);
        let keys: Vec<u64> = self.words.range(a.1..a.1 + a.2).map(|(&k, _)| k).collect();
        for k in keys {
            self.words.remove(&k);
        }
        self.free.insert(a.1, a.2);
        self.coalesce_around(a.1);
        self.live_bytes -= a.2;
        Some(a)
    }

    fn coalesce_around(&mut self, base: u64) {
        if let Some(&size) = self.free.get(&base) {
            if let Some((&nb, &nsz)) = self.free.range(base + size..).next() {
                if nb == base + size {
                    self.free.remove(&nb);
                    *self.free.get_mut(&base).expect("present") = size + nsz;
                }
            }
        }
        if let Some((&pb, &psz)) = self.free.range(..base).next_back() {
            if pb + psz == base {
                let size = self.free.remove(&base).expect("present");
                *self.free.get_mut(&pb).expect("present") = psz + size;
            }
        }
    }

    fn containing(&self, addr: u64) -> Option<(u64, u64, u64)> {
        self.allocs
            .iter()
            .copied()
            .find(|&(_, b, s)| addr >= b && addr < b + s)
    }

    /// The whole 8-byte word at `addr` lies in one live allocation.
    fn word_in_bounds(&self, addr: u64) -> bool {
        self.containing(addr)
            .is_some_and(|(_, b, s)| addr - b <= s - 8)
    }

    fn load(&self, addr: u64) -> Option<(i64, Option<u64>)> {
        if !self.word_in_bounds(addr) {
            return None;
        }
        Some(self.words.get(&addr).copied().unwrap_or((0, None)))
    }

    fn store(&mut self, addr: u64, val: i64, prov: Option<u64>) -> bool {
        if !self.word_in_bounds(addr) {
            return false;
        }
        self.words.insert(addr, (val, prov));
        self.touched.insert(addr / GUEST_PAGE_BYTES);
        true
    }

    fn move_allocation(&mut self, id: u64) -> Option<(u64, u64)> {
        let &(_, old_base, old_size) = self.allocs.iter().find(|&&(i, _, _)| i == id)?;
        let (new_id, new_base, _) = self.alloc(old_size)?;
        // The transient home keeps the moved allocation's identity.
        for a in self.allocs.iter_mut() {
            if a.0 == new_id {
                a.0 = id;
            }
        }
        let old_words: Vec<(u64, (i64, Option<u64>))> = self
            .words
            .range(old_base..old_base + old_size)
            .map(|(&k, &c)| (k, c))
            .collect();
        for (k, c) in &old_words {
            let to = new_base + (k - old_base);
            self.words.insert(to, *c);
            if *c != (0, None) {
                self.touched.insert(to / GUEST_PAGE_BYTES);
            }
        }
        self.free(old_base)?;
        let patches: Vec<(u64, i64, Option<u64>)> = self
            .words
            .iter()
            .filter(|(_, c)| c.1 == Some(id))
            .map(|(&k, c)| (k, c.0, c.1))
            .collect();
        for (k, v, prov) in patches {
            let off = (v as u64).wrapping_sub(old_base);
            self.words.insert(k, ((new_base + off) as i64, prov));
        }
        Some((old_base, new_base))
    }

    fn resident_pages(&self) -> usize {
        self.touched.len()
    }
}

/// One step of the interleaved workload. Indices select among live
/// allocations modulo the live count at execution time; an access lands at
/// byte `(slot * 8 + byte) % size` of its allocation.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        size: u64,
    },
    Free {
        idx: usize,
    },
    Load {
        idx: usize,
        slot: u64,
        byte: u64,
    },
    /// Store a plain value, or (when `ptr_idx` is set) a pointer into
    /// another live allocation, carrying provenance.
    Store {
        idx: usize,
        slot: u64,
        byte: u64,
        val: i64,
        ptr_idx: Option<usize>,
    },
    /// Store `first` at an address `a` and `second` at `a + 1`, then read
    /// both back: overlapping words are independent cells.
    Overlap {
        idx: usize,
        slot: u64,
        byte: u64,
        first: i64,
        second: i64,
    },
    Move {
        idx: usize,
    },
}

/// Half the stores carry provenance (a pointer into another live
/// allocation), half are plain values.
fn ptr_choice(sel: usize) -> Option<usize> {
    if sel.is_multiple_of(2) {
        None
    } else {
        Some(sel >> 1)
    }
}

/// The aligned mix: every access is at a word-aligned offset.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (8u64..400).prop_map(|size| Op::Alloc { size }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        (any::<usize>(), 0u64..64).prop_map(|(idx, slot)| Op::Load { idx, slot, byte: 0 }),
        (any::<usize>(), 0u64..64, any::<i64>(), any::<usize>()).prop_map(
            |(idx, slot, val, ptr_sel)| Op::Store {
                idx,
                slot,
                byte: 0,
                val,
                ptr_idx: ptr_choice(ptr_sel),
            }
        ),
        any::<usize>().prop_map(|idx| Op::Move { idx }),
    ]
}

/// A mix with byte offsets 0–7 past the word slot (so most accesses are
/// unaligned) and overlapping-word pairs, over allocations of up to
/// `max_size` bytes and word slots below `max_slot`.
fn unaligned_op_strategy(max_size: u64, max_slot: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (8u64..max_size).prop_map(|size| Op::Alloc { size }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        (any::<usize>(), 0u64..max_slot, 0u64..8).prop_map(|(idx, slot, byte)| Op::Load {
            idx,
            slot,
            byte
        }),
        (
            any::<usize>(),
            0u64..max_slot,
            0u64..8,
            any::<i64>(),
            any::<usize>()
        )
            .prop_map(|(idx, slot, byte, val, ptr_sel)| Op::Store {
                idx,
                slot,
                byte,
                // A quarter of the stores write the never-written word
                // itself, which a move must not copy into a fresh page.
                val: if ptr_sel % 4 == 2 { 0 } else { val },
                ptr_idx: ptr_choice(ptr_sel),
            }),
        (
            any::<usize>(),
            0u64..max_slot,
            1u64..8,
            any::<i64>(),
            any::<i64>()
        )
            .prop_map(|(idx, slot, byte, first, second)| Op::Overlap {
                idx,
                slot,
                byte,
                first,
                second,
            }),
        any::<usize>().prop_map(|idx| Op::Move { idx }),
    ]
}

/// One step of a round-robin workload (see [`round_robin_ops`]).
#[derive(Debug, Clone)]
enum Step {
    Load {
        slot: u64,
    },
    Store {
        slot: u64,
        val: i64,
        ptr_sel: usize,
    },
    /// Free a live allocation, then allocate `size` bytes in its place.
    Replace {
        idx: usize,
        size: u64,
    },
    Move {
        idx: usize,
    },
}

/// Allocate `allocs` (4–7) arrays, then access them strictly round robin
/// — each load or store targets the next live allocation — with frees
/// (each followed by a fresh allocation, so at least four stay live) and
/// moves in between: more alternating targets than the allocation cache
/// holds, and every invalidation path under traffic.
fn round_robin_ops() -> impl Strategy<Value = Vec<Op>> {
    let step = prop_oneof![
        (0u64..64).prop_map(|slot| Step::Load { slot }),
        (0u64..64).prop_map(|slot| Step::Load { slot }),
        (0u64..64, any::<i64>(), any::<usize>()).prop_map(|(slot, val, ptr_sel)| Step::Store {
            slot,
            val,
            ptr_sel
        }),
        (0u64..64, any::<i64>(), any::<usize>()).prop_map(|(slot, val, ptr_sel)| Step::Store {
            slot,
            val,
            ptr_sel
        }),
        (any::<usize>(), 8u64..400).prop_map(|(idx, size)| Step::Replace { idx, size }),
        any::<usize>().prop_map(|idx| Step::Move { idx }),
    ];
    (
        4usize..8,
        prop::collection::vec(8u64..400, 8..9),
        prop::collection::vec(step, 40..120),
    )
        .prop_map(|(allocs, sizes, steps)| {
            let mut ops: Vec<Op> = sizes[..allocs]
                .iter()
                .map(|&size| Op::Alloc { size })
                .collect();
            let mut next = 0usize;
            for s in steps {
                match s {
                    Step::Load { slot } => {
                        ops.push(Op::Load {
                            idx: next,
                            slot,
                            byte: 0,
                        });
                        next += 1;
                    }
                    Step::Store { slot, val, ptr_sel } => {
                        ops.push(Op::Store {
                            idx: next,
                            slot,
                            byte: 0,
                            val,
                            ptr_idx: ptr_choice(ptr_sel),
                        });
                        next += 1;
                    }
                    Step::Replace { idx, size } => {
                        ops.push(Op::Free { idx });
                        ops.push(Op::Alloc { size });
                    }
                    Step::Move { idx } => ops.push(Op::Move { idx }),
                }
            }
            ops
        })
}

/// Run `ops` on a fresh [`Memory`] and on the model side by side, checking
/// every observable after every step, then the final state: allocator
/// observables, every live aligned word, and every cell the model holds.
fn check_against_model(ops: &[Op]) -> Result<(), TestCaseError> {
    let cfg = InterpConfig {
        heap_base: HEAP_BASE,
        heap_size: HEAP_SIZE,
        ..InterpConfig::default()
    };
    let mut mem = Memory::new(&cfg);
    let mut model = ModelMemory::new();
    // Live allocations as (id, base, size), kept identically for both
    // sides (ids and bases must agree at creation).
    let mut live: Vec<(u64, u64, u64)> = Vec::new();
    let load =
        |mem: &Memory, addr: u64| mem.load(addr).ok().map(|(v, p)| (v.as_i(), p.map(|i| i.0)));

    for op in ops {
        match *op {
            Op::Alloc { size } => {
                let got = mem.alloc(size);
                let want = model.alloc(size);
                match (got, want) {
                    (Ok(a), Some((id, base, sz))) => {
                        prop_assert_eq!(a.id.0, id);
                        prop_assert_eq!(a.base, base);
                        prop_assert_eq!(a.size, sz);
                        live.push((id, base, sz));
                    }
                    (Err(_), None) => {}
                    (g, w) => prop_assert!(false, "alloc diverged: {g:?} vs {w:?}"),
                }
            }
            Op::Free { idx } => {
                if live.is_empty() {
                    continue;
                }
                let (_, base, _) = live.remove(idx % live.len());
                let got = mem.free(base);
                let want = model.free(base);
                prop_assert_eq!(got.is_ok(), want.is_some(), "free diverged at {base:#x}");
                // The freed range is dead: nothing may still answer for it.
                prop_assert_eq!(
                    load(&mem, base),
                    model.load(base),
                    "load of freed {:#x}",
                    base
                );
            }
            Op::Load { idx, slot, byte } => {
                if live.is_empty() {
                    continue;
                }
                let (_, base, size) = live[idx % live.len()];
                let addr = base + (slot * 8 + byte) % size;
                prop_assert_eq!(
                    load(&mem, addr),
                    model.load(addr),
                    "load diverged at {:#x}",
                    addr
                );
                let got = mem.containing(addr).map(|a| (a.id.0, a.base, a.size));
                prop_assert_eq!(
                    got,
                    model.containing(addr),
                    "containing diverged at {:#x}",
                    addr
                );
            }
            Op::Store {
                idx,
                slot,
                byte,
                val,
                ptr_idx,
            } => {
                if live.is_empty() {
                    continue;
                }
                let (_, base, size) = live[idx % live.len()];
                let addr = base + (slot * 8 + byte) % size;
                let (val, prov) = match ptr_idx {
                    Some(pi) => {
                        let (pid, pbase, psize) = live[pi % live.len()];
                        // A pointer into the target, at a stable offset.
                        ((pbase + (slot * 8) % psize) as i64, Some(pid))
                    }
                    None => (val, None),
                };
                let got = mem.store(addr, Val::I(val), prov.map(AllocId)).is_ok();
                let want = model.store(addr, val, prov);
                prop_assert_eq!(got, want, "store diverged at {:#x}", addr);
            }
            Op::Overlap {
                idx,
                slot,
                byte,
                first,
                second,
            } => {
                if live.is_empty() {
                    continue;
                }
                let (_, base, size) = live[idx % live.len()];
                let a = base + (slot * 8 + byte) % size;
                // Both words must lie wholly inside the allocation.
                if a + 1 > base + size - 8 {
                    continue;
                }
                for (addr, val) in [(a, first), (a + 1, second)] {
                    prop_assert!(mem.store(addr, Val::I(val), None).is_ok());
                    prop_assert!(model.store(addr, val, None));
                }
                prop_assert_eq!(load(&mem, a), Some((first, None)), "word at {:#x}", a);
                prop_assert_eq!(
                    load(&mem, a + 1),
                    Some((second, None)),
                    "word at {:#x}",
                    a + 1
                );
            }
            Op::Move { idx } => {
                if live.is_empty() {
                    continue;
                }
                let li = idx % live.len();
                let (id, _, size) = live[li];
                let got = mem.move_allocation(AllocId(id)).ok();
                let want = model.move_allocation(id);
                prop_assert_eq!(got, want, "move diverged for id {}", id);
                if let Some((_, new_base)) = want {
                    live[li] = (id, new_base, size);
                    // Pointers we recorded in `live` stay by-id; stored
                    // pointer words were patched inside both memories.
                }
            }
        }
        prop_assert_eq!(
            mem.resident_pages(),
            model.resident_pages(),
            "resident pages diverged after {:?}",
            op
        );
    }

    prop_assert_eq!(mem.n_allocs(), model.allocs.len());
    prop_assert_eq!(mem.live_bytes, model.live_bytes);
    let model_free: Vec<(u64, u64)> = model.free.iter().map(|(&b, &s)| (b, s)).collect();
    prop_assert_eq!(mem.free_blocks(), model_free);
    for &(id, base, size) in &live {
        prop_assert_eq!(mem.base_of(AllocId(id)), Some(base));
        for off in (0..size).step_by(8) {
            let want = model.load(base + off);
            prop_assert_eq!(
                load(&mem, base + off),
                want,
                "final word diverged at {:#x}+{}",
                base,
                off
            );
        }
    }
    // Every cell the model holds, unaligned ones included (a cell left in
    // freed space must read as a trap on both sides).
    for &addr in model.words.keys() {
        prop_assert_eq!(
            load(&mem, addr),
            model.load(addr),
            "final cell diverged at {:#x}",
            addr
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Page-backed memory and the seed-layout model observe identical
    /// results for every operation, and identical final state.
    #[test]
    fn page_backed_memory_matches_seed_layout_model(
        ops in prop::collection::vec(op_strategy(), 1..80)
    ) {
        check_against_model(&ops)?;
    }

    /// Unaligned byte addresses (offsets 1–7 past a word) live in the side
    /// map, and words at `a` and `a + 1` stay independent cells through
    /// stores, frees and moves.
    #[test]
    fn unaligned_cells_match_seed_layout_model(
        ops in prop::collection::vec(unaligned_op_strategy(400, 64), 1..80)
    ) {
        check_against_model(&ops)?;
    }

    /// Four to seven live allocations accessed round robin, with frees and
    /// moves in between: the allocation cache never answers for a freed or
    /// moved allocation.
    #[test]
    fn round_robin_allocations_match_seed_layout_model(ops in round_robin_ops()) {
        check_against_model(&ops)?;
    }

    /// Large sparse allocations spanning many pages: `resident_pages()`
    /// equals the number of distinct 4 KiB guest pages that writes touched.
    #[test]
    fn resident_pages_count_touched_spans(
        ops in prop::collection::vec(unaligned_op_strategy(8192, 1024), 1..80)
    ) {
        check_against_model(&ops)?;
    }
}
