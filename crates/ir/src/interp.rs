//! The IR interpreter: cycle-accounted execution with runtime hooks.
//!
//! The interpreter plays the role of "the machine running compiled code" for
//! every compiler-involved experiment:
//!
//! - Each instruction has a cycle cost ([`InterpConfig`]); totals feed the
//!   overhead measurements (CARAT's <6 %, timing-check overhead, etc.).
//! - [`RuntimeHooks`] supplies the behaviour of interweaving intrinsics
//!   (guards, time checks, polls) *and* a per-access policy hook used by the
//!   paging/TLB model, so the same program can run under different stacks.
//! - Execution is *fuel-bounded*: [`Interp::run`] returns after a given
//!   cycle budget so kernels can schedule interpreted threads preemptively,
//!   and time checks can yield mid-program (the fiber experiments).
//! - Memory is a flat physical address space with an allocator that tracks
//!   *pointer provenance* per word and per register. Provenance is the
//!   ground truth CARAT's tracking runtime is validated against, and it is
//!   what makes defragmentation (§IV-A's "memory can be managed at
//!   arbitrary granularity") exact: when an allocation moves, every live
//!   pointer to it — in memory or in registers — is found and patched.

use crate::inst::{BinOp, CmpOp, Inst, Intrinsic, Term};
use crate::module::Module;
use crate::types::{BlockId, FuncId, Reg, Val};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Hasher for the id → base index. Allocation ids are already unique dense
/// integers, so a single multiplicative scramble beats the default SipHash
/// on the alloc/free path (the index is maintained on every allocation).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdMap = HashMap<u64, u64, BuildHasherDefault<IdHasher>>;

/// Identifier of a live allocation (provenance tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocId(pub u64);

/// Per-instruction cycle costs and interpreter limits.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Cost of arithmetic/compare/select/mov/const.
    pub cost_arith: u64,
    /// Cost of a load (cache-hit assumption; translation extras come from
    /// hooks).
    pub cost_load: u64,
    /// Cost of a store.
    pub cost_store: u64,
    /// Cost of pointer arithmetic (`gep`).
    pub cost_gep: u64,
    /// Allocator fast-path cost.
    pub cost_alloc: u64,
    /// Free fast-path cost.
    pub cost_free: u64,
    /// Call (frame setup) cost.
    pub cost_call: u64,
    /// Return cost.
    pub cost_ret: u64,
    /// Branch cost.
    pub cost_branch: u64,
    /// Maximum call depth before a stack-overflow trap.
    pub max_depth: usize,
    /// Heap base address (allocations start here; 0 stays null).
    pub heap_base: u64,
    /// Heap size in bytes.
    pub heap_size: u64,
}

impl Default for InterpConfig {
    fn default() -> InterpConfig {
        InterpConfig {
            cost_arith: 1,
            cost_load: 3,
            cost_store: 3,
            cost_gep: 1,
            cost_alloc: 30,
            cost_free: 15,
            cost_call: 5,
            cost_ret: 3,
            cost_branch: 1,
            max_depth: 4096,
            heap_base: 0x10_000,
            heap_size: 1 << 30,
        }
    }
}

/// An execution fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// A word access not wholly inside one live allocation.
    BadAccess {
        /// Faulting address.
        addr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// A guard or policy hook denied the access (CARAT protection fault).
    ProtectionFault {
        /// Faulting address.
        addr: u64,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Allocator exhausted.
    OutOfMemory,
    /// Call depth exceeded `max_depth`.
    StackOverflow,
    /// Free of an address that is not a live allocation base.
    BadFree {
        /// The bogus address.
        addr: u64,
    },
    /// A hook aborted execution with a message.
    Aborted(String),
}

/// One memory word: a value plus the provenance of the pointer it may hold.
///
/// Provenance is packed as a raw id with 0 meaning "none" — [`AllocId`]s
/// start at 1, so the zero-filled state of a fresh page is exactly the
/// never-written word `(Val::I(0), None)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemCell {
    val: Val,
    prov_raw: u64,
}

impl MemCell {
    /// The never-written word: integer zero, no provenance. Fresh pages are
    /// filled with it, and `free` resets words back to it.
    const ZERO: MemCell = MemCell {
        val: Val::I(0),
        prov_raw: 0,
    };

    #[inline]
    fn prov(self) -> Option<AllocId> {
        if self.prov_raw == 0 {
            None
        } else {
            Some(AllocId(self.prov_raw))
        }
    }

    #[inline]
    fn pack_prov(prov: Option<AllocId>) -> u64 {
        match prov {
            Some(id) => id.0,
            None => 0,
        }
    }
}

/// Byte addresses per page. Loads and stores move 8-byte words at
/// arbitrary byte addresses, and two words at overlapping addresses are
/// independent cells (exactly as in the original word-map representation),
/// so a page spans `PAGE_BYTES` byte addresses: its word-aligned cells sit
/// in the page itself, and the rare unaligned ones in
/// [`Memory::unaligned`].
const PAGE_BYTES: u64 = 512;
const PAGE_SHIFT: u32 = PAGE_BYTES.trailing_zeros();
const PAGE_MASK: u64 = PAGE_BYTES - 1;
/// Bytes per word, and the mask of a word-aligned address's low bits.
const WORD_BYTES: u64 = 8;
const WORD_MASK: u64 = WORD_BYTES - 1;
/// Word-aligned cells per page.
const PAGE_WORDS: usize = (PAGE_BYTES / WORD_BYTES) as usize;
/// Index of the word-aligned cell at `addr` within its page.
#[inline]
fn word_index(addr: u64) -> usize {
    ((addr & PAGE_MASK) / WORD_BYTES) as usize
}

/// Bytes per guest page: the unit [`Memory::resident_pages`] counts in.
pub const GUEST_PAGE_BYTES: u64 = 4096;

/// One resident page: where its word-aligned cells sit in the arena
/// (`Memory::words`) plus a dirty watermark — the inclusive-lo /
/// exclusive-hi range of word indices that may hold a non-zero word. Every
/// write path widens the watermark, so `free` can clear (and the
/// provenance patch sweep can scan) only the written span, keeping both
/// proportional to stored words rather than to the byte range.
#[derive(Clone, Copy)]
struct Page {
    /// Arena index of the page's word 0.
    at: usize,
    /// Lowest possibly-dirty word index (`PAGE_WORDS` when clean).
    lo: u32,
    /// One past the highest possibly-dirty word index (0 when clean).
    hi: u32,
}

impl Page {
    /// The arena range of the words inside the page's watermark.
    fn dirty(self) -> Range<usize> {
        if self.lo < self.hi {
            self.at + self.lo as usize..self.at + self.hi as usize
        } else {
            0..0
        }
    }
}

/// Metadata for one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Provenance id.
    pub id: AllocId,
    /// Base address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl Allocation {
    /// An empty allocation-cache entry: size 0 contains no address.
    const NONE: Allocation = Allocation {
        id: AllocId(0),
        base: 0,
        size: 0,
    };
}

/// Entries in the allocation cache in front of `containing()`: enough for
/// the two or three arrays a streaming kernel alternates between.
const ALLOC_CACHE: usize = 4;

/// Flat physical memory with an allocator and provenance tracking.
///
/// Addresses are bytes; loads and stores move 8-byte words (the IR's only
/// access width). The allocator is first-fit over a free list with a bump
/// fallback — deliberately fragmentation-prone, because CARAT's
/// defragmentation experiment needs fragmentation to repair.
/// Word-aligned words live densely in fixed-size pages materialised on
/// first touch (zero-filled, like fresh pages from an OS), every page's
/// words in one arena, so a load or store is index arithmetic rather than a
/// tree lookup; words at unaligned addresses live in an ordered side map.
/// A small cache of recently hit allocations in front of the allocation
/// map makes the bounds check on the hot path a few range compares, and an
/// `AllocId → base` index lets defragmentation find an allocation without
/// scanning the live set.
#[derive(Clone)]
pub struct Memory {
    /// Sparse page table: `pages[(addr - page_origin) >> PAGE_SHIFT]`.
    /// Absent pages read as zero; they materialise on first store, aligned
    /// or not.
    pages: Vec<Option<Page>>,
    /// Every resident page's `PAGE_WORDS` word-aligned cells, in the order
    /// the pages materialised (not address order).
    words: Vec<MemCell>,
    /// Cells at byte addresses that are not word-aligned, by address. The
    /// IR's programs access aligned words, so this is almost always empty.
    unaligned: BTreeMap<u64, MemCell>,
    /// Address of byte 0 of page 0 (`heap_base` rounded down to a page
    /// boundary).
    page_origin: u64,
    /// Live allocations keyed by base address.
    allocs: BTreeMap<u64, Allocation>,
    /// O(1) id → base index (kept in lockstep with `allocs`).
    base_by_id: IdMap,
    /// Allocations that recently answered `containing()` (empty entries
    /// are [`Allocation::NONE`]). Every entry is a live allocation: `alloc`
    /// primes it, `free` drops the freed base's entry, and a move re-primes
    /// the new home (see those methods).
    recent: [Cell<Allocation>; ALLOC_CACHE],
    /// The entry a cache miss overwrites next (round robin).
    recent_next: Cell<usize>,
    /// Free blocks keyed by base address → size.
    free: BTreeMap<u64, u64>,
    bump: u64,
    limit: u64,
    next_id: u64,
    /// Total bytes currently allocated.
    pub live_bytes: u64,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("allocs", &self.allocs)
            .field("free", &self.free)
            .field("bump", &self.bump)
            .field("limit", &self.limit)
            .field("live_bytes", &self.live_bytes)
            .field("resident_pages", &self.resident_pages())
            .finish_non_exhaustive()
    }
}

impl Memory {
    /// Fresh memory per the config's heap geometry.
    pub fn new(cfg: &InterpConfig) -> Memory {
        Memory {
            pages: Vec::new(),
            words: Vec::new(),
            unaligned: BTreeMap::new(),
            page_origin: cfg.heap_base & !PAGE_MASK,
            allocs: BTreeMap::new(),
            base_by_id: IdMap::default(),
            recent: [const { Cell::new(Allocation::NONE) }; ALLOC_CACHE],
            recent_next: Cell::new(0),
            free: BTreeMap::new(),
            bump: cfg.heap_base,
            limit: cfg.heap_base + cfg.heap_size,
            next_id: 1,
            live_bytes: 0,
        }
    }

    #[inline]
    fn page_index(&self, addr: u64) -> usize {
        ((addr - self.page_origin) >> PAGE_SHIFT) as usize
    }

    /// Read the cell at `addr` (absent cells read as the zero word).
    #[inline]
    fn cell(&self, addr: u64) -> MemCell {
        if addr & WORD_MASK != 0 {
            return self.unaligned.get(&addr).copied().unwrap_or(MemCell::ZERO);
        }
        match self.pages.get(self.page_index(addr)) {
            Some(Some(page)) => self.words[page.at + word_index(addr)],
            _ => MemCell::ZERO,
        }
    }

    /// Mutable cell at `addr`, materialising its page on first touch (an
    /// unaligned write materialises the page too, so the resident count
    /// does not depend on alignment) and widening the page's dirty
    /// watermark over a handed-out aligned word.
    #[inline]
    fn cell_mut(&mut self, addr: u64) -> &mut MemCell {
        let pi = self.page_index(addr);
        if !matches!(self.pages.get(pi), Some(Some(_))) {
            self.materialise(pi);
        }
        if addr & WORD_MASK != 0 {
            return self.unaligned.entry(addr).or_insert(MemCell::ZERO);
        }
        let page = self.pages[pi].as_mut().expect("materialised");
        let wi = word_index(addr);
        page.lo = page.lo.min(wi as u32);
        page.hi = page.hi.max(wi as u32 + 1);
        &mut self.words[page.at + wi]
    }

    /// Make page `pi` resident: append its `PAGE_WORDS` zero words to the
    /// arena, growing the page table if `pi` lies past its end.
    #[cold]
    fn materialise(&mut self, pi: usize) {
        if pi >= self.pages.len() {
            self.pages.resize(pi + 1, None);
        }
        let at = self.words.len();
        self.words.resize(at + PAGE_WORDS, MemCell::ZERO);
        self.pages[pi] = Some(Page {
            at,
            lo: PAGE_WORDS as u32,
            hi: 0,
        });
    }

    /// Reset every cell in `[start, end)` to the never-written word,
    /// touching only resident pages and the side map's range — O(range /
    /// word), not O(live words).
    fn zero_range(&mut self, start: u64, end: u64) {
        let mut addr = start;
        while addr < end {
            let page_start = addr & !PAGE_MASK;
            let chunk_end = end.min(page_start + PAGE_BYTES);
            let pi = self.page_index(addr);
            if let Some(Some(page)) = self.pages.get_mut(pi) {
                // The aligned words starting inside [addr, chunk_end).
                let s = (addr - page_start).div_ceil(WORD_BYTES) as u32;
                let e = (chunk_end - page_start).div_ceil(WORD_BYTES) as u32;
                // Only words inside the dirty watermark can be non-zero, so
                // clamp the clear to it: free's cost tracks the words
                // actually written, not the freed byte range.
                let (cs, ce) = (s.max(page.lo), e.min(page.hi));
                if cs < ce {
                    self.words[page.at + cs as usize..page.at + ce as usize].fill(MemCell::ZERO);
                }
                // A clear covering the whole dirty range leaves the page
                // clean; partial clears leave the watermark conservative.
                if s <= page.lo && page.hi <= e {
                    page.lo = PAGE_WORDS as u32;
                    page.hi = 0;
                }
            }
            addr = chunk_end;
        }
        if self.unaligned.range(start..end).next().is_some() {
            let mut tail = self.unaligned.split_off(&start);
            let mut kept = tail.split_off(&end);
            self.unaligned.append(&mut kept);
        }
    }

    /// Number of resident 4 KiB guest pages: the distinct
    /// [`GUEST_PAGE_BYTES`]-aligned pages holding a materialised
    /// `PAGE_BYTES` storage span, that is, a span any write has touched
    /// since this memory was created. A span is never released, not even
    /// when `free` clears every word in it.
    pub fn resident_pages(&self) -> usize {
        let mut count = 0;
        let mut last = None;
        for (i, _) in self.pages.iter().enumerate().filter(|(_, p)| p.is_some()) {
            let guest = (self.page_origin + ((i as u64) << PAGE_SHIFT)) / GUEST_PAGE_BYTES;
            if last != Some(guest) {
                count += 1;
                last = Some(guest);
            }
        }
        count
    }

    /// Base address of the live allocation with id `id`, in O(1).
    pub fn base_of(&self, id: AllocId) -> Option<u64> {
        self.base_by_id.get(&id.0).copied()
    }

    /// Cache `a` as a recent hit. An entry with the same base is updated in
    /// place (a move's new home is cached under its transient id first);
    /// otherwise the round-robin victim is overwritten.
    fn remember(&self, a: Allocation) {
        let slot = match self.recent.iter().position(|e| e.get().base == a.base) {
            Some(i) => i,
            None => {
                let i = self.recent_next.get();
                self.recent_next.set((i + 1) % ALLOC_CACHE);
                i
            }
        };
        self.recent[slot].set(a);
    }

    /// Allocate `size` bytes (rounded up to 8); returns the allocation.
    pub fn alloc(&mut self, size: u64) -> Result<Allocation, Trap> {
        let size = size.max(8).div_ceil(8) * 8;
        // First-fit in the free list.
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
                return Err(Trap::OutOfMemory);
            }
            self.bump += size;
            b
        };
        let a = Allocation {
            id: AllocId(self.next_id),
            base,
            size,
        };
        self.next_id += 1;
        self.allocs.insert(base, a);
        self.base_by_id.insert(a.id.0, base);
        // The fresh allocation is a likely next access target.
        self.remember(a);
        self.live_bytes += size;
        Ok(a)
    }

    /// Free the allocation based at `addr`.
    pub fn free(&mut self, addr: u64) -> Result<Allocation, Trap> {
        let a = self.allocs.remove(&addr).ok_or(Trap::BadFree { addr })?;
        self.base_by_id.remove(&a.id.0);
        // A cached hit into the freed region must not survive (compare by
        // base: during a move the same id is briefly live at two bases).
        for e in &self.recent {
            if e.get().base == a.base {
                e.set(Allocation::NONE);
            }
        }
        // Reset its words and return the range to the free list.
        self.zero_range(a.base, a.base + a.size);
        self.free.insert(a.base, a.size);
        self.coalesce_around(a.base);
        self.live_bytes -= a.size;
        Ok(a)
    }

    fn coalesce_around(&mut self, base: u64) {
        // Merge with the next block if adjacent.
        if let Some(&size) = self.free.get(&base) {
            if let Some((&nb, &nsz)) = self.free.range(base + size..).next() {
                if nb == base + size {
                    self.free.remove(&nb);
                    *self.free.get_mut(&base).expect("present") = size + nsz;
                }
            }
        }
        // Merge with the previous block if adjacent.
        if let Some((&pb, &psz)) = self.free.range(..base).next_back() {
            if pb + psz == base {
                let size = self.free.remove(&base).expect("present");
                *self.free.get_mut(&pb).expect("present") = psz + size;
            }
        }
    }

    /// The allocation containing `addr`, if any. Recent hits are cached, so
    /// accesses alternating among a few allocations cost a few range
    /// compares.
    #[inline]
    pub fn containing(&self, addr: u64) -> Option<Allocation> {
        for e in &self.recent {
            let a = e.get();
            if addr.wrapping_sub(a.base) < a.size {
                return Some(a);
            }
        }
        self.containing_uncached(addr)
    }

    /// `containing` past the cache: a range query on the allocation map,
    /// caching the hit.
    fn containing_uncached(&self, addr: u64) -> Option<Allocation> {
        let a = self
            .allocs
            .range(..=addr)
            .next_back()
            .map(|(_, &a)| a)
            .filter(|a| addr < a.base + a.size)?;
        self.remember(a);
        Some(a)
    }

    /// True when the whole 8-byte word at `addr` lies in one live
    /// allocation (sizes are multiples of 8, so `size - 8` cannot wrap).
    #[inline]
    fn word_in_bounds(&self, addr: u64) -> bool {
        self.containing(addr)
            .is_some_and(|a| addr - a.base <= a.size - WORD_BYTES)
    }

    /// Load the word at `addr` (all eight bytes must lie in one live
    /// allocation; reads of never-written words are zero, like fresh
    /// pages).
    #[inline]
    pub fn load(&self, addr: u64) -> Result<(Val, Option<AllocId>), Trap> {
        if !self.word_in_bounds(addr) {
            return Err(Trap::BadAccess { addr, write: false });
        }
        let c = self.cell(addr);
        Ok((c.val, c.prov()))
    }

    /// Store a word (with provenance) at `addr`; like [`Memory::load`],
    /// all eight bytes must lie in one live allocation.
    #[inline]
    pub fn store(&mut self, addr: u64, val: Val, prov: Option<AllocId>) -> Result<(), Trap> {
        if !self.word_in_bounds(addr) {
            return Err(Trap::BadAccess { addr, write: true });
        }
        *self.cell_mut(addr) = MemCell {
            val,
            prov_raw: MemCell::pack_prov(prov),
        };
        Ok(())
    }

    /// All live allocations in address order.
    pub fn allocations(&self) -> Vec<Allocation> {
        self.allocs.values().copied().collect()
    }

    /// Number of live allocations.
    pub fn n_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Free-list fragmentation: number of free holes below the bump pointer.
    pub fn free_holes(&self) -> usize {
        self.free.len()
    }

    /// The free list as `(base, size)` pairs in address order (used by
    /// CARAT's compaction to plan downward moves).
    pub fn free_blocks(&self) -> Vec<(u64, u64)> {
        self.free.iter().map(|(&b, &s)| (b, s)).collect()
    }

    /// Move the allocation with id `id` to a freshly allocated region,
    /// patching every memory word whose provenance is `id` so stored
    /// pointers stay valid. Returns `(old_base, new_base)`.
    ///
    /// This is the memory-mobility half of CARAT (§IV-A): data movement
    /// "operates similarly to a garbage collector". Register patching is the
    /// interpreter's job (the runtime cannot see registers) — see
    /// [`Interp::patch_provenance`].
    pub fn move_allocation(&mut self, id: AllocId) -> Result<(u64, u64), Trap> {
        let old = self
            .base_of(id)
            .and_then(|b| self.allocs.get(&b).copied())
            .ok_or(Trap::Aborted(format!("move of dead allocation {id:?}")))?;
        // Allocate the new home first (may trap OOM). This consumes a fresh
        // id that is immediately retired below, matching the original
        // allocator's id sequence.
        let size = old.size;
        let new = self.alloc(size)?;
        // Preserve identity: the moved allocation keeps its provenance id.
        let new_base = new.base;
        self.allocs.get_mut(&new_base).expect("just inserted").id = id;
        self.base_by_id.remove(&new.id.0);
        // Copy the non-zero cells (the new home is all-zero: it came from
        // freed or never-touched space): every aligned word of the old
        // range, then the side map's cells inside it.
        let (start, end) = (old.base, old.base + size);
        let mut addr = start.next_multiple_of(WORD_BYTES);
        while addr < end {
            let c = self.cell(addr);
            if c != MemCell::ZERO {
                *self.cell_mut(new_base + (addr - start)) = c;
            }
            addr += WORD_BYTES;
        }
        let odd: Vec<(u64, MemCell)> = self
            .unaligned
            .range(start..end)
            .filter(|(_, &c)| c != MemCell::ZERO)
            .map(|(&a, &c)| (a, c))
            .collect();
        for (a, c) in odd {
            *self.cell_mut(new_base + (a - start)) = c;
        }
        // Release the old region (also resets the old words). `free` drops
        // the id → base entry and any cached hit for the *old* base; the
        // moved allocation is then re-indexed at its new home.
        self.free(old.base)?;
        let moved = Allocation {
            id,
            base: new_base,
            size,
        };
        self.base_by_id.insert(id.0, new_base);
        self.remember(moved);
        // Patch every stored pointer into the moved allocation: scan the
        // resident pages' dirty words and the side map for cells carrying
        // its provenance. Patching rewrites cells that are already
        // non-zero, so no watermark needs widening.
        let patch = |c: &mut MemCell| {
            if c.prov_raw == id.0 {
                let off = (c.val.as_i() as u64).wrapping_sub(old.base);
                c.val = Val::I((new_base + off) as i64);
            }
        };
        for page in self.pages.iter().flatten() {
            self.words[page.dirty()].iter_mut().for_each(patch);
        }
        self.unaligned.values_mut().for_each(patch);
        Ok((old.base, new_base))
    }

    /// Flip bit `bit` of the integer word at `addr`, returning
    /// `(old, new)` values. This is the fault plane's injection point for
    /// memory corruption: the word changes but its provenance tag does
    /// *not*, which is exactly the inconsistency CARAT's escape audit
    /// detects. Returns `None` for float cells (no meaningful bit index in
    /// the modeled word) — callers pick another site — and for an address
    /// outside every live allocation, leaving memory untouched: free space
    /// must keep reading zero when it is next allocated.
    pub fn flip_bit(&mut self, addr: u64, bit: u32) -> Option<(i64, i64)> {
        self.containing(addr)?;
        let c = self.cell_mut(addr);
        match c.val {
            Val::I(v) => {
                let new = v ^ (1i64 << (bit % 64));
                c.val = Val::I(new);
                Some((v, new))
            }
            Val::F(_) => None,
        }
    }

    /// Withdraw `[base, base + size)` from the free list so it is never
    /// handed out again — the quarantine half of CARAT's
    /// quarantine-and-relocate recovery. The range must currently be free
    /// (i.e. the damaged allocation was already moved away); returns
    /// `false` without modifying anything if it is not.
    pub fn quarantine_range(&mut self, base: u64, size: u64) -> bool {
        let Some((&fb, &fsz)) = self.free.range(..=base).next_back() else {
            return false;
        };
        if base + size > fb + fsz {
            return false;
        }
        self.free.remove(&fb);
        if fb < base {
            self.free.insert(fb, base - fb);
        }
        if base + size < fb + fsz {
            self.free.insert(base + size, (fb + fsz) - (base + size));
        }
        true
    }
}

/// One call frame. Its registers live in the interpreter's register stack
/// at `base..base + n_regs` of the function it runs; the innermost frame's
/// sit at the top.
struct Frame {
    func: FuncId,
    block: BlockId,
    /// Next instruction of `block`; its length means the terminator.
    ip: usize,
    /// Index of the frame's register 0 in the register stack.
    base: usize,
    /// Register to receive the callee's return value.
    ret_to: Option<Reg>,
}

/// A register's index in its frame's window of the register stack.
#[inline]
fn at(r: Reg) -> usize {
    r.0 as usize
}

/// Result of an intrinsic hook.
#[derive(Debug, Clone)]
pub enum HookAction {
    /// Continue, charging `cycles` and writing `value` to the destination.
    Continue {
        /// Value produced (if the intrinsic has a destination).
        value: Option<Val>,
        /// Cycles charged for the intrinsic's work.
        cycles: u64,
    },
    /// Charge `cycles`, then pause execution (status [`ExecStatus::Yielded`]).
    Yield {
        /// Cycles charged before yielding.
        cycles: u64,
    },
    /// Abort with a trap.
    Trap(Trap),
}

/// Environment supplied by the stack the program runs on.
pub trait RuntimeHooks {
    /// Handle an interweaving intrinsic. `mem` is the program's memory;
    /// `now` is the cycles consumed so far in this interpreter.
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        args: &[Val],
        mem: &mut Memory,
        now: u64,
    ) -> HookAction;

    /// Per-access policy (translation cost, protection). Returns extra
    /// cycles to charge. The default is a no-op (identity-mapped Nautilus:
    /// "TLB misses are extremely rare ... there are no page faults").
    fn check_access(&mut self, _addr: u64, _now: u64) -> Result<u64, Trap> {
        Ok(0)
    }

    /// Observe an allocation (CARAT cross-checks its tracking table).
    fn on_alloc(&mut self, _a: Allocation) {}

    /// Observe a free.
    fn on_free(&mut self, _a: Allocation) {}
}

/// Hooks for a plain run: no intrinsic behaviour, no access policy.
#[derive(Debug, Clone, Default)]
pub struct NullHooks;

impl RuntimeHooks for NullHooks {
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        _args: &[Val],
        _mem: &mut Memory,
        _now: u64,
    ) -> HookAction {
        match which {
            // With no runtime attached, reading the timer returns the cycle
            // count so far — good enough for organic programs.
            Intrinsic::ReadTimer => HookAction::Continue {
                value: Some(Val::I(0)),
                cycles: 1,
            },
            _ => HookAction::Continue {
                value: Some(Val::I(0)),
                cycles: 0,
            },
        }
    }
}

/// Why [`Interp::run`] returned.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecStatus {
    /// The outermost function returned (with its value, if any).
    Done(Option<Val>),
    /// The cycle budget was exhausted mid-program.
    OutOfFuel,
    /// A hook requested a yield (fiber switch, heartbeat promotion point).
    Yielded,
    /// Execution trapped.
    Trapped(Trap),
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Total cycles consumed (instruction costs + hook charges).
    pub cycles: u64,
    /// Instructions executed (terminators included).
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Intrinsics executed, by injected/organic split.
    pub injected_intrinsics: u64,
    /// Cycles charged by hooks for injected intrinsics — the numerator of
    /// every "instrumentation overhead" measurement.
    pub injected_cycles: u64,
    /// Values emitted through the `Trace` intrinsic (testing).
    pub trace: Vec<i64>,
}

/// The interpreter: a module, a memory, a frame stack over one register
/// stack, and statistics.
pub struct Interp {
    cfg: InterpConfig,
    /// Program memory (public so runtimes can inspect/move allocations).
    pub mem: Memory,
    frames: Vec<Frame>,
    /// Register stack: every live frame's registers, outermost first. A
    /// call grows it and a return truncates it, so once warm a call
    /// allocates nothing.
    regs: Vec<Val>,
    /// Pointer provenance of each register, parallel to `regs`.
    prov: Vec<Option<AllocId>>,
    /// Execution statistics.
    pub stats: ExecStats,
    done_value: Option<Val>,
}

impl Interp {
    /// New interpreter. The module is passed to [`Interp::start`] and
    /// [`Interp::run`] rather than borrowed, so long-lived owners (PIK
    /// processes, virtines, fibers) can hold interpreter state without
    /// self-referential lifetimes. Passing a *different* module between
    /// calls is a logic error; debug builds catch gross mismatches through
    /// out-of-range panics.
    pub fn new(cfg: InterpConfig) -> Interp {
        let mem = Memory::new(&cfg);
        Interp {
            cfg,
            mem,
            frames: Vec::new(),
            regs: Vec::new(),
            prov: Vec::new(),
            stats: ExecStats::default(),
            done_value: None,
        }
    }

    /// Begin a call to `f` with integer/float arguments. Replaces any
    /// existing call stack, registers included.
    pub fn start(&mut self, module: &Module, f: FuncId, args: &[Val]) {
        let func = module.func(f);
        assert_eq!(
            args.len(),
            func.n_params,
            "{} expects {} args",
            func.name,
            func.n_params
        );
        self.regs.clear();
        self.regs.resize(func.n_regs, Val::I(0));
        self.regs[..args.len()].copy_from_slice(args);
        self.prov.clear();
        self.prov.resize(func.n_regs, None);
        self.frames.clear();
        self.frames.push(Frame {
            func: f,
            block: BlockId(0),
            ip: 0,
            base: 0,
            ret_to: None,
        });
        self.done_value = None;
    }

    /// Swap this interpreter's memory for another, returning the previous
    /// one. This is how a *shared single address space* is modelled (the
    /// PIK kernel, §IV-A): the kernel owns one [`Memory`] and lends it to
    /// whichever process runs its slice; allocator state and contents
    /// travel with it, so every process's allocations coexist in the same
    /// physical space.
    pub fn swap_memory(&mut self, mem: Memory) -> Memory {
        std::mem::replace(&mut self.mem, mem)
    }

    /// Patch every register (in every live frame) whose provenance is `id`,
    /// relocating it from `old_base` to `new_base`. Pairs with
    /// [`Memory::move_allocation`] to complete a defragmentation step.
    pub fn patch_provenance(&mut self, id: AllocId, old_base: u64, new_base: u64) -> usize {
        let mut patched = 0;
        for (r, p) in self.regs.iter_mut().zip(&self.prov) {
            if *p == Some(id) {
                let off = (r.as_i() as u64).wrapping_sub(old_base);
                *r = Val::I((new_base + off) as i64);
                patched += 1;
            }
        }
        patched
    }

    /// Run until completion, yield, trap, or `fuel` cycles are consumed.
    /// Resumable: calling `run` again continues where the last call left
    /// off (after a yield or out-of-fuel return).
    ///
    /// The loop resolves the frame, its function and its register window
    /// once per frame entry (a call, a return, a resumption) and the block
    /// once per branch, then runs the block's instructions with the
    /// instruction pointer in a local. The fuel check still precedes every
    /// instruction and terminator, and the frame's place is written back
    /// before every exit and every call, so an interrupted run resumes at
    /// exactly the instruction it stopped before. The cycle and instruction
    /// counters live in locals, written back to [`Interp::stats`] at every
    /// exit; hooks receive the local cycle count as `now`. Instructions are
    /// decoded by reference straight out of the module, with `self` split
    /// into disjoint field borrows.
    pub fn run<H: RuntimeHooks + ?Sized>(
        &mut self,
        module: &Module,
        hooks: &mut H,
        fuel: u64,
    ) -> ExecStatus {
        let Interp {
            cfg,
            mem,
            frames,
            regs,
            prov,
            stats,
            done_value,
        } = self;
        let (mut cycles, mut insts) = (stats.cycles, stats.insts);
        let limit = cycles.saturating_add(fuel);
        'frame: loop {
            let Some(&Frame {
                func,
                mut block,
                mut ip,
                base,
                ..
            }) = frames.last()
            else {
                (stats.cycles, stats.insts) = (cycles, insts);
                return ExecStatus::Done(*done_value);
            };
            let func = module.func(func);
            // Record where the innermost frame stands, then return.
            macro_rules! suspend {
                ($status:expr) => {{
                    let fr = frames.last_mut().expect("live frame");
                    fr.block = block;
                    fr.ip = ip;
                    (stats.cycles, stats.insts) = (cycles, insts);
                    return $status;
                }};
            }
            let (rv, rp) = (&mut regs[base..], &mut prov[base..]);
            loop {
                let blk = &func.blocks[block.index()];
                while let Some(inst) = blk.insts.get(ip) {
                    if cycles >= limit {
                        suspend!(ExecStatus::OutOfFuel);
                    }
                    ip += 1;
                    insts += 1;
                    match inst {
                        Inst::ConstI(d, v) => {
                            cycles += cfg.cost_arith;
                            rv[at(*d)] = Val::I(*v);
                            rp[at(*d)] = None;
                        }
                        Inst::ConstF(d, v) => {
                            cycles += cfg.cost_arith;
                            rv[at(*d)] = Val::F(*v);
                            rp[at(*d)] = None;
                        }
                        Inst::Mov(d, s) => {
                            cycles += cfg.cost_arith;
                            rv[at(*d)] = rv[at(*s)];
                            rp[at(*d)] = rp[at(*s)];
                        }
                        Inst::Bin(d, op, a, b) => {
                            cycles += cfg.cost_arith;
                            let (va, vb) = (rv[at(*a)], rv[at(*b)]);
                            let val = match op {
                                BinOp::Add => Val::I(va.as_i().wrapping_add(vb.as_i())),
                                BinOp::Sub => Val::I(va.as_i().wrapping_sub(vb.as_i())),
                                BinOp::Mul => Val::I(va.as_i().wrapping_mul(vb.as_i())),
                                BinOp::Div => {
                                    if vb.as_i() == 0 {
                                        suspend!(ExecStatus::Trapped(Trap::DivByZero));
                                    }
                                    Val::I(va.as_i().wrapping_div(vb.as_i()))
                                }
                                BinOp::Rem => {
                                    if vb.as_i() == 0 {
                                        suspend!(ExecStatus::Trapped(Trap::DivByZero));
                                    }
                                    Val::I(va.as_i().wrapping_rem(vb.as_i()))
                                }
                                BinOp::And => Val::I(va.as_i() & vb.as_i()),
                                BinOp::Or => Val::I(va.as_i() | vb.as_i()),
                                BinOp::Xor => Val::I(va.as_i() ^ vb.as_i()),
                                BinOp::Shl => Val::I(va.as_i().wrapping_shl(vb.as_i() as u32)),
                                BinOp::Shr => Val::I(va.as_i().wrapping_shr(vb.as_i() as u32)),
                                BinOp::FAdd => Val::F(va.as_f() + vb.as_f()),
                                BinOp::FSub => Val::F(va.as_f() - vb.as_f()),
                                BinOp::FMul => Val::F(va.as_f() * vb.as_f()),
                                BinOp::FDiv => Val::F(va.as_f() / vb.as_f()),
                            };
                            // Pointer arithmetic through Add/Sub keeps
                            // provenance when exactly one operand is a pointer.
                            let p = match op {
                                BinOp::Add | BinOp::Sub => match (rp[at(*a)], rp[at(*b)]) {
                                    (Some(p), None) | (None, Some(p)) => Some(p),
                                    _ => None,
                                },
                                _ => None,
                            };
                            rv[at(*d)] = val;
                            rp[at(*d)] = p;
                        }
                        Inst::Cmp(d, op, a, b) => {
                            cycles += cfg.cost_arith;
                            let (va, vb) = (rv[at(*a)], rv[at(*b)]);
                            let r = match (va, vb) {
                                (Val::F(_), _) | (_, Val::F(_)) => {
                                    let (x, y) = (va.as_f(), vb.as_f());
                                    match op {
                                        CmpOp::Eq => x == y,
                                        CmpOp::Ne => x != y,
                                        CmpOp::Lt => x < y,
                                        CmpOp::Le => x <= y,
                                        CmpOp::Gt => x > y,
                                        CmpOp::Ge => x >= y,
                                    }
                                }
                                (Val::I(x), Val::I(y)) => match op {
                                    CmpOp::Eq => x == y,
                                    CmpOp::Ne => x != y,
                                    CmpOp::Lt => x < y,
                                    CmpOp::Le => x <= y,
                                    CmpOp::Gt => x > y,
                                    CmpOp::Ge => x >= y,
                                },
                            };
                            rv[at(*d)] = Val::I(r as i64);
                            rp[at(*d)] = None;
                        }
                        Inst::Select(d, c, a, b) => {
                            cycles += cfg.cost_arith;
                            let s = if rv[at(*c)].is_true() { a } else { b };
                            rv[at(*d)] = rv[at(*s)];
                            rp[at(*d)] = rp[at(*s)];
                        }
                        Inst::Alloc(d, s) => {
                            cycles += cfg.cost_alloc;
                            let size = rv[at(*s)].as_i().max(0) as u64;
                            match mem.alloc(size) {
                                Ok(a) => {
                                    hooks.on_alloc(a);
                                    rv[at(*d)] = Val::I(a.base as i64);
                                    rp[at(*d)] = Some(a.id);
                                }
                                Err(t) => suspend!(ExecStatus::Trapped(t)),
                            }
                        }
                        Inst::Free(p) => {
                            cycles += cfg.cost_free;
                            match mem.free(rv[at(*p)].as_ptr()) {
                                Ok(a) => hooks.on_free(a),
                                Err(t) => suspend!(ExecStatus::Trapped(t)),
                            }
                        }
                        Inst::Load(d, a, off) => {
                            cycles += cfg.cost_load;
                            stats.loads += 1;
                            // Wraps like `Gep`: an address past the top of
                            // the space is a bad access, not an overflow.
                            let addr = rv[at(*a)].as_i().wrapping_add(*off) as u64;
                            match hooks.check_access(addr, cycles) {
                                Ok(extra) => cycles += extra,
                                Err(t) => suspend!(ExecStatus::Trapped(t)),
                            }
                            match mem.load(addr) {
                                Ok((v, p)) => {
                                    rv[at(*d)] = v;
                                    rp[at(*d)] = p;
                                }
                                Err(t) => suspend!(ExecStatus::Trapped(t)),
                            }
                        }
                        Inst::Store(a, off, v) => {
                            cycles += cfg.cost_store;
                            stats.stores += 1;
                            let addr = rv[at(*a)].as_i().wrapping_add(*off) as u64;
                            match hooks.check_access(addr, cycles) {
                                Ok(extra) => cycles += extra,
                                Err(t) => suspend!(ExecStatus::Trapped(t)),
                            }
                            if let Err(t) = mem.store(addr, rv[at(*v)], rp[at(*v)]) {
                                suspend!(ExecStatus::Trapped(t));
                            }
                        }
                        Inst::Gep(d, b, i, scale, off) => {
                            cycles += cfg.cost_gep;
                            let addr = rv[at(*b)]
                                .as_i()
                                .wrapping_add(rv[at(*i)].as_i().wrapping_mul(*scale))
                                .wrapping_add(*off);
                            rv[at(*d)] = Val::I(addr);
                            rp[at(*d)] = rp[at(*b)];
                        }
                        Inst::Call(dst, g, args) => {
                            cycles += cfg.cost_call;
                            if frames.len() >= cfg.max_depth {
                                suspend!(ExecStatus::Trapped(Trap::StackOverflow));
                            }
                            let callee = module.func(*g);
                            debug_assert_eq!(
                                args.len(),
                                callee.n_params,
                                "arity mismatch calling {}",
                                callee.name
                            );
                            let caller = frames.last_mut().expect("live frame");
                            caller.block = block;
                            caller.ip = ip;
                            // The callee's window starts at the top of the
                            // stack; its parameters are the first registers.
                            let top = regs.len();
                            regs.resize(top + callee.n_regs, Val::I(0));
                            prov.resize(top + callee.n_regs, None);
                            for (i, &r) in args.iter().enumerate() {
                                regs[top + i] = regs[base + at(r)];
                                prov[top + i] = prov[base + at(r)];
                            }
                            frames.push(Frame {
                                func: *g,
                                block: BlockId(0),
                                ip: 0,
                                base: top,
                                ret_to: *dst,
                            });
                            continue 'frame;
                        }
                        Inst::Intr(dst, which, args) => {
                            let which = *which;
                            // Intrinsics take at most a handful of arguments;
                            // marshal them through a stack buffer so the hot
                            // path stays allocation-free.
                            let mut buf = [Val::I(0); 4];
                            let heap: Vec<Val>;
                            let argv: &[Val] = if args.len() <= buf.len() {
                                for (slot, &r) in buf.iter_mut().zip(args) {
                                    *slot = rv[at(r)];
                                }
                                &buf[..args.len()]
                            } else {
                                heap = args.iter().map(|&r| rv[at(r)]).collect();
                                &heap
                            };
                            if which.is_injected() {
                                stats.injected_intrinsics += 1;
                            }
                            let action = hooks.intrinsic(which, argv, mem, cycles);
                            if which == Intrinsic::Trace {
                                if let Some(v) = argv.first() {
                                    stats.trace.push(v.as_i());
                                }
                            }
                            let (charged, value, yielded) = match action {
                                HookAction::Continue { value, cycles } => {
                                    (cycles, value.unwrap_or(Val::I(0)), false)
                                }
                                HookAction::Yield { cycles } => (cycles, Val::I(0), true),
                                HookAction::Trap(t) => suspend!(ExecStatus::Trapped(t)),
                            };
                            cycles += charged;
                            if which.is_injected() {
                                stats.injected_cycles += charged;
                            }
                            if let Some(d) = dst {
                                rv[at(*d)] = value;
                                rp[at(*d)] = None;
                            }
                            if yielded {
                                suspend!(ExecStatus::Yielded);
                            }
                        }
                    }
                }

                if cycles >= limit {
                    suspend!(ExecStatus::OutOfFuel);
                }
                insts += 1;
                match blk.term.as_ref().expect("verified IR") {
                    Term::Br(t) => {
                        cycles += cfg.cost_branch;
                        block = *t;
                    }
                    Term::CondBr(c, t, e) => {
                        cycles += cfg.cost_branch;
                        block = if rv[at(*c)].is_true() { *t } else { *e };
                    }
                    Term::Ret(v) => {
                        cycles += cfg.cost_ret;
                        let (val, p) = match v {
                            Some(r) => (Some(rv[at(*r)]), rp[at(*r)]),
                            None => (None, None),
                        };
                        let ret_to = frames.pop().expect("live frame").ret_to;
                        regs.truncate(base);
                        prov.truncate(base);
                        match frames.last() {
                            Some(caller) => {
                                if let Some(d) = ret_to {
                                    regs[caller.base + at(d)] = val.unwrap_or(Val::I(0));
                                    prov[caller.base + at(d)] = p;
                                }
                            }
                            None => *done_value = val,
                        }
                        continue 'frame;
                    }
                }
                ip = 0;
            }
        }
    }

    /// Run to completion with a generous default budget; panics on traps.
    /// Convenience for tests and single-shot program execution.
    pub fn run_to_completion<H: RuntimeHooks + ?Sized>(
        &mut self,
        module: &Module,
        hooks: &mut H,
    ) -> Option<Val> {
        loop {
            match self.run(module, hooks, u64::MAX / 4) {
                ExecStatus::Done(v) => return v,
                ExecStatus::Yielded => continue,
                ExecStatus::OutOfFuel => continue,
                ExecStatus::Trapped(t) => panic!("program trapped: {t:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::inst::{BinOp, CmpOp, Intrinsic};

    fn run_main(m: &Module, args: &[Val]) -> (Option<Val>, ExecStats) {
        let main = m.by_name("main").expect("main");
        let mut it = Interp::new(InterpConfig::default());
        it.start(m, main, args);
        let v = it.run_to_completion(m, &mut NullHooks);
        (v, it.stats.clone())
    }

    #[test]
    fn flip_bit_corrupts_word_but_not_provenance() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        mem.store(a.base, Val::I(0x10), Some(a.id)).expect("store");
        let (old, new) = mem.flip_bit(a.base, 3).expect("int cell");
        assert_eq!(old, 0x10);
        assert_eq!(new, 0x18);
        // The stale provenance tag survives the flip — that mismatch is
        // what the CARAT audit keys on.
        assert_eq!(mem.load(a.base).expect("load"), (Val::I(0x18), Some(a.id)));
        // Float cells are not flippable.
        mem.store(a.base + 8, Val::F(1.5), None).expect("store");
        assert!(mem.flip_bit(a.base + 8, 0).is_none());
    }

    #[test]
    fn a_word_must_lie_wholly_inside_one_allocation() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        let b = mem.alloc(64).expect("alloc");
        assert_eq!(b.base, a.base + a.size, "adjacent allocations");
        // The last whole word of `a` is in bounds.
        let last = a.base + a.size - 8;
        mem.store(last, Val::I(7), None).expect("last word stores");
        assert_eq!(mem.load(last), Ok((Val::I(7), None)));
        // A word starting at its last byte spills seven bytes into `b`.
        let over = a.base + a.size - 1;
        assert_eq!(
            mem.store(over, Val::I(9), None),
            Err(Trap::BadAccess {
                addr: over,
                write: true
            })
        );
        assert_eq!(
            mem.load(over),
            Err(Trap::BadAccess {
                addr: over,
                write: false
            })
        );
        // Past the bump pointer's last allocation, too.
        let tail = b.base + b.size - 1;
        assert!(mem.load(tail).is_err());
        assert!(mem.store(tail, Val::I(1), None).is_err());
    }

    #[test]
    fn flip_bit_outside_live_allocations_leaves_memory_untouched() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        let pin = mem.alloc(64).expect("alloc");
        mem.free(a.base).expect("free");
        let pages = mem.resident_pages();
        // Freed space and never-allocated space past the bump pointer.
        assert!(mem.flip_bit(a.base + 8, 3).is_none());
        assert!(mem.flip_bit(pin.base + 4096, 3).is_none());
        assert_eq!(mem.resident_pages(), pages, "no page materialised");
        // The next allocation in the hole still reads zero.
        let b = mem.alloc(64).expect("alloc");
        assert_eq!(b.base, a.base);
        assert_eq!(mem.load(a.base + 8).expect("load"), (Val::I(0), None));
    }

    #[test]
    fn move_allocation_carries_unaligned_cells_and_patches_them() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        let holder = mem.alloc(64).expect("alloc");
        // Overlapping words inside `a`: an aligned one and one a byte past it.
        mem.store(a.base + 16, Val::I(7), None).expect("store");
        mem.store(a.base + 17, Val::I(9), None).expect("store");
        // An unaligned pointer word into `a`, held outside it.
        mem.store(holder.base + 3, Val::I((a.base + 17) as i64), Some(a.id))
            .expect("store");

        let (old, new) = mem.move_allocation(a.id).expect("move");
        assert_eq!(mem.load(new + 16).expect("load"), (Val::I(7), None));
        assert_eq!(mem.load(new + 17).expect("load"), (Val::I(9), None));
        assert_eq!(
            mem.load(holder.base + 3).expect("load"),
            (Val::I((new + 17) as i64), Some(a.id)),
            "the unaligned pointer word is patched"
        );
        assert!(mem.load(old + 17).is_err(), "old home is dead");
    }

    #[test]
    fn free_clears_unaligned_cells_in_range_only() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        let b = mem.alloc(64).expect("alloc");
        mem.store(a.base + 5, Val::I(1), Some(b.id)).expect("store");
        // The last unaligned word wholly inside `a`.
        mem.store(a.base + 55, Val::I(2), None).expect("store");
        mem.store(b.base + 1, Val::I(3), None).expect("store");
        mem.store(b.base, Val::I(4), None).expect("store");
        mem.free(a.base).expect("free");

        let again = mem.alloc(64).expect("alloc");
        assert_eq!(again.base, a.base, "first fit reclaims the hole");
        assert_eq!(mem.load(a.base + 5).expect("load"), (Val::I(0), None));
        assert_eq!(mem.load(a.base + 55).expect("load"), (Val::I(0), None));
        assert_eq!(mem.load(b.base + 1).expect("load"), (Val::I(3), None));
        assert_eq!(mem.load(b.base).expect("load"), (Val::I(4), None));
    }

    #[test]
    fn quarantine_range_withholds_freed_frame() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        let _b = mem.alloc(64).expect("alloc"); // pin the bump past `a`
        let base = a.base;
        // Live range: not free, so not quarantinable.
        assert!(!mem.quarantine_range(base, 64));
        mem.free(base).expect("free");
        assert!(mem.quarantine_range(base, 64));
        // The hole is gone: a fresh 64-byte alloc must land elsewhere.
        let c = mem.alloc(64).expect("alloc");
        assert_ne!(c.base, base);
        // Double quarantine is a no-op failure.
        assert!(!mem.quarantine_range(base, 64));
    }

    #[test]
    fn quarantine_range_splits_larger_hole() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(24).expect("alloc");
        let _pin = mem.alloc(8).expect("alloc");
        mem.free(a.base).expect("free");
        // Quarantine only the middle word of the 24-byte hole.
        assert!(mem.quarantine_range(a.base + 8, 8));
        let holes = mem.free_blocks();
        assert!(holes.contains(&(a.base, 8)));
        assert!(holes.contains(&(a.base + 16, 8)));
        assert!(!holes
            .iter()
            .any(|&(b, s)| b <= a.base + 8 && a.base + 16 <= b + s));
    }

    #[test]
    fn arithmetic_program() {
        // main(x) = x * 2 + 3
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 1);
        let x = fb.param(0);
        let two = fb.const_i(2);
        let three = fb.const_i(3);
        let t = fb.bin(BinOp::Mul, x, two);
        let r = fb.bin(BinOp::Add, t, three);
        fb.ret(Some(r));
        m.add(fb.finish());
        let (v, stats) = run_main(&m, &[Val::I(10)]);
        assert_eq!(v, Some(Val::I(23)));
        assert!(stats.cycles > 0);
    }

    #[test]
    fn loop_sums_array() {
        // main(n): a = alloc(8n); a[i] = i; return sum(a[i])
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 1);
        let n = fb.param(0);
        let eight = fb.const_i(8);
        let bytes = fb.bin(BinOp::Mul, n, eight);
        let a = fb.alloc(bytes);
        let zero = fb.const_i(0);
        let i = fb.mov(zero);
        let sum = fb.mov(zero);
        let head = fb.new_block();
        let body = fb.new_block();
        let head2 = fb.new_block();
        let body2 = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        // fill loop
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, body, head2);
        fb.switch_to(body);
        let p = fb.gep(a, i, 8, 0);
        fb.store(p, 0, i);
        let one = fb.const_i(1);
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(head);
        // sum loop
        fb.switch_to(head2);
        fb.mov_to(i, zero);
        fb.br(body2);
        fb.switch_to(body2);
        let c2 = fb.cmp(CmpOp::Lt, i, n);
        let cont = fb.new_block();
        fb.cond_br(c2, cont, exit);
        fb.switch_to(cont);
        let p2 = fb.gep(a, i, 8, 0);
        let v = fb.load(p2, 0);
        fb.bin_to(sum, BinOp::Add, sum, v);
        let one2 = fb.const_i(1);
        fb.bin_to(i, BinOp::Add, i, one2);
        fb.br(body2);
        fb.switch_to(exit);
        fb.free(a);
        fb.ret(Some(sum));
        m.add(fb.finish());

        let (v, stats) = run_main(&m, &[Val::I(10)]);
        assert_eq!(v, Some(Val::I(45)));
        assert_eq!(stats.loads, 10);
        assert_eq!(stats.stores, 10);
    }

    #[test]
    fn multi_array_loadstore_sums_across_pages() {
        // Eight live arrays of 32 Ki words each (64 pages apiece), their
        // pointers parked in a directory: every pass writes each array
        // four consecutive words per iteration, then sums it back.
        const ARRAYS: i64 = 8;
        const WORDS: i64 = 32_768;
        const PASSES: i64 = 2;
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let (n, nar, passes) = (fb.const_i(WORDS), fb.const_i(ARRAYS), fb.const_i(PASSES));
        let (zero, one, four, eight) = (fb.const_i(0), fb.const_i(1), fb.const_i(4), fb.const_i(8));
        let dsize = fb.const_i(ARRAYS * 8);
        let dir = fb.alloc(dsize);
        let (sum, p, a, i) = (fb.mov(zero), fb.mov(zero), fb.mov(zero), fb.mov(zero));
        let [sh, sb, oh, exit] = [0; 4].map(|_| fb.new_block());
        // Setup: allocate the arrays, parking each pointer in the directory.
        fb.br(sh);
        fb.switch_to(sh);
        let sc = fb.cmp(CmpOp::Lt, a, nar);
        fb.cond_br(sc, sb, oh);
        fb.switch_to(sb);
        let bytes = fb.bin(BinOp::Mul, n, eight);
        let fresh = fb.alloc(bytes);
        let slot = fb.gep(dir, a, 8, 0);
        fb.store(slot, 0, fresh);
        fb.bin_to(a, BinOp::Add, a, one);
        fb.br(sh);
        // Pass loop: one sweep writing every array, one reading them back.
        fb.switch_to(oh);
        let first = fb.new_block();
        let oc = fb.cmp(CmpOp::Lt, p, passes);
        fb.cond_br(oc, first, exit);
        fb.switch_to(first);
        for write in [true, false] {
            let [ah, ab, wh, wb, anext, done] = [0; 6].map(|_| fb.new_block());
            fb.mov_to(a, zero);
            fb.br(ah);
            fb.switch_to(ah);
            let ac = fb.cmp(CmpOp::Lt, a, nar);
            fb.cond_br(ac, ab, done);
            fb.switch_to(ab);
            let slot = fb.gep(dir, a, 8, 0);
            let arr = fb.load(slot, 0);
            fb.mov_to(i, zero);
            fb.br(wh);
            fb.switch_to(wh);
            let wc = fb.cmp(CmpOp::Lt, i, n);
            fb.cond_br(wc, wb, anext);
            fb.switch_to(wb);
            let addr = fb.gep(arr, i, 8, 0);
            for off in (0..32).step_by(8) {
                if write {
                    fb.store(addr, off, i);
                } else {
                    let v = fb.load(addr, off);
                    fb.bin_to(sum, BinOp::Add, sum, v);
                }
            }
            fb.bin_to(i, BinOp::Add, i, four);
            fb.br(wh);
            fb.switch_to(anext);
            fb.bin_to(a, BinOp::Add, a, one);
            fb.br(ah);
            fb.switch_to(done);
        }
        fb.bin_to(p, BinOp::Add, p, one);
        fb.br(oh);
        fb.switch_to(exit);
        fb.ret(Some(sum));
        m.add(fb.finish());

        // Word w holds 4 * (w / 4), so one array sums to 8 * q * (q - 1)
        // with q = WORDS / 4.
        let q = WORDS / 4;
        let (v, stats) = run_main(&m, &[]);
        assert_eq!(v, Some(Val::I(PASSES * ARRAYS * 8 * q * (q - 1))));
        assert_eq!(stats.stores, (ARRAYS + PASSES * ARRAYS * WORDS) as u64);
        assert_eq!(stats.loads, (PASSES * ARRAYS * (2 + WORDS)) as u64);
    }

    #[test]
    fn recursive_fib() {
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)  — Fig. 5's kernel.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("fib", 1);
        let n = fb.param(0);
        let two = fb.const_i(2);
        let c = fb.cmp(CmpOp::Lt, n, two);
        let base = fb.new_block();
        let rec = fb.new_block();
        fb.cond_br(c, base, rec);
        fb.switch_to(base);
        fb.ret(Some(n));
        fb.switch_to(rec);
        let one = fb.const_i(1);
        let n1 = fb.bin(BinOp::Sub, n, one);
        let n2 = fb.bin(BinOp::Sub, n, two);
        let fid = FuncId(0);
        let a = fb.call(fid, &[n1]);
        let b = fb.call(fid, &[n2]);
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        m.add(fb.finish());

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[Val::I(15)]);
        let v = it.run_to_completion(&m, &mut NullHooks);
        assert_eq!(v, Some(Val::I(610)));
    }

    #[test]
    fn fuel_bounds_execution() {
        // Infinite loop must return OutOfFuel, and remain resumable.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let head = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        fb.br(head);
        m.add(fb.finish());

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        assert_eq!(it.run(&m, &mut NullHooks, 1000), ExecStatus::OutOfFuel);
        let c1 = it.stats.cycles;
        assert_eq!(it.run(&m, &mut NullHooks, 1000), ExecStatus::OutOfFuel);
        assert!(it.stats.cycles >= c1 + 1000);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 1);
        let x = fb.param(0);
        let z = fb.const_i(0);
        let r = fb.bin(BinOp::Div, x, z);
        fb.ret(Some(r));
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[Val::I(5)]);
        assert_eq!(
            it.run(&m, &mut NullHooks, u64::MAX / 4),
            ExecStatus::Trapped(Trap::DivByZero)
        );
    }

    #[test]
    fn wild_access_traps() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let bogus = fb.const_i(0xdead_beef);
        let _ = fb.load(bogus, 0);
        fb.ret(None);
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        match it.run(&m, &mut NullHooks, u64::MAX / 4) {
            ExecStatus::Trapped(Trap::BadAccess { addr, write: false }) => {
                assert_eq!(addr, 0xdead_beef)
            }
            other => panic!("expected BadAccess, got {other:?}"),
        }
    }

    #[test]
    fn stack_overflow_traps() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        fb.call(FuncId(0), &[]);
        fb.ret(None);
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        assert_eq!(
            it.run(&m, &mut NullHooks, u64::MAX / 4),
            ExecStatus::Trapped(Trap::StackOverflow)
        );
    }

    #[test]
    fn trace_intrinsic_records() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let v = fb.const_i(7);
        fb.intr_void(Intrinsic::Trace, &[v]);
        fb.ret(None);
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        it.run_to_completion(&m, &mut NullHooks);
        assert_eq!(it.stats.trace, vec![7]);
    }

    #[test]
    fn allocator_reuses_freed_blocks_and_coalesces() {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let a = mem.alloc(64).unwrap();
        let b = mem.alloc(64).unwrap();
        let c = mem.alloc(64).unwrap();
        assert_eq!(mem.n_allocs(), 3);
        mem.free(a.base).unwrap();
        mem.free(b.base).unwrap();
        // a and b coalesce into one 128-byte hole.
        assert_eq!(mem.free_holes(), 1);
        let d = mem.alloc(128).unwrap();
        assert_eq!(d.base, a.base, "coalesced hole should be reused");
        mem.free(c.base).unwrap();
        mem.free(d.base).unwrap();
    }

    #[test]
    fn move_allocation_patches_stored_pointers() {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let a = mem.alloc(64).unwrap();
        let holder = mem.alloc(16).unwrap();
        // holder[0] = &a[24]; a[24] = 99.
        mem.store(holder.base, Val::I((a.base + 24) as i64), Some(a.id))
            .unwrap();
        mem.store(a.base + 24, Val::I(99), None).unwrap();

        let (old, new) = mem.move_allocation(a.id).unwrap();
        assert_eq!(old, a.base);
        assert_ne!(new, old);
        // The stored pointer has been patched and still reaches the value.
        let (ptr, prov) = mem.load(holder.base).unwrap();
        assert_eq!(ptr.as_ptr(), new + 24);
        assert_eq!(prov, Some(a.id));
        let (v, _) = mem.load(ptr.as_ptr()).unwrap();
        assert_eq!(v, Val::I(99));
        // The old location is gone.
        assert!(mem.load(old + 24).is_err());
    }

    #[test]
    fn free_leaves_no_residual_words() {
        // Fill a large allocation (pointer-carrying words included), free
        // it, and reclaim the same region: every word must read back as the
        // fresh zero with no provenance, and a later move of the pointee
        // must find nothing to patch in the reclaimed region.
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let big = mem.alloc(64 * 1024).unwrap();
        let other = mem.alloc(64).unwrap();
        for i in 0..big.size / 8 {
            mem.store(big.base + i * 8, Val::I(other.base as i64), Some(other.id))
                .unwrap();
        }
        assert!(mem.resident_pages() > 0);
        mem.free(big.base).unwrap();

        let again = mem.alloc(64 * 1024).unwrap();
        assert_eq!(again.base, big.base, "first-fit reclaims the hole");
        for i in 0..again.size / 8 {
            assert_eq!(mem.load(again.base + i * 8).unwrap(), (Val::I(0), None));
        }
        // Residual provenant words would be rewritten here; zeros must stay.
        mem.move_allocation(other.id).unwrap();
        for i in 0..again.size / 8 {
            assert_eq!(mem.load(again.base + i * 8).unwrap(), (Val::I(0), None));
        }
    }

    #[test]
    fn allocation_cache_never_serves_stale_entries() {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let a = mem.alloc(64).unwrap();
        mem.store(a.base, Val::I(1), None).unwrap(); // cache primed on `a`
        mem.free(a.base).unwrap();
        // A stale cache entry would answer this load; it must trap.
        assert!(mem.load(a.base).is_err());

        let b = mem.alloc(64).unwrap();
        assert_eq!(b.base, a.base, "hole reused");
        mem.store(b.base + 8, Val::I(2), None).unwrap();
        let (old, new) = mem.move_allocation(b.id).unwrap();
        assert!(mem.load(old + 8).is_err(), "old home must be dead");
        assert_eq!(mem.load(new + 8).unwrap(), (Val::I(2), None));
        assert_eq!(mem.base_of(b.id), Some(new));
        assert_eq!(mem.base_of(a.id), None);
    }

    #[test]
    fn provenance_flows_through_gep_and_memory() {
        // p = alloc; q = gep p; store q to memory; load it back: provenance
        // must survive the round trip.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let one = fb.const_i(1);
        let q = fb.gep(p, one, 8, 0);
        let slot_sz = fb.const_i(8);
        let slot = fb.alloc(slot_sz);
        fb.store(slot, 0, q);
        let back = fb.load(slot, 0);
        fb.store(back, 0, one); // store through the reloaded pointer
        fb.ret(Some(p));
        m.add(fb.finish());

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        let p = it.run_to_completion(&m, &mut NullHooks).unwrap().as_ptr();
        let (v, _) = it.mem.load(p + 8).unwrap();
        assert_eq!(v, Val::I(1));
    }

    #[test]
    fn overflowing_effective_address_traps() {
        // The effective address wraps like `Gep`'s: past the top of the
        // space it is a bad access, never an arithmetic overflow.
        let wrapped = i64::MAX.wrapping_add(8) as u64;
        for write in [false, true] {
            let mut m = Module::new();
            let mut fb = FunctionBuilder::new("main", 0);
            let top = fb.const_i(i64::MAX);
            if write {
                fb.store(top, 8, top);
            } else {
                let _ = fb.load(top, 8);
            }
            fb.ret(None);
            m.add(fb.finish());
            let mut it = Interp::new(InterpConfig::default());
            it.start(&m, FuncId(0), &[]);
            assert_eq!(
                it.run(&m, &mut NullHooks, u64::MAX / 4),
                ExecStatus::Trapped(Trap::BadAccess {
                    addr: wrapped,
                    write
                })
            );
        }
    }

    /// Yields at every `Yield` intrinsic; no other behaviour.
    struct YieldHooks;

    impl RuntimeHooks for YieldHooks {
        fn intrinsic(
            &mut self,
            which: Intrinsic,
            _args: &[Val],
            _mem: &mut Memory,
            _now: u64,
        ) -> HookAction {
            match which {
                Intrinsic::Yield => HookAction::Yield { cycles: 2 },
                _ => HookAction::Continue {
                    value: None,
                    cycles: 0,
                },
            }
        }
    }

    #[test]
    fn patch_provenance_relocates_every_suspended_frame() {
        // main: p = alloc 64; p[8] = 41; r = callee(p); return r + p[8].
        // callee(x): y = &x[1]; yield; return *y + 1.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let size = fb.const_i(64);
        let p = fb.alloc(size);
        let v = fb.const_i(41);
        fb.store(p, 8, v);
        let r = fb.call(FuncId(1), &[p]);
        let w = fb.load(p, 8);
        let s = fb.bin(BinOp::Add, r, w);
        fb.ret(Some(s));
        m.add(fb.finish());
        let mut fb = FunctionBuilder::new("callee", 1);
        let x = fb.param(0);
        let one = fb.const_i(1);
        let y = fb.gep(x, one, 8, 0);
        fb.intr_void(Intrinsic::Yield, &[]);
        let got = fb.load(y, 0);
        let r1 = fb.bin(BinOp::Add, got, one);
        fb.ret(Some(r1));
        m.add(fb.finish());

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        assert_eq!(
            it.run(&m, &mut YieldHooks, u64::MAX / 4),
            ExecStatus::Yielded
        );
        assert_eq!(it.frames.len(), 2, "suspended inside the callee");
        let reg = |it: &Interp, frame: usize, r: Reg| it.regs[it.frames[frame].base + at(r)];
        let id = it.prov[it.frames[0].base + at(p)].expect("p is a pointer");
        let old = reg(&it, 0, p).as_ptr();
        let (moved_from, new) = it.mem.move_allocation(id).expect("move");
        assert_eq!(moved_from, old);
        assert_ne!(new, old);
        // The caller's `p` and the callee's `x` and `y`.
        assert_eq!(it.patch_provenance(id, old, new), 3);
        assert_eq!(reg(&it, 0, p), Val::I(new as i64));
        assert_eq!(reg(&it, 1, x), Val::I(new as i64));
        assert_eq!(reg(&it, 1, y), Val::I(new as i64 + 8));
        assert_eq!(
            it.run(&m, &mut YieldHooks, u64::MAX / 4),
            ExecStatus::Done(Some(Val::I(83)))
        );
    }

    #[test]
    fn interpreter_is_reusable_after_a_trap_mid_recursion() {
        // down(n) = down(n + 1): overflows the call stack, leaving frames
        // and their registers behind.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("down", 1);
        let n = fb.param(0);
        let one = fb.const_i(1);
        let next = fb.bin(BinOp::Add, n, one);
        let r = fb.call(FuncId(0), &[next]);
        fb.ret(Some(r));
        m.add(fb.finish());
        let cfg = InterpConfig {
            max_depth: 64,
            ..InterpConfig::default()
        };
        let mut it = Interp::new(cfg.clone());
        it.start(&m, FuncId(0), &[Val::I(0)]);
        assert_eq!(
            it.run(&m, &mut NullHooks, u64::MAX / 4),
            ExecStatus::Trapped(Trap::StackOverflow)
        );
        assert_eq!(it.frames.len(), 64);

        let fib = crate::programs::fib(12);
        let mut fresh = Interp::new(cfg);
        fresh.start(&fib.module, fib.entry, &fib.args);
        let want = fresh.run_to_completion(&fib.module, &mut NullHooks);

        it.stats = ExecStats::default();
        it.start(&fib.module, fib.entry, &fib.args);
        assert_eq!(it.frames.len(), 1, "start drops the trapped frames");
        assert_eq!(it.regs.len(), fib.module.func(fib.entry).n_regs);
        assert_eq!(it.prov.len(), it.regs.len());
        assert_eq!(it.run_to_completion(&fib.module, &mut NullHooks), want);
        assert_eq!(want, Some(Val::I(144)));
        assert_eq!(it.stats, fresh.stats);
        assert!(it.regs.is_empty() && it.prov.is_empty());
    }

    #[test]
    fn pages_materialised_out_of_address_order_keep_their_words() {
        let mut mem = Memory::new(&InterpConfig::default());
        let big = mem.alloc(3 * GUEST_PAGE_BYTES).expect("alloc");
        let target = mem.alloc(64).expect("alloc");
        // A pointer into `target` on each guest page of `big`: the high
        // page first, then the low one, then the middle one.
        let slots = [2, 0, 1].map(|g| big.base + g * GUEST_PAGE_BYTES + 8 * (g + 1));
        let aimed = |k: usize, base: u64| Val::I((base + 8 * k as u64) as i64);
        for (k, &slot) in slots.iter().enumerate() {
            mem.store(slot, aimed(k, target.base), Some(target.id))
                .expect("store");
        }
        // An unaligned word on a storage page of its own.
        let odd = big.base + GUEST_PAGE_BYTES + 2 * PAGE_BYTES + 3;
        mem.store(odd, Val::I(-7), None).expect("store");
        assert_eq!(
            mem.pages[mem.page_index(slots[0])].map(|p| p.at),
            Some(0),
            "the first page touched owns the arena's first words"
        );
        assert_eq!(mem.words.len(), 4 * PAGE_WORDS);
        assert_eq!(mem.resident_pages(), 3);
        for (k, &slot) in slots.iter().enumerate() {
            assert_eq!(mem.load(slot), Ok((aimed(k, target.base), Some(target.id))));
        }
        assert_eq!(mem.load(odd), Ok((Val::I(-7), None)));
        assert_eq!(mem.load(slots[0] + 8), Ok((Val::I(0), None)), "resident");
        assert_eq!(
            mem.load(big.base + PAGE_BYTES),
            Ok((Val::I(0), None)),
            "absent"
        );

        let snapshot = mem.clone();
        let (_, new) = mem.move_allocation(target.id).expect("move");
        for (k, &slot) in slots.iter().enumerate() {
            assert_eq!(mem.load(slot), Ok((aimed(k, new), Some(target.id))));
            assert_eq!(
                snapshot.load(slot),
                Ok((aimed(k, target.base), Some(target.id))),
                "a clone keeps its own arena"
            );
        }

        mem.free(big.base).expect("free");
        assert!(mem.load(slots[0]).is_err());
        assert_eq!(mem.resident_pages(), 3, "free releases no page");
        let again = mem.alloc(big.size).expect("alloc");
        assert_eq!(again.base, big.base, "first fit reclaims the hole");
        for addr in (again.base..again.base + again.size).step_by(WORD_BYTES as usize) {
            assert_eq!(mem.load(addr), Ok((Val::I(0), None)), "{addr:#x}");
        }
        assert_eq!(mem.load(odd), Ok((Val::I(0), None)));
        assert_eq!(snapshot.load(odd), Ok((Val::I(-7), None)));
    }

    /// Logs the `now` every hook call receives, with what called it (`true`
    /// for an access check, `false` for an intrinsic), and charges cycles on
    /// both so the log sees the hooks' own charges too.
    #[derive(Default)]
    struct NowLog {
        seen: Vec<(bool, u64)>,
    }

    impl RuntimeHooks for NowLog {
        fn intrinsic(
            &mut self,
            _which: Intrinsic,
            _args: &[Val],
            _mem: &mut Memory,
            now: u64,
        ) -> HookAction {
            self.seen.push((false, now));
            HookAction::Continue {
                value: Some(Val::I(now as i64)),
                cycles: 5,
            }
        }

        fn check_access(&mut self, _addr: u64, now: u64) -> Result<u64, Trap> {
            self.seen.push((true, now));
            Ok(2)
        }
    }

    #[test]
    fn hooks_read_the_cycle_count_of_the_instruction_calling_them() {
        // main(n): a = alloc 8n; for i < n { a[i] = i; s += a[i] + timer }.
        const N: i64 = 16;
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 1);
        let n = fb.param(0);
        let (zero, one, eight) = (fb.const_i(0), fb.const_i(1), fb.const_i(8));
        let bytes = fb.bin(BinOp::Mul, n, eight);
        let a = fb.alloc(bytes);
        let (i, sum) = (fb.mov(zero), fb.mov(zero));
        let [head, body, exit] = [0; 3].map(|_| fb.new_block());
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let p = fb.gep(a, i, 8, 0);
        fb.store(p, 0, i);
        let t = fb.mov(zero); // placeholder for `t = intr ReadTimer`
        let v = fb.load(p, 0);
        fb.bin_to(sum, BinOp::Add, sum, v);
        fb.bin_to(sum, BinOp::Add, sum, t);
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(sum));
        // No pass emits an intrinsic with a result, so the builder has no
        // call for one: the timer read replaces its placeholder here.
        let mut f = fb.finish();
        for inst in &mut f.blocks[body.index()].insts {
            if matches!(inst, Inst::Mov(d, _) if *d == t) {
                *inst = Inst::Intr(Some(t), Intrinsic::ReadTimer, vec![]);
            }
        }
        m.add(f);

        // A store costs one cycle more than a load, so a stamp shows which
        // access called: the body's accesses alternate store, load.
        let cfg = InterpConfig {
            cost_store: InterpConfig::default().cost_load + 1,
            ..InterpConfig::default()
        };
        let own_cost = |earlier: &[(bool, u64)], access: bool| match access {
            true if earlier.iter().filter(|&&(a, _)| a).count() % 2 == 0 => cfg.cost_store,
            true => cfg.cost_load,
            false => 0,
        };
        let fresh = || {
            let mut it = Interp::new(cfg.clone());
            it.start(&m, FuncId(0), &[Val::I(N)]);
            it
        };
        let (mut whole, mut whole_log) = (fresh(), NowLog::default());
        let want = whole.run(&m, &mut whole_log, u64::MAX / 4);

        // Fuel 1 runs exactly one instruction per slice (each costs at
        // least a cycle), so each slice's hook call, if any, is that
        // instruction's: its `now` is the count before it plus its own cost.
        let (mut sliced, mut log) = (fresh(), NowLog::default());
        let got = loop {
            let (before, calls) = (sliced.stats.cycles, log.seen.len());
            let status = sliced.run(&m, &mut log, 1);
            assert!(log.seen.len() <= calls + 1, "one instruction per slice");
            if let Some(&(access, now)) = log.seen.get(calls) {
                let own = own_cost(&log.seen[..calls], access);
                assert_eq!(now, before + own, "call {calls}");
            }
            if status != ExecStatus::OutOfFuel {
                break status;
            }
        };
        assert_eq!(got, want);
        assert!(matches!(want, ExecStatus::Done(Some(_))));
        assert_eq!(log.seen, whole_log.seen);
        assert_eq!(sliced.stats, whole.stats);
        for (access, per_iter) in [(true, 2), (false, 1)] {
            let calls = log.seen.iter().filter(|&&(a, _)| a == access).count();
            assert_eq!(calls, per_iter * N as usize, "access check: {access}");
        }
    }
}
