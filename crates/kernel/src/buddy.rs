//! Buddy allocator with NUMA zones.
//!
//! §III: "All memory management, including for NUMA, is explicit and
//! allocations are done with buddy system allocators that are selected based
//! on the target zone. For threads that are bound to specific CPUs,
//! essential thread (e.g., context, stack) and scheduler state is guaranteed
//! to always be in the most desirable zone."
//!
//! This is a real allocator (not a cost model): blocks split to the
//! requested order on allocation and recursively coalesce with their buddy
//! on free. Property tests in `tests/` verify disjointness and full
//! coalescing.

use interweave_core::telemetry::{Key, Layer, Sink, Unit};

/// The maximum block order supported (2^MAX_ORDER × min-block bytes).
pub(crate) const MAX_ORDER: usize = 24;

const KEY_ALLOCS: Key = Key::new("kernel.buddy.allocs", Layer::Kernel, Unit::Count);
const KEY_FREES: Key = Key::new("kernel.buddy.frees", Layer::Kernel, Unit::Count);
const KEY_OOM: Key = Key::new("kernel.buddy.oom", Layer::Kernel, Unit::Count);
const KEY_LIVE_BYTES: Key = Key::new("kernel.buddy.live_bytes", Layer::Kernel, Unit::Bytes);

/// One buddy zone managing a contiguous physical range.
#[derive(Debug, Clone)]
pub struct BuddyZone {
    base: u64,
    /// log2 of the minimum block size in bytes.
    min_order: u32,
    /// Order of the whole zone relative to min blocks.
    levels: usize,
    /// Free lists per order (order 0 = min block). Entries are offsets from
    /// `base` in min-block units.
    free: Vec<Vec<u64>>,
    /// Allocated blocks: offset (min-block units) → order.
    live: std::collections::BTreeMap<u64, usize>,
    /// Bytes currently allocated (as block sizes, i.e. including internal
    /// fragmentation).
    pub live_bytes: u64,
}

/// Allocation failure. Every allocator entry point returns this as a typed
/// `Result` — out-of-memory is an *expected* outcome the caller handles
/// (shed the task, fall back, degrade), never a panic inside the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free block of the required order (zone exhausted or fragmented).
    OutOfMemory,
    /// Free of an address that is not the base of a live allocation.
    BadFree,
    /// Request larger than the zone itself.
    TooLarge,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "out of memory"),
            AllocError::BadFree => write!(f, "bad free"),
            AllocError::TooLarge => write!(f, "request exceeds zone"),
        }
    }
}

impl std::error::Error for AllocError {}

impl BuddyZone {
    /// A zone at `base` spanning `2^levels` min-blocks of `2^min_order`
    /// bytes each.
    pub fn new(base: u64, min_order: u32, levels: usize) -> BuddyZone {
        assert!(levels <= MAX_ORDER, "zone too large");
        let mut free = vec![Vec::new(); levels + 1];
        free[levels].push(0); // one block covering the whole zone
        BuddyZone {
            base,
            min_order,
            levels,
            free,
            live: std::collections::BTreeMap::new(),
            live_bytes: 0,
        }
    }

    /// Zone capacity in bytes.
    pub(crate) fn capacity(&self) -> u64 {
        (1u64 << self.levels) << self.min_order
    }

    fn order_for(&self, bytes: u64) -> Result<usize, AllocError> {
        let min = 1u64 << self.min_order;
        let blocks = bytes.max(1).div_ceil(min);
        let order = blocks.next_power_of_two().trailing_zeros() as usize;
        if order > self.levels {
            Err(AllocError::TooLarge)
        } else {
            Ok(order)
        }
    }

    /// Allocate at least `bytes`; returns the block's physical address.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, AllocError> {
        let want = self.order_for(bytes)?;
        // Find and pop the smallest available order ≥ want, with exhaustion
        // reported as a typed error — there is no panicking path here.
        let mut have = want;
        let off = loop {
            if have > self.levels {
                return Err(AllocError::OutOfMemory);
            }
            if let Some(off) = self.free[have].pop() {
                break off;
            }
            have += 1;
        };
        // Split down to the wanted order.
        while have > want {
            have -= 1;
            let buddy = off + (1u64 << have);
            self.free[have].push(buddy);
        }
        self.live.insert(off, want);
        self.live_bytes += (1u64 << want) << self.min_order;
        Ok(self.base + (off << self.min_order))
    }

    /// Free a previously allocated block; coalesces with free buddies.
    pub fn free(&mut self, addr: u64) -> Result<(), AllocError> {
        if addr < self.base {
            return Err(AllocError::BadFree);
        }
        let mut off = (addr - self.base) >> self.min_order;
        let mut order = self.live.remove(&off).ok_or(AllocError::BadFree)?;
        self.live_bytes -= (1u64 << order) << self.min_order;
        // Coalesce upward while the buddy is free.
        while order < self.levels {
            let buddy = off ^ (1u64 << order);
            match self.free[order].iter().position(|&b| b == buddy) {
                Some(i) => {
                    self.free[order].swap_remove(i);
                    off = off.min(buddy);
                    order += 1;
                }
                None => break,
            }
        }
        self.free[order].push(off);
        Ok(())
    }

    /// True when the zone has coalesced back into a single maximal block —
    /// i.e. everything was freed and coalescing worked perfectly.
    pub fn fully_coalesced(&self) -> bool {
        self.live.is_empty()
            && self.free[self.levels].len() == 1
            && self.free[..self.levels].iter().all(|l| l.is_empty())
    }

    /// The live block (base address, size in bytes) containing `addr`, if
    /// any.
    pub fn containing(&self, addr: u64) -> Option<(u64, u64)> {
        if addr < self.base {
            return None;
        }
        let off = (addr - self.base) >> self.min_order;
        self.live
            .range(..=off)
            .next_back()
            .map(|(&b, &o)| {
                (
                    self.base + (b << self.min_order),
                    (1u64 << o) << self.min_order,
                )
            })
            .filter(|&(b, sz)| addr < b + sz)
    }
}

/// NUMA-aware allocator: one buddy zone per NUMA domain with first-choice /
/// fallback selection, mirroring Nautilus's per-zone allocators.
#[derive(Debug, Clone)]
pub struct NumaAllocator {
    zones: Vec<BuddyZone>,
    /// Telemetry sink (off by default); allocation traffic is counted per
    /// zone, with the zone index as the registry shard.
    sink: Sink,
}

impl NumaAllocator {
    /// `n_zones` zones of `2^levels` blocks of `2^min_order` bytes, laid out
    /// contiguously.
    pub fn new(n_zones: usize, min_order: u32, levels: usize) -> NumaAllocator {
        assert!(n_zones > 0);
        let span = (1u64 << levels) << min_order;
        let zones = (0..n_zones)
            .map(|z| BuddyZone::new(0x100_0000 + z as u64 * span, min_order, levels))
            .collect();
        NumaAllocator {
            zones,
            sink: Sink::off(),
        }
    }

    /// Attach a telemetry sink: allocations, frees, OOMs, and live bytes
    /// are published per zone (the zone index is the shard).
    pub(crate) fn set_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Allocate preferring `zone`, falling back to the others in order —
    /// the "most desirable zone" policy of §III.
    pub fn alloc(&mut self, zone: usize, bytes: u64) -> Result<(u64, usize), AllocError> {
        let n = self.zones.len();
        for k in 0..n {
            let z = (zone + k) % n;
            match self.zones[z].alloc(bytes) {
                Ok(addr) => {
                    self.sink.count(&KEY_ALLOCS, z, 1);
                    self.sink
                        .gauge(&KEY_LIVE_BYTES, z, self.zones[z].live_bytes);
                    return Ok((addr, z));
                }
                Err(AllocError::TooLarge) => return Err(AllocError::TooLarge),
                Err(_) => continue,
            }
        }
        self.sink.count(&KEY_OOM, zone, 1);
        Err(AllocError::OutOfMemory)
    }

    /// [`NumaAllocator::alloc`] with the fault plane interposed: before the
    /// real allocation is attempted, `faults` may declare this request
    /// failed, modeling transient exhaustion (e.g. another core draining the
    /// zone between check and grab). Injected failures are typed
    /// [`AllocError::OutOfMemory`] — indistinguishable from the real thing,
    /// which is the point: callers must already handle it.
    pub(crate) fn alloc_faulted(
        &mut self,
        zone: usize,
        bytes: u64,
        faults: &mut interweave_core::FaultPlan,
    ) -> Result<(u64, usize), AllocError> {
        if faults.fail_alloc() {
            self.sink.count(&KEY_OOM, zone, 1);
            return Err(AllocError::OutOfMemory);
        }
        self.alloc(zone, bytes)
    }

    /// Free an address in whichever zone owns it.
    pub fn free(&mut self, addr: u64) -> Result<(), AllocError> {
        for (i, z) in self.zones.iter_mut().enumerate() {
            if addr >= z.base && addr < z.base + z.capacity() {
                z.free(addr)?;
                self.sink.count(&KEY_FREES, i, 1);
                self.sink.gauge(&KEY_LIVE_BYTES, i, z.live_bytes);
                return Ok(());
            }
        }
        Err(AllocError::BadFree)
    }

    /// Borrow a zone (inspection in tests).
    pub fn zone(&self, i: usize) -> &BuddyZone {
        &self.zones[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut z = BuddyZone::new(0x1000, 6, 10); // 64 B min, 64 KiB zone
        let a = z.alloc(100).unwrap(); // rounds to 128
        assert!(a >= 0x1000);
        assert_eq!(z.live.len(), 1);
        z.free(a).unwrap();
        assert!(z.fully_coalesced());
    }

    #[test]
    fn distinct_allocations_are_disjoint() {
        let mut z = BuddyZone::new(0, 6, 12);
        let mut blocks = Vec::new();
        for i in 0..32 {
            let sz = 64 * (1 + (i % 5));
            let a = z.alloc(sz as u64).unwrap();
            blocks.push((a, z.containing(a).unwrap().1));
        }
        for (i, &(a, sa)) in blocks.iter().enumerate() {
            for &(b, sb) in &blocks[i + 1..] {
                assert!(
                    a + sa <= b || b + sb <= a,
                    "overlap: {a:#x}+{sa} vs {b:#x}+{sb}"
                );
            }
        }
    }

    #[test]
    fn splitting_and_coalescing_roundtrip() {
        let mut z = BuddyZone::new(0, 6, 8);
        let addrs: Vec<u64> = (0..16).map(|_| z.alloc(64).unwrap()).collect();
        assert_eq!(z.live.len(), 16);
        // Free in interleaved order to exercise partial coalescing.
        for &a in addrs.iter().step_by(2) {
            z.free(a).unwrap();
        }
        for &a in addrs.iter().skip(1).step_by(2) {
            z.free(a).unwrap();
        }
        assert!(z.fully_coalesced());
    }

    #[test]
    fn oom_when_exhausted() {
        let mut z = BuddyZone::new(0, 6, 2); // 4 min blocks = 256 B
        let _a = z.alloc(256).unwrap();
        assert_eq!(z.alloc(64), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn too_large_is_distinguished() {
        let mut z = BuddyZone::new(0, 6, 2);
        assert_eq!(z.alloc(1 << 20), Err(AllocError::TooLarge));
    }

    #[test]
    fn double_free_rejected() {
        let mut z = BuddyZone::new(0, 6, 4);
        let a = z.alloc(64).unwrap();
        z.free(a).unwrap();
        assert_eq!(z.free(a), Err(AllocError::BadFree));
    }

    #[test]
    fn containing_lookup() {
        let mut z = BuddyZone::new(0x4000, 6, 6);
        let a = z.alloc(128).unwrap();
        let (base, size) = z.containing(a + 64).unwrap();
        assert_eq!(base, a);
        assert_eq!(size, 128);
        assert!(z.containing(a + 128).is_none_or(|(b, _)| b != a));
    }

    #[test]
    fn numa_prefers_home_zone_and_falls_back() {
        let mut n = NumaAllocator::new(2, 6, 4); // 2 zones × 1 KiB
        let (_, z0) = n.alloc(0, 512).unwrap();
        assert_eq!(z0, 0);
        let (_, z0b) = n.alloc(0, 512).unwrap();
        assert_eq!(z0b, 0);
        // Zone 0 is now full; falls back to zone 1.
        let (_, z1) = n.alloc(0, 512).unwrap();
        assert_eq!(z1, 1);
    }

    #[test]
    fn alloc_faulted_injects_typed_oom() {
        use interweave_core::{FaultConfig, FaultPlan};
        let mut n = NumaAllocator::new(1, 6, 8);
        // A quiet plan never interferes.
        let mut quiet = FaultPlan::quiet(7);
        let (a, _) = n.alloc_faulted(0, 128, &mut quiet).unwrap();
        n.free(a).unwrap();
        // At p=1 every request fails as typed OOM, and nothing is reserved.
        let mut cfg = FaultConfig::quiet(7);
        cfg.alloc_fail = 1.0;
        let mut noisy = FaultPlan::new(cfg);
        assert_eq!(
            n.alloc_faulted(0, 128, &mut noisy),
            Err(AllocError::OutOfMemory)
        );
        assert_eq!(n.zone(0).live.len(), 0);
    }

    #[test]
    fn numa_free_routes_to_owning_zone() {
        let mut n = NumaAllocator::new(2, 6, 4);
        let (a, _) = n.alloc(1, 128).unwrap();
        n.free(a).unwrap();
        assert!(n.zone(1).fully_coalesced());
    }
}
