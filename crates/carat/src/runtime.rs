//! The CARAT tracking/protection runtime.
//!
//! The transformed code calls into this runtime: guards validate accesses
//! against the allocation map, tracking calls keep the map current, and
//! escape tracking records which memory words hold pointers. All of it runs
//! with *physical* addresses — there is no translation hardware in the loop,
//! which is the point (§IV-A: "all code runs using physical addresses ...
//! frees hardware architects from constraints").

use interweave_ir::interp::{Allocation, HookAction, Memory, RuntimeHooks, Trap};
use interweave_ir::types::Val;
use interweave_ir::Intrinsic;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Cycle costs of the runtime's entry points (the numbers the overhead
/// table ultimately measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardCosts {
    /// One object guard: region-table lookup, usually cache-hot.
    pub guard: u64,
    /// One hoisted range/object check in a preheader.
    pub guard_range: u64,
    /// Recording a new allocation.
    pub track_alloc: u64,
    /// Recording a free.
    pub track_free: u64,
    /// Recording a pointer escape.
    pub track_escape: u64,
}

impl Default for GuardCosts {
    fn default() -> GuardCosts {
        GuardCosts {
            guard: 3,
            guard_range: 5,
            track_alloc: 40,
            track_free: 20,
            track_escape: 4,
        }
    }
}

/// Counters the experiments report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaratStats {
    /// Object guards executed.
    pub guards: u64,
    /// Range guards executed.
    pub range_guards: u64,
    /// Allocations tracked.
    pub allocs: u64,
    /// Frees tracked.
    pub frees: u64,
    /// Escapes recorded.
    pub escapes: u64,
    /// Protection faults raised.
    pub faults: u64,
    /// Escape audits performed ([`CaratRuntime::audit_escapes`]).
    pub audits: u64,
    /// Corrupted escape words the audits found.
    pub corruptions: u64,
}

/// One corrupted escape word found by [`CaratRuntime::audit_escapes`]: the
/// runtime's record of what `holder` stores disagrees with memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscapeCorruption {
    /// Address of the word holding the escaped pointer.
    pub holder: u64,
    /// The pointer value the runtime recorded at escape time.
    pub expected: u64,
    /// The value actually in memory now.
    pub found: u64,
}

/// The runtime: allocation map, escape records, quarantine.
#[derive(Debug, Clone, Default)]
pub struct CaratRuntime {
    /// Tracked allocations: base → size.
    table: BTreeMap<u64, u64>,
    /// Last allocation a guard resolved, checked before the tree (guards
    /// are strongly repetitive: a loop typically hammers one allocation).
    /// Invalidated whenever the cached entry could go stale: free,
    /// relocation and quarantine. The costs charged per guard are
    /// fixed, so the cache changes wall-clock only, never simulated cycles.
    last_hit: Cell<Option<(u64, u64)>>,
    /// Escape records: holder-word address → stored pointer value (the
    /// runtime's view; defragmentation cross-checks it against interpreter
    /// provenance).
    escapes: BTreeMap<u64, u64>,
    /// Quarantined regions `(base, size)`: frames a corruption was detected
    /// in, withdrawn from service. Guards deny access to them. Empty in a
    /// healthy run, so the per-guard check is a single `is_empty` branch.
    quarantined: Vec<(u64, u64)>,
    /// Costs charged per entry point.
    pub costs: GuardCosts,
    /// Execution counters.
    pub stats: CaratStats,
}

impl CaratRuntime {
    /// A fresh runtime with default costs.
    pub fn new() -> CaratRuntime {
        CaratRuntime::default()
    }

    /// The tracked allocation containing `addr` (last-hit cache first).
    fn containing(&self, addr: u64) -> Option<(u64, u64)> {
        if let Some((b, size)) = self.last_hit.get() {
            if addr.wrapping_sub(b) < size {
                return Some((b, size));
            }
        }
        let hit = self
            .table
            .range(..=addr)
            .next_back()
            .map(|(&b, &size)| (b, size))
            .filter(|&(b, size)| addr < b + size);
        if hit.is_some() {
            self.last_hit.set(hit);
        }
        hit
    }

    /// Drop the guard cache if it holds the entry based at `base`.
    fn invalidate_cached(&self, base: u64) {
        if self.last_hit.get().is_some_and(|(b, _)| b == base) {
            self.last_hit.set(None);
        }
    }

    /// Relocate tracking state after a defragmentation move.
    pub(crate) fn relocate(&mut self, old_base: u64, new_base: u64) {
        self.invalidate_cached(old_base);
        if let Some(size) = self.table.remove(&old_base) {
            // Escape records whose *stored value* pointed into the moved
            // allocation are updated (mirrors the patching the memory layer
            // performed).
            for (_, v) in self.escapes.iter_mut() {
                if *v >= old_base && *v < old_base + size {
                    *v = new_base + (*v - old_base);
                }
            }
            // Holder words inside the moved allocation also move.
            let holders: Vec<(u64, u64)> = self
                .escapes
                .range(old_base..old_base + size)
                .map(|(&k, &v)| (k, v))
                .collect();
            for (k, v) in holders {
                self.escapes.remove(&k);
                self.escapes.insert(new_base + (k - old_base), v);
            }
            self.table.insert(new_base, size);
        }
    }

    /// Escape records (for tests and defragmentation validation).
    pub fn escape_count(&self) -> usize {
        self.escapes.len()
    }

    /// Holder-word addresses of all escape records, in address order
    /// (deterministic — the fault plane picks bit-flip sites from this).
    pub fn escape_holders(&self) -> Vec<u64> {
        self.escapes.keys().copied().collect()
    }

    /// Cross-check every escape record against memory: the runtime knows
    /// what pointer each holder word stores, so a silent corruption (a
    /// bit-flip that hardware ECC missed) shows up as a mismatch. This is
    /// CARAT's software-managed-memory advantage (§IV-A): the layered stack
    /// has no record of what memory *should* contain, the interwoven
    /// runtime does. Deterministic: records are visited in address order.
    pub fn audit_escapes(&mut self, mem: &Memory) -> Vec<EscapeCorruption> {
        self.stats.audits += 1;
        let mut found = Vec::new();
        for (&holder, &expected) in self.escapes.iter() {
            let actual = match mem.load(holder) {
                Ok((v, _prov)) => v.as_ptr(),
                Err(_) => continue, // holder itself unmapped; frees race audits
            };
            if actual != expected {
                found.push(EscapeCorruption {
                    holder,
                    expected,
                    found: actual,
                });
            }
        }
        self.stats.corruptions += found.len() as u64;
        found
    }

    /// Withdraw `(base, size)` from service: subsequent guards covering any
    /// part of it fault. Used after a corrupted allocation is relocated so
    /// the damaged frame is never handed out or validated again.
    pub(crate) fn quarantine(&mut self, base: u64, size: u64) {
        self.invalidate_cached(base);
        self.quarantined.push((base, size));
    }

    /// Number of quarantined regions.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Publish this runtime's counters into `sink`'s registry as gauges
    /// (idempotent: re-publishing overwrites with current values).
    pub fn publish_telemetry(&self, sink: &interweave_core::telemetry::Sink) {
        use interweave_core::telemetry::{Key, Layer, Unit};
        const KEYS: [Key; 9] = [
            Key::new("carat.guards", Layer::Runtime, Unit::Count),
            Key::new("carat.range_guards", Layer::Runtime, Unit::Count),
            Key::new("carat.allocs", Layer::Runtime, Unit::Count),
            Key::new("carat.frees", Layer::Runtime, Unit::Count),
            Key::new("carat.escapes", Layer::Runtime, Unit::Count),
            Key::new("carat.faults", Layer::Runtime, Unit::Count),
            Key::new("carat.audits", Layer::Runtime, Unit::Count),
            Key::new("carat.corruptions", Layer::Runtime, Unit::Count),
            Key::new("carat.quarantined", Layer::Runtime, Unit::Count),
        ];
        let s = &self.stats;
        let vals = [
            s.guards,
            s.range_guards,
            s.allocs,
            s.frees,
            s.escapes,
            s.faults,
            s.audits,
            s.corruptions,
            self.quarantined.len() as u64,
        ];
        for (key, v) in KEYS.iter().zip(vals) {
            sink.gauge(key, 0, v);
        }
    }

    fn check(&mut self, addr: u64) -> Result<(), Trap> {
        // Healthy runs take one not-taken branch here; only after a
        // quarantine does the scan run at all.
        if !self.quarantined.is_empty()
            && self
                .quarantined
                .iter()
                .any(|&(b, s)| addr.wrapping_sub(b) < s)
        {
            self.stats.faults += 1;
            return Err(Trap::ProtectionFault { addr });
        }
        if self.containing(addr).is_some() {
            Ok(())
        } else {
            self.stats.faults += 1;
            Err(Trap::ProtectionFault { addr })
        }
    }
}

impl RuntimeHooks for CaratRuntime {
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        args: &[Val],
        mem: &mut Memory,
        now: u64,
    ) -> HookAction {
        match which {
            Intrinsic::CaratGuard => {
                self.stats.guards += 1;
                let addr = args[0].as_ptr();
                match self.check(addr) {
                    Ok(()) => HookAction::Continue {
                        value: None,
                        cycles: self.costs.guard,
                    },
                    Err(t) => HookAction::Trap(t),
                }
            }
            Intrinsic::CaratGuardRange => {
                self.stats.range_guards += 1;
                let base = args[0].as_ptr();
                match self.check(base) {
                    Ok(()) => HookAction::Continue {
                        value: None,
                        cycles: self.costs.guard_range,
                    },
                    Err(t) => HookAction::Trap(t),
                }
            }
            Intrinsic::CaratTrackAlloc => {
                self.stats.allocs += 1;
                // The on_alloc hook already recorded ground truth; the
                // intrinsic charges the runtime's bookkeeping cost.
                HookAction::Continue {
                    value: None,
                    cycles: self.costs.track_alloc,
                }
            }
            Intrinsic::CaratTrackFree => {
                self.stats.frees += 1;
                HookAction::Continue {
                    value: None,
                    cycles: self.costs.track_free,
                }
            }
            Intrinsic::CaratTrackEscape => {
                self.stats.escapes += 1;
                let value = args[0].as_ptr();
                // The instrumentation hands us the holder's *base* register;
                // the store itself may have landed at base + offset. The
                // store has already executed when this intrinsic runs, so
                // locate the exact word now holding `value` within the
                // holder allocation and key the ledger by that address
                // (falling back to the base for out-of-map holders).
                let base = args[1].as_ptr();
                let holder = mem
                    .containing(base)
                    .and_then(|a| {
                        (a.base..a.base + a.size).step_by(8).find(|&addr| {
                            matches!(mem.load(addr),
                                     Ok((Val::I(v), _)) if v as u64 == value)
                        })
                    })
                    .unwrap_or(base);
                self.escapes.insert(holder, value);
                HookAction::Continue {
                    value: None,
                    cycles: self.costs.track_escape,
                }
            }
            Intrinsic::Yield => HookAction::Yield { cycles: 0 },
            Intrinsic::ReadTimer => HookAction::Continue {
                value: Some(Val::I(now as i64)),
                cycles: 1,
            },
            _ => HookAction::Continue {
                value: None,
                cycles: 0,
            },
        }
    }

    fn on_alloc(&mut self, a: Allocation) {
        self.table.insert(a.base, a.size);
        // The guards most likely to run next target the fresh allocation.
        self.last_hit.set(Some((a.base, a.size)));
    }

    fn on_free(&mut self, a: Allocation) {
        self.invalidate_cached(a.base);
        self.table.remove(&a.base);
        // Drop escape records held inside the freed region.
        let keys: Vec<u64> = self
            .escapes
            .range(a.base..a.base + a.size)
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.escapes.remove(&k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument;
    use interweave_ir::interp::{ExecStatus, Interp, InterpConfig};
    use interweave_ir::{FunctionBuilder, Module};

    #[test]
    fn guard_passes_on_tracked_memory_and_counts() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let _ = fb.load(p, 0);
        fb.ret(None);
        m.add(fb.finish());
        instrument(&mut m, false);

        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, interweave_ir::FuncId(0), &[]);
        it.run_to_completion(&m, &mut rt);
        assert_eq!(rt.stats.guards, 1);
        assert_eq!(rt.stats.allocs, 1);
        assert_eq!(rt.stats.faults, 0);
    }

    #[test]
    fn guard_faults_on_wild_pointer_before_the_access() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let bogus = fb.const_i(0x6666_6666);
        let _ = fb.load(bogus, 0);
        fb.ret(None);
        m.add(fb.finish());
        instrument(&mut m, false);

        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, interweave_ir::FuncId(0), &[]);
        match it.run(&m, &mut rt, u64::MAX / 4) {
            ExecStatus::Trapped(Trap::ProtectionFault { addr }) => {
                assert_eq!(addr, 0x6666_6666)
            }
            other => panic!("expected guard fault, got {other:?}"),
        }
        assert_eq!(rt.stats.faults, 1);
        // Zero loads executed: the guard fired *before* the access.
        assert_eq!(it.stats.loads, 0);
    }

    #[test]
    fn escape_records_accumulate_and_die_with_frees() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let holder = fb.alloc(sz);
        let target = fb.alloc(sz);
        fb.store(holder, 0, target); // escape
        fb.free(holder);
        fb.ret(None);
        m.add(fb.finish());
        instrument(&mut m, false);

        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, interweave_ir::FuncId(0), &[]);
        it.run_to_completion(&m, &mut rt);
        assert_eq!(rt.stats.escapes, 1);
        // The holder was freed, so the record is gone.
        assert_eq!(rt.escape_count(), 0);
    }

    #[test]
    fn guard_cache_respects_relocation() {
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        let a = it.mem.alloc(64).unwrap();
        rt.on_alloc(a);

        // Warm the cache with a passing check, then relocate: the old base
        // stops validating immediately, the new base validates.
        assert!(rt.check(a.base).is_ok());
        let (old, new) = it.mem.move_allocation(a.id).expect("live");
        rt.relocate(old, new);
        assert!(rt.check(old).is_err());
        assert!(rt.check(new).is_ok());
    }

    #[test]
    fn escape_audit_detects_silent_bit_flip() {
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        let holder = it.mem.alloc(64).unwrap();
        let target = it.mem.alloc(64).unwrap();
        rt.on_alloc(holder);
        rt.on_alloc(target);
        // Record the escape both in memory and in the runtime's ledger.
        it.mem
            .store(holder.base, Val::I(target.base as i64), Some(target.id))
            .unwrap();
        rt.escapes.insert(holder.base, target.base);
        // A clean audit finds nothing.
        assert!(rt.audit_escapes(&it.mem).is_empty());
        // Flip a bit under the runtime's feet: the next audit pinpoints the
        // holder, the recorded value, and the corrupted one.
        let (old, new) = it.mem.flip_bit(holder.base, 5).unwrap();
        let bad = rt.audit_escapes(&it.mem);
        assert_eq!(
            bad,
            vec![EscapeCorruption {
                holder: holder.base,
                expected: old as u64,
                found: new as u64,
            }]
        );
        assert_eq!(rt.stats.audits, 2);
        assert_eq!(rt.stats.corruptions, 1);
    }

    #[test]
    fn quarantined_region_faults_all_guards() {
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        let a = it.mem.alloc(64).unwrap();
        rt.on_alloc(a);
        assert!(rt.check(a.base + 8).is_ok());
        rt.quarantine(a.base, 64);
        assert!(rt.check(a.base + 8).is_err());
        assert!(rt.check(a.base).is_err());
        assert_eq!(rt.quarantined_count(), 1);
    }

    #[test]
    fn stale_pointer_after_free_faults() {
        // p freed, then accessed → the guard (not the hardware) catches it.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        fb.free(p);
        let _ = fb.load(p, 0);
        fb.ret(None);
        m.add(fb.finish());
        instrument(&mut m, false);

        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, interweave_ir::FuncId(0), &[]);
        assert!(matches!(
            it.run(&m, &mut rt, u64::MAX / 4),
            ExecStatus::Trapped(Trap::ProtectionFault { .. })
        ));
    }
}
