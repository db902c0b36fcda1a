//! Isolated virtine execution.
//!
//! A virtine owns its interpreter — and therefore its entire physical
//! memory. Isolation is structural: there is no operation by which code in
//! the image can name a host address (its `Memory` starts empty and its
//! module was extracted without host references), and a trap inside the
//! virtine surfaces as a value to the host, never as host state damage.

use crate::extract::VirtineImage;
use crate::serve::{GuestExit, GuestRun};
use interweave_ir::interp::{ExecStatus, Interp, InterpConfig, NullHooks, Trap};
use interweave_ir::types::{FuncId, Val};

/// Outcome of one virtine invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum VirtineOutcome {
    /// The function returned.
    Returned(Option<Val>),
    /// The virtine trapped (isolated: the host observes the trap as data).
    Faulted(Trap),
    /// The execution budget was exhausted (runaway guest, killed).
    Killed,
}

/// One virtine instance: an image plus its private execution state.
pub struct Virtine {
    /// The self-contained image.
    pub image: VirtineImage,
    interp: Interp,
}

impl Virtine {
    /// Instantiate a context for an image.
    pub fn new(image: VirtineImage) -> Virtine {
        Virtine {
            image,
            interp: Interp::new(InterpConfig::default()),
        }
    }

    /// Invoke the entry function with `args` on a clean context, bounded
    /// by `budget` cycles.
    pub fn invoke(&mut self, args: &[Val], budget: u64) -> VirtineOutcome {
        self.run(args, budget).0
    }

    /// [`Virtine::invoke`] as a [`WaspPool`](crate::serve::WaspPool) guest:
    /// the outcome, and how the run ended, the cycles the interpreter
    /// consumed (a fuel stop may overshoot `fuel` by the instruction that
    /// crossed it) and the pages it dirtied.
    pub(crate) fn run(&mut self, args: &[Val], fuel: u64) -> (VirtineOutcome, GuestRun) {
        self.reset();
        self.interp.start(&self.image.module, FuncId(0), args);
        let (outcome, exit) = match self.interp.run(&self.image.module, &mut NullHooks, fuel) {
            ExecStatus::Done(v) => (VirtineOutcome::Returned(v), GuestExit::Returned),
            ExecStatus::Trapped(t) => (VirtineOutcome::Faulted(t), GuestExit::Faulted),
            ExecStatus::OutOfFuel | ExecStatus::Yielded => {
                (VirtineOutcome::Killed, GuestExit::Killed)
            }
        };
        // The pages a copy-on-write snapshot restore must re-map: one 4 KiB
        // page per 512 stored words, at least one for the guest stack once
        // anything ran.
        let stats = &self.interp.stats;
        let dirty_pages = if stats.insts == 0 {
            0
        } else {
            (stats.stores * 8).div_ceil(4096).max(1)
        };
        let run = GuestRun {
            exit,
            cycles: stats.cycles,
            dirty_pages,
        };
        (outcome, run)
    }

    /// Reset guest state for pool reuse (the snapshot-restore fast path:
    /// memory is discarded, which is exactly what restoring a clean
    /// snapshot accomplishes).
    pub(crate) fn reset(&mut self) {
        self.interp = Interp::new(InterpConfig::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_one;
    use interweave_ir::{programs, BinOp, FunctionBuilder, Module};

    #[test]
    fn fib_virtine_returns_correctly() {
        let mut v = Virtine::new(extract_one(&programs::fib(12).module, FuncId(0)));
        assert_eq!(
            v.invoke(&[Val::I(12)], u64::MAX / 4),
            VirtineOutcome::Returned(Some(Val::I(144)))
        );
        assert!(v.interp.stats.cycles > 0);
    }

    #[test]
    fn guest_fault_is_contained() {
        // A wild access inside the guest surfaces as data to the host.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("wild", 0);
        let bogus = fb.const_i(0xbad0_0000);
        let _ = fb.load(bogus, 0);
        fb.ret(None);
        m.add(fb.finish());
        let img = extract_one(&m, FuncId(0));
        let mut v = Virtine::new(img);
        match v.invoke(&[], u64::MAX / 4) {
            VirtineOutcome::Faulted(Trap::BadAccess { addr, .. }) => {
                assert_eq!(addr, 0xbad0_0000)
            }
            other => panic!("expected contained fault, got {other:?}"),
        }
        // The host (this test) is obviously still running; the virtine can
        // be reset and reused.
        v.reset();
        assert_eq!(v.interp.mem.resident_pages(), 0);
    }

    #[test]
    fn runaway_guest_is_killed_by_budget() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("spin", 0);
        let head = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        fb.br(head);
        m.add(fb.finish());
        let img = extract_one(&m, FuncId(0));
        let mut v = Virtine::new(img);
        assert_eq!(v.invoke(&[], 10_000), VirtineOutcome::Killed);
    }

    #[test]
    fn two_virtines_have_disjoint_memory() {
        // Each instance allocates; neither sees the other's allocations.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("allocator", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let seven = fb.const_i(7);
        fb.store(p, 0, seven);
        let v = fb.load(p, 0);
        fb.ret(Some(v));
        m.add(fb.finish());
        let img = extract_one(&m, FuncId(0));

        let mut a = Virtine::new(img.clone());
        let mut b = Virtine::new(img);
        assert_eq!(
            a.invoke(&[], u64::MAX / 4),
            VirtineOutcome::Returned(Some(Val::I(7)))
        );
        assert_eq!(
            b.invoke(&[], u64::MAX / 4),
            VirtineOutcome::Returned(Some(Val::I(7)))
        );
        let pages = b.interp.mem.resident_pages();
        assert!(pages > 0);
        assert_eq!(a.interp.mem.resident_pages(), pages);
        a.reset();
        assert_eq!(a.interp.mem.resident_pages(), 0);
        assert_eq!(
            b.interp.mem.resident_pages(),
            pages,
            "reset of A must not touch B"
        );
    }

    #[test]
    fn reset_discards_resident_pages() {
        // A fresh virtine has no backing pages; running materializes some;
        // reset (the snapshot restore) drops them all.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("writer", 0);
        let sz = fb.const_i(64 * 1024);
        let p = fb.alloc(sz);
        let seven = fb.const_i(7);
        fb.store(p, 0, seven);
        let off = fb.const_i(32 * 1024);
        let far = fb.bin(BinOp::Add, p, off);
        fb.store(far, 0, seven);
        fb.ret(None);
        m.add(fb.finish());
        let img = extract_one(&m, FuncId(0));

        let mut v = Virtine::new(img);
        assert_eq!(v.interp.mem.resident_pages(), 0);
        assert_eq!(v.invoke(&[], u64::MAX / 4), VirtineOutcome::Returned(None));
        assert!(
            v.interp.mem.resident_pages() >= 2,
            "stores 32 KiB apart must land on distinct pages"
        );
        v.reset();
        assert_eq!(
            v.interp.mem.resident_pages(),
            0,
            "restore discards guest pages"
        );
    }
}
