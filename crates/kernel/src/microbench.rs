//! The §III primitives table (TAB-NK).
//!
//! "Application benchmark speedups from 20–40 % over user-level execution
//! on Linux have been demonstrated, while benchmarks show that primitives
//! such as thread management and event signaling are orders of magnitude
//! faster." This module evaluates the primitive costs of any set of kernel
//! models on a given machine and formats them as the comparison table the
//! bench binaries print. With the OS axis promoted to three points, callers
//! pass the column set they want — typically `[Linux, Aster, Nautilus]` —
//! and the table stays axis-driven rather than hard-coding a pair.

use crate::os::OsModel;
use interweave_core::time::Cycles;

/// One primitive's cost under each kernel column.
#[derive(Debug, Clone)]
pub struct PrimitiveRow {
    /// Primitive name.
    pub name: &'static str,
    /// Cost per kernel, in the column order the table was built with.
    pub costs: Vec<Cycles>,
}

impl PrimitiveRow {
    /// Speedup of column `b` over column `a` (cost(a) / cost(b)).
    pub fn speedup(&self, a: usize, b: usize) -> f64 {
        self.costs[a].as_f64() / self.costs[b].as_f64().max(1.0)
    }
}

/// A named cost probe against one kernel model.
type Probe = (&'static str, fn(&dyn OsModel) -> Cycles);

/// Evaluate the primitive suite over a set of kernel columns (all on the
/// same machine). Column order in every row matches the input order.
pub fn primitive_table(columns: &[&dyn OsModel]) -> Vec<PrimitiveRow> {
    assert!(!columns.is_empty(), "at least one kernel column required");
    let machine = &columns[0].machine().name;
    for os in columns {
        assert_eq!(
            &os.machine().name,
            machine,
            "primitive comparison requires the same machine (column {})",
            os.name()
        );
    }
    let probes: [Probe; 10] = [
        ("thread create", |os| os.thread_create()),
        ("thread join", |os| os.thread_join()),
        ("ctx switch (non-RT, FP)", |os| os.ctx_switch(false, true)),
        ("ctx switch (RT, no-FP)", |os| os.ctx_switch(true, false)),
        ("event delivery (receiver)", |os| os.event_deliver()),
        ("event send (one target)", |os| os.event_send()),
        ("remote wake cost (waker)", |os| os.wake_remote().0),
        ("remote wake latency", |os| os.wake_remote().1),
        ("barrier episode (blocking)", |os| os.barrier_block()),
        ("mutex (uncontended)", |os| os.mutex_uncontended()),
    ];
    probes
        .iter()
        .map(|&(name, probe)| PrimitiveRow {
            name,
            costs: columns.iter().map(|&os| probe(os)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::{AsterModel, LinuxModel, NkModel};
    use interweave_core::machine::MachineConfig;

    /// Columns in Linux → Aster → Nautilus order (left to right across the
    /// OS axis, commodity first).
    fn table() -> Vec<PrimitiveRow> {
        let mc = MachineConfig::xeon_server_2s();
        let lx = LinuxModel::new(mc.clone());
        let fk = AsterModel::new(mc.clone());
        let nk = NkModel::new(mc);
        primitive_table(&[&lx, &fk, &nk])
    }

    #[test]
    fn nautilus_wins_every_primitive() {
        for row in table() {
            assert!(
                row.costs[2] <= row.costs[0],
                "{}: nk {} vs linux {}",
                row.name,
                row.costs[2],
                row.costs[0]
            );
        }
    }

    #[test]
    fn aster_is_between_except_the_mutex() {
        for row in table() {
            if row.name == "mutex (uncontended)" {
                // The honest exception: the checked RAII lock is fatter than
                // the futex fast path, so Aster is not between on this row.
                assert!(row.costs[1] > row.costs[0]);
                continue;
            }
            assert!(
                row.costs[2] <= row.costs[1] && row.costs[1] <= row.costs[0],
                "{}: nk {} aster {} linux {}",
                row.name,
                row.costs[2],
                row.costs[1],
                row.costs[0]
            );
        }
    }

    #[test]
    fn thread_management_is_order_of_magnitude() {
        let t = table();
        let create = t.iter().find(|r| r.name == "thread create").unwrap();
        assert!(
            create.speedup(0, 2) >= 10.0,
            "create speedup {:.1}",
            create.speedup(0, 2)
        );
    }

    #[test]
    fn event_signaling_speedup_is_large() {
        let t = table();
        let deliver = t
            .iter()
            .find(|r| r.name == "event delivery (receiver)")
            .unwrap();
        assert!(deliver.speedup(0, 2) >= 2.0);
    }

    #[test]
    #[should_panic(expected = "same machine")]
    fn mismatched_machines_rejected() {
        let a = LinuxModel::new(MachineConfig::xeon_server_2s());
        let b = NkModel::new(MachineConfig::phi_knl());
        let _ = primitive_table(&[&a, &b]);
    }
}
