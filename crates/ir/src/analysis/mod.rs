//! Program analyses.
//!
//! These are the "modern code analysis techniques" §IV-A credits with making
//! guard aggregation and hoisting possible, and §IV-C credits with placing
//! timing calls "so that they occur dynamically at some desired rate
//! regardless of the code path taken":
//!
//! - `mod@cfg`: predecessors/successors and reverse postorder.
//! - `dom`: dominator tree (Cooper–Harvey–Kennedy).
//! - `loops`: natural-loop detection with preheader identification.
//! - `defs`: register definition counting (single-assignment discovery for
//!   the mutable-register IR).

pub(crate) mod cfg;
pub(crate) mod defs;
pub(crate) mod dom;
pub(crate) mod loops;

pub use cfg::Cfg;
pub use defs::DefInfo;
pub use dom::Dominators;
pub use loops::{Loop, LoopForest};
