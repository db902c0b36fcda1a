//! Facade crate re-exporting the whole Interweave workspace.
//!
//! ```
//! use interweave::prelude::*;
//!
//! // The design space the paper names, as data:
//! assert_eq!(StackConfig::interwoven().interweaving_degree(), 4);
//! // A machine to price mechanisms on:
//! let knl = MachineConfig::phi_knl();
//! assert_eq!(knl.dispatch_cost(), Cycles(1000)); // §V-D's measured cost
//! ```
pub mod compose;

pub use interweave_blend as blend;
pub use interweave_carat as carat;
pub use interweave_coherence as coherence;
pub use interweave_core as core;
pub use interweave_fibers as fibers;
pub use interweave_heartbeat as heartbeat;
pub use interweave_ir as ir;
pub use interweave_kernel as kernel;
pub use interweave_omp as omp;
pub use interweave_virtines as virtines;

/// Common imports for working with the laboratory.
pub mod prelude {
    pub use crate::compose::{compose, ComposeError, ComposedStack};
    pub use interweave_core::machine::{CostModel, MachineConfig, Platform};
    pub use interweave_core::stack::StackConfig;
    pub use interweave_core::{Cycles, DeliveryMode, Freq};
    pub use interweave_ir::programs;
    pub use interweave_kernel::os::{LinuxModel, NkModel, OsModel};
}
