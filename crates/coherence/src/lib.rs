//! # interweave-coherence
//!
//! Selective cache-coherence deactivation (§V-B of the paper).
//!
//! "The one-size-fits-all approach in today's memory consistency and cache
//! coherence models creates unnecessary constraints... Thread-private data
//! are tracked in the coherence protocol, even though there are no other
//! sharers for the data." The paper's prototype extends MESI with *selective
//! coherence deactivation* driven by language-level knowledge (MPL Parallel
//! ML's disentanglement guarantees which heap regions are private or
//! read-only), evaluated in the Sniper simulator on PBBS benchmarks:
//! ~46 % average speedup and ~53 % interconnect-energy reduction on a
//! dual-socket 24-core machine (Fig. 7).
//!
//! This crate is the Sniper substitute: a directory-MESI multicore
//! simulator over a 2D-mesh NoC that counts its traffic in flit-hops
//! (priced once as interconnect energy), plus the deactivation extension:
//!
//! - [`cache`]: per-core private caches (a second-chance clock over
//!   their frames), each finding a line's frame through a 2-byte-per-line
//!   index grown on demand.
//! - `noc`: the mesh topology, hop latency, and flit counts.
//! - [`protocol`]: the coherence engine — full MESI and the selective
//!   extension (private regions homed at the owner's slice with no
//!   directory involvement; read-only regions served from the nearest
//!   replica; genuinely shared data unchanged).
//! - [`ordering`]: the fence half of §V-B — x86-TSO's total store order
//!   versus language-informed selective release.
//! - [`workloads`]: PBBS-archetype access-stream generators with MPL-style
//!   region annotations (private heaps, read-only inputs, shared data,
//!   producer→consumer hand-offs).
//! - [`experiment`]: the Fig. 7 runner (speedup + interconnect energy).

#![warn(missing_docs)]

pub mod cache;
pub mod experiment;
pub(crate) mod noc;
pub mod ordering;
pub mod protocol;
pub mod workloads;

pub use protocol::{Class, CohMode, ProtocolKind, System, SystemConfig};
