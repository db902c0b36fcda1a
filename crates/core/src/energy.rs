//! Interconnect energy pricing.
//!
//! Fig. 7's companion claim is that selective coherence deactivation cuts
//! interconnect energy by ~53 %. The coherence simulator counts NoC
//! traffic in flit-hops (one flit crossing one router and one link); this
//! model prices the count once, when a report reads it, with per-flit
//! costs loosely calibrated to published NoC models. The defaults are
//! dyadic (1.5 + 2.0 = 3.5 pJ per flit-hop), so the price of any count
//! below 2⁵⁰ is exact: the bits a per-message `f64` sum in any order has.

/// Per-flit energy costs of the on-chip network, in picojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// One flit traversing one router (buffering + arbitration + crossbar).
    pub router_per_flit: f64,
    /// One flit traversing one inter-router link.
    pub link_per_flit: f64,
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel {
            router_per_flit: 1.5,
            link_per_flit: 2.0,
        }
    }
}

impl EnergyModel {
    /// The energy of `flit_hops` flit-hops in picojoules: (router + link)
    /// × count.
    pub fn noc_pj(&self, flit_hops: u64) -> f64 {
        (self.router_per_flit + self.link_per_flit) * flit_hops as f64
    }
}
