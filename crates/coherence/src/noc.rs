//! The 2D-mesh network-on-chip: topology, hop latency, flit counts.
//!
//! Fig. 7's energy claim is about this network: every coherence message is
//! flits × hops of router+link energy, counted as flit-hops by the
//! protocol and priced by `interweave_core::energy::EnergyModel`. Cores and L3/directory slices are
//! co-located one per tile; the home slice of a line is its address hash.

/// Mesh geometry and message parameters.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// Tiles in X.
    pub width: usize,
    /// Tiles in Y.
    pub height: usize,
    /// Cycles per hop (link + router traversal).
    pub cycles_per_hop: u64,
    /// Flits in a control message (requests, invalidations, acks).
    pub control_flits: u32,
    /// Flits in a data message (a 64-byte line in 16-byte flits + header).
    pub data_flits: u32,
    /// Disaggregation: tiles per coherence domain (socket/drawer). Crossing
    /// a domain boundary adds [`Mesh::cross_domain_hops`] equivalent hops —
    /// §V-B: "the benefits grow with scale and disaggregation". `0` means a
    /// single domain.
    pub tiles_per_domain: usize,
    /// Extra hop-equivalents charged when a message crosses domains.
    pub cross_domain_hops: u32,
    /// Pairwise hop distances (row-major over tiles), precomputed so the
    /// per-message path avoids the coordinate divisions.
    hops_tab: Vec<u32>,
    /// ⌈2⁶⁴ / tiles⌉ — the fast-modulo magic behind [`Mesh::home`].
    home_magic: u64,
}

impl Mesh {
    /// A mesh sized for `cores` tiles (squarish factorization).
    pub(crate) fn for_cores(cores: usize) -> Mesh {
        let mut w = (cores as f64).sqrt().ceil() as usize;
        w = w.max(1);
        let h = cores.div_ceil(w);
        let mut m = Mesh {
            width: w,
            height: h,
            cycles_per_hop: 3,
            control_flits: 1,
            data_flits: 5,
            tiles_per_domain: 0,
            cross_domain_hops: 0,
            hops_tab: Vec::new(),
            home_magic: 0,
        };
        m.rebuild_tables();
        m
    }

    /// A disaggregated variant: `tiles_per_domain` tiles per socket/drawer,
    /// with `penalty` extra hop-equivalents across domains.
    pub(crate) fn disaggregated(cores: usize, tiles_per_domain: usize, penalty: u32) -> Mesh {
        let mut m = Mesh::for_cores(cores);
        m.tiles_per_domain = tiles_per_domain.max(1);
        m.cross_domain_hops = penalty;
        m.rebuild_tables();
        m
    }

    fn rebuild_tables(&mut self) {
        let n = self.width * self.height;
        let mut tab = vec![0u32; n * n];
        for a in 0..n {
            for b in 0..n {
                let (ax, ay) = self.coords(a);
                let (bx, by) = self.coords(b);
                let base = (ax.abs_diff(bx) + ay.abs_diff(by)) as u32;
                tab[a * n + b] = if self.domain(a) != self.domain(b) {
                    base + self.cross_domain_hops
                } else {
                    base
                };
            }
        }
        self.hops_tab = tab;
        // ⌈2⁶⁴ / n⌉; n = 1 wraps to 0, which the multiply in `home` maps
        // to the correct answer (everything homes at tile 0).
        self.home_magic = (u64::MAX / n as u64).wrapping_add(1);
    }

    fn domain(&self, tile: usize) -> usize {
        tile.checked_div(self.tiles_per_domain).unwrap_or(0)
    }

    fn coords(&self, tile: usize) -> (usize, usize) {
        (tile % self.width, tile / self.width)
    }

    /// Manhattan hop distance between two tiles, plus the cross-domain
    /// penalty when they live in different coherence domains.
    #[inline]
    pub(crate) fn hops(&self, a: usize, b: usize) -> u32 {
        self.hops_tab[a * self.width * self.height + b]
    }

    /// Latency of a message over `hops` hops (zero-hop messages stay in the
    /// tile: one router traversal).
    #[inline]
    pub(crate) fn latency(&self, hops: u32) -> u64 {
        self.cycles_per_hop * hops as u64 + 1
    }

    /// The home tile (L3 slice + directory bank) of a line address.
    #[inline]
    pub(crate) fn home(&self, line: u64) -> usize {
        // Spread lines across all tiles: `line % tiles`, computed by
        // Lemire's multiply-shift fast modulo (exact for operands < 2³²,
        // which line addresses comfortably are).
        debug_assert!(line < u32::MAX as u64);
        let tiles = (self.width * self.height) as u64;
        let low = self.home_magic.wrapping_mul(line);
        ((low as u128 * tiles as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_covers_cores() {
        for cores in [1, 2, 8, 24, 64, 192] {
            let m = Mesh::for_cores(cores);
            assert!(m.width * m.height >= cores);
        }
    }

    #[test]
    fn hops_are_manhattan() {
        let m = Mesh::for_cores(16); // 4×4
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 3), 3);
        assert_eq!(m.hops(0, 15), 6);
        assert_eq!(m.hops(5, 10), 2);
    }

    #[test]
    fn hops_symmetric() {
        let m = Mesh::for_cores(24);
        for a in 0..24 {
            for b in 0..24 {
                assert_eq!(m.hops(a, b), m.hops(b, a));
            }
        }
    }

    #[test]
    fn home_is_stable_and_in_range() {
        let m = Mesh::for_cores(24);
        for line in 0..1000u64 {
            let h = m.home(line);
            assert_eq!(h, m.home(line));
            assert!(h < m.width * m.height);
        }
    }

    #[test]
    fn disaggregation_penalizes_cross_domain_messages() {
        let flat = Mesh::for_cores(16);
        let disagg = Mesh::disaggregated(16, 8, 12);
        // Same-domain distances unchanged.
        assert_eq!(flat.hops(0, 5), disagg.hops(0, 5));
        // Cross-domain distances grow by the penalty.
        assert_eq!(disagg.hops(0, 12), flat.hops(0, 12) + 12);
        assert_eq!(disagg.hops(12, 0), disagg.hops(0, 12));
    }

    #[test]
    fn bigger_meshes_have_longer_mean_distances() {
        let mean_hops_from_0 = |m: &Mesh| {
            let n = m.width * m.height;
            (0..n).map(|t| m.hops(0, t)).sum::<u32>() as f64 / n as f64
        };
        let small = Mesh::for_cores(8);
        let big = Mesh::for_cores(64);
        assert!(mean_hops_from_0(&big) > mean_hops_from_0(&small));
    }
}
