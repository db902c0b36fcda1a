//! The coherence engine: directory MESI plus selective deactivation.
//!
//! **Full MESI** (the baseline): every access to every line is tracked by
//! the directory at the line's home tile. Misses travel requestor → home →
//! (owner) → requestor; writes invalidate sharers; evictions notify home.
//!
//! **Selective** (§V-B): language-level region knowledge deactivates
//! coherence where it cannot matter:
//! - `Private(c)` regions (MPL thread-local heaps) are homed at core `c`'s
//!   local slice and bypass the directory entirely — no tracking state, no
//!   invalidation traffic, near-zero hop counts ("mapping primitives for
//!   on-chip data placement");
//! - `ReadOnly` regions replicate freely and are served from the nearest
//!   slice, one hop, no directory;
//! - `Shared` regions run the full protocol unchanged.
//!
//! Correctness is checked, not assumed: every line carries a version, every
//! read asserts it observed the latest version, and [`System::check_swmr`]
//! verifies the single-writer/multiple-reader invariant — used by the
//! property tests.
//!
//! All per-line protocol state (directory entry, L3 residency, ground-truth
//! version, region class) lives in one `LineState` record in a single
//! table indexed by line address and grown on demand, so an access
//! resolves its line with one indexed load instead of consulting four
//! parallel maps.

use crate::cache::{Cache, Entry, Mesi, Slot};
use crate::noc::Mesh;
use interweave_core::energy::EnergyModel;

/// Coherence policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohMode {
    /// Hardware MESI for everything (today's stacks).
    Full,
    /// MESI + selective deactivation.
    Selective,
}

/// Base protocol family (an ablation axis: MESI's Exclusive state is
/// itself a private-data optimization — selective deactivation subsumes
/// it, which the ablation makes visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Full MESI: sole clean copies enter E and upgrade to M silently.
    Mesi,
    /// MSI: no E state; every first write pays a directory upgrade.
    Msi,
}

/// Region classification supplied by the language runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Only core `.0` accesses this data (disentangled private heap).
    Private(usize),
    /// Written never (after classification); any core may read.
    ReadOnly,
    /// Genuinely shared mutable data.
    Shared,
}

/// Access-path latencies (cycles).
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Private-cache hit.
    pub l1_hit: u64,
    /// Directory bank access.
    pub dir: u64,
    /// L3 slice access.
    pub l3: u64,
    /// DRAM access.
    pub dram: u64,
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel {
            l1_hit: 2,
            dir: 8,
            l3: 20,
            dram: 180,
        }
    }
}

/// System configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Core (= tile) count.
    pub cores: usize,
    /// Private-cache capacity in lines.
    pub l1_lines: usize,
    /// Coherence policy.
    pub mode: CohMode,
    /// Base protocol family.
    pub protocol: ProtocolKind,
    /// Latencies.
    pub lat: LatencyModel,
}

impl SystemConfig {
    /// The Fig. 7 machine: 24 cores (2× 12), modest private caches.
    pub fn fig7(mode: CohMode) -> SystemConfig {
        SystemConfig {
            cores: 24,
            l1_lines: 512,
            mode,
            protocol: ProtocolKind::Mesi,
            lat: LatencyModel::default(),
        }
    }

    /// A small test machine.
    pub fn test(cores: usize, mode: CohMode) -> SystemConfig {
        SystemConfig {
            cores,
            l1_lines: 64,
            mode,
            protocol: ProtocolKind::Mesi,
            lat: LatencyModel::default(),
        }
    }
}

/// Directory entry for a Shared-class line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// In the L3/DRAM only.
    Uncached,
    /// One core holds it E or M.
    Exclusive(usize),
    /// Clean copies per the bitmask.
    Sharers(u64),
}

/// All protocol state for one line, held in the unified line table.
///
/// One record replaces what used to be four parallel maps (directory, L3
/// residency, latest version, class), so the hot access paths pay one
/// indexed load and one write-back per miss instead of four lookups plus
/// up to four inserts. The record is packed to 24 bytes (the naive enum
/// layout is 56): the table is the sweep's biggest randomly-accessed
/// structure, and the miss paths are bound by real-CPU cache misses on it,
/// so footprint is latency. Versions are `u32` internally — round-structured
/// sweeps write any one line a few thousand times at most.
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    /// Directory payload: owner for `Exclusive`, bitmask for `Sharers`.
    dir_bits: u64,
    /// Ground-truth latest version.
    latest32: u32,
    /// L3 contents: resident version + 1; `0` = only in DRAM (cold).
    l3p1: u32,
    /// Directory tag: 0 = Uncached, 1 = Exclusive, 2 = Sharers.
    dir_tag: u8,
    /// Region class tag: 0 = unclassified, 1 = Private, 2 = ReadOnly,
    /// 3 = Shared.
    class_tag: u8,
    /// Owner for a Private class.
    class_owner: u8,
}

impl LineState {
    /// Directory entry (meaningful for Shared-class lines).
    #[inline]
    fn dir(&self) -> Dir {
        match self.dir_tag {
            0 => Dir::Uncached,
            1 => Dir::Exclusive(self.dir_bits as usize),
            _ => Dir::Sharers(self.dir_bits),
        }
    }

    #[inline]
    fn set_dir(&mut self, d: Dir) {
        match d {
            Dir::Uncached => {
                self.dir_tag = 0;
                self.dir_bits = 0;
            }
            Dir::Exclusive(c) => {
                self.dir_tag = 1;
                self.dir_bits = c as u64;
            }
            Dir::Sharers(mask) => {
                self.dir_tag = 2;
                self.dir_bits = mask;
            }
        }
    }

    /// Ground-truth latest version.
    #[inline]
    fn latest(&self) -> u64 {
        self.latest32 as u64
    }

    #[inline]
    fn set_latest(&mut self, v: u64) {
        debug_assert!(v <= u32::MAX as u64, "version overflow on a line");
        self.latest32 = v as u32;
    }

    /// L3 contents: resident version. `None` = only in DRAM (cold).
    #[inline]
    fn l3(&self) -> Option<u64> {
        self.l3p1.checked_sub(1).map(u64::from)
    }

    #[inline]
    fn set_l3(&mut self, v: u64) {
        debug_assert!(v < u32::MAX as u64, "version overflow on a line");
        self.l3p1 = v as u32 + 1;
    }

    /// Region class, if the runtime classified this line.
    #[inline]
    fn class(&self) -> Option<Class> {
        match self.class_tag {
            0 => None,
            1 => Some(Class::Private(self.class_owner as usize)),
            2 => Some(Class::ReadOnly),
            _ => Some(Class::Shared),
        }
    }

    #[inline]
    fn set_class(&mut self, class: Class) {
        match class {
            Class::Private(owner) => {
                debug_assert!(
                    owner <= u8::MAX as usize,
                    "owner id overflows the class tag"
                );
                self.class_tag = 1;
                self.class_owner = owner as u8;
            }
            Class::ReadOnly => self.class_tag = 2,
            Class::Shared => self.class_tag = 3,
        }
    }
}

/// The unified line-state table: one vector indexed by line address,
/// grown on the first write to a line past its end. Lines past the end
/// read as the cold [`LineState`], so a lookup is one bounds check and
/// one indexed load.
#[derive(Debug, Default)]
struct LineTable {
    lines: Vec<LineState>,
}

impl LineTable {
    /// The line's state, defaulting cold.
    #[inline]
    fn get(&self, line: u64) -> LineState {
        self.lines.get(line as usize).copied().unwrap_or_default()
    }

    /// Store the line's state.
    #[inline]
    fn set(&mut self, line: u64, st: LineState) {
        *self.state_mut(line) = st;
    }

    /// Mutable access, growing the table to cover the line.
    #[inline]
    fn state_mut(&mut self, line: u64) -> &mut LineState {
        let i = line as usize;
        if i >= self.lines.len() {
            self.lines.resize(i + 1, LineState::default());
        }
        &mut self.lines[i]
    }

    /// Advance the line's ground-truth version in place (write fast path:
    /// no full-record copy) and return the new version.
    #[inline]
    fn bump_latest(&mut self, line: u64) -> u64 {
        let st = self.state_mut(line);
        st.latest32 += 1;
        st.latest()
    }

    /// The line's class alone, without materializing the record.
    #[inline]
    fn class(&self, line: u64) -> Option<Class> {
        self.lines.get(line as usize).and_then(LineState::class)
    }
}

/// Registry keys for [`System::publish_telemetry`], in [`CohStats`] field
/// order.
const COH_KEYS: [interweave_core::telemetry::Key; 9] = {
    use interweave_core::telemetry::{Key, Layer, Unit};
    [
        Key::new("coherence.reads", Layer::Coherence, Unit::Count),
        Key::new("coherence.writes", Layer::Coherence, Unit::Count),
        Key::new("coherence.l1_hits", Layer::Coherence, Unit::Count),
        Key::new("coherence.dir_lookups", Layer::Coherence, Unit::Count),
        Key::new("coherence.invalidations", Layer::Coherence, Unit::Count),
        Key::new("coherence.forwards", Layer::Coherence, Unit::Count),
        Key::new("coherence.writebacks", Layer::Coherence, Unit::Count),
        Key::new("coherence.dram_fetches", Layer::Coherence, Unit::Count),
        Key::new("coherence.deactivated", Layer::Coherence, Unit::Count),
    ]
};

/// Aggregate protocol statistics.
#[derive(Debug, Clone, Default)]
pub struct CohStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Private-cache hits.
    pub l1_hits: u64,
    /// Directory lookups.
    pub dir_lookups: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Owner-forwarded misses.
    pub forwards: u64,
    /// Writebacks.
    pub writebacks: u64,
    /// DRAM fetches.
    pub dram_fetches: u64,
    /// Deactivated (directory-bypassing) accesses.
    pub deactivated: u64,
}

/// The simulated multicore.
///
/// ```
/// use interweave_coherence::protocol::{Class, CohMode, System, SystemConfig};
///
/// let mut sys = System::new(SystemConfig::test(4, CohMode::Selective));
/// sys.classify(0..64, Class::Private(2));
/// sys.write(2, 10); // core 2's private data: no directory involved
/// sys.read(2, 10);
/// assert_eq!(sys.stats.dir_lookups, 0);
/// sys.check_swmr();
/// ```
pub struct System {
    /// Configuration.
    pub cfg: SystemConfig,
    /// NoC topology.
    pub mesh: Mesh,
    caches: Vec<Cache>,
    /// The unified line-state table: line address → all per-line state.
    lines: LineTable,
    /// NoC traffic so far, in flit-hops.
    pub(crate) flit_hops: u64,
    /// Protocol statistics.
    pub stats: CohStats,
}

impl System {
    /// Build a system.
    pub fn new(cfg: SystemConfig) -> System {
        let mesh = Mesh::for_cores(cfg.cores);
        System {
            caches: (0..cfg.cores).map(|_| Cache::new(cfg.l1_lines)).collect(),
            mesh,
            lines: LineTable::default(),
            flit_hops: 0,
            stats: CohStats::default(),
            cfg,
        }
    }

    /// Publish this system's protocol statistics into `sink`'s registry as
    /// gauges (idempotent: re-publishing overwrites with current values).
    pub fn publish_telemetry(&self, sink: &interweave_core::telemetry::Sink) {
        let s = &self.stats;
        let vals = [
            s.reads,
            s.writes,
            s.l1_hits,
            s.dir_lookups,
            s.invalidations,
            s.forwards,
            s.writebacks,
            s.dram_fetches,
            s.deactivated,
        ];
        for (key, v) in COH_KEYS.iter().zip(vals) {
            sink.gauge(key, 0, v);
        }
    }

    /// Interconnect energy of the traffic so far, in picojoules: each
    /// message's `max(hops, 1) × flits` flit-hops, summed as an integer
    /// (no summation order) and priced once by the default [`EnergyModel`].
    pub fn noc_energy(&self) -> f64 {
        EnergyModel::default().noc_pj(self.flit_hops)
    }

    /// Classify a range of lines. Honoured only in `Selective` mode; the
    /// full-MESI baseline has no channel for this knowledge — that is the
    /// paper's point.
    pub fn classify(&mut self, lines: impl Iterator<Item = u64>, class: Class) {
        for l in lines {
            self.lines.state_mut(l).set_class(class);
        }
    }

    /// The line's full state, defaulting cold (uncached, DRAM-only, v0).
    #[inline]
    fn line_state(&self, line: u64) -> LineState {
        self.lines.get(line)
    }

    /// Resolve the effective class from an already-fetched state record.
    #[inline]
    fn resolve_class(&self, st: &LineState) -> Class {
        match self.cfg.mode {
            CohMode::Full => Class::Shared,
            CohMode::Selective => st.class().unwrap_or(Class::Shared),
        }
    }

    #[inline]
    fn charge_msg(&mut self, hops: u32, flits: u32) {
        self.flit_hops += u64::from(hops.max(1) * flits);
    }

    /// Fetch a line's data at its home slice, returning `(latency, version)`
    /// and counting DRAM fetches. Operates on the caller's in-flight state
    /// record; a DRAM fetch fills the L3 in place.
    fn fetch_at_home(&mut self, st: &mut LineState) -> (u64, u64) {
        match st.l3() {
            Some(v) => (self.cfg.lat.l3, v),
            None => {
                self.stats.dram_fetches += 1;
                let v = st.latest();
                st.set_l3(v);
                (self.cfg.lat.l3 + self.cfg.lat.dram, v)
            }
        }
    }

    /// Handle a cache eviction (victim from an insert). The victim is
    /// always a different line than the one being inserted, so its state is
    /// fetched and written back independently.
    fn handle_eviction(&mut self, core: usize, line: u64, e: Entry) {
        let mut st = self.line_state(line);
        match self.resolve_class(&st) {
            Class::Private(_) => {
                if e.state == Mesi::M {
                    // Writeback to the local slice: zero hops.
                    self.stats.writebacks += 1;
                    st.set_l3(e.version);
                    self.charge_msg(0, self.mesh.data_flits);
                    self.lines.set(line, st);
                }
            }
            Class::ReadOnly => {} // clean replicas drop silently
            Class::Shared => {
                let home = self.mesh.home(line);
                let hops = self.mesh.hops(core, home);
                self.stats.dir_lookups += 1;
                if e.state == Mesi::M {
                    self.stats.writebacks += 1;
                    st.set_l3(e.version);
                    self.charge_msg(hops, self.mesh.data_flits);
                    st.set_dir(Dir::Uncached);
                } else {
                    // Eviction notice keeps the directory exact.
                    self.charge_msg(hops, self.mesh.control_flits);
                    st.set_dir(match st.dir() {
                        Dir::Exclusive(c) if c == core => Dir::Uncached,
                        Dir::Sharers(mask) => {
                            let m = mask & !(1 << core);
                            if m == 0 {
                                Dir::Uncached
                            } else {
                                Dir::Sharers(m)
                            }
                        }
                        other => other,
                    });
                }
                self.lines.set(line, st);
            }
        }
    }

    fn insert_line(&mut self, core: usize, line: u64, state: Mesi, version: u64) {
        if let Some((vl, ve)) = self.caches[core].insert(line, state, version) {
            self.handle_eviction(core, vl, ve);
        }
    }

    /// Read one line from `core`; returns the access latency in cycles.
    ///
    /// The hit path is small enough to inline into the sweep loops; the
    /// miss machinery stays outlined in `System::read_miss`.
    #[inline]
    pub fn read(&mut self, core: usize, line: u64) -> u64 {
        self.stats.reads += 1;
        // Hits never touch the line table (the probe alone decides), so
        // the table read is deferred to the miss path.
        if let Some((_, e)) = self.caches[core].probe(line) {
            self.stats.l1_hits += 1;
            debug_assert_eq!(
                e.version,
                self.line_state(line).latest(),
                "stale read of line {line:#x} at core {core}"
            );
            return self.cfg.lat.l1_hit;
        }
        self.read_miss(core, line)
    }

    fn read_miss(&mut self, core: usize, line: u64) -> u64 {
        // One table lookup serves the whole miss: class resolution,
        // directory, L3 and version checks all come from `st`.
        let mut st = self.line_state(line);

        let lat = match self.resolve_class(&st) {
            Class::Private(owner) => {
                debug_assert_eq!(owner, core, "disentanglement violation on {line:#x}");
                self.stats.deactivated += 1;
                // Local slice: no directory, no hops.
                let (fetch, v) = self.fetch_at_home(&mut st);
                self.charge_msg(0, self.mesh.data_flits);
                self.insert_line(core, line, Mesi::E, v);
                self.cfg.lat.l1_hit + fetch
            }
            Class::ReadOnly => {
                self.stats.deactivated += 1;
                // Nearest replica: one hop, no directory.
                let (fetch, v) = self.fetch_at_home(&mut st);
                self.charge_msg(1, self.mesh.data_flits);
                self.insert_line(core, line, Mesi::S, v);
                self.cfg.lat.l1_hit + self.mesh.latency(1) + fetch
            }
            Class::Shared => {
                let home = self.mesh.home(line);
                let req_hops = self.mesh.hops(core, home);
                self.charge_msg(req_hops, self.mesh.control_flits);
                self.stats.dir_lookups += 1;
                let mut lat = self.cfg.lat.l1_hit + self.mesh.latency(req_hops) + self.cfg.lat.dir;
                match st.dir() {
                    Dir::Uncached => {
                        let (fetch, v) = self.fetch_at_home(&mut st);
                        lat += fetch + self.mesh.latency(req_hops);
                        self.charge_msg(req_hops, self.mesh.data_flits);
                        match self.cfg.protocol {
                            ProtocolKind::Mesi => {
                                st.set_dir(Dir::Exclusive(core));
                                self.insert_line(core, line, Mesi::E, v);
                            }
                            ProtocolKind::Msi => {
                                // No E state: sole clean copies are plain
                                // sharers, so the first write must upgrade.
                                st.set_dir(Dir::Sharers(1 << core));
                                self.insert_line(core, line, Mesi::S, v);
                            }
                        }
                    }
                    Dir::Sharers(mask) => {
                        let (fetch, v) = self.fetch_at_home(&mut st);
                        lat += fetch + self.mesh.latency(req_hops);
                        self.charge_msg(req_hops, self.mesh.data_flits);
                        st.set_dir(Dir::Sharers(mask | (1 << core)));
                        self.insert_line(core, line, Mesi::S, v);
                    }
                    Dir::Exclusive(owner) if owner == core => {
                        // Evictions notify the directory, so an owner never
                        // misses on its own line: a protocol bug got here.
                        unreachable!(
                            "core {core} read-missed {line:#x}, which the directory says it owns"
                        )
                    }
                    Dir::Exclusive(owner) => {
                        // Forward to the owner; owner downgrades and writes
                        // back; data goes owner → requestor.
                        self.stats.forwards += 1;
                        let fwd = self.mesh.hops(home, owner);
                        let back = self.mesh.hops(owner, core);
                        self.charge_msg(fwd, self.mesh.control_flits);
                        self.charge_msg(back, self.mesh.data_flits);
                        let oe = self.caches[owner]
                            .peek(line)
                            .expect("directory says owner holds the line");
                        let v = oe.version;
                        // Downgrade + writeback to home.
                        self.caches[owner].set_state(line, Mesi::S);
                        self.stats.writebacks += 1;
                        st.set_l3(v);
                        self.charge_msg(self.mesh.hops(owner, home), self.mesh.data_flits);
                        lat +=
                            self.mesh.latency(fwd) + self.cfg.lat.l1_hit + self.mesh.latency(back);
                        st.set_dir(Dir::Sharers((1 << owner) | (1 << core)));
                        self.insert_line(core, line, Mesi::S, v);
                    }
                }
                lat
            }
        };
        self.lines.set(line, st);
        if let Some(e) = self.caches[core].peek(line) {
            debug_assert_eq!(
                e.version,
                st.latest(),
                "read filled stale version for {line:#x}"
            );
        }
        lat
    }

    /// Write one line from `core`; returns the access latency in cycles.
    ///
    /// Write *hits with write permission* (any state under a deactivated
    /// private class; M or E under the full protocol) are the common case
    /// and touch only the line's version counter — they bump it in place
    /// rather than copying the whole state record out and back.
    #[inline]
    pub fn write(&mut self, core: usize, line: u64) -> u64 {
        self.stats.writes += 1;
        let class = match self.cfg.mode {
            CohMode::Full => Class::Shared,
            CohMode::Selective => self.lines.class(line).unwrap_or(Class::Shared),
        };
        match class {
            Class::Private(owner) => {
                debug_assert_eq!(owner, core, "disentanglement violation on {line:#x}");
                self.stats.deactivated += 1;
                if let Some((slot, _)) = self.caches[core].probe(line) {
                    self.stats.l1_hits += 1;
                    let v = self.lines.bump_latest(line);
                    self.caches[core].write_hit(slot, v);
                    self.cfg.lat.l1_hit
                } else {
                    let mut st = self.line_state(line);
                    let v = st.latest() + 1;
                    st.set_latest(v);
                    let (fetch, _) = self.fetch_at_home(&mut st);
                    self.charge_msg(0, self.mesh.data_flits);
                    self.lines.set(line, st);
                    // A fresh frame is unreferenced, so this is the E fill
                    // plus write hit of the miss in one step.
                    self.insert_line(core, line, Mesi::M, v);
                    self.cfg.lat.l1_hit + fetch
                }
            }
            Class::ReadOnly => panic!("write to read-only region: line {line:#x}"),
            Class::Shared => match self.caches[core].probe(line) {
                Some((slot, e)) if e.state == Mesi::M || e.state == Mesi::E => {
                    // M hit, or silent E→M upgrade.
                    self.stats.l1_hits += 1;
                    let v = self.lines.bump_latest(line);
                    self.caches[core].write_hit(slot, v);
                    self.cfg.lat.l1_hit
                }
                probed => self.write_shared_slow(core, line, probed),
            },
        }
    }

    /// The non-fast-path half of a Shared-class write: an S-state upgrade
    /// or a full write miss (RFO through the directory). `probed` is the
    /// already-taken cache probe result.
    fn write_shared_slow(&mut self, core: usize, line: u64, probed: Option<(Slot, Entry)>) -> u64 {
        let mut st = self.line_state(line);
        let v = st.latest() + 1;
        st.set_latest(v);
        let lat = {
            let home = self.mesh.home(line);
            let req_hops = self.mesh.hops(core, home);
            match probed {
                Some((slot, _)) => {
                    // S → upgrade: invalidate other sharers via home (the
                    // other caches only, so `slot` stays valid).
                    self.stats.l1_hits += 1;
                    self.charge_msg(req_hops, self.mesh.control_flits);
                    self.stats.dir_lookups += 1;
                    let mut lat =
                        self.cfg.lat.l1_hit + self.mesh.latency(req_hops) + self.cfg.lat.dir;
                    lat += self.invalidate_others(&st, line, core, home);
                    st.set_dir(Dir::Exclusive(core));
                    self.caches[core].write_hit(slot, v);
                    lat
                }
                None => {
                    // Write miss: RFO through the directory.
                    self.charge_msg(req_hops, self.mesh.control_flits);
                    self.stats.dir_lookups += 1;
                    let mut lat =
                        self.cfg.lat.l1_hit + self.mesh.latency(req_hops) + self.cfg.lat.dir;
                    match st.dir() {
                        Dir::Uncached => {
                            let (fetch, _) = self.fetch_at_home(&mut st);
                            lat += fetch + self.mesh.latency(req_hops);
                            self.charge_msg(req_hops, self.mesh.data_flits);
                        }
                        Dir::Sharers(_) => {
                            let (fetch, _) = self.fetch_at_home(&mut st);
                            lat += fetch + self.mesh.latency(req_hops);
                            self.charge_msg(req_hops, self.mesh.data_flits);
                            lat += self.invalidate_others(&st, line, core, home);
                        }
                        Dir::Exclusive(owner) => {
                            // Forward-invalidate: owner sends data
                            // directly and drops its copy. Evictions notify
                            // the directory, so the owner is never the
                            // requester: that would invalidate a copy that
                            // is not there and count a phantom forward.
                            assert_ne!(
                                owner, core,
                                "core {core} write-missed {line:#x}, which the directory says it owns"
                            );
                            self.stats.forwards += 1;
                            let fwd = self.mesh.hops(home, owner);
                            let back = self.mesh.hops(owner, core);
                            self.charge_msg(fwd, self.mesh.control_flits);
                            self.charge_msg(back, self.mesh.data_flits);
                            self.stats.invalidations += 1;
                            self.caches[owner].invalidate(line);
                            lat += self.mesh.latency(fwd)
                                + self.cfg.lat.l1_hit
                                + self.mesh.latency(back);
                        }
                    }
                    st.set_dir(Dir::Exclusive(core));
                    self.insert_line(core, line, Mesi::M, v);
                    lat
                }
            }
        };
        self.lines.set(line, st);
        lat
    }

    /// Invalidate every sharer of `line` other than `keep`, per the
    /// caller's in-flight directory state; returns the added latency (max
    /// invalidation round trip through `home`).
    fn invalidate_others(&mut self, st: &LineState, line: u64, keep: usize, home: usize) -> u64 {
        let mut max_rtt = 0u64;
        if let Dir::Sharers(mask) = st.dir() {
            for c in 0..self.cfg.cores {
                if c != keep && mask & (1 << c) != 0 {
                    self.stats.invalidations += 1;
                    let h = self.mesh.hops(home, c);
                    self.charge_msg(h, self.mesh.control_flits); // inv
                    self.charge_msg(h, self.mesh.control_flits); // ack
                    max_rtt = max_rtt.max(2 * self.mesh.latency(h));
                    self.caches[c].invalidate(line);
                }
            }
        }
        max_rtt
    }

    /// Flush one core's copy of `line` (if any) during reclassification,
    /// charging the writeback when it was dirty. Returns the cycles added.
    fn flush_for_reclassify(&mut self, line: u64, c: usize, old: Class, st: &mut LineState) -> u64 {
        if let Some(e) = self.caches[c].invalidate(line) {
            if e.state == Mesi::M {
                self.stats.writebacks += 1;
                st.set_l3(e.version);
                let hops = match old {
                    Class::Private(_) => 0,
                    _ => self.mesh.hops(c, self.mesh.home(line)),
                };
                self.charge_msg(hops, self.mesh.data_flits);
                return self.mesh.latency(hops) + self.cfg.lat.l3;
            }
        }
        0
    }

    /// Selective-mode region hand-off: flush `lines` everywhere and assign
    /// a new class (e.g. a producer's private heap becoming the consumer's,
    /// or becoming read-only at a join). Returns the cycles charged.
    ///
    /// Only the caches that can actually hold a copy are touched: the
    /// owner for a private line (disentanglement: nobody else ever
    /// accessed it), the directory's holder set for a shared line
    /// (eviction notices keep it exact), every core for read-only
    /// replicas (unhomed, so untracked). The flush order is ascending
    /// core id in every case — identical to a full scan.
    pub fn reclassify(&mut self, lines: &[u64], new_class: Class) -> u64 {
        let mut cost = 0u64;
        for &line in lines {
            let mut st = self.line_state(line);
            let old = self.resolve_class(&st);
            match old {
                Class::Private(owner) => {
                    #[cfg(debug_assertions)]
                    for c in 0..self.cfg.cores {
                        debug_assert!(
                            c == owner || self.caches[c].peek(line).is_none(),
                            "private line {line:#x} cached outside owner {owner}"
                        );
                    }
                    cost += self.flush_for_reclassify(line, owner, old, &mut st);
                }
                Class::Shared => match st.dir() {
                    Dir::Uncached => {}
                    Dir::Exclusive(c) => {
                        cost += self.flush_for_reclassify(line, c, old, &mut st);
                    }
                    Dir::Sharers(mask) => {
                        for c in 0..self.cfg.cores {
                            if mask & (1 << c) != 0 {
                                cost += self.flush_for_reclassify(line, c, old, &mut st);
                            }
                        }
                    }
                },
                Class::ReadOnly => {
                    for c in 0..self.cfg.cores {
                        cost += self.flush_for_reclassify(line, c, old, &mut st);
                    }
                }
            }
            st.set_dir(Dir::Uncached);
            st.set_class(new_class);
            self.lines.set(line, st);
        }
        cost
    }

    /// Verify the single-writer/multiple-reader invariant and directory
    /// consistency for Shared-class lines. Panics on violation.
    ///
    /// One walk over every cache's frames, asking each Shared-class copy
    /// that the directory names its holder: an M/E copy at core `c` needs
    /// `Exclusive(c)`, an S copy needs `Sharers` with `c`'s bit set. That
    /// implies SWMR (two M/E holders, or an M/E holder beside a sharer,
    /// would need two directory states at once) and also rejects a stale
    /// sharer the directory does not list.
    pub fn check_swmr(&self) {
        for (core, cache) in self.caches.iter().enumerate() {
            for (line, e) in cache.entries() {
                let st = self.line_state(line);
                if self.resolve_class(&st) != Class::Shared {
                    continue;
                }
                let dir = st.dir();
                let listed = match (e.state, dir) {
                    (Mesi::M | Mesi::E, Dir::Exclusive(x)) => x == core,
                    (Mesi::S, Dir::Sharers(mask)) => mask & (1 << core) != 0,
                    _ => false,
                };
                assert!(
                    listed,
                    "line {line:#x}: core {core} holds it {:?} but the directory says {dir:?}",
                    e.state
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(mode: CohMode) -> System {
        System::new(SystemConfig::test(4, mode))
    }

    #[test]
    fn read_then_hit() {
        let mut s = sys(CohMode::Full);
        let cold = s.read(0, 100);
        let hit = s.read(0, 100);
        assert!(cold > hit);
        assert_eq!(hit, s.cfg.lat.l1_hit);
        s.check_swmr();
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut s = sys(CohMode::Full);
        s.read(0, 7);
        s.read(1, 7);
        s.read(2, 7);
        s.check_swmr();
        let _ = s.write(3, 7);
        assert!(s.stats.invalidations >= 2);
        s.check_swmr();
        // Reader 0 must re-miss and see the new version.
        let lat = s.read(0, 7);
        assert!(lat > s.cfg.lat.l1_hit);
        s.check_swmr();
    }

    #[test]
    #[should_panic(expected = "directory says Uncached")]
    fn stale_sharer_behind_an_uncached_directory_panics() {
        // Plant an S copy the directory never granted: line 7 stays
        // Uncached, so core 1's copy is one no write would invalidate.
        let mut s = sys(CohMode::Full);
        s.read(0, 8);
        s.caches[1].insert(7, Mesi::S, 0);
        s.check_swmr();
    }

    #[test]
    #[should_panic(expected = "core 0 read-missed 0x7, which the directory says it owns")]
    fn read_miss_on_a_line_the_directory_says_the_reader_owns_panics() {
        // Drop core 0's M copy behind the directory's back: it still says
        // Exclusive(0), so the next read by core 0 misses on its own line.
        let mut s = sys(CohMode::Full);
        s.write(0, 7);
        s.caches[0].invalidate(7);
        s.read(0, 7);
    }

    #[test]
    #[should_panic(expected = "core 0 write-missed 0x7, which the directory says it owns")]
    fn write_miss_on_a_line_the_directory_says_the_writer_owns_panics() {
        let mut s = sys(CohMode::Full);
        s.write(0, 7);
        s.caches[0].invalidate(7);
        s.write(0, 7);
    }

    #[test]
    fn noc_energy_prices_a_hand_counted_flit_hop_total() {
        // 2×2 mesh: tile t at (t % 2, t / 2); line l homes at tile l % 4;
        // control messages are 1 flit, data messages 5.
        let script = [
            // (core, line, write, flit-hops). Cold miss, 1 hop to home 1:
            // request 1×1, data 1×5.
            (0, 5, false, 6),
            // Miss on an owned line, 1 hop to home: request 1×1, forward
            // 1→0 1×1, data 0→3 2×5, the owner's writeback 0→1 1×5.
            (3, 5, false, 17),
            // Write miss on a shared line, 2 hops: request 2×1, data 2×5,
            // an invalidation and an ack to each of cores 0 and 3 (1 hop).
            (2, 5, true, 16),
            // A hit sends nothing.
            (2, 5, true, 0),
            // Home is the requester's own tile: each message counts 1 hop.
            (1, 1, false, 6),
        ];
        let mut s = sys(CohMode::Full);
        for (core, line, write, flit_hops) in script {
            let before = s.flit_hops;
            (if write { System::write } else { System::read })(&mut s, core, line);
            assert_eq!(s.flit_hops - before, flit_hops, "core {core} line {line}");
        }
        assert_eq!((s.stats.forwards, s.stats.invalidations), (1, 2));
        // 45 flit-hops at (1.5 + 2.0) pJ each, exactly.
        assert_eq!(s.noc_energy().to_bits(), (45.0f64 * 3.5).to_bits());
        s.check_swmr();
    }

    #[test]
    fn modified_line_forwards_to_reader() {
        let mut s = sys(CohMode::Full);
        s.write(1, 42);
        let before = s.stats.forwards;
        s.read(2, 42);
        assert_eq!(s.stats.forwards, before + 1);
        s.check_swmr();
    }

    #[test]
    fn e_to_m_upgrade_is_silent() {
        let mut s = sys(CohMode::Full);
        s.read(0, 9); // E (no other sharers)
        let invs = s.stats.invalidations;
        let lat = s.write(0, 9);
        assert_eq!(lat, s.cfg.lat.l1_hit);
        assert_eq!(s.stats.invalidations, invs);
        s.check_swmr();
    }

    #[test]
    fn private_lines_bypass_directory_in_selective_mode() {
        let mut s = sys(CohMode::Selective);
        s.classify(0..32, Class::Private(2));
        for l in 0..32 {
            s.write(2, l);
            s.read(2, l);
        }
        assert_eq!(s.stats.dir_lookups, 0);
        assert_eq!(s.stats.deactivated, 32); // the 32 write misses (reads hit)
    }

    #[test]
    fn full_mode_ignores_classification() {
        let mut s = sys(CohMode::Full);
        s.classify(0..32, Class::Private(2));
        s.write(2, 0);
        assert!(s.stats.dir_lookups > 0);
        assert_eq!(s.stats.deactivated, 0);
    }

    #[test]
    #[should_panic(expected = "read-only region")]
    fn writing_readonly_region_panics() {
        let mut s = sys(CohMode::Selective);
        s.classify(10..11, Class::ReadOnly);
        s.write(0, 10);
    }

    #[test]
    fn readonly_reads_are_cheap_and_untracked() {
        let mut s = sys(CohMode::Selective);
        s.classify(100..110, Class::ReadOnly);
        for c in 0..4 {
            for l in 100..110 {
                s.read(c, l);
            }
        }
        assert_eq!(s.stats.dir_lookups, 0);
    }

    #[test]
    fn reclassify_hand_off_preserves_data() {
        let mut s = sys(CohMode::Selective);
        s.classify(50..58, Class::Private(0));
        for l in 50..58 {
            s.write(0, l);
        }
        // Hand the region to core 1.
        let cost = s.reclassify(&(50..58).collect::<Vec<_>>(), Class::Private(1));
        assert!(cost > 0, "flush of dirty lines must cost something");
        for l in 50..58 {
            // The debug assert inside read() verifies version freshness.
            s.read(1, l);
        }
    }

    #[test]
    fn selective_is_faster_and_cooler_for_private_data() {
        let run = |mode| {
            let mut s = sys(mode);
            s.classify(0..256, Class::Private(1));
            let mut cycles = 0;
            for _ in 0..4 {
                for l in 0..256 {
                    cycles += s.write(1, l);
                    cycles += s.read(1, l);
                }
            }
            (cycles, s.noc_energy())
        };
        let (full_cyc, full_e) = run(CohMode::Full);
        let (sel_cyc, sel_e) = run(CohMode::Selective);
        assert!(sel_cyc < full_cyc, "{sel_cyc} vs {full_cyc}");
        assert!(sel_e < full_e, "{sel_e} vs {full_e}");
    }

    #[test]
    fn capacity_evictions_keep_directory_consistent() {
        let mut s = System::new(SystemConfig {
            cores: 4,
            l1_lines: 8,
            mode: CohMode::Full,
            protocol: ProtocolKind::Mesi,
            lat: LatencyModel::default(),
        });
        // Stream far beyond capacity with interleaved sharing.
        for l in 0..100u64 {
            s.write(0, l);
            s.read(1, l);
        }
        s.check_swmr();
        // Re-read everything; versions must be correct (debug asserts).
        for l in 0..100u64 {
            s.read(2, l);
        }
        s.check_swmr();
    }

    #[test]
    fn msi_pays_an_upgrade_where_mesi_upgrades_silently() {
        // Read-then-write private data: MESI's E state makes the write a
        // cache hit; MSI must go back to the directory.
        let run = |protocol| {
            let mut s = System::new(SystemConfig {
                cores: 4,
                l1_lines: 64,
                mode: CohMode::Full,
                protocol,
                lat: LatencyModel::default(),
            });
            let mut cycles = 0u64;
            for l in 0..32u64 {
                cycles += s.read(1, l);
                cycles += s.write(1, l);
            }
            (cycles, s.stats.dir_lookups)
        };
        let (mesi_cyc, mesi_dir) = run(ProtocolKind::Mesi);
        let (msi_cyc, msi_dir) = run(ProtocolKind::Msi);
        assert!(msi_cyc > mesi_cyc, "msi {msi_cyc} vs mesi {mesi_cyc}");
        assert!(msi_dir > mesi_dir);
    }

    #[test]
    fn msi_still_satisfies_swmr_and_freshness() {
        let mut s = System::new(SystemConfig {
            cores: 4,
            l1_lines: 16,
            mode: CohMode::Full,
            protocol: ProtocolKind::Msi,
            lat: LatencyModel::default(),
        });
        for i in 0..200u64 {
            let core = (i % 4) as usize;
            if i % 3 == 0 {
                s.write(core, i % 24);
            } else {
                s.read(core, i % 24);
            }
        }
        s.check_swmr();
    }

    #[test]
    fn selective_deactivation_subsumes_the_e_state_for_private_data() {
        // Under Selective, private data bypasses the protocol entirely, so
        // MSI-vs-MESI stops mattering for it.
        let run = |protocol| {
            let mut s = System::new(SystemConfig {
                cores: 2,
                l1_lines: 64,
                mode: CohMode::Selective,
                protocol,
                lat: LatencyModel::default(),
            });
            s.classify(0..32, Class::Private(0));
            let mut cycles = 0u64;
            for l in 0..32u64 {
                cycles += s.read(0, l);
                cycles += s.write(0, l);
            }
            cycles
        };
        assert_eq!(run(ProtocolKind::Mesi), run(ProtocolKind::Msi));
    }

    #[test]
    fn migratory_pattern_is_expensive_under_full_mesi() {
        // Producer writes, consumer reads, repeatedly: every round is a
        // forward + invalidate dance.
        let mut s = sys(CohMode::Full);
        for _ in 0..10 {
            for l in 0..16 {
                s.write(0, l);
            }
            for l in 0..16 {
                s.read(1, l);
            }
        }
        assert!(s.stats.forwards >= 16, "forwards {}", s.stats.forwards);
        assert!(s.stats.invalidations > 0);
        s.check_swmr();
    }
}
