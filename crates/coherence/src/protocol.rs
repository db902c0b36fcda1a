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
//! pre-sizable table, so an access resolves its line with one hash lookup
//! instead of consulting four parallel maps.

use crate::cache::{Cache, Entry, Mesi};
use crate::linehash::LineMap;
use crate::noc::Mesh;
use interweave_core::energy::{EnergyLedger, EnergyModel};

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
/// residency, latest version, class), so the hot access paths pay one hash
/// lookup and one write-back per miss instead of four lookups plus up to
/// four inserts. The record is packed to 24 bytes (the naive enum layout
/// is 56): the table is the sweep's biggest randomly-accessed structure,
/// and the miss paths are bound by real-CPU cache misses on it, so
/// footprint is latency. Versions are `u32` internally — round-structured
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

/// The unified line-state table: a dense array over the layout's
/// contiguous line range (reserved up front by sweeps whose footprint is
/// known), with a hash-map spill for addresses outside it. Absent
/// entries read as the cold [`LineState`] either way, so dense and spill
/// storage are observationally identical — the dense path just turns the
/// two map operations on every access into two array indexes.
#[derive(Debug, Default)]
struct LineTable {
    base: u64,
    dense: Vec<LineState>,
    spill: LineMap<LineState>,
}

impl LineTable {
    /// Index into the dense range, if `line` falls inside it.
    #[inline]
    fn dense_idx(&self, line: u64) -> Option<usize> {
        let off = line.wrapping_sub(self.base);
        if off < self.dense.len() as u64 {
            Some(off as usize)
        } else {
            None
        }
    }

    /// The line's state, defaulting cold.
    #[inline]
    fn get(&self, line: u64) -> LineState {
        match self.dense_idx(line) {
            Some(i) => self.dense[i],
            None => self.spill.get(&line).copied().unwrap_or_default(),
        }
    }

    /// Store the line's state.
    #[inline]
    fn set(&mut self, line: u64, st: LineState) {
        match self.dense_idx(line) {
            Some(i) => self.dense[i] = st,
            None => {
                self.spill.insert(line, st);
            }
        }
    }

    /// Mutable access, creating the cold default if absent.
    #[inline]
    fn state_mut(&mut self, line: u64) -> &mut LineState {
        match self.dense_idx(line) {
            Some(i) => &mut self.dense[i],
            None => self.spill.entry(line).or_default(),
        }
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
        match self.dense_idx(line) {
            Some(i) => self.dense[i].class(),
            None => self.spill.get(&line).and_then(|st| st.class()),
        }
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
    emodel: EnergyModel,
    /// Energy accounting.
    pub energy: EnergyLedger,
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
            emodel: EnergyModel::default(),
            energy: EnergyLedger::new(),
            stats: CohStats::default(),
            cfg,
        }
    }

    /// Pre-size the line-state table for `n` distinct line addresses, so a
    /// sweep whose footprint is known up front (layout sizes) never rehashes
    /// mid-run.
    pub fn reserve_lines(&mut self, n: usize) {
        self.lines
            .spill
            .reserve(n.saturating_sub(self.lines.spill.len()));
    }

    /// Back the line range `[base, base + n)` with dense storage — in the
    /// line-state table and in every core's cache: every access to it
    /// becomes an array index instead of a hash lookup. Observationally
    /// identical to the spill map (sweeps with a known contiguous layout
    /// call this instead of [`System::reserve_lines`]); any state the
    /// range already accumulated migrates over.
    pub fn reserve_dense(&mut self, base: u64, n: usize) {
        for c in &mut self.caches {
            c.reserve_dense(base, n);
        }
        let mut dense = vec![LineState::default(); n];
        self.lines.spill.retain(|&line, st| {
            let off = line.wrapping_sub(base);
            if off < n as u64 {
                dense[off as usize] = *st;
                false
            } else {
                true
            }
        });
        self.lines.base = base;
        self.lines.dense = dense;
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

    fn class_of(&self, line: u64) -> Class {
        self.resolve_class(&self.line_state(line))
    }

    #[inline]
    fn charge_msg(&mut self, hops: u32, flits: u32) {
        self.energy.charge_noc(&self.emodel, hops.max(1), flits);
    }

    #[inline]
    fn charge_dir(&mut self) {
        self.stats.dir_lookups += 1;
        self.energy.directory += self.emodel.directory_access;
    }

    #[inline]
    fn charge_l1(&mut self) {
        self.energy.caches += self.emodel.l1_access;
    }

    #[inline]
    fn charge_l3(&mut self) {
        self.energy.caches += self.emodel.l3_access;
    }

    /// Fetch a line's data at its home slice, returning `(latency, version)`
    /// and charging L3/DRAM. Operates on the caller's in-flight state
    /// record; a DRAM fetch fills the L3 in place.
    fn fetch_at_home(&mut self, st: &mut LineState) -> (u64, u64) {
        self.charge_l3();
        match st.l3() {
            Some(v) => (self.cfg.lat.l3, v),
            None => {
                self.stats.dram_fetches += 1;
                self.energy.dram += self.emodel.dram_access;
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
                    self.charge_l3();
                    self.lines.set(line, st);
                }
            }
            Class::ReadOnly => {} // clean replicas drop silently
            Class::Shared => {
                let home = self.mesh.home(line);
                let hops = self.mesh.hops(core, home);
                self.charge_dir();
                if e.state == Mesi::M {
                    self.stats.writebacks += 1;
                    st.set_l3(e.version);
                    self.charge_msg(hops, self.mesh.data_flits);
                    self.charge_l3();
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
        self.charge_l1();
        // Hits never touch the line table (the probe alone decides), so
        // the table read is deferred to the miss path.
        if let Some(e) = self.caches[core].probe(line) {
            self.stats.l1_hits += 1;
            debug_assert_eq!(
                e.version,
                self.line_state(line).latest(),
                "stale read of line {line:#x} at core {core}"
            );
            let _ = e;
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
                self.charge_dir();
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
                        // The owner missed (evicted without notice cannot
                        // happen — evictions notify), so this is unreachable;
                        // treat as uncached for robustness.
                        let (fetch, v) = self.fetch_at_home(&mut st);
                        lat += fetch + self.mesh.latency(req_hops);
                        self.insert_line(core, line, Mesi::E, v);
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
                        self.charge_l3();
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
        self.charge_l1();
        let class = match self.cfg.mode {
            CohMode::Full => Class::Shared,
            CohMode::Selective => self.lines.class(line).unwrap_or(Class::Shared),
        };
        match class {
            Class::Private(owner) => {
                debug_assert_eq!(owner, core, "disentanglement violation on {line:#x}");
                self.stats.deactivated += 1;
                if self.caches[core].probe(line).is_some() {
                    self.stats.l1_hits += 1;
                    let v = self.lines.bump_latest(line);
                    self.caches[core].write_hit(line, v);
                    self.cfg.lat.l1_hit
                } else {
                    let mut st = self.line_state(line);
                    let v = st.latest() + 1;
                    st.set_latest(v);
                    let (fetch, _) = self.fetch_at_home(&mut st);
                    self.charge_msg(0, self.mesh.data_flits);
                    self.lines.set(line, st);
                    self.insert_line(core, line, Mesi::E, v);
                    self.caches[core].write_hit(line, v);
                    self.cfg.lat.l1_hit + fetch
                }
            }
            Class::ReadOnly => panic!("write to read-only region: line {line:#x}"),
            Class::Shared => match self.caches[core].probe(line) {
                Some(e) if e.state == Mesi::M || e.state == Mesi::E => {
                    // M hit, or silent E→M upgrade.
                    self.stats.l1_hits += 1;
                    let v = self.lines.bump_latest(line);
                    self.caches[core].write_hit(line, v);
                    self.cfg.lat.l1_hit
                }
                probed => self.write_shared_slow(core, line, probed),
            },
        }
    }

    /// The non-fast-path half of a Shared-class write: an S-state upgrade
    /// or a full write miss (RFO through the directory). `probed` is the
    /// already-taken cache probe result.
    fn write_shared_slow(&mut self, core: usize, line: u64, probed: Option<Entry>) -> u64 {
        let mut st = self.line_state(line);
        let v = st.latest() + 1;
        st.set_latest(v);
        let lat = {
            let home = self.mesh.home(line);
            let req_hops = self.mesh.hops(core, home);
            match probed {
                Some(_) => {
                    // S → upgrade: invalidate other sharers via home.
                    self.stats.l1_hits += 1;
                    self.charge_msg(req_hops, self.mesh.control_flits);
                    self.charge_dir();
                    let mut lat =
                        self.cfg.lat.l1_hit + self.mesh.latency(req_hops) + self.cfg.lat.dir;
                    lat += self.invalidate_others(&st, line, core, home);
                    st.set_dir(Dir::Exclusive(core));
                    self.caches[core].write_hit(line, v);
                    lat
                }
                None => {
                    // Write miss: RFO through the directory.
                    self.charge_msg(req_hops, self.mesh.control_flits);
                    self.charge_dir();
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
                            // directly and drops its copy.
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
                self.charge_l3();
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
    pub fn check_swmr(&self) {
        // One sorted sweep over every resident (line, core, state) row,
        // grouped by line. The per-line holder sets are identical to probing
        // each cache per line, but the cost is one iteration plus a sort
        // instead of residents × cores hash lookups.
        let mut rows: Vec<(u64, usize, Mesi)> = Vec::new();
        for (ci, c) in self.caches.iter().enumerate() {
            rows.extend(c.entries().map(|(l, e)| (l, ci, e.state)));
        }
        rows.sort_unstable_by_key(|&(l, c, _)| (l, c));
        let mut i = 0;
        while i < rows.len() {
            let line = rows[i].0;
            let mut j = i;
            while j < rows.len() && rows[j].0 == line {
                j += 1;
            }
            let group = &rows[i..j];
            i = j;
            if self.class_of(line) != Class::Shared {
                continue;
            }
            let mut exclusive_holders = Vec::new();
            let mut shared_holders = Vec::new();
            for &(_, ci, state) in group {
                match state {
                    Mesi::M | Mesi::E => exclusive_holders.push(ci),
                    Mesi::S => shared_holders.push(ci),
                }
            }
            assert!(
                exclusive_holders.len() <= 1,
                "line {line:#x}: multiple exclusive holders {exclusive_holders:?}"
            );
            let dir = self.line_state(line).dir();
            if let Some(&x) = exclusive_holders.first() {
                assert!(
                    shared_holders.is_empty(),
                    "line {line:#x}: exclusive at {x} with sharers {shared_holders:?}"
                );
                assert_eq!(
                    dir,
                    Dir::Exclusive(x),
                    "line {line:#x}: directory out of sync with exclusive holder"
                );
            }
            if let Dir::Sharers(mask) = dir {
                for &s in &shared_holders {
                    assert!(
                        mask & (1 << s) != 0,
                        "line {line:#x}: sharer {s} missing from directory"
                    );
                }
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
            for rep in 0..4 {
                for l in 0..256 {
                    cycles += s.write(1, l);
                    cycles += s.read(1, l);
                }
                let _ = rep;
            }
            (cycles, s.energy.interconnect.get())
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
        for round in 0..10 {
            for l in 0..16 {
                s.write(0, l);
            }
            for l in 0..16 {
                s.read(1, l);
            }
            let _ = round;
        }
        assert!(s.stats.forwards >= 16, "forwards {}", s.stats.forwards);
        assert!(s.stats.invalidations > 0);
        s.check_swmr();
    }

    #[test]
    fn reserve_lines_changes_no_observable_behavior() {
        let run = |reserve: bool| {
            let mut s = sys(CohMode::Full);
            if reserve {
                s.reserve_lines(4096);
            }
            let mut cycles = 0u64;
            for i in 0..500u64 {
                let core = (i % 4) as usize;
                if i % 3 == 0 {
                    cycles += s.write(core, i % 96);
                } else {
                    cycles += s.read(core, i % 96);
                }
            }
            (cycles, s.stats.invalidations, s.stats.dram_fetches)
        };
        assert_eq!(run(false), run(true));
    }
}
