//! Per-core private caches with clock (second-chance) replacement.
//!
//! The simulator models one private cache level per core (collapsing
//! L1+L2: their latency difference is not what Fig. 7 is about) holding
//! whole lines with a MESI state and a data *version* — the version lets
//! the tests prove reads observe the latest write, i.e. that the protocol
//! is actually coherent rather than just charged for.
//!
//! Storage is sized by capacity, not by footprint: every resident line
//! lives in one frame of a `frames` array that never holds more than
//! `capacity` entries. A line finds its frame through an index — a
//! `Vec<u16>` of frame index + 1 (so at most 65,534 frames) indexed by
//! line address and grown when a line past its end is mapped — so a probe
//! is one bounds check and two indexed loads, and every operation is one
//! `frame_of` lookup followed by frame arithmetic (a write hit reuses the
//! [`Slot`] its probe found).
//!
//! The frames are also the only replacement state: a clock hand sweeps
//! them in frame order, clearing each referenced frame's bit (its second
//! chance) and evicting the first unreferenced one, whose frame the new
//! line takes in place. An invalidation swap-removes its frame, keeping
//! `frames` exactly the resident set.

/// MESI states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// Modified: sole dirty copy.
    M,
    /// Exclusive: sole clean copy.
    E,
    /// Shared: one of possibly many clean copies.
    S,
}

fn state_bits(s: Mesi) -> u8 {
    match s {
        Mesi::M => 0,
        Mesi::E => 1,
        Mesi::S => 2,
    }
}

fn bits_state(b: u8) -> Mesi {
    match b & 3 {
        0 => Mesi::M,
        1 => Mesi::E,
        _ => Mesi::S,
    }
}

/// Reference bit within a frame's metadata byte (low two bits: state).
const META_REF: u8 = 4;

/// One resident line, as seen by the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Coherence state.
    pub state: Mesi,
    /// Version of the data held (monotonic per line).
    pub version: u64,
}

/// One occupied cache frame. Versions are `u32`, as in the protocol's
/// line table: round-structured sweeps write any one line a few thousand
/// times at most.
#[derive(Debug, Clone, Copy)]
struct Frame {
    line: u64,
    version: u32,
    /// State bits (low 2) plus [`META_REF`].
    meta: u8,
}

impl Frame {
    fn new(line: u64, state: Mesi, version: u64) -> Frame {
        debug_assert!(version <= u32::MAX as u64, "version overflow on a line");
        // Fresh lines start unreferenced: one probe earns clock protection
        // (second-chance discipline); re-inserts also reset the bit.
        Frame {
            line,
            version: version as u32,
            meta: state_bits(state),
        }
    }

    fn entry(&self) -> Entry {
        Entry {
            state: bits_state(self.meta),
            version: self.version as u64,
        }
    }
}

/// A resident line's frame, as found by [`Cache::probe`]. It stays valid
/// until the cache's next insert or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// A private cache of fixed line capacity.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line index: frame index + 1 per line address, `0` = not resident;
    /// lines past the end are not resident either. At 2 B per line a
    /// Fig. 7 core's index stays under glibc's 128 KiB mmap threshold.
    index: Vec<u16>,
    /// The resident lines, at most `capacity` of them, in no line order.
    frames: Vec<Frame>,
    /// The clock hand: the next frame the eviction sweep examines.
    hand: usize,
    capacity: usize,
}

impl Cache {
    /// A cache holding up to `capacity` lines, 1 to 65,534 (the `u16`
    /// index stores frame + 1).
    pub fn new(capacity: usize) -> Cache {
        assert!(
            (1..u16::MAX as usize).contains(&capacity),
            "cache capacity {capacity} is outside 1..=65534, the frames a u16 line index holds"
        );
        Cache {
            index: Vec::new(),
            frames: Vec::with_capacity(capacity),
            hand: 0,
            capacity,
        }
    }

    /// The frame holding `line`, if it is resident.
    #[inline]
    fn frame_of(&self, line: u64) -> Option<usize> {
        let slot = *self.index.get(line as usize)?;
        slot.checked_sub(1).map(|f| f as usize)
    }

    /// Point `line`'s index entry at frame `f`, growing the index to cover
    /// the line.
    fn map(&mut self, line: u64, f: usize) {
        let i = line as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, 0);
        }
        self.index[i] = f as u16 + 1;
    }

    /// Clear `line`'s index entry (the line is resident, so it is mapped).
    fn unmap(&mut self, line: u64) {
        self.index[line as usize] = 0;
    }

    /// Look up a line, setting its reference bit on hit; the slot lets a
    /// write hit skip a second lookup.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<(Slot, Entry)> {
        let f = self.frame_of(line)?;
        let fr = &mut self.frames[f];
        fr.meta |= META_REF;
        Some((Slot(f), fr.entry()))
    }

    /// Peek without reference-bit effects.
    #[inline]
    pub fn peek(&self, line: u64) -> Option<Entry> {
        self.frame_of(line).map(|f| self.frames[f].entry())
    }

    /// Change the state of a resident line (downgrade/upgrade).
    pub fn set_state(&mut self, line: u64, state: Mesi) {
        if let Some(f) = self.frame_of(line) {
            let fr = &mut self.frames[f];
            fr.meta = (fr.meta & META_REF) | state_bits(state);
        }
    }

    /// Bump the version of the line in `slot` (a write hit) and mark M.
    #[inline]
    pub fn write_hit(&mut self, slot: Slot, version: u64) {
        debug_assert!(version <= u32::MAX as u64, "version overflow on a line");
        let fr = &mut self.frames[slot.0];
        fr.meta = (fr.meta & META_REF) | state_bits(Mesi::M);
        fr.version = version as u32;
    }

    /// Remove a line (invalidation); returns its entry if present. The
    /// last frame moves into the freed one, so `frames` stays dense.
    pub fn invalidate(&mut self, line: u64) -> Option<Entry> {
        let f = self.frame_of(line)?;
        self.unmap(line);
        let gone = self.frames.swap_remove(f);
        if let Some(moved) = self.frames.get(f) {
            self.map(moved.line, f);
        }
        Some(gone.entry())
    }

    /// Insert a line, evicting by clock if full. Returns the evicted
    /// `(line, entry)` if any.
    pub fn insert(&mut self, line: u64, state: Mesi, version: u64) -> Option<(u64, Entry)> {
        let fresh = Frame::new(line, state, version);
        if let Some(f) = self.frame_of(line) {
            self.frames[f] = fresh;
            return None;
        }
        if self.frames.len() < self.capacity {
            self.map(line, self.frames.len());
            self.frames.push(fresh);
            return None;
        }
        // Second chance: clear referenced frames until an unreferenced one.
        loop {
            if self.hand >= self.frames.len() {
                self.hand = 0;
            }
            let f = self.hand;
            self.hand += 1;
            let fr = &mut self.frames[f];
            if fr.meta & META_REF != 0 {
                fr.meta &= !META_REF;
                continue;
            }
            let gone = std::mem::replace(fr, fresh);
            self.unmap(gone.line);
            self.map(line, f);
            return Some((gone.line, gone.entry()));
        }
    }

    /// Resident line count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Iterate resident `(line, entry)` pairs in frame order (no
    /// particular line order).
    pub fn entries(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        self.frames.iter().map(|fr| (fr.line, fr.entry()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_hit_and_miss_statistics() {
        let mut c = Cache::new(4);
        assert!(c.probe(1).is_none());
        c.insert(1, Mesi::E, 0);
        assert_eq!(
            c.probe(1).map(|(_, e)| e),
            Some(Entry {
                state: Mesi::E,
                version: 0
            })
        );
        assert!(c.probe(2).is_none());
    }

    #[test]
    fn capacity_is_respected_with_clock_eviction() {
        let mut c = Cache::new(3);
        for l in 0..10 {
            c.insert(l, Mesi::S, 0);
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn recently_referenced_lines_survive() {
        let mut c = Cache::new(3);
        c.insert(1, Mesi::S, 0);
        c.insert(2, Mesi::S, 0);
        c.insert(3, Mesi::S, 0);
        // Touch 1 so its ref bit protects it.
        c.probe(1);
        let evicted = c.insert(4, Mesi::S, 0).map(|(l, _)| l);
        assert_ne!(evicted, Some(1), "referenced line evicted first");
        assert!(c.peek(1).is_some());
    }

    #[test]
    fn eviction_returns_dirty_entry() {
        let mut c = Cache::new(1);
        c.insert(7, Mesi::E, 0);
        let (slot, _) = c.probe(7).expect("resident");
        c.write_hit(slot, 3);
        let (line, e) = c.insert(8, Mesi::E, 0).expect("eviction");
        assert_eq!(line, 7);
        assert_eq!(e.state, Mesi::M);
        assert_eq!(e.version, 3);
    }

    #[test]
    fn a_referenced_line_reinserted_after_invalidation_is_not_the_victim() {
        // Re-inserting line 1 gives it no second clock position: the hand
        // passes it, referenced, and evicts the unreferenced line 2.
        let mut c = Cache::new(2);
        c.insert(1, Mesi::S, 0);
        c.invalidate(1);
        c.insert(1, Mesi::S, 0);
        c.insert(2, Mesi::S, 0);
        assert!(c.probe(1).is_some());
        assert_eq!(c.insert(3, Mesi::S, 0).map(|(l, _)| l), Some(2));
        assert!(c.peek(1).is_some());
    }

    #[test]
    #[should_panic(expected = "outside 1..=65534, the frames a u16 line index holds")]
    fn capacity_past_the_u16_index_is_refused() {
        Cache::new(u16::MAX as usize);
    }

    #[test]
    fn the_largest_capacity_maps_probes_and_evicts_its_last_frame() {
        const CAP: u64 = u16::MAX as u64 - 1;
        let mut c = Cache::new(CAP as usize);
        for l in 0..CAP {
            assert!(c.insert(l, Mesi::S, l).is_none());
        }
        // Reference every line but the last (frame 65,533, index entry
        // 65,534), so the clock passes them all and evicts it.
        for l in 0..CAP - 1 {
            assert!(c.probe(l).is_some());
        }
        let (victim, e) = c.insert(CAP, Mesi::E, 7).expect("full cache evicts");
        assert_eq!((victim, e.version), (CAP - 1, CAP - 1));
        assert!(c.peek(CAP - 1).is_none());
        assert_eq!(c.probe(CAP).map(|(_, e)| e.version), Some(7));
    }

    #[test]
    fn entries_reports_every_resident_exactly_once() {
        let mut c = Cache::new(8);
        c.insert(3, Mesi::S, 1);
        c.insert(20, Mesi::M, 2);
        c.insert(5, Mesi::E, 3);
        c.invalidate(3);
        let mut got: Vec<(u64, u64)> = c.entries().map(|(l, e)| (l, e.version)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(5, 3), (20, 2)]);
    }
}
