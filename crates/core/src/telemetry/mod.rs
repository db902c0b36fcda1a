//! The cross-layer telemetry plane: counter registry, cycle attribution,
//! and unified span tracing.
//!
//! The paper's central claim is about *where cycles go* when the stack is
//! interwoven versus layered — interrupt dispatch, kernel crossings, guard
//! checks, coherence traffic. This module turns that question into data
//! every crate can answer the same way:
//!
//! - a **counter/gauge `Registry`** with typed [`Key`]s, per-CPU shards,
//!   and cycle stamps, that core, kernel, coherence, CARAT, heartbeat, and
//!   virtine code all publish into;
//! - a **cycle-`Attribution` ledger** that charges every simulated cycle
//!   to a ([`Layer`], mechanism) category, with an invariant check that the
//!   charged categories sum *exactly* to the machine clock;
//! - **unified [`Span`] tracing** generalizing the kernel-only scheduler
//!   timeline into cross-layer intervals (interrupt delivery, fault
//!   recovery, virtine invocations, coherence epochs) exported as
//!   Chrome/Perfetto trace-event JSON with one process track per layer;
//! - **windowed [`TimeSeries`]** roll-ups (see `timeseries`) turning
//!   counters/gauges/quantile sketches into per-window trajectories over
//!   simulated cycles, mergeable bit-identically across shards;
//! - a bounded **[`FlightRecorder`]** blackbox (see `recorder`) that
//!   keeps a serving worker's last N events and dumps deterministically
//!   when its fault ledger fails to balance.
//!
//! Everything hangs off a [`Sink`]: a cheaply clonable handle that is
//! either *off* (the default — every publish call is a single branch on a
//! `None`, so disabled telemetry cannot perturb a simulation or its golden
//! outputs) or *on*, recording counters, attribution and spans. The
//! backing state is single-threaded (`Rc<RefCell>`): simulators in this
//! workspace are deterministic single-threaded machines, and keeping
//! telemetry on the same thread keeps snapshot ordering and span order a
//! pure function of the run.
//!
//! Determinism: counters live in `BTreeMap`s keyed by `'static` names, so
//! snapshots iterate in name order; spans append in simulation order; no
//! wall-clock or host state is ever read. Two runs of the same seed produce
//! byte-identical snapshots and traces.

pub(crate) mod recorder;
pub(crate) mod timeseries;

pub use recorder::{FlightEvent, FlightRecorder};
pub use timeseries::TimeSeries;

use crate::time::Cycles;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// The stack layer a counter or span belongs to. One Perfetto process
/// track per layer; the attribution table groups by layer first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Simulated hardware: idle cycles, interrupt fabric, event machinery.
    Hardware,
    /// Cache-coherence protocol and NoC traffic.
    Coherence,
    /// Kernel: scheduler, context switches, buddy allocator, watchdog.
    Kernel,
    /// Interwoven runtime services (CARAT guards, audits, relocation).
    Runtime,
    /// Virtine execution and the Wasp microhypervisor.
    Virtine,
    /// Application compute: the cycles the workload actually wanted.
    Application,
}

impl Layer {
    /// Every layer, in track order (also the Perfetto `pid` for each).
    pub(crate) const ALL: [Layer; 6] = [
        Layer::Hardware,
        Layer::Coherence,
        Layer::Kernel,
        Layer::Runtime,
        Layer::Virtine,
        Layer::Application,
    ];

    /// Display name (also the Perfetto process name).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Layer::Hardware => "hardware",
            Layer::Coherence => "coherence",
            Layer::Kernel => "kernel",
            Layer::Runtime => "runtime",
            Layer::Virtine => "virtine",
            Layer::Application => "application",
        }
    }

    /// Stable index: the Perfetto `pid` and the attribution sort key.
    pub(crate) fn index(self) -> usize {
        match self {
            Layer::Hardware => 0,
            Layer::Coherence => 1,
            Layer::Kernel => 2,
            Layer::Runtime => 3,
            Layer::Virtine => 4,
            Layer::Application => 5,
        }
    }
}

/// What a counter's value measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Plain event count.
    Count,
    /// Simulated cycles.
    Cycles,
    /// Bytes.
    Bytes,
}

impl Unit {
    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Cycles => "cycles",
            Unit::Bytes => "bytes",
        }
    }
}

/// A typed counter key: the static identity of one registry entry.
///
/// Keys are declared as `const`s by the publishing crate (e.g.
/// `kernel.watchdog.rekicks` in the kernel), so the name, layer, and unit
/// of a counter are fixed at compile time and every publish site agrees.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// Registry name, dot-separated by convention (`layer.subsystem.what`).
    pub name: &'static str,
    /// Owning layer.
    pub layer: Layer,
    /// Value unit.
    pub unit: Unit,
}

impl Key {
    /// A new key (usable in `const` declarations).
    pub const fn new(name: &'static str, layer: Layer, unit: Unit) -> Key {
        Key { name, layer, unit }
    }
}

/// One registry cell: per-CPU shards plus the cycle stamp of the last
/// update.
#[derive(Debug, Clone)]
struct Cell {
    layer: Layer,
    unit: Unit,
    per_cpu: Vec<u64>,
    last: Cycles,
}

/// One counter in a [`Snapshot`], totals plus per-CPU shards.
#[derive(Debug, Clone, Serialize)]
pub struct CounterEntry {
    /// Registry name.
    pub name: String,
    /// Owning layer name.
    pub layer: &'static str,
    /// Unit name.
    pub unit: &'static str,
    /// Sum across all shards.
    pub total: u64,
    /// Per-CPU (shard) values; index is the CPU id.
    pub per_cpu: Vec<u64>,
    /// Cycle stamp of the most recent update.
    pub last_cycle: u64,
}

/// The counter/gauge registry: typed keys, per-CPU shards, cycle-stamped.
///
/// Counters are created lazily on first publish; snapshots iterate in name
/// order, so registry output is deterministic regardless of publish order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Registry {
    cells: BTreeMap<&'static str, Cell>,
}

impl Registry {
    fn cell(&mut self, key: &Key, cpu: usize) -> &mut Cell {
        let cell = self.cells.entry(key.name).or_insert_with(|| Cell {
            layer: key.layer,
            unit: key.unit,
            per_cpu: Vec::new(),
            last: Cycles::ZERO,
        });
        if cell.per_cpu.len() <= cpu {
            cell.per_cpu.resize(cpu + 1, 0);
        }
        cell
    }

    /// Add `n` to `key`'s shard for `cpu`, stamping the update at `now`.
    pub(crate) fn add(&mut self, key: &Key, cpu: usize, n: u64, now: Cycles) {
        let cell = self.cell(key, cpu);
        cell.per_cpu[cpu] += n;
        cell.last = cell.last.max(now);
    }

    /// Set `key`'s shard for `cpu` to `v` (gauge semantics), stamped `now`.
    pub(crate) fn set(&mut self, key: &Key, cpu: usize, v: u64, now: Cycles) {
        let cell = self.cell(key, cpu);
        cell.per_cpu[cpu] = v;
        cell.last = cell.last.max(now);
    }

    /// Total of `name` across all shards (0 for an unknown counter).
    pub(crate) fn total(&self, name: &str) -> u64 {
        self.cells
            .get(name)
            .map(|c| c.per_cpu.iter().sum())
            .unwrap_or(0)
    }

    /// Deterministic snapshot: every counter, in name order.
    pub(crate) fn snapshot(&self) -> Vec<CounterEntry> {
        self.cells
            .iter()
            .map(|(name, c)| CounterEntry {
                name: name.to_string(),
                layer: c.layer.name(),
                unit: c.unit.name(),
                total: c.per_cpu.iter().sum(),
                per_cpu: c.per_cpu.clone(),
                last_cycle: c.last.get(),
            })
            .collect()
    }
}

/// One row of the cycle-attribution table.
#[derive(Debug, Clone, Serialize)]
pub struct AttributionRow {
    /// Layer the cycles belong to.
    pub layer: &'static str,
    /// Mechanism within the layer (e.g. `context-switch`, `guard-check`).
    pub mechanism: &'static str,
    /// Cycles charged.
    pub cycles: u64,
}

/// The attribution invariant failed: charged cycles do not equal the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributionImbalance {
    /// Cycles the ledger holds.
    pub attributed: Cycles,
    /// The machine clock the ledger was checked against.
    pub clock: Cycles,
}

impl std::fmt::Display for AttributionImbalance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attributed {} cycles != machine clock {}",
            self.attributed, self.clock
        )
    }
}

/// The cycle-attribution ledger: every simulated cycle charged to one
/// ([`Layer`], mechanism) category.
///
/// The whole point is the invariant: [`Attribution::verify`] demands that
/// the categories sum *exactly* to the machine clock, so a "where the
/// cycles went" table is an audit, not an estimate.
#[derive(Debug, Clone, Default)]
pub(crate) struct Attribution {
    cells: BTreeMap<(usize, &'static str), u64>,
}

impl Attribution {
    /// Charge `cycles` to `(layer, mechanism)`.
    pub(crate) fn charge(&mut self, layer: Layer, mechanism: &'static str, cycles: Cycles) {
        if cycles > Cycles::ZERO {
            *self.cells.entry((layer.index(), mechanism)).or_insert(0) += cycles.get();
        }
    }

    /// Total cycles charged across all categories.
    pub(crate) fn total(&self) -> Cycles {
        Cycles(self.cells.values().sum())
    }

    /// The table rows, ordered by layer track then mechanism name.
    pub(crate) fn rows(&self) -> Vec<AttributionRow> {
        self.cells
            .iter()
            .map(|((l, m), v)| AttributionRow {
                layer: Layer::ALL[*l].name(),
                mechanism: m,
                cycles: *v,
            })
            .collect()
    }

    /// The invariant check: charged cycles must equal `clock` exactly.
    pub(crate) fn verify(&self, clock: Cycles) -> Result<(), AttributionImbalance> {
        let attributed = self.total();
        if attributed == clock {
            Ok(())
        } else {
            Err(AttributionImbalance { attributed, clock })
        }
    }
}

/// What a span represents; maps to the Perfetto `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A task computed.
    Run,
    /// The scheduler switched contexts (preemption or yield).
    Switch,
    /// A CPU sat stalled on a lost kick until the watchdog rescued it.
    Stall,
    /// An interrupt in flight through the delivery fabric.
    Interrupt,
    /// Fault recovery in progress (audit, relocation, restart).
    FaultRecovery,
    /// A virtine invocation, entry to return.
    VirtineCall,
    /// A coherence epoch (one classified phase of the protocol).
    CoherenceEpoch,
    /// Anything else; the string is the Perfetto category.
    Custom(&'static str),
}

impl SpanKind {
    /// The Perfetto `cat` string.
    pub(crate) fn cat(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Switch => "sched",
            SpanKind::Stall => "stall",
            SpanKind::Interrupt => "irq",
            SpanKind::FaultRecovery => "fault",
            SpanKind::VirtineCall => "virtine",
            SpanKind::CoherenceEpoch => "coherence",
            SpanKind::Custom(c) => c,
        }
    }
}

/// One traced interval on one track of one layer.
///
/// Generalizes the kernel-only scheduler `TraceEvent`: the kernel's
/// timeline is `layer: Kernel, track: cpu`, a virtine invocation is
/// `layer: Virtine, track: virtine-context`, a coherence epoch is
/// `layer: Coherence`. Within one `(layer, track)` lane spans are either
/// disjoint or properly nested — see [`find_overlap`] and
/// [`well_bracketed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer (the Perfetto process).
    pub layer: Layer,
    /// Track within the layer (CPU id, virtine id, …; the Perfetto tid).
    pub track: usize,
    /// Subject id (task id, invocation sequence…; `u64::MAX` for none).
    pub id: u64,
    /// What the interval was.
    pub kind: SpanKind,
    /// Interval start (cycles).
    pub start: Cycles,
    /// Interval end (cycles).
    pub end: Cycles,
}

impl Span {
    /// Duration of the interval.
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }

    /// Display name (the Perfetto `name` field).
    pub(crate) fn label(&self) -> String {
        match self.kind {
            SpanKind::Run => format!("task{}", self.id),
            SpanKind::Switch => "switch".to_string(),
            SpanKind::Stall => "stall".to_string(),
            SpanKind::Interrupt => "irq".to_string(),
            SpanKind::FaultRecovery => "recover".to_string(),
            SpanKind::VirtineCall => format!("virtine{}", self.id),
            SpanKind::CoherenceEpoch => "epoch".to_string(),
            SpanKind::Custom(c) => c.to_string(),
        }
    }
}

/// Verify the strict trace invariant: spans on one `(layer, track)` lane
/// never overlap *at all* (no nesting). Returns the first violating pair.
///
/// This is the scheduler-timeline invariant — one CPU runs one thing at a
/// time. Layers with hierarchical spans (virtine restarts inside an
/// invocation) satisfy the weaker [`well_bracketed`] instead.
pub fn find_overlap(spans: &[Span]) -> Option<(Span, Span)> {
    let mut lanes: BTreeMap<(usize, usize), Vec<Span>> = BTreeMap::new();
    for &s in spans {
        lanes.entry((s.layer.index(), s.track)).or_default().push(s);
    }
    for (_, mut lane) in lanes {
        lane.sort_by_key(|s| (s.start, s.end));
        for w in lane.windows(2) {
            if w[1].start < w[0].end {
                return Some((w[0], w[1]));
            }
        }
    }
    None
}

/// Verify the nesting invariant: any two spans on one `(layer, track)`
/// lane are either disjoint or one properly contains the other (no partial
/// overlap). Returns the first violating pair.
pub fn well_bracketed(spans: &[Span]) -> Option<(Span, Span)> {
    let mut lanes: BTreeMap<(usize, usize), Vec<Span>> = BTreeMap::new();
    for &s in spans {
        lanes.entry((s.layer.index(), s.track)).or_default().push(s);
    }
    for (_, mut lane) in lanes {
        // Sorted by (start, -end): an enclosing span precedes its children.
        lane.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        let mut open: Vec<Span> = Vec::new();
        for &s in &lane {
            while let Some(top) = open.last() {
                if top.end <= s.start {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = open.last() {
                // `s` starts inside `top`; it must also end inside it.
                if s.end > top.end {
                    return Some((*top, s));
                }
            }
            open.push(s);
        }
    }
    None
}

/// A named counter trajectory rendered as a Perfetto counter track
/// (`ph:"C"` events): sampled values over simulated time, displayed as a
/// stepped area chart under the owning layer's process track. The serving
/// harness emits goodput / queue-depth / p99 trajectories this way so the
/// knee is *visible* on the same timeline as the spans.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Counter name (one Perfetto track per name).
    pub name: &'static str,
    /// The layer whose process track hosts the counter.
    pub layer: Layer,
    /// `(stamp, value)` samples in ascending stamp order.
    pub points: Vec<(Cycles, f64)>,
}

/// Render spans and counter tracks as a Chrome/Perfetto trace-event JSON
/// document, one process track per layer (`pid` = layer index, named via
/// metadata events) and one thread per span track within it.
///
/// Cycles are reported as microsecond timestamps scaled by
/// `cycles_per_us` (pass the machine frequency in MHz; 1 keeps raw
/// cycles). The output is deterministic: metadata events in layer order,
/// then spans in input order, then counter events grouped per track in
/// input order (sample order within a track preserved).
pub fn chrome_trace_json(spans: &[Span], counters: &[CounterTrack], cycles_per_us: u64) -> String {
    let scale = cycles_per_us.max(1) as f64;
    let mut present = [false; Layer::ALL.len()];
    for s in spans {
        present[s.layer.index()] = true;
    }
    for c in counters {
        present[c.layer.index()] = true;
    }
    let mut out = String::from("[\n");
    let mut first = true;
    let emit = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for layer in Layer::ALL {
        if present[layer.index()] {
            emit(
                format!(
                    "  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    layer.index(),
                    layer.name()
                ),
                &mut out,
                &mut first,
            );
        }
    }
    for s in spans {
        let mut line = String::new();
        let _ = write!(
            line,
            "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{}}}",
            s.label(),
            s.kind.cat(),
            s.start.as_f64() / scale,
            s.duration().as_f64() / scale,
            s.layer.index(),
            s.track
        );
        emit(line, &mut out, &mut first);
    }
    for c in counters {
        for &(at, v) in &c.points {
            let mut line = String::new();
            let _ = write!(
                line,
                "  {{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"{}\":{:.3}}}}}",
                c.name,
                at.as_f64() / scale,
                c.layer.index(),
                c.name,
                v
            );
            emit(line, &mut out, &mut first);
        }
    }
    out.push_str("\n]");
    out
}

/// The backing telemetry state behind an enabled [`Sink`].
#[derive(Debug, Default)]
pub(crate) struct Telemetry {
    /// The counter/gauge registry.
    pub registry: Registry,
    /// The cycle-attribution ledger.
    pub attribution: Attribution,
    /// Collected spans, in publish order.
    pub spans: Vec<Span>,
}

/// A serializable snapshot of the whole plane: every counter plus the
/// attribution table, both in deterministic order.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    /// Every counter, in name order.
    pub counters: Vec<CounterEntry>,
    /// The attribution table, in (layer, mechanism) order.
    pub attribution: Vec<AttributionRow>,
}

/// The handle every publisher holds: either off (default; publishing is a
/// single branch and records nothing) or a shared reference to one
/// `Telemetry`.
///
/// Clones share the same backing state, so one sink threaded through the
/// executor, its allocator, its fault plan, a CARAT runtime, and a Wasp
/// instance aggregates into one registry/ledger/trace.
#[derive(Debug, Clone, Default)]
pub struct Sink {
    inner: Option<Rc<RefCell<Telemetry>>>,
}

impl Sink {
    /// The disabled sink: every publish is a no-op.
    pub fn off() -> Sink {
        Sink::default()
    }

    /// An enabled sink over fresh state.
    pub fn on() -> Sink {
        Sink {
            inner: Some(Rc::new(RefCell::default())),
        }
    }

    /// Is this sink recording at all?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to `key`'s shard for `cpu` (unstamped).
    pub fn count(&self, key: &Key, cpu: usize, n: u64) {
        self.count_at(key, cpu, n, Cycles::ZERO);
    }

    /// Add `n` to `key`'s shard for `cpu`, stamped with the cycle `now`.
    #[inline]
    pub fn count_at(&self, key: &Key, cpu: usize, n: u64, now: Cycles) {
        if let Some(t) = &self.inner {
            Self::add(t, key, cpu, n, now);
        }
    }

    // The recording bodies below stay out of line, so that a publish on an
    // off sink inlines to one branch at every call site without copying the
    // on path into each of them.
    #[inline(never)]
    fn add(t: &RefCell<Telemetry>, key: &Key, cpu: usize, n: u64, now: Cycles) {
        t.borrow_mut().registry.add(key, cpu, n, now);
    }

    /// Set `key`'s shard for `cpu` to `v` (gauge semantics, unstamped).
    pub fn gauge(&self, key: &Key, cpu: usize, v: u64) {
        self.gauge_at(key, cpu, v, Cycles::ZERO);
    }

    /// Set `key`'s shard for `cpu` to `v`, stamped with the cycle `now`.
    #[inline]
    pub fn gauge_at(&self, key: &Key, cpu: usize, v: u64, now: Cycles) {
        if let Some(t) = &self.inner {
            Self::set(t, key, cpu, v, now);
        }
    }

    #[inline(never)]
    fn set(t: &RefCell<Telemetry>, key: &Key, cpu: usize, v: u64, now: Cycles) {
        t.borrow_mut().registry.set(key, cpu, v, now);
    }

    /// Charge `cycles` to the `(layer, mechanism)` attribution category.
    #[inline]
    pub fn charge(&self, layer: Layer, mechanism: &'static str, cycles: Cycles) {
        if let Some(t) = &self.inner {
            Self::attribute(t, layer, mechanism, cycles);
        }
    }

    #[inline(never)]
    fn attribute(t: &RefCell<Telemetry>, layer: Layer, mechanism: &'static str, cycles: Cycles) {
        t.borrow_mut().attribution.charge(layer, mechanism, cycles);
    }

    /// Record a span. Zero-length spans are dropped: an instant is a
    /// counter's job.
    #[inline]
    pub fn span(&self, span: Span) {
        if let Some(t) = &self.inner {
            Self::push_span(t, span);
        }
    }

    #[inline(never)]
    fn push_span(t: &RefCell<Telemetry>, span: Span) {
        if span.end > span.start {
            t.borrow_mut().spans.push(span);
        }
    }

    /// Total of counter `name` across shards (0 when off or unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|t| t.borrow().registry.total(name))
            .unwrap_or(0)
    }

    /// Run the attribution invariant check against `clock`.
    /// A disabled sink trivially passes (it attributed nothing to nothing).
    pub fn verify_attribution(&self, clock: Cycles) -> Result<(), AttributionImbalance> {
        match &self.inner {
            Some(t) => t.borrow().attribution.verify(clock),
            None => Ok(()),
        }
    }

    /// Cycles attributed so far (0 when off).
    pub fn attributed(&self) -> Cycles {
        self.inner
            .as_ref()
            .map(|t| t.borrow().attribution.total())
            .unwrap_or(Cycles::ZERO)
    }

    /// The attribution table (empty when off).
    pub fn attribution_rows(&self) -> Vec<AttributionRow> {
        self.inner
            .as_ref()
            .map(|t| t.borrow().attribution.rows())
            .unwrap_or_default()
    }

    /// A copy of the collected spans (empty when off).
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|t| t.borrow().spans.clone())
            .unwrap_or_default()
    }

    /// A deterministic snapshot of counters + attribution (None when off).
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|t| {
            let t = t.borrow();
            Snapshot {
                counters: t.registry.snapshot(),
                attribution: t.attribution.rows(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K_A: Key = Key::new("test.alpha", Layer::Kernel, Unit::Count);
    const K_B: Key = Key::new("test.beta", Layer::Runtime, Unit::Cycles);

    fn sp(layer: Layer, track: usize, start: u64, end: u64) -> Span {
        Span {
            layer,
            track,
            id: 0,
            kind: SpanKind::Run,
            start: Cycles(start),
            end: Cycles(end),
        }
    }

    #[test]
    fn registry_shards_and_stamps() {
        let mut r = Registry::default();
        r.add(&K_A, 0, 2, Cycles(10));
        r.add(&K_A, 3, 5, Cycles(40));
        r.add(&K_A, 0, 1, Cycles(20));
        assert_eq!(r.total("test.alpha"), 8);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].last_cycle, 40);
        assert_eq!(snap[0].per_cpu, vec![3, 0, 0, 5]);
    }

    #[test]
    fn registry_gauge_sets_instead_of_adding() {
        let mut r = Registry::default();
        r.set(&K_B, 0, 7, Cycles(1));
        r.set(&K_B, 0, 3, Cycles(2));
        assert_eq!(r.total("test.beta"), 3);
    }

    #[test]
    fn snapshot_is_name_ordered_regardless_of_publish_order() {
        let mut r = Registry::default();
        r.add(&K_B, 0, 1, Cycles::ZERO);
        r.add(&K_A, 0, 1, Cycles::ZERO);
        let names: Vec<String> = r.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["test.alpha", "test.beta"]);
    }

    #[test]
    fn attribution_verifies_exact_sum() {
        let mut a = Attribution::default();
        a.charge(Layer::Application, "compute", Cycles(70));
        a.charge(Layer::Kernel, "context-switch", Cycles(20));
        a.charge(Layer::Hardware, "idle", Cycles(10));
        assert_eq!(a.total(), Cycles(100));
        assert!(a.verify(Cycles(100)).is_ok());
        let err = a.verify(Cycles(99)).unwrap_err();
        assert_eq!(err.attributed, Cycles(100));
        assert_eq!(err.clock, Cycles(99));
    }

    #[test]
    fn attribution_rows_sorted_by_layer_then_mechanism() {
        let mut a = Attribution::default();
        a.charge(Layer::Application, "compute", Cycles(1));
        a.charge(Layer::Kernel, "z-mech", Cycles(1));
        a.charge(Layer::Kernel, "a-mech", Cycles(1));
        a.charge(Layer::Hardware, "idle", Cycles(1));
        let rows: Vec<(&str, &str)> = a.rows().iter().map(|r| (r.layer, r.mechanism)).collect();
        assert_eq!(
            rows,
            vec![
                ("hardware", "idle"),
                ("kernel", "a-mech"),
                ("kernel", "z-mech"),
                ("application", "compute"),
            ]
        );
    }

    #[test]
    fn overlap_detected_per_lane_only() {
        // Same window on different tracks/layers: fine.
        let ok = [
            sp(Layer::Kernel, 0, 0, 10),
            sp(Layer::Kernel, 1, 5, 15),
            sp(Layer::Virtine, 0, 5, 15),
            sp(Layer::Kernel, 0, 10, 20),
        ];
        assert!(find_overlap(&ok).is_none());
        let bad = [sp(Layer::Kernel, 0, 0, 10), sp(Layer::Kernel, 0, 9, 20)];
        assert!(find_overlap(&bad).is_some());
    }

    #[test]
    fn bracketing_accepts_nesting_rejects_partial_overlap() {
        let nested = [
            sp(Layer::Virtine, 0, 0, 100),
            sp(Layer::Virtine, 0, 10, 40),
            sp(Layer::Virtine, 0, 20, 30),
            sp(Layer::Virtine, 0, 50, 90),
            sp(Layer::Virtine, 0, 100, 120),
        ];
        assert!(well_bracketed(&nested).is_none());
        assert!(
            find_overlap(&nested).is_some(),
            "the strict invariant must reject nesting"
        );
        let partial = [sp(Layer::Virtine, 0, 0, 50), sp(Layer::Virtine, 0, 25, 75)];
        assert!(well_bracketed(&partial).is_some());
    }

    #[test]
    fn chrome_json_has_layer_tracks() {
        let spans = [
            sp(Layer::Kernel, 2, 100, 300),
            Span {
                layer: Layer::Virtine,
                track: 0,
                id: 4,
                kind: SpanKind::VirtineCall,
                start: Cycles(50),
                end: Cycles(250),
            },
        ];
        let json = chrome_trace_json(&spans, &[], 1);
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"args\":{\"name\":\"kernel\"}"));
        assert!(json.contains("\"args\":{\"name\":\"virtine\"}"));
        assert!(json.contains("\"name\":\"task0\""));
        assert!(json.contains("\"name\":\"virtine4\""));
        assert!(json.contains("\"ts\":100.000"));
        assert!(json.contains("\"dur\":200.000"));
        // Parse-validate with serde: the document must be a JSON array of
        // objects with the trace-event required fields.
        let v = serde::json::parse(&json).expect("valid JSON");
        let serde_json::Value::Arr(arr) = &v else {
            panic!("trace is an array");
        };
        assert_eq!(arr.len(), 4, "2 metadata + 2 spans");
        for ev in arr {
            assert!(ev.get("name").is_some() && ev.get("ph").is_some());
            if ev.get("ph").and_then(|p| p.as_str()) == Some("X") {
                for f in ["cat", "ts", "dur", "pid", "tid"] {
                    assert!(ev.get(f).is_some(), "missing {f}");
                }
            }
        }
    }

    #[test]
    fn chrome_json_scales_timestamps_by_frequency() {
        let spans = [sp(Layer::Kernel, 0, 1400, 2800)];
        // 1400 MHz → 1400 cycles = 1 µs.
        let json = chrome_trace_json(&spans, &[], 1400);
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":1.000"));
    }

    #[test]
    fn counter_tracks_emit_perfetto_counter_events() {
        let spans = [sp(Layer::Kernel, 0, 0, 100)];
        let tracks = [CounterTrack {
            name: "goodput",
            layer: Layer::Virtine,
            points: vec![(Cycles(0), 12.0), (Cycles(50), 7.5)],
        }];
        let json = chrome_trace_json(&spans, &tracks, 1);
        // Counter-only layers still get their process metadata.
        assert!(json.contains("\"args\":{\"name\":\"virtine\"}"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"goodput\":7.500}"));
        let v = serde::json::parse(&json).expect("valid JSON");
        let serde_json::Value::Arr(arr) = &v else {
            panic!("trace is an array");
        };
        assert_eq!(arr.len(), 5, "2 metadata + 1 span + 2 counter samples");
    }

    #[test]
    fn empty_counter_tracks_keep_the_trace_byte_identical() {
        let spans = [
            sp(Layer::Kernel, 0, 100, 300),
            sp(Layer::Virtine, 4, 50, 250),
        ];
        // The spans-only document the trace goldens were pinned on.
        let spans_only = "[
  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"kernel\"}},
  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,\"tid\":0,\"args\":{\"name\":\"virtine\"}},
  {\"name\":\"task0\",\"cat\":\"run\",\"ph\":\"X\",\"ts\":0.071,\"dur\":0.143,\"pid\":2,\"tid\":0},
  {\"name\":\"task0\",\"cat\":\"run\",\"ph\":\"X\",\"ts\":0.036,\"dur\":0.143,\"pid\":4,\"tid\":4}
]";
        assert_eq!(chrome_trace_json(&spans, &[], 1400), spans_only);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let s = Sink::off();
        s.count(&K_A, 0, 5);
        s.charge(Layer::Kernel, "x", Cycles(5));
        s.span(sp(Layer::Kernel, 0, 0, 10));
        assert!(!s.is_on());
        assert_eq!(s.counter("test.alpha"), 0);
        assert_eq!(s.attributed(), Cycles::ZERO);
        assert!(s.spans().is_empty());
        assert!(s.snapshot().is_none());
        assert!(s.verify_attribution(Cycles(12345)).is_ok());
    }

    #[test]
    fn clones_share_state() {
        let s = Sink::on();
        let s2 = s.clone();
        s.count(&K_A, 0, 1);
        s2.count(&K_A, 0, 2);
        s2.span(sp(Layer::Kernel, 0, 3, 9));
        assert_eq!(s.counter("test.alpha"), 3);
        assert_eq!(s.spans().len(), 1);
        // Zero-length spans are dropped.
        s.span(sp(Layer::Kernel, 0, 9, 9));
        assert_eq!(s.spans().len(), 1);
    }

    #[test]
    fn snapshot_serializes() {
        let s = Sink::on();
        s.count_at(&K_A, 0, 2, Cycles(33));
        s.charge(Layer::Application, "compute", Cycles(10));
        let snap = s.snapshot().unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"test.alpha\""));
        assert!(json.contains("\"compute\""));
        let back = serde::json::parse(&json).unwrap();
        let first = |field: &str| -> serde_json::Value {
            match back.get(field) {
                Some(serde_json::Value::Arr(a)) => a[0].clone(),
                other => panic!("{field} not an array: {other:?}"),
            }
        };
        let counter = first("counters");
        assert_eq!(
            counter.get("total"),
            Some(&serde_json::Value::Num("2".into()))
        );
        assert_eq!(
            counter.get("last_cycle"),
            Some(&serde_json::Value::Num("33".into()))
        );
        assert_eq!(
            first("attribution").get("cycles"),
            Some(&serde_json::Value::Num("10".into()))
        );
    }
}
