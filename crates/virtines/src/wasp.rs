//! The Wasp-like microhypervisor: launch paths and invocation of real
//! guests through the snapshot pool.
//!
//! "Our virtine microhypervisor runs as a user-space process ... using KVM
//! or Hyper-V ... with start-up overheads as low as 100 µs" (§IV-D). The
//! decisive comparison is against the legacy isolation mechanisms FaaS
//! platforms actually use — processes, containers, full VMs — whose
//! start-up paths carry orders of magnitude more baggage. Costs here are
//! calibrated to published measurements (fork/exec ≈ hundreds of µs;
//! container runtimes ≈ hundreds of ms; µVM boot ≈ 125 ms; virtine cold
//! start ≈ 100 µs; snapshot restore ≈ 10 µs).

use crate::bespoke::BespokeSpec;
use crate::context::{Virtine, VirtineOutcome};
use crate::extract::VirtineImage;
use crate::serve::{PoolOptions, PoolStats, RetryPolicy, ServeError, WaspPool};
use interweave_core::machine::MachineConfig;
use interweave_core::telemetry::{Key, Layer, Sink, Span, SpanKind, Unit};
use interweave_core::time::{Cycles, MicroSeconds};
use interweave_core::FaultPlan;
use interweave_ir::types::Val;

const KEY_INVOCATIONS: Key = Key::new("virtines.invocations", Layer::Virtine, Unit::Count);
const KEY_COLD_STARTS: Key = Key::new("virtines.cold_starts", Layer::Virtine, Unit::Count);
const KEY_REUSES: Key = Key::new("virtines.reuses", Layer::Virtine, Unit::Count);
const KEY_RESTARTS: Key = Key::new("virtines.restarts", Layer::Virtine, Unit::Count);
const KEY_DETECTED: Key = Key::new("virtines.faults_detected", Layer::Virtine, Unit::Count);

/// How a function can be launched in isolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaunchPath {
    /// `fork`+`exec` of a helper process.
    Process,
    /// An OCI container (runc-style).
    Container,
    /// A full virtual machine with a general-purpose guest (µVM class).
    FullVm,
    /// A virtine booted from scratch.
    VirtineCold,
    /// A virtine restored from the snapshot pool.
    VirtineSnapshot,
    /// A bespoke context synthesized for the workload (§V-E).
    Bespoke(BespokeSpec),
}

impl LaunchPath {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            LaunchPath::Process => "process (fork+exec)",
            LaunchPath::Container => "container",
            LaunchPath::FullVm => "full VM",
            LaunchPath::VirtineCold => "virtine (cold)",
            LaunchPath::VirtineSnapshot => "virtine (snapshot)",
            LaunchPath::Bespoke(_) => "bespoke context",
        }
    }
}

/// Start-up cost decomposition in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupBreakdown {
    /// Kernel/hypervisor object creation (task, VM fd, vCPU).
    pub create_us: f64,
    /// Image/page setup (exec, layer mounts, kernel load, snapshot map).
    pub image_us: f64,
    /// Boot/initialization inside the context (dynamic linker, guest
    /// kernel, shim, feature setup).
    pub boot_us: f64,
}

impl StartupBreakdown {
    /// Total start-up latency.
    pub fn total(&self) -> MicroSeconds {
        MicroSeconds(self.create_us + self.image_us + self.boot_us)
    }

    /// Total in cycles on `mc`.
    pub fn total_cycles(&self, mc: &MachineConfig) -> Cycles {
        mc.freq.cycles_per_us(self.total().get())
    }
}

/// The start-up cost of a launch path.
pub fn startup(path: LaunchPath) -> StartupBreakdown {
    match path {
        LaunchPath::Process => StartupBreakdown {
            create_us: 60.0, // fork: mm copy, descriptor table
            image_us: 160.0, // execve: mapping, relocation
            boot_us: 90.0,   // ld.so + libc init
        },
        LaunchPath::Container => StartupBreakdown {
            create_us: 9_000.0, // runtime + cgroup/namespace setup
            image_us: 70_000.0, // layer mounts
            boot_us: 45_000.0,  // init inside
        },
        LaunchPath::FullVm => StartupBreakdown {
            create_us: 9_000.0, // VMM + device model
            image_us: 22_000.0, // kernel + initrd load
            boot_us: 95_000.0,  // guest kernel boot
        },
        LaunchPath::VirtineCold => StartupBreakdown {
            create_us: 38.0, // KVM VM + vCPU ioctls
            image_us: 24.0,  // map the tiny image
            boot_us: 38.0,   // 16→64-bit bring-up + shim
        },
        LaunchPath::VirtineSnapshot => StartupBreakdown {
            create_us: 4.0, // pooled VM, reset regs
            image_us: 5.0,  // CoW re-map of snapshot pages (baseline set)
            boot_us: 3.0,   // resume at the entry hook
        },
        LaunchPath::Bespoke(spec) => StartupBreakdown {
            create_us: 4.0,
            image_us: 2.0,
            boot_us: spec.setup_us().get(),
        },
    }
}

/// Per-dirty-page cost of a copy-on-write snapshot restore, in
/// microseconds (unmap + re-map of a 4 KiB page).
pub(crate) const RESTORE_US_PER_DIRTY_PAGE: f64 = 0.4;

/// Start-up cost of restoring a pooled snapshot whose previous tenant
/// dirtied `dirty` pages: the baseline snapshot re-map plus one CoW
/// drop-and-remap per dirtied page: what [`WaspPool`] charges a reuse.
pub fn snapshot_restore(dirty: u64) -> StartupBreakdown {
    let mut b = startup(LaunchPath::VirtineSnapshot);
    b.image_us += dirty as f64 * RESTORE_US_PER_DIRTY_PAGE;
    b
}

/// The microhypervisor for one image: real guests on the [`WaspPool`].
///
/// ```
/// use interweave_virtines::wasp::Wasp;
/// use interweave_virtines::extract::extract_one;
/// use interweave_core::machine::MachineConfig;
/// use interweave_ir::{programs, types::Val};
///
/// let fib = programs::fib(10);
/// let image = extract_one(&fib.module, fib.entry);
/// let mut wasp = Wasp::new(image, MachineConfig::xeon_server_2s());
/// let (outcome, cold) = wasp.invoke(&[Val::I(10)], u64::MAX / 4);
/// let (_, warm) = wasp.invoke(&[Val::I(10)], u64::MAX / 4);
/// assert!(warm < cold); // snapshot reuse beats the cold boot
/// # let _ = outcome;
/// ```
pub struct Wasp {
    /// The one context, reset to the image's snapshot every attempt.
    ctx: Virtine,
    /// Snapshot cache (unbounded), start-path pricing and restart loop.
    pool: WaspPool,
    /// Telemetry sink (off by default): invocation counters plus nested
    /// virtine-call / fault-recovery spans.
    sink: Sink,
    /// This hypervisor's running clock: cumulative invocation latency,
    /// advanced per call so spans get deterministic timestamps.
    clock: Cycles,
}

impl Wasp {
    /// A hypervisor managing contexts for one image on `mc`.
    pub fn new(image: VirtineImage, mc: MachineConfig) -> Wasp {
        let opts = PoolOptions {
            cache_capacity: usize::MAX,
            prewarm: 0,
            retry: RetryPolicy::immediate(1),
        };
        Wasp {
            ctx: Virtine::new(image),
            pool: WaspPool::new(mc, opts, 0),
            sink: Sink::off(),
            clock: Cycles::ZERO,
        }
    }

    /// The pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats
    }

    /// Attach a telemetry sink: invocations, cold starts, pool reuses,
    /// restarts, and detected faults are counted, and
    /// each invocation becomes a `virtine` span — with a `fault` span
    /// enclosing every restart episode, so recovery shows up as properly
    /// nested intervals on the virtine track.
    pub fn set_telemetry(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Invoke the virtine: reuse a pooled context when available, else cold
    /// boot. Returns the outcome and the total latency (start-up + guest
    /// execution) in cycles.
    pub fn invoke(&mut self, args: &[Val], budget: u64) -> (VirtineOutcome, Cycles) {
        let (outcome, latency, _) =
            self.invoke_recovering(args, budget, &mut FaultPlan::quiet(0), 0);
        (outcome, latency)
    }

    /// Invoke under a fault plan, restarting from snapshot on injected
    /// kills.
    ///
    /// Each attempt draws a potential kill point from `faults`
    /// ([`FaultPlan::virtine_kill_at`]); a kill that lands on a live guest
    /// destroys the context (it never returns to the pool — exactly the
    /// normal teardown path for faulted contexts) and the hypervisor
    /// restarts the call from a fresh or pooled context, up to
    /// `max_restarts` times, with no backoff. Returns the final outcome,
    /// the *total* latency across all attempts (wasted partial executions
    /// included), and the number of restarts performed. With a quiet plan
    /// this is byte-for-byte `invoke`.
    pub fn invoke_recovering(
        &mut self,
        args: &[Val],
        budget: u64,
        faults: &mut FaultPlan,
        max_restarts: u32,
    ) -> (VirtineOutcome, Cycles, u32) {
        self.pool.opts.retry = RetryPolicy::immediate(max_restarts.saturating_add(1));
        let t0 = self.clock;
        let first_seq = self.pool.stats.invocations;
        let mut seq = first_seq;
        let mut outcome = None;
        let served = self.pool.invoke_recovering(
            budget,
            faults,
            |fuel| {
                let (o, run) = self.ctx.run(args, fuel);
                outcome = Some(o);
                run
            },
            |a| {
                let start = self.clock;
                let start_key = if a.cold {
                    &KEY_COLD_STARTS
                } else {
                    &KEY_REUSES
                };
                self.sink.count_at(start_key, 0, 1, start);
                self.clock += a.latency;
                self.sink.count_at(&KEY_INVOCATIONS, 0, 1, self.clock);
                self.sink.span(Span {
                    layer: Layer::Virtine,
                    track: 0,
                    id: seq,
                    kind: SpanKind::VirtineCall,
                    start,
                    end: self.clock,
                });
                seq += 1;
                if a.killed {
                    self.sink.count_at(&KEY_DETECTED, 0, 1, self.clock);
                }
                if a.retry {
                    self.sink.count_at(&KEY_RESTARTS, 0, 1, self.clock);
                }
            },
        );
        let (latency, attempts) = match served {
            Ok(s) => (s.latency, s.attempts),
            Err(ServeError::RetriesExhausted {
                spent, attempts, ..
            }) => (spent, attempts),
        };
        let restarts = attempts - 1;
        if restarts > 0 {
            // The whole recovery episode — the failed attempts plus the one
            // that finally returned — as one enclosing span, so the
            // per-attempt virtine spans nest inside it.
            self.sink.span(Span {
                layer: Layer::Virtine,
                track: 0,
                id: first_seq,
                kind: SpanKind::FaultRecovery,
                start: t0,
                end: self.clock,
            });
        }
        (outcome.expect("at least one attempt"), latency, restarts)
    }

    /// Pre-warm the pool with `n` contexts (FaaS keep-warm policy).
    pub fn prewarm(&mut self, n: usize) {
        self.pool.prewarm(n);
        for _ in 0..n {
            self.sink.count_at(&KEY_COLD_STARTS, 0, 1, self.clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::synthesize;
    use crate::extract::extract_one;
    use crate::serve::ServiceProfile;
    use interweave_ir::{programs, FuncId, FunctionBuilder, Module};

    #[test]
    fn virtine_cold_start_is_about_100us() {
        // §IV-D: "start-up overheads as low as 100 µs".
        let t = startup(LaunchPath::VirtineCold).total().get();
        assert!((80.0..=130.0).contains(&t), "cold start {t} µs");
    }

    #[test]
    fn legacy_paths_are_orders_of_magnitude_slower() {
        let virtine = startup(LaunchPath::VirtineCold).total().get();
        let process = startup(LaunchPath::Process).total().get();
        let container = startup(LaunchPath::Container).total().get();
        let vm = startup(LaunchPath::FullVm).total().get();
        assert!(process > 2.0 * virtine);
        assert!(container > 100.0 * virtine);
        assert!(vm > 100.0 * virtine);
    }

    #[test]
    fn snapshot_and_bespoke_beat_cold_start() {
        let cold = startup(LaunchPath::VirtineCold).total().get();
        let snap = startup(LaunchPath::VirtineSnapshot).total().get();
        assert!(snap < cold / 5.0);
        let img = extract_one(&programs::fib(10).module, FuncId(0));
        let spec = synthesize(&img.module);
        let bespoke = startup(LaunchPath::Bespoke(spec)).total().get();
        assert!(bespoke < snap + 5.0, "bespoke {bespoke} vs snapshot {snap}");
    }

    #[test]
    fn pool_reuse_kicks_in_after_first_invocation() {
        let mut w = Wasp::new(
            extract_one(&programs::fib(10).module, FuncId(0)),
            MachineConfig::xeon_server_2s(),
        );
        let (o1, t1) = w.invoke(&[Val::I(10)], u64::MAX / 4);
        assert_eq!(o1, VirtineOutcome::Returned(Some(Val::I(55))));
        let (o2, t2) = w.invoke(&[Val::I(10)], u64::MAX / 4);
        assert_eq!(o2, VirtineOutcome::Returned(Some(Val::I(55))));
        assert_eq!(w.stats().cold_starts, 1);
        assert_eq!(w.stats().reuses, 1);
        assert!(t2 < t1, "warm {t2} should beat cold {t1}");
    }

    #[test]
    fn restore_cost_scales_with_previous_tenants_dirty_footprint() {
        let mc = MachineConfig::xeon_server_2s();
        // Memory-light tenant: fib dirties ~nothing.
        let fib = programs::fib(10);
        let fib_img = extract_one(&fib.module, fib.entry);
        let mut w_light = Wasp::new(fib_img.clone(), mc.clone());
        let (_, _) = w_light.invoke(&[Val::I(10)], u64::MAX / 4);
        let (_, warm_light) = w_light.invoke(&[Val::I(10)], u64::MAX / 4);

        // Memory-heavy tenant: histogram dirties many pages.
        let hist = programs::histogram(4_000, 512);
        let hist_img = extract_one(&hist.module, hist.entry);
        let mut w_heavy = Wasp::new(hist_img.clone(), mc.clone());
        let (_, _) = w_heavy.invoke(&hist.args, u64::MAX / 4);
        let (_, warm_heavy_total) = w_heavy.invoke(&hist.args, u64::MAX / 4);

        // Compare restore shares (subtract guest execution).
        let guest = |img, args| ServiceProfile::calibrate(img, args, u64::MAX / 4).guest_cycles;
        let light_guest = guest(&fib_img, &[Val::I(10)]);
        let heavy_guest = guest(&hist_img, &hist.args);
        let base = startup(LaunchPath::VirtineSnapshot).total_cycles(&mc).get();
        let light_delta = (warm_light.get() - light_guest).saturating_sub(base);
        let heavy_delta = (warm_heavy_total.get() - heavy_guest).saturating_sub(base);
        assert!(
            heavy_delta > 4 * light_delta.max(1),
            "dirty-page restore deltas: heavy {heavy_delta} vs light {light_delta}"
        );
    }

    #[test]
    fn faulted_contexts_are_not_pooled() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("wild", 0);
        let bogus = fb.const_i(0xbad);
        let _ = fb.load(bogus, 0);
        fb.ret(None);
        m.add(fb.finish());
        let img = extract_one(&m, FuncId(0));
        let mut w = Wasp::new(img, MachineConfig::xeon_server_2s());
        let (o, _) = w.invoke(&[], u64::MAX / 4);
        assert!(matches!(o, VirtineOutcome::Faulted(_)));
        w.invoke(&[], u64::MAX / 4);
        assert_eq!(w.stats().reuses, 0, "a faulted context must be destroyed");
    }

    #[test]
    fn injected_kills_are_detected_and_recovered_by_restart() {
        use interweave_core::{FaultConfig, FaultPlan};
        // Calibrate a budget tight enough that a uniform kill point has a
        // real chance of landing mid-execution.
        let image = extract_one(&programs::fib(12).module, FuncId(0));
        let guest = ServiceProfile::calibrate(&image, &[Val::I(12)], u64::MAX / 4).guest_cycles;
        // ~1.3x the guest's runtime: a uniform kill point lands mid-run
        // roughly 3 times in 4, so a short request batch sees several.
        let budget = guest + guest / 3;

        let serve = |seed: u64| {
            let mut faults = FaultPlan::new(FaultConfig {
                virtine_kill: 1.0,
                ..FaultConfig::quiet(seed)
            });
            let mut w = Wasp::new(image.clone(), MachineConfig::xeon_server_2s());
            let mut total = Cycles(0);
            let mut restarts = 0u32;
            for _ in 0..10 {
                let (outcome, t, r) = w.invoke_recovering(&[Val::I(12)], budget, &mut faults, 64);
                assert_eq!(outcome, VirtineOutcome::Returned(Some(Val::I(144))));
                total += t;
                restarts += r;
            }
            let s = w.stats();
            (s.restarts, s.faults_detected, total, restarts)
        };

        let (s_restarts, s_detected, total, restarts) = serve(42);
        assert!(restarts > 0, "p=1.0 kills over 10 requests must land");
        assert_eq!(s_restarts, restarts as u64);
        assert_eq!(
            s_detected, restarts as u64,
            "every restart here is a detected injected kill"
        );
        assert!(total.get() > 0);

        // Same seed, fresh state: byte-identical recovery story.
        assert_eq!(serve(42), (s_restarts, s_detected, total, restarts));
    }

    #[test]
    fn telemetry_spans_nest_restarts_inside_recovery_episodes() {
        use interweave_core::telemetry::{well_bracketed, Sink, SpanKind};
        use interweave_core::{FaultConfig, FaultPlan};
        let image = extract_one(&programs::fib(12).module, FuncId(0));
        let guest = ServiceProfile::calibrate(&image, &[Val::I(12)], u64::MAX / 4).guest_cycles;
        let budget = guest + guest / 3;

        let mut faults = FaultPlan::new(FaultConfig {
            virtine_kill: 1.0,
            ..FaultConfig::quiet(42)
        });
        let mut w = Wasp::new(image, MachineConfig::xeon_server_2s());
        let sink = Sink::on();
        w.set_telemetry(sink.clone());
        for _ in 0..10 {
            let (outcome, _, _) = w.invoke_recovering(&[Val::I(12)], budget, &mut faults, 64);
            assert_eq!(outcome, VirtineOutcome::Returned(Some(Val::I(144))));
        }
        assert_eq!(sink.counter("virtines.invocations"), w.stats().invocations);
        assert_eq!(sink.counter("virtines.restarts"), w.stats().restarts);
        assert_eq!(
            sink.counter("virtines.faults_detected"),
            w.stats().faults_detected
        );
        assert_eq!(sink.counter("virtines.cold_starts"), w.stats().cold_starts);
        assert_eq!(sink.counter("virtines.reuses"), w.stats().reuses);
        let spans = sink.spans();
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::FaultRecovery),
            "p=1 kills must produce recovery episodes"
        );
        assert!(
            well_bracketed(&spans).is_none(),
            "attempt spans must nest inside recovery spans"
        );
    }

    #[test]
    fn quiet_plan_recovering_matches_plain_invoke() {
        use interweave_core::FaultPlan;
        let mut w = Wasp::new(
            extract_one(&programs::fib(10).module, FuncId(0)),
            MachineConfig::xeon_server_2s(),
        );
        let (plain, t_plain) = w.invoke(&[Val::I(10)], u64::MAX / 4);

        let mut faults = FaultPlan::quiet(7);
        let mut w2 = Wasp::new(
            extract_one(&programs::fib(10).module, FuncId(0)),
            MachineConfig::xeon_server_2s(),
        );
        let (o, t, restarts) = w2.invoke_recovering(&[Val::I(10)], u64::MAX / 4, &mut faults, 8);
        assert_eq!(o, plain);
        assert_eq!(t, t_plain);
        assert_eq!(restarts, 0);
        assert_eq!(w2.stats().faults_detected, 0);
        assert_eq!(faults.total_injected(), 0, "quiet plan draws nothing");
    }

    #[test]
    fn prewarm_avoids_cold_start_latency() {
        let mut w = Wasp::new(
            extract_one(&programs::fib(5).module, FuncId(0)),
            MachineConfig::xeon_server_2s(),
        );
        w.prewarm(2);
        let cold_starts_before = w.stats().cold_starts;
        let (_, t) = w.invoke(&[Val::I(5)], u64::MAX / 4);
        assert_eq!(w.stats().cold_starts, cold_starts_before);
        // Warm latency bound: snapshot restore + tiny fib.
        let bound = startup(LaunchPath::VirtineSnapshot)
            .total_cycles(&MachineConfig::xeon_server_2s())
            + Cycles(10_000);
        assert!(t < bound, "warm invoke {t} vs bound {bound}");
    }
}
