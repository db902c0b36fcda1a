//! OS personality models: the kernel axis of the stack space.
//!
//! Each experiment in the paper compares "the same workload on N stacks".
//! [`OsModel`] is the seam: it prices every primitive the runtimes use —
//! thread management, remote wakeups, barriers, out-of-band event delivery,
//! timers — and models the commodity stack's *timing pathologies* (timer
//! slack, delivery jitter, background OS noise) that the interwoven stack
//! eliminates. The numbers compose from [`MachineConfig`]'s cost model so a
//! hardware change (e.g. §V-D pipeline interrupts) flows into every kernel.
//!
//! Three personalities span the `OsPoint` axis: [`NkModel`] (Nautilus-like,
//! §III), [`AsterModel`] (an Asterinas-style safe-Rust framekernel — the
//! mid-point of ROADMAP item 4), and [`LinuxModel`] (the commodity layered
//! kernel). [`model_for`] is the single materialization point the compose
//! layer and the benches share.

use crate::buddy::{AllocError, NumaAllocator};
use crate::threads::{switch_cost, SwitchKind};
use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::stack::OsPoint;
use interweave_core::time::Cycles;
use interweave_core::FaultPlan;

/// A background-noise event on one CPU: the kernel steals `duration` cycles
/// (timer tick work, softirqs, kworker activity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseEvent {
    /// Cycles from now until the noise begins.
    pub after: Cycles,
    /// Cycles stolen from the running computation.
    pub duration: Cycles,
}

/// Kernel personality: primitive costs and timing behaviour.
///
/// Models are plain cost tables (`Send + Sync`), so a composed stack can be
/// shared across the harness's parallel sweep workers.
pub trait OsModel: Send + Sync {
    /// The point of the OS axis this kernel is.
    fn point(&self) -> OsPoint;

    /// Display name ("Linux", "Nautilus").
    fn name(&self) -> &'static str {
        self.point().name()
    }

    /// The machine this kernel runs on.
    fn machine(&self) -> &MachineConfig;

    /// Cost to create and start a thread, charged to the creator.
    fn thread_create(&self) -> Cycles;

    /// Cost to reap a finished thread.
    fn thread_join(&self) -> Cycles;

    /// Waking a blocked thread on another CPU: `(cost to the waker,
    /// latency until the target runs)`.
    fn wake_remote(&self) -> (Cycles, Cycles);

    /// Per-participant cost of one barrier episode when waiters spin.
    fn barrier_spin(&self) -> Cycles;

    /// Per-participant cost of one barrier episode when waiters block
    /// (what a user-level runtime must eventually do).
    fn barrier_block(&self) -> Cycles;

    /// Cost on the *receiving* CPU of one out-of-band event (heartbeat
    /// signal / IPI) from its arrival to the handler's first useful
    /// instruction and back.
    fn event_deliver(&self) -> Cycles;

    /// Cost on the *sending* side of an out-of-band event to one CPU.
    fn event_send(&self) -> Cycles;

    /// The smallest timer period this kernel can honour per CPU. Below
    /// this, timers coalesce or fall behind (Fig. 3's Linux undershoot).
    fn timer_min_period(&self) -> Cycles;

    /// Sample the firing error of one timer event (slack/jitter). Zero for
    /// a LAPIC deadline timer owned by the kernel.
    fn timer_jitter(&self, rng: &mut SplitMix64) -> Cycles;

    /// Sample the next background-noise event for one CPU, or `None` for a
    /// noise-free kernel (§III: interrupts are steerable and "can largely
    /// be avoided on most hardware threads").
    fn sample_noise(&self, rng: &mut SplitMix64) -> Option<NoiseEvent>;

    /// Context-switch cost in this kernel (threads, interrupt-timed).
    fn ctx_switch(&self, rt: bool, fp: bool) -> Cycles {
        let kind = SwitchKind::ThreadInterrupt;
        switch_cost(self.machine(), self.point(), kind, rt, fp).total()
    }

    /// An uncontended mutex lock+unlock.
    fn mutex_uncontended(&self) -> Cycles;
}

/// The Nautilus-like kernel (§III).
#[derive(Debug, Clone)]
pub struct NkModel {
    /// The machine this kernel runs on.
    pub mc: MachineConfig,
}

impl NkModel {
    /// Nautilus on `mc`.
    pub fn new(mc: MachineConfig) -> NkModel {
        NkModel { mc }
    }
}

impl OsModel for NkModel {
    fn point(&self) -> OsPoint {
        OsPoint::NkLike
    }

    fn machine(&self) -> &MachineConfig {
        &self.mc
    }

    fn thread_create(&self) -> Cycles {
        // Stack from the per-CPU buddy zone + TCB init + runqueue insert;
        // no syscall, no page-table setup ("orders of magnitude faster",
        // §III).
        self.mc.cost.sched_pick_nk + Cycles(900)
    }

    fn thread_join(&self) -> Cycles {
        Cycles(400)
    }

    fn wake_remote(&self) -> (Cycles, Cycles) {
        // Direct IPI: sender writes the ICR; receiver pays dispatch.
        let c = &self.mc.cost;
        (
            c.ipi_send,
            c.ipi_latency + self.mc.dispatch_cost() + c.intr_return,
        )
    }

    fn barrier_spin(&self) -> Cycles {
        // Cache-line ping on a shared counter; no kernel involvement.
        Cycles(120)
    }

    fn barrier_block(&self) -> Cycles {
        // Kernel-mode block/wake without any crossing.
        Cycles(600)
    }

    fn event_deliver(&self) -> Cycles {
        // Fig. 2 (left): IPI arrives, handler promotes, done. Dispatch +
        // short deterministic handler + return.
        self.mc.dispatch_cost() + Cycles(200) + self.mc.cost.intr_return
    }

    fn event_send(&self) -> Cycles {
        self.mc.cost.ipi_send
    }

    fn timer_min_period(&self) -> Cycles {
        // LAPIC one-shot reprogramming plus delivery: the hardware floor.
        self.mc.cost.timer_program + self.mc.dispatch_cost() + Cycles(200)
    }

    fn timer_jitter(&self, _rng: &mut SplitMix64) -> Cycles {
        // Deterministic path lengths (§III) — the LAPIC deadline timer
        // fires on its programmed cycle.
        Cycles::ZERO
    }

    fn sample_noise(&self, _rng: &mut SplitMix64) -> Option<NoiseEvent> {
        None
    }

    fn mutex_uncontended(&self) -> Cycles {
        Cycles(60) // one locked RMW + branch
    }
}

/// Thread creation with a real stack allocation: charge the kernel's
/// `thread_create` cost *and* carve the stack out of `alloc`'s `home_zone`
/// (falling back per §III's zone policy), optionally under the fault plane.
/// Returns `(stack_base, creation_cost)`; on exhaustion — real or injected —
/// the typed [`AllocError`] reaches the caller, who degrades (sheds the
/// task) instead of panicking.
pub fn thread_create_with_stack(
    os: &dyn OsModel,
    alloc: &mut NumaAllocator,
    home_zone: usize,
    stack_bytes: u64,
    faults: Option<&mut FaultPlan>,
) -> Result<(u64, Cycles), AllocError> {
    let (base, _zone) = match faults {
        Some(plan) => alloc.alloc_faulted(home_zone, stack_bytes, plan)?,
        None => alloc.alloc(home_zone, stack_bytes)?,
    };
    Ok((base, os.thread_create()))
}

/// Tunable pathology parameters for the Linux-like kernel.
#[derive(Debug, Clone)]
pub struct LinuxParams {
    /// Scheduler tick rate (Hz). Each tick steals cycles on every CPU.
    pub hz: u64,
    /// Mean cycles stolen per scheduler tick.
    pub tick_work: Cycles,
    /// hrtimer slack / wakeup latency spread, in microseconds: timer events
    /// fire late by U(0, slack).
    pub timer_slack_us: f64,
    /// Mean interval between background daemon/kworker noise events, µs.
    pub noise_interval_us: f64,
    /// Mean duration of one noise event, µs.
    pub noise_duration_us: f64,
    /// Minimum sustainable per-CPU signal period, µs: below this the
    /// signal-delivery machinery saturates (Fig. 3's undershoot at ♥=20 µs).
    pub min_signal_period_us: f64,
}

impl Default for LinuxParams {
    fn default() -> LinuxParams {
        LinuxParams {
            hz: 250,
            tick_work: Cycles(9_000),
            timer_slack_us: 12.0,
            noise_interval_us: 4_000.0,
            noise_duration_us: 45.0,
            min_signal_period_us: 38.0,
        }
    }
}

/// The commodity layered kernel.
#[derive(Debug, Clone)]
pub struct LinuxModel {
    /// The machine this kernel runs on.
    pub mc: MachineConfig,
    /// Pathology parameters.
    pub p: LinuxParams,
}

impl LinuxModel {
    /// Linux on `mc` with default parameters.
    pub fn new(mc: MachineConfig) -> LinuxModel {
        LinuxModel {
            mc,
            p: LinuxParams::default(),
        }
    }
}

impl OsModel for LinuxModel {
    fn point(&self) -> OsPoint {
        OsPoint::LinuxLike
    }

    fn machine(&self) -> &MachineConfig {
        &self.mc
    }

    fn thread_create(&self) -> Cycles {
        // clone(2): crossing + mm/bookkeeping + scheduler insertion.
        self.mc.cost.kernel_crossing() + Cycles(14_000)
    }

    fn thread_join(&self) -> Cycles {
        self.mc.cost.kernel_crossing() + Cycles(2_500)
    }

    fn wake_remote(&self) -> (Cycles, Cycles) {
        // futex WAKE: syscall on the waker; reschedule IPI + fair-scheduler
        // pick + return-to-user on the target.
        let c = &self.mc.cost;
        let waker = c.kernel_crossing() + Cycles(800);
        let latency = c.ipi_latency
            + self.mc.dispatch_cost()
            + c.sched_pick_fair
            + c.intr_return
            + c.mitigation_flush;
        (waker, latency)
    }

    fn barrier_spin(&self) -> Cycles {
        // User-space spin is possible but each participant still suffers
        // preemption risk; the base cost matches NK's cache-line ping.
        Cycles(120)
    }

    fn barrier_block(&self) -> Cycles {
        // futex WAIT + WAKE round trip.
        self.mc.cost.kernel_crossing() * 2 + Cycles(1_200)
    }

    fn event_deliver(&self) -> Cycles {
        // Fig. 2 (right): kernel timer fires, signal is queued, the target
        // is interrupted, a user signal frame is built, the handler runs,
        // sigreturn crosses back.
        let c = &self.mc.cost;
        self.mc.dispatch_cost() + c.signal_round_trip() + c.intr_return
    }

    fn event_send(&self) -> Cycles {
        // tgkill/timer_settime style: crossing + signal queueing.
        self.mc.cost.kernel_crossing() + Cycles(700)
    }

    fn timer_min_period(&self) -> Cycles {
        self.mc.freq.cycles_per_us(self.p.min_signal_period_us)
    }

    fn timer_jitter(&self, rng: &mut SplitMix64) -> Cycles {
        // hrtimer slack: uniformly late by up to `timer_slack_us`.
        let us = rng.f64() * self.p.timer_slack_us;
        self.mc.freq.cycles_per_us(us)
    }

    fn sample_noise(&self, rng: &mut SplitMix64) -> Option<NoiseEvent> {
        // Two noise sources folded into one exponential process: scheduler
        // ticks (regular, small) and daemon/kworker activity (rare, large).
        // The tick component uses the configured HZ; the daemon component
        // is exponential.
        let tick_period_us = 1e6 / self.p.hz as f64;
        let next_tick = rng.f64() * tick_period_us; // phase-randomized
        let next_daemon = rng.exponential(self.p.noise_interval_us);
        let (after_us, dur) = if next_tick < next_daemon {
            (next_tick, self.p.tick_work)
        } else {
            (
                next_daemon,
                self.mc
                    .freq
                    .cycles_per_us(rng.exponential(self.p.noise_duration_us)),
            )
        };
        Some(NoiseEvent {
            after: self.mc.freq.cycles_per_us(after_us),
            duration: dur,
        })
    }

    fn mutex_uncontended(&self) -> Cycles {
        Cycles(90) // futex fast path stays in user space but is fatter
    }
}

/// Tunable parameters for the Aster-like framekernel.
#[derive(Debug, Clone)]
pub struct AsterParams {
    /// Mean interval between background maintenance noise events, µs. The
    /// framekernel has no scheduler tick stealing cycles on every CPU, but
    /// it still runs kernel worker tasks (reclaim, RCU-style grace periods)
    /// occasionally — far rarer than Linux's daemon activity.
    pub noise_interval_us: f64,
    /// Mean duration of one maintenance event, µs (short: safe-Rust
    /// housekeeping, no world switch to amplify it).
    pub noise_duration_us: f64,
}

impl Default for AsterParams {
    fn default() -> AsterParams {
        AsterParams {
            noise_interval_us: 20_000.0,
            noise_duration_us: 6.0,
        }
    }
}

/// The Asterinas-style framekernel (ROADMAP item 4): one safe-Rust kernel
/// image, OSTD-style privileged core plus de-privileged services, real
/// page-table isolation between domains — but no user/kernel world switch
/// on the task path. Every primitive is a bounds-checked call, not a
/// syscall, so costs sit between [`NkModel`] and [`LinuxModel`] — with one
/// honest exception called out on [`OsModel::mutex_uncontended`].
#[derive(Debug, Clone)]
pub struct AsterModel {
    /// The machine this kernel runs on.
    pub mc: MachineConfig,
    /// Pathology parameters.
    pub p: AsterParams,
}

impl AsterModel {
    /// The framekernel on `mc` with default parameters.
    pub fn new(mc: MachineConfig) -> AsterModel {
        AsterModel {
            mc,
            p: AsterParams::default(),
        }
    }
}

impl OsModel for AsterModel {
    fn point(&self) -> OsPoint {
        OsPoint::AsterLike
    }

    fn machine(&self) -> &MachineConfig {
        &self.mc
    }

    fn thread_create(&self) -> Cycles {
        // No syscall (between: skips Linux's crossing) but the frame
        // allocator hands out typed frames and the new task gets page-table
        // entries — real isolation work NK's identity-mapped spawn never
        // does. ~2.6× NK, ~5× below Linux.
        self.mc.cost.sched_pick_nk + Cycles(2_600)
    }

    fn thread_join(&self) -> Cycles {
        // Reap through a checked waitqueue API: no crossing, but the TCB
        // and its frames go back through the typed allocator.
        Cycles(900)
    }

    fn wake_remote(&self) -> (Cycles, Cycles) {
        // The waker calls a kernel service in-process: ICR write behind a
        // bounds-checked accessor (no syscall, unlike futex WAKE). The
        // target pays dispatch plus the safe scheduler's pick — but no
        // return-to-user mitigation flush.
        let c = &self.mc.cost;
        let waker = c.ipi_send + Cycles(250);
        let latency = c.ipi_latency
            + self.mc.dispatch_cost()
            + c.sched_pick_nk
            + crate::threads::ASTER_SCHED_OVERHEAD
            + c.intr_return;
        (waker, latency)
    }

    fn barrier_spin(&self) -> Cycles {
        // Cache-line ping on a shared counter — user-mode arithmetic is the
        // same on every kernel.
        Cycles(120)
    }

    fn barrier_block(&self) -> Cycles {
        // In-kernel block/wake through the checked waitqueue: dearer than
        // NK's raw queue ops, far below Linux's futex round trip (no
        // crossings at all).
        Cycles(1_100)
    }

    fn event_deliver(&self) -> Cycles {
        // IPI arrives in the one shared address space: dispatch, a
        // bounds-checked handler trampoline (between NK's raw +200 and
        // Linux's full signal-frame round trip), return.
        self.mc.dispatch_cost() + Cycles(600) + self.mc.cost.intr_return
    }

    fn event_send(&self) -> Cycles {
        // ICR write through the checked accessor — no syscall, small
        // surcharge over NK's raw write.
        self.mc.cost.ipi_send + Cycles(150)
    }

    fn timer_min_period(&self) -> Cycles {
        // The framekernel owns the LAPIC like NK does; reprogramming goes
        // through a checked driver API, so the floor is slightly higher
        // but still far below Linux's signal-machinery saturation point.
        self.mc.cost.timer_program + self.mc.dispatch_cost() + Cycles(600)
    }

    fn timer_jitter(&self, _rng: &mut SplitMix64) -> Cycles {
        // Kernel-owned deadline timer: fires on its programmed cycle, like
        // NK — there is no hrtimer slack layer to defer it.
        Cycles::ZERO
    }

    fn sample_noise(&self, rng: &mut SplitMix64) -> Option<NoiseEvent> {
        // No per-CPU scheduler tick (tickless core like NK), but kernel
        // worker tasks still run occasionally: rare, short exponential
        // events — enough to give Fig. 3 a small nonzero CV between NK's
        // zero and Linux's tick-dominated spread.
        let after_us = rng.exponential(self.p.noise_interval_us);
        let dur_us = rng.exponential(self.p.noise_duration_us);
        Some(NoiseEvent {
            after: self.mc.freq.cycles_per_us(after_us),
            duration: self.mc.freq.cycles_per_us(dur_us),
        })
    }

    fn mutex_uncontended(&self) -> Cycles {
        // The honest non-between point: the safe RAII lock (guard object,
        // poison check, bounds-checked queue touch) is *fatter* than
        // Linux's hand-tuned futex fast path, which stays in user space
        // and is pure unsafe assembly. Safety costs a few cycles even when
        // uncontended.
        Cycles(95)
    }
}

/// Materialize the [`OsModel`] for one point of the OS axis — the single
/// seam the compose layer, the heartbeat simulators, and the benches share.
pub fn model_for(os: OsPoint, mc: MachineConfig) -> Box<dyn OsModel> {
    match os {
        OsPoint::NkLike => Box::new(NkModel::new(mc)),
        OsPoint::AsterLike => Box::new(AsterModel::new(mc)),
        OsPoint::LinuxLike => Box::new(LinuxModel::new(mc)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_core::machine::MachineConfig;

    fn models() -> (NkModel, LinuxModel) {
        let mc = MachineConfig::xeon_server_2s();
        (NkModel::new(mc.clone()), LinuxModel::new(mc))
    }

    #[test]
    fn nk_thread_create_is_orders_of_magnitude_faster() {
        // §III: "primitives such as thread management and event signaling
        // are orders of magnitude faster".
        let (nk, lx) = models();
        let ratio = lx.thread_create().as_f64() / nk.thread_create().as_f64();
        assert!(ratio > 10.0, "linux/nk thread create = {ratio:.1}");
    }

    #[test]
    fn nk_event_delivery_beats_signals() {
        let (nk, lx) = models();
        assert!(nk.event_deliver() < lx.event_deliver());
        let ratio = lx.event_deliver().as_f64() / nk.event_deliver().as_f64();
        assert!(ratio > 2.0, "delivery ratio {ratio:.1}");
    }

    #[test]
    fn nk_has_no_noise_or_jitter() {
        let (nk, _) = models();
        let mut rng = SplitMix64::new(1);
        assert!(nk.sample_noise(&mut rng).is_none());
        assert_eq!(nk.timer_jitter(&mut rng), Cycles::ZERO);
    }

    #[test]
    fn linux_noise_is_bounded_and_recurrent() {
        let (_, lx) = models();
        let mut rng = SplitMix64::new(2);
        for _ in 0..100 {
            let n = lx.sample_noise(&mut rng).expect("linux always has noise");
            assert!(n.duration.get() > 0);
            // Noise must arrive within a couple of tick periods.
            let tick = lx.mc.freq.cycles_per_us(1e6 / lx.p.hz as f64);
            assert!(
                n.after <= tick * 3,
                "noise after {} > {}",
                n.after,
                tick * 3
            );
        }
    }

    #[test]
    fn linux_timer_jitter_spreads_within_slack() {
        let (_, lx) = models();
        let mut rng = SplitMix64::new(3);
        let slack = lx.mc.freq.cycles_per_us(lx.p.timer_slack_us);
        let mut max_seen = Cycles::ZERO;
        for _ in 0..1000 {
            let j = lx.timer_jitter(&mut rng);
            assert!(j <= slack);
            max_seen = max_seen.max(j);
        }
        // The distribution actually uses its range.
        assert!(max_seen.get() > slack.get() / 2);
    }

    #[test]
    fn min_timer_period_nk_below_20us_linux_above() {
        // Fig. 3: Nautilus sustains ♥ = 20 µs; Linux cannot.
        let (nk, lx) = models();
        let f = nk.mc.freq;
        let h20 = f.cycles_per_us(20.0);
        assert!(
            nk.timer_min_period() < h20,
            "nk floor {}",
            nk.timer_min_period()
        );
        assert!(
            lx.timer_min_period() > h20,
            "lx floor {}",
            lx.timer_min_period()
        );
        // …but Linux can sustain 100 µs.
        let h100 = f.cycles_per_us(100.0);
        assert!(lx.timer_min_period() < h100);
    }

    #[test]
    fn thread_create_with_stack_surfaces_oom_as_result() {
        use crate::threads::DEFAULT_STACK_BYTES;
        use interweave_core::FaultConfig;
        let (nk, _) = models();
        let mut alloc = NumaAllocator::new(1, 6, 9); // 32 KiB zone
                                                     // First spawn succeeds and charges the NK creation cost.
        let (base, cost) =
            thread_create_with_stack(&nk, &mut alloc, 0, DEFAULT_STACK_BYTES, None).unwrap();
        assert_eq!(cost, nk.thread_create());
        // Exhaust the zone: the next spawn degrades to a typed error.
        let (_b2, _) =
            thread_create_with_stack(&nk, &mut alloc, 0, DEFAULT_STACK_BYTES, None).unwrap();
        assert_eq!(
            thread_create_with_stack(&nk, &mut alloc, 0, DEFAULT_STACK_BYTES, None),
            Err(AllocError::OutOfMemory)
        );
        // Injected failure takes the same typed path without touching state.
        alloc.free(base).unwrap();
        let mut cfg = FaultConfig::quiet(11);
        cfg.alloc_fail = 1.0;
        let mut plan = interweave_core::FaultPlan::new(cfg);
        assert_eq!(
            thread_create_with_stack(&nk, &mut alloc, 0, DEFAULT_STACK_BYTES, Some(&mut plan)),
            Err(AllocError::OutOfMemory)
        );
        assert_eq!(alloc.zone(0).n_live(), 1);
    }

    #[test]
    fn wake_latency_favours_nk() {
        let (nk, lx) = models();
        let (_, nkl) = nk.wake_remote();
        let (_, lxl) = lx.wake_remote();
        assert!(nkl < lxl);
    }

    #[test]
    fn aster_sits_between_the_endpoints_on_most_primitives() {
        // ROADMAP item 4: the framekernel is a genuine mid-point — no
        // syscalls (cheaper than Linux) but real isolation and checked
        // fast paths (dearer than NK) on every kernel-mediated primitive.
        let (nk, lx) = models();
        let aster = AsterModel::new(nk.mc.clone());
        let between = |name: &str, a: Cycles, b: Cycles, c: Cycles| {
            assert!(a < b && b < c, "{name}: nk {a} aster {b} linux {c}");
        };
        between(
            "create",
            nk.thread_create(),
            aster.thread_create(),
            lx.thread_create(),
        );
        between(
            "join",
            nk.thread_join(),
            aster.thread_join(),
            lx.thread_join(),
        );
        between(
            "wake cost",
            nk.wake_remote().0,
            aster.wake_remote().0,
            lx.wake_remote().0,
        );
        between(
            "wake latency",
            nk.wake_remote().1,
            aster.wake_remote().1,
            lx.wake_remote().1,
        );
        between(
            "barrier",
            nk.barrier_block(),
            aster.barrier_block(),
            lx.barrier_block(),
        );
        between(
            "deliver",
            nk.event_deliver(),
            aster.event_deliver(),
            lx.event_deliver(),
        );
        between("send", nk.event_send(), aster.event_send(), lx.event_send());
        between(
            "timer floor",
            nk.timer_min_period(),
            aster.timer_min_period(),
            lx.timer_min_period(),
        );
        between(
            "ctx switch",
            nk.ctx_switch(false, true),
            aster.ctx_switch(false, true),
            lx.ctx_switch(false, true),
        );
    }

    #[test]
    fn aster_mutex_is_the_honest_exception() {
        // The one primitive where the mid-point does NOT fall between the
        // endpoints: the safe RAII lock's checked fast path is fatter than
        // the futex fast path (pure user-space unsafe assembly).
        let (nk, lx) = models();
        let aster = AsterModel::new(nk.mc.clone());
        assert!(aster.mutex_uncontended() > lx.mutex_uncontended());
        assert!(lx.mutex_uncontended() > nk.mutex_uncontended());
    }

    #[test]
    fn aster_owns_its_timer_but_keeps_light_noise() {
        let (nk, lx) = models();
        let aster = AsterModel::new(nk.mc.clone());
        let mut rng = SplitMix64::new(7);
        // Kernel-owned LAPIC deadline timer: zero jitter, sub-20µs floor
        // (Fig. 3: the framekernel sustains ♥ = 20 µs like NK).
        assert_eq!(aster.timer_jitter(&mut rng), Cycles::ZERO);
        assert!(aster.timer_min_period() < aster.mc.freq.cycles_per_us(20.0));
        // Maintenance noise exists but is far rarer and shorter than
        // Linux's: compare means over the same number of samples.
        let mean_after = |os: &dyn OsModel, seed| {
            let mut rng = SplitMix64::new(seed);
            let total: u64 = (0..512)
                .map(|_| os.sample_noise(&mut rng).expect("noisy kernel").after.get())
                .sum();
            total / 512
        };
        assert!(mean_after(&aster, 9) > 5 * mean_after(&lx, 9));
    }

    #[test]
    fn model_for_materializes_every_axis_point() {
        use interweave_core::stack::OsPoint;
        let mc = MachineConfig::xeon_server_2s();
        for os in OsPoint::ALL {
            let m = model_for(os, mc.clone());
            assert_eq!(m.name(), os.name());
            assert_eq!(m.machine().name, mc.name);
        }
    }

    #[test]
    fn pipeline_interrupts_cut_nk_event_delivery() {
        let mc = MachineConfig::xeon_server_2s();
        let nk = NkModel::new(mc.clone());
        let nk_pipe = NkModel::new(mc.with_pipeline_interrupts());
        let saved = nk.event_deliver() - nk_pipe.event_deliver();
        assert_eq!(saved, Cycles(998)); // 1000 → 2 dispatch
    }
}
