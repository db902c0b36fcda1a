//! A small preemptive multi-CPU executor: the Nautilus-like kernel as a
//! working scheduler rather than just a cost model.
//!
//! Tasks are [`Work`] bodies pinned to CPUs (Nautilus binds threads; §III).
//! Each CPU runs its round-robin queue under a timer quantum; preemptions
//! charge the interrupt-driven context-switch cost, voluntary yields charge
//! the cheaper cooperative switch. `Block(tag)` parks a task until `tag` is
//! signalled; a task's completion signals its own id, giving fork/join.
//! Time is a per-CPU clock stitched together by one timer queue, so
//! cross-CPU joins resolve in correct causal order.

use crate::buddy::{AllocError, NumaAllocator};
use crate::threads::{switch_cost, SwitchKind, DEFAULT_STACK_BYTES};
use crate::work::{Work, WorkStep};
use interweave_core::interrupt::{self, DeliveryOutcome, IrqClass};
use interweave_core::machine::{CpuId, MachineConfig};
use interweave_core::stack::OsPoint;
use interweave_core::telemetry::{Key, Layer, Sink, Span, SpanKind, Unit};
use interweave_core::time::Cycles;
use interweave_core::{FaultPlan, TimerQueue};
use std::collections::{HashMap, VecDeque};

const KEY_PREEMPTIONS: Key = Key::new("kernel.sched.preemptions", Layer::Kernel, Unit::Count);
const KEY_YIELDS: Key = Key::new("kernel.sched.yields", Layer::Kernel, Unit::Count);
const KEY_BLOCKS: Key = Key::new("kernel.sched.blocks", Layer::Kernel, Unit::Count);
const KEY_DISPATCHES: Key = Key::new("kernel.sched.dispatches", Layer::Kernel, Unit::Count);
const KEY_SHED: Key = Key::new("kernel.sched.shed_tasks", Layer::Kernel, Unit::Count);
const KEY_SWITCH_CYCLES: Key = Key::new("kernel.sched.switch_cycles", Layer::Kernel, Unit::Cycles);
const KEY_WD_CHECKS: Key = Key::new("kernel.watchdog.checks", Layer::Kernel, Unit::Count);
const KEY_WD_REKICKS: Key = Key::new("kernel.watchdog.rekicks", Layer::Kernel, Unit::Count);

use crate::watchdog::WatchdogPolicy;

/// Identifier of a spawned task: its index in spawn order.
pub(crate) type TaskId = u64;

enum TaskState {
    Ready,
    /// Parked on a signal tag; `waiters` records which one.
    Blocked,
    Done,
}

struct Task {
    body: Box<dyn Work>,
    state: TaskState,
    pending: Cycles,
    cpu: CpuId,
    /// Stack block carved from the executor's allocator (freed on Done).
    stack: Option<u64>,
    /// Cycles of pure compute this task has performed.
    executed: Cycles,
}

/// Per-CPU bookkeeping.
struct Cpu {
    now: Cycles,
    /// Round-robin run queue: FIFO dispatch order.
    queue: VecDeque<TaskId>,
    busy: Cycles,
    switch_cycles: Cycles,
    /// When a dropped kick left this CPU with runnable work and no pending
    /// dispatch (cleared by the next successful dispatch).
    stalled_since: Option<Cycles>,
    /// Current watchdog retry backoff, in heartbeat periods.
    backoff: u32,
    /// Earliest time the watchdog may re-kick this CPU again.
    next_retry: Cycles,
    /// Consecutive watchdog re-kicks without a successful dispatch.
    rekicks: u32,
}

/// Execution statistics for one run.
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Preemptions (quantum expiry).
    pub preemptions: u64,
    /// Voluntary yields.
    pub yields: u64,
    /// Block/wake transitions.
    pub blocks: u64,
    /// Total context-switch cycles charged.
    pub switch_cycles: Cycles,
    /// Completion time (max CPU clock).
    pub makespan: Cycles,
    /// Per-task compute cycles.
    pub task_executed: Vec<Cycles>,
    /// Kicks the fault plane dropped on the wire.
    pub lost_kicks: u64,
    /// Kicks the fault plane delivered late.
    pub delayed_kicks: u64,
    /// Watchdog heartbeat scans performed.
    pub watchdog_checks: u64,
    /// Stalled CPUs the watchdog re-kicked.
    pub watchdog_rekicks: u64,
    /// Stalls that ended in a successful dispatch.
    pub recovered_stalls: u64,
    /// Total cycles CPUs spent stalled (lost kick → rescuing dispatch).
    pub stall_cycles: Cycles,
    /// Spawns refused because the stack allocation failed (real or
    /// injected OOM): the scheduler sheds the task instead of panicking.
    pub shed_tasks: u64,
}

/// The executor.
pub struct Executor {
    mc: MachineConfig,
    quantum: Cycles,
    tasks: Vec<Task>,
    cpus: Vec<Cpu>,
    waiters: HashMap<u64, Vec<TaskId>>,
    signalled: HashMap<u64, Cycles>,
    /// The timers driving simulated time: timer `cpu` runs that CPU's
    /// dispatch loop (its pending time is the CPU's pending dispatch), and
    /// timer `cpus.len()` is the watchdog heartbeat.
    events: TimerQueue,
    /// The cooperative-yield and timer-preemption context-switch costs of
    /// the OS point this kernel charges (see [`Executor::set_os`]), fixed
    /// for a run and cached so the dispatch loop does not recompute them
    /// per switch.
    yield_cost: Cycles,
    preempt_cost: Cycles,
    /// Fault plane consulted whenever a kick IPI actually goes on the wire
    /// and whenever a stack is allocated. `None` (the default) is the exact
    /// pre-fault-plane behavior.
    faults: Option<FaultPlan>,
    /// Watchdog policy (period + retry bounds), when enabled.
    watchdog: Option<WatchdogPolicy>,
    /// Buddy allocator backing task stacks, when configured.
    stack_alloc: Option<NumaAllocator>,
    /// Telemetry sink: counters, cycle attribution, and spans all flow here
    /// when enabled. Off by default — publishing is then a no-op branch.
    sink: Sink,
    /// Statistics (populated by [`Executor::run`]).
    pub stats: ExecutorStats,
}

impl Executor {
    /// A new executor on `mc` with the given preemption quantum.
    pub fn new(mc: MachineConfig, quantum: Cycles) -> Executor {
        assert!(quantum.get() > 0);
        let cpus = (0..mc.cores)
            .map(|_| Cpu {
                now: Cycles::ZERO,
                queue: VecDeque::new(),
                busy: Cycles::ZERO,
                switch_cycles: Cycles::ZERO,
                stalled_since: None,
                backoff: 1,
                next_retry: Cycles::ZERO,
                rekicks: 0,
            })
            .collect();
        let (yield_cost, preempt_cost) = switch_costs(&mc, OsPoint::NkLike);
        let events = TimerQueue::new(mc.cores + 1);
        Executor {
            mc,
            quantum,
            tasks: Vec::new(),
            cpus,
            waiters: HashMap::new(),
            signalled: HashMap::new(),
            events,
            yield_cost,
            preempt_cost,
            faults: None,
            watchdog: None,
            stack_alloc: None,
            sink: Sink::off(),
            stats: ExecutorStats::default(),
        }
    }

    /// Install a fault plan: from now on every kick IPI that actually goes
    /// on the wire, and every stack allocation, consults it. The plan
    /// inherits the executor's telemetry sink so its injections are counted.
    pub fn set_fault_plan(&mut self, mut plan: FaultPlan) {
        plan.set_sink(self.sink.clone());
        self.faults = Some(plan);
    }

    /// Charge context switches at `os`'s costs ([`OsPoint::NkLike`] by default:
    /// the interwoven Nautilus-like kernel; `LinuxLike` models the layered
    /// commodity stack). This is the knob the attribution bench turns to
    /// contrast the two on one workload.
    pub fn set_os(&mut self, os: OsPoint) {
        (self.yield_cost, self.preempt_cost) = switch_costs(&self.mc, os);
    }

    /// Attach a telemetry sink: scheduler counters, watchdog activity, the
    /// cycle-attribution ledger, and kernel spans all
    /// publish into it. The sink also propagates to the fault plan and the
    /// stack allocator, installed before or after this call.
    pub fn set_telemetry(&mut self, sink: Sink) {
        if let Some(plan) = self.faults.as_mut() {
            plan.set_sink(sink.clone());
        }
        if let Some(alloc) = self.stack_alloc.as_mut() {
            alloc.set_sink(sink.clone());
        }
        self.sink = sink;
    }

    /// The clock the attribution ledger must sum to after [`Executor::run`]:
    /// every CPU's timeline up to the makespan, i.e. makespan × #CPUs.
    pub fn attribution_clock(&self) -> Cycles {
        Cycles(self.stats.makespan.get() * self.cpus.len() as u64)
    }

    /// Remove and return the fault plan (e.g. to read its injection trace
    /// after a run).
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Enable the kernel watchdog: every `period` cycles, scan for CPUs
    /// that have runnable work but no pending dispatch (the signature of a
    /// lost kick) and re-kick them, backing off exponentially per CPU up to
    /// [`crate::watchdog::MAX_WATCHDOG_BACKOFF`] periods. The heartbeat self-terminates once
    /// no CPU has pending or rescuable work, so runs still quiesce.
    pub fn enable_watchdog(&mut self, period: Cycles) {
        if self.watchdog.is_none() {
            let wd = self.cpus.len();
            self.events.set(wd, self.events.now() + period);
        }
        self.watchdog = Some(WatchdogPolicy::new(period));
    }

    /// Back task stacks with a real buddy allocator: each spawn carves
    /// `DEFAULT_STACK_BYTES` from the spawning CPU's home zone (§III's
    /// "most desirable zone" policy) and frees it when the task completes.
    /// With an allocator installed, use [`Executor::try_spawn`] to observe
    /// allocation failure.
    pub fn set_stack_allocator(&mut self, mut alloc: NumaAllocator) {
        alloc.set_sink(self.sink.clone());
        self.stack_alloc = Some(alloc);
    }

    /// Publish one kernel span.
    fn record(&mut self, cpu: CpuId, task: u64, start: Cycles, end: Cycles, kind: SpanKind) {
        self.sink.span(Span {
            layer: Layer::Kernel,
            track: cpu,
            id: task,
            kind,
            start,
            end,
        });
    }

    /// Spawn a work body on a CPU; returns its task id (also its completion
    /// signal tag). Infallible when no stack allocator is configured; with
    /// one, panics on allocation failure — use [`Executor::try_spawn`] to
    /// handle OOM gracefully.
    pub fn spawn(&mut self, cpu: CpuId, body: Box<dyn Work>) -> TaskId {
        self.try_spawn(cpu, body)
            .expect("stack allocation failed; use try_spawn to handle OOM")
    }

    /// Spawn with allocation failure surfaced: when a stack allocator is
    /// configured, the stack is carved from the CPU's home zone first (under
    /// the fault plane, if installed). On OOM — real or injected — the task
    /// is *shed*: nothing is enqueued, the typed error reaches the caller,
    /// and the run continues degraded rather than aborting.
    pub fn try_spawn(&mut self, cpu: CpuId, body: Box<dyn Work>) -> Result<TaskId, AllocError> {
        assert!(cpu < self.cpus.len());
        let stack = match self.stack_alloc.as_mut() {
            Some(alloc) => {
                // The home zone is the CPU's socket: one buddy zone per
                // NUMA domain.
                let zone = self.mc.socket_of(cpu);
                let got = match self.faults.as_mut() {
                    Some(plan) => alloc.alloc_faulted(zone, DEFAULT_STACK_BYTES, plan),
                    None => alloc.alloc(zone, DEFAULT_STACK_BYTES),
                };
                match got {
                    Ok((base, _zone)) => Some(base),
                    Err(e) => {
                        self.stats.shed_tasks += 1;
                        self.sink.count(&KEY_SHED, cpu, 1);
                        return Err(e);
                    }
                }
            }
            None => None,
        };
        let id = self.tasks.len() as TaskId;
        self.tasks.push(Task {
            body,
            state: TaskState::Ready,
            pending: Cycles::ZERO,
            cpu,
            stack,
            executed: Cycles::ZERO,
        });
        self.cpus[cpu].queue.push_back(id);
        self.kick(cpu, Cycles::ZERO);
        Ok(id)
    }

    fn kick(&mut self, cpu: CpuId, at: Cycles) {
        let t = at.max(self.events.now());
        // A dispatch already pending no later than this kick covers it: the
        // kick coalesces and no IPI goes on the wire (so the fault plane is
        // not consulted — there is nothing to lose).
        if self.events.pending(cpu).is_some_and(|pending| pending <= t) {
            return;
        }
        // An IPI is actually sent: present it to the delivery fabric.
        let t_eff = match self.faults.as_mut() {
            Some(plan) => match interrupt::present_on(IrqClass::Ipi, plan, &self.sink, cpu, t) {
                DeliveryOutcome::Delivered => t,
                DeliveryOutcome::Delayed(d) => {
                    self.stats.delayed_kicks += 1;
                    t + d
                }
                DeliveryOutcome::Dropped => {
                    // The target never sees the kick. If that leaves the CPU
                    // with runnable work and no pending dispatch, it is
                    // stalled until the watchdog notices.
                    self.stats.lost_kicks += 1;
                    let c = &mut self.cpus[cpu];
                    if self.events.pending(cpu).is_none() && c.stalled_since.is_none() {
                        c.stalled_since = Some(t);
                    }
                    return;
                }
            },
            None => t,
        };
        // A delivery delay can push the kick past an already-pending
        // dispatch, in which case that timer covers it. Otherwise setting the
        // timer retracts any pending dispatch, so a CPU never idles past a
        // wakeup. Delayed IPIs reach the retraction: a kick delivered late
        // leaves a dispatch pending far ahead, and a later kick with a
        // shorter (or no) delay lands before it.
        if self
            .events
            .pending(cpu)
            .is_some_and(|pending| pending <= t_eff)
        {
            return;
        }
        self.events.set(cpu, t_eff);
    }

    fn signal(&mut self, tag: u64, at: Cycles) {
        self.signalled.insert(tag, at);
        if let Some(ws) = self.waiters.remove(&tag) {
            for tid in ws {
                let t = &mut self.tasks[tid as usize];
                t.state = TaskState::Ready;
                let cpu = t.cpu;
                self.cpus[cpu].queue.push_back(tid);
                self.kick(cpu, at);
            }
        }
    }

    /// Run to quiescence (all tasks done or irrecoverably blocked).
    /// Returns true if every task completed.
    pub fn run(&mut self) -> bool {
        while let Some((at, cpu)) = self.events.pop() {
            if cpu == self.cpus.len() {
                self.watchdog_tick(at);
                continue;
            }
            // Work is flowing on this CPU again: close any open
            // stall window and reset the watchdog backoff.
            let since = self.cpus[cpu].stalled_since.take();
            if let Some(since) = since {
                self.stats.recovered_stalls += 1;
                self.stats.stall_cycles += at - since;
            }
            // Attribute the gap this CPU is about to skip over
            // (dispatch advances its clock to `at`): the part after
            // the lost kick was a stall, the rest plain idle.
            let prev = self.cpus[cpu].now;
            if self.sink.is_on() && at > prev {
                let gap = at - prev;
                let stall = match since {
                    Some(s) => (at - s.max(prev)).min(gap),
                    None => Cycles::ZERO,
                };
                self.sink.charge(Layer::Hardware, "stall", stall);
                self.sink.charge(Layer::Hardware, "idle", gap - stall);
                if stall > Cycles::ZERO {
                    self.sink.span(Span {
                        layer: Layer::Kernel,
                        track: cpu,
                        id: u64::MAX,
                        kind: SpanKind::Stall,
                        start: at - stall,
                        end: at,
                    });
                }
            }
            self.sink.count_at(&KEY_DISPATCHES, cpu, 1, at);
            self.cpus[cpu].backoff = 1;
            self.cpus[cpu].next_retry = Cycles::ZERO;
            self.cpus[cpu].rekicks = 0;
            self.dispatch(cpu, at);
        }
        self.stats.makespan = self
            .cpus
            .iter()
            .map(|c| c.now)
            .max()
            .unwrap_or(Cycles::ZERO);
        self.stats.switch_cycles = self.cpus.iter().map(|c| c.switch_cycles).sum();
        self.stats.task_executed = self.tasks.iter().map(|t| t.executed).collect();
        if self.sink.is_on() {
            // Close the books: each CPU's trailing idle up to the makespan,
            // so attributed cycles sum exactly to makespan × #CPUs.
            let makespan = self.stats.makespan;
            for cpu in 0..self.cpus.len() {
                let tail = makespan - self.cpus[cpu].now;
                self.sink.charge(Layer::Hardware, "idle", tail);
                self.sink.gauge_at(
                    &KEY_SWITCH_CYCLES,
                    cpu,
                    self.cpus[cpu].switch_cycles.get(),
                    makespan,
                );
            }
            self.events.publish_telemetry(&self.sink);
        }
        self.tasks
            .iter()
            .all(|t| matches!(t.state, TaskState::Done))
    }

    /// One watchdog heartbeat: detect lost-kick stalls (runnable work, no
    /// pending dispatch) and re-kick under per-CPU exponential backoff.
    fn watchdog_tick(&mut self, at: Cycles) {
        let wd = self.watchdog.expect("watchdog event without policy");
        self.stats.watchdog_checks += 1;
        self.sink.count_at(&KEY_WD_CHECKS, 0, 1, at);
        for cpu in 0..self.cpus.len() {
            let c = &mut self.cpus[cpu];
            // A CPU whose re-kick budget is exhausted is abandoned: no
            // further re-kicks.
            if self.events.pending(cpu).is_none()
                && !c.queue.is_empty()
                && !wd.abandons(c.rekicks)
                && at >= c.next_retry
            {
                self.stats.watchdog_rekicks += 1;
                self.sink.count_at(&KEY_WD_REKICKS, cpu, 1, at);
                c.next_retry = at + wd.retry_backoff(c.backoff);
                c.backoff = wd.escalate(c.backoff);
                c.rekicks += 1;
                // The re-kick goes through the fault plane like any other
                // IPI — it too can be lost, hence the backoff above.
                self.kick(cpu, at);
            }
        }
        // Keep the heartbeat alive only while some CPU has pending or
        // rescuable work; abandoned CPUs (re-kick budget exhausted) no
        // longer count, so a run with a 100 % drop rate still terminates —
        // as does a plain deadlocked run, which reports incomplete.
        let live = self.cpus.iter().enumerate().any(|(cpu, c)| {
            self.events.pending(cpu).is_some() || (!c.queue.is_empty() && !wd.abandons(c.rekicks))
        });
        if live {
            self.events.set(self.cpus.len(), at + wd.period);
        }
    }

    fn dispatch(&mut self, cpu: CpuId, at: Cycles) {
        let c = &mut self.cpus[cpu];
        c.now = c.now.max(at);
        let Some(tid) = c.queue.pop_front() else {
            return;
        };
        let mut quantum_left = self.quantum;

        loop {
            let task = &mut self.tasks[tid as usize];
            if task.pending == Cycles::ZERO {
                match task.body.step() {
                    WorkStep::Compute(n) => task.pending = n,
                    WorkStep::Yield => {
                        self.stats.yields += 1;
                        let cost = self.yield_cost;
                        let c = &mut self.cpus[cpu];
                        let start = c.now;
                        c.now += cost;
                        c.switch_cycles += cost;
                        c.queue.push_back(tid);
                        let now = c.now;
                        self.sink.count_at(&KEY_YIELDS, cpu, 1, now);
                        self.sink.charge(Layer::Kernel, "switch-yield", cost);
                        self.record(cpu, u64::MAX, start, now, SpanKind::Switch);
                        self.kick(cpu, now);
                        return;
                    }
                    WorkStep::Block(tag) => {
                        // Already-signalled tags pass straight through
                        // (join on a finished task) — but causality holds:
                        // the joiner's clock advances to the signal time.
                        if let Some(&st) = self.signalled.get(&tag) {
                            let c = &mut self.cpus[cpu];
                            if st > c.now {
                                self.sink.charge(Layer::Kernel, "join-wait", st - c.now);
                                c.now = st;
                            }
                            continue;
                        }
                        self.stats.blocks += 1;
                        self.sink.count_at(&KEY_BLOCKS, cpu, 1, self.cpus[cpu].now);
                        task.state = TaskState::Blocked;
                        self.waiters.entry(tag).or_default().push(tid);
                        let now = self.cpus[cpu].now;
                        if !self.cpus[cpu].queue.is_empty() {
                            self.kick(cpu, now);
                        }
                        return;
                    }
                    WorkStep::Done => {
                        task.state = TaskState::Done;
                        // Return the task's stack to its buddy zone.
                        let stack = task.stack.take();
                        if let (Some(base), Some(alloc)) = (stack, self.stack_alloc.as_mut()) {
                            let _ = alloc.free(base);
                        }
                        let now = self.cpus[cpu].now;
                        self.signal(tid, now);
                        if !self.cpus[cpu].queue.is_empty() {
                            self.kick(cpu, now);
                        }
                        return;
                    }
                }
            }

            // Consume compute, bounded by the quantum.
            let task = &mut self.tasks[tid as usize];
            let slice = task.pending.min(quantum_left);
            task.pending -= slice;
            task.executed += slice;
            let c = &mut self.cpus[cpu];
            let run_start = c.now;
            c.now += slice;
            c.busy += slice;
            quantum_left -= slice;
            let run_end = self.cpus[cpu].now;
            self.sink.charge(Layer::Application, "compute", slice);
            self.record(cpu, tid, run_start, run_end, SpanKind::Run);

            if quantum_left == Cycles::ZERO {
                // Timer preemption.
                self.stats.preemptions += 1;
                let cost = self.preempt_cost;
                let c = &mut self.cpus[cpu];
                let start = c.now;
                c.now += cost;
                c.switch_cycles += cost;
                c.queue.push_back(tid);
                let now = c.now;
                self.sink.count_at(&KEY_PREEMPTIONS, cpu, 1, now);
                self.sink.charge(Layer::Kernel, "switch-preempt", cost);
                self.record(cpu, u64::MAX, start, now, SpanKind::Switch);
                self.kick(cpu, now);
                return;
            }
        }
    }
}

/// `os`'s (cooperative yield, timer preemption) context-switch costs on
/// `mc`.
fn switch_costs(mc: &MachineConfig, os: OsPoint) -> (Cycles, Cycles) {
    let cost = |kind| switch_cost(mc, os, kind, false, false).total();
    (
        cost(SwitchKind::FiberCooperative),
        cost(SwitchKind::ThreadInterrupt),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{LoopWork, ScriptedWork};
    use interweave_core::machine::MachineConfig;

    fn exec(cpus: usize, quantum: u64) -> Executor {
        Executor::new(MachineConfig::test(cpus), Cycles(quantum))
    }

    #[test]
    fn single_task_completes_with_expected_time() {
        let mut e = exec(1, 10_000);
        e.spawn(0, Box::new(LoopWork::new(10, Cycles(100))));
        assert!(e.run());
        assert!(e.stats.makespan >= Cycles(1000));
        assert_eq!(e.stats.task_executed[0], Cycles(1000));
    }

    #[test]
    fn quantum_preemption_interleaves_fairly() {
        // Two long tasks on one CPU: both finish, preemptions happen, and
        // execution interleaves (neither can finish an entire quantum run
        // ahead of the other).
        let mut e = exec(1, 1_000);
        let a = e.spawn(0, Box::new(LoopWork::new(1, Cycles(10_000))));
        let b = e.spawn(0, Box::new(LoopWork::new(1, Cycles(10_000))));
        assert!(e.run());
        assert!(
            e.stats.preemptions >= 18,
            "preemptions {}",
            e.stats.preemptions
        );
        assert_eq!(e.stats.task_executed[a as usize], Cycles(10_000));
        assert_eq!(e.stats.task_executed[b as usize], Cycles(10_000));
        // With fair RR, the makespan is both tasks + switch costs.
        assert!(e.stats.makespan >= Cycles(20_000));
    }

    #[test]
    fn cross_cpu_fork_join_resolves_causally() {
        // Parent on CPU 0 blocks on the child running on CPU 1; the parent
        // resumes only after the child's completion time. The small quantum
        // forces the child through many dispatch events, so the parent
        // reaches its join while the child is still running and must park.
        let mut e = exec(2, 5_000);
        let child = e.spawn(1, Box::new(LoopWork::new(1, Cycles(50_000))));
        let _parent = e.spawn(
            0,
            Box::new(ScriptedWork::new(vec![
                WorkStep::Compute(Cycles(100)),
                WorkStep::Block(child),
                WorkStep::Compute(Cycles(100)),
                WorkStep::Done,
            ])),
        );
        assert!(e.run());
        // Parent's last compute happens after the child finished at ~50k.
        assert!(
            e.stats.makespan >= Cycles(50_100),
            "makespan {}",
            e.stats.makespan
        );
        assert_eq!(e.stats.blocks, 1);
    }

    #[test]
    fn join_on_already_finished_task_does_not_block() {
        let mut e = exec(1, 100_000);
        let child = e.spawn(0, Box::new(LoopWork::new(1, Cycles(10))));
        // Parent spawned after; by the time it blocks, the child may be
        // done — either way it must complete.
        let _p = e.spawn(
            0,
            Box::new(ScriptedWork::new(vec![
                WorkStep::Compute(Cycles(5_000)),
                WorkStep::Block(child),
                WorkStep::Done,
            ])),
        );
        assert!(e.run());
    }

    #[test]
    fn yields_cost_less_than_preemptions() {
        // A cooperative task that yields often vs. a preempted one: the
        // cooperative run charges cheaper switches.
        let coop = {
            let mut e = exec(1, 1_000_000);
            let steps: Vec<WorkStep> = (0..20)
                .flat_map(|_| [WorkStep::Compute(Cycles(500)), WorkStep::Yield])
                .chain([WorkStep::Done])
                .collect();
            e.spawn(0, Box::new(ScriptedWork::new(steps)));
            assert!(e.run());
            e.stats.switch_cycles
        };
        let preempted = {
            let mut e = exec(1, 500);
            e.spawn(0, Box::new(LoopWork::new(20, Cycles(500))));
            assert!(e.run());
            e.stats.switch_cycles
        };
        assert!(
            coop < preempted,
            "cooperative {coop} vs preempted {preempted}"
        );
    }

    #[test]
    fn deadlocked_task_reports_incomplete() {
        let mut e = exec(1, 10_000);
        e.spawn(
            0,
            Box::new(ScriptedWork::new(vec![
                WorkStep::Block(9999),
                WorkStep::Done,
            ])),
        );
        assert!(
            !e.run(),
            "blocking on a never-signalled tag cannot complete"
        );
    }

    #[test]
    fn tracing_records_consistent_nonoverlapping_intervals() {
        use interweave_core::telemetry::{chrome_trace_json, find_overlap, Sink};
        let mut e = exec(2, 1_000);
        let sink = Sink::on();
        e.set_telemetry(sink.clone());
        let a = e.spawn(0, Box::new(LoopWork::new(1, Cycles(5_000))));
        let b = e.spawn(0, Box::new(LoopWork::new(1, Cycles(5_000))));
        let c = e.spawn(1, Box::new(LoopWork::new(1, Cycles(3_000))));
        assert!(e.run());
        let trace = sink.spans();
        assert!(find_overlap(&trace).is_none(), "overlapping intervals");
        // Per-task run time in the trace equals the executed totals.
        for (tid, expect) in [(a, 5_000u64), (b, 5_000), (c, 3_000)] {
            let traced: u64 = trace
                .iter()
                .filter(|ev| ev.id == tid && ev.kind == SpanKind::Run)
                .map(|ev| ev.duration().get())
                .sum();
            assert_eq!(traced, expect, "task {tid}");
        }
        let json = chrome_trace_json(&trace, &[], 1000);
        assert!(json.contains("\"name\":\"task0\""));
        assert!(json.contains("\"name\":\"switch\""));
    }

    #[test]
    fn telemetry_attribution_sums_exactly_to_clock() {
        use interweave_core::telemetry::Sink;
        // A gnarly workload: faults, watchdog, blocks, yields, preemptions —
        // and still every simulated cycle lands in exactly one category.
        let mut cfg = interweave_core::FaultConfig::quiet(21);
        cfg.drop_ipi = 0.3;
        cfg.delay_ipi = 0.3;
        let mut e = exec(4, 2_000);
        let sink = Sink::on();
        e.set_telemetry(sink.clone());
        e.set_fault_plan(interweave_core::FaultPlan::new(cfg));
        e.enable_watchdog(Cycles(5_000));
        let child = e.spawn(1, Box::new(LoopWork::new(4, Cycles(3_000))));
        e.spawn(
            0,
            Box::new(ScriptedWork::new(vec![
                WorkStep::Compute(Cycles(500)),
                WorkStep::Yield,
                WorkStep::Block(child),
                WorkStep::Compute(Cycles(500)),
                WorkStep::Done,
            ])),
        );
        e.spawn(2, Box::new(LoopWork::new(2, Cycles(7_000))));
        assert!(e.run());
        sink.verify_attribution(e.attribution_clock())
            .expect("attributed cycles must equal makespan × #CPUs");
        // Counters agree with the stats struct.
        assert_eq!(
            sink.counter("kernel.sched.preemptions"),
            e.stats.preemptions
        );
        assert_eq!(sink.counter("kernel.sched.yields"), e.stats.yields);
        assert_eq!(sink.counter("kernel.sched.blocks"), e.stats.blocks);
        assert_eq!(sink.counter("core.irq.dropped"), e.stats.lost_kicks);
        assert_eq!(sink.counter("core.irq.delayed"), e.stats.delayed_kicks);
        assert_eq!(
            sink.counter("kernel.watchdog.checks"),
            e.stats.watchdog_checks
        );
        assert_eq!(
            sink.counter("kernel.watchdog.rekicks"),
            e.stats.watchdog_rekicks
        );
        assert_eq!(
            sink.counter("core.fault.lost_ipi"),
            e.take_fault_plan()
                .unwrap()
                .injected(interweave_core::FaultClass::LostIpi)
        );
        // Spans exist and respect the strict per-lane invariant.
        let spans = sink.spans();
        assert!(!spans.is_empty());
        assert!(interweave_core::telemetry::find_overlap(&spans).is_none());
    }

    #[test]
    fn telemetry_off_run_is_bit_identical() {
        use interweave_core::telemetry::Sink;
        let run = |sink: Option<Sink>| {
            let mut cfg = interweave_core::FaultConfig::quiet(33);
            cfg.drop_ipi = 0.4;
            let mut e = exec(2, 1_500);
            if let Some(s) = sink {
                e.set_telemetry(s);
            }
            e.set_fault_plan(interweave_core::FaultPlan::new(cfg));
            e.enable_watchdog(Cycles(4_000));
            e.spawn(0, Box::new(LoopWork::new(3, Cycles(2_500))));
            e.spawn(1, Box::new(LoopWork::new(3, Cycles(2_500))));
            e.run();
            (
                e.stats.makespan,
                e.stats.lost_kicks,
                e.stats.watchdog_rekicks,
                e.stats.stall_cycles,
            )
        };
        let off = run(None);
        let on = run(Some(Sink::on()));
        assert_eq!(off, on, "telemetry must never perturb the simulation");
    }

    #[test]
    fn layered_os_charges_more_switch_cycles() {
        let run = |os: OsPoint| {
            let mut e = exec(1, 1_000);
            e.set_os(os);
            e.spawn(0, Box::new(LoopWork::new(1, Cycles(20_000))));
            e.spawn(0, Box::new(LoopWork::new(1, Cycles(20_000))));
            assert!(e.run());
            e.stats.switch_cycles
        };
        let nk = run(OsPoint::NkLike);
        let linux = run(OsPoint::LinuxLike);
        assert!(linux > nk, "layered switches {linux} vs interwoven {nk}");
    }

    #[test]
    fn watchdog_recovers_lost_kicks() {
        use interweave_core::{FaultConfig, FaultPlan};
        // Every kick is dropped: without the watchdog nothing ever runs;
        // with it, every stall is detected and the workload completes.
        let mut cfg = FaultConfig::quiet(42);
        cfg.drop_ipi = 1.0;
        let mut e = exec(2, 10_000);
        e.set_fault_plan(FaultPlan::new(cfg));
        e.enable_watchdog(Cycles(5_000));
        e.spawn(0, Box::new(LoopWork::new(1, Cycles(2_000))));
        e.spawn(1, Box::new(LoopWork::new(1, Cycles(2_000))));
        // drop_ipi=1 would re-drop the rescue kick forever; the watchdog's
        // kick also goes through the plan, so use a plan that drops only
        // sometimes for completion...
        // (p=1 case checked separately below for detection accounting)
        let done = e.run();
        assert!(!done, "p=1 drop can never complete");
        assert!(e.stats.lost_kicks > 0);
        assert!(e.stats.watchdog_checks > 0);

        // At p=0.5 the retries eventually land and everything finishes.
        cfg.drop_ipi = 0.5;
        let mut e = exec(2, 10_000);
        e.set_fault_plan(FaultPlan::new(cfg));
        e.enable_watchdog(Cycles(5_000));
        e.spawn(0, Box::new(LoopWork::new(4, Cycles(2_000))));
        e.spawn(1, Box::new(LoopWork::new(4, Cycles(2_000))));
        assert!(e.run(), "watchdog must rescue every lost kick");
        assert!(e.stats.lost_kicks > 0, "plan never fired at p=0.5");
        assert!(e.stats.watchdog_rekicks > 0);
        assert!(e.stats.recovered_stalls > 0);
        assert!(e.stats.stall_cycles.get() > 0);
    }

    #[test]
    fn watchdog_without_faults_changes_nothing_but_terminates() {
        // Heartbeat enabled on a healthy run: same results, still quiesces.
        let mut base = exec(1, 1_000);
        base.spawn(0, Box::new(LoopWork::new(1, Cycles(10_000))));
        assert!(base.run());
        let mut wd = exec(1, 1_000);
        wd.enable_watchdog(Cycles(2_000));
        wd.spawn(0, Box::new(LoopWork::new(1, Cycles(10_000))));
        assert!(wd.run());
        assert_eq!(wd.stats.makespan, base.stats.makespan);
        assert_eq!(wd.stats.watchdog_rekicks, 0);
        assert!(wd.stats.watchdog_checks > 0);
    }

    #[test]
    fn delayed_kicks_still_complete() {
        use interweave_core::{FaultConfig, FaultPlan};
        let mut cfg = FaultConfig::quiet(9);
        cfg.delay_ipi = 1.0;
        cfg.max_ipi_delay = Cycles(3_000);
        let mut e = exec(2, 10_000);
        e.set_fault_plan(FaultPlan::new(cfg));
        e.spawn(0, Box::new(LoopWork::new(3, Cycles(1_000))));
        e.spawn(1, Box::new(LoopWork::new(3, Cycles(1_000))));
        assert!(e.run(), "delays slow the run down but never lose work");
        assert!(e.stats.delayed_kicks > 0);
        assert_eq!(e.stats.lost_kicks, 0);
    }

    #[test]
    fn delayed_kick_overtaken_by_an_earlier_one_retracts_the_dispatch() {
        use interweave_core::telemetry::Sink;
        use interweave_core::{FaultConfig, FaultPlan};
        // Long IPI delays leave dispatches pending far ahead; a later kick
        // that lands earlier must retract and reschedule them (`kick`'s
        // retract arm), and the run must still be exact.
        let mut cfg = FaultConfig::quiet(1);
        cfg.delay_ipi = 0.5;
        cfg.max_ipi_delay = Cycles(20_000);
        let mut e = exec(4, 2_000);
        let sink = Sink::on();
        e.set_telemetry(sink.clone());
        e.set_fault_plan(FaultPlan::new(cfg));
        let mut expect = Vec::new();
        for cpu in 0..4 {
            e.spawn(cpu, Box::new(LoopWork::new(6, Cycles(1_500))));
            expect.push(Cycles(9_000));
            let child = e.spawn((cpu + 1) % 4, Box::new(LoopWork::new(3, Cycles(700))));
            expect.push(Cycles(2_100));
            e.spawn(
                cpu,
                Box::new(ScriptedWork::new(vec![
                    WorkStep::Compute(Cycles(400)),
                    WorkStep::Yield,
                    WorkStep::Block(child),
                    WorkStep::Compute(Cycles(300)),
                    WorkStep::Done,
                ])),
            );
            expect.push(Cycles(700));
        }
        assert!(e.run(), "delayed kicks never lose work");
        assert!(e.stats.delayed_kicks > 0);
        assert!(
            sink.counter("core.evq.cancelled") > 0,
            "no pending dispatch was retracted"
        );
        assert_eq!(e.stats.task_executed, expect);
        sink.verify_attribution(e.attribution_clock())
            .expect("attributed cycles must equal makespan × #CPUs");
    }

    #[test]
    fn injected_alloc_failure_sheds_task_and_run_degrades() {
        use interweave_core::{FaultConfig, FaultPlan};
        let mut cfg = FaultConfig::quiet(5);
        cfg.alloc_fail = 1.0;
        let mut e = exec(1, 10_000);
        e.set_stack_allocator(NumaAllocator::new(1, 6, 12));
        e.set_fault_plan(FaultPlan::new(cfg));
        let r = e.try_spawn(0, Box::new(LoopWork::new(1, Cycles(100))));
        assert_eq!(r, Err(AllocError::OutOfMemory));
        assert_eq!(e.stats.shed_tasks, 1);
        // The run itself proceeds (vacuously complete) — no abort.
        assert!(e.run());
    }

    #[test]
    fn task_stacks_are_returned_on_completion() {
        // A zone with room for exactly four stacks: a fifth spawn is shed
        // by real exhaustion, and once the four complete their stacks are
        // free again for four more.
        let four_stacks = NumaAllocator::new(1, DEFAULT_STACK_BYTES.trailing_zeros(), 2);
        let mut e = exec(1, 10_000);
        e.set_stack_allocator(four_stacks);
        let spawn = |e: &mut Executor| e.try_spawn(0, Box::new(LoopWork::new(1, Cycles(100))));
        for _ in 0..4 {
            spawn(&mut e).unwrap();
        }
        assert_eq!(spawn(&mut e), Err(AllocError::OutOfMemory));
        assert_eq!(e.stats.shed_tasks, 1);
        assert!(e.run());
        for _ in 0..4 {
            spawn(&mut e).unwrap();
        }
        assert!(e.run());
    }

    #[test]
    fn parallel_speedup_across_cpus() {
        let solo = {
            let mut e = exec(1, 100_000);
            for _ in 0..4 {
                e.spawn(0, Box::new(LoopWork::new(1, Cycles(25_000))));
            }
            assert!(e.run());
            e.stats.makespan
        };
        let quad = {
            let mut e = exec(4, 100_000);
            for c in 0..4 {
                e.spawn(c, Box::new(LoopWork::new(1, Cycles(25_000))));
            }
            assert!(e.run());
            e.stats.makespan
        };
        let speedup = solo.as_f64() / quad.as_f64();
        assert!(speedup > 3.5, "speedup {speedup:.2}");
    }
}
