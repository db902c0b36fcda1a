//! The open-loop serving plane: virtine request serving under chaos.
//!
//! ROADMAP item 1 asks for the datacenter-scale version of the §IV-D
//! virtine story: a FaaS operator does not invoke a virtine once, they
//! serve millions of requests against a pool of them, and the number that
//! matters is the *tail* of the latency distribution as offered load
//! approaches and passes saturation — with the fault plane turned on. This
//! module provides that simulation:
//!
//! - [`WaspPool`]: a calibrated pool model of [`Wasp`](crate::wasp::Wasp).
//!   One real [`Virtine`] run measures the service profile (guest cycles,
//!   dirty pages, outcome); every subsequent request is charged
//!   arithmetically from the profile and the shared launch-path cost
//!   tables, so a million-invocation sweep costs microseconds of host time
//!   instead of re-running the interpreter per request. A differential
//!   test pins the quiet path byte-identical to the real `Wasp`.
//! - `WaspPool::invoke_recovering`: bounded retry with exponential
//!   backoff + deterministic jitter ([`RetryPolicy`]) on top of the
//!   snapshot-restart recovery `Wasp` performs; exhaustion surfaces as the
//!   typed [`ServeError::RetriesExhausted`] instead of looping.
//! - [`run_serve`]: the open-loop server. A global arrival stream
//!   ([`ArrivalGen`]) is dealt round-robin to a fixed set of logical
//!   workers; each worker is an independent FIFO queue with admission
//!   control (queue-depth cap + predicted-wait deadline shedding) over its
//!   own `WaspPool` and its own per-worker [`FaultPlan`] stream. Lost
//!   completion kicks are reclaimed at the kernel watchdog's next scan
//!   ([`WatchdogPolicy::next_scan_after`]) — the executor's actual
//!   recovery schedule, not a copy of it.
//!
//! **Determinism and thread invariance.** Every worker's simulation is a
//! pure function of `(profile, config, worker index, its arrival slice)`:
//! per-worker RNG streams are derived from the config seed and the worker
//! index, never from execution order. The workers run on the shared host
//! pool ([`parallel_map`]) and their reports are merged in worker index
//! order, so the result is bit-identical at every thread count — the
//! property the CI gate's pinned hash checks across hosts.
//!
//! **Fault accounting.** Every injected fault must land somewhere. Per
//! class, the invariant `injected == recovered + shed + absorbed` holds
//! (`FaultAccount::balanced`, asserted after every run): a virtine kill
//! is *recovered* when its request eventually returns, *shed* when the
//! retry budget exhausts, and *absorbed* when the kill lands after the
//! guest already finished; a lost completion kick is always *recovered*
//! by the watchdog scan (at a latency cost); a snapshot-cache OOM is
//! *recovered* by falling back to a cold boot when it evicted a cached
//! snapshot, and *absorbed* when the cache was already empty.

use crate::context::{Virtine, VirtineOutcome};
use crate::extract::VirtineImage;
use crate::wasp::{snapshot_restore, startup, LaunchPath};
use interweave_core::arrivals::{ArrivalGen, ArrivalKind};
use interweave_core::machine::MachineConfig;
use interweave_core::par::parallel_map;
use interweave_core::rng::SplitMix64;
use interweave_core::stats::Sketch;
use interweave_core::telemetry::{FlightRecorder, TimeSeries};
use interweave_core::time::Cycles;
use interweave_core::{FaultClass, FaultConfig, FaultPlan};
use interweave_ir::types::Val;
use interweave_kernel::watchdog::WatchdogPolicy;
use std::collections::VecDeque;

/// Bounded-retry schedule: exponential backoff with deterministic jitter.
///
/// Attempt `k` (0-based) that fails waits `nominal(k) + jitter` before the
/// next try, where `nominal(k) = min(base · 2^k, cap)` — monotone
/// non-decreasing — and the jitter is uniform in `[0, nominal·jitter_frac]`
/// drawn from a seeded per-worker stream (decorrelates retry storms without
/// breaking determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Cycles,
    /// Backoff ceiling.
    pub cap: Cycles,
    /// Jitter as a fraction of the nominal backoff, in `[0, 1]`.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// Nominal (jitter-free) backoff after failed attempt `attempt`:
    /// doubles from `base`, saturating at `cap`.
    pub(crate) fn nominal(&self, attempt: u32) -> Cycles {
        let mult = 1u64 << attempt.min(63);
        Cycles(self.base.get().saturating_mul(mult).min(self.cap.get()))
    }

    /// The actual backoff for failed attempt `attempt`: nominal plus a
    /// jittered share drawn from `rng`.
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Cycles {
        let n = self.nominal(attempt).get();
        let spread = (n as f64 * self.jitter_frac) as u64;
        let j = if spread > 0 { rng.below(spread + 1) } else { 0 };
        Cycles(n + j)
    }
}

/// Typed failure of a served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The retry budget is exhausted: every attempt was killed or faulted.
    RetriesExhausted {
        /// Attempts performed (== the policy's `max_attempts`).
        attempts: u32,
        /// Cycles the worker burned across all attempts and backoffs —
        /// the request failed but its cost was real.
        spent: Cycles,
        /// Injected kills that landed on a live guest along the way.
        kills: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::RetriesExhausted {
                attempts,
                spent,
                kills,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts ({kills} kills, {spent} cycles spent)"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// One successfully served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Service latency on the worker: every attempt plus every backoff.
    pub latency: Cycles,
    /// Attempts performed (1 = no retries).
    pub attempts: u32,
    /// Injected kills that landed on a live guest and were recovered by
    /// restart.
    pub kills: u32,
    /// Injected kills that landed after the guest finished (no effect).
    pub absorbed: u32,
}

/// The calibrated cost profile of one virtine service: what a single real
/// execution measured, reused arithmetically for every modelled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceProfile {
    /// The calibration run returned normally.
    pub ok: bool,
    /// Guest execution cycles per request.
    pub guest_cycles: u64,
    /// Pages one request dirties (the next restore's CoW cost).
    pub dirty_pages: u64,
}

impl ServiceProfile {
    /// Measure the profile by one real isolated execution of `image` with
    /// `args` under `budget`.
    pub fn calibrate(image: &VirtineImage, args: &[Val], budget: u64) -> ServiceProfile {
        let mut v = Virtine::new(image.clone());
        let outcome = v.invoke(args, budget);
        ServiceProfile {
            ok: matches!(outcome, VirtineOutcome::Returned(_)),
            guest_cycles: v.guest_cycles,
            dirty_pages: v.dirty_pages(),
        }
    }
}

/// Pool/serving statistics, aggregated across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Attempts executed (every retry counts).
    pub invocations: u64,
    /// Cold boots (empty cache, incl. prewarm fills).
    pub cold_starts: u64,
    /// Snapshot reuses.
    pub reuses: u64,
    /// Restarts performed after a killed/faulted attempt.
    pub restarts: u64,
    /// Injected kills detected as abnormal exits.
    pub faults_detected: u64,
    /// Snapshot-cache OOM evictions (AllocFail landed on a cached
    /// snapshot; the next request pays a cold start — that's the recovery).
    pub oom_evictions: u64,
    /// AllocFail draws that found the cache already empty (absorbed).
    pub oom_misses: u64,
    /// Cycles spent waiting in retry backoff.
    pub backoff_cycles: u64,
}

impl PoolStats {
    fn absorb(&mut self, o: &PoolStats) {
        self.invocations += o.invocations;
        self.cold_starts += o.cold_starts;
        self.reuses += o.reuses;
        self.restarts += o.restarts;
        self.faults_detected += o.faults_detected;
        self.oom_evictions += o.oom_evictions;
        self.oom_misses += o.oom_misses;
        self.backoff_cycles += o.backoff_cycles;
    }
}

/// Pool knobs for one worker's [`WaspPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOptions {
    /// Maximum snapshots kept warm. Zero models the layered stack's
    /// no-snapshot path: every request cold boots (~100 µs).
    pub cache_capacity: usize,
    /// Contexts pre-booted before serving (FaaS keep-warm).
    pub prewarm: usize,
    /// Retry schedule on killed/faulted attempts.
    pub retry: RetryPolicy,
}

/// A calibrated serving pool: the [`Wasp`](crate::wasp::Wasp) cost model
/// applied per request from a [`ServiceProfile`] instead of re-running the
/// interpreter, with bounded-capacity snapshot caching and bounded retry.
///
/// Cost fidelity: a cold attempt costs the cold launch path plus the
/// profiled guest cycles; a warm attempt costs the snapshot restore for
/// the cached footprint plus guest cycles — the exact arithmetic `Wasp`
/// performs (shared [`snapshot_restore`] helper), which the quiet-path
/// differential test pins. A killed attempt is charged exactly its kill
/// point `k` cycles of guest time (the model's definition of "killed `k`
/// cycles in"); faulted/killed contexts never re-enter the cache, exactly
/// the `Wasp` teardown rule.
#[derive(Debug, Clone)]
pub struct WaspPool {
    mc: MachineConfig,
    profile: ServiceProfile,
    opts: PoolOptions,
    /// Start-up cycles of a cold boot.
    cold: Cycles,
    /// Start-up cycles of restoring a prewarmed snapshot (dirty 0).
    restore_clean: Cycles,
    /// Start-up cycles of restoring a snapshot a served request left
    /// behind (`profile.dirty_pages` dirty).
    restore_served: Cycles,
    /// Dirty footprints of cached snapshots (LIFO, like `Wasp`'s pool).
    cached: Vec<u64>,
    /// Jitter stream for retry backoff.
    backoff_rng: SplitMix64,
    /// Counters.
    pub stats: PoolStats,
}

impl WaspPool {
    /// A pool serving `profile` on `mc`, with the backoff jitter stream
    /// seeded by `backoff_seed`.
    pub(crate) fn new(
        profile: ServiceProfile,
        mc: MachineConfig,
        opts: PoolOptions,
        backoff_seed: u64,
    ) -> WaspPool {
        assert!(opts.retry.max_attempts >= 1, "at least one attempt");
        WaspPool {
            cold: startup(LaunchPath::VirtineCold).total_cycles(&mc),
            restore_clean: snapshot_restore(0).total_cycles(&mc),
            restore_served: snapshot_restore(profile.dirty_pages).total_cycles(&mc),
            mc,
            profile,
            opts,
            cached: Vec::new(),
            backoff_rng: SplitMix64::new(backoff_seed),
            stats: PoolStats::default(),
        }
    }

    /// Pre-boot `n` contexts into the cache (dirty footprint 0, so their
    /// first restore is the baseline snapshot cost — `Wasp::prewarm`
    /// parity). Counts cold starts like the real pool. Capacity-bounded.
    pub(crate) fn prewarm(&mut self, n: usize) {
        for _ in 0..n.min(self.opts.cache_capacity) {
            self.cached.push(0);
            self.stats.cold_starts += 1;
        }
    }

    /// Start-up cycles of restoring a cached snapshot with `dirty` pages:
    /// the price taken once in [`WaspPool::new`] for the two footprints
    /// the cache holds, else priced afresh.
    fn restore_cycles(&self, dirty: u64) -> Cycles {
        if dirty == 0 {
            self.restore_clean
        } else if dirty == self.profile.dirty_pages {
            self.restore_served
        } else {
            snapshot_restore(dirty).total_cycles(&self.mc)
        }
    }

    /// One modelled attempt: returns (completed-ok, latency, kill landed,
    /// kill absorbed).
    fn attempt(&mut self, budget: u64, kill_at: Option<u64>) -> (bool, Cycles, bool, bool) {
        let start = match self.cached.pop() {
            Some(dirty) => {
                self.stats.reuses += 1;
                self.restore_cycles(dirty)
            }
            None => {
                self.stats.cold_starts += 1;
                self.cold
            }
        };
        self.stats.invocations += 1;
        // Fuel semantics mirror `Virtine::invoke_killable`: a kill point
        // inside the budget caps the fuel, and fuel exhaustion *is* the
        // kill.
        let fuel = match kill_at {
            Some(k) if k < budget => k,
            _ => budget,
        };
        let g = self.profile.guest_cycles;
        let finished = g <= fuel;
        let consumed = g.min(fuel);
        let ok = finished && self.profile.ok;
        let landed = kill_at.is_some() && !finished;
        let absorbed = kill_at.is_some() && finished;
        let latency = start + Cycles(consumed);
        if ok && self.cached.len() < self.opts.cache_capacity {
            self.cached.push(self.profile.dirty_pages);
        }
        (ok, latency, landed, absorbed)
    }

    /// Serve one request under the fault plan: per attempt, draw a kill
    /// point ([`FaultPlan::virtine_kill_at`]); restart on kill/fault with
    /// the policy's backoff until the attempt budget exhausts. After a
    /// completion, an [`FaultClass::AllocFail`] draw models snapshot-cache
    /// memory pressure: it evicts one cached snapshot (forcing a later
    /// cold-start recovery) or is absorbed when the cache is empty.
    pub(crate) fn invoke_recovering(
        &mut self,
        budget: u64,
        faults: &mut FaultPlan,
    ) -> Result<Served, ServeError> {
        let mut total = Cycles::ZERO;
        let mut kills = 0u32;
        let mut absorbed = 0u32;
        for attempt in 0..self.opts.retry.max_attempts {
            let kill_at = faults.virtine_kill_at(budget);
            let (ok, t, landed, abs) = self.attempt(budget, kill_at);
            total += t;
            if landed {
                kills += 1;
                self.stats.faults_detected += 1;
            }
            if abs {
                absorbed += 1;
            }
            if ok {
                if faults.fail_alloc() {
                    if self.cached.pop().is_some() {
                        self.stats.oom_evictions += 1;
                    } else {
                        self.stats.oom_misses += 1;
                    }
                }
                return Ok(Served {
                    latency: total,
                    attempts: attempt + 1,
                    kills,
                    absorbed,
                });
            }
            if attempt + 1 < self.opts.retry.max_attempts {
                self.stats.restarts += 1;
                let wait = self.opts.retry.backoff(attempt, &mut self.backoff_rng);
                self.stats.backoff_cycles += wait.get();
                total += wait;
            }
        }
        Err(ServeError::RetriesExhausted {
            attempts: self.opts.retry.max_attempts,
            spent: total,
            kills,
        })
    }
}

/// Whether a serving run also rolls its metrics into windows. Latency
/// always goes into a fixed-memory [`Sketch`] (≤ ~42 KiB per sink, relative
/// error ≤ 2⁻⁷); `Windowed` additionally rolls per-window trajectories
/// (goodput, queue depth, latency quantiles) into a [`TimeSeries`], so the
/// report shows *when* the knee happened, not just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsPolicy {
    /// Run-level latency sketch, no trajectory.
    #[default]
    Sketched,
    /// Run-level sketch plus a windowed [`TimeSeries`] with windows of
    /// `window` simulated cycles.
    Windowed {
        /// Roll-up window width in simulated cycles.
        window: Cycles,
    },
}

/// Per-class fault ledger: where every injected fault of one class landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAccount {
    /// The class this row accounts for.
    pub class: FaultClass,
    /// Faults the plan injected.
    pub injected: u64,
    /// Recovered by a mechanism one layer up (restart, watchdog scan,
    /// cold-start fallback) — the request still succeeded.
    pub recovered: u64,
    /// Turned into load shedding: the fault exhausted its recovery budget
    /// and the request was dropped (accounted, not lost).
    pub shed: u64,
    /// Landed where they could do no harm (dead context, empty cache).
    pub absorbed: u64,
}

impl FaultAccount {
    /// The accounting invariant: every injection is recovered, shed, or
    /// absorbed — nothing vanishes.
    pub(crate) fn balanced(&self) -> bool {
        self.injected == self.recovered + self.shed + self.absorbed
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Global mean inter-arrival gap at the offered load, µs.
    pub mean_gap_us: f64,
    /// Run duration, µs.
    pub duration_us: f64,
    /// Seed for arrivals and all per-worker streams.
    pub seed: u64,
    /// Logical workers: a model parameter, independent of how many host
    /// threads run them.
    pub workers: usize,
    /// Admission cap on per-worker in-flight requests (incl. in service).
    pub queue_cap: usize,
    /// Admission deadline: shed when the predicted queueing wait exceeds
    /// this, µs.
    pub deadline_slack_us: f64,
    /// Guest fuel budget per attempt.
    pub budget: u64,
    /// Per-worker pool knobs (cache capacity, prewarm, retry schedule).
    pub pool: PoolOptions,
    /// Chaos knob: per-class injection rates (per-worker streams are
    /// derived from this config's seed and the worker index).
    pub faults: FaultConfig,
    /// Watchdog schedule reclaiming lost completion kicks.
    pub watchdog: WatchdogPolicy,
    /// Metrics policy: run-level sketch only, or sketch + windowed time
    /// series.
    pub metrics: MetricsPolicy,
    /// Per-worker flight-recorder depth: 0 (default) disables the
    /// blackbox; N keeps each worker's last N events for the ledger
    /// assertion's failure dump.
    pub blackbox: usize,
}

/// The merged result of a serving run. `PartialEq` holds bit-exactly, so
/// thread invariance and double-run determinism are testable as `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests served successfully (the goodput numerator).
    pub completed: u64,
    /// Shed at admission: queue depth at cap.
    pub shed_queue: u64,
    /// Shed at admission: predicted wait past the deadline.
    pub shed_deadline: u64,
    /// Admitted but failed: retry budget exhausted under kills.
    pub shed_retry: u64,
    /// Completions whose kick was lost and reclaimed by a watchdog scan.
    pub wd_reclaims: u64,
    /// End-to-end latency (arrival → observed completion) of successfully
    /// served requests, µs.
    pub latency_us: Sketch,
    /// Windowed trajectories (offered/completed/shed counters, queue-depth
    /// gauge, latency sketch per window), present under
    /// [`MetricsPolicy::Windowed`]. Merged window-by-window in canonical
    /// worker order, so it is bit-identical at every thread count.
    pub series: Option<TimeSeries>,
    /// Per-class fault ledger, in [`FaultClass::ALL`] order.
    pub faults: Vec<FaultAccount>,
    /// Aggregated pool counters.
    pub pool: PoolStats,
}

impl ServeReport {
    /// Fraction of offered requests served successfully.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Total requests shed (admission + retry exhaustion).
    pub fn shed(&self) -> u64 {
        self.shed_queue + self.shed_deadline + self.shed_retry
    }

    /// The ledger row for `class`.
    pub fn account(&self, class: FaultClass) -> &FaultAccount {
        &self.faults[class.index()]
    }

    /// True when every class's ledger balances (`injected == recovered +
    /// shed + absorbed`).
    pub fn accounts_balanced(&self) -> bool {
        self.faults.iter().all(FaultAccount::balanced)
    }

    fn absorb(&mut self, o: &ServeReport) {
        self.offered += o.offered;
        self.admitted += o.admitted;
        self.completed += o.completed;
        self.shed_queue += o.shed_queue;
        self.shed_deadline += o.shed_deadline;
        self.shed_retry += o.shed_retry;
        self.wd_reclaims += o.wd_reclaims;
        self.latency_us.merge(&o.latency_us);
        if let (Some(mine), Some(theirs)) = (self.series.as_mut(), o.series.as_ref()) {
            mine.merge(theirs);
        }
        for (a, b) in self.faults.iter_mut().zip(&o.faults) {
            a.injected += b.injected;
            a.recovered += b.recovered;
            a.shed += b.shed;
            a.absorbed += b.absorbed;
        }
        self.pool.absorb(&o.pool);
    }

    fn empty(metrics: MetricsPolicy) -> ServeReport {
        ServeReport {
            offered: 0,
            admitted: 0,
            completed: 0,
            shed_queue: 0,
            shed_deadline: 0,
            shed_retry: 0,
            wd_reclaims: 0,
            latency_us: Sketch::for_latency_us(),
            series: match metrics {
                MetricsPolicy::Windowed { window } => Some(TimeSeries::new(window)),
                MetricsPolicy::Sketched => None,
            },
            faults: FaultClass::ALL
                .iter()
                .map(|&class| FaultAccount {
                    class,
                    injected: 0,
                    recovered: 0,
                    shed: 0,
                    absorbed: 0,
                })
                .collect(),
            pool: PoolStats::default(),
        }
    }
}

/// Decorrelation salt for per-worker streams: worker `w`'s fault and
/// backoff seeds are derived from the config seed and `w`, never from
/// execution order — the heart of the thread-invariance argument.
fn worker_salt(w: usize) -> u64 {
    (w as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Simulate one worker over its arrival slice. Pure function of its
/// arguments; no shared mutable state.
fn simulate_worker(
    w: usize,
    arrivals: &[f64],
    profile: ServiceProfile,
    mc: &MachineConfig,
    cfg: &ServeConfig,
) -> ServeReport {
    let freq = mc.freq;
    let mut r = ServeReport::empty(cfg.metrics);
    // The worker's blackbox: last `cfg.blackbox` admission/shed/reclaim
    // events, dumped if the ledger assertion below ever fires.
    let mut bb = (cfg.blackbox > 0).then(|| FlightRecorder::new(cfg.blackbox));
    let mut pool = WaspPool::new(
        profile,
        mc.clone(),
        cfg.pool,
        cfg.seed ^ worker_salt(w) ^ 0x5851_F42D_4C95_7F2D,
    );
    pool.prewarm(cfg.pool.prewarm);
    let mut faults = FaultPlan::new(FaultConfig {
        seed: cfg.faults.seed ^ worker_salt(w),
        ..cfg.faults
    });
    // Finish times of admitted, not-yet-finished requests (FIFO, single
    // server per worker: front finishes first).
    let mut fifo: VecDeque<Cycles> = VecDeque::new();
    let deadline = freq.cycles_per_us(cfg.deadline_slack_us);
    let (vk, li, af) = (
        FaultClass::VirtineKill.index(),
        FaultClass::LostIpi.index(),
        FaultClass::AllocFail.index(),
    );

    for &t_us in arrivals {
        r.offered += 1;
        let t = freq.cycles_per_us(t_us);
        while fifo.front().is_some_and(|&f| f <= t) {
            fifo.pop_front();
        }
        if let Some(s) = r.series.as_mut() {
            s.add(t, "offered", 1);
            s.gauge_max(t, "queue_depth", fifo.len() as u64);
        }
        // Admission control, two gates: bound the queue, then bound the
        // wait. Both shed *before* any service cost is spent.
        if fifo.len() >= cfg.queue_cap {
            r.shed_queue += 1;
            if let Some(s) = r.series.as_mut() {
                s.add(t, "shed", 1);
            }
            if let Some(b) = bb.as_mut() {
                b.record(t, w, "shed-queue", fifo.len() as u64, 0);
            }
            continue;
        }
        let start = fifo.back().copied().unwrap_or(Cycles::ZERO).max(t);
        if start - t > deadline {
            r.shed_deadline += 1;
            if let Some(s) = r.series.as_mut() {
                s.add(t, "shed", 1);
            }
            if let Some(b) = bb.as_mut() {
                b.record(t, w, "shed-deadline", (start - t).get(), deadline.get());
            }
            continue;
        }
        r.admitted += 1;
        match pool.invoke_recovering(cfg.budget, &mut faults) {
            Ok(served) => {
                let finish = start + served.latency;
                // The worker is free at the true finish; the *client*
                // observes the completion kick, which the chaos plane may
                // drop — then the response waits for the next watchdog
                // scan to notice and re-deliver it.
                let observed = if faults.drop_kick() {
                    r.wd_reclaims += 1;
                    r.faults[li].recovered += 1;
                    let reclaimed = cfg.watchdog.next_scan_after(finish);
                    if let Some(b) = bb.as_mut() {
                        b.record(t, w, "wd-reclaim", finish.get(), reclaimed.get());
                    }
                    reclaimed
                } else {
                    finish
                };
                fifo.push_back(finish);
                r.completed += 1;
                let lat_us = freq.us(observed - t).get();
                r.latency_us.add(lat_us);
                if let Some(s) = r.series.as_mut() {
                    s.add(t, "completed", 1);
                    s.observe(t, "latency_us", lat_us);
                }
                r.faults[vk].recovered += served.kills as u64;
                r.faults[vk].absorbed += served.absorbed as u64;
            }
            Err(ServeError::RetriesExhausted { spent, kills, .. }) => {
                // The request failed but its cost was real: the worker
                // stays busy for everything the attempts burned.
                fifo.push_back(start + spent);
                r.shed_retry += 1;
                if let Some(s) = r.series.as_mut() {
                    s.add(t, "shed", 1);
                }
                if let Some(b) = bb.as_mut() {
                    b.record(t, w, "shed-retry", kills as u64, spent.get());
                }
                r.faults[vk].shed += kills as u64;
            }
        }
    }
    for (i, &class) in FaultClass::ALL.iter().enumerate() {
        r.faults[i].injected = faults.injected(class);
    }
    r.faults[af].recovered = pool.stats.oom_evictions;
    r.faults[af].absorbed = pool.stats.oom_misses;
    r.pool = pool.stats;
    if !r.accounts_balanced() {
        // The flight-recorder payoff: the panic carries the worker's last
        // N events, deterministically, instead of "re-run and pray".
        let dump = bb
            .as_ref()
            .map(|b| b.dump(&format!("worker {w} ledger imbalance")))
            .unwrap_or_default();
        panic!(
            "worker {w} fault ledger out of balance: {:?}\n{dump}",
            r.faults
        );
    }
    r
}

/// Run the open-loop serving simulation: calibrate the service profile
/// with one real execution, deal the global arrival stream round-robin to
/// `cfg.workers` independent FIFO workers, simulate them on at most
/// `threads` host threads, and merge reports in worker index order —
/// bit-identical at every `threads` value (1 runs inline).
pub fn run_serve(
    image: &VirtineImage,
    args: &[Val],
    mc: &MachineConfig,
    cfg: &ServeConfig,
    threads: usize,
) -> ServeReport {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.queue_cap >= 1, "queue cap must admit at least one");
    let profile = ServiceProfile::calibrate(image, args, cfg.budget);
    assert!(
        profile.ok && profile.guest_cycles < cfg.budget,
        "budget must cover the calibrated service time"
    );

    // One global arrival stream (the offered load), dealt round-robin so
    // every worker sees the same long-run arrival shape.
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); cfg.workers];
    for (i, t) in
        ArrivalGen::new(cfg.arrival, cfg.mean_gap_us, cfg.duration_us, cfg.seed).enumerate()
    {
        slices[i % cfg.workers].push(t);
    }

    // Fold the reports into worker 0's in worker order, each freed once
    // absorbed, so no merged copy of a worker's windows sits beside it.
    let merged = parallel_map((0..cfg.workers).collect(), threads, |w| {
        simulate_worker(w, &slices[w], profile, mc, cfg)
    })
    .into_iter()
    .reduce(|mut merged, rep| {
        merged.absorb(&rep);
        merged
    })
    .expect("at least one worker");
    assert!(
        merged.accounts_balanced(),
        "merged fault ledger out of balance"
    );
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_one;
    use crate::wasp::Wasp;
    use interweave_ir::{programs, FuncId};

    fn retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Cycles(2_000),
            cap: Cycles(16_000),
            jitter_frac: 0.25,
        }
    }

    fn pool_opts(cache: usize) -> PoolOptions {
        PoolOptions {
            cache_capacity: cache,
            prewarm: 0,
            retry: retry(),
        }
    }

    fn serve_cfg(image: &VirtineImage, mean_gap_us: f64, faults: FaultConfig) -> ServeConfig {
        // A kill budget ~1.3× the calibrated service time, so injected
        // kill points (uniform in the budget) land mid-run ~3 times in 4.
        let profile = ServiceProfile::calibrate(image, &[Val::I(10)], u64::MAX / 4);
        ServeConfig {
            arrival: ArrivalKind::Poisson,
            mean_gap_us,
            duration_us: 60_000.0,
            seed: 0x5EED,
            workers: 6,
            queue_cap: 8,
            deadline_slack_us: 400.0,
            budget: profile.guest_cycles + profile.guest_cycles / 3 + 2,
            pool: pool_opts(64),
            faults,
            watchdog: WatchdogPolicy::new(Cycles(100_000)),
            metrics: MetricsPolicy::Sketched,
            blackbox: 0,
        }
    }

    #[test]
    fn retry_nominal_schedule_is_monotone_and_capped() {
        let r = retry();
        let mut prev = Cycles::ZERO;
        for k in 0..12 {
            let n = r.nominal(k);
            assert!(n >= prev, "nominal backoff must not shrink");
            assert!(n <= r.cap);
            prev = n;
        }
        assert_eq!(r.nominal(0), Cycles(2_000));
        assert_eq!(r.nominal(1), Cycles(4_000));
        assert_eq!(r.nominal(3), Cycles(16_000));
        assert_eq!(r.nominal(10), Cycles(16_000), "saturates at cap");
    }

    #[test]
    fn retry_jitter_is_bounded_and_deterministic() {
        let r = retry();
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for k in 0..8 {
            let x = r.backoff(k, &mut a);
            assert_eq!(x, r.backoff(k, &mut b), "same stream, same jitter");
            let n = r.nominal(k).get() as f64;
            assert!(x.get() as f64 >= n && x.get() as f64 <= n * (1.0 + r.jitter_frac) + 1.0);
        }
    }

    #[test]
    fn quiet_pool_is_byte_identical_to_real_wasp() {
        // The memoized pool must charge exactly what the real
        // microhypervisor charges on the no-fault path: same outcomes,
        // same cycle totals, same cold/reuse accounting.
        let image = extract_one(&programs::fib(12).module, FuncId(0));
        let args = [Val::I(12)];
        let budget = u64::MAX / 4;
        let mc = MachineConfig::xeon_server_2s();

        let mut wasp = Wasp::new(image.clone(), mc.clone());
        let mut quiet = FaultPlan::quiet(3);
        let real: Vec<Cycles> = (0..12)
            .map(|_| {
                let (o, t, r) = wasp.invoke_recovering(&args, budget, &mut quiet, 4);
                assert!(matches!(o, VirtineOutcome::Returned(_)));
                assert_eq!(r, 0);
                t
            })
            .collect();

        let profile = ServiceProfile::calibrate(&image, &args, budget);
        let mut pool = WaspPool::new(profile, mc, pool_opts(1024), 7);
        let mut quiet = FaultPlan::quiet(3);
        let modelled: Vec<Cycles> = (0..12)
            .map(|_| {
                pool.invoke_recovering(budget, &mut quiet)
                    .expect("quiet path cannot fail")
                    .latency
            })
            .collect();

        assert_eq!(modelled, real, "pool model must not drift from Wasp");
        assert_eq!(pool.stats.cold_starts, wasp.stats.cold_starts);
        assert_eq!(pool.stats.reuses, wasp.stats.reuses);
        assert_eq!(pool.stats.invocations, wasp.stats.invocations);
        assert_eq!(pool.stats.restarts, 0);
    }

    #[test]
    fn prewarm_parity_with_real_wasp() {
        let image = extract_one(&programs::fib(10).module, FuncId(0));
        let args = [Val::I(10)];
        let budget = u64::MAX / 4;
        let mc = MachineConfig::xeon_server_2s();

        let mut wasp = Wasp::new(image.clone(), mc.clone());
        wasp.prewarm(2);
        let (_, real) = wasp.invoke(&args, budget);

        let profile = ServiceProfile::calibrate(&image, &args, budget);
        let mut pool = WaspPool::new(profile, mc, pool_opts(1024), 7);
        pool.prewarm(2);
        let mut quiet = FaultPlan::quiet(5);
        let served = pool.invoke_recovering(budget, &mut quiet).unwrap();
        assert_eq!(served.latency, real);
        assert_eq!(pool.stats.cold_starts, wasp.stats.cold_starts);
    }

    #[test]
    fn retry_exhaustion_surfaces_a_typed_error_with_bounded_attempts() {
        let image = extract_one(&programs::fib(12).module, FuncId(0));
        let args = [Val::I(12)];
        let mc = MachineConfig::xeon_server_2s();
        let profile = ServiceProfile::calibrate(&image, &args, u64::MAX / 4);
        // Kill every attempt: p=1 with a budget the guest can never beat
        // is not constructible (kill points land in [1, budget-1]); use
        // p=1.0 and a budget barely above the service time so nearly all
        // kill points land mid-run — then hunt a seed where all 4 land.
        let budget = profile.guest_cycles + 2;
        let mut seed = 0u64;
        let err = loop {
            let mut faults = FaultPlan::new(FaultConfig {
                virtine_kill: 1.0,
                ..FaultConfig::quiet(seed)
            });
            let mut pool = WaspPool::new(profile, mc.clone(), pool_opts(64), 11);
            match pool.invoke_recovering(budget, &mut faults) {
                Err(e) => {
                    assert_eq!(pool.stats.invocations, 4, "attempts are bounded");
                    assert_eq!(pool.stats.restarts, 3, "backoff between attempts only");
                    assert!(pool.stats.backoff_cycles > 0);
                    break e;
                }
                Ok(_) => seed += 1,
            }
        };
        let ServeError::RetriesExhausted {
            attempts,
            spent,
            kills,
        } = err;
        assert_eq!(attempts, 4);
        assert_eq!(kills, 4, "every attempt was a landed kill");
        assert!(spent > Cycles::ZERO, "failed work still costs");
        let msg = err.to_string();
        assert!(msg.contains("retries exhausted"), "{msg}");
    }

    #[test]
    fn backoff_waits_follow_the_monotone_nominal_schedule() {
        // Reconstruct the expected waits from the policy and the same
        // seeded jitter stream the pool uses.
        let image = extract_one(&programs::fib(12).module, FuncId(0));
        let args = [Val::I(12)];
        let mc = MachineConfig::xeon_server_2s();
        let profile = ServiceProfile::calibrate(&image, &args, u64::MAX / 4);
        let budget = profile.guest_cycles + 2;
        // Find a seed where all attempts die (as above).
        let mut seed = 0u64;
        let (total_backoff, backoff_seed) = loop {
            let mut faults = FaultPlan::new(FaultConfig {
                virtine_kill: 1.0,
                ..FaultConfig::quiet(seed)
            });
            let mut pool = WaspPool::new(profile, mc.clone(), pool_opts(64), 11);
            if pool.invoke_recovering(budget, &mut faults).is_err() {
                break (pool.stats.backoff_cycles, 11);
            }
            seed += 1;
        };
        let r = retry();
        let mut rng = SplitMix64::new(backoff_seed);
        let expect: u64 = (0..3).map(|k| r.backoff(k, &mut rng).get()).sum();
        assert_eq!(total_backoff, expect);
    }

    #[test]
    fn cache_capacity_zero_always_cold_boots() {
        let image = extract_one(&programs::fib(10).module, FuncId(0));
        let args = [Val::I(10)];
        let budget = u64::MAX / 4;
        let mc = MachineConfig::xeon_server_2s();
        let profile = ServiceProfile::calibrate(&image, &args, budget);
        let mut pool = WaspPool::new(profile, mc, pool_opts(0), 7);
        let mut quiet = FaultPlan::quiet(5);
        let a = pool.invoke_recovering(budget, &mut quiet).unwrap().latency;
        let b = pool.invoke_recovering(budget, &mut quiet).unwrap().latency;
        assert_eq!(a, b, "no snapshot ever cached: every call cold");
        assert_eq!(pool.stats.cold_starts, 2);
        assert_eq!(pool.stats.reuses, 0);
    }

    fn chaotic(seed: u64) -> FaultConfig {
        FaultConfig {
            virtine_kill: 0.12,
            drop_ipi: 0.05,
            alloc_fail: 0.05,
            ..FaultConfig::quiet(seed)
        }
    }

    #[test]
    fn serve_report_is_shard_invariant_and_deterministic() {
        let image = extract_one(&programs::fib(10).module, FuncId(0));
        let args = [Val::I(10)];
        let mc = MachineConfig::xeon_server_2s();
        let cfg = serve_cfg(&image, 40.0, chaotic(0xC0FFEE));
        let one = run_serve(&image, &args, &mc, &cfg, 1);
        let three = run_serve(&image, &args, &mc, &cfg, 3);
        let six = run_serve(&image, &args, &mc, &cfg, 6);
        assert_eq!(one, three, "1 vs 3 threads must be bit-identical");
        assert_eq!(one, six, "1 vs 6 threads must be bit-identical");
        let again = run_serve(&image, &args, &mc, &cfg, 1);
        assert_eq!(one, again, "double run must be bit-identical");
        assert!(one.offered > 500, "the run must carry real load");
        assert!(one.completed > 0);
    }

    #[test]
    fn fault_ledger_balances_under_chaos() {
        let image = extract_one(&programs::fib(10).module, FuncId(0));
        let args = [Val::I(10)];
        let mc = MachineConfig::xeon_server_2s();
        let r = run_serve(&image, &args, &mc, &serve_cfg(&image, 30.0, chaotic(77)), 2);
        assert!(r.accounts_balanced());
        let vk = r.account(FaultClass::VirtineKill);
        assert!(vk.injected > 0, "12% kills over this load must fire");
        assert!(vk.recovered > 0, "retries must rescue most kills");
        let li = r.account(FaultClass::LostIpi);
        assert_eq!(
            li.injected, li.recovered,
            "watchdog reclaims every lost kick"
        );
        assert_eq!(li.recovered, r.wd_reclaims);
        let af = r.account(FaultClass::AllocFail);
        assert_eq!(af.injected, af.recovered + af.absorbed);
        assert_eq!(af.shed, 0, "cache OOM never sheds a request directly");
    }

    #[test]
    fn overload_sheds_instead_of_collapsing() {
        let image = extract_one(&programs::fib(10).module, FuncId(0));
        let args = [Val::I(10)];
        let mc = MachineConfig::xeon_server_2s();
        // Well under saturation: nothing shed at admission.
        let calm = run_serve(&image, &args, &mc, &serve_cfg(&image, 200.0, chaotic(5)), 2);
        // Far past saturation: admission control must engage. Warm service
        // is ~14 µs/request/worker, so a 1 µs global gap over 6 workers is
        // well past the knee.
        let slam = run_serve(&image, &args, &mc, &serve_cfg(&image, 1.0, chaotic(5)), 2);
        assert_eq!(
            calm.shed_queue + calm.shed_deadline,
            0,
            "calm load admits all"
        );
        assert!(
            slam.shed_queue + slam.shed_deadline > 0,
            "overload must shed at admission"
        );
        // Bounded tail for what *was* admitted: queue cap 8 bounds the
        // wait to ~cap × service time; check against a generous multiple.
        let p99 = slam.latency_us.p99();
        assert!(
            p99 < 4_000.0,
            "p99 of admitted requests must stay bounded, got {p99} µs"
        );
        assert!(slam.goodput() < 0.95, "overload cannot serve everything");
        assert!(calm.goodput() > 0.95, "calm load serves nearly everything");
    }

    #[test]
    fn windowed_series_is_shard_invariant_and_consistent_with_totals() {
        let image = extract_one(&programs::fib(10).module, FuncId(0));
        let args = [Val::I(10)];
        let mc = MachineConfig::xeon_server_2s();
        let mut cfg = serve_cfg(&image, 40.0, chaotic(0xC0FFEE));
        // ~10 windows over the 60 ms run at 3.3 GHz.
        cfg.metrics = MetricsPolicy::Windowed {
            window: Cycles(20_000_000),
        };
        cfg.blackbox = 32;
        let one = run_serve(&image, &args, &mc, &cfg, 1);
        let six = run_serve(&image, &args, &mc, &cfg, 6);
        assert_eq!(one, six, "windowed report must be thread-invariant");
        let series = one.series.as_ref().expect("windowed policy fills series");
        assert!(series.len() > 3, "the run must span several windows");
        let sum = |name: &str| -> u64 { series.iter().map(|(_, w)| w.counter(name)).sum() };
        assert_eq!(sum("offered"), one.offered, "windows partition arrivals");
        assert_eq!(sum("completed"), one.completed);
        assert_eq!(sum("shed"), one.shed());
        // Per-window latency sketches merge to the run-level sink.
        let mut merged = Sketch::for_latency_us();
        for (_, w) in series.iter() {
            if let Some(s) = w.sketch("latency_us") {
                merged.merge(s);
            }
        }
        assert_eq!(
            merged, one.latency_us,
            "window sketches must merge to the total"
        );
    }

    #[test]
    fn snapshot_cache_separates_interwoven_from_layered_tails() {
        let image = extract_one(&programs::fib(10).module, FuncId(0));
        let args = [Val::I(10)];
        let mc = MachineConfig::xeon_server_2s();
        let mut cfg = serve_cfg(&image, 60.0, FaultConfig::quiet(9));
        let warm = run_serve(&image, &args, &mc, &cfg, 2);
        cfg.pool.cache_capacity = 0; // the layered stack: no snapshots
        let cold = run_serve(&image, &args, &mc, &cfg, 2);
        assert!(
            cold.latency_us.p50() > warm.latency_us.p50() * 2.0,
            "cold-start storms must dominate the layered median: {} vs {}",
            cold.latency_us.p50(),
            warm.latency_us.p50()
        );
    }
}
