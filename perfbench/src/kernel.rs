//! `kernel` workload: the preemptive executor and its event kernel alone.
//!
//! Each chunk spawns a seeded task set on a fresh executor for the 24-core
//! server, with the OS point of the composed interwoven stack: per CPU,
//! compute loops whose iterations straddle the scheduling quantum (so the
//! timer preempts them), a scripted task mixing compute and yields, and a
//! joiner that blocks on a loop task of the next CPU (a cross-CPU
//! fork/join). The run exercises dispatch events, the run queues,
//! preemption, yields and block/wake. The check verifies that every task
//! completed with exactly its scripted compute and that the makespan
//! covers each CPU's compute. Work unit: one step a task body issued.

use crate::{Tally, Workload};
use interweave::compose::ComposedStack;
use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::stack::OsPoint;
use interweave_core::time::Cycles;
use interweave_kernel::work::{LoopWork, ScriptedWork, Work, WorkStep};
use interweave_kernel::Executor;

/// Scheduling quantum, cycles.
const QUANTUM: Cycles = Cycles(5_000);
/// Compute loops per CPU.
const LOOPS_PER_CPU: usize = 4;

/// One task to spawn.
pub enum Body {
    Loop { iters: u64, per_iter: u64 },
    Script(Vec<WorkStep>),
}

pub struct Task {
    cpu: usize,
    body: Body,
}

impl Task {
    /// Compute cycles the body asks for.
    fn compute(&self) -> u64 {
        match &self.body {
            Body::Loop { iters, per_iter } => iters * per_iter,
            Body::Script(steps) => steps
                .iter()
                .map(|s| match s {
                    WorkStep::Compute(c) => c.get(),
                    _ => 0,
                })
                .sum(),
        }
    }

    /// Steps the body issues, its final `Done` included.
    fn steps(&self) -> u64 {
        match &self.body {
            Body::Loop { iters, .. } => iters + 1,
            Body::Script(steps) => steps.len() as u64 + 1,
        }
    }
}

/// The finished run: completion flag, makespan, per-task compute.
pub struct Finished {
    completed: bool,
    makespan: u64,
    executed: Vec<u64>,
}

pub struct KernelWorkload {
    mc: MachineConfig,
    os: OsPoint,
}

impl KernelWorkload {
    pub fn setup(stack: &ComposedStack, mc: MachineConfig) -> KernelWorkload {
        KernelWorkload {
            mc,
            os: stack.config.os,
        }
    }
}

impl Workload for KernelWorkload {
    type Input = Vec<Task>;
    type Output = Finished;
    const LAYER: &'static str = "kernel";

    fn gen(&mut self, rng: &mut SplitMix64) -> Vec<Task> {
        let cpus = self.mc.cores;
        let per_cpu = LOOPS_PER_CPU + 2;
        let mut tasks = Vec::with_capacity(cpus * per_cpu);
        for cpu in 0..cpus {
            for _ in 0..LOOPS_PER_CPU {
                tasks.push(Task {
                    cpu,
                    body: Body::Loop {
                        iters: rng.range(60, 180),
                        per_iter: rng.range(500, 12_000),
                    },
                });
            }
            let script = (0..rng.range(60, 180))
                .map(|_| {
                    if rng.chance(0.25) {
                        WorkStep::Yield
                    } else {
                        WorkStep::Compute(Cycles(rng.range(200, 4_000)))
                    }
                })
                .collect();
            tasks.push(Task {
                cpu,
                body: Body::Script(script),
            });
            // Join the first loop of the next CPU: task ids are spawn order.
            let target = ((cpu + 1) % cpus * per_cpu) as u64;
            tasks.push(Task {
                cpu,
                body: Body::Script(vec![
                    WorkStep::Compute(Cycles(rng.range(1_000, 20_000))),
                    WorkStep::Block(target),
                    WorkStep::Compute(Cycles(rng.range(1_000, 20_000))),
                ]),
            });
        }
        tasks
    }

    fn sim(&mut self, tasks: &Self::Input) -> Finished {
        let mut e = Executor::new(self.mc.clone(), QUANTUM);
        e.set_os(self.os);
        for t in tasks {
            let body: Box<dyn Work> = match &t.body {
                Body::Loop { iters, per_iter } => {
                    Box::new(LoopWork::new(*iters, Cycles(*per_iter)))
                }
                Body::Script(steps) => Box::new(ScriptedWork::new(steps.clone())),
            };
            e.spawn(t.cpu, body);
        }
        let completed = e.run();
        Finished {
            completed,
            makespan: e.stats.makespan.get(),
            executed: e.stats.task_executed.iter().map(|c| c.get()).collect(),
        }
    }

    fn check(&self, tasks: &Self::Input, out: &Finished) -> Result<Tally, String> {
        if !out.completed {
            return Err("executor stopped with tasks unfinished".into());
        }
        if out.executed.len() != tasks.len() {
            return Err(format!(
                "{} tasks reported for {} spawned",
                out.executed.len(),
                tasks.len()
            ));
        }
        let mut per_cpu = vec![0u64; self.mc.cores];
        for (i, (t, &done)) in tasks.iter().zip(&out.executed).enumerate() {
            if done != t.compute() {
                return Err(format!(
                    "task {i} computed {done} cycles of {}",
                    t.compute()
                ));
            }
            per_cpu[t.cpu] += done;
        }
        let busiest = per_cpu.into_iter().max().unwrap_or(0);
        if out.makespan < busiest {
            return Err(format!(
                "makespan {} below the busiest CPU's compute {busiest}",
                out.makespan
            ));
        }
        Ok(Tally {
            work: tasks.iter().map(Task::steps).sum(),
            sim_cycles: out.makespan,
        })
    }
}
