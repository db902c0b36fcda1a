//! `interp` workload: the IR interpreter alone.
//!
//! Each chunk builds seven kernels from `interweave_ir::programs` at seeded
//! sizes and runs each to completion on a fresh interpreter with no runtime
//! hooks, so the measured layer is instruction dispatch, register traffic,
//! page-backed memory and calls. Every kernel has a closed-form or
//! reference answer the check compares against. Work unit: one simulated
//! IR instruction.

use crate::{Tally, Workload};
use interweave_core::rng::SplitMix64;
use interweave_ir::interp::{Interp, InterpConfig, NullHooks};
use interweave_ir::programs::{self, Program};
use interweave_ir::types::Val;

/// One kernel to run and the value it must return.
pub struct Job {
    program: Program,
    expect: Val,
}

/// What one run returned, with its instruction and cycle counts.
pub struct Ran {
    value: Option<Val>,
    insts: u64,
    cycles: u64,
}

pub struct InterpWorkload {
    cfg: InterpConfig,
}

impl InterpWorkload {
    pub fn setup() -> InterpWorkload {
        InterpWorkload {
            cfg: InterpConfig::default(),
        }
    }
}

/// A size drawn uniformly from `[base, base + base / 16]`.
fn size(rng: &mut SplitMix64, base: i64) -> i64 {
    rng.range(base as u64, (base + base / 16) as u64) as i64
}

fn fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Sum of BFS depths over the graph `programs::bfs` builds (edges
/// `u -> 2u+1, 3u+2 mod n`, from node 0).
fn bfs_depths(n: i64) -> i64 {
    let n = n as usize;
    let mut depth = vec![-1i64; n];
    let mut queue = std::collections::VecDeque::from([0usize]);
    depth[0] = 0;
    while let Some(u) = queue.pop_front() {
        for v in [(2 * u + 1) % n, (3 * u + 2) % n] {
            if depth[v] < 0 {
                depth[v] = depth[u] + 1;
                queue.push_back(v);
            }
        }
    }
    depth.iter().filter(|&&d| d > 0).sum()
}

impl Workload for InterpWorkload {
    type Input = Vec<Job>;
    type Output = Vec<Ran>;
    const LAYER: &'static str = "interp";

    fn gen(&mut self, rng: &mut SplitMix64) -> Vec<Job> {
        let triad = size(rng, 3_000);
        let dot = size(rng, 6_000);
        let matvec = size(rng, 56);
        let transpose = size(rng, 56);
        let fib_n = rng.range(17, 18) as i64;
        let bfs = size(rng, 3_000);
        vec![
            Job {
                program: programs::stream_triad(triad),
                expect: Val::F((7 * triad * (triad - 1) / 2) as f64),
            },
            Job {
                program: programs::dot(dot),
                expect: Val::F((dot * (dot - 1)) as f64),
            },
            Job {
                program: programs::matvec(matvec),
                expect: Val::F((matvec * matvec * (matvec - 1)) as f64),
            },
            Job {
                program: programs::transpose(transpose),
                expect: Val::I(transpose * transpose),
            },
            Job {
                program: programs::fib(fib_n),
                expect: Val::I(fib(fib_n)),
            },
            Job {
                // Six queens have four solutions.
                program: programs::nqueens(6),
                expect: Val::I(4),
            },
            Job {
                program: programs::bfs(bfs),
                expect: Val::I(bfs_depths(bfs)),
            },
        ]
    }

    fn sim(&mut self, jobs: &Self::Input) -> Vec<Ran> {
        jobs.iter()
            .map(|job| {
                let p = &job.program;
                let mut it = Interp::new(self.cfg.clone());
                it.start(&p.module, p.entry, &p.args);
                let value = it.run_to_completion(&p.module, &mut NullHooks);
                Ran {
                    value,
                    insts: it.stats.insts,
                    cycles: it.stats.cycles,
                }
            })
            .collect()
    }

    fn check(&self, jobs: &Self::Input, ran: &Self::Output) -> Result<Tally, String> {
        let mut tally = Tally::default();
        for (job, r) in jobs.iter().zip(ran) {
            if r.value != Some(job.expect) {
                return Err(format!(
                    "{} returned {:?}, expected {:?}",
                    job.program.name, r.value, job.expect
                ));
            }
            tally.work += r.insts;
            tally.sim_cycles += r.cycles;
        }
        Ok(tally)
    }
}
