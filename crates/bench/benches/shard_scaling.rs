//! Shard-count scaling of the sharded simulation kernel, at two levels:
//!
//! - `kernel`: the raw [`ShardedKernel`] merged driver — schedule/pop
//!   throughput as the same event population spreads over more shards;
//! - `fig7`: the real consumer — the Fig. 7 coherence sweep (reduced
//!   volume) at 1/2/4/8 event-queue shards.
//!
//! The contract being exercised is the determinism one: every shard count
//! must produce identical rows, so each fig7 iteration is also asserted
//! against the single-shard reference. Shard counts here change *batching*
//! (per-shard queues are smaller and windows fire in bursts), not results;
//! wall-clock parity across counts is the expected healthy shape on one
//! host CPU.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use interweave_coherence::experiment::fig7;
use interweave_core::{Cycles, ShardedKernel};

/// Schedule `n` events round-robin across shards (with cross-shard sends
/// sprinkled in), then pop all of them through the merged driver.
fn kernel_roundtrip(shards: usize, n: u64) -> u64 {
    let mut k: ShardedKernel<u64> = ShardedKernel::with_lookahead(shards, Cycles(3));
    for i in 0..n {
        let s = (i as usize) % shards;
        if i % 7 == 0 {
            let to = (s + 1) % shards;
            let at = k.shard(s).now() + Cycles(3 + i % 11);
            k.send(s, to, at, i);
        } else {
            k.schedule(s, Cycles(i % 97), i);
        }
    }
    k.flush_mailbox();
    let mut acc = 0u64;
    while let Some((shard, t, p)) = k.pop_next() {
        acc = acc.wrapping_add(t.get() ^ p).wrapping_add(shard as u64);
    }
    acc
}

fn bench_shard_scaling(c: &mut Criterion) {
    for shards in [1usize, 2, 4, 8] {
        c.bench_function(&format!("shard_scaling kernel/{shards}"), |b| {
            b.iter(|| kernel_roundtrip(black_box(shards), black_box(20_000)))
        });
    }

    // The single-shard rows are the reference every other count must hit
    // bit-for-bit (the golden check covers the full-volume figure; this keeps
    // the same assertion on the benched configuration).
    let reference = fig7(24, 11, 8, 1);
    for shards in [1usize, 2, 4, 8] {
        c.bench_function(&format!("shard_scaling fig7/{shards}"), |b| {
            b.iter(|| {
                let rows = fig7(24, 11, 8, black_box(shards));
                assert_eq!(rows, reference, "shard count changed fig7 rows");
                rows
            })
        });
    }
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
