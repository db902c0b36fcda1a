//! Shard-count scaling of the sharded simulation kernel's real consumer:
//! the Fig. 7 coherence sweep (reduced volume) at 1/2/4/8 event-queue
//! shards.
//!
//! The contract being exercised is the determinism one: every shard count
//! must produce identical rows, so each iteration is also asserted against
//! the single-shard reference. Shard counts here change *batching*
//! (per-shard queues are smaller and windows fire in bursts), not results;
//! wall-clock parity across counts is the expected healthy shape on one
//! host CPU.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use interweave_coherence::experiment::fig7;

fn bench_shard_scaling(c: &mut Criterion) {
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
