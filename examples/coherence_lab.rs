//! Coherence lab (§V-B): drive the protocol simulator by hand and watch
//! selective deactivation change the traffic.
//!
//! Walks through the three region classes with a producer/consumer pair,
//! printing the protocol events (forwards, invalidations, directory
//! lookups) and energy each policy generates — then the fence-selectivity
//! companion.
//!
//! Run with: `cargo run --example coherence_lab`

use interweave::coherence::ordering::{run_ordering, FencePolicy, OrderingConfig};
use interweave::coherence::protocol::{Class, CohMode, System, SystemConfig};

fn scenario(mode: CohMode) {
    let mut sys = System::new(SystemConfig::test(4, mode));
    // Region plan: producer-private scratch, a read-only table, one shared
    // mailbox line.
    sys.classify(0..64, Class::Private(0)); // core 0's scratch
    sys.classify(100..164, Class::ReadOnly); // lookup table
                                             // line 200: shared mailbox (default class).

    // Build the read-only table (before freezing it would be classified —
    // in Full mode classification is ignored anyway).
    let mut cycles = 0u64;

    // Phase 1: core 0 computes in its scratch (hot loop).
    for rep in 0..4 {
        for l in 0..64 {
            cycles += sys.write(0, l);
            cycles += sys.read(0, l);
        }
        let _ = rep;
    }
    // Phase 2: everyone reads the table.
    for core in 0..4 {
        for l in 100..164 {
            cycles += sys.read(core, l);
        }
    }
    // Phase 3: producer/consumer through the mailbox.
    for round in 0..32 {
        cycles += sys.write(0, 200);
        cycles += sys.read(1, 200);
        let _ = round;
    }
    sys.check_swmr();

    println!(
        "{:>9}: {:>7} cycles | dir lookups {:>5} | forwards {:>3} | invalidations {:>3} | NoC {:>8.0} pJ",
        match mode {
            CohMode::Full => "full MESI",
            CohMode::Selective => "selective",
        },
        cycles,
        sys.stats.dir_lookups,
        sys.stats.forwards,
        sys.stats.invalidations,
        sys.noc_energy(),
    );
}

fn main() {
    println!("producer/consumer scenario, 4 cores (scratch + table + mailbox):\n");
    scenario(CohMode::Full);
    scenario(CohMode::Selective);
    println!(
        "\nSelective deactivation removes the directory from private and read-only\n\
         traffic entirely; only the mailbox still runs the protocol (§V-B).\n"
    );

    // The ordering companion: what the fence no longer waits for.
    println!("release-fence stall per publication (4 related + N unrelated stores):");
    for unrelated in [0usize, 8, 24, 48] {
        let cfg = OrderingConfig {
            unrelated_writes: unrelated,
            ..OrderingConfig::default()
        };
        let tso = run_ordering(&cfg, FencePolicy::TsoTotal);
        let sel = run_ordering(&cfg, FencePolicy::SelectiveRelease);
        println!(
            "  {unrelated:>2} unrelated: TSO {:>6.1} cyc  selective {:>5.1} cyc",
            tso.mean_stall, sel.mean_stall
        );
    }
    println!(
        "\n\"A fence orders writes that produce data before setting the done flag,\n\
         but it also orders all other writes the thread issued\" — not anymore."
    );
}
