//! Property tests for virtine telemetry spans: restart attempts nest
//! inside their recovery episode (well-bracketed, never partially
//! overlapping), and registry counters track pool statistics exactly,
//! for arbitrary kill probabilities and request mixes.

use interweave_core::telemetry::{well_bracketed, Layer, Sink, SpanKind};
use interweave_core::{FaultConfig, FaultPlan};
use interweave_virtines::context::VirtineOutcome;
use interweave_virtines::extract::extract_one;
use interweave_virtines::wasp::Wasp;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any kill pressure, the span stream is well-bracketed: each
    /// recovery episode is one `FaultRecovery` span that strictly contains
    /// its `VirtineCall` attempt spans, and plain calls stand alone.
    #[test]
    fn nested_spans_are_well_bracketed(
        fib_n in 8i64..13,
        reqs in 1usize..8,
        kill_sel in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let kill = [0.0, 0.3, 0.6, 0.9][kill_sel];
        let prog = interweave_ir::programs::fib(fib_n);
        let image = extract_one(&prog.module, prog.entry);

        // Budget tight enough that an injected kill usually lands mid-run.
        let mut probe = interweave_virtines::context::Virtine::new(image.clone());
        probe.invoke(&prog.args, u64::MAX / 4);
        let budget = probe.guest_cycles + probe.guest_cycles / 4;

        let mut faults = FaultPlan::new(FaultConfig {
            virtine_kill: kill,
            ..FaultConfig::quiet(seed)
        });
        let mc = interweave_core::machine::MachineConfig::test(2);
        let mut w = Wasp::new(image, mc);
        let sink = Sink::on();
        w.set_telemetry(sink.clone());
        let mut restarts = 0u64;
        for _ in 0..reqs {
            let (outcome, _, r) = w.invoke_recovering(&prog.args, budget, &mut faults, 64);
            prop_assert!(matches!(outcome, VirtineOutcome::Returned(_)));
            restarts += r as u64;
        }

        let spans = sink.spans();
        prop_assert!(spans.iter().all(|s| s.layer == Layer::Virtine));
        if let Some((a, b)) = well_bracketed(&spans) {
            prop_assert!(false, "partial overlap: {:?} vs {:?}", a, b);
        }
        // One call span per invocation; one recovery span per episode that
        // actually restarted; each recovery encloses at least two attempts.
        let calls = spans.iter().filter(|s| s.kind == SpanKind::VirtineCall).count() as u64;
        let recoveries: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::FaultRecovery)
            .collect();
        prop_assert_eq!(calls, w.stats.invocations);
        prop_assert_eq!(calls, reqs as u64 + restarts);
        for rec in &recoveries {
            let inside = spans
                .iter()
                .filter(|s| {
                    s.kind == SpanKind::VirtineCall && rec.start <= s.start && s.end <= rec.end
                })
                .count();
            prop_assert!(inside >= 2, "a recovery episode holds retries, got {}", inside);
        }

        // Registry counters mirror the pool statistics exactly.
        prop_assert_eq!(sink.counter("virtines.invocations"), w.stats.invocations);
        prop_assert_eq!(sink.counter("virtines.restarts"), w.stats.restarts);
        prop_assert_eq!(sink.counter("virtines.restarts"), restarts);
        prop_assert_eq!(sink.counter("virtines.faults_detected"), w.stats.faults_detected);
        prop_assert_eq!(
            sink.counter("virtines.cold_starts") + sink.counter("virtines.reuses"),
            w.stats.invocations
        );
    }
}
