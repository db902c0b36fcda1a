//! The workspace's one host-parallelism primitive: a bounded,
//! input-ordered map over scoped worker threads.
//!
//! Every simulator run is deterministic and independent of its siblings,
//! so fanning runs out over host threads is the embarrassingly parallel
//! case: one pool sized to the machine, results put back in input order,
//! and nothing but wall-clock time depends on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's core count ([`std::thread::available_parallelism`], 1 when
/// it cannot be determined): the thread cap for a run that should fill
/// the machine.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Run `f` over `items` on at most `threads` scoped worker threads,
/// preserving input order in the output.
///
/// The pool is also capped at the item count, and workers pull items from
/// a shared index, so a 200-point sweep occupies `threads` cores instead
/// of spawning 200 threads. With a cap or an item count of 1 (or a cap of
/// 0) the map runs inline on the calling thread and spawns nothing.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items are taken by index; results land in their input slot, so the
    // output order is the input order regardless of completion order.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot")
                    .take()
                    .expect("each index is claimed once");
                let r = f(item);
                *results[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("worker filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        for threads in [1, 2, 4, 64] {
            let out = parallel_map((0..500u64).collect(), threads, |x| x * 3);
            assert_eq!(out, (0..500u64).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        for threads in [0, 1, 4] {
            let empty = parallel_map(Vec::<u64>::new(), threads, |x| x);
            assert_eq!(empty, Vec::<u64>::new());
            assert_eq!(parallel_map(vec![7u64], threads, |x| x + 1), vec![8]);
        }
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = parallel_map((0..8).collect(), 1, |_: u32| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }
}
