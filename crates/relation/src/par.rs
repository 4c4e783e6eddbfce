//! Minimal scoped-thread parallel map.
//!
//! The discovery engine fans work out over lattice nodes and attribute
//! pairs. External thread-pool crates are unavailable offline, so this
//! module provides the one primitive the engine needs: an
//! order-preserving parallel map over owned items built on
//! `std::thread::scope`. Work is distributed dynamically (an atomic
//! next-item counter), so uneven item costs — small vs large partitions
//! — balance across workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested thread count: `0` means "use the machine's
/// available parallelism", anything else is taken literally.
pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// preserving input order in the output.
///
/// `threads` of `0` means the machine's available parallelism; with one effective
/// thread (or zero/one items) the map runs inline with no thread or lock
/// overhead, so sequential callers pay nothing. `f` must be `Sync`
/// because workers share it; items are handed to exactly one worker
/// each. Panics in `f` propagate (the scope joins all workers first).
pub fn par_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = effective_threads(threads).min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let n = items.len();
    // Hand out items by index; slots hold inputs going in and outputs
    // coming back, so ordering is positional and lock-free reads are
    // never needed.
    let inputs: Vec<Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| Mutex::new(Some(item)))
        .collect();
    let outputs: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .expect("par_map input lock poisoned") // lint: allow(no-panic) reason="a poisoned lock means a worker already panicked; thread::scope re-raises that panic anyway"
                    .take()
                    .expect("item taken twice"); // lint: allow(no-panic) reason="the atomic fetch_add hands each index to exactly one worker"
                let result = f(item);
                // lint: allow(no-panic) reason="a poisoned lock means a worker already panicked; thread::scope re-raises that panic anyway"
                *outputs[i].lock().expect("par_map output lock poisoned") = Some(result);
            });
        }
    });

    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("par_map output lock poisoned") // lint: allow(no-panic) reason="a poisoned lock means a worker already panicked; thread::scope re-raises that panic anyway"
                .expect("worker skipped an item") // lint: allow(no-panic) reason="thread::scope joined every worker, and the index loop covers 0..n, so every slot is filled"
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = par_map(items.clone(), 4, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<i64> = (0..100).collect();
        let expected: Vec<i64> = items.iter().map(|x| x * x - 1).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            assert_eq!(
                par_map(items.clone(), threads, |x| x * x - 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![9], 4, |x| x + 1), vec![10]);
    }

    #[test]
    fn effective_threads_resolution() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = (0..40).collect();
        let out = par_map(items, 4, |x| {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            (0..spins).fold(x, |acc, _| std::hint::black_box(acc | x))
        });
        assert_eq!(out.len(), 40);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }
}
