//! A minimal work pool: the waves every search trains ahead in
//! ([`probe_then_map`]) pay their cache misses across it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every index in `0..n` across up to `workers` scoped
/// threads and returns the results in index order. Serial when `workers`
/// or `n` is 1. A panicking worker propagates its panic to the caller.
fn parallel_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// Resolves every index in `0..n`, in index order, as `(value, probed)`:
/// `probe` runs on the calling thread, in index order, and only the indices
/// it answers `None` for are paid for with `pay` across the pool. A probe is
/// a cache read of a few hundred nanoseconds; opening a thread scope to run
/// two of them costs a hundred times the reads.
pub fn probe_then_map<T, P, F>(n: usize, workers: usize, probe: P, pay: F) -> Vec<(T, bool)>
where
    T: Send,
    P: FnMut(usize) -> Option<T>,
    F: Fn(usize) -> T + Sync,
{
    let probed: Vec<Option<T>> = (0..n).map(probe).collect();
    let misses: Vec<usize> = (0..n).filter(|&i| probed[i].is_none()).collect();
    let mut paid = parallel_map(misses.len(), workers, |k| pay(misses[k])).into_iter();
    probed
        .into_iter()
        .map(|hit| match hit {
            Some(value) => (value, true),
            None => (paid.next().expect("one payment per miss"), false),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = parallel_map(17, workers, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_input() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn probes_on_the_caller_and_pays_only_for_misses() {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        for workers in [1, 2, 8] {
            let paid = Mutex::new(Vec::new());
            let out = probe_then_map(
                9,
                workers,
                |i| {
                    assert_eq!(std::thread::current().id(), caller);
                    (i % 3 == 0).then_some(i * 10)
                },
                |i| {
                    paid.lock().unwrap().push(i);
                    i * 100
                },
            );
            let expected: Vec<(usize, bool)> = (0..9)
                .map(|i| {
                    if i % 3 == 0 {
                        (i * 10, true)
                    } else {
                        (i * 100, false)
                    }
                })
                .collect();
            assert_eq!(out, expected);
            let mut paid = paid.into_inner().unwrap();
            paid.sort_unstable();
            assert_eq!(paid, vec![1, 2, 4, 5, 7, 8]);
        }
        // All hits: nothing is handed to the pool.
        let out = probe_then_map(4, 8, Some, |_| unreachable!("every probe hit"));
        assert_eq!(out, vec![(0, true), (1, true), (2, true), (3, true)]);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panic_propagates() {
        parallel_map(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
