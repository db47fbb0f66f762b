//! The worker team: the one level of parallelism in this workspace.
//!
//! Every kernel (GEMM, im2col/col2im, the convolution scatters, the
//! optimizer sweeps) runs single-threaded on its calling thread. The work
//! is fanned out only at the coarsest independent unit: experiment cells,
//! defense audits and SISA shards. [`for_each`] spreads such a loop, one
//! item at a time, over a small number of OS threads using
//! `std::thread::scope`, so no dependency beyond `std` is needed and no
//! thread pool outlives the call. Each worker runs its items inside
//! [`serialized`], so a fan-out reached from inside another one (the
//! shards of a trio cell) runs inline instead of multiplying the thread
//! count.
//!
//! The worker count defaults to the machine parallelism capped at 4 and can
//! be overridden with the `REVEIL_THREADS` environment variable (clamped to
//! at least 1), so bench machines with more cores are not hard-capped.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock, PoisonError};

thread_local! {
    /// Set while [`serialized`] runs: [`worker_count`] reports 1 on this
    /// thread, so nested fan-outs run inline.
    static SERIALIZED: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads used by [`for_each`].
///
/// Returns 1 inside a [`serialized`] scope. Otherwise the resolution
/// order, cached after the first call, is:
///
/// 1. `REVEIL_THREADS` if set and parseable, clamped to `>= 1`;
/// 2. otherwise the machine parallelism capped at 4 (the default evaluation
///    container exposes few cores, and the work items are large enough that
///    more threads only add scheduling noise).
pub fn worker_count() -> usize {
    if SERIALIZED.with(Cell::get) {
        return 1;
    }
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| resolve_worker_count(std::env::var("REVEIL_THREADS").ok().as_deref()))
}

/// Runs `f` with parallelism disabled on the calling thread: every
/// [`for_each`] inside `f` runs its items inline instead of spawning a
/// team.
///
/// [`for_each`] wraps each of its workers in `serialized`, so a
/// fan-out nested inside another one (SISA shards inside a trio cell that
/// is itself one of a sweep's cells) never multiplies the thread count to
/// `workers²`. Results are unaffected: every fanned-out unit derives its
/// randomness from its own seed, and every kernel runs the same serial
/// loop on whichever thread calls it.
///
/// The flag is restored when `f` returns or panics (nesting is safe).
pub fn serialized<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIALIZED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SERIALIZED.with(|s| s.replace(true)));
    f()
}

/// Pure resolution logic behind [`worker_count`], split out so the
/// override parsing is testable despite the per-process cache.
fn resolve_worker_count(env_value: Option<&str>) -> usize {
    if let Some(raw) = env_value {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Runs `f(index, item)` once for every element of `data`, spread across
/// [`worker_count`] scoped threads when there is more than one element and
/// more than one worker, and inline otherwise.
///
/// Workers claim the elements in index order from one shared iterator,
/// whose lock is held only to take the next element, so uneven costs still
/// balance. Each spawned worker runs inside [`serialized`], so fan-outs
/// nested in `f` run inline on that worker. A panic in `f` reaches the
/// caller (on the parallel path, once the other workers run out of items).
///
/// # Example
///
/// ```
/// let mut v = vec![0usize; 10];
/// reveil_tensor::parallel::for_each(&mut v, |i, x| *x = i * i);
/// assert_eq!(v, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn for_each<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = worker_count().min(data.len());
    if workers <= 1 {
        data.iter_mut().enumerate().for_each(|(i, item)| f(i, item));
        return;
    }
    // The lock is held only for `next()`, never while `f` runs, so a panic
    // in `f` cannot poison it.
    let items = Mutex::new(data.iter_mut().enumerate());
    let next = || items.lock().unwrap_or_else(PoisonError::into_inner).next();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                serialized(|| {
                    while let Some((i, item)) = next() {
                        f(i, item);
                    }
                })
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn worker_count_default_is_bounded() {
        let n = resolve_worker_count(None);
        assert!((1..=4).contains(&n));
    }

    #[test]
    fn reveil_threads_override_is_honored_and_clamped() {
        assert_eq!(resolve_worker_count(Some("8")), 8);
        assert_eq!(resolve_worker_count(Some(" 16 ")), 16);
        // Zero clamps to one; garbage falls back to the default.
        assert_eq!(resolve_worker_count(Some("0")), 1);
        assert_eq!(
            resolve_worker_count(Some("not-a-number")),
            resolve_worker_count(None)
        );
    }

    #[test]
    fn for_each_covers_every_element() {
        let mut v = vec![0u32; 1003];
        for_each(&mut v, |_, x| *x += 1);
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn for_each_gives_each_element_its_own_index() {
        let mut v = vec![0usize; 257];
        for_each(&mut v, |i, x| *x = i);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn for_each_handles_empty_and_single() {
        let mut empty: Vec<u8> = vec![];
        for_each(&mut empty, |_, _| panic!("must not be called"));
        let mut single = vec![7u8];
        for_each(&mut single, |i, x| {
            assert_eq!(i, 0);
            *x = 9;
        });
        assert_eq!(single, vec![9]);
    }

    #[test]
    fn a_panic_in_f_reaches_the_caller() {
        let mut v = vec![0u8; 16];
        let run = std::panic::AssertUnwindSafe(|| {
            for_each(&mut v, |i, x| {
                if i == 11 {
                    panic!("item 11 panics");
                }
                *x = 1;
            })
        });
        assert!(std::panic::catch_unwind(run).is_err());
    }

    #[test]
    fn nested_fan_outs_run_inline_on_their_worker() {
        let mut outer = vec![false; 8];
        for_each(&mut outer, |_, inline| {
            let me = std::thread::current().id();
            let mut inner = vec![None; 4];
            for_each(&mut inner, |_, id| *id = Some(std::thread::current().id()));
            *inline = inner.iter().all(|&id| id == Some(me));
        });
        assert!(outer.iter().all(|&inline| inline));
    }

    #[test]
    fn serialized_pins_worker_count_to_one_and_restores() {
        let outer = worker_count();
        let inner = serialized(|| {
            // Nested scopes stay serialized and unwind correctly.
            assert_eq!(serialized(worker_count), 1);
            worker_count()
        });
        assert_eq!(inner, 1);
        assert_eq!(worker_count(), outer, "flag must be restored on exit");

        // The flag is restored even when the closure panics.
        let result = std::panic::catch_unwind(|| serialized(|| panic!("boom")));
        assert!(result.is_err());
        assert_eq!(worker_count(), outer, "flag must be restored on panic");
    }

    #[test]
    fn serialized_is_per_thread() {
        let global = worker_count();
        serialized(|| {
            assert_eq!(worker_count(), 1);
            // A fresh thread is unaffected by the caller's scope.
            let spawned = std::thread::spawn(worker_count).join().expect("spawn");
            assert_eq!(spawned, global);
        });
    }
}
