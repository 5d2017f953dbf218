//! Host-parallel execution substrate.
//!
//! The simulator's workloads are embarrassingly parallel at several
//! granularities — frozen-phase rounds inside [`FastEngine`](crate::FastEngine)
//! (each round owns one output column), [`DesignSweep`](crate::DesignSweep)
//! grid points, and whole design×dataset grids in the bench harness. This
//! module provides the one primitive they all share: a deterministic-order
//! `par_map` built on [`std::thread::scope`], with no dependency outside
//! `std` (the build environment has no cargo-registry route).
//!
//! # Determinism contract
//!
//! `par_map(items, f)[i] == f(&items[i])` for every `i`, independent of the
//! thread count: only the *assignment of items to worker threads* varies,
//! never the result order, and `f` receives each item exactly once. Callers
//! that keep `f` a pure function of its item (as every caller in this
//! workspace does) therefore get bit-identical results whether
//! `AWB_THREADS=1` or 64. Worker panics propagate to the caller — except
//! through [`par_map_isolated`], which catches them per item so a fault in
//! one request cannot take down the rest of a serving batch.
//!
//! # Thread-count policy
//!
//! [`num_threads`] honours the `AWB_THREADS` environment variable when it
//! parses as a positive integer, and falls back to
//! [`std::thread::available_parallelism`] otherwise. Work is pulled from a
//! shared atomic cursor, so uneven item costs (e.g. Reddit vs Cora grid
//! points) self-balance without any up-front partitioning. Nested calls —
//! a `par_map` reached from inside a worker — run inline on that worker,
//! so composing parallel layers (bench grid → sweep → engine) never
//! oversubscribes the machine.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "AWB_THREADS";

thread_local! {
    /// True on a `par_map` worker thread. Nested `par_map` calls (e.g. a
    /// `FastEngine` frozen phase inside a `DesignSweep` grid point) run
    /// inline instead of spawning another full complement of workers —
    /// otherwise an outer N-way fan-out would oversubscribe the machine
    /// with up to N×N CPU-bound threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parses an `AWB_THREADS`-style value: positive integers pass through,
/// anything else (absent, empty, zero, garbage) yields `None`.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The worker-thread count to use: `AWB_THREADS` when set to a positive
/// integer, else the machine's available parallelism (at least 1). On a
/// `par_map` worker thread this is always 1 (see `IN_WORKER`).
pub fn num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The workers a [`par_map_threads`] call with `threads` uses on this
/// thread at most: `threads` (at least 1), or 1 on a `par_map` worker
/// thread, where nested calls run inline.
pub(crate) fn workers(threads: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        threads.max(1)
    }
}

/// Maps `f` over `items` on [`num_threads`] workers, returning results in
/// item order (see the module-level determinism contract).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (used by tests and by
/// callers that honour [`AccelConfig::threads`](crate::AccelConfig::threads)).
///
/// `threads <= 1` (or a single-item input) runs inline on the calling
/// thread — the guaranteed-sequential reference path.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = workers(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    // Each worker claims items from the shared cursor and tags results with
    // their item index; reassembly below restores item order exactly.
    let shards: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for shard in shards {
        for (i, r) in shard {
            debug_assert!(out[i].is_none(), "item {i} computed twice");
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("cursor hands every index to exactly one worker"))
        .collect()
}

/// [`par_map_threads`], but with each item's computation *isolated*: a
/// panic inside `f` is caught at the item boundary and surfaces as that
/// item's `Err(message)` while every other item still completes and the
/// calling thread never unwinds. This is the request-isolation primitive
/// for the serving front-end — one poisoned request must not take down a
/// batch of healthy tenants.
///
/// The determinism contract is unchanged: `out[i]` is `f(&items[i])`
/// (or its caught panic) independent of the thread count, and both the
/// inline (`threads <= 1`) and threaded paths catch panics identically.
///
/// `AssertUnwindSafe` rationale: `f` is only observed *through shared
/// references*, and every caller in this workspace either keeps `f` pure
/// per item or guards interior mutability with poison-recovering locks
/// (see `ReplayCache`), so state witnessed after a caught panic is always
/// a consistent prefix of completed work.
pub fn par_map_isolated<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let f = &f;
    par_map_threads(threads, items, move |item| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
            .map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// Stringifies a caught panic payload (the two forms `panic!` produces,
/// with a fallback for exotic `panic_any` payloads).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map_threads(threads, &items, |&x| x * 3);
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        // f32 work: identical results regardless of worker count, because
        // each item's computation is self-contained.
        let items: Vec<f32> = (0..100).map(|i| i as f32 * 0.37).collect();
        let f = |x: &f32| (0..50).fold(*x, |acc, i| acc + (i as f32).sqrt() * acc.sin());
        let seq = par_map_threads(1, &items, f);
        let par = par_map_threads(8, &items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_threads(4, &[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 16 ")), Some(16));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn uneven_work_self_balances() {
        // Costs differ by 1000x across items; result order must not.
        let items: Vec<usize> = (0..32).collect();
        let out = par_map_threads(4, &items, |&i| {
            let spins = if i % 7 == 0 { 100_000 } else { 100 };
            (0..spins).fold(i as u64, |a, b| a.wrapping_add(b))
        });
        let seq: Vec<u64> = items
            .iter()
            .map(|&i| {
                let spins = if i % 7 == 0 { 100_000 } else { 100 };
                (0..spins).fold(i as u64, |a, b| a.wrapping_add(b))
            })
            .collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn nested_par_map_runs_inline() {
        // Inside a worker, num_threads() collapses to 1 and the inner
        // par_map spawns nothing — but results are still correct.
        let outer: Vec<u32> = (0..8).collect();
        let out = par_map_threads(4, &outer, |&x| {
            assert_eq!(num_threads(), 1, "worker must report a 1-thread budget");
            let inner: Vec<u32> = (0..5).collect();
            par_map_threads(4, &inner, move |&y| x * 10 + y)
        });
        assert_eq!(out[3], vec![30, 31, 32, 33, 34]);
        assert_eq!(out.len(), 8);
        // Back on the caller thread the budget is restored.
        assert!(num_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        par_map_threads(2, &items, |&x| {
            if x == 5 {
                panic!("deliberate");
            }
            x
        });
    }

    #[test]
    fn isolated_panics_become_item_errors() {
        let items: Vec<u32> = (0..16).collect();
        // Inline and threaded paths must behave identically.
        for threads in [1, 2, 4] {
            let out = par_map_isolated(threads, &items, |&x| {
                if x % 5 == 3 {
                    panic!("bad item {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    assert_eq!(
                        r.as_ref().map_err(String::as_str),
                        Err(format!("bad item {i}").as_str())
                    );
                } else {
                    assert_eq!(*r, Ok(i as u32 * 2));
                }
            }
        }
    }

    #[test]
    fn isolated_all_panic_still_returns() {
        let items: Vec<u32> = (0..4).collect();
        let out = par_map_isolated(3, &items, |_| -> u32 { panic!("every item") });
        assert!(out
            .iter()
            .all(|r| r.as_ref().map_err(String::as_str) == Err("every item")));
    }

    #[test]
    fn isolated_string_and_str_payloads_stringify() {
        let out = par_map_isolated(1, &[0u8, 1], |&x| -> u8 {
            if x == 0 {
                panic!("static str")
            } else {
                panic!("{}", format!("formatted {x}"))
            }
        });
        assert_eq!(out[0].as_ref().map_err(String::as_str), Err("static str"));
        assert_eq!(out[1].as_ref().map_err(String::as_str), Err("formatted 1"));
    }
}
