//! The worker pool: fan work out to threads, reduce results in order.
//!
//! Work is **streamed**: [`run_indexed`] and friends accept any
//! `IntoIterator`, and a feeder thread trickles items into a bounded
//! channel, so a million-item campaign never materializes more than
//! `O(workers)` items. Workers send `(index, result)` pairs back over a
//! bounded results channel (a slow reducer exerts backpressure instead
//! of buffering unboundedly); the caller's thread folds results in
//! index order, buffering only the out-of-order window. The fold
//! therefore observes exactly the same sequence for 1 worker or 64 —
//! the foundation of the campaign-level determinism guarantee.
//!
//! Two execution shapes:
//!
//! * **Serial reduce** ([`run_indexed`], [`run_indexed_outcomes`],
//!   [`run_indexed_with`]) — one result crosses a channel per item and
//!   a single reducer folds in item order.
//! * **Hierarchical reduce** ([`run_partials`]) — each worker folds its
//!   own items into a worker-local partial accumulator; only one
//!   partial per worker crosses a thread boundary, and the caller
//!   merges them. For accumulators whose merge is associative and
//!   commutative (the population/exposure reports), the merged result
//!   is identical to the serial in-order fold.
//!
//! Both shapes support **per-worker scratch**: state constructed once
//! per worker and reused across every item that worker runs, so
//! allocation-heavy runners amortize their buffers over the campaign. A
//! panicking item discards its worker's scratch (a fresh one is built
//! for the next item) — a poisoned item can never leak a half-mutated
//! scratch into a later home.
//!
//! Every item runs under [`std::panic::catch_unwind`], so one poisoned
//! item cannot tear down its worker thread (which would strand every
//! item still queued behind it). [`run_indexed`] drains the full
//! campaign first and only then re-raises the first panic; the other
//! variants hand the caller the fold result *plus* the list of panicked
//! items, for harnesses that tolerate partial failure.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A work item that panicked instead of producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Enumeration index of the item that panicked.
    pub index: u64,
    /// Rendered panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `runner` over `items` on `workers` threads and fold the results
/// into `init` **in item order** (the enumeration index of `items`).
///
/// With `workers <= 1` everything runs inline on the caller's thread —
/// the reference path the parallel path must match byte-for-byte.
///
/// A panicking item kills neither its worker nor the campaign: every
/// other item still runs and folds, and the first panic (by item index)
/// is re-raised only after the reduce loop drains. Use
/// [`run_indexed_outcomes`] to receive failures as data instead.
///
/// Memory: the feeder queues at most `2 × workers` items, the results
/// channel holds at most `4 × workers` finished results, and the
/// out-of-order buffer holds at most the spread between the slowest and
/// fastest in-flight item — all `O(workers)`, independent of the length
/// of `items`, which may be a lazy iterator over millions.
pub fn run_indexed<I, W, R, T, F, G>(items: I, workers: usize, runner: F, init: T, fold: G) -> T
where
    I: IntoIterator<Item = W>,
    I::IntoIter: Send,
    W: Send,
    R: Send,
    F: Fn(W) -> R + Sync,
    G: FnMut(&mut T, u64, R),
{
    let (acc, failures) =
        run_indexed_with(items, workers, || (), move |_, w| runner(w), init, fold);
    if let Some(first) = failures.into_iter().next() {
        panic!("item {} panicked: {}", first.index, first.message);
    }
    acc
}

/// [`run_indexed`], but panicking items are returned as data: the fold
/// runs over every surviving item (still in item order) and the second
/// tuple element lists every [`ItemPanic`] in index order.
pub fn run_indexed_outcomes<I, W, R, T, F, G>(
    items: I,
    workers: usize,
    runner: F,
    init: T,
    fold: G,
) -> (T, Vec<ItemPanic>)
where
    I: IntoIterator<Item = W>,
    I::IntoIter: Send,
    W: Send,
    R: Send,
    F: Fn(W) -> R + Sync,
    G: FnMut(&mut T, u64, R),
{
    run_indexed_with(items, workers, || (), move |_, w| runner(w), init, fold)
}

/// [`run_indexed_outcomes`] with per-worker scratch: `scratch` runs
/// once per worker thread (and once inline when `workers <= 1`), and
/// every item that worker executes receives `&mut S` — buffers,
/// caches, and pools survive from one item to the next instead of
/// being rebuilt per item. Scratch must never influence *results*
/// (it is reused in a worker-dependent, schedule-dependent order);
/// determinism-critical state belongs in the item or the fold.
pub fn run_indexed_with<I, W, S, R, T, FS, F, G>(
    items: I,
    workers: usize,
    scratch: FS,
    runner: F,
    init: T,
    mut fold: G,
) -> (T, Vec<ItemPanic>)
where
    I: IntoIterator<Item = W>,
    I::IntoIter: Send,
    W: Send,
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, W) -> R + Sync,
    G: FnMut(&mut T, u64, R),
{
    let mut acc = init;
    let mut failures = Vec::new();
    let mut take = |acc: &mut T, index: u64, outcome: Result<R, String>| match outcome {
        Ok(result) => fold(acc, index, result),
        Err(message) => failures.push(ItemPanic { index, message }),
    };

    if workers <= 1 {
        let mut local = scratch();
        for (index, item) in items.into_iter().enumerate() {
            let outcome = run_one(&runner, &mut local, item);
            if outcome.is_err() {
                // Never reuse scratch a panic may have half-mutated.
                local = scratch();
            }
            take(&mut acc, index as u64, outcome);
        }
        return (acc, failures);
    }

    let (work_tx, work_rx) = crossbeam::channel::bounded::<(u64, W)>(workers * 2);
    // Bounded: a reducer that falls behind stalls the workers instead
    // of letting finished results pile up without limit.
    let (result_tx, result_rx) =
        crossbeam::channel::bounded::<(u64, Result<R, String>)>(workers * 4);
    let runner = &runner;
    let scratch = &scratch;

    std::thread::scope(|s| {
        // Feeder: trickle items into the bounded queue so the pool never
        // materializes more than O(workers) pending items.
        let items = items.into_iter();
        s.spawn(move || {
            for (index, item) in items.enumerate() {
                if work_tx.send((index as u64, item)).is_err() {
                    break;
                }
            }
        });

        for _ in 0..workers {
            let work_rx = work_rx.clone();
            let result_tx = result_tx.clone();
            s.spawn(move || {
                let mut local = scratch();
                for (index, item) in &work_rx {
                    let outcome = run_one(runner, &mut local, item);
                    if outcome.is_err() {
                        local = scratch();
                    }
                    if result_tx.send((index, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        // The scope's own handles would keep the results channel open.
        drop(work_rx);
        drop(result_tx);

        // In-order reduce: buffer early arrivals, fold as soon as the
        // next expected index shows up.
        let mut pending: BTreeMap<u64, Result<R, String>> = BTreeMap::new();
        let mut next = 0u64;
        for (index, outcome) in &result_rx {
            pending.insert(index, outcome);
            while let Some(outcome) = pending.remove(&next) {
                take(&mut acc, next, outcome);
                next += 1;
            }
        }
        assert!(pending.is_empty(), "worker died mid-campaign");
    });
    (acc, failures)
}

/// Hierarchical reduce: each worker folds the items it ran into its own
/// partial accumulator (built by `partial`), and the pool returns every
/// non-empty worker partial plus the panicked items (sorted by index).
/// No per-item result ever crosses a thread boundary — for a
/// million-home campaign the cross-thread traffic is one partial per
/// worker, and there is no serial reducer to bottleneck on.
///
/// The caller merges the partials. **Determinism contract:** workers
/// claim items in a schedule-dependent order, so each partial covers an
/// unpredictable item subset; the merged result equals the serial
/// in-order fold *iff* the accumulator's merge is associative and
/// commutative over disjoint item sets (true of the integer-counter
/// population/exposure reports, whose tests pin exactly this).
///
/// Scratch follows the same rules as [`run_indexed_with`]: one `S` per
/// worker, reused across items, discarded after a panic.
pub fn run_partials<I, W, S, R, T, FS, F, FT, G>(
    items: I,
    workers: usize,
    scratch: FS,
    runner: F,
    partial: FT,
    fold: G,
) -> (Vec<T>, Vec<ItemPanic>)
where
    I: IntoIterator<Item = W>,
    I::IntoIter: Send,
    W: Send,
    R: Send,
    T: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, W) -> R + Sync,
    FT: Fn() -> T + Sync,
    G: Fn(&mut T, u64, R) + Sync,
{
    if workers <= 1 {
        let mut local = scratch();
        let mut acc = partial();
        let mut failures = Vec::new();
        for (index, item) in items.into_iter().enumerate() {
            match run_one(&runner, &mut local, item) {
                Ok(result) => fold(&mut acc, index as u64, result),
                Err(message) => {
                    local = scratch();
                    failures.push(ItemPanic {
                        index: index as u64,
                        message,
                    });
                }
            }
        }
        return (vec![acc], failures);
    }

    let (work_tx, work_rx) = crossbeam::channel::bounded::<(u64, W)>(workers * 2);
    let runner = &runner;
    let scratch = &scratch;
    let partial = &partial;
    let fold = &fold;

    let (partials, mut failures) = std::thread::scope(|s| {
        let items = items.into_iter();
        s.spawn(move || {
            for (index, item) in items.enumerate() {
                if work_tx.send((index as u64, item)).is_err() {
                    break;
                }
            }
        });

        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let work_rx = work_rx.clone();
                s.spawn(move || {
                    let mut local = scratch();
                    let mut acc = partial();
                    let mut failures = Vec::new();
                    let mut ran_any = false;
                    for (index, item) in &work_rx {
                        match run_one(runner, &mut local, item) {
                            Ok(result) => {
                                ran_any = true;
                                fold(&mut acc, index, result);
                            }
                            Err(message) => {
                                local = scratch();
                                failures.push(ItemPanic { index, message });
                            }
                        }
                    }
                    (ran_any.then_some(acc), failures)
                })
            })
            .collect();
        drop(work_rx);

        let mut partials = Vec::with_capacity(workers);
        let mut failures = Vec::new();
        // Joining in spawn order keeps the partial list deterministic
        // per worker slot (the *contents* still depend on scheduling —
        // hence the merge contract above).
        for h in handles {
            let (acc, fails) = h.join().expect("pool worker never panics itself");
            partials.extend(acc);
            failures.extend(fails);
        }
        (partials, failures)
    });
    failures.sort_by_key(|f| f.index);
    (partials, failures)
}

fn run_one<S, W, R>(
    runner: &(impl Fn(&mut S, W) -> R + Sync),
    scratch: &mut S,
    item: W,
) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| runner(scratch, item))).map_err(panic_message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: u64, workers: usize) -> Vec<(u64, u64)> {
        run_indexed(
            (0..n).collect::<Vec<u64>>(),
            workers,
            |x| x * x,
            Vec::new(),
            |acc, index, r| acc.push((index, r)),
        )
    }

    #[test]
    fn fold_order_matches_item_order() {
        let reference = squares(200, 1);
        for workers in [2, 4, 8] {
            assert_eq!(squares(200, workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn lazy_iterator_feeds_the_pool() {
        // The items are never collected: a lazy range streams straight
        // through the feeder.
        let out = run_indexed(
            (0..500u64).map(|x| x + 1),
            4,
            |x| x * 2,
            0u64,
            |acc, _, r| *acc += r,
        );
        assert_eq!(out, (1..=500u64).map(|x| x * 2).sum());
    }

    #[test]
    fn uneven_work_still_reduces_in_order() {
        // Early items sleep longest so later indices finish first.
        let indices: Vec<u64> = (0..24).collect();
        let out = run_indexed(
            indices,
            6,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis(24 - i));
                i
            },
            Vec::new(),
            |acc, index, r| {
                assert_eq!(index, r);
                acc.push(index);
            },
        );
        assert_eq!(out, (0..24).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input_returns_init() {
        let out = run_indexed(Vec::<u64>::new(), 4, |x| x, 41u64, |acc, _, r| *acc += r);
        assert_eq!(out, 41);
    }

    #[test]
    fn single_item_many_workers() {
        let out = run_indexed(vec![5u64], 8, |x| x + 1, 0u64, |acc, _, r| *acc = r);
        assert_eq!(out, 6);
    }

    #[test]
    fn slow_reducer_is_backpressured_not_buffered() {
        // 200 instant items against a reducer that sleeps: the bounded
        // results channel caps how far the workers can run ahead. The
        // run must still complete and fold in order (backpressure, not
        // deadlock).
        let out = run_indexed(
            (0..200u64).collect::<Vec<u64>>(),
            4,
            |i| i,
            Vec::new(),
            |acc, index, r| {
                if index % 50 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                assert_eq!(index, r);
                acc.push(r);
            },
        );
        assert_eq!(out, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn scratch_is_reused_across_items_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = AtomicUsize::new(0);
        let (counts, failures) = run_indexed_with(
            (0..64u64).collect::<Vec<u64>>(),
            4,
            || {
                built.fetch_add(1, Ordering::SeqCst);
                Vec::<u64>::with_capacity(16)
            },
            |buf, i| {
                // The buffer persists across items: capacity is never
                // re-allocated, contents are cleared per use.
                buf.clear();
                buf.extend(0..=i % 4);
                buf.iter().sum::<u64>()
            },
            Vec::new(),
            |acc: &mut Vec<u64>, _, r| acc.push(r),
        );
        assert!(failures.is_empty());
        assert_eq!(counts.len(), 64);
        // One scratch per worker, not one per item.
        assert!(
            built.load(Ordering::SeqCst) <= 4,
            "scratch was rebuilt per item"
        );
    }

    #[test]
    fn panicking_item_discards_scratch() {
        // After a panic the worker must get a fresh scratch, so the
        // poisoned item's half-written state can't leak into later ones.
        let ((), failures) = run_indexed_with(
            (0..10u64).collect::<Vec<u64>>(),
            1,
            Vec::<u64>::new,
            |buf, i| {
                buf.push(i);
                if i == 3 {
                    panic!("poisoned mid-scratch");
                }
                assert!(
                    !buf.contains(&3),
                    "scratch leaked across a panicked item: {buf:?}"
                );
            },
            (),
            |_, _, _| {},
        );
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 3);
    }

    #[test]
    fn partials_union_matches_serial_fold() {
        // The hierarchical path must cover exactly the same items as
        // the serial fold — commutative merge (here: a sorted set)
        // equal across 1/2/8 workers.
        let reference: Vec<u64> = (0..300u64).map(|i| i * 7).collect();
        for workers in [1usize, 2, 8] {
            let (partials, failures) = run_partials(
                0..300u64,
                workers,
                || (),
                |_, i| i * 7,
                Vec::new,
                |acc: &mut Vec<u64>, _, r| acc.push(r),
            );
            assert!(failures.is_empty());
            assert!(partials.len() <= workers.max(1));
            let mut merged: Vec<u64> = partials.into_iter().flatten().collect();
            merged.sort_unstable();
            assert_eq!(merged, reference, "workers = {workers}");
        }
    }

    #[test]
    fn partials_report_failures_in_index_order() {
        let (partials, failures) = run_partials(
            (0..40u64).collect::<Vec<u64>>(),
            4,
            || (),
            |_, i| {
                assert!(!i.is_multiple_of(13), "boom {i}");
                i
            },
            || 0u64,
            |acc, _, r| *acc += r,
        );
        let total: u64 = partials.iter().sum();
        let expected: u64 = (0..40u64).filter(|i| !i.is_multiple_of(13)).sum();
        assert_eq!(total, expected);
        let indices: Vec<u64> = failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![0, 13, 26, 39], "failures in index order");
        assert!(failures[1].message.contains("boom 13"));
    }

    #[test]
    fn panicking_item_drains_campaign_then_propagates() {
        // Regression: a panic inside one item used to kill its worker
        // thread, strand the queue, and abort the scope mid-campaign.
        // Now every other item completes and folds before the panic
        // re-raises on the caller's thread.
        use std::sync::Mutex;
        let folded = Mutex::new(Vec::new());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(
                (0..40u64).collect::<Vec<u64>>(),
                4,
                |i| {
                    if i == 3 {
                        panic!("poisoned home {i}");
                    }
                    i
                },
                (),
                |_, index, r| folded.lock().unwrap().push((index, r)),
            )
        }));
        let message = panic_message(caught.expect_err("the panic must propagate"));
        assert!(
            message.contains("item 3 panicked: poisoned home 3"),
            "got: {message}"
        );
        let folded = folded.into_inner().unwrap();
        let expected: Vec<(u64, u64)> = (0..40u64).filter(|i| *i != 3).map(|i| (i, i)).collect();
        assert_eq!(folded, expected, "all 39 survivors folded, in order");
    }

    #[test]
    fn outcomes_reports_failures_and_folds_survivors() {
        let (acc, failures) = run_indexed_outcomes(
            (0..20u64).collect::<Vec<u64>>(),
            3,
            |i| {
                assert!(!i.is_multiple_of(7), "boom {i}");
                i
            },
            Vec::new(),
            |acc: &mut Vec<u64>, _, r| acc.push(r),
        );
        let expected: Vec<u64> = (0..20u64).filter(|i| !i.is_multiple_of(7)).collect();
        assert_eq!(acc, expected);
        let indices: Vec<u64> = failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![0, 7, 14], "failures listed in index order");
        assert!(failures[1].message.contains("boom 7"), "payload preserved");
    }

    #[test]
    fn outcomes_are_identical_across_worker_counts() {
        let run = |workers| {
            run_indexed_outcomes(
                (0..50u64).collect::<Vec<u64>>(),
                workers,
                |i| {
                    assert!(i != 11 && i != 31, "chaos {i}");
                    i * 3
                },
                Vec::new(),
                |acc: &mut Vec<u64>, _, r| acc.push(r),
            )
        };
        let reference = run(1);
        for workers in [2, 8] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }
}
