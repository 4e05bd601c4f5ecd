//! The worker pool: fan work out to threads, reduce results per worker.
//!
//! There is one executor, [`run_partials`]. Workers pull `(index, item)`
//! pairs straight from the caller's iterator, behind one mutex: there
//! is no feeder thread and no channel, so an item is taken from a lazy
//! iterator only when a worker is free to run it, and a million-item
//! campaign never holds more than `workers` items at once. Each worker
//! folds the items it ran into its own partial accumulator; only one
//! partial per worker crosses a thread boundary, and the caller merges
//! them. For accumulators whose merge is associative and commutative
//! (the population/exposure reports), the merged result is identical to
//! the serial in-order fold, whatever the schedule.
//!
//! [`run_indexed`] and [`run_indexed_outcomes`] are in-order folds over
//! the same executor: each worker's partial is its `(index, result)`
//! pairs, and the caller sorts them by index and folds them, so the fold
//! observes exactly the same sequence for 1 worker or 64. They hold
//! every result until the last item has run, so they suit the callers
//! that keep every result anyway (the six-config suite, the port-scan
//! shards, campaign bundles); a campaign that must stay memory-flat
//! folds into partials with [`run_partials`].
//!
//! Workers keep **per-worker scratch**: state constructed once per
//! worker and reused across every item that worker runs, so
//! allocation-heavy runners amortize their buffers over the campaign. A
//! panicking item discards its worker's scratch (a fresh one is built
//! for the next item) — a poisoned item can never leak a half-mutated
//! scratch into a later home.
//!
//! Every item runs under [`std::panic::catch_unwind`], so one poisoned
//! item cannot tear down its worker (which would strand every item
//! still queued behind it). [`run_indexed`] drains the full campaign
//! first and only then re-raises the first panic; the other entry
//! points hand the caller the result *plus* the list of panicked items,
//! for harnesses that tolerate partial failure.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

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
/// With `workers <= 1` everything runs on the caller's thread — the
/// reference path the parallel path must match byte-for-byte.
///
/// A panicking item kills neither its worker nor the campaign: every
/// other item still runs and folds, and the first panic (by item index)
/// is re-raised only after the fold. Use [`run_indexed_outcomes`] to
/// receive failures as data instead.
///
/// Memory: every result is held until the last item has run, then
/// folded in order; the items themselves are pulled lazily, at most
/// `workers` at a time.
pub fn run_indexed<I, W, R, T, F, G>(items: I, workers: usize, runner: F, init: T, fold: G) -> T
where
    I: IntoIterator<Item = W>,
    I::IntoIter: Send,
    W: Send,
    R: Send,
    F: Fn(W) -> R + Sync,
    G: FnMut(&mut T, u64, R),
{
    let (acc, failures) = run_indexed_outcomes(items, workers, runner, init, fold);
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
    mut fold: G,
) -> (T, Vec<ItemPanic>)
where
    I: IntoIterator<Item = W>,
    I::IntoIter: Send,
    W: Send,
    R: Send,
    F: Fn(W) -> R + Sync,
    G: FnMut(&mut T, u64, R),
{
    let (partials, failures) = run_partials(
        items,
        workers,
        || (),
        |_, item| runner(item),
        Vec::new,
        |ran: &mut Vec<(u64, R)>, index, result| ran.push((index, result)),
    );
    let mut ran: Vec<(u64, R)> = partials.into_iter().flatten().collect();
    ran.sort_unstable_by_key(|&(index, _)| index);
    let mut acc = init;
    for (index, result) in ran {
        fold(&mut acc, index, result);
    }
    (acc, failures)
}

/// Hierarchical reduce: each worker folds the items it ran into its own
/// partial accumulator (built by `partial`), and the pool returns the
/// partial of every worker that folded at least one item plus the
/// panicked items (sorted by index). No per-item result ever crosses a
/// thread boundary — for a million-home campaign the cross-thread
/// traffic is one partial per worker, and there is no serial reducer to
/// bottleneck on.
///
/// With `workers <= 1` the one worker runs on the caller's thread;
/// otherwise each of `workers` threads runs it. Either way a worker
/// takes its next item from `items` only once its previous item has
/// run.
///
/// The caller merges the partials. **Determinism contract:** workers
/// claim items in a schedule-dependent order, so each partial covers an
/// unpredictable item subset; the merged result equals the serial
/// in-order fold *iff* the accumulator's merge is associative and
/// commutative over disjoint item sets (true of the integer-counter
/// population/exposure reports, whose tests pin exactly this).
///
/// **Scratch:** `scratch` runs once per worker, and every item that
/// worker executes receives `&mut S` — buffers, caches, and pools
/// survive from one item to the next instead of being rebuilt per item.
/// A panicked item's scratch is discarded and rebuilt. Scratch must
/// never influence *results* (it is reused in a worker-dependent,
/// schedule-dependent order); determinism-critical state belongs in the
/// item or the fold.
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
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut local = scratch();
        let mut acc = None;
        let mut failures = Vec::new();
        loop {
            // The guard drops with this statement: no lock is held while
            // an item runs. A poisoned lock (the iterator itself
            // panicked) ends the campaign for this worker.
            let next = queue.lock().ok().and_then(|mut q| q.next());
            let Some((index, item)) = next else { break };
            let index = index as u64;
            match catch_unwind(AssertUnwindSafe(|| runner(&mut local, item))) {
                Ok(result) => fold(acc.get_or_insert_with(&partial), index, result),
                Err(payload) => {
                    // Never reuse scratch a panic may have half-mutated.
                    local = scratch();
                    let message = panic_message(payload);
                    failures.push(ItemPanic { index, message });
                }
            }
        }
        (acc, failures)
    };

    let outcomes = if workers <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            // Joining in spawn order keeps the partial list in worker-slot
            // order (the *contents* still depend on scheduling — hence
            // the merge contract above). A worker's own panic can only
            // come from the iterator; it propagates as it was raised.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };
    let mut partials = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (acc, fails) in outcomes {
        partials.extend(acc);
        failures.extend(fails);
    }
    failures.sort_by_key(|f| f.index);
    (partials, failures)
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
        // The items are never collected: workers pull straight from a
        // lazy range.
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
    fn only_idle_workers_pull_from_the_iterator() {
        // Items leave a lazy iterator only when a worker is free to run
        // them: at no point are more than `workers` items pulled and not
        // yet finished, however slow the items are.
        use std::sync::atomic::{AtomicU64, Ordering};
        let workers = 3;
        let pulled = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let most_in_flight = AtomicU64::new(0);
        let items = (0..30u64).inspect(|_| {
            let in_flight =
                pulled.fetch_add(1, Ordering::SeqCst) + 1 - finished.load(Ordering::SeqCst);
            most_in_flight.fetch_max(in_flight, Ordering::SeqCst);
        });
        let out = run_indexed(
            items,
            workers,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                finished.fetch_add(1, Ordering::SeqCst);
                i
            },
            Vec::new(),
            |acc, _, r| acc.push(r),
        );
        assert_eq!(out, (0..30).collect::<Vec<u64>>());
        let most = most_in_flight.load(Ordering::SeqCst);
        assert!(
            most <= workers as u64,
            "{most} items pulled ahead of {workers} workers"
        );
    }

    #[test]
    fn scratch_is_reused_across_items_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = AtomicUsize::new(0);
        let (partials, failures) = run_partials(
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
            Vec::new,
            |acc: &mut Vec<u64>, _, r| acc.push(r),
        );
        assert!(failures.is_empty());
        assert_eq!(partials.iter().map(Vec::len).sum::<usize>(), 64);
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
        let (_, failures) = run_partials(
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
            || (),
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
