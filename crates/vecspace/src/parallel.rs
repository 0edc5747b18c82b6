//! Scoped-thread fan-out over an index range.
//!
//! Every embarrassingly-parallel fan-out in the workspace has the same
//! shape — shard `0..n` into contiguous chunks, run each on its own
//! thread, and keep the output in input order. Two scaffolds share
//! that shape and one rule against nesting:
//!
//! * [`par_map_with`] maps over many independent items (the queries of
//!   a batch, the tables of a build, the exact ground-truth scans),
//!   one per-worker scratch state each;
//! * `fan_out_hits` (crate-private) splits *one* S3 distance filter —
//!   a linear scan or a candidate verification — over row ranges, so a
//!   single query uses every core.
//!
//! A thread running a chunk of either is marked a *fan-out worker*,
//! and a worker never fans out again: the per-query scan inside a
//! parallel batch runs inline, so a batch never asks for more threads
//! than its budget.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Least work, in bytes of rows read, that each thread of a
/// `fan_out_hits` split must get: the measured crossover of a scoped
/// spawn and join against the inline call. On a 2-CPU x86-64 VM, a
/// `dot_rows` scan split over two threads ran at 0.64× the inline
/// call's speed with 512 KiB per half, 1.06× with 1 MiB and 1.32× with
/// 2 MiB (the `fan_out_split` rows of the `kernels` bench, committed in
/// `BENCH_kernels.json`).
const MIN_FAN_OUT_BYTES: usize = 1 << 20;

thread_local! {
    /// Set while this thread runs a chunk of a fan-out.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread a fan-out worker until dropped, then
/// restores the previous mark (also when the chunk panics).
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> Self {
        Self(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// The host's core count, read once: `available_parallelism` reads
/// cgroup files on Linux, too slow to ask per query.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// How many threads the S3 fan-out splits a distance filter over
/// `items` items of `bytes_per_item` bytes each across when it runs on
/// this thread — the split that the dense and binary metrics'
/// `scan_hits` and `verify_hits` make of one query's linear scan or
/// candidate verification. One (inline) on a fan-out worker, on a
/// single-core host, or below two threads' worth of work; otherwise
/// `min(cores, bytes / 1 MiB)`.
pub fn fan_out_ways(items: usize, bytes_per_item: usize) -> usize {
    let ways = items.saturating_mul(bytes_per_item) / MIN_FAN_OUT_BYTES;
    if ways < 2 || IN_WORKER.with(Cell::get) {
        return 1;
    }
    ways.min(cores())
}

/// Contiguous pieces per thread of a split filter. Threads claim the
/// pieces in order until none is left, so a thread that starts late or
/// loses its core to another process holds the query up by at most one
/// piece rather than by its whole share: against a fixed halving, 16
/// pieces over 2 threads cut the p99 of a Webspam-shaped scan by about
/// a fifth on a shared 2-CPU VM.
const PIECES_PER_THREAD: usize = 8;

/// Runs the distance filter `run` over `0..items`, split over
/// [`fan_out_ways`] threads when the work is large enough, otherwise as
/// one inline `run(0..items, out)` call.
///
/// `run(range, hits)` must append the hits of the items in `range`, in
/// item order. A split cuts `0..items` into contiguous pieces that the
/// calling thread and `ways − 1` scoped threads claim in order, each
/// into its own vector; the vectors are appended to `out` in piece
/// order. So `out` receives exactly what the inline call appends — the
/// same ids in the same order, repeats included, with the same distance
/// bits — whenever `run` treats each item independently of the range
/// it falls in.
pub(crate) fn fan_out_hits<H, F>(items: usize, bytes_per_item: usize, out: &mut Vec<H>, run: F)
where
    H: Send,
    F: Fn(Range<usize>, &mut Vec<H>) + Sync,
{
    let ways = fan_out_ways(items, bytes_per_item);
    if ways < 2 {
        return run(0..items, out);
    }
    let piece = items.div_ceil(ways * PIECES_PER_THREAD);
    let pieces = items.div_ceil(piece);
    // The counter only hands out piece numbers; the hits reach this
    // thread through `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let p = next.fetch_add(1, Ordering::Relaxed);
            if p >= pieces {
                return done;
            }
            let mut hits = Vec::new();
            run(p * piece..((p + 1) * piece).min(items), &mut hits);
            done.push((p, hits));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..ways)
            .map(|_| {
                scope.spawn(|| {
                    let _mark = WorkerMark::set();
                    claim()
                })
            })
            .collect();
        let mut done = claim();
        for worker in workers {
            match worker.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(p, _)| p);
    for (_, hits) in done {
        out.extend(hits);
    }
}

/// Maps `f` over `0..n`, sharded across scoped threads, returning
/// results in index order.
///
/// `make_state` builds one per-worker scratch value (a reusable query
/// engine, `()` for pure functions); it runs on the calling thread,
/// once per worker. `threads` of `None` uses all available cores; the
/// count is clamped to `[1, n]`, and a single worker runs inline
/// without spawning and unmarked — exactly a sequential loop, whose
/// filters may still fan out. Otherwise the calling thread runs the
/// first chunk and `threads − 1` scoped threads the rest, each marked a
/// fan-out worker, so an `f` whose S3 filter would fan out (see
/// [`fan_out_ways`]) runs it inline. Results are byte-identical to a
/// sequential `(0..n).map(..)` loop whenever `f` is deterministic per
/// index.
pub fn par_map_with<T, S, G, F>(n: usize, threads: Option<usize>, mut make_state: G, f: F) -> Vec<T>
where
    T: Send,
    S: Send,
    G: FnMut() -> S,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.unwrap_or_else(cores).clamp(1, n);

    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let fill = |state: &mut S, first: usize, slots: &mut [Option<T>]| {
        for (off, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(state, first + off));
        }
    };
    if threads == 1 {
        fill(&mut make_state(), 0, &mut results);
    } else {
        let chunk = n.div_ceil(threads);
        let fill = &fill;
        std::thread::scope(|scope| {
            let mut chunks = results.chunks_mut(chunk);
            let head = chunks.next().expect("n > 0");
            let mut head_state = make_state();
            for (ci, slots) in chunks.enumerate() {
                let mut state = make_state();
                scope.spawn(move || {
                    let _mark = WorkerMark::set();
                    fill(&mut state, (ci + 1) * chunk, slots);
                });
            }
            let _mark = WorkerMark::set();
            fill(&mut head_state, 0, head);
        });
    }
    results.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        for threads in [None, Some(1), Some(3), Some(16)] {
            let out = par_map_with(37, threads, || (), |_, i| i * 2);
            assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>(), "{threads:?}");
        }
    }

    #[test]
    fn empty_range() {
        let out: Vec<usize> = par_map_with(0, None, || (), |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn one_state_per_worker() {
        // Sequential: a single state sees every index.
        let out = par_map_with(
            10,
            Some(1),
            || 0usize,
            |count, _| {
                *count += 1;
                *count
            },
        );
        assert_eq!(out.last(), Some(&10));
        // Two workers: each chunk restarts its own counter.
        let out = par_map_with(
            10,
            Some(2),
            || 0usize,
            |count, _| {
                *count += 1;
                *count
            },
        );
        assert_eq!(out[..5], [1, 2, 3, 4, 5]);
        assert_eq!(out[5..], [1, 2, 3, 4, 5]);
    }

    #[test]
    fn workers_never_fan_out_again_and_keep_order() {
        let big = 4 * MIN_FAN_OUT_BYTES;
        // Every chunk of a parallel map (the calling thread's included)
        // sees itself as a worker, so a nested fan-out runs inline.
        let inner = par_map_with(8, Some(2), || (), |_, i| (i, fan_out_ways(1, big)));
        assert_eq!(inner, (0..8).map(|i| (i, 1)).collect::<Vec<_>>());
        // The mark is lifted once the map returns, and a one-thread map
        // (a plain loop) never sets it.
        assert_eq!(fan_out_ways(1, big), 4usize.min(cores()));
        assert_eq!(
            par_map_with(3, Some(1), || (), |_, _| fan_out_ways(1, big)),
            [4usize.min(cores()); 3]
        );
        // Nested hits come out in range order inside each worker.
        let nested = par_map_with(
            4,
            Some(2),
            || (),
            |_, i| {
                let mut out = vec![i];
                fan_out_hits(1000, big, &mut out, |range, out| out.extend(range));
                out
            },
        );
        for (i, out) in nested.iter().enumerate() {
            assert_eq!(out[0], i);
            assert_eq!(out[1..], (0..1000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_appends_ranges_in_order_after_existing_hits() {
        for (items, bytes) in
            [(0usize, 1usize), (7, 1), (1000, MIN_FAN_OUT_BYTES), (1001, 3 * MIN_FAN_OUT_BYTES)]
        {
            let mut out = vec![usize::MAX];
            let ranges = std::sync::Mutex::new(Vec::new());
            fan_out_hits(items, bytes, &mut out, |range, out| {
                ranges.lock().unwrap().push(range.clone());
                // Keep every third item, twice: order and repeats survive.
                for i in range.filter(|i| i % 3 == 0) {
                    out.extend([i, i]);
                }
            });
            let want: Vec<usize> = std::iter::once(usize::MAX)
                .chain((0..items).filter(|i| i % 3 == 0).flat_map(|i| [i, i]))
                .collect();
            assert_eq!(out, want, "{items} items");
            // The ranges tile 0..items: one inline, or pieces of a split.
            let mut ranges = ranges.into_inner().unwrap();
            let ways = fan_out_ways(items, bytes);
            assert_eq!(ranges.len() == 1, ways == 1, "{items} items, {ways} ways");
            assert!(ranges.len() <= ways * PIECES_PER_THREAD);
            ranges.sort_by_key(|r| r.start);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(items));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn fan_out_ways_needs_two_ranges_of_work() {
        assert_eq!(fan_out_ways(0, MIN_FAN_OUT_BYTES), 1);
        assert_eq!(fan_out_ways(1, 2 * MIN_FAN_OUT_BYTES - 1), 1);
        assert_eq!(fan_out_ways(2, MIN_FAN_OUT_BYTES), 2usize.min(cores()));
        assert_eq!(fan_out_ways(usize::MAX, usize::MAX), cores());
    }

    #[test]
    fn worker_panics_reach_the_caller_and_clear_the_mark() {
        let caught = std::panic::catch_unwind(|| {
            par_map_with(2, Some(2), || (), |_, i| assert!(i == 1, "chunk {i} fails"))
        });
        assert!(caught.is_err());
        assert!(!IN_WORKER.with(Cell::get), "the calling thread's mark is restored");
    }
}
