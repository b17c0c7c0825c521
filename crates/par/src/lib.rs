//! Dependency-free data parallelism on a lazily-started **persistent
//! worker pool** (its internals live in `pool.rs`).
//!
//! Every helper here follows the same contract:
//!
//! * work is split into **contiguous tasks** whose boundaries depend only
//!   on the input length — never on the worker count or on which thread
//!   claims which task;
//! * results are stitched back together **in input order**, so reductions
//!   are deterministic — the same inputs give **bit-identical** outputs
//!   regardless of the worker count (each output element is still computed
//!   by exactly one `f` call, and partial sums are combined in task/block
//!   order, which fixes the floating-point association);
//! * with one worker (or tiny inputs) everything runs inline on the
//!   calling thread — no dispatch, no overhead, and the exact same chunked
//!   association as the parallel path.
//!
//! Unlike the first-generation `std::thread::scope` implementation, the
//! pool spawns its workers once and keeps them between dispatches: each
//! spins briefly for the next job, then parks (`par.pool_spawns` stays
//! flat across a whole tune; `par.dispatches` counts the jobs served). Tasks are claimed dynamically from a shared
//! cursor, so uneven tasks load-balance without affecting any result, and
//! nested calls (a parallel probe sweep whose probes each run a parallel
//! sum) flatten to one coarse dispatch: the inner call runs inline on
//! whichever thread claimed the outer task.
//!
//! The worker count comes from [`max_threads`]: the `GRIDTUNER_THREADS`
//! environment variable when set (clamped to ≥ 1), otherwise
//! [`std::thread::available_parallelism`]. Harnesses can override it
//! in-process with [`set_max_threads`]; [`pool_workers`] reports how many
//! worker threads the pool has actually spawned.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

mod pool;

pub use pool::pool_workers;

use gridtuner_obs as obs;

/// Inputs below this size are always processed inline: dispatch overhead
/// dwarfs the work.
const MIN_ITEMS_PER_THREAD: usize = 2;

/// Fixed reduction granularity for [`par_sum`]/[`par_sum_with`]: items are
/// folded into per-block partials of this size (64 f64 = 512 bytes = 8
/// cache lines, so a block's inputs prefetch as one streaming run) and
/// the partials are added in block order. Within a block the fold is the
/// canonical 4-lane association (see `block_fold`). Because the block
/// size is a constant, the association — and so the summed value, bit for
/// bit — is the same for every worker count.
const SUM_BLOCK: usize = 64;

/// One block's partial sum under the **canonical 4-lane association**:
/// item `i` of the block accumulates into lane `i mod 4`, and the lanes
/// are tree-folded `(l₀+l₁)+(l₂+l₃)`. This is the same association
/// `gridtuner-core`'s 4-lane kernels define as canonical, kept here in
/// scalar form — block values come from arbitrary closures, so what
/// determinism pins is the association, not the instruction set (and the
/// four independent accumulator chains give the compiler the same ILP a
/// vector register would). `f` is invoked once per item, in item order.
#[inline]
fn block_fold<T, S>(block: &[T], state: &mut S, f: &impl Fn(&mut S, &T) -> f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    for (i, item) in block.iter().enumerate() {
        lanes[i % 4] += f(state, item);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Fixed chunk count for [`par_accumulate`]: bounds partial-buffer memory
/// at `ACC_CHUNKS × len` floats while keeping the chunk boundaries (and so
/// the combine association) a function of the input length only.
const ACC_CHUNKS: usize = 8;

/// Target tasks per worker on a dispatch. Oversubscribing the task queue
/// lets the dynamic claim cursor load-balance uneven tasks (probe cost
/// grows steeply with lattice side) — task boundaries still depend only on
/// the input length, so results cannot move.
const TASKS_PER_WORKER: usize = 4;

/// Cached worker-pool size (0 = not resolved yet).
static CACHED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// A malformed environment variable: the name, the offending value, and
/// what a well-formed value looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// Variable name, e.g. `GRIDTUNER_THREADS`.
    pub var: &'static str,
    /// The raw value found in the environment.
    pub value: String,
    /// Human description of the expected format.
    pub expected: &'static str,
}

impl std::fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?} is malformed (expected {})",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvParseError {}

/// The `GRIDTUNER_THREADS` override, validated: `Ok(None)` when unset,
/// `Ok(Some(n))` (clamped to ≥ 1) when well-formed, `Err` when the value
/// does not parse. Entry points (CLI, engine sessions) call this at
/// startup so a typo fails loudly instead of silently falling back to the
/// detected parallelism.
pub fn env_thread_override() -> Result<Option<usize>, EnvParseError> {
    match std::env::var("GRIDTUNER_THREADS") {
        Err(_) => Ok(None),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => Ok(Some(n.max(1))),
            Err(_) => Err(EnvParseError {
                var: "GRIDTUNER_THREADS",
                value: v,
                expected: "a positive integer",
            }),
        },
    }
}

fn env_threads() -> Option<usize> {
    match env_thread_override() {
        Ok(n) => n,
        Err(e) => {
            // Library fallback stays permissive, but no longer silent:
            // the malformed value is surfaced on the warn stream, and
            // validated entry points turn it into a hard error.
            obs::warn_event!("env.parse_error", var = e.var, value = e.value);
            None
        }
    }
}

/// The worker-budget per dispatch: `GRIDTUNER_THREADS` if set, else the
/// machine's available parallelism (1 if that cannot be determined). Note
/// this is the *configured* budget; [`pool_workers`] reports how many
/// worker threads actually exist.
pub fn max_threads() -> usize {
    // Cache the lookup: env + syscall once per process.
    let cached = CACHED_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    });
    CACHED_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Overrides the worker budget for the rest of the process (clamped to
/// ≥ 1), taking precedence over `GRIDTUNER_THREADS` and the detected
/// parallelism. Task boundaries never depend on the worker count, so
/// changing it mid-flight cannot change any result — this hook exists so
/// determinism harnesses can prove exactly that, and so benchmarks can
/// sweep thread counts without re-spawning the process. Already-spawned
/// pool workers are kept parked (never killed); lowering the budget just
/// leaves them idle.
pub fn set_max_threads(n: usize) {
    CACHED_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Number of workers for `len` items: at most [`max_threads`], at least 1,
/// and never so many that a worker gets fewer than
/// `MIN_ITEMS_PER_THREAD` items.
pub fn workers_for(len: usize) -> usize {
    max_threads().min(len / MIN_ITEMS_PER_THREAD).max(1)
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Task layout for a dispatch: (`chunk` items per task, task count).
/// Depends only on the input length and the worker budget's *target* —
/// and because every task's output is recombined in task order, even the
/// budget only affects granularity, never values.
fn task_layout(len: usize, workers: usize) -> (usize, usize) {
    let chunk = len.div_ceil(workers * TASKS_PER_WORKER).max(1);
    (chunk, len.div_ceil(chunk))
}

/// Parallel ordered map: `out[i] == f(&items[i])` for every `i`, exactly as
/// the sequential `items.iter().map(f).collect()` would produce.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let workers = workers_for(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let (chunk, n_tasks) = task_layout(items.len(), workers);
    let parts: Vec<Mutex<Vec<U>>> = (0..n_tasks).map(|_| Mutex::new(Vec::new())).collect();
    pool::run(n_tasks, workers, items.len(), &|pop| {
        while let Some(t) = pop() {
            let slice = &items[t * chunk..((t + 1) * chunk).min(items.len())];
            let mapped: Vec<U> = slice.iter().map(&f).collect();
            *lock_unpoisoned(&parts[t]) = mapped;
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for p in parts {
        out.append(&mut p.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    out
}

/// Deterministic parallel sum: items are folded into per-block partials of
/// `SUM_BLOCK` (64) elements (each block folded with the canonical 4-lane
/// association, see `block_fold`), and the partials are added in block
/// order. The blocking depends only on `items.len()`, so the
/// floating-point association is fixed: sequential and parallel runs
/// agree **bit-for-bit for every worker count**.
pub fn par_sum<T: Sync>(items: &[T], f: impl Fn(&T) -> f64 + Sync) -> f64 {
    par_sum_with(items, || (), |_, t| f(t))
}

/// [`par_sum`] with worker-local state: `init` builds one state per
/// participating thread (one total on the inline path), and `f` receives
/// it mutably alongside each item. The blocking, the per-block
/// left-to-right fold and the block-order reduction are exactly
/// [`par_sum`]'s, so the sum is bit-identical for every worker count
/// **provided `f`'s return value does not depend on the state's history**
/// — the state is for scratch buffers and local counters (the batched
/// expression-error workspace), not for carrying numeric results between
/// items.
pub fn par_sum_with<T: Sync, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> f64 + Sync,
) -> f64 {
    let n_blocks = items.len().div_ceil(SUM_BLOCK).max(1);
    let workers = workers_for(items.len()).min(n_blocks);
    if workers <= 1 {
        let mut state = init();
        let mut total = 0.0f64;
        for block in items.chunks(SUM_BLOCK.max(1)) {
            total += block_fold(block, &mut state, &f);
        }
        return total;
    }
    // A task is a contiguous run of blocks; block partials are collected
    // per task and added back in global block order.
    let blocks_per_task = n_blocks.div_ceil(workers * TASKS_PER_WORKER).max(1);
    let n_tasks = n_blocks.div_ceil(blocks_per_task);
    let parts: Vec<Mutex<Vec<f64>>> = (0..n_tasks).map(|_| Mutex::new(Vec::new())).collect();
    pool::run(n_tasks, workers, items.len(), &|pop| {
        let mut state = init();
        while let Some(t) = pop() {
            let b0 = t * blocks_per_task;
            let b1 = (b0 + blocks_per_task).min(n_blocks);
            let start = b0 * SUM_BLOCK;
            let end = (b1 * SUM_BLOCK).min(items.len());
            let mut partials = Vec::with_capacity(b1 - b0);
            for block in items[start..end].chunks(SUM_BLOCK) {
                partials.push(block_fold(block, &mut state, &f));
            }
            *lock_unpoisoned(&parts[t]) = partials;
        }
    });
    let mut total = 0.0f64;
    for p in parts {
        for v in p.into_inner().unwrap_or_else(PoisonError::into_inner) {
            total += v;
        }
    }
    total
}

/// Parallel accumulation into an `f32` buffer of length `len`: `items` are
/// split into at most `ACC_CHUNKS` contiguous chunks (boundaries depend
/// only on `items.len()`); each chunk is folded into its own zeroed buffer
/// via `f(index, item, buf)`, and the partial buffers are added
/// element-wise **in chunk order** — the same association whether the
/// chunks ran on one thread or many, so the result is bit-identical for
/// every worker count. The shape of the scatter-add reductions in backward
/// passes (`dx += ...` across output channels).
pub fn par_accumulate<T: Sync>(
    items: &[T],
    len: usize,
    f: impl Fn(usize, &T, &mut [f32]) + Sync,
) -> Vec<f32> {
    let chunk = items.len().div_ceil(ACC_CHUNKS).max(1);
    let n_chunks = items.len().div_ceil(chunk).max(1);
    let partials: Vec<Mutex<Vec<f32>>> = (0..n_chunks).map(|_| Mutex::new(Vec::new())).collect();
    let fold = |c: usize| {
        let slice = &items[c * chunk..((c + 1) * chunk).min(items.len())];
        let mut buf = vec![0.0f32; len];
        for (i, t) in slice.iter().enumerate() {
            f(c * chunk + i, t, &mut buf);
        }
        *lock_unpoisoned(&partials[c]) = buf;
    };
    let workers = workers_for(items.len()).min(n_chunks);
    if workers <= 1 {
        for c in 0..n_chunks {
            fold(c);
        }
    } else {
        pool::run(n_chunks, workers, items.len(), &|pop| {
            while let Some(c) = pop() {
                fold(c);
            }
        });
    }
    let mut acc = vec![0.0f32; len];
    for p in partials {
        for (a, v) in acc
            .iter_mut()
            .zip(p.into_inner().unwrap_or_else(PoisonError::into_inner))
        {
            *a += v;
        }
    }
    acc
}

/// Runs `f` over disjoint contiguous chunks of `out` in parallel. `f`
/// receives the chunk's start offset in `out` and the chunk itself —
/// ideal for filling row-blocks of a matrix where each output element
/// depends only on its own index.
pub fn par_chunks_mut<T: Send>(out: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    par_chunks_mut_pair(out, chunk, f, &mut [], 1, |_, _: &mut [T]| {});
}

/// [`par_chunks_mut`] over two buffers in **one** dispatch: `fa` runs over
/// the `chunk_a`-sized chunks of `a` and `fb` over the `chunk_b`-sized
/// chunks of `b`, each chunk once, as the tasks of a single job. Two
/// passes that read the same inputs and write disjoint buffers (a dense
/// layer's weight and input gradients) then pay one pool handoff instead
/// of two. Inline, `a`'s chunks run first, in order, then `b`'s.
pub fn par_chunks_mut_pair<A: Send, B: Send>(
    a: &mut [A],
    chunk_a: usize,
    fa: impl Fn(usize, &mut [A]) + Sync,
    b: &mut [B],
    chunk_b: usize,
    fb: impl Fn(usize, &mut [B]) + Sync,
) {
    assert!(chunk_a > 0 && chunk_b > 0, "chunk size must be positive");
    let n_a = a.len().div_ceil(chunk_a);
    let n_tasks = n_a + b.len().div_ceil(chunk_b);
    if max_threads() <= 1 || n_tasks <= 1 {
        for (c, slice) in a.chunks_mut(chunk_a).enumerate() {
            fa(c * chunk_a, slice);
        }
        for (c, slice) in b.chunks_mut(chunk_b).enumerate() {
            fb(c * chunk_b, slice);
        }
        return;
    }
    let (len_a, len_b) = (a.len(), b.len());
    let (base_a, base_b) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
    pool::run(n_tasks, max_threads().min(n_tasks), len_a + len_b, &|pop| {
        // Borrow the whole wrappers (not just the raw-pointer fields) so
        // the closure stays `Sync` via `SendPtr`'s impl.
        let (base_a, base_b) = (&base_a, &base_b);
        // The pool hands out each task index exactly once, task `t` owns
        // one in-bounds chunk of one buffer, the chunks of a buffer are
        // disjoint, and `a` and `b` stay borrowed mutably for the whole
        // dispatch: so no two threads alias a chunk.
        while let Some(t) = pop() {
            if t < n_a {
                let start = t * chunk_a;
                // SAFETY: see above; `t < n_a` puts `start` below `len_a`.
                fa(start, unsafe { base_a.chunk(start, chunk_a, len_a) });
            } else {
                let start = (t - n_a) * chunk_b;
                // SAFETY: see above; `t < n_tasks` puts `start` below `len_b`.
                fb(start, unsafe { base_b.chunk(start, chunk_b, len_b) });
            }
        }
    });
}

/// A raw pointer that may cross threads; soundness is argued at each use.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The chunk `start..min(start + chunk, len)` of the buffer of `len`
    /// elements this points to.
    ///
    /// # Safety
    ///
    /// The buffer must be live and mutably borrowed by the caller for
    /// `'a`, `start` must be below `len`, and no other live reference may
    /// overlap the chunk.
    unsafe fn chunk<'a>(&self, start: usize, chunk: usize, len: usize) -> &'a mut [T] {
        let end = (start + chunk).min(len);
        // SAFETY: in bounds by the caller's `start < len`; unaliased by
        // the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), end - start) }
    }
}

// SAFETY: only used to reconstruct disjoint sub-slices of a single
// mutably-borrowed slice, one per claimed task.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_sum_matches_sequential_exactly_for_fixed_chunking() {
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.73).sin()).collect();
        let seq: f64 = items.iter().map(|&x| x * 1.5).sum();
        let par = par_sum(&items, |&x| x * 1.5);
        assert!((seq - par).abs() < 1e-9, "seq {seq} vs par {par}");
    }

    #[test]
    fn par_sum_with_matches_par_sum_bitwise() {
        // The stateful form must keep the exact association of par_sum:
        // same blocks, same fold order, same bits.
        let items: Vec<f64> = (0..7_777).map(|i| ((i as f64) * 0.91).cos()).collect();
        let plain = par_sum(&items, |&x| x * x + 0.25);
        let stateful = par_sum_with(&items, Vec::<f64>::new, |scratch, &x| {
            // Exercise the state without letting it affect the result.
            scratch.clear();
            scratch.push(x);
            scratch[0] * scratch[0] + 0.25
        });
        assert_eq!(plain.to_bits(), stateful.to_bits());
    }

    #[test]
    fn par_sum_with_state_is_worker_count_invariant() {
        let items: Vec<f64> = (0..3_000).map(|i| ((i as f64) * 0.11).sin()).collect();
        let saved = max_threads();
        let mut sums = Vec::new();
        for n in [1usize, 2, 8] {
            set_max_threads(n);
            sums.push(
                par_sum_with(
                    &items,
                    || 0u64,
                    |calls, &x| {
                        *calls += 1;
                        x * 2.5
                    },
                )
                .to_bits(),
            );
        }
        set_max_threads(saved);
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "par_sum_with drifted"
        );
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut out = vec![0u32; 1003];
        par_chunks_mut(&mut out, 100, |base, slice| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v += (base + i) as u32 + 1;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_pair_touches_every_element_of_both_once() {
        let (mut a, mut b) = (vec![0u32; 1003], vec![0u64; 77]);
        par_chunks_mut_pair(
            &mut a,
            100,
            |base, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v += (base + i) as u32 + 1;
                }
            },
            &mut b,
            10,
            |base, slice| {
                for (i, v) in slice.iter_mut().enumerate() {
                    *v += 2 * (base + i) as u64;
                }
            },
        );
        assert!(a.iter().enumerate().all(|(i, v)| *v == i as u32 + 1));
        assert!(b.iter().enumerate().all(|(i, v)| *v == 2 * i as u64));
    }

    #[test]
    fn tiny_inputs_run_inline() {
        // Must not panic or deadlock for empty / single-element inputs.
        assert!(par_map(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(par_sum(&[] as &[f64], |&x| x), 0.0);
        let mut empty: Vec<u8> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| {});
    }

    #[test]
    fn par_accumulate_matches_sequential_fold() {
        let items: Vec<usize> = (0..97).collect();
        let len = 13;
        let acc = par_accumulate(&items, len, |i, &item, buf| {
            assert_eq!(i, item);
            buf[item % len] += item as f32;
        });
        let mut want = vec![0.0f32; len];
        for &item in &items {
            want[item % len] += item as f32;
        }
        for (a, w) in acc.iter().zip(&want) {
            assert!((a - w).abs() < 1e-4, "acc {a} vs want {w}");
        }
    }

    #[test]
    fn reductions_are_worker_count_invariant() {
        // The determinism contract: task boundaries depend only on input
        // length, so sweeping the pool size may not move a single bit.
        // (Other tests in this binary run concurrently and may observe the
        // overridden pool size — harmless, for exactly this reason.)
        let items: Vec<f64> = (0..5_000)
            .map(|i| ((i as f64) * 0.37).sin() / 3.0)
            .collect();
        let idx: Vec<usize> = (0..333).collect();
        let saved = max_threads();
        let mut sums = Vec::new();
        let mut accs = Vec::new();
        for n in [1usize, 2, 3, 8] {
            set_max_threads(n);
            sums.push(par_sum(&items, |&x| x * 1.000_000_1).to_bits());
            accs.push(par_accumulate(&idx, 7, |_, &i, buf| {
                buf[i % 7] += (i as f32).sqrt();
            }));
        }
        set_max_threads(saved);
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "par_sum drifted");
        assert!(
            accs.windows(2).all(|w| w[0] == w[1]),
            "par_accumulate drifted"
        );
    }

    #[test]
    fn workers_respect_floor() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(1_000_000) >= 1);
        assert!(workers_for(1_000_000) <= max_threads());
    }

    #[test]
    fn pool_spawns_stay_flat_once_warm() {
        // Warm the pool at the largest budget this binary uses, then
        // hammer it: no dispatch after warmup may spawn another worker.
        let saved = max_threads();
        set_max_threads(8);
        let items: Vec<f64> = (0..4_096).map(|i| i as f64 * 0.5).collect();
        let _ = par_sum(&items, |&x| x.sqrt());
        let warm_workers = pool_workers();
        assert!(warm_workers >= 1, "pool never spawned");
        for _ in 0..16 {
            let _ = par_sum(&items, |&x| x.sqrt());
            let _ = par_map(&items, |&x| x + 1.0);
        }
        assert_eq!(
            pool_workers(),
            warm_workers,
            "pool spawned extra workers after warmup"
        );
        set_max_threads(saved);
    }

    #[test]
    fn nested_dispatch_runs_inline_and_matches() {
        // A par_map whose bodies call par_sum themselves: the inner call
        // must flatten (inline on the claiming thread) and the combined
        // result must match the fully-sequential computation bit for bit.
        let saved = max_threads();
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|r| {
                (0..300)
                    .map(|c| ((r * 300 + c) as f64 * 0.013).sin())
                    .collect()
            })
            .collect();
        set_max_threads(1);
        let seq: Vec<u64> = rows
            .iter()
            .map(|row| par_sum(row, |&x| x * 1.25).to_bits())
            .collect();
        set_max_threads(8);
        let nested: Vec<u64> = par_map(&rows, |row| par_sum(row, |&x| x * 1.25).to_bits());
        set_max_threads(saved);
        assert_eq!(seq, nested, "nested dispatch changed bits");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let saved = max_threads();
        set_max_threads(8);
        let items: Vec<u64> = (0..10_000).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 4_321, "boom at {x}");
                x
            })
        });
        assert!(caught.is_err(), "worker panic was swallowed");
        // The pool must still serve jobs afterwards.
        let sum = par_sum(&items, |&x| x as f64);
        assert_eq!(sum, (10_000.0f64 * 9_999.0) / 2.0);
        set_max_threads(saved);
    }
}
