//! The lazily-started persistent worker pool behind every `par_*`
//! primitive.
//!
//! ## Why a pool
//!
//! The first generation of this crate spawned fresh `std::thread::scope`
//! threads for every call. That is correct but scales backwards: a full
//! tune issues hundreds of reductions, each paying ~10 µs per spawned
//! thread plus a join barrier, and nested calls (a parallel probe sweep
//! whose probes each run a parallel sum) multiplied the overhead. The pool
//! spawns workers **once**, parks them on a condvar, and reuses them for
//! every dispatch in the process — `par.pool_spawns` stays flat across an
//! entire 73-probe tune while `par.dispatches` counts the jobs they serve.
//!
//! ## Spin, then park
//!
//! A minibatch step of training issues a dispatch every ~100 µs, and a
//! condvar handoff costs a futex wake on each side of every one. So both
//! sides spin for at most `SPIN_WINDOW` before they park: a worker that
//! finished a job watches an atomic copy of the generation, and the
//! dispatcher that finished its own share watches the job's runner count.
//! The condvar wait after the spin is unchanged and remains the only
//! correctness path; a spin that sees nothing just falls through to it.
//! Spinning only pays while every spinning thread has a CPU of its own,
//! so a dispatch spins only when its runner budget is at most
//! `available_parallelism()` (`should_spin`), and only the first
//! `budget − 1` workers by index spin after it.
//!
//! ## Execution model
//!
//! A dispatch posts one **job** — a type-erased participant closure plus
//! an atomic task cursor — under the pool's state lock, bumps the
//! generation and wakes the parked workers. Every participating thread
//! (the dispatcher itself plus up to `max_workers − 1` pool workers, gated
//! by a ticket counter) claims task indices from the shared cursor and
//! invokes the participant once; the participant drains indices until the
//! cursor passes the end. Task *boundaries* are fixed by the caller from
//! the input length alone; only the *assignment* of tasks to threads is
//! dynamic. Because callers recombine per-task results in task order, the
//! dynamic assignment load-balances uneven tasks without moving a single
//! output bit.
//!
//! ## Fallbacks (all deterministic)
//!
//! A dispatch runs inline on the caller — same task boundaries, ascending
//! task order — when the worker budget is 1, when the caller *is* a pool
//! worker (nested dispatch from inside a job), or when another thread's
//! dispatch currently owns the pool. Nested parallelism therefore
//! flattens: a probe sweep dispatched across the pool runs its inner
//! per-probe sums inline on whichever thread claimed the probe, which is
//! exactly the coarse partitioning that amortizes synchronization.
//!
//! ## Panics
//!
//! A participant panic is caught on the thread that hit it, the first
//! payload is stashed on the job, and the task cursor is jammed to the end
//! so every other participant drains and retires. The dispatcher re-raises
//! the payload after the last runner has left — a worker panic surfaces on
//! the calling thread (and from there as `EngineError::Internal`) instead
//! of hanging the pool or aborting the process. Workers themselves survive
//! and return to the parked state.
//!
//! ## Task records
//!
//! While obs recording is on, each participant writes every task it ran
//! straight to the trace sink as one `par.task` record: its participant
//! id, the dispatch generation, the task index and the claim/finish
//! timestamps (`gridtuner_obs::trace::write_task_record`, a no-op without
//! a sink). Nothing is kept in process; the profiler's per-worker table
//! and its Chrome conversion read these records from the trace.

use gridtuner_obs as obs;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// How long a thread spins on its wake-up condition before it parks on
/// the condvar. A few tens of µs: the gap between the back-to-back
/// dispatches of a training step, while an idle pool still parks almost
/// at once.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Whether a dispatch of `budget` runners spins before parking on a host
/// with `cpus` CPUs: only when every runner can have a CPU of its own. An
/// oversubscribed spin takes the CPU from the thread it waits for.
fn should_spin(budget: usize, cpus: usize) -> bool {
    budget <= cpus
}

/// Spins until `ready` holds or [`SPIN_WINDOW`] has passed, and returns
/// whether `ready` held. Each call counts once, after the loop:
/// `par.spins`, and `par.spin_timeouts` when the window ran out.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let started = Instant::now();
    let mut held = ready();
    while !held && started.elapsed() < SPIN_WINDOW {
        std::hint::spin_loop();
        held = ready();
    }
    obs::counter!("par.spins").inc();
    if !held {
        obs::counter!("par.spin_timeouts").inc();
    }
    held
}

/// A participant drains task indices from `pop` until it returns `None`,
/// running each claimed task exactly once. Invoked at most once per
/// participating thread, so worker-local scratch state lives across all
/// the tasks that thread claims.
pub(crate) type Participant<'a> = dyn Fn(&mut dyn FnMut() -> Option<usize>) + Sync + 'a;

/// One posted dispatch: the erased participant plus claim/retire
/// accounting shared by every thread that serves it.
struct Job {
    /// Erased pointer to the dispatcher's participant closure.
    ///
    /// Only dereferenced after a successful task claim, and claims can
    /// only succeed while the dispatcher is still blocked in
    /// [`Pool::dispatch`] — see the safety comment there.
    f: *const Participant<'static>,
    tasks: usize,
    /// Dispatch generation stamped on this job's `par.task` records.
    generation: u64,
    /// Claim cursor: `fetch_add` hands out `0..tasks` exactly once each.
    next: AtomicUsize,
    /// Pool workers allowed to join (dispatcher participates for free).
    tickets: AtomicUsize,
    /// Threads currently inside [`Job::run_tasks`] (or about to claim).
    runners: AtomicUsize,
    /// Threads that claimed at least one task (for idle accounting). The
    /// fetch-add return value doubles as the thread's `busy_slots` index.
    participants: AtomicUsize,
    busy_ns: AtomicU64,
    /// Per-participant busy time, indexed by claim order — the imbalance
    /// detector compares these after the barrier.
    busy_slots: Vec<AtomicU64>,
    /// First panic payload from any participant.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the raw participant pointer is only dereferenced while the
// dispatcher keeps the referent alive (it blocks until all runners retire
// and no further claim can succeed); all other fields are Sync.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next task index, or `None` when the queue is drained
    /// (including after a panic jammed the cursor).
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::SeqCst);
        (i < self.tasks).then_some(i)
    }

    /// Runs tasks on the calling thread until the queue drains. The
    /// participant closure is only touched after a successful first
    /// claim, so a thread that arrives late does no work and never
    /// dereferences a potentially-retired closure.
    fn run_tasks(&self) {
        let Some(first) = self.claim() else {
            return;
        };
        let slot = self.participants.fetch_add(1, Ordering::Relaxed);
        let timed = obs::enabled();
        let started = Instant::now();
        let worker = WORKER_ID.get();
        // The task currently running on this thread: (index, claim ts).
        // Lives outside the closure so a panicking task still gets closed.
        let open = Cell::new(None::<(usize, u64)>);
        let mut pending = Some(first);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut pop = || {
                let i = if let Some(i) = pending.take() {
                    Some(i)
                } else {
                    self.claim()
                };
                if timed {
                    let now = obs::span::since_epoch_ns();
                    if let Some((task, claim_ns)) = open.take() {
                        self.record_task(worker, task, claim_ns, now);
                    }
                    if let Some(task) = i {
                        open.set(Some((task, now)));
                    }
                }
                i
            };
            // SAFETY: `first` was claimed, so the dispatcher is still
            // blocked in `dispatch` and the closure is alive.
            let f = unsafe { &*self.f };
            f(&mut pop);
        }));
        if timed {
            if let Some((task, claim_ns)) = open.take() {
                // The participant retired (or panicked) with a task open:
                // close it at the retire timestamp.
                self.record_task(worker, task, claim_ns, obs::span::since_epoch_ns());
            }
            let busy = started.elapsed().as_nanos() as u64;
            self.busy_ns.fetch_add(busy, Ordering::Relaxed);
            if let Some(per) = self.busy_slots.get(slot) {
                per.store(busy, Ordering::Relaxed);
            }
        }
        if let Err(payload) = result {
            // Jam the cursor so every participant drains, then keep only
            // the first payload for the dispatcher to re-raise.
            self.next.fetch_max(self.tasks, Ordering::SeqCst);
            let mut slot = lock_unpoisoned(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }

    /// Writes one closed task to the trace sink as a `par.task` record (a
    /// no-op when no sink is installed).
    fn record_task(&self, worker: u32, task: usize, claim_ns: u64, finish_ns: u64) {
        obs::trace::write_task_record(worker, self.generation, task as u32, claim_ns, finish_ns);
    }
}

struct PoolState {
    /// The job currently being dispatched, if any.
    job: Option<Arc<Job>>,
    /// Bumped on every post; parked workers wake on a change.
    generation: u64,
    /// Workers spawned so far (they never exit).
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// `PoolState::generation`, stored after every post: a spinning
    /// worker watches it without taking the lock.
    posted: AtomicU64,
    /// Workers with an index below this spin after a job before parking;
    /// set by every dispatch from its runner budget.
    spinners: AtomicUsize,
    /// `available_parallelism()`, read once.
    cpus: usize,
    /// Workers park here waiting for a generation bump.
    work_cv: Condvar,
    /// The dispatcher parks here waiting for runners to retire.
    done_cv: Condvar,
    /// Serializes dispatches; a busy pool makes later callers run inline.
    dispatch: Mutex<()>,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// True on pool worker threads: nested dispatches run inline.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// This thread's participant id in `par.task` records: 0 = the
    /// dispatching thread, `i ≥ 1` = pool worker `gridtuner-par-{i-1}`.
    static WORKER_ID: Cell<u32> = const { Cell::new(0) };
}

/// Process-wide dispatch generation counter.
static DISPATCH_GEN: AtomicU64 = AtomicU64::new(0);

/// Hands out the next dispatch generation (1-based).
fn next_generation() -> u64 {
    DISPATCH_GEN.fetch_add(1, Ordering::Relaxed) + 1
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            generation: 0,
            spawned: 0,
        }),
        posted: AtomicU64::new(0),
        spinners: AtomicUsize::new(0),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        dispatch: Mutex::new(()),
    })
}

impl Pool {
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        lock_unpoisoned(&self.state)
    }

    /// Grows the pool to at least `n` parked workers. Spawn failure
    /// degrades to fewer workers — the dispatcher always drains the queue
    /// itself, so correctness never depends on the pool size.
    fn ensure_spawned(&'static self, n: usize) {
        let mut st = self.lock_state();
        while st.spawned < n {
            let index = st.spawned;
            let name = format!("gridtuner-par-{index}");
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || self.worker_loop(index));
            if spawned.is_err() {
                break;
            }
            st.spawned += 1;
            obs::counter!("par.pool_spawns").inc();
        }
    }

    fn worker_loop(&self, index: usize) {
        IS_WORKER.set(true);
        // Participant id 0 is the dispatching thread; workers are 1-based.
        WORKER_ID.set(index as u32 + 1);
        // Force a first look at whatever job is already posted: workers
        // are usually spawned mid-dispatch.
        let mut seen = u64::MAX;
        loop {
            if index < self.spinners.load(Ordering::Relaxed) {
                spin_until(|| self.posted.load(Ordering::SeqCst) != seen);
            }
            let job = {
                let mut st = self.lock_state();
                loop {
                    if st.generation != seen {
                        seen = st.generation;
                        break st.job.clone();
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(job) = job else { continue };
            if job
                .tickets
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| t.checked_sub(1))
                .is_ok()
            {
                self.participate(&job);
            }
        }
    }

    /// Registers as a runner, drains tasks, retires, and wakes the
    /// dispatcher when it was the last runner out.
    fn participate(&self, job: &Job) {
        job.runners.fetch_add(1, Ordering::SeqCst);
        job.run_tasks();
        if job.runners.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Notify under the state lock so the dispatcher cannot miss
            // the wakeup between its condition check and its wait.
            let _st = self.lock_state();
            self.done_cv.notify_all();
        }
    }
}

/// Sequential fallback: identical task boundaries, ascending task order.
fn run_inline(tasks: usize, f: &Participant<'_>) {
    let mut i = 0usize;
    let mut pop = move || {
        if i < tasks {
            i += 1;
            Some(i - 1)
        } else {
            None
        }
    };
    f(&mut pop);
}

/// Executes `tasks` task indices via `f`, each exactly once, using up to
/// `max_workers` threads (the caller included). `items` is the logical
/// item count behind the tasks, recorded for utilization accounting.
///
/// Values must not depend on which thread ran which task — all `par_*`
/// primitives guarantee this by fixing task boundaries from the input
/// length and recombining per-task results in task order.
pub(crate) fn run(tasks: usize, max_workers: usize, items: usize, f: &Participant<'_>) {
    if tasks == 0 {
        return;
    }
    obs::counter!("par.jobs").inc();
    obs::counter!("par.items").add(items as u64);
    if tasks <= 1 || max_workers <= 1 || IS_WORKER.get() {
        return run_inline(tasks, f);
    }
    let pool = pool();
    // One dispatch at a time: a caller that finds the pool busy (another
    // thread's dispatch, or a nested call from the dispatcher itself)
    // runs inline instead of queueing behind it.
    let _dispatch = match pool.dispatch.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => return run_inline(tasks, f),
    };
    let budget = max_workers.min(tasks);
    pool.ensure_spawned(budget - 1);
    let spin = should_spin(budget, pool.cpus);
    // A hint for the workers' next wait only: it publishes no data.
    pool.spinners
        .store(if spin { budget - 1 } else { 0 }, Ordering::Relaxed);
    obs::counter!("par.dispatches").inc();
    let timed = obs::enabled();
    let started = Instant::now();
    // SAFETY: lifetime erasure. The erased reference is only dereferenced
    // by `Job::run_tasks` after a successful claim; claims can only
    // succeed before this function returns (the wait below holds until
    // the cursor has passed the end AND every runner has retired, and the
    // job is unposted under the state lock before returning), so no
    // thread touches `f` after it goes out of scope.
    let erased: &Participant<'static> =
        unsafe { std::mem::transmute::<&Participant<'_>, &Participant<'static>>(f) };
    let job = Arc::new(Job {
        f: erased as *const Participant<'static>,
        tasks,
        generation: next_generation(),
        next: AtomicUsize::new(0),
        tickets: AtomicUsize::new(budget - 1),
        runners: AtomicUsize::new(0),
        participants: AtomicUsize::new(0),
        busy_ns: AtomicU64::new(0),
        busy_slots: (0..budget).map(|_| AtomicU64::new(0)).collect(),
        panic: Mutex::new(None),
    });
    {
        let mut st = pool.lock_state();
        st.job = Some(Arc::clone(&job));
        st.generation = st.generation.wrapping_add(1);
        pool.posted.store(st.generation, Ordering::SeqCst);
        pool.work_cv.notify_all();
    }
    // The dispatcher is a participant too — it drains alongside the pool.
    pool.participate(&job);
    let finished =
        || job.runners.load(Ordering::SeqCst) == 0 && job.next.load(Ordering::SeqCst) >= tasks;
    if spin {
        spin_until(finished);
    }
    {
        let mut st = pool.lock_state();
        while !finished() {
            st = pool
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // Unpost so a late-waking worker finds nothing to claim and the
        // erased reference cannot outlive this call.
        if st.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
            st.job = None;
        }
    }
    if timed {
        let wall = started.elapsed().as_nanos() as u64;
        let busy = job.busy_ns.load(Ordering::Relaxed);
        let n = job.participants.load(Ordering::Relaxed).max(1) as u64;
        let idle = (wall * n).saturating_sub(busy);
        obs::counter!("par.wall_ns").add(wall);
        obs::counter!("par.busy_ns").add(busy);
        obs::counter!("par.idle_ns").add(idle);
        obs::counter!("par.worker_idle_ms").add(idle / 1_000_000);
        check_imbalance(&job, wall, idle);
    }
    let payload = lock_unpoisoned(&job.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Dispatches shorter than this are too noisy to judge for imbalance.
const IMBALANCE_MIN_WALL_NS: u64 = 10_000_000;
/// Max/min per-participant busy ratio that counts as imbalanced.
const IMBALANCE_MAX_RATIO: f64 = 3.0;
/// Aggregate idle fraction (idle / wall × participants) that counts as
/// oversubscribed regardless of the ratio.
const IMBALANCE_MAX_IDLE_FRAC: f64 = 0.35;

/// Flags a finished dispatch whose per-participant busy times diverged —
/// the oversubscription signature behind the 8-thread bench regression
/// (few long tasks pin some workers while the rest drain the queue and
/// idle at the barrier). Purely observational: a counter plus a warn
/// event, no effect on results.
fn check_imbalance(job: &Job, wall: u64, idle: u64) {
    let n = job.participants.load(Ordering::Relaxed);
    if n < 2 || wall < IMBALANCE_MIN_WALL_NS {
        return;
    }
    let busies = &job.busy_slots[..n.min(job.busy_slots.len())];
    let max = busies
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0);
    let min = busies
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .min()
        .unwrap_or(0);
    let ratio = max as f64 / min.max(1) as f64;
    let idle_frac = idle as f64 / (wall.max(1) * n as u64) as f64;
    if ratio < IMBALANCE_MAX_RATIO && idle_frac < IMBALANCE_MAX_IDLE_FRAC {
        return;
    }
    obs::counter!("par.imbalance_warnings").inc();
    obs::warn_event!(
        "par.oversubscription_imbalance",
        generation = job.generation,
        participants = n as u64,
        tasks = job.tasks as u64,
        wall_ms = wall as f64 / 1e6,
        busy_max_ms = max as f64 / 1e6,
        busy_min_ms = min as f64 / 1e6,
        ratio = ratio,
        idle_pct = idle_frac * 100.0,
    );
}

/// Number of live (parked or working) pool worker threads. Zero until the
/// first real dispatch — the pool is lazy. This is the number env
/// diagnostics should report: unlike `available_parallelism`, it reflects
/// what `GRIDTUNER_THREADS` actually provisioned.
pub fn pool_workers() -> usize {
    pool().lock_state().spawned
}

#[cfg(test)]
mod tests {
    use super::{should_spin, spin_until};
    use gridtuner_obs as obs;

    #[test]
    fn every_spin_counts_and_only_a_spent_window_counts_a_timeout() {
        // Pool workers of other tests in this process may spin meanwhile
        // and move both counters, so the deltas are read as lower bounds.
        let read = || {
            (
                obs::counter!("par.spins").get(),
                obs::counter!("par.spin_timeouts").get(),
            )
        };
        let (spins, timeouts) = read();
        assert!(!spin_until(|| false));
        let (spins_after, timeouts_after) = read();
        assert!(spins_after > spins && timeouts_after > timeouts);
        // A held spin must leave the time-outs alone in some attempt; a
        // concurrent time-out only forces another attempt.
        let clean = (0..100).any(|_| {
            let (spins, timeouts) = read();
            assert!(spin_until(|| true));
            let (spins_after, timeouts_after) = read();
            assert!(spins_after > spins);
            timeouts_after == timeouts
        });
        assert!(clean, "a spin whose condition held counted a time-out");
    }

    #[test]
    fn spins_only_when_every_runner_has_a_cpu() {
        assert!(should_spin(1, 2));
        assert!(should_spin(2, 2));
        assert!(!should_spin(8, 2));
    }
}
