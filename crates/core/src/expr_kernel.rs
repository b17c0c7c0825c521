//! The batched expression-error kernel: the tuning hot path's inner loop.
//!
//! [`crate::expression::expression_error_windowed`] is exact but pays for
//! every call: four `Vec` allocations, a fresh Poisson pmf build for both
//! the cell rate `a` and the rest-of-MGrid rate `b`, and the prefix-sum
//! pass over the `b` window. A field sweep calls it once per *distinct*
//! rate per MGrid — thousands of times per probe — even though α fields
//! estimated as `count / days` take few distinct values (mostly zeros and
//! small multiples of `1/days`) and those values recur across MGrids and
//! across probes.
//!
//! This module batches the sweep around three reuse layers:
//!
//! * [`PmfTable`] — one rate's pmf plus its cumulative and first-moment
//!   prefix sums, in buffers that refill in place ([`PmfTable::fill`]);
//! * [`ExprWorkspace`] — per-worker scratch: the gathered α row, the
//!   dedup index grouping identical rates (each group evaluated **once**,
//!   accumulated multiplicity-weighted in first-occurrence order, so the
//!   total is deterministic), and two scratch tables. After warm-up a
//!   steady-state sweep performs **zero heap allocations per cell** — a
//!   property [`ExprWorkspace::realloc_bytes`] lets tests assert;
//! * [`PmfMemo`] — a bounded, thread-safe table cache keyed by the f64
//!   bits of the rate. Rates recur across MGrids within a probe and across
//!   probes within a session (MGrid totals repartition the same event
//!   mass), so [`crate::alpha_cache::AlphaFieldCache`] owns one per
//!   session and incremental re-tunes inherit a warm cache.
//!
//! Every layer preserves the windowed kernel's arithmetic bit for bit: a
//! memo hit, a scratch refill and a fresh
//! [`expression_error_windowed`](crate::expression::expression_error_windowed)
//! call all produce identical bits for the same `(a, b, m)`.

use crate::error::CoreError;
use crate::poisson::{mass_window, poisson_pmf_into};
use crate::simd::F64x4;
use gridtuner_obs as obs;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// Multiply-shift hasher for the f64-bit rate keys the kernel hashes
/// millions of times per tune. The keys are already high-entropy u64s
/// (f64 bit patterns), so a single 128-bit-quality mix step beats the
/// default SipHash by an order of magnitude on the dedup hot path.
#[derive(Default, Clone, Copy)]
struct RateHash(u64);

impl Hasher for RateHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused on the hot path): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        // The 64-bit finalizer of MurmurHash3 — full avalanche, two
        // multiplies.
        let mut h = x ^ (x >> 33);
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = h ^ (h >> 33);
    }
}

type RateMap<V> = HashMap<u64, V, BuildHasherDefault<RateHash>>;

/// Fold-checkpoint stride for [`PmfTable`]: the running cumulative /
/// first-moment fold state is stored every this many pmf entries, so a
/// prefix query resumes from the nearest checkpoint and folds at most
/// this many entries instead of the whole window. Two extra f64 per
/// stride ≈ 3% memory overhead at 64.
const CKPT_STRIDE: usize = 64;

/// One rate's windowed Poisson table: the pmf over the rate's mass window
/// plus the windowed totals `Σ P(k)` and `Σ k·P(k)`. The cumulative and
/// first-moment prefix values the Algorithm 2 brackets read are folded on
/// the fly during evaluation, resumed from sparse checkpoints of the fold
/// state stored every `CKPT_STRIDE` entries. The fold is the
/// **canonical 4-lane association** (see [`crate::simd`]): within a
/// stride, entry `j` accumulates into lane `j mod 4`, and stride
/// boundaries fold the four lanes down `(l₀+l₁)+(l₂+l₃)` into a scalar
/// base — so the 4-wide fill and the entry-at-a-time evaluation walk
/// produce identical bits, while each table holds one full-length buffer
/// instead of three (≈3× more tables fit a given memo budget). Fills in place, so a scratch instance reused
/// across cells stops allocating once its buffers reach the largest
/// window seen.
#[derive(Debug, Clone, Default)]
pub struct PmfTable {
    lo: u64,
    hi: u64,
    pmf: Vec<f64>,
    /// `ckpt[k]` = the (cum, mom) fold state after the first `k·STRIDE`
    /// pmf entries, stored lane-folded (canonical scalars); `ckpt[0]` is
    /// `(0, 0)`.
    ckpt: Vec<(f64, f64)>,
    cum_total: f64,
    mom_total: f64,
}

impl PmfTable {
    /// A freshly allocated table for `rate`.
    pub fn build(rate: f64) -> PmfTable {
        let mut t = PmfTable::default();
        t.fill(rate);
        t
    }

    /// Refills the table for `rate` in place, reallocating only when the
    /// mass window outgrows the buffers. The pmf values, prefix sums and
    /// totals are bit-identical to what
    /// [`expression_error_windowed`](crate::expression::expression_error_windowed)
    /// computes internally for the same rate.
    pub fn fill(&mut self, rate: f64) {
        let (lo, hi) = mass_window(rate, 2);
        poisson_pmf_into(rate, lo, hi, &mut self.pmf);
        self.ckpt.clear();
        self.ckpt.push((0.0, 0.0));
        let (c, s) = fold_body(lo, &self.pmf, &mut self.ckpt);
        self.lo = lo;
        self.hi = hi;
        self.cum_total = c;
        self.mom_total = s;
    }

    /// Window length (`hi − lo + 1`).
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// Whether the table has never been filled.
    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// Total probability mass inside the window (≈ 1).
    pub fn cum_total(&self) -> f64 {
        self.cum_total
    }

    /// Windowed first moment `Σ k·P(k)` (≈ the rate).
    pub fn mom_total(&self) -> f64 {
        self.mom_total
    }

    /// Heap bytes currently held by the pmf and checkpoint buffers.
    pub fn bytes(&self) -> usize {
        self.pmf.capacity() * std::mem::size_of::<f64>()
            + self.ckpt.capacity() * std::mem::size_of::<(f64, f64)>()
    }

    /// f64 slots this table retains (pmf entries plus checkpoint pairs) —
    /// the unit the [`PmfMemo`] budget is accounted in.
    fn slots(&self) -> usize {
        self.pmf.len() + 2 * self.ckpt.len()
    }
}

/// The canonical 4-lane (cum, mom) fold over [`F64x4`] lanes: entry `j`
/// accumulates into lane `j mod 4` (`mom` as mul then add — never
/// fused), every [`CKPT_STRIDE`] entries the lanes fold down
/// `(l₀+l₁)+(l₂+l₃)` into the scalar base and a checkpoint is pushed,
/// and the return value is the base plus the final partial lanes. The
/// stride is a multiple of 4, so full strides are whole 4-wide waves and
/// the sub-wave tail lands in the same lanes a wave would have used.
fn fold_body(lo: u64, pmf: &[f64], ckpt: &mut Vec<(f64, f64)>) -> (f64, f64) {
    let len = pmf.len();
    let mut base_c = 0.0f64;
    let mut base_s = 0.0f64;
    let mut cl = F64x4::ZERO;
    let mut sl = F64x4::ZERO;
    let mut j = 0usize;
    while j + CKPT_STRIDE <= len {
        let stride_end = j + CKPT_STRIDE;
        while j < stride_end {
            let p = F64x4::load(&pmf[j..]);
            let k0 = lo + j as u64;
            let kv = F64x4([k0 as f64, (k0 + 1) as f64, (k0 + 2) as f64, (k0 + 3) as f64]);
            cl = cl + p;
            sl = sl + kv * p;
            j += 4;
        }
        base_c += cl.hsum();
        base_s += sl.hsum();
        cl = F64x4::ZERO;
        sl = F64x4::ZERO;
        ckpt.push((base_c, base_s));
    }
    // Whole waves past the last checkpoint…
    while j + 4 <= len {
        let p = F64x4::load(&pmf[j..]);
        let k0 = lo + j as u64;
        let kv = F64x4([k0 as f64, (k0 + 1) as f64, (k0 + 2) as f64, (k0 + 3) as f64]);
        cl = cl + p;
        sl = sl + kv * p;
        j += 4;
    }
    // …then the sub-wave tail, entry by entry into its canonical lane.
    while j < len {
        let p = pmf[j];
        cl.0[j % 4] += p;
        sl.0[j % 4] += (lo + j as u64) as f64 * p;
        j += 1;
    }
    (base_c + cl.hsum(), base_s + sl.hsum())
}

/// `E_e` for one `(a, b, m)` group from prebuilt tables — the exact
/// arithmetic of `expression_error_windowed` with the pmf/prefix work
/// hoisted out, so the result is bit-identical to a fresh call.
///
/// Each query point `t = (m−1)·kh − 1` needs the cumulative and
/// first-moment prefixes of `tb` at `t`. Queries increase with `kh`, so a
/// single running fold is shared across them: dense queries (small `m−1`)
/// walk forward a few entries each, and a query far ahead of the
/// accumulator jumps it to the nearest [`CKPT_STRIDE`] checkpoint first,
/// folding at most one stride instead of the gap. Past the window's end
/// the prefix saturates to the windowed totals.
///
/// The running fold carries the canonical 4-lane state ([`fold_body`]):
/// entry `j` lands in lane `j mod 4`, stride boundaries fold the lanes
/// into the scalar base, and a prefix query reads base plus the partial
/// lanes' tree fold. Checkpoints, the walk and the totals are all states
/// of that same fold, so every path yields identical bits.
fn eval_tables(ta: &PmfTable, tb: &PmfTable, m: usize) -> f64 {
    debug_assert!(m > 1, "group evaluation requires m > 1");
    let lb = tb.lo as i64;
    let len = tb.pmf.len();
    let c_tot = tb.cum_total;
    let s_tot = tb.mom_total;
    let mut j = 0usize; // tb entries folded into the running prefix
    let mut base_c = 0.0f64; // scalar base: strides folded so far
    let mut base_s = 0.0f64;
    let mut cl = F64x4::ZERO; // partial lanes of the current stride
    let mut sl = F64x4::ZERO;
    let mut total = 0.0;
    for (i, &p_a) in ta.pmf.iter().enumerate() {
        let kh = ta.lo + i as u64;
        let t = ((m - 1) as u64 * kh) as i64 - 1;
        let (c_t, s_t) = if t < lb {
            (0.0, 0.0)
        } else {
            // The query needs the fold over `end` leading entries.
            let end = (t - lb + 1) as usize;
            if end >= len {
                (c_tot, s_tot)
            } else {
                let q = end / CKPT_STRIDE;
                if q * CKPT_STRIDE > j {
                    j = q * CKPT_STRIDE;
                    (base_c, base_s) = tb.ckpt[q];
                    cl = F64x4::ZERO;
                    sl = F64x4::ZERO;
                }
                while j < end {
                    let p = tb.pmf[j];
                    cl.0[j % 4] += p;
                    sl.0[j % 4] += (tb.lo + j as u64) as f64 * p;
                    j += 1;
                    if j.is_multiple_of(CKPT_STRIDE) {
                        base_c += cl.hsum();
                        base_s += sl.hsum();
                        cl = F64x4::ZERO;
                        sl = F64x4::ZERO;
                    }
                }
                (base_c + cl.hsum(), base_s + sl.hsum())
            }
        };
        let bracket_c = 2.0 * c_t - c_tot;
        let bracket_s = 2.0 * s_t - s_tot;
        total += p_a * ((m - 1) as f64 * kh as f64 * bracket_c - bracket_s);
    }
    total / m as f64
}

/// `E_e(a, b, m)` from freshly built tables — the canonical definition of
/// the windowed expression error, which every other path (memo hit,
/// scratch refill, a = 0 fast path) must match bit for bit.
/// [`crate::expression::expression_error_windowed`] is this plus argument
/// validation.
pub(crate) fn expression_error_kernel(a: f64, b: f64, m: usize) -> f64 {
    let ta = PmfTable::build(a);
    let tb = PmfTable::build(b);
    eval_tables(&ta, &tb, m)
}

/// Default entry cap for [`PmfMemo`] — above the slot budget divided by a
/// typical window, so the f64 budget is the limit that usually bites.
pub const MEMO_MAX_ENTRIES: usize = 65_536;

/// Default retained-buffer budget for [`PmfMemo`], in f64 slots across all
/// cached tables (16 Mi slots = 128 MiB). Tables store one pmf buffer
/// plus ~3% of fold checkpoints, so the budget admits roughly three times
/// the tables the same bytes would have held with materialised prefix
/// arrays. Sized to hold every distinct rate of a paper-scale sweep
/// (~41k tables, ~13 Mi slots measured on the NYC benchmark city) with
/// headroom, so steady-state re-tunes run build-free; smaller deployments
/// can tighten it through [`PmfMemo::with_limits`].
pub const MEMO_MAX_F64S: usize = 16 << 20;

/// Shard count for [`PmfMemo`]: independent read-mostly segments keyed by
/// the high bits of the mixed rate hash, so concurrent workers only
/// contend when they touch the same shard at the same time *and* one of
/// them is inserting. Power of two for a mask-only selection.
const MEMO_SHARDS: usize = 16;

/// A bounded, thread-safe cross-probe cache of [`PmfTable`]s, keyed by the
/// f64 **bits** of the rate (α values are exact `count / days` quotients,
/// so bitwise keying is exact, not fragile).
///
/// The cache is a pure function of the rate: entries never go stale, so an
/// [`AlphaFieldCache`](crate::alpha_cache::AlphaFieldCache) keeps its memo
/// across [`append`](crate::alpha_cache::AlphaFieldCache::append) calls
/// and incremental re-tunes start warm. Admission is bounded two ways —
/// an entry cap and a retained-f64 budget — and a rejected rate simply
/// falls back to the caller's scratch table (same bits either way).
///
/// Storage is split across `MEMO_SHARDS` `RwLock`ed segments and the
/// caps live in shared atomics, so the warm path is a single uncontended
/// shard read-lock (and most lookups never even get here: the
/// per-workspace L1 serves repeats lock-free). `pmf_memo.lock_waits`
/// counts the times any shard lock actually had to block.
pub struct PmfMemo {
    shards: Vec<RwLock<RateMap<Arc<PmfTable>>>>,
    /// Cached tables across all shards (reserved before building).
    entries: AtomicUsize,
    /// f64 slots retained across every cached table (window length plus
    /// checkpoint pairs each) — the memory the budget bounds.
    retained: AtomicUsize,
    max_entries: usize,
    max_f64s: usize,
    hits: obs::metrics::Counter,
    misses: obs::metrics::Counter,
}

impl Default for PmfMemo {
    fn default() -> Self {
        PmfMemo::with_limits(MEMO_MAX_ENTRIES, MEMO_MAX_F64S)
    }
}

/// Poison-immune read lock that counts the times it had to block: an
/// uncontended acquisition is the expected case, so a failed `try_read`
/// is the contention signal `pmf_memo.lock_waits` records.
fn read_counted<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.try_read() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            obs::counter!("pmf_memo.lock_waits").inc();
            lock.read().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

/// Write-side counterpart of [`read_counted`].
fn write_counted<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match lock.try_write() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            obs::counter!("pmf_memo.lock_waits").inc();
            lock.write().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

impl PmfMemo {
    /// A memo bounded to `max_entries` tables and `max_f64s` retained f64
    /// slots (whichever bites first).
    pub fn with_limits(max_entries: usize, max_f64s: usize) -> PmfMemo {
        PmfMemo {
            shards: (0..MEMO_SHARDS)
                .map(|_| RwLock::new(RateMap::default()))
                .collect(),
            entries: AtomicUsize::new(0),
            retained: AtomicUsize::new(0),
            max_entries,
            max_f64s,
            hits: obs::metrics::Counter::new(),
            misses: obs::metrics::Counter::new(),
        }
    }

    /// The shard index for `key`, selected from the *mixed* hash's high
    /// bits so shard choice and in-shard bucket choice stay independent.
    fn shard_index(key: u64) -> usize {
        let mut h = RateHash::default();
        h.write_u64(key);
        (h.finish() >> (64 - 4)) as usize & (MEMO_SHARDS - 1)
    }

    /// Reserves one entry plus `slots` f64s against the caps, atomically.
    /// Sequential callers see exactly the pre-shard semantics: the cap
    /// check happens before any build work is paid for.
    fn reserve(&self, slots: usize) -> bool {
        if self
            .entries
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |e| {
                (e < self.max_entries).then_some(e + 1)
            })
            .is_err()
        {
            return false;
        }
        if self
            .retained
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| {
                (r + slots <= self.max_f64s).then_some(r + slots)
            })
            .is_err()
        {
            self.entries.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Returns a reservation taken by [`reserve`](Self::reserve) — used
    /// when an insert race means the reserved table is not retained.
    fn release(&self, slots: usize) {
        self.entries.fetch_sub(1, Ordering::SeqCst);
        self.retained.fetch_sub(slots, Ordering::SeqCst);
    }

    /// The cached table for `rate`, building and admitting it on a miss.
    /// Returns `None` when the table cannot be admitted (budget or entry
    /// cap) — the caller evaluates from scratch instead; both paths yield
    /// bit-identical values.
    pub fn get_or_build(&self, rate: f64) -> Option<Arc<PmfTable>> {
        let key = rate.to_bits();
        let shard = &self.shards[Self::shard_index(key)];
        if let Some(t) = read_counted(shard).get(&key) {
            self.hits.inc();
            obs::counter!("expr.pmf_memo_hits").inc();
            return Some(Arc::clone(t));
        }
        self.misses.inc();
        let (lo, hi) = mass_window(rate, 2);
        let len = (hi - lo + 1) as usize;
        // Exactly what `fill` will retain: the pmf plus one checkpoint
        // pair per stride (and the leading zero state).
        let slots = len + 2 * (len / CKPT_STRIDE + 1);
        // Reserve before building: an oversized window (or a full memo)
        // never pays for the build, and concurrent builders can never
        // overshoot the caps.
        if !self.reserve(slots) {
            return None;
        }
        let built = Arc::new(PmfTable::build(rate));
        debug_assert_eq!(built.slots(), slots, "admission must match fill");
        let mut guard = write_counted(shard);
        match guard.entry(key) {
            Entry::Occupied(e) => {
                // Lost an insert race: another worker admitted this rate
                // while we built. Hand back its table and return the
                // reservation.
                let existing = Arc::clone(e.get());
                drop(guard);
                self.release(slots);
                Some(existing)
            }
            Entry::Vacant(v) => {
                v.insert(Arc::clone(&built));
                Some(built)
            }
        }
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to build (or were refused admission).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Cached tables.
    pub fn entries(&self) -> usize {
        self.entries.load(Ordering::SeqCst)
    }

    /// f64 slots retained across all cached tables.
    pub fn retained_f64s(&self) -> usize {
        self.retained.load(Ordering::SeqCst)
    }
}

/// Entry cap for the workspace-local table cache: far above the distinct
/// rate count of a paper-scale sweep, so the epoch-style clear is a
/// safety valve, not a steady-state event.
const L1_MAX_ENTRIES: usize = 1 << 16;

/// Per-worker scratch state for the batched sweep: the gathered α row, the
/// dedup index, two scratch [`PmfTable`]s for rates the memo declines, and
/// an L1 `rate → Arc` cache of memo-admitted tables so repeated rates
/// skip the memo's mutex and refcount traffic entirely (the L1 shares the
/// memo's tables, so it adds per-entry bookkeeping, not table copies).
/// Every buffer refills in place, so a steady-state sweep allocates
/// nothing per cell — [`realloc_bytes`](Self::realloc_bytes) stays flat.
///
/// Local tallies (cells, dedup hits, kernel evaluations, buffer growth)
/// are kept as plain integers on the hot path and flushed to the global
/// registry counters `expr.cell_evals`, `expr.dedup_hits`, `expr.evals`
/// and `expr.workspace_bytes` when the workspace drops.
#[derive(Default)]
pub struct ExprWorkspace {
    alphas: Vec<f64>,
    uniq: Vec<(f64, u32)>,
    index: RateMap<u32>,
    l1: RateMap<Arc<PmfTable>>,
    ta: PmfTable,
    tb: PmfTable,
    cells: u64,
    dedup_hits: u64,
    kernel_evals: u64,
    realloc_bytes: u64,
    reallocs: u64,
}

impl ExprWorkspace {
    /// An empty workspace; buffers grow on first use and then stick.
    pub fn new() -> ExprWorkspace {
        ExprWorkspace::default()
    }

    /// Validating form of [`mgrid_error_trusted`](Self::mgrid_error_trusted):
    /// rejects non-finite or negative rates, and rates whose total exceeds
    /// [`MAX_POISSON_MEAN`](crate::poisson::MAX_POISSON_MEAN), as
    /// [`CoreError::Data`] before touching the kernel.
    pub fn mgrid_error(&mut self, alphas: &[f64], memo: &PmfMemo) -> Result<f64, CoreError> {
        for (j, &a) in alphas.iter().enumerate() {
            if !a.is_finite() || a < 0.0 {
                return Err(CoreError::Data(format!(
                    "α value {a} at local HGrid {j} is non-finite or negative"
                )));
            }
        }
        crate::expression::check_total(alphas.iter().sum())?;
        Ok(self.mgrid_error_trusted(alphas.iter().copied(), memo))
    }

    /// Sum of `E_e(i, j)` over one MGrid's HGrid rates — the batched
    /// equivalent of the per-cell windowed loop, multiplicity-weighted
    /// over deduplicated rates in first-occurrence order (deterministic:
    /// the order depends only on the input sequence).
    ///
    /// Trusts the caller to have validated the rates (the field-level
    /// entry points validate once per field, not once per cell).
    pub fn mgrid_error_trusted(
        &mut self,
        alphas: impl IntoIterator<Item = f64>,
        memo: &PmfMemo,
    ) -> f64 {
        let fp_before = self.footprint_bytes();
        let out = self.eval_inner(alphas, memo);
        let fp_after = self.footprint_bytes();
        if fp_after > fp_before {
            self.realloc_bytes += (fp_after - fp_before) as u64;
            self.reallocs += 1;
        }
        out
    }

    fn eval_inner(&mut self, alphas: impl IntoIterator<Item = f64>, memo: &PmfMemo) -> f64 {
        self.alphas.clear();
        self.alphas.extend(alphas);
        let m = self.alphas.len();
        self.cells += m as u64;
        if m <= 1 {
            return 0.0;
        }
        // Same order as the cell gather, so the total matches the
        // pre-batching path bit for bit.
        let total: f64 = self.alphas.iter().sum();
        self.index.clear();
        self.uniq.clear();
        for i in 0..m {
            let a = self.alphas[i];
            match self.index.entry(a.to_bits()) {
                Entry::Occupied(e) => self.uniq[*e.get() as usize].1 += 1,
                Entry::Vacant(e) => {
                    e.insert(self.uniq.len() as u32);
                    self.uniq.push((a, 1));
                }
            }
        }
        self.dedup_hits += (m - self.uniq.len()) as u64;
        let mut acc = 0.0;
        for g in 0..self.uniq.len() {
            let (a, mult) = self.uniq[g];
            let e = self.group_error(a, total, m, memo);
            #[cfg(feature = "check-invariants")]
            {
                let bound = crate::expression::lemma_upper_bound(a, (total - a).max(0.0), m);
                assert!(
                    e >= -1e-12 && e <= bound + 1e-9 * (1.0 + bound),
                    "Lemma III.1 violated: E_e = {e} outside [0, {bound}] at a={a}, total={total}, m={m}"
                );
            }
            acc += e * mult as f64;
        }
        acc
    }

    /// L1-then-memo table lookup. Only tables the memo handed back are
    /// retained (admission stays the memo's call, so the memory bound
    /// holds); refused rates return `None` and use the scratch path.
    fn cached_table(&mut self, rate: f64, memo: &PmfMemo) -> Option<Arc<PmfTable>> {
        let bits = rate.to_bits();
        if let Some(t) = self.l1.get(&bits) {
            return Some(Arc::clone(t));
        }
        let fetched = memo.get_or_build(rate)?;
        if self.l1.len() >= L1_MAX_ENTRIES {
            self.l1.clear();
        }
        self.l1.insert(bits, Arc::clone(&fetched));
        Some(fetched)
    }

    /// One distinct rate's `E_e(a, total − a, m)`, from memoised tables
    /// when admitted, scratch refills otherwise.
    fn group_error(&mut self, a: f64, total: f64, m: usize, memo: &PmfMemo) -> f64 {
        self.kernel_evals += 1;
        let b = (total - a).max(0.0);
        let tb_hit = self.cached_table(b, memo);
        if tb_hit.is_none() {
            self.tb.fill(b);
        }
        if a == 0.0 {
            // a = 0 fast path: Pois(0) is a point mass at zero, so the
            // windowed series collapses to its first term and the general
            // loop returns exactly the windowed first moment of Pois(b)
            // over m — the remaining terms contribute ±0.0. Bit-identical
            // to the general evaluation, without building the a-table.
            let tb: &PmfTable = match tb_hit.as_deref() {
                Some(t) => t,
                None => &self.tb,
            };
            return tb.mom_total / m as f64;
        }
        let ta_hit = self.cached_table(a, memo);
        if ta_hit.is_none() {
            self.ta.fill(a);
        }
        let tb: &PmfTable = match tb_hit.as_deref() {
            Some(t) => t,
            None => &self.tb,
        };
        let ta: &PmfTable = match ta_hit.as_deref() {
            Some(t) => t,
            None => &self.ta,
        };
        eval_tables(ta, tb, m)
    }

    /// HGrid cells processed so far.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Cells served by another cell's group (dedup savings).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Kernel (group) evaluations performed.
    pub fn kernel_evals(&self) -> u64 {
        self.kernel_evals
    }

    /// Bytes of buffer growth since creation (0 growth = the steady-state
    /// zero-allocation guarantee held).
    pub fn realloc_bytes(&self) -> u64 {
        self.realloc_bytes
    }

    /// MGrid evaluations that grew any buffer.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Heap bytes currently held across every buffer.
    pub fn footprint_bytes(&self) -> usize {
        self.alphas.capacity() * std::mem::size_of::<f64>()
            + self.uniq.capacity() * std::mem::size_of::<(f64, u32)>()
            + self.index.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.l1.capacity() * std::mem::size_of::<(u64, Arc<PmfTable>)>()
            + self.ta.bytes()
            + self.tb.bytes()
    }
}

impl Drop for ExprWorkspace {
    fn drop(&mut self) {
        if self.cells > 0 {
            obs::counter!("expr.cell_evals").add(self.cells);
        }
        if self.dedup_hits > 0 {
            obs::counter!("expr.dedup_hits").add(self.dedup_hits);
        }
        if self.kernel_evals > 0 {
            obs::counter!("expr.evals").add(self.kernel_evals);
        }
        if self.realloc_bytes > 0 {
            obs::counter!("expr.workspace_bytes").add(self.realloc_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::expression_error_windowed;

    const CASES: &[(f64, f64, usize)] = &[
        (1.0, 3.0, 4),
        (0.5, 0.5, 2),
        (2.0, 10.0, 9),
        (5.0, 0.0, 4),
        (3.3, 7.7, 16),
        (80.0, 7_920.0, 100),
        (0.25, 1234.5, 64),
    ];

    #[test]
    fn blocked_shard_locks_count_once_in_the_aggregate() {
        let memo = PmfMemo::default();
        let shard = &memo.shards[PmfMemo::shard_index(1.5f64.to_bits())];
        let waits = || obs::counter!("pmf_memo.lock_waits").get();
        // Other tests only add to the process-wide counter, so each
        // blocked acquisition must raise it by at least one.
        let before = waits();
        let held = shard.write().unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| drop(read_counted(shard)));
            while waits() == before {
                std::thread::yield_now();
            }
            drop(held);
            reader.join().unwrap();
        });
        let held = shard.read().unwrap();
        let after_read = waits();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| drop(write_counted(shard)));
            while waits() == after_read {
                std::thread::yield_now();
            }
            drop(held);
            writer.join().unwrap();
        });
        assert!(waits() > after_read && after_read > before);
    }

    #[test]
    fn eval_tables_matches_windowed_bitwise() {
        for &(a, b, m) in CASES {
            let ta = PmfTable::build(a);
            let tb = PmfTable::build(b);
            let batched = eval_tables(&ta, &tb, m);
            let direct = expression_error_windowed(a, b, m);
            assert_eq!(
                batched.to_bits(),
                direct.to_bits(),
                "bit drift at a={a}, b={b}, m={m}: {batched} vs {direct}"
            );
        }
    }

    #[test]
    fn zero_rate_fast_path_is_bitwise_identical() {
        for &(b, m) in &[(12.0, 6usize), (0.0, 4), (5_000.0, 256), (0.4, 2)] {
            let tb = PmfTable::build(b);
            let fast = tb.mom_total / m as f64;
            let direct = expression_error_windowed(0.0, b, m);
            assert_eq!(
                fast.to_bits(),
                direct.to_bits(),
                "a=0 fast path drift at b={b}, m={m}: {fast} vs {direct}"
            );
        }
    }

    #[test]
    fn table_refill_matches_fresh_build() {
        let mut scratch = PmfTable::build(9_999.0); // warm with a big window
        for &rate in &[0.0, 0.2, 3.0, 740.0, 5_000.0] {
            scratch.fill(rate);
            let fresh = PmfTable::build(rate);
            assert_eq!(scratch.pmf, fresh.pmf, "pmf drift at rate {rate}");
            assert_eq!(scratch.ckpt, fresh.ckpt, "stale checkpoints at rate {rate}");
            assert_eq!((scratch.lo, scratch.hi), (fresh.lo, fresh.hi));
            assert_eq!(scratch.cum_total.to_bits(), fresh.cum_total.to_bits());
            assert_eq!(scratch.mom_total.to_bits(), fresh.mom_total.to_bits());
        }
    }

    #[test]
    fn checkpoints_are_exact_fold_states() {
        // A window spanning many checkpoint strides: every stored
        // checkpoint must be the canonical 4-lane fold's state at its
        // stride boundary, bit for bit — that is what lets `eval_tables`
        // jump the running accumulator without changing a ulp. The
        // reference here is a plain scalar transcription of the canonical
        // association: lane `j mod 4`, tree-folded `(l₀+l₁)+(l₂+l₃)` at
        // each boundary.
        let t = PmfTable::build(740.0);
        assert_eq!(t.ckpt.len(), t.pmf.len() / CKPT_STRIDE + 1);
        let mut base_c = 0.0f64;
        let mut base_s = 0.0f64;
        let mut cl = [0.0f64; 4];
        let mut sl = [0.0f64; 4];
        for (i, &p) in t.pmf.iter().enumerate() {
            if i % CKPT_STRIDE == 0 {
                let (cq, sq) = t.ckpt[i / CKPT_STRIDE];
                assert_eq!(cq.to_bits(), base_c.to_bits(), "cum drift at idx {i}");
                assert_eq!(sq.to_bits(), base_s.to_bits(), "mom drift at idx {i}");
            }
            cl[i % 4] += p;
            sl[i % 4] += (t.lo + i as u64) as f64 * p;
            if (i + 1) % CKPT_STRIDE == 0 {
                base_c += (cl[0] + cl[1]) + (cl[2] + cl[3]);
                base_s += (sl[0] + sl[1]) + (sl[2] + sl[3]);
                cl = [0.0; 4];
                sl = [0.0; 4];
            }
        }
        base_c += (cl[0] + cl[1]) + (cl[2] + cl[3]);
        base_s += (sl[0] + sl[1]) + (sl[2] + sl[3]);
        assert_eq!(t.cum_total.to_bits(), base_c.to_bits());
        assert_eq!(t.mom_total.to_bits(), base_s.to_bits());
    }

    #[test]
    fn workspace_matches_per_cell_loop() {
        // Repeated values: the multiplicity-weighted group sum must agree
        // with the cell-order loop to reassociation tolerance, and exactly
        // when all values are distinct (group order = cell order).
        let memo = PmfMemo::default();
        let mut ws = ExprWorkspace::new();
        let repeated = [0.0, 2.0, 0.0, 5.5, 2.0, 0.0, 1.25, 5.5];
        let m = repeated.len();
        let total: f64 = repeated.iter().sum();
        let per_cell: f64 = repeated
            .iter()
            .map(|&a| expression_error_windowed(a, (total - a).max(0.0), m))
            .sum();
        let batched = ws.mgrid_error(&repeated, &memo).unwrap();
        assert!(
            (batched - per_cell).abs() <= 1e-12 * per_cell.max(1.0),
            "batched {batched} vs per-cell {per_cell}"
        );
        let distinct = [1.0, 2.0, 3.0, 4.0];
        let dtotal: f64 = distinct.iter().sum();
        let d_per_cell: f64 = distinct
            .iter()
            .map(|&a| expression_error_windowed(a, dtotal - a, 4))
            .sum();
        let d_batched = ws.mgrid_error(&distinct, &memo).unwrap();
        assert_eq!(d_batched.to_bits(), d_per_cell.to_bits());
    }

    #[test]
    fn workspace_dedup_and_cell_tallies() {
        let memo = PmfMemo::default();
        let mut ws = ExprWorkspace::new();
        ws.mgrid_error(&[0.0, 1.0, 0.0, 1.0, 2.0], &memo).unwrap();
        assert_eq!(ws.cells(), 5);
        assert_eq!(ws.kernel_evals(), 3, "three distinct rates");
        assert_eq!(ws.dedup_hits(), 2, "two cells rode along");
        ws.mgrid_error(&[7.0], &memo).unwrap();
        assert_eq!(ws.cells(), 6);
        assert_eq!(ws.kernel_evals(), 3, "m = 1 MGrids never hit the kernel");
    }

    #[test]
    fn workspace_steady_state_allocates_nothing() {
        let memo = PmfMemo::with_limits(0, 0); // force the scratch path
        let mut ws = ExprWorkspace::new();
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|r| (0..16).map(|c| ((r * 16 + c) % 5) as f64 * 0.4).collect())
            .collect();
        let first: Vec<f64> = rows
            .iter()
            .map(|row| ws.mgrid_error_trusted(row.iter().copied(), &memo))
            .collect();
        let warm_footprint = ws.footprint_bytes();
        let warm_reallocs = ws.reallocs();
        let warm_bytes = ws.realloc_bytes();
        // The steady-state pass: same field again, not one byte allocated.
        let second: Vec<f64> = rows
            .iter()
            .map(|row| ws.mgrid_error_trusted(row.iter().copied(), &memo))
            .collect();
        assert_eq!(
            ws.reallocs(),
            warm_reallocs,
            "steady-state sweep grew a buffer"
        );
        assert_eq!(ws.realloc_bytes(), warm_bytes);
        assert_eq!(ws.footprint_bytes(), warm_footprint);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits(), "reuse changed a value");
        }
    }

    #[test]
    fn memo_hits_are_bit_identical_to_scratch() {
        let memo = PmfMemo::default();
        let miss = memo.get_or_build(6.25).expect("admitted");
        let hit = memo.get_or_build(6.25).expect("cached");
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        let fresh = PmfTable::build(6.25);
        for t in [&miss, &hit] {
            assert_eq!(t.pmf, fresh.pmf);
            assert_eq!(t.cum_total.to_bits(), fresh.cum_total.to_bits());
            assert_eq!(t.mom_total.to_bits(), fresh.mom_total.to_bits());
        }
    }

    #[test]
    fn memo_respects_both_limits() {
        // Entry cap.
        let capped = PmfMemo::with_limits(2, usize::MAX);
        assert!(capped.get_or_build(1.0).is_some());
        assert!(capped.get_or_build(2.0).is_some());
        assert!(capped.get_or_build(3.0).is_none(), "entry cap ignored");
        assert_eq!(capped.entries(), 2);
        // Retained-f64 budget: a huge-window rate must be refused while
        // small rates still fit.
        let budgeted = PmfMemo::with_limits(usize::MAX, 300);
        assert!(budgeted.get_or_build(1.0).is_some(), "small window fits");
        assert!(
            budgeted.get_or_build(1.0e6).is_none(),
            "oversized window admitted past the budget"
        );
        assert!(budgeted.retained_f64s() <= 300);
        // Refused rates still evaluate correctly via scratch.
        let memo = PmfMemo::with_limits(0, 0);
        let mut ws = ExprWorkspace::new();
        let open = PmfMemo::default();
        let mut ws2 = ExprWorkspace::new();
        let alphas = [3.0, 0.0, 1.5, 3.0];
        let scratch = ws.mgrid_error(&alphas, &memo).unwrap();
        let memoised = ws2.mgrid_error(&alphas, &open).unwrap();
        assert_eq!(scratch.to_bits(), memoised.to_bits());
    }

    #[test]
    fn dedup_tallies_conserve_weight() {
        // Every cell of an MGrid with m > 1 is its rate's first occurrence
        // (one kernel evaluation) or a dedup hit, whatever the repeats.
        let memo = PmfMemo::default();
        let mut ws = ExprWorkspace::new();
        for alphas in [
            &[0.0, 1.0, 0.0, 2.5, 1.0, 0.0][..],
            &[3.0, 3.0],
            &[1.0, 2.0, 3.0],
        ] {
            let (served, cells) = (ws.dedup_hits() + ws.kernel_evals(), ws.cells());
            ws.mgrid_error(alphas, &memo).unwrap();
            let served = ws.dedup_hits() + ws.kernel_evals() - served;
            assert_eq!(served, ws.cells() - cells, "{alphas:?}");
        }
        assert_eq!((ws.cells(), ws.kernel_evals()), (11, 3 + 1 + 3));
    }

    #[test]
    fn invalid_rates_are_data_errors() {
        let memo = PmfMemo::default();
        let mut ws = ExprWorkspace::new();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = ws.mgrid_error(&[1.0, bad], &memo).unwrap_err();
            match err {
                CoreError::Data(msg) => {
                    assert!(msg.contains("non-finite or negative"), "{msg}")
                }
                other => panic!("expected Data error, got {other:?}"),
            }
        }
        // Finite rates whose total passes the Poisson mean cap.
        let cap = crate::poisson::MAX_POISSON_MEAN;
        for rates in [&[1.0, 1e300][..], &[0.6 * cap, 0.6 * cap], &[1e19]] {
            let err = ws.mgrid_error(rates, &memo);
            assert!(
                matches!(&err, Err(CoreError::Data(m)) if m.contains("cap")),
                "{err:?}"
            );
        }
        assert_eq!(ws.cells(), 0, "rejected rates never reach the kernel");
    }
}
