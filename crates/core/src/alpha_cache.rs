//! One-pass α-field derivation: the tuning hot path's cache.
//!
//! Every probe of the search algorithms (Algorithms 4/5) needs the α field
//! on the probed partition's HGrid lattice. [`estimate_alpha`] rescans the
//! **entire** event log per call — `O(|events|)` work that repeats per
//! probe even though the (window, clock) filter never changes during a
//! tuning run.
//!
//! [`AlphaFieldCache`] does the log scan **once**, at construction: it
//! filters the log down to the window's matching (day, slot) pairs and
//! keeps only those events' locations, in log order (the *digest*). The
//! digest is typically a tiny fraction of the log (one slot-of-day out of
//! 48, one month of days), so deriving α for a probed lattice is
//! `O(|digest| + side²)` — independent of the log size — and each derived
//! matrix is memoised per lattice side, so repeated probes of the same
//! side (brute-force + reporting paths) are free.
//!
//! Because the digest preserves event order and the binning loop performs
//! the same additions in the same order as [`estimate_alpha`], the derived
//! matrix is **bit-identical** to the direct estimate — a property the
//! test suite pins down for random events, windows and sides. (A
//! block-aggregation scheme over a single finest lattice was considered
//! and rejected: the paper's budget rule `q = ⌈√N / s⌉` produces lattice
//! sides that do not divide one another, so exact aggregation is
//! impossible in general.)
//!
//! The cache also remembers *which* log events entered the digest (one
//! bit per log event, with a rank per 64-event word), so a bootstrap
//! replicate's cache ([`AlphaFieldCache::bootstrap_replicate`]) is built
//! by mapping each drawn log index straight to its digest slot — the
//! resampled log is never materialised or rescanned.
//!
//! [`estimate_alpha`]: crate::alpha::estimate_alpha

use crate::alpha::AlphaWindow;
use crate::error::CoreError;
use crate::expr_kernel::PmfMemo;
use crate::expression::{try_partition_expression_error, try_quadtree_node_errors};
use crate::resample::replicate_draws;
use gridtuner_obs as obs;
use gridtuner_spatial::{CountMatrix, Event, GridSpec, Partition, Point, SlotClock};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The α-field cache: one event-log pass at construction, `O(digest)`
/// derivation per lattice side afterwards, memoised per side.
///
/// Thread-safe: [`alpha`](AlphaFieldCache::alpha) takes `&self` and may be
/// called concurrently (e.g. from a parallel brute-force sweep).
pub struct AlphaFieldCache {
    /// Locations of the events matching the window, in event-log order.
    digest: Vec<Point>,
    /// Number of matching days (the averaging denominator); 0 disables.
    n_days: usize,
    /// Derived α matrices, keyed by lattice side. `Arc` so callers can
    /// work on a field without holding the lock (or cloning the data).
    derived: Mutex<HashMap<u32, Arc<CountMatrix>>>,
    /// Delta (append-only) scans performed since construction.
    delta_scans: obs::metrics::Counter,
    /// Cross-probe Poisson-table and group-value cache for the batched
    /// expression-error kernel. Its entries are pure functions of a rate
    /// or of a group's `(a, b, m)` bits, so it survives [`append`]
    /// (unlike the derived-field memo) and incremental re-tunes inherit a
    /// warm cache. Held behind an `Arc` so sibling caches — e.g. the
    /// bootstrap-replicate caches of the uncertainty stage — can share
    /// one warm memo: sharing is bit-invisible because hit and miss
    /// paths produce identical values.
    ///
    /// [`append`]: AlphaFieldCache::append
    pmf_memo: Arc<PmfMemo>,
    /// Which indexed log events entered the digest, for
    /// [`bootstrap_replicate`](AlphaFieldCache::bootstrap_replicate).
    index: DigestIndex,
}

/// One 64-event word of a [`DigestIndex`]: the digest-membership bits of
/// the word's events and the digest slot of its first hit (the set bits
/// of every earlier word).
#[derive(Debug, Clone, Copy)]
struct RankedWord {
    bits: u64,
    rank: u32,
}

/// The "log index → digest slot" map: one bit per log event the cache has
/// scanned, set when the event entered the digest. A hit's digest slot is
/// its rank, the number of hits before it, read from the word's stored
/// rank plus a popcount — about 2 bits of memory per log event.
#[derive(Debug, Clone, Default)]
struct DigestIndex {
    words: Vec<RankedWord>,
    len: usize,
}

impl DigestIndex {
    /// Records the next log event.
    #[inline]
    fn push(&mut self, hit: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            let rank = self
                .words
                .last()
                .map_or(0, |w| w.rank + w.bits.count_ones());
            self.words.push(RankedWord { bits: 0, rank });
        }
        if hit {
            if let Some(w) = self.words.last_mut() {
                w.bits |= 1 << bit;
            }
        }
        self.len += 1;
    }

    /// The digest slot of log event `i`, or `None` if it missed the digest.
    #[inline]
    fn slot(&self, i: usize) -> Option<usize> {
        let w = self.words[i / 64];
        let below = w.bits & ((1u64 << (i % 64)) - 1);
        (w.bits >> (i % 64) & 1 == 1).then(|| w.rank as usize + below.count_ones() as usize)
    }
}

/// Marks which global slots a window matches, for O(1) membership checks
/// during a scan — the filter [`estimate_alpha`] applies, factored out so
/// the construction pass and the delta pass use the same code.
///
/// [`estimate_alpha`]: crate::alpha::estimate_alpha
fn matching_slots(days: &[u32], clock: &SlotClock, window: &AlphaWindow) -> Vec<bool> {
    let max_slot = days
        .iter()
        .map(|&d| clock.slot_at(d, window.slot_of_day).index())
        .max()
        .unwrap_or(0); // callers guard against empty windows
    let mut matching = vec![false; max_slot + 1];
    for &d in days {
        matching[clock.slot_at(d, window.slot_of_day).index()] = true;
    }
    matching
}

impl AlphaFieldCache {
    /// Builds the cache with a single pass over `events`.
    pub fn new(events: &[Event], clock: &SlotClock, window: &AlphaWindow) -> Self {
        let _scan = obs::span!("alpha.scan", events = events.len());
        obs::counter!("alpha.rescans").inc();
        let mut cache = AlphaFieldCache {
            digest: Vec::new(),
            n_days: window.days(clock).len(),
            derived: Mutex::new(HashMap::new()),
            delta_scans: obs::metrics::Counter::new(),
            pmf_memo: Arc::new(PmfMemo::default()),
            index: DigestIndex::default(),
        };
        cache.scan(events, clock, window);
        cache
    }

    /// Pushes the events of `events` that match the window onto the
    /// digest, in log order, and records every event in the digest index.
    /// Returns how many matched.
    fn scan(&mut self, events: &[Event], clock: &SlotClock, window: &AlphaWindow) -> usize {
        let before = self.digest.len();
        let days = window.days(clock);
        if days.is_empty() {
            for _ in events {
                self.index.push(false);
            }
            return 0;
        }
        // Mark matching global slots for O(1) membership checks — mirrors
        // estimate_alpha exactly.
        let matching = matching_slots(&days, clock, window);
        for e in events {
            let s = e.slot(clock).index();
            let hit = s < matching.len() && matching[s] && e.loc.in_unit_square();
            if hit {
                self.digest.push(e.loc);
            }
            self.index.push(hit);
        }
        self.digest.len() - before
    }

    /// Appends a delta of new events — the incremental-ingestion hot path.
    ///
    /// Scans **only** `events` (the delta), pushing the locations that
    /// match the window onto the digest. Because the window filter is
    /// per-event and the digest preserves log order, the digest after
    /// appending a delta is bit-identical to rebuilding the cache from the
    /// concatenated log — provided `clock` and `window` are the ones the
    /// cache was built with, and the delta follows the original log in
    /// log order (the session API enforces both).
    ///
    /// Returns the number of delta events that matched the window. When
    /// that is non-zero the derived-field memo is invalidated (every
    /// lattice side's α changes); otherwise all memoised fields stay valid
    /// and re-tuning is a pure cache hit.
    pub fn append(&mut self, events: &[Event], clock: &SlotClock, window: &AlphaWindow) -> usize {
        let _scan = obs::span!("alpha.delta_scan", events = events.len());
        self.delta_scans.inc();
        obs::counter!("alpha.delta_scans").inc();
        let matched = self.scan(events, clock, window);
        if matched > 0 {
            self.lock_derived().clear();
        }
        matched
    }

    /// The α cache of bootstrap replicate `replicate` of the run seeded by
    /// `seed`, over the log this cache has scanned (construction plus every
    /// [`append`](Self::append)) — bit-identical to
    /// `AlphaFieldCache::new(&resample_events(log, seed, replicate), …)`
    /// with the same clock and window. The replicate shares this cache's
    /// [`PmfMemo`], whose tables and group values heavily overlap the
    /// replicate's; sharing is bit-invisible because memo entries are a
    /// pure function of their rate or group key.
    ///
    /// Consumes the exact [`replicate_draws`] stream, in draw order, and
    /// maps each drawn log index through the digest index: a hit appends
    /// that digest location, a miss is dropped — exactly what a scan of the
    /// materialised resample would keep, in the same order. The replicate
    /// indexes no log of its own, so it cannot be appended to or resampled
    /// again meaningfully.
    pub fn bootstrap_replicate(&self, seed: u64, replicate: u64) -> AlphaFieldCache {
        let _span = obs::span!("alpha.replicate", events = self.index.len);
        let mut digest = Vec::with_capacity(self.digest.len() + self.digest.len() / 8);
        if !self.digest.is_empty() {
            for i in replicate_draws(self.index.len, seed, replicate) {
                if let Some(slot) = self.index.slot(i) {
                    digest.push(self.digest[slot]);
                }
            }
        }
        AlphaFieldCache {
            digest,
            n_days: self.n_days,
            derived: Mutex::new(HashMap::new()),
            delta_scans: obs::metrics::Counter::new(),
            pmf_memo: Arc::clone(&self.pmf_memo),
            index: DigestIndex::default(),
        }
    }

    /// The derived-field memo, immune to lock poisoning: a panic in a
    /// sibling thread must not cascade into every later probe (the map
    /// holds only finished, immutable matrices, so the data is never
    /// half-written).
    fn lock_derived(&self) -> MutexGuard<'_, HashMap<u32, Arc<CountMatrix>>> {
        self.derived.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The α field on `spec`'s lattice — bit-identical to
    /// [`crate::alpha::estimate_alpha`] over the original log, without
    /// touching it. Memoised per side; the lock is held only for map
    /// access, so concurrent probes of different sides derive in parallel.
    pub fn alpha(&self, spec: GridSpec) -> Arc<CountMatrix> {
        if let Some(m) = self.lock_derived().get(&spec.side()) {
            obs::counter!("alpha.cache_hits").inc();
            return Arc::clone(m);
        }
        obs::counter!("alpha.derives").inc();
        let m = {
            let _derive = obs::span!("alpha.derive", side = spec.side());
            Arc::new(self.derive(spec))
        };
        Arc::clone(self.lock_derived().entry(spec.side()).or_insert(m))
    }

    /// Total expression error for the square `partition`, with the α field
    /// served from this cache and the Poisson tables served from the cache's
    /// cross-probe [`PmfMemo`] — the probe hot path. Thread-safe, like
    /// [`alpha`](Self::alpha); the note in the [`append`](Self::append)
    /// docs applies to the pmf memo too (it is never invalidated: its
    /// entries depend only on the rate).
    pub fn expression_error(&self, partition: &Partition) -> Result<f64, CoreError> {
        let alpha = self.alpha(partition.hgrid_spec());
        try_partition_expression_error(&alpha, partition, Some(&*self.pmf_memo))
    }

    /// `E(node)` for every node of the complete quadtree over the lattice
    /// of side `lattice` (a power of two), laid out as
    /// [`try_quadtree_node_errors`] documents, with the α field and the
    /// Poisson tables served from this cache's memos. The pmf memo is keyed
    /// by rate alone, so the square sweeps and the node table share it.
    /// [`quadtree_expression_error`](crate::expression::quadtree_expression_error)
    /// scores any quadtree over the lattice from the table.
    pub fn quadtree_node_errors(&self, lattice: u32) -> Result<Vec<f64>, CoreError> {
        let alpha = self.alpha(GridSpec::new(lattice));
        try_quadtree_node_errors(&alpha, Some(&*self.pmf_memo))
    }

    /// The cross-probe Poisson-table and group-value cache.
    pub fn pmf_memo(&self) -> &PmfMemo {
        &self.pmf_memo
    }

    /// Bins the digest into one integer count per cell, then writes each
    /// cell once as `count · (1/days)`. Integer sums below 2⁵³ are exact
    /// in f64, so this has the bits of adding `1.0` per event and scaling
    /// the matrix, the order [`crate::alpha::estimate_alpha`] uses.
    fn derive(&self, spec: GridSpec) -> CountMatrix {
        let mut alpha = CountMatrix::zeros(spec.side());
        if self.n_days == 0 {
            return alpha;
        }
        // Digest locations lie in the unit square by construction, so every
        // one lands in a cell: `cell_of` without its bounds check.
        let side = spec.side() as usize;
        let scale = spec.side() as f64;
        let mut counts = vec![0u32; side * side];
        for p in &self.digest {
            let col = ((p.x * scale) as usize).min(side - 1);
            let row = ((p.y * scale) as usize).min(side - 1);
            counts[row * side + col] += 1;
        }
        #[cfg(feature = "check-invariants")]
        {
            // Mass conservation: no digest location lies outside the unit
            // square, where the clamped binning above would misplace it,
            // and every one is counted once.
            let inside = self.digest.iter().filter(|p| p.in_unit_square()).count();
            let binned: usize = counts.iter().map(|&c| c as usize).sum();
            assert!(
                inside == self.digest.len() && binned == inside,
                "alpha-field mass leak: {binned} binned, {inside} of {} digest events inside \
                 the unit square on side {}",
                self.digest.len(),
                spec.side()
            );
        }
        let k = 1.0 / self.n_days as f64;
        for (v, &c) in alpha.as_mut_slice().iter_mut().zip(&counts) {
            *v = f64::from(c) * k;
        }
        alpha
    }

    /// Number of events that survived the window filter.
    pub fn digest_len(&self) -> usize {
        self.digest.len()
    }

    /// Delta (append-only) scans performed since construction.
    pub fn delta_scans(&self) -> u64 {
        self.delta_scans.get()
    }

    /// Number of distinct lattice sides derived so far.
    pub fn derived_sides(&self) -> usize {
        self.lock_derived().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::estimate_alpha;
    use crate::resample::resample_events;
    use gridtuner_spatial::Point;

    fn clock() -> SlotClock {
        SlotClock::default()
    }

    fn window(day_end: u32) -> AlphaWindow {
        AlphaWindow {
            slot_of_day: 0,
            day_start: 0,
            day_end,
            weekdays_only: false,
        }
    }

    fn scattered_events(n: usize, days: u32) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    Point::new((i as f64 * 0.6180339) % 1.0, (i as f64 * 0.3141592) % 1.0),
                    (i as u32 % days) * 24 * 60 + (i as u32 % 40),
                )
            })
            .collect()
    }

    #[test]
    fn cache_matches_direct_estimate_bitwise() {
        let events = scattered_events(500, 5);
        let c = clock();
        let w = window(5);
        let cache = AlphaFieldCache::new(&events, &c, &w);
        for side in [1u32, 2, 3, 7, 16, 33, 128, 130] {
            let direct = estimate_alpha(&events, GridSpec::new(side), &c, &w);
            let derived = cache.alpha(GridSpec::new(side));
            assert_eq!(
                direct.as_slice(),
                derived.as_slice(),
                "side {side}: cache must be bit-identical"
            );
        }
        assert_eq!(cache.derived_sides(), 8);
    }

    #[test]
    fn repeated_probes_hit_the_memo() {
        let events = scattered_events(100, 3);
        let cache = AlphaFieldCache::new(&events, &clock(), &window(3));
        let a = cache.alpha(GridSpec::new(8));
        let b = cache.alpha(GridSpec::new(8));
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(cache.derived_sides(), 1);
    }

    #[test]
    fn empty_window_yields_zero_fields() {
        let events = scattered_events(50, 2);
        let w = AlphaWindow {
            slot_of_day: 0,
            day_start: 4,
            day_end: 4,
            weekdays_only: false,
        };
        let cache = AlphaFieldCache::new(&events, &clock(), &w);
        assert_eq!(cache.digest_len(), 0);
        assert_eq!(cache.alpha(GridSpec::new(4)).total(), 0.0);
    }

    #[test]
    fn digest_drops_non_matching_slots() {
        // Events at slot 1 must not enter a slot-0 window's digest.
        let events = vec![
            Event::new(Point::new(0.5, 0.5), 0),  // slot 0: kept
            Event::new(Point::new(0.5, 0.5), 45), // slot 1: dropped
        ];
        let cache = AlphaFieldCache::new(&events, &clock(), &window(1));
        assert_eq!(cache.digest_len(), 1);
    }

    #[test]
    fn append_matches_rebuild_bitwise() {
        let all = scattered_events(400, 5);
        let (old, delta) = all.split_at(250);
        let c = clock();
        let w = window(5);
        let mut cache = AlphaFieldCache::new(old, &c, &w);
        cache.alpha(GridSpec::new(9)); // warm the memo — append must invalidate it
        let matched = cache.append(delta, &c, &w);
        assert!(matched > 0, "delta must contain matching events");
        let rebuilt = AlphaFieldCache::new(&all, &c, &w);
        for side in [1u32, 4, 9, 17, 64] {
            assert_eq!(
                cache.alpha(GridSpec::new(side)).as_slice(),
                rebuilt.alpha(GridSpec::new(side)).as_slice(),
                "side {side}: append must equal rebuild bit-for-bit"
            );
        }
        // The delta went through the cheap path.
        assert_eq!(cache.delta_scans(), 1);
    }

    #[test]
    fn append_of_non_matching_events_keeps_the_memo() {
        let events = scattered_events(200, 3);
        let c = clock();
        let w = window(3);
        let mut cache = AlphaFieldCache::new(&events, &c, &w);
        let before = cache.alpha(GridSpec::new(6));
        // Slot 1 of day 0 never matches a slot-0 window.
        let delta = vec![Event::new(Point::new(0.5, 0.5), 45)];
        assert_eq!(cache.append(&delta, &c, &w), 0);
        assert_eq!(cache.derived_sides(), 1, "memo must survive a no-op delta");
        let after = cache.alpha(GridSpec::new(6));
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn expression_error_matches_direct_sweep_bitwise() {
        use crate::expression::try_partition_expression_error;
        use gridtuner_spatial::Partition;
        let events = scattered_events(400, 5);
        let cache = AlphaFieldCache::new(&events, &clock(), &window(5));
        for side in [1u32, 3, 8] {
            let part = Partition::for_budget(side, 16);
            let via_cache = cache.expression_error(&part).unwrap();
            let direct =
                try_partition_expression_error(&cache.alpha(part.hgrid_spec()), &part, None)
                    .unwrap();
            assert_eq!(
                via_cache.to_bits(),
                direct.to_bits(),
                "side {side}: memoised sweep drifted"
            );
        }
    }

    #[test]
    fn pmf_memo_survives_appends_and_serves_re_tunes() {
        use gridtuner_spatial::Partition;
        let all = scattered_events(400, 5);
        let (old, delta) = all.split_at(250);
        let c = clock();
        let w = window(5);
        let mut cache = AlphaFieldCache::new(old, &c, &w);
        let part = Partition::for_budget(4, 16);
        cache.expression_error(&part).unwrap();
        let warm_entries = cache.pmf_memo().entries();
        assert!(warm_entries > 0, "sweep must populate the pmf memo");
        assert!(cache.append(delta, &c, &w) > 0);
        // The derived-field memo was invalidated; the pmf memo was not.
        assert_eq!(cache.derived_sides(), 0);
        assert_eq!(cache.pmf_memo().entries(), warm_entries);
        // And the re-tune matches a from-scratch cache bit for bit.
        let rebuilt = AlphaFieldCache::new(&all, &c, &w);
        assert_eq!(
            cache.expression_error(&part).unwrap().to_bits(),
            rebuilt.expression_error(&part).unwrap().to_bits()
        );
    }

    #[test]
    fn shared_pmf_is_bit_invisible() {
        use gridtuner_spatial::Partition;
        let events = scattered_events(300, 4);
        let c = clock();
        let w = window(4);
        let warm = AlphaFieldCache::new(&events, &c, &w);
        let part = Partition::for_budget(5, 16);
        warm.expression_error(&part).unwrap();
        // A replicate sharing the (now warm) memo must produce the bits a
        // cold cache over the same resampled events produces.
        let replicate = warm.bootstrap_replicate(3, 1);
        assert!(Arc::ptr_eq(&warm.pmf_memo, &replicate.pmf_memo));
        let cold = AlphaFieldCache::new(&resample_events(&events, 3, 1), &c, &w);
        assert_eq!(
            replicate.expression_error(&part).unwrap().to_bits(),
            cold.expression_error(&part).unwrap().to_bits()
        );
    }

    /// Every lattice side the replicate tests compare on.
    const REPLICATE_SIDES: [u32; 7] = [1, 2, 3, 8, 13, 32, 64];

    /// The materialising oracle: a fresh cache over the resampled log.
    fn assert_replicate_matches_resample(cache: &AlphaFieldCache, log: &[Event], w: &AlphaWindow) {
        for (seed, r) in [(7u64, 0u64), (7, 1), (2022, 3)] {
            let drawn = cache.bootstrap_replicate(seed, r);
            let direct = AlphaFieldCache::new(&resample_events(log, seed, r), &clock(), w);
            assert_eq!(drawn.digest_len(), direct.digest_len(), "seed {seed} r {r}");
            for side in REPLICATE_SIDES {
                let spec = GridSpec::new(side);
                assert_eq!(
                    drawn.alpha(spec).as_slice(),
                    direct.alpha(spec).as_slice(),
                    "seed {seed} replicate {r} side {side}: drawn replicate drifted"
                );
            }
            assert!(Arc::ptr_eq(&drawn.pmf_memo, &cache.pmf_memo));
        }
    }

    /// A log with events outside the α window (slot 1, day 9) and outside
    /// the unit square, interleaved with matching ones.
    fn mixed_log(n: usize) -> Vec<Event> {
        scattered_events(n, 6)
            .into_iter()
            .enumerate()
            .map(|(i, e)| match i % 5 {
                1 => Event::new(Point::new(1.0 + e.loc.x, e.loc.y), e.minute),
                2 => Event::new(e.loc, e.minute + 45),
                3 => Event::new(e.loc, 9 * 24 * 60),
                _ => e,
            })
            .collect()
    }

    #[test]
    fn replicate_digest_equals_the_materialised_resample() {
        let log = mixed_log(600);
        let w = window(5);
        let cache = AlphaFieldCache::new(&log, &clock(), &w);
        assert!(cache.digest_len() > 0 && cache.digest_len() < log.len());
        assert_replicate_matches_resample(&cache, &log, &w);
    }

    #[test]
    fn replicate_of_an_appended_cache_equals_the_materialised_resample() {
        let log = mixed_log(700);
        let w = window(5);
        // Deltas that do not fall on 64-event word boundaries.
        let mut cache = AlphaFieldCache::new(&log[..101], &clock(), &w);
        cache.append(&log[101..300], &clock(), &w);
        cache.append(&log[300..300], &clock(), &w);
        cache.append(&log[300..], &clock(), &w);
        assert_replicate_matches_resample(&cache, &log, &w);
    }

    #[test]
    fn replicate_keeps_duplicate_draws() {
        // Four events, four draws: some index is drawn twice for this
        // stream, and each copy must count.
        let log = scattered_events(4, 1);
        let w = window(1);
        let draws: Vec<usize> = replicate_draws(log.len(), 5, 0).collect();
        let mut distinct = draws.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() < draws.len(),
            "stream has no duplicate: {draws:?}"
        );
        let cache = AlphaFieldCache::new(&log, &clock(), &w);
        assert_eq!(cache.bootstrap_replicate(5, 0).digest_len(), log.len());
        let direct = AlphaFieldCache::new(&resample_events(&log, 5, 0), &clock(), &w);
        let drawn = cache.bootstrap_replicate(5, 0);
        for side in REPLICATE_SIDES {
            let spec = GridSpec::new(side);
            assert_eq!(drawn.alpha(spec).as_slice(), direct.alpha(spec).as_slice());
        }
    }

    #[test]
    fn replicate_of_an_empty_log_is_empty() {
        let w = window(3);
        let cache = AlphaFieldCache::new(&[], &clock(), &w);
        let drawn = cache.bootstrap_replicate(1, 0);
        assert_eq!(drawn.digest_len(), 0);
        let direct = AlphaFieldCache::new(&resample_events(&[], 1, 0), &clock(), &w);
        for side in REPLICATE_SIDES {
            let spec = GridSpec::new(side);
            assert_eq!(drawn.alpha(spec).as_slice(), direct.alpha(spec).as_slice());
        }
    }

    #[test]
    fn concurrent_probes_are_safe() {
        let events = scattered_events(300, 4);
        let cache = AlphaFieldCache::new(&events, &clock(), &window(4));
        let sides: Vec<u32> = (1..=16).collect();
        let totals = gridtuner_par::par_map(&sides, |&s| cache.alpha(GridSpec::new(s)).total());
        // Mass is resolution-invariant: every derived field carries the
        // same total.
        for t in &totals {
            assert!((t - totals[0]).abs() < 1e-9);
        }
    }
}
