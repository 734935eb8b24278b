//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! This workspace is built in environments without access to crates.io, so the
//! subset of the `rand` 0.8 API that the simulator actually uses is provided
//! here as an in-tree crate with the same package name. The generator behind
//! [`rngs::StdRng`] is xoshiro256++ seeded through SplitMix64 — a fast,
//! well-studied, allocation-free PRNG that is more than adequate for driving
//! simulations (it is **not** cryptographically secure, and neither API nor
//! stream compatibility with the real `rand::rngs::StdRng` is promised — only
//! determinism per seed within this workspace).
//!
//! Provided surface:
//!
//! * [`RngCore`] — the object-safe generator trait (`next_u32`, `next_u64`,
//!   `fill_bytes`), implemented for `&mut R` so `&mut dyn RngCore` works;
//! * [`Rng`] — the user-facing extension trait with [`Rng::gen_range`] (over
//!   `Range`/`RangeInclusive` of the primitive integer types) and
//!   [`Rng::gen_bool`], blanket-implemented for every `RngCore`;
//! * [`SeedableRng`] with [`SeedableRng::seed_from_u64`];
//! * [`rngs::StdRng`] and [`thread_rng`] / [`rngs::ThreadRng`];
//! * [`rngs::CounterRng`] — a counter-based (Philox-style) generator whose
//!   stream is addressed by a key rather than evolved sequentially, the
//!   primitive behind the simulator's order-invariant per-node randomness
//!   (this one is an extension over the real `rand` API).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: a source of uniformly random words.
///
/// Object safe, so algorithms can take `&mut dyn RngCore`.
pub trait RngCore {
    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly random value from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        // 53 random mantissa bits give a uniform float in [0, 1).
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range that a uniform sample can be drawn from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Draws a uniform `u64` in `[0, span)` without modulo bias (`span > 0`).
fn sample_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let offset = sample_below(rng, span);
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t; // the full 64-bit domain
                }
                let offset = sample_below(rng, span as u64);
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let unit = ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// A generator that can be deterministically constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (expanded through SplitMix64).
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Not stream-compatible with the real `rand::rngs::StdRng` (which is
    /// ChaCha-based); determinism per seed is all the simulator relies on.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// The SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
    #[inline]
    fn mix64(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(*state)
    }

    /// A *counter-based* generator: the `i`-th output is a pure function of
    /// `(key, i)`, with no sequential state beyond the counter itself.
    ///
    /// Counter-based RNGs (in the spirit of Philox/Threefry from "Parallel
    /// random numbers: as easy as 1, 2, 3", SC'11) make random streams
    /// *addressable*: two parties that agree on the key draw identical
    /// sequences regardless of when, where, or in which order they draw. The
    /// simulator keys one stream per `(seed, node, activation time)` triple,
    /// which makes randomized transitions independent of the order in which
    /// an activation set is evaluated.
    ///
    /// The construction here is the SplitMix64 stream cipher form: output
    /// `i` is `mix64(key + i·φ)` where `φ` is the golden-ratio increment and
    /// `mix64` the SplitMix64 finalizer. Statistically this is exactly a
    /// SplitMix64 sequence started at `key` — adequate for simulation, not
    /// cryptography.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CounterRng {
        key: u64,
        ctr: u64,
    }

    impl CounterRng {
        /// A stream addressed directly by a fully mixed 64-bit key.
        pub fn from_key(key: u64) -> Self {
            CounterRng { key, ctr: 0 }
        }

        /// A stream addressed by a `(seed, stream, substream)` triple — e.g.
        /// `(execution seed, node id, step counter)`. The triple is absorbed
        /// through two finalizer rounds with distinct odd multipliers so that
        /// nearby triples (consecutive nodes, consecutive steps) land on
        /// uncorrelated keys.
        pub fn keyed(seed: u64, stream: u64, substream: u64) -> Self {
            let k = mix64(seed ^ stream.wrapping_mul(0xa24b_aed4_963e_e407));
            let k = mix64(k ^ substream.wrapping_mul(0x9fb2_1c65_1e98_df25));
            CounterRng { key: k, ctr: 0 }
        }

        /// Number of values drawn from the stream so far.
        pub fn draws(&self) -> u64 {
            self.ctr
        }
    }

    impl RngCore for CounterRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let z = self
                .key
                .wrapping_add(self.ctr.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            self.ctr += 1;
            mix64(z)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    impl StdRng {
        /// The generator's internal xoshiro256++ state words, for
        /// checkpointing. Restoring via [`StdRng::from_state`] resumes the
        /// stream exactly where [`StdRng::state`] captured it.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from state words captured by
        /// [`StdRng::state`].
        ///
        /// # Panics
        ///
        /// Panics if the state is all-zero (xoshiro256++ cannot leave the
        /// zero state; no call to [`StdRng::state`] can produce it).
        pub fn from_state(s: [u64; 4]) -> Self {
            assert!(
                s != [0; 4],
                "the all-zero state is not a valid xoshiro256++ state"
            );
            StdRng { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut state);
            }
            // xoshiro256++ requires a non-zero state; SplitMix64 cannot emit
            // four zero words from any seed, but keep the guard for clarity.
            if s == [0; 4] {
                s[0] = 0x1;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    /// A non-deterministically seeded generator, as returned by
    /// [`thread_rng`](super::thread_rng).
    #[derive(Debug, Clone)]
    pub struct ThreadRng {
        inner: StdRng,
    }

    impl ThreadRng {
        pub(crate) fn new() -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            use std::time::{SystemTime, UNIX_EPOCH};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
            ThreadRng {
                inner: StdRng::seed_from_u64(nanos ^ unique.rotate_left(32)),
            }
        }
    }

    impl RngCore for ThreadRng {
        fn next_u32(&mut self) -> u32 {
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.inner.fill_bytes(dest)
        }
    }
}

/// Returns a freshly (non-deterministically) seeded generator.
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng::new()
}

#[cfg(test)]
mod tests {
    use super::rngs::{CounterRng, StdRng};
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn counter_rng_is_deterministic_per_key() {
        let mut a = CounterRng::keyed(7, 3, 11);
        let mut b = CounterRng::keyed(7, 3, 11);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.draws(), 100);
    }

    #[test]
    fn counter_rng_streams_are_distinct_across_the_triple() {
        let base: Vec<u64> = {
            let mut r = CounterRng::keyed(1, 2, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        for (s, n, t) in [(2, 2, 3), (1, 3, 3), (1, 2, 4), (0, 0, 0)] {
            let mut r = CounterRng::keyed(s, n, t);
            let other: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
            assert_ne!(base, other, "stream ({s}, {n}, {t}) collided");
        }
    }

    #[test]
    fn counter_rng_draws_are_roughly_uniform() {
        let mut rng = CounterRng::keyed(42, 0, 0);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[rng.gen_range(0..16usize)] = true;
        }
        assert!(seen.iter().all(|s| *s));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "{heads}");
    }

    #[test]
    fn counter_rng_from_key_matches_zero_counter_stream() {
        let mut a = CounterRng::from_key(0xdead_beef);
        let mut b = CounterRng::from_key(0xdead_beef);
        b.next_u64();
        // `a` one step behind `b`'s stream: from_key starts at counter 0.
        let first = a.next_u64();
        let second = a.next_u64();
        assert_eq!(second, b.next_u64());
        assert_ne!(first, second);
    }

    #[test]
    fn std_rng_state_roundtrip_resumes_the_stream() {
        let mut a = StdRng::seed_from_u64(41);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "all-zero state")]
    fn std_rng_rejects_zero_state() {
        StdRng::from_state([0; 4]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u32 = rng.gen_range(1..=4);
            assert!((1..=4).contains(&y));
            let z: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&z));
        }
    }

    #[test]
    fn gen_range_covers_the_domain() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_extremes_and_rough_fairness() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "{heads}");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn dyn_rng_core_works() {
        let mut rng = StdRng::seed_from_u64(5);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let x: usize = dyn_rng.gen_range(0..10);
        assert!(x < 10);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn gen_bool_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        rng.gen_bool(1.5);
    }
}
