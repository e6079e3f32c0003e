//! A minimal property-test harness: seeded, shrink-free `forall`.
//!
//! Replaces `proptest` for this workspace. Each case draws its inputs
//! from a [`Gen`] seeded as a pure function of the case index, so a
//! failure report ("case 17, seed 0x...") is exactly reproducible by
//! rerunning the test — no shrinking, no persistence files. Generation is
//! closure-driven: instead of strategy combinators, a property takes
//! `&mut Gen` and builds its own inputs with the helpers below.
//!
//! ```
//! use revere_util::prop::forall;
//! use revere_util::RngExt;
//!
//! forall(64, |g| {
//!     let xs: Vec<i64> = g.vec(0..10, |g| g.random_range(-5i64..5));
//!     let mut sorted = xs.clone();
//!     sorted.sort();
//!     sorted.sort();
//!     assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! });
//! ```
//!
//! Set `REVERE_PROP_CASES` to scale every `forall` count (e.g. `=4x` in a
//! soak run, or an absolute number) without touching the tests.

use crate::rng::{splitmix64, RngCore, SeedableRng, StdRng};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Base seed for case derivation. Changing it reshuffles every property
/// test's inputs; keep it fixed so failures stay reproducible across runs.
const BASE_SEED: u64 = 0xC1D8_2003_5EED_0001;

/// Per-case random input source: an [`StdRng`] plus generation helpers.
#[derive(Debug)]
pub struct Gen {
    rng: StdRng,
}

impl RngCore for Gen {
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

impl Gen {
    /// A generator for one explicit seed (the harness does this per case).
    pub fn from_seed(seed: u64) -> Gen {
        Gen { rng: StdRng::seed_from_u64(seed) }
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        use crate::rng::RngExt;
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.rng.random_range(0..xs.len())]
    }

    /// A vector with a length drawn from `len` and elements from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        use crate::rng::RngExt;
        let n = if len.start >= len.end { len.start } else { self.rng.random_range(len) };
        (0..n).map(|_| f(self)).collect()
    }

    /// A string of `len` characters drawn uniformly from `alphabet`.
    pub fn string_from(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| *g.pick(&chars)).into_iter().collect()
    }

    /// A lowercase ASCII identifier-ish string, `[a-z]{len}`.
    pub fn lowercase(&mut self, len: Range<usize>) -> String {
        self.string_from("abcdefghijklmnopqrstuvwxyz", len)
    }
}

/// How many cases to actually run for a nominal count, honoring the
/// `REVERE_PROP_CASES` override (`"256"` absolute or `"4x"` multiplier).
fn effective_cases(nominal: u32) -> u32 {
    match std::env::var("REVERE_PROP_CASES") {
        Ok(v) => {
            if let Some(mult) = v.strip_suffix('x') {
                mult.parse::<f64>()
                    .map(|m| ((nominal as f64 * m).ceil() as u32).max(1))
                    .unwrap_or(nominal)
            } else {
                v.parse().unwrap_or(nominal)
            }
        }
        Err(_) => nominal,
    }
}

/// Run `property` against `cases` independently seeded inputs.
///
/// Panics (failing the enclosing `#[test]`) on the first failing case,
/// after printing to stderr the case index and the seed that reproduces
/// it with [`Gen::from_seed`].
pub fn forall(cases: u32, mut property: impl FnMut(&mut Gen)) {
    let cases = effective_cases(cases);
    for case in 0..cases {
        let mut sm = BASE_SEED ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let seed = splitmix64(&mut sm);
        let mut gen = Gen::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut gen))) {
            eprintln!(
                "property failed at case {case} of {cases}, seed {seed:#018x}: \
                 reproduce with Gen::from_seed({seed:#x})"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngExt;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u32;
        forall(37, |g| {
            ran += 1;
            let x = g.random_range(0u64..1000);
            assert!(x < 1000);
        });
        assert_eq!(ran, 37);
    }

    #[test]
    fn failing_property_panics_with_context() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall(16, |g| {
                let x = g.random_range(0u32..10);
                assert!(x < 5, "drew {x}");
            })
        }));
        assert!(result.is_err(), "a draw ≥ 5 must occur within 16 cases");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let mut first = Vec::new();
        forall(8, |g| first.push(g.next_u64()));
        let mut second = Vec::new();
        forall(8, |g| second.push(g.next_u64()));
        assert_eq!(first, second);
    }

    #[test]
    fn gen_helpers_respect_bounds() {
        forall(32, |g| {
            let v = g.vec(2..5, |g| g.random_range(0i32..3));
            assert!((2..5).contains(&v.len()));
            let s = g.lowercase(1..8);
            assert!((1..8).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let choice = *g.pick(&[10, 20, 30]);
            assert!([10, 20, 30].contains(&choice));
        });
    }
}
