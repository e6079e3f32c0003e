//! Deterministic fault injection for the simulated peer overlay.
//!
//! Production peers fail; the paper's §3.1 peers "join and leave at will".
//! A [`FaultPlan`] decides — as a *pure function* of a seed — which peers
//! are down, which messages are lost or answered with a transient error,
//! and how many latency ticks a delivery costs. Because every decision is
//! derived by hashing `(seed, peer, message key, attempt)` rather than by
//! consuming a shared mutable RNG stream, the same plan gives identical
//! verdicts regardless of evaluation order: sequential and multi-threaded
//! query paths observe the same network weather, and a chaos run replays
//! exactly from its seed.
//!
//! [`RetryPolicy`] (capped exponential backoff) is the standard knob both
//! the query fetch path and updategram shipping use to ride out transient
//! fates. An all-zero [`FaultSpec`] (the default) is the perfect network:
//! every message delivers instantly, so fault-aware call sites behave
//! byte-identically to their pre-chaos versions.

use crate::rng::splitmix64;
use std::collections::{BTreeMap, BTreeSet};

/// FNV-1a 64-bit hash: a stable, dependency-free string hash used to key
/// fault decisions on peer and message names.
pub fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Mix a sequence of words into one via SplitMix64 steps (order-sensitive,
/// avalanche-quality). The basis constant keeps `mix(&[])` away from 0.
/// Public because it is the workspace's shared pure-hash coin: the fault
/// plan and the monitor's probe draws derive deterministic verdicts from
/// it.
pub fn mix(parts: &[u64]) -> u64 {
    let mut s: u64 = 0x243F_6A88_85A3_08D3; // π digits
    for &p in parts {
        let mut t = s ^ p;
        s = splitmix64(&mut t);
    }
    s
}

/// Map a hash word to `[0, 1)` with 53 bits of precision.
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// Role salts so the same (peer, key) draws independent dice per question.
const SALT_OUTAGE: u64 = 0x0FA1;
const SALT_DROP: u64 = 0x0D10;
const SALT_FLAKY: u64 = 0x0F1A;
const SALT_LATENCY: u64 = 0x01A7;
const SALT_DUP: u64 = 0x0D0B;
const SALT_CRASH: u64 = 0x0C5A;
const SALT_CRASH_TICK: u64 = 0x0C71;

/// The chaos dial: probabilities and ranges a [`FaultPlan`] draws from.
///
/// The default is all-zero — a perfect network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability that a given peer is down for the whole run.
    pub outage_prob: f64,
    /// Peers that are down unconditionally (targeted chaos for tests).
    pub down_peers: BTreeSet<String>,
    /// Per-message probability the request vanishes in flight.
    pub drop_prob: f64,
    /// Per-message probability of a transient (retryable) error response.
    pub flaky_prob: f64,
    /// Inclusive `(min, max)` latency ticks charged per delivered message.
    pub latency_ticks: (u64, u64),
    /// Probability a delivered message is delivered a second time
    /// (exercises receiver-side idempotence).
    pub duplicate_prob: f64,
    /// Deterministic kill-at-tick events: peer → the simulation tick at
    /// which it crashes (targeted chaos for tests and E16). From that
    /// tick on the peer is down until the harness restarts it.
    pub crashes: BTreeMap<String, u64>,
    /// Probability a peer draws a seeded crash tick from `crash_window`.
    pub crash_prob: f64,
    /// Inclusive `(min, max)` tick window seeded crashes are drawn from.
    pub crash_window: (u64, u64),
}

impl FaultSpec {
    /// A one-dial chaos profile: peer outages at `failure_rate`, drops and
    /// flaky responses at half of it each, duplication at a quarter, and
    /// 1–4 ticks of latency once any fault is possible.
    pub fn chaos(seed: u64, failure_rate: f64) -> Self {
        let f = failure_rate.clamp(0.0, 1.0);
        FaultSpec {
            seed,
            outage_prob: f,
            down_peers: BTreeSet::new(),
            drop_prob: f / 2.0,
            flaky_prob: f / 2.0,
            latency_ticks: if f > 0.0 { (1, 4) } else { (0, 0) },
            duplicate_prob: f / 4.0,
            ..FaultSpec::default()
        }
    }

    /// Mark one peer as unconditionally down.
    pub fn with_down_peer(mut self, peer: impl Into<String>) -> Self {
        self.down_peers.insert(peer.into());
        self
    }

    /// Schedule a deterministic crash: `peer` dies at `tick`.
    pub fn with_crash(mut self, peer: impl Into<String>, tick: u64) -> Self {
        self.crashes.insert(peer.into(), tick);
        self
    }
}

/// What happened to one message attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Request and response both arrive, after `latency` ticks.
    Delivered {
        /// Simulated ticks the round trip costs.
        latency: u64,
    },
    /// The request is lost; the sender times out and may retry.
    Dropped,
    /// The peer answers with a transient error; retryable.
    Flaky,
}

/// A sealed, replayable fault schedule: [`FaultSpec`] plus the pure-hash
/// derivation of every verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Seal a spec into a plan.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan { spec }
    }

    /// The perfect network: nothing fails, nothing waits.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Borrow the spec this plan was sealed from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// True when no fault can ever fire (the happy-path fast check).
    pub fn is_zero(&self) -> bool {
        let s = &self.spec;
        s.outage_prob <= 0.0
            && s.down_peers.is_empty()
            && s.drop_prob <= 0.0
            && s.flaky_prob <= 0.0
            && s.duplicate_prob <= 0.0
            && s.latency_ticks == (0, 0)
            && s.crashes.is_empty()
            && s.crash_prob <= 0.0
    }

    /// Is `peer` down for the whole run?
    pub fn is_down(&self, peer: &str) -> bool {
        if self.spec.down_peers.contains(peer) {
            return true;
        }
        self.spec.outage_prob > 0.0
            && unit(mix(&[self.spec.seed, SALT_OUTAGE, stable_hash(peer)])) < self.spec.outage_prob
    }

    /// The tick at which `peer` crashes, if it does: an explicit
    /// [`FaultSpec::crashes`] entry wins; otherwise a seeded draw fires
    /// with probability `crash_prob` and picks a tick in `crash_window`.
    pub fn crash_tick(&self, peer: &str) -> Option<u64> {
        if let Some(&t) = self.spec.crashes.get(peer) {
            return Some(t);
        }
        if self.spec.crash_prob > 0.0
            && unit(mix(&[self.spec.seed, SALT_CRASH, stable_hash(peer)])) < self.spec.crash_prob
        {
            let (lo, hi) = self.spec.crash_window;
            let tick = if hi > lo {
                lo + mix(&[self.spec.seed, SALT_CRASH_TICK, stable_hash(peer)]) % (hi - lo + 1)
            } else {
                lo
            };
            return Some(tick);
        }
        None
    }

    /// Is `peer` unreachable at simulation tick `tick`? Covers both
    /// whole-run outages ([`FaultPlan::is_down`]) and crashes whose tick
    /// has passed (a crashed peer stays down until the harness restarts
    /// it — queries in between must report the gap, not shrink silently).
    pub fn is_down_at(&self, peer: &str, tick: u64) -> bool {
        self.is_down(peer) || self.crash_tick(peer).is_some_and(|t| tick >= t)
    }

    /// The fate of attempt number `attempt` of message `key` to `peer`.
    /// (A down peer never answers; callers check [`FaultPlan::is_down`]
    /// first.)
    pub fn fate(&self, peer: &str, key: &str, attempt: u32) -> Fate {
        let p = stable_hash(peer);
        let k = stable_hash(key);
        let a = u64::from(attempt);
        if self.spec.drop_prob > 0.0
            && unit(mix(&[self.spec.seed, SALT_DROP, p, k, a])) < self.spec.drop_prob
        {
            return Fate::Dropped;
        }
        if self.spec.flaky_prob > 0.0
            && unit(mix(&[self.spec.seed, SALT_FLAKY, p, k, a])) < self.spec.flaky_prob
        {
            return Fate::Flaky;
        }
        let (lo, hi) = self.spec.latency_ticks;
        let latency = if hi > lo {
            lo + mix(&[self.spec.seed, SALT_LATENCY, p, k, a]) % (hi - lo + 1)
        } else {
            lo
        };
        Fate::Delivered { latency }
    }

    /// Should delivered message `key` arrive a second time?
    pub fn duplicates(&self, peer: &str, key: &str) -> bool {
        self.spec.duplicate_prob > 0.0
            && unit(mix(&[self.spec.seed, SALT_DUP, stable_hash(peer), stable_hash(key)]))
                < self.spec.duplicate_prob
    }
}

/// Retry with capped exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1 is always made.
    pub max_attempts: u32,
    /// Backoff ticks after the first failed attempt.
    pub base_backoff: u64,
    /// Ceiling on the per-attempt backoff.
    pub max_backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, base_backoff: 1, max_backoff: 8 }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, no waiting.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, base_backoff: 0, max_backoff: 0 }
    }

    /// Backoff ticks charged after failed attempt number `attempt`
    /// (0-based): `min(base · 2^attempt, max)`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shifted = self
            .base_backoff
            .checked_shl(attempt.min(63))
            .unwrap_or(self.max_backoff);
        shifted.min(self.max_backoff)
    }

    /// Attempts, never less than one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_always_delivers_instantly() {
        let plan = FaultPlan::zero();
        assert!(plan.is_zero());
        for peer in ["A", "B", "C"] {
            assert!(!plan.is_down(peer));
            for attempt in 0..5 {
                assert_eq!(plan.fate(peer, "r", attempt), Fate::Delivered { latency: 0 });
            }
            assert!(!plan.duplicates(peer, "g1"));
        }
    }

    #[test]
    fn verdicts_are_pure_functions_of_the_seed() {
        let a = FaultPlan::new(FaultSpec::chaos(42, 0.3));
        let b = FaultPlan::new(FaultSpec::chaos(42, 0.3));
        for peer in ["P0", "P1", "P2", "P3"] {
            assert_eq!(a.is_down(peer), b.is_down(peer));
            for attempt in 0..4 {
                assert_eq!(a.fate(peer, "P1.course", attempt), b.fate(peer, "P1.course", attempt));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_weather() {
        let a = FaultPlan::new(FaultSpec::chaos(1, 0.5));
        let b = FaultPlan::new(FaultSpec::chaos(2, 0.5));
        let fates_a: Vec<Fate> = (0..64).map(|i| a.fate("P", &format!("k{i}"), 0)).collect();
        let fates_b: Vec<Fate> = (0..64).map(|i| b.fate("P", &format!("k{i}"), 0)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn down_peers_grow_monotonically_with_failure_rate() {
        // Same seed, rising rate: the down set only gains members, because
        // each peer's outage die is fixed and only the threshold moves.
        let peers: Vec<String> = (0..32).map(|i| format!("P{i}")).collect();
        let mut prev: BTreeSet<&str> = BTreeSet::new();
        for rate in [0.0, 0.1, 0.25, 0.5, 0.9] {
            let plan = FaultPlan::new(FaultSpec::chaos(7, rate));
            let down: BTreeSet<&str> =
                peers.iter().filter(|p| plan.is_down(p)).map(String::as_str).collect();
            assert!(down.is_superset(&prev), "rate {rate}: {down:?} ⊉ {prev:?}");
            prev = down;
        }
    }

    #[test]
    fn explicit_down_peer_overrides_probability() {
        let plan = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
        assert!(plan.is_down("Berkeley"));
        assert!(!plan.is_down("MIT"));
        assert!(!plan.is_zero());
    }

    #[test]
    fn explicit_crash_tick_downs_the_peer_from_that_tick_on() {
        let plan = FaultPlan::new(FaultSpec::default().with_crash("Berkeley", 5));
        assert!(!plan.is_zero());
        assert_eq!(plan.crash_tick("Berkeley"), Some(5));
        assert_eq!(plan.crash_tick("MIT"), None);
        assert!(!plan.is_down("Berkeley"), "a crash is not a whole-run outage");
        assert!(!plan.is_down_at("Berkeley", 4));
        assert!(plan.is_down_at("Berkeley", 5));
        assert!(plan.is_down_at("Berkeley", 99));
        assert!(!plan.is_down_at("MIT", 99));
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_land_in_the_window() {
        let spec = FaultSpec {
            seed: 11,
            crash_prob: 0.5,
            crash_window: (3, 9),
            ..FaultSpec::default()
        };
        let a = FaultPlan::new(spec.clone());
        let b = FaultPlan::new(spec);
        let peers: Vec<String> = (0..64).map(|i| format!("P{i}")).collect();
        let mut crashed = 0;
        for p in &peers {
            assert_eq!(a.crash_tick(p), b.crash_tick(p), "pure function of the seed");
            if let Some(t) = a.crash_tick(p) {
                crashed += 1;
                assert!((3..=9).contains(&t), "{p} crashes at {t}");
            }
        }
        assert!((16..=48).contains(&crashed), "p=0.5 gave {crashed}/64");
    }

    #[test]
    fn fault_rates_are_roughly_calibrated() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 5,
            drop_prob: 0.25,
            ..FaultSpec::default()
        });
        let dropped = (0..10_000)
            .filter(|i| plan.fate("P", &format!("m{i}"), 0) == Fate::Dropped)
            .count();
        assert!((2000..3000).contains(&dropped), "p=0.25 gave {dropped}/10000");
    }

    #[test]
    fn latency_stays_in_the_declared_band() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 9,
            latency_ticks: (2, 6),
            ..FaultSpec::default()
        });
        for i in 0..1000 {
            match plan.fate("P", &format!("m{i}"), 0) {
                Fate::Delivered { latency } => assert!((2..=6).contains(&latency)),
                other => panic!("unexpected fate {other:?}"),
            }
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy { max_attempts: 6, base_backoff: 1, max_backoff: 8 };
        assert_eq!(
            (0..6).map(|a| r.backoff(a)).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 8, 8]
        );
        assert_eq!(RetryPolicy::none().attempts(), 1);
        assert_eq!(RetryPolicy::none().backoff(3), 0);
    }

    #[test]
    fn stable_hash_is_stable_and_spread() {
        assert_eq!(stable_hash("Berkeley"), stable_hash("Berkeley"));
        assert_ne!(stable_hash("Berkeley"), stable_hash("Berkelez"));
        assert_ne!(stable_hash(""), 0);
    }
}
