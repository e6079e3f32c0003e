//! The overlay health monitor: continuous self-assessment for a PDMS.
//!
//! The paper's §3 scaling story assumes an overlay that keeps working as
//! peers join, fail, and churn — which is only checkable if the system
//! can watch itself. This module closes that loop (DESIGN.md §13):
//!
//! * each peer exposes a [`PeerVitals`] scrape built from the network's
//!   always-on [`PeerAccounting`] (messages sent and dropped, retries,
//!   completeness gaps, worst q-error) plus its durable-layer backlog
//!   (WAL records pending);
//! * an overlay-wide [`Monitor`] probes and scrapes every peer on a tick
//!   cadence, keeps each peer's last [`Monitor::WINDOWS`] scrapes, and
//!   assigns each peer a [`Health`] verdict from thresholds over that
//!   window, with hysteresis;
//! * threshold crossings append [`MonitorEvent`]s to a deterministic
//!   structured event log, and [`Monitor::render_dashboard`] renders the
//!   whole cluster as sorted text.
//!
//! Everything is deterministic: probes draw from the same pure-hash
//! [`FaultPlan`] coin the fetch path uses (keyed by monitor tick, so each
//! scrape sees fresh weather), scrapes never mutate the network, and all
//! iteration is over `BTreeMap`s. Running a monitor beside a workload
//! changes no query answers — `tests/monitor_health.rs` holds a twin run
//! to byte-identity. E19 validates attribution end-to-end: under a
//! seeded chaos plan the monitor's flagged set must equal the injected
//! degraded-peer set, with detection latency reported in ticks.

use crate::network::{CacheStats, PdmsNetwork, PeerAccounting};
use revere_util::fault::{FaultPlan, Fate};
use revere_util::obs::{json_escape, names, Metrics, MetricsSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A peer's health verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Answering probes, fetch-path vitals within thresholds.
    Healthy,
    /// Reachable but impaired: a missed probe, a windowed drop rate over
    /// threshold, or a worst q-error over threshold.
    Degraded,
    /// Missed every probe for `SUSPECT_MISSES` consecutive scrapes.
    Suspect,
    /// Missed every probe for `DOWN_MISSES` consecutive scrapes.
    Down,
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Health::Healthy => "Healthy",
            Health::Degraded => "Degraded",
            Health::Suspect => "Suspect",
            Health::Down => "Down",
        })
    }
}

/// Liveness probes sent per peer per scrape; one answer (delivered *or*
/// flaky — an error response still proves liveness) counts as contact.
const PROBE_ATTEMPTS: u32 = 3;
/// Windowed `dropped/sent` fetch-message fraction above which a reachable
/// peer is [`Health::Degraded`].
const DEGRADED_DROP_RATE: f64 = 0.5;
/// Worst observed q-error above which a reachable peer is
/// [`Health::Degraded`] (the estimator is badly miscalibrated for its
/// data).
const DEGRADED_Q_ERROR: f64 = 64.0;
/// Consecutive all-probes-missed scrapes before [`Health::Suspect`].
const SUSPECT_MISSES: u32 = 2;
/// Consecutive all-probes-missed scrapes before [`Health::Down`].
const DOWN_MISSES: u32 = 4;
/// Hysteresis: consecutive scrapes with a *less severe* candidate verdict
/// before the peer is actually downgraded — one good probe never
/// un-flags a flapping peer.
const RECOVER_SCRAPES: u32 = 2;

/// One peer's scrape: probe result plus fetch-path deltas since the
/// previous scrape and durable-layer backlog gauges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeerVitals {
    /// Peer name.
    pub peer: String,
    /// Monitor tick of the scrape.
    pub tick: u64,
    /// Did any probe get an answer this scrape?
    pub reachable: bool,
    /// Fetch messages sent toward this peer since the last scrape.
    pub messages_sent: u64,
    /// Fetch messages dropped since the last scrape.
    pub messages_dropped: u64,
    /// Fetch retries spent since the last scrape.
    pub retries_spent: u64,
    /// Completeness gaps (fetches never delivered) since the last scrape.
    pub gaps_observed: u64,
    /// Median fetch round-trip latency in ticks (cumulative histogram).
    pub latency_p50_ticks: u64,
    /// Worst q-error observed for plans touching this peer, in
    /// thousandths (0 until a plan has been profiled).
    pub worst_q_error_milli: u64,
    /// WAL backlog: journaled records not yet truncated by a checkpoint
    /// (the unacked LSN span). 0 for non-durable peers.
    pub wal_records_pending: u64,
}

/// A threshold-crossing entry in the monitor's structured event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorEvent {
    /// Monitor tick at which the verdict changed.
    pub tick: u64,
    /// The peer whose verdict changed.
    pub peer: String,
    /// Verdict before the crossing.
    pub from: Health,
    /// Verdict after the crossing.
    pub to: Health,
    /// Deterministic cause, e.g. `probe_miss_streak=2` or `recovered`.
    pub reason: String,
}

impl fmt::Display for MonitorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tick={} peer={} {}->{} reason={}",
            self.tick, self.peer, self.from, self.to, self.reason
        )
    }
}

/// Per-peer verdict state: the current verdict plus the streaks the
/// transition rules read.
#[derive(Debug, Clone)]
struct HealthState {
    verdict: Health,
    /// Consecutive scrapes with every probe missed.
    miss_streak: u32,
    /// Consecutive scrapes whose candidate verdict was less severe than
    /// the current one (hysteresis counter).
    ok_streak: u32,
}

impl Default for HealthState {
    fn default() -> Self {
        HealthState { verdict: Health::Healthy, miss_streak: 0, ok_streak: 0 }
    }
}

/// The overlay health monitor. Construct once, then call
/// [`Monitor::scrape`] on a tick cadence; read verdicts, vitals, the
/// event log, the dashboard, or the merged cluster rollup between
/// scrapes. Scraping borrows the network immutably and never changes
/// query behavior.
#[derive(Debug, Default)]
pub struct Monitor {
    /// Accounting totals as of the previous scrape, for delta computation.
    prev: BTreeMap<String, PeerAccounting>,
    /// Each peer's last `WINDOWS` scrapes, oldest first; the newest is
    /// the latest scrape.
    windows: BTreeMap<String, VecDeque<PeerVitals>>,
    health: BTreeMap<String, HealthState>,
    events: Vec<MonitorEvent>,
    /// First tick each peer ever reached Suspect-or-worse (detection
    /// latency numerator; never cleared by recovery).
    first_flagged: BTreeMap<String, u64>,
    /// The monitor's own accounting (`monitor.probe.*`, `monitor.scrape.*`).
    metrics: Metrics,
    /// Network-wide cache verdicts as of the latest scrape (the caches
    /// live at network scope, so they roll up at cluster level).
    cache: CacheStats,
    last_tick: u64,
}

impl Monitor {
    /// Scrapes kept per peer; the drop-rate verdict and the rollup sum
    /// the fetch counters over them.
    pub const WINDOWS: usize = 4;

    /// Probe `peer` at `tick`: up to `PROBE_ATTEMPTS` messages through
    /// the fault plan, keyed by tick so every scrape draws fresh weather.
    /// Returns (answered, probes_sent).
    fn probe(&self, faults: &FaultPlan, peer: &str, tick: u64) -> (bool, u64) {
        let key = format!("monitor.probe#{tick}");
        let mut sent = 0u64;
        for attempt in 0..PROBE_ATTEMPTS {
            sent += 1;
            if faults.is_down_at(peer, tick) {
                continue;
            }
            match faults.fate(peer, &key, attempt) {
                Fate::Dropped => continue,
                // An error response still proves the peer is alive.
                Fate::Flaky | Fate::Delivered { .. } => return (true, sent),
            }
        }
        (false, sent)
    }

    /// Scrape every peer of `net` at monitor tick `tick`: probe, diff
    /// accounting, keep the scrape in the peer's window, update verdicts,
    /// append events.
    pub fn scrape(&mut self, net: &PdmsNetwork, tick: u64) {
        let acct = net.peer_accounting();
        self.cache = net.cache_stats();
        self.last_tick = tick;
        for peer in net.peer_names() {
            let (reachable, probes_sent) = self.probe(&net.faults, peer, tick);
            self.metrics.inc(names::MONITOR_PROBE_PROBES_SENT, probes_sent);
            if reachable {
                self.metrics.inc(names::MONITOR_SCRAPE_PEERS_SEEN, 1);
            } else {
                self.metrics.inc(names::MONITOR_PROBE_PROBES_MISSED, 1);
            }

            let cur = acct.get(peer).cloned().unwrap_or_default();
            let prev = self.prev.get(peer).cloned().unwrap_or_default();
            let pending = net.disk(peer).map_or(0, |disk| disk.journal().record_count() as u64);
            let v = PeerVitals {
                peer: peer.to_string(),
                tick,
                reachable,
                messages_sent: cur.messages_sent - prev.messages_sent,
                messages_dropped: cur.messages_dropped - prev.messages_dropped,
                retries_spent: cur.retries_spent - prev.retries_spent,
                gaps_observed: cur.gaps_observed - prev.gaps_observed,
                latency_p50_ticks: cur.latency.quantile(0.5),
                worst_q_error_milli: (cur.worst_q_error * 1000.0).round() as u64,
                wal_records_pending: pending,
            };
            let window = self.windows.entry(peer.to_string()).or_default();
            if window.len() == Self::WINDOWS {
                window.pop_front();
            }
            window.push_back(v);
            self.update_verdict(peer, tick);
        }
        self.prev = acct;
    }

    /// The candidate verdict from the peer's window alone (its newest
    /// scrape last), plus the deterministic reason string an event would
    /// carry.
    fn candidate(window: &VecDeque<PeerVitals>, miss_streak: u32) -> (Health, String) {
        let v = window.back().expect("a window holds the scrape that reads it");
        if miss_streak >= DOWN_MISSES {
            return (Health::Down, format!("probe_miss_streak={miss_streak}"));
        }
        if miss_streak >= SUSPECT_MISSES {
            return (Health::Suspect, format!("probe_miss_streak={miss_streak}"));
        }
        if !v.reachable {
            return (Health::Degraded, format!("probe_miss_streak={miss_streak}"));
        }
        let sent: u64 = window.iter().map(|v| v.messages_sent).sum();
        let dropped: u64 = window.iter().map(|v| v.messages_dropped).sum();
        if sent > 0 && dropped as f64 / sent as f64 > DEGRADED_DROP_RATE {
            let milli = dropped * 1000 / sent;
            return (Health::Degraded, format!("window_drop_rate_milli={milli}"));
        }
        if v.worst_q_error_milli as f64 / 1000.0 > DEGRADED_Q_ERROR {
            return (Health::Degraded, format!("worst_q_error_milli={}", v.worst_q_error_milli));
        }
        (Health::Healthy, "recovered".to_string())
    }

    /// Apply this scrape's candidate verdict with hysteresis: escalations
    /// are immediate, de-escalations wait for `RECOVER_SCRAPES`
    /// consecutive calmer candidates.
    fn update_verdict(&mut self, peer: &str, tick: u64) {
        let window = &self.windows[peer];
        let mut state = self.health.get(peer).cloned().unwrap_or_default();
        if window.back().is_some_and(|v| v.reachable) {
            state.miss_streak = 0;
        } else {
            state.miss_streak += 1;
        }
        let (cand, reason) = Self::candidate(window, state.miss_streak);
        let mut transition: Option<(Health, Health, String)> = None;
        if cand > state.verdict {
            transition = Some((state.verdict, cand, reason));
            state.ok_streak = 0;
        } else if cand < state.verdict {
            state.ok_streak += 1;
            if state.ok_streak >= RECOVER_SCRAPES {
                transition = Some((state.verdict, cand, reason));
                state.ok_streak = 0;
            }
        } else {
            state.ok_streak = 0;
        }
        if let Some((from, to, reason)) = transition {
            state.verdict = to;
            if to >= Health::Suspect {
                self.first_flagged.entry(peer.to_string()).or_insert(tick);
            }
            self.events.push(MonitorEvent { tick, peer: peer.to_string(), from, to, reason });
            self.metrics.inc(names::MONITOR_SCRAPE_EVENTS_EMITTED, 1);
        }
        self.health.insert(peer.to_string(), state);
    }

    /// Current verdict for `peer` (Healthy if never scraped).
    pub fn health(&self, peer: &str) -> Health {
        self.health.get(peer).map_or(Health::Healthy, |s| s.verdict)
    }

    /// Every peer's current verdict, in name order.
    pub fn verdicts(&self) -> BTreeMap<String, Health> {
        self.health.iter().map(|(p, s)| (p.clone(), s.verdict)).collect()
    }

    /// Peers currently flagged [`Health::Suspect`] or [`Health::Down`],
    /// in name order — the set E19 matches against the injected fault
    /// plan.
    pub fn flagged(&self) -> Vec<String> {
        self.health
            .iter()
            .filter(|(_, s)| s.verdict >= Health::Suspect)
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// The first monitor tick at which `peer` reached Suspect-or-worse,
    /// if it ever did — detection latency is this minus the fault onset.
    pub fn first_flagged_tick(&self, peer: &str) -> Option<u64> {
        self.first_flagged.get(peer).copied()
    }

    /// The latest scrape's vitals for `peer`.
    pub fn vitals(&self, peer: &str) -> Option<&PeerVitals> {
        self.windows.get(peer)?.back()
    }

    /// The structured event log, in append (= tick) order.
    pub fn events(&self) -> &[MonitorEvent] {
        &self.events
    }

    /// The event log rendered one `Display` line per event.
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// The monitor's own windowless metrics (`monitor.probe.*`,
    /// `monitor.scrape.*`).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Lossless cluster rollup as one [`MetricsSnapshot`]: the fetch
    /// counters summed over every peer's window, each peer's latest
    /// q-error and WAL backlog summed as gauges, plus the monitor's own
    /// counters and the network-scope cache verdicts as `pdms.cache.*`
    /// counters.
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for window in self.windows.values() {
            let sum = |field: fn(&PeerVitals) -> u64| window.iter().map(field).sum::<u64>();
            let counters = [
                (names::PDMS_FETCH_MESSAGES_SENT, sum(|v| v.messages_sent)),
                (names::PDMS_FETCH_MESSAGES_DROPPED, sum(|v| v.messages_dropped)),
                (names::PDMS_FETCH_RETRIES_SPENT, sum(|v| v.retries_spent)),
                (names::PDMS_FETCH_GAPS_OBSERVED, sum(|v| v.gaps_observed)),
            ];
            for (name, n) in counters {
                *out.counters.entry(name.to_string()).or_insert(0) += n;
            }
            let Some(latest) = window.back() else { continue };
            let gauges = [
                (names::PDMS_FEEDBACK_QERROR_WORST_MILLI, latest.worst_q_error_milli),
                (names::PDMS_WAL_RECORDS_PENDING, latest.wal_records_pending),
            ];
            for (name, g) in gauges {
                *out.gauges.entry(name.to_string()).or_insert(0) += g as i64;
            }
        }
        out.merge(&self.metrics.snapshot());
        let cache: [(&str, usize); 5] = [
            (names::PDMS_CACHE_REFORMULATION_HITS, self.cache.reformulation_hits),
            (names::PDMS_CACHE_REFORMULATION_MISSES, self.cache.reformulation_misses),
            (names::PDMS_CACHE_PLAN_HITS, self.cache.plan_hits),
            (names::PDMS_CACHE_PLAN_MISSES, self.cache.plan_misses),
            (names::PDMS_CACHE_PLAN_EVICTIONS, self.cache.plan_evictions),
        ];
        for (name, n) in cache {
            *out.counters.entry(name.to_string()).or_insert(0) += n as u64;
        }
        out
    }

    /// The cluster as sorted text: a summary line, the network-scope
    /// cache verdicts, then one fixed-width row per peer in name order.
    /// Byte-deterministic for a given scrape history.
    pub fn render_dashboard(&self) -> String {
        let mut counts = [0usize; 4];
        for s in self.health.values() {
            counts[s.verdict as usize] += 1;
        }
        let mut out = format!(
            "cluster @ tick {}: peers={} healthy={} degraded={} suspect={} down={} events={}\n",
            self.last_tick,
            self.health.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            self.events.len()
        );
        out.push_str(&format!("cache: {}\n", self.cache));
        out.push_str(
            "peer        health    reach  drop/sent  gaps  retries  p50  q_err(m)  wal(pend)\n",
        );
        for (peer, state) in &self.health {
            let v = self.vitals(peer).cloned().unwrap_or_default();
            out.push_str(&format!(
                "{:<11} {:<9} {:<6} {:<10} {:<5} {:<8} {:<4} {:<9} {}\n",
                peer,
                state.verdict.to_string(),
                if v.reachable { "yes" } else { "NO" },
                format!("{}/{}", v.messages_dropped, v.messages_sent),
                v.gaps_observed,
                v.retries_spent,
                v.latency_p50_ticks,
                v.worst_q_error_milli,
                v.wal_records_pending,
            ));
        }
        out
    }

    /// The event log as a Chrome trace: one instant event (`"ph":"i"`)
    /// per verdict crossing, `ts` = monitor tick. Loadable alongside the
    /// tracer's span export.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":1,\"s\":\"g\",\
                 \"args\":{{\"peer\":\"{}\",\"from\":\"{}\",\"to\":\"{}\",\"reason\":\"{}\"}}}}",
                json_escape(&format!("{} {}->{}", e.peer, e.from, e.to)),
                e.tick,
                json_escape(&e.peer),
                e.from,
                e.to,
                json_escape(&e.reason),
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PdmsNetwork;
    use crate::peer::Peer;
    use revere_query::glav::GlavMapping;
    use revere_storage::{RelSchema, Relation, Value};
    use revere_util::fault::{FaultPlan, FaultSpec};

    /// Three peers, a chain of mappings, a few rows each.
    fn tiny_net() -> PdmsNetwork {
        let mut net = PdmsNetwork::new();
        for i in 0..3 {
            let mut p = Peer::new(format!("P{i}"));
            let mut r = Relation::new(RelSchema::text("item", &["name"]));
            r.insert(vec![Value::str(format!("item at P{i}"))]);
            p.add_relation(r);
            net.add_peer(p);
        }
        for (idx, (a, b)) in [(0, 1), (1, 2)].iter().enumerate() {
            net.add_mapping(
                GlavMapping::parse(
                    format!("m{idx}"),
                    format!("P{a}"),
                    format!("P{b}"),
                    &format!("m(N) :- P{a}.item(N) ==> m(N) :- P{b}.item(N)"),
                )
                .expect("mapping parses"),
            );
        }
        net
    }

    #[test]
    fn healthy_overlay_stays_healthy_and_unflagged() {
        let net = tiny_net();
        let mut mon = Monitor::default();
        for tick in 0..6 {
            net.query_str("P0", "q(N) :- P2.item(N)").expect("query runs");
            mon.scrape(&net, tick);
        }
        assert!(mon.flagged().is_empty(), "perfect network got flagged: {:?}", mon.flagged());
        assert!(mon.events().is_empty(), "perfect network emitted events: {}", mon.event_log());
        for peer in ["P0", "P1", "P2"] {
            assert_eq!(mon.health(peer), Health::Healthy);
        }
        // P2 answered the last tick's remote fetch: its scrape saw it.
        let v = mon.vitals("P2").expect("P2 scraped");
        assert!(v.reachable);
        assert!(v.messages_sent > 0, "the last fetch from P2 left no trace: {v:?}");
    }

    #[test]
    fn down_peer_escalates_to_suspect_then_down_with_events() {
        let mut net = tiny_net();
        net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("P2"));
        let mut mon = Monitor::default();
        for tick in 0..6 {
            mon.scrape(&net, tick);
        }
        assert_eq!(mon.health("P2"), Health::Down);
        assert_eq!(mon.flagged(), vec!["P2".to_string()]);
        // Degraded at the first miss (tick 0), Suspect at the second
        // (tick 1), Down at the fourth (tick 3).
        assert_eq!(mon.first_flagged_tick("P2"), Some(1));
        let log = mon.event_log();
        assert!(log.contains("peer=P2 Healthy->Degraded"), "missing degrade event:\n{log}");
        assert!(log.contains("peer=P2 Degraded->Suspect"), "missing suspect event:\n{log}");
        assert!(log.contains("peer=P2 Suspect->Down"), "missing down event:\n{log}");
        assert_eq!(mon.health("P0"), Health::Healthy);
    }

    #[test]
    fn crashed_peer_is_flagged_only_after_its_crash_tick() {
        let mut net = tiny_net();
        net.faults = FaultPlan::new(FaultSpec::default().with_crash("P1", 10));
        let mut mon = Monitor::default();
        for tick in 0..10 {
            mon.scrape(&net, tick);
        }
        assert_eq!(mon.health("P1"), Health::Healthy, "flagged before the crash");
        for tick in 10..16 {
            mon.scrape(&net, tick);
        }
        assert_eq!(mon.health("P1"), Health::Down);
        assert_eq!(mon.first_flagged_tick("P1"), Some(11));
    }

    #[test]
    fn recovery_needs_hysteresis_scrapes() {
        let mut net = tiny_net();
        net.faults = FaultPlan::new(FaultSpec::default().with_crash("P1", 0));
        let mut mon = Monitor::default();
        for tick in 0..4 {
            mon.scrape(&net, tick);
        }
        assert_eq!(mon.health("P1"), Health::Down);
        // "Restart" the peer: clear the fault plan. One good scrape must
        // NOT clear the flag (RECOVER_SCRAPES = 2)...
        net.faults = FaultPlan::zero();
        mon.scrape(&net, 4);
        assert_eq!(mon.health("P1"), Health::Down, "one good probe un-flagged a down peer");
        // ...the second one does.
        mon.scrape(&net, 5);
        assert_eq!(mon.health("P1"), Health::Healthy);
        let log = mon.event_log();
        assert!(log.contains("peer=P1 Down->Healthy reason=recovered"), "no recovery event:\n{log}");
    }

    #[test]
    fn windowed_drop_rate_degrades_until_the_drops_leave_the_window() {
        let mut net = tiny_net();
        let mut mon = Monitor::default();
        // One query through a link that loses every message; the probes
        // then run in calm weather, so P2 stays reachable.
        net.faults = FaultPlan::new(FaultSpec { drop_prob: 1.0, ..FaultSpec::default() });
        net.query_str("P0", "q(N) :- P2.item(N)").expect("a lossy query still answers");
        net.faults = FaultPlan::zero();
        mon.scrape(&net, 0);
        assert_eq!(mon.health("P2"), Health::Degraded);
        let log = mon.event_log();
        assert!(
            log.contains("tick=0 peer=P2 Healthy->Degraded reason=window_drop_rate_milli=1000"),
            "missing drop-rate event:\n{log}"
        );
        // Calm scrapes: the lossy one stays in the window for WINDOWS
        // scrapes, then RECOVER_SCRAPES calm verdicts clear the flag.
        let healthy_at = Monitor::WINDOWS as u64 + u64::from(RECOVER_SCRAPES) - 1;
        for tick in 1..healthy_at {
            mon.scrape(&net, tick);
            assert_eq!(mon.health("P2"), Health::Degraded, "recovered early at tick {tick}");
        }
        mon.scrape(&net, healthy_at);
        assert_eq!(mon.health("P2"), Health::Healthy);
        let log = mon.event_log();
        assert!(
            log.contains(&format!("tick={healthy_at} peer=P2 Degraded->Healthy reason=recovered")),
            "no recovery event:\n{log}"
        );
    }

    #[test]
    fn scrapes_are_deterministic_and_rollup_names_are_canonical() {
        let run = || {
            let mut net = tiny_net();
            net.faults = FaultPlan::new(FaultSpec::chaos(7, 0.3));
            let mut mon = Monitor::default();
            for tick in 0..8 {
                net.query_str("P0", "q(N) :- P2.item(N)").expect("query runs");
                mon.scrape(&net, tick);
            }
            mon
        };
        let (a, b) = (run(), run());
        assert_eq!(a.render_dashboard(), b.render_dashboard(), "dashboard diverged");
        assert_eq!(a.event_log(), b.event_log(), "event log diverged");
        assert_eq!(a.chrome_trace(), b.chrome_trace(), "chrome export diverged");
        let roll = a.rollup();
        assert_eq!(roll.to_string(), b.rollup().to_string(), "rollup diverged");
        let strays = names::unregistered(&roll);
        assert!(strays.is_empty(), "rollup contains unregistered names: {strays:?}");
    }
}
