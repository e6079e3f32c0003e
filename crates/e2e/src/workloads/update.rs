//! `update_fanout`: the write path end to end.
//!
//! A durable `Hub` peer holds `r ⋈ s` under many identical dataflow
//! subscriptions and feeds one remote replica exactly-once. One operation
//! hands a gram to the system and returns when every subscriber and the
//! durable replica reflect it: seal on the durable link, ship into the
//! replica's durable inbox + journaled catalog + view, `publish` at the
//! hub — and, every few hundred grams, checkpoint both disks. Gram `g`
//! inserts fresh rows and deletes those of gram `g - retire_after`, so the
//! data size is stationary however long the pass runs.

use super::shadow::ShadowSubs;
use super::UpdateScale;
use crate::fixtures::int_relation;
use crate::metrics::{percentile_us, Tally};
use crate::surface::{
    checkpoint, dataflow_view, encode_catalog, eval_naive_union, eval_union, parse_query, publish,
    recover, ship_dataflow, subscribe, Catalog, DataflowView, FaultPlan, GramInbox, Journal,
    PdmsNetwork, Peer, PeerDisk, ReliableLink, RngExt, SeedableRng, StdRng, Tuple, UnionQuery,
    Updategram, Value, WalRecord,
};
use crate::trace::Recorder;
use crate::System;
use std::collections::VecDeque;
use std::time::Instant;

const HUB: &str = "Hub";
const REPLICA: &str = "Replica";
const JOIN: &str = "q(A, C) :- Hub.r(A, B), Hub.s(B, C)";
/// Keys of streamed rows start here, clear of the base relation's.
const FRESH_KEYS: i64 = 1_000_000;
/// Every streamed row is two integers.
const ROW_PAYLOAD_BYTES: usize = 16;

pub struct UpdateFanout {
    scale: UpdateScale,
    net: PdmsNetwork,
    hub_disk: PeerDisk,
    link: ReliableLink,
    replica: Replica,
    rng: StdRng,
    /// Rows of the grams not yet retired, oldest first.
    live: VecDeque<Vec<Tuple>>,
    grams: usize,
    rows: usize,
    publish_ns: Vec<u64>,
    shadow: Option<Shadow>,
    counts: Counts,
}

/// The remote subscriber: its own disk, journaled catalog, durable inbox
/// and circuit-backed view.
struct Replica {
    disk: PeerDisk,
    catalog: Catalog,
    inbox: GramInbox,
    view: DataflowView,
}

struct Shadow {
    hub: ShadowSubs,
    replica: ShadowSubs,
    /// Scratch log the staged appends go to.
    journal: Journal,
    work_at_start: u64,
}

#[derive(Default)]
struct Counts {
    wal_records: u64,
    wal_bytes: usize,
    peak_wal_bytes: usize,
    refreshed: usize,
    skipped: usize,
    output_changes: usize,
    checkpoints: usize,
    truncated: usize,
    recover_ns: Vec<u64>,
}

impl System for UpdateFanout {
    type Scale = UpdateScale;

    /// Half the time is stalls on the hundred circuits' arrangements.
    const TRACED_STEPS_PER_SECOND: f64 = 80.0;

    fn build(scale: &UpdateScale, seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hub = Peer::new(HUB);
        hub.add_relation(int_relation(
            "r",
            scale.r_rows,
            scale.domain,
            |i| i as i64,
            &mut rng,
        ));
        let domain = scale.domain;
        hub.add_relation(int_relation(
            "s",
            scale.s_rows,
            domain,
            |i| i as i64 % domain,
            &mut rng,
        ));
        let mut net = PdmsNetwork::new();
        net.add_peer(hub);
        let hub_disk = net.enable_durability(HUB).ok_or("hub is not a member")?;
        let base = net.snapshot_all();
        for i in 0..scale.subscribers {
            subscribe(&mut net, HUB, &format!("sub{i}"), JOIN)?;
        }
        let join = parse_query(JOIN)?;

        let disk = PeerDisk::new();
        let mut catalog = base.clone();
        catalog.attach_journal(disk.journal());
        checkpoint(&disk, &mut catalog, &[], &[]);
        let replica = Replica {
            inbox: GramInbox::durable(HUB, disk.journal()),
            view: dataflow_view("replica", join.clone(), &catalog)?,
            disk,
            catalog,
        };

        let shadow = if traced {
            let views = |n: usize| -> Result<Vec<DataflowView>, String> {
                (0..n)
                    .map(|i| dataflow_view(&format!("shadow{i}"), join.clone(), &base))
                    .collect()
            };
            Some(Shadow {
                // The hub's publish applies a gram to the owner's catalog
                // and to the subscriptions' mirrored base.
                hub: ShadowSubs {
                    catalogs: vec![base.clone(), base.clone()],
                    views: views(scale.subscribers)?,
                },
                replica: ShadowSubs {
                    catalogs: vec![base.clone()],
                    views: views(1)?,
                },
                journal: Journal::new(),
                work_at_start: total_work(&net, scale.subscribers),
            })
        } else {
            None
        };
        Ok(UpdateFanout {
            link: ReliableLink::durable(REPLICA, FaultPlan::default(), hub_disk.journal()),
            scale: scale.clone(),
            net,
            hub_disk,
            replica,
            rng,
            live: VecDeque::new(),
            grams: 0,
            rows: 0,
            publish_ns: Vec::new(),
            shadow,
            counts: Counts::default(),
        })
    }

    fn cycle_steps(&self) -> usize {
        self.scale.checkpoint_every
    }

    fn step(&mut self, i: usize, tally: &mut Tally, rec: Option<&mut Recorder>) {
        let fresh: Vec<Tuple> = (0..self.scale.gram_rows)
            .map(|j| {
                vec![
                    Value::Int(FRESH_KEYS + (i * self.scale.gram_rows + j) as i64),
                    Value::Int(self.rng.random_range(0..self.scale.domain)),
                ]
            })
            .collect();
        self.live.push_back(fresh.clone());
        let retired = if self.live.len() > self.scale.retire_after {
            self.live.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        let gram = Updategram {
            relation: "Hub.r".into(),
            insert: fresh,
            delete: retired,
        };
        let rows = gram.size();
        let (hub_log, replica_log) = (self.hub_disk.journal(), self.replica.disk.journal());
        let lsn_before = hub_log.next_lsn() + replica_log.next_lsn();
        let bytes_before = hub_log.byte_len() + replica_log.byte_len();
        tally.attempted += 1;

        let t0 = Instant::now();
        let sealed = self.link.seal(gram);
        let t1 = Instant::now();
        let r = &mut self.replica;
        let acked = ship_dataflow(
            &mut self.link,
            &sealed,
            &mut r.inbox,
            &mut r.catalog,
            &mut r.view,
        );
        let t2 = Instant::now();
        let report = publish(&mut self.net, &sealed.gram);
        let t3 = Instant::now();
        // Log growth is read before a checkpoint truncates it.
        let wal_bytes = hub_log.byte_len() + replica_log.byte_len();
        let wal_records = hub_log.next_lsn() + replica_log.next_lsn() - lsn_before;
        let checkpointed = if (i + 1) % self.scale.checkpoint_every == 0 {
            let hub = self.net.checkpoint_peer(HUB);
            let rep = checkpoint(&r.disk, &mut r.catalog, &[&r.inbox], &[]);
            Some(hub.map_or(0, |h| h.truncated) + rep.truncated)
        } else {
            None
        };
        let t4 = Instant::now();

        let dt = t4 - t0;
        tally.latency(dt);
        tally.step(dt, rows as u64);
        self.grams += 1;
        self.rows += rows;
        self.publish_ns.push((t3 - t2).as_nanos() as u64);
        let c = &mut self.counts;
        c.wal_records += wal_records;
        c.wal_bytes += wal_bytes - bytes_before;
        c.peak_wal_bytes = c.peak_wal_bytes.max(wal_bytes);
        if let Some(truncated) = checkpointed {
            c.checkpoints += 1;
            c.truncated += truncated;
        }
        let subscribers = self.scale.subscribers;
        let verdict = acked
            .and_then(|acked| {
                if acked {
                    Ok(())
                } else {
                    Err("unacknowledged on a perfect link".into())
                }
            })
            .and(report)
            .and_then(|report| {
                c.refreshed += report.refreshed.len();
                c.skipped += report.skipped;
                c.output_changes += report.output_changes;
                if report.refreshed.len() == subscribers {
                    Ok(())
                } else {
                    Err(format!(
                        "{} of {subscribers} subscriptions refreshed",
                        report.refreshed.len()
                    ))
                }
            });
        tally.check(verdict.map_err(|e| format!("gram {i}: {e}")));

        if let (Some(rec), Some(shadow)) = (rec, self.shadow.as_mut()) {
            let gram = &sealed.gram;
            let log = &shadow.journal;
            let record = |rec: &mut Recorder, parent, record: WalRecord| {
                rec.staged("storage.wal.append", parent, || log.append(&record));
            };
            let (relation, insert, delete) = (
                gram.relation.clone(),
                gram.insert.clone(),
                gram.delete.clone(),
            );

            let seal = rec.front("pdms.propagation.seal", t0, t1 - t0);
            let link = REPLICA.to_string();
            record(
                rec,
                seal,
                WalRecord::DeltaSealed {
                    link,
                    id: sealed.id,
                    relation,
                    insert,
                    delete,
                },
            );

            let ship = rec.front("pdms.propagation.ship", t1, t2 - t1);
            let (relation, insert, delete) = (
                gram.relation.clone(),
                gram.insert.clone(),
                gram.delete.clone(),
            );
            record(
                rec,
                ship,
                WalRecord::DeltaApplied {
                    link: HUB.into(),
                    id: sealed.id,
                    relation,
                    insert,
                    delete,
                },
            );
            shadow.replica.stage_publish(rec, ship, gram);
            record(
                rec,
                ship,
                WalRecord::DeltaAcked {
                    link: REPLICA.into(),
                    id: sealed.id,
                },
            );

            // The hub's catalog journals the gram row by row.
            let front = rec.front("pdms.network.publish", t2, t3 - t2);
            for row in &gram.delete {
                record(
                    rec,
                    front,
                    WalRecord::Delete {
                        relation: gram.relation.clone(),
                        row: row.clone(),
                    },
                );
            }
            for row in &gram.insert {
                record(
                    rec,
                    front,
                    WalRecord::Insert {
                        relation: gram.relation.clone(),
                        row: row.clone(),
                    },
                );
            }
            shadow.hub.stage_publish(rec, front, gram);
            if checkpointed.is_some() {
                rec.front("pdms.durable.checkpoint", t3, t4 - t3);
                log.truncate_below(log.next_lsn());
            }
        }

        if (i + 1) % self.scale.check_every == 0 {
            tally.attempted += 1;
            let verdict = self.check_reference();
            tally.check(verdict.map_err(|e| format!("after gram {i}: {e}")));
        }
    }

    fn finish(&mut self, tally: &mut Tally) {
        tally.attempted += 1;
        let verdict = self.check_reference();
        tally.check(verdict.map_err(|e| format!("at the end: {e}")));
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let totals = rec.totals();
        let grams = self.grams.max(1) as f64;
        let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e3 / grams);
        let publish = totals
            .get("pdms.network.publish")
            .copied()
            .unwrap_or((1, 0));
        let checkpoint_ms = totals
            .get("pdms.durable.checkpoint")
            .map_or(0.0, |t| t.0 as f64 / 1e6 / c.checkpoints.max(1) as f64);
        let work = total_work(&self.net, self.scale.subscribers)
            - self.shadow.as_ref().map_or(0, |s| s.work_at_start);
        let arranged: usize = (0..self.scale.subscribers)
            .filter_map(|i| self.net.subscription(&format!("sub{i}")))
            .map(|s| s.arranged_tuples())
            .sum();
        let images = self.hub_disk.image_len() + self.replica.disk.image_len();
        let recover_ms =
            c.recover_ns.iter().sum::<u64>() as f64 / 1e6 / c.recover_ns.len().max(1) as f64;
        vec![
            (
                "pdms.propagation.seal_self_us_per_op",
                self_us("pdms.propagation.seal"),
            ),
            (
                "pdms.propagation.ship_self_us_per_op",
                self_us("pdms.propagation.ship"),
            ),
            (
                "pdms.propagation.messages_per_gram",
                self.link.stats.messages as f64 / grams,
            ),
            (
                "pdms.propagation.duplicates_absorbed",
                self.replica.inbox.duplicates_ignored as f64,
            ),
            (
                "storage.wal.append_self_us_per_op",
                self_us("storage.wal.append"),
            ),
            ("storage.wal.bytes_per_gram", c.wal_bytes as f64 / grams),
            ("storage.wal.records_per_gram", c.wal_records as f64 / grams),
            (
                "pdms.updategram.sign_self_us_per_op",
                self_us("pdms.updategram.sign"),
            ),
            (
                "pdms.updategram.apply_self_us_per_op",
                self_us("pdms.updategram.apply"),
            ),
            (
                "query.dataflow.push_self_us_per_op",
                self_us("query.dataflow.push"),
            ),
            (
                "query.dataflow.work_per_row",
                work as f64 / self.rows.max(1) as f64,
            ),
            (
                "query.dataflow.output_changes_per_gram",
                c.output_changes as f64 / grams,
            ),
            ("query.dataflow.arranged_tuples", arranged as f64),
            (
                "pdms.network.publish.refreshed_per_gram",
                c.refreshed as f64 / grams,
            ),
            (
                "pdms.network.publish.skipped_per_gram",
                c.skipped as f64 / grams,
            ),
            (
                "pdms.network.publish.unattributed_ratio",
                publish.1 as f64 / publish.0 as f64,
            ),
            (
                "pdms.network.publish.p50_us",
                percentile_us(&self.publish_ns, 0.50),
            ),
            (
                "pdms.network.publish.p95_us",
                percentile_us(&self.publish_ns, 0.95),
            ),
            ("pdms.durable.checkpoint_ms", checkpoint_ms),
            ("pdms.durable.image_bytes", images as f64),
            ("pdms.durable.log_truncated_records", c.truncated as f64),
            ("pdms.durable.recover_ms", recover_ms),
            (
                "pdms.durable.stable_bytes_per_user_byte",
                (c.peak_wal_bytes + images) as f64 / (self.rows * ROW_PAYLOAD_BYTES).max(1) as f64,
            ),
        ]
    }
}

fn total_work(net: &PdmsNetwork, subscribers: usize) -> u64 {
    (0..subscribers)
        .filter_map(|i| net.subscription(&format!("sub{i}")))
        .map(|s| s.work())
        .sum()
}

impl UpdateFanout {
    /// Every subscription, the replica's view and a from-scratch join over
    /// the hub's current data must agree; the replica must have applied
    /// every gram exactly once; and its disk alone must reproduce its live
    /// catalog byte for byte.
    fn check_reference(&mut self) -> Result<(), String> {
        let union = UnionQuery::single(parse_query(JOIN)?);
        let snapshot = self.net.snapshot_all();
        let expected = if self.scale.naive_reference {
            eval_naive_union(&union, &snapshot)?
        } else {
            eval_union(&union, &snapshot)?
        };
        for i in 0..self.scale.subscribers {
            let name = format!("sub{i}");
            let sub = self
                .net
                .subscription(&name)
                .ok_or("subscription vanished")?;
            if sub.answers().rows() != expected.rows() {
                return Err(format!("{name} drifted from a from-scratch join"));
            }
        }
        if self.replica.view.as_relation().rows() != expected.rows() {
            return Err("the replica's view drifted from the hub".into());
        }
        if self.replica.inbox.applied_count() != self.grams {
            return Err(format!(
                "replica applied {} grams, {} were sealed",
                self.replica.inbox.applied_count(),
                self.grams
            ));
        }
        let t = Instant::now();
        let recovered = recover(&self.replica.disk).ok_or("the replica's image is corrupt")?;
        self.counts.recover_ns.push(t.elapsed().as_nanos() as u64);
        if encode_catalog(&recovered.catalog, 0) != encode_catalog(&self.replica.catalog, 0) {
            return Err("recovery from the replica's disk does not reproduce its catalog".into());
        }
        Ok(())
    }
}
