//! The one fuzzy-checkpoint publisher every engine shares.
//!
//! In the paper's terms a checkpoint only tells analysis where the redo
//! scan starts; the Recovery Invariant does not care which engine wrote
//! it. So the sequential online method ([`crate::online`]), the
//! incremental controller ([`crate::control`]), the physical method
//! ([`crate::physical`]) and the concurrent daemon
//! ([`crate::concurrent`]) all publish through this module, in two
//! parts.
//!
//! **Planning** ([`plan`]) is a pure function of the dirty-page table
//! (page, recLSN), the in-flight floor (the lowest LSN appended but not
//! yet applied — only the concurrent daemon has one), the last LSN and
//! the [`Chain`] in force. The redo-start is the minimum over the
//! recLSNs and the floor, or the checkpoint record itself when nothing
//! is dirty or in flight: every update below it is installed, and the
//! page-LSN redo tests make scanning from it exact. The planner then
//!
//! * **skips** when the system is quiescent — nothing logged since the
//!   standing head, the table unchanged, the redo-start unmoved —
//!   because republishing would force the log and move the master for
//!   a byte-identical analysis;
//! * writes a [`PageOpPayload::DeltaCheckpoint`] carrying only the
//!   table's `added`/`removed` diff against the head while the chain is
//!   shallower than `full_every`;
//! * otherwise re-anchors with a full [`PageOpPayload::FuzzyCheckpoint`],
//!   so the chain analysis must walk stays bounded. With no chain it
//!   never skips; with `full_every` of 1 it never writes a delta.
//!
//! **Publication** ([`publish`]) runs after the record was appended and
//! forced, and each step is a faultable crash point
//! ([`redo_sim::fault`]):
//!
//! 1. **Verify the force.** A torn or suppressed flush leaves
//!    `stable_lsn` below the record: the attempt is *abandoned*, the
//!    previous checkpoint stays in force, and recovery falls back to it.
//! 2. **Move the master** to the record's LSN — one atomic write. A
//!    fuzzy checkpoint stages no pages, so this is
//!    [`Disk::set_master`]. If the write is suppressed the master still
//!    names the previous checkpoint: abandoned again, and the orphaned
//!    record is harmlessly skipped by the redo scan.
//! 3. Only after *verifying* both steps landed, **truncate** the stable
//!    prefix below the redo-start
//!    ([`ShardedLog::archive_prefix`]): every record there is applied
//!    and its page durably installed. Truncating any earlier would be
//!    unsound — a crash before publication must still recover from the
//!    previous checkpoint, whose scan may start inside that prefix.

use std::collections::BTreeMap;

use redo_sim::db::Db;
use redo_sim::disk::Disk;
use redo_sim::wal::{LogPayload, ShardedLog};
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::oprecord::PageOpPayload;

/// The published checkpoint chain in force: where its head and base
/// sit, how deep the delta chain is, and the exact table and
/// redo-start the head published.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Chain {
    /// LSN of the newest published checkpoint record (the master).
    pub(crate) head: Lsn,
    /// LSN of the full snapshot the chain grows from.
    pub(crate) base: Lsn,
    /// Delta links from `head` back to `base` (0 when `head == base`).
    pub(crate) depth: u64,
    /// The full dirty-page table as of `head`.
    pub(crate) dpt: BTreeMap<PageId, Lsn>,
    /// The redo-start published at `head`.
    pub(crate) redo_start: Lsn,
}

/// What one checkpoint attempt should do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Plan {
    /// Quiescent: the checkpoint at this LSN stays in force as it is.
    Skip(Lsn),
    /// Append `payload`, then [`publish`] it with this redo-start.
    /// `next` is the chain once publication lands.
    Publish {
        payload: PageOpPayload,
        redo_start: Lsn,
        next: Chain,
    },
}

/// The redo-start of a checkpoint appended right after `last_lsn`: the
/// lowest recLSN or in-flight LSN, or the checkpoint record itself when
/// there is neither.
pub(crate) fn redo_start(dirty: &[(PageId, Lsn)], floor: Option<Lsn>, last_lsn: Lsn) -> Lsn {
    candidate(dirty, floor).unwrap_or(last_lsn.next())
}

fn candidate(dirty: &[(PageId, Lsn)], floor: Option<Lsn>) -> Option<Lsn> {
    dirty.iter().map(|&(_, rec)| rec).chain(floor).min()
}

/// Plans one checkpoint attempt (see the module docs).
pub(crate) fn plan(
    dirty: Vec<(PageId, Lsn)>,
    floor: Option<Lsn>,
    last_lsn: Lsn,
    chain: Option<&Chain>,
    full_every: u64,
) -> Plan {
    let table: BTreeMap<PageId, Lsn> = dirty.iter().copied().collect();
    let candidate = candidate(&dirty, floor);
    if let Some(chain) = chain {
        // With nothing dirty and nothing in flight the would-be
        // redo-start is the checkpoint record itself, which drifts with
        // every append — so compare through `unwrap_or` instead.
        if last_lsn == chain.head
            && table == chain.dpt
            && candidate.unwrap_or(chain.redo_start) == chain.redo_start
        {
            return Plan::Skip(chain.head);
        }
    }
    let head = last_lsn.next();
    let redo_start = candidate.unwrap_or(head);
    let (payload, base, depth) = match chain {
        Some(chain) if chain.depth + 1 < full_every => {
            let added = table
                .iter()
                .filter(|&(page, rec)| chain.dpt.get(page) != Some(rec))
                .map(|(&page, &rec)| (page, rec))
                .collect();
            let removed = chain
                .dpt
                .keys()
                .filter(|page| !table.contains_key(page))
                .copied()
                .collect();
            let delta = PageOpPayload::DeltaCheckpoint {
                prev: chain.head,
                base: chain.base,
                redo_start,
                added,
                removed,
            };
            (delta, chain.base, chain.depth + 1)
        }
        _ => (
            PageOpPayload::FuzzyCheckpoint { dirty, redo_start },
            head,
            0,
        ),
    };
    Plan::Publish {
        payload,
        redo_start,
        next: Chain {
            head,
            base,
            depth,
            dpt: table,
            redo_start,
        },
    }
}

/// Publishes the forced checkpoint record at `ck`: verify it is stable,
/// move the master to it, verify the move, truncate below `redo_start`.
/// Returns the reclaimed stable bytes, or `None` if the attempt was
/// abandoned; an abandoned attempt truncates nothing.
///
/// # Errors
///
/// Substrate errors. (Fault suppression is not an error — it surfaces
/// as an abandoned attempt.)
pub(crate) fn publish<P: LogPayload>(
    log: &mut ShardedLog<P>,
    disk: &mut Disk,
    ck: Lsn,
    redo_start: Lsn,
) -> SimResult<Option<u64>> {
    if log.stable_lsn() < ck {
        return Ok(None);
    }
    disk.set_master(ck)?;
    if disk.master() != ck {
        return Ok(None);
    }
    log.archive_prefix(redo_start).map(Some)
}

/// Appends `payload`, forces the log and [`publish`]es the record on a
/// sequential database. Returns the published LSN, or `None` if the
/// attempt was abandoned.
///
/// # Errors
///
/// Substrate errors.
pub(crate) fn append_and_publish<P: LogPayload>(
    db: &mut Db<P>,
    payload: P,
    redo_start: Lsn,
) -> SimResult<Option<Lsn>> {
    let ck = db.log.append(payload)?;
    db.log.flush_all();
    Ok(publish(&mut db.log, &mut db.disk, ck, redo_start)?.map(|_| ck))
}

/// One planned checkpoint attempt on a sequential database with no
/// in-flight floor. Returns the checkpoint now in force: the fresh one
/// on publication, the standing one on a quiescent skip, `None` when
/// the attempt was abandoned.
///
/// # Errors
///
/// Substrate errors.
pub(crate) fn checkpoint(
    db: &mut Db<PageOpPayload>,
    chain: Option<&Chain>,
    full_every: u64,
) -> SimResult<Option<Lsn>> {
    let dirty = db.pool.dirty_page_table();
    match plan(dirty, None, db.log.last_lsn(), chain, full_every) {
        Plan::Skip(head) => Ok(Some(head)),
        Plan::Publish {
            payload,
            redo_start,
            ..
        } => append_and_publish(db, payload, redo_start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(head: u64, base: u64, depth: u64, dpt: &[(u32, u64)], redo_start: u64) -> Chain {
        Chain {
            head: Lsn(head),
            base: Lsn(base),
            depth,
            dpt: dpt.iter().map(|&(p, l)| (PageId(p), Lsn(l))).collect(),
            redo_start: Lsn(redo_start),
        }
    }

    fn table(entries: &[(u32, u64)]) -> Vec<(PageId, Lsn)> {
        entries.iter().map(|&(p, l)| (PageId(p), Lsn(l))).collect()
    }

    #[test]
    fn no_chain_publishes_a_full_snapshot() {
        let dirty = table(&[(1, 4), (3, 2)]);
        let plan = plan(dirty.clone(), None, Lsn(9), None, 4);
        assert_eq!(
            plan,
            Plan::Publish {
                payload: PageOpPayload::FuzzyCheckpoint {
                    dirty,
                    redo_start: Lsn(2),
                },
                redo_start: Lsn(2),
                next: chain(10, 10, 0, &[(1, 4), (3, 2)], 2),
            }
        );
    }

    #[test]
    fn clean_table_starts_the_scan_at_the_record_itself() {
        let Plan::Publish { redo_start, .. } = plan(vec![], None, Lsn(9), None, 4) else {
            panic!("no chain never skips");
        };
        assert_eq!(redo_start, Lsn(10));
        assert_eq!(super::redo_start(&[], None, Lsn(9)), Lsn(10));
    }

    #[test]
    fn quiescent_system_skips() {
        let head = chain(10, 10, 0, &[(1, 4)], 4);
        let plan = plan(table(&[(1, 4)]), None, Lsn(10), Some(&head), 4);
        assert_eq!(plan, Plan::Skip(Lsn(10)));
    }

    #[test]
    fn quiescent_skip_survives_an_empty_table() {
        // The head published a clean table, so its redo-start was the
        // head record itself (LSN 10). A later plan's fallback would be
        // LSN 11; that drift must not defeat the skip.
        let head = chain(10, 10, 0, &[], 10);
        assert_eq!(
            plan(vec![], None, Lsn(10), Some(&head), 4),
            Plan::Skip(Lsn(10))
        );
    }

    #[test]
    fn any_movement_defeats_the_skip() {
        let head = chain(10, 10, 0, &[(1, 4)], 4);
        // Something was logged since the head.
        assert!(matches!(
            plan(table(&[(1, 4)]), None, Lsn(11), Some(&head), 4),
            Plan::Publish { .. }
        ));
        // The table changed.
        assert!(matches!(
            plan(table(&[(1, 4), (2, 7)]), None, Lsn(10), Some(&head), 4),
            Plan::Publish { .. }
        ));
        // The in-flight floor would move the redo-start.
        assert!(matches!(
            plan(table(&[(1, 4)]), Some(Lsn(3)), Lsn(10), Some(&head), 4),
            Plan::Publish { .. }
        ));
    }

    #[test]
    fn delta_carries_the_added_and_removed_diff() {
        let head = chain(10, 6, 1, &[(1, 4), (2, 5), (3, 8)], 4);
        // Page 1 unchanged, page 2 re-dirtied later, page 3 cleaned,
        // page 4 newly dirty.
        let dirty = table(&[(1, 4), (2, 11), (4, 12)]);
        let plan = plan(dirty, None, Lsn(12), Some(&head), 4);
        assert_eq!(
            plan,
            Plan::Publish {
                payload: PageOpPayload::DeltaCheckpoint {
                    prev: Lsn(10),
                    base: Lsn(6),
                    redo_start: Lsn(4),
                    added: table(&[(2, 11), (4, 12)]),
                    removed: vec![PageId(3)],
                },
                redo_start: Lsn(4),
                next: chain(13, 6, 2, &[(1, 4), (2, 11), (4, 12)], 4),
            }
        );
    }

    #[test]
    fn full_every_deep_chain_re_anchors() {
        let head = chain(20, 6, 2, &[(1, 4)], 4);
        let Plan::Publish { payload, next, .. } =
            plan(table(&[(1, 4), (2, 15)]), None, Lsn(20), Some(&head), 4)
        else {
            panic!("the table changed");
        };
        assert_eq!(
            payload,
            PageOpPayload::DeltaCheckpoint {
                prev: Lsn(20),
                base: Lsn(6),
                redo_start: Lsn(4),
                added: table(&[(2, 15)]),
                removed: vec![],
            }
        );
        assert_eq!(next.depth, 3);
        let Plan::Publish { payload, next, .. } =
            plan(table(&[(1, 4)]), None, Lsn(22), Some(&next), 4)
        else {
            panic!("something was logged");
        };
        assert!(
            matches!(payload, PageOpPayload::FuzzyCheckpoint { .. }),
            "{payload:?}"
        );
        assert_eq!((next.head, next.base, next.depth), (Lsn(23), Lsn(23), 0));
    }

    #[test]
    fn in_flight_floor_lowers_the_redo_start() {
        let dirty = table(&[(1, 7)]);
        let Plan::Publish {
            payload,
            redo_start,
            ..
        } = plan(dirty.clone(), Some(Lsn(5)), Lsn(9), None, 4)
        else {
            panic!("no chain never skips");
        };
        assert_eq!(redo_start, Lsn(5));
        assert_eq!(
            payload,
            PageOpPayload::FuzzyCheckpoint {
                dirty,
                redo_start: Lsn(5),
            }
        );
        // The floor alone pins the redo-start of a clean pool.
        assert_eq!(super::redo_start(&[], Some(Lsn(5)), Lsn(9)), Lsn(5));
    }

    #[test]
    fn full_every_one_never_writes_a_delta() {
        let mut head = chain(10, 10, 0, &[(1, 4)], 4);
        for last in 11..20u64 {
            let dirty = table(&[(1, 4), (2, last)]);
            let Plan::Publish { payload, next, .. } = plan(dirty, None, Lsn(last), Some(&head), 1)
            else {
                panic!("the table changed");
            };
            assert!(
                matches!(payload, PageOpPayload::FuzzyCheckpoint { .. }),
                "{payload:?}"
            );
            assert_eq!(next.depth, 0);
            head = next;
        }
    }
}
