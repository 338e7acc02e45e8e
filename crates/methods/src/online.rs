//! Generalized recovery with *online* fuzzy checkpoints and log
//! truncation — the sequential face of the concurrent checkpoint daemon
//! ([`crate::concurrent::SharedDb::checkpoint_tick`]).
//!
//! [`crate::generalized::Generalized`]'s heavyweight checkpoint flushes
//! every dirty page before writing its record — simple, but it stalls
//! normal operation for the whole flush storm. The online discipline
//! checkpoints *fuzzily*: it appends a
//! [`PageOpPayload::FuzzyCheckpoint`] carrying the buffer pool's
//! dirty-page table and its redo-start, publishes it through the master
//! pointer and truncates the log below the redo-start, flushing
//! nothing. Planning and the force → verify → move master → verify →
//! truncate protocol live in the crate-private `checkpoint` module.
//!
//! Execution and recovery are exactly [`Generalized`]'s —
//! [`Generalized::analyze`] already dispatches on the record the
//! master points at.

use redo_sim::db::Db;
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::PageOp;

use crate::checkpoint;
use crate::generalized::Generalized;
use crate::oprecord::PageOpPayload;
use crate::{RecoveryMethod, RecoveryStats};

/// Generalized LSN-based recovery whose checkpoints are online fuzzy
/// snapshots with log truncation.
#[derive(Clone, Copy, Debug, Default)]
pub struct GeneralizedOnline;

impl GeneralizedOnline {
    /// One online checkpoint attempt. Returns the published checkpoint
    /// LSN, or `None` if the attempt was abandoned (the record never
    /// became durable, or the pointer swing did not land — both happen
    /// under fault injection); an abandoned attempt publishes nothing
    /// and truncates nothing.
    ///
    /// # Errors
    ///
    /// Substrate errors. (Fault suppression is not an error — it
    /// surfaces as an abandoned attempt.)
    pub fn checkpoint_online(db: &mut Db<PageOpPayload>) -> SimResult<Option<Lsn>> {
        // No chain and a full snapshot every time: never a skip, never
        // a delta.
        checkpoint::checkpoint(db, None, 1)
    }
}

impl RecoveryMethod for GeneralizedOnline {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "generalized-online"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Generalized.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        Self::checkpoint_online(db).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        Generalized.recover(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::db::Geometry;
    use redo_sim::fault::{FaultKind, FaultPlan};
    use redo_workload::pages::{Cell, PageWorkloadSpec};

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        PageWorkloadSpec {
            n_ops: n,
            n_pages: 5,
            cross_page_fraction: 0.4,
            multi_page_fraction: 0.2,
            blind_fraction: 0.1,
            ..Default::default()
        }
        .generate(seed)
    }

    fn model(ops: &[PageOp]) -> std::collections::BTreeMap<Cell, u64> {
        let mut cells = std::collections::BTreeMap::new();
        for op in ops {
            let reads: Vec<u64> = op
                .reads
                .iter()
                .map(|c| cells.get(c).copied().unwrap_or(0))
                .collect();
            for &w in &op.writes {
                cells.insert(w, op.output(w, &reads));
            }
        }
        cells
    }

    #[test]
    fn online_checkpoints_truncate_and_recover_exactly() {
        let ops = workload(40, 3);
        let mut db = Db::new(Geometry::default());
        let mut rng = StdRng::seed_from_u64(99);
        let mut published = 0u64;
        for (i, op) in ops.iter().enumerate() {
            GeneralizedOnline.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.8, 0.5).unwrap();
            if (i + 1) % 8 == 0 {
                let ck = GeneralizedOnline::checkpoint_online(&mut db).unwrap();
                assert!(ck.is_some(), "no faults armed: publication must land");
                published += 1;
            }
        }
        assert_eq!(published, 5);
        db.log.flush_all();
        db.crash();
        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        assert!(stats.checkpoint_lsn.is_some());
        for (c, v) in model(&ops) {
            assert_eq!(db.read_cell(c).unwrap(), v, "cell {c:?}");
        }
    }

    #[test]
    fn checkpoint_does_not_flush_pages() {
        let ops = workload(12, 7);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        let dirty_before = db.pool.dirty_pages();
        assert!(!dirty_before.is_empty());
        GeneralizedOnline::checkpoint_online(&mut db)
            .unwrap()
            .expect("published");
        assert_eq!(
            db.pool.dirty_pages(),
            dirty_before,
            "fuzzy checkpoints must not clean pages"
        );
    }

    #[test]
    fn clean_pool_checkpoint_truncates_everything_below_itself() {
        let ops = workload(10, 5);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.pool
            .flush_all(&mut db.disk, db.log.stable_lsn())
            .unwrap();
        let ck = GeneralizedOnline::checkpoint_online(&mut db)
            .unwrap()
            .expect("published");
        assert_eq!(db.log.first_stable(), ck, "only the record itself remains");
        db.crash();
        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 1, "the scan sees only the checkpoint record");
        for (c, v) in model(&ops) {
            assert_eq!(db.read_cell(c).unwrap(), v, "cell {c:?}");
        }
    }

    #[test]
    fn suppressed_pointer_swing_abandons_the_attempt() {
        let ops = workload(16, 11);
        let mut db = Db::new(Geometry::default());
        for op in &ops[..8] {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        let first = GeneralizedOnline::checkpoint_online(&mut db)
            .unwrap()
            .expect("published");
        let first_stable_then = db.log.first_stable();
        for op in &ops[8..] {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        // Pre-force the log so the checkpoint's own flush_all moves
        // exactly one record (the checkpoint record, event 1), then arm
        // a clean stop on event 2 — the master write: the record becomes
        // durable but its publication is suppressed.
        db.log.flush_all();
        db.arm_faults(FaultPlan {
            at: 2,
            kind: FaultKind::Clean,
        });
        let second = GeneralizedOnline::checkpoint_online(&mut db).unwrap();
        assert_eq!(second, None, "swing suppressed: attempt abandoned");
        assert_eq!(db.disk.master(), first, "previous checkpoint stands");
        assert_eq!(
            db.log.first_stable(),
            first_stable_then,
            "an abandoned attempt truncates nothing"
        );
        db.crash();
        db.repair_after_crash();
        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(first));
        for (c, v) in model(&ops) {
            assert_eq!(db.read_cell(c).unwrap(), v, "cell {c:?}");
        }
    }
}
