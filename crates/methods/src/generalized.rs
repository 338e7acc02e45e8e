//! Generalized LSN-based recovery (§6.4).
//!
//! Physiological operations read only the page they write. Generalized
//! operations relax that: they may *read other pages* while still writing
//! a single page atomically. §6.4's motivating example is the efficient
//! B-tree split — "read the old full page x, write a new page y with half
//! the contents" — which avoids physically logging the moved keys.
//!
//! The price is a *careful write order*: once such an operation `O`
//! (read `x`, write `y`, LSN `L`) exists, a later overwrite of `x` must
//! not reach disk before `y` does. Otherwise a crash could leave `y`
//! missing while the only copy of what `O` read has been destroyed —
//! `O` must be replayed but is no longer applicable. In write-graph
//! terms this is the read-write installation edge from `O` to `x`'s next
//! writer (Figure 8); operationally it is a buffer-pool
//! [constraint](redo_sim::cache::Constraint): "flushing `x` past LSN `L`
//! requires `y` durable at ≥ `L`".
//!
//! The redo test is the page-LSN test on the (single) written page, as in
//! physiological recovery; when an operation replays, its reads go
//! through the recovery cache, which at that point reflects exactly the
//! updates preceding it — the constraint guarantees the disk never got
//! ahead.

use std::collections::{BTreeMap, BTreeSet};

use redo_sim::cache::Constraint;
use redo_sim::db::Db;
use redo_sim::wal::ShardedScanner;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, PageOp};

use crate::checkpoint::Chain;
use crate::oprecord::PageOpPayload;
use crate::{RecoveryMethod, RecoveryStats, SCAN_BATCH};

/// The generalized LSN-based recovery method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Generalized;

fn check_shape(op: &PageOp) -> SimResult<()> {
    // Single-page write sets install atomically via the page write;
    // multi-page write sets (§5's "update sets of variables atomically")
    // are admitted too — execute() binds them into an atomic flush
    // group, so the whole write set still installs as one unit.
    if op.written_pages().is_empty() {
        return Err(SimError::MethodViolation(
            "generalized LSN operations must write at least one page",
        ));
    }
    Ok(())
}

pub(crate) fn register_constraints(db: &mut Db<PageOpPayload>, op: &PageOp, lsn: Lsn) {
    let written = op.written_pages();
    for read_page in op.read_pages() {
        if !written.contains(&read_page) {
            // Every write page must be durable before a later overwrite
            // of the read page reaches disk.
            for &write_page in &written {
                db.pool.add_constraint(Constraint {
                    blocked: read_page,
                    blocked_above: lsn,
                    requires: write_page,
                    required_lsn: lsn,
                });
            }
        }
    }
    // Multi-page write sets must install atomically: bind them into an
    // atomic flush group (a no-op for single-page writes).
    db.pool.add_atomic_group(written, lsn);
}

/// Would this operation's constraints (and atomic group) close a cycle
/// in the flush-order graph?
///
/// Edges run `requires → blocked` ("must flush before"); the new
/// operation adds `w → r` for each cross-page read `r` outside its write
/// set. Atomic groups act like write-graph collapses: their members
/// flush together, so cycle detection runs on the *quotient* graph with
/// each active group's members identified (a constraint into a group is
/// a constraint into every member). A cycle corresponds to a collapse
/// §5 would reject as cyclic: the single-copy cache could never flush
/// legally again.
pub(crate) fn would_cycle(db: &Db<PageOpPayload>, op: &PageOp) -> bool {
    let written = op.written_pages();
    // Union-find over pages: identify members of active groups and of
    // the new op's write set.
    let mut parent: std::collections::BTreeMap<PageId, PageId> = std::collections::BTreeMap::new();
    fn find(parent: &mut std::collections::BTreeMap<PageId, PageId>, x: PageId) -> PageId {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }
    let union = |parent: &mut std::collections::BTreeMap<PageId, PageId>, a: PageId, b: PageId| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent.insert(ra, rb);
        }
    };
    for g in db.pool.atomic_groups() {
        let active = g.pages.iter().any(|&p| db.disk.page_lsn(p) < g.lsn);
        if active {
            let mut it = g.pages.iter();
            if let Some(&first) = it.next() {
                for &m in it {
                    union(&mut parent, first, m);
                }
            }
        }
    }
    for pair in written.windows(2) {
        union(&mut parent, pair[0], pair[1]);
    }
    // Quotient edges: active constraints plus the op's new edges.
    let mut edges: Vec<(PageId, PageId)> = Vec::new();
    for c in db.pool.constraints() {
        if db.disk.page_lsn(c.requires) < c.required_lsn {
            edges.push((find(&mut parent, c.requires), find(&mut parent, c.blocked)));
        }
    }
    let w_rep = find(&mut parent, written[0]);
    for &r in &op.read_pages() {
        if !written.contains(&r) {
            edges.push((w_rep, find(&mut parent, r)));
        }
    }
    // Any cycle in the quotient (including self-loops from edges whose
    // endpoints were identified) means the op must install eagerly.
    has_cycle(&edges)
}

fn has_cycle(edges: &[(redo_workload::pages::PageId, redo_workload::pages::PageId)]) -> bool {
    use redo_workload::pages::PageId;
    let mut nodes: std::collections::BTreeSet<PageId> = std::collections::BTreeSet::new();
    for &(a, b) in edges {
        if a == b {
            return true;
        }
        nodes.insert(a);
        nodes.insert(b);
    }
    // Kahn's algorithm on the quotient graph.
    let mut indeg: std::collections::BTreeMap<PageId, usize> =
        nodes.iter().map(|&n| (n, 0)).collect();
    for &(_, b) in edges {
        *indeg.get_mut(&b).expect("inserted") += 1;
    }
    let mut ready: Vec<PageId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut seen = 0usize;
    while let Some(n) = ready.pop() {
        seen += 1;
        for &(a, b) in edges {
            if a == n {
                let d = indeg.get_mut(&b).expect("inserted");
                *d -= 1;
                if *d == 0 {
                    ready.push(b);
                }
            }
        }
    }
    seen != nodes.len()
}

/// What restart analysis computed from the record the disk master
/// points at: where the redo scan starts, which checkpoint (if any) is
/// in force, and — for fuzzy checkpoints — the logged dirty-page table.
///
/// The DPT is what lets a *partitioned* restart scheduler
/// ([`crate::parallel`]) prove records installed without fetching
/// their pages: a record below the checkpoint whose page was clean at
/// the snapshot (or dirty but below its recLSN) is durably installed,
/// so the router never ships it to a partition. Sequential recovery
/// reaches the same verdict through the per-page redo test; the table
/// only moves the decision from fetch time to scan time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestartAnalysis {
    /// The LSN the redo scan must start from.
    pub redo_start: Lsn,
    /// The published checkpoint the master named, if any.
    pub checkpoint_lsn: Option<Lsn>,
    /// The fuzzy checkpoint's dirty-page table (page → recLSN), if the
    /// master named a fuzzy checkpoint. `None` for heavyweight
    /// checkpoints and for the no-checkpoint fallback.
    pub dirty: Option<BTreeMap<PageId, Lsn>>,
}

impl RestartAnalysis {
    /// The fallback when no checkpoint is in force: a full scan from
    /// the log's first retained record.
    #[must_use]
    pub fn full_scan() -> Self {
        RestartAnalysis {
            redo_start: Lsn(1),
            checkpoint_lsn: None,
            dirty: None,
        }
    }

    /// The analysis of the checkpoint at `checkpoint`: scan from
    /// `redo_start`, with the fuzzy table `dirty` if it carried one.
    pub(crate) fn at(
        checkpoint: Lsn,
        redo_start: Lsn,
        dirty: Option<BTreeMap<PageId, Lsn>>,
    ) -> Self {
        RestartAnalysis {
            redo_start,
            checkpoint_lsn: Some(checkpoint),
            dirty,
        }
    }

    /// Is the record `(page, lsn)` provably installed by this analysis
    /// alone — no page fetch, no LSN comparison against the image?
    ///
    /// True exactly when a fuzzy checkpoint is in force, the record
    /// precedes it, and the page was clean at the snapshot or dirty
    /// with a recLSN above the record. In both cases every effect of
    /// the record had reached disk before the checkpoint published
    /// (that is what recLSN *means*), and redo tests are monotone: a
    /// page's durable LSN never regresses, so the verdict survives
    /// chaos flushes and mid-recovery crashes after the snapshot.
    #[must_use]
    pub fn provably_installed(&self, page: PageId, lsn: Lsn) -> bool {
        match (self.checkpoint_lsn, &self.dirty) {
            (Some(ck), Some(dirty)) if lsn < ck => match dirty.get(&page) {
                Some(&rec_lsn) => lsn < rec_lsn,
                None => true,
            },
            _ => false,
        }
    }
}

impl Generalized {
    /// The analysis step: decide where the redo scan starts from the
    /// record the disk master points at. A heavyweight
    /// [`PageOpPayload::Checkpoint`] installed everything below it, so
    /// the scan starts just after; a
    /// [`PageOpPayload::FuzzyCheckpoint`] carries its own precomputed
    /// redo-start LSN. No master (or a master pointing at anything
    /// else) falls back to a full scan from the log's first retained
    /// record — always safe, since the per-record redo tests decide
    /// installation on their own.
    ///
    /// # Errors
    ///
    /// Log corruption at the master record.
    pub fn analyze(db: &Db<PageOpPayload>) -> SimResult<(Lsn, Option<Lsn>)> {
        Self::analyze_dpt(db).map(|a| (a.redo_start, a.checkpoint_lsn))
    }

    /// [`Generalized::analyze`], additionally handing back the fuzzy
    /// checkpoint's dirty-page table so a partitioned restart scheduler
    /// can route records straight off the scan
    /// ([`RestartAnalysis::provably_installed`]).
    ///
    /// # Errors
    ///
    /// Log corruption at the master record.
    pub fn analyze_dpt(db: &Db<PageOpPayload>) -> SimResult<RestartAnalysis> {
        Ok(Self::analyze_links(db)?.0)
    }

    /// The healthy checkpoint chain the master heads, as analysis
    /// folded it; `None` when the master names no checkpoint, a
    /// heavyweight one, or a torn delta chain (the next publication is
    /// then a full snapshot, which is always sound).
    ///
    /// # Errors
    ///
    /// Log corruption at the master record.
    pub(crate) fn analyze_chain(db: &Db<PageOpPayload>) -> SimResult<Option<Chain>> {
        let (analysis, links) = Self::analyze_links(db)?;
        Ok(links.zip(analysis.dirty).map(|((base, depth), dpt)| Chain {
            head: db.disk.master(),
            base,
            depth,
            dpt,
            redo_start: analysis.redo_start,
        }))
    }

    /// [`Generalized::analyze_dpt`] plus the `(base, depth)` of the
    /// fuzzy chain the master heads, when analysis read it without
    /// falling back.
    fn analyze_links(db: &Db<PageOpPayload>) -> SimResult<(RestartAnalysis, Option<(Lsn, u64)>)> {
        let master = db.disk.master();
        if master > Lsn::ZERO {
            let mut cursor = db.log.cursor_from(master);
            if let Some(rec) = cursor.next() {
                let rec = rec?;
                if rec.lsn == master {
                    match rec.payload {
                        PageOpPayload::Checkpoint => {
                            let redo_start = master.next();
                            return Ok((RestartAnalysis::at(master, redo_start, None), None));
                        }
                        PageOpPayload::FuzzyCheckpoint { dirty, redo_start } => {
                            let dirty = Some(dirty.into_iter().collect());
                            let analysis = RestartAnalysis::at(master, redo_start, dirty);
                            return Ok((analysis, Some((master, 0))));
                        }
                        PageOpPayload::DeltaCheckpoint {
                            prev,
                            base,
                            redo_start,
                            added,
                            removed,
                        } => {
                            return Ok(fold_delta_chain(
                                db, master, prev, base, redo_start, added, removed,
                            ))
                        }
                        PageOpPayload::Op(_) => {}
                    }
                }
            }
        }
        Ok((RestartAnalysis::full_scan(), None))
    }
}

/// Longest delta chain analysis will walk before declaring it broken —
/// a guard against corrupt `prev` links forming a long (or cyclic-
/// looking) walk, far above any chain a sane controller publishes.
const MAX_DELTA_CHAIN: usize = 64;

/// Reconstructs the dirty-page table from a delta-checkpoint chain: walk
/// `prev` links (each strictly decreasing) back to the full
/// [`PageOpPayload::FuzzyCheckpoint`] at `base`, then fold the deltas
/// oldest→newest over its snapshot — each delta removes its `removed`
/// pages, then inserts its `added` (page, recLSN) pairs. Any break in
/// the chain — a link the log no longer holds, a record of the wrong
/// kind, a foreign `base`, a non-decreasing link, a chain past
/// [`MAX_DELTA_CHAIN`] — falls back to reading `base` as a full
/// snapshot, and failing that to a full scan. The fallbacks only ever
/// *widen* the scan: records below the newest published redo start are
/// durably installed (that is what publication proved), redo tests are
/// monotone, and a base snapshot's `provably_installed` verdicts were
/// true at its own publication — so a stale analysis replays more, never
/// wrongly skips. Alongside the analysis, reports the chain's `(base,
/// depth)` when the fold succeeded.
fn fold_delta_chain(
    db: &Db<PageOpPayload>,
    master: Lsn,
    prev: Lsn,
    base: Lsn,
    redo_start: Lsn,
    added: Vec<(PageId, Lsn)>,
    removed: Vec<PageId>,
) -> (RestartAnalysis, Option<(Lsn, u64)>) {
    let mut deltas = vec![(added, removed)];
    let mut link = prev;
    let mut at = master;
    let base_dirty = loop {
        if deltas.len() > MAX_DELTA_CHAIN || link == Lsn::ZERO || link >= at {
            break None;
        }
        match db.log.record_at_lsn(link) {
            Ok(Some(rec)) => match rec.payload {
                PageOpPayload::FuzzyCheckpoint { dirty, .. } if rec.lsn == base => {
                    break Some(dirty);
                }
                PageOpPayload::DeltaCheckpoint {
                    prev,
                    base: b,
                    added,
                    removed,
                    ..
                } if b == base => {
                    deltas.push((added, removed));
                    at = link;
                    link = prev;
                }
                // A full snapshot that is not `base`, a heavyweight
                // marker, an operation record, a delta from a different
                // chain: the link is torn.
                _ => break None,
            },
            // The link is gone (compacted past) or the frame is damaged.
            Ok(None) | Err(_) => break None,
        }
    };
    match base_dirty {
        Some(dirty) => {
            let depth = deltas.len() as u64;
            let mut dpt: BTreeMap<PageId, Lsn> = dirty.into_iter().collect();
            for (added, removed) in deltas.into_iter().rev() {
                for page in removed {
                    dpt.remove(&page);
                }
                dpt.extend(added);
            }
            let analysis = RestartAnalysis::at(master, redo_start, Some(dpt));
            (analysis, Some((base, depth)))
        }
        None => (fall_back_to_base(db, base), None),
    }
}

/// The torn-delta fallback: read `base` directly as a full snapshot. Its
/// redo start and DPT are stale relative to the master delta but were
/// true at `base`'s own publication — safe, just a wider scan.
fn fall_back_to_base(db: &Db<PageOpPayload>, base: Lsn) -> RestartAnalysis {
    if let Ok(Some(rec)) = db.log.record_at_lsn(base) {
        if let PageOpPayload::FuzzyCheckpoint { dirty, redo_start } = rec.payload {
            return RestartAnalysis::at(base, redo_start, Some(dirty.into_iter().collect()));
        }
    }
    RestartAnalysis::full_scan()
}

impl RecoveryMethod for Generalized {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "generalized-lsn"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        check_shape(op)?;
        if would_cycle(db, op) {
            // Pre-resolution: the op's constraints/group would close a
            // cycle in the flush-order quotient graph, after which the
            // single-copy cache could never flush legally. Discharge the
            // standing constraints first — the pre-op graph is acyclic,
            // so a full constraint-ordered flush always succeeds — and
            // only then admit the op. (A finer cache manager would flush
            // just the entangled pages; correctness only needs *some*
            // discharge.)
            db.log.flush_all();
            let stable = db.log.stable_lsn();
            db.pool.flush_all(&mut db.disk, stable)?;
        }
        let lsn = db.log.append(PageOpPayload::Op(op.clone()))?;
        db.apply_page_op(op, lsn)?;
        register_constraints(db, op, lsn);
        Ok(lsn)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        db.log.flush_all();
        let stable = db.log.stable_lsn();
        // flush_all retries around write-order constraints, flushing
        // prerequisite pages first; write-graph acyclicity guarantees
        // termination.
        db.pool.flush_all(&mut db.disk, stable)?;
        let ck = db.log.append(PageOpPayload::Checkpoint)?;
        db.log.flush_all();
        db.disk.set_master(ck)?;
        Ok(())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        // Recovery's first act: repair crash damage the media can
        // detect (torn pages, a torn log-tail fragment).
        db.repair_after_crash();
        let (redo_start, checkpoint_lsn) = Generalized::analyze(db)?;
        let mut stats = RecoveryStats {
            checkpoint_lsn,
            truncated_bytes: db.log.truncated_bytes(),
            ..RecoveryStats::default()
        };
        // Streaming scan from the analysis' redo-start LSN; each batch
        // prefetches the read+write footprint of its operations (replay
        // reads go through the recovery cache too).
        let mut scanner = ShardedScanner::seek(&db.log, redo_start);
        loop {
            let batch = scanner.next_batch(&db.log, SCAN_BATCH)?;
            if batch.is_empty() {
                break;
            }
            let pages: BTreeSet<PageId> = batch
                .iter()
                .filter_map(|rec| match &rec.payload {
                    PageOpPayload::Op(op) => {
                        Some(op.read_pages().into_iter().chain(op.written_pages()))
                    }
                    PageOpPayload::Checkpoint
                    | PageOpPayload::FuzzyCheckpoint { .. }
                    | PageOpPayload::DeltaCheckpoint { .. } => None,
                })
                .flatten()
                .collect();
            let pages: Vec<PageId> = pages.into_iter().collect();
            stats.pages_prefetched += db.pool.prefetch(
                &mut db.disk,
                &pages,
                db.geometry.slots_per_page,
                db.log.stable_lsn(),
            );
            for rec in batch {
                stats.scanned += 1;
                let PageOpPayload::Op(op) = rec.payload else {
                    continue;
                };
                // The redo test examines the whole write set; the atomic
                // flush group guarantees all pages agree (all installed or
                // none), so any stale page means the operation is
                // uninstalled.
                let mut stale = false;
                let mut fresh = false;
                for page in op.written_pages() {
                    let stable = db.log.stable_lsn();
                    let cached =
                        db.pool
                            .fetch(&mut db.disk, page, db.geometry.slots_per_page, stable)?;
                    if cached.lsn() < rec.lsn {
                        stale = true;
                    } else {
                        fresh = true;
                    }
                }
                debug_assert!(
                    !(stale && fresh),
                    "atomic group violated: write set of op {} part-installed",
                    op.id
                );
                if stale {
                    // The replayed operation re-imposes its write ordering
                    // on post-recovery cache management, with the same
                    // pre-resolution of would-be cycles as normal execution.
                    if would_cycle(db, &op) {
                        let stable = db.log.stable_lsn();
                        db.pool.flush_all(&mut db.disk, stable)?;
                    }
                    db.apply_page_op(&op, rec.lsn)?;
                    register_constraints(db, &op, rec.lsn);
                    stats.replayed.push(op.id);
                } else {
                    stats.skipped.push(op.id);
                }
            }
        }
        stats.note_scan(scanner.stats(), db.log.forces());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::db::Geometry;
    use redo_workload::pages::{Cell, PageId, PageOpKind, PageWorkloadSpec, SlotId};

    fn cross_workload(n: usize, seed: u64) -> Vec<PageOp> {
        PageWorkloadSpec {
            n_ops: n,
            n_pages: 4,
            cross_page_fraction: 0.6,
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

    fn assert_matches_model(db: &mut Db<PageOpPayload>, ops: &[PageOp]) {
        for (c, v) in model(ops) {
            assert_eq!(db.read_cell(c).unwrap(), v, "cell {c:?}");
        }
    }

    #[test]
    fn multi_page_writes_form_atomic_groups() {
        let op = PageOp {
            id: 0,
            kind: PageOpKind::MultiPage,
            reads: vec![],
            writes: vec![
                Cell {
                    page: PageId(0),
                    slot: SlotId(0),
                },
                Cell {
                    page: PageId(1),
                    slot: SlotId(0),
                },
            ],
            f_seed: 1,
        };
        let mut db = Db::new(Geometry::default());
        Generalized.execute(&mut db, &op).unwrap();
        assert_eq!(db.pool.atomic_groups().len(), 1);
        // A lone flush of either page carries the other along.
        db.log.flush_all();
        let stable = db.log.stable_lsn();
        db.pool.flush_page(&mut db.disk, PageId(0), stable).unwrap();
        assert_eq!(db.disk.page_lsn(PageId(0)), db.disk.page_lsn(PageId(1)));
    }

    #[test]
    fn efg_style_entanglement_recovers_atomically() {
        // §5's E, F example at page granularity: E reads page 1 writes
        // pages {0,1}? Simpler: one multi-page op writing {0,1} whose
        // partial install would be unexplainable; the atomic group makes
        // partial installs impossible and recovery exact.
        let x = Cell {
            page: PageId(0),
            slot: SlotId(0),
        };
        let y = Cell {
            page: PageId(1),
            slot: SlotId(0),
        };
        let seed = PageOp {
            id: 0,
            kind: PageOpKind::Blind,
            reads: vec![],
            writes: vec![x],
            f_seed: 1,
        };
        let entangled = PageOp {
            id: 1,
            kind: PageOpKind::MultiPage,
            reads: vec![x],
            writes: vec![x, y],
            f_seed: 2,
        };
        let later = PageOp {
            id: 2,
            kind: PageOpKind::Physiological,
            reads: vec![y],
            writes: vec![y],
            f_seed: 3,
        };
        let ops = [seed, entangled, later];
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            Generalized.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        // Attempt to flush page 0 alone: the group drags page 1 along.
        let stable = db.log.stable_lsn();
        db.pool.flush_page(&mut db.disk, PageId(0), stable).unwrap();
        let l0 = db.disk.page_lsn(PageId(0));
        let l1 = db.disk.page_lsn(PageId(1));
        assert!(l0 >= redo_theory::log::Lsn(2) && l1 >= redo_theory::log::Lsn(2));
        db.crash();
        Generalized.recover(&mut db).unwrap();
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn empty_write_set_rejected() {
        // Operation::builder would reject this at theory level; the
        // method also guards it.
        let op = PageOp {
            id: 0,
            kind: PageOpKind::MultiPage,
            reads: vec![],
            writes: vec![],
            f_seed: 1,
        };
        let mut db = Db::new(Geometry::default());
        assert!(matches!(
            Generalized.execute(&mut db, &op),
            Err(SimError::MethodViolation(_))
        ));
    }

    #[test]
    fn chaotic_multi_page_workloads_recover() {
        for seed in 0..4 {
            let ops = PageWorkloadSpec {
                n_ops: 30,
                n_pages: 4,
                cross_page_fraction: 0.3,
                multi_page_fraction: 0.4,
                blind_fraction: 0.1,
                ..Default::default()
            }
            .generate(seed);
            let mut db = Db::new(Geometry::default());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            for op in &ops {
                Generalized.execute(&mut db, op).unwrap();
                db.chaos_flush(&mut rng, 0.6, 0.3).unwrap();
            }
            db.log.flush_all();
            db.crash();
            Generalized.recover(&mut db).unwrap();
            assert_matches_model(&mut db, &ops);
        }
    }

    #[test]
    fn cross_page_reads_register_constraints() {
        let mut db = Db::new(Geometry::default());
        let op = PageOp {
            id: 0,
            kind: PageOpKind::Generalized,
            reads: vec![Cell {
                page: PageId(1),
                slot: SlotId(0),
            }],
            writes: vec![Cell {
                page: PageId(0),
                slot: SlotId(0),
            }],
            f_seed: 7,
        };
        let lsn = Generalized.execute(&mut db, &op).unwrap();
        let cs = db.pool.constraints();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].blocked, PageId(1));
        assert_eq!(cs[0].requires, PageId(0));
        assert_eq!(cs[0].required_lsn, lsn);
    }

    #[test]
    fn figure8_write_order_enforced() {
        // P: read x (page 0), write y (page 1). Q: overwrite x.
        // The cache must refuse to flush x before y is durable.
        let mut db = Db::new(Geometry::default());
        let x = Cell {
            page: PageId(0),
            slot: SlotId(0),
        };
        let y = Cell {
            page: PageId(1),
            slot: SlotId(0),
        };
        let seed_x = PageOp {
            id: 0,
            kind: PageOpKind::Blind,
            reads: vec![],
            writes: vec![x],
            f_seed: 1,
        };
        let p = PageOp {
            id: 1,
            kind: PageOpKind::Generalized,
            reads: vec![x],
            writes: vec![y],
            f_seed: 2,
        };
        let q = PageOp {
            id: 2,
            kind: PageOpKind::Physiological,
            reads: vec![x],
            writes: vec![x],
            f_seed: 3,
        };
        Generalized.execute(&mut db, &seed_x).unwrap();
        Generalized.execute(&mut db, &p).unwrap();
        let q_lsn = Generalized.execute(&mut db, &q).unwrap();
        db.log.flush_all();
        let stable = db.log.stable_lsn();
        // Flushing x (now at q_lsn > p_lsn) before y must be refused.
        let err = db
            .pool
            .flush_page(&mut db.disk, PageId(0), stable)
            .unwrap_err();
        assert!(
            matches!(err, SimError::WriteOrderViolation { .. }),
            "{err:?} at {q_lsn:?}"
        );
        // Flush y, then x: legal.
        db.pool.flush_page(&mut db.disk, PageId(1), stable).unwrap();
        db.pool.flush_page(&mut db.disk, PageId(0), stable).unwrap();
    }

    #[test]
    fn figure8_crash_between_y_and_x_recovers() {
        // The dangerous window: y durable, x's overwrite not. Recovery
        // must replay Q (x stale) and skip P (y durable).
        let mut db = Db::new(Geometry::default());
        let x = Cell {
            page: PageId(0),
            slot: SlotId(0),
        };
        let y = Cell {
            page: PageId(1),
            slot: SlotId(0),
        };
        let seed_x = PageOp {
            id: 0,
            kind: PageOpKind::Blind,
            reads: vec![],
            writes: vec![x],
            f_seed: 1,
        };
        let p = PageOp {
            id: 1,
            kind: PageOpKind::Generalized,
            reads: vec![x],
            writes: vec![y],
            f_seed: 2,
        };
        let q = PageOp {
            id: 2,
            kind: PageOpKind::Physiological,
            reads: vec![x],
            writes: vec![x],
            f_seed: 3,
        };
        let ops = [seed_x, p, q];
        // Seed x and make it durable first (so Q's replay reads P's x).
        Generalized.execute(&mut db, &ops[0]).unwrap();
        db.log.flush_all();
        db.pool
            .flush_page(&mut db.disk, PageId(0), db.log.stable_lsn())
            .unwrap();
        Generalized.execute(&mut db, &ops[1]).unwrap();
        Generalized.execute(&mut db, &ops[2]).unwrap();
        db.log.flush_all();
        // Flush y only; x's overwrite stays volatile.
        db.pool
            .flush_page(&mut db.disk, PageId(1), db.log.stable_lsn())
            .unwrap();
        db.crash();
        let stats = Generalized.recover(&mut db).unwrap();
        assert!(stats.replayed.contains(&2), "Q must replay");
        assert!(stats.skipped.contains(&1), "P already installed via y");
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn random_chaos_runs_recover_exactly() {
        for seed in 0..5 {
            let mut db = Db::new(Geometry::default());
            let ops = cross_workload(25, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            for op in &ops {
                Generalized.execute(&mut db, op).unwrap();
                db.chaos_flush(&mut rng, 0.6, 0.3).unwrap();
            }
            db.log.flush_all();
            db.crash();
            Generalized.recover(&mut db).unwrap();
            assert_matches_model(&mut db, &ops);
        }
    }

    #[test]
    fn checkpoint_flushes_in_constraint_order() {
        let mut db = Db::new(Geometry::default());
        let ops = cross_workload(20, 42);
        for op in &ops {
            Generalized.execute(&mut db, op).unwrap();
        }
        Generalized.checkpoint(&mut db).unwrap();
        assert!(db.pool.dirty_pages().is_empty());
        db.crash();
        let stats = Generalized.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 0, "checkpoint installed everything");
        assert_matches_model(&mut db, &ops);
    }
}
