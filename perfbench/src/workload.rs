//! The three workloads: how each builds its pre-crash image, and the
//! three restart measurements every workload runs on its images.
//!
//! * `serve_zipf` — [`SharedDb`] on mem, two closed-loop client threads
//!   over a multi-tenant Zipf stream, per-client group commit, and the
//!   adaptive controller ticking on one client's cadence.
//! * `restart_mem` — a sequential [`Db`] on mem with 4 log shards and a
//!   buffer pool far smaller than the page count, driven by the
//!   [`Media`] method (online fuzzy checkpoints feeding the archive
//!   tier) with checkpoints stopping at 60% of the run, so the redo
//!   suffix is long.
//! * `durable_file` — a sequential [`Db`] on real files with 1 log shard
//!   and a pool that fits, one `flush_all` (one fdatasync) per commit
//!   group and periodic online checkpoints.
//!
//! Each restart measurement clones the crashed image outside the timed
//! region. On the file backend the timed region starts with the reopen
//! ([`Db::crash`], which relearns every structure from the files); on
//! mem the image is already crashed.

use std::collections::BTreeMap;
use std::time::Instant;

use redo_methods::concurrent::SharedDb;
use redo_methods::control::{Controller, RestartBudget};
use redo_methods::generalized::Generalized;
use redo_methods::media::{self, Media};
use redo_methods::ondemand::{OnDemand, OnDemandRestart};
use redo_methods::oprecord::PageOpPayload;
use redo_methods::{RecoveryMethod, SCAN_BATCH};
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::wal::ShardedScanner;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_theory::state::State;
use redo_workload::pages::{Cell, PageId, PageOp};

use crate::gen::{self, Mix, Rng, StreamSpec, Tenant};
use crate::model::{self, Model};
use crate::sample::Summary;
use crate::trace::Tracer;

/// Slots per page in every workload.
pub const SLOTS: u16 = 8;

/// The crashed-image database type.
pub type PDb = Db<PageOpPayload>;

/// Which workload, with the settings only its runner reads.
#[derive(Clone, Debug)]
pub enum Kind {
    /// Concurrent foreground under the controller, on mem.
    ServeZipf(Serve),
    /// Sequential, mem, bounded pool, long redo suffix.
    RestartMem(Sequential),
    /// Sequential, file backend, fsync per commit group.
    DurableFile(Sequential),
}

/// Settings of the `SharedDb` runner.
#[derive(Clone, Debug)]
pub struct Serve {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Client 0 runs `control_tick` every this many of its ops.
    pub control_every: usize,
    /// The controller's restart budget.
    pub budget: RestartBudget,
}

/// Settings of the sequential `Db` runner.
#[derive(Clone, Debug)]
pub struct Sequential {
    /// Online checkpoint every this many ops…
    pub checkpoint_every: usize,
    /// …up to this op index (later ops form the long suffix).
    pub checkpoint_until: usize,
    /// Run the page cleaner every this many ops…
    pub clean_every: usize,
    /// …flushing this many coldest dirty pages.
    pub clean_pages: usize,
}

/// One workload: its runner plus the settings every runner shares.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub kind: Kind,
    /// Log shards (a power of two).
    pub log_shards: usize,
    /// Buffer-pool frames (`None`: unbounded).
    pub pool: Option<usize>,
    /// The op stream's shape.
    pub stream: StreamSpec,
    /// Ops each client issues per set-up.
    pub ops_per_client: usize,
    /// Ops per group commit.
    pub group: usize,
    /// Restart rounds (one of each restart measurement) run on each
    /// image before the next set-up rebuilds it.
    pub rounds: usize,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["serve_zipf", "restart_mem", "durable_file"];

impl Config {
    /// The configuration for a workload name.
    pub fn named(name: &str) -> Option<Config> {
        match name {
            "serve_zipf" => Some(Config {
                kind: Kind::ServeZipf(Serve {
                    clients: 2,
                    control_every: 64,
                    budget: RestartBudget {
                        max_suffix_bytes: 16 * 1024,
                        max_dirty_pages: 96,
                        ..RestartBudget::default()
                    },
                }),
                log_shards: 1,
                pool: None,
                stream: StreamSpec {
                    tenants: (0..4)
                        .map(|i| Tenant {
                            base: i * 64,
                            pages: 64,
                            skew: [1.1, 0.9, 0.6, 0.3][i as usize],
                        })
                        .collect(),
                    slots: SLOTS,
                    // Chosen by the `serve_zipf_sweep` measurement: the
                    // largest generalized share at which the controller
                    // held the restart suffix within twice its budget on
                    // every seed. Larger shares entangle the tenant's
                    // pages so that no flush can advance the horizon.
                    mix: Mix {
                        generalized: 0.005,
                        multi_page: 0.0,
                        blind: 0.05,
                    },
                },
                ops_per_client: 3_000,
                group: 8,
                rounds: 2,
            }),
            "restart_mem" => Some(Config {
                kind: Kind::RestartMem(Sequential {
                    checkpoint_every: 3_000,
                    checkpoint_until: 18_000,
                    clean_every: 512,
                    clean_pages: 2,
                }),
                log_shards: 4,
                pool: Some(128),
                stream: StreamSpec {
                    tenants: (0..16)
                        .map(|i| Tenant {
                            base: i * 64,
                            pages: 64,
                            skew: 0.8,
                        })
                        .collect(),
                    slots: SLOTS,
                    mix: Mix {
                        generalized: 0.1,
                        multi_page: 0.03,
                        blind: 0.05,
                    },
                },
                ops_per_client: 30_003,
                group: 16,
                rounds: 4,
            }),
            "durable_file" => Some(Config {
                kind: Kind::DurableFile(Sequential {
                    checkpoint_every: 1_600,
                    checkpoint_until: usize::MAX,
                    clean_every: 1_024,
                    clean_pages: 4,
                }),
                log_shards: 1,
                pool: None,
                stream: StreamSpec {
                    tenants: vec![Tenant {
                        base: 0,
                        pages: 32,
                        skew: 0.9,
                    }],
                    slots: SLOTS,
                    mix: Mix {
                        generalized: 0.1,
                        multi_page: 0.02,
                        blind: 0.05,
                    },
                },
                ops_per_client: 4_005,
                group: 32,
                rounds: 6,
            }),
            _ => None,
        }
    }

    /// Does the workload run on the file backend?
    pub fn file(&self) -> bool {
        matches!(self.kind, Kind::DurableFile(_))
    }

    /// Closed-loop client threads.
    pub fn clients(&self) -> usize {
        match &self.kind {
            Kind::ServeZipf(s) => s.clients,
            Kind::RestartMem(_) | Kind::DurableFile(_) => 1,
        }
    }
}

/// A crashed image plus everything the checks need.
#[derive(Debug)]
pub struct Image {
    /// The crashed database (cloned per measurement).
    pub db: PDb,
    /// The model of the durable prefix.
    pub model: Model,
    /// The model as a theory state.
    pub expected: State,
    /// First-read targets: one written cell per gated page, seeded order.
    pub reads: Vec<Cell>,
    /// Were the targets gated pages (false: no page was gated at open,
    /// so the targets are ordinary written cells)?
    pub reads_gated: bool,
    /// Media-loss victims: installed pages (or written pages, if none
    /// is installed), seeded order.
    pub victims: Vec<PageId>,
}

/// One set-up: the foreground numbers measured while building an
/// image.
#[derive(Debug)]
pub struct Setup {
    /// Seconds to generate the inputs and build the crashed image.
    pub setup_s: f64,
    /// Seconds of the foreground phase alone.
    pub fg_s: f64,
    /// Acknowledged (group-committed) ops.
    pub acked: u64,
    /// Issue-to-acknowledgement latency (ns) of the acknowledged ops:
    /// median and p99.
    pub ack: Option<Summary>,
    /// `ShardedLog::appended_bytes` at the crash.
    pub appended_bytes: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Failed ops and check failures.
    pub failures: Vec<String>,
}

/// What one measured restart produced.
#[derive(Debug)]
pub struct Sample {
    /// Wall time of the timed region (ns).
    pub ns: f64,
    /// An engine error or a model mismatch.
    pub err: Option<String>,
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// Builds one crashed image from `seed`.
pub fn build(cfg: &Config, seed: u64, t: &mut Tracer) -> (Image, Setup) {
    let start = Instant::now();
    let clients = cfg.clients();
    let streams: Vec<Vec<PageOp>> = (0..clients)
        .map(|c| {
            let mut rng = Rng::new(seed, 1 + c as u64);
            gen::stream(
                &cfg.stream,
                &mut rng,
                cfg.ops_per_client,
                c as u32,
                clients as u32,
            )
        })
        .collect();
    let run = match &cfg.kind {
        Kind::ServeZipf(serve) => run_shared(cfg, serve, &streams, t),
        Kind::RestartMem(seq) | Kind::DurableFile(seq) => run_sequential(cfg, seq, &streams[0], t),
    };
    let setup_s = start.elapsed().as_secs_f64();
    let Run {
        db,
        applied,
        max_acked,
        fg_s,
        ack_ns,
        attempted,
        mut failures,
    } = run;
    // The durable prefix: every applied op the surviving log holds. No
    // acknowledged op may be missing from it.
    let stable = db.log.stable_lsn();
    if max_acked > stable {
        failures.push(format!(
            "acknowledged LSN {max_acked:?} missing: log is stable only to {stable:?}"
        ));
    }
    let mut durable: Vec<(Lsn, &PageOp)> = applied
        .iter()
        .filter(|&&(lsn, _, _)| lsn <= stable)
        .map(|&(lsn, c, i)| (lsn, &streams[c][i]))
        .collect();
    durable.sort_unstable_by_key(|&(lsn, _)| lsn);
    let model = Model::replay(durable.iter().map(|&(_, op)| op));
    let expected = model.state(SLOTS);
    let (reads, reads_gated) = match first_read_targets(cfg, &db, &model, seed) {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("probing gates: {e}"));
            (Vec::new(), false)
        }
    };
    // Media victims: installed pages; pages with logged history when
    // nothing reached the disk yet.
    let mut victims: Vec<PageId> = db.disk.pages().into_iter().map(|(id, _)| id).collect();
    if victims.is_empty() {
        victims = model.cells().map(|(c, _)| c.page).collect();
        victims.dedup();
    }
    Rng::new(seed, 0x51c7).shuffle(&mut victims);
    let setup = Setup {
        appended_bytes: db.log.appended_bytes(),
        setup_s,
        fg_s,
        acked: ack_ns.len() as u64,
        ack: (!ack_ns.is_empty()).then(|| Summary::of(&ack_ns, 0.99)),
        attempted,
        failures,
    };
    let image = Image {
        db,
        model,
        expected,
        reads,
        reads_gated,
        victims,
    };
    (image, setup)
}

/// The foreground phase's raw outcome.
struct Run {
    db: PDb,
    /// (LSN, client, op index) of every op the engine applied.
    applied: Vec<(Lsn, usize, usize)>,
    max_acked: Lsn,
    fg_s: f64,
    ack_ns: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

fn run_sequential(cfg: &Config, seq: &Sequential, ops: &[PageOp], t: &mut Tracer) -> Run {
    let geometry = Geometry {
        slots_per_page: SLOTS,
    };
    let backend = if cfg.file() {
        BackendKind::File
    } else {
        BackendKind::Mem
    };
    let mut db: PDb = Db::on_sharded(backend, geometry, cfg.pool, cfg.log_shards);
    let mut applied = Vec::with_capacity(ops.len());
    let mut ack_ns = Vec::with_capacity(ops.len());
    let mut pending: Vec<(Lsn, Instant)> = Vec::with_capacity(cfg.group);
    let mut max_acked = Lsn::ZERO;
    let mut failures = Vec::new();
    let mut checkpoints = 0u64;
    let fg = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let issued = Instant::now();
        match t.span("methods.execute", |_| Media.execute(&mut db, op)) {
            Ok(lsn) => {
                applied.push((lsn, 0, i));
                pending.push((lsn, issued));
            }
            Err(e) => failures.push(format!("execute op {}: {e}", op.id)),
        }
        let n = i + 1;
        // Group commit; the ops after the last full group stay
        // unacknowledged at the crash.
        if n % cfg.group == 0 {
            t.span("wal.force", |_| db.log.flush_all());
            let done = Instant::now();
            for (lsn, at) in pending.drain(..) {
                ack_ns.push((done - at).as_nanos() as f64);
                max_acked = max_acked.max(lsn);
            }
        }
        if n % seq.clean_every == 0 {
            if let Err(e) = clean_coldest(&mut db, seq.clean_pages, t) {
                failures.push(format!("page cleaner: {e}"));
            }
        }
        if n % seq.checkpoint_every == 0 && n <= seq.checkpoint_until {
            match t.span("media.checkpoint", |_| Media.checkpoint(&mut db)) {
                Ok(()) => checkpoints += 1,
                Err(e) => failures.push(format!("checkpoint: {e}")),
            }
        }
    }
    let fg_s = fg.elapsed().as_secs_f64();
    if t.on() {
        t.gauge("control.checkpoints_taken", checkpoints as f64);
        gauge_estimate(t, Controller::estimate(&db).map(|e| e.suffix_bytes));
    }
    t.span("sim.crash", |_| db.crash());
    gauge_log(t, &db);
    Run {
        db,
        applied,
        max_acked,
        fg_s,
        ack_ns,
        attempted: ops.len() as u64,
        failures,
    }
}

fn gauge_estimate(t: &mut Tracer, suffix: SimResult<u64>) {
    if let Ok(s) = suffix {
        t.gauge("control.suffix_bytes_at_crash", s as f64);
    }
}

fn gauge_log(t: &mut Tracer, db: &PDb) {
    if t.on() {
        t.gauge("wal.appended_bytes", db.log.appended_bytes() as f64);
        t.gauge("wal.forces", db.log.forces() as f64);
        t.gauge("wal.syncs", db.log.syncs() as f64);
        t.gauge("control.truncated_bytes", db.log.truncated_bytes() as f64);
    }
}

/// The sequential workloads' background cleaner: flush the `n` dirty
/// pages with the oldest recLSN (the ones pinning the truncation
/// horizon), skipping flushes the WAL rule or a write-order constraint
/// forbids right now.
fn clean_coldest(db: &mut PDb, n: usize, t: &mut Tracer) -> SimResult<()> {
    let stable = db.log.stable_lsn();
    let mut table = db.pool.dirty_page_table();
    table.sort_unstable_by_key(|&(page, rec)| (rec, page));
    for (page, _) in table.into_iter().take(n) {
        match t.span("cache.flush_page", |_| {
            db.pool.flush_page(&mut db.disk, page, stable)
        }) {
            Ok(())
            | Err(SimError::WalViolation { .. })
            | Err(SimError::WriteOrderViolation { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One client thread's outcome.
struct ClientRun {
    applied: Vec<(Lsn, usize, usize)>,
    max_acked: Lsn,
    ack_ns: Vec<f64>,
    failures: Vec<String>,
    tracer: Tracer,
}

fn client(
    shared: &SharedDb,
    cfg: &Config,
    serve: &Serve,
    c: usize,
    ops: &[PageOp],
    controller: &Controller,
    mut t: Tracer,
) -> ClientRun {
    let mut applied = Vec::with_capacity(ops.len());
    let mut ack_ns = Vec::with_capacity(ops.len());
    let mut max_acked = Lsn::ZERO;
    let mut failures = Vec::new();
    let mut pending: Vec<(Lsn, Instant)> = Vec::with_capacity(cfg.group);
    for (i, op) in ops.iter().enumerate() {
        let issued = Instant::now();
        match t.span("concurrent.execute", |_| shared.execute(op)) {
            Ok(lsn) => {
                applied.push((lsn, c, i));
                pending.push((lsn, issued));
            }
            Err(e) => failures.push(format!("execute op {}: {e}", op.id)),
        }
        let n = i + 1;
        if n % cfg.group == 0 || n == ops.len() {
            t.span("concurrent.commit", |_| shared.commit_tick());
            let done = Instant::now();
            for (lsn, at) in pending.drain(..) {
                ack_ns.push((done - at).as_nanos() as f64);
                max_acked = max_acked.max(lsn);
            }
        }
        if c == 0 && n % serve.control_every == 0 {
            if let Err(e) = t.span("concurrent.control_tick", |_| {
                shared.control_tick(controller)
            }) {
                failures.push(format!("control tick: {e}"));
            }
        }
    }
    ClientRun {
        applied,
        max_acked,
        ack_ns,
        failures,
        tracer: t,
    }
}

fn run_shared(cfg: &Config, serve: &Serve, streams: &[Vec<PageOp>], t: &mut Tracer) -> Run {
    let shared = SharedDb::new(Geometry {
        slots_per_page: SLOTS,
    });
    let controller = Controller::new(serve.budget.clone());
    let (traced, origin) = (t.on(), t.origin());
    let fg = Instant::now();
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (shared, controller) = (&shared, &controller);
                let t = Tracer::new(traced, origin);
                s.spawn(move || client(shared, cfg, serve, c, ops, controller, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let fg_s = fg.elapsed().as_secs_f64();
    if traced {
        let d = shared.daemon_stats();
        t.gauge("control.checkpoints_taken", d.checkpoints_taken as f64);
        t.gauge("control.deltas_published", d.deltas_published as f64);
        t.gauge("control.checkpoints_skipped", d.checkpoints_skipped as f64);
        gauge_estimate(t, Ok(shared.restart_estimate().suffix_bytes));
    }
    let mut run = Run {
        db: t.span("concurrent.crash", |_| shared.crash()),
        applied: Vec::new(),
        max_acked: Lsn::ZERO,
        fg_s,
        ack_ns: Vec::new(),
        attempted: streams.iter().map(|s| s.len() as u64).sum(),
        failures: Vec::new(),
    };
    gauge_log(t, &run.db);
    for c in clients {
        run.applied.extend(c.applied);
        run.max_acked = run.max_acked.max(c.max_acked);
        run.ack_ns.extend(c.ack_ns);
        run.failures.extend(c.failures);
        t.absorb(c.tracer);
    }
    run
}

/// One written cell per page gated at an on-demand open of the image
/// (the same gate criterion `SharedDb::open_on_demand` uses), in a
/// seeded order. Falls back to every written page when nothing is
/// gated.
fn first_read_targets(
    cfg: &Config,
    db: &PDb,
    model: &Model,
    seed: u64,
) -> SimResult<(Vec<Cell>, bool)> {
    let mut probe = db.clone();
    if cfg.file() {
        probe.crash();
    }
    let restart = OnDemand::open(&mut probe)?;
    let mut by_page: BTreeMap<PageId, Cell> = BTreeMap::new();
    for (cell, v) in model.cells() {
        if v != 0 {
            by_page.entry(cell.page).or_insert(cell);
        }
    }
    let mut reads: Vec<Cell> = by_page
        .iter()
        .filter(|(&p, _)| restart.is_gated(p))
        .map(|(_, &c)| c)
        .collect();
    let gated = !reads.is_empty();
    if !gated {
        reads = by_page.into_values().collect();
    }
    Rng::new(seed, 0x6a7e).shuffle(&mut reads);
    Ok((reads, gated))
}

/// Traced-only probes of a restart's phases, run on a fresh clone of
/// the image after the timed request so they cannot warm it: on mem a
/// re-crash (the closure analysis a reopen pays), then the crash repair,
/// the analysis and a seeked scan of the redo suffix — the work
/// `Generalized::recover` does before and around redo.
fn probe_phases(cfg: &Config, mut db: PDb, t: &mut Tracer) -> SimResult<()> {
    if !cfg.file() {
        t.span("backend.reopen", |_| db.crash());
    }
    t.span("sim.repair", |_| db.repair_after_crash());
    let analysis = t.span("generalized.analyze", |_| Generalized::analyze_dpt(&db))?;
    t.gauge(
        "generalized.dpt_pages",
        analysis.dirty.as_ref().map_or(0, BTreeMap::len) as f64,
    );
    t.span("wal.scan", |_| -> SimResult<()> {
        let mut scanner = ShardedScanner::seek(&db.log, analysis.redo_start);
        while !std::hint::black_box(scanner.next_batch(&db.log, SCAN_BATCH)?).is_empty() {}
        Ok(())
    })
}

/// Offline recovery: crash → whole state served.
pub fn recover_once(cfg: &Config, img: &Image, t: &mut Tracer) -> Sample {
    let mut db = img.db.clone();
    let start = Instant::now();
    let out = t.request("restart.recover", |t| {
        if cfg.file() {
            t.span("backend.reopen", |_| db.crash());
        }
        let (flushes, writes) = (db.pool.flushes(), db.disk.page_writes());
        let stats = t.span("generalized.recover", |_| Generalized.recover(&mut db))?;
        if t.on() {
            t.gauge("wal.records_decoded", stats.records_decoded as f64);
            t.gauge("wal.bytes_scanned", stats.bytes_scanned as f64);
            t.gauge("wal.seek_hits", stats.seek_hits as f64);
            t.gauge("generalized.scanned", stats.scanned as f64);
            t.gauge("generalized.replayed", stats.replayed.len() as f64);
            t.gauge("generalized.skipped", stats.skipped.len() as f64);
            t.gauge("cache.pages_prefetched", stats.pages_prefetched as f64);
            t.gauge("cache.flushes", (db.pool.flushes() - flushes) as f64);
            t.gauge("disk.page_writes", (db.disk.page_writes() - writes) as f64);
        }
        SimResult::Ok(stats)
    });
    let ns = elapsed_ns(start);
    let mut err = match out {
        Err(e) => Some(format!("recover: {e}")),
        Ok(_) => model::check_state(&db, &img.expected).err(),
    };
    if t.on() {
        if let Err(e) = probe_phases(cfg, img.db.clone(), t) {
            err.get_or_insert(format!("restart probe: {e}"));
        }
    }
    Sample { ns, err }
}

/// What an on-demand open leaves behind, held only so that dropping it
/// happens after the clock stops.
#[allow(dead_code)]
enum Opened {
    Shared(SharedDb),
    Sequential(Box<OnDemandRestart>),
}

/// Crash → first served read of a gated page, through the on-demand
/// open.
pub fn first_read_once(cfg: &Config, img: &Image, k: usize, t: &mut Tracer) -> Sample {
    let Some(&cell) = img.reads.get(k % img.reads.len().max(1)) else {
        return Sample {
            ns: 0.0,
            err: Some("no first-read target".to_string()),
        };
    };
    let mut db = img.db.clone();
    let start = Instant::now();
    let out = t.request("restart.first_read", |t| -> SimResult<(u64, Opened)> {
        let (v, gates, left, opened) = if let Kind::ServeZipf(_) = cfg.kind {
            let shared = t.span("ondemand.open", |_| SharedDb::open_on_demand(db))?;
            let gates = shared.gated_count();
            let v = t.span("ondemand.first_read", |_| shared.read_cell(cell))?;
            (v, gates, shared.gated_count(), Opened::Shared(shared))
        } else {
            if cfg.file() {
                t.span("backend.reopen", |_| db.crash());
            }
            let mut restart = t.span("ondemand.open", |_| OnDemand::open(&mut db))?;
            let v = t.span("ondemand.first_read", |_| restart.read_cell(&mut db, cell))?;
            let (gates, left) = (restart.gates_at_open(), restart.gated_count());
            (v, gates, left, Opened::Sequential(Box::new(restart)))
        };
        t.gauge("ondemand.gates_at_open", gates as f64);
        t.gauge(
            "ondemand.pages_replayed_for_first_read",
            (gates - left) as f64,
        );
        Ok((v, opened))
    });
    let ns = elapsed_ns(start);
    let err = match out {
        Err(e) => Some(format!("on-demand open/read: {e}")),
        Ok((v, _opened)) => model::check_read(cell, v, &img.model).err(),
    };
    Sample { ns, err }
}

/// `img`'s image with `victim` destroyed, crashed on mem (on files the
/// restart's reopen is the crash).
fn lose_page(cfg: &Config, img: &Image, victim: PageId) -> PDb {
    let mut db = img.db.clone();
    db.disk.destroy_page(victim);
    if !cfg.file() {
        db.crash();
    }
    db
}

/// A lost page → rebuilt and recovered database.
pub fn media_once(cfg: &Config, img: &Image, k: usize, t: &mut Tracer) -> Sample {
    let Some(&victim) = img.victims.get(k % img.victims.len().max(1)) else {
        return Sample {
            ns: 0.0,
            err: Some("no installed page to destroy".to_string()),
        };
    };
    let mut db = lose_page(cfg, img, victim);
    let start = Instant::now();
    let out = t.request("restart.media", |t| -> SimResult<_> {
        if cfg.file() {
            t.span("backend.reopen", |_| db.crash());
        }
        t.span("media.recover", |_| Media.recover(&mut db))
    });
    let ns = elapsed_ns(start);
    let mut err = match out {
        Err(e) => Some(format!("media restore of {victim:?}: {e}")),
        Ok(_) => model::check_state(&db, &img.expected)
            .map_err(|e| format!("media restore of {victim:?}: {e}"))
            .err(),
    };
    if t.on() {
        // The rebuild and install phases `Media::recover` runs, probed on
        // a fresh copy of the damaged image after the timed request.
        let mut db = lose_page(cfg, img, victim);
        if cfg.file() {
            db.crash();
        }
        db.repair_after_crash();
        match t.span("media.rebuild", |_| media::rebuild_images(&db)) {
            Ok(images) => {
                t.gauge("media.pages_rebuilt", images.len() as f64);
                t.span("media.install", |_| media::install_images(&mut db, &images));
            }
            Err(e) => {
                err.get_or_insert(format!("media rebuild probe of {victim:?}: {e}"));
            }
        }
    }
    Sample { ns, err }
}

/// Traced-only: the merged `archive ∥ live` history a media rebuild
/// replays.
pub fn pit_records(img: &Image, t: &mut Tracer) {
    let mut db = img.db.clone();
    db.repair_after_crash();
    let stable = db.log.stable_lsn();
    if let Ok(recs) = t.span("wal.pit_records", |_| db.log.pit_records(stable)) {
        t.gauge("wal.pit_records", recs.len() as f64);
    }
}
