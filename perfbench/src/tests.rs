//! Self-tests of the benchmark's checks and inputs: the model check
//! must fire on broken recoveries (negative controls), the generator and
//! the sequential workloads must repeat exactly at a fixed seed, and
//! `BENCHMARK.json` must name exactly what the binary emits.

use std::time::Instant;

use redo_methods::concurrent::SharedDb;
use redo_methods::control::RestartBudget;
use redo_methods::generalized::Generalized;
use redo_methods::ondemand::OnDemand;
use redo_methods::RecoveryMethod;
use redo_sim::db::Geometry;
use redo_workload::pages::{Cell, PageId, PageOp, PageOpKind, SlotId};

use crate::model::{self, Model};
use crate::trace::Tracer;
use crate::workload::{self, Config, Kind, Serve, SLOTS};

/// A workload shrunk to test size (same shapes, fewer ops).
fn small(name: &str) -> Config {
    let mut cfg = Config::named(name).expect("known workload");
    let file = cfg.file();
    cfg.ops_per_client = match &mut cfg.kind {
        Kind::ServeZipf(_) => 400,
        Kind::RestartMem(seq) | Kind::DurableFile(seq) => {
            seq.checkpoint_every = 150;
            seq.checkpoint_until = seq.checkpoint_until.min(900);
            if file {
                301
            } else {
                1_501
            }
        }
    };
    cfg.rounds = 1;
    cfg.pool = cfg.pool.map(|_| 48);
    cfg
}

fn off() -> Tracer {
    Tracer::new(false, Instant::now())
}

#[test]
fn every_workload_recovers_reads_and_restores_to_the_model() {
    for name in workload::NAMES {
        let cfg = small(name);
        let (img, setup) = workload::build(&cfg, 11, &mut off());
        assert!(setup.failures.is_empty(), "{name}: {:?}", setup.failures);
        assert!(setup.acked > 0 && !img.reads.is_empty());
        for k in 0..3 {
            for s in [
                workload::recover_once(&cfg, &img, &mut off()),
                workload::first_read_once(&cfg, &img, k, &mut off()),
                workload::media_once(&cfg, &img, k, &mut off()),
            ] {
                assert_eq!(s.err, None, "{name} iteration {k}");
                assert!(s.ns > 0.0);
            }
        }
        // The sequential on-demand restart, drained after a first read,
        // lands on the model too.
        let mut db = img.db.clone();
        db.crash();
        let mut restart = OnDemand::open(&mut db).expect("open");
        let served = restart.read_cell(&mut db, img.reads[0]).expect("read");
        assert_eq!(model::check_read(img.reads[0], served, &img.model), Ok(()));
        restart.finish(&mut db).expect("drain");
        assert_eq!(model::check_state(&db, &img.expected), Ok(()), "{name}");
    }
}

#[test]
fn model_check_fires_when_an_acknowledged_op_is_dropped() {
    let cfg = small("restart_mem");
    let (img, _) = workload::build(&cfg, 5, &mut off());
    let img = &img;
    let mut db = img.db.clone();
    Generalized.recover(&mut db).expect("recover");
    assert_eq!(model::check_state(&db, &img.expected), Ok(()));
    // The same recovery checked against a model that lacks one
    // acknowledged op: the check must fire. The sequential workload
    // applies ops in stream order, so the durable prefix is the shortest
    // stream prefix whose model matches.
    let ops: Vec<PageOp> = {
        let mut rng = crate::gen::Rng::new(5, 1);
        crate::gen::stream(&cfg.stream, &mut rng, cfg.ops_per_client, 0, 1)
    };
    let acked = ops.len() - ops.len() % cfg.group;
    let durable = (acked..=ops.len())
        .find(|&m| Model::replay(&ops[..m]).state(SLOTS) == img.expected)
        .expect("the durable prefix covers every acknowledged op");
    let mut short = ops[..durable].to_vec();
    let dropped = short.remove(acked / 2);
    let missing = Model::replay(&short).state(SLOTS);
    assert!(
        model::check_state(&db, &missing).is_err(),
        "dropping op {} went unnoticed",
        dropped.id
    );
    // And a recovered image with one written cell overwritten.
    let (cell, v) = img.model.cells().next().expect("model has cells");
    let mut damaged = db.clone();
    let op = PageOp {
        id: u32::MAX,
        kind: PageOpKind::Blind,
        reads: vec![],
        writes: vec![cell],
        f_seed: v ^ 1,
    };
    damaged
        .apply_page_op(&op, damaged.log.last_lsn())
        .expect("overwrite");
    assert!(model::check_state(&damaged, &img.expected).is_err());
}

#[test]
fn model_check_fires_on_a_read_through_a_gated_page_without_replay() {
    let cfg = small("restart_mem");
    let (img, _) = workload::build(&cfg, 9, &mut off());
    let img = &img;
    assert!(img.reads_gated, "the workload leaves pages gated at open");
    let mut db = img.db.clone();
    let restart = OnDemand::open(&mut db).expect("open");
    // Bypass the gate: read each target straight through the pool.
    let stale = img
        .reads
        .iter()
        .filter(|c| restart.is_gated(c.page))
        .filter(|&&c| {
            let served = db.read_cell(c).expect("raw read");
            model::check_read(c, served, &img.model).is_err()
        })
        .count();
    assert!(stale > 0, "no gated page served a stale value");
}

#[test]
fn same_seed_repeats_the_sequential_workloads_exactly() {
    for name in ["restart_mem", "durable_file"] {
        let cfg = small(name);
        let counts = |seed: u64| {
            let (img, setup) = workload::build(&cfg, seed, &mut off());
            let mut db = img.db.clone();
            if cfg.file() {
                db.crash();
            }
            let stats = Generalized.recover(&mut db).expect("recover");
            (
                setup.appended_bytes,
                setup.acked,
                stats.records_decoded,
                stats.replayed,
                img.reads,
                img.victims,
            )
        };
        assert_eq!(counts(3), counts(3), "{name} at a fixed seed");
        assert_ne!(counts(3).0, counts(4).0, "{name}: seeds differ");
    }
}

/// A known engine defect the benchmark found: `SharedDb`'s lazy replay
/// grows a component only along the chains of its own pages, so a
/// record that *reads* a gated page but writes another one is not in
/// that page's component. Serving the read page first replays it past
/// the value the record read; replaying the record later reads the
/// future value. (`OnDemand` fixes components at open over the full
/// residual conflict graph and passes the same sequence.) The benchmark
/// therefore checks only the first read on `serve_zipf`.
#[test]
#[ignore = "known SharedDb on-demand defect: lazy components miss read edges"]
fn shared_on_demand_serves_reads_after_a_reader_of_a_replayed_page() {
    let (p, q) = (
        Cell {
            page: PageId(1),
            slot: SlotId(0),
        },
        Cell {
            page: PageId(2),
            slot: SlotId(0),
        },
    );
    let ops = [
        // Reads p, writes q.
        PageOp {
            id: 0,
            kind: PageOpKind::Generalized,
            reads: vec![p],
            writes: vec![q],
            f_seed: 1,
        },
        // Overwrites p.
        PageOp {
            id: 1,
            kind: PageOpKind::Physiological,
            reads: vec![p],
            writes: vec![p],
            f_seed: 2,
        },
    ];
    let model = Model::replay(&ops);
    let shared = SharedDb::new(Geometry {
        slots_per_page: SLOTS,
    });
    for op in &ops {
        shared.execute(op).expect("execute");
    }
    shared.commit_tick();
    let reopened = SharedDb::open_on_demand(shared.crash()).expect("open");
    for cell in [p, q] {
        let served = reopened.read_cell(cell).expect("read");
        assert_eq!(model::check_read(cell, served, &model), Ok(()));
    }
}

#[test]
fn sequential_on_demand_passes_the_same_sequence() {
    let (p, q) = (
        Cell {
            page: PageId(1),
            slot: SlotId(0),
        },
        Cell {
            page: PageId(2),
            slot: SlotId(0),
        },
    );
    let ops = [
        PageOp {
            id: 0,
            kind: PageOpKind::Generalized,
            reads: vec![p],
            writes: vec![q],
            f_seed: 1,
        },
        PageOp {
            id: 1,
            kind: PageOpKind::Physiological,
            reads: vec![p],
            writes: vec![p],
            f_seed: 2,
        },
    ];
    let model = Model::replay(&ops);
    let mut db = redo_sim::db::Db::new(Geometry {
        slots_per_page: SLOTS,
    });
    for op in &ops {
        Generalized.execute(&mut db, op).expect("execute");
    }
    db.log.flush_all();
    db.crash();
    let mut restart = OnDemand::open(&mut db).expect("open");
    for cell in [p, q] {
        let served = restart.read_cell(&mut db, cell).expect("read");
        assert_eq!(model::check_read(cell, served, &model), Ok(()));
    }
}

/// The `name`s listed in one array of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_emits() {
    assert_eq!(listed("workloads"), workload::NAMES);
    let cfg = small("restart_mem");
    let window = std::time::Duration::ZERO;
    let passes = crate::run_passes(&cfg, 1, window, &[false, true]);
    let (untraced, traced) = (&passes[0], &passes[1]);
    let names = |ms: Vec<crate::Metric>| -> Vec<String> {
        ms.into_iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(listed("end_to_end"), names(crate::end_to_end(untraced)));
    assert_eq!(
        listed("per_layer"),
        names(crate::per_layer(traced, untraced))
    );
}

/// How the `serve_zipf` traffic was chosen: sweeps the restart budget,
/// the generalized share and the pages per tenant at full size and
/// prints what the controller achieves on each (restart suffix at the crash against the
/// budget, truncated bytes, published checkpoints) plus the offline
/// recovery time of the crashed image. Run with
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored --nocapture serve_zipf_sweep`.
#[test]
#[ignore = "a measurement, not a check; takes about half a minute"]
fn serve_zipf_sweep() {
    let base = Config::named("serve_zipf").expect("known workload");
    let Kind::ServeZipf(serve) = &base.kind else {
        unreachable!()
    };
    println!("{} ops per client", base.ops_per_client);
    println!("budget share pages | seeds within 2x budget | suffix at crash p50 / max | truncated p50 | recover ms p50");
    const SEEDS: u64 = 16;
    let configs = [16 * 1024, 32 * 1024].into_iter().flat_map(|budget| {
        [16u32, 64].into_iter().flat_map(move |pages| {
            [0.0, 0.005, 0.01, 0.02, 0.05, 0.1]
                .into_iter()
                .map(move |share| (budget, pages, share))
        })
    });
    for (budget, pages, share) in configs {
        let mut cfg = base.clone();
        cfg.kind = Kind::ServeZipf(Serve {
            budget: RestartBudget {
                max_suffix_bytes: budget,
                ..serve.budget.clone()
            },
            ..serve.clone()
        });
        cfg.stream.mix.generalized = share;
        for (i, t) in cfg.stream.tenants.iter_mut().enumerate() {
            t.base = i as u32 * pages;
            t.pages = pages;
        }
        let (mut suffix, mut truncated, mut recover) = (vec![], vec![], vec![]);
        for seed in 1..=SEEDS {
            let mut t = Tracer::new(true, Instant::now());
            let (img, setup) = workload::build(&cfg, seed, &mut t);
            assert!(setup.failures.is_empty(), "{:?}", setup.failures);
            suffix.push(t.gauge_value("control.suffix_bytes_at_crash"));
            truncated.push(t.gauge_value("control.truncated_bytes"));
            recover.push(workload::recover_once(&cfg, &img, &mut off()).ns / 1e6);
        }
        let within = suffix.iter().filter(|&&s| s <= 2.0 * budget as f64).count();
        println!(
            "{budget:6} {share:5} {pages:5} | {within:>12} of {SEEDS} | {:>12} / {:>7} | {:>13} | {:.3}",
            crate::sample::median(&suffix),
            suffix.iter().copied().fold(0.0, f64::max),
            crate::sample::median(&truncated),
            crate::sample::median(&recover),
        );
    }
}

/// `serve_zipf` is the foreground-dominated side: at full size the
/// controller truncates the log and keeps the restart suffix within
/// twice its budget. Whether a set-up holds depends on how the two
/// client threads interleave, and an occasional one loses the horizon
/// (2 of 90 in a 5-second run), so the check asks for most set-ups.
#[test]
fn serve_zipf_keeps_the_restart_suffix_near_its_budget() {
    let cfg = Config::named("serve_zipf").expect("known workload");
    let Kind::ServeZipf(serve) = &cfg.kind else {
        unreachable!()
    };
    let suffixes: Vec<f64> = (1..=8)
        .map(|seed| {
            let mut t = Tracer::new(true, Instant::now());
            let (_, setup) = workload::build(&cfg, seed, &mut t);
            assert!(setup.failures.is_empty(), "{:?}", setup.failures);
            t.gauge_value("control.suffix_bytes_at_crash")
        })
        .collect();
    let held = suffixes
        .iter()
        .filter(|&&s| s <= 2.0 * serve.budget.max_suffix_bytes as f64)
        .count();
    assert!(held >= 6, "suffix at the crash per seed: {suffixes:?}");
}
