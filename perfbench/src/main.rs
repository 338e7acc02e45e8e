//! `perfbench` — the restart-and-serve benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_zipf|restart_mem|durable_file> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! One run repeats, for `--seconds`, a cycle of one set-up (generate the
//! inputs and build the crashed image, which measures the foreground
//! path) followed by rounds of three restart measurements on the image:
//! offline recovery, on-demand open plus first read of a gated page,
//! and a lost-page media restore. Every recovered state and every served read
//! is checked against a cell model of the acknowledged ops. Every
//! timing is scaled to a reference host speed, measured by a fixed
//! kernel timed alongside each cycle (see [`speed`]).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run splits its time between an untraced pass and
//! a traced pass, and the last line carries the per-layer metrics
//! derived from the traced pass's spans plus the tracing overhead.
//! Human-readable lines (prefixed `#`) precede it. The exit code is
//! non-zero on any failed op, engine error or model mismatch.

mod gen;
mod model;
mod sample;
mod speed;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::time::{Duration, Instant};

use sample::Summary;
use trace::Tracer;
use workload::{Config, Setup};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

/// Everything one pass measured. Timings are scaled to the reference
/// host speed (see [`speed`]).
struct Pass {
    setups: Vec<Setup>,
    /// Each set-up's host-speed factor.
    speed: Vec<f64>,
    recover_ns: Vec<f64>,
    first_read_ns: Vec<f64>,
    media_ns: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    tracer: Tracer,
    /// First-read targets of the first image, and whether they were
    /// gated.
    reads: (usize, bool),
}

/// Set-ups every pass makes, however short its window.
const MIN_SETUPS: usize = 3;

impl Pass {
    fn new(traced: bool) -> Pass {
        Pass {
            setups: Vec::new(),
            speed: Vec::new(),
            recover_ns: Vec::new(),
            first_read_ns: Vec::new(),
            media_ns: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            tracer: Tracer::new(traced, Instant::now()),
            reads: (0, false),
        }
    }

    /// One cycle: a set-up, then `cfg.rounds` rounds of the three
    /// restart measurements on its image, with the speed kernel timed
    /// before each.
    fn cycle(&mut self, cfg: &Config, seed: u64) {
        let cycle_seed = gen::cycle_seed(seed, self.setups.len() as u64);
        let mut kernel_ns = vec![speed::kernel_ns()];
        let (img, setup) = workload::build(cfg, cycle_seed, &mut self.tracer);
        if self.setups.is_empty() {
            self.reads = (img.reads.len(), img.reads_gated);
        }
        self.attempted += setup.attempted;
        self.failures.extend(setup.failures.iter().cloned());
        self.setups.push(setup);
        let t = &mut self.tracer;
        let mut raw: [Vec<f64>; 3] = Default::default();
        for r in 0..cfg.rounds {
            kernel_ns.push(speed::kernel_ns());
            let k = (self.setups.len() - 1) * cfg.rounds + r;
            let samples = [
                workload::recover_once(cfg, &img, t),
                workload::first_read_once(cfg, &img, k, t),
                workload::media_once(cfg, &img, k, t),
            ];
            for (into, s) in raw.iter_mut().zip(samples) {
                self.attempted += 1;
                match s.err {
                    Some(e) => self.failures.push(e),
                    None => into.push(s.ns),
                }
            }
        }
        let f = speed::factor(&kernel_ns);
        self.speed.push(f);
        let scaled = [
            &mut self.recover_ns,
            &mut self.first_read_ns,
            &mut self.media_ns,
        ];
        for (into, raw) in scaled.into_iter().zip(raw) {
            into.extend(raw.iter().map(|ns| ns * f));
        }
        if t.on() && self.setups.len() == 1 {
            workload::pit_records(&img, t);
        }
    }
}

/// Runs one pass per entry of `traced`, alternating their cycles until
/// `window` has passed and each pass made at least [`MIN_SETUPS`]
/// set-ups. Spreading set-ups over the whole window lets the foreground
/// and restart figures see the same stretch of machine time, and
/// alternating lets a traced pass be compared with an untraced one run
/// over the same stretch.
fn run_passes(cfg: &Config, seed: u64, window: Duration, traced: &[bool]) -> Vec<Pass> {
    let mut passes: Vec<Pass> = traced.iter().map(|&on| Pass::new(on)).collect();
    let deadline = Instant::now() + window;
    for i in 0.. {
        let done = passes.iter().all(|p| p.setups.len() >= MIN_SETUPS);
        if done && Instant::now() >= deadline && i % passes.len() == 0 {
            break;
        }
        passes[i % traced.len()].cycle(cfg, seed);
    }
    passes
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn pct(p: f64) -> String {
    format!("p{}", (p * 1000.0).round() / 10.0)
}

fn tail_note(s: &Summary) -> String {
    let mut note = format!("n={}", s.n);
    if let Some(p) = s.supported {
        note += &format!(", highest supported {}", pct(p));
    }
    if !s.tail_supported() {
        note += &format!(", fewer than 10 samples beyond {}", pct(s.tail_p));
    }
    note
}

/// Median and tail of a timing, scaled from ns into the metric's unit.
fn timing(
    out: &mut Vec<Metric>,
    names: [&'static str; 2],
    ns: &[f64],
    tail_p: f64,
    unit: &'static str,
) {
    let scale = match unit {
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1.0,
    };
    if ns.is_empty() {
        out.push(metric(names[0], 0.0, unit, "no samples"));
        out.push(metric(names[1], 0.0, unit, "no samples"));
        return;
    }
    let s = Summary::of(ns, tail_p);
    out.push(metric(names[0], s.p50 / scale, unit, format!("n={}", s.n)));
    out.push(metric(names[1], s.tail / scale, unit, tail_note(&s)));
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let setups = &pass.setups;
    let scaled = || setups.iter().zip(pass.speed.iter().copied());
    let mut out = Vec::new();
    let setup_s: Vec<f64> = scaled().map(|(s, f)| s.setup_s * f).collect();
    out.push(metric(
        "setup_s",
        sample::median(&setup_s),
        "s",
        format!("median of {} set-ups", setups.len()),
    ));
    let rate: Vec<f64> = scaled()
        .map(|(s, f)| s.acked as f64 / (s.fg_s * f))
        .collect();
    out.push(metric(
        "ops_per_s",
        sample::median(&rate),
        "1/s",
        format!("median of {} foreground phases", setups.len()),
    ));
    // Each set-up's own median and p99, then the median over set-ups.
    let acks: Vec<(&Summary, f64)> = scaled()
        .filter_map(|(s, f)| s.ack.as_ref().map(|a| (a, f)))
        .collect();
    for (name, pick) in [("ack_p50_us", 0), ("ack_p99_us", 1)] {
        let per_setup: Vec<f64> = acks
            .iter()
            .map(|(a, f)| [a.p50, a.tail][pick] * f / 1e3)
            .collect();
        out.push(metric(
            name,
            if per_setup.is_empty() {
                0.0
            } else {
                sample::median(&per_setup)
            },
            "us",
            format!(
                "median over {} set-ups (n={} acks in the first)",
                acks.len(),
                acks.first().map_or(0, |(a, _)| a.n)
            ),
        ));
    }
    timing(
        &mut out,
        ["first_read_p50_us", "first_read_p90_us"],
        &pass.first_read_ns,
        0.9,
        "us",
    );
    timing(
        &mut out,
        ["recover_p50_ms", "recover_p90_ms"],
        &pass.recover_ns,
        0.9,
        "ms",
    );
    timing(
        &mut out,
        ["media_restore_p50_ms", "media_restore_p90_ms"],
        &pass.media_ns,
        0.9,
        "ms",
    );
    // A count, so it comes from the set-ups every run makes and repeats
    // exactly at a fixed seed.
    let per_op: Vec<f64> = setups[..MIN_SETUPS]
        .iter()
        .map(|s| s.appended_bytes as f64 / s.acked.max(1) as f64)
        .collect();
    out.push(metric(
        "log_bytes_per_op",
        sample::median(&per_op),
        "bytes",
        format!("appended bytes per acknowledged op, median of the first {MIN_SETUPS} set-ups"),
    ));
    out.push(metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM"));
    out
}

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        sample::median(v)
    }
}

fn p99(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        Summary::of(v, 0.99).tail
    }
}

/// Per-layer metrics from the traced pass, plus the overhead of tracing
/// against the untraced pass of the same run.
fn per_layer(traced: &Pass, untraced: &Pass) -> Vec<Metric> {
    let t = &traced.tracer;
    let mut out = Vec::new();
    let mut span_pair = |base: &'static str, p99_name: &'static str, span: &str| {
        let d = t.durations(span);
        let note = format!("{} calls of {span}", d.len());
        out.push(metric(base, p50(&d), "ns", note.clone()));
        out.push(metric(p99_name, p99(&d), "ns", note));
    };
    span_pair(
        "concurrent.execute_ns",
        "concurrent.execute_p99_ns",
        "concurrent.execute",
    );
    span_pair(
        "concurrent.commit_ns",
        "concurrent.commit_p99_ns",
        "concurrent.commit",
    );
    span_pair(
        "concurrent.control_tick_ns",
        "concurrent.control_tick_p99_ns",
        "concurrent.control_tick",
    );
    span_pair(
        "methods.execute_ns",
        "methods.execute_p99_ns",
        "methods.execute",
    );
    span_pair("wal.force_ns", "wal.force_p99_ns", "wal.force");
    let gauges: [(&'static str, &'static str); 21] = [
        ("control.checkpoints_taken", "count"),
        ("control.deltas_published", "count"),
        ("control.checkpoints_skipped", "count"),
        ("control.truncated_bytes", "bytes"),
        ("control.suffix_bytes_at_crash", "bytes"),
        ("wal.forces", "count"),
        ("wal.syncs", "count"),
        ("wal.appended_bytes", "bytes"),
        ("generalized.dpt_pages", "count"),
        ("wal.records_decoded", "count"),
        ("wal.bytes_scanned", "bytes"),
        ("wal.seek_hits", "count"),
        ("generalized.replayed", "count"),
        ("generalized.skipped", "count"),
        ("cache.pages_prefetched", "count"),
        ("cache.flushes", "count"),
        ("disk.page_writes", "count"),
        ("ondemand.gates_at_open", "count"),
        ("ondemand.pages_replayed_for_first_read", "count"),
        ("media.pages_rebuilt", "count"),
        ("wal.pit_records", "count"),
    ];
    for (name, unit) in gauges {
        out.push(metric(
            name,
            t.gauge_value(name),
            unit,
            "first traced image",
        ));
    }
    let scanned = t.gauge_value("generalized.scanned");
    out.push(metric(
        "generalized.redo_ratio",
        if scanned > 0.0 {
            t.gauge_value("generalized.replayed") / scanned
        } else {
            0.0
        },
        "ratio",
        format!("replayed / {scanned} scanned"),
    ));
    let span_p50 = [
        ("backend.reopen_ns", "backend.reopen"),
        ("sim.repair_ns", "sim.repair"),
        ("generalized.analyze_ns", "generalized.analyze"),
        ("wal.scan_ns", "wal.scan"),
        ("generalized.recover_ns", "generalized.recover"),
        ("ondemand.open_ns", "ondemand.open"),
        ("ondemand.first_read_ns", "ondemand.first_read"),
        ("media.rebuild_ns", "media.rebuild"),
        ("media.install_ns", "media.install"),
        ("media.recover_ns", "media.recover"),
    ];
    for (name, span) in span_p50 {
        let d = t.durations(span);
        out.push(metric(name, p50(&d), "ns", format!("{} calls", d.len())));
    }
    // Redo self time: the recover span minus its phases. The phases run
    // inside `Generalized::recover`, where no span reaches, so each is
    // measured by the same public call on a fresh copy of the same image
    // and counts as a child laid end to end from the span's start.
    let phases = ["sim.repair", "generalized.analyze", "wal.scan"].map(|n| t.durations(n));
    let redo_self: Vec<f64> = t
        .durations("generalized.recover")
        .iter()
        .enumerate()
        .filter(|&(i, _)| phases.iter().all(|p| i < p.len()))
        .map(|(i, &r)| {
            let mut at = 0;
            let children: Vec<(u64, u64)> = phases
                .iter()
                .map(|p| {
                    let child = (at, at + p[i] as u64);
                    at = child.1;
                    child
                })
                .collect();
            sample::self_time(0, r as u64, &children) as f64
        })
        .collect();
    out.push(metric(
        "generalized.redo_self_ns",
        p50(&redo_self),
        "ns",
        format!("{} requests", redo_self.len()),
    ));
    // Traced over untraced, per end-to-end timing; geometric mean.
    let ack = |p: &Pass| -> Vec<f64> {
        p.setups
            .iter()
            .zip(&p.speed)
            .filter_map(|(s, f)| s.ack.as_ref().map(|a| a.p50 * f))
            .collect()
    };
    let pairs = [
        ("ack", ack(traced), ack(untraced)),
        (
            "recover",
            traced.recover_ns.clone(),
            untraced.recover_ns.clone(),
        ),
        (
            "first_read",
            traced.first_read_ns.clone(),
            untraced.first_read_ns.clone(),
        ),
        ("media", traced.media_ns.clone(), untraced.media_ns.clone()),
    ];
    let ratios: Vec<(&str, f64)> = pairs
        .iter()
        .filter(|(_, a, b)| !a.is_empty() && !b.is_empty())
        .map(|(n, a, b)| (*n, sample::median(a) / sample::median(b)))
        .collect();
    let geo = (ratios.iter().map(|(_, r)| r.ln()).sum::<f64>() / ratios.len().max(1) as f64).exp();
    let detail: Vec<String> = ratios.iter().map(|(n, r)| format!("{n} {r:.3}")).collect();
    out.push(metric(
        "trace.overhead_ratio",
        geo,
        "ratio",
        format!("geometric mean of medians: {}", detail.join(", ")),
    ));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Points the file backend's temporary directories (`std::env::temp_dir`)
/// at a per-process directory under the working directory, so a run
/// writes only inside its checkout.
fn scratch_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::current_dir()?
        .join(".perfbench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(cfg) = Config::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let dir = match scratch_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: creating the scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let cpu = speed::pin_to_current_cpu();
    let code = run(&args, &cfg, cpu);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        // Succeeds only once no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    std::process::exit(code);
}

/// Runs the benchmark and prints its report; returns the exit code.
fn run(args: &Args, cfg: &Config, cpu: Option<usize>) -> i32 {
    let window = Duration::from_secs(args.seconds);
    let passes = run_passes(
        cfg,
        args.seed,
        window,
        if args.trace { &[false, true] } else { &[false] },
    );
    let metrics = if args.trace {
        per_layer(&passes[1], &passes[0])
    } else {
        end_to_end(&passes[0])
    };
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failures: Vec<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    let (reads, gated) = passes[0].reads;
    println!(
        "# {} seed={} seconds={} trace={} available_parallelism={} pinned_cpu={} | first-read targets: {} {} pages",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        cpu.map_or("none".to_string(), |c| c.to_string()),
        reads,
        if gated {
            "gated"
        } else {
            "ungated (nothing gated)"
        },
    );
    let speed: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.speed.iter().copied())
        .collect();
    println!(
        "# timings scaled to the reference host speed: median factor {:.4} over {} cycles (raw = scaled / factor)",
        sample::median(&speed),
        speed.len()
    );
    for m in &metrics {
        println!(
            "# {:<40} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "# {:<40} {:>16.6} {:<6} {} failed of {} attempted",
        "failed_ratio",
        failures.len() as f64 / attempted.max(1) as f64,
        "ratio",
        failures.len(),
        attempted
    );
    for f in failures.iter().take(10) {
        println!("# FAILED: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        body.join(", ")
    );
    i32::from(!failures.is_empty())
}
