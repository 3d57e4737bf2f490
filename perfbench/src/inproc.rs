//! The three in-process workloads: `fig6-seqwrite`, `gc-randwrite` and
//! `zipf-read-aged`.
//!
//! Each is a batch workload: a fixed amount of simulated work per timed
//! repeat, repeated until the measuring window closes, reporting the
//! median. Every repeat's `PerfReport` `Debug` output must be
//! byte-identical to a reference run made without forking or threads.

use crate::host::{self, Calibrator, CALIB_REF_MOPS};
use crate::layers::{self, LayerTable};
use crate::metrics::Metrics;
use crate::stats::{self, geomean, median};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ssdx_core::configs::{fig5_config, table3_configs};
use ssdx_core::{
    Axis, Explorer, FtlMode, ParallelExecutor, PerfReport, SimSession, Snapshot, Ssd, SsdConfig,
    SteadyStateCutoff,
};
use ssdx_ecc::EccScheme;
use ssdx_hostif::{
    AccessPattern, CommandSource, CommandStream, HostCommand, Workload, ZipfianWorkload,
};
use std::time::{Duration, Instant};

/// Commands per Table III configuration in one `fig6-seqwrite` sweep.
const FIG6_COMMANDS: u64 = 65_536;
/// Rounds of per-config stepped runs behind the `fig6-seqwrite` layer
/// table.
const FIG6_LAYER_ROUNDS: usize = 3;
/// Host write buffer per configuration (`fig6-seqwrite`, `gc-randwrite`):
/// the steady-state shrink the `experiments -- speed` driver applies, so
/// the run measures the pipeline rather than the cache-fill transient.
const STEADY_BUFFER_BYTES: u64 = 128 * 1024;
/// `gc-randwrite` logical footprint.
const GC_FOOTPRINT: u64 = 256 << 20;
/// `gc-randwrite` random writes per timed repeat.
const GC_TIMED_COMMANDS: u64 = 262_144;
/// `zipf-read-aged` commands per timed repeat.
const ZIPF_COMMANDS: u64 = 262_144;
/// `zipf-read-aged` logical footprint.
const ZIPF_FOOTPRINT: u64 = 4 << 30;
/// `zipf-read-aged` device age, as a share of rated endurance.
const ZIPF_AGE: f64 = 0.8;
/// Extra raw bit errors per prior read of a block (read disturb).
const ZIPF_READ_DISTURB: f64 = 0.02;
/// Commands per `core.session.step` span, and per request of
/// `gc-randwrite` (about 90 ms on a 2-vCPU host).
pub const STEP_SLICE: u64 = 8_192;
/// Commands per request of `zipf-read-aged`: the same ~70 ms of host
/// time as a `gc-randwrite` request, long enough that a scheduling
/// hiccup does not decide the tail.
const ZIPF_SLICE: u64 = 65_536;
/// `drive` recalibrates after this many slices of a calibrated session.
const CALIB_EVERY_SLICES: usize = 4;
/// Set-up is repeated at least this often, and until `SETUP_BUDGET` is
/// spent (at most `SETUP_MAX` times); its median is reported.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(250);

/// Runs `f` as a timed set-up at least `SETUP_MIN` times; returns the last
/// result and the median wall seconds, each normalised by a calibration
/// taken right after it. Earlier results go to `discard`, outside the
/// timed region.
pub fn timed_setup<T>(
    tracer: &mut Tracer,
    calibrator: &Calibrator,
    mut f: impl FnMut(&mut Tracer) -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut walls = Vec::new();
    let began = Instant::now();
    loop {
        let start = Instant::now();
        let out = tracer.span("bench.setup", walls.len() as u64, &mut f);
        let wall = start.elapsed().as_secs_f64();
        walls.push(wall * calibrator.measure() / CALIB_REF_MOPS);
        let enough = walls.len() >= SETUP_MIN && began.elapsed() >= SETUP_BUDGET;
        if enough || walls.len() >= SETUP_MAX {
            return (out, median(&walls));
        }
        discard(out);
    }
}

/// Wall-clock figures of the timed repeats, split by whether the repeat
/// was traced (the traced run alternates).
#[derive(Debug, Default)]
pub struct Repeats {
    /// Untraced repeats.
    pub plain: Vec<Repeat>,
    /// Traced repeats.
    pub traced: Vec<Repeat>,
    /// Normalised latencies of the untraced repeats' requests, ms.
    requests_ms: Vec<f64>,
}

/// One timed repeat.
#[derive(Debug, Clone, Copy)]
pub struct Repeat {
    /// Wall seconds.
    pub wall: f64,
    /// Wall seconds as if measured at the reference host speed.
    pub normalised: f64,
    /// Host commands simulated.
    pub commands: u64,
}

impl Repeats {
    /// Records one repeat of `commands` commands from its requests: the
    /// wall seconds of each and the calibration around it (M ops/s).
    pub fn push(&mut self, traced: bool, commands: u64, requests: &[(f64, f64)]) {
        let r = Repeat {
            wall: requests.iter().map(|q| q.0).sum(),
            normalised: requests.iter().map(|q| normalise(q.0, q.1)).sum(),
            commands,
        };
        if traced {
            self.traced.push(r);
        } else {
            self.plain.push(r);
            self.requests_ms
                .extend(requests.iter().map(|q| normalise(q.0, q.1) * 1e3));
        }
    }

    /// Median normalised commands per second of the untraced repeats.
    pub fn cmds_per_s(&self) -> f64 {
        rate(&self.plain)
    }

    /// `1 - traced/untraced` median commands per second.
    pub fn overhead(&self) -> f64 {
        if self.traced.is_empty() {
            return 0.0;
        }
        1.0 - rate(&self.traced) / rate(&self.plain)
    }

    /// Records the end-to-end timing metrics of a batch workload.
    pub fn record(&self, m: &mut Metrics) {
        let tail = stats::tail(&self.requests_ms);
        m.set("sim_cmds_per_s", self.cmds_per_s());
        m.set("req_p50_ms", median(&self.requests_ms));
        m.set("req_tail_ms", tail.value);
        let raw: Vec<f64> = self
            .plain
            .iter()
            .map(|r| r.commands as f64 / r.wall.max(1e-12))
            .collect();
        let calib: Vec<f64> = self
            .plain
            .iter()
            .map(|r| r.normalised / r.wall.max(1e-12) * CALIB_REF_MOPS)
            .collect();
        println!(
            "repeats: {} untraced, {} traced; raw median {:.0} cmds/s at calibration median {:.2} M ops/s (reference {CALIB_REF_MOPS})",
            self.plain.len(),
            self.traced.len(),
            median(&raw),
            median(&calib),
        );
        println!(
            "requests: {}; req_tail_ms is p{:.2} with {} samples beyond it",
            tail.count, tail.percentile, tail.beyond
        );
    }
}

/// `wall` seconds measured at calibration `calib`, as if measured at the
/// reference host speed.
fn normalise(wall: f64, calib: f64) -> f64 {
    wall * calib / CALIB_REF_MOPS
}

fn rate(samples: &[Repeat]) -> f64 {
    let rates: Vec<f64> = samples
        .iter()
        .map(|r| r.commands as f64 / r.normalised.max(1e-12))
        .collect();
    median(&rates)
}

/// Whether the repeat loop should run another repeat.
fn more(window: Instant, seconds: f64, done: usize) -> bool {
    done < 2 || window.elapsed().as_secs_f64() < seconds
}

/// A session driven to its end.
pub struct Driven {
    /// The session's report.
    pub report: PerfReport,
    /// Wall seconds of the step loop.
    pub step_s: f64,
    /// Wall seconds of `finish`.
    pub finish_s: f64,
    /// Wall seconds of each slice of the step loop, with the calibration
    /// around it (the reference rate when not calibrating).
    pub slices: Vec<(f64, f64)>,
    /// The last calibration taken, after the final slice.
    pub calib_end: f64,
}

/// Steps `session` to its end in `slice`-command slices, each a span,
/// then finishes it. With `calibrate = Some((calibrator, before))`, where
/// `before` is a calibration taken just before the call, it recalibrates
/// after every `CALIB_EVERY_SLICES` slices, outside the timed slices, so
/// a long session follows the host's speed as it drifts.
pub fn drive(
    mut session: SimSession<'_>,
    tracer: &mut Tracer,
    request: u64,
    slice: u64,
    calibrate: Option<(&Calibrator, f64)>,
) -> Driven {
    let mut slices = Vec::new();
    let mut group = Vec::new();
    let mut calib = calibrate.map_or(CALIB_REF_MOPS, |c| c.1);
    while !session.is_done() {
        let began = Instant::now();
        tracer.span("core.session.step", request, |_| {
            for _ in 0..slice {
                if session.step().is_none() {
                    break;
                }
            }
        });
        group.push(began.elapsed().as_secs_f64());
        if group.len() == CALIB_EVERY_SLICES || session.is_done() {
            let next = calibrate.map_or(CALIB_REF_MOPS, |c| c.0.measure());
            let around = (calib * next).sqrt();
            slices.extend(group.drain(..).map(|w| (w, around)));
            calib = next;
        }
    }
    let start = Instant::now();
    let report = tracer.span("core.session.finish", request, |_| session.finish());
    Driven {
        report,
        step_s: slices.iter().map(|s| s.0).sum(),
        finish_s: start.elapsed().as_secs_f64(),
        slices,
        calib_end: calib,
    }
}

/// Simulated end-to-end metrics of a set of reports (one per config or
/// session): geometric means of throughput, steady-state p99 and WAF.
pub fn record_simulated(reports: &[&PerfReport], m: &mut Metrics) {
    let mbps: Vec<f64> = reports.iter().map(|r| r.throughput_mbps).collect();
    let p99: Vec<f64> = reports
        .iter()
        .map(|r| r.class_latency.total().quantile(0.99).as_us_f64())
        .collect();
    let waf: Vec<f64> = reports.iter().map(|r| r.waf).collect();
    m.set("sim_mbps", geomean(&mbps));
    m.set("sim_p99_us", geomean(&p99));
    m.set("waf", geomean(&waf));
}

/// Records the utilisation fractions of `reports` (the highest across
/// them: the bottleneck) as per-layer metrics.
pub fn record_utilisation(reports: &[&PerfReport], m: &mut Metrics) {
    let max = |f: &dyn Fn(&PerfReport) -> f64| reports.iter().map(|r| f(r)).fold(0.0, f64::max);
    m.set("hostif.link_util", max(&|r| r.utilization.host_link));
    m.set("dram.util", max(&|r| r.utilization.dram));
    m.set("cpu.util", max(&|r| r.utilization.cpu));
    m.set("ahb.util", max(&|r| r.utilization.ahb));
    m.set("channel.bus_util", max(&|r| r.utilization.channel_bus));
    m.set("nand.die_util", max(&|r| r.utilization.die));
}

fn fig6_stream(seed: u64) -> CommandStream {
    let workload = Workload::builder(AccessPattern::SequentialWrite)
        .command_count(FIG6_COMMANDS)
        .seed(seed)
        .build();
    CommandStream::new("fig6-seqwrite-4k", workload.commands()).with_random_write_fraction(0.0)
}

fn fig6_configs(seed: u64) -> Vec<SsdConfig> {
    table3_configs()
        .into_iter()
        .map(|mut cfg| {
            cfg.dram_buffer_capacity = STEADY_BUFFER_BYTES;
            cfg.seed = seed;
            cfg
        })
        .collect()
}

/// `fig6-seqwrite`: the Table III sweep through the `ParallelExecutor`.
pub fn fig6(args: &Args, calibrator: &Calibrator, tracer: &mut Tracer) -> Outcome {
    let threads = host::nproc();
    let mut gen_walls = Vec::new();
    let ((configs, explorer, stream), setup_s) = timed_setup(
        tracer,
        calibrator,
        |t| {
            let start = Instant::now();
            let stream = t.span("hostif.generate", 0, |_| fig6_stream(args.seed));
            gen_walls.push(start.elapsed().as_secs_f64());
            let configs = fig6_configs(args.seed);
            t.span("core.ssd.new", 0, |_| {
                for cfg in &configs {
                    std::hint::black_box(Ssd::new(cfg.clone()));
                }
            });
            let explorer = Explorer::new(configs[0].clone())
                .over(Axis::configs("config", configs.clone()))
                .steady_state(SteadyStateCutoff::Commands(FIG6_COMMANDS / 4));
            (configs, explorer, stream)
        },
        drop,
    );

    let start = Instant::now();
    let sequential = tracer
        .span("core.explorer.run", 0, |_| explorer.run(&stream))
        .expect("Table III configurations validate");
    let sequential_s = start.elapsed().as_secs_f64();
    let reference = format!("{sequential:?}");
    // Taken before the parallel repeats: their worker threads each get a
    // malloc arena, and what those arenas keep depends on which configs
    // happen to overlap, so the process peak after them swings by about
    // 10% from run to run. Up to here the run is single-threaded and the
    // peak repeats to within 0.1 MiB.
    let peak_rss = host::peak_rss_mib();

    let executor = ParallelExecutor::with_threads(threads);
    let mut repeats = Repeats::default();
    let mut failed = 0u64;
    let mut last_calib = calibrator.measure_on(threads);
    let window = Instant::now();
    let mut i = 0usize;
    while more(window, args.seconds, i) {
        tracer.set_active(i % 2 == 1);
        let traced = tracer.active();
        let start = Instant::now();
        let sweep = tracer.span("bench.repeat", i as u64, |t| {
            t.span("core.parallel.run", i as u64, |_| {
                executor.run(&explorer, &stream)
            })
        });
        let wall = start.elapsed().as_secs_f64();
        let commands = FIG6_COMMANDS * configs.len() as u64;
        let calib = calibrator.measure_on(threads);
        repeats.push(traced, commands, &[(wall, (last_calib * calib).sqrt())]);
        last_calib = calib;
        match sweep {
            Ok(sweep) if format!("{sweep:?}") == reference => {}
            Ok(_) => {
                failed += 1;
                eprintln!("perfbench: repeat {i}: parallel sweep differs from the sequential run");
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: repeat {i}: sweep failed: {e}");
            }
        }
        i += 1;
    }
    tracer.set_active(true);

    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s);
    e2e.set("peak_rss_mib", peak_rss);
    repeats.record(&mut e2e);
    let reports: Vec<&PerfReport> = sequential.points.iter().map(|p| &p.report).collect();
    record_simulated(&reports, &mut e2e);
    for p in &sequential.points {
        println!("  {}", p.report.summary_line());
    }

    let mut layer_metrics = Metrics::default();
    let mut tables = Vec::new();
    if tracer.enabled() {
        let parallel_s = median(&repeats.plain.iter().map(|r| r.wall).collect::<Vec<_>>());
        layer_metrics.set("parallel.speedup", sequential_s / parallel_s.max(1e-12));
        layer_metrics.set("parallel.identical", if failed == 0 { 1.0 } else { 0.0 });
        println!(
            "parallel: {threads} workers, sequential sweep {sequential_s:.3} s, parallel median {parallel_s:.3} s"
        );
        // Each config is stepped once per round, round-robin, so a slow
        // phase of the host lands on every config alike; the median round
        // is kept.
        let mut step_walls = vec![Vec::new(); configs.len()];
        let mut finish_walls = vec![Vec::new(); configs.len()];
        let mut stepped = Vec::new();
        for round in 0..FIG6_LAYER_ROUNDS {
            for (k, cfg) in configs.iter().enumerate() {
                let mut ssd = Ssd::new(cfg.clone());
                let driven = drive(
                    ssd.session(&stream),
                    tracer,
                    1_000 + k as u64,
                    STEP_SLICE,
                    None,
                );
                if format!("{:?}", driven.report) != format!("{:?}", sequential.points[k].report) {
                    failed += 1;
                    eprintln!(
                        "perfbench: {}: stepped session differs from the sweep",
                        cfg.name
                    );
                }
                step_walls[k].push(driven.step_s * calibrator.measure() / CALIB_REF_MOPS);
                finish_walls[k].push(driven.finish_s);
                if round == 0 {
                    stepped.push(driven.report);
                }
            }
        }
        let commands = stream.commands();
        for (k, cfg) in configs.iter().enumerate() {
            tables.push(layers::layer_table(
                &cfg.name,
                cfg,
                &commands,
                0,
                &stepped[k],
                median(&step_walls[k]),
                0,
                calibrator,
            ));
        }
        let finish_s: f64 = finish_walls.iter().map(|w| median(w)).sum();
        let combined = LayerTable::combine("fig6-seqwrite (all configs)", &tables);
        combined.record(&mut layer_metrics);
        layer_metrics.set(
            "layers.coverage_min",
            tables
                .iter()
                .map(LayerTable::coverage)
                .fold(f64::INFINITY, f64::min),
        );
        layer_metrics.set("session.finish_s", finish_s);
        layer_metrics.set("hostif.gen_s", median(&gen_walls));
        layer_metrics.set(
            "hostif.commands",
            (FIG6_COMMANDS * configs.len() as u64) as f64,
        );
        record_utilisation(&reports, &mut layer_metrics);
        layer_metrics.set("trace.overhead_frac", repeats.overhead());
        tables.push(combined);
    }

    Outcome {
        attempted: (repeats.plain.len() + repeats.traced.len()) as u64
            + (tables.len().saturating_sub(1) * FIG6_LAYER_ROUNDS) as u64,
        failed,
        e2e,
        layers: layer_metrics,
        tables,
    }
}

/// A device prepared for forked repeats: the timed part of `stream`
/// starts at `warm`, and `image` holds the session captured there.
struct Forked {
    ssd: Ssd,
    stream: CommandStream,
    image: Snapshot,
    warm: usize,
    aged_pe: u64,
}

/// What differs between the two forked workloads.
struct ForkedSpec {
    name: &'static str,
    cfg: SsdConfig,
    age: Option<f64>,
    /// Commands per request (per timed slice of the step loop).
    slice: u64,
    /// Builds the command stream and says where its timed part starts.
    generate: Box<dyn Fn(u64) -> (CommandStream, usize)>,
}

fn prepare(
    spec: &ForkedSpec,
    seed: u64,
    t: &mut Tracer,
    gen_walls: &mut Vec<f64>,
    fork_walls: &mut Vec<f64>,
) -> Forked {
    let start = Instant::now();
    let (stream, warm) = t.span("hostif.generate", 0, |_| (spec.generate)(seed));
    gen_walls.push(start.elapsed().as_secs_f64());
    let mut ssd = t.span("core.ssd.new", 0, |_| Ssd::new(spec.cfg.clone()));
    if let Some(age) = spec.age {
        t.span("core.ssd.age", 0, |_| ssd.age_to_normalized(age));
    }
    let aged_pe = ssd.aged_pe_cycles();
    let image = {
        let mut session = t.span("core.session.open", 0, |_| ssd.session(&stream));
        session.steady_state(SteadyStateCutoff::Commands(warm as u64));
        t.span("core.session.step", 0, |_| {
            for _ in 0..warm {
                session.step();
            }
        });
        t.span("core.snapshot.capture", 0, |_| session.capture())
    };
    let start = Instant::now();
    let forked = t.span("core.snapshot.fork", 0, |_| {
        SimSession::fork(&mut ssd, &stream, &image).map(|_| ())
    });
    fork_walls.push(start.elapsed().as_secs_f64());
    forked.expect("a freshly captured image forks");
    Forked {
        ssd,
        stream,
        image,
        warm,
        aged_pe,
    }
}

fn run_forked(
    spec: &ForkedSpec,
    args: &Args,
    calibrator: &Calibrator,
    tracer: &mut Tracer,
) -> Outcome {
    let mut gen_walls = Vec::new();
    let mut fork_walls = Vec::new();
    let (mut dev, setup_s) = timed_setup(
        tracer,
        calibrator,
        |t| prepare(spec, args.seed, t, &mut gen_walls, &mut fork_walls),
        drop,
    );

    let reference = tracer.span("bench.reference", 0, |_| {
        let mut ssd = Ssd::new(spec.cfg.clone());
        if let Some(age) = spec.age {
            ssd.age_to_normalized(age);
        }
        format!("{:?}", ssd.simulate(&dev.stream))
    });

    let timed_commands = (dev.stream.len() - dev.warm) as u64;
    let mut repeats = Repeats::default();
    let mut step_walls = Vec::new();
    let mut finish_walls = Vec::new();
    let mut failed = 0u64;
    let mut last_report = None;
    let mut last_calib = calibrator.measure();
    let window = Instant::now();
    let mut i = 0usize;
    while more(window, args.seconds, i) {
        tracer.set_active(i % 2 == 1);
        let traced = tracer.active();
        let Forked {
            ssd, stream, image, ..
        } = &mut dev;
        let outcome = tracer.span("bench.repeat", i as u64, |t| {
            let start = Instant::now();
            let session = t.span("core.snapshot.fork", i as u64, |_| {
                SimSession::fork(ssd, &*stream, image)
            });
            let fork_s = start.elapsed().as_secs_f64();
            session.map(|s| {
                let calibrate = Some((calibrator, last_calib));
                (drive(s, t, i as u64, spec.slice, calibrate), fork_s)
            })
        });
        match outcome {
            Ok((
                Driven {
                    report,
                    finish_s,
                    slices,
                    calib_end,
                    ..
                },
                fork_s,
            )) => {
                last_calib = calib_end;
                repeats.push(traced, timed_commands, &slices);
                fork_walls.push(fork_s);
                if !traced {
                    step_walls.push(slices.iter().map(|q| normalise(q.0, q.1)).sum::<f64>());
                    finish_walls.push(finish_s);
                }
                if format!("{report:?}") != reference {
                    failed += 1;
                    eprintln!(
                        "perfbench: repeat {i}: report differs from the unforked reference run"
                    );
                }
                last_report = Some(report);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: repeat {i}: fork failed: {e}");
            }
        }
        i += 1;
    }
    tracer.set_active(true);

    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s);
    repeats.record(&mut e2e);
    let mut layer_metrics = Metrics::default();
    let mut tables = Vec::new();
    if let Some(report) = &last_report {
        println!("  {}", report.summary_line());
        record_simulated(&[report], &mut e2e);
        if tracer.enabled() {
            let commands = dev.stream.commands();
            let table = layers::layer_table(
                spec.name,
                &spec.cfg,
                &commands,
                dev.warm,
                report,
                median(&step_walls),
                dev.aged_pe,
                calibrator,
            );
            if let Some(matches) = layers::ftl_matches_report(&table, &commands, &spec.cfg, report)
            {
                println!(
                    "ftl replay reproduces the report's NAND program and read counts: {}",
                    if matches { "yes" } else { "NO" }
                );
            }
            table.record(&mut layer_metrics);
            layer_metrics.set("layers.coverage_min", table.coverage());
            layer_metrics.set("session.finish_s", median(&finish_walls));
            layer_metrics.set("hostif.gen_s", median(&gen_walls));
            layer_metrics.set("hostif.commands", timed_commands as f64);
            layer_metrics.set("snapshot.image_bytes", dev.image.to_bytes().len() as f64);
            layer_metrics.set("snapshot.fork_us", median(&fork_walls) * 1e6);
            let capture_us: Vec<f64> = (0..5)
                .map(|_| {
                    let session = SimSession::fork(&mut dev.ssd, &dev.stream, &dev.image)
                        .expect("the image forked before");
                    let start = Instant::now();
                    std::hint::black_box(session.capture());
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            layer_metrics.set("snapshot.capture_us", median(&capture_us));
            record_utilisation(&[report], &mut layer_metrics);
            layer_metrics.set("trace.overhead_frac", repeats.overhead());
            tables.push(table);
        }
    }

    Outcome {
        attempted: (repeats.plain.len() + repeats.traced.len()) as u64,
        failed,
        e2e,
        layers: layer_metrics,
        tables,
    }
}

/// `gc-randwrite`: uniform random writes on C6 with the page-mapped FTL.
pub fn gc_randwrite(args: &Args, calibrator: &Calibrator, tracer: &mut Tracer) -> Outcome {
    let mut cfg = table3_configs()
        .into_iter()
        .nth(5)
        .expect("Table III has C6");
    cfg.dram_buffer_capacity = STEADY_BUFFER_BYTES;
    cfg.ftl_mode = FtlMode::PageMapped;
    cfg.seed = args.seed;
    let spec = ForkedSpec {
        name: "gc-randwrite",
        cfg,
        age: None,
        slice: STEP_SLICE,
        generate: Box::new(|seed| {
            let warm = Workload::builder(AccessPattern::SequentialWrite)
                .command_count(GC_FOOTPRINT / 4096)
                .footprint_bytes(GC_FOOTPRINT)
                .build()
                .commands();
            let random = Workload::builder(AccessPattern::RandomWrite)
                .command_count(GC_TIMED_COMMANDS)
                .footprint_bytes(GC_FOOTPRINT)
                .seed(seed)
                .build()
                .commands();
            let warm_len = warm.len();
            let commands: Vec<HostCommand> = warm
                .into_iter()
                .chain(random.into_iter().enumerate().map(|(i, mut c)| {
                    c.id = (warm_len + i) as u64;
                    c
                }))
                .collect();
            (
                CommandStream::new("gc-randwrite-4k", commands).with_random_write_fraction(1.0),
                warm_len,
            )
        }),
    };
    run_forked(&spec, args, calibrator, tracer)
}

/// `zipf-read-aged`: zipfian 90%-read traffic on an aged Fig. 5 device.
pub fn zipf_read_aged(args: &Args, calibrator: &Calibrator, tracer: &mut Tracer) -> Outcome {
    let mut cfg = fig5_config(EccScheme::adaptive_bch(40));
    cfg.ftl_mode = FtlMode::PageMapped;
    cfg.faults.read_disturb_per_read = ZIPF_READ_DISTURB;
    cfg.seed = args.seed;
    let spec = ForkedSpec {
        name: "zipf-read-aged",
        cfg,
        age: Some(ZIPF_AGE),
        slice: ZIPF_SLICE,
        generate: Box::new(|seed| {
            let zipf = ZipfianWorkload::new(0.9, seed)
                .command_count(ZIPF_COMMANDS)
                .footprint_bytes(ZIPF_FOOTPRINT)
                .read_fraction(0.9);
            let fraction = zipf.random_write_fraction();
            (
                CommandStream::new("zipf-read-aged", zipf.commands().into_owned())
                    .with_random_write_fraction(fraction),
                0,
            )
        }),
    };
    run_forked(&spec, args, calibrator, tracer)
}
