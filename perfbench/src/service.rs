//! `service-8x4x2`: `ssdx-server` on loopback, hosted in this process.
//!
//! A closed loop: each client connection runs sessions back to back, and
//! sends a request only when the previous reply has arrived, as every
//! protocol caller does. A session is `CreateSession`, `SVC_STEPS` Steps
//! of `SVC_STEP_COMMANDS` commands, `FetchReport` and `CloseSession`.
//! Every fetched report must be byte-identical to in-process
//! `Ssd::simulate` on the same config text and `WorkloadSpec`.

use crate::host::{self, Calibrator, CALIB_REF_MOPS};
use crate::inproc::{record_simulated, timed_setup};
use crate::layers;
use crate::metrics::Metrics;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ssdx_core::{PerfReport, SimSession, Ssd, SsdConfig};
use ssdx_server::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use ssdx_server::{Client, ClientError, Request, Response, Server, ServerConfig, WorkloadSpec};
use ssdx_sim::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Client connections (and at most `nproc`).
const SVC_CONNECTIONS: usize = 2;
/// Steps per session.
const SVC_STEPS: usize = 4;
/// Commands per Step.
const SVC_STEP_COMMANDS: u64 = 16;
/// Commands per session; the fetch simulates what the steps left.
const SVC_SESSION_COMMANDS: u64 = 96;
/// Distinct workload specs the sessions cycle through.
const SVC_SPECS: u64 = 16;
/// Stepped runs of one session behind the layer table.
const SVC_LAYER_RUNS: u64 = 21;
/// Logical footprint of each session's stream.
const SVC_FOOTPRINT: u64 = 16 << 20;

/// The request types of a session, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Create,
    Step,
    Fetch,
    Close,
}

const KINDS: [(Kind, &str); 4] = [
    (Kind::Create, "create"),
    (Kind::Step, "step"),
    (Kind::Fetch, "fetch"),
    (Kind::Close, "close"),
];

fn config_text(seed: u64) -> String {
    SsdConfig::builder("svc-8x4x2")
        .topology(8, 4, 2)
        .seed(seed)
        .build()
        .expect("the 8x4x2 service config is valid")
        .to_text()
}

fn spec(seed: u64, index: u64) -> WorkloadSpec {
    WorkloadSpec::Zipfian {
        theta: 0.9,
        seed: seed.wrapping_mul(1_000).wrapping_add(index),
        command_count: SVC_SESSION_COMMANDS,
        block_size: 4096,
        footprint_bytes: SVC_FOOTPRINT,
        read_fraction: 0.5,
    }
}

/// What one client connection observed.
#[derive(Default)]
struct ConnLog {
    /// (type, latency ms, traced) per request.
    samples: Vec<(Kind, f64, bool)>,
    /// Reports fetched.
    fetched: u64,
    /// Fetched reports that differ from the in-process reference.
    mismatches: u64,
    /// Simulated commands in the fetched reports.
    commands: u64,
    /// (traced, wall seconds, commands) per completed session.
    sessions: Vec<(bool, f64, u64)>,
    requests: u64,
    replies: u64,
    errors: u64,
}

impl ConnLog {
    /// Times one request, counting it and its reply.
    fn call<T>(
        &mut self,
        tracer: &mut Tracer,
        kind: Kind,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let traced = tracer.active();
        let start = Instant::now();
        let out = tracer.span(name, request, |_| f());
        self.samples
            .push((kind, start.elapsed().as_secs_f64() * 1e3, traced));
        self.requests += 1;
        match &out {
            Ok(_) => self.replies += 1,
            Err(e) => {
                self.errors += 1;
                if matches!(e, ClientError::Server { .. }) {
                    self.replies += 1;
                }
                eprintln!("perfbench: {name} failed: {e}");
            }
        }
        out
    }
}

/// Runs sessions on `client` until `seconds` have passed since `window`;
/// `conn` numbers the connection, and `references` holds the expected
/// report `Debug` text of each spec.
#[allow(clippy::too_many_arguments)]
fn run_connection(
    conn: usize,
    client: &mut Client,
    text: &str,
    seed: u64,
    references: &[String],
    seconds: f64,
    window: Instant,
    tracer: &mut Tracer,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut k = 0u64;
    while window.elapsed().as_secs_f64() < seconds {
        tracer.set_active(k % 2 == 1);
        let traced = tracer.active();
        let index = (conn as u64 * 7 + k) % SVC_SPECS;
        let request = ((conn as u64) << 32) | k;
        let workload = spec(seed, index);
        let start = Instant::now();
        let ok = tracer.span("bench.session", request, |t| -> Result<u64, ClientError> {
            let id = log.call(t, Kind::Create, "server.client.create", request, || {
                client.create_session(text, &workload)
            })?;
            for _ in 0..SVC_STEPS {
                log.call(t, Kind::Step, "server.client.step", request, || {
                    client.step(id, SVC_STEP_COMMANDS)
                })?;
            }
            let report = log.call(t, Kind::Fetch, "server.client.fetch", request, || {
                client.fetch_report(id)
            })?;
            log.call(t, Kind::Close, "server.client.close", request, || {
                client.close_session(id)
            })?;
            log.fetched += 1;
            log.commands += report.commands;
            if format!("{report:?}") != references[index as usize] {
                log.mismatches += 1;
                eprintln!(
                    "perfbench: session {request}: fetched report differs from Ssd::simulate"
                );
            }
            Ok(report.commands)
        });
        match ok {
            Ok(commands) => log
                .sessions
                .push((traced, start.elapsed().as_secs_f64(), commands)),
            Err(ClientError::Server { .. }) => {}
            Err(_) => break,
        }
        k += 1;
    }
    log
}

/// In-process costs of the work behind each request type, on the same
/// 8x4x2 device and a session's stream.
struct InProcess {
    /// ms per request type, in `KINDS` order.
    per_kind_ms: [f64; 4],
    frame_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    image_bytes: usize,
    capture_us: f64,
    fork_us: f64,
}

/// Median seconds per call of `f`, over `batches` timings of `calls`
/// back-to-back calls each (batching keeps the clock's own cost out of
/// sub-microsecond figures).
fn median_of<T>(batches: usize, calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&walls)
}

/// Measures the server-side work of each request type in isolation:
/// parse and build for create; fork, simulate 16 commands and capture for
/// step; fork and finish for fetch; plus, for every request, framing and
/// encoding and decoding of the request and its reply.
fn in_process(text: &str, workload: &WorkloadSpec, reference: &PerfReport) -> InProcess {
    let config = SsdConfig::from_text(text).expect("the service config parses");
    let source = workload.build().expect("the service spec builds");
    let create_s = median_of(9, 1, || {
        let cfg = SsdConfig::from_text(text).expect("parses");
        let src = workload.build().expect("builds");
        let mut ssd = Ssd::try_new(cfg).expect("valid");
        let image = ssd.session(src.as_ref()).capture();
        image
    });
    let mut ssd = Ssd::new(config);
    let created = ssd.session(source.as_ref()).capture();
    // Images after `n` commands: the middle step forks from the one after
    // two steps, the fetch from the one after the last step.
    let mut image_after = |n: u64| {
        let mut s = SimSession::fork(&mut ssd, source.as_ref(), &created).expect("forks");
        for _ in 0..n {
            s.step();
        }
        s.capture()
    };
    let mid = image_after(2 * SVC_STEP_COMMANDS);
    let stepped = image_after(SVC_STEPS as u64 * SVC_STEP_COMMANDS);
    let fork_s = median_of(21, 1, || {
        SimSession::fork(&mut ssd, source.as_ref(), &mid)
            .expect("forks")
            .completed()
    });
    let capture_s = {
        let s = SimSession::fork(&mut ssd, source.as_ref(), &mid).expect("forks");
        median_of(21, 1, || s.capture())
    };
    let step_s = median_of(21, 1, || {
        let mut s = SimSession::fork(&mut ssd, source.as_ref(), &mid).expect("forks");
        for _ in 0..SVC_STEP_COMMANDS {
            s.step();
        }
        s.capture()
    });
    let fetch_s = median_of(9, 1, || {
        SimSession::fork(&mut ssd, source.as_ref(), &stepped)
            .expect("forks")
            .finish()
    });

    let progress = Response::Progress {
        session: 1,
        executed: SVC_STEP_COMMANDS,
        now: SimTime::from_us(500),
        completed: SVC_STEP_COMMANDS,
        remaining: SVC_SESSION_COMMANDS - SVC_STEP_COMMANDS,
    };
    let pairs: [(Request, Response); 4] = [
        (
            Request::CreateSession {
                config: text.to_string(),
                workload: workload.clone(),
            },
            Response::SessionCreated { session: 1 },
        ),
        (
            Request::Step {
                session: 1,
                commands: SVC_STEP_COMMANDS,
            },
            progress,
        ),
        (
            Request::FetchReport { session: 1 },
            Response::Report {
                session: 1,
                report: Box::new(reference.clone()),
            },
        ),
        (
            Request::CloseSession { session: 1 },
            Response::Closed { session: 1 },
        ),
    ];
    // Per type: frame both messages, encode and decode both.
    let mut codec_s = [0.0f64; 4];
    let mut frame_total = 0.0;
    let mut enc_total = 0.0;
    let mut dec_total = 0.0;
    for (k, (req, resp)) in pairs.iter().enumerate() {
        let req_bytes = req.encode();
        let resp_bytes = resp.encode();
        let enc = median_of(9, 200, || req.encode()) + median_of(9, 200, || resp.encode());
        let dec = median_of(9, 200, || Request::decode(&req_bytes).expect("decodes"))
            + median_of(9, 200, || Response::decode(&resp_bytes).expect("decodes"));
        let frame = |payload: &[u8]| {
            median_of(9, 200, || {
                let mut buf = Vec::with_capacity(payload.len() + 4);
                write_frame(&mut buf, payload).expect("writes to memory");
                read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES)
                    .expect("reads from memory")
                    .map_or(0, |p| p.len())
            })
        };
        let frames = frame(&req_bytes) + frame(&resp_bytes);
        codec_s[k] = enc + dec + frames;
        let weight = if KINDS[k].0 == Kind::Step {
            SVC_STEPS as f64
        } else {
            1.0
        };
        frame_total += frames * weight;
        enc_total += enc * weight;
        dec_total += dec * weight;
    }
    let messages = 2.0 * (3.0 + SVC_STEPS as f64);
    let work = [create_s, step_s, fetch_s, 0.0];
    let mut per_kind_ms = [0.0; 4];
    for k in 0..4 {
        per_kind_ms[k] = (work[k] + codec_s[k]) * 1e3;
    }
    InProcess {
        per_kind_ms,
        frame_ns: frame_total / messages * 1e9,
        encode_ns: enc_total / messages * 1e9,
        decode_ns: dec_total / messages * 1e9,
        image_bytes: mid.to_bytes().len(),
        capture_us: capture_s * 1e6,
        fork_us: fork_s * 1e6,
    }
}

/// Binds a server and connects `conns` clients.
fn start(conns: usize, workers: usize, t: &mut Tracer) -> (Server, Vec<Client>) {
    let server = t.span("server.bind", 0, |_| {
        Server::bind(ServerConfig {
            bind: "127.0.0.1:0".into(),
            workers,
            ..ServerConfig::default()
        })
        .expect("binds a loopback port")
    });
    let addr = server.local_addr();
    let clients = (0..conns)
        .map(|_| {
            t.span("server.client.connect", 0, |_| {
                Client::connect(addr).expect("connects and completes the handshake")
            })
        })
        .collect();
    (server, clients)
}

fn stop(server: Server, clients: Vec<Client>) {
    drop(clients);
    server.shutdown();
    let _ = server.wait();
}

/// `service-8x4x2`.
pub fn service(args: &Args, calibrator: &Calibrator, tracer: &mut Tracer) -> Outcome {
    let workers = host::nproc();
    let conns = SVC_CONNECTIONS.min(workers);
    let text = config_text(args.seed);

    // The expected report of every spec, computed before the clock starts.
    let references: Vec<PerfReport> = (0..SVC_SPECS)
        .map(|j| {
            let cfg = SsdConfig::from_text(&text).expect("the service config parses");
            let source = spec(args.seed, j).build().expect("the service spec builds");
            Ssd::new(cfg).simulate(source.as_ref())
        })
        .collect();
    let reference_text: Vec<String> = references.iter().map(|r| format!("{r:?}")).collect();

    let ((server, mut clients), setup_s) = timed_setup(
        tracer,
        calibrator,
        |t| start(conns, workers, t),
        |(server, clients)| stop(server, clients),
    );

    let window = Instant::now();
    let mut logs: Vec<(ConnLog, Tracer)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let mut t = tracer.fork();
                let text = &text;
                let references = &reference_text;
                let seed = args.seed;
                let seconds = args.seconds;
                s.spawn(move || {
                    let log = run_connection(
                        conn, client, text, seed, references, seconds, window, &mut t,
                    );
                    (log, t)
                })
            })
            .collect();
        for h in handles {
            logs.push(h.join().expect("client threads do not panic"));
        }
    });
    let wall = window.elapsed().as_secs_f64();
    stop(server, clients);

    let mut log = ConnLog::default();
    for (l, t) in logs {
        tracer.absorb(t);
        log.samples.extend(l.samples);
        log.sessions.extend(l.sessions);
        log.fetched += l.fetched;
        log.mismatches += l.mismatches;
        log.commands += l.commands;
        log.requests += l.requests;
        log.replies += l.replies;
        log.errors += l.errors;
    }
    tracer.set_active(true);
    let mismatches = log.mismatches;
    let mut failed = log.errors + mismatches;
    let commands = log.commands;

    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup_s);
    e2e.set("sim_cmds_per_s", commands as f64 / wall);
    let plain: Vec<f64> = log.samples.iter().filter(|s| !s.2).map(|s| s.1).collect();
    let tail = stats::tail(&plain);
    e2e.set("req_p50_ms", median(&plain));
    e2e.set("req_tail_ms", tail.value);
    record_simulated(&references.iter().collect::<Vec<_>>(), &mut e2e);
    println!(
        "service: {conns} connections, {workers} server workers, {} sessions, {} requests, {} replies, {} errors, {} of {} fetched reports differ in {wall:.2} s",
        log.sessions.len(),
        log.requests,
        log.replies,
        log.errors,
        mismatches,
        log.fetched
    );
    println!(
        "  svc_cmds_per_s {:.1} cmds/s | svc_req_p50_ms {:.3} ms | svc_req_tail_ms {:.3} ms (p{:.1}, {} of {} samples beyond)",
        commands as f64 / wall,
        median(&plain),
        tail.value,
        tail.percentile,
        tail.beyond,
        tail.count
    );

    let mut layer_metrics = Metrics::default();
    let mut tables = Vec::new();
    if tracer.enabled() {
        let inproc = in_process(&text, &spec(args.seed, 0), &references[0]);
        let mut residuals = Vec::new();
        println!("  type      p50_ms  in-process_ms  residual_ms  samples");
        for (k, (kind, name)) in KINDS.iter().enumerate() {
            let lat: Vec<f64> = log
                .samples
                .iter()
                .filter(|s| s.0 == *kind && !s.2)
                .map(|s| s.1)
                .collect();
            residuals.extend(lat.iter().map(|l| l - inproc.per_kind_ms[k]));
            let p50 = median(&lat);
            layer_metrics.set(format!("svc.{name}_p50_ms"), p50);
            println!(
                "  {name:<8} {p50:>8.3} {:>14.4} {:>12.3} {:>8}",
                inproc.per_kind_ms[k],
                p50 - inproc.per_kind_ms[k],
                lat.len()
            );
        }
        layer_metrics.set("svc.residual_ms", median(&residuals));
        layer_metrics.set("svc.requests", log.requests as f64);
        layer_metrics.set("svc.replies", log.replies as f64);
        layer_metrics.set("svc.errors", log.errors as f64);
        layer_metrics.set("frame.ns_per_frame", inproc.frame_ns);
        layer_metrics.set("proto.encode_ns", inproc.encode_ns);
        layer_metrics.set("proto.decode_ns", inproc.decode_ns);
        layer_metrics.set("snapshot.image_bytes", inproc.image_bytes as f64);
        layer_metrics.set("snapshot.capture_us", inproc.capture_us);
        layer_metrics.set("snapshot.fork_us", inproc.fork_us);

        let rate = |traced: bool| {
            let r: Vec<f64> = log
                .sessions
                .iter()
                .filter(|s| s.0 == traced)
                .map(|s| s.2 as f64 / s.1)
                .collect();
            median(&r)
        };
        let (plain_rate, traced_rate) = (rate(false), rate(true));
        if plain_rate > 0.0 && traced_rate > 0.0 {
            layer_metrics.set("trace.overhead_frac", 1.0 - traced_rate / plain_rate);
        }

        // The simulation share of the service path, for the same layer
        // table as the in-process workloads: spec 0's session, stepped
        // `SVC_LAYER_RUNS` times.
        let cfg = SsdConfig::from_text(&text).expect("the service config parses");
        let mut gen_walls = Vec::new();
        let mut step_walls = Vec::new();
        let mut finish_walls = Vec::new();
        let mut stepped = None;
        let calib_before = calibrator.measure();
        for run in 0..SVC_LAYER_RUNS {
            let start = Instant::now();
            let source = tracer.span("hostif.generate", run, |_| {
                let source = spec(args.seed, 0).build().expect("the service spec builds");
                black_box(source.commands().len());
                source
            });
            gen_walls.push(start.elapsed().as_secs_f64());
            let mut ssd = Ssd::new(cfg.clone());
            let driven = crate::inproc::drive(
                ssd.session(source.as_ref()),
                tracer,
                2_000 + run,
                crate::inproc::STEP_SLICE,
                None,
            );
            if format!("{:?}", driven.report) != reference_text[0] {
                failed += 1;
                eprintln!("perfbench: a stepped session differs from Ssd::simulate");
            }
            step_walls.push(driven.step_s);
            finish_walls.push(driven.finish_s);
            stepped = Some(driven.report);
        }
        let scale = (calib_before * calibrator.measure()).sqrt() / CALIB_REF_MOPS;
        let source = spec(args.seed, 0).build().expect("the service spec builds");
        let table = layers::layer_table(
            "service-8x4x2 (simulation share, one session)",
            &cfg,
            &source.commands(),
            0,
            stepped.as_ref().expect("at least one layer run"),
            median(&step_walls) * scale,
            0,
            calibrator,
        );
        table.record(&mut layer_metrics);
        layer_metrics.set("layers.coverage_min", table.coverage());
        layer_metrics.set("session.finish_s", median(&finish_walls) * scale);
        layer_metrics.set("hostif.gen_s", median(&gen_walls) * scale);
        layer_metrics.set("hostif.commands", SVC_SESSION_COMMANDS as f64);
        crate::inproc::record_utilisation(
            &references.iter().collect::<Vec<_>>(),
            &mut layer_metrics,
        );
        tables.push(table);
    }

    Outcome {
        attempted: log.requests + log.fetched,
        failed,
        e2e,
        layers: layer_metrics,
        tables,
    }
}
