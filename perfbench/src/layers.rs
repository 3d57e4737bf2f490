//! The per-layer cost table.
//!
//! The substrate models live inside `Ssd`, where code outside the
//! simulator cannot wrap them in spans. Their cost is therefore estimated
//! by replay: each layer's public entry point is driven in isolation with
//! the op mix the end-to-end run recorded, and its ns/op is multiplied by
//! the run's op count. Counts come from the run's `PerfReport`; FTL counts
//! come from a `PageMappedFtl` replay of the same LPN stream, sized the
//! way `SimSession` sizes it, which must also reproduce the report's NAND
//! program and read counts exactly.
//!
//! Coverage is the sum of the replayed layer times over the measured
//! session step time. What coverage leaves unexplained is the session's
//! own bookkeeping (admission window, back-pressure ledger, histograms,
//! the op dispatch between layers) plus whatever the isolated replay
//! misses about the in-situ cost (cache state, inlining).

use crate::host::{Calibrator, CALIB_REF_MOPS};
use crate::metrics::Metrics;
use ssdx_channel::{ChannelConfig, ChannelController};
use ssdx_core::{FtlMode, PerfReport, SsdConfig};
use ssdx_cpu::CpuModel;
use ssdx_dram::{AccessKind, DramBuffer};
use ssdx_ftl::{FtlStats, PageMappedFtl};
use ssdx_hostif::{HostCommand, HostOp};
use ssdx_interconnect::{AhbBus, AhbConfig};
use ssdx_nand::{NandDie, NandOp, OnfiBus, PageAddr};
use ssdx_sim::rng::SimRng;
use ssdx_sim::{Resource, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Ops each replay trial drives through a layer.
const REPLAY_OPS: usize = 60_000;
/// Replay trials per layer; the median ns/op is kept.
const REPLAY_TRIALS: usize = 3;
/// Coverage below this share of step time is flagged (the bar the
/// roadmap sets for the layer table).
pub const COVERAGE_FLAG: f64 = 0.85;

/// Substrate op counts of the timed part of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Host commands.
    pub commands: u64,
    /// Host write commands.
    pub writes: u64,
    /// Host read commands.
    pub reads: u64,
    /// Host pages written.
    pub host_write_pages: u64,
    /// Host pages read.
    pub host_read_pages: u64,
    /// NAND page programs (host pages plus GC relocations, or the WAF
    /// abstraction's inflated count).
    pub programs: u64,
    /// NAND page reads (host pages plus GC relocation reads).
    pub nand_reads: u64,
    /// NAND block erases.
    pub erases: u64,
}

/// A replay of the page-mapped FTL over a run's LPN stream.
#[derive(Debug, Clone, Copy)]
pub struct FtlReplay {
    /// FTL statistics over the whole stream.
    pub total: FtlStats,
    /// FTL statistics of the timed part alone.
    pub timed: FtlStats,
    /// ns per host page write (GC included) over the timed part.
    pub ns_per_write: f64,
    /// ns per mapping lookup.
    pub ns_per_lookup: f64,
}

/// One row of the layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Ops the end-to-end run issued to it.
    pub count: u64,
    /// Replayed ns per op.
    pub ns_per_op: f64,
}

impl LayerRow {
    /// Estimated seconds the run spent in this layer.
    pub fn seconds(&self) -> f64 {
        self.count as f64 * self.ns_per_op / 1e9
    }
}

/// The layer table of one run.
#[derive(Debug, Clone)]
pub struct LayerTable {
    /// Label of the run (workload or config).
    pub label: String,
    /// One row per replayed layer.
    pub rows: Vec<LayerRow>,
    /// Measured wall seconds of the session's step loop.
    pub step_s: f64,
    /// Host commands the step loop executed.
    pub commands: u64,
    /// Op counts the rows were built from.
    pub counts: OpCounts,
    /// ns per call of `EccScheme::encode_latency_for`.
    pub encode_ns: f64,
    /// ns per call of `EccScheme::decode_latency_for`.
    pub decode_ns: f64,
    /// The NAND die replay alone (already included in `channel`).
    pub nand_ns: f64,
    /// FTL replay, for page-mapped runs.
    pub ftl: Option<FtlReplay>,
}

impl LayerTable {
    /// Sum of the replayed layer times, seconds.
    pub fn layer_seconds(&self) -> f64 {
        self.rows.iter().map(LayerRow::seconds).sum()
    }

    /// Replayed layer time over measured step time.
    pub fn coverage(&self) -> f64 {
        if self.step_s > 0.0 {
            self.layer_seconds() / self.step_s
        } else {
            0.0
        }
    }

    /// Step time not explained by the replayed layers, ns per command.
    pub fn self_ns_per_cmd(&self) -> f64 {
        (self.step_s - self.layer_seconds()) * 1e9 / self.commands.max(1) as f64
    }

    /// One table for several runs: counts and times add up, ns/op is the
    /// count-weighted mean.
    pub fn combine(label: &str, tables: &[LayerTable]) -> LayerTable {
        let mut rows: Vec<LayerRow> = Vec::new();
        let mut counts = OpCounts::default();
        let (mut enc, mut dec, mut nand) = (0.0, 0.0, 0.0);
        for t in tables {
            for r in &t.rows {
                match rows.iter_mut().find(|x| x.layer == r.layer) {
                    Some(x) => {
                        let total = x.seconds() + r.seconds();
                        x.count += r.count;
                        x.ns_per_op = if x.count > 0 {
                            total * 1e9 / x.count as f64
                        } else {
                            0.0
                        };
                    }
                    None => rows.push(r.clone()),
                }
            }
            let c = &t.counts;
            enc += t.encode_ns * c.programs as f64;
            dec += t.decode_ns * c.host_read_pages as f64;
            nand += t.nand_ns * (c.programs + c.nand_reads + c.erases) as f64;
            counts.commands += c.commands;
            counts.writes += c.writes;
            counts.reads += c.reads;
            counts.host_write_pages += c.host_write_pages;
            counts.host_read_pages += c.host_read_pages;
            counts.programs += c.programs;
            counts.nand_reads += c.nand_reads;
            counts.erases += c.erases;
        }
        let per = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
        LayerTable {
            label: label.to_string(),
            rows,
            step_s: tables.iter().map(|t| t.step_s).sum(),
            commands: tables.iter().map(|t| t.commands).sum(),
            encode_ns: per(enc, counts.programs),
            decode_ns: per(dec, counts.host_read_pages),
            nand_ns: per(nand, counts.programs + counts.nand_reads + counts.erases),
            counts,
            ftl: None,
        }
    }

    fn ns(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0.0, |r| r.ns_per_op)
    }

    /// Prints the table.
    pub fn print(&self) {
        println!(
            "layer table [{}]: step {:.4} s over {} commands ({:.0} ns/cmd)",
            self.label,
            self.step_s,
            self.commands,
            self.step_s * 1e9 / self.commands.max(1) as f64
        );
        println!(
            "  {:<12} {:>12} {:>10} {:>10} {:>7}",
            "layer", "ops", "ns/op", "time_s", "share"
        );
        for r in &self.rows {
            println!(
                "  {:<12} {:>12} {:>10.1} {:>10.4} {:>6.1}%",
                r.layer,
                r.count,
                r.ns_per_op,
                r.seconds(),
                100.0 * r.seconds() / self.step_s.max(1e-12)
            );
        }
        let flag = if self.coverage() < COVERAGE_FLAG {
            "  [BELOW 85%]"
        } else {
            ""
        };
        println!(
            "  coverage {:.1}% of step time; session self {:.0} ns/cmd{flag}",
            100.0 * self.coverage(),
            self.self_ns_per_cmd()
        );
    }

    /// Records the table's per-layer metrics.
    pub fn record(&self, m: &mut Metrics) {
        let c = &self.counts;
        m.set("hostif.link_ns_per_op", self.ns("hostif.link"));
        m.set(
            "dram.accesses",
            c.writes as f64 + c.programs as f64 + c.host_read_pages as f64,
        );
        m.set("dram.ns_per_op", self.ns("dram"));
        m.set("cpu.tasks", c.commands as f64);
        m.set("cpu.ns_per_op", self.ns("cpu"));
        m.set("ahb.transfers", (c.writes + c.reads) as f64);
        m.set("ahb.ns_per_op", self.ns("ahb"));
        m.set("channel.ops", (c.programs + c.nand_reads + c.erases) as f64);
        m.set("channel.ns_per_op", self.ns("channel"));
        m.set("nand.programs", c.programs as f64);
        m.set("nand.reads", c.nand_reads as f64);
        m.set("nand.erases", c.erases as f64);
        m.set("nand.ns_per_op", self.nand_ns);
        m.set("ecc.encodes", c.programs as f64);
        m.set("ecc.decodes", c.host_read_pages as f64);
        m.set("ecc.encode_ns", self.encode_ns);
        m.set("ecc.decode_ns", self.decode_ns);
        m.set(
            "ftl.useful_frac",
            c.host_write_pages as f64 / c.programs.max(1) as f64,
        );
        if let Some(f) = &self.ftl {
            m.set("ftl.host_writes", f.timed.host_writes as f64);
            m.set("ftl.gc_relocations", f.timed.gc_relocations as f64);
            m.set("ftl.erases", f.timed.erases as f64);
            m.set("ftl.ns_per_write", f.ns_per_write);
        }
        m.set("session.step_s", self.step_s);
        m.set(
            "session.ns_per_cmd",
            self.step_s * 1e9 / self.commands.max(1) as f64,
        );
        m.set("session.self_ns_per_cmd", self.self_ns_per_cmd());
        m.set("layers.coverage", self.coverage());
    }
}

/// Builds the layer table of one run: `commands[timed..]` is the part the
/// step loop timed, in `step_s` host-normalised seconds, and `report` is
/// the run's report. The replayed ns/op are host-normalised by a
/// calibration around the replays, so both sides of the coverage ratio
/// read at the same reference host speed.
#[allow(clippy::too_many_arguments)]
pub fn layer_table(
    label: &str,
    cfg: &SsdConfig,
    commands: &[HostCommand],
    timed: usize,
    report: &PerfReport,
    step_s: f64,
    aged_pe: u64,
    calibrator: &Calibrator,
) -> LayerTable {
    let calib_before = calibrator.measure();
    let page_bytes = cfg.nand.geometry.page_size_bytes;
    let part = &commands[timed..];
    let mut c = OpCounts {
        commands: part.len() as u64,
        ..OpCounts::default()
    };
    for cmd in part {
        let pages = u64::from(cmd.bytes.div_ceil(page_bytes).max(1));
        match cmd.op {
            HostOp::Write => {
                c.writes += 1;
                c.host_write_pages += pages;
            }
            HostOp::Read => {
                c.reads += 1;
                c.host_read_pages += pages;
            }
            HostOp::Trim => {}
        }
    }
    let ftl = (cfg.ftl_mode == FtlMode::PageMapped).then(|| ftl_replay(cfg, commands, timed));
    match &ftl {
        Some(f) => {
            c.programs = c.host_write_pages + f.timed.gc_relocations;
            c.nand_reads = c.host_read_pages + f.timed.gc_relocations;
            c.erases = f.timed.erases;
        }
        None => {
            c.programs = report.nand_page_programs;
            c.nand_reads = report.nand_page_reads;
        }
    }

    let elapsed = report.elapsed;
    let offsets: Vec<u64> = part.iter().map(|c| c.offset).collect();
    let cores = cfg.cpu_cores.max(1) as u64;
    let mut rows = Vec::new();

    let link_ops = c.writes + c.reads;
    rows.push(LayerRow {
        layer: "hostif.link",
        count: link_ops,
        ns_per_op: replay_link(cfg, spacing(elapsed, link_ops, 1)),
    });
    let dram_ops = [
        (c.writes, AccessKind::Write, 4096u32),
        (c.programs, AccessKind::Read, page_bytes),
        (c.host_read_pages, AccessKind::Write, page_bytes),
    ];
    let dram_count: u64 = dram_ops.iter().map(|o| o.0).sum();
    rows.push(LayerRow {
        layer: "dram",
        count: dram_count,
        ns_per_op: replay_dram(
            cfg,
            &dram_ops,
            &offsets,
            spacing(elapsed, dram_count, u64::from(cfg.dram_buffers)),
        ),
    });
    rows.push(LayerRow {
        layer: "cpu",
        count: c.commands,
        ns_per_op: replay_cpu(cfg, spacing(elapsed, c.commands, cores)),
    });
    rows.push(LayerRow {
        layer: "ahb",
        count: c.writes + c.reads,
        ns_per_op: replay_ahb(cfg, spacing(elapsed, c.writes + c.reads, 1)),
    });
    let nand_mix = [
        (c.programs, NandOp::Program),
        (c.nand_reads, NandOp::Read),
        (c.erases, NandOp::Erase),
    ];
    let nand_count = c.programs + c.nand_reads + c.erases;
    rows.push(LayerRow {
        layer: "channel",
        count: nand_count,
        ns_per_op: replay_channel(
            cfg,
            &nand_mix,
            aged_pe,
            spacing(elapsed, nand_count, u64::from(cfg.channels)),
        ),
    });
    let (nand_ns, raw_errors) = replay_die(
        cfg,
        &nand_mix,
        aged_pe,
        spacing(elapsed, nand_count, u64::from(cfg.total_dies())),
    );
    let encode_ns = replay_encode(cfg, aged_pe);
    let decode_ns = replay_decode(cfg, aged_pe, &raw_errors);
    rows.push(LayerRow {
        layer: "ecc.encode",
        count: c.programs,
        ns_per_op: encode_ns,
    });
    rows.push(LayerRow {
        layer: "ecc.decode",
        count: c.host_read_pages,
        ns_per_op: decode_ns,
    });
    if let Some(f) = &ftl {
        rows.push(LayerRow {
            layer: "ftl.write",
            count: c.host_write_pages,
            ns_per_op: f.ns_per_write,
        });
        rows.push(LayerRow {
            layer: "ftl.lookup",
            count: c.host_read_pages,
            ns_per_op: f.ns_per_lookup,
        });
    }

    let scale = (calib_before * calibrator.measure()).sqrt() / CALIB_REF_MOPS;
    for r in &mut rows {
        r.ns_per_op *= scale;
    }
    let ftl = ftl.map(|f| FtlReplay {
        ns_per_write: f.ns_per_write * scale,
        ns_per_lookup: f.ns_per_lookup * scale,
        ..f
    });
    LayerTable {
        label: label.to_string(),
        rows,
        step_s,
        commands: c.commands,
        counts: c,
        encode_ns: encode_ns * scale,
        decode_ns: decode_ns * scale,
        nand_ns: nand_ns * scale,
        ftl,
    }
}

/// Checks that the FTL replay reproduces the report's NAND counts; `None`
/// when the run is not page-mapped.
pub fn ftl_matches_report(
    table: &LayerTable,
    commands: &[HostCommand],
    cfg: &SsdConfig,
    report: &PerfReport,
) -> Option<bool> {
    let f = table.ftl.as_ref()?;
    let page_bytes = cfg.nand.geometry.page_size_bytes;
    let read_pages: u64 = commands
        .iter()
        .filter(|c| c.op == HostOp::Read)
        .map(|c| u64::from(c.bytes.div_ceil(page_bytes).max(1)))
        .sum();
    let write_pages: u64 = commands
        .iter()
        .filter(|c| c.op == HostOp::Write)
        .map(|c| u64::from(c.bytes.div_ceil(page_bytes).max(1)))
        .sum();
    Some(
        report.nand_page_programs == write_pages + f.total.gc_relocations
            && report.nand_page_reads == read_pages + f.total.gc_relocations,
    )
}

/// The simulated time between consecutive ops of one instance when `ops`
/// ops spread over `elapsed` across `instances` identical instances.
fn spacing(elapsed: SimTime, ops: u64, instances: u64) -> SimTime {
    let per_instance = (ops / instances.max(1)).max(1);
    SimTime::from_ps(elapsed.as_ps() / per_instance)
}

/// Median ns/op of `REPLAY_TRIALS` trials of `REPLAY_OPS` calls of `op`
/// on a state fresh from `setup`.
fn time_ops<S>(setup: impl Fn() -> S, mut op: impl FnMut(&mut S, usize) -> u64) -> f64 {
    let mut trials = Vec::with_capacity(REPLAY_TRIALS);
    for _ in 0..REPLAY_TRIALS {
        let mut state = setup();
        let mut sink = 0u64;
        let start = Instant::now();
        for i in 0..REPLAY_OPS {
            sink = sink.wrapping_add(op(&mut state, black_box(i)));
        }
        let ns = start.elapsed().as_nanos() as f64;
        black_box(sink);
        trials.push(ns / REPLAY_OPS as f64);
    }
    crate::stats::median(&trials)
}

/// A deterministic interleaving of op kinds in proportion to `weights`.
fn mix_sequence<T: Copy>(weights: &[(u64, T)], len: usize) -> Vec<T> {
    let total: u64 = weights.iter().map(|w| w.0).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut credit = vec![0.0f64; weights.len()];
    (0..len)
        .map(|_| {
            for (c, w) in credit.iter_mut().zip(weights) {
                *c += w.0 as f64 / total as f64;
            }
            let (best, _) = credit
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("weights are non-empty");
            credit[best] -= 1.0;
            weights[best].1
        })
        .collect()
}

fn replay_link(cfg: &SsdConfig, dt: SimTime) -> f64 {
    let iface = cfg.host_interface.build();
    time_ops(
        || Resource::new("host-link"),
        |link, i| {
            let t = iface.transfer_time(4096);
            link.reserve(dt * i as u64, t).end.as_ps()
        },
    )
}

fn replay_dram(
    cfg: &SsdConfig,
    ops: &[(u64, AccessKind, u32)],
    offsets: &[u64],
    dt: SimTime,
) -> f64 {
    let kinds: Vec<(AccessKind, u32)> = mix_sequence(
        &ops.iter().map(|o| (o.0, (o.1, o.2))).collect::<Vec<_>>(),
        4096,
    );
    if kinds.is_empty() || offsets.is_empty() {
        return 0.0;
    }
    time_ops(
        || DramBuffer::new(0, cfg.dram_timings),
        |buf, i| {
            let (kind, bytes) = kinds[i % kinds.len()];
            buf.access(dt * i as u64, offsets[i % offsets.len()], bytes, kind)
                .end
                .as_ps()
        },
    )
}

fn replay_cpu(cfg: &SsdConfig, dt: SimTime) -> f64 {
    time_ops(
        || CpuModel::new(cfg.firmware),
        |cpu, i| cpu.execute_command_overhead(dt * i as u64).end.as_ps(),
    )
}

fn replay_ahb(cfg: &SsdConfig, dt: SimTime) -> f64 {
    let cores = cfg.cpu_cores.max(1);
    let desc_bytes = 4 * CpuModel::new(cfg.firmware).bus_accesses_per_task() * 4;
    time_ops(
        || AhbBus::new(AhbConfig::paper_default()),
        |bus, i| {
            bus.transfer(dt * i as u64, i as u32 % cores, 0, desc_bytes)
                .end
                .as_ps()
        },
    )
}

/// The `i`-th replayed NAND op on a target with `ways` × `dies` dies:
/// programs fill pages in order, reads and erases land on
/// pseudo-random blocks.
fn nand_target(
    cfg: &SsdConfig,
    op: NandOp,
    i: usize,
    rng: &mut SimRng,
    dies: usize,
) -> (usize, PageAddr) {
    let geo = &cfg.nand.geometry;
    let die = i % dies;
    let n = (i / dies) as u64;
    let addr = match op {
        NandOp::Program => PageAddr {
            plane: ((n / u64::from(geo.pages_per_block)) % u64::from(geo.planes_per_die)) as u32,
            block: ((n / u64::from(geo.pages_per_block * geo.planes_per_die))
                % u64::from(geo.blocks_per_plane)) as u32,
            page: (n % u64::from(geo.pages_per_block)) as u32,
        },
        NandOp::Read | NandOp::Erase => PageAddr {
            plane: rng.uniform_u64(0, u64::from(geo.planes_per_die) - 1) as u32,
            block: rng.uniform_u64(0, u64::from(geo.blocks_per_plane) - 1) as u32,
            page: if op == NandOp::Erase {
                0
            } else {
                rng.uniform_u64(0, u64::from(geo.pages_per_block) - 1) as u32
            },
        },
    };
    (die, addr)
}

/// Pre-drawn op/target sequence shared by the channel and die replays.
fn nand_sequence(
    cfg: &SsdConfig,
    mix: &[(u64, NandOp)],
    dies: usize,
) -> Vec<(NandOp, usize, PageAddr)> {
    let ops = mix_sequence(mix, 4096);
    let mut rng = SimRng::new(cfg.seed ^ 0x5EED);
    (0..REPLAY_OPS)
        .filter_map(|i| {
            let op = *ops.get(i % ops.len().max(1))?;
            let (die, addr) = nand_target(cfg, op, i, &mut rng, dies);
            Some((op, die, addr))
        })
        .collect()
}

fn replay_channel(cfg: &SsdConfig, mix: &[(u64, NandOp)], aged_pe: u64, dt: SimTime) -> f64 {
    let ways = cfg.ways.max(1);
    let per_way = cfg.dies_per_way.max(1);
    let seq = nand_sequence(cfg, mix, (ways * per_way) as usize);
    if seq.is_empty() {
        return 0.0;
    }
    let raw_page = cfg.nand.geometry.raw_page_bytes();
    time_ops(
        || {
            let ch_cfg = ChannelConfig::new(cfg.ways, cfg.dies_per_way)
                .with_gang(cfg.gang)
                .with_onfi(OnfiBus::new(cfg.onfi_speed));
            let mut ch = ChannelController::new(0, ch_cfg, cfg.nand, cfg.seed);
            if !cfg.faults.is_healthy() {
                ch.set_fault_profile(cfg.faults.read_disturb_per_read, cfg.faults.retention_scale);
            }
            if aged_pe > 0 {
                ch.age_all(aged_pe);
            }
            ch
        },
        |ch, i| {
            let (op, die, addr) = seq[i % seq.len()];
            let bytes = if op == NandOp::Erase { 0 } else { raw_page };
            ch.execute(
                dt * i as u64,
                die as u32 % ways,
                die as u32 / ways,
                op,
                addr,
                bytes,
            )
            .complete_at
            .as_ps()
        },
    )
}

/// Replays the op mix on one die; returns ns/op and the expected raw
/// error counts its reads produced (the input the decode replay needs).
fn replay_die(
    cfg: &SsdConfig,
    mix: &[(u64, NandOp)],
    aged_pe: u64,
    dt: SimTime,
) -> (f64, Vec<f64>) {
    let seq = nand_sequence(cfg, mix, 1);
    if seq.is_empty() {
        return (0.0, Vec::new());
    }
    let setup = || {
        let mut die = NandDie::new(0, cfg.nand, cfg.seed);
        if !cfg.faults.is_healthy() {
            die.set_fault_profile(cfg.faults.read_disturb_per_read, cfg.faults.retention_scale);
        }
        if aged_pe > 0 {
            die.age_all_blocks(aged_pe);
        }
        die
    };
    let mut die = setup();
    let raw: Vec<f64> = seq
        .iter()
        .enumerate()
        .filter_map(|(i, (op, _, addr))| {
            let out = die.execute(dt * i as u64, *op, *addr);
            (*op == NandOp::Read).then_some(out.expected_raw_errors)
        })
        .collect();
    let ns = time_ops(setup, |die, i| {
        let (op, _, addr) = seq[i % seq.len()];
        die.execute(dt * i as u64, op, addr).end.as_ps()
    });
    (ns, raw)
}

fn replay_encode(cfg: &SsdConfig, aged_pe: u64) -> f64 {
    let page = cfg.nand.geometry.page_size_bytes;
    time_ops(
        || (),
        |_, _| cfg.ecc.encode_latency_for(page, aged_pe).as_ps(),
    )
}

fn replay_decode(cfg: &SsdConfig, aged_pe: u64, raw_errors: &[f64]) -> f64 {
    let page = cfg.nand.geometry.page_size_bytes;
    let raw = if raw_errors.is_empty() {
        &[0.0][..]
    } else {
        raw_errors
    };
    time_ops(
        || (),
        |_, i| {
            cfg.ecc
                .decode_latency_for(page, aged_pe, raw[i % raw.len()])
                .as_ps()
        },
    )
}

/// Replays the LPN stream through a `PageMappedFtl` sized as `SimSession`
/// sizes it; `commands[timed..]` is the timed part.
pub fn ftl_replay(cfg: &SsdConfig, commands: &[HostCommand], timed: usize) -> FtlReplay {
    let page_bytes = u64::from(cfg.nand.geometry.page_size_bytes);
    let ppb = cfg.nand.geometry.pages_per_block;
    let max_end = commands
        .iter()
        .map(|c| c.offset + u64::from(c.bytes))
        .max()
        .unwrap_or(page_bytes);
    let logical_pages = max_end.div_ceil(page_bytes).max(1);
    let blocks = ((logical_pages as f64 * (1.0 + cfg.waf.over_provisioning) / f64::from(ppb)).ceil()
        as u32)
        .max(8) + 8;
    let mut ftl = PageMappedFtl::new(blocks, ppb, cfg.waf.over_provisioning)
        .with_retire_limit(cfg.faults.retire_pe_limit);
    let drive = |ftl: &mut PageMappedFtl, part: &[HostCommand]| -> u64 {
        let mut writes = 0;
        for c in part {
            let first = c.offset / page_bytes;
            let pages = u64::from(c.bytes.div_ceil(page_bytes as u32).max(1));
            match c.op {
                HostOp::Write => {
                    for p in 0..pages {
                        let _ = black_box(ftl.write(first + p));
                        writes += 1;
                    }
                }
                HostOp::Trim => {
                    let _ = ftl.trim(first);
                }
                HostOp::Read => {}
            }
        }
        writes
    };
    drive(&mut ftl, &commands[..timed]);
    let before = ftl.stats();
    let start = Instant::now();
    let writes = drive(&mut ftl, &commands[timed..]);
    let write_ns = start.elapsed().as_nanos() as f64;
    let total = ftl.stats();
    let lookups: Vec<u64> = commands[timed..]
        .iter()
        .filter(|c| c.op == HostOp::Read)
        .map(|c| c.offset / page_bytes)
        .collect();
    let ns_per_lookup = if lookups.is_empty() {
        0.0
    } else {
        time_ops(
            || (),
            |_, i| {
                ftl.lookup(lookups[i % lookups.len()])
                    .map_or(0, |(b, p)| u64::from(b) + u64::from(p))
            },
        )
    };
    FtlReplay {
        total,
        timed: FtlStats {
            host_writes: total.host_writes - before.host_writes,
            nand_writes: total.nand_writes - before.nand_writes,
            gc_relocations: total.gc_relocations - before.gc_relocations,
            erases: total.erases - before.erases,
            trims: total.trims - before.trims,
            wear_level_moves: total.wear_level_moves - before.wear_level_moves,
        },
        ns_per_write: if writes > 0 {
            write_ns / writes as f64
        } else {
            0.0
        },
        ns_per_lookup,
    }
}
