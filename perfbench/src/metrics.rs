//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror the `end_to_end` and `per_layer`
//! lists of `BENCHMARK.json`: an untraced run prints every end-to-end
//! metric, a traced run every per-layer one.

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_cmds_per_s", "cmds/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_mbps", "MB/s"),
    ("sim_p99_us", "us"),
    ("waf", "ratio"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
];

/// Per-layer metrics: name and unit. A metric that does not apply to a
/// workload reads 0 and is marked `n/a` in the text table.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hostif.gen_s", "s"),
    ("hostif.commands", "count"),
    ("hostif.link_util", "frac"),
    ("hostif.link_ns_per_op", "ns"),
    ("session.step_s", "s"),
    ("session.ns_per_cmd", "ns"),
    ("session.self_ns_per_cmd", "ns"),
    ("session.finish_s", "s"),
    ("dram.accesses", "count"),
    ("dram.ns_per_op", "ns"),
    ("dram.util", "frac"),
    ("cpu.tasks", "count"),
    ("cpu.ns_per_op", "ns"),
    ("cpu.util", "frac"),
    ("ahb.transfers", "count"),
    ("ahb.ns_per_op", "ns"),
    ("ahb.util", "frac"),
    ("channel.ops", "count"),
    ("channel.ns_per_op", "ns"),
    ("channel.bus_util", "frac"),
    ("nand.programs", "count"),
    ("nand.reads", "count"),
    ("nand.erases", "count"),
    ("nand.ns_per_op", "ns"),
    ("nand.die_util", "frac"),
    ("ecc.encodes", "count"),
    ("ecc.decodes", "count"),
    ("ecc.encode_ns", "ns"),
    ("ecc.decode_ns", "ns"),
    ("ftl.host_writes", "count"),
    ("ftl.gc_relocations", "count"),
    ("ftl.erases", "count"),
    ("ftl.ns_per_write", "ns"),
    ("ftl.useful_frac", "frac"),
    ("parallel.speedup", "x"),
    ("parallel.identical", "bool"),
    ("snapshot.image_bytes", "bytes"),
    ("snapshot.capture_us", "us"),
    ("snapshot.fork_us", "us"),
    ("frame.ns_per_frame", "ns"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("svc.create_p50_ms", "ms"),
    ("svc.step_p50_ms", "ms"),
    ("svc.fetch_p50_ms", "ms"),
    ("svc.close_p50_ms", "ms"),
    ("svc.requests", "count"),
    ("svc.replies", "count"),
    ("svc.errors", "count"),
    ("svc.residual_ms", "ms"),
    ("layers.coverage", "frac"),
    ("layers.coverage_min", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("self.bench_s", "s"),
    ("self.hostif_s", "s"),
    ("self.core.ssd_s", "s"),
    ("self.core.session_s", "s"),
    ("self.core.snapshot_s", "s"),
    ("self.core.explorer_s", "s"),
    ("self.core.parallel_s", "s"),
    ("self.server_s", "s"),
    ("self.server.client_s", "s"),
];

/// Named values collected by a workload run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Sets (or replaces) `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Prints `catalogue` as an aligned `name value unit` table; metrics the
/// run did not set print as `n/a`.
pub fn print_table(title: &str, catalogue: &[(&str, &str)], metrics: &Metrics) {
    println!("{title}");
    for (name, unit) in catalogue {
        match metrics.get(name) {
            Some(v) => println!("  {name:<26} {:>18} {unit}", format_value(v)),
            None => println!("  {name:<26} {:>18} {unit}", "n/a"),
        }
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `catalogue` (unset metrics read 0).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
