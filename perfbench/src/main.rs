//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload for `--seconds` seconds, checks its outputs,
//! and prints its metrics by name with their units. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — every end-to-end metric of `BENCHMARK.json` for
//! `--trace 0`, every per-layer metric for `--trace 1`. The traced run
//! also writes its spans to `.bench_build/perfbench/`. The process exits
//! 1 when any output is wrong and 2 on bad arguments. `perfbench/README.md`
//! explains the workloads and metrics.

mod host;
mod inproc;
mod layers;
mod metrics;
mod service;
mod stats;
mod trace;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <fig6-seqwrite|gc-randwrite|zipf-read-aged|service-8x4x2> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where the traced run writes its spans, relative to the checkout.
const TRACE_DIR: &str = ".bench_build/perfbench";

/// The workloads, by their command-line names.
const WORKLOADS: [&str; 4] = [
    "fig6-seqwrite",
    "gc-randwrite",
    "zipf-read-aged",
    "service-8x4x2",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of `WORKLOADS`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Checked operations (timed repeats, service requests, fetched
    /// reports).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Layer tables to print (traced run only).
    pub tables: Vec<layers::LayerTable>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calibrator = host::Calibrator;
    let fingerprint = host::Fingerprint::measure(&calibrator);
    println!("host: {fingerprint}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "fig6-seqwrite" => inproc::fig6(&args, &calibrator, &mut tracer),
        "gc-randwrite" => inproc::gc_randwrite(&args, &calibrator, &mut tracer),
        "zipf-read-aged" => inproc::zipf_read_aged(&args, &calibrator, &mut tracer),
        _ => service::service(&args, &calibrator, &mut tracer),
    };
    if outcome.e2e.get("peak_rss_mib").is_none() {
        outcome.e2e.set("peak_rss_mib", host::peak_rss_mib());
    }
    let correct = outcome.failed == 0;
    println!(
        "checks: {} attempted, {} failed, ops_failed_frac {} (fraction)",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    metrics::print_table("end-to-end metrics:", END_TO_END, &outcome.e2e);

    let json = if args.trace {
        for t in &outcome.tables {
            t.print();
        }
        for (layer, secs) in tracer.self_times() {
            outcome.layers.set(format!("self.{layer}_s"), secs);
        }
        outcome
            .layers
            .set("trace.spans", tracer.spans().len() as f64);
        metrics::print_table("per-layer metrics:", PER_LAYER, &outcome.layers);
        if let Err(e) = write_trace(&args, &fingerprint, &tracer) {
            eprintln!("perfbench: cannot write the trace: {e}");
        }
        metrics::result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            PER_LAYER,
            &outcome.layers,
        )
    } else {
        metrics::result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            END_TO_END,
            &outcome.e2e,
        )
    };
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(
    args: &Args,
    fingerprint: &host::Fingerprint,
    tracer: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"host\": {},\n\"spans\": {}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        fingerprint.to_json(),
        tracer.spans_json()
    );
    std::fs::write(&path, body)?;
    println!("trace: {} spans written to {path}", tracer.spans().len());
    Ok(())
}
