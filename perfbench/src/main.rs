//! The repository benchmark: one workload per run, end-to-end metrics
//! with tracing off (`--trace 0`) or per-layer metrics from a traced
//! pass (`--trace 1`), and every output checked.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cage-static --seed 42 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! give the provenance (host, calibration, seed, input sizes) and, in
//! the traced pass, the spans that hold the most self time.

mod heap;
mod layers;
mod metrics;
mod source;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::{RunSpec, Sizes, HOT_SHARE, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

struct Args {
    workload: String,
    spec: RunSpec,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        spec: RunSpec {
            seed: number("--seed")?,
            seconds: seconds as f64,
            trace,
        },
    })
}

/// Wall time of a fixed scalar loop (an xorshift stream), in ms: a
/// measure of this host's single-core speed to read the timings against.
fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The process's resident-set high-water mark (`VmHWM`), in MB, if the
/// platform reports it.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let calibration = calibration_ms();
    let spec = &args.spec;
    let out =
        workloads::run(&args.workload, spec, &Sizes::standard()).expect("workload name validated");

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"calibration_ms\": {calibration:.3}",
        args.workload, spec.seed, spec.seconds, spec.trace as u8
    );
    for (k, v) in &out.provenance {
        provenance.push_str(&format!(", \"{k}\": {v}"));
    }
    let quartiles = stats::quartiles(&out.samples)
        .map_or("null".to_string(), |(q1, q3)| format!("[{q1:.6}, {q3:.6}]"));
    provenance.push_str(&format!(
        ", \"timed_ops\": {}, \"op_median_s\": {:.6}, \"op_quartiles_s\": {quartiles}",
        out.samples.len(),
        stats::median(&out.samples)
    ));
    if let Some(mb) = vm_hwm_mb() {
        provenance.push_str(&format!(", \"vm_hwm_mb\": {mb:.1}"));
    }
    provenance.push('}');
    println!("provenance {provenance}");
    if spec.trace {
        for (name, share) in &out.hot_spans {
            println!(
                "hot-span {name}: self time {:.1}% of traced wall (threshold {:.0}%)",
                share * 100.0,
                HOT_SHARE * 100.0
            );
        }
    }
    let catalog = metrics::catalog(spec.trace);
    for m in catalog {
        eprintln!(
            "{:<36} {:>16.6} {}",
            m.name,
            out.values.get(m.name).unwrap_or(f64::NAN),
            m.unit
        );
    }
    println!(
        "{}",
        metrics::result_line(catalog, &out.values, out.attempted, out.failed)
    );
    ExitCode::SUCCESS
}
