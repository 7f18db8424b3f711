//! The repository benchmark: three seeded workloads that load the layers of
//! the subsequence-retrieval stack differently, measured from outside the
//! program through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-proteins --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics (spans around each public call, written to
//! `.perfbench/spans-<workload>.jsonl`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for why each workload exists.

mod cold;
mod data;
mod hot;
mod ingest;
mod layers;
mod load;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["cold-proteins", "hot-cluster", "ingest-songs"];

const USAGE: &str = "usage: ssr-perfbench --workload cold-proteins|hot-cluster|ingest-songs \
                     --seed N --seconds N --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        run: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch directory for snapshots and WALs, under the working directory.
/// Removed when the run ends.
fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("work-{workload}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let tracer = trace::Tracer::new(args.trace);
    let outcome: Outcome = match args.workload.as_str() {
        "cold-proteins" => cold::run(&args, &dir, &tracer),
        "hot-cluster" => hot::run(&args, &dir, &tracer),
        "ingest-songs" => ingest::run(&args, &dir, &tracer),
        other => unreachable!("parse_args accepts no workload {other}"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if args.trace {
        let path = PathBuf::from(".perfbench").join(format!("spans-{}.jsonl", args.workload));
        match tracer.write_jsonl(&path) {
            Ok(n) => println!("# wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    outcome.print(&args)
}
