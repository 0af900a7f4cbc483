//! The repository benchmark: three base-station workloads served by the
//! real TCP proxy over a gateway with an edge cache.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-clean --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up, then
//! alternating closed-loop capacity slices and open-loop latency slices.
//! `--trace 1` measures the per-layer metrics instead (see `trace`). Every metric is printed
//! by name with its unit; the last line is one JSON object. The command
//! exits nonzero if any fetch is rejected, fails, or returns a payload
//! that fails the output check.

mod cell;
mod drive;
mod procfs;
mod report;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match report::Args::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hot-clean|churn-mixed|lossy-retx> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Read the host's TIME-WAIT load before leaving it behind.
    let host_time_wait = procfs::time_wait(std::net::Ipv4Addr::LOCALHOST).0;
    let private_net = match sys::isolate() {
        Ok(private) => private,
        Err(e) => {
            eprintln!("perfbench: network namespace: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The edge cache's blobs go to a memory-backed directory of this
    // run's own inside the checkout.
    let work = cell::work_dir(opts.workload);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let tmpfs = sys::memory_backed(&work);
    let outcome = report::run(&opts, host_time_wait, private_net);
    if tmpfs {
        sys::unmount(&work);
    }
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(result) => {
            for line in result.lines() {
                println!("{line}");
            }
            println!("{}", result.json());
            let t = &result.tally;
            if t.errors() > 0 {
                eprintln!(
                    "perfbench: {} fetch(es) failed: {} rejected, {} failed, {} failed the output check",
                    t.errors(),
                    t.rejected,
                    t.failed,
                    t.mismatched
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
