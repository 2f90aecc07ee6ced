//! `perfbench` — host-throughput benchmark of the NeoMem simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig11_grid --seed 2024 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` runs the campaign
//! untraced and prints the end-to-end metrics; `--trace 1` runs the
//! per-layer replay and prints the per-layer metrics, writing its spans
//! under `.bench_build/perfbench/`. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod campaign;
mod cells;
mod replay;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use neomem_runner::Json;

use crate::cells::Workload;
use crate::stats::Metric;

/// The documented default seed: the figures' own seed, so `fig11_grid`
/// and `corpus_campaign` reproduce `neomem-bench fig11` / `registry`.
const DEFAULT_SEED: u64 = 2024;
/// Default measuring time per run.
const DEFAULT_SECONDS: u64 = 30;

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig11_grid|large_state|corpus_campaign> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([("value", Json::F64(m.value)), ("unit", Json::from(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted as u64)),
        ("failed", Json::U64(failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        trace::run(args.workload, args.seed, args.seconds, root)
    } else {
        campaign::run(args.workload, args.seed, args.seconds, root)
    };
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: metric {} is not finite ({})",
            bad.name, bad.value
        );
        return ExitCode::FAILURE;
    }
    for m in &result.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(result.attempted, result.failed, &result.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_with_documented_defaults() {
        let args = parse_args(&argv("--workload large_state")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::LargeState,
                seed: 2024,
                seconds: 30,
                trace: false
            }
        );
        let args = parse_args(&argv(
            "--workload fig11_grid --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Fig11Grid,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload fig11_grid --trace 2",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(4, 1, &[Metric::new("setup_s", 0.5, "s")]);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(4));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
