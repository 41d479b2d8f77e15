//! End-to-end benchmark of the indexed cache.
//!
//! ```text
//! perfbench --workload <lookup|join|analytic|ingest> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! One workload per process, one closed-loop client, the whole process
//! pinned to one CPU. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The lines before it, each starting with `#`, record the
//! host, geometry, inputs and operation counts. See README.md.

mod answer;
mod gen;
mod host;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Config, Report};
use std::process::ExitCode;
use workload::Kind;

fn usage() -> String {
    "usage: perfbench --workload <lookup|join|analytic|ingest> --seed <n> --seconds <s> \
     --trace <0|1>\n       perfbench --smoke"
        .to_string()
}

enum Command {
    Run(Config),
    Smoke,
    /// One set-up of a run, in its own process (`--setup-only <workload>
    /// <seed> <smoke 0|1>`): how a run times its set-ups after the first.
    SetUpOnly(Config),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    match args {
        [smoke] if smoke == "--smoke" => return Ok(Command::Smoke),
        [flag, workload, seed, smoke] if flag == "--setup-only" => {
            return Ok(Command::SetUpOnly(Config {
                kind: Kind::parse(workload).ok_or(usage())?,
                seed: seed.parse().map_err(|_| usage())?,
                seconds: 0,
                traced: false,
                smoke: smoke == "1",
            }))
        }
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(usage());
        };
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => traced = Some(num()? != 0),
            _ => return Err(usage()),
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(kind), Some(seed), Some(seconds), Some(traced)) => Ok(Command::Run(Config {
            kind,
            seed,
            seconds,
            traced,
            smoke: false,
        })),
        _ => Err(usage()),
    }
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn print_notes(report: &Report) {
    for n in &report.notes {
        println!("# {n}");
    }
    for m in &report.metrics {
        println!("# {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

/// Every workload at tiny size, untraced and traced: every check, no
/// timing claims. Fails on any wrong result.
fn smoke() -> ExitCode {
    let mut ok = true;
    for kind in Kind::ALL {
        for traced in [false, true] {
            let cfg = Config {
                kind,
                seed: 1,
                seconds: 0,
                traced,
                smoke: true,
            };
            match run::run(&cfg) {
                Ok(r) => {
                    println!(
                        "# smoke {} trace={} correct={} attempted={} failed={}",
                        kind.name(),
                        traced as u8,
                        r.correct,
                        r.attempted,
                        r.failed
                    );
                    ok &= r.correct;
                }
                Err(e) => {
                    eprintln!("smoke {} trace={}: {e}", kind.name(), traced as u8);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Before any other thread exists, so every thread inherits the mask.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match cmd {
        Command::Run(cfg) => cfg,
        Command::Smoke => {
            println!("# host nproc={nproc} pinned_cpu={cpu}");
            return smoke();
        }
        Command::SetUpOnly(cfg) => {
            return match run::set_up_only(&cfg) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("set-up failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    };
    println!("# host nproc={nproc} pinned_cpu={cpu}");
    println!(
        "# run workload={} seed={} seconds={} trace={}",
        cfg.kind.name(),
        cfg.seed,
        cfg.seconds,
        cfg.traced as u8
    );
    match run::run(&cfg) {
        Ok(report) => {
            print_notes(&report);
            println!("{}", json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let Ok(Command::Run(cfg)) =
            parse_args(&args("--workload join --seed 7 --seconds 10 --trace 1"))
        else {
            panic!("a run command line")
        };
        assert_eq!(
            (cfg.kind, cfg.seed, cfg.seconds, cfg.traced),
            (Kind::Join, 7, 10, true)
        );
        assert!(matches!(parse_args(&args("--smoke")), Ok(Command::Smoke)));
        let Ok(Command::SetUpOnly(cfg)) = parse_args(&args("--setup-only ingest 3 1")) else {
            panic!("a set-up command line")
        };
        assert_eq!((cfg.kind, cfg.seed, cfg.smoke), (Kind::Ingest, 3, true));
        assert!(parse_args(&args("--setup-only ingest x 0")).is_err());
        assert!(parse_args(&args("--workload scan --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload join --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload join --seed x --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![run::Metric {
                name: "p50_us".into(),
                value: 12.5,
                unit: "us",
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            json(&r),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"p50_us\":{\"value\":12.5,\"unit\":\"us\"}}}"
        );
    }
}
