//! Command-line entry of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary (every metric with its unit, the
//! output digest, `failed_frac`) and, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. The untraced run starts a fresh process of
//! this program per pass (`--one-pass`) and waits for it. A traced run
//! writes its spans to `traces/<workload>-seed<n>.json` in this
//! package's directory.

use perfbench::{run_pass, run_traced, run_untraced, Config, PassSample, Report, Sizes, Workload};
use std::process::{Command, ExitCode, Stdio};

/// Internal flag: run one untraced pass and print its sample.
const ONE_PASS: &str = "--one-pass";

struct Cli {
    cfg: Config,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            flag => return Err(format!("unknown flag {flag:?}")),
        }
        i += 2;
    }
    Ok(Cli {
        cfg: Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            sizes: Sizes::benchmark(),
            workers: 0,
        },
        trace: trace.unwrap_or(false),
    })
}

/// Runs one pass in a fresh process of this program and reads its
/// sample back.
fn spawn_pass(args: &[String]) -> Result<PassSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .arg(ONE_PASS)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a pass process: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass process failed: {}", out.status));
    }
    PassSample::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Formats a metric value as JSON with every digit Rust keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn print_report(cfg: &Config, trace: bool, r: &Report) {
    println!(
        "workload={} seed={} trace={} passes={} traced_passes={} ops_per_pass={} \
         output_digest={:#018x}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(trace),
        r.pass_walls.len(),
        r.traced_passes,
        r.ops_per_pass,
        r.output_digest
    );
    let walls: Vec<String> = r.pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  untraced pass walls (s): {}", walls.join(" "));
    for x in r.metrics.iter().chain(&r.extras) {
        println!("  {:<32} {:>20} {}", x.name, num(x.value), x.unit);
    }
    for f in &r.failures {
        eprintln!("FAILED {f}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    let correct = r.failed == 0 && r.metrics.iter().all(|x| x.value.is_finite());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let one_pass = args.iter().any(|a| a == ONE_PASS);
    args.retain(|a| a != ONE_PASS);
    let Cli { cfg, trace } = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if one_pass {
        return match run_pass(&cfg) {
            Ok(sample) => {
                print!("{}", sample.to_text());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = if trace {
        let report = run_traced(&cfg);
        if let Some(doc) = &report.trace_json {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
            let path = dir.join(format!("{}-seed{}.json", cfg.workload.name(), cfg.seed));
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc)) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("spans written to {}", path.display());
        }
        report
    } else {
        run_untraced(&cfg, &mut || spawn_pass(&args))
    };
    print_report(&cfg, trace, &report);
    ExitCode::SUCCESS
}
