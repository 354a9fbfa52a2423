//! `fluidbench`: one end-to-end + per-layer benchmark across the kernel,
//! serving, cluster and Master/Worker tiers. See `benchmark/README.md`.
//!
//! ```text
//! fluidbench --workload NAME --seed N --seconds S --trace 0|1   one workload; last stdout line is the result
//! fluidbench [--seed N] [--seconds S] [--trace] [--out FILE]    every workload, each in its own child process
//! fluidbench compare A.json B.json                             verdict per (metric, workload) pair
//! ```

#![deny(unsafe_code)]

mod bench;
mod compare;
mod json;
mod ladder;
mod load;
mod metrics;
mod stats;
mod sut;
mod sys;
mod trace;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: sys::CountingAllocator = sys::CountingAllocator;

/// `run_seconds` of `BENCHMARK.json`: what the suite measures for when no
/// `--seconds` is given.
const DEFAULT_SECONDS: f64 = 15.0;

/// Invalid run or bad usage.
const EXIT_INVALID: u8 = 2;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a u64")?;
                cli.seed = v.parse().map_err(|_| format!("--seed {v}: not a u64"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0)
                    .ok_or_else(|| format!("--seconds {v}: not a number >= 1"))?;
            }
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            // `--trace 0|1` from the driver; bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Where run artefacts (trace files, suite results) go: inside the build
/// directory, which `.gitignore` already covers.
fn artefact_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("fluidbench")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host meta block every suite output carries. `nproc` is read before
/// pinning; every measurement runs on `pinned_cpu` alone (`null`: the
/// kernel refused, and the run was unpinned).
fn host_meta(seed: u64, nproc: usize, pinned_cpu: Option<usize>, kernel_threads: usize) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        ("simd", Json::Str(sut::simd_name())),
        ("kernel_threads", Json::Num(kernel_threads as f64)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// One workload in this process. Prints the detail line and then the
/// result line.
fn run_one(cli: &Cli, name: &str) -> Result<(), String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let outcome = bench::run(&bench::Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        trace_dir: artefact_dir(),
    })?;
    println!("detail {}", outcome.detail_json());
    println!("{}", outcome.result_line());
    Ok(())
}

/// Every workload, sequentially, each in a child process of its own so
/// that no workload inherits another's heap, threads or kernel-pool state.
fn run_suite(cli: &Cli, meta: Json) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!("host {meta}");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &workloads::WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let output = child
            .wait_with_output()
            .map_err(|e| format!("wait for {}: {e}", w.name))?;
        if !output.status.success() {
            return Err(format!("{} failed: {}", w.name, output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        let result = Json::parse(lines.next().unwrap_or_default())
            .map_err(|e| format!("{}: result line: {e}", w.name))?;
        let detail = lines
            .next()
            .and_then(|l| l.strip_prefix("detail "))
            .ok_or_else(|| format!("{}: no detail line", w.name))
            .and_then(Json::parse)?;
        let (slices, whole) = (detail.get("slices"), detail.get("whole"));

        let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(-1.0);
        let correct = result.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct && failed == 0.0;
        println!(
            "\n{} (correct: {correct}, attempted: {}, failed: {failed})\n  {}",
            w.name,
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            w.why,
        );
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let range = slices
                .and_then(|s| s.get(name))
                .and_then(Json::as_array)
                .filter(|s| s.len() > 1)
                .map(|s| {
                    let xs: Vec<f64> = s.iter().filter_map(Json::as_f64).collect();
                    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    format!(", {} blocks {lo:.4}..{hi:.4}", xs.len())
                })
                .unwrap_or_default();
            let aside = whole
                .and_then(|all| all.get(name))
                .and_then(Json::as_f64)
                .map(|all| format!("  (whole window {all:.4}{range})"))
                .unwrap_or_default();
            println!("  {name:<36} {value:>14.4} {unit}{aside}");
        }
        let Json::Obj(mut run) = result else {
            return Err(format!("{}: result line is not an object", w.name));
        };
        let Json::Obj(detail) = detail else {
            return Err(format!("{}: detail line is not an object", w.name));
        };
        run.extend(detail);
        runs.push((w.name, Json::Obj(run)));
    }

    let doc = Json::obj([
        ("host", meta),
        ("seconds", Json::Num(cli.seconds)),
        ("trace", Json::Bool(cli.trace)),
        ("workloads", Json::obj(runs)),
    ]);
    let kind = if cli.trace { "trace" } else { "results" };
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| artefact_dir().join(format!("{kind}-seed{}.json", cli.seed)));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nwritten to {}", out.display());
    if all_correct {
        Ok(())
    } else {
        Err("a workload had failed or incorrect replies".into())
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: fluidbench compare A.json B.json".into());
    };
    // The repository's bounds: from its root, or from where this was built.
    let bounds = if Path::new("BENCHMARK.json").exists() {
        PathBuf::from("BENCHMARK.json")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
    };
    let (regressed, unresolved) = compare::compare(
        &read_json(&bounds)?,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    Ok(regressed == 0 && unresolved == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]).map(|clean| {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        })
    } else {
        parse(&args).and_then(|cli| {
            let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
            // Before anything spawns a thread: children inherit the mask.
            let cpu = sys::pin_to_one_cpu();
            if cpu.is_none() {
                eprintln!("fluidbench: sched_setaffinity was refused; running unpinned");
            }
            let kernel_threads = sut::pin_kernel_pool();
            match &cli.workload {
                Some(name) => run_one(&cli, name),
                None => run_suite(&cli, host_meta(cli.seed, nproc, cpu, kernel_threads)),
            }
            .map(|()| ExitCode::SUCCESS)
        })
    };
    done.unwrap_or_else(|why| {
        eprintln!("fluidbench: {why}");
        ExitCode::from(EXIT_INVALID)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "pair_ha",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .expect("parse");
        assert_eq!(c.workload.as_deref(), Some("pair_ha"));
        assert_eq!((c.seed, c.seconds, c.trace), (u64::MAX, 15.0, false));
        assert!(cli(&["--trace", "1"]).expect("parse").trace);
        // Bare `--trace`, as typed by hand, also before another flag.
        let c = cli(&["--trace", "--seed", "3"]).expect("parse");
        assert!(c.trace && c.seed == 3 && c.workload.is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn default_seconds_is_benchmark_json_run_seconds() {
        let doc = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json");
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }
}
