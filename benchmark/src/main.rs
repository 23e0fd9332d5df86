//! Command line of the benchmark.
//!
//! ```text
//! scdn-benchmark --workload W --seed N --seconds S --trace 0|1   # the driver's call
//! scdn-benchmark --seed N [--workload W] [--traced]              # all workloads by default
//! scdn-benchmark --smoke                                         # tiny sizes, both kinds of run
//! scdn-benchmark --repeat N [--workload W]                       # N in-process runs, repeatability verdict
//! ```

use std::process::ExitCode;

use scdn_benchmark::alloc_count::CountingAlloc;
use scdn_benchmark::bench::{reset_peak_rss, run_end_to_end, run_traced, Options, Report};
use scdn_benchmark::metrics::{END_TO_END, PER_LAYER};
use scdn_benchmark::report::{print, print_repeat, run_seconds};
use scdn_benchmark::workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    workloads: Vec<Workload>,
    opts: Options,
    traced: bool,
    repeat: usize,
}

fn usage(problem: &str) -> String {
    format!(
        "{problem}\nusage: scdn-benchmark [--workload serve_hot|resolve_cold|churn_maintain|coded_repair] \
         [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--repeat N]"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        opts: Options {
            seed: 1,
            seconds: run_seconds(),
            smoke: false,
            alloc_totals: || ALLOC.totals(),
        },
        traced: false,
        repeat: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name)
                    .ok_or_else(|| usage(&format!("unknown workload {name}")))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                args.opts.seed = value("an integer")?
                    .parse()
                    .map_err(|e| usage(&format!("--seed: {e}")))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| usage(&format!("--seconds: {e}")))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(usage("--seconds must be within 0..=600"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(usage(&format!("--trace takes 0 or 1, not {other}"))),
                };
            }
            "--traced" => args.traced = true,
            "--smoke" => {
                args.opts.smoke = true;
                args.opts.seconds = 0.0;
            }
            "--repeat" => {
                args.repeat = value("a run count")?
                    .parse()
                    .map_err(|e| usage(&format!("--repeat: {e}")))?;
                if args.repeat < 4 {
                    return Err(usage("--repeat needs at least 4 runs to compare halves"));
                }
            }
            other => return Err(usage(&format!("unknown argument {other}"))),
        }
    }
    Ok(args)
}

/// Where the span file goes: `out/` beside the package's manifest.
fn out_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            if std::path::Path::new("benchmark/Cargo.toml").exists() {
                "benchmark".into()
            } else {
                ".".into()
            }
        });
    base.join("out")
}

fn write_spans(report: &Report) {
    let Some(spans) = &report.spans_json else {
        return;
    };
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", report.workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let mut last_json = String::new();
    for &workload in &args.workloads {
        if args.repeat > 0 {
            let reports: Vec<Report> = (0..args.repeat)
                .map(|_| {
                    reset_peak_rss();
                    run_end_to_end(workload, &args.opts)
                })
                .collect();
            if let Some(bad) = reports.iter().find(|r| !r.correct()) {
                print(bad, END_TO_END);
                all_correct = false;
            } else {
                all_correct &= print_repeat(&reports, END_TO_END);
            }
            continue;
        }
        // `--smoke` exercises both kinds of run; otherwise one.
        let kinds: &[bool] = match (args.opts.smoke, args.traced) {
            (true, _) => &[false, true],
            (false, traced) => {
                if traced {
                    &[true]
                } else {
                    &[false]
                }
            }
        };
        for &traced in kinds {
            let report = if traced {
                run_traced(workload, &args.opts)
            } else {
                run_end_to_end(workload, &args.opts)
            };
            write_spans(&report);
            all_correct &= report.correct();
            last_json = print(&report, if traced { PER_LAYER } else { END_TO_END });
        }
    }
    // The driver reads the last line of standard output.
    if !last_json.is_empty() {
        println!("{last_json}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
