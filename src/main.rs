//! `scdn` — command-line interface to the Social CDN workspace.
//!
//! ```text
//! scdn generate [--seed N] [--out FILE]       write a synthetic corpus (SDBLP)
//! scdn stats    [--corpus FILE]               Table-I statistics of the trust graphs
//! scdn sweep    [--corpus FILE] [--runs N]    Fig. 3 hit-rate sweep as CSV
//! scdn simulate [--duty F] [--requests N]     run the full system, print metrics
//! scdn help                                   this message
//! ```
//!
//! With no `--corpus`, commands operate on the calibrated default synthetic
//! corpus. Argument parsing is deliberately dependency-free.

use std::process::ExitCode;

use scdn::alloc::placement::PlacementAlgorithm;
use scdn::core::casestudy::CaseStudy;
use scdn::core::scenario::{run as run_scenario, ScenarioConfig};
use scdn::core::system::AvailabilityConfig;
use scdn::social::author::AuthorId;
use scdn::social::dblp_format::{from_text, to_text};
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::trustgraph::build_paper_subgraphs;
use scdn::social::Corpus;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let result = match command {
        "generate" => cmd_generate(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `scdn help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("scdn — Social Content Delivery Network (SC 2012 reproduction)");
    println!();
    println!("USAGE:");
    println!("  scdn generate [--seed N] [--out FILE]     write a synthetic corpus");
    println!("  scdn stats    [--corpus FILE]             trust-graph statistics (Table I)");
    println!("  scdn sweep    [--corpus FILE] [--runs N]  hit-rate sweep as CSV (Fig. 3)");
    println!("  scdn simulate [--duty F] [--requests N]   end-to-end system metrics");
    println!("  scdn help                                 this message");
}

/// Fetch the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{flag} requires a value")),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value {v:?} for {flag}")),
    }
}

/// Load a corpus: from `--corpus FILE` or the calibrated default.
/// Returns the corpus and the case-study seed author.
fn load_corpus(args: &[String]) -> Result<(Corpus, AuthorId), String> {
    match flag_value(args, "--corpus")? {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let corpus = from_text(&text).map_err(|e| format!("parse {path}: {e}"))?;
            // Convention: the generator's seed author is id 0.
            Ok((corpus, AuthorId(0)))
        }
        None => {
            let g = generate(&CaseStudyParams::default());
            Ok((g.corpus, g.seed_author))
        }
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse_flag(args, "--seed", CaseStudyParams::default().rng_seed)?;
    let out: String = parse_flag(args, "--out", "corpus.sdblp".to_string())?;
    let mut params = CaseStudyParams::default();
    params.rng_seed = seed;
    let g = generate(&params);
    let text = to_text(&g.corpus);
    std::fs::write(&out, &text).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out}: {} authors, {} publications (seed author = {}, rng seed = {seed})",
        g.corpus.author_count(),
        g.corpus.publication_count(),
        g.seed_author
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (corpus, seed) = load_corpus(args)?;
    let subs = build_paper_subgraphs(&corpus, seed, 3, 2009..=2010)
        .ok_or("seed author absent from the training-year coauthorship graph")?;
    println!(
        "{:<30} {:>7} {:>13} {:>8}",
        "graph", "nodes", "publications", "edges"
    );
    for s in &subs {
        let st = s.stats();
        println!(
            "{:<30} {:>7} {:>13} {:>8}",
            s.filter.name(),
            st.nodes,
            st.publications,
            st.edges
        );
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let (corpus, seed) = load_corpus(args)?;
    let runs: usize = parse_flag(args, "--runs", 20)?;
    let cs = CaseStudy::paper_setup(&corpus, seed);
    let subs = cs
        .paper_subgraphs()
        .ok_or("seed author absent from the training-year coauthorship graph")?;
    println!("graph,algorithm,replicas,hit_rate_pct");
    let ks: Vec<usize> = (1..=10).collect();
    for s in &subs {
        for curve in cs.sweep(s, &PlacementAlgorithm::PAPER_SET, &ks, runs) {
            let name = curve.algorithm.name();
            for (k, rate) in ks.iter().zip(&curve.hit_rate_pct) {
                println!("{},{name},{k},{rate:.3}", s.filter.name());
            }
        }
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let duty: f64 = parse_flag(args, "--duty", 1.0)?;
    let requests: usize = parse_flag(args, "--requests", 1_000)?;
    if !(0.0..=1.0).contains(&duty) {
        return Err("--duty must be within [0, 1]".to_string());
    }
    let mut cfg = ScenarioConfig::default();
    cfg.requests = requests;
    cfg.scdn.availability = if duty >= 1.0 {
        AvailabilityConfig::AlwaysOn
    } else {
        AvailabilityConfig::Periodic {
            period_ms: 60_000,
            duty,
        }
    };
    let report = run_scenario(&cfg);
    let m = &report.scdn.cdn_metrics;
    let s = &report.scdn.social_metrics;
    println!("members            {}", report.members);
    println!("datasets           {}", report.datasets);
    println!("requests issued    {}", report.requests_issued);
    println!("requests failed    {}", report.requests_failed);
    println!("social hit rate    {:.1}%", m.hit_rate());
    println!(
        "response mean/p95  {:.1} / {:.1} ms",
        m.response_time_ms.mean(),
        m.response_time_ms.quantile(0.95)
    );
    println!(
        "bytes transferred  {:.1} MB",
        m.bytes_transferred as f64 / 1e6
    );
    println!("acceptance rate    {:.1}%", s.acceptance_rate());
    println!(
        "exchange volume    {:.1} MB",
        s.transaction_volume() as f64 / 1e6
    );
    println!("maintenance moves  {}", report.maintenance_changes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_finds_pairs() {
        let a = args(&["--seed", "42", "--out", "x.sdblp"]);
        assert_eq!(flag_value(&a, "--seed").expect("ok"), Some("42"));
        assert_eq!(flag_value(&a, "--out").expect("ok"), Some("x.sdblp"));
        assert_eq!(flag_value(&a, "--runs").expect("ok"), None);
    }

    #[test]
    fn flag_value_missing_operand_errors() {
        let a = args(&["--seed"]);
        assert!(flag_value(&a, "--seed").is_err());
    }

    #[test]
    fn parse_flag_defaults_and_parses() {
        let a = args(&["--runs", "7"]);
        assert_eq!(parse_flag(&a, "--runs", 20usize).expect("ok"), 7);
        assert_eq!(parse_flag(&a, "--duty", 0.5f64).expect("ok"), 0.5);
        let bad = args(&["--runs", "many"]);
        assert!(parse_flag(&bad, "--runs", 20usize).is_err());
    }

    #[test]
    fn default_corpus_loads_with_seed_author() {
        let (corpus, seed) = load_corpus(&[]).expect("default corpus");
        assert!(corpus.author_count() > 1000);
        assert_eq!(seed, AuthorId(0));
    }

    #[test]
    fn corpus_file_round_trip_via_cli_loader() {
        let mut params = CaseStudyParams::default();
        params.level2_prob = 0.2;
        params.level3_prob = 0.0;
        params.mega_pub_authors = 0;
        let g = generate(&params);
        let path = std::env::temp_dir().join("scdn-cli-test.sdblp");
        std::fs::write(&path, to_text(&g.corpus)).expect("write");
        let a = args(&["--corpus", path.to_str().expect("utf8 path")]);
        let (corpus, _) = load_corpus(&a).expect("parses");
        assert_eq!(corpus.author_count(), g.corpus.author_count());
        std::fs::remove_file(&path).ok();
    }
}
