//! The Conseca benchmark: closed-loop workloads against an in-process
//! `conseca-serve` server over the duplex transport.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <agent_tasks|check_stream|policy_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a traced run. The line before it is the host
//! stamp. See `perfbench/README.md`.

mod agent_tasks;
mod check_stream;
mod corpus;
mod host;
mod layers;
mod oracle;
mod policy_churn;
mod probes;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Layers, PER_LAYER};
use oracle::Tally;
use stats::Summary;

/// Times each workload builds its whole set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["agent_tasks", "check_stream", "policy_churn"];

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_p50_us", "us"), ("op_tail_us", "us"), ("ops_per_s", "1/s")];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds: f64 = seconds.ok_or("missing --seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    /// The measured segments: one untraced segment, or in a traced run
    /// an untraced half followed by a traced half (their difference is
    /// `trace.overhead_pct`).
    pub fn segments(&self, share: f64) -> Vec<(Duration, bool)> {
        let total = self.seconds * share;
        if self.trace {
            vec![
                (Duration::from_secs_f64(total / 2.0), false),
                (Duration::from_secs_f64(total / 2.0), true),
            ]
        } else {
            vec![(Duration::from_secs_f64(total), false)]
        }
    }
}

/// Where a run keeps its files: inside the benchmark's directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// The workload's operations in the untraced segment.
    pub op: Summary,
    /// The same in the traced segment (traced runs only).
    pub traced_op: Summary,
    pub tally: Tally,
    pub layers: Layers,
    /// Host and run facts for the stamp line, as JSON values.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn fact(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.facts.push((key, value.to_string()));
    }

    pub fn fact_str(&mut self, key: &'static str, value: &str) {
        self.facts.push((key, json_string(value)));
    }
}

/// Runs `build` [`SETUP_REPS`] times (dropping each previous state
/// first) and returns the last state with every repetition's duration.
/// The first repetition is timed from process start.
pub fn repeated_setup<T>(process_start: Instant, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let start = if rep == 0 { process_start } else { Instant::now() };
        state = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        json_string(name),
        json_string(unit)
    );
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    trace::tracer().set_enabled(args.trace);
    let outcome = match args.workload.as_str() {
        "agent_tasks" => agent_tasks::run(&args, process_start),
        "check_stream" => check_stream::run(&args, process_start),
        "policy_churn" => policy_churn::run(&args, process_start),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    outcome.tally.log(&args.workload);
    let mut run_facts = Vec::new();
    if args.trace {
        let spans = trace::tracer().snapshot();
        let path = out_dir().join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = trace::write_tsv(&path, &spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        run_facts.push(("spans", spans.len().to_string()));
        run_facts.push(("spans_dropped", trace::tracer().dropped().to_string()));
    }

    let mut stamp = String::from("{");
    let mut facts = vec![
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", host::nproc().to_string()),
        ("cpu_model", json_string(&host::cpu_model())),
        ("op_samples", outcome.op.samples.to_string()),
        ("op_windows", outcome.op.windows.to_string()),
        ("op_p99_us", outcome.op.p99_us.to_string()),
        ("setup_reps_s", format!("{:?}", outcome.setup_s)),
    ];
    facts.extend(outcome.facts.iter().cloned());
    facts.extend(run_facts);
    for (key, value) in &facts {
        if stamp.len() > 1 {
            stamp.push_str(", ");
        }
        let _ = write!(stamp, "{}: {value}", json_string(key));
    }
    stamp.push('}');
    println!("{{\"host\": {stamp}}}");

    let mut metrics = String::from("{");
    if args.trace {
        let mut layers = outcome.layers.clone();
        layers.insert(
            "trace.overhead_pct",
            (layers::ratio(outcome.traced_op.p50_us, outcome.op.p50_us) - 1.0) * 100.0,
        );
        for (name, unit) in PER_LAYER {
            metric(&mut metrics, name, layers.get(name).copied().unwrap_or(0.0), unit);
        }
        debug_assert!(layers.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
    } else {
        let op = &outcome.op;
        let values = [stats::median(&outcome.setup_s), op.p50_us, op.tail_us, op.per_s];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metric(&mut metrics, name, value, unit);
        }
    }
    metrics.push('}');
    // A run that attempted nothing has failed its one attempt.
    let (attempted, failed) = match outcome.tally.attempted {
        0 => (1, 1),
        n => (n, outcome.tally.failed),
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program runs and prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let mut declared: Vec<(String, Option<String>)> = Vec::new();
        let mut rest = json.as_str();
        while let Some(at) = rest.find("\"name\": \"") {
            rest = &rest[at + 9..];
            let name = rest[..rest.find('"').unwrap()].to_owned();
            let entry = &rest[..rest.find('}').unwrap()];
            let unit = entry.find("\"unit\": \"").map(|u| {
                let unit = &entry[u + 9..];
                unit[..unit.find('"').unwrap()].to_owned()
            });
            declared.push((name, unit));
        }
        let mut expected: Vec<(String, Option<String>)> =
            WORKLOADS.iter().map(|w| (w.to_string(), None)).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            expected.push((name.to_string(), Some(unit.to_string())));
        }
        assert_eq!(declared, expected);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\u000ad\"");
    }
}
