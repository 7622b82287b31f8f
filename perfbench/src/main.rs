//! The sweep benchmark: three single-worker workloads through the
//! program's public sweep entry points, with end-to-end metrics from
//! untraced runs and per-layer metrics from a traced replica.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <seq2-triaged|seq3meta-rep|app-txn> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- reference [--workload <name>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod reference;
mod replica;
mod space;
mod stats;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use b3::harness::distrib::{worker_main, WorkerOptions};
use b3::harness::GroupTable;

use crate::reference::Reference;
use crate::replica::Replica;
use crate::space::{Round, Workload};
use crate::stats::{median, own_peak_rss};

/// A metric the command prints: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 4] = [
    metric("candidates_per_s", "1/s", "higher"),
    metric("detect_p50_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
    metric("setup_s", "s", "lower"),
];

/// Printed by traced runs (`--trace 1`). Layers a workload does not run
/// read 0.
pub const PER_LAYER: [Metric; 24] = [
    metric("ace.enumerate_s", "s", "lower"),
    metric("ace.canon_s", "s", "lower"),
    metric("ace.representative_ratio", "ratio", "lower"),
    metric("ace.executable_ratio", "ratio", "higher"),
    metric("app.enumerate_s", "s", "lower"),
    metric("app.test_s", "s", "lower"),
    metric("crashmonkey.test_s", "s", "lower"),
    metric("crashmonkey.profile_s", "s", "lower"),
    metric("crashmonkey.construct_s", "s", "lower"),
    metric("crashmonkey.recovery_s", "s", "lower"),
    metric("crashmonkey.check_s", "s", "lower"),
    metric("crashmonkey.unattributed_s", "s", "lower"),
    metric("crashmonkey.triage_reuse_ratio", "ratio", "higher"),
    metric("block.recorded_bytes", "bytes", "lower"),
    metric("block.replayed_bytes", "bytes", "lower"),
    metric("harness.dedup_s", "s", "lower"),
    metric("harness.wire_s", "s", "lower"),
    metric("harness.checkpoint_encode_s", "s", "lower"),
    metric("harness.checkpoint_bytes", "bytes", "lower"),
    metric("harness.unattributed_s", "s", "lower"),
    metric("trace.wall_s", "s", "lower"),
    metric("trace.overhead_ratio", "ratio", "lower"),
    metric("trace.errors", "count", "lower"),
    metric("trace.non_executable", "count", "lower"),
];

/// Set-up calls after each untraced round; the median of all is reported.
const SETUP_BATCH: usize = 100;

/// The traced run's layers must cover its wall time to within this share.
const LAYER_SUM_TOLERANCE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the benchmark's own directory, removed on
/// drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"))
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no concurrent run still uses `.work`.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The result line.
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Output {
    /// Renders the JSON line, naming exactly the metrics of `table` with
    /// their units.
    fn to_json(&self, table: &[Metric]) -> Result<String, String> {
        let printed: BTreeSet<&str> = self.metrics.iter().map(|(name, _)| *name).collect();
        let declared: BTreeSet<&str> = table.iter().map(|m| m.name).collect();
        if printed != declared || printed.len() != self.metrics.len() {
            return Err(format!(
                "computed metrics {printed:?} differ from the declared {declared:?}"
            ));
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(0.0, |(_, value)| *value);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Every exemplar's enumeration position (in-process workloads) and the
/// enumerated candidate count.
fn enumeration(
    workload: Workload,
    round: &Round,
) -> (Option<u64>, std::collections::BTreeMap<String, u64>) {
    match workload.fs_sweep() {
        Some(sweep) => {
            let names = round
                .groups
                .entries()
                .map(|(_, entry)| entry.exemplar.workload_name.clone())
                .collect();
            let (total, ordinals) = space::enumerate(&sweep.bounds, &names);
            (Some(total), ordinals)
        }
        None => (None, Default::default()),
    }
}

/// Compares the replica's counts and groups with the end-to-end round's.
fn compare(round: &Round, replica: &Replica) -> Vec<String> {
    let mut problems = Vec::new();
    let skipped = replica.non_executable + replica.errors;
    if (round.tested, round.skipped, round.pruned, round.divergences)
        != (replica.tested, skipped, replica.pruned, replica.divergences)
    {
        problems.push(format!(
            "replica counts tested/skipped/pruned/divergences {}/{}/{}/{} differ from the \
             sweep's {}/{}/{}/{}",
            replica.tested,
            skipped,
            replica.pruned,
            replica.divergences,
            round.tested,
            round.skipped,
            round.pruned,
            round.divergences
        ));
    }
    // `skipped` folds test errors in with workloads that cannot execute.
    if round.skipped > replica.non_executable {
        problems.push(format!(
            "the sweep's {} skipped candidates hide {} test errors",
            round.skipped,
            round.skipped - replica.non_executable
        ));
    }
    if round.groups != replica.groups {
        problems.push(format!(
            "replica groups ({}) differ from the sweep's ({})",
            replica.groups.len(),
            round.groups.len()
        ));
    }
    problems
}

fn layer_metrics(replica: &Replica, sweep_wall: f64) -> Vec<(&'static str, f64)> {
    let l = &replica.layers;
    let wall = l.wall.as_secs_f64();
    let executed = replica.tested + replica.non_executable + replica.errors;
    let fs = l.ace_enumerate > Duration::ZERO;
    vec![
        ("ace.enumerate_s", l.ace_enumerate.as_secs_f64()),
        ("ace.canon_s", l.ace_canon.as_secs_f64()),
        (
            "ace.representative_ratio",
            if fs {
                ratio(executed, replica.candidates())
            } else {
                0.0
            },
        ),
        (
            "ace.executable_ratio",
            if fs {
                ratio(replica.tested, executed)
            } else {
                0.0
            },
        ),
        ("app.enumerate_s", l.app_enumerate.as_secs_f64()),
        ("app.test_s", l.app_test.as_secs_f64()),
        ("crashmonkey.test_s", l.cm_test.as_secs_f64()),
        ("crashmonkey.profile_s", l.cm_profile.as_secs_f64()),
        ("crashmonkey.construct_s", l.cm_construct.as_secs_f64()),
        ("crashmonkey.recovery_s", l.cm_recovery.as_secs_f64()),
        ("crashmonkey.check_s", l.cm_check.as_secs_f64()),
        (
            "crashmonkey.unattributed_s",
            l.cm_unattributed().as_secs_f64(),
        ),
        (
            "crashmonkey.triage_reuse_ratio",
            ratio(
                l.checkpoints_reused,
                l.checkpoints_tested + l.checkpoints_reused,
            ),
        ),
        ("block.recorded_bytes", l.recorded_bytes as f64),
        ("block.replayed_bytes", l.replayed_bytes as f64),
        ("harness.dedup_s", l.dedup.as_secs_f64()),
        ("harness.wire_s", l.wire.as_secs_f64()),
        (
            "harness.checkpoint_encode_s",
            l.checkpoint_encode.as_secs_f64(),
        ),
        ("harness.checkpoint_bytes", l.checkpoint_bytes as f64),
        (
            "harness.unattributed_s",
            l.wall.saturating_sub(l.timed()).as_secs_f64(),
        ),
        ("trace.wall_s", wall),
        ("trace.overhead_ratio", wall / sweep_wall),
        ("trace.errors", replica.errors as f64),
        ("trace.non_executable", replica.non_executable as f64),
    ]
}

fn report_round(index: usize, round: &Round) {
    eprintln!(
        "round {index}: {} candidates in {:.3} s, {} groups",
        round.candidates(),
        round.wall_s,
        round.groups.len(),
    );
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let reference = Reference::load(workload.name())?;
    let work = WorkDir::create()?;
    eprintln!(
        "{}: seed {} (inputs are exhaustive enumerations; the seed selects nothing), \
         {} s, trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Whole rounds until the run length is used up; a traced run times one
    // round to compare the replica against. Later rounds keep only their
    // timelines.
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut first = space::round(workload, &work.0)?;
    report_round(1, &first);
    // The peak of one sweep call in a fresh process: later rounds run on
    // an allocator that earlier rounds already spread over more arenas.
    let own_rss = own_peak_rss();
    if !args.trace {
        first.checkpoint = None;
    }
    // Set-up calls run in a batch after every round, so their median
    // samples the host across the whole run rather than one moment of it.
    let mut setup = Vec::new();
    let setup_batch = |setup: &mut Vec<f64>| -> Result<(), String> {
        if !args.trace {
            for _ in 0..SETUP_BATCH {
                setup.push(space::setup_call(workload, &work.0)?);
            }
        }
        Ok(())
    };
    setup_batch(&mut setup)?;
    let mut rounds = vec![];
    let mut problems = Vec::new();
    while !args.trace && started.elapsed() < budget {
        let mut round = space::round(workload, &work.0)?;
        report_round(rounds.len() + 2, &round);
        if (round.tested, round.skipped, round.pruned)
            != (first.tested, first.skipped, first.pruned)
            || round.groups != first.groups
        {
            problems.push(format!("round {} differs from round 1", rounds.len() + 2));
        }
        round.groups = GroupTable::new();
        rounds.push(round);
        setup_batch(&mut setup)?;
    }
    let peak_rss = rounds
        .iter()
        .chain([&first])
        .filter_map(|round| round.worker_rss)
        .chain(own_rss)
        .max()
        .unwrap_or(0);

    let (enumerated, ordinals) = enumeration(workload, &first);
    problems.extend(space::check(workload, &first, &reference, enumerated));
    rounds.insert(0, first);
    let first = &rounds[0];

    let output = if args.trace {
        let replica = match workload.fs_sweep() {
            Some(sweep) => replica::fs(&sweep),
            None => replica::app(first.checkpoint.as_ref().ok_or("no checkpoint")?)?,
        };
        problems.extend(compare(first, &replica));
        let wall = replica.layers.wall.as_secs_f64();
        let unattributed = replica.layers.wall.saturating_sub(replica.layers.timed());
        if unattributed.as_secs_f64() > LAYER_SUM_TOLERANCE * wall {
            problems.push(format!(
                "the layers cover {:.3} of the traced run's {wall:.3} s",
                wall - unattributed.as_secs_f64()
            ));
        }
        Output {
            correct: problems.is_empty(),
            attempted: replica.candidates(),
            failed: replica.errors + replica.divergences,
            metrics: layer_metrics(&replica, first.wall_s),
        }
    } else {
        let mut rates = Vec::new();
        let mut detect = Vec::new();
        for round in &rounds {
            rates.push(round.candidates() as f64 / round.wall_s);
            detect.push(space::detect_p50(round, &first.groups, &ordinals)?);
        }
        Output {
            correct: problems.is_empty(),
            attempted: rounds.iter().map(Round::candidates).sum(),
            failed: rounds.iter().map(|round| round.divergences).sum(),
            metrics: vec![
                ("candidates_per_s", median(&rates).unwrap_or(0.0)),
                ("detect_p50_s", median(&detect).unwrap_or(0.0)),
                ("peak_rss_mb", peak_rss as f64 / 1e6),
                ("setup_s", median(&setup).unwrap_or(0.0)),
            ],
        }
    };
    for problem in &problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    output.to_json(if args.trace { &PER_LAYER } else { &END_TO_END })
}

fn make_references(args: &[String]) -> Result<(), String> {
    let workloads = match args {
        [] => Workload::ALL.to_vec(),
        [flag, name] if flag == "--workload" => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
        _ => return Err("usage: reference [--workload <name>]".into()),
    };
    for workload in workloads {
        let start = Instant::now();
        let (reference, description) = space::make_reference(workload);
        let path = reference::path(workload.name());
        std::fs::write(&path, reference.render(workload.name(), description))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "{}: {} groups, tested {} skipped {} in {:.1} s -> {}",
            workload.name(),
            reference.groups.len(),
            reference.tested,
            reference.skipped,
            start.elapsed().as_secs_f64(),
            path.display()
        );
    }
    Ok(())
}

/// The distributed workload's stdio worker; records its own peak resident
/// set in the file named by its argument once the session ends.
fn worker(rss_path: &str) -> ExitCode {
    let code = worker_main(WorkerOptions::default());
    if let Some(bytes) = own_peak_rss() {
        let _ = std::fs::write(rss_path, bytes.to_string());
    }
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => {
            return match args.get(1) {
                Some(path) => worker(path),
                None => ExitCode::from(2),
            }
        }
        Some("reference") => make_references(&args[1..]),
        _ => parse_args(&args)
            .and_then(|args| run(&args))
            .map(|json| println!("{json}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"key": "value"` string fields of each `{...}` object in the
    /// `section` array of `BENCHMARK.json` (written one object per line).
    fn declared(json: &str, section: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("unterminated array")];
        body.split('{')
            .skip(1)
            .map(|object| {
                let needle = format!("\"{key}\": \"");
                let at = object.find(&needle).expect("field present") + needle.len();
                object[at..]
                    .split('"')
                    .next()
                    .unwrap_or_default()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_printed_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for key in ["name", "unit", "better"] {
                let printed: Vec<&str> = table
                    .iter()
                    .map(|m| match key {
                        "name" => m.name,
                        "unit" => m.unit,
                        _ => m.better,
                    })
                    .collect();
                assert_eq!(declared(&json, section, key), printed, "{section} {key}s");
            }
        }
        for workload in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }

    #[test]
    fn output_names_exactly_the_declared_metrics() {
        let output = Output {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("setup_s", 0.25),
                ("candidates_per_s", 1.5),
                ("detect_p50_s", f64::NAN),
                ("peak_rss_mb", 9.0),
            ],
        };
        assert_eq!(
            output.to_json(&END_TO_END).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"candidates_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"detect_p50_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 9, \"unit\": \"MB\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let missing = Output {
            metrics: output.metrics[..3].to_vec(),
            ..output
        };
        assert!(missing.to_json(&END_TO_END).is_err());
    }

    #[test]
    fn arguments_parse_in_the_documented_form() {
        let args: Vec<String> = [
            "--workload",
            "app-txn",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workload, Workload::AppTxn);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 20, true));
        assert!(parse_args(&args[..2]).is_err());
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
