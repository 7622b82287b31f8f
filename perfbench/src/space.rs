//! The three benchmark workloads: their make-up, one end-to-end round
//! through the program's public sweep entry points, the set-up call, the
//! output checks, and the reference sweeps the checks compare against.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use b3::ace::{Bounds, Classifier, WorkloadGenerator};
use b3::app::{AppHarness, EngineProfile, TxnBounds, TxnOpKind, TxnWorkloadGenerator};
use b3::crashmonkey::{Consequence, CrashMonkeyConfig, CrashPointPolicy};
use b3::fs_cow::CowFsSpec;
use b3::harness::distrib::{run_with_transport_hooked, DistribHooks};
use b3::harness::{
    corpus, AppSweep, BugGroup, ChildTransport, DistribConfig, FsKind, GroupTable, Progress,
    PruneMode, RunConfig, Sweep, SweepCheckpoint, SweepJob, WorkerCommand,
};
use b3::vfs::workload::OpKind;
use b3::vfs::KernelEra;

use crate::reference::{groups_of, Reference};
use crate::stats::{interpolate_time, median};

/// Shards of the in-process sweeps: `Sweep`'s own default for one thread.
pub const FS_SHARDS: usize = 8;
/// Shards of the distributed app sweep, as many as `Sweep` makes for one
/// thread: one coordinator round trip, checkpoint delta and fsync per
/// 12,207 candidates. Half of the bug groups first appear in shard 0.
pub const APP_SHARDS: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Seq2Triaged,
    Seq3MetaRep,
    AppTxn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Seq2Triaged,
        Workload::Seq3MetaRep,
        Workload::AppTxn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Seq2Triaged => "seq2-triaged",
            Workload::Seq3MetaRep => "seq3meta-rep",
            Workload::AppTxn => "app-txn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The in-process sweep this workload times, or `None` for the
    /// distributed one.
    pub fn fs_sweep(self) -> Option<FsSweep> {
        match self {
            Workload::Seq2Triaged => Some(FsSweep {
                bounds: Bounds::paper_seq2(),
                config: one_thread(CrashPointPolicy::AllTriaged { audit: 0 }),
                prune: PruneMode::Off,
            }),
            Workload::Seq3MetaRep => Some(FsSweep {
                bounds: seq3meta_bounds(),
                config: one_thread(CrashPointPolicy::LastOnly),
                prune: PruneMode::Representative,
            }),
            Workload::AppTxn => None,
        }
    }
}

/// seq-3-metadata narrowed to buffered write, link and unlink: 273,240
/// candidates, small enough that the unpruned sweep over the same
/// candidates (the reference) runs in about a minute.
fn seq3meta_bounds() -> Bounds {
    Bounds::paper_seq3_metadata().with_ops(vec![
        OpKind::WriteBuffered,
        OpKind::Link,
        OpKind::Unlink,
    ])
}

/// Put, append and delete over four keys, up to two transactions of up to
/// two ops each, with aborts: 97,656 candidates.
pub fn app_bounds() -> TxnBounds {
    TxnBounds {
        name_prefix: "app-txn".to_string(),
        max_txns: 2,
        max_ops_per_txn: 2,
        keys: 4,
        ops: vec![TxnOpKind::Put, TxnOpKind::Append, TxnOpKind::Delete],
        allow_abort: true,
    }
}

/// All three seeded engine bugs at once.
pub fn app_engine() -> EngineProfile {
    EngineProfile {
        commit_without_data_fsync: true,
        torn_commit: true,
        double_replay: true,
    }
}

/// The app workload's host: CowFs with every file-system bug patched, so
/// every violation is the engine's.
pub fn app_spec() -> CowFsSpec {
    CowFsSpec::new(KernelEra::Patched)
}

pub fn app_crashmonkey() -> CrashMonkeyConfig {
    CrashMonkeyConfig::exhaustive_crash_points()
}

fn app_job() -> SweepJob {
    SweepJob {
        era: KernelEra::Patched,
        crashmonkey: app_crashmonkey(),
        ..SweepJob::new_app(app_bounds(), app_engine(), APP_SHARDS)
    }
}

fn one_thread(crash_points: CrashPointPolicy) -> RunConfig {
    RunConfig {
        threads: 1,
        crashmonkey: CrashMonkeyConfig {
            crash_points,
            ..CrashMonkeyConfig::small()
        },
        ..RunConfig::default()
    }
}

/// An in-process sweep's make-up (always CowFs at 4.16).
pub struct FsSweep {
    pub bounds: Bounds,
    pub config: RunConfig,
    pub prune: PruneMode,
}

impl FsSweep {
    pub fn spec() -> CowFsSpec {
        CowFsSpec::new(KernelEra::V4_16)
    }
}

/// What one end-to-end round produced.
pub struct Round {
    /// From the call into the sweep entry point until it returned.
    pub wall_s: f64,
    pub tested: u64,
    pub skipped: u64,
    pub pruned: u64,
    /// Triage and audit divergences the sweep reported.
    pub divergences: u64,
    pub groups: GroupTable,
    /// In-process: `(seconds since the call, candidates processed)` at
    /// every progress tick.
    pub progress: Vec<(f64, u64)>,
    /// Distributed: seconds since the call at every discovery callback.
    pub discoveries: Vec<f64>,
    /// Distributed: the worker process's peak resident set, in bytes.
    pub worker_rss: Option<u64>,
    /// Distributed: the merged checkpoint.
    pub checkpoint: Option<SweepCheckpoint>,
}

impl Round {
    pub fn candidates(&self) -> u64 {
        self.tested + self.skipped + self.pruned
    }
}

/// Runs one end-to-end round of `workload`. `work` is a scratch directory
/// for checkpoint files and the worker's report.
pub fn round(workload: Workload, work: &Path) -> Result<Round, String> {
    match workload.fs_sweep() {
        Some(sweep) => Ok(fs_round(&sweep)),
        None => app_round(work),
    }
}

fn fs_round(sweep: &FsSweep) -> Round {
    let spec = FsSweep::spec();
    let progress = Mutex::new(Vec::new());
    let start = Instant::now();
    let record = |p: &Progress| {
        let sample = (
            start.elapsed().as_secs_f64(),
            (p.tested + p.skipped + p.pruned) as u64,
        );
        progress
            .lock()
            .expect("progress samples poisoned")
            .push(sample);
    };
    // A zero interval fires the callback at every 20 ms monitor tick.
    let entry = Sweep::new(&spec, sweep.config)
        .shards(FS_SHARDS)
        .prune(sweep.prune)
        .on_progress(&record, Duration::ZERO);
    let mut checkpoint = entry.empty_checkpoint(&sweep.bounds);
    let summary = entry.run_resumable(&sweep.bounds, &mut checkpoint);
    let wall_s = start.elapsed().as_secs_f64();
    Round {
        wall_s,
        tested: summary.tested as u64,
        skipped: summary.skipped as u64,
        pruned: summary.pruned as u64,
        divergences: summary.audit_failures.len() as u64,
        groups: checkpoint.grouped(),
        progress: progress.into_inner().expect("progress samples poisoned"),
        discoveries: Vec::new(),
        worker_rss: None,
        checkpoint: None,
    }
}

/// The stdio worker: this benchmark's own executable in `worker` mode,
/// which writes its peak resident set to `rss_path` when it exits.
fn worker_command(rss_path: &Path) -> Result<WorkerCommand, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    Ok(WorkerCommand::new(exe)
        .arg("worker")
        .arg(rss_path.display().to_string()))
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

fn app_round(work: &Path) -> Result<Round, String> {
    let job = app_job();
    let checkpoint_path = work.join("app-txn.b3seg");
    let rss_path = work.join("worker.rss");
    remove_if_present(&checkpoint_path)?;
    remove_if_present(&rss_path)?;
    let transport = ChildTransport::new(worker_command(&rss_path)?);
    let config = DistribConfig {
        workers: 1,
        checkpoint_path: Some(checkpoint_path),
        ..DistribConfig::default()
    };
    let discoveries = Mutex::new(Vec::new());
    let start = Instant::now();
    let on_discovery = |_: &BugGroup| {
        let at = start.elapsed().as_secs_f64();
        discoveries.lock().expect("discoveries poisoned").push(at);
    };
    let hooks = DistribHooks {
        on_discovery: Some(&on_discovery),
        ..DistribHooks::default()
    };
    let outcome = run_with_transport_hooked(&job, &config, &transport, hooks)
        .map_err(|e| format!("distributed app sweep: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !outcome.is_complete() || outcome.failed_workers > 0 || outcome.respawns > 0 {
        return Err(format!(
            "distributed app sweep ended incomplete: {} failed workers, {} respawns",
            outcome.failed_workers, outcome.respawns
        ));
    }
    let worker_rss = std::fs::read_to_string(&rss_path)
        .ok()
        .and_then(|text| text.trim().parse::<u64>().ok());
    let summary = &outcome.summary;
    Ok(Round {
        wall_s,
        tested: summary.tested as u64,
        skipped: summary.skipped as u64,
        pruned: summary.pruned as u64,
        divergences: summary.audit_failures.len() as u64,
        groups: outcome.checkpoint.grouped(),
        progress: Vec::new(),
        discoveries: discoveries.into_inner().expect("discoveries poisoned"),
        worker_rss,
        checkpoint: Some(outcome.checkpoint),
    })
}

/// One set-up call: the same entry-point call as a round, with a budget
/// that admits at most one candidate (in-process) or no shard
/// (distributed). Returns its duration in seconds.
pub fn setup_call(workload: Workload, work: &Path) -> Result<f64, String> {
    if let Some(sweep) = workload.fs_sweep() {
        let spec = FsSweep::spec();
        let config = RunConfig {
            stop_after_workloads: Some(1),
            ..sweep.config
        };
        let start = Instant::now();
        let summary = Sweep::new(&spec, config)
            .shards(FS_SHARDS)
            .prune(sweep.prune)
            .run(&sweep.bounds);
        let elapsed = start.elapsed().as_secs_f64();
        if summary.tested + summary.skipped > 1 {
            return Err("the set-up budget admitted more than one candidate".into());
        }
        return Ok(elapsed);
    }
    let checkpoint_path = work.join("setup.b3seg");
    remove_if_present(&checkpoint_path)?;
    let transport = ChildTransport::new(worker_command(&work.join("setup.rss"))?);
    let config = DistribConfig {
        workers: 1,
        stop_after_shards: Some(0),
        checkpoint_path: Some(checkpoint_path),
        ..DistribConfig::default()
    };
    let start = Instant::now();
    let outcome =
        run_with_transport_hooked(&app_job(), &config, &transport, DistribHooks::default())
            .map_err(|e| format!("distributed set-up call: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    if outcome.processed_this_run > 0 {
        return Err("the set-up budget admitted a shard".into());
    }
    Ok(elapsed)
}

/// Seconds from the call until each bug group became visible: the
/// discovery callbacks (distributed), or the moment the sweep thread
/// passed the group's exemplar, read off the progress timeline
/// (in-process). `groups` are the round's bug groups, and `ordinals` maps
/// each exemplar to its position in the enumeration.
fn detection_times(
    round: &Round,
    groups: &GroupTable,
    ordinals: &BTreeMap<String, u64>,
) -> Result<Vec<f64>, String> {
    if round.progress.is_empty() {
        return Ok(round.discoveries.clone());
    }
    groups
        .entries()
        .map(|(_, entry)| {
            let name = &entry.exemplar.workload_name;
            let ordinal = ordinals
                .get(name)
                .ok_or_else(|| format!("exemplar {name} is not in the enumerated space"))?;
            interpolate_time(&round.progress, ordinal + 1)
                .ok_or_else(|| format!("the progress timeline never reached exemplar {name}"))
        })
        .collect()
}

/// Enumerates an in-process workload's space once: the number of
/// candidates and each of `names`' position in enumeration order.
pub fn enumerate(bounds: &Bounds, names: &BTreeSet<String>) -> (u64, BTreeMap<String, u64>) {
    let mut ordinals = BTreeMap::new();
    let mut total = 0u64;
    for workload in WorkloadGenerator::new(bounds.clone()) {
        if names.contains(&workload.name) {
            ordinals.insert(workload.name, total);
        }
        total += 1;
    }
    (total, ordinals)
}

/// Median detection time of one round whose bug groups are `groups`.
pub fn detect_p50(
    round: &Round,
    groups: &GroupTable,
    ordinals: &BTreeMap<String, u64>,
) -> Result<f64, String> {
    let times = detection_times(round, groups, ordinals)?;
    if times.len() != groups.len() {
        return Err(format!(
            "{} detection times for {} bug groups",
            times.len(),
            groups.len()
        ));
    }
    median(&times).ok_or_else(|| "no bug group was detected".to_string())
}

/// Checks a round's outputs against the workload's reference and the
/// properties the method must have. Returns every problem found.
pub fn check(
    workload: Workload,
    round: &Round,
    reference: &Reference,
    enumerated: Option<u64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let groups = groups_of(&round.groups);
    match workload {
        Workload::Seq2Triaged | Workload::AppTxn => {
            if groups != reference.groups {
                problems.push(format!(
                    "bug groups differ from the reference ({} vs {} groups)",
                    groups.len(),
                    reference.groups.len()
                ));
            }
            if (round.tested, round.skipped) != (reference.tested, reference.skipped) {
                problems.push(format!(
                    "tested/skipped {}/{} differ from the reference's {}/{}",
                    round.tested, round.skipped, reference.tested, reference.skipped
                ));
            }
        }
        Workload::Seq3MetaRep => {
            let keys: BTreeSet<_> = groups.keys().collect();
            let reference_keys: BTreeSet<_> = reference.groups.keys().collect();
            if keys != reference_keys {
                problems.push(format!(
                    "representative bug groups differ from the unpruned sweep's \
                     ({} vs {} groups)",
                    keys.len(),
                    reference_keys.len()
                ));
            }
            if round.candidates() != reference.tested + reference.skipped {
                problems.push(format!(
                    "covered {} candidates, the unpruned sweep {}",
                    round.candidates(),
                    reference.tested + reference.skipped
                ));
            }
        }
    }
    if let Some(enumerated) = enumerated {
        if round.candidates() != enumerated {
            problems.push(format!(
                "tested + skipped + pruned = {} but the space enumerates {enumerated} candidates",
                round.candidates()
            ));
        }
    }
    match workload {
        Workload::Seq2Triaged => problems.extend(check_fs_corpus(&round.groups)),
        Workload::AppTxn => problems.extend(check_app(&round.groups)),
        Workload::Seq3MetaRep => {}
    }
    problems
}

/// Every CowFs@4.16 corpus entry whose workload the seq-2 space contains
/// (the generator emits its exact op sequence) must appear among the
/// groups with one of its expected consequences.
fn check_fs_corpus(groups: &GroupTable) -> Vec<String> {
    let seq2 = Bounds::paper_seq2();
    let classifier = Classifier::new(&seq2);
    let found: BTreeSet<(&str, Consequence)> = groups
        .entries()
        .map(|((skeleton, consequence), _)| (skeleton.as_str(), *consequence))
        .collect();
    let mut problems = Vec::new();
    let (mut entries, mut contained) = (0, 0);
    for entry in corpus::all_entries() {
        if entry.fs != FsKind::Cow || entry.era != KernelEra::V4_16 || !entry.is_runnable() {
            continue;
        }
        entries += 1;
        let workload = entry.workload();
        let emitted = classifier
            .candidate_index(&workload.ops)
            .and_then(|index| WorkloadGenerator::with_range(seq2.clone(), index, index + 1).next());
        if emitted.is_none_or(|emitted| emitted.ops != workload.ops) {
            continue;
        }
        contained += 1;
        let skeleton = workload.skeleton_string();
        if !entry
            .expected
            .iter()
            .any(|c| found.contains(&(skeleton.as_str(), *c)))
        {
            problems.push(format!(
                "corpus entry {} ({skeleton}, expected {:?}) was not found",
                entry.id, entry.expected
            ));
        }
    }
    eprintln!("corpus: {contained} of {entries} btrfs@4.16 entries lie in the seq-2 space");
    problems
}

fn check_app(groups: &GroupTable) -> Vec<String> {
    let mut problems = Vec::new();
    // A report's primary consequence is its most severe one, so a replay
    // that is not idempotent shows among the exemplars' consequences.
    for needed in [
        Consequence::TxnAtomicityBroken,
        Consequence::TxnReplayNotIdempotent,
    ] {
        if !groups
            .entries()
            .any(|(_, entry)| entry.exemplar.all_consequences.contains(&needed))
        {
            problems.push(format!("no bug group reports {needed:?}"));
        }
    }
    let spec = app_spec();
    for entry in b3::app::corpus::seeded_bugs() {
        match entry.replay(&spec) {
            Ok(check) if check.detected_expected => {}
            Ok(_) => problems.push(format!("seeded bug {} was not detected", entry.id)),
            Err(e) => problems.push(format!("seeded bug {} failed to replay: {e}", entry.id)),
        }
    }
    // The fixed engine on shard 0 of the same space.
    let bounds = app_bounds();
    let harness = AppHarness::new(&spec, app_crashmonkey(), EngineProfile::fixed());
    let shard = bounds.shard(0, APP_SHARDS);
    for workload in TxnWorkloadGenerator::for_shard(bounds.clone(), &shard) {
        match harness.test_workload(&workload) {
            Ok(outcome) if outcome.bugs.is_empty() && outcome.skipped.is_none() => {}
            _ => {
                problems.push(format!(
                    "the fixed engine reported a violation on {}",
                    workload.name
                ));
                break;
            }
        }
    }
    problems
}

/// Regenerates the reference of `workload` by a sweep apart from the one
/// the workload times, using every available CPU.
pub fn make_reference(workload: Workload) -> (Reference, &'static str) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (summary_counts, checkpoint, description) = match workload {
        Workload::Seq2Triaged | Workload::Seq3MetaRep => {
            let (bounds, crashmonkey, description) = match workload {
                Workload::Seq2Triaged => (
                    Bounds::paper_seq2(),
                    CrashMonkeyConfig::exhaustive_crash_points(),
                    "full seq-2 on btrfs@4.16 under CrashPointPolicy::All (no triage), \
                     unpruned in-process Sweep",
                ),
                _ => (
                    seq3meta_bounds(),
                    CrashMonkeyConfig::small(),
                    "seq-3-metadata over write/link/unlink on btrfs@4.16, LastOnly, \
                     unpruned in-process Sweep",
                ),
            };
            let spec = FsSweep::spec();
            let config = RunConfig {
                threads,
                crashmonkey,
                ..RunConfig::default()
            };
            let sweep = Sweep::new(&spec, config).shards(FS_SHARDS);
            let mut checkpoint = sweep.empty_checkpoint(&bounds);
            let summary = sweep.run_resumable(&bounds, &mut checkpoint);
            (
                (summary.tested, summary.skipped, summary.pruned),
                checkpoint,
                description,
            )
        }
        Workload::AppTxn => {
            let spec = app_spec();
            let config = RunConfig {
                threads,
                crashmonkey: app_crashmonkey(),
                ..RunConfig::default()
            };
            let sweep = AppSweep::new(&spec, config, app_engine()).shards(APP_SHARDS);
            let bounds = app_bounds();
            let mut checkpoint = sweep.empty_checkpoint(&bounds);
            let summary = sweep.run_resumable(&bounds, &mut checkpoint);
            (
                (summary.tested, summary.skipped, summary.pruned),
                checkpoint,
                "app transaction space (2 txns x 2 ops, put/append/delete, 4 keys, aborts) \
                 with all three seeded engine bugs on btrfs@patched, CrashPointPolicy::All, \
                 in-process AppSweep",
            )
        }
    };
    let (tested, skipped, pruned) = summary_counts;
    (
        Reference {
            tested: tested as u64,
            skipped: skipped as u64,
            pruned: pruned as u64,
            groups: groups_of(&checkpoint.grouped()),
        },
        description,
    )
}
