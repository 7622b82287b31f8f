//! The traced replica: re-executes a workload's candidates by calling each
//! layer's public functions directly, in the end-to-end run's shard
//! decomposition, and times every call. Its counts and groups must equal
//! the end-to-end run's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use b3::ace::{Classifier, WorkloadGenerator};
use b3::app::{AppHarness, TxnWorkloadGenerator};
use b3::crashmonkey::{CrashMonkey, WorkloadOutcome};
use b3::harness::{GroupTable, SweepCheckpoint};
use b3::vfs::codec::{Decoder, Encoder};
use b3::vfs::{EntryInterner, FsResult};

use crate::space::{
    app_bounds, app_crashmonkey, app_engine, app_spec, FsSweep, APP_SHARDS, FS_SHARDS,
};

/// Time spent in, and work counted at, each layer's public functions.
#[derive(Debug, Default)]
pub struct Layers {
    /// `WorkloadGenerator` construction and `next`.
    pub ace_enumerate: Duration,
    /// `Classifier` construction and `classify`.
    pub ace_canon: Duration,
    /// `TxnWorkloadGenerator` construction and `next`.
    pub app_enumerate: Duration,
    /// `AppHarness::test_workload`.
    pub app_test: Duration,
    /// `CrashMonkey::test_workload`, and its `PhaseTiming` split.
    pub cm_test: Duration,
    pub cm_profile: Duration,
    /// Construction net of the recovery it includes.
    pub cm_construct: Duration,
    pub cm_recovery: Duration,
    pub cm_check: Duration,
    pub checkpoints_tested: u64,
    pub checkpoints_reused: u64,
    pub recorded_bytes: u64,
    pub replayed_bytes: u64,
    /// `GroupTable::observe` and `GroupTable::merge_from`.
    pub dedup: Duration,
    /// `GroupTable::encode` + `GroupTable::decode` of each shard's groups.
    pub wire: Duration,
    /// `SweepCheckpoint::to_bytes`.
    pub checkpoint_encode: Duration,
    pub checkpoint_bytes: u64,
    /// The whole replica, first timed call to last.
    pub wall: Duration,
}

impl Layers {
    /// Every timed call, summed.
    pub fn timed(&self) -> Duration {
        self.ace_enumerate
            + self.ace_canon
            + self.app_enumerate
            + self.app_test
            + self.cm_test
            + self.dedup
            + self.wire
            + self.checkpoint_encode
    }

    /// The part of `CrashMonkey::test_workload` no phase clock covers.
    pub fn cm_unattributed(&self) -> Duration {
        self.cm_test
            .saturating_sub(self.cm_profile + self.cm_construct + self.cm_recovery + self.cm_check)
    }
}

/// What the replica counted.
#[derive(Debug, Default)]
pub struct Replica {
    pub tested: u64,
    /// Outcomes that report the workload could not execute.
    pub non_executable: u64,
    /// Tests that returned `Err`.
    pub errors: u64,
    pub pruned: u64,
    pub divergences: u64,
    pub groups: GroupTable,
    pub layers: Layers,
}

impl Replica {
    pub fn candidates(&self) -> u64 {
        self.tested + self.non_executable + self.errors + self.pruned
    }

    /// Folds one test outcome into the counts and `shard`'s groups.
    fn absorb(&mut self, outcome: FsResult<WorkloadOutcome>, shard: &mut GroupTable) {
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        let layers = &mut self.layers;
        let timing = outcome.timing;
        layers.cm_profile += timing.profile;
        layers.cm_construct += timing
            .crash_state_construction
            .saturating_sub(timing.recovery);
        layers.cm_recovery += timing.recovery;
        layers.cm_check += timing.checking;
        layers.recorded_bytes += outcome.resource.recorded_io_bytes;
        layers.replayed_bytes += outcome.resource.crash_state_overlay_bytes;
        if outcome.skipped.is_some() {
            self.non_executable += 1;
            return;
        }
        self.tested += 1;
        layers.checkpoints_tested += u64::from(outcome.checkpoints_tested);
        layers.checkpoints_reused += u64::from(outcome.checkpoints_reused);
        self.divergences += outcome.triage_divergences.len() as u64;
        let start = Instant::now();
        for bug in outcome.bugs {
            shard.observe(bug);
        }
        layers.dedup += start.elapsed();
    }

    fn merge(&mut self, shard: &GroupTable) {
        let start = Instant::now();
        self.groups.merge_from(shard);
        self.layers.dedup += start.elapsed();
    }
}

/// Replays an in-process file-system sweep: one thread, one CrashMonkey
/// with a shared interner, triage reset at every shard start, and the
/// representative decision where the sweep prunes.
pub fn fs(sweep: &FsSweep) -> Replica {
    let mut replica = Replica::default();
    let start = Instant::now();
    let spec = FsSweep::spec();
    let monkey = CrashMonkey::with_interner(
        &spec,
        sweep.config.crashmonkey,
        Arc::new(EntryInterner::new()),
    );
    let canon_start = Instant::now();
    let classifier = (!sweep.prune.is_off()).then(|| Classifier::new(&sweep.bounds));
    replica.layers.ace_canon += canon_start.elapsed();
    for shard_index in 0..FS_SHARDS {
        let enumerate_start = Instant::now();
        let shard = sweep.bounds.shard(shard_index, FS_SHARDS);
        let mut generator = WorkloadGenerator::for_shard(sweep.bounds.clone(), &shard);
        replica.layers.ace_enumerate += enumerate_start.elapsed();
        monkey.reset_triage();
        let mut groups = GroupTable::new();
        loop {
            let enumerate_start = Instant::now();
            let next = generator.next();
            replica.layers.ace_enumerate += enumerate_start.elapsed();
            let Some(workload) = next else { break };
            if let Some(classifier) = &classifier {
                let canon_start = Instant::now();
                let class = classifier.classify(&workload.ops);
                replica.layers.ace_canon += canon_start.elapsed();
                if class.is_some_and(|class| !class.is_representative()) {
                    replica.pruned += 1;
                    continue;
                }
            }
            let test_start = Instant::now();
            let outcome = monkey.test_workload(&workload);
            replica.layers.cm_test += test_start.elapsed();
            replica.absorb(outcome, &mut groups);
        }
        replica.merge(&groups);
    }
    replica.layers.wall = start.elapsed();
    replica
}

/// Replays the distributed app sweep in process: the worker's shard loop,
/// the shard result's trip over the wire, and the coordinator's
/// checkpoint encoding of each shard's delta and of the final snapshot.
/// `checkpoint` is the end-to-end run's merged checkpoint.
pub fn app(checkpoint: &SweepCheckpoint) -> Result<Replica, String> {
    let mut replica = Replica::default();
    let start = Instant::now();
    let spec = app_spec();
    let harness = AppHarness::new(&spec, app_crashmonkey(), app_engine());
    let bounds = app_bounds();
    for shard_index in 0..APP_SHARDS {
        let enumerate_start = Instant::now();
        let shard = bounds.shard(shard_index, APP_SHARDS);
        let mut generator = TxnWorkloadGenerator::for_shard(bounds.clone(), &shard);
        replica.layers.app_enumerate += enumerate_start.elapsed();
        let mut groups = GroupTable::new();
        loop {
            let enumerate_start = Instant::now();
            let next = generator.next();
            replica.layers.app_enumerate += enumerate_start.elapsed();
            let Some(workload) = next else { break };
            let test_start = Instant::now();
            let outcome = harness.test_workload(&workload);
            replica.layers.app_test += test_start.elapsed();
            replica.absorb(outcome, &mut groups);
        }

        let wire_start = Instant::now();
        let mut encoder = Encoder::new();
        groups.encode(&mut encoder);
        let frame = encoder.finish();
        let received = GroupTable::decode(&mut Decoder::new(&frame));
        replica.layers.wire += wire_start.elapsed();
        let received = received.map_err(|e| format!("shard {shard_index} groups: {e}"))?;
        if received != groups {
            return Err(format!("shard {shard_index} groups changed over the wire"));
        }

        let delta = checkpoint.subset([shard_index as u32]);
        let encode_start = Instant::now();
        let bytes = delta.to_bytes();
        replica.layers.checkpoint_encode += encode_start.elapsed();
        replica.layers.checkpoint_bytes += bytes.len() as u64;
        replica.merge(&received);
    }
    let encode_start = Instant::now();
    let snapshot = checkpoint.to_bytes();
    replica.layers.checkpoint_encode += encode_start.elapsed();
    replica.layers.checkpoint_bytes += snapshot.len() as u64;
    replica.layers.wall = start.elapsed();
    Ok(replica)
}
