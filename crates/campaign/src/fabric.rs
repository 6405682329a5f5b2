//! A generic, checkpointable Monte-Carlo job fabric.
//!
//! Any embarrassingly-parallel job whose work items derive
//! deterministically from *global indices* can run on it and inherit three
//! guarantees. The execution itself is [`synergy_obs::exec`], the
//! workspace's one parallel executor; this module adds the job contract,
//! the merge frontier and checkpoints.
//!
//! 1. **Thread-count invariance.** Work splits into fixed-size shards;
//!    shard `i` covers items `[i·S, (i+1)·S)` and its result must be a
//!    pure function of `(job, i)` — never of the worker that ran it.
//!    Workers claim shards from a shared counter and results merge
//!    **in shard order**, so the final aggregate is bit-identical for any
//!    worker count (including floating-point sums, which see one fixed
//!    merge order).
//! 2. **Bounded memory at any fleet size.** Completed shards stream into
//!    a single running aggregate the moment they become the next in-order
//!    shard; only shards that finish ahead of a slower earlier one are
//!    buffered. A billion-item run costs the same memory as a
//!    thousand-item run.
//! 3. **Snapshot/resume.** The in-order merge maintains a *frontier*:
//!    `(watermark, aggregate)` where `aggregate` is exactly the merge of
//!    shards `[0, watermark)`. That pair — serialized as JSON via
//!    `synergy-obs` — is a complete [`Checkpoint`]: a killed run resumed
//!    from it re-claims shards from the watermark and produces the
//!    **bit-identical** final aggregate, because nothing about a shard's
//!    result or the merge order depends on where the run was cut
//!    (`tests/fleet_resume.rs` proves this property-based, at 1/2/8
//!    threads). Checkpoints are replaced atomically, so a kill during a
//!    write leaves the previous one intact.
//!
//! The differential campaign ([`crate::engine`]) and the fleet lifetime
//! simulator (`synergy-fleet`) are the two production jobs; the SCREME
//! framework ("A Scalable Framework for Resilient Memory Design") is the
//! design template for this streaming/checkpointing shape.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use synergy_obs::{exec, export, Json};

/// A mergeable, JSON-serializable shard result.
///
/// Merging must be associative with [`Aggregate::empty`] as identity, and
/// — because the fabric always merges in shard order — only *ordered*
/// associativity is required: floating-point sums qualify.
/// `from_json(parse(to_json(a))) == a` must hold exactly (bit-identical
/// resume depends on it; `f64` fields round-trip exactly through Rust's
/// shortest-representation `Display`).
pub trait Aggregate: Clone + Send + 'static {
    /// The merge identity.
    fn empty() -> Self;
    /// Folds another shard's aggregate into this one. The fabric always
    /// calls this with `other` the next shard in global order.
    fn merge(&mut self, other: &Self);
    /// Serializes to a JSON value (one self-contained document fragment).
    fn to_json(&self) -> String;
    /// Rebuilds from a parsed [`Json`] document. Exact inverse of
    /// [`to_json`](Aggregate::to_json).
    fn from_json(json: &Json) -> Result<Self, String>
    where
        Self: Sized;
}

/// A shardable Monte-Carlo job.
pub trait Job: Sync {
    /// The mergeable shard result.
    type Agg: Aggregate;

    /// Total work items (devices, injections, DIMM-lifetimes, ...).
    fn items(&self) -> u64;

    /// Items per shard. Fixed for the whole run (the final shard may be
    /// short); the shard decomposition — and with it every per-shard seed
    /// — must depend only on this and [`items`](Job::items), never on the
    /// worker count.
    fn shard_items(&self) -> u64;

    /// Runs items `[start, start + count)` and returns their aggregate.
    ///
    /// Must be a pure function of `(self, start, count)`: derive any RNG
    /// seed from `start` (a global index), never from worker identity or
    /// wall-clock. This is the entire determinism contract.
    fn run_shard(&self, start: u64, count: u64) -> Self::Agg;

    /// A stable string identifying the job's parameters. Recorded in
    /// every checkpoint; [`JobFabric::resume_from`] refuses a checkpoint
    /// whose fingerprint does not match, so a snapshot can never silently
    /// continue under different parameters.
    fn fingerprint(&self) -> String;
}

/// Fabric execution knobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FabricConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Write a checkpoint every N in-order-merged shards (None = only the
    /// final partial checkpoint of an interrupted run).
    pub checkpoint_every: Option<u64>,
    /// Where checkpoints go. `None` disables checkpointing entirely.
    pub checkpoint_path: Option<PathBuf>,
    /// Stop claiming work at this shard boundary — the deterministic
    /// stand-in for `kill -9` at an arbitrary point: shards `< stop` all
    /// complete and merge, nothing beyond is started, and (when a
    /// checkpoint path is set) the frontier is written so a later
    /// [`JobFabric::resume`] continues bit-identically.
    pub stop_after_shards: Option<u64>,
}

/// A serialized merge frontier: `aggregate` is exactly the in-order merge
/// of shards `[0, watermark)` of the job identified by `fingerprint`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<A> {
    /// [`Job::fingerprint`] of the run that wrote this.
    pub fingerprint: String,
    /// Shards in the full job (resume sanity check).
    pub total_shards: u64,
    /// Shards merged so far; resume re-claims from here.
    pub watermark: u64,
    /// Merge of shards `[0, watermark)`.
    pub aggregate: A,
}

const CHECKPOINT_FORMAT: &str = "synergy-fabric-v1";

impl<A: Aggregate> Checkpoint<A> {
    /// Renders the checkpoint as one JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"format\":\"{}\",\"fingerprint\":\"{}\",\"total_shards\":{},\"watermark\":{},\"aggregate\":{}}}",
            CHECKPOINT_FORMAT,
            export::json_escape(&self.fingerprint),
            self.total_shards,
            self.watermark,
            self.aggregate.to_json()
        )
    }

    /// Parses a document produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("checkpoint parse: {e}"))?;
        match doc.get("format").and_then(Json::as_str) {
            Some(CHECKPOINT_FORMAT) => {}
            other => return Err(format!("checkpoint format {other:?} != {CHECKPOINT_FORMAT:?}")),
        }
        let num = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("checkpoint: missing numeric '{k}'"))
        };
        Ok(Self {
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("checkpoint: missing 'fingerprint'")?
                .to_string(),
            total_shards: num("total_shards")?,
            watermark: num("watermark")?,
            aggregate: A::from_json(doc.get("aggregate").ok_or("checkpoint: missing 'aggregate'")?)?,
        })
    }

    /// Writes the checkpoint to `path` (parent directories are created).
    ///
    /// The document goes to a temporary file beside `path`, is synced to
    /// disk, and is then renamed over `path`. A crash or error mid-write
    /// therefore leaves the previous checkpoint intact.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let dir = path.parent().unwrap_or(Path::new(""));
        fs::create_dir_all(dir)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = fs::File::create(&tmp)?;
        file.write_all(self.to_json().as_bytes())?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable.
        #[cfg(unix)]
        fs::File::open(if dir.as_os_str().is_empty() { Path::new(".") } else { dir })?
            .sync_all()?;
        Ok(())
    }

    /// Reads a checkpoint back from `path`.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

/// The outcome of one fabric execution (complete or interrupted).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRun<A> {
    /// In-order merge of shards `[0, shards_done)`.
    pub aggregate: A,
    /// Shards merged (the watermark when the run stopped).
    pub shards_done: u64,
    /// Shards in the full job.
    pub total_shards: u64,
    /// Checkpoint files written during the run.
    pub checkpoints_written: u64,
}

impl<A> FabricRun<A> {
    /// True when every shard ran (the aggregate is the full job's).
    pub fn completed(&self) -> bool {
        self.shards_done == self.total_shards
    }
}

/// A job bound to a fabric configuration. See the [module docs](self).
pub struct JobFabric<J: Job> {
    job: J,
    cfg: FabricConfig,
}

impl<J: Job> JobFabric<J> {
    /// Binds `job` to `cfg`.
    pub fn new(job: J, cfg: FabricConfig) -> Self {
        Self { job, cfg }
    }

    /// The wrapped job.
    pub fn job(&self) -> &J {
        &self.job
    }

    /// Shards in the full job.
    pub fn total_shards(&self) -> u64 {
        shard_count(&self.job)
    }

    /// Runs from scratch.
    ///
    /// # Panics
    ///
    /// Panics when a checkpoint write fails; [`resume`](Self::resume) and
    /// [`resume_from`](Self::resume_from) return that as an error.
    pub fn run(&self) -> FabricRun<J::Agg> {
        self.resume_from(None).unwrap_or_else(|e| panic!("fabric run: {e}"))
    }

    /// Resumes from the configured checkpoint path when a checkpoint file
    /// exists there, otherwise runs from scratch. This is the `--resume`
    /// entry point: idempotent to call on a finished run (zero new shards).
    pub fn resume(&self) -> Result<FabricRun<J::Agg>, String> {
        let cp = match &self.cfg.checkpoint_path {
            Some(p) if p.exists() => Some(Checkpoint::read(p)?),
            _ => None,
        };
        self.resume_from(cp)
    }

    /// Runs the job, optionally continuing from `resume`.
    ///
    /// Errors on a checkpoint/job mismatch (wrong fingerprint,
    /// inconsistent shard counts) — never silently recomputes or
    /// continues under changed parameters — and on a failed checkpoint
    /// write, which stops the run.
    pub fn resume_from(
        &self,
        resume: Option<Checkpoint<J::Agg>>,
    ) -> Result<FabricRun<J::Agg>, String> {
        let total_shards = shard_count(&self.job);
        let shard_items = self.job.shard_items();
        let items = self.job.items();
        let (base, initial) = match resume {
            Some(cp) => {
                let fp = self.job.fingerprint();
                if cp.fingerprint != fp {
                    return Err(format!(
                        "checkpoint fingerprint mismatch:\n  checkpoint: {}\n  job:        {fp}",
                        cp.fingerprint
                    ));
                }
                if cp.total_shards != total_shards || cp.watermark > total_shards {
                    return Err(format!(
                        "checkpoint shards inconsistent: watermark {} of {} vs job total {}",
                        cp.watermark, cp.total_shards, total_shards
                    ));
                }
                (cp.watermark, cp.aggregate)
            }
            None => (0, J::Agg::empty()),
        };
        let limit = match self.cfg.stop_after_shards {
            Some(s) => s.clamp(base, total_shards),
            None => total_shards,
        };

        // Writes the frontier when checkpointing is on; returns how many
        // files it wrote (0 or 1).
        let checkpoint = |watermark: u64, merged: &J::Agg| match &self.cfg.checkpoint_path {
            Some(path) => self
                .write_checkpoint(path, watermark, merged)
                .map(|()| 1)
                .map_err(|e| format!("write checkpoint {}: {e}", path.display())),
            None => Ok(0),
        };
        let every = self.cfg.checkpoint_every.filter(|&every| every > 0);

        let mut merged = initial;
        let mut watermark = base;
        let mut checkpoints_written = 0;
        exec::run_ordered(
            base..limit,
            self.cfg.threads,
            |i| {
                let start = i * shard_items;
                self.job.run_shard(start, shard_items.min(items - start))
            },
            |_, agg| {
                merged.merge(&agg);
                watermark += 1;
                if every.is_some_and(|every| watermark % every == 0) && watermark < limit {
                    checkpoints_written += checkpoint(watermark, &merged)?;
                }
                Ok::<(), String>(())
            },
        )?;
        debug_assert_eq!(watermark, limit);
        // The run always leaves its final frontier behind when
        // checkpointing is on: an interrupted run becomes resumable even
        // when the kill boundary is not a checkpoint_every multiple, and a
        // completed run makes any later `resume()` an instant no-op.
        checkpoints_written += checkpoint(watermark, &merged)?;
        Ok(FabricRun { aggregate: merged, shards_done: watermark, total_shards, checkpoints_written })
    }

    /// Writes the frontier `(watermark, merged)` to `path` as a
    /// [`Checkpoint`].
    fn write_checkpoint(&self, path: &Path, watermark: u64, merged: &J::Agg) -> io::Result<()> {
        Checkpoint {
            fingerprint: self.job.fingerprint(),
            total_shards: self.total_shards(),
            watermark,
            aggregate: merged.clone(),
        }
        .write(path)
    }
}

fn shard_count<J: Job>(job: &J) -> u64 {
    let s = job.shard_items();
    assert!(s > 0, "shard_items must be positive");
    job.items().div_ceil(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy job: items are hashed, aggregate = (sum of hashes, count,
    /// f64 sum) — enough structure to catch order or loss bugs.
    struct HashJob {
        items: u64,
        shard: u64,
        salt: u64,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct HashAgg {
        sum: u64,
        n: u64,
        fsum: f64,
    }

    fn mix(x: u64) -> u64 {
        // splitmix64 finalizer.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl Aggregate for HashAgg {
        fn empty() -> Self {
            Self { sum: 0, n: 0, fsum: 0.0 }
        }
        fn merge(&mut self, other: &Self) {
            self.sum = self.sum.wrapping_add(other.sum);
            self.n += other.n;
            self.fsum += other.fsum;
        }
        fn to_json(&self) -> String {
            format!("{{\"sum\":{},\"n\":{},\"fsum\":{}}}", self.sum, self.n, self.fsum)
        }
        fn from_json(json: &Json) -> Result<Self, String> {
            Ok(Self {
                sum: json.get("sum").and_then(Json::as_f64).ok_or("sum")? as u64,
                n: json.get("n").and_then(Json::as_f64).ok_or("n")? as u64,
                fsum: json.get("fsum").and_then(Json::as_f64).ok_or("fsum")?,
            })
        }
    }

    impl Job for HashJob {
        type Agg = HashAgg;
        fn items(&self) -> u64 {
            self.items
        }
        fn shard_items(&self) -> u64 {
            self.shard
        }
        fn run_shard(&self, start: u64, count: u64) -> HashAgg {
            let mut a = HashAgg::empty();
            for i in start..start + count {
                // Keep sums < 2^53 so the JSON round-trip stays exact.
                let h = mix(i ^ self.salt) >> 20;
                a.sum = a.sum.wrapping_add(h);
                a.n += 1;
                a.fsum += h as f64 / 7.0;
            }
            a
        }
        fn fingerprint(&self) -> String {
            format!("hash-job items={} shard={} salt={:#x}", self.items, self.shard, self.salt)
        }
    }

    fn job(items: u64) -> HashJob {
        HashJob { items, shard: 64, salt: 0xABCD }
    }

    #[test]
    fn thread_count_invariant() {
        let baseline = JobFabric::new(job(1000), FabricConfig { threads: 1, ..Default::default() })
            .run();
        assert!(baseline.completed());
        assert_eq!(baseline.aggregate.n, 1000);
        for threads in [2, 8] {
            let r = JobFabric::new(job(1000), FabricConfig { threads, ..Default::default() }).run();
            assert_eq!(baseline, r, "threads={threads} diverged");
        }
    }

    #[test]
    fn kill_then_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("fabric-test-{}", std::process::id()));
        let path = dir.join("hash.ckpt.json");
        let uninterrupted =
            JobFabric::new(job(1000), FabricConfig { threads: 2, ..Default::default() }).run();

        for kill_at in [1u64, 7, 15] {
            let cfg = FabricConfig {
                threads: 2,
                checkpoint_every: Some(4),
                checkpoint_path: Some(path.clone()),
                stop_after_shards: Some(kill_at),
            };
            let partial = JobFabric::new(job(1000), cfg.clone()).run();
            assert!(!partial.completed());
            assert_eq!(partial.shards_done, kill_at);
            assert!(partial.checkpoints_written > 0, "interrupted run must checkpoint");

            let resumed = JobFabric::new(
                job(1000),
                FabricConfig { stop_after_shards: None, ..cfg },
            )
            .resume()
            .expect("resume");
            assert!(resumed.completed());
            assert_eq!(resumed.aggregate, uninterrupted.aggregate, "kill_at={kill_at}");
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_checkpoint_write_keeps_the_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("fabric-fail-{}", std::process::id()));
        let path = dir.join("hash.ckpt.json");
        let cfg = FabricConfig {
            threads: 2,
            checkpoint_every: Some(2),
            checkpoint_path: Some(path.clone()),
            stop_after_shards: Some(5),
        };
        JobFabric::new(job(1000), cfg.clone()).run();
        let before = fs::read(&path).expect("interrupted run left a checkpoint");
        // A directory where the temporary file goes makes the next write fail.
        fs::create_dir(dir.join("hash.ckpt.json.tmp")).unwrap();
        let err = JobFabric::new(job(1000), FabricConfig { stop_after_shards: None, ..cfg })
            .resume()
            .unwrap_err();
        assert!(err.contains("write checkpoint"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), before, "previous checkpoint changed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_mismatched_fingerprint() {
        let cp = Checkpoint {
            fingerprint: "some other job".to_string(),
            total_shards: 16,
            watermark: 4,
            aggregate: HashAgg::empty(),
        };
        let fab = JobFabric::new(job(1000), FabricConfig::default());
        let err = fab.resume_from(Some(cp)).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = Checkpoint {
            fingerprint: "hash-job \"quoted\"".to_string(),
            total_shards: 16,
            watermark: 9,
            aggregate: HashAgg { sum: 12345, n: 576, fsum: 88.125 },
        };
        let back = Checkpoint::<HashAgg>::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn shard_size_does_not_change_integer_aggregates() {
        // Per-shard work derives from global indices, so the decomposition
        // granularity is invisible in integer aggregates. (f64 sums round
        // per the merge order, so bit-identity across *shard sizes* only
        // covers integer fields; at a fixed shard size the merge order is
        // fixed and even f64 fields are bit-identical — that is the
        // kill/resume contract.)
        let a = JobFabric::new(
            HashJob { items: 777, shard: 64, salt: 1 },
            FabricConfig { threads: 2, ..Default::default() },
        )
        .run();
        let b = JobFabric::new(
            HashJob { items: 777, shard: 13, salt: 1 },
            FabricConfig { threads: 3, ..Default::default() },
        )
        .run();
        assert_eq!(a.aggregate.sum, b.aggregate.sum);
        assert_eq!(a.aggregate.n, b.aggregate.n);
        let rel = (a.aggregate.fsum - b.aggregate.fsum).abs() / a.aggregate.fsum.abs();
        assert!(rel < 1e-12, "f64 sums agree to rounding: {rel}");
    }

    #[test]
    fn resume_of_a_finished_run_is_an_instant_no_op() {
        let dir = std::env::temp_dir().join(format!("fabric-noop-{}", std::process::id()));
        let path = dir.join("hash.ckpt.json");
        let cfg = FabricConfig {
            threads: 1,
            checkpoint_every: Some(2),
            checkpoint_path: Some(path.clone()),
            stop_after_shards: Some(5),
        };
        let partial = JobFabric::new(job(600), cfg.clone()).run();
        assert_eq!(partial.shards_done, 5);
        let finish_cfg = FabricConfig { stop_after_shards: None, ..cfg };
        let full = JobFabric::new(job(600), finish_cfg.clone()).resume().unwrap();
        assert!(full.completed());
        // The completed run wrote its final frontier, so resuming again
        // re-runs zero shards and returns the identical aggregate.
        let again = JobFabric::new(job(600), finish_cfg).resume().unwrap();
        assert!(again.completed());
        assert_eq!(again.aggregate, full.aggregate);
        std::fs::remove_dir_all(&dir).ok();
    }
}
