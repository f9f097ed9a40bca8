//! Pre-trained model caching.
//!
//! Pre-training dominates the cost of every figure regeneration, and every
//! method comparison starts from the *same* pre-trained network. This
//! module memoizes pre-training outcomes (a) in-process and (b) on disk
//! under `NCL_CACHE_DIR` (default `target/ncl-cache`), keyed by a hash of
//! every configuration field that influences pre-training.
//!
//! Concurrent callers — the `ncl_runtime` engine runs many scenarios at
//! once, typically sharing one pre-train key — are *single-flighted*: a
//! per-key in-flight guard lets the first caller train while the rest
//! block on the guard and then read the freshly-memoized entry, so a key
//! is never trained twice however many workers race on it.
//!
//! Disk-cache persistence failures are non-fatal but no longer silent:
//! they are logged to stderr unless `NCL_CACHE_QUIET` is set.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use ncl_snn::{serialize, Network};

use crate::config::ScenarioConfig;
use crate::error::NclError;
use crate::phases;

/// In-process memo of pre-trained networks.
static MEMO: OnceLock<Mutex<HashMap<u64, (Network, f64)>>> = OnceLock::new();

/// Per-key in-flight guards: the mutex a caller must hold while producing
/// the entry for that key. Entries are tiny and keyed by config hash, so
/// they are kept for the process lifetime.
static INFLIGHT: OnceLock<Mutex<HashMap<u64, Arc<Mutex<()>>>>> = OnceLock::new();

/// Per-key count of *actual* pre-training runs (not cache hits), for the
/// single-flight tests.
#[cfg(test)]
static TRAIN_RUNS: OnceLock<Mutex<HashMap<u64, u64>>> = OnceLock::new();

fn memo() -> &'static Mutex<HashMap<u64, (Network, f64)>> {
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

fn inflight_gate(key: u64) -> Arc<Mutex<()>> {
    let gates = INFLIGHT.get_or_init(|| Mutex::new(HashMap::new()));
    Arc::clone(gates.lock().entry(key).or_default())
}

/// How many times `key` was actually pre-trained (in this process), as
/// opposed to served from the memo or disk cache. With the single-flight
/// guard this stays at 1 per key no matter how many threads race.
#[cfg(test)]
fn training_runs(key: u64) -> u64 {
    TRAIN_RUNS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .get(&key)
        .copied()
        .unwrap_or(0)
}

#[cfg(test)]
fn record_training_run(key: u64) {
    *TRAIN_RUNS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .entry(key)
        .or_insert(0) += 1;
}

/// Hash of every config field pre-training depends on. The insertion
/// layer, CL epochs and profile are deliberately excluded — they only
/// affect the CL phase, so figure sweeps over them share one cache entry.
#[must_use]
fn pretrain_key(config: &ScenarioConfig) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{:?}", config.data).hash(&mut hasher);
    format!("{:?}", config.network).hash(&mut hasher);
    config.pretrain_epochs.hash(&mut hasher);
    config.pretrain_lr.to_bits().hash(&mut hasher);
    config.batch_size.hash(&mut hasher);
    config.seed.hash(&mut hasher);
    hasher.finish()
}

fn cache_dir() -> PathBuf {
    std::env::var_os("NCL_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/ncl-cache"))
}

fn cache_path(key: u64) -> PathBuf {
    cache_dir().join(format!("pretrain-{key:016x}.snn"))
}

/// Whether disk-cache warnings are suppressed (`NCL_CACHE_QUIET` set to
/// anything but `0` or the empty string).
#[must_use]
fn warnings_suppressed() -> bool {
    std::env::var_os("NCL_CACHE_QUIET").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Persistence failures only cost future retraining, but they must not
/// disappear invisibly: a mis-set `NCL_CACHE_DIR` would otherwise silently
/// retrain on every process start.
fn warn_persist_failed(path: &Path, error: &std::io::Error) {
    if !warnings_suppressed() {
        eprintln!(
            "replay4ncl::cache: warning: failed to persist pre-trained model to {} ({error}); \
             set NCL_CACHE_QUIET=1 to silence",
            path.display()
        );
    }
}

/// Returns the pre-trained network and its old-class test accuracy for a
/// scenario, training it on first use and reusing the in-process/on-disk
/// cache afterwards.
///
/// Concurrent callers with the same pre-train key are single-flighted: one
/// trains, the rest block and reuse its result. Disk-cache write failures
/// still return the trained result but are logged to stderr (silence with
/// `NCL_CACHE_QUIET`); malformed cache files are ignored and retrained.
///
/// # Errors
///
/// Returns [`NclError`] if the configuration is invalid or training fails.
pub fn pretrained_network(config: &ScenarioConfig) -> Result<(Network, f64), NclError> {
    config.validate()?;
    let key = pretrain_key(config);

    if let Some(hit) = memo().lock().get(&key) {
        return Ok(hit.clone());
    }

    // Serialize producers of this key. Whoever wins the gate trains (or
    // loads from disk) and memoizes; the losers block here, then find the
    // memo populated. Failures release the gate so the next caller retries.
    let gate = inflight_gate(key);
    let _guard = gate.lock();
    if let Some(hit) = memo().lock().get(&key) {
        return Ok(hit.clone());
    }

    let path = cache_path(key);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(network) = serialize::from_bytes(&bytes) {
            let acc = evaluate_pretrain(config, &network)?;
            let entry = (network, acc);
            memo().lock().insert(key, entry.clone());
            return Ok(entry);
        }
    }

    let outcome = phases::pretrain(config)?;
    #[cfg(test)]
    record_training_run(key);
    let entry = (outcome.network, outcome.test_acc);
    match std::fs::create_dir_all(cache_dir()) {
        Ok(()) => {
            if let Err(e) = std::fs::write(&path, serialize::to_bytes(&entry.0)) {
                warn_persist_failed(&path, &e);
            }
        }
        Err(e) => warn_persist_failed(&path, &e),
    }
    memo().lock().insert(key, entry.clone());
    Ok(entry)
}

/// Re-evaluates a (possibly disk-loaded) pre-trained network on the
/// scenario's old-class test split.
fn evaluate_pretrain(config: &ScenarioConfig, network: &Network) -> Result<f64, NclError> {
    let data = phases::scenario_data(config)?;
    let split = phases::scenario_split(config)?;
    let test = split.pretrain_subset(&data.test);
    let refs = phases::sample_refs(&test);
    let acc = ncl_snn::trainer::evaluate(
        network,
        &refs,
        0,
        ncl_snn::adaptive::ThresholdMode::Constant,
    )?;
    Ok(acc.top1())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        let mut c = ScenarioConfig::smoke();
        c.pretrain_epochs = 2;
        c.seed = 9912; // distinct cache key for this test module
        c
    }

    #[test]
    fn key_is_stable_and_selective() {
        let a = tiny();
        assert_eq!(pretrain_key(&a), pretrain_key(&a.clone()));
        // CL-only fields do not change the key.
        let mut b = a.clone();
        b.cl_epochs += 10;
        b.insertion_layer = 0;
        assert_eq!(pretrain_key(&a), pretrain_key(&b));
        // Pre-training fields do.
        let mut c = a.clone();
        c.pretrain_epochs += 1;
        assert_ne!(pretrain_key(&a), pretrain_key(&c));
        let mut d = a.clone();
        d.data.seed += 1;
        assert_ne!(pretrain_key(&a), pretrain_key(&d));
    }

    #[test]
    fn memo_returns_identical_network() {
        let config = tiny();
        let (n1, a1) = pretrained_network(&config).unwrap();
        let (n2, a2) = pretrained_network(&config).unwrap();
        assert_eq!(n1, n2);
        assert!((a1 - a2).abs() < 1e-12);
    }

    #[test]
    fn invalid_config_is_rejected_before_cache() {
        let mut config = tiny();
        config.batch_size = 0;
        assert!(pretrained_network(&config).is_err());
    }

    /// A seed no other test or earlier process used: a warm memo or a
    /// stale on-disk entry for the key would bypass training and break the
    /// `training_runs` accounting these tests assert on.
    fn unused_seed(salt: u64) -> u64 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64);
        (u64::from(std::process::id()) << 32) ^ (nanos << 8) ^ salt
    }

    /// Removes the on-disk entry a fresh-key test persisted: the key is
    /// unique by construction, so the file could never be reused and would
    /// only accumulate as garbage under the cache dir.
    fn discard_disk_entry(key: u64) {
        let _ = std::fs::remove_file(cache_path(key));
    }

    #[test]
    fn concurrent_callers_single_flight_one_training() {
        let mut config = tiny();
        config.seed = unused_seed(1);
        let key = pretrain_key(&config);
        assert_eq!(training_runs(key), 0, "key must start untrained");

        let outcomes: Vec<(Network, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let config = config.clone();
                    scope.spawn(move || pretrained_network(&config).expect("pretrain"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });

        assert_eq!(
            training_runs(key),
            1,
            "4 racing callers must train exactly once"
        );
        for (network, acc) in &outcomes[1..] {
            assert_eq!(network, &outcomes[0].0);
            assert!((acc - outcomes[0].1).abs() < 1e-12);
        }
        discard_disk_entry(key);
    }

    #[test]
    fn distinct_keys_do_not_serialize_each_other() {
        // Two different keys trained concurrently: both train (no false
        // sharing of the in-flight guard).
        let mut a = tiny();
        a.seed = unused_seed(2);
        let mut b = a.clone();
        b.seed += 1;
        std::thread::scope(|scope| {
            let ha = scope.spawn(|| pretrained_network(&a).expect("a"));
            let hb = scope.spawn(|| pretrained_network(&b).expect("b"));
            ha.join().expect("a join");
            hb.join().expect("b join");
        });
        assert_eq!(training_runs(pretrain_key(&a)), 1);
        assert_eq!(training_runs(pretrain_key(&b)), 1);
        discard_disk_entry(pretrain_key(&a));
        discard_disk_entry(pretrain_key(&b));
    }

    #[test]
    fn quiet_flag_parsing() {
        // Do not mutate the environment here (tests run concurrently);
        // with the variable unset, warnings are enabled.
        if std::env::var_os("NCL_CACHE_QUIET").is_none() {
            assert!(!warnings_suppressed());
        }
    }
}
