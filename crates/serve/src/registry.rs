//! The model registry: named, versioned, hot-swappable models.
//!
//! A registry maps names to *version chains*. Each name owns a slot whose
//! current version sits behind an atomically swappable pointer
//! (`RwLock<Arc<ModelEntry>>` plus a monotonically increasing *epoch*):
//! [`ModelRegistry::publish`] installs a new version without ever making
//! predict traffic wait on anything slower than one uncontended read
//! lock. Scheduler workers cache the epoch alongside their replica and
//! refresh at batch boundaries when it moves, so an in-flight batch
//! always finishes on the version it started with — a swap can never
//! error a request or change a response mid-batch.
//!
//! Each version is decoded once at registration to validate it and
//! extract its spec, then kept as bytes; serving workers instantiate
//! *replicas* on demand — decoding rebuilds the architecture from the
//! spec and imports the exact state, so every replica predicts bitwise
//! identically to the model that was saved. Every version is stamped with
//! a 128-bit content fingerprint of its container bytes (the same FNV-1a
//! construction as the artifact store), reported to clients so they can
//! pin the exact model revision they are talking to. Each version also
//! carries its always-on live-traffic counters, which the scheduler
//! charges and [`ModelRegistry::traffic`] reports.
//!
//! Registries load from a directory of `<name>.dmmd` /
//! `<name>@vN.dmmd` files ([`ModelRegistry::open`]) or take live models
//! in process ([`ModelRegistry::register`]). A directory-backed registry
//! persists published versions as `<name>@vN.dmmd` plus a
//! `<name>@vN.meta.json` sidecar, so a restart resumes serving the
//! repaired version.
//!
//! The `<name>.meta.json` sidecar supplies the [`DiagnosisContext`] the
//! live diagnosis and repair endpoints need — which deterministic dataset
//! (and seed), what defect was injected into the training set, and the
//! training hyper-parameters, so the server can regenerate the model's
//! actual training data and retrain without shipping either.
//!
//! # Crash consistency and recovery
//!
//! Publishing persists sidecar-then-model through tmp+rename, so the model
//! file's rename is the commit point. [`ModelRegistry::open`] is the other
//! half of that contract: stale `.tmp` files, truncated/corrupt `*.dmmd`
//! containers, and unparseable sidecars are *quarantined* (moved into a
//! `quarantine/` subdirectory) instead of failing startup — a crashed or
//! torn publish can cost at most the version it was publishing, never the
//! chain. Chains can also be *rolled back* ([`ModelRegistry::rollback`])
//! and bounded by a retention policy ([`ModelRegistry::set_retention`])
//! whose GC refuses to delete versions pinned by in-flight diagnosis
//! sessions ([`ModelRegistry::pin_version`]).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use deepmorph::prelude::{DefectSpec, Scenario};
use deepmorph_data::DatasetKind;
use deepmorph_json::Json;
use deepmorph_models::{decode_model, encode_model, ModelHandle, ModelSpec};
use deepmorph_nn::prelude::{ComputeCtx, Precision, TrainConfig};
use deepmorph_nn::train::OptimizerKind;

pub use deepmorph::artifact::content_fingerprint;

use crate::error::{ServeError, ServeResult};
use crate::protocol::{ModelInfo, VersionInfo, VersionTraffic};
use crate::sync::{LockRecover, RwRecover};

/// File extension of a registry model container.
pub const MODEL_EXT: &str = "dmmd";

/// File suffix of a registry diagnosis sidecar.
pub const META_SUFFIX: &str = ".meta.json";

/// What the live-diagnosis and repair endpoints need to know about a
/// model's provenance: the deterministic training data it was fitted on
/// (including the defect injected into it — the paper's scenarios train
/// on *defective* data, and a repair has to modify that actual training
/// set), the held-out set size, and the training hyper-parameters a
/// repair retrains with.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisContext {
    /// Synthetic dataset family the model was trained on.
    pub dataset: DatasetKind,
    /// Seed of the scenario data stream.
    pub seed: u64,
    /// Training samples generated per class (before injection).
    pub train_per_class: usize,
    /// Held-out samples generated per class (the clean test set repair
    /// gating evaluates on).
    pub test_per_class: usize,
    /// The defect injected into the training set ([`DefectSpec::Healthy`]
    /// when the data is clean).
    pub defect: DefectSpec,
    /// Training hyper-parameters a repair retrains with.
    pub train: TrainConfig,
}

impl DiagnosisContext {
    /// A context with the scenario defaults: clean data, 30 held-out
    /// samples per class, and the stock scenario training configuration
    /// (4 epochs, batch 32, lr 0.05).
    pub fn new(dataset: DatasetKind, seed: u64, train_per_class: usize) -> Self {
        DiagnosisContext {
            dataset,
            seed,
            train_per_class,
            test_per_class: 30,
            defect: DefectSpec::Healthy,
            train: TrainConfig {
                epochs: 4,
                batch_size: 32,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
        }
    }

    fn defect_json(&self) -> Json {
        match &self.defect {
            DefectSpec::Healthy => Json::obj([("kind", Json::str("healthy"))]),
            DefectSpec::Itd { classes, fraction } => Json::obj([
                ("kind", Json::str("itd")),
                (
                    "classes",
                    Json::arr(classes.iter().map(|&c| Json::usize(c))),
                ),
                ("fraction", Json::num(f64::from(*fraction))),
            ]),
            DefectSpec::Utd {
                source_class,
                target_class,
                fraction,
            } => Json::obj([
                ("kind", Json::str("utd")),
                ("source", Json::usize(*source_class)),
                ("target", Json::usize(*target_class)),
                ("fraction", Json::num(f64::from(*fraction))),
            ]),
            DefectSpec::Sd { removed_convs } => Json::obj([
                ("kind", Json::str("sd")),
                ("removed_convs", Json::usize(*removed_convs)),
            ]),
        }
    }

    fn train_json(&self) -> Json {
        let optimizer = match self.train.optimizer {
            OptimizerKind::Sgd {
                momentum,
                weight_decay,
            } => Json::obj([
                ("kind", Json::str("sgd")),
                ("momentum", Json::num(f64::from(momentum))),
                ("weight_decay", Json::num(f64::from(weight_decay))),
            ]),
            OptimizerKind::Adam => Json::obj([("kind", Json::str("adam"))]),
        };
        let mut fields = vec![
            ("epochs", Json::usize(self.train.epochs)),
            ("batch_size", Json::usize(self.train.batch_size)),
            (
                "learning_rate",
                Json::num(f64::from(self.train.learning_rate)),
            ),
            ("lr_decay", Json::num(f64::from(self.train.lr_decay))),
            ("optimizer", optimizer),
            ("shuffle", Json::Bool(self.train.shuffle)),
        ];
        if let Some(clip) = self.train.clip_grad_norm {
            fields.push(("clip_grad_norm", Json::num(f64::from(clip))));
        }
        Json::obj(fields)
    }

    /// Serializes the context as the sidecar JSON document.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("dataset", Json::str(self.dataset.name())),
            ("seed", Json::num(self.seed as f64)),
            ("train_per_class", Json::usize(self.train_per_class)),
            ("test_per_class", Json::usize(self.test_per_class)),
            ("defect", self.defect_json()),
            ("train", self.train_json()),
        ])
        .to_string_pretty()
    }

    fn parse_defect(doc: &Json) -> ServeResult<DefectSpec> {
        let bad = |reason: String| ServeError::BadInput { reason };
        let Some(defect) = doc.get("defect") else {
            // Pre-versioning sidecars carry no defect: clean data.
            return Ok(DefectSpec::Healthy);
        };
        let fraction = |d: &Json| {
            d.get("fraction")
                .and_then(Json::as_f64)
                .filter(|f| (0.0..=1.0).contains(f))
                .map(|f| f as f32)
                .ok_or_else(|| bad("defect lacks a `fraction` in [0, 1]".into()))
        };
        match defect.get("kind").and_then(Json::as_str) {
            Some("healthy") => Ok(DefectSpec::Healthy),
            Some("itd") => {
                let classes = defect
                    .get("classes")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().map(Json::as_usize).collect::<Option<Vec<_>>>())
                    .ok_or_else(|| bad("ITD defect lacks `classes`".into()))?
                    .ok_or_else(|| bad("ITD defect classes must be integers".into()))?;
                Ok(DefectSpec::insufficient_training_data(
                    classes,
                    fraction(defect)?,
                ))
            }
            Some("utd") => {
                let field = |k: &str| {
                    defect
                        .get(k)
                        .and_then(Json::as_usize)
                        .ok_or_else(|| bad(format!("UTD defect lacks `{k}`")))
                };
                Ok(DefectSpec::unreliable_training_data(
                    field("source")?,
                    field("target")?,
                    fraction(defect)?,
                ))
            }
            Some("sd") => Ok(DefectSpec::structure_defect(
                defect
                    .get("removed_convs")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| bad("SD defect lacks `removed_convs`".into()))?,
            )),
            Some(other) => Err(bad(format!("unknown defect kind `{other}`"))),
            None => Err(bad("defect lacks `kind`".into())),
        }
    }

    /// Parses a sidecar JSON document. Fields added since the first
    /// sidecar revision (defect, held-out size, training config) fall back
    /// to the scenario defaults, so old sidecars keep working.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for unparseable JSON, missing
    /// required keys, or an unknown dataset/defect.
    pub fn from_json(text: &str) -> ServeResult<Self> {
        let bad = |reason: String| ServeError::BadInput { reason };
        let doc = Json::parse(text).map_err(|e| bad(format!("diagnosis sidecar: {e}")))?;
        let dataset = match doc.get("dataset").and_then(Json::as_str) {
            Some("synth-digits") | Some("digits") => DatasetKind::Digits,
            Some("synth-objects") | Some("objects") => DatasetKind::Objects,
            Some(other) => return Err(bad(format!("unknown dataset `{other}`"))),
            None => return Err(bad("diagnosis sidecar lacks `dataset`".into())),
        };
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .ok_or_else(|| bad("diagnosis sidecar lacks an integral `seed`".into()))?
            as u64;
        let train_per_class = doc
            .get("train_per_class")
            .and_then(Json::as_usize)
            .filter(|&n| n > 0)
            .ok_or_else(|| bad("diagnosis sidecar lacks a positive `train_per_class`".into()))?;
        let mut ctx = DiagnosisContext::new(dataset, seed, train_per_class);
        if let Some(n) = doc.get("test_per_class").and_then(Json::as_usize) {
            if n == 0 {
                return Err(bad("`test_per_class` must be positive".into()));
            }
            ctx.test_per_class = n;
        }
        ctx.defect = Self::parse_defect(&doc)?;
        if let Some(train) = doc.get("train") {
            if let Some(epochs) = train.get("epochs").and_then(Json::as_usize) {
                ctx.train.epochs = epochs;
            }
            if let Some(batch) = train.get("batch_size").and_then(Json::as_usize) {
                ctx.train.batch_size = batch;
            }
            if let Some(lr) = train.get("learning_rate").and_then(Json::as_f64) {
                ctx.train.learning_rate = lr as f32;
            }
            if let Some(decay) = train.get("lr_decay").and_then(Json::as_f64) {
                ctx.train.lr_decay = decay as f32;
            }
            if let Some(shuffle) = train.get("shuffle").and_then(Json::as_bool) {
                ctx.train.shuffle = shuffle;
            }
            ctx.train.clip_grad_norm = train
                .get("clip_grad_norm")
                .and_then(Json::as_f64)
                .map(|c| c as f32);
            if let Some(optimizer) = train.get("optimizer") {
                ctx.train.optimizer = match optimizer.get("kind").and_then(Json::as_str) {
                    Some("sgd") => {
                        let field = |k: &str| {
                            optimizer
                                .get(k)
                                .and_then(Json::as_f64)
                                .map(|v| v as f32)
                                .ok_or_else(|| bad(format!("sgd optimizer lacks `{k}`")))
                        };
                        OptimizerKind::Sgd {
                            momentum: field("momentum")?,
                            weight_decay: field("weight_decay")?,
                        }
                    }
                    Some("adam") => OptimizerKind::Adam,
                    Some(other) => return Err(bad(format!("unknown optimizer `{other}`"))),
                    None => return Err(bad("optimizer lacks `kind`".into())),
                };
            }
        }
        Ok(ctx)
    }
}

impl From<&Scenario> for DiagnosisContext {
    /// The provenance of a model trained under `scenario`: its dataset,
    /// seed, data sizes, injected defect and training configuration.
    fn from(scenario: &Scenario) -> Self {
        DiagnosisContext {
            dataset: scenario.dataset(),
            seed: scenario.seed(),
            train_per_class: scenario.train_per_class(),
            test_per_class: scenario.test_per_class(),
            defect: scenario.defect().clone(),
            train: scenario.train_config().clone(),
        }
    }
}

/// A stable handle to one registered model name. Handles index the
/// registry's slot table, which only grows before serving starts —
/// they stay valid across any number of version swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub(crate) usize);

impl ModelId {
    /// Slot index for registry-parallel server tables.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Live-traffic counters of one model version, always on: the atomic
/// counterpart of [`VersionTraffic`], field for field. Every
/// [`ModelEntry`] clone of the version shares one block, so a
/// serving-mode swap keeps counting where the version left off.
#[derive(Debug, Default)]
pub(crate) struct TrafficCounters {
    pub(crate) requests: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) labeled: AtomicU64,
    pub(crate) misclassified: AtomicU64,
}

/// One concrete model version.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Registered name (without the `@vN` version suffix).
    pub name: String,
    /// Version number within the name's chain (starts at 1).
    pub version: u32,
    /// Content fingerprint of the container bytes (32 hex chars).
    pub fingerprint: String,
    /// The spec the model was built from.
    pub spec: ModelSpec,
    /// Trainable parameter count.
    pub param_count: usize,
    /// Training-data provenance for live diagnosis, when known.
    pub diagnosis: Option<DiagnosisContext>,
    /// Inference precision serving replicas of this version run at.
    /// Always [`Precision::F32`] for freshly registered/published
    /// versions; [`ModelRegistry::set_serving_mode`] installs quantized
    /// serving variants. Diagnosis and repair always work on the f32
    /// parameters ([`ModelEntry::instantiate`]), never the quantized view.
    pub precision: Precision,
    /// The encoded model container.
    bytes: Vec<u8>,
    /// This version's live-traffic counters, charged by the scheduler.
    pub(crate) counters: Arc<TrafficCounters>,
}

impl ModelEntry {
    /// The entry as wire metadata.
    pub fn info(&self) -> ModelInfo {
        ModelInfo {
            name: self.name.clone(),
            version: self.version,
            fingerprint: self.fingerprint.clone(),
            input_shape: self.spec.input_shape,
            num_classes: self.spec.num_classes,
            param_count: self.param_count as u64,
        }
    }

    /// Builds an independent replica of this version: the spec rebuilds
    /// the architecture, the stored state dict restores the exact
    /// parameters. Replicas share no storage, so each serving worker owns
    /// its own and forwards concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] if the stored bytes no longer decode
    /// against the current architecture code.
    pub fn instantiate(&self) -> ServeResult<ModelHandle> {
        Ok(decode_model(&self.bytes)?)
    }

    /// A point-in-time copy of this version's live-traffic counters
    /// (relaxed loads).
    pub fn traffic(&self) -> VersionTraffic {
        let c = &self.counters;
        VersionTraffic {
            fingerprint: self.fingerprint.clone(),
            requests: c.requests.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            labeled: c.labeled.load(Ordering::Relaxed),
            misclassified: c.misclassified.load(Ordering::Relaxed),
        }
    }

    /// A clone of this version with a different serving precision. Same
    /// bytes, same fingerprint, same version number, same traffic
    /// counters — only how serving replicas are prepared changes.
    /// Constructed here because the container bytes are private to the
    /// registry.
    pub fn with_serving_mode(&self, precision: Precision) -> ModelEntry {
        let mut entry = self.clone();
        entry.precision = precision;
        entry
    }

    /// Builds a replica prepared for *serving*: instantiates the f32
    /// model and applies the entry's serving precision. At f32 (on the
    /// scalar reference backend) that packs every dense and conv weight
    /// once for the GEMM, so batches skip the per-call packing while the
    /// logits stay bitwise equal to those of a model built by
    /// [`ModelEntry::instantiate`]; the replica holds one extra copy of
    /// those weights. At i8 it binds [`ComputeCtx::auto`] and quantizes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] if the bytes no longer decode or the
    /// precision cannot be applied.
    pub fn instantiate_for_serving(&self) -> ServeResult<ModelHandle> {
        let mut model = self.instantiate()?;
        if self.precision != Precision::F32 {
            model.bind_compute(&ComputeCtx::auto());
        }
        model
            .apply_precision(self.precision)
            .map_err(|e| ServeError::Model {
                reason: format!("applying {} serving precision: {e}", self.precision),
            })?;
        Ok(model)
    }
}

/// Metadata of one (possibly superseded) version in a chain.
#[derive(Debug, Clone)]
struct VersionMeta {
    version: u32,
    fingerprint: String,
    /// The decoded entry of a *superseded* version, kept in memory so a
    /// rollback can restore it without touching disk. `None` for the
    /// active version, for versions GC'd from memory, and for superseded
    /// versions discovered by `open` (those reload from their `@vN` file).
    retained: Option<Arc<ModelEntry>>,
}

/// One name's version chain: the swappable current version plus the
/// chain's history.
#[derive(Debug)]
struct ModelSlot {
    name: String,
    /// `(epoch, current version)` — kept together under one lock so a
    /// reader can never pair a new epoch with an old entry or vice versa.
    current: RwLock<(u64, Arc<ModelEntry>)>,
    /// Lock-free mirror of the epoch for the scheduler's per-batch
    /// staleness check (one atomic load on the hot path; the read lock is
    /// only taken when the epoch actually moved).
    epoch_hint: AtomicU64,
    /// Every version ever registered under this name, oldest first.
    history: Mutex<Vec<VersionMeta>>,
}

/// A named collection of versioned models the server answers for.
#[derive(Debug)]
pub struct ModelRegistry {
    slots: Vec<ModelSlot>,
    /// Directory published versions persist into (`None` = memory-only).
    dir: Option<PathBuf>,
    /// How many superseded versions each chain keeps (`usize::MAX` =
    /// unlimited, the default — GC never runs).
    retention: AtomicUsize,
    /// Version-pin refcounts keyed by fingerprint: GC skips any version
    /// with a live [`VersionPin`] (diagnosis sessions hold one).
    pins: Arc<Mutex<HashMap<String, usize>>>,
    /// Files `open` moved into `quarantine/` instead of serving.
    quarantined: Vec<PathBuf>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry {
            slots: Vec::new(),
            dir: None,
            retention: AtomicUsize::new(usize::MAX),
            pins: Arc::default(),
            quarantined: Vec::new(),
        }
    }
}

/// A refcount keeping one version's files safe from retention GC for as
/// long as the pin is alive. Held by memoized diagnosis sessions, whose
/// footprints and repair plans are only meaningful against the exact
/// version they were computed from.
#[derive(Debug)]
pub struct VersionPin {
    pins: Arc<Mutex<HashMap<String, usize>>>,
    fingerprint: String,
}

impl VersionPin {
    /// Fingerprint of the pinned version.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

impl Drop for VersionPin {
    fn drop(&mut self) {
        let mut pins = self.pins.lock_recover();
        if let Some(count) = pins.get_mut(&self.fingerprint) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.fingerprint);
            }
        }
    }
}

/// Splits a file stem into `(base name, version)`: `"m@v3"` → `("m", 3)`,
/// `"m"` → `("m", 1)`. The `@vN` suffix (N ≥ 1) is *reserved* as the
/// version marker; any other stem — including ones that merely resemble
/// it, like `m@vnext` or `m@v0` — is a plain model name at version 1,
/// so no file is ever silently skipped.
fn parse_stem(stem: &str) -> (&str, u32) {
    if let Some((base, v)) = stem.rsplit_once("@v") {
        if !base.is_empty() {
            if let Some(v) = v.parse().ok().filter(|&v| v >= 1) {
                return (base, v);
            }
        }
    }
    (stem, 1)
}

impl ModelRegistry {
    /// An empty, memory-only registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Loads every `*.dmmd` file in `dir`, grouping `<name>.dmmd`
    /// (version 1) and `<name>@vN.dmmd` files into version chains; each
    /// name serves its highest version. Sidecars are looked up per
    /// version (`<name>@vN.meta.json`), falling back to the base
    /// `<name>.meta.json`. Versions published later persist back into
    /// `dir`, so a restarted server resumes from the repaired chain.
    ///
    /// Only the version that will serve is decode-validated; superseded
    /// versions are read just far enough to fingerprint them for the
    /// history, so restart cost does not grow with every repair the chain
    /// has ever absorbed.
    ///
    /// Open is *crash-consistent*: debris a crashed or torn publish can
    /// leave behind is moved into a `quarantine/` subdirectory instead of
    /// failing startup. Stale `.tmp` files are swept; a truncated or
    /// corrupt serving container is quarantined and the chain falls back
    /// to its next-highest decodable version (a name whose every version
    /// is corrupt is skipped entirely); an unparseable sidecar is
    /// quarantined and the version serves without diagnosis provenance.
    /// [`ModelRegistry::quarantined`] reports what was moved.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for filesystem failures (the directory
    /// or a superseded file being unreadable) and [`ServeError::Model`]
    /// for an *ambiguous* chain (two files claiming the same version) —
    /// that is an operator error, not crash debris.
    pub fn open(dir: impl AsRef<Path>) -> ServeResult<Self> {
        let dir = dir.as_ref();
        let mut registry = ModelRegistry {
            dir: Some(dir.to_path_buf()),
            ..ModelRegistry::new()
        };
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == "tmp") {
                // A crash between write and rename leaves the temp file;
                // its rename never happened, so it was never committed.
                registry.quarantine(&path);
            } else if path.extension().is_some_and(|x| x == MODEL_EXT) && path.is_file() {
                paths.push(path);
            }
        }
        paths.sort();
        // (base, version, path), grouped by base in first-seen order.
        let mut chains: Vec<(String, Vec<(u32, PathBuf)>)> = Vec::new();
        for path in paths {
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let (base, version) = parse_stem(stem);
            match chains.iter_mut().find(|(b, _)| b == base) {
                Some((_, versions)) => versions.push((version, path.clone())),
                None => chains.push((base.to_string(), vec![(version, path.clone())])),
            }
        }
        for (base, mut versions) in chains {
            versions.sort_by_key(|&(v, _)| v);
            if let Some(pair) = versions.windows(2).find(|w| w[0].0 == w[1].0) {
                // E.g. `m.dmmd` (implicit v1) next to an explicit
                // `m@v1.dmmd`: refusing beats serving an ambiguous chain
                // whose history would flag two fingerprints as active.
                return Err(ServeError::Model {
                    reason: format!(
                        "model `{base}` has two files claiming version {} ({} and {})",
                        pair[0].0,
                        pair[0].1.display(),
                        pair[1].1.display()
                    ),
                });
            }
            // Walk from the highest version down until one decodes; a
            // corrupt candidate (torn publish) is quarantined and the
            // previous version takes over — exactly what a rollback would
            // have produced.
            let mut serving: Option<ModelEntry> = None;
            while let Some((version, path)) = versions.pop() {
                let Ok(bytes) = std::fs::read(&path) else {
                    registry.quarantine(&path);
                    continue;
                };
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(&base)
                    .to_string();
                // An unparseable sidecar is quarantined and the version
                // serves without diagnosis provenance.
                let diagnosis = match Self::read_sidecar(dir, &stem, &base) {
                    Some((_, Ok(ctx))) => Some(ctx),
                    Some((meta_path, Err(_))) => {
                        registry.quarantine(&meta_path);
                        None
                    }
                    None => None,
                };
                match Self::validate_bytes(base.clone(), version, bytes, diagnosis) {
                    Ok(entry) => {
                        serving = Some(entry);
                        break;
                    }
                    Err(_) => registry.quarantine(&path),
                }
            }
            let Some(entry) = serving else {
                // Every version of this name was corrupt; the files are
                // quarantined and the name is absent, not fatal.
                continue;
            };
            // Whatever remains in `versions` is older than the serving
            // version: superseded, fingerprint only.
            let mut history = Vec::with_capacity(versions.len());
            for (version, path) in &versions {
                history.push(VersionMeta {
                    version: *version,
                    fingerprint: content_fingerprint(&std::fs::read(path)?),
                    retained: None,
                });
            }
            registry.push_slot_with_history(entry, history);
        }
        Ok(registry)
    }

    /// Reads the sidecar for the version file `stem`: its own
    /// `<stem>.meta.json`, else the base name's `<base>.meta.json`.
    /// `None` when neither is readable; otherwise the path read and its
    /// parse result, so each caller decides what an unparseable sidecar
    /// means.
    fn read_sidecar(
        dir: &Path,
        stem: &str,
        base: &str,
    ) -> Option<(PathBuf, ServeResult<DiagnosisContext>)> {
        let own = dir.join(format!("{stem}{META_SUFFIX}"));
        let path = if own.exists() {
            own
        } else {
            dir.join(format!("{base}{META_SUFFIX}"))
        };
        let text = std::fs::read_to_string(&path).ok()?;
        Some((path, DiagnosisContext::from_json(&text)))
    }

    /// Quarantines `path` in the registry's directory (see
    /// [`ModelRegistry::quarantine_in`]) and records it in
    /// [`ModelRegistry::quarantined`] even if the move itself fails — the
    /// file is skipped either way.
    fn quarantine(&mut self, path: &Path) {
        if let Some(dir) = &self.dir {
            Self::quarantine_in(dir, path);
        }
        self.quarantined.push(path.to_path_buf());
    }

    /// Files the last [`ModelRegistry::open`] quarantined instead of
    /// serving (empty for in-process registries).
    pub fn quarantined(&self) -> &[PathBuf] {
        &self.quarantined
    }

    /// Registers a live model under `name` as version 1 (encodes it; takes
    /// `&mut` because walking the parameters does). Call before
    /// `Server::start`; later versions arrive via
    /// [`ModelRegistry::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for a duplicate name.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        model: &mut ModelHandle,
        diagnosis: Option<DiagnosisContext>,
    ) -> ServeResult<ModelId> {
        let name = name.into();
        if self.find(&name).is_some() {
            return Err(ServeError::BadInput {
                reason: format!("model `{name}` is already registered"),
            });
        }
        let entry = Self::validate_bytes(name, 1, encode_model(model), diagnosis)?;
        Ok(ModelId(self.push_slot(entry)))
    }

    /// Decode-validates a container and assembles the entry.
    fn validate_bytes(
        name: String,
        version: u32,
        bytes: Vec<u8>,
        diagnosis: Option<DiagnosisContext>,
    ) -> ServeResult<ModelEntry> {
        // Decode once up front: validates the container and yields the
        // spec + parameter count without keeping the live graph around.
        let mut probe = decode_model(&bytes)?;
        Ok(ModelEntry {
            name,
            version,
            fingerprint: content_fingerprint(&bytes),
            spec: probe.spec,
            param_count: probe.param_count(),
            diagnosis,
            precision: Precision::F32,
            bytes,
            counters: Arc::default(),
        })
    }

    fn push_slot(&mut self, entry: ModelEntry) -> usize {
        self.push_slot_with_history(entry, Vec::new())
    }

    /// Adds a slot serving `entry`, seeded with the (older) versions in
    /// `prior` — the chain a directory-backed registry resumes from.
    fn push_slot_with_history(&mut self, entry: ModelEntry, mut prior: Vec<VersionMeta>) -> usize {
        prior.push(VersionMeta {
            version: entry.version,
            fingerprint: entry.fingerprint.clone(),
            retained: None,
        });
        self.slots.push(ModelSlot {
            name: entry.name.clone(),
            current: RwLock::new((0, Arc::new(entry))),
            epoch_hint: AtomicU64::new(0),
            history: Mutex::new(prior),
        });
        self.slots.len() - 1
    }

    /// Handle of the model registered under `name`.
    pub fn find(&self, name: &str) -> Option<ModelId> {
        self.slots.iter().position(|s| s.name == name).map(ModelId)
    }

    /// The current version of the model at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this registry's
    /// [`ModelRegistry::find`]/[`ModelRegistry::register`].
    pub fn current(&self, id: ModelId) -> Arc<ModelEntry> {
        Arc::clone(&self.slots[id.0].current.read_recover().1)
    }

    /// The swap epoch of the slot at `id`: bumped once per published
    /// version. Workers compare it against the epoch their cached replica
    /// was built at; equality means the replica is current.
    pub fn epoch(&self, id: ModelId) -> u64 {
        self.slots[id.0].epoch_hint.load(Ordering::Acquire)
    }

    /// The current version together with the epoch it was installed at —
    /// read under one lock, so the pair is always consistent.
    pub fn current_with_epoch(&self, id: ModelId) -> (u64, Arc<ModelEntry>) {
        let guard = self.slots[id.0].current.read_recover();
        (guard.0, Arc::clone(&guard.1))
    }

    /// Atomically installs a new version of the model at `id`: validates
    /// the encoded model, requires its input shape and class count to
    /// match the serving version (predict traffic must stay valid across
    /// the swap), persists it as `<name>@vN.dmmd` (+ sidecar) when the
    /// registry is directory-backed, then swaps the current pointer and
    /// bumps the epoch. In-flight batches keep the old `Arc` alive and
    /// finish on it. Concurrent publishes of one model serialize (the
    /// slot's history lock doubles as the publish lock), so version
    /// numbers are unique and the on-disk chain is never clobbered.
    ///
    /// The published sidecar carries the provenance the caller supplies —
    /// for a repair, the *original* scenario. Diagnosing a repaired
    /// version therefore learns patterns from the pre-repair training
    /// distribution; recording the plan chain so vN regenerates its
    /// actual (repaired) training set is an open roadmap item.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] for an undecodable model,
    /// [`ServeError::BadInput`] for a shape/class mismatch, and
    /// [`ServeError::Io`] when persistence fails (nothing is swapped).
    pub fn publish(
        &self,
        id: ModelId,
        model: &mut ModelHandle,
        diagnosis: Option<DiagnosisContext>,
    ) -> ServeResult<Arc<ModelEntry>> {
        let slot = &self.slots[id.0];
        // Serialize publishers for this slot: two concurrent publishes
        // must not both read the same old version, race the version
        // number, and overwrite each other's `@vN` file.
        let mut history = slot.history.lock_recover();
        let (old_version, old_spec, old_entry) = {
            let guard = slot.current.read_recover();
            (guard.1.version, guard.1.spec, Arc::clone(&guard.1))
        };
        let entry = Self::validate_bytes(
            slot.name.clone(),
            old_version + 1,
            encode_model(model),
            diagnosis,
        )?;
        if entry.spec.input_shape != old_spec.input_shape
            || entry.spec.num_classes != old_spec.num_classes
        {
            return Err(ServeError::BadInput {
                reason: format!(
                    "published model expects {:?} → {} classes; serving version expects {:?} → {}",
                    entry.spec.input_shape,
                    entry.spec.num_classes,
                    old_spec.input_shape,
                    old_spec.num_classes
                ),
            });
        }
        // Persist before swapping, sidecar first: the model file's rename
        // is the commit point (`open` keys chains off `*.dmmd` files; an
        // orphan sidecar is ignored), so a crash at any step leaves the
        // old version serving and either no trace or an inert sidecar —
        // never a half-published chain and never a version on disk whose
        // publish was reported failed. Both writes go through tmp+rename
        // so a restart can never see a truncated file.
        if let Some(dir) = &self.dir {
            let stem = format!("{}@v{}", slot.name, entry.version);
            if let Some(ctx) = &entry.diagnosis {
                let tmp = dir.join(format!(".{stem}.meta.tmp"));
                deepmorph_faults::write(&tmp, ctx.to_json().as_bytes())?;
                if let Err(e) =
                    deepmorph_faults::rename(&tmp, &dir.join(format!("{stem}{META_SUFFIX}")))
                {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e.into());
                }
            }
            let tmp = dir.join(format!(".{stem}.tmp"));
            deepmorph_faults::write(&tmp, &entry.bytes)?;
            if let Err(e) = deepmorph_faults::rename(&tmp, &dir.join(format!("{stem}.{MODEL_EXT}")))
            {
                let _ = std::fs::remove_file(&tmp);
                return Err(e.into());
            }
        }
        // The outgoing version is kept in memory on its history meta so an
        // ungated rollback can restore it bitwise without touching disk.
        if let Some(meta) = history.iter_mut().find(|m| m.version == old_version) {
            meta.retained = Some(old_entry);
        }
        let installed = slot.install_locked(entry, &mut history);
        self.gc_locked(slot, &mut history);
        Ok(installed)
    }

    /// Reverts the model at `id` to the previous version in its chain —
    /// the *ungated* escape hatch for a repair that passed the held-out
    /// gate but turned out bad in production. The previous version is
    /// restored bitwise (from the retained in-memory entry, or re-read and
    /// fingerprint-checked from its `@vN` file), keeping its original
    /// version number; the rolled-back version is removed from the history
    /// and its files are quarantined, so a restart — and the next publish,
    /// which reuses its number — agree with the in-memory state.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] when there is no previous version
    /// to roll back to (or it is no longer retained anywhere) and
    /// [`ServeError::Model`] when the on-disk previous version no longer
    /// matches its recorded fingerprint.
    pub fn rollback(&self, id: ModelId) -> ServeResult<Arc<ModelEntry>> {
        let slot = &self.slots[id.0];
        // The history lock doubles as the publish lock: rollbacks
        // serialize against publishes and mode swaps.
        let mut history = slot.history.lock_recover();
        let current_version = slot.current.read_recover().1.version;
        let Some(prev_idx) = history.iter().rposition(|m| m.version < current_version) else {
            return Err(ServeError::BadInput {
                reason: format!(
                    "model `{}` has no previous version to roll back to",
                    slot.name
                ),
            });
        };
        let target = history[prev_idx].clone();
        let entry = match target.retained {
            Some(entry) => entry,
            None => Arc::new(self.load_version(&slot.name, &target)?),
        };
        // Drop the rolled-back version: out of the history, files into
        // quarantine (not deleted — an operator may want the post-mortem).
        history.retain(|m| m.version != current_version);
        if let Some(dir) = &self.dir {
            let stem = format!("{}@v{}", slot.name, current_version);
            for name in [
                format!("{stem}.{MODEL_EXT}"),
                format!("{stem}{META_SUFFIX}"),
            ] {
                let path = dir.join(name);
                if path.exists() {
                    Self::quarantine_in(dir, &path);
                }
            }
        }
        // The target is active again; its retained copy is redundant.
        if let Some(meta) = history.iter_mut().find(|m| m.version == target.version) {
            meta.retained = None;
        }
        slot.install_current(Arc::clone(&entry));
        Ok(entry)
    }

    /// Re-reads a superseded version from disk for a rollback whose
    /// in-memory entry was not retained, verifying the bytes still match
    /// the fingerprint recorded when the version was live.
    fn load_version(&self, name: &str, meta: &VersionMeta) -> ServeResult<ModelEntry> {
        let Some(dir) = &self.dir else {
            return Err(ServeError::BadInput {
                reason: format!(
                    "version {} of `{name}` is no longer retained in memory \
                     and the registry has no backing directory",
                    meta.version
                ),
            });
        };
        let mut path = dir.join(format!("{name}@v{}.{MODEL_EXT}", meta.version));
        if !path.exists() && meta.version == 1 {
            path = dir.join(format!("{name}.{MODEL_EXT}"));
        }
        let bytes = std::fs::read(&path)?;
        if content_fingerprint(&bytes) != meta.fingerprint {
            return Err(ServeError::Model {
                reason: format!(
                    "{}: bytes no longer match the fingerprint recorded for version {}",
                    path.display(),
                    meta.version
                ),
            });
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(name)
            .to_string();
        // Unlike `open`, a rollback reload leaves an unparseable sidecar
        // in place and reloads the version without provenance.
        let diagnosis = Self::read_sidecar(dir, &stem, name).and_then(|(_, parsed)| parsed.ok());
        Self::validate_bytes(name.to_string(), meta.version, bytes, diagnosis)
    }

    /// Best-effort move of `path` into `dir`'s `quarantine/`
    /// subdirectory (collision-proofed with a numeric suffix). Rollback
    /// and GC call it directly: they hold no `&mut self`.
    fn quarantine_in(dir: &Path, path: &Path) {
        let qdir = dir.join("quarantine");
        let _ = std::fs::create_dir_all(&qdir);
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            let mut dest = qdir.join(name);
            let mut n = 0u32;
            while dest.exists() {
                dest = qdir.join(format!("{name}.{n}"));
                n += 1;
            }
            let _ = std::fs::rename(path, &dest);
        }
    }

    /// Sets the retention policy: how many *superseded* versions each
    /// chain keeps (`None` = unlimited, the default). Applies to every
    /// slot; enforced by the GC pass that runs after each publish (and on
    /// demand via [`ModelRegistry::gc`]). Versions pinned by a live
    /// [`VersionPin`] are never collected, whatever the policy says.
    pub fn set_retention(&self, retain: Option<usize>) {
        self.retention
            .store(retain.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// The current retention policy (`None` = unlimited).
    pub fn retention(&self) -> Option<usize> {
        match self.retention.load(Ordering::Relaxed) {
            usize::MAX => None,
            n => Some(n),
        }
    }

    /// Pins the version with `fingerprint`: retention GC will not delete
    /// it while the returned guard is alive. Pins are refcounted, so
    /// overlapping holders compose.
    pub fn pin_version(&self, fingerprint: impl Into<String>) -> VersionPin {
        let fingerprint = fingerprint.into();
        *self
            .pins
            .lock_recover()
            .entry(fingerprint.clone())
            .or_insert(0) += 1;
        VersionPin {
            pins: Arc::clone(&self.pins),
            fingerprint,
        }
    }

    /// Runs one retention-GC pass over the model at `id`, returning the
    /// versions that were deleted. A no-op under the default unlimited
    /// policy. Publish runs this automatically; it is public so dropped
    /// pins can be collected without waiting for the next publish.
    pub fn gc(&self, id: ModelId) -> Vec<u32> {
        let slot = &self.slots[id.0];
        let mut history = slot.history.lock_recover();
        self.gc_locked(slot, &mut history)
    }

    /// GC body; the caller holds the history (publish) lock. Considers the
    /// superseded versions beyond the newest `retention`, oldest first,
    /// and deletes the unpinned ones — meta, retained entry, and on-disk
    /// files. Pinned versions simply survive until a later pass finds
    /// them unpinned.
    fn gc_locked(&self, slot: &ModelSlot, history: &mut Vec<VersionMeta>) -> Vec<u32> {
        let retain = self.retention.load(Ordering::Relaxed);
        if retain == usize::MAX {
            return Vec::new();
        }
        let active = slot.current.read_recover().1.version;
        let superseded: Vec<u32> = history
            .iter()
            .filter(|m| m.version != active)
            .map(|m| m.version)
            .collect();
        if superseded.len() <= retain {
            return Vec::new();
        }
        let excess = superseded.len() - retain;
        let pins = self.pins.lock_recover();
        let mut deleted = Vec::new();
        for &version in superseded.iter().take(excess) {
            let meta = history
                .iter()
                .find(|m| m.version == version)
                .expect("superseded version is in history");
            if pins.get(&meta.fingerprint).copied().unwrap_or(0) > 0 {
                continue;
            }
            if let Some(dir) = &self.dir {
                let stem = format!("{}@v{version}", slot.name);
                let mut files = vec![
                    format!("{stem}.{MODEL_EXT}"),
                    format!("{stem}{META_SUFFIX}"),
                ];
                if version == 1 {
                    // v1 may predate versioned publishing. Its base
                    // sidecar stays: later versions without their own
                    // sidecar fall back to it for provenance.
                    files.push(format!("{}.{MODEL_EXT}", slot.name));
                }
                for name in files {
                    let _ = std::fs::remove_file(dir.join(name));
                }
            }
            deleted.push(version);
        }
        history.retain(|m| !deleted.contains(&m.version));
        deleted
    }

    /// The version history of the model at `id`, oldest first, with the
    /// current version flagged active.
    pub fn versions(&self, id: ModelId) -> Vec<VersionInfo> {
        let slot = &self.slots[id.0];
        // History first, then current — the same order publish uses; a
        // publish cannot interleave between the two reads.
        let history = slot.history.lock_recover();
        let active = slot.current.read_recover().1.version;
        history
            .iter()
            .map(|m| VersionInfo {
                version: m.version,
                fingerprint: m.fingerprint.clone(),
                active: m.version == active,
            })
            .collect()
    }

    /// Live-traffic counters of every version held in memory — each
    /// model's serving version and its retained superseded ones — models
    /// in registration order, each chain oldest first.
    pub fn traffic(&self) -> Vec<VersionTraffic> {
        let mut rows = Vec::new();
        for slot in &self.slots {
            // History first, then current — the order `versions()` and
            // publish take the two locks in.
            let history = slot.history.lock_recover();
            let current = Arc::clone(&slot.current.read_recover().1);
            for meta in history.iter() {
                if meta.version == current.version {
                    rows.push(current.traffic());
                } else if let Some(retained) = &meta.retained {
                    rows.push(retained.traffic());
                }
            }
        }
        rows
    }

    /// Number of registered model names.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Handles of every slot, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ModelId> + '_ {
        (0..self.slots.len()).map(ModelId)
    }

    /// Wire metadata for every model's current version.
    pub fn infos(&self) -> Vec<ModelInfo> {
        self.ids().map(|id| self.current(id).info()).collect()
    }

    /// Switches the serving precision of the model at `id`: the current
    /// version's bytes stay exactly as published, but workers rebuild
    /// their replicas (the epoch bumps) at the new precision. No history
    /// entry is appended — the version and fingerprint are unchanged, so
    /// diagnosis sessions keyed by fingerprint stay valid, `versions()`
    /// keeps listing the same chain, and the version's traffic counters
    /// keep counting. The candidate replica is built once up front, so
    /// an un-instantiable mode is rejected before anything swaps.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] when the mode cannot be applied to
    /// the current version.
    pub fn set_serving_mode(
        &self,
        id: ModelId,
        precision: Precision,
    ) -> ServeResult<Arc<ModelEntry>> {
        let slot = &self.slots[id.0];
        // The history lock doubles as the publish lock: mode swaps
        // serialize against publishes, so the entry read here is the one
        // replaced below.
        let history = slot.history.lock_recover();
        let entry = {
            let guard = slot.current.read_recover();
            guard.1.with_serving_mode(precision)
        };
        entry.instantiate_for_serving()?;
        let entry = Arc::new(entry);
        slot.install_current(Arc::clone(&entry));
        drop(history);
        Ok(entry)
    }
}

impl ModelSlot {
    /// Swaps `entry` in as the current version and bumps the epoch. The
    /// caller holds the history lock (which serializes publishers); the
    /// history entry is appended *before* the swap, so a concurrent
    /// `versions()` may list the incoming version as inactive for an
    /// instant but can never miss the active version.
    fn install_locked(&self, entry: ModelEntry, history: &mut Vec<VersionMeta>) -> Arc<ModelEntry> {
        history.push(VersionMeta {
            version: entry.version,
            fingerprint: entry.fingerprint.clone(),
            retained: None,
        });
        let entry = Arc::new(entry);
        self.install_current(Arc::clone(&entry));
        entry
    }

    /// Swaps `entry` in as the current version and bumps the epoch,
    /// without touching the history. The caller holds the history lock.
    fn install_current(&self, entry: Arc<ModelEntry>) {
        let mut guard = self.current.write_recover();
        guard.0 += 1;
        guard.1 = entry;
        let epoch = guard.0;
        // Publish the hint only after the pair is installed: a worker that
        // sees the new epoch is guaranteed to read the new entry.
        self.epoch_hint.store(epoch, Ordering::Release);
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_models::{build_model, ModelFamily, ModelScale};
    use deepmorph_nn::layer::Mode;
    use deepmorph_tensor::init::stream_rng;
    use deepmorph_tensor::Tensor;

    fn tiny_model(seed: u64) -> ModelHandle {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
        build_model(&spec, &mut stream_rng(seed, "registry-test")).unwrap()
    }

    #[test]
    fn register_find_instantiate() {
        let mut registry = ModelRegistry::new();
        let mut model = tiny_model(3);
        let id = registry.register("lenet", &mut model, None).unwrap();
        assert_eq!(registry.find("lenet"), Some(id));
        assert_eq!(registry.find("missing"), None);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.current(id).fingerprint.len(), 32);
        assert_eq!(registry.current(id).version, 1);
        assert_eq!(registry.epoch(id), 0);

        let x = Tensor::from_vec(
            (0..256).map(|i| (i % 7) as f32 / 7.0).collect(),
            &[1, 1, 16, 16],
        )
        .unwrap();
        let expect = model.graph.forward(&x, Mode::Eval).unwrap();
        let mut replica = registry.current(id).instantiate().unwrap();
        let got = replica.graph.forward(&x, Mode::Eval).unwrap();
        for (a, b) in expect.data().iter().zip(got.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut registry = ModelRegistry::new();
        let mut model = tiny_model(4);
        registry.register("m", &mut model, None).unwrap();
        assert!(matches!(
            registry.register("m", &mut model, None),
            Err(ServeError::BadInput { .. })
        ));
    }

    #[test]
    fn publish_swaps_atomically_and_versions_track() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", &mut tiny_model(5), None).unwrap();
        let v1 = registry.current(id);

        let published = registry.publish(id, &mut tiny_model(6), None).unwrap();
        assert_eq!(published.version, 2);
        assert_eq!(registry.epoch(id), 1);
        let current = registry.current(id);
        assert_eq!(current.version, 2);
        assert_ne!(current.fingerprint, v1.fingerprint);
        // The old Arc stays alive for in-flight batches.
        assert_eq!(v1.version, 1);

        let versions = registry.versions(id);
        assert_eq!(versions.len(), 2);
        assert!(!versions[0].active && versions[0].version == 1);
        assert!(versions[1].active && versions[1].version == 2);

        let (epoch, entry) = registry.current_with_epoch(id);
        assert_eq!((epoch, entry.version), (1, 2));
    }

    #[test]
    fn publish_rejects_incompatible_shapes() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", &mut tiny_model(7), None).unwrap();
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 7);
        let mut other = build_model(&spec, &mut stream_rng(1, "registry-test")).unwrap();
        assert!(matches!(
            registry.publish(id, &mut other, None),
            Err(ServeError::BadInput { .. })
        ));
        assert_eq!(
            registry.current(id).version,
            1,
            "failed publish must not swap"
        );
        assert_eq!(registry.epoch(id), 0);
    }

    #[test]
    fn stem_parsing() {
        assert_eq!(parse_stem("m"), ("m", 1));
        assert_eq!(parse_stem("m@v3"), ("m", 3));
        assert_eq!(parse_stem("a@b@v12"), ("a@b", 12));
        // Only a numeric `@vN` (N >= 1) is the reserved version suffix;
        // anything else is a plain name, never dropped.
        assert_eq!(parse_stem("m@vX"), ("m@vX", 1));
        assert_eq!(parse_stem("m@v0"), ("m@v0", 1));
        assert_eq!(parse_stem("@v2"), ("@v2", 1));
    }

    #[test]
    fn duplicate_versions_on_disk_are_rejected() {
        let dir =
            std::env::temp_dir().join(format!("deepmorph-registry-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // `m.dmmd` is implicitly version 1; an explicit `m@v1.dmmd` next
        // to it makes the chain ambiguous and must refuse to load.
        deepmorph_models::save_model(dir.join("m.dmmd"), &mut tiny_model(10)).unwrap();
        deepmorph_models::save_model(dir.join("m@v1.dmmd"), &mut tiny_model(11)).unwrap();
        match ModelRegistry::open(&dir) {
            Err(ServeError::Model { reason }) => {
                assert!(reason.contains("version 1"), "reason: {reason}");
            }
            other => panic!("expected a duplicate-version error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_chains_resume_highest_version() {
        let dir =
            std::env::temp_dir().join(format!("deepmorph-registry-chain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut registry = ModelRegistry::new();
        let id = registry.register("m", &mut tiny_model(8), None).unwrap();
        // Persist v1 by hand the way an operator would deploy it.
        deepmorph_models::save_model(dir.join("m.dmmd"), &mut tiny_model(8)).unwrap();
        // Publish v2 through a directory-backed registry.
        let on_disk = ModelRegistry::open(&dir).unwrap();
        let disk_id = on_disk.find("m").unwrap();
        assert_eq!(on_disk.current(disk_id).version, 1);
        on_disk.publish(disk_id, &mut tiny_model(9), None).unwrap();
        drop(on_disk);
        drop(registry);
        let _ = id;

        // A fresh open resumes at v2 with the full history.
        let reopened = ModelRegistry::open(&dir).unwrap();
        let rid = reopened.find("m").unwrap();
        assert_eq!(reopened.current(rid).version, 2);
        let versions = reopened.versions(rid);
        assert_eq!(versions.len(), 2);
        assert!(versions[1].active);
        assert_eq!(
            versions[1].fingerprint,
            content_fingerprint(&std::fs::read(dir.join("m@v2.dmmd")).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diagnosis_context_round_trips() {
        let ctx = DiagnosisContext {
            test_per_class: 25,
            defect: DefectSpec::insufficient_training_data(vec![0, 3], 0.75),
            train: TrainConfig {
                epochs: 6,
                batch_size: 16,
                learning_rate: 0.1,
                lr_decay: 0.9,
                optimizer: OptimizerKind::Sgd {
                    momentum: 0.9,
                    weight_decay: 1e-4,
                },
                shuffle: false,
                clip_grad_norm: Some(5.0),
            },
            ..DiagnosisContext::new(DatasetKind::Objects, 42, 100)
        };
        assert_eq!(DiagnosisContext::from_json(&ctx.to_json()).unwrap(), ctx);

        let utd = DiagnosisContext {
            defect: DefectSpec::unreliable_training_data(3, 5, 0.5),
            train: TrainConfig {
                optimizer: OptimizerKind::Adam,
                ..TrainConfig::default()
            },
            ..DiagnosisContext::new(DatasetKind::Digits, 7, 80)
        };
        assert_eq!(DiagnosisContext::from_json(&utd.to_json()).unwrap(), utd);
        let sd = DiagnosisContext {
            defect: DefectSpec::structure_defect(6),
            ..DiagnosisContext::new(DatasetKind::Digits, 7, 80)
        };
        assert_eq!(DiagnosisContext::from_json(&sd.to_json()).unwrap(), sd);

        assert!(DiagnosisContext::from_json("{}").is_err());
        assert!(DiagnosisContext::from_json("not json").is_err());
        assert!(DiagnosisContext::from_json(
            "{\"dataset\": \"mars\", \"seed\": 1, \"train_per_class\": 5}"
        )
        .is_err());

        // A pre-versioning sidecar (no defect/test/train keys) parses with
        // the scenario defaults.
        let legacy = DiagnosisContext::from_json(
            "{\"dataset\": \"synth-digits\", \"seed\": 3, \"train_per_class\": 12}",
        )
        .unwrap();
        assert_eq!(legacy.defect, DefectSpec::Healthy);
        assert_eq!(legacy.test_per_class, 30);
        assert_eq!(legacy.train.epochs, 4);
    }

    #[test]
    fn fingerprints_track_content() {
        let a = content_fingerprint(b"abc");
        let b = content_fingerprint(b"abd");
        assert_ne!(a, b);
        assert_eq!(a, content_fingerprint(b"abc"));
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn rollback_restores_previous_version_bitwise() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", &mut tiny_model(20), None).unwrap();
        let v1 = registry.current(id);
        registry.publish(id, &mut tiny_model(21), None).unwrap();
        assert_eq!(registry.current(id).version, 2);
        let epoch_before = registry.epoch(id);

        let restored = registry.rollback(id).unwrap();
        assert_eq!(restored.version, 1);
        assert_eq!(restored.fingerprint, v1.fingerprint);
        assert_eq!(restored.bytes, v1.bytes, "restored bitwise");
        assert_eq!(registry.current(id).version, 1);
        assert!(
            registry.epoch(id) > epoch_before,
            "rollback must move the epoch so replicas refresh"
        );

        // The rolled-back version is gone from the chain; the next
        // publish reuses its number without ambiguity.
        let versions = registry.versions(id);
        assert_eq!(versions.len(), 1);
        assert!(versions[0].active && versions[0].version == 1);
        let republished = registry.publish(id, &mut tiny_model(22), None).unwrap();
        assert_eq!(republished.version, 2);
    }

    #[test]
    fn rollback_without_previous_version_is_typed() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", &mut tiny_model(23), None).unwrap();
        assert!(matches!(
            registry.rollback(id),
            Err(ServeError::BadInput { .. })
        ));
        assert_eq!(registry.current(id).version, 1, "nothing changed");
    }

    #[test]
    fn rollback_reloads_from_disk_and_quarantines_the_bad_version() {
        let dir = std::env::temp_dir().join(format!(
            "deepmorph-registry-rollback-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        deepmorph_models::save_model(dir.join("m.dmmd"), &mut tiny_model(24)).unwrap();
        let registry = ModelRegistry::open(&dir).unwrap();
        let id = registry.find("m").unwrap();
        registry.publish(id, &mut tiny_model(25), None).unwrap();
        drop(registry);

        // A *reopened* registry has no retained in-memory entries: the
        // rollback target must be re-read from disk and verified against
        // the fingerprint recorded when it was live.
        let reopened = ModelRegistry::open(&dir).unwrap();
        let id = reopened.find("m").unwrap();
        let v1_bytes = std::fs::read(dir.join("m.dmmd")).unwrap();
        assert_eq!(reopened.current(id).version, 2);
        // Unlike `open`, the reload leaves an unparseable sidecar in place.
        std::fs::write(dir.join("m.meta.json"), "{not json").unwrap();
        let restored = reopened.rollback(id).unwrap();
        assert_eq!(restored.version, 1);
        assert_eq!(restored.fingerprint, content_fingerprint(&v1_bytes));
        assert_eq!(restored.bytes, v1_bytes, "restored bitwise from disk");
        assert!(restored.diagnosis.is_none());
        assert!(dir.join("m.meta.json").exists());

        // v2's file moved to quarantine, so a restart agrees with memory.
        assert!(!dir.join("m@v2.dmmd").exists());
        assert!(dir.join("quarantine").join("m@v2.dmmd").exists());
        let after_restart = ModelRegistry::open(&dir).unwrap();
        let rid = after_restart.find("m").unwrap();
        assert_eq!(after_restart.current(rid).version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_gc_deletes_oldest_superseded_but_never_pinned() {
        let dir =
            std::env::temp_dir().join(format!("deepmorph-registry-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        deepmorph_models::save_model(dir.join("m.dmmd"), &mut tiny_model(30)).unwrap();
        let registry = ModelRegistry::open(&dir).unwrap();
        let id = registry.find("m").unwrap();
        registry.set_retention(Some(1));
        assert_eq!(registry.retention(), Some(1));

        let v2 = registry.publish(id, &mut tiny_model(31), None).unwrap();
        // superseded = {v1} <= retain 1: nothing collected yet.
        assert!(dir.join("m.dmmd").exists());

        // Pin v2 (as a live diagnosis session would), then supersede it
        // twice: GC wants to collect {v1, v2} but must skip the pin.
        let pin = registry.pin_version(&v2.fingerprint);
        registry.publish(id, &mut tiny_model(32), None).unwrap();
        registry.publish(id, &mut tiny_model(33), None).unwrap();

        assert!(!dir.join("m.dmmd").exists(), "v1 collected");
        assert!(dir.join("m@v2.dmmd").exists(), "pinned v2 survives GC");
        assert!(dir.join("m@v3.dmmd").exists(), "newest superseded kept");
        assert!(dir.join("m@v4.dmmd").exists(), "active version kept");
        let versions: Vec<u32> = registry.versions(id).iter().map(|v| v.version).collect();
        assert_eq!(versions, vec![2, 3, 4]);

        // Dropping the pin makes v2 collectable by the next pass.
        drop(pin);
        let deleted = registry.gc(id);
        assert_eq!(deleted, vec![2]);
        assert!(!dir.join("m@v2.dmmd").exists());
        let versions: Vec<u32> = registry.versions(id).iter().map(|v| v.version).collect();
        assert_eq!(versions, vec![3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_retention_keeps_every_version() {
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", &mut tiny_model(40), None).unwrap();
        for seed in 41..45 {
            registry.publish(id, &mut tiny_model(seed), None).unwrap();
        }
        assert_eq!(registry.retention(), None);
        assert_eq!(registry.versions(id).len(), 5, "unlimited by default");
        assert!(registry.gc(id).is_empty());
    }

    #[test]
    fn overlapping_pins_are_refcounted() {
        let registry = ModelRegistry::new();
        let a = registry.pin_version("fp");
        let b = registry.pin_version("fp");
        drop(a);
        // One holder remains: still pinned.
        assert_eq!(registry.pins.lock_recover().get("fp"), Some(&1));
        drop(b);
        assert!(registry.pins.lock_recover().get("fp").is_none());
    }
}
