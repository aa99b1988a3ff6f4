//! Crash-consistency tests: `ModelRegistry::open` against the debris a
//! crashed or torn publish leaves behind.
//!
//! The contract under test: startup never fails on crash debris. Stale
//! `.tmp` files, truncated/corrupt `*.dmmd` containers, and unparseable
//! sidecars are *quarantined* (moved to `quarantine/`, reported via
//! [`ModelRegistry::quarantined`]) and the chain falls back to its
//! newest decodable version — the same state a rollback would have
//! produced. Only an *ambiguous* chain (two files claiming one version,
//! operator error rather than crash debris) refuses to load.

use std::path::PathBuf;
use std::sync::Mutex;

use deepmorph_data::DatasetKind;
use deepmorph_faults::{Fault, FaultPlan};
use deepmorph_models::{build_model, save_model, ModelFamily, ModelHandle, ModelScale, ModelSpec};
use deepmorph_serve::prelude::*;

/// The fault plan is process-global; tests that install one serialize.
static FAULT_GUARD: Mutex<()> = Mutex::new(());

fn lenet(seed: u64) -> ModelHandle {
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
    build_model(
        &spec,
        &mut deepmorph_tensor::init::stream_rng(seed, "recovery-test"),
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deepmorph-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn truncated_head_version_is_quarantined_and_the_chain_falls_back() {
    let dir = temp_dir("truncated");
    save_model(dir.join("m.dmmd"), &mut lenet(1)).unwrap();
    // A torn publish of v2: the file exists but holds half a container.
    let good = std::fs::read(dir.join("m.dmmd")).unwrap();
    std::fs::write(dir.join("m@v2.dmmd"), &good[..good.len() / 2]).unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    let id = registry.find("m").expect("name still serves");
    assert_eq!(registry.current(id).version, 1, "fell back to v1");
    assert_eq!(registry.quarantined().len(), 1);
    assert!(registry.quarantined()[0].ends_with("m@v2.dmmd"));
    assert!(
        dir.join("quarantine").join("m@v2.dmmd").exists(),
        "corrupt file moved aside for the post-mortem"
    );
    assert!(!dir.join("m@v2.dmmd").exists());

    // The survivor still instantiates.
    assert!(registry.current(id).instantiate().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_tmp_files_are_quarantined_on_open() {
    let dir = temp_dir("tmp");
    save_model(dir.join("m.dmmd"), &mut lenet(2)).unwrap();
    // A crash between write and rename leaves the publish temp file; its
    // rename never happened, so it was never committed.
    std::fs::write(dir.join(".m@v2.tmp"), b"half a container").unwrap();
    std::fs::write(dir.join(".m@v2.meta.tmp"), b"{").unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    let id = registry.find("m").unwrap();
    assert_eq!(registry.current(id).version, 1);
    assert_eq!(registry.quarantined().len(), 2);
    assert!(!dir.join(".m@v2.tmp").exists());
    assert!(!dir.join(".m@v2.meta.tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unparseable_sidecar_is_quarantined_and_the_model_serves_without_provenance() {
    let dir = temp_dir("sidecar");
    save_model(dir.join("m.dmmd"), &mut lenet(3)).unwrap();
    std::fs::write(dir.join("m.meta.json"), "{not json").unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    let id = registry.find("m").unwrap();
    assert_eq!(registry.current(id).diagnosis, None);
    assert!(registry
        .quarantined()
        .iter()
        .any(|p| p.ends_with("m.meta.json")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_sidecar_serves_but_diagnosis_refuses_with_a_typed_error() {
    let dir = temp_dir("nosidecar");
    save_model(dir.join("m.dmmd"), &mut lenet(4)).unwrap();
    let registry = ModelRegistry::open(&dir).unwrap();
    let id = registry.find("m").unwrap();
    assert_eq!(registry.current(id).diagnosis, None);
    assert!(registry.quarantined().is_empty(), "nothing wrong on disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_name_whose_every_version_is_corrupt_is_skipped_not_fatal() {
    let dir = temp_dir("allcorrupt");
    std::fs::write(dir.join("broken.dmmd"), b"not a container").unwrap();
    std::fs::write(dir.join("broken@v2.dmmd"), b"also not").unwrap();
    save_model(dir.join("ok.dmmd"), &mut lenet(5)).unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    assert!(registry.find("broken").is_none(), "corrupt name absent");
    assert!(registry.find("ok").is_some(), "healthy neighbor serves");
    assert_eq!(registry.quarantined().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_publish_under_fault_injection_recovers_on_reopen() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let dir = temp_dir("torn-publish");
    save_model(dir.join("m.dmmd"), &mut lenet(6)).unwrap();
    let ctx = DiagnosisContext::new(DatasetKind::Digits, 6, 12);
    std::fs::write(dir.join("m.meta.json"), ctx.to_json()).unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    let id = registry.find("m").unwrap();

    // Every rename *tears*: it succeeds but commits a truncated file —
    // the silent-corruption shape of a crash mid-write. The publish
    // cannot observe that (rename returned success), so it completes
    // and v2 serves in-memory; the damage is on disk, waiting for the
    // restart.
    deepmorph_faults::install(FaultPlan::new(11).with(Fault::FsTornRename, 1.0));
    let result = registry.publish(id, &mut lenet(7), Some(ctx.clone()));
    deepmorph_faults::clear();
    assert!(result.is_ok(), "a torn rename is silent at publish time");
    assert_eq!(registry.current(id).version, 2);
    drop(registry);

    // The restart finds v2's container truncated, quarantines it, and
    // falls back to v1 — exactly the state a rollback would produce.
    let reopened = ModelRegistry::open(&dir).unwrap();
    let id = reopened.find("m").unwrap();
    assert_eq!(reopened.current(id).version, 1);
    assert!(reopened
        .quarantined()
        .iter()
        .any(|p| p.ends_with("m@v2.dmmd")));
    assert!(reopened.current(id).instantiate().is_ok());

    // And with the storm over, the same publish now succeeds cleanly.
    let published = reopened.publish(id, &mut lenet(7), Some(ctx)).unwrap();
    assert_eq!(published.version, 2);
    drop(reopened);
    let after = ModelRegistry::open(&dir).unwrap();
    assert_eq!(after.current(after.find("m").unwrap()).version, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_rename_publish_leaves_no_debris_visible_to_open() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let dir = temp_dir("failed-rename");
    save_model(dir.join("m.dmmd"), &mut lenet(8)).unwrap();
    let registry = ModelRegistry::open(&dir).unwrap();
    let id = registry.find("m").unwrap();

    deepmorph_faults::install(FaultPlan::new(12).with(Fault::FsRenameFail, 1.0));
    assert!(registry.publish(id, &mut lenet(9), None).is_err());
    deepmorph_faults::clear();
    drop(registry);

    let reopened = ModelRegistry::open(&dir).unwrap();
    let id = reopened.find("m").unwrap();
    assert_eq!(reopened.current(id).version, 1);
    assert!(
        !dir.join("m@v2.dmmd").exists(),
        "the failed publish never committed a v2 file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
