//! The online repair subsystem: diagnose → repair → hot-swap.
//!
//! The paper's evaluation closes the loop — "based on the defect reported
//! by DeepMorph, we modify the models accordingly and evaluate whether
//! DeepMorph is helpful to improving model performance" — and the offline
//! engine already automates that ([`StagedEngine::run_with_repair`]).
//! This module closes the loop *online*, against a running server:
//!
//! 1. **Diagnose** the accumulated misclassified traffic through a
//!    [`DiagnosisSession`] that is memoized per model content
//!    fingerprint — the expensive probe training runs once per served
//!    version, and every later diagnose (or repair) of the unchanged
//!    model reuses it.
//! 2. **Derive** the repair plan with `deepmorph::repair::recommend`
//!    (ITD → generate data for the starved classes, UTD → relabel the
//!    contaminated pair, SD → restore conv capacity).
//! 3. **Execute** the plan through the staged engine
//!    ([`StagedEngine::repaired`]): the scenario reconstructed from the
//!    model's sidecar regenerates its actual (defect-injected) training
//!    set, the plan is applied, and the model retrains. Nothing is
//!    cached: the registry keeps the published result, and the only way
//!    to repeat a repair is to roll back the very model it built.
//! 4. **Gate** on the held-out set: the repaired model must be at least
//!    as accurate as the serving version, or nothing is swapped.
//! 5. **Hot-swap**: publish the repaired model as `<name>@vN` (persisted
//!    next to the originals for directory-backed registries, so restarts
//!    resume the repaired chain), advance the live-traffic buffer's epoch
//!    (stale pre-repair cases must not poison the next diagnosis), and
//!    drop the memoized session of the superseded version.
//!
//! Predict traffic never waits on any of this: the scheduler worker
//! picks up the new version at its next batch boundary, and a batch
//! already running finishes on the old replica. Diagnoses of *other*
//! models are also unaffected; a diagnose of the model under repair may
//! briefly rebuild its own session (the repair borrows the memoized one
//! for the retrain) rather than block behind it.
//!
//! Known limitation (tracked in ROADMAP.md): a repaired version keeps
//! its ancestor's provenance sidecar, so diagnosing `v2` learns
//! patterns from the *original* (pre-repair) training distribution —
//! faithful for the generator-backed scenarios here, but recording the
//! plan chain so `vN` regenerates its actual repaired training set is
//! an open item.

use std::sync::Mutex;
use std::time::Instant;

use deepmorph::pipeline::{DeepMorph, DeepMorphConfig, DiagnosisSession};
use deepmorph::prelude::{recommend, Scenario, StagedEngine};
use deepmorph_nn::train::evaluate_accuracy;

use crate::error::{ServeError, ServeResult};
use crate::protocol::{DiagnoseResponse, RepairResponse, RollbackResponse};
use crate::registry::{DiagnosisContext, ModelEntry, ModelId};
use crate::server::ServerShared;
use crate::sync::LockRecover;

/// A memoized diagnosis session, valid for exactly one model version.
struct CachedSession {
    /// Content fingerprint of the model version the session instruments.
    fingerprint: String,
    session: DiagnosisSession,
}

/// Per-slot repair machinery owned by the server.
pub(crate) struct RepairState {
    /// Memoized diagnosis sessions, parallel to the registry slots. The
    /// slot mutex also serializes diagnoses of one model (diagnoses of
    /// different models, and all predict traffic, proceed concurrently).
    sessions: Vec<Mutex<Option<CachedSession>>>,
    /// Serializes repairs of one model; a second concurrent repair gets a
    /// typed error instead of retraining the same thing twice.
    locks: Vec<Mutex<()>>,
}

impl RepairState {
    pub(crate) fn new(slots: usize) -> Self {
        RepairState {
            sessions: (0..slots).map(|_| Mutex::new(None)).collect(),
            locks: (0..slots).map(|_| Mutex::new(())).collect(),
        }
    }
}

/// Reconstructs the scenario a model's sidecar describes: the same
/// deterministic data stream, defect injection, and training
/// configuration the model was produced under, paired with the server's
/// DeepMorph configuration.
fn scenario_for(
    entry: &ModelEntry,
    ctx: &DiagnosisContext,
    deepmorph: &DeepMorphConfig,
) -> ServeResult<Scenario> {
    Scenario::builder(entry.spec.family, ctx.dataset)
        .seed(ctx.seed)
        .scale(entry.spec.scale)
        .train_per_class(ctx.train_per_class)
        .test_per_class(ctx.test_per_class)
        .inject(ctx.defect.clone())
        .train_config(ctx.train.clone())
        .deepmorph_config(*deepmorph)
        .build()
        .map_err(|e| ServeError::Diagnosis {
            reason: format!("sidecar scenario: {e}"),
        })
}

fn context_of(entry: &ModelEntry) -> ServeResult<DiagnosisContext> {
    entry
        .diagnosis
        .clone()
        .ok_or_else(|| ServeError::Diagnosis {
            reason: format!(
                "model `{}` has no training-data context (sidecar missing)",
                entry.name
            ),
        })
}

/// Ensures `slot` holds a session for `entry`'s version, building one
/// (probe training — the expensive part) only when the fingerprint
/// changed since the last call. `scenario` must be the one
/// [`scenario_for`] derives from `entry`'s sidecar.
fn ensure_session<'a>(
    shared: &ServerShared,
    slot: &'a mut Option<CachedSession>,
    entry: &ModelEntry,
    scenario: &Scenario,
) -> ServeResult<&'a mut CachedSession> {
    let fresh = match slot {
        Some(cached) => cached.fingerprint != entry.fingerprint,
        None => true,
    };
    if fresh {
        let (train, _test) = scenario.injected_data()?;
        let replica = entry.instantiate()?;
        let session = DeepMorph::new(shared.deepmorph).prepare(replica, &train)?;
        shared
            .stats
            .probe_trainings
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        *slot = Some(CachedSession {
            fingerprint: entry.fingerprint.clone(),
            session,
        });
    }
    Ok(slot.as_mut().expect("session just ensured"))
}

/// Returns a borrowed session to its slot unless a concurrent diagnose
/// already rebuilt one (both are deterministic products of the same
/// version, so either copy is equally valid).
fn restore_session(shared: &ServerShared, id: ModelId, session: CachedSession) {
    let mut slot = shared.repair.sessions[id.index()].lock_recover();
    if slot.is_none() {
        *slot = Some(session);
    }
}

fn subject_for(entry: &ModelEntry, cases: usize) -> String {
    format!(
        "{}@v{} {} live traffic ({} misclassified)",
        entry.name,
        entry.version,
        &entry.fingerprint[..8],
        cases
    )
}

/// The diagnose endpoint: feeds the accumulated misclassified traffic
/// through the DeepMorph pipeline against the memoized per-version
/// diagnosis session. Only the faulty-case footprints and the defect
/// classification run per call; probe training is paid once per version.
pub(crate) fn diagnose_live(shared: &ServerShared, id: ModelId) -> ServeResult<DiagnoseResponse> {
    // Snapshot the serving version and drain the buffer under the cases
    // lock — the same lock a hot-swap holds while it publishes and
    // resets the buffer — so the pair is always consistent: either the
    // old version with its traffic, or the new version with an empty
    // buffer (a typed refusal). Never one version's session fed the
    // other version's mistakes.
    let (entry, faulty) = {
        let cases = shared.cases[id.index()].lock_recover();
        let entry = shared.registry.current(id);
        let faulty = cases.to_faulty_cases()?;
        (entry, faulty)
    };
    let ctx = context_of(&entry)?;
    let scenario = scenario_for(&entry, &ctx, &shared.deepmorph)?;
    let mut slot = shared.repair.sessions[id.index()].lock_recover();
    let cached = ensure_session(shared, &mut slot, &entry, &scenario)?;
    shared
        .stats
        .diagnoses
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let report = cached
        .session
        .diagnose(&faulty, &subject_for(&entry, faulty.len()))?;
    Ok(DiagnoseResponse {
        cases: report.num_cases as u64,
        report_json: report.to_json(),
    })
}

/// The repair endpoint: the full diagnose → repair → gate → hot-swap
/// loop described in the module docs. Returns what happened either way;
/// `swapped == false` means the gate kept the serving version.
pub(crate) fn repair_live(shared: &ServerShared, id: ModelId) -> ServeResult<RepairResponse> {
    let state = &shared.repair;
    let Ok(_repairing) = state.locks[id.index()].try_lock() else {
        return Err(ServeError::Repair {
            reason: "a repair of this model is already running".into(),
        });
    };
    shared
        .stats
        .repairs
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    // Same consistent snapshot as diagnose_live (see there).
    let (entry, faulty) = {
        let cases = shared.cases[id.index()].lock_recover();
        let entry = shared.registry.current(id);
        let faulty = cases.to_faulty_cases()?;
        (entry, faulty)
    };
    let ctx = context_of(&entry)?;
    let scenario = scenario_for(&entry, &ctx, &shared.deepmorph)?;

    // Diagnose the live traffic (memoized session; counted like any other
    // diagnosis), derive the plan, and *take* the session for the retrain:
    // holding the slot lock across a from-scratch retrain would block
    // concurrent diagnoses of this model for its whole duration, long
    // enough to trip their clients' response timeout. A diagnose arriving
    // mid-repair instead rebuilds its own (identical, deterministic)
    // session.
    let (report, plan, mut session) = {
        let mut slot = shared.repair.sessions[id.index()].lock_recover();
        let cached = ensure_session(shared, &mut slot, &entry, &scenario)?;
        shared
            .stats
            .diagnoses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let report = cached
            .session
            .diagnose(&faulty, &subject_for(&entry, faulty.len()))?;
        let plan = recommend(&report).ok_or_else(|| ServeError::Repair {
            reason: "the diagnosis yields no actionable repair plan".into(),
        })?;
        (report, plan, slot.take().expect("session just ensured"))
    };

    // The session is on loan from here to the swap decision: every early
    // return must hand it back, or the next diagnose of this (unchanged)
    // model would re-pay probe training.
    let attempt = (|| {
        // Held-out accuracy of the serving version: the gate's baseline.
        let (_train, test) = scenario.injected_data().map_err(|e| ServeError::Repair {
            reason: format!("held-out data: {e}"),
        })?;
        let mut serving = entry.instantiate()?;
        let accuracy_before =
            evaluate_accuracy(&mut serving.graph, test.images(), test.labels(), 64)?;

        // Execute the plan through the staged engine, uncached.
        let repaired = StagedEngine::ephemeral()
            .repaired(
                &scenario,
                &entry.fingerprint,
                &plan,
                session.session.instrumented_mut(),
            )
            .map_err(|e| ServeError::Repair {
                reason: format!("executing `{plan}`: {e}"),
            })?;
        Ok((accuracy_before, repaired))
    })();
    let (accuracy_before, repaired) = match attempt {
        Ok(outcome) => outcome,
        Err(e) => {
            restore_session(shared, id, session);
            return Err(e);
        }
    };

    // Gate: never swap in a model that lost held-out accuracy.
    if repaired.accuracy_after < accuracy_before {
        // The serving version stays; hand the borrowed session back for
        // the next diagnose.
        restore_session(shared, id, session);
        return Ok(RepairResponse {
            plan: plan.to_string(),
            cases: report.num_cases as u64,
            accuracy_before,
            accuracy_after: repaired.accuracy_after,
            swapped: false,
            version: entry.version,
            fingerprint: entry.fingerprint.clone(),
            swap_micros: 0,
        });
    }

    // Hot-swap: publish the new version, then move the traffic buffer to
    // the new epoch so in-flight batches on the old version cannot seed
    // the new version's diagnosis, and drop any memoized session of the
    // superseded version (ours, plus one a concurrent diagnose may have
    // rebuilt — stale sessions also self-invalidate by fingerprint, this
    // just frees them promptly).
    let mut new_model = match repaired.instantiate() {
        Ok(model) => model,
        Err(e) => {
            restore_session(shared, id, session);
            return Err(ServeError::Repair {
                reason: format!("repaired model: {e}"),
            });
        }
    };
    let swap_started = Instant::now();
    let published = {
        // Publish and buffer reset happen under the cases lock, so they
        // are atomic from every observer's view: a diagnose draining the
        // buffer (or the worker recording into it) sees either the old
        // version with the old traffic or the new version with an empty
        // buffer — never the new version paired with pre-repair mistakes.
        let mut cases = shared.cases[id.index()].lock_recover();
        shared
            .registry
            .publish(id, &mut new_model, Some(ctx))
            .inspect(|_| cases.advance_epoch(shared.registry.epoch(id)))
    };
    let new_entry = match published {
        Ok(entry) => entry,
        Err(e) => {
            // Nothing swapped (publish is all-or-nothing): the serving
            // version and its session remain valid.
            restore_session(shared, id, session);
            return Err(e);
        }
    };
    drop(session);
    {
        let mut slot = shared.repair.sessions[id.index()].lock_recover();
        if slot
            .as_ref()
            .is_some_and(|s| s.fingerprint != new_entry.fingerprint)
        {
            *slot = None;
        }
    }
    let swap_micros = swap_started.elapsed().as_micros() as u64;
    shared
        .stats
        .swaps
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    Ok(RepairResponse {
        plan: plan.to_string(),
        cases: report.num_cases as u64,
        accuracy_before,
        accuracy_after: repaired.accuracy_after,
        swapped: true,
        version: new_entry.version,
        fingerprint: new_entry.fingerprint.clone(),
        swap_micros,
    })
}

/// The rollback endpoint: reverts `model` to its previous published
/// version — **ungated**. Rollback is the operator's escape hatch when a
/// swapped-in version misbehaves in ways the held-out gate cannot see
/// (the gate measures accuracy, not latency, memory, or crashes), so it
/// must not depend on the machinery being rolled away from. The restored
/// version serves bitwise-identically to when it last served (pinned by
/// tests): it is reinstalled either from the retained in-memory entry or
/// from its fingerprint-verified on-disk file.
///
/// Like a repair swap, the install and the traffic-buffer epoch advance
/// happen under the cases lock, so no pre-rollback misclassification can
/// seed the restored version's diagnosis.
pub(crate) fn rollback_live(shared: &ServerShared, id: ModelId) -> ServeResult<RollbackResponse> {
    // A rollback racing the publish step of an in-flight repair would be
    // ambiguous (which version is "previous"?); take the same per-model
    // lock and refuse rather than guess.
    let Ok(_repairing) = shared.repair.locks[id.index()].try_lock() else {
        return Err(ServeError::Repair {
            reason: "cannot roll back while a repair of this model is running".into(),
        });
    };

    let swap_started = Instant::now();
    let restored = {
        let mut cases = shared.cases[id.index()].lock_recover();
        shared
            .registry
            .rollback(id)
            .inspect(|_| cases.advance_epoch(shared.registry.epoch(id)))
    }?;

    // Drop the memoized session of the rolled-back version (it will never
    // serve again under that fingerprint unless explicitly re-published).
    {
        let mut slot = shared.repair.sessions[id.index()].lock_recover();
        if slot
            .as_ref()
            .is_some_and(|s| s.fingerprint != restored.fingerprint)
        {
            *slot = None;
        }
    }
    let swap_micros = swap_started.elapsed().as_micros() as u64;
    shared
        .stats
        .rollbacks
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    Ok(RollbackResponse {
        version: restored.version,
        fingerprint: restored.fingerprint.clone(),
        swap_micros,
    })
}
