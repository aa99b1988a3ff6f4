//! The admin executor: the threads that run diagnose, repair and
//! rollback off the event loops.
//!
//! Admin work retrains models for seconds to minutes, so it never runs
//! on an event loop. Its threads are reused rather than spawned per
//! call: a thread is started only when every existing one is busy, and
//! an idle thread waits for the next job until the server shuts down.
//!
//! Reuse is what keeps memory flat from one admin call to the next.
//! glibc gives each thread a malloc arena at its first allocation and
//! frees the arena for reuse only once that thread has fully exited. A
//! client that gets its diagnose reply and at once asks for a repair
//! would otherwise race the diagnose thread's exit. If the repair thread
//! starts first, it gets a fresh arena that cannot reuse what diagnosis
//! freed, and peak RSS grows by what the old arena keeps (43 rather than
//! 39 MiB on `serve_repair`, on a 2-core x86-64 host). Here a thread
//! counts itself idle *before* it sends its reply, so the request that
//! reply makes possible always finds it, and runs on the same thread and
//! the same arena. What a thread's exit used to release, its pooled
//! tensor scratch buffers, is released after every call instead.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::conn::ConnHandle;
use crate::error::ServeResult;
use crate::event_loop::send_error;
use crate::protocol::{encode_response, Response};
use crate::server::ServerShared;
use crate::sync::{wait_recover, LockRecover};

/// The work of one admin call.
pub(crate) type AdminWork = Box<dyn FnOnce(&Arc<ServerShared>) -> ServeResult<Response> + Send>;

/// One admin call: its work, and where the reply goes.
pub(crate) struct AdminJob {
    pub(crate) handle: ConnHandle,
    pub(crate) id: u64,
    pub(crate) work: AdminWork,
}

#[derive(Default)]
struct PoolState {
    jobs: VecDeque<AdminJob>,
    /// Threads waiting for a job or committed to come back for one;
    /// never fewer than the queued jobs.
    idle: usize,
    shutdown: bool,
    threads: Vec<JoinHandle<()>>,
}

/// Reusable admin threads plus their job queue.
#[derive(Default)]
pub(crate) struct AdminPool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl AdminPool {
    /// Queues `job`, starting a thread for it when no idle thread is
    /// left to take it. Hands the job back when the pool is shut down or
    /// no thread can be spawned.
    pub(crate) fn submit(&self, shared: &Arc<ServerShared>, job: AdminJob) -> Result<(), AdminJob> {
        let mut state = self.state.lock_recover();
        if state.shutdown {
            return Err(job);
        }
        state.jobs.push_back(job);
        if state.idle < state.jobs.len() {
            let thread_shared = Arc::clone(shared);
            let spawned = std::thread::Builder::new()
                .name("deepmorph-serve-admin".into())
                .spawn(move || admin_thread(&thread_shared));
            match spawned {
                Ok(thread) => {
                    state.threads.push(thread);
                    state.idle += 1;
                }
                // The lock was held throughout, so the job just queued
                // is still the last one.
                Err(_) => return Err(state.jobs.pop_back().expect("job just queued")),
            }
        }
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Lets the threads finish every queued job, then joins them.
    pub(crate) fn shutdown(&self) {
        let threads = {
            let mut state = self.state.lock_recover();
            state.shutdown = true;
            std::mem::take(&mut state.threads)
        };
        self.cv.notify_all();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

fn admin_thread(shared: &Arc<ServerShared>) {
    let pool = &shared.admin;
    loop {
        let job = {
            let mut state = pool.state.lock_recover();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    state.idle -= 1;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = wait_recover(&pool.cv, state);
            }
        };
        let result = (job.work)(shared);
        // Release this thread's pooled scratch buffers, as a thread that
        // exited would, before the reply lets the next call start.
        deepmorph_tensor::workspace::reset();
        // Idle before replying: see the module docs.
        pool.state.lock_recover().idle += 1;
        match result {
            Ok(response) => job
                .handle
                .send(&shared.stats, &encode_response(job.id, &response)),
            Err(e) => send_error(&shared.stats, &job.handle, job.id, &e),
        }
    }
}
