//! The per-rank drive loop: registration, admission, overlap, and the
//! failure-isolation protocol (DESIGN.md §12).
//!
//! Epoch prologue (every rank, before anything is driven):
//!
//! 1. duplicate the world communicator once per job
//!    ([`Comm::dup_for`] keyed by the job's global id), plus once for
//!    the epoch's control fabric;
//! 2. `init_all` **every** job's planned batch (registration is not
//!    admission-controlled; jobs of one shape share one plan);
//! 3. register one cancel-token receive channel per peer on the control
//!    communicator — a token names its job ([`encode_token`]), so the
//!    channel count (and the park set it joins) stays O(ranks), not
//!    O(jobs × ranks);
//! 4. barrier — after this, every channel any peer may deposit into
//!    exists on every fabric.
//!
//! Then the loop: admit queued jobs into the window, poll runnable tasks
//! (each a [`CatchPanic`]-wrapped job body), drain cancel tokens, and
//! park once on the union of every pending task's watched channels plus
//! the per-peer cancel channels.
//!
//! Failure protocol: a tenant panic on this rank resolves its task to
//! `Err` — the scheduler absorbs the transport death flag and broadcasts
//! the job's cancel token to every peer. A peer parked in `wait_any`
//! aborts with a peer-death panic instead: the scheduler catches it,
//! absorbs the flag, and re-parks — the cancel token (the control
//! channels are always in the park set) then attributes the failure to
//! exactly one job. Only when
//! nothing attributes the abort — a wait-deadline stall, or peer-death
//! panics repeating with no token ever arriving — does the rank fail its
//! still-running jobs wholesale, naming each one in the deadline dump.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mpi_advance::future::{panic_text, with_ctx, CatchPanic, EntryFuture, ProgressDriver};
use mpi_advance::{BatchRequest, PlannedBatch};
use mpisim::{ChanId, Comm, RankCtx, RecvChan};

use crate::{JobLogic, QueuedJob, RankFailure};

/// Peer-death park aborts absorbed without an attributing cancel token
/// before the rank gives up and fails its running jobs. Each absorb
/// marks the death as handled *for this rank* (the world flag stays up
/// for peers still blocked on the dead tenant's traffic) and re-parks;
/// a healthy peer's scheduler sends the token within one scheduling
/// round, so this bound only trips when the failing rank's scheduler
/// itself is gone.
const MAX_ABSORB_RETRIES: usize = 64;

/// One job's async body: `iters` iterations of start-all /
/// retire-entries-as-they-land, folding each entry's ghost values into
/// the rank state. Owns its session, so the future is `'static` and one
/// tenant's state can never alias another's.
async fn run_job(
    logic: Arc<dyn JobLogic>,
    mut session: BatchRequest,
    rank: usize,
    iters: usize,
) -> Vec<f64> {
    let mut state = logic.rank_state(rank);
    let n = session.len();
    let mut outputs: Vec<Vec<f64>> = (0..n)
        .map(|e| vec![f64::NAN; session.entry(e).output_index().len()])
        .collect();
    for iter in 0..iters {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|e| state.input(iter, e, session.entry(e)))
            .collect();
        with_ctx(|ctx| session.start_all(ctx, &inputs));
        for _ in 0..n {
            let e = EntryFuture::new(&mut session, &mut outputs).await;
            state.absorb(iter, e, session.entry(e), &outputs[e]);
        }
    }
    state.finish()
}

/// A cancel token: which job failed, and on which rank.
fn encode_token(job: usize, rank: usize) -> u64 {
    ((job as u64) << 32) | rank as u64
}

fn decode_token(tok: u64) -> (usize, usize) {
    ((tok >> 32) as usize, (tok & 0xffff_ffff) as usize)
}

/// Send `job`'s cancel token to every peer on the epoch's per-peer
/// control channels. Deposits never block, so this is safe mid-recovery.
fn broadcast_cancel(ctx: &mut RankCtx, ctl: &Comm, ctl_base: u64, rank: usize, job: usize) {
    let n_ranks = ctl.size();
    for dst in (0..n_ranks).filter(|&d| d != rank) {
        let chan = ctx.send_chan_init::<u64>(ctl, dst, ctl_base, 1);
        chan.start_with(ctx, |buf| {
            buf.clear();
            buf.push(encode_token(job, rank));
        });
    }
}

/// Drive every queued job on this rank; returns each job's local result,
/// indexed like `jobs`.
pub(crate) fn drive_rank(
    ctx: &mut RankCtx,
    jobs: &[QueuedJob],
    plans: &[Arc<PlannedBatch>],
    ctl_stream: u64,
    ctl_base: u64,
    max_concurrent: usize,
) -> Vec<Result<Vec<f64>, RankFailure>> {
    let world = ctx.comm_world();
    let rank = ctx.rank();
    let n_ranks = world.size();
    let n = jobs.len();

    // -- prologue: communicators, registration, cancel fabric, barrier --
    let comms: Vec<Comm> = jobs.iter().map(|q| world.dup_for(q.id)).collect();
    let ctl_comm = world.dup_for(ctl_stream);
    let mut sessions: Vec<Option<BatchRequest>> = plans
        .iter()
        .zip(&comms)
        .map(|(b, c)| Some(b.init_all(ctx, c)))
        .collect();
    let mut ctl: Vec<RecvChan<u64>> = (0..n_ranks)
        .filter(|&s| s != rank)
        .map(|s| {
            let mut r = ctx.recv_chan_init::<u64>(&ctl_comm, s, ctl_base, 1);
            r.start();
            r
        })
        .collect();
    ctx.barrier(&world);

    // -- the drive loop --
    let mut driver: ProgressDriver<'_, Result<Vec<f64>, String>> = ProgressDriver::new();
    let mut results: Vec<Option<Result<Vec<f64>, RankFailure>>> = (0..n).map(|_| None).collect();
    let mut task_of: Vec<Option<usize>> = vec![None; n];
    let mut job_of_task: Vec<usize> = Vec::new();
    let mut running: Vec<usize> = Vec::new();
    let mut next_admit = 0usize;
    let mut completed: Vec<usize> = Vec::new();
    let mut absorb_retries = 0usize;
    // the park set beyond the tasks' own watches: the per-peer cancel
    // channels (fixed for the whole epoch)
    let ctl_watch: Vec<ChanId> = ctl.iter().map(|rc| rc.chan_id()).collect();
    // drain cancel tokens only when a park could have been woken by one
    // (or periodically, as a safety valve while tasks stay runnable) —
    // scanning every peer channel on every poll round is pure overhead
    // in the fault-free common case
    let mut drain_due = false;
    let mut rounds = 0usize;

    loop {
        // admit queued jobs into the window (skipping any cancelled
        // before they ever ran on this rank)
        while running.len() < max_concurrent && next_admit < n {
            let j = next_admit;
            next_admit += 1;
            if results[j].is_some() {
                continue;
            }
            let session = sessions[j].take().expect("session admitted once");
            let iters = jobs[j].logic.iters();
            let t = driver.spawn(CatchPanic::new(run_job(
                Arc::clone(&jobs[j].logic),
                session,
                rank,
                iters,
            )));
            task_of[j] = Some(t);
            job_of_task.push(j);
            running.push(j);
        }
        if running.is_empty() {
            if next_admit >= n {
                break;
            }
            continue;
        }

        completed.clear();
        driver.poll_runnable(ctx, &mut completed);
        let mut progressed = !completed.is_empty();
        for &t in &completed {
            let j = job_of_task[t];
            let res = driver.take_result(t).expect("completed task has a result");
            if res.is_err() {
                // A tenant died on THIS rank (seeded kill= fault or plain
                // bug). The fault path raised the world death flag before
                // panicking; absorb it so peers' and siblings' waits stop
                // aborting, then tell every peer to cancel this one job.
                ctx.absorb_rank_failure();
                broadcast_cancel(ctx, &ctl_comm, ctl_base, rank, j);
            }
            results[j] = Some(res.map_err(own));
            running.retain(|&x| x != j);
        }

        // drain cancel tokens: a peer's scheduler contained some job's
        // failure there (a token for an already-resolved job is stale —
        // several ranks may dump the same job — and is dropped)
        rounds += 1;
        if drain_due || rounds.is_multiple_of(64) {
            drain_due = false;
            for rc in &mut ctl {
                while let Some(tok) = rc.try_take(ctx) {
                    rc.start();
                    let (j, src) = decode_token(tok[0]);
                    if results[j].is_some() {
                        continue;
                    }
                    if let Some(t) = task_of[j] {
                        driver.cancel(t);
                    }
                    running.retain(|&x| x != j);
                    results[j] = Some(Err(RankFailure {
                        message: format!(
                            "job {:?} cancelled: tenant failed on rank {src}",
                            jobs[j].name
                        ),
                        relayed_from: Some(src),
                    }));
                    progressed = true;
                }
            }
        }
        if progressed {
            absorb_retries = 0;
            continue;
        }
        if driver.has_runnable() {
            continue;
        }

        // park on every pending task's watches + the per-peer cancel
        // channels, catching the two abort paths (peer death, deadline)
        match catch_unwind(AssertUnwindSafe(|| driver.park(ctx, &ctl_watch))) {
            Ok(()) => {
                absorb_retries = 0;
                drain_due = true;
            }
            Err(payload) => {
                let msg = panic_text(payload);
                let absorbed = ctx.absorb_rank_failure();
                if absorbed.is_some() && absorb_retries < MAX_ABSORB_RETRIES {
                    // a peer's tenant died; its scheduler sends the
                    // cancel token on that job's watched control channel
                    // — re-park and let the token attribute the failure
                    absorb_retries += 1;
                    drain_due = true;
                    continue;
                }
                // deadline stall (or repeated unattributed death): the
                // dump fails every running job on this rank BY NAME
                let names: Vec<&str> = running.iter().map(|&j| jobs[j].name.as_str()).collect();
                for &j in &running {
                    broadcast_cancel(ctx, &ctl_comm, ctl_base, rank, j);
                    results[j] = Some(Err(own(format!(
                        "job {:?} failed while rank {rank} was parked \
                         (jobs running here: {names:?}): {msg}",
                        jobs[j].name
                    ))));
                    if let Some(t) = task_of[j] {
                        driver.cancel(t);
                    }
                }
                running.clear();
            }
        }
    }

    results
        .into_iter()
        .enumerate()
        .map(|(j, r)| {
            r.unwrap_or_else(|| Err(own(format!("job {:?} was never driven", jobs[j].name))))
        })
        .collect()
}

/// A failure that originated on this rank.
fn own(message: String) -> RankFailure {
    RankFailure {
        message,
        relayed_from: None,
    }
}
