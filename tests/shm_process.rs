//! Acceptance tests for the cross-process shared-memory fabric: ranks as
//! real OS processes in a `ProcessWorld` over the shm fabric.
//!
//! `harness = false`: the binary dispatches on its first argument. With no
//! recognized scenario it is the orchestrator — it re-runs itself once per
//! scenario as a subprocess (each scenario process becomes rank 0 of its
//! own process world and re-execs the remaining ranks, which land back in
//! `main` with the same argument). This keeps the process launcher's
//! one-launch-per-process rule intact while letting one `cargo test`
//! invocation cover all scenarios.
//!
//! Scenarios:
//! - `equivalence`: mixed plain/persistent/collective traffic on 4 process
//!   ranks, byte-identical to the same closure on the thread transport.
//! - `amg`: the paper pipeline — every AMG level's halo exchange through
//!   one `NeighborBatch` session on 8 process ranks, byte-identical to the
//!   thread-transport run (the PR's acceptance criterion).
//! - `death`: a worker process exits mid-epoch without raising any flag
//!   (the `SIGKILL` shape); every surviving rank must abort loudly instead
//!   of deadlocking, and the scenario process must exit nonzero.
//! - `respawn`: a worker dies *before* attaching to the segment
//!   (`MPISIM_ATTACH_FAIL_ONCE`); the driver's attach-barrier supervision
//!   must respawn it within its `MPISIM_RESPAWN_MAX` budget and the world
//!   must complete normally.
//! - `faultkill`: `MPISIM_FAULTS` kills a non-driver rank at a chosen
//!   transport op; the watchdog and pid sweeps must end the world loudly
//!   within the fault plan's deadline.
//! - `relaunch`: after a 2-rank shm world has run and shut down, a second
//!   launch — over the *other* fabric, `World::spawn_sock` — must panic
//!   with the launch guard's message instead of re-exec'ing workers that
//!   would re-enter `main` as drivers of their own worlds.
//!
//! The orchestrator also snapshots `/dev/shm` around the whole suite and
//! fails if any `mpisim-*` segment leaks past its world's lifetime.

use amg::{DistributedHierarchy, Hierarchy, HierarchyOptions};
use locality::Topology;
use mpi_advance::{Backend, CommPattern, NeighborBatch, Protocol};
use mpisim::{RankCtx, World};
use sparse::gen::diffusion::paper_problem;
use sparse::vector::random_vec;
use sparse::ParCsr;

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("equivalence") => scenario_equivalence(),
        Some("amg") => scenario_amg(),
        Some("death") => scenario_death(),
        Some("respawn") => scenario_respawn(),
        Some("faultkill") => scenario_faultkill(),
        Some("relaunch") => scenario_relaunch(),
        // debug helper, not part of the orchestrated suite: the amg
        // scenario's thread-transport reference on its own
        Some("amgthread") => {
            let setup = AmgSetup::build();
            let batch = setup.batch();
            let r = World::run(AMG_RANKS, |ctx| setup.run(&batch, ctx));
            println!("amgthread ok: {} ranks", r.len());
        }
        // no (or an unrecognized, e.g. a test filter) argument: orchestrate
        _ => orchestrate(),
    }
}

// ---- orchestrator ---------------------------------------------------------

fn orchestrate() {
    let shm_before = shm_segments();
    run_scenario("equivalence", true);
    run_scenario("amg", true);
    // death containment: the world must end LOUDLY (nonzero exit), and
    // within the deadline (a deadlock would hang here forever)
    run_scenario("death", false);
    // pre-attach worker death is healed by respawn, not an abort
    run_scenario("respawn", true);
    // a fault-plan kill of a non-driver rank also ends the world loudly
    run_scenario("faultkill", false);
    // one process world per execution, whichever fabrics are asked for
    run_scenario("relaunch", true);
    // no world may leak its /dev/shm segment — not even the aborted ones
    // (driver-side unlink after the attach barrier + Drop cover them)
    let leaked: Vec<String> = shm_segments()
        .into_iter()
        .filter(|s| !shm_before.contains(s))
        .collect();
    assert!(leaked.is_empty(), "leaked /dev/shm segments: {leaked:?}");
    println!("shm_process: all scenarios passed");
}

/// Current `mpisim-*` entries under `/dev/shm`.
fn shm_segments() -> Vec<String> {
    match std::fs::read_dir("/dev/shm") {
        Ok(rd) => rd
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("mpisim-"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

fn run_scenario(name: &str, expect_success: bool) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(&exe)
        .arg(name)
        .spawn()
        .expect("spawn scenario process");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    let status = loop {
        match child.try_wait().expect("poll scenario process") {
            Some(status) => break status,
            None if std::time::Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("scenario {name} deadlocked (no exit before the deadline)");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    };
    assert_eq!(
        status.success(),
        expect_success,
        "scenario {name}: unexpected exit {status}"
    );
    println!("shm_process: scenario {name} ok ({status})");
}

// ---- equivalence ----------------------------------------------------------

/// Mixed traffic exercising every fabric seam: plain mailbox sends (small
/// and ring-overflowing large), persistent channels, and a collective.
fn traffic(ctx: &mut RankCtx) -> Vec<u64> {
    let comm = ctx.comm_world();
    let n = ctx.size();
    let r = ctx.rank();
    let right = (r + 1) % n;
    let left = (r + n - 1) % n;
    let mut out = Vec::new();

    // plain ring
    ctx.send(&comm, right, 1, &[(r as u64) * 3 + 1]);
    out.extend(ctx.recv::<u64>(&comm, left, 1));

    // oversized plain payload: streams through the bounded mailbox ring
    // in chunks (reassembled receiver-side)
    let big: Vec<u64> = (0..80_000).map(|i| (r as u64) << 32 | i).collect();
    ctx.send(&comm, right, 2, &big);
    let got: Vec<u64> = ctx.recv(&comm, left, 2);
    out.push(got.len() as u64);
    out.push(got[79_999]);

    // persistent channels, two iterations on one registration
    let send = ctx.send_chan_init::<u64>(&comm, right, 3, 1);
    let mut recv = ctx.recv_chan_init::<u64>(&comm, left, 3, 1);
    for it in 0..2u64 {
        send.start_with(ctx, |b| b.push(r as u64 * 100 + it));
        recv.start();
        out.push(recv.wait_with(ctx, |d| d[0]));
    }

    // collective
    out.extend(ctx.allgather(&comm, &[r as u64 * 7 + 5]));
    out
}

fn scenario_equivalence() {
    const N: usize = 4;
    let world = World::spawn_processes(N);
    let mine = world.run(traffic);
    // every process derives the thread-transport reference independently
    // (deterministic), then asserts its own rank INSIDE an epoch, so a
    // mismatch in any process aborts the whole world loudly
    let reference = World::run(N, traffic);
    let rank = world.rank();
    world.run(move |_ctx| {
        assert_eq!(
            mine, reference[rank],
            "rank {rank}: process-world traffic diverged from the thread world"
        );
    });
}

// ---- amg ------------------------------------------------------------------

const AMG_RANKS: usize = 8;

/// The amg_solve example's core at test scale: hierarchy, per-level
/// patterns, one batch holding every level's collective, and the input /
/// operator data. Built ONCE per process and shared across rank closures
/// — a `NeighborBatch` leases its entries' tag namespaces from the
/// process-global `TagSpace`, so thread-world ranks must share one batch
/// (per-rank batches would lease disjoint tag ranges and never match).
/// Each process builds its own identical copy: the leased bases are
/// deterministic in a fresh process, so process ranks agree with each
/// other and with the thread-world reference.
struct AmgSetup {
    h: Hierarchy,
    dist: DistributedHierarchy,
    topo: Topology,
    patterns: Vec<CommPattern>,
    xs: Vec<Vec<f64>>,
}

impl AmgSetup {
    fn build() -> Self {
        let h = Hierarchy::setup(paper_problem(64, 32), HierarchyOptions::default());
        let dist = DistributedHierarchy::build(&h, AMG_RANKS);
        let topo = Topology::block_nodes(AMG_RANKS, 4);
        let patterns = dist.patterns();
        let xs: Vec<Vec<f64>> = dist
            .levels
            .iter()
            .map(|dlvl| random_vec(dlvl.n_rows, dlvl.level as u64))
            .collect();
        Self {
            h,
            dist,
            topo,
            patterns,
            xs,
        }
    }

    /// The one batch holding every level's collective, borrowing `self`
    /// (a `NeighborBatch` borrows its topology and patterns, so it lives
    /// in the caller's frame).
    fn batch(&self) -> NeighborBatch<'_> {
        let mut batch = NeighborBatch::new(&self.topo);
        for pattern in &self.patterns {
            batch = batch.entry(pattern, Backend::Protocol(Protocol::FullNeighbor));
        }
        batch
    }

    /// Every AMG level's halo exchange through one batch session, returning
    /// this rank's per-level SpMV output bits.
    fn run(&self, batch: &NeighborBatch<'_>, ctx: &mut RankCtx) -> Vec<Vec<u64>> {
        let me = ctx.rank();
        let pars: Vec<ParCsr> = self
            .dist
            .levels
            .iter()
            .map(|dlvl| ParCsr::split_all(&self.h.levels[dlvl.level].a, &dlvl.part).swap_remove(me))
            .collect();
        let comm = ctx.comm_world();
        let mut session = batch.init_all(ctx, &comm);
        let inputs: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .enumerate()
            .map(|(lvl, req)| req.input_index().iter().map(|&i| self.xs[lvl][i]).collect())
            .collect();
        let mut ghosts: Vec<Vec<f64>> = session
            .requests()
            .iter()
            .map(|req| vec![0.0; req.output_index().len()])
            .collect();
        session.start_all(ctx, &inputs);
        let mut ys: Vec<Vec<u64>> = vec![Vec::new(); session.len()];
        while session.in_flight() > 0 {
            let lvl = session.wait_any(ctx, &mut ghosts);
            let range = self.dist.levels[lvl].part.range(me);
            ys[lvl] = pars[lvl]
                .spmv(&self.xs[lvl][range], &ghosts[lvl])
                .iter()
                .map(|v| v.to_bits())
                .collect();
        }
        ys
    }
}

fn scenario_amg() {
    let setup = AmgSetup::build();
    let batch = setup.batch();
    let world = World::spawn_processes(AMG_RANKS);
    let mine = world.run(|ctx| setup.run(&batch, ctx));
    let reference = World::run(AMG_RANKS, |ctx| setup.run(&batch, ctx));
    let rank = world.rank();
    world.run(move |_ctx| {
        for (lvl, (got, want)) in mine.iter().zip(&reference[rank]).enumerate() {
            assert_eq!(
                got, want,
                "rank {rank} level {lvl}: process-world SpMV diverged from the thread world"
            );
        }
    });
}

// ---- death ----------------------------------------------------------------

fn scenario_death() {
    const N: usize = 4;
    let world = World::spawn_processes(N);
    world.run(|ctx| {
        let comm = ctx.comm_world();
        if ctx.rank() == 2 {
            // die WITHOUT unwinding: no panic hook, no fabric flag — the
            // shape a SIGKILL leaves behind. Rank 0's watchdog and the
            // peers' pid sweeps must turn this into loud aborts.
            std::process::exit(7);
        }
        // everyone else blocks on traffic rank 2 will never send
        let _: Vec<u64> = ctx.recv(&comm, 2, 9);
        unreachable!("rank {} completed a recv from a dead rank", ctx.rank());
    });
    unreachable!("the epoch with a dead rank reported success");
}

// ---- respawn --------------------------------------------------------------

/// Worker rank 2 exits before storing its pid slot (invisible to the
/// fabric's death detection); the driver's attach-barrier supervision must
/// respawn it and the healed world must then run real traffic correctly.
fn scenario_respawn() {
    const N: usize = 4;
    // the marker must be stable across the driver AND every (re-exec'd)
    // worker, so only the first process of the scenario may choose it —
    // workers inherit the driver's value through their environment
    if std::env::var("MPISIM_ATTACH_FAIL_ONCE").is_err() {
        let marker =
            std::env::temp_dir().join(format!("mpisim-attach-fail-{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        std::env::set_var("MPISIM_ATTACH_FAIL_ONCE", format!("2:{}", marker.display()));
    }
    let world = World::spawn_processes(N);
    let mine = world.run(traffic);
    let reference = World::run(N, traffic);
    let rank = world.rank();
    world.run(move |_ctx| {
        assert_eq!(
            mine, reference[rank],
            "rank {rank}: traffic diverged after a worker respawn"
        );
    });
    if world.rank() == 0 {
        let spec = std::env::var("MPISIM_ATTACH_FAIL_ONCE").expect("hook spec");
        let marker = spec.split_once(':').expect("rank:path spec").1.to_string();
        assert!(
            std::fs::metadata(&marker).is_ok(),
            "the pre-attach failure never fired (marker {marker} missing)"
        );
        let _ = std::fs::remove_file(marker);
    }
}

// ---- faultkill ------------------------------------------------------------

/// `MPISIM_FAULTS` kills worker rank 2 at its 5th counted transport op.
/// Every process of the world (driver and workers alike) parses the same
/// spec from the environment, so the kill replays identically; the
/// watchdog and peer pid sweeps must end the epoch loudly well inside the
/// plan's deadline.
fn scenario_faultkill() {
    const N: usize = 4;
    if std::env::var("MPISIM_FAULTS").is_err() {
        std::env::set_var("MPISIM_FAULTS", "5:kill=2@5,deadline=20000");
    }
    let world = World::spawn_processes(N);
    world.run(|ctx| {
        let comm = ctx.comm_world();
        for it in 0..16u64 {
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(&comm, right, it, &[ctx.rank() as u64 + it]);
            let _: Vec<u64> = ctx.recv(&comm, left, it);
        }
        unreachable!("rank {} outlived the fault plan's kill", ctx.rank());
    });
    unreachable!("the epoch with a killed rank reported success");
}

// ---- relaunch -------------------------------------------------------------

/// One launch guard for both process fabrics: a shm world that ran and
/// shut down still forbids a later socket world in the same execution.
fn scenario_relaunch() {
    let world = World::spawn_processes(2);
    let ranks = world.run(|ctx| ctx.size());
    assert_eq!(ranks, 2);
    drop(world); // workers exit here; only the driver goes on
                 // the guard's panic is the expected outcome: keep it off stderr
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let relaunch = std::panic::catch_unwind(|| World::spawn_sock(2));
    std::panic::set_hook(hook);
    let payload = match relaunch {
        Ok(_) => panic!("a second process world launched in one execution"),
        Err(p) => p,
    };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("a process world was already launched in this process execution"),
        "unexpected relaunch panic: {msg:?}"
    );
}
