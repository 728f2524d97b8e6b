//! Acceptance tests for the socket fabric: ranks as real OS processes in a
//! `ProcessWorld`, meshed with stream sockets (UDS by default, TCP on
//! demand).
//!
//! `harness = false`: the binary dispatches on its first argument. With no
//! recognized scenario it is the orchestrator — it re-runs itself once per
//! scenario as a subprocess (each scenario process becomes rank 0 of its
//! own socket world and re-execs the remaining ranks, which land back in
//! `main` with the same argument). This keeps the process launcher's
//! one-launch-per-process rule intact while letting one `cargo test`
//! invocation cover all scenarios.
//!
//! Scenarios:
//! - `equivalence`: mixed plain/persistent/collective traffic on 4 process
//!   ranks over the default UDS mesh, byte-identical to the same closure
//!   on the thread transport.
//! - `tcp`: the same traffic with `MPISIM_SOCK_ADDR=127.0.0.1:0`, so the
//!   rendezvous AND the whole mesh run over TCP — the cross-host shape.
//! - `drop`: `MPISIM_FAULTS` severs live inter-process links mid-epoch
//!   (80‰ of deposits). Every severed link must reconnect and resume from
//!   its replay buffer; the run must stay byte-identical to the thread
//!   reference — the transient half of the PR's acceptance criterion.
//! - `death`: a worker process exits mid-epoch without raising any flag
//!   (the `SIGKILL` shape); every surviving rank must abort loudly instead
//!   of deadlocking, and the scenario process must exit nonzero — the
//!   permanent half of the acceptance criterion.
//! - `faultkill`: `MPISIM_FAULTS` kills a non-driver rank at a chosen
//!   transport op; the watchdog and dead-peer link probes must end the
//!   world loudly within the fault plan's deadline.
//!
//! The orchestrator also snapshots the temp directory around the whole
//! suite and fails if any `mpisim-sock-*` UDS listener path leaks past its
//! world's lifetime — not even the aborted worlds may leave one behind.

use mpisim::{RankCtx, World};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("equivalence") => scenario_equivalence(),
        Some("tcp") => scenario_tcp(),
        Some("drop") => scenario_drop(),
        Some("death") => scenario_death(),
        Some("faultkill") => scenario_faultkill(),
        // no (or an unrecognized, e.g. a test filter) argument: orchestrate
        _ => orchestrate(),
    }
}

// ---- orchestrator ---------------------------------------------------------

fn orchestrate() {
    let uds_before = uds_paths();
    run_scenario("equivalence", true);
    run_scenario("tcp", true);
    // transient faults: severed links must resume invisibly
    run_scenario("drop", true);
    // death containment: the world must end LOUDLY (nonzero exit), and
    // within the deadline (a deadlock would hang here forever)
    run_scenario("death", false);
    // a fault-plan kill of a non-driver rank also ends the world loudly
    run_scenario("faultkill", false);
    // no world may leak its UDS listener path — not even the aborted ones
    // (cleanup_listener on every exit path + Drop cover them)
    let leaked: Vec<String> = uds_paths()
        .into_iter()
        .filter(|p| !uds_before.contains(p))
        .collect();
    assert!(leaked.is_empty(), "leaked UDS listener paths: {leaked:?}");
    println!("sock_process: all scenarios passed");
}

/// Current `mpisim-sock-*` entries under the temp directory (the socket
/// fabric's auto-assigned UDS listener paths).
fn uds_paths() -> Vec<String> {
    match std::fs::read_dir(std::env::temp_dir()) {
        Ok(rd) => rd
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("mpisim-sock-"))
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
    println!("sock_process: scenario {name} ok ({status})");
}

// ---- equivalence ----------------------------------------------------------

/// Mixed traffic exercising every fabric seam: plain mailbox sends (small
/// and large), persistent channels riding `K_CHAN` frames, and a
/// collective.
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

    // large plain payload: spans many wire frames' worth of data and
    // (under the drop scenario) straddles link severs mid-message
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

/// The shared body of every should-succeed scenario: run `traffic` on a
/// 4-rank socket world, derive the thread-transport reference
/// independently in every process (deterministic), then assert this
/// process's rank INSIDE an epoch, so a mismatch in any process aborts
/// the whole world loudly.
fn assert_traffic_matches_thread_world(what: &str) {
    const N: usize = 4;
    let world = World::spawn_sock(N);
    let mine = world.run(traffic);
    let reference = World::run(N, traffic);
    let rank = world.rank();
    world.run(move |_ctx| {
        assert_eq!(
            mine, reference[rank],
            "rank {rank}: {what} traffic diverged from the thread world"
        );
    });
}

fn scenario_equivalence() {
    assert_traffic_matches_thread_world("socket-world");
}

// ---- tcp ------------------------------------------------------------------

/// The same equivalence bar over TCP: the driver binds `127.0.0.1:0`, and
/// workers match its address family, so rendezvous and mesh both run over
/// TCP streams — the shape the fabric takes across hosts.
fn scenario_tcp() {
    // only the first process of the scenario may choose the bind spec: in
    // workers the variable already carries the driver's concrete address
    if std::env::var("MPISIM_SOCK_ADDR").is_err() {
        std::env::set_var("MPISIM_SOCK_ADDR", "127.0.0.1:0");
    }
    assert_traffic_matches_thread_world("TCP socket-world");
}

// ---- drop -----------------------------------------------------------------

/// `MPISIM_FAULTS` severs live sockets under real traffic in every process
/// of the world (each deposit has an 80‰ chance of tearing down its link
/// first). The connector side must redial with backoff, resume from the
/// replay buffer, and deliver exactly once — byte-identical results prove
/// the reconnect machinery is semantically invisible. The thread-world
/// reference parses the same spec, but `sever_link` is a no-op there, so
/// it computes the undisturbed answer.
fn scenario_drop() {
    if std::env::var("MPISIM_FAULTS").is_err() {
        std::env::set_var("MPISIM_FAULTS", "11:drop=80,deadline=60000");
    }
    assert_traffic_matches_thread_world("link-dropping socket-world");
}

// ---- death ----------------------------------------------------------------

fn scenario_death() {
    const N: usize = 4;
    let world = World::spawn_sock(N);
    world.run(|ctx| {
        let comm = ctx.comm_world();
        if ctx.rank() == 2 {
            // die WITHOUT unwinding: no panic hook, no K_DEATH broadcast —
            // the shape a SIGKILL leaves behind. Rank 0's watchdog and the
            // peers' heartbeat-fed link probes must turn the silence into
            // loud aborts.
            std::process::exit(7);
        }
        // everyone else blocks on traffic rank 2 will never send
        let _: Vec<u64> = ctx.recv(&comm, 2, 9);
        unreachable!("rank {} completed a recv from a dead rank", ctx.rank());
    });
    unreachable!("the epoch with a dead rank reported success");
}

// ---- faultkill ------------------------------------------------------------

/// `MPISIM_FAULTS` kills worker rank 2 at its 5th counted transport op.
/// Every process of the world (driver and workers alike) parses the same
/// spec from the environment, so the kill replays identically; the
/// watchdog and the peers' dead-link detection must end the epoch loudly
/// well inside the plan's deadline.
fn scenario_faultkill() {
    const N: usize = 4;
    if std::env::var("MPISIM_FAULTS").is_err() {
        std::env::set_var("MPISIM_FAULTS", "5:kill=2@5,deadline=20000");
    }
    let world = World::spawn_sock(N);
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
