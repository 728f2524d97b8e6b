//! `service_tenants`: rounds of 8 tenants through one `SolveService` on 4
//! thread ranks with `max_concurrent(4)`. Each tenant is a one-sweep
//! `JacobiJob` over a 32×16 hierarchy with its own right-hand side, on the
//! default `Backend::Auto`. A round submits the 8 tenants and runs
//! `run_pending`; every job's outcome is compared byte for byte with its
//! reference.
//!
//! The service leaks memory per job (dup'd communicators' channels are
//! never freed), so the service is rebuilt every [`LIFETIME_ROUNDS`]
//! rounds to keep a run's memory bounded. Every build is a set-up sample
//! (pool launch, tenant job build, first round served), so `setup_s` is
//! sampled across the whole run; set-up rounds are not measured rounds.
//! The leak shows as `rss_mb`, the peak RSS when the first service
//! retires (a fixed amount of work), and as `service.rss_kb_per_job`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use amg::{Hierarchy, JacobiJob};
use locality::Topology;
use mpi_advance::{Backend, NeighborBatch};
use service::{JobLogic, JobReport, JobSpec, SolveService};

use crate::layers::{self, Fabric, PlanCheck};
use crate::report::{median, peak_rss_kb, rss_kb, slope, Chunks, Outcome};
use crate::trace::{Ledger, Recorder, Trace};

const NX: usize = 32;
const NY: usize = 16;
/// Levels kept: every seed's 32×16 hierarchy then has the same depth.
const MAX_LEVELS: usize = 4;
const RANKS: usize = 4;
const PPN: usize = 2;
const TENANTS: usize = 8;
const MAX_CONCURRENT: usize = 4;
const OMEGA: f64 = 0.8;
/// Set-ups before the measured rounds (more follow, one per rebuild).
const SETUP_REPS: usize = 5;
/// Rounds a service serves before it is rebuilt.
const LIFETIME_ROUNDS: usize = 250;
/// Untraced rounds per statistics chunk.
const CHUNK_ROUNDS: usize = 50;
/// Rounds of a service's life before its RSS slope is fitted.
const RSS_WARMUP_ROUNDS: usize = 50;

type Reference = Vec<Vec<Vec<f64>>>;

fn build_jobs(h: &Hierarchy, seed: u64) -> Vec<Arc<JacobiJob>> {
    let n = h.levels[0].a.n_rows();
    (0..TENANTS)
        .map(|k| {
            let rhs = layers::rhs(n, seed, 1 + k as u64);
            Arc::new(JacobiJob::relaxation(h, RANKS, &rhs, OMEGA, 1))
        })
        .collect()
}

/// One set-up: launch a service, build the tenants' jobs and serve their
/// first round, which is checked. Returns the service, the jobs and the
/// set-up time in seconds. The `retired` service (its pool and leaked
/// channels) is dropped first, outside the timing, so every set-up starts
/// from the same memory state.
#[allow(clippy::too_many_arguments)]
fn set_up(
    retired: Option<SolveService>,
    h: &Hierarchy,
    seed: u64,
    topo: &Topology,
    reference: &Reference,
    rec: &mut Recorder,
    req: u64,
    out: &mut Outcome,
) -> (SolveService, Vec<Arc<JacobiJob>>, f64) {
    drop(retired);
    let t0 = Instant::now();
    let root = rec.open("setup", None, req);
    let mut svc = rec.time("mpisim.pool_launch", root, req, || {
        SolveService::with_pool(Fabric::Thread.launch(RANKS)).max_concurrent(MAX_CONCURRENT)
    });
    let jobs = rec.time("amg.job_build", root, req, || build_jobs(h, seed));
    let reports = round(&mut svc, &jobs, topo, rec, root, req);
    rec.close(root);
    let secs = t0.elapsed().as_secs_f64();
    check(out, &reports, reference);
    (svc, jobs, secs)
}

/// Submit every tenant and run the round; returns the reports.
fn round(
    svc: &mut SolveService,
    jobs: &[Arc<JacobiJob>],
    topo: &Topology,
    rec: &mut Recorder,
    parent: Option<u64>,
    req: u64,
) -> Vec<JobReport> {
    for (k, job) in jobs.iter().enumerate() {
        rec.time(
            "service.submit",
            parent,
            req * TENANTS as u64 + k as u64,
            || {
                svc.submit(JobSpec::new(
                    format!("tenant-{k}"),
                    topo.clone(),
                    Arc::clone(job) as Arc<dyn JobLogic>,
                ))
            },
        );
    }
    rec.time("service.run_pending", parent, req, || svc.run_pending())
}

/// Count the round's jobs, failing every one whose outcome is an error or
/// differs from its reference.
fn check(out: &mut Outcome, reports: &[JobReport], reference: &Reference) {
    let bad = reports
        .iter()
        .zip(reference)
        .filter(|(r, want)| match &r.outcome {
            Ok(got) => {
                got.len() != want.len()
                    || got
                        .iter()
                        .zip(want.iter())
                        .any(|(g, w)| !layers::same_bits(g, w))
            }
            Err(_) => true,
        })
        .count();
    let missing = TENANTS.saturating_sub(reports.len());
    out.count(TENANTS as u64, (bad + missing) as u64);
}

/// The same round's jobs driven directly, without the service: resolve
/// each tenant's batch, then one epoch on the service's pool in which
/// every rank inits each batch and runs its sweep. Returns the plans of
/// the first tenant's batch.
fn direct_round(
    svc: &SolveService,
    jobs: &[Arc<JacobiJob>],
    topo: &Topology,
    reference: &Reference,
    rec: &mut Recorder,
    req: u64,
    out: &mut Outcome,
) -> [u64; 4] {
    let root = rec.open("direct_round", None, req);
    let patterns: Vec<_> = rec.time("amg.patterns", root, req, || {
        jobs.iter().map(|j| j.patterns()).collect::<Vec<_>>()
    });
    let batches: Vec<NeighborBatch<'_>> = patterns
        .iter()
        .map(|pats| {
            pats.iter()
                .fold(NeighborBatch::new(topo), |b, p| b.entry(p, Backend::Auto))
        })
        .collect();
    for b in &batches {
        rec.time("core.resolve", root, req, || {
            let _ = b.tag_bases();
        });
    }
    let result = rec.time("mpisim.epoch", root, req, || {
        svc.pool().try_run(|ctx| {
            let rank = ctx.rank();
            let comm = ctx.comm_world();
            let mut bad = 0u64;
            for (j, b) in batches.iter().enumerate() {
                let mut session = b.init_all(ctx, &comm);
                let mut state = jobs[j].rank_state(rank);
                let inputs: Vec<Vec<f64>> = (0..session.len())
                    .map(|e| state.input(e, session.entry(e)))
                    .collect();
                let mut outputs: Vec<Vec<f64>> = session
                    .requests()
                    .iter()
                    .map(|r| vec![0.0; r.output_index().len()])
                    .collect();
                session.start_all(ctx, &inputs);
                while session.in_flight() > 0 {
                    let e = session.wait_any(ctx, &mut outputs);
                    state.absorb(e, session.entry(e), &outputs[e]);
                }
                bad += u64::from(!layers::same_bits(&state.finish(), &reference[j][rank]));
            }
            bad
        })
    });
    rec.close(root);
    match result {
        Ok(per_rank) => {
            let bad_jobs = per_rank.iter().copied().max().unwrap_or(0);
            out.count(TENANTS as u64, bad_jobs);
        }
        Err(e) => {
            out.count(TENANTS as u64, TENANTS as u64);
            out.note(format!("direct round {req} failed: {e}"));
        }
    }
    layers::plan_counts(batches[0].plans())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let base = Instant::now();

    // inputs: generated from the seed, not timed
    let h = layers::hierarchy(NX, NY, seed, MAX_LEVELS);
    let topo = Topology::block_nodes(RANKS, PPN);
    let reference: Reference = build_jobs(&h, seed)
        .iter()
        .map(|j| j.reference_results())
        .collect();

    let mut drv = Recorder::new(0, base, trace, 1 << 22);
    let mut setup_s = Vec::new();
    let mut plan_check = PlanCheck::default();
    let mut resolve_parts = Vec::new();
    let mut protocols = Vec::new();
    let mut kept: Option<(SolveService, Vec<Arc<JacobiJob>>)> = None;
    for rep in 0..SETUP_REPS {
        let retired = kept.take().map(|(svc, _)| svc);
        let (svc, jobs, secs) = set_up(
            retired, &h, seed, &topo, &reference, &mut drv, rep as u64, &mut out,
        );
        setup_s.push(secs);
        let patterns = jobs[0].patterns();
        let batch = patterns
            .iter()
            .fold(NeighborBatch::new(&topo), |b, p| b.entry(p, Backend::Auto));
        plan_check.check(&mut out, layers::plan_counts(batch.plans()));
        protocols = batch.plans().iter().map(|(p, _)| *p).collect();
        if trace {
            resolve_parts.push(layers::resolve_parts(
                &mut drv, rep as u64, &patterns, &topo, None,
            ));
        }
        kept = Some((svc, jobs));
    }
    let (mut svc, mut jobs) = kept.expect("set-up ran");

    // measured rounds
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut chunks = Chunks::default();
    let mut chunk = Vec::with_capacity(CHUNK_ROUNDS);
    let mut direct_ms = Vec::new();
    let mut first_life_peak_kb = None;
    // RSS over the first service life, after its warm-up: (jobs, kB)
    let mut rss: Vec<(f64, f64)> = Vec::new();
    let mut r = 0usize;
    // the kept service already served its set-up round
    let mut life = 1;
    let mut first_life = true;
    while start.elapsed() < deadline {
        if life == LIFETIME_ROUNDS {
            first_life_peak_kb.get_or_insert_with(peak_rss_kb);
            drv.set_on(trace);
            let req = setup_s.len() as u64;
            let (s, j, secs) = set_up(
                Some(svc),
                &h,
                seed,
                &topo,
                &reference,
                &mut drv,
                req,
                &mut out,
            );
            (svc, jobs) = (s, j);
            setup_s.push(secs);
            // the new service served its set-up round
            life = 1;
            first_life = false;
        }
        let is_traced = trace && r % 2 == 1;
        drv.set_on(is_traced);
        let t = Instant::now();
        let root = drv.open("round", None, r as u64);
        let reports = round(&mut svc, &jobs, &topo, &mut drv, root, r as u64);
        drv.close(root);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if is_traced {
            traced.push(ms);
        } else {
            untraced.push(ms);
            chunk.push(ms);
            if chunk.len() == CHUNK_ROUNDS {
                let secs = chunk.iter().sum::<f64>() / 1e3;
                chunks.push(
                    std::mem::take(&mut chunk),
                    (CHUNK_ROUNDS * TENANTS) as f64,
                    secs,
                );
            }
        }
        check(&mut out, &reports, &reference);
        if is_traced {
            let t = Instant::now();
            let counts = direct_round(&svc, &jobs, &topo, &reference, &mut drv, r as u64, &mut out);
            direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
            plan_check.check(&mut out, counts);
        }
        if trace && first_life && life >= RSS_WARMUP_ROUNDS {
            rss.push((((life + 1) * TENANTS) as f64, rss_kb() as f64));
        }
        life += 1;
        r += 1;
    }
    drv.set_on(trace);

    out.set("setup_s", median(&mut setup_s.clone()));
    chunks.report(&mut out);
    out.set("amg.levels", h.n_levels() as f64);
    plan_check.report(&mut out);
    layers::report_levels(&mut out, &protocols);

    out.meta_str("fabric", "thread");
    out.meta_str("backend", "Auto");
    out.meta_num("ranks", RANKS as f64);
    out.meta_num("regions", topo.n_regions() as f64);
    out.meta_str("grid", &format!("{NX}x{NY}"));
    out.meta_num("levels", h.n_levels() as f64);
    out.meta_num("tenants_per_round", TENANTS as f64);
    out.meta_num("max_concurrent", MAX_CONCURRENT as f64);
    out.meta_num("rounds_per_run", r as f64);
    out.meta_str(
        "statistics",
        "per 50-round chunk: jobs/s over the chunk's round time and round-time percentiles; median chunk",
    );
    out.meta_num("service_lifetime_rounds", LIFETIME_ROUNDS as f64);
    out.meta_num("setup_reps", setup_s.len() as f64);
    out.meta_str(
        "request",
        "one round: submit 8 tenants, then run_pending; throughput counts jobs",
    );

    if trace {
        let p = |f: fn(&layers::ResolveParts) -> f64| {
            let mut v: Vec<f64> = resolve_parts.iter().map(f).collect();
            median(&mut v)
        };
        out.set("core.plan_build_s", p(|r| r.plan_s));
        out.set("core.select_s", p(|r| r.select_s));
        out.set("core.routing_build_s", p(|r| r.routing_s));
        out.set("mpisim.epoch_us", layers::empty_epoch_us(svc.pool(), 400));
        crate::pingpongs(&mut out, svc.pool());
        let (xs, ys): (Vec<f64>, Vec<f64>) = rss.into_iter().unzip();
        out.set("service.rss_kb_per_job", slope(&xs, &ys));

        let trace = Trace::new(drv.into_spans());
        out.set("trace.spans", trace.len() as f64);
        crate::ledger_setup(&mut out, &trace);
        let ledger = Ledger::of(
            trace.requests("round", "service.round_unattributed"),
            &[
                "service.submit",
                "service.run_pending",
                "service.round_unattributed",
            ],
        );
        if let Some(l) = ledger {
            let direct = median(&mut direct_ms);
            let run_pending = l.part_ns("service.run_pending") / 1e6;
            out.set("service.submit_us", l.part_ns("service.submit") / 1e3);
            out.set("service.run_pending_ms", run_pending);
            out.set(
                "service.round_unattributed_ms",
                l.part_ns("service.round_unattributed") / 1e6,
            );
            out.set("service.round_traced_ms", l.band_ns / 1e6);
            out.set("service.direct_round_ms", direct);
            out.set("service.overhead_ms", run_pending - direct);
            out.note(l.render("round", 1e6, "ms"));
            out.note(format!(
                "  run_pending {run_pending:.3} ms = direct round {direct:.3} ms \
                 (median of {} direct rounds) + service overhead {:.3} ms",
                direct_ms.len(),
                run_pending - direct
            ));
        }
        let mut resolve: Vec<f64> = trace
            .durations("core.resolve")
            .iter()
            .map(|&d| d as f64 / 1e9)
            .collect();
        if !resolve.is_empty() {
            out.set("core.resolve_s", median(&mut resolve));
        }
        crate::trace_overhead(&mut out, &mut untraced, &mut traced);
        crate::write_trace(&mut out, &trace);
    }
    let peak_kb = first_life_peak_kb.unwrap_or_else(peak_rss_kb);
    out.set("rss_mb", peak_kb as f64 / 1024.0);
    drop(svc);
    out
}
