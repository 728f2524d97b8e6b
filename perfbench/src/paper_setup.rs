//! `setup_1024ranks`: the paper-scale set-up, single-threaded. The
//! 1024×512 (524,288-row) hierarchy is partitioned over 1024 ranks
//! (`DistributedHierarchy::build`, the per-level comm packages), each
//! level becomes a pattern, and a `Backend::Auto` `NeighborBatch` over
//! every level is resolved on `paper_topology(1024)` (16 ranks per
//! region). Building the hierarchy is input generation and is not timed.
//! Each repetition is one request; its plan counts must equal the first's.
//!
//! Not in `BENCHMARK.json`: across ten seeds its median set-up moved
//! between 1.1 s and 1.8 s with the host's load (quartile spread up to
//! 0.32 of the median), beyond the largest bound the gate allows. Run it
//! by hand when the planner, selection or routing changes.

use std::time::{Duration, Instant};

use locality::Topology;
use mpi_advance::{Backend, NeighborBatch, Protocol};

use crate::layers::{self, PlanCheck};
use crate::report::{median, peak_rss_kb, percentile, Chunks, Outcome};
use crate::trace::{Recorder, Trace};

const NX: usize = 1024;
const NY: usize = 512;
const RANKS: usize = 1024;
/// Ranks per region, as in the paper's experiments.
const PPN: usize = 16;
const MIN_REPS: usize = 3;

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let base = Instant::now();
    let h = layers::hierarchy(NX, NY, seed, usize::MAX);
    let topo = Topology::block_nodes(RANKS, PPN);

    let mut drv = Recorder::new(0, base, trace, 1 << 16);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut plan_check = PlanCheck::default();
    let mut resolve_parts = Vec::new();
    let mut protocols: Vec<Protocol> = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rep = 0u64;
    while rep < MIN_REPS as u64 || start.elapsed() < deadline {
        let is_traced = trace && rep % 2 == 1;
        drv.set_on(is_traced);
        let t0 = Instant::now();
        let root = drv.open("setup", None, rep);
        let dist = drv.time("sparse.comm_pkgs", root, rep, || {
            amg::DistributedHierarchy::build(&h, RANKS)
        });
        let patterns = drv.time("amg.patterns", root, rep, || dist.patterns());
        let batch = patterns
            .iter()
            .fold(NeighborBatch::new(&topo), |b, p| b.entry(p, Backend::Auto));
        drv.time("core.resolve", root, rep, || {
            let _ = batch.tag_bases();
        });
        drv.close(root);
        let s = t0.elapsed().as_secs_f64();
        if is_traced {
            traced.push(s);
        } else {
            untraced.push(s);
        }
        out.count(1, 0);
        plan_check.check(&mut out, layers::plan_counts(batch.plans()));
        if rep == 0 {
            protocols = batch.plans().iter().map(|(p, _)| *p).collect();
            // the plans must deliver exactly the pattern (panics otherwise)
            let valid = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for ((_, plan), p) in batch.plans().iter().zip(&patterns) {
                    mpi_advance::agg::verify::verify_plan(p, plan, &topo);
                }
            }));
            out.count(1, u64::from(valid.is_err()));
        }
        if is_traced {
            resolve_parts.push(layers::resolve_parts(&mut drv, rep, &patterns, &topo, None));
        }
        rep += 1;
    }
    drv.set_on(trace);

    // one chunk per set-up: the median set-up gives the rate and latency
    let mut chunks = Chunks::default();
    for &s in &untraced {
        chunks.push(vec![s * 1e3], 1.0, s);
    }
    chunks.report(&mut out);
    out.set("setup_s", median(&mut untraced.clone()));
    out.set(
        "tail.latency_ms_p90",
        percentile(&mut untraced.clone(), 0.9) * 1e3,
    );
    out.set(
        "tail.latency_ms_p99",
        percentile(&mut untraced.clone(), 0.99) * 1e3,
    );
    out.set("amg.levels", h.n_levels() as f64);
    plan_check.report(&mut out);
    layers::report_levels(&mut out, &protocols);

    out.meta_str("fabric", "none");
    out.meta_str("backend", "Auto");
    out.meta_num("ranks", RANKS as f64);
    out.meta_num("regions", topo.n_regions() as f64);
    out.meta_str("grid", &format!("{NX}x{NY}"));
    out.meta_num("levels", h.n_levels() as f64);
    out.meta_num("setups_per_run", rep as f64);
    out.meta_str(
        "statistics",
        "median set-up; p90 and p99 over the run's set-ups",
    );
    out.meta_str(
        "request",
        "one set-up: comm packages, patterns, Auto batch resolve",
    );

    if trace {
        let p = |f: fn(&layers::ResolveParts) -> f64| {
            let mut v: Vec<f64> = resolve_parts.iter().map(f).collect();
            median(&mut v)
        };
        out.set("core.plan_build_s", p(|r| r.plan_s));
        out.set("core.select_s", p(|r| r.select_s));
        out.set("core.routing_build_s", p(|r| r.routing_s));
        let trace = Trace::new(drv.into_spans());
        out.set("trace.spans", trace.len() as f64);
        crate::ledger_setup(&mut out, &trace);
        let mut untraced_ms: Vec<f64> = untraced.iter().map(|s| s * 1e3).collect();
        let mut traced_ms: Vec<f64> = traced.iter().map(|s| s * 1e3).collect();
        crate::trace_overhead(&mut out, &mut untraced_ms, &mut traced_ms);
        crate::write_trace(&mut out, &trace);
    }
    out.set("rss_mb", peak_rss_kb() as f64 / 1024.0);
    out
}
