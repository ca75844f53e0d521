//! The traced run's per-layer probes.
//!
//! Each probe times calls into one crate's public functions, from this
//! file, on inputs taken from the workload itself: the workload's scene
//! and configuration stepped frame by frame over the event fabric, and the
//! particle stores of its final-frame snapshot. Every probe runs on every
//! workload; README.md says which end-to-end metric each should move.

use std::hint::black_box;
use std::time::Instant;

use psa_core::kernel::run_actions;
use psa_core::{Particle, SubDomainStore};
use psa_math::{Aabb, Axis, Rng64, Vec3};
use psa_render::{render_particles, Camera, Framebuffer, SplatConfig};
use psa_runtime::{run_sequential, strategy_for, EngineSnapshot, LoadInfo, Scene};
use psa_sessions::{derive_session_seed, PoolFault, SessionId};
use psa_trace::PHASES;

use crate::alloc::allocs;
use crate::report::Ctx;
use crate::stats::{median, quantile};
use crate::workloads::{admit_all, animate, event_engine, RunSpec, WallPerFrame};

/// Timed passes per store-level probe; the median pass is reported.
const PASSES: usize = 3;
/// Balancing rounds decided per system and pass.
const BALANCE_ROUNDS: u64 = 50;

/// Session-layer figures, from the `sessions` pool or a pool of one.
#[derive(Debug)]
pub struct PoolFigures {
    pub admit_us: f64,
    pub us_per_dispatch: f64,
    pub requeues: u64,
    pub lost_frames: u64,
}

/// Time `f` `reps` times, each inside a span named `name`; seconds.
fn timed<T>(ctx: &mut Ctx, reps: usize, name: &'static str, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            ctx.tracer.span(name, |_| black_box(f()));
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Run every layer probe on `spec` and record the per-layer metrics.
///
/// The probes run at session 0's seed of a pool seeded like the workload,
/// so the engine stepped here must match that session's pooled run:
/// `pool` carries the `sessions` pool's figures and session 0's pooled
/// fingerprint; without it a pool of one session of `spec` runs here.
/// `executor_s_per_frame` is the workload executor's untraced host time per
/// frame, for the protocol overhead over `run_sequential`.
pub fn layers(
    ctx: &mut Ctx,
    spec: &RunSpec,
    executor_s_per_frame: f64,
    wall: &WallPerFrame,
    pool: Option<(PoolFigures, Option<u64>)>,
) {
    let mut spec = spec.clone();
    spec.cfg.seed = derive_session_seed(ctx.seed, SessionId(0));
    let frames = spec.cfg.frames as f64;
    let scene = spec.scene();
    let probes = ctx.tracer.begin("probes");

    let builds = timed(ctx, 9, "psa-workloads.scene_build", || spec.scene());
    ctx.set("psa-workloads.scene_build_ms", median(&builds) * 1e3);

    // The engine stepped frame by frame over the event fabric.
    let span = ctx.tracer.begin("probe.step_frame");
    let bare = animate(ctx, &spec, |s, scene| event_engine(s, scene, false));
    ctx.tracer.end(span);
    let Some(bare) = bare else {
        ctx.tracer.end(probes);
        return;
    };
    let steps = &bare.frame_s[1..];
    ctx.set("psa-runtime.step_frame.ms_p50", quantile(steps, 0.5) * 1e3);
    ctx.set("psa-runtime.step_frame.ms_p90", quantile(steps, 0.9) * 1e3);
    let stepping_s: f64 = bare.frame_s.iter().sum();
    let events = bare.engine.fabric().sim_stats().events as f64;
    ctx.set("psa-desim.events_per_frame", events / frames);
    ctx.set("psa-desim.events_per_s", events / stepping_s);
    ctx.set("psa-runtime.exchange.migrated_per_frame", bare.report.mean_migrated());
    ctx.set("netsim.messages_per_frame", bare.report.traffic.messages as f64 / frames);
    ctx.set("netsim.bytes_per_frame", bare.report.traffic.payload_bytes as f64 / frames);
    let fingerprint = bare.report.fingerprint();

    let snap = checkpoint(ctx, &bare.engine);

    // Same run with the phase recorder on: it must stay quiet.
    let span = ctx.tracer.begin("probe.with_phases");
    let instrumented = animate(ctx, &spec, |s, scene| event_engine(s, scene, true));
    ctx.tracer.end(span);
    if let Some(inst) = instrumented {
        let fp = inst.report.fingerprint();
        ctx.checks.op(fp == fingerprint, || {
            format!("with_phases fingerprint {fp:x} != bare {fingerprint:x}")
        });
        let (with, bare_frame) = (median(&inst.frame_s[1..]), median(steps));
        ctx.set("psa-trace.phases_overhead_pct", (with - bare_frame) / bare_frame * 100.0);
        if let Some(phases) = &inst.report.phases {
            let totals = phases.phase_totals();
            for (phase, total) in PHASES.iter().zip(totals) {
                ctx.set(modeled_phase_metric(phase.name()), total);
            }
            let c = phases.counter_totals();
            let rounds =
                (spec.cfg.frames * scene.systems.len() as u64).saturating_sub(c.balance_skips);
            ctx.set(
                "psa-runtime.balance.orders_per_round",
                c.balance_orders as f64 / rounds.max(1) as f64,
            );
        }
    }

    let seq = timed(ctx, 1, "psa-runtime.run_sequential", || {
        run_sequential(&scene, &spec.cfg, &spec.cost(), 1.0)
    });
    ctx.set(
        "psa-runtime.protocol_overhead.ms_per_frame",
        (executor_s_per_frame - seq[0] / frames) * 1e3,
    );

    let stores = stores_of(&snap);
    kernel_and_leavers(ctx, &spec, &scene, &stores, snap.next_frame);
    donate(ctx, &stores);
    balance(ctx, &spec, &stores);
    splat(ctx, &stores);

    let (figures, pooled) = match pool {
        Some(given) => given,
        None => pool_of_one(ctx, &spec),
    };
    ctx.checks.op(pooled == Some(fingerprint), || {
        format!("pooled session 0 fingerprint {pooled:x?} != stepped {fingerprint:x}")
    });
    ctx.set("psa-sessions.admit_us", figures.admit_us);
    ctx.set("psa-sessions.us_per_dispatch", figures.us_per_dispatch);
    ctx.set("psa-sessions.requeues", figures.requeues as f64);
    ctx.set("psa-sessions.lost_frames", figures.lost_frames as f64);

    ctx.set(
        "perfbench.trace_overhead_ms_per_frame",
        (median(&wall.traced) - median(&wall.untraced)) * 1e3,
    );
    ctx.tracer.end(probes);
}

fn modeled_phase_metric(phase: &str) -> &'static str {
    match phase {
        "compute" => "modeled.phase.compute_s",
        "exchange" => "modeled.phase.exchange_s",
        "load_report" => "modeled.phase.load_report_s",
        "balance" => "modeled.phase.balance_s",
        "ship" => "modeled.phase.ship_s",
        _ => "modeled.phase.render_s",
    }
}

/// Snapshot, encode and decode the final-frame engine state; the decoded
/// snapshot must equal the original.
fn checkpoint<F: psa_runtime::Fabric>(
    ctx: &mut Ctx,
    engine: &psa_runtime::Engine<F>,
) -> EngineSnapshot {
    let snaps = timed(ctx, PASSES, "psa-runtime.Engine::snapshot", || engine.snapshot());
    ctx.set("psa-runtime.checkpoint.snapshot_us", median(&snaps) * 1e6);
    let snap = engine.snapshot();
    let bytes = snap.encode();
    let mb = bytes.len() as f64 / 1e6;
    ctx.set("psa-runtime.checkpoint.bytes", bytes.len() as f64);
    let enc = timed(ctx, PASSES, "psa-runtime.EngineSnapshot::encode", || snap.encode());
    ctx.set("psa-runtime.checkpoint.encode_mb_per_s", mb / median(&enc));
    let dec =
        timed(ctx, PASSES, "psa-runtime.EngineSnapshot::decode", || EngineSnapshot::decode(&bytes));
    ctx.set("psa-runtime.checkpoint.decode_mb_per_s", mb / median(&dec));
    let back = EngineSnapshot::decode(&bytes);
    ctx.checks
        .op(matches!(back, Ok(ref b) if *b == snap), || "checkpoint decode(encode(s)) != s".into());
    snap
}

/// One rebuilt store per (system, calculator) of the snapshot.
struct Store {
    sys: usize,
    calc: usize,
    store: SubDomainStore,
}

fn stores_of(snap: &EngineSnapshot) -> Vec<Store> {
    let mut out = Vec::new();
    for (calc, cs) in snap.calcs.iter().enumerate() {
        for (sys, ss) in cs.stores.iter().enumerate() {
            let mut store = SubDomainStore::new(ss.slice, Axis::X, ss.buckets);
            store.extend(ss.particles.iter().copied());
            out.push(Store { sys, calc, store });
        }
    }
    out
}

/// The action-list kernel on every store, then the leaver scan over the
/// particles it moved.
fn kernel_and_leavers(ctx: &mut Ctx, spec: &RunSpec, scene: &Scene, stores: &[Store], frame: u64) {
    let mut kernel_ns = Vec::new();
    let mut kernel_allocs = 0u64;
    let mut calls = 0u64;
    let mut moved: Vec<SubDomainStore> = Vec::new();
    for _ in 0..PASSES {
        let span = ctx.tracer.begin("probe.kernel");
        let (mut secs, mut particles) = (0.0, 0usize);
        moved.clear();
        for s in stores {
            let mut store = s.store.clone();
            let rng = Rng64::new(spec.cfg.seed).split(s.sys as u64).split(s.calc as u64);
            let actions = &scene.systems[s.sys].actions;
            particles += store.len();
            let a0 = allocs();
            let t = Instant::now();
            let id = ctx.tracer.begin("psa-core.kernel::run_actions");
            black_box(run_actions(actions, spec.cfg.dt, frame, rng, &mut store, 0, 1));
            ctx.tracer.end(id);
            secs += t.elapsed().as_secs_f64();
            kernel_allocs += allocs() - a0;
            calls += 1;
            moved.push(store);
        }
        ctx.tracer.end(span);
        kernel_ns.push(secs * 1e9 / particles.max(1) as f64);
    }
    ctx.set("psa-core.kernel.ns_per_particle", median(&kernel_ns));
    ctx.set("psa-core.kernel.allocs_per_call", kernel_allocs as f64 / calls.max(1) as f64);

    let mut scan_ns = Vec::new();
    let (mut scanned, mut found) = (0usize, 0usize);
    let mut leavers: Vec<Particle> = Vec::new();
    for _ in 0..PASSES {
        let span = ctx.tracer.begin("probe.leavers");
        let (mut secs, mut particles) = (0.0, 0usize);
        for base in &moved {
            let mut store = base.clone();
            particles += store.len();
            let t = Instant::now();
            let id = ctx.tracer.begin("psa-core.SubDomainStore::collect_leavers_into");
            store.collect_leavers_into(&mut leavers);
            ctx.tracer.end(id);
            secs += t.elapsed().as_secs_f64();
            found += leavers.len();
            leavers.clear();
        }
        ctx.tracer.end(span);
        scanned += particles;
        scan_ns.push(secs * 1e9 / particles.max(1) as f64);
    }
    ctx.set("psa-core.leavers.ns_per_particle", median(&scan_ns));
    ctx.set("psa-core.leavers.leaver_ratio", found as f64 / scanned.max(1) as f64);
}

/// Donation of 1% of each store's particles (the balancer's transfer).
fn donate(ctx: &mut Ctx, stores: &[Store]) {
    let mut per_call_us = Vec::new();
    for _ in 0..PASSES {
        let span = ctx.tracer.begin("probe.donate");
        let (mut secs, mut calls) = (0.0, 0usize);
        for s in stores.iter().filter(|s| s.store.len() >= 2) {
            let mut store = s.store.clone();
            let count = (store.len() / 100).max(1);
            let t = Instant::now();
            let id = ctx.tracer.begin("psa-core.SubDomainStore::donate_low");
            black_box(store.donate_low(count));
            ctx.tracer.end(id);
            secs += t.elapsed().as_secs_f64();
            calls += 1;
        }
        ctx.tracer.end(span);
        per_call_us.push(secs * 1e6 / calls.max(1) as f64);
    }
    ctx.set("psa-core.donate.us_per_call", median(&per_call_us));
}

/// The configured strategy deciding rounds on each system's real loads.
fn balance(ctx: &mut Ctx, spec: &RunSpec, stores: &[Store]) {
    let (Some(strategy), Some(bcfg)) =
        (strategy_for(&spec.cfg.balance), spec.cfg.balance.balancer_config())
    else {
        ctx.checks.op(false, || "the workload has no dynamic balancer to probe".into());
        return;
    };
    let placement = spec.cluster.placement();
    let powers: Vec<f64> = placement.ranks.iter().map(|r| r.speed).collect();
    let present: Vec<usize> = (0..powers.len()).collect();
    let systems = stores.iter().map(|s| s.sys + 1).max().unwrap_or(0);
    let loads: Vec<Vec<LoadInfo>> = (0..systems)
        .map(|sys| {
            let mut per_calc: Vec<&Store> = stores.iter().filter(|s| s.sys == sys).collect();
            per_calc.sort_by_key(|s| s.calc);
            per_calc
                .iter()
                .map(|s| LoadInfo {
                    count: s.store.len(),
                    time: s.store.len() as f64 / powers[s.calc],
                })
                .collect()
        })
        .collect();
    let mut ns = Vec::new();
    for _ in 0..PASSES {
        let span = ctx.tracer.begin("probe.balance");
        let t = Instant::now();
        for l in &loads {
            for round in 0..BALANCE_ROUNDS {
                black_box(strategy.decide(l, &powers, &present, round, bcfg));
            }
        }
        ns.push(
            t.elapsed().as_secs_f64() * 1e9 / (loads.len() as u64 * BALANCE_ROUNDS).max(1) as f64,
        );
        ctx.tracer.end(span);
    }
    ctx.set("psa-runtime.balance.ns_per_decide", median(&ns));
}

/// Alpha splat of every snapshot particle into a 640×480 frame framing
/// them, then the RGB8 conversion of that frame.
fn splat(ctx: &mut Ctx, stores: &[Store]) {
    let particles: Vec<Particle> = stores.iter().flat_map(|s| s.store.iter().copied()).collect();
    let (lo, hi) =
        particles.iter().fold((Vec3::splat(f32::MAX), Vec3::splat(f32::MIN)), |(lo, hi), p| {
            (lo.min(p.position), hi.max(p.position))
        });
    let camera = Camera::ortho(Aabb::new(lo - Vec3::splat(1.0), hi + Vec3::splat(1.0)), 640, 480);
    let mut fb = Framebuffer::new(640, 480);
    let mut ns = Vec::new();
    for _ in 0..PASSES {
        fb.clear(Vec3::ZERO);
        let t = Instant::now();
        ctx.tracer.span("psa-render.render_particles", |_| {
            black_box(render_particles(&mut fb, &camera, &particles, &SplatConfig::default()))
        });
        ns.push(t.elapsed().as_secs_f64() * 1e9 / particles.len().max(1) as f64);
    }
    ctx.set("psa-render.splat.ns_per_particle", median(&ns));
    let rgb = timed(ctx, PASSES, "psa-render.Framebuffer::to_rgb8", || fb.to_rgb8());
    ctx.set("psa-render.to_rgb8_ms", median(&rgb) * 1e3);
}

/// One session of `spec` through a two-lane pool that checkpoints and
/// loses a lane mid-run; returns its figures and the session's fingerprint.
fn pool_of_one(ctx: &mut Ctx, spec: &RunSpec) -> (PoolFigures, Option<u64>) {
    let span = ctx.tracer.begin("probe.pool_of_one");
    let (pool, admits) = admit_all(ctx, spec, 1, PoolFault::WorkerLoss { at_dispatch: 3 });
    let t = Instant::now();
    let report = ctx.tracer.span("psa-sessions.run_to_completion", |_| pool.run_to_completion());
    let secs = t.elapsed().as_secs_f64();
    ctx.tracer.end(span);
    ctx.checks.op(report.failed.is_empty(), || format!("pool of one failed: {:?}", report.failed));
    let figures = PoolFigures {
        admit_us: median(&admits) * 1e6,
        us_per_dispatch: secs * 1e6 / report.dispatches.max(1) as f64,
        requeues: report.outcomes.iter().map(|o| o.counters.requeues).sum(),
        lost_frames: report.outcomes.iter().map(|o| o.counters.lost_frames).sum(),
    };
    (figures, report.outcome_for(SessionId(0)).map(|o| o.fingerprint))
}
