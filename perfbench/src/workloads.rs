//! The five workloads: their inputs, the untraced end-to-end loop, and the
//! correctness checks that run with it.
//!
//! Every executor uses `ParallelConfig { workers: 1 }` (the default), so
//! the only threads are `render`'s role threads inside `run_threaded`.

use std::time::Instant;

use cluster_sim::{ClusterSpec, CostModel};
use netsim::{FaultPlan, FaultPolicy, FaultyVirtualNet, PlanInjector, VirtualNet};
use psa_desim::{EventFabric, EventSim};
use psa_math::{Aabb, Rng64, Vec3};
use psa_render::Camera;
use psa_runtime::msg::Msg;
use psa_runtime::protocol::{node_layout, Engine, Fabric};
use psa_runtime::report::RunReport;
use psa_runtime::threaded::RenderSink;
use psa_runtime::trace::Trace;
use psa_runtime::{run_threaded, ExchangeMode, LoadMetric, RunConfig, Scene, VirtualSim};
use psa_sessions::{
    derive_session_seed, AdmissionConfig, AdmissionError, PoolConfig, PoolFault, PoolReport,
    SessionId, SessionManager, SessionSpec, TenantId,
};
use psa_workloads::{
    fountain, fountain_scene, myrinet_gcc, paper_run_config, snow, snow_scene, vortex,
    vortex_scene, WorkloadSize,
};

use crate::alloc::{allocs, peak_rss_mb};
use crate::probes;
use crate::report::Ctx;
use crate::stats::median;

/// The seed the pinned fingerprints were taken at: the paper-run seed of
/// `psa_workloads::paper_run_config`.
pub const DEFAULT_SEED: u64 = 0x1905_2005;

/// `RunReport::fingerprint()` of `snow`, `fountain` and `wide` at
/// [`DEFAULT_SEED`] and benchmark size, taken from `VirtualSim::run`
/// (`snow`, `fountain`) and `EventSim::run` (`wide`).
const PINNED: &[(Workload, u64)] = &[
    (Workload::Snow, 0x9296_87e5_3524_f156),
    (Workload::Fountain, 0x2170_aefa_47f6_5cc2),
    (Workload::Wide, 0x99ee_3535_016b_654e),
];

/// Setups measured per run at least.
const MIN_SETUPS: usize = 9;
/// A setup of the timed loop shorter than this is followed by setups
/// measured alone until the batch takes this long, so a setup of
/// microseconds is the median of many samples spread over the whole run
/// (host speed drifts over seconds).
const SETUP_BATCH_SECONDS: f64 = 0.005;

/// Frames per `render` run.
const RENDER_FRAMES: u64 = 12;

/// Sessions in the `sessions` pool and the pool's shape. A pool run takes
/// about 0.3 s, so the medians of a run are over many pool runs.
const POOL_SESSIONS: usize = 100;
const POOL_TENANTS: u32 = 4;
const POOL_LANES: usize = 2;
const POOL_SLICE: u64 = 2;
const POOL_CHECKPOINT: u64 = 4;
const POOL_IN_FLIGHT: usize = 16;
/// Sessions of the pool checked against a solo run of the same seed.
const SAMPLED_SESSIONS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Snow,
    Fountain,
    Render,
    Wide,
    Sessions,
}

impl Workload {
    pub const ALL: [Workload; 5] =
        [Workload::Snow, Workload::Fountain, Workload::Render, Workload::Wide, Workload::Sessions];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Snow => "snow",
            Workload::Fountain => "fountain",
            Workload::Render => "render",
            Workload::Wide => "wide",
            Workload::Sessions => "sessions",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One executor run's inputs. The scene is built by `build` during setup,
/// so scene generation is timed with it.
#[derive(Clone)]
pub struct RunSpec {
    pub build: fn(WorkloadSize) -> Scene,
    pub size: WorkloadSize,
    pub cfg: RunConfig,
    pub cluster: ClusterSpec,
}

impl RunSpec {
    pub fn scene(&self) -> Scene {
        (self.build)(self.size)
    }

    pub fn cost(&self) -> CostModel {
        self.size.cost_model()
    }

    pub fn calculators(&self) -> usize {
        self.cluster.placement().calculators()
    }
}

/// Paper §5 size: 8 systems × 50k real particles at scale 8 (standing for
/// the paper's 8 × 400k), 30 frames, FS-DLB on an 8-node Myrinet cluster.
fn paper_spec(ctx: &Ctx, build: fn(WorkloadSize) -> Scene, dt: f32) -> RunSpec {
    let (size, frames, nodes) = if ctx.tiny {
        (WorkloadSize { systems: 2, particles_per_system: 600, scale: 1.0 }, 6, 4)
    } else {
        (WorkloadSize { systems: 8, particles_per_system: 50_000, scale: 8.0 }, 30, 8)
    };
    let mut cfg = paper_run_config(frames, dt);
    cfg.seed = ctx.seed;
    RunSpec { build, size, cfg, cluster: myrinet_gcc(nodes, 1) }
}

/// The `snow` scene on 2 threaded calculators, with a load signal that is
/// a pure function of state so same-seed runs are bit-identical. Runs are
/// 12 frames long so a run measures many of them: thread scheduling makes
/// each one's wall time vary more than a stepped animation's.
fn render_spec(ctx: &Ctx) -> RunSpec {
    let mut spec = paper_spec(ctx, snow_scene, snow::SNOW_DT);
    if !ctx.tiny {
        spec.cfg = paper_run_config(RENDER_FRAMES, snow::SNOW_DT);
        spec.cfg.seed = ctx.seed;
    }
    spec.cfg.load_metric = LoadMetric::CountProportional;
    spec.cluster = myrinet_gcc(2, 1);
    spec
}

/// BENCH_5/6 regime: 100 systems × 200 particles at scale 50 over 512
/// calculators, sparse exchange, DLB, 10 frames.
fn wide_spec(ctx: &Ctx) -> RunSpec {
    let (size, frames, ranks) = if ctx.tiny {
        (WorkloadSize { systems: 10, particles_per_system: 20, scale: 50.0 }, 4, 16)
    } else {
        (WorkloadSize { systems: 100, particles_per_system: 200, scale: 50.0 }, 10, 512)
    };
    let mut cfg = paper_run_config(frames, snow::SNOW_DT);
    cfg.seed = ctx.seed;
    cfg.exchange = ExchangeMode::Sparse;
    RunSpec { build: snow_scene, size, cfg, cluster: myrinet_gcc(ranks, 1) }
}

/// One pool session: vortex, 2 systems × 1k particles on 4 calculators.
/// The pool overrides `cfg.seed` with the session's derived seed.
fn session_spec(ctx: &Ctx) -> RunSpec {
    let (particles, frames) = if ctx.tiny { (100, 4) } else { (1_000, 12) };
    let size = WorkloadSize { systems: 2, particles_per_system: particles, scale: 1.0 };
    RunSpec {
        build: vortex_scene,
        size,
        cfg: paper_run_config(frames, vortex::VORTEX_DT),
        cluster: myrinet_gcc(4, 1),
    }
}

fn pool_sessions(ctx: &Ctx) -> usize {
    if ctx.tiny {
        12
    } else {
        POOL_SESSIONS
    }
}

pub type VirtualFabric = FaultyVirtualNet<Msg, PlanInjector>;

/// The engine `VirtualSim::try_run` builds for a healthy run, built here so
/// setup and each frame can be timed apart.
pub fn virtual_engine(spec: &RunSpec, scene: Scene) -> Engine<VirtualFabric> {
    let placement = spec.cluster.placement();
    let (node_of, node_count) = node_layout(&placement);
    let plan = FaultPlan::none(spec.cfg.seed, placement.calculators() + 2);
    let net = FaultyVirtualNet::new(
        VirtualNet::new(spec.cluster.net.clone(), node_of, node_count),
        PlanInjector::new(plan),
    );
    let policy = FaultPolicy::default();
    Engine::new(
        scene,
        spec.cfg.clone(),
        &placement,
        spec.cost(),
        net,
        policy,
        Trace::disabled(),
        false,
    )
}

/// The engine `EventSim::try_run` builds for a healthy run; `instrument`
/// is what `with_phases()` sets.
pub fn event_engine(spec: &RunSpec, scene: Scene, instrument: bool) -> Engine<EventFabric> {
    let placement = spec.cluster.placement();
    let (node_of, node_count) = node_layout(&placement);
    let plan = FaultPlan::none(spec.cfg.seed, placement.calculators() + 2);
    let fabric = EventFabric::new(spec.cluster.net.clone(), node_of, node_count, plan);
    let policy = FaultPolicy::default();
    Engine::new(
        scene,
        spec.cfg.clone(),
        &placement,
        spec.cost(),
        fabric,
        policy,
        Trace::disabled(),
        instrument,
    )
}

/// One stepped animation: setup (scene, engine, frame 0), then every
/// remaining frame timed.
pub struct Animation<F: Fabric> {
    pub engine: Engine<F>,
    pub report: RunReport,
    /// Scene generation + engine construction + frame 0.
    pub setup_s: f64,
    /// Frames 1.. as one interval.
    pub timed_s: f64,
    pub timed_frames: u64,
    /// Wall time of each `step_frame`, frame 0 first.
    pub frame_s: Vec<f64>,
    /// Heap allocations over the timed frames.
    pub allocs: u64,
}

impl<F: Fabric> Animation<F> {
    /// Host seconds per simulated frame over the whole animation.
    pub fn wall_per_frame(&self) -> f64 {
        (self.setup_s + self.timed_s) / (self.timed_frames + 1) as f64
    }
}

/// Set up and step one animation; `None` (counted as a failure) on a
/// protocol error.
pub fn animate<F: Fabric>(
    ctx: &mut Ctx,
    spec: &RunSpec,
    make: impl Fn(&RunSpec, Scene) -> Engine<F>,
) -> Option<Animation<F>> {
    let t0 = Instant::now();
    let setup = ctx.tracer.begin("setup");
    let scene = ctx.tracer.span("psa-workloads.scene_build", |_| spec.scene());
    let mut engine = ctx.tracer.span("psa-runtime.Engine::new", |_| make(spec, scene));
    let t_first = Instant::now();
    let first = ctx.tracer.span("psa-runtime.step_frame", |_| engine.step_frame());
    let mut frame_s = vec![t_first.elapsed().as_secs_f64()];
    ctx.tracer.end(setup);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut frames = Vec::with_capacity(spec.cfg.frames as usize);
    match first {
        Ok(Some(f)) => frames.push(f),
        other => {
            ctx.checks.op(false, || format!("frame 0 of {}: {other:?}", spec.cfg.label()));
            return None;
        }
    }
    let a0 = allocs();
    let t1 = Instant::now();
    loop {
        let t = Instant::now();
        match ctx.tracer.span("psa-runtime.step_frame", |_| engine.step_frame()) {
            Ok(Some(f)) => {
                frame_s.push(t.elapsed().as_secs_f64());
                frames.push(f);
            }
            Ok(None) => break,
            Err(e) => {
                ctx.checks.op(false, || format!("step_frame: {e}"));
                return None;
            }
        }
    }
    let timed_s = t1.elapsed().as_secs_f64();
    let allocs = allocs() - a0;
    let timed_frames = frames.len() as u64 - 1;
    ctx.checks.ok(timed_frames + 1);
    let label = spec.cluster.describe();
    let report =
        ctx.tracer.span("psa-runtime.finish_report", |_| engine.finish_report(label, frames));
    Some(Animation { engine, report, setup_s, timed_s, timed_frames, frame_s, allocs })
}

/// Repeat `f` until `ctx.seconds` have passed and at least twice (twice of
/// each kind in the traced run, which alternates traced and untraced runs
/// so it can report its own overhead). `f` gets whether to trace and
/// returns `false` to stop early (a failure).
fn repeat(ctx: &mut Ctx, mut f: impl FnMut(&mut Ctx, bool) -> bool) {
    let traced = ctx.traced;
    let min = if traced { 4 } else { 2 };
    let start = Instant::now();
    let mut runs = 0;
    while runs < min || start.elapsed().as_secs_f64() < ctx.seconds {
        let trace_this = traced && runs % 2 == 1;
        ctx.tracer.set_enabled(trace_this);
        let go = f(ctx, trace_this);
        runs += 1;
        if !go {
            break;
        }
    }
    ctx.tracer.set_enabled(traced);
}

/// Host wall per simulated frame, untraced and traced (trace mode only).
#[derive(Default)]
pub struct WallPerFrame {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl WallPerFrame {
    fn push(&mut self, traced: bool, v: f64) {
        if traced {
            self.traced.push(v)
        } else {
            self.untraced.push(v)
        }
    }
}

/// End-to-end figures of one run, before they become metrics.
#[derive(Default)]
struct E2e {
    setups: Vec<f64>,
    frames_per_s: Vec<f64>,
    sessions_per_s: Vec<f64>,
    modeled: Vec<f64>,
    allocs_per_frame: Vec<f64>,
    wall: WallPerFrame,
}

impl E2e {
    /// Record a setup of the timed loop, then set up alone (not followed
    /// by frames) until the batch takes [`SETUP_BATCH_SECONDS`].
    fn record_setup(&mut self, secs: f64, mut setup: impl FnMut() -> f64) {
        self.setups.push(secs);
        let mut batch = secs;
        while batch < SETUP_BATCH_SECONDS {
            let s = setup();
            self.setups.push(s);
            batch += s;
        }
    }

    /// Setups not followed by frames, after the timed loop: until there
    /// are [`MIN_SETUPS`] samples.
    fn setups_after(&mut self, mut setup: impl FnMut() -> f64) {
        while self.setups.len() < MIN_SETUPS {
            self.setups.push(setup());
        }
    }

    fn publish(&self, ctx: &mut Ctx, peak_rss_mb: Option<f64>) {
        ctx.set("setup_s", median(&self.setups));
        ctx.set("frames_per_s", median(&self.frames_per_s));
        ctx.set("sessions_per_s", median(&self.sessions_per_s));
        ctx.set("modeled_makespan_s", median(&self.modeled));
        ctx.set("allocs_per_frame", median(&self.allocs_per_frame));
        ctx.set("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN));
    }
}

/// Run `workload` for `ctx.seconds`, check its outputs, and record its
/// metrics (end-to-end, or per-layer in the traced run).
pub fn run(ctx: &mut Ctx, workload: Workload) {
    match workload {
        Workload::Snow => {
            let spec = paper_spec(ctx, snow_scene, snow::SNOW_DT);
            run_stepped(ctx, workload, &spec, true);
        }
        Workload::Fountain => {
            let spec = paper_spec(ctx, fountain_scene, fountain::FOUNTAIN_DT);
            run_stepped(ctx, workload, &spec, true);
        }
        Workload::Wide => {
            let spec = wide_spec(ctx);
            run_stepped(ctx, workload, &spec, false);
        }
        Workload::Render => run_render(ctx),
        Workload::Sessions => run_sessions(ctx),
    }
}

/// `snow`, `fountain` (on `VirtualSim`'s fabric) and `wide` (on the event
/// fabric): stepped animations, repeated.
fn run_stepped(ctx: &mut Ctx, workload: Workload, spec: &RunSpec, virtual_fabric: bool) {
    let mut e2e = E2e::default();
    let mut fingerprints: Vec<u64> = Vec::new();
    let mut frame_s: Vec<f64> = Vec::new();
    let setup = || {
        let t0 = Instant::now();
        if virtual_fabric {
            let mut engine = virtual_engine(spec, spec.scene());
            std::hint::black_box(engine.step_frame().is_ok());
        } else {
            let mut engine = event_engine(spec, spec.scene(), false);
            std::hint::black_box(engine.step_frame().is_ok());
        }
        t0.elapsed().as_secs_f64()
    };
    repeat(ctx, |ctx, traced| {
        let span = ctx.tracer.begin("animation");
        let out = if virtual_fabric {
            animate(ctx, spec, virtual_engine).map(summarize)
        } else {
            animate(ctx, spec, |s, scene| event_engine(s, scene, false)).map(summarize)
        };
        ctx.tracer.end(span);
        let Some((sum, report)) = out else { return false };
        e2e.record_setup(sum.setup_s, setup);
        if !traced {
            frame_s.extend_from_slice(&sum.frame_s);
        }
        e2e.modeled.push(report.total_time);
        e2e.allocs_per_frame.push(sum.allocs as f64 / sum.timed_frames as f64);
        e2e.wall.push(traced, sum.wall_per_frame);
        fingerprints.push(report.fingerprint());
        true
    });
    let peak = peak_rss_mb();
    // Host time per frame, as the median over every timed frame of the run:
    // a burst of host noise shifts a few frames, not the median. A
    // single-run workload completes one session per animation.
    let per_frame = median(&frame_s);
    e2e.frames_per_s.push(1.0 / per_frame);
    e2e.sessions_per_s.push(1.0 / (per_frame * (spec.cfg.frames - 1) as f64));
    e2e.setups_after(setup);

    let Some(&fp) = fingerprints.first() else { return };
    let all_same = fingerprints.iter().all(|&f| f == fp);
    ctx.checks.op(all_same, || {
        format!("{} fingerprints differ across repeats: {fingerprints:x?}", workload.name())
    });
    if virtual_fabric {
        // VirtualSim ≡ EventSim at any seed, and both ≡ the timed engine.
        let v = ctx.tracer.span("psa-runtime.VirtualSim::try_run", |_| {
            VirtualSim::new(spec.scene(), spec.cfg.clone(), spec.cluster.clone(), spec.cost())
                .try_run()
        });
        let e = ctx.tracer.span("psa-desim.EventSim::try_run", |_| {
            EventSim::new(spec.scene(), spec.cfg.clone(), spec.cluster.clone(), spec.cost())
                .try_run()
        });
        let v = v.map(|r| r.fingerprint());
        let e = e.map(|r| r.fingerprint());
        ctx.checks.op(v == Ok(fp), || format!("VirtualSim fingerprint {v:x?} != stepped {fp:x}"));
        ctx.checks.op(e == Ok(fp), || format!("EventSim fingerprint {e:x?} != stepped {fp:x}"));
    }
    check_pinned(ctx, workload, fp);

    if ctx.traced {
        let executor = median(&e2e.wall.untraced);
        probes::layers(ctx, spec, executor, &e2e.wall, None);
    } else {
        e2e.publish(ctx, peak);
    }
}

/// The figures `run_stepped` keeps from an animation (the engine is
/// dropped at once so repeats do not pile up memory).
struct Summary {
    setup_s: f64,
    timed_frames: u64,
    allocs: u64,
    wall_per_frame: f64,
    frame_s: Vec<f64>,
}

fn summarize<F: Fabric>(a: Animation<F>) -> (Summary, RunReport) {
    let sum = Summary {
        setup_s: a.setup_s,
        timed_frames: a.timed_frames,
        allocs: a.allocs,
        wall_per_frame: a.wall_per_frame(),
        frame_s: a.frame_s[1..].to_vec(),
    };
    (sum, a.report)
}

fn check_pinned(ctx: &mut Ctx, workload: Workload, fp: u64) {
    println!("perfbench: fingerprint {fp:#018x}");
    if ctx.seed != DEFAULT_SEED || ctx.tiny {
        return;
    }
    if let Some(&(_, pinned)) = PINNED.iter().find(|(w, _)| *w == workload) {
        ctx.checks.op(fp == pinned, || {
            format!("{} fingerprint {fp:x} != pinned {pinned:x}", workload.name())
        });
    }
}

/// The headless 640×480 view of the snow column the render sink splats.
pub fn snow_camera() -> Camera {
    Camera::ortho(Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, 36.0, 42.0)), 640, 480)
}

/// `render`: `run_threaded` with real alpha splatting, repeated.
fn run_render(ctx: &mut Ctx) {
    let spec = render_spec(ctx);
    let n = spec.calculators();
    let frames = spec.cfg.frames;
    let mut e2e = E2e::default();
    let mut checksums: Vec<Vec<u64>> = Vec::new();
    let setup = || {
        let t0 = Instant::now();
        std::hint::black_box((spec.scene(), RenderSink::headless(snow_camera())));
        t0.elapsed().as_secs_f64()
    };
    repeat(ctx, |ctx, traced| {
        let span = ctx.tracer.begin("animation");
        let t0 = Instant::now();
        let (scene, sink) = ctx.tracer.span("setup", |t| {
            let scene = t.span("psa-workloads.scene_build", |_| spec.scene());
            (scene, RenderSink::headless(snow_camera()))
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let a0 = allocs();
        let t1 = Instant::now();
        let out = ctx
            .tracer
            .span("psa-runtime.run_threaded", |_| run_threaded(&scene, &spec.cfg, n, Some(sink)));
        let timed_s = t1.elapsed().as_secs_f64();
        let allocated = allocs() - a0;
        ctx.tracer.end(span);
        let report = match out {
            Ok(r) => r,
            Err(e) => {
                ctx.checks.op(false, || format!("run_threaded: {e}"));
                return false;
            }
        };
        ctx.checks.ok(frames);
        e2e.record_setup(setup_s, setup);
        e2e.frames_per_s.push(frames as f64 / timed_s);
        e2e.sessions_per_s.push(1.0 / timed_s);
        e2e.allocs_per_frame.push(allocated as f64 / frames as f64);
        e2e.wall.push(traced, (setup_s + timed_s) / frames as f64);
        checksums.push(report.frames.iter().map(|f| f.checksum).collect());
        true
    });
    let peak = peak_rss_mb();
    e2e.setups_after(setup);

    if let Some(first) = checksums.first() {
        let expected = (frames - spec.cfg.warmup) as usize;
        ctx.checks.op(first.len() == expected, || {
            format!("render reported {} of {expected} frames", first.len())
        });
        let same = checksums.iter().all(|c| c == first);
        ctx.checks.op(same, || "render frame checksums differ across repeats".into());
    }
    // The paper-side figure for this configuration: the same scene and
    // config on a modeled 2-calculator cluster.
    let modeled = ctx.tracer.span("psa-runtime.VirtualSim::try_run", |_| {
        VirtualSim::new(spec.scene(), spec.cfg.clone(), spec.cluster.clone(), spec.cost()).try_run()
    });
    match modeled {
        Ok(r) => {
            ctx.checks.ok(1);
            e2e.modeled.push(r.total_time);
        }
        Err(e) => ctx.checks.op(false, || format!("VirtualSim on the render scene: {e}")),
    }

    if ctx.traced {
        let executor = median(&e2e.wall.untraced);
        probes::layers(ctx, &spec, executor, &e2e.wall, None);
    } else {
        e2e.publish(ctx, peak);
    }
}

/// The `sessions` pool fault: one lane loss, halfway through the first
/// round of dispatches (fixed, so the lost work is alike at every seed).
fn pool_fault(sessions: usize) -> PoolFault {
    PoolFault::WorkerLoss { at_dispatch: (sessions as u64 / 2).max(2) }
}

/// Build the pool and admit every session at time 0 (a closed batch).
/// Returns the pool and, in the traced run, each admission's host time.
pub fn admit_all(
    ctx: &mut Ctx,
    spec: &RunSpec,
    sessions: usize,
    fault: PoolFault,
) -> (SessionManager, Vec<f64>) {
    let pool_cfg = PoolConfig {
        workers: POOL_LANES,
        slice_frames: POOL_SLICE,
        admission: AdmissionConfig::unbounded(POOL_IN_FLIGHT),
        base_seed: ctx.seed,
        checkpoint_interval: POOL_CHECKPOINT,
        instrument: false,
    };
    let mut pool = SessionManager::new(pool_cfg).with_fault(fault);
    let mut admit_s = Vec::new();
    for i in 0..sessions {
        let session = SessionSpec {
            tenant: TenantId(i as u32 % POOL_TENANTS),
            scene: ctx.tracer.span("psa-workloads.scene_build", |_| spec.scene()),
            cfg: spec.cfg.clone(),
            cluster: spec.cluster.clone(),
            cost: spec.cost(),
            arrival: 0.0,
        };
        let t = ctx.tracer.enabled().then(Instant::now);
        let admitted = ctx.tracer.span("psa-sessions.admit", |_| pool.admit(session));
        if let Some(t) = t {
            admit_s.push(t.elapsed().as_secs_f64());
        }
        let ok = matches!(admitted, Ok(_) | Err(AdmissionError::Queued { .. }));
        ctx.checks.op(ok, || format!("admission of session {i}: {admitted:?}"));
    }
    (pool, admit_s)
}

/// `sessions`: a closed batch of vortex sessions through the pool,
/// repeated.
fn run_sessions(ctx: &mut Ctx) {
    let spec = session_spec(ctx);
    let sessions = pool_sessions(ctx);
    let fault = pool_fault(sessions);
    let frames = spec.cfg.frames;
    let mut e2e = E2e::default();
    let mut digests: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut last: Option<PoolReport> = None;
    let mut admit_s: Vec<f64> = Vec::new();
    let mut dispatch_s: Vec<f64> = Vec::new();
    let (seed, tiny) = (ctx.seed, ctx.tiny);
    let setup = || {
        let mut quiet = Ctx::new(seed, 0.0, tiny, false);
        let t0 = Instant::now();
        std::hint::black_box(admit_all(&mut quiet, &spec, sessions, fault));
        t0.elapsed().as_secs_f64()
    };
    repeat(ctx, |ctx, traced| {
        let span = ctx.tracer.begin("pool");
        let t0 = Instant::now();
        let setup_span = ctx.tracer.begin("setup");
        let (pool, admits) = admit_all(ctx, &spec, sessions, fault);
        ctx.tracer.end(setup_span);
        let setup_s = t0.elapsed().as_secs_f64();
        let a0 = allocs();
        let t1 = Instant::now();
        let report =
            ctx.tracer.span("psa-sessions.run_to_completion", |_| pool.run_to_completion());
        let timed_s = t1.elapsed().as_secs_f64();
        let allocated = allocs() - a0;
        ctx.tracer.end(span);

        let completed = report.completed();
        ctx.checks
            .op(completed == sessions, || format!("{completed} of {sessions} sessions completed"));
        for (id, e) in &report.failed {
            ctx.checks.op(false, || format!("session {} failed: {e}", id.0));
        }
        ctx.checks.ok(completed as u64);
        let session_frames = (completed as u64 * frames) as f64;
        e2e.record_setup(setup_s, setup);
        e2e.sessions_per_s.push(completed as f64 / timed_s);
        e2e.frames_per_s.push(session_frames / timed_s);
        e2e.modeled.push(report.makespan);
        e2e.allocs_per_frame.push(allocated as f64 / session_frames);
        e2e.wall.push(traced, (setup_s + timed_s) / session_frames);
        admit_s.extend(admits);
        dispatch_s.push(timed_s / report.dispatches.max(1) as f64);
        let mut digest: Vec<(u64, u64)> =
            report.outcomes.iter().map(|o| (o.id.0, o.fingerprint)).collect();
        digest.sort_unstable();
        digests.push(digest);
        last = Some(report);
        completed > 0
    });
    let peak = peak_rss_mb();
    e2e.setups_after(setup);

    if let Some(first) = digests.first() {
        let same = digests.iter().all(|d| d == first);
        ctx.checks.op(same, || "session fingerprints differ across pool repeats".into());
    }
    let Some(report) = last else { return };
    let hit = report.outcomes.iter().any(|o| o.counters.requeues > 0);
    ctx.checks.op(hit, || format!("the injected {fault:?} requeued no session"));
    // Sampled sessions must match a solo run of the same seed.
    let mut rng = Rng64::new(ctx.seed).split(0x5A3D);
    for _ in 0..SAMPLED_SESSIONS {
        let id = SessionId(rng.below(sessions) as u64);
        let mut cfg = spec.cfg.clone();
        cfg.seed = derive_session_seed(ctx.seed, id);
        let solo = ctx.tracer.span("psa-desim.EventSim::try_run", |_| {
            EventSim::new(spec.scene(), cfg, spec.cluster.clone(), spec.cost()).try_run()
        });
        let pooled = report.outcome_for(id).map(|o| o.fingerprint);
        let solo = solo.map(|r| r.fingerprint()).ok();
        ctx.checks.op(solo.is_some() && solo == pooled, || {
            format!("session {} fingerprint {pooled:x?} != solo run {solo:x?}", id.0)
        });
    }

    if ctx.traced {
        let executor = median(&e2e.wall.untraced);
        let pool = probes::PoolFigures {
            admit_us: median(&admit_s) * 1e6,
            us_per_dispatch: median(&dispatch_s) * 1e6,
            requeues: report.outcomes.iter().map(|o| o.counters.requeues).sum(),
            lost_frames: report.outcomes.iter().map(|o| o.counters.lost_frames).sum(),
        };
        // The per-layer probes run session 0 of the pool on its own.
        let pooled = report.outcome_for(SessionId(0)).map(|o| o.fingerprint);
        probes::layers(ctx, &spec, executor, &e2e.wall, Some((pool, pooled)));
    } else {
        e2e.publish(ctx, peak);
    }
}
