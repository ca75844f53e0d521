//! Golden `RunReport::fingerprint()` pins for every scene that draws
//! random accelerations.
//!
//! `RandomAccel` consumes the per-(frame, system, rank) action stream one
//! sphere sample per particle, so any change to how that stream is drawn —
//! the block sampler, chunk layout, helper sharing — shows up here as a
//! changed per-frame checksum. The constants were computed with the scalar
//! rejection loop (`Rng64::in_unit_sphere` once per particle); a faster
//! sampler must reproduce them exactly.

use particle_cluster_anim::prelude::*;
use psa_workloads::vortex::VORTEX_DT;
use psa_workloads::{paper_run_config, vortex_scene};

fn size() -> WorkloadSize {
    WorkloadSize { systems: 2, particles_per_system: 900, scale: 25.0 }
}

fn fingerprint(scene: Scene, dt: f32, parallel: ParallelConfig, cost: CostModel) -> u64 {
    let cfg = RunConfig { parallel, ..paper_run_config(8, dt) };
    VirtualSim::new(scene, cfg, myrinet_gcc(4, 1), cost).run().fingerprint()
}

fn serial(scene: Scene, dt: f32) -> u64 {
    fingerprint(scene, dt, ParallelConfig::default(), size().cost_model())
}

#[test]
fn snow_fingerprint_is_pinned() {
    assert_eq!(serial(snow_scene(size()), 0.15), 0x955C_582B_17F9_5DFB);
}

#[test]
fn fountain_fingerprint_is_pinned() {
    assert_eq!(serial(fountain_scene(size()), 0.04), 0xA863_8C4E_1EEA_2E3B);
}

#[test]
fn vortex_fingerprint_is_pinned() {
    assert_eq!(serial(vortex_scene(size()), VORTEX_DT), 0x9E42_ABE6_1F95_AB98);
}

#[test]
fn smoke_fingerprint_is_pinned() {
    assert_eq!(serial(smoke_scene(2, 900), 0.1), 0x8E56_1064_0C09_7A62);
}

/// The chunked kernel draws from chunk-keyed streams, a different path
/// through `RandomAccel::apply_chunk` than the legacy serial stream.
#[test]
fn chunked_snow_fingerprint_is_pinned() {
    let parallel = ParallelConfig { chunk: 64, workers: 2 };
    assert_eq!(
        fingerprint(snow_scene(size()), 0.15, parallel, size().cost_model()),
        0xA2C2_298F_6A62_F1F8
    );
}
