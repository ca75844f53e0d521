//! `bench 4`'s frame hot-path allocation micro-bench: the same
//! exchange-staging loop driven once in its seed form (fresh `Vec`s every
//! frame, allocating `collect_leavers`) and once in its reworked form
//! (`collect_leavers_into` + reused buffers), counted by the binary's
//! global allocator.

use psa_bench::export4::AllocationCounts;
use psa_core::{Particle, SubDomainStore};
use psa_math::{Axis, Interval, Rng64, Vec3};

use crate::counting_alloc::allocs;

const STAGE_PARTICLES: usize = 4_000;
const STAGE_DESTS: usize = 8;
const STAGE_FRAMES: u64 = 32;

/// A store over [0, 10) with particles spread across it; `drift` moves a
/// band of them out of the slice each "frame" so the staging loop has real
/// leavers to route.
fn staging_store() -> SubDomainStore {
    let slice = Interval::new(0.0, 10.0);
    let mut store = SubDomainStore::new(slice, Axis::X, STAGE_DESTS);
    let mut rng = Rng64::new(0xBE4C);
    for _ in 0..STAGE_PARTICLES {
        store.insert(Particle::at(Vec3::new(rng.range(0.0, 10.0), 0.0, 0.0)));
    }
    store
}

fn drift(store: &mut SubDomainStore, frame: u64) {
    // Alternate direction so the population never leaks away.
    let dx = if frame.is_multiple_of(2) { 0.6 } else { -0.6 };
    store.for_each_mut(|p| p.position.x += dx);
}

fn dest_of(p: &Particle) -> usize {
    ((p.position.x.abs() as usize) + 1) % STAGE_DESTS
}

/// Seed-form staging: every frame allocates its leaver vector and a fresh
/// per-destination spine.
fn run_naive(store: &mut SubDomainStore) -> u64 {
    let before = allocs();
    for frame in 0..STAGE_FRAMES {
        drift(store, frame);
        let leavers = store.collect_leavers();
        let mut per_dest: Vec<Vec<Particle>> = vec![Vec::new(); STAGE_DESTS];
        for p in leavers {
            per_dest[dest_of(&p)].push(p);
        }
        for batch in per_dest {
            store.extend(batch);
        }
    }
    (allocs() - before) / STAGE_FRAMES
}

/// Reworked staging: `collect_leavers_into` plus buffers reused across
/// frames — the steady state allocates nothing.
fn run_hot_path(store: &mut SubDomainStore) -> u64 {
    let mut leavers: Vec<Particle> = Vec::new();
    let mut per_dest: Vec<Vec<Particle>> = (0..STAGE_DESTS).map(|_| Vec::new()).collect();
    // Warm the buffers so the measured frames see the steady state.
    drift(store, 0);
    store.collect_leavers_into(&mut leavers);
    for p in leavers.drain(..) {
        per_dest[dest_of(&p)].push(p);
    }
    for batch in per_dest.iter_mut() {
        store.extend(batch.drain(..));
    }
    let before = allocs();
    for frame in 1..=STAGE_FRAMES {
        drift(store, frame);
        store.collect_leavers_into(&mut leavers);
        for p in leavers.drain(..) {
            per_dest[dest_of(&p)].push(p);
        }
        for batch in per_dest.iter_mut() {
            store.extend(batch.drain(..));
        }
    }
    (allocs() - before) / STAGE_FRAMES
}

/// Per-frame heap allocations of both staging forms.
pub fn measure_allocations() -> AllocationCounts {
    let mut naive_store = staging_store();
    let naive_per_frame = run_naive(&mut naive_store);
    let mut hot_store = staging_store();
    let hot_path_per_frame = run_hot_path(&mut hot_store);
    AllocationCounts { naive_per_frame, hot_path_per_frame }
}
