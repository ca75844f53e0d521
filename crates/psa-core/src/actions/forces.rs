//! Property-changing force actions (paper §3.2.2): they alter velocities
//! but never positions, so they need no inter-process communication.

use super::{Action, ActionCtx, ActionKind, ActionOutcome};
use crate::{Particle, SubDomainStore};
use psa_math::{Rng64, Scalar, Vec3};

/// Constant acceleration — gravity in the fountain experiment.
#[derive(Clone, Copy, Debug)]
pub struct Gravity {
    pub g: Vec3,
}

impl Gravity {
    pub fn new(g: Vec3) -> Self {
        Gravity { g }
    }

    /// Standard Earth gravity pointing down the y axis.
    pub fn earth() -> Self {
        Gravity { g: Vec3::new(0.0, -9.81, 0.0) }
    }
}

impl Action for Gravity {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "gravity"
    }

    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        let dv = self.g * ctx.dt;
        let mut n = 0;
        store.for_each_mut(|p| {
            p.velocity += dv;
            n += 1;
        });
        ActionOutcome::applied(n)
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let dv = self.g * ctx.dt;
        for p in chunk.iter_mut() {
            p.velocity += dv;
        }
        Some(ActionOutcome::applied(chunk.len()))
    }
}

/// Random per-particle acceleration — the snow experiment applies "a random
/// acceleration on the particles" each frame to get flutter.
#[derive(Clone, Copy, Debug)]
pub struct RandomAccel {
    /// Maximum magnitude of the random acceleration.
    pub magnitude: Scalar,
}

/// Particles per stack window of [`RandomAccel::accelerate`], matching the
/// largest candidate block of [`Rng64::fill_in_unit_sphere`].
const KICK_WINDOW: usize = 64;

impl RandomAccel {
    pub fn new(magnitude: Scalar) -> Self {
        RandomAccel { magnitude }
    }

    /// Kick each particle's velocity by `magnitude · dt` times a unit-ball
    /// sample, in slice order — bit-identical to drawing
    /// [`Rng64::in_unit_sphere`] once per particle. Samples are drawn in
    /// fixed 64-particle windows into a stack buffer, so nothing allocates.
    pub fn accelerate(&self, rng: &mut Rng64, dt: Scalar, particles: &mut [Particle]) {
        let mag = self.magnitude * dt;
        let mut kicks = [Vec3::ZERO; KICK_WINDOW];
        for window in particles.chunks_mut(KICK_WINDOW) {
            let kicks = &mut kicks[..window.len()];
            rng.fill_in_unit_sphere(kicks);
            for (p, &k) in window.iter_mut().zip(kicks.iter()) {
                p.velocity += k * mag;
            }
        }
    }
}

impl Action for RandomAccel {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "random-accel"
    }

    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        for bucket in store.bucket_slices_mut() {
            self.accelerate(ctx.rng, ctx.dt, bucket);
        }
        ActionOutcome::applied(store.len())
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        self.accelerate(ctx.rng, ctx.dt, chunk);
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn cost_weight(&self) -> f64 {
        // Rejection sampling for the sphere draw is ~2× the arithmetic of a
        // plain force pass.
        2.0
    }
}

/// Exponential velocity damping (air drag).
#[derive(Clone, Copy, Debug)]
pub struct Damping {
    /// Fraction of velocity lost per second, in `[0, 1]`.
    pub rate: Scalar,
}

impl Damping {
    pub fn new(rate: Scalar) -> Self {
        assert!((0.0..=1.0).contains(&rate), "damping rate must be in [0,1]");
        Damping { rate }
    }
}

impl Action for Damping {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "damping"
    }

    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        let keep = (1.0 - self.rate).powf(ctx.dt);
        let mut n = 0;
        store.for_each_mut(|p| {
            p.velocity *= keep;
            n += 1;
        });
        ActionOutcome::applied(n)
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let keep = (1.0 - self.rate).powf(ctx.dt);
        for p in chunk.iter_mut() {
            p.velocity *= keep;
        }
        Some(ActionOutcome::applied(chunk.len()))
    }
}

/// Relax particle velocity toward a wind field velocity.
#[derive(Clone, Copy, Debug)]
pub struct Wind {
    pub wind: Vec3,
    /// Coupling strength per second.
    pub drag: Scalar,
}

impl Wind {
    pub fn new(wind: Vec3, drag: Scalar) -> Self {
        Wind { wind, drag }
    }
}

impl Action for Wind {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "wind"
    }

    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        let k = (self.drag * ctx.dt).min(1.0);
        let wind = self.wind;
        let mut n = 0;
        store.for_each_mut(|p| {
            p.velocity = p.velocity.lerp(wind, k);
            n += 1;
        });
        ActionOutcome::applied(n)
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let k = (self.drag * ctx.dt).min(1.0);
        let wind = self.wind;
        for p in chunk.iter_mut() {
            p.velocity = p.velocity.lerp(wind, k);
        }
        Some(ActionOutcome::applied(chunk.len()))
    }
}

/// Attract particles toward a point with inverse-square falloff — the
/// classic McAllister `pOrbitPoint` effect, used by the fireworks example.
#[derive(Clone, Copy, Debug)]
pub struct OrbitPoint {
    pub center: Vec3,
    pub strength: Scalar,
    /// Softening epsilon so close particles do not explode numerically.
    pub epsilon: Scalar,
}

impl OrbitPoint {
    pub fn new(center: Vec3, strength: Scalar) -> Self {
        OrbitPoint { center, strength, epsilon: 0.25 }
    }
}

impl Action for OrbitPoint {
    fn kind(&self) -> ActionKind {
        ActionKind::Property
    }

    fn name(&self) -> &'static str {
        "orbit-point"
    }

    fn apply(&self, ctx: &mut ActionCtx<'_>, store: &mut SubDomainStore) -> ActionOutcome {
        let c = self.center;
        let s = self.strength * ctx.dt;
        let eps2 = self.epsilon * self.epsilon;
        let mut n = 0;
        store.for_each_mut(|p| {
            let rel = c - p.position;
            let d2 = rel.length_squared() + eps2;
            p.velocity += rel * (s / (d2 * d2.sqrt()));
            n += 1;
        });
        ActionOutcome::applied(n)
    }

    fn apply_chunk(
        &self,
        ctx: &mut ActionCtx<'_>,
        chunk: &mut [Particle],
    ) -> Option<ActionOutcome> {
        let c = self.center;
        let s = self.strength * ctx.dt;
        let eps2 = self.epsilon * self.epsilon;
        for p in chunk.iter_mut() {
            let rel = c - p.position;
            let d2 = rel.length_squared() + eps2;
            p.velocity += rel * (s / (d2 * d2.sqrt()));
        }
        Some(ActionOutcome::applied(chunk.len()))
    }

    fn cost_weight(&self) -> f64 {
        1.5 // sqrt + division per particle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Axis, Interval};

    fn store_with(ps: &[Vec3]) -> SubDomainStore {
        let mut s = SubDomainStore::new(Interval::new(-100.0, 100.0), Axis::X, 2);
        for &p in ps {
            s.insert(crate::Particle::at(p));
        }
        s
    }

    fn run(a: &dyn Action, s: &mut SubDomainStore, dt: f32) -> ActionOutcome {
        let mut rng = Rng64::new(7);
        let mut ctx = ActionCtx { dt, frame: 1, rng: &mut rng };
        a.apply(&mut ctx, s)
    }

    #[test]
    fn gravity_accumulates_velocity_only() {
        let mut s = store_with(&[Vec3::ZERO]);
        let out = run(&Gravity::earth(), &mut s, 0.5);
        assert_eq!(out.applied, 1);
        let p = s.iter().next().unwrap();
        assert!((p.velocity.y + 4.905).abs() < 1e-4);
        assert_eq!(p.position, Vec3::ZERO); // property action: no movement
    }

    #[test]
    fn random_accel_is_bounded_and_deterministic() {
        let mut s1 = store_with(&[Vec3::ZERO; 32]);
        let mut s2 = store_with(&[Vec3::ZERO; 32]);
        run(&RandomAccel::new(2.0), &mut s1, 1.0);
        run(&RandomAccel::new(2.0), &mut s2, 1.0);
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a.velocity, b.velocity, "same seed, same kicks");
            assert!(a.velocity.length() <= 2.0 + 1e-4);
        }
        // at least some particles actually got kicked
        assert!(s1.iter().any(|p| p.velocity.length() > 0.0));
    }

    /// Particles spread over every bucket, with distinct starting
    /// velocities so a kick applied to the wrong particle shows.
    fn scattered(n: usize) -> Vec<Particle> {
        let mut rng = Rng64::new(3);
        (0..n)
            .map(|_| {
                let mut p = Particle::at(Vec3::new(rng.range(-100.0, 100.0), 0.0, 0.0));
                p.velocity = rng.in_unit_sphere();
                p
            })
            .collect()
    }

    fn velocity_bits(ps: impl Iterator<Item = Particle>) -> Vec<[u32; 3]> {
        ps.map(|p| [p.velocity.x.to_bits(), p.velocity.y.to_bits(), p.velocity.z.to_bits()])
            .collect()
    }

    /// The scalar reference: one `in_unit_sphere` draw per particle.
    fn reference_kicks(rng: &mut Rng64, mag: Scalar, ps: &mut [Particle]) {
        for p in ps {
            p.velocity += rng.in_unit_sphere() * mag;
        }
    }

    #[test]
    fn random_accel_apply_matches_scalar_loop() {
        let a = RandomAccel::new(2.5);
        for n in [0, 1, 2, 3, 63, 64, 65, 500, 3000] {
            let mut store = SubDomainStore::new(Interval::new(-100.0, 100.0), Axis::X, 16);
            store.extend(scattered(n));
            let mut want: Vec<Particle> = store.iter().copied().collect();
            let mut want_rng = Rng64::new(11);
            reference_kicks(&mut want_rng, 2.5 * 0.1, &mut want);

            let mut rng = Rng64::new(11);
            let out = a.apply(&mut ActionCtx { dt: 0.1, frame: 1, rng: &mut rng }, &mut store);
            assert_eq!(out.applied, n);
            assert_eq!(velocity_bits(store.iter().copied()), velocity_bits(want.into_iter()));
            assert_eq!(rng.state(), want_rng.state(), "n = {n}: stream consumption differs");
        }
    }

    #[test]
    fn random_accel_apply_chunk_matches_scalar_loop() {
        let a = RandomAccel::new(0.8);
        let root = Rng64::new(5);
        for chunk in [7, 64, 1024] {
            let mut got = scattered(3000);
            let mut want = got.clone();
            for (ci, (g, w)) in got.chunks_mut(chunk).zip(want.chunks_mut(chunk)).enumerate() {
                let mut rng = root.split(ci as u64);
                let mut want_rng = rng.clone();
                let mut ctx = ActionCtx { dt: 0.2, frame: 1, rng: &mut rng };
                assert_eq!(a.apply_chunk(&mut ctx, g).map(|o| o.applied), Some(g.len()));
                reference_kicks(&mut want_rng, 0.8 * 0.2, w);
                assert_eq!(rng, want_rng, "chunk {chunk}, piece {ci}: stream consumption differs");
            }
            assert_eq!(velocity_bits(got.into_iter()), velocity_bits(want.into_iter()));
        }
    }

    #[test]
    fn damping_shrinks_speed() {
        let mut s = store_with(&[Vec3::ZERO]);
        s.for_each_mut(|p| p.velocity = Vec3::new(10.0, 0.0, 0.0));
        run(&Damping::new(0.5), &mut s, 1.0);
        let v = s.iter().next().unwrap().velocity.x;
        assert!((v - 5.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn damping_rejects_bad_rate() {
        let _ = Damping::new(1.5);
    }

    #[test]
    fn wind_converges_to_field() {
        let mut s = store_with(&[Vec3::ZERO]);
        let w = Wind::new(Vec3::new(3.0, 0.0, 0.0), 1.0);
        for _ in 0..64 {
            run(&w, &mut s, 0.25);
        }
        let v = s.iter().next().unwrap().velocity;
        assert!((v.x - 3.0).abs() < 0.01, "velocity {v:?} should approach wind");
    }

    #[test]
    fn orbit_point_pulls_inward() {
        let mut s = store_with(&[Vec3::new(5.0, 0.0, 0.0)]);
        run(&OrbitPoint::new(Vec3::ZERO, 50.0), &mut s, 1.0);
        let v = s.iter().next().unwrap().velocity;
        assert!(v.x < 0.0, "should accelerate toward center, got {v:?}");
        assert_eq!(v.y, 0.0);
    }
}
