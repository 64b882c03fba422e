//! # pamr-bench — shared fixtures for the `pamr-bench` timing harness
//!
//! Deterministic instances on the campaign platform (the 8×8 mesh under
//! the Kim–Horowitz model) that the `pamr-bench` lanes time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::CommSet;
use pamr_workload::{LengthTargetedWorkload, UniformWorkload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The campaign mesh (8×8).
pub fn mesh8() -> Mesh {
    Mesh::new(8, 8)
}

/// The campaign model.
pub fn model() -> PowerModel {
    PowerModel::kim_horowitz()
}

/// A deterministic uniform-workload instance.
pub fn uniform_instance(mesh: &Mesh, n: usize, w_min: f64, w_max: f64, seed: u64) -> CommSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    UniformWorkload::new(n, w_min, w_max).generate(mesh, &mut rng)
}

/// A deterministic length-targeted instance.
pub fn length_instance(
    mesh: &Mesh,
    n: usize,
    w_min: f64,
    w_max: f64,
    len: usize,
    seed: u64,
) -> CommSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    LengthTargetedWorkload::new(n, w_min, w_max, len).generate(mesh, &mut rng)
}
