//! Fixture: parallelism expressed through the race-checked fan-outs,
//! which own all thread spawning inside simcore/src/parallel.rs.
use adainf_simcore::parallel::fan_out_indexed;

pub fn square_all(xs: &[u64]) -> Vec<u64> {
    fan_out_indexed(xs.len(), 0, || (), |i, ()| xs[i] * xs[i])
}
