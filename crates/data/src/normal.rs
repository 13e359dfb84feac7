//! Gaussian sampling via the Box–Muller transform.
//!
//! Kept in-repo (rather than pulling `rand_distr`) to stay within the approved
//! dependency set; two uniforms → two independent standard normals.

use rand::Rng;

/// Draws one standard-normal sample.
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Box–Muller; guard the log against u1 == 0.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Fills `out` with independent `N(mean, sigma²)` samples.
pub(crate) fn fill_normal(rng: &mut impl Rng, mean: f32, sigma: f32, out: &mut [f32]) {
    for slot in out {
        *slot = mean + sigma * standard_normal(rng) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn fill_normal_shifts_and_scales() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut buf = vec![0f32; 10_000];
        fill_normal(&mut rng, 100.0, 5.0, &mut buf);
        let mean = buf.iter().map(|&x| x as f64).sum::<f64>() / buf.len() as f64;
        let var = buf.iter().map(|&x| (x as f64 - mean) * (x as f64 - mean)).sum::<f64>()
            / buf.len() as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 5.0).abs() < 0.3, "sigma {}", var.sqrt());
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..16).map(|_| standard_normal(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..16).map(|_| standard_normal(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
