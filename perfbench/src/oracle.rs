//! The benchmark's own output oracle. References are built here from
//! the regenerated inputs — an `f64` fold in rank order for allreduce,
//! the root's input for bcast — without calling into the library's
//! reduction or error-theory code, so a defect there cannot hide itself.

use c_coll::CodecSpec;

/// What a result must satisfy against its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Bitwise equality with the reference rounded to `f32`.
    Exact,
    /// `|result − reference| ≤ bound` element-wise, up to the `f32`
    /// rounding of the `terms`-input computation (see [`check`]).
    Abs { bound: f64, terms: usize },
}

impl Bound {
    /// The bound for an output that `contributions` compressed inputs
    /// fed under `spec`: `contributions · eb` for error-bounded codecs
    /// (each contribution is compressed at most once per hop it takes,
    /// and the paper's Theorem 1 sums the per-hop bounds), bitwise for
    /// [`CodecSpec::None`].
    ///
    /// # Panics
    /// Panics for a lossy codec without an absolute bound (fixed-rate
    /// ZFP), which no workload uses.
    pub fn for_codec(spec: CodecSpec, contributions: usize) -> Bound {
        match spec {
            CodecSpec::None => Bound::Exact,
            spec => {
                let eb = spec
                    .error_bound()
                    .expect("workload codecs carry an absolute bound");
                Bound::Abs {
                    bound: contributions as f64 * f64::from(eb),
                    terms: contributions,
                }
            }
        }
    }
}

/// Outcome of checking one output buffer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Verdict {
    /// Largest `|result − reference| / bound` (0 or ∞ for [`Bound::Exact`]).
    pub worst: f64,
    pub failed: bool,
}

impl Verdict {
    pub const PASS: Verdict = Verdict {
        worst: 0.0,
        failed: false,
    };

    /// Combine two verdicts (the worse error, failed if either failed).
    pub fn and(self, other: Verdict) -> Verdict {
        Verdict {
            worst: self.worst.max(other.worst),
            failed: self.failed || other.failed,
        }
    }
}

/// The element-wise sum of `inputs`, accumulated in `f64` in rank order.
pub fn sum_reference(inputs: &[&[f32]]) -> Vec<f64> {
    let mut acc = vec![0.0f64; inputs.first().map_or(0, |x| x.len())];
    for input in inputs {
        assert_eq!(input.len(), acc.len(), "ranks disagree on the length");
        for (a, &v) in acc.iter_mut().zip(*input) {
            *a += f64::from(v);
        }
    }
    acc
}

/// The reference of a broadcast: the root's input itself.
pub fn copy_reference(root_input: &[f32]) -> Vec<f64> {
    root_input.iter().map(|&v| f64::from(v)).collect()
}

/// Check `result` against `reference` under `bound`. A length mismatch
/// or a non-finite value fails.
///
/// [`Bound::Abs`] is a bound in exact arithmetic, which the collective
/// meets only up to rounding: it computes in `f32` (every fold and every
/// dequantized value rounds once), while the reference is an `f64` sum.
/// So an element fails only when its error exceeds the bound by more
/// than `2·terms·ε_f32·(|reference| + bound)`, twice the rounding one
/// `f32` operation per input term can add. The reported ratio is against
/// the bound alone and may exceed 1 by that allowance.
pub fn check(result: &[f32], reference: &[f64], bound: Bound) -> Verdict {
    if result.len() != reference.len() {
        return Verdict {
            worst: f64::INFINITY,
            failed: true,
        };
    }
    match bound {
        Bound::Exact => {
            let equal = result
                .iter()
                .zip(reference)
                .all(|(&r, &e)| r.to_bits() == (e as f32).to_bits());
            if equal {
                Verdict::PASS
            } else {
                Verdict {
                    worst: f64::INFINITY,
                    failed: true,
                }
            }
        }
        Bound::Abs { bound, terms } => {
            let rounding = 2.0 * terms as f64 * f64::from(f32::EPSILON);
            let mut v = Verdict::PASS;
            for (&r, &e) in result.iter().zip(reference) {
                let err = (f64::from(r) - e).abs();
                // A NaN error is unbounded (`f64::max` would skip it).
                let err = if err.is_nan() { f64::INFINITY } else { err };
                v.worst = v.worst.max(err / bound);
                v.failed |= err > bound + rounding * (e.abs() + bound);
            }
            v
        }
    }
}

/// The oracle's self-test on a real output: moving one element of a
/// passing `result` by twice the bound (one ulp for [`Bound::Exact`])
/// must turn the verdict into a failure. Returns whether it did.
pub fn catches_perturbation(result: &[f32], reference: &[f64], bound: Bound) -> bool {
    if result.is_empty() {
        return true;
    }
    let mut bad = result.to_vec();
    let i = bad.len() / 2;
    bad[i] = match bound {
        Bound::Exact => f32::from_bits(bad[i].to_bits() ^ 1),
        Bound::Abs { bound, .. } => (reference[i] + 2.0 * bound) as f32,
    };
    check(&bad, reference, bound).failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_reference_folds_in_f64() {
        let a = [1.0f32, 1e8];
        let b = [2.0f32, 1.0];
        assert_eq!(sum_reference(&[&a, &b]), vec![3.0, 100_000_001.0]);
    }

    #[test]
    fn bound_scales_with_contributions() {
        let spec = CodecSpec::Szx { error_bound: 1e-3 };
        assert_eq!(
            Bound::for_codec(spec, 4),
            Bound::Abs {
                bound: 4.0 * f64::from(1e-3f32),
                terms: 4
            }
        );
        assert_eq!(Bound::for_codec(CodecSpec::None, 4), Bound::Exact);
    }

    #[test]
    fn result_perturbed_by_twice_the_bound_fails() {
        let reference = vec![0.5f64; 64];
        let bound = Bound::Abs {
            bound: 1e-3,
            terms: 2,
        };
        let mut result: Vec<f32> = reference.iter().map(|&v| v as f32).collect();
        result[7] += 9e-4;
        let v = check(&result, &reference, bound);
        assert!(!v.failed && v.worst > 0.8 && v.worst < 1.0);
        assert!(catches_perturbation(&result, &reference, bound));
        result[7] = (0.5 + 2e-3) as f32;
        assert!(check(&result, &reference, bound).failed);
    }

    #[test]
    fn rounding_allowance_is_ulp_sized() {
        // 0.3 + 2e-3 rounds to an f32 a few ulps past the bound: still a
        // pass; one part in 10^4 past it is not.
        let reference = vec![0.3f64];
        let bound = Bound::Abs {
            bound: 2e-3,
            terms: 2,
        };
        let v = check(&[(0.3 + 2e-3 + 6e-8) as f32], &reference, bound);
        assert!(v.worst > 1.0 && !v.failed);
        assert!(check(&[(0.3 + 2e-3 * 1.0001) as f32], &reference, bound).failed);
    }

    #[test]
    fn exact_bound_is_bitwise() {
        let input = [1.0f32, -0.0, 3.5];
        let reference = copy_reference(&input);
        assert!(!check(&input, &reference, Bound::Exact).failed);
        assert!(catches_perturbation(&input, &reference, Bound::Exact));
        assert!(check(&[1.0, 0.0, 3.5], &reference, Bound::Exact).failed);
    }

    #[test]
    fn nan_and_length_mismatch_fail() {
        let reference = vec![1.0f64; 3];
        let bound = Bound::Abs {
            bound: 1.0,
            terms: 1,
        };
        assert!(check(&[1.0, f32::NAN, 1.0], &reference, bound).failed);
        assert!(check(&[1.0], &reference, bound).failed);
    }
}
