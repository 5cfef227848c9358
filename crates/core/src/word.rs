//! Word-sized exact arithmetic over a weight vector.
//!
//! A walk step sums its transition weights twice: once to check they form
//! a distribution ([`crate::ChainGenerator::validated`]) and once to draw
//! an index ([`crate::sample`]). Both are exact `Rat` sums, but the
//! weights of a step are ratios of small integers, so the sums fit in
//! machine words once scaled to a common denominator. Let `L` be the lcm
//! of the denominators `dᵢ` and `Sᵢ = Σ_{j ≤ i} nⱼ·(L/dⱼ)` the scaled
//! prefix sums. Then
//!
//! * the weights sum to 1 exactly when `S_last = L`, and
//! * `r / 2⁶⁴ < Sᵢ / L` exactly when `r·L < Sᵢ·2⁶⁴`,
//!
//! and with `L` a `u64` both sides of each comparison fit in a `u128`.
//! Every function here returns `None` when some weight is negative, a
//! numerator or denominator does not fit a `u64`, or a product or sum
//! overflows; callers then take the `Rat` path, which decides the same
//! question.

use ocqa_num::Rat;

/// `(nᵢ, dᵢ)` of a non-negative weight whose numerator and denominator
/// both fit a `u64`.
fn parts(w: &Rat) -> Option<(u64, u64)> {
    if w.is_negative() {
        return None;
    }
    Some((w.numer().magnitude().to_u64()?, w.denom().to_u64()?))
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The lcm `L` of the weights' denominators, if it fits a `u64`.
fn common_denominator(weights: &[Rat]) -> Option<u64> {
    weights.iter().try_fold(1u64, |l, w| {
        let (_, d) = parts(w)?;
        l.checked_mul(d / gcd(l, d))
    })
}

/// `nᵢ·(L/dᵢ)`: the weight `w` over the common denominator `l`.
fn scaled(w: &Rat, l: u64) -> Option<u128> {
    let (n, d) = parts(w)?;
    Some(u128::from(n) * u128::from(l / d))
}

/// Whether the weights sum to exactly 1, or `None` when the word path
/// cannot tell.
pub(crate) fn sum_is_one(weights: &[Rat]) -> Option<bool> {
    let l = common_denominator(weights)?;
    let mut sum = 0u128;
    for w in weights {
        sum = sum.checked_add(scaled(w, l)?)?;
    }
    Some(sum == u128::from(l))
}

/// The first index `i` with `r / 2⁶⁴ < Σ_{j ≤ i} wⱼ`, or `None` when the
/// word path cannot tell or no prefix sum exceeds the threshold.
pub(crate) fn draw(weights: &[Rat], r: u64) -> Option<usize> {
    let l = common_denominator(weights)?;
    let threshold = u128::from(r) * u128::from(l);
    let mut acc = 0u128;
    for (i, w) in weights.iter().enumerate() {
        acc = acc.checked_add(scaled(w, l)?)?;
        if threshold < acc.checked_mul(1 << 64)? {
            return Some(i);
        }
    }
    None
}

/// Weight vectors for the differential tests of the word path against
/// the `Rat` path (`sample` and `generators` test modules).
#[cfg(test)]
pub(crate) mod testing {
    use ocqa_num::{IBig, Rat, UBig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Distributions summing to 1, each flagged with whether its
    /// denominators' lcm fits a `u64` (when it does not, the word path
    /// must defer to `Rat`):
    /// * uniform `1/k` for every `k ≤ 64`;
    /// * random distributions over one small denominator;
    /// * random weights with independent small denominators, the last one
    ///   taking the remainder;
    /// * vectors whose lcm exceeds `2⁶⁴`, or with a denominator wider
    ///   than a `u64`.
    pub(crate) fn distributions() -> Vec<(Vec<Rat>, bool)> {
        let mut out: Vec<(Vec<Rat>, bool)> = (1..=64)
            .map(|k| (vec![Rat::ratio(1, k); k as usize], true))
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        while out.len() < 200 {
            let raw: Vec<i64> = (0..rng.gen_range(1..10))
                .map(|_| rng.gen_range(0..20))
                .collect();
            let total: i64 = raw.iter().sum();
            if total > 0 {
                out.push((raw.iter().map(|&n| Rat::ratio(n, total)).collect(), true));
            }
        }
        while out.len() < 300 {
            let mut rest = Rat::one();
            let mut w = Vec::new();
            for _ in 0..rng.gen_range(1..8) {
                let p = Rat::ratio(rng.gen_range(0..4), rng.gen_range(4..40));
                if p > rest {
                    break;
                }
                rest -= &p;
                w.push(p);
            }
            w.push(rest);
            out.push((w, true));
        }
        // Two primes near 2⁶¹ and 2³²: their product passes 2⁶⁴.
        let (p, q) = ((1i64 << 61) - 1, 4_294_967_291i64);
        for w in [Rat::ratio(1, p), Rat::ratio(1, q)] {
            let rest = Rat::one() - &w;
            out.push((vec![w.clone(), rest.clone()], true));
            out.push((vec![rest, w], true));
        }
        let (a, b) = (Rat::ratio(1, p), Rat::ratio(3, q));
        let rest = Rat::one() - &a - &b;
        out.push((vec![a.clone(), b.clone(), rest.clone()], false));
        out.push((vec![rest, b, Rat::zero(), a], false));
        let tiny = Rat::new(IBig::one(), IBig::from(UBig::one().shl_bits(70)));
        out.push((vec![tiny.clone(), Rat::one() - &tiny], false));
        out
    }
}
