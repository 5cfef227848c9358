//! Arbitrary-precision integer and exact rational arithmetic.
//!
//! The operational CQA semantics of Calautti, Libkin and Pieris (PODS 2018)
//! assigns *exact* probabilities to repairing sequences: every edge of a
//! repairing Markov chain carries a rational weight, and the probability of a
//! repair is a sum of products of such weights (the hitting distribution of a
//! tree-shaped absorbing chain). Along deep repairing sequences these
//! products accumulate denominators that overflow any fixed-width integer,
//! and floating point would silently break the invariants the semantics is
//! built on (masses summing to exactly 1, conditional probabilities of
//! `p/q` form, comparisons between repairs of near-equal likelihood).
//!
//! This crate therefore provides:
//!
//! * [`UBig`] — an unsigned arbitrary-precision integer (little-endian
//!   `u64` limbs, schoolbook multiplication, Knuth Algorithm D division);
//! * [`IBig`] — a signed integer on top of [`UBig`];
//! * [`Rat`]  — an always-normalized exact rational, the number type used
//!   throughout `ocqa-core` for probabilities.
//!
//! The implementation favours clarity and exactness over asymptotic speed:
//! the magnitudes that appear in repair distributions are a few hundred to a
//! few thousand bits, where schoolbook algorithms are perfectly adequate
//! (`bench_e2e`'s `num.rat_add_cmp_ns` probe times the walk's `Rat` sums;
//! CHANGES.md records `UBig` mul/div/gcd at 64–1,024 bits).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ibig;
mod rational;
mod ubig;

pub use ibig::{IBig, Sign};
pub use rational::Rat;
pub use ubig::UBig;

/// Error returned when parsing a number from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNumError {
    msg: String,
}

impl ParseNumError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for ParseNumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid number: {}", self.msg)
    }
}

impl std::error::Error for ParseNumError {}
