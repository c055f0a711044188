//! Deadlines for the solver's main loops.
//!
//! A [`Budget`] is an optional wall-clock deadline. The solver polls it at
//! its loop heads — every few hundred CDCL steps, every few dozen simplex
//! pivots, every DPLL(T) round, every branch-and-bound node — and bails out
//! with an `Unknown`/interrupted verdict instead of wedging.
//!
//! The default ([`Budget::unlimited`]) has no deadline: polling it is a
//! single `Option` discriminant test, so un-budgeted solving pays nothing
//! for the hooks.

use std::time::{Duration, Instant};

/// An optional deadline threaded through solver loops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    deadline: Option<Instant>,
}

impl Budget {
    /// A budget that never expires (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget that expires `limit` from now.
    pub fn with_deadline(limit: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + limit),
        }
    }

    /// The poll: true once past the deadline. This is the call sprinkled
    /// through the CDCL, simplex, DPLL(T), and branch-and-bound loops.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        assert!(!Budget::unlimited().is_exhausted());
    }

    #[test]
    fn deadline_expires() {
        assert!(Budget::with_deadline(Duration::ZERO).is_exhausted());
        assert!(!Budget::with_deadline(Duration::from_secs(3600)).is_exhausted());
    }

    #[test]
    fn absolute_deadline_charges_elapsed_time() {
        // The deadline is fixed when the budget is made (serve makes it at
        // admission), so time spent before the first poll counts against
        // it, in every copy.
        let b = Budget::with_deadline(Duration::from_millis(5));
        let copy = b;
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.is_exhausted() && copy.is_exhausted());
    }
}
