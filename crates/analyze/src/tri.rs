//! The abstract truth-value domain: sets of possible Kleene outcomes.
//!
//! Concrete three-valued evaluation of a predicate at a tuple yields one of
//! TRUE, FALSE, or NULL (`sia_expr::eval_pred` returns `Option<bool>`). The
//! abstract evaluator instead computes the *set* of outcomes a predicate
//! can take across every tuple consistent with the current abstract state —
//! a subset lattice over `{TRUE, FALSE, NULL}` whose connectives are the
//! pointwise lift of Kleene's strong three-valued operators.

/// A non-empty set of possible three-valued outcomes.
///
/// The evaluator only ever constructs non-empty sets (an unreachable
/// sub-predicate is handled by the *state* going to bottom, not by an empty
/// outcome set), so every combinator below may assume its inputs are
/// inhabited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tri {
    /// The predicate can evaluate to TRUE.
    pub can_true: bool,
    /// The predicate can evaluate to FALSE.
    pub can_false: bool,
    /// The predicate can evaluate to NULL (UNKNOWN).
    pub can_null: bool,
}

impl Tri {
    /// The singleton `{TRUE}`.
    pub fn true_() -> Tri {
        Tri {
            can_true: true,
            can_false: false,
            can_null: false,
        }
    }

    /// The singleton `{FALSE}`.
    pub fn false_() -> Tri {
        Tri {
            can_true: false,
            can_false: true,
            can_null: false,
        }
    }

    /// The full set `{TRUE, FALSE, NULL}` — nothing is known.
    pub fn any() -> Tri {
        Tri {
            can_true: true,
            can_false: true,
            can_null: true,
        }
    }

    /// The predicate is TRUE on every tuple (`{TRUE}` exactly).
    pub fn certainly_true(self) -> bool {
        self.can_true && !self.can_false && !self.can_null
    }

    /// The predicate can never evaluate to TRUE (it may still be NULL):
    /// no tuple passes a WHERE clause using it.
    pub fn never_true(self) -> bool {
        !self.can_true
    }

    /// Kleene negation, lifted pointwise: TRUE↔FALSE swap, NULL fixed.
    #[allow(clippy::should_implement_trait)] // mirrors `Pred::not`
    pub fn not(self) -> Tri {
        Tri {
            can_true: self.can_false,
            can_false: self.can_true,
            can_null: self.can_null,
        }
    }

    /// Kleene conjunction, lifted to sets.
    ///
    /// Both operands are evaluated on the *same* tuple, so combining the
    /// sets independently over-approximates the truth (any correlation
    /// between the conjuncts only shrinks the concrete outcome set). The
    /// conjunction-aware refinement that recovers precision lives in the
    /// evaluator, not here.
    pub fn and(self, other: Tri) -> Tri {
        Tri {
            can_true: self.can_true && other.can_true,
            can_false: self.can_false || other.can_false,
            can_null: (self.can_null && (other.can_true || other.can_null))
                || (other.can_null && (self.can_true || self.can_null)),
        }
    }

    /// Kleene disjunction, lifted to sets (dual of [`Tri::and`]).
    pub fn or(self, other: Tri) -> Tri {
        self.not().and(other.not()).not()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_tris() -> Vec<Tri> {
        let mut out = Vec::new();
        for t in [false, true] {
            for f in [false, true] {
                for n in [false, true] {
                    if t || f || n {
                        out.push(Tri {
                            can_true: t,
                            can_false: f,
                            can_null: n,
                        });
                    }
                }
            }
        }
        out
    }

    /// Concrete Kleene operators on Option<bool>.
    fn kand(a: Option<bool>, b: Option<bool>) -> Option<bool> {
        match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        }
    }

    fn members(t: Tri) -> Vec<Option<bool>> {
        let mut m = Vec::new();
        if t.can_true {
            m.push(Some(true));
        }
        if t.can_false {
            m.push(Some(false));
        }
        if t.can_null {
            m.push(None);
        }
        m
    }

    fn contains(t: Tri, v: Option<bool>) -> bool {
        members(t).contains(&v)
    }

    #[test]
    fn and_or_cover_pointwise_combinations() {
        for a in all_tris() {
            for b in all_tris() {
                for x in members(a) {
                    for y in members(b) {
                        assert!(
                            contains(a.and(b), kand(x, y)),
                            "{a:?} AND {b:?} misses {:?}",
                            kand(x, y)
                        );
                        let kor = kand(x.map(|v| !v), y.map(|v| !v)).map(|v| !v);
                        assert!(contains(a.or(b), kor));
                    }
                }
            }
        }
    }

    #[test]
    fn not_involutive_and_pointwise() {
        for a in all_tris() {
            assert_eq!(a.not().not(), a);
            for x in members(a) {
                assert!(contains(a.not(), x.map(|v| !v)));
            }
        }
    }

    #[test]
    fn classifications() {
        assert!(Tri::true_().certainly_true());
        assert!(Tri::false_().never_true());
        assert!(!Tri::any().never_true());
        let null_or_false = Tri {
            can_true: false,
            can_false: true,
            can_null: true,
        };
        assert!(null_or_false.never_true());
        assert_ne!(null_or_false, Tri::false_());
    }
}
