"""Implication between operator identity sets, by free-object evaluation.

A claimed identity follows from a hypothesis set exactly when it holds in
the free object for that hypothesis under the generic assignment sending
each term variable to the matching polynomial generator.  The difference of
the two sides in normal form is therefore a complete decision: zero means
the implication holds, and a nonzero normal form is itself the
counterexample, since the free object satisfies the hypotheses.
"""

from __future__ import annotations

from typing import List, Union

from . import terms as T
from ._record import Record
from .exactlin import QQ, Ring
from .freeavg import Mode, eval_term, generic_assignment
from .terms import Equation, IdentitySet


MODE_OF = {
    IdentitySet.AVERAGING: Mode.PLAIN,
    IdentitySet.UNITARY_AVERAGING: Mode.UNITARY,
    IdentitySet.REYNOLDS_AVERAGING: Mode.REYNOLDS,
}


class Holds(Record):
    __slots__ = ()


class Fails(Record):
    """``witness``: the nonzero normal form of lhs - rhs at the generic
    point, a ``FreePoly``."""

    __slots__ = ("witness",)


Verdict = Union[Holds, Fails]


def implies_one(hypothesis: IdentitySet, claim: Equation, ring: Ring = QQ) -> Verdict:
    mode = MODE_OF[hypothesis]
    assignment = generic_assignment(T.Sub(claim.lhs, claim.rhs), ring)
    lhs = eval_term(claim.lhs, mode, assignment, ring)
    rhs = eval_term(claim.rhs, mode, assignment, ring)
    diff = lhs.sub(rhs)
    if diff.is_zero():
        return Holds()
    return Fails(diff)


def implies(hypothesis: IdentitySet, claims: List[Equation], ring: Ring = QQ) -> List[Verdict]:
    """One verdict per claim, decided independently and in order."""
    return [implies_one(hypothesis, c, ring) for c in claims]
