import random

from avgalg.decide import Fails, Holds, implies, implies_one
from avgalg.exactlin import ZMod
from avgalg.terms import IdentitySet, parse_equation
from avgalg import terms as T
from support import (
    eval_term_concrete,
    rand_averaging,
    rand_element,
    rand_algebra,
    unitary_pair,
    variables_of,
)

E_A = IdentitySet.AVERAGING
E_UA = IdentitySet.UNITARY_AVERAGING
E_RA = IdentitySet.REYNOLDS_AVERAGING

AVERAGING_LAW = "f(v1*f(v2)) = f(v1)*f(v2)"
REYNOLDS_LAW = "f(f(v1)*f(v2)) = f(v1)*f(v2)"
MOMENT_2 = "2*f(v1*f(v1)) = f(f(v1)^2) + f(v1)^2"


def test_hypothesis_contains_claim():
    assert isinstance(implies_one(E_A, parse_equation(AVERAGING_LAW)), Holds)


def test_unitary_implies_reynolds_law():
    assert isinstance(implies_one(E_UA, parse_equation(REYNOLDS_LAW)), Holds)


def test_plain_averaging_does_not_imply_reynolds_law():
    v = implies_one(E_A, parse_equation(REYNOLDS_LAW))
    assert isinstance(v, Fails)
    assert v.witness.render() == "y[1]*y[x1]*y[x2] - y[x1]*y[x2]"


def test_reynolds_moment_family_degree_two():
    assert isinstance(implies_one(E_RA, parse_equation(MOMENT_2)), Holds)


def test_ground_claims_use_empty_free_object():
    v = implies_one(E_A, parse_equation("f(1) = 1"))
    assert isinstance(v, Fails)
    assert v.witness.render() == "y[1] - 1"
    assert isinstance(implies_one(E_UA, parse_equation("f(1) = 1")), Holds)


def test_empty_claim_list():
    assert implies(E_A, []) == []


def test_multiple_claims_decided_independently():
    claims = [parse_equation(AVERAGING_LAW), parse_equation(REYNOLDS_LAW)]
    verdicts = implies(E_A, claims)
    assert isinstance(verdicts[0], Holds)
    assert isinstance(verdicts[1], Fails)


def test_determinism_of_witnesses():
    for _ in range(3):
        v = implies_one(E_A, parse_equation(REYNOLDS_LAW))
        assert v.witness.render() == "y[1]*y[x1]*y[x2] - y[x1]*y[x2]"


def test_zmod_coefficients():
    ring = ZMod(5)
    v = implies_one(E_A, parse_equation("5*f(v1) = 0"), ring)
    assert isinstance(v, Holds)


def _spot_check(claim_text, instances, rng, samples=50):
    """A Holds verdict must survive concrete instantiation."""
    eq = parse_equation(claim_text)
    names = variables_of(T.Sub(eq.lhs, eq.rhs))
    for A, F in instances:
        for _ in range(samples):
            env = {int(n[1:]): rand_element(rng, A) for n in names}
            lhs = eval_term_concrete(eq.lhs, A, F, env)
            rhs = eval_term_concrete(eq.rhs, A, F, env)
            assert lhs == rhs, (claim_text, env)


def test_soundness_spot_check_averaging():
    rng = random.Random(2024)
    assert isinstance(implies_one(E_A, parse_equation(AVERAGING_LAW)), Holds)
    instances = []
    while len(instances) < 5:
        A = rand_algebra(rng)
        instances.append((A, rand_averaging(rng, A)))
    _spot_check(AVERAGING_LAW, instances, rng)


def test_soundness_spot_check_unitary():
    rng = random.Random(2025)
    assert isinstance(implies_one(E_UA, parse_equation(REYNOLDS_LAW)), Holds)
    instances = [unitary_pair(rng) for _ in range(5)]
    _spot_check(REYNOLDS_LAW, instances, rng)
    _spot_check("f(1) = 1", instances, rng)


def test_soundness_spot_check_reynolds():
    rng = random.Random(2026)
    assert isinstance(implies_one(E_RA, parse_equation(MOMENT_2)), Holds)
    # unitary averaging operators satisfy the Reynolds law, so these
    # instances are of matching kind for the Reynolds hypothesis set
    instances = [unitary_pair(rng) for _ in range(5)]
    _spot_check(MOMENT_2, instances, rng)
