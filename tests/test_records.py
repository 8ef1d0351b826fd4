"""Equality, hashing, immutability and construction of avgalg's value records."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import avgalg.findim as FD
from avgalg import terms as T
from avgalg._record import Record
from avgalg.decide import Holds
from avgalg.exactlin import QQ, Matrix, Rationals, RingError, ShapeError, ZMod
from avgalg.findim import (
    Certificate,
    Check,
    InduceNoSolution,
    StructureAlgebra,
    averaging_operator,
)
from avgalg.freeavg import FreePoly, x_gen


def qi():
    return StructureAlgebra.make(QQ, (1, 0), [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]])


def imaginary_part():
    return Matrix.from_cols(QQ, [(0, 0), (1, 0)])


X1_COEFFS = {((x_gen(1), 1),): Fraction(2), ((x_gen(2), 1),): Fraction(-1)}

# (class, field values, the tuple the value hashes as): FreePoly and Matrix
# have hand-written constructors, Check and Certificate the generic one, and
# the term nodes store their fields through slot setters; a FreePoly's
# coefficient dict hashes as its set of items
VALUES = [
    (FreePoly, (QQ, X1_COEFFS), (QQ, frozenset(X1_COEFFS.items()))),
    (Matrix, (QQ, 1, 2, ((Fraction(1), Fraction(0)),)), None),
    (Check, (False, (0, 1)), None),
    (Certificate, ("operand is averaging", True, None), None),
    (T.Var, (1,), None),
    (T.Add, (T.Var(1), T.Var(2)), None),
    (T.ScalarMul, (Fraction(2), T.Var(1)), None),
    (T.F, (T.Var(1),), None),
    (T.Pow, (T.Var(1), 2), None),
]


def _unchecked(cls, fields):
    """A record of cls holding fields, bypassing any validating __init__."""
    v = cls.__new__(cls)
    Record.__init__(v, *fields)
    return v


@pytest.mark.parametrize("cls, fields, hashed", VALUES,
                         ids=[cls.__name__ for cls, _, _ in VALUES])
class TestRecordValue:
    def test_equal_fields_give_equal_values_and_hashes(self, cls, fields, hashed):
        a, b = cls(*fields), cls(*fields)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_hash_is_the_hash_of_the_field_tuple(self, cls, fields, hashed):
        assert hash(cls(*fields)) == hash(fields if hashed is None else hashed)

    def test_a_changed_field_makes_a_different_value(self, cls, fields, hashed):
        assert cls(*fields) != _unchecked(cls, fields[:-1] + ("other",))

    def test_fields_can_be_neither_assigned_nor_deleted(self, cls, fields, hashed):
        v = cls(*fields)
        name = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(v, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert getattr(v, name) is fields[0]

    def test_repr_names_every_field(self, cls, fields, hashed):
        body = ", ".join(f"{n}={x!r}" for n, x in zip(cls._fields, fields))
        assert repr(cls(*fields)) == f"{cls.__name__}({body})"


def test_a_record_never_equals_a_tuple_of_its_fields():
    assert Check(True) != (True, None)
    assert (True, None) != Check(True)
    assert Check(True) == Check(True, None)


def test_records_of_different_classes_differ_even_with_equal_fields():
    assert Holds() != InduceNoSolution()
    assert hash(Holds()) == hash(InduceNoSolution()) == hash(())
    v = T.Var(1)
    assert T.Add(v, v) != T.Sub(v, v)
    assert T.Add(v, v) == T.Add(T.Var(1), T.Var(1))


def test_generic_constructor_fills_defaults_and_counts_arguments():
    assert Check(True).witness is None
    assert FD.DomainCertificate("dimension 1").primes == ()
    with pytest.raises(TypeError):
        Check()
    with pytest.raises(TypeError):
        Check(True, None, None)


def test_rationals_value_is_the_field_q():
    assert Rationals() == QQ
    assert hash(Rationals()) == hash(("Q", True))
    assert (QQ.name, QQ.is_field) == ("Q", True)


def test_validating_constructors_still_refuse_bad_input():
    with pytest.raises(RingError):
        ZMod(1)
    with pytest.raises(ShapeError):
        Matrix(QQ, 2, 2, ((1, 0), (1,)))
    with pytest.raises(ShapeError):
        Matrix(QQ, 3, 2, ((1, 0), (0, 1)))
    assert ZMod(7) == ZMod(7) and ZMod(7).is_field and not ZMod(6).is_field


def test_every_record_class_declares_slots():
    # a subclass without __slots__ would give its instances a __dict__
    stack, seen = [Record], []
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        seen.append(cls)
        assert "__slots__" in vars(cls), cls
    # the 36 value types, Record, and the bases Term, _Binary, _Sparse and _Table; records
    # the test suites define (support.FractionRationals, support.InduceDiagnostic) are
    # not counted
    assert len([cls for cls in seen if cls.__module__.startswith("avgalg.")]) == 41


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps the interpreter's site and .pth files from importing either
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import avgalg.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


class TestLazyBracket:
    def test_bracket_is_built_once_and_outside_equality(self, monkeypatch):
        calls = []
        original = FD._bracket_table

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(FD, "_bracket_table", counted)
        A, F = qi(), imaginary_part()
        op, fresh = averaging_operator(A, F), averaging_operator(A, F)
        first = op.bracket
        assert op.bracket is first
        assert len(calls) == 1
        # op holds its bracket and fresh does not; both are the same operator
        assert op == fresh and hash(op) == hash(fresh) == hash((A, F))
        assert repr(op) == repr(fresh)
        assert len(calls) == 1
        assert fresh.bracket == first
        assert len(calls) == 2
