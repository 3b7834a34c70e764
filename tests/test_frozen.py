"""The value-type contract: construction, equality, hashing, immutability, repr."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import siegelalg
from siegelalg.catalog import DomainId, ball
from siegelalg.cones import ConeSpec, LorentzFactor, PolyhedralFactor, half_line
from siegelalg.errors import ValidationError
from siegelalg.frozen import Frozen
from siegelalg.graded import SiegelDomainSpec, solve_g0
from siegelalg.hermitian import VERIFIED_EXACT, HermitianFamily, OmegaHermitianVerdict
from siegelalg.linalg import ComplexRows, GaussianRational, gr
from siegelalg.poly import Polynomial


class _Left(Frozen):
    x: ComplexRows
    y: ComplexRows


class _Right(Frozen):
    x: ComplexRows
    y: ComplexRows


def ball3_spec():
    """A fresh spec of ball(3), built without any cached part."""
    return SiegelDomainSpec(3, 1, half_line(), HermitianFamily([[[1, 0], [0, 1]]]))


class TestEqualityAndHash:
    def test_separately_built_cones_are_equal(self):
        a, b = half_line(), half_line()
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_separately_built_domain_ids_are_equal(self):
        a = DomainId("d6", v=(Fraction(1), Fraction(1), Fraction(0)))
        b = DomainId(kind="d6", v=(Fraction(1), Fraction(1), Fraction(0)))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != DomainId("d6", v=(Fraction(1), Fraction(0), Fraction(0)))

    def test_equal_spec_hits_the_solver_cache(self):
        a, b = ball3_spec(), ball3_spec()
        assert a is not b and a == b
        solve_g0(a)
        before = solve_g0.cache_info()
        solve_g0(b)
        after = solve_g0.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_different_types_with_equal_fields_are_unequal(self):
        lorentz, polyhedral = LorentzFactor((0, 1)), PolyhedralFactor((0, 1))
        assert lorentz != polyhedral
        assert lorentz.__eq__(polyhedral) is NotImplemented
        phi = ((gr(1),),)
        assert _Left(phi, phi) != _Right(phi, phi)

    def test_gaussian_rational_never_equals_a_number(self):
        assert gr(1) != 1 and gr(0) != 0
        assert gr(1).__eq__(Fraction(1)) is NotImplemented
        assert hash(gr(Fraction(1, 2), 3)) == hash((Fraction(1, 2), Fraction(3)))


class TestConstruction:
    def test_defaults_and_keywords(self):
        verdict = OmegaHermitianVerdict(VERIFIED_EXACT)
        assert (verdict.samples, verdict.witness) == (0, None)
        assert OmegaHermitianVerdict(kind=VERIFIED_EXACT, samples=3).samples == 3
        assert OmegaHermitianVerdict(VERIFIED_EXACT, 3) == OmegaHermitianVerdict(VERIFIED_EXACT, samples=3)
        dom = DomainId("ball", n=4)
        assert (dom.kind, dom.n, dom.factors, dom.v, dom.params, dom.cone_id) == ("ball", 4, None, None, None, None)
        assert dom == ball(4)

    def test_hand_written_constructors_take_keywords(self):
        assert GaussianRational(im=Fraction(2), re=Fraction(1)) == gr(1, 2)
        assert Polynomial(nvars=2, terms=()) == Polynomial.from_parts(2, {}, {})

    @pytest.mark.parametrize("make", [
        lambda: DomainId(),
        lambda: OmegaHermitianVerdict(samples=2),
        lambda: DomainId("ball", colour=1),
        lambda: DomainId("ball", 3, None, None, None, None, None),
        lambda: DomainId("ball", kind="ball"),
        lambda: GaussianRational(Fraction(1)),
        lambda: Polynomial(1, (), 0),
    ])
    def test_missing_unknown_or_repeated_field_is_a_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_bad_cone_still_fails_validation(self):
        with pytest.raises(ValidationError, match="interior point has wrong length"):
            ConeSpec("bad", 1, half_line().g_basis, (Fraction(1), Fraction(1)), half_line().boundary)

    def test_post_init_may_normalise_a_field(self):
        cone = ConeSpec("ray", 1, (((1,),),), (Fraction(1),), (PolyhedralFactor(((Fraction(1),),)),))
        assert type(cone.g_basis[0][0][0]) is Fraction
        assert cone.annihilator_terms == ()
        assert cone == half_line()

    def test_post_init_patched_on_the_class_runs(self, monkeypatch):
        seen = []
        original = ConeSpec.__post_init__

        def wrapper(self):
            seen.append(self.name)
            original(self)

        monkeypatch.setattr(ConeSpec, "__post_init__", wrapper)
        half_line()
        assert seen == ["ray"]


class TestImmutability:
    @pytest.mark.parametrize("value, name", [
        (DomainId("ball", n=3), "n"),
        (gr(1, 2), "re"),
        (Polynomial.from_parts(2, {}, {}), "terms"),
        (half_line(), "k"),
    ])
    def test_assignment_and_deletion_raise(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, "extra", None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_repr_lists_fields_in_order():
    assert repr(OmegaHermitianVerdict(VERIFIED_EXACT, witness=(gr(1, Fraction(-1, 2)),))) == (
        "OmegaHermitianVerdict(kind='verified-exact', samples=0, "
        "witness=(GaussianRational(re=Fraction(1, 1), im=Fraction(-1, 2)),))"
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    """Both cost start-up time in every cold command-line process."""
    src = str(Path(siegelalg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; before = set(sys.modules); import siegelalg, siegelalg.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
