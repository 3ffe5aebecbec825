"""The public record classes' contract: construction, repr, equality and
hashing, frozenness and the checks their constructors make."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import qbouncer
from qbouncer import (
    AiryValue,
    BounceSpec,
    DomainError,
    Eigenbasis,
    MomentTrajectory,
    NumericalError,
    PacketSpec,
    PolynomialPotential,
    SaturatedIC,
    SpectralState,
    UnitSystem,
    closed_form_linear,
)
from qbouncer.cli import ScenarioConfig

REQUIRED = inspect.Parameter.empty
UNITS = UnitSystem(0.5, 2.0, 1.0, 1.0, 1.0, 1.0)
UNITS_REPR = "UnitSystem(m=0.5, g=2.0, hbar=1.0, l_g=1.0, e_g=1.0, t_g=1.0)"
BASIS_ARGS = (1, UNITS, np.array([2.5]), np.array([5.0]), np.array([1.5]), np.array([[0.5]]))
BASIS_REPR = (f"Eigenbasis(n_max=1, units={UNITS_REPR}, zeros=array([2.5]), energies=array([5.]), "
              "norms=array([1.5]), x_matrix=array([[0.5]]))")
BASIS = Eigenbasis(*BASIS_ARGS)

# (class, its parameters with their defaults, the required arguments, the repr
# they give); every parameter is positional-or-keyword
CASES = [
    (BounceSpec, {"x0": REQUIRED, "g": REQUIRED, "v0": 0.0}, (1.0, 2.0),
     "BounceSpec(x0=1.0, g=2.0, v0=0.0)"),
    (UnitSystem, dict.fromkeys(("m", "g", "hbar", "l_g", "e_g", "t_g"), REQUIRED),
     (0.5, 2.0, 1.0, 1.0, 1.0, 1.0), UNITS_REPR),
    (AiryValue, {"ai": REQUIRED, "ai_prime": REQUIRED}, (0.25, -0.5),
     "AiryValue(ai=0.25, ai_prime=-0.5)"),
    (PacketSpec, {"x0": REQUIRED, "sigma": REQUIRED}, (10.0, 1.5),
     "PacketSpec(x0=10.0, sigma=1.5)"),
    (PolynomialPotential, {"coefficients": REQUIRED}, ([0.0, 1.0],),
     "PolynomialPotential(coefficients=(0.0, 1.0))"),
    (SaturatedIC, dict.fromkeys(("alpha", "c0", "c1", "c2"), REQUIRED), (1.0, 0.25, 0.0, 1.0),
     "SaturatedIC(alpha=1.0, c0=0.25, c1=0.0, c2=1.0)"),
    (ScenarioConfig,
     {**dict.fromkeys(("kind", "units", "x0", "sigma", "alpha", "nmax", "nterms", "tend", "dt", "out"),
                      REQUIRED), "envreset": False},
     ("moments", UNITS, 1.0, 2.0, 1.0, 3, 4, 5.0, 0.1, "-"),
     f"ScenarioConfig(kind='moments', units={UNITS_REPR}, x0=1.0, sigma=2.0, alpha=1.0, nmax=3, "
     "nterms=4, tend=5.0, dt=0.1, out='-', envreset=False)"),
    (Eigenbasis, dict.fromkeys(("n_max", "units", "zeros", "energies", "norms", "x_matrix"), REQUIRED),
     BASIS_ARGS, BASIS_REPR),
    (SpectralState, dict.fromkeys(("basis", "coefficients", "time"), REQUIRED),
     (BASIS, np.array([0.6 + 0.8j]), 0.0),
     f"SpectralState(basis={BASIS_REPR}, coefficients=array([0.6+0.8j]), time=0.0)"),
    (MomentTrajectory,
     {"times": REQUIRED, "states": REQUIRED, "warnings": (), "worst_uncertainty_deficit": 0.0},
     (np.array([0.0]), ("s0",)),
     "MomentTrajectory(times=array([0.]), states=('s0',), warnings=(), worst_uncertainty_deficit=0.0)"),
]
IDS = [case[0].__name__ for case in CASES]
VALUE_CLASSES = (BounceSpec, UnitSystem, AiryValue, PacketSpec, PolynomialPotential, SaturatedIC, ScenarioConfig)
IDENTITY_CASES = [case for case in CASES if case[0] not in VALUE_CLASSES]
FROZEN_CASES = [case for case in CASES if case[0] is not Eigenbasis]


@pytest.mark.parametrize("cls, params, args, text", CASES, ids=IDS)
class TestConstruction:
    def test_signature(self, cls, params, args, text):
        got = inspect.signature(cls).parameters.values()
        assert {p.name: p.default for p in got} == params
        assert {p.kind for p in got} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_positional_and_keyword_give_the_same_record(self, cls, params, args, text):
        assert repr(cls(*args)) == text
        assert repr(cls(**dict(zip(params, args)))) == text

    def test_defaults_can_be_passed(self, cls, params, args, text):
        full = args + tuple(d for d in params.values() if d is not REQUIRED)
        assert repr(cls(*full)) == text

    def test_missing_argument_is_type_error(self, cls, params, args, text):
        with pytest.raises(TypeError):
            cls(*args[:-1])

    def test_extra_argument_is_type_error(self, cls, params, args, text):
        full = args + tuple(d for d in params.values() if d is not REQUIRED)
        with pytest.raises(TypeError):
            cls(*full, 0.0)
        with pytest.raises(TypeError):
            cls(*args, unknown=0.0)


@pytest.mark.parametrize("cls, params, args, text", [c for c in CASES if c[0] in VALUE_CLASSES],
                         ids=[c[0].__name__ for c in CASES if c[0] in VALUE_CLASSES])
def test_value_classes_compare_and_hash_by_value(cls, params, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != args and a != text
    if cls is not AiryValue:  # its fields may be arrays, so it is not hashed
        assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in params))
        assert len({a, b}) == 1
        changed = list(args)
        changed[-1] = ("v",) if cls is PolynomialPotential else 2.0 if cls is ScenarioConfig else 7.0
        other = cls(*changed)
        assert a != other and hash(a) != hash(other)


def test_value_classes_do_not_equal_other_classes_with_equal_fields():
    assert PacketSpec(10.0, 1.5) != AiryValue(10.0, 1.5)
    assert AiryValue(10.0, 1.5) != PacketSpec(10.0, 1.5)


@pytest.mark.parametrize("cls, params, args, text", IDENTITY_CASES, ids=[c[0].__name__ for c in IDENTITY_CASES])
def test_identity_classes_compare_and_hash_by_identity(cls, params, args, text):
    a, b = cls(*args), cls(*args)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("cls, params, args, text", FROZEN_CASES, ids=[c[0].__name__ for c in FROZEN_CASES])
def test_frozen_classes_refuse_assignment(cls, params, args, text):
    record = cls(*args)
    name = next(iter(params))
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_eigenbasis_is_not_frozen():
    basis = Eigenbasis(*BASIS_ARGS)
    basis.n_max = 2
    assert basis.n_max == 2


def test_private_slots_start_empty_and_stay_out_of_the_repr():
    basis = Eigenbasis(*BASIS_ARGS)
    state = SpectralState(basis, np.array([1.0 + 0j]), 0.0)
    assert basis._x2 is None and state._rows is None
    assert "_x2" not in repr(basis) and "_rows" not in repr(state)


class TestConstructorChecks:
    @pytest.mark.parametrize("x0, g, message", [
        (-1.0, 1.0, "x0 must be >= 0"),
        (float("inf"), 1.0, "x0 must be >= 0"),
        (float("nan"), 1.0, "x0 must be >= 0"),
        (1.0, 0.0, "g must be > 0"),
        (1.0, float("inf"), "g must be > 0"),
        (1e308, 1e-308, "x0=1e+308, g=1e-308 give an infinite drop time sqrt(2 x0/g)"),
    ])
    def test_bounce_spec(self, x0, g, message):
        with pytest.raises(DomainError) as err:
            BounceSpec(x0, g)
        assert str(err.value) == message

    @pytest.mark.parametrize("x0, sigma, message", [
        (0.0, 1.0, "packet x0 must be positive and finite"),
        (float("inf"), 1.0, "packet x0 must be positive and finite"),
        (1.0, -1.0, "packet sigma must be inf or have 0 < sigma**2 < inf, got -1.0"),
        (1.0, 1e-200, "packet sigma must be inf or have 0 < sigma**2 < inf, got 1e-200"),
        (1.0, 1e200, "packet sigma must be inf or have 0 < sigma**2 < inf, got 1e+200"),
        (1.0, float("nan"), "packet sigma must be inf or have 0 < sigma**2 < inf, got nan"),
    ])
    def test_packet_spec(self, x0, sigma, message):
        with pytest.raises(DomainError) as err:
            PacketSpec(x0, sigma)
        assert str(err.value) == message

    def test_packet_spec_takes_the_classical_limit(self):
        assert PacketSpec(1.0, float("inf")).sigma == float("inf")

    def test_polynomial_potential(self):
        with pytest.raises(DomainError, match="^potential needs at least one coefficient$"):
            PolynomialPotential(())
        V = PolynomialPotential([0.0, 1.0, 0.0])
        assert V.coefficients == (0.0, 1.0, 0.0) and V.degree == 1
        # the cached degree is no field: it changes neither == nor the hash
        assert V == PolynomialPotential((0.0, 1.0, 0.0)) and hash(V) == hash(PolynomialPotential((0.0, 1.0, 0.0)))

    @pytest.mark.parametrize("c, message", [
        (np.array([1.0, 0.1 + 0j]), "coefficient norm 1.01 exceeds 1 or is not finite"),
        (np.array([np.nan + 0j]), "coefficient norm nan exceeds 1 or is not finite"),
    ])
    def test_spectral_state(self, c, message):
        with pytest.raises(NumericalError) as err:
            SpectralState(BASIS, c, 0.0)
        assert str(err.value) == message

    def test_saturated_ic_repr_names_it_in_a_closed_form_refusal(self):
        ic = SaturatedIC(1.0, 1e300, 0.0, 1.0)
        with pytest.raises(DomainError) as err:
            closed_form_linear(ic, 1e-10, [0.0, 1e10])
        assert str(err.value) == ("the closed form is not finite at t=10000000000.0 (m=1e-10, "
                                  "ic=SaturatedIC(alpha=1.0, c0=1e+300, c1=0.0, c2=1.0))")


def test_import_does_not_load_dataclasses():
    """The record classes are plain classes: importing the package and its CLI
    compiles no dataclass methods."""
    src = os.path.dirname(os.path.dirname(qbouncer.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, numpy; print('dataclasses' in sys.modules); "
            "import qbouncer.cli; print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    before, after = out.stdout.split()
    if before == "True":
        pytest.skip("this interpreter or numpy loads dataclasses itself")
    assert after == "False"
