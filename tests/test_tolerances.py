"""Every pass threshold is a module constant: pinned value, no keyword, README table.
Every sampled check draws at a pinned scale: no ``scale`` keyword."""

from pathlib import Path

import numpy as np
import pytest

from goldmankit import bases, casimir, cli, goldman, linalg, observables
from goldmankit.symbolic import closure

# (README check name, residual, module, constant, value, function that used to
# take the threshold as a keyword, that keyword)
PINS = [
    ("`check_normalization`", "abs", bases, "_NORMALIZATION_TOL", 1e-12,
     bases.check_normalization, "abs_tol"),
    ("`casimir_tensor` normalization precondition", "abs", casimir, "_NORMALIZATION_TOL", 1e-12,
     casimir.casimir_tensor, "abs_tol"),
    ("`closure_rank` singular-value cutoff", "abs", bases, "_RANK_TOL", 1e-8,
     bases.closure_rank, "threshold"),
    ("`real_part` imaginary part", "abs", linalg, "_IMAG_TOL", 1e-12, linalg.real_part, "tol"),
    ("`verify_closed_form`", "abs", casimir, "_CLOSED_FORM_TOL", 1e-12,
     casimir.verify_closed_form, "abs_tol"),
    ("`verify_tensor_lemmas`", "abs", casimir, "_LEMMA_TOL", 1e-13,
     casimir.verify_tensor_lemmas, "abs_tol"),
    ("`sample_substreams` membership", "abs", goldman, "_MEMBERSHIP_TOL", 1e-8, None, None),
    ("`verify_bracket`", "rel", goldman, "_BRACKET_TOL", 1e-9, goldman.verify_bracket, "rel_tol"),
    ("`verify_defect`", "abs", goldman, "_DEFECT_TOL", 1e-10, goldman.verify_defect, "abs_tol"),
    ("`verify_symplectic_inverse`", "abs", goldman, "_SYMPLECTIC_INVERSE_TOL", 1e-9,
     goldman.verify_symplectic_inverse, "abs_tol"),
    ("`split_harness`", "abs", goldman, "_SPLIT_TOL", 1e-9, goldman.split_harness, "abs_tol"),
    ("relative-error denominator floor", "abs", goldman, "_REL_FLOOR", 1e-12, None, None),
    ("`verify octonion` conjugation", "abs", cli, "_CONJUGATION_TOL", 1e-8, None, None),
    ("`invariance_test`", "rel", observables, "_INVARIANCE_TOL", 1e-8,
     observables.invariance_test, "rel_tol"),
    ("`invariance_test` negative control", "abs", observables, "_CONTROL_FLOOR", 1e-3,
     observables.invariance_test, "control_floor"),
    ("`closure_check`", "rel", closure, "_CLOSURE_TOL", 1e-7, closure.closure_check, "rel_tol"),
    ("`closure_check` negative control", "abs", observables, "_CONTROL_FLOOR", 1e-3,
     closure.closure_check, "control_floor"),
]


# module.constant, and the check's name after a constant that two checks share
IDS = [f"{p[2].__name__}.{p[3]}" for p in PINS]
IDS = [name if IDS.index(name) == k else f"{name}-{PINS[k][5].__name__}"
       for k, name in enumerate(IDS)]


@pytest.mark.parametrize("pin", PINS, ids=IDS)
def test_pinned_tolerances(pin):
    _, _, module, constant, value, func, keyword = pin
    assert getattr(module, constant) == value
    if func is not None:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            func(**{keyword: value})


def test_readme_tolerance_table_matches_the_constants():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| Check ")]
    table = {name.strip(): (kind.strip(), float(value)) for name, kind, value in rows}
    assert table == {name: (kind, getattr(module, constant))
                     for name, kind, module, constant, *_ in PINS}


def test_real_part_refuses_imaginary_part_at_the_pin():
    with pytest.raises(linalg.NumericError, match="exceeds tolerance 1.0e-12"):
        linalg.real_part(np.array([1.0 + 1e-12j]))
    assert linalg.real_part(np.array([1.0 + 0.9e-12j])).tolist() == [1.0]


# Functions that used to take the sampling scale as a keyword; each now draws
# c_a uniform on [-1, 1], except split_harness on [-_SPLIT_SCALE, _SPLIT_SCALE].
SCALE_PINS = [goldman.verify_bracket, goldman.verify_defect, goldman.verify_symplectic_inverse,
              goldman.split_harness, observables.random_instance, closure.instantiate]


@pytest.mark.parametrize("func", SCALE_PINS, ids=[f.__name__ for f in SCALE_PINS])
def test_sampled_checks_refuse_a_scale(func):
    with pytest.raises(TypeError, match="unexpected keyword argument 'scale'"):
        func(scale=1.0)


def test_split_harness_scale_is_pinned():
    assert goldman._SPLIT_SCALE == 0.7
