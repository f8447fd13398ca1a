"""One integer rule at every entry point: each integer argument is an int or a
numpy integer, never a bool, a float or a string, and a refusal is a
ValueError that names the argument it refuses (``bases.check_int``)."""

import re

import numpy as np
import pytest

from goldmankit import bases, casimir, goldman
from goldmankit import observables as obs
from goldmankit import symbolic as sym

FIRST = obs.ObservableSpec.make(1, 1, 0, 0, 1, [[1]], [])
COUNTS = {"r": 1, "n1": 1, "s": 0, "n2": 0, "t": 1}  # FIRST's counts


def _counts(name, value):
    """FIRST's counts with ``value`` for ``name``."""
    return list({**COUNTS, name: value}.values())


def _closure(**kw):
    return sym.closure_check(sym.bracket(sym.parse_expr("tr(a)"), sym.parse_expr("tr(b)")),
                             **kw).report.body()


def _matrices(mats):
    return [m.tobytes() for m in mats]


# (argument, call taking the argument's value, a value it takes, the name its refusal starts with)
ENTRIES = [
    ("verify_bracket n", lambda v: goldman.verify_bracket("su", v, trials=2).body(), 2,
     "su size"),
    ("verify_bracket trials", lambda v: goldman.verify_bracket("su", 2, trials=v).body(), 2,
     "trials"),
    ("verify_bracket seed", lambda v: goldman.verify_bracket("su", 2, 2, seed=v).body(), 2,
     "seed"),
    ("verify_defect n", lambda v: goldman.verify_defect("so", v, trials=2).body(), 3, "so size"),
    ("verify_defect trials", lambda v: goldman.verify_defect("so", 3, trials=v).body(), 2,
     "trials"),
    ("verify_defect seed", lambda v: goldman.verify_defect("so", 3, 2, seed=v).body(), 2,
     "seed"),
    ("verify_symplectic_inverse n",
     lambda v: goldman.verify_symplectic_inverse(v, trials=2).body(), 2, "sp size"),
    ("verify_symplectic_inverse trials",
     lambda v: goldman.verify_symplectic_inverse(1, trials=v).body(), 2, "trials"),
    ("verify_symplectic_inverse seed",
     lambda v: goldman.verify_symplectic_inverse(1, 2, seed=v).body(), 2, "seed"),
    ("split_harness n", lambda v: goldman.split_harness("gl", v).body(), 2, "gl size"),
    ("split_harness seed", lambda v: goldman.split_harness("gl", 2, seed=v).body(), 2, "seed"),
    ("invariance_test trials",
     lambda v: obs.invariance_test(obs.random_instance(FIRST), trials=v).body(), 2, "trials"),
    ("invariance_test seed",
     lambda v: obs.invariance_test(obs.random_instance(FIRST), 2, seed=v).body(), 2, "seed"),
    ("closure_check gauge_trials", lambda v: _closure(gauge_trials=v), 2, "gauge_trials"),
    ("closure_check seed", lambda v: _closure(seed=v), 2, "seed"),
    ("random_instance seed",
     lambda v: _matrices(obs.random_instance(FIRST, seed=v).monodromies), 2, "seed"),
    ("evaluate_brute budget",
     lambda v: obs.evaluate_brute(obs.random_instance(FIRST), budget=v), 2, "budget"),
    ("word_trace_table length", lambda v: obs.word_trace_table(np.eye(7), v).tobytes(), 2,
     "length"),
    ("sample_substreams n",
     lambda v: _matrices(goldman.sample_substreams("so", v, 0, [((), 2)])[0]), 3, "so size"),
    ("sample_substreams seed",
     lambda v: _matrices(goldman.sample_substreams("g2", 1, v, [((), 2)])[0]), 2, "seed"),
    ("sample_substreams rows",
     lambda v: _matrices(goldman.sample_substreams("g2", 1, 0, [((3,), v)])[0]), 2, "streams"),
    *[(f"ObservableSpec.make {name}",
       lambda v, name=name: obs.ObservableSpec.make(*_counts(name, v), [[1]], []), good, name)
      for name, good in COUNTS.items()],
    ("ObservableSpec.make K entry", lambda v: obs.ObservableSpec.make(1, 1, 0, 0, 1, [[v]], []),
     1, "K entry"),
    ("ObservableSpec.make Q entry",
     lambda v: obs.ObservableSpec.make(0, 0, 0, 1, 1, [[]], [[v, 1]]), 1, "Q entry"),
    *[(f"enumerate_specs {name}", lambda v, name=name: obs.enumerate_specs(*_counts(name, v)),
       good, name) for name, good in COUNTS.items()],
    ("build_basis n", lambda v: bases.build_basis("so", v), 3, "so size"),
    ("gell_mann n", lambda v: _matrices(bases.gell_mann(v)), 2, "gell_mann n"),
    ("verify_tensor_lemmas n", lambda v: casimir.verify_tensor_lemmas(v).body(), 2,
     "tensor lemma n"),
    ("verify_tensor_lemmas seed", lambda v: casimir.verify_tensor_lemmas(2, seed=v).body(), 2,
     "seed"),
]
IDS = [entry[0] for entry in ENTRIES]


@pytest.mark.parametrize("value", [2.5, True, "3", np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("name, call, good, refused", ENTRIES, ids=IDS)
def test_an_integer_argument_refuses_what_is_not_an_integer(name, call, good, refused, value):
    with pytest.raises(ValueError, match="^" + re.escape(f"{refused} must be")):
        call(value)


@pytest.mark.parametrize("name, call, good, refused", ENTRIES, ids=IDS)
def test_an_integer_argument_takes_a_numpy_integer(name, call, good, refused):
    assert call(np.int64(good)) == call(good)


def test_check_int_is_the_one_rule():
    assert type(bases.check_int(np.uint8(7), "x")) is int and bases.check_int(np.int64(7), "x") == 7
    assert bases.check_int(0, "seed", 0) == 0
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        bases.check_int(-1, "seed", 0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got 1\.5$"):
        bases.check_int(1.5, "seed", 0)
    with pytest.raises(ValueError, match=r"^trials must be an integer, got 2\.5$"):
        bases.check_int(2.5, "trials", 1)
    with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
        bases.check_int(0, "trials", 1)
