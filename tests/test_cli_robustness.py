"""CLI robustness: on generated input, ``bracket --check-closure`` and
``exotic evaluate`` end in exit 0, 1 or 2, never in an exception, and a
refusal (2) is exactly one ``error: …`` line with nothing on stdout."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldmankit import observables as obs
from goldmankit.cli import run


def _loopterms(names):
    """One loop, or two joined by a `.` or `.~` resolution."""
    loops = st.sampled_from(names)
    return st.builds(lambda a, link, b: a + link + b if link else a,
                     loops, st.sampled_from(["", ".", ".~"]), loops)


@st.composite
def _terms(draw, names):
    """A term over the loops ``names``: an optional binder, a coefficient and
    one or two trace factors whose letters name the bound indices, or the
    unbound ``k`` (a parse error) when there is no binder."""
    indices = draw(st.sampled_from([[], ["i"], ["i", "j"]]))
    letters = st.sampled_from(indices or ["k"])
    factors = [
        f"tr({draw(_loopterms(names))}; {' '.join('O ' + x for x in word)})" if word
        else f"tr({draw(_loopterms(names))})"
        for word in draw(st.lists(st.lists(letters, max_size=2), min_size=1, max_size=2))]
    binder = f"sum {' '.join(indices)}: " if indices else ""
    return binder + draw(st.sampled_from(["", "2 ", "-1/3 "])) + " * ".join(factors)


def _exprs(names):
    sums = st.lists(_terms(names), min_size=1, max_size=2).map(" + ".join)
    return st.one_of(
        sums, sums, sums,
        # token soup, mostly refused by the parser
        st.lists(st.sampled_from(["tr", "(", ")", "a", "c", ".", "~", ";", "O", "i",
                                  "sum", ":", "*", "+", "-", "1", "/", "0", ","]),
                 max_size=10).map(" ".join),
    )


def _with_instance(spec):
    """``spec`` with identity matrices embedded as its instance."""
    eye = [float(i == j) for i in range(7) for j in range(7)]
    return dict(spec, monodromies=[eye] * (spec["n1"] + spec["t"]),
                alphas=[eye] * (spec["n1"] - spec["r"]), betas=[eye] * (spec["n2"] - spec["s"]))


_VALID = [obs.spec_to_json_dict(spec)
          for counts in [(1, 1, 0, 0, 1), (1, 2, 0, 0, 1), (0, 1, 0, 1, 1), (2, 2, 0, 1, 2)]
          for spec in obs.enumerate_specs(*counts)[:3]]
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=2),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["r", "K", "t"]), inner, max_size=2),
                     max_leaves=6)
_FIELDS = ["r", "n1", "s", "n2", "t", "K", "Q", "monodromies", "alphas", "betas"]
_SPECS = st.one_of(
    st.sampled_from(_VALID),
    st.sampled_from(_VALID).map(_with_instance),
    # a valid spec or instance with one field replaced (or added) by junk
    st.builds(lambda spec, field, junk: dict(spec, **{field: junk}),
              st.sampled_from(_VALID + [_with_instance(v) for v in _VALID]),
              st.sampled_from(_FIELDS), _JSON | st.lists(_JSON, min_size=1, max_size=2)),
    _JSON,
)


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lhs=_exprs(["a", "b", "(a.b)"]), rhs=_exprs(["c", "d", "(c.d)", "a"]))
def test_bracket_check_closure_exits_cleanly(lhs, rhs):
    # rhs shares loop a with lhs only sometimes; `--lhs=` keeps an expression
    # that starts with '-' from reading as a flag
    _outcome(["bracket", f"--lhs={lhs}", f"--rhs={rhs}", "--check-closure"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=_SPECS, as_text=st.sampled_from([False] * 4 + [True]))
@example(spec=dict(_with_instance(_VALID[0]), monodromies=[[{}], "7x7"]), as_text=False)
def test_exotic_evaluate_exits_cleanly(spec, as_text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        # as_text: the JSON cut short, which is malformed unless it is a scalar
        text = json.dumps(spec)
        path.write_text(text[: len(text) // 2] if as_text else text)
        _outcome(["exotic", "evaluate", "--spec", str(path), "--seed", "1"])
