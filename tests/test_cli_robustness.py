"""CLI robustness: on generated input, ``bracket --check-closure``, every
``exotic`` action and every ``verify`` suite end in exit 0, 1 or 2, never in
an exception, and a refusal (2) is exactly one ``error: …`` line with
nothing on stdout (after argparse's usage, for a flag value it refuses)."""

import argparse
import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldmankit import observables as obs
from goldmankit.cli import FAMILY_CHOICES, build_parser, run


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


def _with_spec_file(spec, as_text, argv):
    """``_outcome`` of ``argv`` plus ``--spec`` naming a file that holds ``spec``; as_text:
    the JSON cut short, which is malformed unless it is a scalar."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        text = json.dumps(spec)
        path.write_text(text[: len(text) // 2] if as_text else text)
        _outcome(argv + ["--spec", str(path)])


_AS_TEXT = st.sampled_from([False] * 4 + [True])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=_SPECS, as_text=_AS_TEXT)
@example(spec=dict(_with_instance(_VALID[0]), monodromies=[[{}], "7x7"]), as_text=False)
def test_exotic_evaluate_exits_cleanly(spec, as_text):
    _with_spec_file(spec, as_text, ["exotic", "evaluate", "--seed", "1"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=_SPECS, as_text=_AS_TEXT)
def test_exotic_validate_exits_cleanly(spec, as_text):
    _with_spec_file(spec, as_text, ["exotic", "validate"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=_SPECS, trials=st.integers(0, 3), seed=st.integers(-1, 3))
@example(spec=_VALID[0], trials=0, seed=0)
@example(spec=_with_instance(_VALID[-1]), trials=3, seed=-1)  # gauges that move nothing
def test_exotic_invariance_exits_cleanly(spec, trials, seed):
    _with_spec_file(spec, False, ["exotic", "invariance", "--trials", str(trials),
                                  "--seed", str(seed)])


def _spec_budget_edges():
    """The (r, n1, s, n2, t) of the largest count ``enumerate_specs`` admits and of
    the smallest it refuses, by ``spec_count`` over every valid tuple of entries < 8."""
    counts = sorted((obs.spec_count(*c), c) for c in itertools.product(range(8), repeat=5)
                    if not obs._parameter_errors(*c))
    admitted = max((n, c) for n, c in counts if n <= obs._SPEC_BUDGET)
    refused = min((n, c) for n, c in counts if n > obs._SPEC_BUDGET)
    return admitted[1], refused[1]


def _enumerate_argv(counts):
    return ["exotic", "enumerate"] + [x for flag, value in zip(("r", "n1", "s", "n2", "t"), counts)
                                      for x in (f"--{flag}", str(value))]


_ADMITTED, _REFUSED = _spec_budget_edges()


@st.composite
def _enumerate_counts(draw):
    """(r, n1, s, n2, t), each at or next to an edge of its bound: r and s from -1
    to one past n1 and n2, t from 0 to one past n1 + 2 n2."""
    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    r = draw(st.sampled_from([-1, 0, n1, n1 + 1]))
    s = draw(st.sampled_from([-1, 0, n2, n2 + 1]))
    t = draw(st.sampled_from([0, 1, n1 + 2 * n2, n1 + 2 * n2 + 1]))
    return r, n1, s, n2, t


@settings(max_examples=40, deadline=None, derandomize=True)
@given(counts=_enumerate_counts())
@example(counts=_ADMITTED)  # the largest admitted count, built in about a second
@example(counts=_REFUSED)
@example(counts=(0, 0, 0, 0, 1))  # t above n1 + 2 n2
def test_exotic_enumerate_exits_cleanly(counts):
    _outcome(_enumerate_argv(counts))


def _subcommands(parser):
    """The parsers of ``parser``'s subcommands, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# each `verify` suite's flags as its parser declares them, --json and --quiet aside
_VERIFY_FLAGS = {what: tuple(a.dest for a in suite._actions
                             if a.option_strings and a.dest not in ("help", "json", "quiet"))
                 for what, suite in _subcommands(_subcommands(build_parser())["verify"]).items()}
_FLAG_VALUES = {"group": st.sampled_from(FAMILY_CHOICES + ["xx"]), "n": st.integers(-1, 6),
                "trials": st.integers(0, 3), "seed": st.integers(-1, 3)}


@st.composite
def _verify_argvs(draw):
    """``verify <suite>`` with a random subset of its flags, each near its edges."""
    what = draw(st.sampled_from(sorted(_VERIFY_FLAGS)))
    argv = ["verify", what]
    for flag in _VERIFY_FLAGS[what]:
        if draw(st.booleans()):
            argv += [f"--{flag}", str(draw(_FLAG_VALUES[flag]))]
    return argv


@settings(max_examples=40, deadline=None, derandomize=True)
@given(argv=_verify_argvs())
@example(argv=["verify", "defect", "--group", "gl"])  # a family the suite does not take
@example(argv=["verify", "bracket", "--group", "g2", "--n", "2"])
@example(argv=["verify", "all", "--trials", "0", "--seed", "-1"])
def test_verify_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and err.getvalue().endswith("\n")
        assert [line for line in lines if "error: " in line] == lines[-1:]
        # a handler's refusal is its one line; argparse prints its usage first
        assert lines[0].startswith("usage: " if len(lines) > 1 else "error: ")
