"""Command-line front end.

One parser per command (each ``verify`` suite and ``all``, each ``exotic``
action, ``bracket``) declares exactly the flags its handler reads; argparse
refuses any other flag or abbreviation with exit 2.  ``--json``/``--quiet``
go before or after the command.  Checks run at their library tolerances.

Exit codes: 0 all checks passed, 1 at least one check failed (reports still
emitted; under ``verify all`` this includes a suite that raised), 2 usage or
input error, a refused request or a numeric kernel failure.  Handlers refuse
by raising; ``run`` alone prints the one ``error: <reason>`` line.  Every
report goes through ``_Emitter``: one JSON object per line with ``--json``,
else a table line, and under ``--quiet`` only failing reports.  Identical
argv + seed give identical report bodies; ``elapsed_ms`` is wall-clock noise
outside the deterministic portion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path

from . import casimir as _casimir
from . import goldman as _goldman
from . import observables as _obs
from . import symbolic as _sym
from .bases import Family, build_basis, check_int, check_normalization, check_size, matrix_side
from .linalg import NumericError
from .octonions import conjugation_residual, structure_residual
from .reports import CheckRun, VerificationReport

FAMILY_CHOICES = [f.value for f in Family]
_CONJUGATION_TOL = 1e-8  # absolute, on octonions.conjugation_residual


# Size grids for `verify all`; chosen to cover every family quickly.
ALL_GRID = {
    Family.GL: (2, 3), Family.U: (2, 3), Family.SL: (2, 3), Family.SU: (2, 3),
    Family.SP: (1, 2), Family.SO: (3, 5), Family.G2: (1,),
}


class _Emitter:
    """Prints each report (under ``--quiet`` only a failing one); tracks the exit code."""

    def __init__(self, args):
        self.as_json, self.quiet = args.json, args.quiet
        self.all_passed = True

    def emit(self, report: VerificationReport):
        self.all_passed = self.all_passed and report.passed
        if not (self.quiet and report.passed):
            print(report.to_json() if self.as_json else report.summary_line())

    def exit_code(self) -> int:
        return 0 if self.all_passed else 1


def _per_size(check, families=tuple(Family), grid=ALL_GRID, draws=None):
    """Suite running ``check(family, size, **flags)`` on the given ``--group`` (or all
    of ``families``, its choices) at the given ``--n`` (or the ``grid`` sizes).
    A size some family of the sweep does not take is refused before any check runs.
    ``draws`` is the ``goldman.SampledCheck`` whose draws the suite declares."""
    def cells(group=None, n=None):
        return [(fam, check_size(fam, size))
                for fam in (families if group is None else [Family(group)])
                for size in ((n,) if n is not None else grid[fam])]

    def suite(group=None, n=None, **flags):
        for fam, size in cells(group, n):
            yield check(fam, size, **flags)
    suite.groups = [f.value for f in families]
    if draws is not None:
        suite.draws = lambda group=None, n=None, trials=1, seed=0: [
            draws.draw(*cell, seed, trials) for cell in cells(group, n)]
    return suite


_CONJUGATION = _goldman.SampledCheck("octonion-conjugation", ((),), _CONJUGATION_TOL, False,
                                     lambda _, n, operands: (conjugation_residual(*operands), None))
_conjugation = _per_size(lambda *a, **kw: _goldman.run_check(_CONJUGATION, *a, **kw),
                         families=(Family.G2,), draws=_CONJUGATION)


def _octonion(trials, seed):
    with CheckRun("octonion-structure", trials=49) as run:
        structural = structure_residual()  # runs unit_matrices' rebuild self-test first
        run.record(passed=structural == 0.0, max_abs_err=structural)
    yield run.report
    yield from _conjugation(trials=trials, seed=seed)


_octonion.draws = _conjugation.draws


_EXOTIC_GAUGES = 10  # gauges per spec in `verify exotic`; `exotic invariance` takes --trials


def _exotic(seed):
    for spec in (
        _obs.ObservableSpec.make(1, 1, 0, 0, 1, [[1]], []),
        _obs.ObservableSpec.make(2, 2, 0, 1, 2, [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    ):
        inst = _obs.random_instance(spec, seed=seed)
        yield _obs.invariance_test(inst, trials=_EXOTIC_GAUGES, seed=seed)


def _symbolic(seed):
    with CheckRun("symbolic-worked-example") as run:
        diff = _sym.reproduce_examples()
        run.record(passed=diff.passed, max_abs_err=0.0 if diff.passed else 1.0,
                   params={"terms": diff.term_count})
    yield run.report
    expr = _sym.bracket(_sym.parse_expr("tr(a)"), _sym.parse_expr("tr(b)"))
    yield _sym.closure_check(expr, seed=seed).report


# Every suite of `verify`, in the order `verify all` runs them, with the flags
# it takes as keywords (under `all`, only --trials and --seed).  Checks are
# looked up when called, so rebinding one in its module takes effect here.
_GROUP_N, _TRIALS_SEED = ("group", "n"), ("trials", "seed")
VERIFY_SUITES = {
    "normalization": (_per_size(lambda *a: check_normalization(build_basis(*a))), _GROUP_N),
    "casimir": (_per_size(lambda *a: _casimir.verify_closed_form(*a)), _GROUP_N),
    "tensor-lemmas": (lambda seed: (
        _casimir.verify_tensor_lemmas(size, seed=seed) for size in (2, 3, 4)), ("seed",)),
    "bracket": (_per_size(lambda *a, **kw: _goldman.verify_bracket(*a, **kw),
                          draws=_goldman.BRACKET_CHECK), _GROUP_N + _TRIALS_SEED),
    "defect": (_per_size(lambda *a, **kw: _goldman.verify_defect(*a, **kw),
                         families=(Family.SP, Family.SO), draws=_goldman.DEFECT_CHECK),
               _GROUP_N + _TRIALS_SEED),
    "symplectic-inverse": (_per_size(
        lambda _, n, **kw: _goldman.verify_symplectic_inverse(n, **kw), families=(Family.SP,),
        grid={Family.SP: (1, 2, 3)}, draws=_goldman.SYMPLECTIC_INVERSE_CHECK),
        ("n",) + _TRIALS_SEED),
    "octonion": (_octonion, _TRIALS_SEED),
    "split": (_per_size(lambda *a, **kw: _goldman.split_harness(*a, **kw),
                        draws=_goldman.SPLIT_CHECK), _GROUP_N + ("seed",)),
    "exotic": (_exotic, ("seed",)),
    "symbolic": (_symbolic, ("seed",)),
}


# Largest trials x side^4, summed over the draws that the suites taking
# --trials (bracket, defect, symplectic-inverse, octonion) declare, that one
# `verify` would run; a bracket or defect trial contracts a pair with a
# d^2 x d^2 tensor.  `verify all --trials 100000` needs 8.7e8 and runs in
# about 12 s on 2 vCPUs with one BLAS thread.
_VERIFY_WORK = 10 ** 9


def _check_work(runs, args) -> list:
    """The runs' declared ``goldman.Draw`` requests; ValueError if their work is too much."""
    declared = [(draw, "trials" in flags) for _, suite, flags in runs if hasattr(suite, "draws")
                for draw in suite.draws(**{f: getattr(args, f) for f in flags})]
    work = sum(max(rows for _, rows in draw.streams) * matrix_side(draw.family, draw.n) ** 4
               for draw, priced in declared if priced)
    if work > _VERIFY_WORK:
        raise ValueError(f"--trials {args.trials} needs {work:.3g} trials x side^4 over the "
                         f"requested cells, over the budget of {_VERIFY_WORK:.0e}")
    return [draw for draw, _ in declared]


def cmd_verify(args) -> int:
    """Run one suite, or with ``all`` every suite over its full grid.

    A negative ``--seed``, a ``--trials`` below 1, and declared draws over
    ``_VERIFY_WORK`` or the sampling budget are refused before the first
    suite runs; the draws are then drawn up front in one ``goldman.draw_scope``.
    Under ``all``, a suite that raises is reported as a failing ``suite-error``
    report naming it, the error and the line that raised it, and the next
    suite runs; the exit code is then 1, as for any failed check.
    """
    check_int(getattr(args, "seed", 0), "seed", 0)
    check_int(getattr(args, "trials", 1), "trials", 1)
    em = _Emitter(args)
    runs = ([(name, suite, [f for f in flags if f in _TRIALS_SEED])
             for name, (suite, flags) in VERIFY_SUITES.items()]
            if args.what == "all" else [(args.what, *VERIFY_SUITES[args.what])])
    with _goldman.draw_scope(_check_work(runs, args)):
        for name, suite, flags in runs:
            try:
                for report in suite(**{flag: getattr(args, flag) for flag in flags}):
                    em.emit(report)
            except Exception as exc:
                if args.what != "all":
                    raise
                where = traceback.extract_tb(exc.__traceback__)[-1]
                em.emit(VerificationReport("suite-error", passed=False, params={
                    "suite": name, "error": f"{type(exc).__name__}: {exc}",
                    "at": f"{Path(where.filename).name}:{where.lineno} in {where.name}"}))
    return em.exit_code()


def _load_spec(path: str):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise ValueError(f"malformed JSON in {path}: {exc}") from None
    return obj, _obs.spec_from_json_dict(obj)


def _load_instance(path: str, seed: int):
    """The instance a spec file embeds, or else one sampled from ``seed``."""
    obj, spec = _load_spec(path)
    if "monodromies" not in obj:
        return _obs.random_instance(spec, seed=seed)
    return _obs.instance_from_json_dict(obj)


def cmd_validate(args) -> int:
    errors = _obs.validate_spec(_load_spec(args.spec)[1])
    for err in errors:
        print(err)
    if not errors and not args.quiet:
        print("ok")
    return 0 if not errors else 1


def cmd_enumerate(args) -> int:
    counts = (args.r, args.n1, args.s, args.n2, args.t)
    specs = _obs.enumerate_specs(*counts)
    expect = _obs.spec_count(*counts)
    if args.json:
        for spec in specs:
            print(json.dumps(_obs.spec_to_json_dict(spec), sort_keys=True))
    print(f"{len(specs)} specs (closed form {expect})", file=sys.stderr)
    return 0 if len(specs) == expect else 1


def cmd_evaluate(args) -> int:
    value = _obs.evaluate(_load_instance(args.spec, args.seed))
    print(json.dumps({"value": value}) if args.json else f"value = {value:.12g}")
    return 0


def cmd_invariance(args) -> int:
    em = _Emitter(args)
    inst = _load_instance(args.spec, args.seed)
    em.emit(_obs.invariance_test(inst, trials=args.trials, seed=args.seed))
    return em.exit_code()


# Every `exotic` action with its handler and the flags it takes.
EXOTIC_ACTIONS = {
    "validate": (cmd_validate, ("spec",)),
    "enumerate": (cmd_enumerate, ("r", "n1", "s", "n2", "t")),
    "evaluate": (cmd_evaluate, ("spec", "seed")),
    "invariance": (cmd_invariance, ("spec", "trials", "seed")),
}


def cmd_bracket(args) -> int:
    result = _sym.bracket(_sym.parse_expr(args.lhs), _sym.parse_expr(args.rhs))
    # bracket output is normalized already; closure_check recognizes it too
    closure = _sym.closure_check(result, seed=args.seed) if args.check_closure else None
    signatures = (closure.signatures if closure is not None
                  else [_sym.recognize(m) for m in result.monomials])
    if args.json:
        print(_sym.to_json(result, [s.as_dict() for s in signatures]))
    else:
        for m, sig in zip(result.monomials, signatures):
            print(m)
            if sig.valid and sig.fspec is not None:
                f = sig.fspec
                print(f"    F(r={f.r}, n1={f.n1}, s={f.s}, n2={f.n2}, t={f.t})")
            elif not sig.valid:
                print(f"    unrecognized: {sig.reason}")
    em = _Emitter(args)
    if closure is not None:
        em.emit(closure.report)
        for _, why in closure.failures:
            print(f"closure failure: {why}", file=sys.stderr)
    return em.exit_code()


def _add_global_flags(parser, default):
    """--json and --quiet; a command's copies (SUPPRESS) override only if given."""
    parser.add_argument("--json", action="store_true", default=default,
                        help="newline-delimited JSON reports")
    parser.add_argument("--quiet", action="store_true", default=default,
                        help="suppress passing output")


def _command(sub, name, flags=(), trials=100, groups=FAMILY_CHOICES, **kwargs):
    """The parser of one command: the global flags plus exactly ``flags``."""
    parser = sub.add_parser(name, allow_abbrev=False, **kwargs)
    _add_global_flags(parser, argparse.SUPPRESS)
    for flag in flags:
        if flag == "group":
            parser.add_argument("--group", choices=groups)
        elif flag == "spec":
            parser.add_argument("--spec", required=True, help="observable spec JSON file")
        elif flag == "t":
            parser.add_argument("--t", type=int, required=True, help="number of word traces")
        else:
            parser.add_argument(f"--{flag}", type=int,
                                default={"trials": trials, "n": None}.get(flag, 0))
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldmankit",
        description="Verify trace-bracket identities and work with exotic observables.",
        allow_abbrev=False,
    )
    _add_global_flags(parser, False)
    commands = parser.add_subparsers(dest="command", required=True)

    p_verify = _command(commands, "verify", help="run a verification suite")
    p_verify.set_defaults(func=cmd_verify)
    suites = p_verify.add_subparsers(dest="what", required=True)
    _command(suites, "all", _TRIALS_SEED, help="every suite over its full size grid")
    for what, (suite, flags) in VERIFY_SUITES.items():
        _command(suites, what, flags, groups=getattr(suite, "groups", None))

    p_exotic = _command(commands, "exotic", help="exotic-observable tools")
    actions = p_exotic.add_subparsers(dest="action", required=True)
    for action, (func, flags) in EXOTIC_ACTIONS.items():
        _command(actions, action, flags, trials=50).set_defaults(func=func)

    p_bracket = _command(commands, "bracket", help="symbolic bracket of two expressions")
    p_bracket.add_argument("--lhs", required=True)
    p_bracket.add_argument("--rhs", required=True)
    p_bracket.add_argument("--check-closure", action="store_true")
    p_bracket.add_argument("--seed", type=int, default=0)
    p_bracket.set_defaults(func=cmd_bracket)
    return parser


# Building the parser tree takes a few milliseconds; do it once per process.
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
