"""Command-line front end.

Exit codes: 0 all checks passed, 1 at least one check failed (reports still
emitted), 2 usage or input-parse error or a numeric kernel failure.  With
``--json`` each report is one JSON object per line; otherwise a
human-readable table line per check.
Identical argv + seed produce identical report bodies; the ``elapsed_ms``
field is wall-clock noise and not part of the deterministic portion.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import casimir as _casimir
from . import goldman as _goldman
from . import observables as _obs
from . import symbolic as _sym
from .bases import Family, build_basis, check_normalization
from .linalg import NumericError
from .octonions import conjugation_residual, structure_residual, unit_matrices
from .reports import CheckRun, VerificationReport

FAMILY_CHOICES = [f.value for f in Family]


def _tol(value, default):
    return default if value is None else value


def _add_global_flags(parser, top_level: bool):
    """Global flags, accepted both before and after the subcommand.

    The subcommand copies use SUPPRESS defaults so they only override the
    top-level values when given explicitly.
    """
    d = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument("--tol-abs", type=float,
                        help="override absolute tolerance (default: per-check)",
                        **({"default": None} if top_level else d))
    parser.add_argument("--tol-rel", type=float,
                        help="override relative tolerance (default: per-check)",
                        **({"default": None} if top_level else d))
    parser.add_argument("--json", action="store_true",
                        help="newline-delimited JSON reports", **d)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress passing output", **d)


# Size grids for `verify all`; chosen to cover every family quickly.
ALL_GRID = {
    Family.GL: (2, 3), Family.U: (2, 3), Family.SL: (2, 3), Family.SU: (2, 3),
    Family.SP: (1, 2), Family.SO: (3, 5), Family.G2: (1,),
}


class _Emitter:
    def __init__(self, as_json: bool, quiet: bool):
        self.as_json = as_json
        self.quiet = quiet
        self.all_passed = True

    def emit(self, report: VerificationReport):
        self.all_passed = self.all_passed and report.passed
        if self.quiet and report.passed:
            return
        if self.as_json:
            print(report.to_json())
        else:
            print(report.summary_line())

    def exit_code(self) -> int:
        return 0 if self.all_passed else 1


def _per_size(check, families=tuple(Family)):
    """Suite running ``check(family, size, args)`` over families and sizes.

    The given family (or, when it is not one of ``families``, every one of
    them) at the given size (or its ``ALL_GRID`` sizes).
    """
    def suite(family, n, args):
        for fam in [family] if family in families else families:
            for size in (n,) if n is not None else ALL_GRID[fam]:
                yield check(fam, size, args)
    return suite


def _symplectic_inverse(family, n, args):
    for size in (n,) if n is not None else (1, 2, 3):
        yield _goldman.verify_symplectic_inverse(size, trials=args.trials, seed=args.seed)


def _octonion(family, n, args):
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    with CheckRun("octonion-structure", trials=49) as run:
        unit_matrices()  # includes the rebuild self-test
        structural = structure_residual()
        run.record(passed=structural == 0.0, max_abs_err=structural)
    yield run.report
    with CheckRun("octonion-conjugation", seed=args.seed, trials=args.trials) as run:
        streams = [np.random.SeedSequence(entropy=args.seed, spawn_key=(trial,))
                   for trial in range(args.trials)]
        gs, _, _ = _goldman.sample_elements(Family.G2, 1, streams)
        worst = max(conjugation_residual(g) for g in gs)
        run.record(passed=worst < 1e-8, max_abs_err=worst)
    yield run.report


def _exotic(family, n, args):
    for spec in (
        _obs.ObservableSpec.make(1, 1, 0, 0, 1, [[1]], []),
        _obs.ObservableSpec.make(2, 2, 0, 1, 2, [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    ):
        inst = _obs.random_instance(spec, seed=args.seed)
        yield _obs.invariance_test(inst, trials=min(args.trials, 10), seed=args.seed)


def _symbolic(family, n, args):
    with CheckRun("symbolic-worked-example") as run:
        diff = _sym.reproduce_examples()
        run.record(passed=diff.passed, max_abs_err=0.0 if diff.passed else 1.0,
                   params={"terms": diff.term_count})
    yield run.report
    expr = _sym.bracket(_sym.parse_expr("tr(a)"), _sym.parse_expr("tr(b)"))
    yield _sym.closure_check(expr, seed=args.seed).report


# Every suite of `verify`, in the order `verify all` runs them.  A suite is
# called as suite(family, n, args) with family and n None for "not given".
VERIFY_SUITES = {
    "normalization": _per_size(lambda fam, size, args: check_normalization(
        build_basis(fam, size), _tol(args.tol_abs, 1e-12))),
    "casimir": _per_size(lambda fam, size, args: _casimir.verify_closed_form(
        fam, size, _tol(args.tol_abs, 1e-12))),
    "tensor-lemmas": lambda family, n, args: (
        _casimir.verify_tensor_lemmas(size, seed=args.seed) for size in (2, 3, 4)),
    "bracket": _per_size(lambda fam, size, args: _goldman.verify_bracket(
        fam, size, trials=args.trials, seed=args.seed, rel_tol=_tol(args.tol_rel, 1e-9))),
    "defect": _per_size(lambda fam, size, args: _goldman.verify_defect(
        fam, size, trials=args.trials, seed=args.seed), families=(Family.SP, Family.SO)),
    "symplectic-inverse": _symplectic_inverse,
    "octonion": _octonion,
    "split": _per_size(lambda fam, size, args: _goldman.split_harness(
        fam, size, seed=args.seed)),
    "exotic": _exotic,
    "symbolic": _symbolic,
}


def cmd_verify(args) -> int:
    """Run one suite, or with ``all`` every suite over its full grid.

    ``all`` ignores ``--group`` and ``--n``.
    """
    em = _Emitter(args.json, args.quiet)
    if args.what == "all":
        suites, family, n = VERIFY_SUITES.values(), None, None
    else:
        suites = [VERIFY_SUITES[args.what]]
        family, n = Family(args.group) if args.group else None, args.n
    for suite in suites:
        for report in suite(family, n, args):
            em.emit(report)
    return em.exit_code()


def _load_spec(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        print(f"cannot read spec file: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON in {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return obj, _obs.spec_from_json_dict(obj)
    except _obs.SpecJsonError as exc:
        print(f"bad observable spec in {path} at {exc.path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_exotic(args) -> int:
    if args.action == "enumerate":
        specs = _obs.enumerate_specs(args.r, args.n1, args.s, args.n2, args.t)
        expect = _obs.spec_count(args.r, args.n1, args.s, args.n2, args.t)
        if args.json:
            for spec in specs:
                print(json.dumps(_obs.spec_to_json_dict(spec), sort_keys=True))
        print(f"{len(specs)} specs (closed form {expect})", file=sys.stderr)
        return 0 if len(specs) == expect else 1

    obj, spec = _load_spec(args.spec)
    if args.action == "validate":
        errors = _obs.validate_spec(spec)
        for err in errors:
            print(err)
        if not errors and not args.quiet:
            print("ok")
        return 0 if not errors else 1

    if "monodromies" in obj:
        try:
            inst = _obs.instance_from_json_dict(obj)
        except _obs.SpecJsonError as exc:
            print(f"bad instance at {exc.path}: {exc}", file=sys.stderr)
            return 2
    else:
        inst = _obs.random_instance(spec, seed=args.seed)

    if args.action == "evaluate":
        value = _obs.evaluate(inst)
        print(json.dumps({"value": value}) if args.json else f"value = {value:.12g}")
        return 0
    # invariance
    report = _obs.invariance_test(inst, trials=args.trials, seed=args.seed,
                                  rel_tol=_tol(args.tol_rel, 1e-8))
    print(report.to_json() if args.json else report.summary_line())
    return 0 if report.passed else 1


def cmd_bracket(args) -> int:
    try:
        lhs = _sym.parse_expr(args.lhs)
        rhs = _sym.parse_expr(args.rhs)
    except _sym.ParseError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 2
    try:
        result = _sym.bracket(lhs, rhs)
    except _sym.BracketError as exc:
        print(f"bracket error: {exc}", file=sys.stderr)
        return 2
    result, signatures = _sym.normalize_and_recognize(result)
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
    if args.check_closure:
        res = _sym.closure_check(result, seed=args.seed)
        if not args.quiet:
            print(res.report.to_json() if args.json else res.report.summary_line())
        for mono, why in res.failures:
            print(f"closure failure: {why}", file=sys.stderr)
        return 0 if res.report.passed else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldmankit",
        description="Verify trace-bracket identities and work with exotic observables.",
        allow_abbrev=False,
    )
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("what", choices=["all", *VERIFY_SUITES])
    p_verify.add_argument("--group", choices=FAMILY_CHOICES)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    _add_global_flags(p_verify, top_level=False)
    p_verify.set_defaults(func=cmd_verify)

    p_exotic = sub.add_parser("exotic", help="exotic-observable tools")
    p_exotic.add_argument("action", choices=["validate", "enumerate", "evaluate", "invariance"])
    p_exotic.add_argument("--spec", help="observable spec JSON file")
    p_exotic.add_argument("--trials", type=int, default=50)
    p_exotic.add_argument("--seed", type=int, default=0)
    for name in ("r", "n1", "s", "n2", "t"):
        p_exotic.add_argument(f"--{name}", type=int, default=0)
    _add_global_flags(p_exotic, top_level=False)
    p_exotic.set_defaults(func=cmd_exotic)

    p_bracket = sub.add_parser("bracket", help="symbolic bracket of two expressions")
    p_bracket.add_argument("--lhs", required=True)
    p_bracket.add_argument("--rhs", required=True)
    p_bracket.add_argument("--check-closure", action="store_true")
    p_bracket.add_argument("--seed", type=int, default=0)
    _add_global_flags(p_bracket, top_level=False)
    p_bracket.set_defaults(func=cmd_bracket)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "exotic" and args.action in ("validate", "evaluate", "invariance"):
        if not args.spec:
            print("exotic: --spec FILE.json is required for this action", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
