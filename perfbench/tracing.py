"""Per-layer spans recorded from outside goldmankit.

``Tracer.install`` replaces each listed public function by a wrapper in
every goldmankit module namespace that binds it, so calls made through
``from .x import f`` are caught as well as calls through the defining
module.  Spans (function, start, end, parent, phase) stay in memory; the
per-layer metrics are derived from them when the run ends, and the spans
can be written out as a gzip'd JSON file.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (module path under goldmankit, function name)
TRACED = (
    ("bases", "build_basis"),
    ("casimir", "casimir_tensor"),
    ("casimir", "closed_form"),
    ("linalg", "mat_exp"),
    ("linalg", "kron"),
    ("goldman", "sample_element"),
    ("goldman", "membership_residual"),
    ("goldman", "bracket_sides"),
    ("goldman", "verify_bracket"),
    ("goldman", "verify_defect"),
    ("goldman", "verify_symplectic_inverse"),
    ("octonions", "automorphism_residual"),
    ("octonions", "conjugation_residual"),
    ("observables", "evaluate"),
    ("observables", "word_trace_table"),
    ("observables", "invariance_test"),
    ("observables", "validate_spec"),
    ("observables", "enumerate_specs"),
    ("symbolic.parse", "parse_expr"),
    ("symbolic.bracket", "bracket"),
    ("symbolic.core", "normalize"),
    ("symbolic.core", "canonical_encoding"),
    ("symbolic.signature", "recognize"),
    ("symbolic.closure", "instantiate"),
    ("symbolic.closure", "evaluate_monomial"),
    ("symbolic.closure", "closure_check"),
    ("cli", "run"),
)

# Computed bytes of the dense arrays a call builds, from its arguments or result.
_BYTES = {
    "casimir.casimir_tensor": lambda args, kwargs, result: result.tensor.size * 8,
    "observables.word_trace_table": lambda args, kwargs, result: (
        7 ** (args[1] if len(args) > 1 else kwargs["length"]) * 49 * 8
    ),
}

SETUP, ROUNDS = 0, 1  # span phases


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.spans = []        # [fid, start, end, parent, phase]
        self.bytes = {}        # (name, phase) -> computed bytes
        self.stack = []
        self.phase = None      # SETUP, ROUNDS, or None: not recording

    def install(self):
        """Wrap every listed function in every goldmankit namespace binding it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "goldmankit" or name.startswith("goldmankit.")]
        for fid, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"goldmankit.{mod}"], fn)
            wrapper = self._wrap(fid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, fid: int, fn):
        spans, stack = self.spans, self.stack
        name = self.names[fid]
        count_bytes = _BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, phase]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_bytes is not None:
                key = (name, phase)
                self.bytes[key] = self.bytes.get(key, 0) + count_bytes(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names,
                       "fields": ["fid", "start", "end", "parent", "phase"],
                       "phases": ["setup", "rounds"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, rounds: int) -> tuple[dict, dict]:
        """Per-layer metrics for one setup plus one round, and self-time sums.

        Round-phase totals are divided by the number of rounds; every round
        runs the same operations, so call counts stay whole numbers.
        """
        n = len(self.names)
        fid_of = {name: k for k, name in enumerate(self.names)}
        calls = [[0, 0] for _ in range(n)]
        self_s = [[0.0, 0.0] for _ in range(n)]
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (fid, start, end, parent, phase) in enumerate(self.spans):
            calls[fid][phase] += 1
            self_s[fid][phase] += (end - start) - child[k]

        def under(target: str, ancestor: str):
            """Spans of ``target`` with an ``ancestor`` span above them, per phase."""
            t, a = fid_of[target], fid_of[ancestor]
            out = [0, 0]
            for fid, _s, _e, parent, phase in self.spans:
                if fid != t:
                    continue
                while parent >= 0 and self.spans[parent][0] != a:
                    parent = self.spans[parent][3]
                if parent >= 0:
                    out[phase] += 1
            return out

        def per_exec(pair):
            total = pair[SETUP] + pair[ROUNDS] / rounds
            return int(total) if float(total).is_integer() else total

        m = {}

        def put(metric, pair, unit):
            m[metric] = {"value": per_exec(pair), "unit": unit}

        def c(name):
            return calls[fid_of[name]]

        def s(name):
            return self_s[fid_of[name]]

        def b(name):
            return [self.bytes.get((name, ph), 0) for ph in (SETUP, ROUNDS)]

        def add(*pairs):
            return [sum(p[ph] for p in pairs) for ph in (SETUP, ROUNDS)]

        for name, with_calls in (
            ("bases.build_basis", True),
            ("casimir.casimir_tensor", True),
            ("casimir.closed_form", False),
            ("linalg.mat_exp", True),
            ("linalg.kron", True),
            ("goldman.sample_element", True),
            ("goldman.membership_residual", False),
            ("goldman.bracket_sides", True),
            ("octonions.automorphism_residual", True),
            ("octonions.conjugation_residual", False),
            ("observables.evaluate", True),
            ("observables.word_trace_table", True),
            ("observables.invariance_test", False),
            ("observables.validate_spec", True),
            ("observables.enumerate_specs", False),
            ("symbolic.parse.parse_expr", True),
            ("symbolic.bracket.bracket", True),
            ("symbolic.core.normalize", True),
            ("symbolic.core.canonical_encoding", True),
            ("symbolic.signature.recognize", True),
            ("symbolic.closure.instantiate", False),
            ("symbolic.closure.evaluate_monomial", True),
            ("symbolic.closure.closure_check", False),
            ("cli.run", False),
        ):
            if with_calls:
                put(f"{name}.calls", c(name), "count")
            put(f"{name}.self_s", s(name), "s")
        put("casimir.tensor_bytes", b("casimir.casimir_tensor"), "bytes")
        put("observables.word_trace_table.bytes", b("observables.word_trace_table"), "bytes")
        put("goldman.verify.self_s", add(s("goldman.verify_bracket"),
                                         s("goldman.verify_defect"),
                                         s("goldman.verify_symplectic_inverse")), "s")
        mat_exp_under = under("linalg.mat_exp", "goldman.sample_element")
        samples = c("goldman.sample_element")
        put("goldman.resamples", [mat_exp_under[ph] - samples[ph] for ph in (SETUP, ROUNDS)],
            "count")
        splits = under("observables.validate_spec", "symbolic.signature.recognize")
        recog = c("symbolic.signature.recognize")
        per_exec_recog = recog[SETUP] + recog[ROUNDS] / rounds
        ratio = ((splits[SETUP] + splits[ROUNDS] / rounds) / per_exec_recog
                 if per_exec_recog else 0.0)
        m["symbolic.signature.validated_splits"] = {"value": ratio, "unit": "calls/call"}

        sums = {
            "setup": sum(p[SETUP] for p in self_s),
            "round": sum(p[ROUNDS] for p in self_s) / rounds,
        }
        return m, sums
