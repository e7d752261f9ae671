"""Traced runs: spans and counters recorded around the package's public
functions, from outside the package.

`Tracer.install` replaces each target function, in every loaded
``trijunction`` module that holds it and on its class for methods, by a
wrapper that records one span (name, start, end, parent span, op id) and adds
the call's problem sizes to counters. Everything stays in memory until
`Tracer.dump`. `Tracer.uninstall` restores the originals.
"""

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.sparse.linalg as spla


def _rows(x):
    return np.atleast_2d(np.asarray(x)).shape[0]


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _rhs_cols(args, kwargs):
    rhs = _arg(args, kwargs, 3, "rhs")
    return rhs.shape[1] if rhs is not None and np.ndim(rhs) == 2 else 1


# (span name, module, attribute path, reported stats, size function). The size
# function maps (args, kwargs, result) to {stat: amount}. Spans whose stats are
# empty are not reported; they keep their callee time out of their callers'
# self time.
TARGETS = [
    ("curves.project", "curves", "ParamCurve.project", ("calls", "points", "self_s"),
     lambda a, k, r: {"points": _rows(_arg(a, k, 1, "x"))}),
    ("curves.from_samples", "curves", "ParamCurve.from_samples", ("calls", "self_s"), None),
    ("fields.rk4_flow", "fields", "rk4_flow", ("calls", "points", "self_s"),
     lambda a, k, r: {"points": _rows(_arg(a, k, 1, "P"))}),
    ("config.load_config", "config", "load_config", ("self_s",), None),
    ("config.transported_config", "config", "transported_config", ("calls",), None),
    ("crackmesh.generate_crack_mesh", "crackmesh", "generate_crack_mesh",
     ("self_s", "nodes"), lambda a, k, r: {"nodes": r.n_nodes}),
    ("crackmesh.mark_admissible_subdomain", "crackmesh", "mark_admissible_subdomain",
     ("self_s", "nodes"), lambda a, k, r: {"nodes": r.n_nodes}),
    ("crackmesh.morph", "crackmesh", "CrackMesh.morph", ("calls", "self_s"), None),
    ("fem.Operator", "fem", "Operator.__init__", ("calls", "self_s", "nnz"),
     lambda a, k, r: {"nnz": a[0].A.nnz}),
    ("fem.solve_pinned", "fem", "Operator.solve_pinned", ("calls", "rhs_cols", "self_s"),
     lambda a, k, r: {"rhs_cols": _rhs_cols(a, k)}),
    ("fem.CrackLoadAssembler", "fem", "CrackLoadAssembler.__init__", ("self_s",), None),
    ("fem.CrackLoadAssembler", "fem", "CrackLoadAssembler.rhs", (), None),
    ("fem.solve_transported", "fem", "solve_transported", ("calls", "self_s"), None),
    ("fem.refine_uniform", "fem", "refine_uniform", ("self_s", "nodes"),
     lambda a, k, r: {"nodes": r.n_nodes}),
    ("fem.prolong", "fem", "prolong", ("self_s",), None),
    ("fem.solve_equilibrium", "fem", "solve_equilibrium", (), None),
    ("hspace.junction_basis", "hspace", "junction_basis", ("self_s", "dim"),
     lambda a, k, r: {"dim": len(r)}),
    ("variation.first_variation", "variation", "first_variation", ("calls", "self_s"), None),
    ("variation.second_variation", "variation", "second_variation", ("calls", "self_s"), None),
    ("variation.criticality_residual", "variation", "criticality_residual", ("self_s",), None),
    ("variation.ms_energy", "variation", "ms_energy", (), None),
    ("stability.analyze_stability", "stability", "analyze_stability", (), None),
    ("stability.assemble_stability_problem", "stability", "assemble_stability_problem",
     ("calls", "self_s", "dim"), lambda a, k, r: {"dim": r[0].shape[0]}),
    ("stability.stability_verdict", "stability", "stability_verdict", ("self_s",), None),
    ("stability.tubular_stability_check", "stability", "tubular_stability_check",
     ("self_s",), None),
    ("stability.oracle_1d", "stability", "oracle_1d", ("self_s", "dim"),
     lambda a, k, r: {"dim": 3 * _arg(a, k, 1, "m", 1500) - 1}),
    ("flows.energy_at_map", "flows", "energy_at_map", ("calls", "self_s"), None),
    ("flows.build_test_field", "flows", "build_test_field", ("calls", "self_s"), None),
    ("flows.perturbation_catalog", "flows", "perturbation_catalog", ("self_s",), None),
    ("identities.canonical_identity_suite", "identities", "canonical_identity_suite",
     ("self_s",), None),
    ("cli.run_scenario", "cli", "run_scenario", ("calls",), None),
]

# Metrics derived from spans and counters rather than read off one target.
DERIVED = ("fem.factorizations", "fem.solves_per_factorization",
           "flows.energy_at_map.remesh_fallbacks", "cli.self_s", "trace.overhead_s")


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name, _, _, stats, _ in TARGETS:
        names += ["%s.%s" % (name, s) for s in stats]
    return names + list(DERIVED)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = defaultdict(float)
        self.op = "setup"
        self.overhead_s = 0.0
        self._undo = []

    # ------------------------------------------------------------ wrappers
    def _span(self, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = t_out = perf_counter()
                tracer.stack.pop()
            tracer.counts[name + ".calls"] += 1
            if size is not None:
                for stat, v in size(args, kwargs, out).items():
                    tracer.counts["%s.%s" % (name, stat)] += v
            tracer.overhead_s += (rec[1] - t_in) + (perf_counter() - t_out)
            return out
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for name, modname, path, _, size in TARGETS:
            mod = sys.modules["trijunction." + modname]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._replace(cls, meth, classmethod(self._span(name, raw.__func__, size)))
                else:
                    self._replace(cls, meth, self._span(name, raw, size))
                continue
            orig = getattr(mod, path)
            wrapped = self._span(name, orig, size)
            for other in [m for k, m in sys.modules.items()
                          if k == "trijunction" or k.startswith("trijunction.")]:
                for attr, val in list(vars(other).items()):
                    if val is orig:
                        self._replace(other, attr, wrapped)
        # fem factorizes through scipy.sparse.linalg.splu
        self._replace(spla, "splu", self._counter("fem.factorizations", spla.splu))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # ------------------------------------------------------------ results
    def self_times(self):
        child = np.zeros(len(self.spans))
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return out

    def metrics(self):
        selfs = self.self_times()
        values = {}
        for name, _, _, stats, _ in TARGETS:
            for s in stats:
                key = "%s.%s" % (name, s)
                values[key] = selfs[name] if s == "self_s" else self.counts[key]
        fact = self.counts["fem.factorizations"]
        values["fem.factorizations"] = fact
        values["fem.solves_per_factorization"] = (
            self.counts["fem.solve_pinned.calls"] / fact if fact else 0.0)
        values["flows.energy_at_map.remesh_fallbacks"] = float(sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "crackmesh.generate_crack_mesh" and parent >= 0
            and self.spans[parent][0] == "flows.energy_at_map"))
        values["cli.self_s"] = selfs["cli.run_scenario"]
        values["trace.overhead_s"] = self.overhead_s
        return values

    def dump(self, path, t_origin):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": [[n, t0 - t_origin, t1 - t_origin, p, op]
                                 for n, t0, t1, p, op in self.spans],
                       "counters": dict(self.counts)}, f)
