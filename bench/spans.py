"""Spans around calls into ccl's public functions, recorded from outside
the package.

:meth:`Tracer.install` replaces every public module-level function of the
ccl modules with a wrapper that records one span per call, and re-binds
that wrapper in every ccl module that holds the function: ``from .x import
f`` copies the binding, so ``evolve_ca`` is wrapped in ``ccl.automaton``,
``ccl.complexity``, ``ccl.transition`` and the package namespace alike.
Nothing inside ``src/ccl`` is edited; :meth:`Tracer.uninstall` puts every
original binding back.

``ccl.cli`` is not wrapped: the benchmark calls ``ccl.cli.main`` itself, so
a job is the root of its span tree and the job time no span covers is the
CLI's own (config handling, glue, file writes).  ``deflate`` is not wrapped
either: ``compressed_length`` is ``len(deflate(...))``, and wrapping both
would split the one DEFLATE layer across two spans.

Each span records name, start, end, parent span and job id in parallel
arrays kept in memory for the whole run.  A span's self time is its
duration minus the time of its child spans.  Spans have one stack, so
traced jobs run at ``--threads 1``.
"""

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "ccl"
ROOT_MODULE = "ccl.cli"
UNWRAPPED = {"ccl.complexity.deflate"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _svg_bytes(args, kwargs, out):
    return (("bytes_out", len(out.encode())),)


# Exact work counts taken at the boundary of a span: (counter, amount)
# pairs computed from the call's arguments and result.
COUNTERS = {
    "automaton.evolve_ca":
        lambda a, k, out: (("cells", int(out.cells.size)),),
    "automaton.reached_states_sequence":
        lambda a, k, out: (("steps", len(out) - 1),),
    "complexity.compressed_length":
        lambda a, k, out: (("bytes_in", len(_arg(a, k, 0, "data"))),
                           ("bytes_out", out)),
    "complexity.encode_diagram":
        lambda a, k, out: (("bytes_out", len(out)),),
    "complexity.encode_sequence":
        lambda a, k, out: (("bytes_out", len(out)),),
}


class Tracer:
    """Span recorder for ccl's public functions; see the module docstring."""

    def __init__(self):
        self.names = []
        self.name_of = array("l")
        self.parent = array("l")
        self.job_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.job = -1
        self._job_first = 0
        self._counts = Counter()
        self._stack = []
        self._undo = []

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for module in modules:
            for key, fn in list(vars(module).items()):
                if key.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__
                qualified = f"{home}.{fn.__name__}"
                if (not home.startswith(PACKAGE + ".") or home == ROOT_MODULE
                        or qualified in UNWRAPPED):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, qualified[len(PACKAGE) + 1:])
                self._undo.append((module, key, fn))
                setattr(module, key, wrappers[fn])

    def uninstall(self):
        while self._undo:
            module, key, fn = self._undo.pop()
            setattr(module, key, fn)

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("svgplot."):
            counter = _svg_bytes
        name_of, parent, job_of = self.name_of, self.parent, self.job_of
        start, end, child = self.start, self.end, self.child
        stack, counts = self._stack, self._counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t = perf_counter()
                stack.pop()
                end[idx] = t
                if parent[idx] >= 0:
                    child[parent[idx]] += t - start[idx]
            if counter is not None:
                for key, amount in counter(args, kwargs, out):
                    counts[f"{name}.{key}"] += amount
            return out

        return span

    def begin_job(self):
        self.job += 1
        self._job_first = len(self.start)
        self._counts.clear()

    def end_job(self, wall):
        """Per-layer metrics of the job just run, which took ``wall``
        seconds.  Keys ending in ``.calls`` or in a counter name are exact
        counts; the rest are seconds or ratios."""
        calls = Counter()
        self_s = defaultdict(float)
        covered = 0.0
        for i in range(self._job_first, len(self.start)):
            name = self.names[self.name_of[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += duration - self.child[i]
            if self.parent[i] < 0:
                covered += duration
        m = defaultdict(float, self._counts)
        for name in calls:
            module = name.split(".")[0]
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
            m[f"{module}.self_s"] += self_s[name]
        m["automaton.evolve_ca.mcells_per_s"] = _rate(
            m["automaton.evolve_ca.cells"] / 1e6,
            m["automaton.evolve_ca.self_s"])
        m["complexity.compressed_length.mb_in_per_s"] = _rate(
            m["complexity.compressed_length.bytes_in"] / 1e6,
            m["complexity.compressed_length.self_s"])
        m["complexity.deflate_bytes_per_encoded_byte"] = _rate(
            m["complexity.compressed_length.bytes_in"],
            m["complexity.encode_diagram.bytes_out"]
            + m["complexity.encode_sequence.bytes_out"])
        m["svgplot.bytes_out"] = sum(
            v for k, v in self._counts.items() if k.startswith("svgplot."))
        m["cli.self_s"] = wall - covered
        m["trace.coverage"] = _rate(covered, wall)
        return dict(m)


def _rate(num, den):
    return num / den if den else 0.0
