"""Span tracing of entmono's public functions, installed from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper that
records one span (name, start, end, parent, qubit count) per call, and
``Tracer.uninstall`` puts the originals back. Because ``from .x import y``
binds the same function object under several module attributes, every
``entmono.*`` module attribute that holds the original is replaced, not only
the defining one. Tiny helpers such as ``num_qubits_of`` are left alone: the
wrapper costs about a microsecond, which would swamp them.

Spans stay in memory while operations run. ``fold`` turns them into
per-(function, qubit count) totals of calls, self time (span minus the time
its traced children cover) and inclusive time.
"""

import functools
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute path inside that module)
TRACED = (
    ("states.SeededSampler.rng", "entmono.states", "SeededSampler.rng"),
    ("states.haar_random_pure", "entmono.states", "haar_random_pure"),
    ("linalg.reduced_state", "entmono.linalg", "reduced_state"),
    ("linalg.as_state_vector", "entmono.linalg", "as_state_vector"),
    ("measures.wootters_concurrence", "entmono.measures", "wootters_concurrence"),
    ("measures.concurrence_pure", "entmono.measures", "concurrence_pure"),
    ("measures.eof_pure", "entmono.measures", "eof_pure"),
    ("measures.eof_from_squared_concurrence", "entmono.measures",
     "eof_from_squared_concurrence"),
    ("monogamy.profile", "entmono.monogamy", "profile"),
    ("monogamy.evaluate", "entmono.monogamy", "evaluate"),
    ("monogamy.residual_sweep", "entmono.monogamy", "residual_sweep"),
    ("harness.run_campaign", "entmono.harness", "run_campaign"),
    ("harness.to_json", "entmono.harness", "CampaignResult.to_json"),
    ("harness.load_state_file", "entmono.harness", "load_state_file"),
    ("harness.main", "entmono.harness", "main"),
)

# A call of this function starts a new campaign sample; its first argument is
# the qubit count that the sample's later spans are attributed to.
SAMPLE_START = "states.haar_random_pure"


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._qubits = None
        self._restore = []

    def install(self) -> None:
        self.missing = []
        for name, module_name, path in TRACED:
            original = _lookup(module_name, path)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: patch the class every module shares
                owner = _lookup(module_name, owner_path)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _entmono_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take_spans(self) -> list:
        spans, self.spans = self.spans, []
        self._qubits = None
        return spans

    def _wrap(self, name: str, fn):
        tracer, stack, clock = self, self._stack, time.perf_counter_ns
        starts_sample = name == SAMPLE_START

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_sample:
                tracer._qubits = int(args[0])
            qubits = tracer._qubits
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, qubits)

        return traced


def fold(spans, totals=None):
    """Add spans into ``totals[(name, qubits)] = [calls, self_ns, total_ns]``."""
    if totals is None:
        totals = defaultdict(lambda: [0, 0, 0])
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for index, (name, start, end, _, qubits) in enumerate(spans):
        entry = totals[(name, qubits)]
        entry[0] += 1
        entry[1] += end - start - child_ns[index]
        entry[2] += end - start
    return totals


def call_counts(spans) -> dict:
    """Exact calls per (name, qubit count); two runs of one input must agree."""
    counts = defaultdict(int)
    for name, _, _, _, qubits in spans:
        counts[(name, qubits)] += 1
    return dict(counts)


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\tqubits\n")
        for index, (name, start, end, parent, qubits) in enumerate(spans):
            fh.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\t{qubits}\n")


def _entmono_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "entmono" or key.startswith("entmono."))]


def _lookup(module_name: str, path: str):
    obj = sys.modules.get(module_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj
