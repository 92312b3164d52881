"""Outside-in tracer: wraps public germnf functions from outside the package.

Each wrapped call records a span (function, start, end, parent span) in
memory and adds to its function's call count, total time and self time.
The worker hands all of it to the runner after each op and starts afresh.
Self time is the span's duration minus the time of wrapped calls made inside
it.  A function's total time counts only its outermost activation, so
recursion is not counted twice.  Time spent in code that is not wrapped
counts as self time of the nearest wrapped caller, whatever module that
caller is in: the Q(i) arithmetic inside `series.mul` is `series.mul` self
time.  So the runner's `<module>.self_s`, the sum of the self times of a
module's wrapped functions, includes the unwrapped code they call.
`GaussianRational` construction is counted without a span, because it
happens millions of times.
"""

from __future__ import annotations

import sys
import time
from array import array

# (metric name, module, attribute path inside the module)
FUNCTIONS = [
    ("exactnum.factor_int", "exactnum", "factor_int"),
    ("exactnum.factor_gaussian", "exactnum", "factor_gaussian"),
    ("exactnum.LogModulusVector.sign", "exactnum", "LogModulusVector.sign"),
    ("exactnum.log_modulus", "exactnum", "log_modulus"),
    ("exactnum.principal_arg_turns", "exactnum", "principal_arg_turns"),
    ("exactnum.certified_round_to_integer", "exactnum", "certified_round_to_integer"),
    ("series.mul", "series", "TruncatedSeries.__mul__"),
    ("series.compose", "series", "TruncatedSeries.compose"),
    ("series.exp0", "series", "TruncatedSeries.exp0"),
    ("germ.invert_germ", "germ", "invert_germ"),
    ("germ.compose_germ", "germ", "compose_germ"),
    ("germ.commutativity_defect", "germ", "commutativity_defect"),
    ("germ.family_from_json", "germ", "family_from_json"),
    ("normalform.poincare_dulac_normalize", "normalform", "poincare_dulac_normalize"),
    ("normalform.complexify_real_family", "normalform", "complexify_real_family"),
    ("normalform.realify_normal_form", "normalform", "realify_normal_form"),
    ("normalform.first_integrals", "normalform", "first_integrals"),
    ("normalform.extract_integrable_certificate", "normalform", "extract_integrable_certificate"),
    ("linalg.field_kernel", "linalg", "field_kernel"),
    ("linalg.field_rref", "linalg", "field_rref"),
    ("linalg.field_inverse", "linalg", "field_inverse"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.row_hnf", "linalg", "row_hnf"),
    ("linalg.lattice_points", "linalg", "lattice_points"),
    ("linalg.rational_feasible", "linalg", "rational_feasible"),
    ("resonance.relation_lattice", "resonance", "relation_lattice"),
    ("resonance.enumerate_omega", "resonance", "enumerate_omega"),
    ("resonance.resonant_set", "resonance", "resonant_set"),
    ("classify.is_weakly_hyperbolic", "classify", "is_weakly_hyperbolic"),
    ("classify.is_hyperbolic", "classify", "is_hyperbolic"),
    ("classify.is_projectively_hyperbolic", "classify", "is_projectively_hyperbolic"),
    ("classify.weak_resonance", "classify", "weak_resonance"),
    ("classify.find_infinitesimal_generators", "classify", "find_infinitesimal_generators"),
    ("classify.normal_form_hypothesis", "classify", "normal_form_hypothesis"),
    ("classify.poincare_type_single", "classify", "poincare_type_single"),
    ("classify.is_nondegenerate", "classify", "is_nondegenerate"),
    ("cli.run", "cli", "run"),
]
MODULES = ["exactnum", "linalg", "series", "germ", "resonance", "normalform", "classify", "cli"]


class Tracer:
    """Install with `install()`; every germnf module must already be imported."""

    def __init__(self):
        self.names = [name for name, _, _ in FUNCTIONS]
        self.calls = [0] * len(FUNCTIONS)
        self.total = [0.0] * len(FUNCTIONS)
        self.self_time = [0.0] * len(FUNCTIONS)
        self.depth = [0] * len(FUNCTIONS)
        self.gr_new = 0
        self.span_base = 0
        # open spans: [span id, start, time covered by wrapped children]
        self.stack: list[list] = []
        self.span_func = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def _wrap(self, index: int, func):
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = len(tracer.span_func)
            parent = stack[-1][0] + tracer.span_base if stack else -1
            tracer.span_func.append(index)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.calls[index] += 1
            tracer.depth[index] += 1
            frame = [span, clock(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.span_start[span] = frame[1]
                tracer.span_end[span] = end
                tracer.self_time[index] += duration - frame[2]
                tracer.depth[index] -= 1
                if not tracer.depth[index]:
                    tracer.total[index] += duration
                if stack:
                    stack[-1][2] += duration

        return traced

    def install(self) -> None:
        """Wrap every listed function and rebind the wrapper under every
        name that holds the original in any loaded germnf module, because
        several modules import functions by name from their defining module.
        Methods are replaced on their class."""
        for index, (_, module, path) in enumerate(FUNCTIONS):
            owner = sys.modules[f"germnf.{module}"]
            *prefix, attr = path.split(".")
            for part in prefix:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(index, original)
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "germnf" or name.startswith("germnf.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        gaussian = sys.modules["germnf.exactnum"].GaussianRational
        original_init = gaussian.__init__

        def counting_init(obj, re=0, im=0):
            self.gr_new += 1
            original_init(obj, re, im)

        gaussian.__init__ = counting_init

    def take(self) -> dict:
        """Counts, times and spans recorded since the last call; resets them.
        A span is [id, parent id, function index, start_s, end_s]."""
        out = {
            "functions": {
                name: [self.calls[i], self.total[i], self.self_time[i]]
                for i, name in enumerate(self.names)
            },
            "gr_new": self.gr_new,
            "spans": [
                [self.span_base + i, self.span_parent[i], self.span_func[i],
                 self.span_start[i], self.span_end[i]]
                for i in range(len(self.span_func))
            ],
        }
        self.span_base += len(self.span_func)
        for values in (self.calls, self.total, self.self_time):
            values[:] = [0] * len(values)
        self.gr_new = 0
        for values in (self.span_func, self.span_parent, self.span_start, self.span_end):
            del values[:]
        return out
