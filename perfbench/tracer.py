"""Outside-in tracing of splicezeta's layers for the benchmark.

The tracer replaces each listed public function with a wrapper in every
``splicezeta`` module namespace (and class) that binds it, so calls made
inside the package are seen too, and puts the originals back afterwards.
The program's code is not edited.  Every wrapped call records one span:
function, start, end, parent span and the current item id.  Spans are kept
in flat in-memory arrays and summarised (or written out) after the run.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, qualified name) of every wrapped function, grouped by layer.
LAYERS = {
    "exact": ["poly_gcd", "RatFunc.poles", "solve_linear_congruence", "CycloProduct.expand"],
    "divisors": ["pullback_plumbing", "canonical_plumbing", "node_data", "nu_values",
                 "vertex_multiplicities"],
    "zeta": ["zeta_plumbing", "zeta_splice"],
    "diagrams": ["validate", "validate_plumbing", "plumbing_to_splice",
                 "SpliceDiagram.linking_product"],
    "splicing": ["star_decomposition", "splice", "verify_splice_zeta"],
    "allowed": ["semigroup_condition", "is_allowed", "check_goal1"],
    "monodromy": ["alexander", "eig_contains"],
    "realize": ["realize_eigenvalue", "certify"],
    "io": ["parse_diagram"],
    "cli": ["main"],
}

TRACED = [(mod, qual) for mod, quals in LAYERS.items() for qual in quals]


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in TRACED]
        self.item = 0
        self.span_item = array("l")
        self.span_fn = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.calls = [0] * len(TRACED)
        self.errors = [0] * len(TRACED)
        self.max_coeff_bits = 0
        self.certify_ok = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn_id: int, original, observe=None):
        clock = time.perf_counter_ns
        stack = self._stack
        items, fns, starts, ends, parents = (
            self.span_item, self.span_fn, self.span_start, self.span_end, self.span_parent,
        )
        calls, errors = self.calls, self.errors

        def traced(*args, **kwargs):
            idx = len(starts)
            items.append(self.item)
            fns.append(fn_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            calls[fn_id] += 1
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                errors[fn_id] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _observe_gcd(self, args, result):
        bits = max(_coeff_bits(args[0]), _coeff_bits(args[1]))
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _observe_certify(self, args, result):
        if result is not None:
            self.certify_ok += 1

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a splicezeta module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "splicezeta" or n.startswith("splicezeta."))]
        observers = {"exact.poly_gcd": self._observe_gcd, "realize.certify": self._observe_certify}
        for fn_id, (mod, qual) in enumerate(TRACED):
            home = sys.modules[f"splicezeta.{mod}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(fn_id, original, observers.get(self.names[fn_id]))
                self._patch(owner, attr, wrapper)
                continue
            original = getattr(home, qual)
            wrapper = self._wrap(fn_id, original, observers.get(self.names[fn_id]))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def self_times_ns(self) -> array:
        """Per span: duration minus the durations of its direct children.

        Calls are synchronous, so children are disjoint and nested inside the
        parent; the union of their intervals is the sum of their durations."""
        dur = array("q", (e - s for s, e in zip(self.span_start, self.span_end)))
        own = array("q", dur)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def per_function(self) -> dict[str, dict[str, float]]:
        own = self.self_times_ns()
        self_ns = [0] * len(TRACED)
        for fn_id, t in zip(self.span_fn, own):
            self_ns[fn_id] += t
        return {
            name: {"calls": self.calls[i], "self_s": self_ns[i] / 1e9, "errors": self.errors[i]}
            for i, name in enumerate(self.names)
        }

    def self_by_item_ns(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for item, t in zip(self.span_item, self.self_times_ns()):
            out[item] = out.get(item, 0) + t
        return out

    def durations_by_item(self, name: str) -> dict[int, int]:
        """Summed inclusive time of the outermost calls to ``name`` per item."""
        fn_id = self.names.index(name)
        fns = self.span_fn
        out: dict[int, int] = {}
        for idx, f in enumerate(fns):
            if f != fn_id:
                continue
            p = self.span_parent[idx]
            while p >= 0 and fns[p] != fn_id:
                p = self.span_parent[p]
            if p >= 0:
                continue  # nested inside another call to the same function
            item = self.span_item[idx]
            out[item] = out.get(item, 0) + self.span_end[idx] - self.span_start[idx]
        return out

    def write(self, path):
        """All spans as gzipped TSV: item, function, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("item\tfunction\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for row in zip(self.span_item, self.span_fn, self.span_start,
                           self.span_end, self.span_parent):
                fh.write(f"{row[0]}\t{names[row[1]]}\t{row[2]}\t{row[3]}\t{row[4]}\n")
