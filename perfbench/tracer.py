"""Call counting and span tracing around the program's public entry points.

Each target is a public function or method of a ``cdle`` module.  It is
wrapped where it is looked up: every ``cdle`` module attribute bound to
the original function is rebound to the wrapper, so a module that
imported the function by name (``typecheck`` imports ``erase``,
``beta_eta_eq`` and ``normalize``) calls the wrapper too.  A target the
program no longer has is reported as absent.

Counting is always on and costs one dictionary update per call; the
exact-count ledger comes from it.  Spans (name, start, end, parent) are
recorded only when tracing, kept in memory, and written out by the
caller at the end of the sample.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from terms import node_count

LAYERS = ("surface", "loader", "erasure", "typecheck", "reduction", "pretty", "corpus", "bench")

LEDGER_KEYS = {
    "beta": "reduction.beta",
    "eta": "reduction.eta",
    "conv_calls": "typecheck.terms_conv",
    "expand_calls": "typecheck.pure_of",
    "normalize_calls": "reduction.normalize",
}


def _count_steps(counts, args, out):
    counts["reduction.beta"] += out.beta_steps
    counts["reduction.eta"] += out.eta_steps
    counts["reduction.exhausted"] += out.result is None


def _text_bytes(counts, args, out):
    counts["surface.bytes"] += len(args[0].encode("utf-8"))


def _result_nodes(key):
    def measure(counts, args, out):
        counts[key] += node_count(out)

    return measure


def _result_chars(counts, args, out):
    counts["pretty.chars"] += len(out)


# span name -> (module, attribute or "Class.method", always-on hook, traced-only hook)
TARGETS = {
    "surface.parse_module": ("cdle.surface", "parse_module", None, _text_bytes),
    "surface.parse_term": ("cdle.surface", "parse_term", None, _text_bytes),
    "loader.load_program": ("cdle.loader", "load_program", None, None),
    "erasure.erase": ("cdle.erasure", "erase", None, None),
    "typecheck.check_defs": ("cdle.typecheck", "check_defs", None, None),
    "typecheck.pure_of": ("cdle.typecheck", "Checker.pure_of", None, _result_nodes("typecheck.nodes")),
    "typecheck.terms_conv": ("cdle.typecheck", "Checker.terms_conv", None, None),
    "reduction.normalize": ("cdle.reduction", "normalize", _count_steps, None),
    "reduction.beta_eta_eq": ("cdle.reduction", "beta_eta_eq", None, None),
    "reduction.apply_and_count": ("cdle.reduction", "apply_and_count", None, None),
    "pretty.pretty": ("cdle.pretty", "pretty", None, _result_chars),
    "corpus.load_checked_corpus": ("cdle.corpus", "load_checked_corpus", None, None),
    "corpus.corpus_manifest": ("cdle.corpus", "corpus_manifest", None, None),
    "corpus.verify_goldens": ("cdle.corpus", "verify_goldens", None, None),
    "corpus.synth_input_nf": ("cdle.corpus", "synth_input_nf", None, _result_nodes("corpus.nodes")),
    "corpus.unit_vec_term": ("cdle.corpus", "unit_vec_term", None, None),
    "corpus.unit_list_term": ("cdle.corpus", "unit_list_term", None, None),
}


class Region:
    """Wall time of a ``with`` block, set when the block exits."""

    __slots__ = ("seconds",)

    def __init__(self):
        self.seconds = 0.0


class Tracer:
    def __init__(self, spans_on: bool):
        self.spans_on = spans_on
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.absent: list[str] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """Time a block of the benchmark's own code; a span when tracing."""
        r = Region()
        i = self._open(name) if self.spans_on else -1
        t0 = time.perf_counter()
        try:
            yield r
        finally:
            r.seconds = time.perf_counter() - t0
            if i >= 0:
                self._close(i)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hook, traced_hook):
        counts = self.counts
        if not self.spans_on:

            def counted(*args, **kwargs):
                counts[name] += 1
                out = fn(*args, **kwargs)
                if hook:
                    hook(counts, args, out)
                return out

            return counted

        def traced(*args, **kwargs):
            counts[name] += 1
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook:
                hook(counts, args, out)
            if traced_hook:
                # measuring the result is tracing cost, kept out of the caller's self time
                j = self._open("trace.measure")
                traced_hook(counts, args, out)
                self._close(j)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; the ``cdle`` modules must already be imported."""
        modules = [m for n, m in sys.modules.items() if n == "cdle" or n.startswith("cdle.")]
        for name, (modname, attr, hook, traced_hook) in TARGETS.items():
            mod = sys.modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, hook, traced_hook)
            if owner_name:
                setattr(owner, meth, wrapper)
                continue
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, wrapper)

    def ledger(self) -> dict[str, int]:
        """The exact-count ledger: totals that must repeat run to run."""
        return {k: int(self.counts[c]) for k, c in LEDGER_KEYS.items()}

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for one traced sample, derived from the spans."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_t = [dur[i] - child[i] for i in range(n)]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        # inclusive time of a name counts only its outermost spans
        incl: dict[str, float] = defaultdict(float)
        under: dict[tuple[str, str], float] = defaultdict(float)
        for i, s in enumerate(spans):
            anc = [spans[p][0] for p in ancestors(i)]
            if s[0] not in anc:
                incl[s[0]] += dur[i]
                for a in set(anc):
                    if a.startswith("bench."):
                        under[(s[0], a)] += dur[i]
        layer_self: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            layer_self[s[0].split(".")[0]] += self_t[i]
        compare = sum(
            (
                self_t[i]
                for i, s in enumerate(spans)
                if s[0] == "reduction.beta_eta_eq" and s[3] >= 0 and spans[s[3]][0] == "typecheck.terms_conv"
            ),
            0.0,
        )
        defs_ms = sorted(dur[i] * 1e3 for i, s in enumerate(spans) if s[0] == "bench.def")
        c = self.counts
        parse_s = incl["surface.parse_module"] + incl["surface.parse_term"]

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        out = {
            "typecheck.expand_s": incl["typecheck.pure_of"],
            "typecheck.expand_calls": c["typecheck.pure_of"],
            "typecheck.expand_nodes": c["typecheck.nodes"],
            "typecheck.conv_calls": c["typecheck.terms_conv"],
            "typecheck.conv_s": incl["typecheck.terms_conv"],
            "typecheck.compare_s": compare,
            "typecheck.def_ms_p50": percentile(defs_ms, 50),
            "typecheck.def_ms_p90": percentile(defs_ms, 90),
            "erasure.erase_calls": c["erasure.erase"],
            "erasure.erase_s": incl["erasure.erase"],
            "reduction.normalize_calls": c["reduction.normalize"],
            "reduction.normalize_s": incl["reduction.normalize"],
            "reduction.beta_steps": c["reduction.beta"],
            "reduction.eta_steps": c["reduction.eta"],
            "reduction.fuel_exhausted": c["reduction.exhausted"],
            "reduction.beta_per_s": ratio(c["reduction.beta"], incl["reduction.normalize"]),
            "reduction.counted_run_s": incl["reduction.apply_and_count"],
            "corpus.build_s": incl["corpus.unit_vec_term"] + incl["corpus.unit_list_term"],
            "corpus.synth_s": incl["corpus.synth_input_nf"],
            "corpus.synth_nodes": c["corpus.nodes"],
            "corpus.goldens_s": incl["corpus.verify_goldens"],
            "surface.parse_s": parse_s,
            "surface.bytes_per_s": ratio(c["surface.bytes"], parse_s),
            "loader.load_s": incl["loader.load_program"],
            "pretty.print_s": incl["pretty.pretty"],
            "pretty.chars": c["pretty.chars"],
            "share.expand_in_check": ratio(under[("typecheck.pure_of", "bench.check")], incl["bench.check"]),
            "share.corpus_in_zero_cost_row": ratio(
                under[("corpus.synth_input_nf", "bench.zero_cost_row")], incl["bench.zero_cost_row"]
            ),
            "share.normalize_in_reduce": ratio(under[("reduction.normalize", "bench.reduce")], incl["bench.reduce"]),
            "trace.spans": n,
            "trace.measure_s": layer_self["trace"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out


def percentile(sorted_values: list[float], p: int) -> float:
    """The p-th percentile of sorted values (0 when there are none)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[p - 1]
