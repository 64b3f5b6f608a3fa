"""Span recorder for the traced benchmark run.

The recorder wraps public functions of lindsum from outside, by replacing
module and class attributes, so the package itself carries no tracing code.
Spans stay in memory as flat lists and are written out once, at the end.
A span's self time is its duration minus the time its direct children
cover; calls are single-threaded, so children never overlap.

Run as a script, it executes one lindsum CLI call under the recorder:

    PYTHONPATH=src python bench/spans.py <spans.json> <lindsum arguments...>
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span fields
NAME, START, END, PARENT, PASS, INFO = range(6)


def _points(args, kwargs, result):
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    size = getattr(x, "size", None)
    return {"points": 1 if size is None else int(size),
            "scalar": getattr(x, "ndim", 0) == 0}


def _draws(args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    if size is None:
        return {"draws": 1}
    if isinstance(size, int):
        return {"draws": size}
    total = 1
    for dim in size:
        total *= int(dim)
    return {"draws": total}


def _evaluations(args, kwargs, result):
    best = getattr(result, "best", result)
    return {"evaluations": int(getattr(best, "evaluations", 0))}


def _ks_points(args, kwargs, result):
    return {"points": int(getattr(result, "sample_count", 0))}


def _generator_state(args, kwargs):
    spec, rng = args[0], args[1]
    size = args[2] if len(args) > 2 else kwargs.get("size")
    state = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
    return {"key": f"{spec!r}|{size}|{state}"}


class Recorder:
    """Collects spans from wrapped callables; install() and uninstall() swap
    the wrappers in and out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_index = 0
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, info=None, pre=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = pre(args, kwargs) if pre else None
            span = [name, 0, 0, stack[-1] if stack else -1, self.pass_index, extra]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if info:
                    span[INFO] = {**(extra or {}), **info(args, kwargs, result)}

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_attr(self, owner, attr, name, info=None, pre=None) -> None:
        """Replace owner.attr by a spanning wrapper; skip attributes absent
        from this version of the package."""
        fn = owner.__dict__.get(attr)
        if fn is None:
            return
        if isinstance(fn, functools.cached_property):
            prop = functools.cached_property(self._wrap(fn.func, name, info, pre))
            prop.__set_name__(owner, attr)
            self._patch(owner, attr, prop)
        else:
            self._patch(owner, attr, self._wrap(fn, name, info, pre))
        self.wrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def install(self) -> None:
        import lindsum.cli
        import lindsum.validation
        from lindsum.family import DistSpec
        from lindsum.sums import SumSpec

        self.wrap_attr(SumSpec, "pdf", "sums.pdf", _points)
        self.wrap_attr(SumSpec, "survival", "sums.survival", _points)
        self.wrap_attr(SumSpec, "cdf", "sums.cdf", _points)
        self.wrap_attr(SumSpec, "mixture", "sums.mixture")
        # the mixture is built lazily, on first use, by this cached property
        self.wrap_attr(SumSpec, "_mixture", "sums.mixture_build")
        self.wrap_attr(DistSpec, "sample", "family.sample", _draws)
        for module in (lindsum.validation, lindsum.cli):
            self.wrap_attr(module, "integrate", "numerics.integrate", _evaluations)
            self.wrap_attr(module, "sample_sum", "validation.sample_sum", _draws,
                           _generator_state)
        self.wrap_attr(lindsum.validation, "ks_statistic", "validation.ks", _ks_points)
        self.wrap_attr(lindsum.validation, "lindley_reliability", "reliability.double_series")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.wrapped.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"wrapped": self.wrapped, "spans": self.spans}, out)


def self_times(spans: list[list]) -> list[int]:
    """Span duration minus the time its direct children cover, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of `passes` identical traced passes.

    Counts are per pass; times are totals or means over every span.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def pick(name, scalar=None, parent=None):
        return [i for i in by_name.get(name, ())
                if (scalar is None or spans[i][INFO]["scalar"] == scalar)
                and (parent is None or spans[i][PARENT] >= 0
                     and spans[spans[i][PARENT]][NAME] == parent)]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def per(total_ns, count, scale):
        return total_ns / count / scale if count else 0.0

    def info_sum(ids, key):
        return sum(spans[i][INFO][key] for i in ids)

    m: dict[str, float] = {}
    builds = pick("sums.mixture_build")
    m["sums.mixture_build_us"] = per(sum(dur(i) for i in builds), len(builds), 1e3)
    for layer in ("pdf", "survival"):
        vector = pick(f"sums.{layer}", scalar=False)
        scalar = pick(f"sums.{layer}", scalar=True)
        m[f"sums.{layer}_ns_per_point"] = per(
            sum(own[i] for i in vector), info_sum(vector, "points"), 1.0)
        m[f"sums.{layer}_scalar_us"] = per(sum(own[i] for i in scalar), len(scalar), 1e3)
        m[f"sums.{layer}_calls"] = len(by_name.get(f"sums.{layer}", ())) / passes

    samples = pick("family.sample")
    m["family.sample_ns_per_draw"] = per(
        sum(dur(i) for i in samples), info_sum(samples, "draws"), 1.0)
    m["family.sample_calls"] = len(samples) / passes

    quads = pick("numerics.integrate")
    m["numerics.integrate_calls"] = len(quads) / passes
    m["numerics.integrate_evals"] = info_sum(quads, "evaluations") / passes
    m["numerics.integrate_self_s"] = sum(own[i] for i in quads) / 1e9

    series = pick("reliability.double_series")
    m["reliability.double_series_us"] = per(sum(dur(i) for i in series), len(series), 1e3)
    m["reliability.calls"] = len(series) / passes

    sums = pick("validation.sample_sum")
    m["validation.sample_sum_s"] = sum(dur(i) for i in sums) / 1e9
    m["validation.draws"] = info_sum(sums, "draws") / passes
    first = [i for i in sums if spans[i][PASS] == spans[sums[0]][PASS]] if sums else []
    m["validation.unique_draw_ratio"] = (
        len({spans[i][INFO]["key"] for i in first}) / len(first) if first else 0.0)
    ks = pick("validation.ks")
    m["validation.ks_self_s"] = sum(own[i] for i in ks) / 1e9
    ks_cdf = pick("sums.cdf", parent="validation.ks")
    m["validation.ks_cdf_ns_per_point"] = per(
        sum(dur(i) for i in ks_cdf), info_sum(ks_cdf, "points"), 1.0)
    return m


def covered_ns(spans: list[list]) -> dict[int, int]:
    """Time covered by top-level spans, per pass index."""
    covered: dict[int, int] = {}
    for s in spans:
        if s[PARENT] < 0:
            covered[s[PASS]] = covered.get(s[PASS], 0) + s[END] - s[START]
    return covered


def _run_cli(path: str, argv: list[str]) -> int:
    import lindsum.cli

    recorder = Recorder()
    recorder.install()
    try:
        return lindsum.cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(_run_cli(sys.argv[1], sys.argv[2:]))
