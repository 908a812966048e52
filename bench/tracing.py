"""Span tracing of one flinthills request, and the per-layer arithmetic on spans.

Run as a script, this is the traced child process of the benchmark::

    python3 bench/tracing.py SPAN_FILE REQUEST_ID -- ARGV...

It imports ``flinthills.cli`` (timed as the ``cli.import`` span), wraps the
functions of every flinthills module in span recorders, calls
``flinthills.cli.run(ARGV)`` and writes the spans to SPAN_FILE when it exits.
Spans stay in memory until then.  Nothing under ``src/`` changes: the wrappers
are installed by rebinding module attributes, in every module namespace that
bound the function (``from .mpreal import sin_int`` binds it in ``series`` and
``kernels`` as well), so calls through any of those names are seen.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("mpreal", "contfrac", "diophantine", "kernels", "series", "stats", "cache", "output", "cli")

# private functions that are layers of their own in the per-layer table
PRIVATE = {
    "mpreal": ("_pi_machin_scaled", "_pi_chudnovsky_scaled"),
    "series": ("_run_sum", "_gamma_pair_euler"),
}

# span-name groups reported as one layer
GROUPS = {
    "mpreal.pi_machin": ("mpreal._pi_machin_scaled",),
    "mpreal.pi_chudnovsky": ("mpreal._pi_chudnovsky_scaled",),
    "mpreal.pi_scaled": ("mpreal.pi_scaled",),
    "mpreal.reduce": ("mpreal.sin_int", "mpreal.cos_int", "mpreal.sincos_pi_rational_plus_int"),
    "contfrac.expand": ("contfrac.expand",),
    "contfrac.convergents": ("contfrac.convergents",),
    "series.sum": ("series._run_sum", "series.flint_partial_sum_checkpoints"),
    "series.gamma_cross_check": ("series._gamma_pair_euler",),
    "output.emit_rows": ("output.emit_rows",),
    "cache.write_entry": ("cache.write_entry",),
    "cache.load_quotients": ("cache.load_quotients",),
    "cli.run": ("cli.run",),
}


# ---------------------------------------------------------------------------
# recording (child side)
# ---------------------------------------------------------------------------


def _attrs_for(name):
    """Counters recorded at the layer boundary: (args, kwargs, result) -> dict."""
    if name == "mpreal.pi_scaled":
        return lambda a, k, r: {"digits": a[0] if a else k["digits"]}
    if name == "contfrac.expand":
        return lambda a, k, r: {"requested": a[1] if len(a) > 1 else k["max_terms"],
                                "emitted": len(r.terms) if r is not None else 0}
    if name == "contfrac.convergents":
        return lambda a, k, r: {"count": a[1] if len(a) > 1 else k["count"]}
    if name == "series._run_sum":
        return lambda a, k, r: {"terms": len(a[1])}
    if name == "series.flint_partial_sum_checkpoints":
        return lambda a, k, r: {"terms": max(int(c) for c in a[2])}
    if name == "output.emit_rows":
        return lambda a, k, r: {"rows": len(a[0]), "bytes": len(r) if r is not None else 0}
    if name == "cache.write_entry":
        return lambda a, k, r: {"bytes": r.stat().st_size if r is not None else 0}
    if name == "cache.load_quotients":
        return lambda a, k, r: {"hit": r is not None}
    return None


class Recorder:
    """In-memory spans [id, parent, name, start, end, attrs] of one request."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name, start, end, attrs=None) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, name, start, end, attrs])

    def wrap(self, name, fn):
        spans, stack, attrs_fn, clock = self.spans, self._stack, _attrs_for(name), time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            result = None
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[4] = clock()
                stack.pop()
                if attrs_fn is not None:
                    span[5] = attrs_fn(args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"request": self.request_id, "spans": self.spans}, fh)


def install(recorder: Recorder) -> int:
    """Wrap the functions of every flinthills layer; returns how many were wrapped."""
    import flinthills

    modules = {name: sys.modules[f"flinthills.{name}"] for name in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if not callable(value) or isinstance(value, type) or getattr(value, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            wrapped[id(value)] = recorder.wrap(f"{layer}.{attr}", value)
    for mod in (flinthills, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    return len(wrapped)


def main(argv: list[str]) -> int:
    span_file, request_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPAN_FILE REQUEST_ID -- ARGV...")
    recorder = Recorder(request_id)
    start = time.perf_counter()
    import flinthills.cli

    recorder.add("cli.import", start, time.perf_counter())
    install(recorder)
    try:
        return flinthills.cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        recorder.dump(span_file)


# ---------------------------------------------------------------------------
# analysis (benchmark side)
# ---------------------------------------------------------------------------


def _children(spans) -> dict[int, list]:
    out: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            out.setdefault(s[1], []).append(s)
    return out


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children = _children(spans)
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered, reach = 0.0, start
        for c in sorted(children.get(s[0], ()), key=lambda c: c[3]):
            lo, hi = max(c[3], reach), min(c[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (end - start) - covered
    return out


def layer_metrics(requests: list[list]) -> dict[str, float]:
    """Per-layer totals over the span lists of several requests."""
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    group_of = {name: g for g, names in GROUPS.items() for name in names}
    for key in ("mpreal.pi_scaled.max_digits", "mpreal.reduce.max_digits"):
        m[key] = 0
    for spans in requests:
        own = self_times(spans)
        kids = _children(spans)
        passes = 0
        for s in spans:
            sid, name, attrs = s[0], s[2], s[5] or {}
            layer = name.split(".", 1)[0]
            add(f"{layer}.self_s", own[sid])
            if name == "cli.import":
                add("cli.import_s", s[4] - s[3])
            g = group_of.get(name)
            if g is None:
                continue
            add(f"{g}.calls", 1)
            add(f"{g}.self_s", own[sid])
            if g == "mpreal.pi_scaled":
                computed = any(c[2] == "mpreal._pi_machin_scaled" for c in kids.get(sid, ()))
                add("mpreal.pi_scaled.computed", int(computed))
                m["mpreal.pi_scaled.max_digits"] = max(m["mpreal.pi_scaled.max_digits"], attrs["digits"])
            elif g == "mpreal.reduce":
                for c in kids.get(sid, ()):
                    if c[2] == "mpreal.pi_scaled":
                        m["mpreal.reduce.max_digits"] = max(m["mpreal.reduce.max_digits"], c[5]["digits"])
            elif g == "contfrac.expand":
                add("contfrac.expand.terms", attrs.get("emitted", 0))
                add("contfrac.expand.requested", attrs.get("requested", 0))
            elif g == "contfrac.convergents":
                add("contfrac.convergents.count", attrs.get("count", 0))
            elif g == "series.sum":
                add("series.sum.terms", attrs.get("terms", 0))
                passes += 1
            elif g == "output.emit_rows":
                add("output.emit_rows.rows", attrs.get("rows", 0))
                add("output.emit_rows.bytes", attrs.get("bytes", 0))
            elif g == "cache.write_entry":
                add("cache.write_entry.bytes", attrs.get("bytes", 0))
            elif g == "cache.load_quotients":
                add("cache.load_quotients.hits", int(bool(attrs.get("hit"))))
        if passes:
            add("series.sum.pass_requests", 1)
            add("series.sum.passes", passes)
    return m


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(totals: dict[str, float], rounds: int) -> dict[str, float]:
    """The benchmark's per-layer metrics: additive totals per round, plus ratios and maxima."""
    t = dict(totals)
    out = {k: v / rounds for k, v in t.items() if not k.endswith("max_digits")}
    for k in ("mpreal.pi_scaled.max_digits", "mpreal.reduce.max_digits"):
        out[k] = t.get(k, 0)
    calls = t.get("mpreal.pi_scaled.calls", 0)
    out["mpreal.pi_scaled.hit_ratio"] = _ratio(calls - t.get("mpreal.pi_scaled.computed", 0), calls)
    out["contfrac.expand.yield"] = _ratio(t.get("contfrac.expand.terms", 0), t.get("contfrac.expand.requested", 0))
    out["series.sum.passes_per_request"] = _ratio(t.get("series.sum.passes", 0), t.get("series.sum.pass_requests", 0))
    out["cache.load_quotients.hit_ratio"] = _ratio(t.get("cache.load_quotients.hits", 0),
                                                   t.get("cache.load_quotients.calls", 0))
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
