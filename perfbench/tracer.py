"""Outside-in tracing of pathgrad: spans around calls into each module's
public functions, recorded from this file with the program unchanged.

`install` replaces every public module-level function of the traced modules,
wherever a pathgrad module holds a reference to it, with a wrapper that
records a span (name, start, end, parent) and per-function totals: calls,
duration and self time (duration minus the time its child spans cover).
Spans are kept in memory, the first MAX_SPANS in full, and written out when
the command ends.  `adjoint_algebra` is not traced: no workload runs it.

Run as a script in a fresh process per traced command:

    PYTHONPATH=src python3 perfbench/tracer.py command --spans S.json [--capture C.pkl] -- <pathgrad args>
    PYTHONPATH=src python3 perfbench/tracer.py probe --capture C.pkl --out P.json

`command` runs one pathgrad CLI command traced.  `probe` re-runs captured
calls untraced to time what a single trace cannot show: one versus two
workers, with versus without gradients, memory per lane and escaped lanes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import math
import pickle
import resource
import statistics
import sys
import time

# layer label -> module under pathgrad
LAYERS = {
    "geometry": "geometry",
    "sampling": "sampling",
    "materials": "materials",
    "path_engine": "path_engine",
    "wavefront": "_wavefront",
    "validation": "validation",
    "optimizer": "optimizer",
    "scene_io": "scene_io",
}
MAX_SPANS = 20000
WRITERS = ("scene_io.write_pfm", "scene_io.write_ppm_preview",
           "scene_io.gradient_preview", "scene_io.serialize_scene")
# arguments of one call of each are kept, bound by name, for the probes
CAPTURED = ("wavefront.trace", "path_engine.trace_image",
            "validation.build_lattice_ensemble")


def _wants_grad(arguments):
    return bool(arguments.get("compute_gradients") or arguments.get("want_grad"))


class Tracer:
    """Span stack plus per-function totals for one process."""

    def __init__(self, max_spans=MAX_SPANS):
        self.origin = time.perf_counter()
        self.max_spans = max_spans
        self.spans = []    # [name, start, end, parent index or -1]
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.counts = {}   # name -> number
        self.captured = {}
        # [span index or -1, seconds covered by child spans]; the root frame
        # collects the time covered by top-level spans
        self._stack = [[-1, 0.0]]

    def wrap(self, name, fn):
        """fn wrapped so each call records a span, totals and counts."""
        stack, spans, cap, origin = self._stack, self.spans, self.max_spans, self.origin
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        count = self._counter(name, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0]
            span = None
            if len(spans) < cap:
                span = [name, 0.0, 0.0, parent]
                spans.append(span)
            frame = [len(spans) - 1 if span is not None else parent, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stack[-1][1] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if span is not None:
                    span[1] = start - origin
                    span[2] = end - origin
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _counter(self, name, fn):
        """Counts taken at the same boundary as the span, or None."""
        if name in WRITERS:
            return lambda args, kwargs, result: self._add(
                "scene_io.bytes_written", len(result))
        if name == "wavefront.trace":
            def count(args, kwargs, result):
                cam = args[0].camera
                lanes = cam.width * cam.height * args[2]
                self._add("wavefront.lanes", lanes)
                self._add("wavefront.vertices", lanes * result.mean_depth)
                self._capture(name, signature, args, kwargs)
        elif name in CAPTURED:
            def count(args, kwargs, result):
                self._capture(name, signature, args, kwargs)
        else:
            return None
        signature = inspect.signature(fn)
        return count

    def _capture(self, name, signature, args, kwargs):
        # keep the first call, or the first with gradients if one comes later
        old = self.captured.get(name)
        new = dict(signature.bind(*args, **kwargs).arguments)
        if old is None or (_wants_grad(new) and not _wants_grad(old)):
            self.captured[name] = new

    def summary(self, wall_s):
        """Plain data: per-function totals, counts, spans, layer self times."""
        layer_self = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        calls = sum(st[0] for st in self.stats.values())
        return {"wall_s": wall_s, "top_spans_s": self._stack[0][1],
                "cli_self_s": wall_s - self._stack[0][1],
                "layer_self_s": layer_self, "stats": self.stats,
                "counts": self.counts, "spans": self.spans,
                "spans_dropped": calls - len(self.spans)}


def install(tracer):
    """Wrap the public functions of every traced module, everywhere they are held."""
    import pathgrad  # noqa: F401  (loads every submodule)
    import pathgrad.cli  # noqa: F401
    wrappers = {}
    for layer, modname in LAYERS.items():
        mod = importlib.import_module("pathgrad." + modname)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "pathgrad" and not modname.startswith("pathgrad."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(wrappers)


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(summary):
    """Per-layer figures of one traced command (0 where a layer did no work)."""
    stats, counts, spans = summary["stats"], summary["counts"], summary["spans"]

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    trace_s = total("wavefront.trace")
    compare_s = total("validation.compare_gradients")
    evals = [s for s in spans if s[0] == "optimizer.total_cost_and_grad"]
    index = {id(s): i for i, s in enumerate(spans)}
    image_s = {}
    for s in spans:
        if s[0] == "path_engine.trace_image" and s[3] >= 0:
            image_s[s[3]] = image_s.get(s[3], 0.0) + s[2] - s[1]
    # iteration i runs from the start of evaluation i to the start of i + 1
    self_ms = [1e3 * (b[1] - a[1] - image_s.get(index[id(a)], 0.0))
               for a, b in zip(evals, evals[1:])]
    layer_self = summary["layer_self_s"]
    return {
        "wavefront.trace_s": trace_s,
        "wavefront.vertices_per_s": rate(counts.get("wavefront.vertices", 0.0), trace_s),
        "path_engine.trace_image_s": total("path_engine.trace_image"),
        "optimizer.evals": calls("optimizer.total_cost_and_grad"),
        "optimizer.eval_ms_p50": (1e3 * statistics.median(s[2] - s[1] for s in evals)
                                  if evals else 0.0),
        "optimizer.self_ms_p50": statistics.median(self_ms) if self_ms else 0.0,
        "scene_io.load_s": total("scene_io.parse_scene", "scene_io.build_cornell_box"),
        "scene_io.read_s": total("scene_io.read_pfm"),
        "scene_io.write_s": total(*WRITERS),
        "scene_io.bytes_written": counts.get("scene_io.bytes_written", 0),
        "validation.build_s": total("validation.build_lattice_ensemble",
                                    "validation.build_single_path_ensemble"),
        "validation.compare_s": compare_s,
        "validation.path_sweeps_per_s": rate(
            calls("path_engine.forward_pass", "path_engine.backward_pass"), compare_s),
        "geometry.self_s": layer_self.get("geometry", 0.0),
        "sampling.self_s": layer_self.get("sampling", 0.0),
        "materials.self_s": layer_self.get("materials", 0.0),
        "cli.self_s": summary["cli_self_s"],
    }


# ---------------------------------------------------------------------------
# probes: untraced re-runs of captured calls

def _rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _reps(first_s, min_total_s, min_reps, max_reps=9):
    return min(max_reps, max(min_reps, math.ceil(min_total_s / max(first_s, 1e-9))))


def _timed(fn, min_total_s=1.0):
    """Median seconds of fn(), repeated until about min_total_s has run."""
    times = [_once(fn)]
    times += [_once(fn) for _ in range(_reps(times[0], min_total_s, 1) - 1)]
    return statistics.median(times)


def _extra(fn, base, min_total_s=3.0):
    """Median of fn() minus base() time over alternating pairs (at least 3)."""
    with_s, base_s = _once(fn), _once(base)
    diffs = [with_s - base_s]
    for _ in range(_reps(with_s + base_s, min_total_s, 3) - 1):
        diffs.append(_once(fn) - _once(base))
    return statistics.median(diffs)


def probe(captured, escape_lanes=1024):
    """Figures one trace cannot give, from untraced re-runs of captured calls."""
    from pathgrad import _wavefront
    from pathgrad.path_engine import (DEFAULT_MAX_DEPTH, TerminalKind, trace_image,
                                      trace_pixel_sample)

    out = {"wavefront.bytes_per_lane": 0.0, "wavefront.parallel_eff": 0.0,
           "path_engine.grad_extra_s": 0.0, "path_engine.escaped_frac": 0.0}
    tr = captured.get("wavefront.trace")
    if tr is not None:
        cam = tr["scene"].camera
        lanes = cam.width * cam.height * tr["spp"]
        rss0 = _rss_bytes()
        t1 = _timed(lambda: _wavefront.trace(**{**tr, "threads": 1}))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        out["wavefront.bytes_per_lane"] = max(0, peak - rss0) / lanes
        t2 = _timed(lambda: _wavefront.trace(**{**tr, "threads": 2}))
        out["wavefront.parallel_eff"] = t1 / (2.0 * t2)
    ti = captured.get("path_engine.trace_image")
    if ti is not None and ti.get("compute_gradients"):
        plain = {**ti, "target": None, "compute_gradients": False,
                 "want_grad_images": False}
        out["path_engine.grad_extra_s"] = _extra(lambda: trace_image(**ti),
                                                 lambda: trace_image(**plain))
    src = ti or captured.get("validation.build_lattice_ensemble")
    if src is not None:
        cam = src["scene"].camera
        npix = cam.width * cam.height
        spp = src.get("spp", 1)
        max_depth = src.get("max_depth", DEFAULT_MAX_DEPTH)
        escaped = 0
        for i in range(escape_lanes):
            path = trace_pixel_sample(src["scene"], src["theta"],
                                      (i * 7919) % npix, i % spp, src["seed"],
                                      max_depth)
            escaped += path.terminal_kind is TerminalKind.ESCAPED
        out["path_engine.escaped_frac"] = escaped / escape_lanes
    return out


# ---------------------------------------------------------------------------
# entry points

def _command(a):
    import pathgrad.cli
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    code = pathgrad.cli.main(a.args)
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    summary = tracer.summary(wall)
    summary["exit_code"] = code
    with open(a.spans, "w") as fh:
        json.dump(summary, fh)
    if a.capture:
        with open(a.capture, "wb") as fh:
            pickle.dump(tracer.captured, fh)
    return code


def _probe(a):
    with open(a.capture, "rb") as fh:  # written by _command in this benchmark
        captured = pickle.load(fh)
    with open(a.out, "w") as fh:
        json.dump(probe(captured), fh)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="Traced pathgrad command or probe.")
    sub = ap.add_subparsers(dest="action", required=True)
    c = sub.add_parser("command")
    c.add_argument("--spans", required=True)
    c.add_argument("--capture")
    c.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("probe")
    p.add_argument("--capture", required=True)
    p.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    if a.action == "command":
        if a.args[:1] == ["--"]:
            a.args = a.args[1:]
        return _command(a)
    return _probe(a)


if __name__ == "__main__":
    sys.exit(main())
