"""Run one octseg CLI command with every public octseg function traced.

Usage::

    python perfbench/tracer.py --trace-out FILE --op-id N -- <octseg arguments>

Each public function of each ``octseg`` module is replaced by a timing
wrapper at every module-level name it is bound to, so a call is seen under
the name its caller looks it up by (``octseg.pipeline.convolve_separable``,
``octseg.cli.segment_retina``, ...).  Nothing under ``src/`` changes.  A
span records name, layer (the defining module), start, end, parent span
and operation id, plus a few counts read from the call's arguments and
result.  Spans stay in memory and are written at exit as Chrome trace-event
JSON (viewable in Perfetto or chrome://tracing).  The exit code is that of
``octseg.cli.main``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time


def _volume_load(a, result):
    return {"bytes_read": os.path.getsize(a["path"])}


def _filters_convolve(a, result):
    vol, k = a["volume"], a["kernel"]
    taps = k.kx.size + k.ky.size + k.kz.size
    # three axis passes, each reading and writing one volume-sized array
    return {"tap_ops": vol.data.size * taps, "bytes_moved": 6 * vol.data.nbytes}


def _enhance(a, result):
    return {"voxels_scored": a["diff"].data.size}


def _segment_boundary(a, result):
    mask = a["mask"]
    nx, ny, nz = a["volume"].dims
    if mask is None:
        useful = nx * ny * nz
    else:
        useful = int((mask.k_hi.astype("int64") - mask.k_lo).clip(min=0).sum())
    return {"boundary": a["profile"].name, "useful_voxels": useful}


def _reject_outliers(a, result):
    return {"rejected_points": int(a["surface"].valid.sum() - result.valid.sum())}


def _save_surface(a, result):
    return {"rows_written": a["surface"].z.size}


def _enforce_ordering(a, result):
    return {"ordering_fixed_columns": result[3]}


# counts taken at the layer boundary, keyed by "<layer>.<function>"
PROBES = {
    "volume.load_volume": _volume_load,
    "filters.convolve_separable": _filters_convolve,
    "enhance.enhance": _enhance,
    "pipeline.segment_boundary": _segment_boundary,
    "surfaces.reject_outliers": _reject_outliers,
    "surfaces.save_surface": _save_surface,
    "pipeline.enforce_ordering": _enforce_ordering,
}


class Recorder:
    """Collects spans in memory; one call stack per thread."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "name": name,
                "layer": layer,
                "parent": stack[-1]["id"] if stack else None,
                "tid": threading.get_ident(),
            }
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["start"] = start
                stack.pop()
                self.spans.append(span)
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = probe(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each public octseg function at every module name bound to it."""
        import octseg

        modules = [
            importlib.import_module(f"octseg.{m.name}")
            for m in pkgutil.iter_modules(octseg.__path__)
            if not m.name.startswith("_")
        ]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__
                if not owner.startswith("octseg.") or owner.count(".") != 1:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(obj, owner.split(".", 1)[1])
                setattr(mod, attr, wrapped[obj])

    def chrome_trace(self) -> dict:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for s in sorted(self.spans, key=lambda s: s["start"]):
            args = {"id": s["id"], "parent": s["parent"], "op": self.op_id}
            args.update(s.get("counts", {}))
            events.append({
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": (s["start"] - t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": pid,
                "tid": s["tid"],
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, help="Chrome trace JSON to write")
    parser.add_argument("--op-id", type=int, default=0, help="operation id put on every span")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then octseg arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    recorder = Recorder(args.op_id)
    recorder.install()
    import octseg.cli

    try:
        return octseg.cli.main(argv)
    finally:
        with open(args.trace_out, "w", encoding="utf-8") as f:
            json.dump(recorder.chrome_trace(), f)


if __name__ == "__main__":
    sys.exit(main())
