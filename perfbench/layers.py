"""Per-layer metrics from the Chrome trace events that tracer.py writes.

A layer is an octseg module.  A span's self time is its duration minus the
durations of its direct children; a layer's busy time sums the spans of the
layer that are not nested in another span of the same layer, and its self
time sums the self times of all its spans.
"""

from __future__ import annotations

from collections import defaultdict

BOUNDARY_KEYS = {"RPE": "rpe", "IS/OS": "isos", "ILM": "ilm"}


def spans_from_events(events: list[dict]) -> list[dict]:
    """Flatten trace events into spans keyed by (pid, id) with seconds."""
    spans = []
    for e in events:
        a = e["args"]
        parent = None if a["parent"] is None else (e["pid"], a["parent"])
        counts = {k: v for k, v in a.items() if k not in ("id", "parent", "op")}
        spans.append({
            "key": (e["pid"], a["id"]),
            "parent": parent,
            "name": e["name"],
            "layer": e["cat"],
            "dur": e["dur"] / 1e6,
            "counts": counts,
        })
    return spans


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per layer: outermost calls, busy seconds and self seconds."""
    by_key = {s["key"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["dur"]
    table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s["layer"]]
        row["self_s"] += s["dur"] - child_s[s["key"]]
        if not _inside_layer(s, by_key):
            row["calls"] += 1
            row["busy_s"] += s["dur"]
    return dict(table)


def _inside_layer(span: dict, by_key: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        p = by_key[parent]
        if p["layer"] == span["layer"]:
            return True
        parent = p["parent"]
    return False


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one operation except tracing_overhead_s."""
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    boundary = defaultdict(float)
    for s in spans:
        total[s["name"]] += s["dur"]
        calls[s["name"]] += 1
        for k, v in s["counts"].items():
            if k == "boundary":
                boundary[BOUNDARY_KEYS[v]] += s["dur"]
            else:
                counts[k] += v
    table = layer_table(spans)

    def busy(layer):
        return table.get(layer, {}).get("busy_s", 0.0)

    def self_s(layer):
        return table.get(layer, {}).get("self_s", 0.0)

    load_s = total["volume.load_volume"]
    scored = counts["voxels_scored"]
    return {
        "volume.load_s": load_s,
        "volume.bytes_read": counts["bytes_read"],
        "volume.load_mb_per_s": counts["bytes_read"] / 1e6 / load_s if load_s else 0.0,
        "filters.calls": calls["filters.convolve_separable"],
        "filters.busy_s": busy("filters"),
        "filters.tap_ops": counts["tap_ops"],
        "filters.bytes_moved_computed": counts["bytes_moved"],
        "enhance.calls": calls["enhance.enhance"],
        "enhance.busy_s": busy("enhance"),
        "enhance.voxels_scored": scored,
        "enhance.useful_voxel_frac": counts["useful_voxels"] / scored if scored else 0.0,
        "surfaces.extract_s": total["surfaces.argmax_per_ascan"],
        "surfaces.outlier_s": total["surfaces.reject_outliers"],
        "surfaces.regularize_s": total["surfaces.inpaint_and_smooth"],
        "surfaces.save_s": total["surfaces.save_surface"],
        "surfaces.load_s": total["surfaces.load_surface"],
        "surfaces.rows_written": counts["rows_written"],
        "surfaces.rejected_points": counts["rejected_points"],
        "pipeline.boundary_s.rpe": boundary["rpe"],
        "pipeline.boundary_s.isos": boundary["isos"],
        "pipeline.boundary_s.ilm": boundary["ilm"],
        "pipeline.ordering_s": total["pipeline.enforce_ordering"],
        "pipeline.ordering_fixed_columns": counts["ordering_fixed_columns"],
        "pipeline.self_s": self_s("pipeline"),
        "analysis.thickness_s": total["analysis.thickness_map"],
        "analysis.save_s": total["analysis.save_thickness_csv"] + total["analysis.save_thickness_pgm"],
        "render.bscan_s": total["render.render_bscan"],
        "render.write_s": total["render.write_ppm"],
        "cli.self_s": self_s("cli"),
    }


def format_table(table: dict[str, dict]) -> str:
    lines = [f"{'layer':<10}{'calls':>7}{'busy_s':>10}{'self_s':>10}"]
    for layer in sorted(table, key=lambda k: -table[k]["busy_s"]):
        row = table[layer]
        lines.append(f"{layer:<10}{row['calls']:>7}{row['busy_s']:>10.4f}{row['self_s']:>10.4f}")
    return "\n".join(lines)
