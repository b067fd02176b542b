"""One benchmark run: set-up, the closed loop of CLI operations, the checks on
every operation, and the metrics.  perfbench/run.py is the entry point."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from launcher import Launcher, child_env
from layers import format_table, layer_metrics, layer_table, spans_from_events
from workloads import (
    BOUNDARIES,
    CheckFailed,
    Workload,
    check_report,
    check_review,
    check_surfaces,
    make_input,
    operation,
    output_files,
    prepare_review,
    segment_argv,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5

def octseg_argv(cli_args: list[str], trace_out: Path | None = None, op_id: int = 0) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "octseg", *cli_args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), "--trace-out", str(trace_out),
            "--op-id", str(op_id), "--", *cli_args]


def environment(wl: Workload, dims) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(int((c / "level").read_text()), (c / "size").read_text().strip())
              for c in caches if (c / "level").exists()]
    nx, ny, nz = dims
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "last_level_cache": max(levels)[1] if levels else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload_dims": list(dims),
        # compare with the cache size: bytes moved are computed, not counted
        "float_volume_mb": nx * ny * nz * 4 / 1e6,
        "threads": wl.cli_threads,
    }


def steal_s() -> float | None:
    """Seconds of CPU steal summed over all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile that has >= 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "tail_pct": None, "tail": None}
    if n >= 21:  # below that, no percentile above the median has 10 beyond it
        out["tail_pct"] = 100 * (n - 10) // n
        out["tail"] = s[n - 11]
    return out


class Bench:
    def __init__(self, args, wl: Workload, work: Path, launcher: Launcher):
        self.args = args
        self.wl = wl
        self.work = work
        self.launcher = launcher
        self.dims = wl.tiny_dims if args.tiny else wl.dims
        self.digests: dict[int, str] = {}  # input index -> digest of its first outputs
        self.checked: dict[str, object] = {}  # digest -> squared errors or CheckFailed
        self.sse: dict[int, dict] = {}  # input index -> squared error per boundary

    def spawn(self, cli_args, log: Path, trace_out=None, op_id=0):
        return self.launcher.spawn(octseg_argv(cli_args, trace_out, op_id), log)

    # -- set-up (untimed, except setup_s) -------------------------------------

    def setup(self) -> list:
        """Write the inputs; for review, also segment them."""
        inputs = [make_input(self.wl, self.dims, self.args.seed, i, self.work / f"in{i}")
                  for i in range(self.wl.inputs)]
        if self.wl.review:
            nproc = os.cpu_count() or 1
            indexed = list(enumerate(inputs))
            for k in range(0, len(indexed), nproc):
                self.segment_for_review(indexed[k:k + nproc])
        return inputs

    def segment_for_review(self, batch: list) -> None:
        """Segment inputs side by side, one thread each (same bytes at any count)."""
        procs = []
        try:
            for _, inp in batch:
                inp.surfaces_dir = inp.raw.parent / "seg"
                with open(inp.raw.parent / "seg.log", "wb") as log:
                    procs.append(subprocess.Popen(
                        octseg_argv(segment_argv(inp, inp.surfaces_dir, 1)),
                        stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                        env=child_env(ROOT), cwd=ROOT))
            codes = [p.wait() for p in procs]
        finally:
            for p in procs:
                p.kill()
                p.wait()
        for (index, inp), code in zip(batch, codes):
            if code != 0:
                raise RuntimeError(f"set-up segmentation exited {code}: "
                                   + (inp.raw.parent / "seg.log").read_text()[-2000:])
            check_report(inp.surfaces_dir, inp.dims)
            self.sse[index] = check_surfaces(self.wl, inp, inp.surfaces_dir)
            prepare_review(inp)

    def import_s(self) -> float:
        """Wall time of one child that only imports octseg.cli."""
        log = self.work / "import.log"
        c = self.launcher.spawn([sys.executable, "-c", "import octseg.cli"], log)
        if c.exit_code != 0:
            raise RuntimeError("`import octseg.cli` failed: " + log.read_text()[-2000:])
        return c.wall_s

    # -- the closed loop -------------------------------------------------------

    def check(self, index: int, inp, out_dir: Path) -> None:
        """Raise CheckFailed unless the operation's outputs are right."""
        h = hashlib.sha256()
        for p in output_files(self.wl, out_dir):
            if not p.is_file():
                raise CheckFailed(f"missing output {p.name}")
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        digest = h.hexdigest()
        if digest != self.digests.setdefault(index, digest):
            raise CheckFailed(f"output bytes differ from an earlier operation on input {index}")
        if not self.wl.review:
            check_report(out_dir, inp.dims)
        if digest not in self.checked:  # repeats are byte-identical: check once
            try:
                if self.wl.review:
                    self.checked[digest] = check_review(inp, out_dir)
                else:
                    self.checked[digest] = check_surfaces(self.wl, inp, out_dir)
            except CheckFailed as e:
                self.checked[digest] = e
        result = self.checked[digest]
        if isinstance(result, CheckFailed):
            raise result
        if not self.wl.review:
            self.sse[index] = result

    def run_ops(self, inputs: list, traced_every: int, imports: int) -> tuple[list, list]:
        """One client: the next operation starts when the previous one ends.

        Runs until --seconds have passed, and at least until every input was
        processed and the first one twice (and two operations of each kind
        when tracing).  ``imports`` import-only children are timed between
        operations, spread over the run so a slow spell does not take them all.
        """
        ops, import_walls = [], []
        min_ops = max(len(inputs) + 1, 2 * traced_every)
        start = time.perf_counter()
        i = 0
        # operations get --seconds of their own; import timing is not counted
        while i < min_ops or time.perf_counter() - start - sum(import_walls) < self.args.seconds:
            index = i % len(inputs)
            inp = inputs[index]
            traced = bool(traced_every) and i % traced_every == 1
            op_dir = self.work / f"op{i}"
            op_dir.mkdir()
            log = op_dir / "log.txt"
            children, traces = [], []
            for j, cli_args in enumerate(operation(self.wl, inp, op_dir)):
                trace_out = op_dir / f"trace{j}.json" if traced else None
                children.append(self.spawn(cli_args, log, trace_out, i))
                traces.append(trace_out)
            nx, ny, _ = inp.dims
            wall = sum(c.wall_s for c in children)
            op = {
                "id": i,
                "input": index,
                "traced": traced,
                "wall_s": wall,
                "cpu_s": sum(c.cpu_s for c in children),
                "peak_rss_mb": max(c.peak_rss_mb for c in children),
                "ascans_per_s": nx * ny / wall,
                "exit_codes": [c.exit_code for c in children],
                "error": None,
            }
            try:
                if any(op["exit_codes"]):
                    raise CheckFailed(f"exit codes {op['exit_codes']}: " + log.read_text()[-1000:])
                self.check(index, inp, op_dir)
                if traced:
                    op["events"] = [ev for t in traces
                                    for ev in json.loads(t.read_text())["traceEvents"]]
            except (CheckFailed, OSError, ValueError, KeyError) as e:
                op["error"] = f"{type(e).__name__}: {e}"
            shutil.rmtree(op_dir)
            ops.append(op)
            i += 1
            elapsed = time.perf_counter() - start - sum(import_walls)
            if len(import_walls) < imports * min(1.0, elapsed / max(self.args.seconds, 1e-9)):
                import_walls.append(self.import_s())
        while len(import_walls) < imports:
            import_walls.append(self.import_s())
        return ops, import_walls

    # -- metrics ---------------------------------------------------------------

    def rms(self, inputs: list) -> dict:
        """RMS per boundary pooled over every input's columns."""
        cells = sum(inputs[i].dims[0] * inputs[i].dims[1] for i in self.sse)
        return {
            f"rms_{b}_vox": (sum(e[b] for e in self.sse.values()) / cells) ** 0.5 if cells else None
            for b in BOUNDARIES
        }

    def end_to_end(self, inputs: list, ops: list, import_walls: list,
                   units: dict) -> tuple[dict, list[str]]:
        summaries = {k: summarize([op[k] for op in ops])
                     for k in ("wall_s", "cpu_s", "peak_rss_mb", "ascans_per_s")}
        summaries["setup_s"] = summarize(import_walls)
        lines = []
        for k, s in summaries.items():
            tail = (f"p{s['tail_pct']} {s['tail']:.6g}" if s["tail"] is not None
                    else "no percentile above the median has >= 10 samples beyond it")
            lines.append(f"  {k:<14}{s['median']:>14.6g} {units[k]:<5}"
                         f" median of n={s['n']}; {tail}")
        metrics = {k: s["median"] for k, s in summaries.items()}
        for k, v in self.rms(inputs).items():
            metrics[k] = v
            shown = "n/a" if v is None else f"{v:.6g}"
            lines.append(f"  {k:<14}{shown:>14} {units[k]:<5}"
                         f" pooled over {len(self.sse)} inputs; repeats exactly per seed")
        return metrics, lines


def per_layer(ops: list, trace_path: Path, units: dict) -> tuple[dict, list[str], dict]:
    """Median per-layer metrics over the traced operations, plus overhead;
    also the layer table (calls, busy and self time) of the last one."""
    traced = [op for op in ops if op["traced"] and op["error"] is None]
    plain = [op for op in ops if not op["traced"]]
    if not traced or not plain:
        return {k: None for k in units}, ["  no successful traced operation"], {}
    per_op = [layer_metrics(spans_from_events(op["events"])) for op in traced]
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    metrics["tracing_overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                     - statistics.median(op["wall_s"] for op in plain))
    last = traced[-1]["events"]
    trace_path.write_text(json.dumps({"traceEvents": last, "displayTimeUnit": "ms"}))
    table = layer_table(spans_from_events(last))
    lines = [f"  layers of the last traced operation (Chrome trace: {trace_path.relative_to(ROOT)}):"]
    lines += ["    " + line for line in format_table(table).splitlines()]
    lines.append(f"  per-layer metrics, median of {len(traced)} traced operations:")
    lines += [f"    {k:<34}{metrics[k]:>16.6g} {units[k]}" for k in units]
    return metrics, lines, table


def run(args, wl: Workload, work: Path, out_dir: Path, launcher: Launcher) -> dict:
    """Run one workload; print the human-readable report; return the result."""
    bench = Bench(args, wl, work, launcher)
    env = environment(wl, bench.dims)
    nx, ny, nz = bench.dims
    print(f"octseg benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env))
    t = time.perf_counter()
    inputs = bench.setup()
    print(f"inputs: {wl.inputs} x {nx}x{ny}x{nz} {wl.file_dtype} ({wl.file_order} file order), "
          f"L={wl.speckle_looks}{' + lesion' if wl.lesion else ''}, threads={wl.cli_threads}, "
          f"made in {time.perf_counter() - t:.2f} s")

    steal = steal_s()
    t = time.perf_counter()
    ops, import_walls = bench.run_ops(inputs, traced_every=2 if args.trace else 0,
                                      imports=0 if args.trace else SETUP_SAMPLES)
    loop_s = time.perf_counter() - t
    if steal is not None:
        # time the hypervisor ran something else on this machine's CPUs
        env["steal_frac"] = (steal_s() - steal) / (loop_s * (os.cpu_count() or 1))
    attempted = len(ops)
    failed = sum(op["error"] is not None for op in ops)
    print(f"operations: attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4g} (ratio, {failed}/{attempted}), "
          f"loop {loop_s:.1f} s, CPU steal {env.get('steal_frac', float('nan')):.2%}")
    for op in ops:
        if op["error"]:
            print(f"  op {op['id']} failed: {op['error']}")

    # BENCHMARK.json declares the metrics each mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    stem = f"{wl.name}-seed{args.seed}"
    table = None
    if args.trace:
        metrics, lines, table = per_layer(ops, out_dir / f"{stem}.trace.json", units)
    else:
        metrics, lines = bench.end_to_end(inputs, ops, import_walls, units)
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"environment": env, "args": vars(args), "result": result, "layers": table,
              "setup_s_samples": import_walls,
              "operations": [{k: v for k, v in op.items() if k != "events"} for op in ops]}
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return result
