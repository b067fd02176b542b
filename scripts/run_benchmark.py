"""Time the full three-boundary segmentation on a synthetic volume.

Generates a speckled phantom at clinical scan dimensions, quantises it to
u8 samples as a u8 raw file holds them (the README cube and perfbench's
macular workload segment such a file), runs the cascade, and prints a
per-stage timing table from the run reports, the
time to save each surface as CSV and to load it back, the process's peak
resident set size next to the cascade's own peak allocation (tracemalloc,
from one more, untimed run), the peak resident set size of one
``octseg segment`` child run on those samples written as a u8 raw file
with the pipeline stage in which its sampled VmRSS peaked (where
/proc/self/status exists), and the cold-start cost that every CLI call
pays: the wall and CPU time of a child process that only imports
octseg.cli.
"""

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import octseg
from octseg.phantom import PhantomSpec, generate_phantom, surface_error
from octseg.pipeline import segment_retina
from octseg.surfaces import load_surface, save_surface
from octseg.volume import Volume, save_volume

# one row per key of a boundary report's stage_s ("enhance" scores and picks)
STAGES = ("derivative", "smoothing", "enhance", "outlier_reject", "regularize")


def parse_dims(text):
    parts = [int(p) for p in text.split("x")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("dims must look like 300x99x480")
    return tuple(parts)


def cli_import_s(runs=5):
    """Median wall time and median CPU time (user + sys, the change in the
    rusage of waited-for children) of a fresh ``python -c "import octseg.cli"``."""
    env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))

    def children_cpu_s():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    walls, cpus = [], []
    for _ in range(runs):
        c0, t0 = children_cpu_s(), time.perf_counter()
        subprocess.run([sys.executable, "-c", "import octseg.cli"], env=env, check=True)
        walls.append(time.perf_counter() - t0)
        cpus.append(children_cpu_s() - c0)
    return statistics.median(walls), statistics.median(cpus)


# Runs the command in its argv and prints its exit code and ru_maxrss (KiB):
# Linux folds into a child's rusage the peak of the address space that it
# leaves at exec, for a vfork'd child its parent's, so the command is spawned
# from this small process and not from the script, which holds the phantom
_RUN_AND_WAIT = (
    "import os, subprocess, sys\n"
    "pid = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL).pid\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


# Runs `octseg segment` with the arguments after its first, a file that it
# writes "<VmRSS peak KiB> <stage>" to when /proc/self/status exists: a thread
# reads VmRSS every 0.5 ms, and the pipeline's stage timer names the stage
# that is running, or the last one that ended ("after ..."), or "start-up"
_SAMPLED_SEGMENT = (
    "import contextlib, os, sys, threading\n"
    "import octseg.cli, octseg.pipeline as pipeline\n"
    "STATUS = '/proc/self/status'\n"
    "out, argv, peak, stage = sys.argv[1], sys.argv[2:], [0, 'start-up'], ['start-up']\n"
    "timed, done = pipeline._stage, threading.Event()\n"
    "@contextlib.contextmanager\n"
    "def _stage(report, name):\n"
    "    stage[0] = f'{report.name} {name}'\n"
    "    with timed(report, name):\n"
    "        yield\n"
    "    stage[0] = f'after {report.name} {name}'\n"
    "def sample():\n"
    "    with open(STATUS, 'rb', buffering=0) as f:\n"
    "        while True:\n"
    "            f.seek(0)\n"
    "            kib = int(f.read().split(b'VmRSS:')[1].split()[0])\n"
    "            if kib > peak[0]:\n"
    "                peak[:] = [kib, stage[0]]\n"
    "            if done.wait(0.0005):\n"
    "                return\n"
    "sampler = None\n"
    "if os.path.exists(STATUS):\n"
    "    pipeline._stage = _stage\n"
    "    sampler = threading.Thread(target=sample, daemon=True)\n"
    "    sampler.start()\n"
    "code = octseg.cli.run(argv)\n"
    "if sampler is not None:\n"
    "    done.set()\n"
    "    sampler.join()\n"
    "    with open(out, 'w') as f:\n"
    "        f.write(f'{peak[0]} {peak[1]}')\n"
    "sys.exit(code)\n"
)


def cli_segment_peak_mib(volume, threads):
    """Peak RSS in MiB of one ``octseg segment`` child on the samples of
    ``volume`` written as a u8 raw file, with the stage its sampled VmRSS
    peaked in and that peak in MiB (None, None where /proc is absent)."""
    env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
    with tempfile.TemporaryDirectory() as tmp:
        raw, sampled = Path(tmp) / "volume.raw", Path(tmp) / "sampled.txt"
        save_volume(volume, raw, dtype="u8")
        argv = [sys.executable, "-c", _SAMPLED_SEGMENT, str(sampled), "segment",
                "--in", str(raw), "--meta", f"{raw}.json", "--out-dir", str(Path(tmp) / "seg"),
                "--threads", str(threads)]
        p = subprocess.run([sys.executable, "-c", _RUN_AND_WAIT, *argv], env=env,
                           capture_output=True, text=True, check=True)
        stage = vm_mib = None
        if sampled.exists():
            kib, stage = sampled.read_text().split(" ", 1)
            vm_mib = int(kib) / 1024
    code, maxrss_kib = (int(v) for v in p.stdout.split())
    if code != 0:
        raise RuntimeError(f"octseg segment exited with {code}: {p.stderr.strip()}")
    return maxrss_kib / 1024, stage, vm_mib


def surface_csv_s(surfaces, repeat):
    """Fastest of ``repeat`` rounds of saving every surface as CSV, and of
    loading them back: the files a segment run writes and review reads."""
    save_s = load_s = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: Path(tmp) / f"{key}.csv" for key in surfaces}
        for _ in range(repeat):
            t0 = time.perf_counter()
            for key, surface in surfaces.items():
                save_surface(surface, paths[key])
            t1 = time.perf_counter()
            for path in paths.values():
                load_surface(path)
            t2 = time.perf_counter()
            save_s, load_s = min(save_s, t1 - t0), min(load_s, t2 - t1)
    return save_s, load_s


def traced_peak_volumes(volume, threads):
    """The cascade's tracemalloc peak above its input, in float32 volumes
    of the input's dims, from one untimed run."""
    tracemalloc.start()
    try:
        segment_retina(volume, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (volume.data.size * 4)


def timed_runs(args):
    """Segment a phantom ``args.repeat`` times; the fastest run, the truth
    and the phantom."""
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    looks = args.looks if args.looks > 0 else None
    spec = PhantomSpec.default(dims=args.dims, seed=args.seed, speckle_looks=looks)

    t0 = time.perf_counter()
    volume, truth = generate_phantom(spec)
    # the samples of a u8 file written from the phantom, as `octseg segment` reads them
    volume = Volume(np.clip(np.rint(volume.data * 255.0), 0, 255).astype(np.uint8), scale=255)
    gen_s = time.perf_counter() - t0
    print(f"phantom {args.dims[0]}x{args.dims[1]}x{args.dims[2]} u8 "
          f"looks={looks} generated in {gen_s:.2f}s")

    best = None
    for run in range(args.repeat):
        result = segment_retina(volume, threads=args.threads)
        print(f"run {run + 1}/{args.repeat}: total {result.total_wall_s:.3f}s "
              f"(threads={args.threads})")
        if best is None or result.total_wall_s < best.total_wall_s:
            best = result
    return best, truth, volume


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=parse_dims, default=(300, 99, 480),
                        help="volume dimensions as NXxNYxNZ (default 300x99x480)")
    parser.add_argument("--looks", type=int, default=4,
                        help="speckle looks, 0 for noiseless (default 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3,
                        help="number of timed runs (default 3)")
    args = parser.parse_args()
    try:
        best, truth, volume = timed_runs(args)
    except ValueError as e:  # bad dims, thread count or repeat count
        print(f"error: {e}", file=sys.stderr)
        return 2

    print()
    header = f"{'stage':<16}" + "".join(f"{r.name:>10}" for r in best.reports)
    print(header)
    print("-" * len(header))
    for stage in STAGES:
        cells = "".join(f"{r.stage_s[stage]:>10.3f}" for r in best.reports)
        print(f"{stage:<16}{cells}")
    print("-" * len(header))
    cells = "".join(f"{r.wall_s:>10.3f}" for r in best.reports)
    print(f"{'boundary total':<16}{cells}")
    save_s, load_s = surface_csv_s(best.surfaces, args.repeat)
    print(f"\nsurface CSV I/O: save {save_s:.3f}s, load {load_s:.3f}s "
          f"({', '.join(best.surfaces)}; fastest of {args.repeat})")
    print(f"pipeline total {best.total_wall_s:.3f}s, "
          f"ordering fixed {best.ordering_fixed_columns} columns")
    # ru_maxrss is in KiB on Linux; it covers phantom generation too
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mib:.1f} MiB (ru_maxrss, phantom generation included); "
          f"cascade peak {traced_peak_volumes(volume, args.threads):.2f} float volumes "
          "above the input (tracemalloc, one untimed run)")
    cli_peak, stage, vm_mib = cli_segment_peak_mib(volume, args.threads)
    print(f"CLI segment peak RSS {cli_peak:.1f} MiB "
          "(ru_maxrss of one `octseg segment` child on the phantom's u8 file)")
    if stage is None:
        print("CLI segment peak stage not sampled (no /proc/self/status)")
    else:
        print(f"CLI segment RSS peaked in {stage} (VmRSS {vm_mib:.1f} MiB, sampled every 0.5 ms)")
    wall_s, cpu_s = cli_import_s()
    print(f"CLI start-up {wall_s:.3f}s wall, {cpu_s:.3f}s CPU "
          "(median of 5 child processes running `import octseg.cli`; CPU is user + sys)")

    print("\naccuracy vs ground truth (voxels; mean is signed, + deeper than the truth):")
    for key in ("ilm", "isos", "rpe"):
        err = surface_error(best.surfaces[key], getattr(truth, key))
        print(f"  {key:<5} rms={err.rms:.3f}  mean={err.mean:+.3f}  "
              f"mean_abs={err.mean_abs:.3f}  max_abs={err.max_abs:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
