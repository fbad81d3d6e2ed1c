"""Baseline report: every workload untraced and traced, with the machine it ran on.

Run from the root of a checkout::

    python3 perfbench/report.py --seed 1 --seconds 30 --out perfbench/baseline.json

For each workload it makes ``PAIRS`` untraced/traced run pairs and
records each metric's median over them: the end-to-end metrics (untraced
runs), the per-layer metrics (traced runs), each layer's self time as a
share of the traced ``op_s_p50``, and the tracing overhead, the median
over pairs of traced minus untraced ``op_s_p50``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS and OpenMP thread counts before numpy loads
import workloads

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 300
#: untraced/traced run pairs per workload
PAIRS = 3


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, when it can be asked."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in run.THREAD_VARS},
        "git_commit": git_commit(root),
    }


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def medians(runs: list[dict]) -> dict:
    """Each metric's median over ``runs``."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    root = Path.cwd()

    report = {"machine": machine(root), "seed": args.seed, "seconds": args.seconds,
              "pairs": PAIRS, "workloads": {}}
    for name in workloads.WORKLOADS:
        plain, traced, traced_ops = [], [], []
        for _ in range(PAIRS):
            plain.append(bench(name, args.seed, args.seconds, 0))
            traced.append(bench(name, args.seed, args.seconds, 1))
            header = root / run.OUT_DIR / f"trace-{name}-seed{args.seed}.header.json"
            traced_ops.append(json.loads(header.read_text())["op_s_p50"])
        e2e = medians([values(r) for r in plain])
        layers = medians([values(r) for r in traced])
        overheads = [t - values(p)["op_s_p50"] for p, t in zip(plain, traced_ops)]
        traced_op = statistics.median(traced_ops)
        shares = {
            key[: -len(".self_s")]: layers[key] / traced_op
            for key in layers
            if key.endswith(".self_s") and layers[key] > 0
        }
        report["workloads"][name] = {
            "end_to_end": e2e,
            "attempted": [r["attempted"] for r in plain],
            "failed": [r["failed"] for r in plain],
            "per_layer": layers,
            "self_time_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "traced_op_s_p50": traced_op,
            "trace_overhead_s": statistics.median(overheads),
            "trace_overhead_s_per_pair": overheads,
        }
        print(f"{name}: op_s_p50 {e2e['op_s_p50']:.4g} s untraced, {traced_op:.4g} s traced")
        for layer, share in report["workloads"][name]["self_time_share"].items():
            print(f"  {layer:<32} {100 * share:5.1f}%")
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
