"""ndmonogamy benchmark: one workload, one process, one thread.

Run from the root of a checkout::

    python3 perfbench/run.py --workload region-export --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

- ``region-export``: ``ndmonogamy region --samples 100000``; the boundary
  sampler and CSV export, never the no-disturbance or scenario layers.
- ``verify-suite``: ``bounds`` then ``verify --samples 100000``; every
  LP, enumeration, join and eigensystem, almost none of the boundary.
- ``born-batch``: 1000 random states through the Born rule, behavior
  JSON, the no-disturbance check and both witnesses.

The run measures set-up time in fresh processes, warms the caches, then
repeats operations (each with its own seed derived from ``--seed``)
until ``--seconds`` have passed, checking every output.

Every reported time is gauged.  While the run lasts, SIGALRM interrupts
it every ``SAMPLE_INTERVAL_S`` to time a short fixed pure-Python loop, a
sample of the host's current speed.  A step's gauged time is its wall
time minus the samples taken inside it, scaled by ``NOMINAL_SAMPLE_S``
over the mean of those samples.  On a shared host whose speed drifts by
tens of percent within seconds, this cancels most of the drift (the step
and the loop slow down together) while any change in the program's own
work still shows in full.  The raw wall-clock median is printed next to
the gauged one.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps the program's public functions (``tracer.py``), reports
per-layer metrics and writes every span to ``.perfbench_out/``, with a
small ``.header.json`` beside it that holds the traced ``op_s_p50``.
Per-layer metrics are per operation: counts from the run's first
operation (so they repeat exactly for a seed), times the median over
operations.  The last line of stdout is the JSON result.  The exit code
is 0 when every operation passed its checks, 1 when one failed, 2 when
no program is found, and 3 when a function the trace wraps is missing.
"""

import os

# One thread everywhere: set before numpy loads, inherited by the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
SAMPLE_INTERVAL_S = 0.1
SAMPLE_LOOPS = 100_000
BRACKET_SAMPLES = 10
# Close to the sample loop's median time on the 2-vCPU Xeon host the
# baseline was taken on, so gauged seconds read close to wall seconds there.
NOMINAL_SAMPLE_S = 0.005

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "items_per_s": "1/s",
    "pass_frac": "fraction",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--perturb-chsh",
        type=float,
        default=0.0,
        help="verify-suite only: forward this fault injection; every operation must then fail",
    )
    args = parser.parse_args(argv)
    if args.perturb_chsh and args.workload != "verify-suite":
        parser.error("--perturb-chsh applies to verify-suite only")
    return args


class HostGauge:
    """Samples of the host's speed, taken from SIGALRM while the gauge is entered."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self, signum=None, frame=None) -> float:
        """Time the fixed loop once, record and return its seconds."""
        start = time.perf_counter()
        total = 0
        for i in range(SAMPLE_LOOPS):
            total += i
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        return end - start

    def __enter__(self) -> "HostGauge":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(scale, seconds sampled) for a step from ``start`` to ``end``.

        Uses the samples that ended inside the step, or the latest one
        before it when the step was too short to be sampled.
        """
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.durations[lo:hi] or self.durations[max(lo - 1, 0) : lo]
        return NOMINAL_SAMPLE_S / statistics.fmean(inside), sum(self.durations[lo:hi])


def measure_setup(workload: str, workdir: Path, gauge: HostGauge) -> list[float]:
    """Gauged set-up seconds of ``SETUP_PROBES`` fresh processes, one after another.

    Call with the sampling timer off: a probe is gauged by samples taken
    right before and right after it, while no probe runs.
    """

    def speed() -> float:
        return statistics.fmean(gauge.sample() for _ in range(BRACKET_SAMPLES))

    values = []
    for k in range(SETUP_PROBES):
        before = speed()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir / f"probe{k}")],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        scale = NOMINAL_SAMPLE_S / ((before + speed()) / 2.0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
        values.append(float(proc.stdout.split()[-1]) * scale)
    return values


def run_ops(workload, seed: int, seconds: float, tracer: Tracer | None, gauge: HostGauge):
    """Operations until ``seconds`` have passed; returns (walls, gauged, results)."""
    walls, gauged, results = [], [], []
    start = time.perf_counter()
    op = 0
    while op == 0 or time.perf_counter() - start < seconds:
        if tracer:
            tracer.start_op(op)
        op_start, wall, result = workloads.timed_op(workload, seed, op)
        scale, sampled = gauge.scale(op_start, op_start + wall)
        if tracer:
            # The samples fall evenly in time, so every span loses the same share to them.
            tracer.end_op(result.out_bytes, scale * (wall - sampled) / wall)
        for problem in result.problems:
            print(f"op {op} failed: {problem}", file=sys.stderr)
        walls.append(wall)
        gauged.append((wall - sampled) * scale)
        results.append(result)
        op += 1
    return walls, gauged, results


def peak_rss_mb() -> float:
    """This process's peak resident memory, ``VmHWM``.

    Not ``ru_maxrss``: exec folds the peak of the launcher's memory map
    into it, so it would never read below the launcher's own peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end(setup: list[float], op_s: list[float], results) -> dict[str, float]:
    passed = [r for r in results if not r.problems]
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(op_s),
        "items_per_s": statistics.median(
            (0 if r.problems else r.items) / t for r, t in zip(results, op_s)
        ),
        "pass_frac": len(passed) / len(results),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        workloads.load_program(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    gauge = HostGauge()
    try:
        setup = measure_setup(args.workload, workdir, gauge)
        with gauge:
            extra = {"perturb_chsh": args.perturb_chsh} if args.perturb_chsh else {}
            workload = workloads.WORKLOADS[args.workload](workdir, **extra)
            workload.warm()
            try:
                tracer = Tracer().install() if args.trace else None
            except LookupError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 3
            try:
                walls, op_s, results = run_ops(workload, args.seed, args.seconds, tracer, gauge)
            finally:
                if tracer:
                    tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in results if r.problems)
    e2e = end_to_end(setup, op_s, results)
    print(f"workload {args.workload}, seed {args.seed}, {len(results)} ops, trace {args.trace}")
    print(f"  fail_frac    {failed / len(results):.6g} ({failed}/{len(results)} ops failed)")
    print(f"  wall_s_p50   {statistics.median(walls):.6g} s raw; host sample p50 "
          f"{statistics.median(gauge.durations):.4g} s against {NOMINAL_SAMPLE_S} s nominal")
    if tracer:
        values = tracer.per_layer()
        units = per_layer_metrics()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        traced_p50 = e2e["op_s_p50"]
        header = {"workload": args.workload, "seed": args.seed, "op_s_p50": traced_p50,
                  "op_wall_s": walls, "op_s": op_s, "failed": failed}
        stem = out / f"trace-{args.workload}-seed{args.seed}"
        Path(f"{stem}.header.json").write_text(json.dumps(header) + "\n")
        tracer.dump(Path(f"{stem}.json.gz"), header)
        print(f"  spans        {len(tracer.spans)} written to {OUT_DIR}/{stem.name}.json.gz")
        for name, value in sorted(values.items(), key=lambda kv: -kv[1]):
            if name.endswith(".self_s") and value > 0:
                print(f"  {name:<36} {value:.6g} s ({100 * value / traced_p50:.1f}% of traced op_s_p50)")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
