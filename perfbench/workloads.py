"""The three benchmark workloads: one operation each, its warm-up and its output checks.

Every operation drives the program only through its public surface (the
``ndmonogamy`` CLI entry point or public library functions) and receives
only seeds and state arrays that this module derives from the benchmark
seed.  Checks run after the timed region.  Their oracles come from
numpy (``eigh``, ``eigvalsh``, the Born rule as an operator expectation)
applied to the program's operators, never from the code path they check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REGION_SAMPLES = 100_000
VERIFY_SAMPLES = 100_000
BORN_STATES = 1000

WITNESS_TOL = 1e-10
MONOGAMY_SLACK = 1e-9
TOUCH_LINE_TOL = 1e-6
TOUCH_EIGEN_TOL = 1e-5
# The paper prints the quantum CHSH minimum to three decimals.
PAPER_CHSH_QUANTUM = -2.808
PAPER_DIGITS_TOL = 5e-4
VERIFY_CHECK_COUNT = 14

REGION_FILES = ("boundary.csv", "touching_point.csv", "nd_line.csv")
#: product-basis indices of the plus block, |01>, |10>, |21>
PLUS_BLOCK = (1, 2, 5)


def load_program(root: Path):
    """Import ``ndmonogamy`` from ``root/src`` and return the package.

    Raises ``FileNotFoundError`` when the checkout holds no program source,
    and ``ImportError`` when another copy of the package shadows it.
    """
    src = (root / "src").resolve()
    if not (src / "ndmonogamy" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {src / 'ndmonogamy'}")
    sys.path.insert(0, str(src))
    import ndmonogamy

    if Path(ndmonogamy.__file__).resolve().parent != src / "ndmonogamy":
        raise ImportError(f"ndmonogamy imported from {ndmonogamy.__file__}, not {src}")
    return ndmonogamy


def op_seed(seed: int, op: int) -> int:
    """Seed handed to the program for operation ``op`` of a run."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def random_states(seed: int, op: int, count: int) -> np.ndarray:
    """``count`` normalized complex Gaussian qutrit-qubit states."""
    rng = np.random.default_rng([seed, op])
    raw = rng.normal(size=(count, 6)) + 1j * rng.normal(size=(count, 6))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``ndmonogamy <argv>`` in-process; returns (exit code, stdout)."""
    from ndmonogamy import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class OpResult:
    """What one operation produced, before and after its checks."""

    items: int = 0
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    payload: object = None


# ---------------------------------------------------------------------------
# region-export
# ---------------------------------------------------------------------------


def touching_oracle() -> tuple[float, float]:
    """(chsh, kcbs) of the lowest eigenvector of M + N, by numpy's eigh.

    M and N are the Bell and pentagon operators restricted to the plus block.
    """
    from ndmonogamy import quantum

    idx = np.ix_(PLUS_BLOCK, PLUS_BLOCK)
    m = np.real(quantum.chsh_operator()[idx])
    n = np.real(quantum.kcbs_operator()[idx])
    _, vectors = np.linalg.eigh(m + n)
    v = vectors[:, 0]
    return float(v @ m @ v), float(v @ n @ v)


class RegionExport:
    """``ndmonogamy region --samples N --out DIR``; one item per boundary point.

    The command takes no seed: every operation must write the same bytes.
    """

    name = "region-export"

    def __init__(self, workdir: Path, samples: int = REGION_SAMPLES):
        self.workdir = workdir
        self.samples = samples
        self.touch = touching_oracle()
        self.digests: dict[str, str] | None = None

    def warm(self) -> None:
        code, _ = run_cli(["region", "--samples", "2", "--out", str(self.workdir / "warm")])
        if code != 0:
            raise RuntimeError(f"warm-up region export exited {code}")

    def run(self, seed: int, op: int) -> OpResult:
        out = self.workdir / f"op{op}"
        code, stdout = run_cli(["region", "--samples", str(self.samples), "--out", str(out)])
        return OpResult(items=2 * self.samples, out_bytes=len(stdout.encode()), payload=(code, out))

    def check(self, result: OpResult) -> None:
        code, out = result.payload
        if code != 0:
            result.problems.append(f"region exited {code}")
            return
        problems = result.problems
        problems.extend(check_region_files(out, self.samples, self.touch))
        digests = {}
        for name in REGION_FILES:
            path = out / name
            if path.is_file():
                data = path.read_bytes()
                result.out_bytes += len(data)
                digests[name] = hashlib.sha256(data).hexdigest()
        shutil.rmtree(out, ignore_errors=True)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("region files differ from the first operation of the run")


def _csv_columns(path: Path, columns: tuple[int, ...], rows: int) -> tuple[np.ndarray, list[str]]:
    """Numeric ``columns`` of a CSV with a header and exactly ``rows`` rows."""
    lines = path.read_text().splitlines()
    if len(lines) != rows + 1:
        return np.empty((0, len(columns))), [f"{path.name}: {len(lines) - 1} rows, expected {rows}"]
    values = np.loadtxt(lines[1:], delimiter=",", usecols=columns, ndmin=2)
    return values, []


def check_region_files(out: Path, samples: int, touch: tuple[float, float]) -> list[str]:
    """Row counts, the monogamy line and the touching point of a region export."""
    problems = []
    try:
        boundary, bad = _csv_columns(out / "boundary.csv", (3, 4), 2 * samples)
        problems += bad
        line, bad = _csv_columns(out / "nd_line.csv", (0, 1), samples)
        problems += bad
        point, bad = _csv_columns(out / "touching_point.csv", (3, 4), 1)
        problems += bad
    except (OSError, ValueError) as exc:
        return [f"unreadable region export: {exc}"]
    if problems:
        return problems
    sums = boundary.sum(axis=1)
    if not np.all(sums >= -5.0 - MONOGAMY_SLACK):
        problems.append(f"boundary point below chsh+kcbs=-5: min sum {sums.min()!r}")
    if not np.all(np.abs(line.sum(axis=1) + 5.0) <= TOUCH_LINE_TOL):
        problems.append("nd_line.csv leaves the line chsh+kcbs=-5")
    chsh, kcbs = point[0]
    if abs(chsh + kcbs + 5.0) > TOUCH_LINE_TOL:
        problems.append(f"touching point off the line: sum {chsh + kcbs!r}")
    if max(abs(chsh - touch[0]), abs(kcbs - touch[1])) > TOUCH_EIGEN_TOL:
        problems.append(f"touching point ({chsh!r}, {kcbs!r}) is not the eigen-oracle {touch}")
    return problems


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


def paper_bounds_table() -> dict[str, tuple[float, float, float]]:
    """(classical, no-disturbance, quantum) minima of the paper's table."""
    from ndmonogamy import quantum

    chsh_quantum = float(np.linalg.eigvalsh(quantum.chsh_operator())[0])
    if abs(chsh_quantum - PAPER_CHSH_QUANTUM) > PAPER_DIGITS_TOL:
        raise RuntimeError(f"CHSH operator minimum {chsh_quantum} is not the paper's -2.808")
    table = {
        "kcbs": (-3.0, -5.0, 5.0 - 4.0 * math.sqrt(5.0)),
        "chsh": (-2.0, -4.0, chsh_quantum),
        "kcbs+chsh": (-5.0, -5.0, -5.0),
    }
    for i in range(1, 6):
        table[f"c1[{i}]"] = (-3.0, -3.0, -3.0)
        table[f"c2[{i}]"] = (-2.0, -2.0, -2.0)
    return table


def check_bounds_json(text: str, table: dict[str, tuple[float, float, float]]) -> list[str]:
    try:
        rows = json.loads(text)
        got = {r["expression"]: (r["classical_min"], r["nd_min"], r["quantum_min"]) for r in rows}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bounds output is not the JSON table: {exc}"]
    if sorted(got) != sorted(table):
        return [f"bounds rows {sorted(got)} differ from the paper's {sorted(table)}"]
    problems = []
    for name, (classical, nd, quantum) in table.items():
        c, n, q = got[name]
        if c != classical or abs(n - nd) > 1e-6 or abs(q - quantum) > 1e-9:
            problems.append(f"bounds row {name}: {got[name]} against {table[name]}")
    return problems


def check_verify_json(text: str, samples: int, seed: int) -> list[str]:
    try:
        summary = json.loads(text)
        checks = summary["checks"]
        failing = [c["name"] for c in checks if c["passed"] is not True]
        header = (summary["samples"], summary["seed"], summary["passed"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify output is not the JSON summary: {exc}"]
    problems = []
    if len(checks) != VERIFY_CHECK_COUNT:
        problems.append(f"{len(checks)} verify checks, expected {VERIFY_CHECK_COUNT}")
    if failing:
        problems.append(f"failing checks {failing}")
    if header != (samples, seed, True):
        problems.append(f"verify summary header {header}, expected ({samples}, {seed}, True)")
    return problems


class VerifySuite:
    """``bounds --format json`` then ``verify --samples N --seed S --format json``.

    One item is one complete suite pass.  ``perturb_chsh`` forwards the
    CLI's fault-injection flag, which must make every operation fail.
    """

    name = "verify-suite"

    def __init__(self, workdir: Path, samples: int = VERIFY_SAMPLES, perturb_chsh: float = 0.0):
        self.samples = samples
        self.perturb = ["--perturb-chsh", repr(perturb_chsh)] if perturb_chsh else []
        self.table = paper_bounds_table()

    def warm(self) -> None:
        from ndmonogamy import nodisturbance, quantum, region

        code, _ = run_cli(["bounds", "--format", "json"])
        if code != 0:
            raise RuntimeError(f"warm-up bounds exited {code}")
        nodisturbance.sample_behaviors(1, 0)
        quantum.behavior_from_state(np.eye(6, dtype=complex)[0])
        region.gammas()

    def run(self, seed: int, op: int) -> OpResult:
        s = op_seed(seed, op)
        bounds = run_cli(["bounds", "--format", "json"])
        verify = run_cli(
            ["verify", "--samples", str(self.samples), "--seed", str(s), "--format", "json", *self.perturb]
        )
        out_bytes = len(bounds[1].encode()) + len(verify[1].encode())
        return OpResult(items=1, out_bytes=out_bytes, payload=(s, bounds, verify))

    def check(self, result: OpResult) -> None:
        s, (bounds_code, bounds_text), (verify_code, verify_text) = result.payload
        if bounds_code != 0 or verify_code != 0:
            result.problems.append(f"exit codes bounds={bounds_code} verify={verify_code}")
        result.problems += check_bounds_json(bounds_text, self.table)
        result.problems += check_verify_json(verify_text, self.samples, s)


# ---------------------------------------------------------------------------
# born-batch
# ---------------------------------------------------------------------------


class BornBatch:
    """Born-rule behaviors of seeded random states, through JSON and the witnesses.

    One item is one behavior.  The witness values are compared against
    ``quantum.expectation`` of the CHSH and KCBS operators on the same
    states, which never builds a behavior.
    """

    name = "born-batch"

    def __init__(self, workdir: Path, states: int = BORN_STATES):
        from ndmonogamy import quantum

        self.count = states
        self.kcbs_op = quantum.kcbs_operator()
        self.chsh_op = quantum.chsh_operator()

    def warm(self) -> None:
        self._batch(random_states(0, 0, 1))

    def _batch(self, states: np.ndarray):
        from ndmonogamy import quantum
        from ndmonogamy.scenario import Behavior, check_no_disturbance, chsh_value, kcbs_value

        rows = []
        for psi in states:
            behavior = quantum.behavior_from_state(psi)
            loaded = Behavior.from_json(behavior.to_json())
            rows.append(
                (behavior, loaded, check_no_disturbance(loaded), kcbs_value(loaded), chsh_value(loaded))
            )
        kcbs_ref = quantum.expectation(self.kcbs_op, states)
        chsh_ref = quantum.expectation(self.chsh_op, states)
        return rows, kcbs_ref, chsh_ref

    def run(self, seed: int, op: int) -> OpResult:
        states = random_states(seed, op, self.count)
        return OpResult(items=self.count, payload=self._batch(states))

    def check(self, result: OpResult) -> None:
        rows, kcbs_ref, chsh_ref = result.payload
        problems = result.problems
        if len(rows) != self.count:
            problems.append(f"{len(rows)} behaviors, expected {self.count}")
        for k, (behavior, loaded, violations, kcbs, chsh) in enumerate(rows):
            if behavior.probs.tobytes() != loaded.probs.tobytes():
                problems.append(f"state {k}: JSON round trip is not bit-exact")
            if violations:
                problems.append(f"state {k}: {len(violations)} no-disturbance violations")
            gap = max(abs(kcbs - kcbs_ref[k]), abs(chsh - chsh_ref[k]))
            if not gap <= WITNESS_TOL:
                problems.append(f"state {k}: witness gap {gap!r} to the operator path")
            if len(problems) >= 5:
                break


WORKLOADS = {w.name: w for w in (RegionExport, VerifySuite, BornBatch)}


def timed_op(workload, seed: int, op: int) -> tuple[float, float, OpResult]:
    """Run one operation, time it, then check it; returns (start, wall, result).

    An exception inside the operation is reported on stderr and counted
    as a failed check, so one bad operation does not end the run.
    """
    start = time.perf_counter()
    try:
        result = workload.run(seed, op)
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc()
        return start, wall, OpResult(problems=["operation raised"])
    wall = time.perf_counter() - start
    try:
        workload.check(result)
    except Exception:
        traceback.print_exc()
        result.problems.append("output check raised")
    result.payload = None  # so memory does not grow with the number of operations
    return start, wall, result
