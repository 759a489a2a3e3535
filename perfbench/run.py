"""End-to-end benchmark of the ``repro`` CLI and library, by workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2-accuracy --seed 0 --seconds 30 --trace 0

Workloads (closed loop, one client: each pass starts when the previous
one has returned; every pass runs in a fresh interpreter on the serial
backend with the BLAS pinned to one thread):

``table2-accuracy``
    ``repro table2`` over the full grid (8 datasets x 3 pdf families x
    the 7-algorithm accuracy roster) at one run per cell and 100 objects.
``figure5-scalability``
    Figure 5's KDD-shaped data (m = 42, k = 23) at a 400-object base, all
    five fractions, the fast roster: ``repro figure5 --base-size 400``.
``sweep-quick``
    ``repro sweep --quick`` into a fresh JSON store, ``--resume`` over the
    finished store, then ``repro store summary``.

``--seed`` becomes the program's master ``--seed``; the program generates
its own inputs from it.  With ``--trace 0`` the run makes as many passes
as fit in ``--seconds`` (at least three) and reports medians of
``setup_s`` (``import repro`` plus ``repro.cli.build_parser()``),
``wall_s`` and ``cpu_s`` of a pass, ``peak_rss_mb`` of the pass's
process, and ``ok_frac``, the share of attempted cells that passed every
check.  The three times are rescaled to a reference machine speed (see
:data:`CALIB_REF_S`); the raw seconds are on the info line.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer numbers, as measured.  Either way the last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the machine, the raw measurements and the
load.

Outputs are checked on every pass (see :mod:`perfbench.workloads`), and
each pass's digest is compared with ``perfbench/reference.json`` for the
committed seeds, or with the run's first pass for any other seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(ROOT))
from perfbench import probes  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Seconds the calibration kernel (:mod:`perfbench.calibrate`) takes at
#: the reference speed (a quiet 2-core x86_64 box).  End-to-end times are
#: reported at that speed: on a shared machine whose speed drifts by a
#: third within minutes, the raw times of one run spread too widely to
#: compare two runs; the raw times are printed on the info line.
CALIB_REF_S = 0.035

#: Fewest passes a run makes, however long they take.
MIN_PASSES = 3
#: Fewest set-up samples per run: every pass's interpreter gives one,
#: set-up-only interpreters make up the rest.
SETUP_SAMPLES = 5
#: Every child must finish before the run's hard limit.
RUN_LIMIT_S = 170.0
#: Pinned for every child: one BLAS thread, so CPU time equals work.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed cell)."""


class Children:
    """Runs worker processes from the checkout, within the run's limit."""

    def __init__(self, limit_s: float = RUN_LIMIT_S):
        self.deadline = time.monotonic() + limit_s
        self.env = dict(os.environ, **THREAD_PINS)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
        )
        self.count = 0
        self.calibration: Optional[List[float]] = None

    def run(self, *args: str, python_flags: Sequence[str] = ()) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before the next child")
        try:
            return subprocess.run(
                [sys.executable, *python_flags, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"child timed out: {' '.join(args)}") from error

    def worker(self, *args: str) -> dict:
        self.count += 1
        proc = self.run("-m", "perfbench.worker", *args)
        if proc.returncode != 0:
            raise BenchError(
                f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["repro"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported repro from {result['repro']}, not src/")
        return result

    def calibrate(self) -> List[float]:
        """Times of the calibration kernel, in an interpreter of its own."""
        proc = self.run("-m", "perfbench.calibrate")
        if proc.returncode != 0:
            raise BenchError(f"calibration failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed(self, run: Callable[[], dict]) -> dict:
        """``run()``'s worker result with ``calib_s``, the median of the
        calibrations made just before and just after it.  Consecutive
        workers share the calibration between them."""
        if self.calibration is None:
            self.calibration = self.calibrate()
        result = run()
        after = self.calibrate()
        result["calib_s"] = statistics.median(self.calibration + after)
        self.calibration = after
        return result

    def one_pass(self, workload: str, seed: int, trace: bool, pass_id: int) -> dict:
        return self.timed(lambda: self.worker(
            "--workload", workload,
            "--seed", str(seed),
            "--trace", "1" if trace else "0",
            "--pass-id", str(pass_id),
            "--workdir", str(WORK / f"{workload}-{os.getpid()}-{self.count}"),
        ))


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def load_reference() -> Dict[str, Dict[str, str]]:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def reference_digest(workload: str, seed: int) -> Optional[str]:
    """The committed digest of ``workload`` at ``seed``, if recorded."""
    return load_reference().get(workload, {}).get(str(seed))


def score(passes: Sequence[dict], expected: Optional[str]) -> tuple[int, int, List[str]]:
    """``(attempted, failed, notes)`` over passes, against one digest.

    A cell fails when its pass reports it failed; every cell of a pass
    fails when the pass's digest differs from ``expected`` (the committed
    reference, else the run's first pass).  Traced and untraced passes
    are scored against the same digest, so a trace that changed a result
    fails its cells.
    """
    if expected is None:
        expected = passes[0]["digest"]
    attempted = failed = 0
    notes: List[str] = []
    for number, result in enumerate(passes):
        attempted += result["cells"]
        bad = len(result["failures"])
        notes += [f"pass {number}: {f}" for f in result["failures"][:3]]
        if result["digest"] != expected:
            bad = result["cells"]
            notes.append(f"pass {number}: digest {result['digest'][:12]} != {expected[:12]}")
        failed += min(bad, result["cells"])
    return attempted, failed, notes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def at_reference(seconds: float, worker: dict) -> float:
    """``seconds`` rescaled to the machine speed at which calibration takes
    :data:`CALIB_REF_S`, using the calibrations around ``worker``."""
    return seconds * CALIB_REF_S / worker["calib_s"]


def measure(children: Children, workload: str, seed: int, seconds: float):
    begin = time.monotonic()
    passes: List[dict] = []
    while True:
        started = time.monotonic()
        passes.append(children.one_pass(workload, seed, False, len(passes)))
        last = time.monotonic() - started
        elapsed = time.monotonic() - begin
        if len(passes) >= MIN_PASSES and elapsed + last > seconds:
            break
    attempted, failed, notes = score(passes, reference_digest(workload, seed))
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(children.timed(lambda: children.worker("--setup-only")))
    def median(values):
        return statistics.median(list(values))

    metrics = {
        "setup_s": metric(median(at_reference(w["setup_s"], w) for w in setups), "s"),
        "wall_s": metric(median(at_reference(p["wall_s"], p) for p in passes), "s"),
        "cpu_s": metric(median(at_reference(p["cpu_s"], p) for p in passes), "s"),
        "peak_rss_mb": metric(median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "measured": {
            key: [w[key] for w in (setups if key == "setup_s" else passes)]
            for key in ("setup_s", "wall_s", "cpu_s", "calib_s")
        },
        "load": passes[0]["load"],
    }
    return attempted, failed, notes, metrics, info, True


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text: str) -> Dict[str, float]:
    """``-X importtime`` output as ``import.*`` seconds.

    ``import.repro_s`` is the cumulative time of ``import repro``; the
    third-party entries are the self time summed over every module of
    that package, wherever in the tree it was first imported.
    """
    totals = {"import.repro_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0}
    for own, cumulative, _, module in IMPORTTIME.findall(text):
        package = module.split(".")[0]
        if module == "repro":
            totals["import.repro_s"] = int(cumulative) / 1e6
        elif package in ("numpy", "scipy"):
            totals[f"import.{package}_s"] += int(own) / 1e6
    return totals


def import_breakdown(children: Children, samples: int = 3) -> Dict[str, float]:
    runs = []
    for _ in range(samples):
        proc = children.run("-c", "import repro", python_flags=("-X", "importtime"))
        if proc.returncode != 0:
            raise BenchError(f"import repro failed: {proc.stderr.strip()[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def per_layer(traced: Sequence[dict], untraced: Sequence[dict], imports: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric from the traced and untraced passes.

    Layer times are raw seconds as measured; only ``trace.overhead_s``,
    a difference between passes, is taken at reference speed.
    """
    def median(get):
        return statistics.median(get(p) for p in traced)

    out = {key: metric(value, "s") for key, value in imports.items()}
    for key in traced[0]["trace"]["layers"]:
        out[key] = metric(median(lambda p: p["trace"]["layers"][key]), "s")
    for key in traced[0]["trace"]["times"]:
        out[key] = metric(median(lambda p: p["trace"]["times"][key]), "s")
    counts = traced[0]["trace"]["counts"]
    for key, value in counts.items():
        out[key] = metric(value, "count")
    for alg in probes.PRUNING:
        pruned = counts[f"clustering.{alg}.ed_pruned"]
        total = pruned + counts[f"clustering.{alg}.ed_evaluations"]
        out[f"clustering.{alg}.pruning_rate"] = metric(pruned / total if total else 0.0, "ratio")
    out["engine.store.bytes"] = metric(traced[0]["load"].get("store_bytes", 0), "bytes")
    out["trace.coverage"] = metric(median(lambda p: p["trace"]["coverage"]), "ratio")
    # Traced and untraced passes ran at different moments: compare them
    # at reference speed, like the end-to-end times.
    out["trace.overhead_s"] = metric(
        median(lambda p: at_reference(p["trace"]["wall_s"], p))
        - statistics.median(at_reference(p["wall_s"], p) for p in untraced),
        "s",
    )
    return out


def trace(children: Children, workload: str, seed: int, seconds: float):
    imports = import_breakdown(children)
    begin = time.monotonic()
    untraced: List[dict] = []
    traced: List[dict] = []
    while True:
        started = time.monotonic()
        untraced.append(children.one_pass(workload, seed, False, len(untraced)))
        traced.append(children.one_pass(workload, seed, True, len(traced)))
        last = time.monotonic() - started
        if len(traced) >= 2 and time.monotonic() - begin + last > seconds:
            break
    everything = untraced + traced
    attempted, failed, notes = score(everything, reference_digest(workload, seed))
    counts = [p["trace"]["counts"] for p in traced]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        changed = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        notes.append(f"counts differ between traced passes: {changed}")
    WORK.mkdir(exist_ok=True)
    (WORK / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps([row for p in traced for row in p["spans"]])
    )
    info = {"passes": len(everything), "traced_passes": len(traced), "load": traced[0]["load"]}
    return attempted, failed, notes, per_layer(traced, untraced, imports), info, repeat


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    children = Children()
    try:
        host = children.worker("--setup-only")["machine"]
        run = trace if args.trace else measure
        attempted, failed, notes, metrics, info, steady = run(
            children, args.workload, args.seed, args.seconds
        )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=host)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
