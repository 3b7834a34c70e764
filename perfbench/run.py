"""Cold-process benchmark for siegelalg.

    python3 perfbench/run.py --workload paper-battery --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40     # every workload, one table
    python3 perfbench/run.py --record-golden                 # rewrite golden.json

Run from anywhere; the package is imported from ``src/`` next to this
directory, and nothing needs installing. Every operation runs in a fresh
``perfbench/child.py`` process (``python -m siegelalg`` plus a clock reading
after the import), one at a time: a closed loop with one client, so the
solver caches always start cold.

With ``--trace 0`` a run executes one full pass over the workload's items,
then repeats items while one is expected to end inside ``--seconds``, and
prints the end-to-end metrics (tracing off), scaled by the run's timing of
``reference.py`` to a fixed machine speed. With ``--trace 1`` it
makes one traced pass and one untraced pass, whatever ``--seconds``, and
prints the per-layer metrics. Progress goes to stderr; stdout carries ``#`` lines
(environment, metric table) and, last, one JSON result line. The exit code is
0 when every operation was correct, 1 when one failed, 2 on a usage error or
a checkout without the package.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gen_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT: dense-specs outputs carry the spec path in their label,
# so it must not change between runs for the golden hashes to hold.
WORK = Path(".bench_build") / "perfbench"
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_PROBES = 7  # per batch; three batches per run
# A fixed constant close to the reference task's wall time on the 2-vCPU
# machine the benchmark was built on (run medians 0.060-0.103 s). Times are
# reported as measured seconds scaled by REFERENCE_NOMINAL_S / (the run's
# median reference time); see end_to_end.
REFERENCE_NOMINAL_S = 0.080
# Children still running this long after the harness started are killed, so a
# run ends well inside the 180 s a benchmark run may take.
HARD_LIMIT_S = 165.0

WORKLOADS = ("paper-battery", "catalog-ladder", "dense-specs")
# Spans (named in tracer.SPANS) that must record calls in a traced run of each
# workload; the graded solvers and rref run on every workload and are checked
# separately.
EXPECTED_SPANS = {
    "paper-battery": ("cones.spec_build", "catalog.build", "graded.solve_all",
                      "homogeneity.verdict", "poly.generic_rank", "fields.materialize",
                      "fields.check_grading", "fields.bracket", "hermitian.compat_check"),
    "catalog-ladder": ("cones.spec_build", "catalog.build", "graded.solve_all",
                       "serialize.bases_json"),
    "dense-specs": ("cones.spec_build", "graded.solve_all", "hermitian.compat_check",
                    "serialize.load_spec", "serialize.bases_json"),
    "smoke": ("cones.spec_build", "catalog.build", "graded.solve_all", "serialize.bases_json"),
}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "item_max_s": "s",
                    "peak_rss_mb": "MB", "ops_ok_ratio": "ratio"}


@dataclass(frozen=True)
class Item:
    """One CLI invocation of a workload."""

    key: str
    argv: tuple[str, ...]
    golden: bool = True            # stdout must hash to golden.json[key]
    dims: Optional[dict] = None    # expected "dims" of a dims --format json output
    s: Optional[int] = None        # expected "s" of the same output


@dataclass(frozen=True)
class Sample:
    key: str
    wall: float
    cpu: float
    rss_mb: float
    setup: Optional[float]
    returncode: int
    stdout: bytes
    trace: Optional[dict]


def _dims(*domain: str) -> tuple[str, ...]:
    return ("dims", *domain, "--emit-bases", "--format", "json")


LADDER = {
    "ball5": ("--domain", "ball", "--n", "5"),
    "ball6": ("--domain", "ball", "--n", "6"),
    "ball7": ("--domain", "ball", "--n", "7"),
    "ballproduct2_2_2": ("--domain", "ballproduct", "--factors", "2,2,2"),
    "ballproduct3_3": ("--domain", "ballproduct", "--factors", "3,3"),
}


def build_items(workload: str, seed: int) -> list[Item]:
    """The items of one pass; dense-specs writes its documents under WORK."""
    if workload == "paper-battery":
        return [Item("verify-paper", ("verify-paper", "--format", "json"))]
    if workload == "catalog-ladder":
        items = [Item(key, _dims(*domain)) for key, domain in LADDER.items()]
        random.Random(seed).shuffle(items)
        return items
    if workload == "dense-specs":
        specs = WORK / "specs"
        manifest = gen_specs.generate(seed, ROOT / specs)
        return [
            Item(f"dense-specs/{doc['file']}", _dims("--spec", str(specs / doc["file"])),
                 golden=seed == DEFAULT_SEED, dims=doc["dims"], s=doc["s"])
            for doc in manifest
        ]
    if workload == "smoke":
        return [Item("ball3", _dims("--domain", "ball", "--n", "3"))]
    raise ValueError(f"unknown workload {workload!r}")


def _child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn(argv: tuple[str, ...], tag: str, deadline: float, trace: bool = False,
          key: str = "") -> Sample:
    """Run one child to completion; kill it if it is still running at ``deadline``."""
    work = ROOT / WORK
    stamp, out, err = work / f"{tag}.stamp", work / f"{tag}.out", work / f"{tag}.err"
    trace_path = work / f"{tag}.trace.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(stamp),
           str(trace_path) if trace else "-", *argv]
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=fo, stderr=fe)
        killer = threading.Timer(max(deadline - start, 0.1), os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            # WNOWAIT leaves the child unreaped, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = time.monotonic()
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            killer.cancel()
            killer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp.exists() else None
    # The child's own peak; wait4's ru_maxrss also counts the harness's size at the fork.
    rss_path = work / f"{tag}.stamp.rss"
    rss_kib = int(rss_path.read_text()) if rss_path.exists() else usage.ru_maxrss
    trace_doc = json.loads(trace_path.read_text()) if trace and trace_path.exists() else None
    if proc.returncode != 0:
        tail = err.read_bytes()[-400:].decode("utf-8", "replace").strip()
        print(f"[perfbench] {key or tag} exited {proc.returncode}: {tail}", file=sys.stderr)
    return Sample(key, end - start, usage.ru_utime + usage.ru_stime, rss_kib / 1024,
                  setup, proc.returncode, out.read_bytes(), trace_doc)


def check(item: Item, sample: Sample, golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one invocation.

    The invocation is one operation; a verify-paper invocation adds one
    operation per acceptance check it reports.
    """
    reasons = []
    if sample.returncode != 0:
        reasons.append(f"exit code {sample.returncode}")
    if item.golden:
        want = golden.get(item.key)
        got = hashlib.sha256(sample.stdout).hexdigest()
        if want is None:
            reasons.append("no golden output recorded")
        elif got != want:
            reasons.append(f"stdout sha256 {got[:12]} differs from golden {want[:12]}")
    try:
        doc = json.loads(sample.stdout)
    except ValueError:
        doc = None
        reasons.append("stdout is not JSON")
    if doc is not None and item.dims is not None:
        if doc.get("dims") != item.dims or doc.get("s") != item.s:
            reasons.append(f"dims {doc.get('dims')} s={doc.get('s')}, expected {item.dims} s={item.s}")
    checks = doc.get("checks", []) if isinstance(doc, dict) else []
    failed_checks = [str(c.get("name")) for c in checks if c.get("status") != "pass"]
    failed = (1 if reasons else 0) + len(failed_checks)
    if failed_checks:
        reasons.append(f"failed checks: {', '.join(failed_checks)}")
    return 1 + len(checks), failed, reasons


class Run:
    """Spawns the children of one benchmark run and tallies their operations."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: list[float] = []
        self._count = 0

    def run(self, item: Item, trace: bool = False) -> Sample:
        self._count += 1
        sample = spawn(item.argv, f"c{self._count}", self.deadline, trace, item.key)
        attempted, failed, reasons = check(item, sample, self.golden)
        self.attempted += attempted
        self.failed += failed
        if reasons:
            print(f"[perfbench] {item.key}: {'; '.join(reasons)}", file=sys.stderr)
        return sample

    def probes(self) -> list[float]:
        """One batch of set-up probes; returns their set-up times."""
        times = []
        for i in range(SETUP_PROBES):
            self.reference()
            sample = spawn((), f"probe{i}", self.deadline)
            if sample.returncode != 0 or sample.setup is None:
                self.problems.append(f"set-up probe exited {sample.returncode}")
            else:
                times.append(sample.setup)
        return times

    def reference(self) -> None:
        """Time one run of ``reference.py`` in a fresh interpreter.

        A blocking ``wait()`` with a kill timer, as in ``spawn``: a wait with
        a timeout polls with sleeps of up to 50 ms, which would quantise the
        time.
        """
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")], cwd=ROOT)
        killer = threading.Timer(max(self.deadline - start, 0.1), proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
            end = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        if returncode != 0:
            self.problems.append(f"reference task exited {returncode}")
        else:
            self.references.append(end - start)

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def missed(self, items: list[Item]) -> None:
        """Count first-pass items the hard limit left unrun as failed operations."""
        self.attempted += len(items)
        self.failed += len(items)
        if items:
            self.problems.append(f"{len(items)} item(s) not run before the time limit")


def _median_by_key(samples: list[Sample], attr: str) -> dict[str, float]:
    by_key = defaultdict(list)
    for s in samples:
        by_key[s.key].append(getattr(s, attr))
    return {k: statistics.median(v) for k, v in by_key.items()}


def end_to_end(run: Run, items: list[Item], seconds: float) -> tuple[dict, dict]:
    """One full pass, then repeats while an item is expected to fit in the window.

    Each repeat goes to the item with the fewest samples so far, the longest
    one first, so the items that dominate ``wall_s`` get their second sample
    early. Set-up probes run in three batches spread over the window, so that
    one slow moment of the machine does not decide ``setup_s``.

    The machine's speed drifts in phases that outlast a run, so every time
    metric is the measured median scaled by REFERENCE_NOMINAL_S / R, where R
    is the median time of the reference task, run before every item and every
    probe. The measured seconds and R go into ``detail``.
    """
    start = time.monotonic()
    setups = run.probes()
    # The last probe batch runs after the repeats, inside the window.
    window_end = start + seconds - (time.monotonic() - start)
    samples: list[Sample] = []

    def sample(item: Item) -> None:
        run.reference()
        samples.append(run.run(item))

    for i, item in enumerate(items):
        if run.out_of_time():
            run.missed(items[i:])
            break
        sample(item)
    setups += run.probes()
    walls = _median_by_key(samples, "wall")
    while len(walls) == len(items) and not run.out_of_time():
        counts = Counter(s.key for s in samples)
        remaining = window_end - time.monotonic()
        fitting = [item for item in items if walls[item.key] <= remaining]
        if not fitting:
            break
        sample(min(fitting, key=lambda it: (counts[it.key], -walls[it.key])))
        walls = _median_by_key(samples, "wall")
    setups += run.probes()
    setups += [s.setup for s in samples if s.setup is not None]
    detail = {"items": dict(Counter(s.key for s in samples)), "setup": len(setups),
              "reference": len(run.references)}
    if not (samples and setups and run.references):
        return {}, detail
    measured = {
        "wall_s": sum(walls.values()),
        "cpu_s": sum(_median_by_key(samples, "cpu").values()),
        "setup_s": statistics.median(setups),
        "item_max_s": max(walls.values()),
    }
    reference = statistics.median(run.references)
    detail["measured_s"] = measured
    detail["reference_s"] = reference
    metrics = {name: value * REFERENCE_NOMINAL_S / reference for name, value in measured.items()}
    metrics["peak_rss_mb"] = max(s.rss_mb for s in samples)
    metrics["ops_ok_ratio"] = (run.attempted - run.failed) / run.attempted
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def layer_metrics(traces: list[dict], traced_wall: float, plain_wall: float) -> dict:
    """Sum the children's trace reports (at least one) into the per-layer metrics."""
    out = {}
    for name in traces[0]["spans"]:
        count_name = "cones.spec_builds" if name == "cones.spec_build" else f"{name}_calls"
        out[count_name] = (sum(t["spans"][name]["calls"] for t in traces), "count")
        out[f"{name}_s"] = (sum(t["spans"][name]["s"] for t in traces), "s")
    for name in traces[0]["solvers"]:
        hits = sum(t["solvers"][name]["hits"] for t in traces)
        calls = hits + sum(t["solvers"][name]["misses"] for t in traces)
        out[f"graded.{name}.calls"] = (calls, "count")
        out[f"graded.{name}.cache_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    out["graded.self_s"] = (sum(t["solver_s"] - t["rref_in_solver_s"] for t in traces), "s")

    def rref(key, combine=sum):
        return combine(t["rref"][key] for t in traces)

    out["linalg.rref_calls"] = (rref("calls"), "count")
    out["linalg.rref_s"] = (rref("s"), "s")
    out["linalg.rref_rows_max"] = (rref("rows_max", max), "rows")
    out["linalg.rref_cols_max"] = (rref("cols_max", max), "cols")
    out["linalg.rref_density"] = (rref("nonzeros") / rref("cells") if rref("cells") else 0.0,
                                  "ratio")
    out["linalg.rref_useful_row_ratio"] = (rref("rank") / rref("rows") if rref("rows") else 0.0,
                                           "ratio")
    out["linalg.rref_max_bits"] = (rref("max_bits", max), "bits")
    out["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return out


def trace_problems(workload: str, traces: list[dict], expected: int) -> list[str]:
    """Wrapper hygiene: every child reported, and every layer that runs was seen."""
    if len(traces) != expected:
        return [f"{expected - len(traces)} traced child(ren) wrote no trace"]
    problems = []
    for name in EXPECTED_SPANS[workload]:
        if not sum(t["spans"][name]["calls"] for t in traces):
            problems.append(f"layer {name} recorded no calls")
    if not sum(t["rref"]["calls"] for t in traces):
        problems.append("layer linalg.rref recorded no calls")
    for name in traces[0]["solvers"]:
        infos = [t["solvers"][name] for t in traces]
        if not sum(info["misses"] for info in infos):
            problems.append(f"layer graded.{name} recorded no calls")
        if any(info["wrapped_calls"] != info["hits"] + info["misses"] for info in infos):
            problems.append(f"graded.{name}: the cache saw calls that bypassed the wrapper; "
                            "a binding site was not patched")
    return problems


def traced(run: Run, workload: str, items: list[Item]) -> tuple[dict, dict]:
    traced_samples = [run.run(item, trace=True) for item in items]
    plain_samples = [run.run(item) for item in items]
    traces = [s.trace for s in traced_samples if s.trace is not None]
    run.problems += trace_problems(workload, traces, len(items))
    metrics = {}
    if traces:
        metrics = layer_metrics(traces, sum(s.wall for s in traced_samples),
                                sum(s.wall for s in plain_samples))
    return metrics, {"traced": len(traced_samples), "untraced": len(plain_samples)}


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "siegelalg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
        "src_sha256": _src_digest(),
    }


def prepare() -> None:
    """Fresh work directory; bytecode compiled so set-up times see no compile step."""
    shutil.rmtree(ROOT / WORK, ignore_errors=True)
    (ROOT / WORK).mkdir(parents=True)
    compileall.compile_dir(str(SRC / "siegelalg"), quiet=1)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object plus a ``detail`` entry (sample counts)."""
    prepare()
    run = Run(load_golden())
    items = build_items(workload, seed)
    if trace:
        metrics, detail = traced(run, workload, items)
    else:
        metrics, detail = end_to_end(run, items, seconds)
    for problem in run.problems:
        print(f"[perfbench] {workload}: {problem}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": detail,
    }


def _print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"# {workload:<15} {name:<36} {m['value']!r} {m['unit']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"# {workload:<15} {'ops_failed_ratio':<36} {ratio!r} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"# {workload:<15} detail {json.dumps(result['detail'])}")


def record_golden() -> int:
    """Hash the stdout of every golden item once, at the default seed."""
    prepare()
    deadline = time.monotonic() + len(WORKLOADS) * HARD_LIMIT_S
    golden = {}
    for workload in WORKLOADS + ("smoke",):
        for item in build_items(workload, DEFAULT_SEED):
            sample = spawn(item.argv, f"g{len(golden)}", deadline, key=item.key)
            if sample.returncode != 0:
                return 1
            golden[item.key] = hashlib.sha256(sample.stdout).hexdigest()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark for siegelalg.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all", "smoke"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "siegelalg" / "__init__.py").is_file():
        print(f"error: no siegelalg package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if not args.workload:
        parser.error("--workload is required")
    print("# env " + json.dumps(environment()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = measure(workload, args.seed, args.seconds, bool(args.trace))
        _print_table(workload, results[workload])
    if len(results) == 1:
        final = results[args.workload]
        final.pop("detail")
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
