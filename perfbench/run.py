"""End-to-end and per-layer benchmark of the ``ext-forge`` command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cone-h8v18 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload

The system is a batch CLI that one person or one CI job runs one command at a
time: a closed loop with a single client.  Every timed invocation is a fresh
``python -m extforge.cli`` process, started from this process, one at a time.

``--trace 0`` measures, per workload:

* ``cold_s``: wall time of the workload command with an empty
  ``EXTFORGE_CACHE_DIR`` (includes computing and writing the resolution);
* ``warm_s``: the same command against the cache a cold run filled.  Memo
  tables inside the process (Milnor lru caches, ``resolution._mul_cache``)
  start empty in both modes: only the disk cache is warm;
* ``setup_s``: wall time of ``python -m extforge.cli --version``, the
  interpreter plus package and numpy import that every invocation pays;
* ``peak_rss_mb``: the largest peak resident set of the workload's
  processes, read per child with ``os.wait4``.

Cold and warm repetitions alternate (the seed breaks ties in the order) until
the next one would overrun ``--seconds``; each metric is the median of its
repetitions.  ``--trace 1`` runs the command once cold and once warm in-process
under ``traced.py`` and reports the per-layer metrics of ``design.json``
prefixed ``cold.`` and ``warm.``, plus ``trace.overhead_s`` (traced warm wall
time minus that of one untraced warm run; the seed orders the two).  Every
count among them must repeat exactly from one traced run of the same sources
to the next (the first run records them under ``.bench_build/perfbench``); a
mismatch counts as a failed operation.

Every invocation's output is checked; a nonzero exit, a timeout or a wrong
output is a failed operation.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = ROOT / "tests" / "goldens" / "stageB.json"
DESIGN = json.loads((BENCH / "design.json").read_text())
WORKLOADS: dict[str, dict] = DESIGN["workloads"]

SETUP_REPS = 7
RUN_DEADLINE_S = 170.0  # children still running then are killed, so a run ends within 180 s
VERIFY_LINE = re.compile(r"^(ok|FAIL)\t")

sys.path.insert(0, str(BENCH))
from traced import LAYER_METRICS, metric_unit  # noqa: E402

if set(DESIGN["layers"]) != set(LAYER_METRICS) | {"charts.output_bytes", "trace.overhead_s"}:
    raise SystemExit("perfbench: design.json layers and traced.LAYER_METRICS disagree")


@dataclass
class Invocation:
    kind: str
    wall_s: float
    rss_mb: float
    ok: bool
    problem: str = ""
    layers: dict = field(default_factory=dict)


class Runner:
    """Starts one child at a time, times it and checks what it produced."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self._serial = 0

    def fresh_dir(self, label: str) -> Path:
        self._serial += 1
        path = self.workdir / f"{label}-{self._serial}"
        path.mkdir()
        return path

    def spawn(self, argv: list[str], cache_dir: Path | None, cwd: Path):
        """Run argv to completion; returns (wall_s, rss_mb, exit_code, stdout bytes, timed_out)."""
        env = dict(self.env)
        # never fall back to ~/.cache/extforge, not even for --version
        env["EXTFORGE_CACHE_DIR"] = str(cache_dir if cache_dir is not None else cwd / "unused-cache")
        timeout = max(1.0, self.deadline - time.monotonic())
        out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = proc.returncode < 0 and time.monotonic() >= self.deadline
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes(), timed_out

    def version(self) -> Invocation:
        cwd = self.fresh_dir("setup")
        wall, rss, code, stdout, timed_out = self.spawn(
            [sys.executable, "-m", "extforge.cli", "--version"], None, cwd
        )
        ok = code == 0 and stdout.startswith(b"ext-forge ")
        shutil.rmtree(cwd)
        return Invocation("setup", wall, rss, ok, "" if ok else f"--version exit {code}, timeout {timed_out}")

    def workload(self, name: str, kind: str, cache_dir: Path, traced: bool) -> Invocation:
        spec = WORKLOADS[name]
        cwd = self.fresh_dir(kind)
        argv = list(spec["argv"])
        if spec["output"] is not None:
            argv += ["--out", str(cwd / "out")]
        metrics_path = cwd / "layers.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(metrics_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "extforge.cli", *argv]
        wall, rss, code, stdout, timed_out = self.spawn(cmd, cache_dir, cwd)
        if timed_out:
            inv = Invocation(kind, wall, rss, False, "timed out")
        elif code != 0:
            tail = (cwd / "stderr.txt").read_text(errors="replace")[-400:]
            inv = Invocation(kind, wall, rss, False, f"exit code {code}: {tail}")
        else:
            problem, nbytes = check_output(name, spec, cwd, stdout)
            inv = Invocation(kind, wall, rss, not problem, problem)
            if traced and not problem:
                inv.layers = json.loads(metrics_path.read_text())["metrics"]
                inv.layers["charts.output_bytes"] = nbytes
        shutil.rmtree(cwd)
        return inv


# ---------------------------------------------------------------------------
# output checks


def _flag(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def check_output(name: str, spec: dict, cwd: Path, stdout: bytes) -> tuple[str, int]:
    """Returns (problem or "", number of output bytes checked)."""
    if spec["output"] is None:
        lines = [ln for ln in stdout.decode("utf-8", "replace").splitlines(keepends=True) if VERIFY_LINE.match(ln)]
        data = "".join(lines).encode()
        if not lines or any(not ln.startswith("ok\t") for ln in lines):
            return "a verify line is not ok", len(data)
        if not re.fullmatch(r"ok\tsummary\t(\d+)/\1 checks passed\n", lines[-1]):
            return f"unexpected summary {lines[-1]!r}", len(data)
    else:
        out_dir = cwd / "out"
        files = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
        if files != [spec["output"]]:
            return f"expected exactly {spec['output']}, found {files}", 0
        data = (out_dir / spec["output"]).read_bytes()
        if name == "cone-h8v18":
            try:
                doc = json.loads(data)
                dims, selections = doc["dims"], doc["self_map_selections"]
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable chart JSON: {exc!r}", len(data)
            golden = json.loads(GOLDEN.read_text())
            max_s, max_t = _flag(spec["argv"], "--max-s"), _flag(spec["argv"], "--max-t")
            expected = [row for row in golden["H8V_dims"] if row[0] <= max_s and row[1] <= max_t]
            if dims != expected:
                return "dims differ from the stageB H8V_dims golden", len(data)
            attach = golden["selection"]["attach_coords"]
            if selections.get("h8v18") != attach:
                return f"self-map selection {selections} is not {attach}", len(data)
    digest = hashlib.sha256(data).hexdigest()
    if digest != spec["sha256"]:
        return f"output sha256 {digest} differs from the recorded {spec['sha256']}", len(data)
    return "", len(data)


# ---------------------------------------------------------------------------
# one workload


def timing_summary(values: list[float]) -> str:
    """Sample count, the samples, and the highest percentile with ten samples beyond it."""
    text = f"n={len(values)}: {', '.join(f'{v:.3f}' for v in values)}"
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) >= 1000:
            return f"{text}; p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return f"{text}; no percentile has 10 samples beyond it"


def run_untraced(name: str, runner: Runner, rng: random.Random, seconds: float, report: list[str]):
    invocations: list[Invocation] = []
    setup = [runner.version() for _ in range(SETUP_REPS)]
    invocations += setup
    samples: dict[str, list[Invocation]] = {"cold": [], "warm": []}
    start = time.perf_counter()
    cache_dir: Path | None = None
    while time.monotonic() < runner.deadline:
        counts = {k: len(v) for k, v in samples.items()}
        if counts["cold"] == 0:
            kind = "cold"
        elif counts["cold"] != counts["warm"]:
            kind = min(counts, key=counts.get)
        else:
            kind = rng.choice(("cold", "warm"))
        if counts["cold"] and counts["warm"]:
            # start only what is expected to end within the budget
            left = seconds - (time.perf_counter() - start)
            fits = [k for k in (kind, "warm" if kind == "cold" else "cold")
                    if statistics.median([inv.wall_s for inv in samples[k]]) <= left]
            if not fits:
                break
            kind = fits[0]
        if kind == "cold":
            new_cache = runner.fresh_dir("cache")
            inv = runner.workload(name, "cold", new_cache, traced=False)
            if inv.ok:
                if cache_dir is not None:
                    shutil.rmtree(cache_dir)
                cache_dir = new_cache
        else:
            inv = runner.workload(name, "warm", cache_dir, traced=False)
        samples[kind].append(inv)
        invocations.append(inv)
        if not inv.ok:
            break

    def timing(invs: list[Invocation]) -> list[float]:
        # failed runs are timed only when nothing succeeded; 0 when nothing ran
        good = [i.wall_s for i in invs if i.ok]
        return good or [i.wall_s for i in invs] or [0.0]

    metrics = {
        "cold_s": (statistics.median(timing(samples["cold"])), "s"),
        "warm_s": (statistics.median(timing(samples["warm"])), "s"),
        "setup_s": (statistics.median(timing(setup)), "s"),
        "peak_rss_mb": (max(i.rss_mb for i in samples["cold"] + samples["warm"]), "MB"),
    }
    for key, invs in (("cold_s", samples["cold"]), ("warm_s", samples["warm"]), ("setup_s", setup)):
        times = timing(invs)
        report.append(f"{key:<12} {metrics[key][0]:10.4f} s    median; {timing_summary(times)}")
    report.append(f"{'peak_rss_mb':<12} {metrics['peak_rss_mb'][0]:10.1f} MB   max over {len(samples['cold']) + len(samples['warm'])} workload processes")
    return invocations, metrics


def run_traced(name: str, runner: Runner, rng: random.Random, report: list[str]):
    cache_dir = runner.fresh_dir("cache")
    cold = runner.workload(name, "cold", cache_dir, traced=True)
    invocations = [cold]
    warm_traced = warm_plain = None
    if cold.ok:
        order = [True, False]
        rng.shuffle(order)
        for traced in order:
            inv = runner.workload(name, "warm", cache_dir, traced=traced)
            invocations.append(inv)
            if traced:
                warm_traced = inv
            else:
                warm_plain = inv
    metrics: dict[str, tuple[float, str]] = {}
    for phase, inv in (("cold", cold), ("warm", warm_traced)):
        layers = inv.layers if inv is not None else {}
        for layer in DESIGN["layers"]:
            if layer == "trace.overhead_s":
                continue
            metrics[f"{phase}.{layer}"] = (layers.get(layer, 0), metric_unit(layer))
    overhead = warm_traced.wall_s - warm_plain.wall_s if warm_traced and warm_plain else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    report.append(f"{'layer metric':<46} {'cold':>12} {'warm':>12}  unit")
    for layer in DESIGN["layers"]:
        if layer != "trace.overhead_s":
            c, w = metrics[f"cold.{layer}"][0], metrics[f"warm.{layer}"][0]
            report.append(f"{layer:<46} {c:>12.6g} {w:>12.6g}  {metric_unit(layer)}")
    report.append(f"traced cold {cold.wall_s:.3f} s; trace.overhead_s {overhead:+.3f} s (traced minus untraced warm)")

    # exact-count self-check against the first traced run of the same sources
    failed_counts = 0
    if all(inv.ok for inv in invocations) and len(invocations) == 3:
        counts = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
        record = WORK / f"counts-{name}-{source_digest()[:12]}.json"
        if record.exists():
            expected = json.loads(record.read_text())
            diff = sorted(k for k in expected.keys() | counts.keys() if expected.get(k) != counts.get(k))
            if diff:
                failed_counts = 1
                report.append(f"COUNT MISMATCH against {record.name}: {diff[:8]}")
            else:
                report.append(f"{len(counts)} counts repeat exactly ({record.name})")
        else:
            record.write_text(json.dumps(counts, indent=1, sort_keys=True))
            report.append(f"{len(counts)} counts recorded in {record.name} for later runs")
    return invocations, metrics, failed_counts


def source_digest() -> str:
    """sha256 over the package sources: names the code under test without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> str:
    from importlib import metadata

    rev = "n/a"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
        rev = got.stdout.strip() or rev
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        metadata.version("matplotlib")
        mpl = "present"
    except metadata.PackageNotFoundError:
        mpl = "absent"
    return (
        f"git {rev}, src sha256 {source_digest()[:12]}, Python {platform.python_version()}, "
        f"numpy {numpy_version}, nproc {os.cpu_count()}, matplotlib {mpl}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    rng = random.Random(f"{name}:{seed}")
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    report = [f"== {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}", f"   {environment()}"]
    try:
        runner = Runner(workdir, deadline)
        warmup = runner.version()  # compiles bytecode; not timed
        if trace:
            invocations, metrics, extra_failed = run_traced(name, runner, rng, report)
        else:
            invocations, metrics = run_untraced(name, runner, rng, seconds, report)
            extra_failed = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    invocations.insert(0, warmup)
    attempted = len(invocations) + (1 if trace else 0)  # the count self-check is one operation
    failed = sum(1 for inv in invocations if not inv.ok) + extra_failed
    report.append(f"{'failed_frac':<12} {failed / attempted:10.4f}      {failed} of {attempted} invocations failed")
    for inv in invocations:
        if not inv.ok:
            report.append(f"   FAILED {inv.kind}: {inv.problem}")
    print("\n".join(report), flush=True)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "extforge" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"perfbench: no extforge sources or goldens under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names}
    metrics = {}
    for n, res in results.items():
        for key, (value, unit) in res["metrics"].items():
            metrics[key if len(names) == 1 else f"{n}.{key}"] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
