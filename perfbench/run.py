"""End-to-end benchmark of ``python -m repro run``: wall time, memory, layers.

Usage, from the repository root::

    python3 perfbench/run.py                       # all workloads, summary
    python3 perfbench/run.py --workload smoke-cold --seed 7 --seconds 5
    python3 perfbench/run.py --workload fast-route --trace 1

Every measured run is a fresh child process of the real command line,
spawned by this single parent one at a time (closed loop, one client), in
its own fresh working directory inside ``.perfbench-work/`` and with every
``REPRO_*`` environment variable removed.  Each run's report is checked:
exit code 0, JSON that parses, every requested design present, the
requested injection count per design, flow-cache use as the workload
defines it, and a ``stable_report`` digest equal to the reference: the
one set-up recorded, or else the first measured run's.  ``--trace 1``
runs the command through ``tracer.py`` instead and reports per-layer self
times and counters.  The last line of standard output is one JSON object;
see ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: set-up rounds per run on a warm and on a cold workload; ``setup_s``
#: is their median.  A cold round is one short start-up (0.3-0.6 s), so
#: more of them cost little and steady the median.
SETUP_ROUNDS = {True: 3, False: 7}
#: measured children per run, however long ``--seconds``: where set-up
#: records no reference digest, the first child's is the reference, so a
#: run needs two children to check anything
MIN_CHILDREN = 2
#: a run starts no child it expects to end later than this many seconds
#: after the run began, and kills a child still running then
RUN_BUDGET_S = 170.0
#: exit code for a workload this host cannot run (no numpy)
UNAVAILABLE = 3

TABLE3_DESIGNS = ("standard", "TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One ``repro`` command line and what its report must contain."""

    name: str
    args: Tuple[str, ...]
    designs: Tuple[str, ...]
    #: injections the report must show per design; 0: no campaign
    injections: int
    #: measured runs read a flow cache filled at set-up
    warm: bool = False
    #: extra arguments of the set-up run that fills the flow cache
    fill_args: Tuple[str, ...] = ()
    needs_numpy: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("smoke-cold", ("run", "table3-fir", "--scale", "smoke"),
             TABLE3_DESIGNS, injections=400),
    Workload("smoke-warm", ("run", "table3-fir", "--scale", "smoke"),
             TABLE3_DESIGNS, injections=400, warm=True),
    Workload("fast-route", ("run", "table2-fir", "--scale", "fast",
                            "--design", "TMR_p3_nv"),
             ("TMR_p3_nv",), injections=0),
    # 10^5 injections per design already cover every programmable bit
    # (71,609 of them) once; the scenario's default 10^6 only adds
    # with-replacement duplicates and takes more than twice as long.  The
    # flow cache only holds place-and-route artifacts, so a small
    # campaign fills it as well as the full one does.
    Workload("huge-campaign", ("run", "huge-fir", "--faults", "100000"),
             ("standard", "TMR_p2"), injections=100_000, warm=True,
             fill_args=("--faults", "1000"), needs_numpy=True),
)}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

#: per-layer metrics: name -> unit; "_s" names are span self times
PER_LAYER = {
    "process.startup_s": "s", "import.cli_s": "s",
    "import.numpy_eager": "flag",
    "build.suite_s": "s",
    "pnr.pack_s": "s", "pnr.place_s": "s", "pnr.route_s": "s",
    "pnr.timing_s": "s", "fpga.bitgen_s": "s", "fpga.routing_graph_s": "s",
    "fpga.layout_s": "s",
    "pnr.route_iterations": "count", "pnr.routed_nets": "count",
    "pnr.wirelength": "count",
    "pnr.artifacts_load_s": "s", "pnr.artifacts_store_s": "s",
    "pnr.artifacts_hits": "count", "pnr.artifacts_misses": "count",
    "faults.fault_list_s": "s", "faults.fault_list_bits": "count",
    "faults.sampling_s": "s", "sim.compile_s": "s", "sim.golden_s": "s",
    "faults.effect_model_s": "s", "faults.effects_modeled": "count",
    "faults.engine_s": "s", "faults.simulated": "count",
    "faults.unique_faults": "count", "faults.lane_utilization": "ratio",
    "faults.aggregate_s": "s", "faults.cache_hit_ratio": "ratio",
    "faults.wrong_answers": "count",
    "analysis.analyze_s": "s", "pipeline.report_s": "s",
    "process.exit_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.attributed_share": "ratio", "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The workload could not be prepared; nothing was measured."""


@dataclasses.dataclass
class Child:
    """One finished child process."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    #: wall-clock times of spawn and reaped exit, to line up with the
    #: child's own timestamps
    spawn_epoch: float
    exit_epoch: float


def spawn(argv: Sequence[str], cwd: Path, deadline: float) -> Child:
    """Run *argv* to completion; wall time spans spawn to reaped exit.

    Peak RSS comes from the child's own rusage (``os.wait4``), not from
    the cumulative ``RUSAGE_CHILDREN``, which keeps the maximum over every
    child waited for so far.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(cwd)
    # The router's run time depends on string-hash iteration order (7.5 s
    # to 8.8 s on fast-route for different hash seeds; the results do not
    # change), so every child gets the same order.
    env["PYTHONHASHSEED"] = "0"
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawn_epoch = time.time()
        started = time.perf_counter()
        process = subprocess.Popen(list(argv), cwd=cwd, env=env,
                                   stdin=subprocess.DEVNULL,
                                   stdout=out, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        exit_epoch = time.time()
        process.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                 returncode=process.returncode,
                 stdout=out_path.read_text(), stderr=err_path.read_text(),
                 spawn_epoch=spawn_epoch, exit_epoch=exit_epoch)


def report_digest(report: dict) -> str:
    """Digest of the program's own ``stable_report`` of *report*."""
    from repro.pipeline import stable_report

    payload = json.dumps(stable_report(report), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def check(workload: Workload, child: Child, reference: Optional[str],
          cache: Tuple[int, int]) -> Tuple[Optional[str], Optional[str]]:
    """``(error or None, digest or None)`` for one child's output.

    *cache* is the implement stage's expected flow-cache (hits, misses).
    """
    if child.returncode != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {child.returncode}: {tail[0]}", None
    try:
        report = json.loads(child.stdout)
    except json.JSONDecodeError as error:
        return f"report does not parse: {error}", None
    designs = report.get("designs", {})
    missing = [name for name in workload.designs if name not in designs]
    if missing:
        return f"designs missing from the report: {missing}", None
    if workload.injections:
        for name in workload.designs:
            injected = designs[name].get("campaign", {}).get("injected")
            if injected != workload.injections:
                return (f"{name}: injected {injected}, expected "
                        f"{workload.injections}"), None
    implement = next((stage for stage in report.get("stages", ())
                      if stage.get("name") == "implement"), {})
    counters = implement.get("cache", {})
    used = (counters.get("hits", 0), counters.get("misses", 0))
    if used != cache:
        return (f"flow cache hits/misses {used[0]}/{used[1]}, expected "
                f"{cache[0]}/{cache[1]}"), None
    digest = report_digest(report)
    if reference is not None and digest != reference:
        return f"digest {digest} differs from the reference {reference}", None
    return None, digest


def command(workload: Workload, seed: Optional[int],
            flow_cache: Optional[Path], extra: Sequence[str] = ()
            ) -> List[str]:
    """Arguments after ``python -m repro`` for one run of *workload*."""
    argv = list(workload.args) + ["--json"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if flow_cache is not None:
        argv += ["--flow-cache", str(flow_cache)]
    return argv + list(extra)


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: Optional[int],
                 work: Path, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = started + RUN_BUDGET_S
        self.flow_cache: Optional[Path] = None

    def command(self, extra: Sequence[str] = ()) -> List[str]:
        return command(self.workload, self.seed, self.flow_cache, extra)

    def check(self, child: Child, reference: Optional[str],
              fill: bool = False) -> Tuple[Optional[str], Optional[str]]:
        """:func:`check` with the flow-cache use this run expects: a fill
        misses and stores every design, a warm run hits every design, and
        a cold run has no flow cache."""
        designs = len(self.workload.designs)
        cache = ((0, designs) if fill else (designs, 0)
                 if self.workload.warm else (0, 0))
        return check(self.workload, child, reference, cache)

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    def cli(self, args: Sequence[str], prefix: str) -> Child:
        return spawn([sys.executable, "-m", "repro", *args],
                     self.fresh_dir(prefix), self.deadline)

    def setup(self, trace: bool
              ) -> Tuple[List[float], Optional[str], Optional[Child]]:
        """Set-up rounds, and the reference digest if set-up makes one.

        Returns the round times, the digest every measured run must
        match (or ``None``: the first measured run's is the reference),
        and the untraced reference run if one was made.  A round
        prepares what the measured command reads: on a warm workload it
        fills a fresh flow cache with one run, on a cold one it checks
        that the command line starts and knows the scenario (``repro
        list``).  A fill that runs the measured command itself
        (smoke-warm) gives the reference digest: every fill, and then
        every measured run from the warm cache, must match the first
        fill's.  A traced run also makes one untraced run of the
        measured command after the rounds, for the untraced wall time.
        """
        times: List[float] = []
        digest: Optional[str] = None
        scenario = self.workload.args[1]
        fills_refer = self.workload.warm and not self.workload.fill_args
        for round_index in range(SETUP_ROUNDS[self.workload.warm]):
            started = time.perf_counter()
            error = None
            if self.workload.warm:
                self.flow_cache = self.fresh_dir(f"flow-cache{round_index}-")
                child = self.cli(self.command(self.workload.fill_args),
                                 "fill-")
                times.append(time.perf_counter() - started)
                if fills_refer:
                    error, digest = self.check(child, digest, fill=True)
                elif child.returncode != 0:
                    error = f"exit code {child.returncode}"
            else:
                child = self.cli(["list", "--json"], "list-")
                times.append(time.perf_counter() - started)
                try:
                    listed = {entry["id"]
                              for entry in json.loads(child.stdout)}
                except (json.JSONDecodeError, TypeError, KeyError):
                    listed = set()
                if child.returncode != 0 or scenario not in listed:
                    error = (f"exit code {child.returncode}, or "
                             f"{scenario} not listed")
            if error:
                raise SetupError(f"set-up round failed: {error}: "
                                 + child.stderr.strip()[-400:])
        reference = None
        if trace:
            reference = self.cli(self.command(), "reference-")
            error, digest = self.check(reference, digest)
            if error:
                raise SetupError(f"reference run failed: {error}")
        return times, digest, reference

    def measure(self, seconds: float, trace: bool, reference: Optional[str]
                ) -> Tuple[List[Tuple[Child, Optional[dict], Optional[str]]],
                           Optional[str]]:
        """``(child, trace, error)`` per child, for *seconds*, and the
        reference digest.

        At least :data:`MIN_CHILDREN` children run.  Without a
        *reference*, the first child that passes the other checks sets it.
        """
        samples: List[Tuple[Child, Optional[dict], Optional[str]]] = []
        started = time.monotonic()
        while (len(samples) < MIN_CHILDREN
               or time.monotonic() - started < seconds):
            last = samples[-1][0].wall_s if samples else 0.0
            if time.monotonic() + last > self.deadline:
                break
            where = self.fresh_dir("run-")
            trace_path = where / "trace.json"
            if trace:
                argv = [str(HERE / "tracer.py"), str(trace_path)]
            else:
                argv = ["-m", "repro"]
            child = spawn([sys.executable, *argv, *self.command()], where,
                          self.deadline)
            error, digest = self.check(child, reference)
            reference = reference or digest
            data = None
            if error is None and trace:
                try:
                    data = json.loads(trace_path.read_text())
                except (OSError, json.JSONDecodeError) as problem:
                    error = f"trace unreadable: {problem}"
            samples.append((child, data, error))
        return samples, reference


def layer_metrics(trace: dict, child: Child,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer self times and counters of one traced child.

    A span's self time is its duration minus that of its child spans.
    ``process.startup_s`` runs from spawn to the tracer's first line and
    ``process.exit_s`` from the written trace to the reaped exit.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for (name, start, end, _parent), children in zip(spans, covered):
        key = f"{name}_s"
        values[key] = values.get(key, 0.0) + (end - start) - children
    for name, value in trace["counters"].items():
        if name in values:
            values[name] = value
    values["process.startup_s"] = trace["started_epoch"] - child.spawn_epoch
    values["process.exit_s"] = child.exit_epoch - trace["finished_epoch"]
    values["import.cli_s"] = trace["import_s"]
    values["import.numpy_eager"] = 1.0 if trace["numpy_eager"] else 0.0
    attributed = sum(value for name, value in values.items()
                     if name.endswith("_s") and not name.startswith("trace."))
    wall = child.wall_s
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - attributed
    values["trace.attributed_share"] = attributed / wall
    values["trace.overhead_s"] = wall - untraced_wall_s
    return values


def environment() -> Dict[str, str]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"python": sys.version.split()[0], "numpy": numpy,
            "nproc": str(len(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity")
                         else os.cpu_count())}


def run_workload(workload: Workload, seed: Optional[int], seconds: float,
                 trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    started = time.monotonic()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        bench = Bench(workload, seed, work, started)
        setup_times, digest, reference = bench.setup(trace)
        samples, digest = bench.measure(seconds, trace, digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    children = [child for child, _data, _error in samples]
    errors = [error for _child, _data, error in samples if error]
    wall = statistics.median(child.wall_s for child in children)
    result = {
        "workload": workload.name,
        "seed": seed,
        "digest": digest,
        "setup_s": statistics.median(setup_times),
        "setup_rounds": setup_times,
        "reference_wall_s": reference.wall_s if reference else None,
        "wall_s": wall,
        "walls": [child.wall_s for child in children],
        "peak_rss_mb": statistics.median(child.peak_rss_mb
                                         for child in children),
        "injections_per_s": (workload.injections * len(workload.designs)
                             / wall) if workload.injections else None,
        "attempted": len(children),
        "failed": len(errors),
        "errors": errors,
    }
    if trace:
        assert reference is not None
        per_child = [layer_metrics(data, child, reference.wall_s)
                     for child, data, _error in samples if data is not None]
        result["layers"] = {
            name: statistics.median(values[name] for values in per_child)
            for name in PER_LAYER} if per_child else {}
        result["untraced"] = sorted({
            name for _child, data, _error in samples if data is not None
            for name in data.get("missing", ())})
    return result


def print_human(result: dict, trace: bool) -> None:
    name = result["workload"]
    rate = result["injections_per_s"]
    lines = [
        f"wall_s            {result['wall_s']:10.4f} s     median of "
        f"n={result['attempted']} ({'traced' if trace else 'untraced'})",
        f"peak_rss_mb       {result['peak_rss_mb']:10.1f} MB",
        "injections_per_s  " + (f"{rate:10.0f} 1/s" if rate is not None
                                else "         - (no campaign)"),
        f"setup_s           {result['setup_s']:10.4f} s     median of "
        f"{len(result['setup_rounds'])} rounds",
        f"error_rate        {result['failed'] / result['attempted']:10.4f} "
        f"      {result['failed']}/{result['attempted']} runs failed",
        f"digest            {result['digest']}",
    ]
    for line in lines:
        print(f"[{name}] {line}")
    for error in result["errors"]:
        print(f"[{name}] FAILED: {error}")
    if trace:
        for metric, value in result["layers"].items():
            unit = PER_LAYER[metric]
            shown = f"{value:12.0f}" if unit == "count" else f"{value:12.4f}"
            print(f"[{name}] {metric:26s} {shown} {unit}")
        if result["untraced"]:
            print(f"[{name}] untraced (target not found): "
                  + ", ".join(result["untraced"]))


def contract_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in result["layers"].items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": result["failed"] == 0 and bool(metrics),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, with a summary)")
    parser.add_argument("--seed", type=int, default=None,
                        help="fault-sampling seed passed to the command "
                             "(default: each scenario's own)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measure children for this long; at least "
                             "two run (default: 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced children and report layers")
    arguments = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(arguments.trace)
    env = environment()
    print("# perfbench: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    names = [arguments.workload] if arguments.workload else list(WORKLOADS)
    results: Dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        if workload.needs_numpy and env["numpy"] == "absent":
            print(f"[{name}] unavailable: needs numpy")
            continue
        shown = command(workload, arguments.seed,
                        Path("DIR") if workload.warm else None)
        print(f"[{name}] command: python -m repro " + " ".join(shown))
        try:
            results[name] = run_workload(workload, arguments.seed,
                                         arguments.seconds, trace)
        except SetupError as error:
            print(f"[{name}] set-up failed: {error}", file=sys.stderr)
            return 1
        print_human(results[name], trace)
    if not results:
        return UNAVAILABLE
    if arguments.workload:
        print(json.dumps(contract_line(results[arguments.workload], trace)))
    else:
        print(json.dumps({name: contract_line(result, trace)
                          for name, result in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
