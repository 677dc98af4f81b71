"""Traced ``python -m repro`` child: times calls into each layer from outside.

Usage (``run.py --trace 1`` starts it; it can also be run by hand)::

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json run table3-fir ...

It times ``import repro.__main__`` first, in this fresh process and before
any wrapper exists, then wraps the public functions and methods listed
in :data:`FUNCTIONS`, :data:`METHODS` and :data:`OVERRIDES` and runs the
command line's ``main`` with the remaining arguments.  Spans (name, start, end, parent span) and
counters stay in memory and are written to ``TRACE.json`` when the command
returns.  Nothing under ``src/`` is modified: the wrappers are installed
at run time, and a target that no longer exists is listed under
``"missing"`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: wall-clock time this process reached its first line; with the parent's
#: spawn time it gives the interpreter's start-up
STARTED_EPOCH = time.time()

#: span name -> (defining module, function).  ``from x import y`` binds the
#: function into the importing module too, so every ``repro`` module
#: attribute that is the original function gets the wrapper (for example
#: ``repro.pnr.flow.route_design`` and ``repro.pipeline.run_campaign``).
FUNCTIONS = {
    "build.suite": ("repro.experiments.designs", "build_design_suite"),
    "pnr.pack": ("repro.pnr.pack", "pack"),
    "pnr.place": ("repro.pnr.place", "place"),
    "pnr.route": ("repro.pnr.route", "route_design"),
    "pnr.timing": ("repro.pnr.timing", "estimate_timing"),
    "fpga.bitgen": ("repro.fpga.bitgen", "generate_bitstream"),
    "fpga.routing_graph": ("repro.fpga.routing", "routing_graph"),
    "fpga.layout": ("repro.fpga.config", "shared_layout"),
    "sim.compile": ("repro.sim.bitparallel", "compile_vector_program"),
    "sim.compile.numpy": ("repro.sim.npkernel", "compile_numpy_program"),
    "faults.aggregate": ("repro.faults.campaign", "run_campaign"),
    "pipeline.report": ("repro.__main__", "main"),
}

#: span name -> (module, class, method).  Methods are patched on the class,
#: so every caller sees the wrapper.
METHODS = {
    "pnr.artifacts_load": ("repro.pnr.artifacts", "FlowArtifactStore",
                           "load"),
    "pnr.artifacts_store": ("repro.pnr.artifacts", "FlowArtifactStore",
                            "store"),
    "faults.fault_list": ("repro.faults.fault_list", "FaultListManager",
                          "build"),
    "sim.compile.design": ("repro.sim.compile", "CompiledDesign",
                           "__init__"),
    "sim.golden": ("repro.faults.cache", "CampaignCacheEntry", "golden"),
    "faults.effect_model": ("repro.faults.engine", "CampaignContext",
                            "tasks_for_groups"),
    "analysis.analyze": ("repro.pipeline", "AnalyzeStage", "run"),
}

#: span name -> (module, base class, method): every subclass defining the
#: method is wrapped (each backend's ``run``, each upset model's sampler).
OVERRIDES = {
    "faults.engine": ("repro.faults.engine", "ExecutionBackend", "run"),
    "faults.sampling": ("repro.faults.upsets", "UpsetModel", "injections"),
}

#: span names merged into one reported layer
LAYER_OF = {"sim.compile.numpy": "sim.compile",
            "sim.compile.design": "sim.compile"}

After = Callable[["Tracer", tuple, object], None]


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self) -> None:
        #: [layer, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        self._local = threading.local()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, function: Callable,
             after: Optional[After] = None) -> Callable:
        layer = LAYER_OF.get(name, name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        replacements = {}
        for name, (module_name, attribute) in FUNCTIONS.items():
            module = _module(module_name)
            original = getattr(module, attribute, None) if module else None
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            replacements[id(original)] = self.wrap(name, original,
                                                   AFTER.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attribute, wrapper)

        for name, (module_name, class_name, method) in METHODS.items():
            cls = getattr(_module(module_name), class_name, None)
            if cls is None or method not in vars(cls):
                self.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            setattr(cls, method, self.wrap(name, vars(cls)[method],
                                           AFTER.get(name)))

        for name, (module_name, base_name, method) in OVERRIDES.items():
            module = _module(module_name)
            base = getattr(module, base_name, None)
            if base is None:
                self.missing.append(f"{module_name}.{base_name}.{method}")
                continue
            for cls in _subclasses(base):
                if method in vars(cls) and not getattr(
                        vars(cls)[method], "__isabstractmethod__", False):
                    setattr(cls, method, self.wrap(name, vars(cls)[method],
                                                   AFTER.get(name)))

    def finish(self) -> None:
        """Counters read once at the end of the run."""
        cache = _module("repro.faults.cache")
        stats = cache.cache_stats() if cache is not None else {}
        hits = sum(v for k, v in stats.items() if k.endswith("_hits"))
        misses = sum(v for k, v in stats.items() if k.endswith("_misses"))
        self.counters["faults.effects_modeled"] = stats.get("effect_misses",
                                                            0)
        self.counters["faults.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        lanes = self.counters.pop("faults.lanes", 0)
        capacity = self.counters.pop("faults.lane_capacity", 0)
        self.counters["faults.lane_utilization"] = (
            lanes / capacity if capacity else 0.0)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _after_route(tracer: Tracer, _args: tuple, routing) -> None:
    tracer.count("pnr.route_iterations", routing.iterations)
    tracer.count("pnr.routed_nets", len(routing.routes))
    tracer.count("pnr.wirelength", routing.total_wirelength)


def _after_load(tracer: Tracer, _args: tuple, implementation) -> None:
    tracer.count("pnr.artifacts_misses" if implementation is None
                 else "pnr.artifacts_hits", 1)


def _after_fault_list(tracer: Tracer, _args: tuple, fault_list) -> None:
    tracer.count("faults.fault_list_bits", len(fault_list))


def _after_engine(tracer: Tracer, args: tuple, _verdicts) -> None:
    backend, tasks = args[0], args[2]
    stats = getattr(backend, "last_run_stats", None) or {}
    unique = stats.get("unique_faults")
    if unique is None:
        unique = len({task.bits or (task.bit,) for task in tasks})
    tracer.count("faults.unique_faults", unique)
    for shard in stats.get("shards", ()):
        tracer.count("faults.lanes", shard["lanes"])
        tracer.count("faults.lane_capacity", shard["capacity"])


def _after_campaign(tracer: Tracer, _args: tuple, result) -> None:
    tracer.count("faults.simulated", result.simulated)
    tracer.count("faults.wrong_answers", result.wrong_answers)


AFTER: Dict[str, After] = {
    "pnr.route": _after_route,
    "pnr.artifacts_load": _after_load,
    "faults.fault_list": _after_fault_list,
    "faults.engine": _after_engine,
    "faults.aggregate": _after_campaign,
}


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json REPRO-ARGS...", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    started = time.perf_counter()
    # Nothing may import repro before this line.
    cli = importlib.import_module("repro.__main__")
    import_s = time.perf_counter() - started
    numpy_eager = "numpy" in sys.modules

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.finish()
        with open(trace_path, "w") as handle:
            json.dump({"import_s": import_s,
                       "numpy_eager": numpy_eager,
                       "spans": tracer.spans,
                       "counters": tracer.counters,
                       "missing": tracer.missing,
                       "started_epoch": STARTED_EPOCH,
                       # what follows is the interpreter's exit, which
                       # frees the program's module-level state
                       "finished_epoch": time.time()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
