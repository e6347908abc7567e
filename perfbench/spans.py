"""Spans around the calls into each qgames module, recorded from outside.

``Tracer.install`` wraps every listed public function in place: in the
module that defines it and in every other qgames module (the package
namespace included) that bound the same function object by a
``from ... import``. Each call records a span (name, start, end, parent,
request id) in memory; self time is a span's duration minus the time its
child spans cover. ``per_layer`` turns the spans into the per-layer
metrics, and ``write_spans`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import re
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

MODULES = ("cli", "catalog", "eisert", "tensor", "equilibrium", "ising", "oracle")

TARGETS = {
    "cli": ("main", "build_parser"),
    "catalog": ("extract_block", "quantized_game"),
    "eisert": ("extended_matrix",),
    "tensor": ("adjoint", "apply"),
    "equilibrium": ("pure_nash", "mixed_nash_symmetric_2x2"),
    "ising": ("to_ising", "magnetization", "phase_transition_bisect", "phase_transition_gamma"),
    "oracle": ("enumerate_magnetization", "transfer_matrix_finite", "metropolis_magnetization"),
}

# Bindings (qualified function @ module it is looked up in) that each
# workload is meant to call. The self-check fails when one is never hit.
EXPECTED_BINDINGS = {
    "sweep": (
        "cli.main@qgames.cli", "cli.build_parser@qgames.cli",
        "catalog.extract_block@qgames.cli", "catalog.extract_block@qgames.ising",
        "eisert.extended_matrix@qgames.eisert",
        "tensor.adjoint@qgames.tensor", "tensor.apply@qgames.tensor",
        "ising.to_ising@qgames.ising", "ising.magnetization@qgames.ising",
        "ising.phase_transition_bisect@qgames.ising", "ising.phase_transition_gamma@qgames.ising",
    ),
    "scan": (
        "cli.main@qgames.cli", "cli.build_parser@qgames.cli",
        "catalog.quantized_game@qgames.cli", "catalog.extract_block@qgames",
        "eisert.extended_matrix@qgames.eisert",
        "tensor.adjoint@qgames.tensor", "tensor.apply@qgames.tensor",
        "equilibrium.pure_nash@qgames.cli", "equilibrium.mixed_nash_symmetric_2x2@qgames",
        "ising.to_ising@qgames", "ising.magnetization@qgames",
    ),
    "chain": (
        "cli.main@qgames.cli", "cli.build_parser@qgames.cli",
        "oracle.enumerate_magnetization@qgames.oracle",
        "oracle.transfer_matrix_finite@qgames.oracle",
        "oracle.metropolis_magnetization@qgames.oracle",
        "ising.magnetization@qgames.ising",
    ),
}


def unit(metric):
    """Unit of a per-layer metric, read off its name."""
    match = re.search(r"[._](us|ms|ns)_per_", metric)
    if match:
        return match.group(1)
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _work(name, args, kwargs):
    """Units of work of one call, counted from its arguments (for
    `cli.main`, the subcommand instead)."""
    if name == "cli.main":
        argv = _arg(args, kwargs, 0, "argv")
        return argv[0] if argv else ""
    if name == "eisert.extended_matrix":
        n = len(_arg(args, kwargs, 2, "strategies"))
        return n * n * int(np.size(_arg(args, kwargs, 3, "gamma")))
    if name == "oracle.metropolis_magnetization":
        return int(_arg(args, kwargs, 1, "sweeps")) * int(args[0].N)
    if name == "oracle.enumerate_magnetization":
        return 1 << int(args[0].N)
    return 0


def _qgames_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "qgames" or n.startswith("qgames.")]


def _references(value):
    """Function objects a module-level value holds directly or one level down."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    if isinstance(value, type):
        return list(vars(value).values())
    return []


class Tracer:
    def __init__(self):
        # span: (id, name, module, start_ns, end_ns, parent id, request, self_ns, work, status);
        # status is the exit code of `cli.main` or "raised"
        self.spans = []
        self.hits = defaultdict(int)     # binding -> calls through it
        self.errors = defaultdict(int)   # module -> exceptions raised out of it
        self._stack = []                 # [span id, child ns] of the open spans
        self._next_id = 0
        self._request = -1
        self._patched = []               # (module, attribute, original)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, binding, fn):
        module = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.hits[binding] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0]
            self._stack.append(frame)
            status = ""
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if name == "cli.main":
                    status = str(result)
                return result
            except BaseException:
                self.errors[module] += 1
                status = "raised"
                raise
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append(
                    (span_id, name, binding.split("@")[1], start, end, parent,
                     self._request, end - start - frame[1], _work(name, args, kwargs), status)
                )

        return traced

    def install(self):
        """Wrap every binding of every target; return the binding names."""
        modules = _qgames_modules()
        for mod_name, funcs in TARGETS.items():
            defining = sys.modules["qgames." + mod_name]
            for fname in funcs:
                original = getattr(defining, fname)
                name = f"{mod_name}.{fname}"
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            binding = f"{name}@{module.__name__}"
                            self.hits[binding] += 0
                            self._patched.append((module, attr, original))
                            setattr(module, attr, self._wrap(name, binding, original))
        self._check_no_stray_reference(modules)
        return sorted(self.hits)

    def _check_no_stray_reference(self, modules):
        originals = {id(orig) for _, _, orig in self._patched}
        for module in modules:
            for attr, value in vars(module).items():
                for ref in _references(value):
                    if id(ref) in originals:
                        raise RuntimeError(
                            f"{module.__name__}.{attr} holds a traced function the tracer cannot patch"
                        )

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ requests

    def request(self, index, fn, *args):
        """Run fn(*args) as request `index`, inside a root span."""
        self._request = index
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                (span_id, "request", "bench", start, end, None, index, end - start - frame[1], 0, "")
            )

    # ------------------------------------------------------------ results

    def per_layer(self, n_requests):
        """Per-layer metrics of the spans recorded so far (0 where a layer
        did no work on this workload)."""
        calls = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        work = defaultdict(int)
        name_of = {}
        request_ns = 0
        nonzero_exits = 0
        for sid, name, _, start, end, parent, _, own, units, status in self.spans:
            name_of[sid] = name
            if name == "request":
                request_ns += end - start
                continue
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += own
            if isinstance(units, int):
                work[name] += units
            if name == "cli.main" and status != "0":
                nonzero_exits += 1
        field_evals = sum(
            1 for s in self.spans
            if s[1] == "catalog.extract_block" and name_of.get(s[5]) == "ising.phase_transition_bisect"
        )

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        n = n_requests
        m = {
            "cli.main.self_us_per_call": per(self_ns["cli.main"], calls["cli.main"], 1e-3),
            "cli.build_parser.us_per_call": per(total["cli.build_parser"], calls["cli.build_parser"], 1e-3),
            "cli.main.calls_per_req": per(calls["cli.main"], n),
            "cli.exit_nonzero_per_req": per(nonzero_exits, n),
            "catalog.extract_block.calls_per_req": per(calls["catalog.extract_block"], n),
            "catalog.extract_block.self_us_per_call": per(
                self_ns["catalog.extract_block"], calls["catalog.extract_block"], 1e-3),
            "catalog.quantized_game.us_per_call": per(
                total["catalog.quantized_game"], calls["catalog.quantized_game"], 1e-3),
            "eisert.extended_matrix.calls_per_req": per(calls["eisert.extended_matrix"], n),
            "eisert.extended_matrix.us_per_call": per(
                total["eisert.extended_matrix"], calls["eisert.extended_matrix"], 1e-3),
            "eisert.cells_per_req": per(work["eisert.extended_matrix"], n),
            "eisert.ns_per_cell": per(total["eisert.extended_matrix"], work["eisert.extended_matrix"]),
            "tensor.calls_per_req": per(sum(calls[f"tensor.{f}"] for f in TARGETS["tensor"]), n),
            "tensor.self_us_per_req": per(sum(self_ns[f"tensor.{f}"] for f in TARGETS["tensor"]), n, 1e-3),
            "equilibrium.pure_nash.us_per_call": per(
                total["equilibrium.pure_nash"], calls["equilibrium.pure_nash"], 1e-3),
            "equilibrium.mixed_nash_symmetric_2x2.us_per_call": per(
                total["equilibrium.mixed_nash_symmetric_2x2"],
                calls["equilibrium.mixed_nash_symmetric_2x2"], 1e-3),
            "ising.to_ising.us_per_call": per(total["ising.to_ising"], calls["ising.to_ising"], 1e-3),
            "ising.magnetization.us_per_call": per(
                total["ising.magnetization"], calls["ising.magnetization"], 1e-3),
            "ising.phase_transition_bisect.calls_per_req": per(calls["ising.phase_transition_bisect"], n),
            "ising.phase_transition_bisect.field_evals_per_call": per(
                field_evals, calls["ising.phase_transition_bisect"]),
            "ising.phase_transition_bisect.ms_per_call": per(
                total["ising.phase_transition_bisect"], calls["ising.phase_transition_bisect"], 1e-6),
            "ising.phase_transition_gamma.ms_per_call": per(
                total["ising.phase_transition_gamma"], calls["ising.phase_transition_gamma"], 1e-6),
            # one bisection is needed per transition located
            "ising.bisect.useful_ratio": per(
                calls["ising.phase_transition_gamma"], calls["ising.phase_transition_bisect"]),
            "oracle.metropolis.ns_per_site_update": per(
                total["oracle.metropolis_magnetization"], work["oracle.metropolis_magnetization"]),
            "oracle.metropolis.site_updates_per_req": per(work["oracle.metropolis_magnetization"], n),
            "oracle.metropolis_magnetization.ms_per_call": per(
                total["oracle.metropolis_magnetization"], calls["oracle.metropolis_magnetization"], 1e-6),
            "oracle.enumerate.ns_per_config": per(
                total["oracle.enumerate_magnetization"], work["oracle.enumerate_magnetization"]),
            "oracle.enumerate_magnetization.ms_per_call": per(
                total["oracle.enumerate_magnetization"], calls["oracle.enumerate_magnetization"], 1e-6),
            "oracle.transfer_matrix_finite.us_per_call": per(
                total["oracle.transfer_matrix_finite"], calls["oracle.transfer_matrix_finite"], 1e-3),
        }
        for module in MODULES:
            own = sum(v for k, v in self_ns.items() if k.startswith(module + "."))
            m[f"{module}.self_share"] = per(own, request_ns)
            m[f"{module}.errors"] = float(self.errors[module])
        return m

    def shape(self):
        """Call counts per CLI subcommand: how many of each traced function
        ran under one `qgames <subcommand>` call, on average."""
        by_id = {s[0]: s for s in self.spans}
        subcommands = defaultdict(int)
        counts = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            if s[1] == "cli.main":
                subcommands[s[8]] += 1
                continue
            parent = s[5]
            while parent is not None and by_id[parent][1] != "cli.main":
                parent = by_id[parent][5]
            if parent is not None:
                counts[by_id[parent][8]][s[1]] += 1
        return {
            sub: {name: c / subcommands[sub] for name, c in sorted(counts[sub].items())}
            for sub in sorted(subcommands)
        }

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,module,start_ns,end_ns,parent,request,self_ns,work,status\n")
            for span in sorted(self.spans):
                fh.write(",".join("" if v is None else str(v) for v in span) + "\n")
