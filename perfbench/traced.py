"""Run one ``ext-forge`` command in-process with per-layer timing wrappers.

Usage: ``python3 perfbench/traced.py METRICS_JSON -- CLI_ARGS...``

The wrappers live here, not in the package: each one is installed around a
layer's public function or method, in the defining module and under every
name another ``extforge`` module imported it by, and then ``cli.main`` runs
the command.  Per-multiplication helpers (``_rmul_dense``, ``_lmul_dense``,
``_product_monomials``) are deliberately left unwrapped: they run about a
million times per chart and a wrapper there would dominate what it measures.

A span's self time is its duration minus the time its wrapped callees took;
its total time counts only the outermost activation, so recursion is not
counted twice.  The command runs single-threaded (``--jobs 1``), so one span
stack suffices.  The metrics file holds the flat per-layer metrics named in
``LAYER_METRICS`` plus the exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute path, span name); the span name follows the module
SPANS = (
    ("gf2", "kernel_basis", "gf2.kernel_basis"),
    ("gf2", "rank", "gf2.rank"),
    ("gf2", "solve", "gf2.solve"),
    ("gf2", "sparse_rank", "gf2.sparse_rank"),
    ("gf2", "Solver.__init__", "gf2.Solver.build"),
    ("gf2", "Solver.solve", "gf2.Solver.solve"),
    ("gf2", "IncrementalSpan.add", "gf2.IncrementalSpan.add"),
    ("milnor", "milnor_product", "milnor.milnor_product"),
    ("resolution", "minimal_resolution", "resolution.minimal_resolution"),
    ("resolution", "FreeComplex.diff_dense", "resolution.FreeComplex.diff_dense"),
    ("resolution", "FreeComplex.apply_element", "resolution.FreeComplex.apply_element"),
    ("resolution", "FreeComplex.from_json_dict", "resolution.FreeComplex.from_json_dict"),
    ("resolution", "lift_cocycle", "resolution.lift_cocycle"),
    ("resolution", "cone", "resolution.cone"),
    ("resolution", "select_self_map", "resolution.select_self_map"),
    ("resolution", "ext_over_complex", "resolution.ext_over_complex"),
    ("resolution", "ext_dim_at", "resolution.ext_dim_at"),
    ("cli", "build_coefficients", "modules.build_coefficients"),
    ("modules", "FiniteModule.action_matrix", "modules.FiniteModule.action_matrix"),
    ("cobar", "cotor", "cobar.cotor"),
    ("cobar", "CobarComplex.verify_d_squared", "cobar.CobarComplex.verify_d_squared"),
    ("cli", "read_cache_entry", "cli.read_cache_entry"),
    ("cli", "write_cache_entry", "cli.write_cache_entry"),
    ("charts", "render_tsv", "charts.render"),
    ("charts", "render_svg", "charts.render"),
    ("charts", "render_png", "charts.render"),
    ("bgpoly", "check_lemma", "bgpoly.check_lemma"),
)

# reported metric -> (span name, field) for span fields, or (None, counter)
LAYER_METRICS = {
    "gf2.kernel_basis.s": ("gf2.kernel_basis", "self_s"),
    "gf2.kernel_basis.calls": ("gf2.kernel_basis", "calls"),
    "gf2.IncrementalSpan.add_s": ("gf2.IncrementalSpan.add", "self_s"),
    "gf2.IncrementalSpan.adds": ("gf2.IncrementalSpan.add", "calls"),
    "gf2.rank.s": ("gf2.rank", "self_s"),
    "gf2.rank.calls": ("gf2.rank", "calls"),
    "gf2.solve.s": ("gf2.solve", "self_s"),
    "gf2.Solver.build_s": ("gf2.Solver.build", "self_s"),
    "gf2.Solver.builds": ("gf2.Solver.build", "calls"),
    "gf2.Solver.solve_s": ("gf2.Solver.solve", "self_s"),
    # includes the cobar enumeration and apply_d the column stream drives
    "gf2.sparse_rank.s": ("gf2.sparse_rank", "self_s"),
    "gf2.sparse_rank.columns": (None, "sparse_rank.columns"),
    "gf2.sparse_rank.rank": (None, "sparse_rank.rank"),
    "gf2.sparse_rank.useful_ratio": (None, "sparse_rank.useful_ratio"),
    "milnor.milnor_product.s": ("milnor.milnor_product", "self_s"),
    "milnor.milnor_product.calls": ("milnor.milnor_product", "calls"),
    "milnor.product_monomials.misses": (None, "product_monomials.misses"),
    "milnor.basis_in_degree.misses": (None, "basis_in_degree.misses"),
    "milnor.mul_tables.built": (None, "mul_tables.built"),
    "resolution.minimal_resolution.s": ("resolution.minimal_resolution", "self_s"),
    "resolution.minimal_resolution.total_s": ("resolution.minimal_resolution", "total_s"),
    "resolution.generators": (None, "generators"),
    "resolution.FreeComplex.diff_dense.s": ("resolution.FreeComplex.diff_dense", "self_s"),
    "resolution.FreeComplex.diff_dense.calls": ("resolution.FreeComplex.diff_dense", "calls"),
    "resolution.FreeComplex.apply_element.s": ("resolution.FreeComplex.apply_element", "self_s"),
    "resolution.lift_cocycle.s": ("resolution.lift_cocycle", "self_s"),
    "resolution.lift_cocycle.total_s": ("resolution.lift_cocycle", "total_s"),
    "resolution.lift_cocycle.calls": ("resolution.lift_cocycle", "calls"),
    "resolution.cone.total_s": ("resolution.cone", "total_s"),
    "resolution.select_self_map.total_s": ("resolution.select_self_map", "total_s"),
    "resolution.ext_over_complex.s": ("resolution.ext_over_complex", "self_s"),
    "resolution.ext_over_complex.total_s": ("resolution.ext_over_complex", "total_s"),
    "resolution.ext_dim_at.total_s": ("resolution.ext_dim_at", "total_s"),
    "resolution.chart.bidegrees": (None, "chart.bidegrees"),
    "modules.build_coefficients.s": ("modules.build_coefficients", "self_s"),
    "modules.FiniteModule.action_matrix.s": ("modules.FiniteModule.action_matrix", "self_s"),
    "modules.FiniteModule.action_matrix.calls": ("modules.FiniteModule.action_matrix", "calls"),
    "cobar.cotor.total_s": ("cobar.cotor", "total_s"),
    "cobar.CobarComplex.verify_d_squared.s": ("cobar.CobarComplex.verify_d_squared", "self_s"),
    "cobar.CobarComplex.verify_d_squared.calls": ("cobar.CobarComplex.verify_d_squared", "calls"),
    "cli.read_cache_entry.s": ("cli.read_cache_entry", "self_s"),
    "resolution.FreeComplex.from_json_dict.s": ("resolution.FreeComplex.from_json_dict", "self_s"),
    "cli.cache.hits": (None, "cache.hits"),
    "cli.write_cache_entry.s": ("cli.write_cache_entry", "self_s"),
    "cli.cache.misses": (None, "cache.misses"),
    "cli.cache.payload_bytes": (None, "cache.payload_bytes"),
    "charts.render.s": ("charts.render", "self_s"),
    "bgpoly.check_lemma.s": ("bgpoly.check_lemma", "self_s"),
}


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Span statistics and counters for one traced command."""

    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = {}
        self.counters: dict[str, int] = {}
        self._child_time: list[float] = []  # per open span: time in wrapped callees
        self._depth: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_result=None, on_args=None):
        stats = self.spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args = on_args(args)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            self._child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = self._child_time.pop()
                self._depth[name] = depth
                stats["calls"] += 1
                stats["self_s"] += elapsed - child
                if depth == 0:
                    stats["total_s"] += elapsed
                if self._child_time:
                    self._child_time[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper


def _hooks(tracer: Tracer) -> dict[str, dict]:
    """Per-span extras: counters read from arguments and results."""

    def counted_columns(args):
        def stream(columns):
            for col in columns:
                tracer.count("sparse_rank.columns", 1)
                yield col

        return (stream(args[0]),) + tuple(args[1:])

    def cache_read(entry):
        tracer.count("cache.hits" if entry is not None else "cache.misses", 1)

    return {
        "gf2.sparse_rank": {
            "on_args": counted_columns,
            "on_result": lambda r: tracer.count("sparse_rank.rank", r),
        },
        "resolution.minimal_resolution": {
            "on_result": lambda res: tracer.count("generators", sum(len(lv) for lv in res.gens)),
        },
        "resolution.ext_over_complex": {
            "on_result": lambda chart: tracer.count("chart.bidegrees", len(chart.dims)),
        },
        "cli.read_cache_entry": {"on_result": cache_read},
        "cli.write_cache_entry": {
            "on_result": lambda path: tracer.count("cache.payload_bytes", Path(path).stat().st_size),
        },
    }


def load_modules() -> dict:
    return {
        name: importlib.import_module(f"extforge.{name}")
        for name in ("gf2", "milnor", "modules", "resolution", "cobar", "bgpoly", "charts", "cli")
    }


def install(tracer: Tracer, mods: dict) -> None:
    """Wrap every target in SPANS, replacing each by-name import as well."""
    hooks = _hooks(tracer)
    for mod_name, path, span in SPANS:
        owner = mods[mod_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(span, raw.__func__, **hooks.get(span, {}))))
            else:
                setattr(owner, attr, tracer.wrap(span, raw, **hooks.get(span, {})))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, **hooks.get(span, {}))
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def collect(tracer: Tracer, mods: dict) -> dict[str, float]:
    """Flat LAYER_METRICS values after the command has run."""
    counters = dict(tracer.counters)
    counters["product_monomials.misses"] = mods["milnor"]._product_monomials.cache_info().misses
    counters["basis_in_degree.misses"] = mods["milnor"].basis_in_degree.cache_info().misses
    counters["mul_tables.built"] = len(mods["resolution"]._mul_cache)
    columns = counters.get("sparse_rank.columns", 0)
    counters["sparse_rank.useful_ratio"] = counters.get("sparse_rank.rank", 0) / columns if columns else 0.0
    out: dict[str, float] = {}
    for metric, (span, field) in LAYER_METRICS.items():
        if span is None:
            out[metric] = counters.get(field, 0)
        else:
            out[metric] = tracer.spans.get(span, {}).get(field, 0)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    metrics_path, cli_argv = Path(argv[0]), argv[2:]
    mods = load_modules()
    tracer = Tracer()
    install(tracer, mods)
    rc = mods["cli"].main(cli_argv)
    sys.stdout.flush()
    doc = {"exit_code": rc, "metrics": collect(tracer, mods)}
    tmp = metrics_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, metrics_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
