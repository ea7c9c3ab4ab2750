"""The traced benchmark's wrap targets still exist in the package.

``perfbench/traced.py`` installs timing wrappers by (module, attribute
path).  A rename in ``extforge`` would otherwise surface only as failed
operations in ``--trace 1`` benchmark runs, so this test resolves every
target the same way the installer does, without running a command.
"""

import importlib.util
import inspect
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    traced = _load_traced()
    mods = traced.load_modules()
    for mod_name, path, span in traced.SPANS:
        owner = mods[mod_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if inspect.isclass(owner):
            # installed on the class itself, so it must be defined there
            assert attr in owner.__dict__, f"{span}: {mod_name}.{path} not in the class body"
        else:
            assert callable(getattr(owner, attr, None)), f"{span}: {mod_name}.{path} is missing"


def test_counters_read_after_a_run_exist():
    mods = _load_traced().load_modules()
    assert isinstance(mods["resolution"]._mul_cache, dict)
    assert callable(mods["milnor"]._product_monomials.cache_info)
    assert callable(mods["milnor"].basis_in_degree.cache_info)
