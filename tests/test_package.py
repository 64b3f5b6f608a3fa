"""The package namespace: `import lindsum` imports its core, numerics, family
and sums, and each other submodule, with the names of __all__ it holds, on
first access."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import lindsum

SUBMODULES = ("numerics", "family", "sums", "reliability", "validation", "cli")
LAZY = ("reliability", "validation", "cli")
# second routes deleted with no alias: the ks/* rows' _ks_distance, the systems'
# StandbyModel.reliability and StandbyModel.exponential(theta, n).mttf() stay
REMOVED = ("KS_99_COEFFICIENT", "KsReport", "ReliabilityCurve", "exponential_mttf",
           "ks_statistic", "reliability_curve")


def _run(code: str) -> str:
    """Run code in a fresh interpreter that imports lindsum from this checkout;
    its stdout."""
    env = dict(os.environ)
    src = str(Path(lindsum.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_name_resolves_to_its_home_object():
    # each name, looked up first on a fresh package, is the object that the
    # submodules exporting it hold
    _run(
        "import importlib, sys\n"
        "import lindsum\n"
        "names = {name: getattr(lindsum, name) for name in lindsum.__all__}\n"
        f"modules = [importlib.import_module('lindsum.' + m) for m in {SUBMODULES!r}]\n"
        "for name, value in names.items():\n"
        "    homes = [m for m in modules if name in getattr(m, '__all__', ())]\n"
        "    assert homes or name == '__version__', name\n"
        "    assert all(vars(m)[name] is value for m in homes), name\n"
    )


def test_star_import_binds_every_name():
    out = _run(
        "from lindsum import *\n"
        "import lindsum\n"
        "missing = [n for n in lindsum.__all__ if n not in globals()]\n"
        "print(missing)\n"
    )
    assert out.strip() == "[]"


def test_dir_lists_names_and_submodules_before_they_load():
    out = _run(
        "import sys\n"
        "import lindsum\n"
        "names = dir(lindsum)\n"
        "print(all(n in names for n in lindsum.__all__))\n"
        f"print(all(m in names for m in {SUBMODULES!r}))\n"
        f"print(any('lindsum.' + m in sys.modules for m in {LAZY!r}))\n"
    )
    assert out.split() == ["True", "True", "False"]


def test_dir_in_process_imports_nothing():
    # the same listing in this process, where line coverage sees __dir__ run
    before = set(sys.modules)
    names = dir(lindsum)
    assert set(sys.modules) == before
    assert names == sorted(names)
    assert {*lindsum.__all__, *SUBMODULES} <= set(names)


def test_submodule_and_unknown_attributes():
    _run(
        "import lindsum\n"
        "import lindsum.validation\n"
        "assert lindsum.cli is __import__('sys').modules['lindsum.cli']\n"
        "assert lindsum.validation.verify_all is lindsum.verify_all\n"
        "try:\n"
        "    lindsum.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )


def test_removed_names_are_gone():
    modules = [importlib.import_module(f"lindsum.{m}") for m in SUBMODULES]
    for name in REMOVED:
        assert name not in lindsum.__all__ and not hasattr(lindsum, name), name
        assert not [m.__name__ for m in modules if hasattr(m, name)], name
    # sample_sum has one home, lindsum.sums
    assert "sample_sum" not in lindsum.validation.__all__
    assert not hasattr(lindsum.validation, "sample_sum")
