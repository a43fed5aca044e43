"""The cold ``warlock`` CLI imports only what its commands need.

``import repro`` resolves its exports lazily (PEP 562), and the CLI imports
the graph, tuning, simulation, service and lint layers, and the
process-pool machinery, only inside the subcommands or code paths that use
them.  A fresh interpreter proves it: these tests fail as soon as a
module-level import drags one of them back onto the recommend path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules neither ``import repro.cli`` nor a default recommend may load.
OFF_PATH = (
    "networkx",
    "repro.graph",
    "repro.service",
    "repro.lint",
    "repro.simulation",
    "repro.tuning",
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
)


def _modules_after(statement: str) -> set:
    """``sys.modules`` of a fresh interpreter after running ``statement``."""
    env = dict(os.environ)
    env.pop("WARLOCK_SANITIZE", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_cli_import_leaves_off_path_layers_unloaded():
    loaded = _modules_after("import repro.cli")
    assert "repro.cli" in loaded
    assert sorted(name for name in OFF_PATH if name in loaded) == []


def test_cli_recommend_run_leaves_off_path_layers_unloaded():
    # Building the parser and running a default (jobs="auto") sweep must not
    # pull them in either: the lint flags attach only when `lint` is parsed,
    # and "auto" never starts a process pool.
    loaded = _modules_after(
        "import repro.cli\n"
        "repro.cli.main(['recommend', '--json', '--scale', '0.02', '--disks', '16'])"
    )
    assert "repro.engine.executor" in loaded
    assert sorted(name for name in OFF_PATH if name in loaded) == []


def test_bare_package_import_loads_no_subpackage():
    loaded = _modules_after("import repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        repro.no_such_export  # noqa: B018
