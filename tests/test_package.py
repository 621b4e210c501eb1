import inspect
import os
import subprocess
import sys
from pathlib import Path

import excursionkit


def test_every_exported_name_resolves():
    assert len(set(excursionkit.__all__)) == len(excursionkit.__all__)
    for name in excursionkit.__all__:
        assert hasattr(excursionkit, name), name


def test_public_names_imported_from_submodules_are_exported():
    imported = {
        name
        for name, obj in vars(excursionkit).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("excursionkit.")
    }
    assert imported  # the package does import from its submodules
    assert sorted(imported - set(excursionkit.__all__)) == []


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only the clt reduction needs it
    code = "import sys, excursionkit.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert out.stdout.strip() == "False"
