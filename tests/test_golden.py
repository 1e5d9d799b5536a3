"""Every number the program prints, pinned: the golden digests.

``tests/golden/printed.json`` holds, for each command line of
``tools/byte_sweep.py`` (the benchmark's at seed 1 and the sweep's own),
the exit code and digests of the stdout and ``--out`` bytes, written by
``python tools/byte_sweep.py --write-golden tests/golden/printed.json``.
Here each call runs in process through ``fracheat.cli.main``, its
``--out`` under a temporary directory, and must print the same bytes.  A
change that alters printed bytes on purpose rewrites the file and lists
each changed line in CHANGES.md.

The file also names the numpy, scipy and machine it was written on, and
the test runs there only: some printed values are rounding-level (the
errors of ``caputo-order --function linear``), and another numpy, BLAS
or CPU may round them differently.  Elsewhere it is skipped and says
why; CI's ``byte-identity`` job compares two trees on one configuration.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from fracheat.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_sweep():
    """``tools/byte_sweep.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "byte_sweep", ROOT / "tools" / "byte_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_printed_bytes_match_the_golden_digests(tmp_path):
    sweep = load_sweep()
    pinned = json.loads((ROOT / "tests" / "golden" / "printed.json")
                        .read_text())
    if pinned["config"] != sweep.golden_config():
        pytest.skip(f"golden digests written on {pinned['config']}, "
                    f"not on {sweep.golden_config()}")
    golden, calls, problems = pinned["calls"], sweep.sweep_calls(), []
    for i, argv in enumerate(calls):
        out = tmp_path / f"{i}.out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([str(out) if a == "{out}" else a for a in argv])
        printed = out.read_bytes() if out.exists() else b""
        key = " ".join(argv)
        moved = sweep.golden_mismatch(golden.get(key), code,
                                      stdout.getvalue(), printed)
        if moved:
            problems += [f"fracheat {key}", *moved]
    stale = set(golden) - {" ".join(argv) for argv in calls}
    problems += [f"golden entry without a call: {key}" for key in stale]
    assert not problems, "\n".join(problems)
