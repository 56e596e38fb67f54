"""The scripts under scripts/, run as a user would: a subprocess from the
checkout root with PYTHONPATH=src."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reference_data import PROPERTY_TABLE

ROOT = Path(__file__).resolve().parent.parent


def test_property_table_n32_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "scripts/property_table.py", "--max-n", "32"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    table, _, averages = out.partition("\n\n")
    rows = {r["label"]: r for r in csv.DictReader(io.StringIO(table))}
    assert sorted(rows) == sorted(ref.label for ref in PROPERTY_TABLE[32])
    # every n = 32 width is exact, so the published figures are met at any seed
    for ref in PROPERTY_TABLE[32]:
        row = rows[ref.label]
        got = (int(row["n"]), int(row["k"]), int(row["D"]), row["MPL"], int(row["BW"]))
        assert got == (32, ref.k, ref.diameter, ref.mpl_2dp, ref.bisection)
    assert averages.count("mean BW ratio") == 4


@pytest.mark.parametrize("script", ["scripts/find_optima.py", "scripts/property_table.py"])
@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_restarts_below_one_is_a_usage_error(script, restarts):
    # refused by argparse before the header or any row is printed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, script, "--restarts", restarts],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert "--restarts must be >= 1" in run.stderr and "Traceback" not in run.stderr
