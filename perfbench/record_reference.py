"""Record the reference outputs that perfbench/run.py checks jobs against.

Usage: python3 perfbench/record_reference.py

Runs every ``solve`` config and the ``figures`` job of the solve_sweep workload once
and writes their values, constant terms, exposures, loadings and effort
tables to perfbench/reference.json.  Re-record only for an intended change
of outputs, and say so where the change is described.
"""

import json
import shutil
import subprocess
import sys
import tempfile

from run import (BENCH, FIGURE_ARGS, FIGURE_PANELS, OUTPUT, SOLVE_CONFIGS, _cfg, _child_env,
                 _read_csv_columns, strict_json)


def cli(args, out):
    subprocess.run([sys.executable, "-m", "tic_contracts.cli", *args, "--out", str(out)],
                   env=_child_env(), check=True, stdout=subprocess.DEVNULL)


def main():
    OUTPUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=OUTPUT)
    try:
        solve = {}
        for config in SOLVE_CONFIGS:
            out = f"{work}/{config}"
            cli(["solve", "--config", _cfg(config)], out)
            sol = strict_json(f"{out}/solution.json")
            solve[config] = {
                "constant_term": sol["constant_term"],
                "value_principal": sol["value_principal"],
                "value_agent": sol["value_agent"],
                "z_star": sol["z_star"]["values"],
                "loading": sol["loading"]["values"],
            }
        cli(FIGURE_ARGS, f"{work}/figures")
        figures = {}
        for panel in FIGURE_PANELS:
            columns = _read_csv_columns(f"{work}/figures/{panel}")
            figures[panel] = {k: v for k, v in columns.items() if k.startswith("effort_")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"solve": solve, "figures": figures}, fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
