#!/usr/bin/env python
"""Determinism check: serial and ``-j 2`` runs must be byte-identical.

Each check runs one CLI command twice, once serially and once with
``--jobs 2``, each side in its own scratch directory, and compares:

- the rendered stdout, minus ``wrote ...`` artifact-path lines;
- every artifact file the command writes (metrics snapshot, and for
  the telemetry check the Chrome trace).

Checks:

- ``telemetry`` — ``trace export`` of cpustress/python on tdx, 3
  trials: the Chrome trace and the metrics snapshot;
- ``fig5x`` (verifier service, ``-t 2``), ``fig9`` (cluster, ``-t 1``)
  and ``fig10`` (supply chain, ``-t 1``) — figure text and metrics;
- ``fig3`` … ``fig8`` and ``dbms`` under ``--quick`` — figure text and
  metrics.

Exit status 0 means every check held; 1 names each mismatch.

Usage::

    python scripts/determinism_check.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: name -> (CLI arguments, artifact files the command writes); the
#: artifact names are relative to the side's own scratch directory
CHECKS: dict[str, tuple[list[str], list[str]]] = {
    "telemetry": (
        ["trace", "export", "-f", "cpustress", "-l", "python", "-p", "tdx",
         "-t", "3", "--format", "chrome", "--out", "trace.json",
         "--metrics-out", "metrics.json"],
        ["trace.json", "metrics.json"]),
    "fig5x": (["experiment", "fig5x", "-t", "2",
               "--metrics-out", "metrics.json"], ["metrics.json"]),
    "fig9": (["experiment", "fig9", "-t", "1",
              "--metrics-out", "metrics.json"], ["metrics.json"]),
    "fig10": (["experiment", "fig10", "-t", "1",
               "--metrics-out", "metrics.json"], ["metrics.json"]),
    **{name: (["experiment", name, "--quick",
               "--metrics-out", "metrics.json"], ["metrics.json"])
       for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "dbms")},
}


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_side(args: list[str], workdir: Path) -> bytes:
    """Run the CLI in ``workdir``; return stdout without ``wrote`` lines."""
    workdir.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=workdir, env=cli_env(), check=True, stdout=subprocess.PIPE,
    )
    return b"".join(line for line in proc.stdout.splitlines(keepends=True)
                    if not line.startswith(b"wrote "))


def run_check(name: str, scratch: Path) -> list[str]:
    """Run one check; return the names of the outputs that differ."""
    args, artifacts = CHECKS[name]
    serial = scratch / name / "serial"
    parallel = scratch / name / "parallel"
    outputs = {"stdout": (run_side(args, serial),
                          run_side([*args, "--jobs", "2"], parallel))}
    for artifact in artifacts:
        outputs[artifact] = ((serial / artifact).read_bytes(),
                             (parallel / artifact).read_bytes())
    return [output for output, (a, b) in outputs.items() if a != b]


def main() -> int:
    mismatches: list[str] = []
    with tempfile.TemporaryDirectory(prefix="determinism-") as scratch:
        for name in CHECKS:
            started = time.monotonic()
            differing = run_check(name, Path(scratch))
            verdict = ("ok" if not differing
                       else "MISMATCH: " + ", ".join(differing))
            print(f"{name:10s} {verdict}  "
                  f"({time.monotonic() - started:.1f} s)", flush=True)
            mismatches += [f"{name}: {output}" for output in differing]
    if mismatches:
        print("serial and -j 2 differ in:\n  " + "\n  ".join(mismatches))
        return 1
    print(f"all {len(CHECKS)} checks byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
