"""ConfBench's benchmark: end-to-end and per-layer wall-clock metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass is one fresh process
(``one_pass.py``) calling one experiment entry once; passes run one at
a time, in whole rounds, until ``--seconds`` is spent.

A round runs one pass on each seed of ``pass_seeds``: the seed whose
digest ``spec.json`` records, so every run checks the recorded digest,
and the workload's ``derived_seeds`` seeds derived from ``--seed``.
The seed set is fixed by ``--seed`` alone and every seed gets as many
passes as the others, so a faster program covers the same inputs, in
the same proportions, as a slower one.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
medians over the untraced passes (of each pass's mean unit latency for
``unit_ms_mean``), and the tail unit latency pooled over them.
``setup_s`` also counts set-up passes, processes that stop just before
the entry call, run in the first round.  ``--trace 1`` runs each seed of a round
untraced and then traced, and prints the per-layer metrics: medians
over the traced passes, plus the tracing overhead against the untraced
ones.

Every pass's artifact is checked.  Passes on one seed must give one
digest, and the recorded seed must give the recorded digest.  The line
before the last maps each seed to its digest, for comparing two
versions of the program on a held-out seed.  The last line of output
is one JSON object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import median_metrics, metric_units  # noqa: E402
from spans import perf_counter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS_PER_RUN = 100
#: the fewest passes in one round, one per seed of ``pass_seeds``;
#: the tail percentile is fixed from it
MIN_PASSES = 3
#: set-up-only processes per seed in a ``--trace 0`` run: ``setup_s``
#: is a median over these and the plain passes
SETUP_PROBES_PER_SEED = 2
#: a run must end well inside three minutes, whatever --seconds says
HARD_LIMIT_S = 165.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99)
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "unit_ms_mean": "ms",
             "unit_ms_tail": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond
    it, out of ``n``."""
    fits = [p for p in TAIL_LADDER if n - math.ceil(p / 100.0 * n) >= 10]
    if not fits:
        raise BenchError(f"{n} unit samples are too few for any tail")
    return fits[-1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: context for comparing
    machines, never a gated metric."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return perf_counter() - start


def pass_seeds(seed: int, digest_seed: int, derived: int
               ) -> tuple[int, ...]:
    """The seeds of one round: the recorded digest seed and
    ``derived`` more derived from ``seed``."""
    if not MIN_PASSES - 1 <= derived < SEEDS_PER_RUN:
        raise BenchError(f"{derived} derived seeds per round")
    base = seed * SEEDS_PER_RUN
    return (digest_seed, *range(base + 1, base + 1 + derived))


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    spawned_at = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "one_pass.py"), "--workload",
             workload, "--seed", str(seed), "--mode", mode],
            env=env, stdout=subprocess.PIPE, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {mode} pass ran over {timeout:.0f} s") from exc
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"a {mode} pass exited with {done.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["entry_at"] - spawned_at
    result["seed"] = seed
    return result


def run_passes(workload: str, seeds: tuple[int, ...], seconds: int,
               trace: bool) -> list[dict]:
    """Whole rounds until about ``seconds`` are spent (the last round
    ends within half a round of it on average), at least one.  A plain
    round is one pass per seed, and the first also runs
    ``SETUP_PROBES_PER_SEED`` set-up passes before each; a traced
    round is a plain and then a traced pass per seed."""
    modes = ("plain", "traced") if trace else ("plain",)
    probes = 0 if trace else SETUP_PROBES_PER_SEED
    passes: list[dict] = []
    started = perf_counter()
    rounds = 0
    while True:
        for seed in seeds:
            for mode in ("setup",) * probes + modes:
                spent = perf_counter() - started
                passes.append(run_pass(workload, seed, mode,
                                       HARD_LIMIT_S - spent))
        probes = 0
        rounds += 1
        spent = perf_counter() - started
        per_round = spent / rounds
        if (spent + per_round / 2 > seconds
                or spent + per_round > HARD_LIMIT_S):
            return passes


def digest_problems(passes: list[dict], recorded: dict) -> list[str]:
    """Passes on one seed must agree on the digest, and the recorded
    seed must give the recorded digest."""
    by_seed = digests_by_seed(passes)
    problems = []
    for seed, digests in by_seed.items():
        if len(digests) != 1:
            problems.append(f"seed {seed}: passes disagree on the digest")
        elif seed == recorded["seed"] and digests != [recorded["digest"]]:
            problems.append(f"seed {seed}: digest differs from the "
                            f"recorded {recorded['digest']}")
    if recorded["seed"] not in by_seed:
        problems.append(f"no pass ran the recorded seed {recorded['seed']}")
    return problems


def digests_by_seed(passes: list[dict]) -> dict[int, list]:
    """Seed -> the distinct digests its passes gave, in pass order."""
    by_seed: dict[int, list] = {}
    for one in passes:
        seen = by_seed.setdefault(one["seed"], [])
        if one["digest"] not in seen:
            seen.append(one["digest"])
    return by_seed


def end_to_end(plain: list[dict], setup: list[dict]
               ) -> tuple[dict[str, float], float, int]:
    samples = [ms for one in plain for ms in one["units_ms"]]
    # fixed by the pass size, not by how many rounds fit in the run
    tail = tail_percentile(
        MIN_PASSES * min(len(one["units_ms"]) for one in plain))
    metrics = {
        "setup_s": statistics.median(
            one["setup_s"] for one in setup + plain),
        "wall_s": statistics.median(one["wall_s"] for one in plain),
        # a mean, not a p50: secure-boot's units are half eager and half
        # lazy boots, so its p50 is whichever unit sits at the edge of
        # the two populations
        "unit_ms_mean": statistics.median(
            statistics.fmean(one["units_ms"]) for one in plain),
        "unit_ms_tail": percentile(samples, tail),
        "peak_rss_mb": statistics.median(one["peak_rss_mb"] for one in plain),
    }
    return metrics, tail, len(samples)


def per_layer(plain: list[dict], traced: list[dict], error_rate: float
              ) -> dict[str, float]:
    metrics = median_metrics([one["layers"] for one in traced])
    metrics["trace.overhead_s"] = (
        statistics.median(one["wall_s"] for one in traced)
        - statistics.median(one["wall_s"] for one in plain))
    metrics["error_rate"] = error_rate
    return metrics


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        raise BenchError("run from the repository root: src/repro is missing")
    section = "per_layer" if args.trace else "end_to_end"
    units = declared(section)
    ours = metric_units() if args.trace else E2E_UNITS
    if units != ours:
        raise BenchError(f"BENCHMARK.json {section} does not match the "
                         "metrics this benchmark measures")
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    recorded = {"seed": spec["digest_seed"],
                "digest": spec["workloads"][args.workload]["digest"]}

    print(f"calibration_s {calibrate():.6f}")
    seeds = pass_seeds(args.seed, recorded["seed"],
                       WORKLOADS[args.workload].derived_seeds)
    passes = run_passes(args.workload, seeds, args.seconds, bool(args.trace))
    plain = [one for one in passes if one["mode"] == "plain"]
    traced = [one for one in passes if one["mode"] == "traced"]
    setup = [one for one in passes if one["mode"] == "setup"]
    passes = [one for one in passes if one["mode"] != "setup"]
    attempted = sum(one["attempted"] for one in plain)
    if not attempted:
        raise BenchError("the workload ran no units")
    mismatches = digest_problems(passes, recorded)
    # a unit of a pass whose artifact failed a check failed with it
    failed = attempted if mismatches else sum(
        one["attempted"] if one["problems"] else one["failed"]
        for one in plain)
    refused = sum(one["refused"] for one in plain)
    problems = [p for one in passes for p in one["problems"]] + mismatches

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} plain "
          f"+ {len(traced)} traced + {len(setup)} set-up passes")
    for one in passes:
        print(f"{one['mode']} pass on seed {one['seed']}: setup "
              f"{one['setup_s']:.3f} s, wall {one['wall_s']:.3f} s, digest "
              f"{one['digest']}")
    for problem in problems:
        print(f"FAILED: {problem}")
    if args.trace:
        metrics = per_layer(plain, traced, (failed + refused) / attempted)
        for name, count in traced[0]["counts"].items():
            print(f"count {name} {count}")
    else:
        metrics, tail, samples = end_to_end(plain, setup)
        print(f"unit_ms_tail is p{tail:g} over {samples} unit samples")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("digests " + json.dumps(
        {seed: digests[0] if len(digests) == 1 else digests
         for seed, digests in digests_by_seed(passes).items()}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
