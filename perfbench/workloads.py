"""The benchmark's workloads, how each times its unit, and how each
checks that the artifact it produced is right.

Each workload is one public experiment entry called once, serially, in
a fresh process: users pay every in-process cache fill on each
``confbench experiment`` run, so the timed pass is the process's first.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

from layers import ENTRIES
from spans import Target, perf_counter

#: Arrivals per cluster-fleet unit.
CLUSTER_BLOCK = 1000
#: cluster-fleet size: 100 req/s per host, and 40 s of arrivals at that
#: mean rate per process, which is one whole 20 s burst cycle (4 s at
#: 6x, then 16 s at 1x) and eight 5 s autoscale rounds
CLUSTER_HOSTS = 16
CLUSTER_RATE_RPS = 100 * CLUSTER_HOSTS


class CallClock:
    """Times each outermost call of the unit functions.

    A unit that raises or returns a degraded result counts as failed.
    Nested calls (a provision that pulls) belong to the outer unit.
    """

    def __init__(self, targets: tuple[Target, ...]) -> None:
        self.targets = targets
        self.samples_ms: list[float] = []
        self.failed = 0
        self._busy = False

    @property
    def attempted(self) -> int:
        return len(self.samples_ms)

    def patches(self):
        return [(target, self._wrap) for target in self.targets]

    def _wrap(self, fn: Callable) -> Callable:
        samples = self.samples_ms

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed += 1
                raise
            finally:
                samples.append((perf_counter() - start) * 1e3)
                self._busy = False
            if getattr(result, "degraded", False):
                self.failed += 1
            return result

        return timed


class BlockClock:
    """Times each block of ``size`` consecutive arrivals of one sweep.

    The cluster has no call a user waits on; its open loop runs in
    virtual time.  What a user of the harness sees is how fast the
    gateway pushes requests through, so the unit is a block of
    arrivals, timed from the draw of its first request to the draw of
    the next block's first.  The partial block at a sweep's end, with
    the drain after the last arrival, is not a sample.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.samples_ms: list[float] = []
        self.failed = 0
        self.attempted = 0
        self._in_sweep = 0
        self._mark: float | None = None

    def patches(self):
        base = "repro.core.cluster"
        return [
            (Target("core.cluster", f"{base}.traffic",
                    "TrafficGenerator.next_tenant"), self._tick),
            (Target("core.cluster", f"{base}.gateway",
                    "ClusterGateway.run"), self._sweep),
        ]

    def _tick(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            if self._in_sweep % self.size == 0:
                now = perf_counter()
                if self._mark is not None:
                    self.samples_ms.append((now - self._mark) * 1e3)
                self._mark = now
            self._in_sweep += 1
            self.attempted += 1
            return fn(*args, **kwargs)

        return ticked

    def _sweep(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def sweep(*args, **kwargs):
            self._in_sweep = 0
            self._mark = None
            return fn(*args, **kwargs)

        return sweep


@dataclass(frozen=True)
class Workload:
    name: str
    entry: Target
    kwargs: dict
    #: a fresh unit clock for one pass
    clock: Callable[[], object]
    #: artifact -> problems found (empty when correct)
    check: Callable[[object], list[str]]
    #: artifact -> units the program refused by design (shed/degraded)
    refused: Callable[[object], int] = lambda result: 0
    #: seeds derived from --seed in each round: more where a pass is
    #: short and its wall time depends on the seed, so a run's median
    #: spans more inputs
    derived_seeds: int = 2


def digest(result) -> str:
    """sha256 of the rendered artifact plus its metrics snapshot."""
    text = result.render() + "\n" + json.dumps(
        result.metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _bad_ratios(where: str, ratios: dict, expected: set) -> list[str]:
    problems = []
    if set(ratios) != expected:
        problems.append(f"{where}: {len(ratios)} cells, expected "
                        f"{len(expected)}")
    problems += [f"{where}: cell {key} = {value!r}"
                 for key, value in ratios.items()
                 if not (math.isfinite(value) and value > 0)]
    return problems


def check_fig6(result) -> list[str]:
    cells = {(language, workload) for language in result.languages
             for workload in result.workloads}
    problems = [] if len(cells) == 175 else [f"{len(cells)} cells, not 175"]
    for platform in ("tdx", "sev-snp"):
        problems += _bad_ratios(platform, result.grids.get(platform, {}),
                                cells)
    return problems


def check_dbms(result) -> list[str]:
    problems = [] if result.test_names else ["no speedtest tests ran"]
    for platform in ("tdx", "sev-snp", "cca"):
        problems += _bad_ratios(platform, result.ratios.get(platform, {}),
                                set(result.test_names))
    return problems


def _cluster_counts(result, process: str) -> dict[str, float]:
    counters = result.metrics["counters"]
    return {key: counters.get(f"cluster.{process}.{key}", 0)
            for key in ("requests", "served", "degraded", "shed")}


def check_fig9(result) -> list[str]:
    problems = [] if result.conserved else ["conserved is False"]
    if set(result.rows) != {"poisson", "diurnal", "burst"}:
        problems.append(f"processes {sorted(result.rows)}")
    for process in result.rows:
        c = _cluster_counts(result, process)
        if not c["requests"] or c["requests"] != (
                c["served"] + c["degraded"] + c["shed"]):
            problems.append(f"{process}: requests not conserved {c}")
    return problems


def refused_fig9(result) -> int:
    return int(sum(c["shed"] + c["degraded"] for c in (
        _cluster_counts(result, process) for process in result.rows)))


def check_fig10(result) -> list[str]:
    problems = [] if result.reconciled else ["reconciled is False"]
    rows = result.rows
    for platform in ("tdx", "sev-snp"):
        for side in ("secure", "normal"):
            lazy = rows[f"{platform}/lazy-{side}"]["cold_boot_ns"]
            eager = rows[f"{platform}/eager-{side}"]["cold_boot_ns"]
            if not lazy < eager:
                problems.append(f"{platform}/{side}: lazy cold boot "
                                f"{lazy} not below eager {eager}")
        for strategy in ("eager", "lazy"):
            secure = rows[f"{platform}/{strategy}-secure"]["cold_boot_ns"]
            normal = rows[f"{platform}/{strategy}-normal"]["cold_boot_ns"]
            if not secure > normal:
                problems.append(f"{platform}/{strategy}: secure cold boot "
                                f"{secure} not above normal {normal}")
    return problems


_FIG6, _DBMS, _FIG9, _FIG10 = ENTRIES
_SUPPLY = "repro.supply"

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "faas-grid", _FIG6, {"trials": 2},
        lambda: CallClock((Target("core", "repro.core.runner",
                                  "execute_trial"),)),
        check_fig6),
    Workload(
        "dbms-speedtest", _DBMS, {"trials": 1},
        lambda: CallClock((Target("workloads.dbms",
                                  "repro.workloads.dbms.engine",
                                  "Database.execute"),)),
        check_dbms,
        derived_seeds=5),
    Workload(
        "cluster-fleet", _FIG9,
        {"hosts": CLUSTER_HOSTS, "requests": 40 * CLUSTER_RATE_RPS,
         "rate_rps": float(CLUSTER_RATE_RPS)},
        lambda: BlockClock(CLUSTER_BLOCK),
        check_fig9, refused_fig9),
    Workload(
        "secure-boot", _FIG10, {},
        # the unit is a confidential boot only: the normal cells' bare
        # pulls (under 1 ms, against 10-70 ms for a provision) are half
        # of all boots; counted, they would halve the mean and hide the
        # boot a user waits on
        lambda: CallClock((Target("supply", f"{_SUPPLY}.launch",
                                  "LaunchProvisioner.provision"),)),
        check_fig10,
        derived_seeds=5),
)}
