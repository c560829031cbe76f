"""The traced run: which functions of which layer get a span, and the
per-layer metrics folded from those spans.

Layers are the packages of the lint's layer table
(``repro.analysis.layering.LAYERS``), with ``core.cluster`` split out
of ``core``.  ``workloads.ml`` and ``workloads.unixbench`` are left out:
they take under 3% of ``confbench experiment all`` wall time.
"""

from __future__ import annotations

import statistics
import sys

from spans import Target

_RUNNER = "repro.core.runner"
_CONTEXT = "repro.guestos.context"
_RUNTIME = "repro.runtimes.base"
_EXECUTOR = "repro.workloads.dbms.executor"
_CLUSTER = "repro.core.cluster"
_REGISTRY = "repro.supply.registry"
_IMAGE = "repro.supply.image"
_CRYPTO = "repro.attest.crypto"
_SERVICE = "repro.attest.service"
_METRICS = "repro.obs.metrics"

#: Every function the traced run wraps, in layer-table order.
TARGETS: tuple[Target, ...] = (
    Target("sim", "repro.sim.opstream", "BatchLedger.run"),
    Target("sim", "repro.sim.opstream", "accumulate"),
    Target("sim", "repro.sim.events", "LeanEventQueue.push"),
    Target("sim", "repro.sim.events", "LeanEventQueue.pop"),
    Target("hw", "repro.hw.cpu", "CpuModel.execute_split"),
    Target("guestos", _CONTEXT, "ExecContext.run_batch"),
    Target("guestos", _CONTEXT, "ExecContext.price_op"),
    Target("guestos", _CONTEXT, "ExecContext.disk_read"),
    Target("guestos", _CONTEXT, "ExecContext.disk_write"),
    Target("guestos", _CONTEXT, "ExecContext.cpu_execute"),
    Target("tee", "repro.tee.vm", "Vm.boot"),
    Target("tee", "repro.tee.vm", "Vm.run"),
    Target("attest", _CRYPTO, "generate_keypair"),
    Target("attest", _CRYPTO, "derived_keypair"),
    Target("attest", _CRYPTO, "RsaKeyPair.sign"),
    Target("attest", _CRYPTO, "RsaPublicKey.verify"),
    Target("attest", _SERVICE, "VerifierService.verify_launch"),
    # the verifier reaches the tiers through fetch_* -> _resolve;
    # TieredCollateral.fetch has no caller on these workloads
    Target("attest", _SERVICE, "TieredCollateral._resolve"),
    Target("runtimes", _RUNTIME, "RuntimeSession.bootstrap"),
    Target("runtimes", _RUNTIME, "RuntimeSession.compute_batch"),
    Target("runtimes", _RUNTIME, "RuntimeSession.log_batch"),
    Target("runtimes", _RUNTIME, "SessionBatch.commit"),
    Target("workloads.faas", "repro.workloads.base", "FaasWorkload.run"),
    Target("workloads.dbms", "repro.workloads.dbms.engine",
           "Database.execute"),
    Target("workloads.dbms", "repro.workloads.dbms.parser", "parse"),
    Target("workloads.dbms", "repro.workloads.dbms.tokenizer", "tokenize"),
    Target("workloads.dbms", _EXECUTOR, "Executor.select"),
    Target("workloads.dbms", _EXECUTOR, "Executor.insert"),
    Target("workloads.dbms", _EXECUTOR, "Executor.update"),
    Target("workloads.dbms", _EXECUTOR, "Executor.delete"),
    Target("supply", "repro.supply.launch", "LaunchProvisioner.provision"),
    Target("supply", _REGISTRY, "EagerPull.pull"),
    Target("supply", _REGISTRY, "LazyPull.pull"),
    Target("supply", _REGISTRY, "Registry.fetch_chunk"),
    Target("supply", _REGISTRY, "LazyImage.access"),
    Target("supply", _IMAGE, "keystream_xor"),
    Target("supply", "repro.supply.kbs", "KeyBrokerService.release"),
    Target("supply", _IMAGE, "build_image"),
    Target("supply", _IMAGE, "sign_image"),
    Target("obs", _METRICS, "MetricsRegistry.count_many"),
    Target("obs", _METRICS, "MetricsRegistry.snapshot"),
    Target("core", _RUNNER, "execute_trial"),
    Target("core", _RUNNER, "build_body"),
    Target("core.cluster", f"{_CLUSTER}.gateway", "ClusterGateway.run"),
    Target("core.cluster", f"{_CLUSTER}.placement",
           "PlacementScheduler.place"),
    Target("core.cluster", f"{_CLUSTER}.traffic",
           "TrafficGenerator.next_gap_ns"),
    Target("core.cluster", f"{_CLUSTER}.traffic",
           "TrafficGenerator.next_tenant"),
    Target("core.cluster", f"{_CLUSTER}.health",
           "HealthMonitor.evaluate_round"),
    Target("core.cluster", f"{_CLUSTER}.overload",
           "OverloadController.observe"),
    Target("core.cluster", f"{_CLUSTER}.node", "ClusterNode.acquire"),
    Target("core.cluster", f"{_CLUSTER}.node", "ClusterNode.release"),
)

#: The four experiment entries; a traced pass roots its spans at one.
ENTRIES: tuple[Target, ...] = (
    Target("experiments", "repro.experiments.fig6_heatmap", "run_fig6"),
    Target("experiments", "repro.experiments.dbms_table", "run_dbms_table"),
    Target("experiments", "repro.experiments.fig9_cluster", "run_fig9"),
    Target("experiments", "repro.experiments.fig10_supplychain",
           "run_fig10"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    target.layer for target in TARGETS + ENTRIES))

#: Metrics derived from probes and caches rather than spans: name -> unit.
DERIVED: dict[str, str] = {
    "core.build_body.hit_ratio": "ratio",
    "workloads.faas.repeat_share": "ratio",
    "workloads.dbms.repeat_share": "ratio",
    "core.cluster.place.us_per_call": "us",
    "supply.keystream_xor.mb_per_s": "MB/s",
    "attest.session_resume_share": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for target in TARGETS:
        units[f"{target.name}.calls"] = "count"
        units[f"{target.name}.self_s"] = "s"
    for entry in ENTRIES:
        units[f"{entry.name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    units["trace.overhead_s"] = "s"
    units["error_rate"] = "ratio"
    return units


class LayerTrace:
    """Spans on every target plus the input-property probes."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.faas_streams: set = set()
        self.sql_texts: set = set()
        self.keystream_bytes = 0
        self.resumed = 0
        probes = {
            "workloads.faas.FaasWorkload.run": self._faas_run,
            "workloads.dbms.Database.execute": self._dbms_execute,
            "supply.keystream_xor": self._keystream,
            "attest.VerifierService.verify_launch": self._verify_launch,
        }
        self.patches = [
            (target, lambda fn, name=target.name: tracer.wrap(
                name, fn, probes.get(name)))
            for target in TARGETS
        ]

    # probes see (args, result) of each successful call; args[0] is self
    def _faas_run(self, args, result) -> None:
        workload, session = args[0], args[1]
        extra = args[2] if len(args) > 2 else None
        self.faas_streams.add((workload.name, session.model.name,
                               repr(sorted((extra or {}).items()))))

    def _dbms_execute(self, args, result) -> None:
        self.sql_texts.add(args[1])

    def _keystream(self, args, result) -> None:
        self.keystream_bytes += len(args[0])

    def _verify_launch(self, args, result) -> None:
        self.resumed += bool(result.resumed)

    def metrics(self) -> dict[str, float]:
        """Fold the spans into every per-layer metric except the two
        that need a second pass (overhead, error rate)."""
        folded = self.tracer.fold()
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for target in TARGETS + ENTRIES:
            calls, self_s = folded.get(target.name, (0, 0.0))
            if target.layer != "experiments":
                out[f"{target.name}.calls"] = calls
            out[f"{target.name}.self_s"] = self_s
            layer_self[target.layer] += self_s
        for layer, self_s in layer_self.items():
            out[f"{layer}.self_s"] = self_s

        runner = sys.modules[_RUNNER]
        info = runner._cached_body.cache_info()
        out["core.build_body.hit_ratio"] = _share(
            info.hits, info.hits + info.misses)
        out["workloads.faas.repeat_share"] = _repeat_share(
            len(self.faas_streams), out["workloads.faas.FaasWorkload.run.calls"])
        out["workloads.dbms.repeat_share"] = _repeat_share(
            len(self.sql_texts), out["workloads.dbms.Database.execute.calls"])
        out["core.cluster.place.us_per_call"] = 1e6 * _share(
            out["core.cluster.PlacementScheduler.place.self_s"],
            out["core.cluster.PlacementScheduler.place.calls"])
        out["supply.keystream_xor.mb_per_s"] = _share(
            self.keystream_bytes / 1e6, out["supply.keystream_xor.self_s"])
        out["attest.session_resume_share"] = _share(
            self.resumed, out["attest.VerifierService.verify_launch.calls"])
        return out

    def counts(self) -> dict[str, int]:
        """The exact counts behind the two repeat shares."""
        return {"faas_distinct_streams": len(self.faas_streams),
                "dbms_distinct_sql": len(self.sql_texts)}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _repeat_share(distinct: int, calls: int) -> float:
    """1 - distinct/calls: the share of calls that repeat an earlier
    input; 0 when there were no calls."""
    return 1.0 - distinct / calls if calls else 0.0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over traced passes."""
    return {name: statistics.median(s[name] for s in samples)
            for name in samples[0]}
