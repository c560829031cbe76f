"""The high-level ConfBench facade.

One object that wires the whole tool together — the "easy evaluation"
entry point the examples and experiment harnesses use:

>>> bench = ConfBench(seed=42)
>>> bench.upload("cpustress")
>>> summary = bench.measure_overhead("cpustress", language="python",
...                                  platform="tdx", trials=10)
>>> summary.ratio        # doctest: +SKIP
1.05

Every invocation method takes its request parameters (``platform``,
``secure``, ``args``, ``trials``) as keyword-only arguments, and
``trials=None`` uniformly means "the config default" — the same
semantics on ``invoke``, ``run_classic`` and both ``measure_*``
comparisons.

Telemetry rides along on every invocation: :meth:`metrics` snapshots
the unified registry, :meth:`trace` exports the recorded span trees,
and :meth:`profile` folds them into a per-category attribution.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import GatewayConfig, default_config
from repro.core.gateway import Gateway, InvocationRequest
from repro.core.results import InvocationRecord, RatioSummary, summarize_ratio
from repro.obs.export import TraceExporter
from repro.obs.profile import Profile


class ConfBench:
    """Facade over the gateway for secure/normal comparisons."""

    def __init__(self, config: GatewayConfig | None = None,
                 seed: int = 0) -> None:
        if config is None:
            config = default_config(seed=seed)
        self.gateway = Gateway(config)

    # -- uploads --------------------------------------------------------

    def upload(self, function_name: str,
               languages: tuple[str, ...] | None = None) -> None:
        """Upload a built-in workload."""
        self.gateway.upload(function_name, languages)

    def upload_custom(self, workload,
                      languages: tuple[str, ...] | None = None) -> None:
        """Upload a user-supplied workload."""
        self.gateway.upload_custom(workload, languages)

    # -- invocation ----------------------------------------------------------

    def invoke(self, function: str, language: str, *,
               platform: str = "tdx", secure: bool = True,
               args: dict[str, Any] | None = None,
               trials: int | None = None) -> list[InvocationRecord]:
        """Run one FaaS function; returns per-trial records.

        ``trials=None`` runs the config default (the paper's 10).
        """
        return self.gateway.invoke(InvocationRequest(
            function=function,
            language=language,
            platform=platform,
            secure=secure,
            args=args if args is not None else {},
            trials=trials,
        ))

    def run_classic(self, name: str, fn, *, platform: str = "tdx",
                    secure: bool = True,
                    trials: int | None = None) -> list[InvocationRecord]:
        """Run a classic workload callable (receives the guest kernel).

        Same request surface as :meth:`invoke`: keyword-only
        ``platform`` / ``secure`` / ``trials``, with ``trials=None``
        meaning the config default.
        """
        return self.gateway.invoke_classic(
            name, fn, platform=platform, secure=secure, trials=trials)

    # -- comparisons -------------------------------------------------------------

    def measure_overhead(self, function: str, language: str, *,
                         platform: str = "tdx",
                         args: dict[str, Any] | None = None,
                         trials: int | None = None) -> RatioSummary:
        """Secure-vs-normal ratio for one FaaS function (the paper's
        headline metric: ratio of mean times over matched trials)."""
        secure = self.invoke(function, language, platform=platform,
                             secure=True, args=args, trials=trials)
        normal = self.invoke(function, language, platform=platform,
                             secure=False, args=args, trials=trials)
        return summarize_ratio(secure, normal)

    def measure_classic_overhead(self, name: str, fn, *,
                                 platform: str = "tdx",
                                 trials: int | None = None) -> RatioSummary:
        """Secure-vs-normal ratio for a classic workload callable.

        ``trials=None`` runs the config default — the same semantics
        as :meth:`measure_overhead`.
        """
        secure = self.run_classic(name, fn, platform=platform,
                                  secure=True, trials=trials)
        normal = self.run_classic(name, fn, platform=platform,
                                  secure=False, trials=trials)
        return summarize_ratio(secure, normal)

    # -- telemetry ---------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """A deterministic snapshot of the unified metrics registry.

        Counters, gauges and virtual-time histograms accumulated by
        the gateway, its pools, and the trial runner — the same payload
        ``GET /v1/metrics`` serves.
        """
        return self.gateway.metrics.snapshot()

    def trace(self) -> TraceExporter:
        """A trace exporter over every run this bench has executed.

        Use ``to_chrome_json()`` / ``write_chrome(path)`` for a
        Perfetto-loadable trace, or ``to_jsonl()`` for line-oriented
        span records.
        """
        return TraceExporter.from_runs(self.gateway.run_log)

    def profile(self) -> Profile:
        """A virtual-time profile folded from the recorded span trees.

        The per-category attribution table totals exactly the run
        ledgers' virtual time; ``render_collapsed()`` yields
        flamegraph-ready collapsed stacks.
        """
        return Profile.from_runs(self.gateway.run_log)

    # -- cluster -----------------------------------------------------------------

    def cluster(self):
        """The cluster sweep + key-release control plane.

        The same :class:`~repro.core.cluster.control.ClusterControl`
        the REST routes ``/v1/cluster/*`` and ``/v1/kbs/release``
        front — ``run(...)`` executes one fleet sweep at a time,
        ``report()`` returns the last one, ``kbs_release(...)``
        exercises the attestation-gated key path.
        """
        return self.gateway.cluster()

    # -- introspection -----------------------------------------------------------

    def platforms(self) -> list[dict[str, Any]]:
        """Configured platform facts."""
        return self.gateway.platforms()

    def functions(self) -> list[str]:
        """Uploaded function names."""
        return self.gateway.functions()
