"""Record once, price many: the FaaS launcher's recording cache."""

from __future__ import annotations

import copy
import dataclasses
from typing import Any

import pytest

import repro.core.runner as runner_module
from repro.core import Gateway, InvocationRequest
from repro.core.config import GatewayConfig, PlatformEntry
from repro.core.launcher import RECORDING_CAPACITY, FunctionLauncher
from repro.experiments.fig6_heatmap import run_fig6
from repro.runtimes import RUNTIME_NAMES, RuntimeSession, runtime_by_name
from repro.sim.rng import SimRng
from repro.tee.base import VmConfig
from repro.tee.registry import platform_by_name
from repro.workloads.base import FaasWorkload, WorkloadTrait
from repro.workloads.faas import registry
from repro.workloads.faas.registry import FIGURE_WORKLOAD_NAMES, all_workloads

#: (platform, secure) sides the replay-vs-live cases rotate through
SIDES = tuple((platform, secure) for platform in ("tdx", "sev-snp", "cca")
              for secure in (True, False))


def live_body(workload: FaasWorkload, runtime: str):
    """The reference body: the workload's real Python issued live on
    the trial's own context, as a launcher ran it before recording."""
    model = runtime_by_name(runtime)

    def body(kernel) -> dict[str, Any]:
        session = RuntimeSession(model, kernel)
        session.bootstrap()
        result = workload.run(session, None)
        return {
            "result": result,
            "language": model.name,
            "gc_runs": session.gc_runs,
            "stdout_lines": session.stdout_lines,
        }

    return body


def booted_vm(platform: str = "tdx", secure: bool = True):
    vm = platform_by_name(platform, seed=3).create_vm(VmConfig(secure=secure))
    vm.boot()
    return vm


def run_once(vm, body, name: str, trial: int = 0):
    return vm.run(body, name=name, trial=trial,
                  rng=SimRng(11, f"{name}/{trial}"))


CASES = [(workload, runtime) for workload in all_workloads()
         for runtime in RUNTIME_NAMES]


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{w.name}-{r}" for w, r in CASES])
def test_replayed_trial_equals_live_reference(index):
    workload, runtime = CASES[index]
    vm = booted_vm(*SIDES[index % len(SIDES)])
    launched = FunctionLauncher.for_language(runtime).launch(workload)
    name = f"{workload.name}-{runtime}"
    live = run_once(vm, live_body(workload, runtime), name)
    # twice: the first trial may record, the second replays for sure
    for _ in range(2):
        assert run_once(vm, launched, name).to_dict() == live.to_dict()


def test_registered_workloads_cover_the_cache_bound():
    assert len(CASES) == 26 * 7
    assert RECORDING_CAPACITY >= len(CASES)


def test_grid_records_each_stream_once(monkeypatch):
    """A platform-major 25 x 7 grid on two platforms, both sides, runs
    each workload body exactly once per (workload, runtime)."""
    calls: dict[str, int] = {}

    def counted(workload: FaasWorkload) -> FaasWorkload:
        def fn(session, args):
            calls[workload.name] = calls.get(workload.name, 0) + 1
            return workload.fn(session, args)

        return dataclasses.replace(workload, fn=fn)

    for name in FIGURE_WORKLOAD_NAMES:
        monkeypatch.setitem(registry._ALL, name,
                            counted(registry.workload_by_name(name)))
    runner_module._cached_body.cache_clear()
    try:
        run_fig6(seed=0, trials=1)
    finally:
        runner_module._cached_body.cache_clear()
    assert sum(calls.values()) == len(FIGURE_WORKLOAD_NAMES) * len(
        RUNTIME_NAMES) == 175
    assert set(calls.values()) == {len(RUNTIME_NAMES)}


def _custom(name: str, value: int) -> FaasWorkload:
    def fn(session, args):
        session.compute(1_000 * value)
        return {"value": value}

    return FaasWorkload(name=name, trait=WorkloadTrait.CPU,
                        description="", fn=fn)


def test_upload_custom_of_another_function_records_afresh():
    config = GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon", base_port=9100)],
        default_trials=1)
    request = InvocationRequest(function="custom", language="python",
                                platform="tdx")
    outputs = []
    for value in (1, 2):
        gateway = Gateway(config)
        gateway.upload_custom(_custom("custom", value))
        (record,) = gateway.invoke(request)
        outputs.append((record.output["result"], record.elapsed_ns))
    assert outputs[0][0] == {"value": 1}
    assert outputs[1][0] == {"value": 2}
    assert outputs[1][1] > outputs[0][1]


def test_reupload_under_the_same_name_replaces_the_function():
    config = GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon", base_port=9100)],
        default_trials=1)
    gateway = Gateway(config)
    for value in (1, 2):
        gateway.upload_custom(_custom("custom", value))
    (record,) = gateway.invoke(InvocationRequest(
        function="custom", language="python", platform="tdx"))
    assert record.output["result"] == {"value": 2}
    assert gateway.store.get("custom").uploads == 2


def test_mutating_a_trial_output_does_not_leak():
    workload = registry.workload_by_name("factors")
    body = FunctionLauncher.for_language("go").launch(workload)
    vm = booted_vm()
    first = run_once(vm, body, "factors", trial=0)
    expected = copy.deepcopy(first.output)
    first.output["result"].append(-1)
    first.output["language"] = "mutated"
    again = run_once(vm, body, "factors", trial=0)
    assert again.output == expected
    assert again.output["result"] is not first.output["result"]


def test_args_are_part_of_the_key():
    workload = registry.workload_by_name("fibonacci")
    launcher = FunctionLauncher.for_language("wasm")
    vm = booted_vm()
    small = run_once(vm, launcher.launch(workload, {"n": 10}), "fib")
    large = run_once(vm, launcher.launch(workload, {"n": 16}), "fib")
    assert small.output["result"] != large.output["result"]
    assert small.elapsed_ns < large.elapsed_ns
