"""Batch-vs-per-op byte-identity: the op-stream kernel's contract.

Four layers of evidence that the batched kernel is *bit-identical*
to per-op charging:

1. Random op streams replayed through ``ExecContext.run_batch`` vs
   the per-op ``replay_op`` path — exact ledger/clock/counter/RNG
   equality, across noise sigmas and platform profiles.
2. The UnixBench suite's ``engine="batch"`` vs ``engine="perop"`` —
   identical scores, system index, and kernel-side state.
3. Generated sequences of runtime-session and guest-kernel calls
   recorded through an ``OpRecorder`` and priced with one
   ``run_batch`` vs issued live — on every hardware TEE, secure and
   normal (the record-once, price-many path FaaS trials take).
4. Goldens captured from the *pre-refactor* per-op implementation —
   full trial-runner artifacts (result dicts, metrics snapshots,
   Chrome traces) must reproduce byte-for-byte, serial and with two
   worker processes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TrialPlan
from repro.core.runner import TrialRunner
from repro.errors import ConfBenchError
from repro.guestos.context import CostProfile, ExecContext, OpRecorder
from repro.guestos.kernel import GuestKernel
from repro.hw.machine import xeon_gold_5515
from repro.obs.export import TraceExporter
from repro.runtimes import RUNTIME_NAMES, RuntimeSession, runtime_by_name
from repro.sim.opstream import Op
from repro.sim.rng import SimRng
from repro.tee.registry import platform_by_name
from repro.workloads.unixbench.suite import run_unixbench

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"

#: Op generator table for the randomized streams: (kind, argument
#: factory given a SimRng).
_OP_MAKERS = (
    lambda rng: Op("cpu", (rng.randint(10, 50_000), rng.randint(0, 5_000),
                           rng.randint(0, 1 << 20))),
    lambda rng: Op("mem_alloc", (rng.randint(1, 1 << 20),)),
    lambda rng: Op("mem_copy", (rng.randint(1, 1 << 18),)),
    lambda rng: Op("disk_read", (rng.randint(1, 1 << 16),)),
    lambda rng: Op("disk_write", (rng.randint(1, 1 << 16),)),
    lambda rng: Op("syscall", (float(rng.randint(100, 900)),)),
    lambda rng: Op("vm_transition", (float(rng.randint(1_000, 9_000)),)),
    lambda rng: Op("crypto", (float(rng.randint(50, 5_000)),)),
    lambda rng: Op("event", ("context_switches", 1)),
)


def make_ctx(profile: CostProfile, seed: int) -> ExecContext:
    return ExecContext(machine=xeon_gold_5515(), profile=profile,
                       rng=SimRng(seed))


def random_program(seed: int, entries: int) -> list[tuple[tuple[Op, ...], int]]:
    """A reproducible random (op sequence, count) program."""
    rng = SimRng(seed, "opstream-fuzz")
    program = []
    for _ in range(entries):
        ops = tuple(_OP_MAKERS[rng.randint(0, len(_OP_MAKERS) - 1)](rng)
                    for _ in range(rng.randint(1, 4)))
        program.append((ops, rng.randint(1, 40)))
    return program


def context_state(ctx: ExecContext) -> tuple:
    """Everything per-op charging mutates, in comparable form."""
    return (
        dict(ctx.ledger),                      # totals AND insertion order
        list(ctx.ledger),
        ctx.clock.now(),
        ctx.machine.counters.as_dict(),
        ctx.rng.raw_random().getstate(),       # stream position + pair cache
        ctx.rng.raw_random().gauss_next,
    )


PROFILES = {
    "noisy-tee": CostProfile(simulator_multiplier=1.8, noise_sigma=0.03,
                             syscall_transition_ns=2_200.0,
                             halt_transition_ns=2_200.0,
                             io_transition_ns=3_000.0,
                             io_bounce_per_byte_ns=0.05,
                             mem_encrypted=True, mem_miss_extra_ns=20.0),
    "quiet-native": CostProfile(noise_sigma=0.0),
}


class TestRandomOpStreams:
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    @pytest.mark.parametrize("seed", [3, 17, 4242])
    def test_batch_equals_per_op_replay(self, profile_name, seed):
        profile = PROFILES[profile_name]
        program = random_program(seed, entries=30)

        per_op = make_ctx(profile, seed)
        for ops, count in program:
            for _ in range(count):
                for op in ops:
                    per_op.replay_op(op)

        batched = make_ctx(profile, seed)
        batch = batched.batch()
        for ops, count in program:
            batch.add_seq(ops, count)
        batched.run_batch(batch)

        assert context_state(batched) == context_state(per_op)

    def test_batched_and_per_op_charges_interleave_on_one_stream(self):
        profile = PROFILES["noisy-tee"]
        program = random_program(7, entries=10)

        reference = make_ctx(profile, 7)
        for ops, count in program:
            for _ in range(count):
                for op in ops:
                    reference.replay_op(op)

        mixed = make_ctx(profile, 7)
        for index, (ops, count) in enumerate(program):
            if index % 2:                       # alternate engines mid-stream
                batch = mixed.batch()
                batch.add_seq(ops, count)
                mixed.run_batch(batch)
            else:
                for _ in range(count):
                    for op in ops:
                        mixed.replay_op(op)

        assert context_state(mixed) == context_state(reference)


class TestUnixbenchEngines:
    def test_batch_engine_matches_per_op_engine(self):
        results = {}
        for engine in ("batch", "perop"):
            profile = CostProfile(simulator_multiplier=1.6, noise_sigma=0.02,
                                  syscall_transition_ns=2_200.0,
                                  halt_transition_ns=2_200.0,
                                  io_transition_ns=3_000.0,
                                  io_bounce_per_byte_ns=0.05,
                                  mem_encrypted=True, mem_miss_extra_ns=20.0)
            ctx = make_ctx(profile, 11)
            kernel = GuestKernel(ctx)
            suite = run_unixbench(kernel, scale=0.1, engine=engine)
            results[engine] = (
                suite.scores, suite.system_index,
                kernel.syscall_count, kernel.scheduler.switch_count,
                context_state(ctx),
            )
        assert results["batch"] == results["perop"]


_SESSION_CALLS = st.one_of(
    st.tuples(st.just("compute"), st.integers(0, 50_000),
              st.integers(0, 1 << 20)),
    st.tuples(st.just("allocate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("release"), st.integers(0, 1 << 20)),
    st.tuples(st.just("log"), st.integers(0, 60)),
)

#: KernelOps builders a generated KernelBatch sequence draws from
_KERNEL_SEQ_KINDS = ("read", "cached_read", "write", "pipe_write",
                     "pipe_read", "fork", "exec", "context_switch")

_CALLS = st.lists(st.one_of(
    _SESSION_CALLS,
    st.tuples(st.just("session_batch"), st.lists(_SESSION_CALLS,
                                                  max_size=6)),
    st.tuples(st.just("compute_batch"), st.integers(0, 5_000),
              st.integers(0, 20)),
    st.tuples(st.just("log_batch"), st.integers(0, 60), st.integers(0, 20)),
    st.tuples(st.just("kernel_batch"),
              st.lists(st.sampled_from(_KERNEL_SEQ_KINDS), min_size=1,
                       max_size=5),
              st.integers(1, 30), st.integers(1, 1 << 16)),
    st.tuples(st.just("context_switch")),
    st.tuples(st.just("write_file"), st.integers(0, 2),
              st.integers(0, 1 << 16)),
    st.tuples(st.just("read_file"), st.integers(0, 2)),
    st.tuples(st.just("delete_file"), st.integers(0, 2)),
), max_size=25)


def _apply_session_call(target, call) -> None:
    """One compute/allocate/release/log on a session or SessionBatch."""
    kind, *args = call
    if kind == "compute":
        target.compute(args[0], working_set_bytes=args[1])
    elif kind == "allocate":
        target.allocate(args[0])
    elif kind == "release":
        target.release(args[0])
    else:
        target.log("m" * args[0])


def issue_calls(session: RuntimeSession, calls) -> list:
    """Issue ``calls``; returns everything they observably produce
    other than charged nanoseconds (which a recorder cannot know)."""
    kernel = session.kernel
    out: list = []
    for call in calls:
        kind, *args = call
        try:
            if kind in ("compute", "allocate", "release", "log"):
                _apply_session_call(session, call)
            elif kind == "session_batch":
                staged = session.batch()
                for sub in args[0]:
                    _apply_session_call(staged, sub)
                staged.commit()
            elif kind == "compute_batch":
                session.compute_batch(args[0], args[1])
            elif kind == "log_batch":
                session.log_batch("m" * args[0], args[1])
            elif kind == "kernel_batch":
                kinds, count, nbytes = args
                staged = kernel.batch()
                seq = staged.seq()
                for seq_kind in kinds:
                    if seq_kind == "cached_read":
                        seq.read(nbytes, cached=True)
                    elif seq_kind in ("fork", "exec", "context_switch"):
                        getattr(seq, seq_kind)()
                    else:
                        getattr(seq, seq_kind)(nbytes)
                staged.repeat(seq, count)
                staged.commit()
            elif kind == "context_switch":
                kernel.context_switch()
            elif kind == "write_file":
                data = bytes(range(256)) * (args[1] // 256 + 1)
                out.append(session.write_file(f"/f{args[0]}",
                                              data[:args[1]]))
            elif kind == "read_file":
                out.append(session.read_file(f"/f{args[0]}"))
            else:
                out.append(session.delete_file(f"/f{args[0]}"))
        except ConfBenchError as exc:
            out.append(type(exc).__name__)
    out.append((session.gc_runs, session.stdout_lines, session.heap_bytes,
                session.units_executed, kernel.syscall_count,
                kernel.scheduler.switch_count))
    return out


class TestRecordedCallStreams:
    """Recording session/kernel calls, then pricing the recording with
    one ``run_batch``, equals issuing the same calls live."""

    @settings(max_examples=60, deadline=None)
    @given(platform=st.sampled_from(("tdx", "sev-snp", "cca")),
           secure=st.booleans(),
           runtime=st.sampled_from(RUNTIME_NAMES),
           seed=st.integers(0, 1 << 16),
           calls=_CALLS)
    def test_recorded_then_priced_equals_live(self, platform, secure,
                                              runtime, seed, calls):
        tee = platform_by_name(platform, seed=seed)
        model = runtime_by_name(runtime)

        def context() -> ExecContext:
            return ExecContext(machine=tee.build_machine(),
                               profile=tee.profile_for(secure),
                               rng=SimRng(seed))

        live = context()
        session = RuntimeSession(model, GuestKernel(live))
        session.bootstrap()
        live_out = issue_calls(session, calls)

        recorder = OpRecorder()
        session = RuntimeSession(model, GuestKernel(recorder))
        session.bootstrap()
        recorded_out = issue_calls(session, calls)
        priced = context()
        priced.run_batch(recorder.ops)

        assert recorded_out == live_out
        assert context_state(priced) == context_state(live)


def canonical_artifacts(runner: TrialRunner, results) -> str:
    payload = {
        "results": [result.to_dict() for result in results],
        "metrics": runner.metrics.snapshot(),
        "chrome": TraceExporter.from_history(runner.history).to_chrome_json(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


GOLDEN_PLANS = {
    # captured from the per-op implementation before the batch kernel
    # landed (see tests/goldens/); params deliberately include every
    # batched emitter family
    "perop_unixbench": dict(kind="unixbench", platforms=("tdx", "cca"),
                            workloads=("unixbench",), trials=2, seed=7,
                            params={"scale": 0.2}),
    "perop_faas": dict(kind="faas", platforms=("tdx",),
                       workloads=("logging", "iostress", "htmlrender",
                                  "memstress"),
                       runtimes=("python",), trials=2, seed=7),
    "perop_ml": dict(kind="ml", platforms=("sev-snp",),
                     workloads=("inference",), trials=1, seed=7,
                     params={"count": 8, "side": 96}),
}


class TestPreRefactorGoldens:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "j2"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
    def test_artifacts_reproduce_byte_for_byte(self, name, jobs):
        golden_path = GOLDEN_DIR / f"{name}.json"
        golden = golden_path.read_text(encoding="utf-8")
        plan = TrialPlan.matrix(**GOLDEN_PLANS[name])
        runner = TrialRunner(jobs=jobs)
        produced = canonical_artifacts(runner, runner.run(plan))
        assert produced == golden, (
            f"{golden_path.name} no longer reproduces byte-for-byte "
            f"(jobs={jobs}); the batched kernel diverged from the "
            "per-op semantics"
        )
