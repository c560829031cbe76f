"""Per-language function launchers.

§III-A: each supported language has a *function launcher* that
"instantiates a runtime for the languages that need one", reads the
function and executes it with the given arguments; §IV-D: "our timing
measurements exclude the time required by the launcher to bootstrap
the runtime".  A launcher here builds the runtime session inside the
target VM's guest kernel, bootstraps it (charged as STARTUP, which the
VM's elapsed-time accounting excludes), runs the workload, and
returns a common output shape across languages.

Record once, price many: the op stream a FaaS body emits depends only
on (workload, args, runtime) — every platform effect lives in pricing
— so the body runs once per process under an
:class:`~repro.guestos.context.OpRecorder`, and every trial prices
that recording with one :meth:`ExecContext.run_batch
<repro.guestos.context.ExecContext.run_batch>`.  The op-stream
byte-identity contract makes that indistinguishable from running the
body live in each trial.
"""

from __future__ import annotations

import copy
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.guestos.context import OpRecorder
from repro.guestos.kernel import GuestKernel
from repro.runtimes.base import RuntimeModel, RuntimeSession
from repro.runtimes.registry import runtime_by_name
from repro.sim.opstream import OpBatch
from repro.workloads.base import FaasWorkload

#: Recordings kept per process.  Above every registered workload ×
#: runtime pair (26 × 7 = 182): the figure plans are platform-major, so
#: a smaller LRU would evict each stream before the next platform
#: prices it, and record every stream once per platform.
RECORDING_CAPACITY = 256

#: (workload function, merged-args JSON, runtime name) → (recorded ops,
#: output), least recently used first.  The value is a pure function of
#: the key: a body's emission reads no pricing state (the recorder
#: raises if it tries) and a fresh session and kernel start every
#: recording.  Keyed on the function object, so a re-registered or
#: re-uploaded workload records afresh.
_RECORDINGS: "OrderedDict[tuple, tuple[OpBatch, dict[str, Any]]]" = OrderedDict()
_RECORDINGS_LOCK = threading.Lock()


@dataclass
class FunctionLauncher:
    """Launches one workload under one language runtime."""

    runtime: RuntimeModel

    @classmethod
    def for_language(cls, language: str) -> "FunctionLauncher":
        return cls(runtime=runtime_by_name(language))

    def launch(self, workload: FaasWorkload,
               args: dict[str, Any] | None = None):
        """A VM-executable callable running the workload.

        The returned callable matches the :meth:`repro.tee.vm.Vm.run`
        signature; the common output shape (workload result + runtime
        facts) eases cross-language comparison, as §IV-B notes.  Each
        call prices the (once-recorded) op stream on the calling VM's
        context and returns its own copy of the output.
        """
        key = (workload.fn,
               json.dumps({**workload.default_args, **(args or {})},
                          sort_keys=True),
               self.runtime.name)

        def body(kernel: GuestKernel) -> dict[str, Any]:
            ops, output = self._recording(key, workload, args)
            kernel.ctx.run_batch(ops)
            return copy.deepcopy(output)

        return body

    def _recording(self, key: tuple, workload: FaasWorkload,
                   args: dict[str, Any] | None
                   ) -> tuple[OpBatch, dict[str, Any]]:
        """The cached recording for ``key``, recording it on a miss."""
        with _RECORDINGS_LOCK:
            hit = _RECORDINGS.get(key)
            if hit is not None:
                _RECORDINGS.move_to_end(key)
                return hit
        recorder = OpRecorder()
        session = RuntimeSession(self.runtime, GuestKernel(recorder))
        session.bootstrap()          # excluded from timings
        result = workload.run(session, args)
        recording = (recorder.ops, {
            "result": result,
            "language": self.runtime.name,
            "gc_runs": session.gc_runs,
            "stdout_lines": session.stdout_lines,
        })
        # a pure memo (see _RECORDINGS): which trial records a stream
        # first cannot change what any trial charges or returns
        with _RECORDINGS_LOCK:
            _RECORDINGS[key] = recording  # confbench: allow[purity]
            if len(_RECORDINGS) > RECORDING_CAPACITY:
                _RECORDINGS.popitem(last=False)  # confbench: allow[purity]
        return recording


def native_launcher(fn, *fn_args, **fn_kwargs):
    """Launcher for non-FaaS (classic) workloads.

    §III-A: "in the case of non-FaaS scenarios, the user must
    cross-compile and submit the executable" — here, a plain callable
    taking the guest kernel, with no runtime bootstrap.
    """

    def body(kernel: GuestKernel):
        return fn(kernel, *fn_args, **fn_kwargs)

    return body
