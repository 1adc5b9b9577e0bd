"""How fleet workers come to exist: the pluggable transport layer.

Every transport speaks the same frame protocol to the same
coordinator — what varies is only where the workers run.  A
:class:`~repro.fleet.executor.FleetExecutor` takes one of these
objects:

* :class:`InProcessTransport`  — worker loops in daemon threads of the
  current process, connected over loopback.  Zero spawn cost; the test
  and notebook transport.  (Scenario runs hold the GIL, so this
  measures coordination, not parallel speedup.)
* :class:`MultiprocessTransport` — worker processes on this box
  (``spawn`` context: the coordinator's server threads make ``fork``
  unsafe), connected over loopback.  The Python API's way to get real
  worker processes; the command line fans out on one box with
  ``--workers N`` instead (see ``docs/fleet.md``, "One box or many").
* :class:`TcpTransport`        — launches nothing; the coordinator's
  port is the contract and workers join from anywhere with
  ``repro fleet join host:port`` (what ``repro fleet serve`` uses).

A transport only *launches and reaps* workers; all work assignment,
failure handling and result flow happen in the protocol, which is why
a test can kill a ``multiprocessing`` worker with SIGKILL and the
coordinator's reclaim logic — not the transport — carries the run.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.fleet.worker import worker_main


class InProcessTransport:
    """Workers as daemon threads of this very process."""

    name = "inprocess"
    #: Supervised transports launched every worker themselves, so
    #: "none alive before the work is done" means the run is wedged.
    supervised = True

    def __init__(self,
                 worker_options: "Optional[Dict[str, Any]]" = None) -> None:
        self._threads: List[threading.Thread] = []
        #: Extra keyword arguments for every :func:`worker_main` —
        #: reconnect/backoff tuning, or a chaos socket wrapper (see
        #: :class:`repro.fleet.chaos.ChaosTransport`).
        self._worker_options = dict(worker_options or {})

    def _options_for(self, index: int) -> Dict[str, Any]:
        """Per-worker keyword arguments (subclasses derive per-index
        state here, e.g. one chaos schedule per worker)."""
        return dict(self._worker_options)

    def launch(self, address: Tuple[str, int], count: int) -> None:
        host, port = address
        for index in range(count):
            thread = threading.Thread(
                target=worker_main, args=(host, port, f"inproc-{index}"),
                kwargs=self._options_for(index),
                daemon=True, name=f"fleet-worker-{index}")
            thread.start()
            self._threads.append(thread)

    def alive(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self, timeout: Optional[float] = None) -> None:
        for thread in self._threads:
            thread.join(timeout)

    def shutdown(self) -> None:
        self.join(timeout=1.0)


class MultiprocessTransport:
    """Workers as local processes (``spawn`` start method)."""

    name = "multiprocessing"
    supervised = True

    def __init__(self,
                 worker_options: "Optional[Dict[str, Any]]" = None) -> None:
        self._processes: List[multiprocessing.process.BaseProcess] = []
        # Options must pickle into spawn children: scalars only here
        # (socket wrappers can't cross a process boundary — chaos for
        # external workers rides the REPRO_FLEET_CHAOS_SEED env hook).
        self._worker_options = dict(worker_options or {})

    def launch(self, address: Tuple[str, int], count: int) -> None:
        host, port = address
        ctx = multiprocessing.get_context("spawn")
        for index in range(count):
            process = ctx.Process(
                target=worker_main, args=(host, port, f"mp-{index}"),
                kwargs=dict(self._worker_options),
                daemon=True, name=f"fleet-worker-{index}")
            process.start()
            self._processes.append(process)

    def alive(self) -> bool:
        return any(process.is_alive() for process in self._processes)

    def join(self, timeout: Optional[float] = None) -> None:
        for process in self._processes:
            process.join(timeout)

    def shutdown(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        self.join(timeout=2.0)


class TcpTransport:
    """No launching at all: workers join over the network."""

    name = "tcp"
    supervised = False

    def launch(self, address: Tuple[str, int], count: int) -> None:
        pass  # the coordinator's listener is the whole transport

    def alive(self) -> bool:
        return True  # external workers may join at any time

    def join(self, timeout: Optional[float] = None) -> None:
        pass

    def shutdown(self) -> None:
        pass
