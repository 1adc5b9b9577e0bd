"""Per-layer tracing from outside the program.

:class:`LayerTimer` is a stack-based timer: every *frame* has a name,
and the timer keeps, per name, how often the frame ran, its inclusive
time and its **self** time (inclusive minus the frames it called).  Self
times partition the root frame's wall time exactly, which is what lets
the layer table add up to the whole.

:func:`install` puts frames around the program's public methods by
replacing them *at class level* for the duration of a traced run --
nothing under ``src/`` is edited and nothing stays patched afterwards.
A fired event is owned by the module that does the work: the receiver
of a control delivery, the process of a wake-up, the callback of a
timer (looking through ``PeriodicTimer``), so simulate time is split by
layer with no gaps.

The program's own ``repro.obs`` spans (``realloc.solve``,
``quotient.*``, ``store.seal``) split what method boundaries cannot;
:func:`span_self_times` turns a finished span list into self times.
"""

import time
from contextlib import contextmanager, nullcontext

from repro.api.experiment import Experiment
from repro.core.connection_manager import ConnectionManager
from repro.core.events import (
    CallbackEvent,
    ControlDeliveryEvent,
    ProcessWakeupEvent,
)
from repro.core.queue import EventQueue
from repro.core.scheduler import PeriodicTimer
from repro.core.simulation import Simulation
from repro.dataplane.network import Network
from repro.dataplane.realloc import ReallocEngine
from repro.obs import span
from repro.openflow.switch_agent import SwitchAgent
from repro.results.columnar import ColumnarResultStore
from repro.results.store import ResultStore
from repro.scenarios.campaign import Campaign
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import TopologyRecipe

#: Name of the frame around one whole timed body.
ROOT = "body"


class LayerTimer:
    """Aggregating stack timer: name -> [count, inclusive_s, self_s]."""

    def __init__(self):
        self.rows = {}
        self.returned = {}      # frame name -> return values (keep=True)
        self._stack = []        # [start, seconds spent in child frames]
        self._undo = []         # (cls, attr, original) of installed wraps

    def reset(self):
        # In place: installed wrappers hold these containers.
        self.rows.clear()
        for values in self.returned.values():
            values.clear()

    def _close(self, name, frame):
        elapsed = time.perf_counter() - frame[0]
        stack = self._stack
        stack.pop()
        try:
            row = self.rows[name]
        except KeyError:
            row = self.rows[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed

    @contextmanager
    def frame(self, name):
        """Time a region of harness code as frame ``name`` -- and as a
        ``repro.obs`` span, so harness phases show in the Chrome trace
        beside the program's own spans."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            with span(name):
                yield
        finally:
            self._close(name, frame)

    def wrap(self, cls, attr, name=None, namer=None, keep=False):
        """Replace ``cls.attr`` by a timed version of itself.

        ``namer(self_obj)`` names the frame per call (event ownership);
        ``keep`` also stores every return value under the frame name
        (how ``RunReport`` counters reach the harness).
        """
        original = cls.__dict__[attr]
        name = name or f"{cls.__name__}.{attr}"
        kept = self.returned.setdefault(name, []) if keep else None
        perf, push, close = time.perf_counter, self._stack.append, self._close

        def timed(*args, **kwargs):
            frame = [perf(), 0.0]
            push(frame)
            try:
                value = original(*args, **kwargs)
            finally:
                close(namer(args[0]) if namer else name, frame)
            if kept is not None:
                kept.append(value)
            return value

        setattr(cls, attr, timed)
        self._undo.append((cls, attr, original))

    def unwrap_all(self):
        while self._undo:
            cls, attr, original = self._undo.pop()
            setattr(cls, attr, original)

    def table(self):
        """Rows sorted by self time: the per-layer budget of one body."""
        total = self.rows.get(ROOT, [0, 0.0, 0.0])[1]
        return [
            {"name": name, "count": count, "inclusive_s": inclusive,
             "self_s": self_s,
             "share": self_s / total if total > 0 else 0.0}
            for name, (count, inclusive, self_s) in sorted(
                self.rows.items(), key=lambda item: -item[1][2])
        ]


class NullTimer:
    """What untraced bodies get: ``frame`` times nothing."""

    @staticmethod
    def frame(name):
        return nullcontext()


# -- event ownership --------------------------------------------------------

_EVENT_FRAME = {}


def _event_frame(module):
    """``repro.bgp.daemon`` -> ``events.bgp.daemon``; anything that is
    not the program's own code -> ``events.other`` (unattributed)."""
    name = _EVENT_FRAME.get(module)
    if name is None:
        parts = (module or "").split(".")
        name = ("events." + ".".join(parts[1:3])
                if parts[0] == "repro" and len(parts) > 1
                else "events.other")
        _EVENT_FRAME[module] = name
    return name


def _callback_owner(event):
    callback = event.callback
    timer = getattr(callback, "__self__", None)
    if isinstance(timer, PeriodicTimer):
        callback = timer.callback
    return _event_frame(getattr(callback, "__module__", None))


def _receiver_owner(event):
    return _event_frame(type(event.receiver).__module__)


def _process_owner(event):
    return _event_frame(type(event.process).__module__)


def install(timer):
    """Wrap every measured public method; undo with
    ``timer.unwrap_all()``."""
    timer.wrap(Simulation, "run", keep=True)
    timer.wrap(EventQueue, "push")
    timer.wrap(EventQueue, "pop")
    for attr in ("deliver", "install_route", "withdraw_route",
                 "record_flow_mod"):
        timer.wrap(ConnectionManager, attr)
    timer.wrap(Network, "recompute")
    timer.wrap(Network, "accrue")
    timer.wrap(Network, "finalize_accounting")
    timer.wrap(ReallocEngine, "recompute")
    timer.wrap(ScenarioRunner, "materialize")
    timer.wrap(ScenarioRunner, "run")
    timer.wrap(Campaign, "run")
    timer.wrap(TopologyRecipe, "build")
    timer.wrap(Experiment, "load_topo")
    timer.wrap(ResultStore, "append")
    timer.wrap(ColumnarResultStore, "append")
    # The flow-expiry timer is a lambda in repro.api.experiment around
    # SwitchAgent.tick; this frame hands that time back to openflow.
    timer.wrap(SwitchAgent, "tick", name="events.openflow.expiry")
    timer.wrap(CallbackEvent, "fire", namer=_callback_owner)
    timer.wrap(ControlDeliveryEvent, "fire", namer=_receiver_owner)
    timer.wrap(ProcessWakeupEvent, "fire", namer=_process_owner)


# -- the program's own spans ------------------------------------------------

def span_self_times(spans):
    """``[(name, self_seconds, inside_recompute)]`` for finished
    ``repro.obs`` spans of one thread.

    ``self`` is a span's duration minus the spans nested in it;
    ``inside_recompute`` says whether a ``realloc.recompute`` span
    encloses it (that time is carved out of ``ReallocEngine.recompute``
    rather than out of accrual).
    """
    ordered = sorted(spans, key=lambda sp: (sp.wall_start, -sp.wall_end))
    out = []
    stack = []  # (span, [seconds spent in nested spans])
    for sp in ordered:
        while stack and stack[-1][0].wall_end <= sp.wall_start:
            stack.pop()
        if stack:
            stack[-1][1][0] += sp.wall_duration
        inside = any(parent.name == "realloc.recompute"
                     for parent, _ in stack)
        children = [0.0]
        stack.append((sp, children))
        out.append((sp.name, sp.wall_duration, children, inside))
    return [(name, duration - children[0], inside)
            for name, duration, children, inside in out]
