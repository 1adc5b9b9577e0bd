"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clock import ClockPolicy
from repro.core.errors import ConfigurationError


@dataclass(kw_only=True)
class SimulationConfig:
    """All tunables of a Horse experiment in one place.

    The constructor is keyword-only: eight positional floats and
    bools invite silent transposition, and every in-repo call site
    already passes keywords (spec ``sim_params`` round-trip through
    ``**kwargs``).

    Attributes
    ----------
    fti_increment:
        FTI step size in simulated seconds (paper default: small fixed
        intervals; we default to 1 ms).
    des_fallback_timeout:
        Quiet period after which FTI falls back to DES, in simulated
        seconds.  This is the paper's "user-defined timeout".
    clock_policy:
        HYBRID (Horse), PURE_DES or PURE_FTI (ablations).
    realtime_factor:
        When > 0, FTI steps are paced against the wall clock by
        ``fti_increment * realtime_factor`` seconds of real sleep.
        0 disables pacing (benchmarks measure raw engine speed).
        1.0 approximates an emulator running in real time.
    stats_interval:
        Period of the data-plane statistics sampler in simulated
        seconds; the demo's throughput graph is built from these
        samples.
    seed:
        Seed for every random choice in the experiment (traffic
        patterns, jitter); guarantees reproducibility.
    max_events:
        Safety valve: abort after this many fired events (0 = off).
    symmetry:
        Enable quotient simulation over detected structural symmetry
        classes (see :mod:`repro.symmetry`).  Off by default.  When
        on, class-closed events are handled at class level (one
        representative per automorphism class) and anything
        symmetry-breaking falls back to concrete simulation of the
        divergent region; scenario results are bit-for-bit identical
        either way (pinned by the quotient==concrete property test).
    """

    fti_increment: float = 0.001
    des_fallback_timeout: float = 0.1
    clock_policy: ClockPolicy = ClockPolicy.HYBRID
    realtime_factor: float = 0.0
    stats_interval: float = 0.5
    seed: int = 42
    max_events: int = 0
    symmetry: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsense values."""
        if self.fti_increment <= 0:
            raise ConfigurationError("fti_increment must be > 0")
        if self.des_fallback_timeout < 0:
            raise ConfigurationError("des_fallback_timeout must be >= 0")
        if self.realtime_factor < 0:
            raise ConfigurationError("realtime_factor must be >= 0")
        if self.stats_interval <= 0:
            raise ConfigurationError("stats_interval must be > 0")
        if self.max_events < 0:
            raise ConfigurationError("max_events must be >= 0")
