"""numpy, bound on first use by the two features that need it: the
arrays mirror and kernel (:mod:`repro.dataplane.arrays`) and the
columnar store (:mod:`repro.results.segment`).  No module imports it
at load time, so a process that uses neither never pays for it."""

from repro.core.errors import ConfigurationError


def load_numpy(why: str):
    """numpy, imported on the first call; :class:`ConfigurationError`
    *why* when it is missing or ``sys.modules["numpy"]`` is ``None``."""
    try:
        import numpy
    except ImportError as exc:
        raise ConfigurationError(why) from exc
    return numpy
