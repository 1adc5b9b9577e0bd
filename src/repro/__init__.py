"""repro — a reproduction of "Faster Control Plane Experimentation with Horse".

A hybrid network experimentation library: emulated control plane
(BGP/OSPF daemons, OpenFlow controllers exchanging real wire-format
messages) over a simulated fluid-rate data plane, glued by a hybrid
FTI/DES clock.

Quickstart::

    from repro.api import Experiment

    exp = Experiment("hello")
    h1 = exp.add_host("h1", "10.0.0.1")
    h2 = exp.add_host("h2", "10.0.0.2")
    s1 = exp.add_switch("s1")
    exp.add_link(h1, s1)
    exp.add_link(h2, s1)
    ...

See ``docs/`` for the architecture, layer by layer.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
