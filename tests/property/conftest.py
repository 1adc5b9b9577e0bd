"""The property suites compare the arrays kernel with the scalar one on
networks of a few flows, below the size at which the engine's rule
(``ReallocEngine.effective_kernel``) picks arrays by itself.  Every
test in this directory therefore runs with the threshold at zero —
"auto" means arrays, as on a large network — the way the scenario-level
parity test hides numpy from the same rule; the kernel-rule tests in
``test_kernel_parity.py`` set it back.  A guard test there fails if
this fixture stops reaching small engines, so arrays coverage cannot
quietly turn into heap against heap.
"""

import pytest

from repro.dataplane import arrays as arrays_module


@pytest.fixture(autouse=True)
def arrays_at_any_size(monkeypatch):
    monkeypatch.setattr(arrays_module, "ARRAYS_MIN_FLOWS", 0)
