"""Setuptools shim.

The execution environment is offline and has no ``wheel`` package, so
PEP 660 editable installs (``pip install -e .``) cannot build. This
shim lets ``python setup.py develop`` provide the same editable
install with the stdlib-only toolchain.  The library itself needs only
the standard library; the extras name what it uses when present.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

SRC = Path(__file__).parent / "src"
VERSION = re.search(r'^__version__ = "([^"]+)"',
                    (SRC / "repro" / "__init__.py").read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={
        "fast": ["numpy"],         # arrays kernel, columnar store
        "jellyfish": ["networkx"],  # jellyfish builder, graph() exports
    },
)
