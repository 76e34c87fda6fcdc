"""Setuptools shim for environments whose pip/setuptools predate PEP 660
editable installs.  All metadata lives in pyproject.toml."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # The core package is stdlib-only; numpy unlocks the vectorized
    # GF(256)/Reed-Solomon data plane (repro.gf.gf256_vec) and the batch
    # AES-CTR keystream (repro.crypto.aes) that together carry the POR
    # setup.  Absence is detected at import (repro.gf.HAS_NUMPY) and
    # every caller falls back to the byte-identical scalar path.
    # The dev extra pulls the static-analysis toolchain the CI
    # static-analysis lane runs (repro lint itself is stdlib-only).
    extras_require={"fast": ["numpy"], "dev": ["mypy", "pytest"]},
)
