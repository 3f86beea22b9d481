"""Package metadata and installation script.

This file is the canonical project metadata (there is no ``pyproject.toml``).
It also lets the package install in editable mode on minimal/offline
environments where the PEP 660 editable-wheel path is unavailable
(``pip install -e . --no-build-isolation --no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Energy/performance trade-off in nanophotonic interconnects using "
        "coding techniques (DAC 2017 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-serve=repro.service.server:main",
            "repro-lint=repro.analysis.cli:main",
        ],
    },
)
