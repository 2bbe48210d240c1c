"""Packaging for the BBS reproduction (``src`` layout, console entry point).

Kept as a plain ``setup.py`` so editable installs work on offline machines
without the ``wheel`` package: pip's legacy ``--no-use-pep517`` path needs
exactly this file.  The repository's ``pyproject.toml`` holds lint
configuration only — no ``[build-system]``/``[project]`` tables — so that
path keeps working.
"""

from setuptools import find_packages, setup

setup(
    name="repro-bbs",
    version="0.1.0",
    description=(
        "Reproduction of BBS (MICRO 2024): bi-directional bit-level sparsity "
        "compression, cycle-level accelerator models, and a "
        "compression-as-a-service HTTP/JSON API"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy 2.0 added np.bitwise_count, which the bit-statistics kernels use.
    install_requires=["numpy>=2.0"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Topic :: Scientific/Engineering",
    ],
)
