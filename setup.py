"""Package metadata: ``pip install -e .`` installs the ``repro`` package from ``src/``.

NumPy is the one runtime requirement; the version is the one
``repro.__version__`` declares.  There is no ``pyproject.toml``, so pip takes
the legacy ``setup.py develop`` route for an editable install, which needs no
``wheel`` package (the offline toolchain this project is developed with has
none).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M)[1],
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
