"""The package version has a single source: ``dalopt.__version__``."""

import re
from pathlib import Path

import dalopt

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_the_package_version():
    text = PYPROJECT.read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.S | re.M).group(1)
    assert re.search(r'^dynamic = \["version"\]$', project, re.M)
    assert not re.search(r"^version\s*=", project, re.M)
    dynamic = re.search(r"^\[tool\.setuptools\.dynamic\]\n(.*?)(?=^\[|\Z)", text, re.S | re.M)
    assert re.search(r'^version = \{ attr = "dalopt\.__version__" \}$', dynamic.group(1), re.M)


def test_version_is_a_literal_setuptools_can_read():
    source = Path(dalopt.__file__).read_text()
    literal = re.search(r'^__version__ = "([^"]+)"', source, re.M)
    assert literal is not None and literal.group(1) == dalopt.__version__
