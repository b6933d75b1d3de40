"""The package has one version: the build reads ``repro.__version__``."""

from pathlib import Path

import pytest

import repro

# tomllib is Python 3.11+; setuptools is a build tool, not a dependency.
tomllib = pytest.importorskip("tomllib")
read_attr = pytest.importorskip("setuptools.config.expand").read_attr

ROOT = Path(__file__).resolve().parents[1]


def test_build_metadata_version_is_the_modules():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    package_dir = config["tool"]["setuptools"]["package-dir"]
    assert read_attr(attr, package_dir, ROOT) == repro.__version__
