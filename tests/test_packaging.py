"""The installed package ships every data file: each file under
`src/ramseykit/data/` matches a package-data glob of `pyproject.toml`.
The tests import ramseykit from `src/`, where an unshipped file is still
found, so only this test sees one."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramseykit"


def test_package_data_globs_cover_every_data_file():
    with open(ROOT / "pyproject.toml", "rb") as f:
        config = tomllib.load(f)
    globs = config["tool"]["setuptools"]["package-data"]["ramseykit"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    # modules ship as the `ramseykit.data` package, not as package data
    files = {path for path in (PACKAGE / "data").rglob("*")
             if path.is_file() and path.suffix not in (".py", ".pyc")}
    assert files, "no data files found"
    assert sorted(str(p.relative_to(PACKAGE)) for p in files - shipped) == []
