"""README's "Library use" example runs as written against the public API."""

import re
from pathlib import Path

import numpy as np

import tractvar
from helpers import (
    EXPECTED_TV,
    palate_coords,
    reference_pellets,
    wall_coords,
    write_pellet_csv,
    write_trace_csv,
)
from tractvar.tract_variables import OK, TV_NAMES

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch):
    # The file names the example reads, holding the synthetic speaker.
    write_trace_csv(tmp_path / "jw11.pal.csv", palate_coords())
    write_trace_csv(tmp_path / "jw11.pha.csv", wall_coords())
    write_pellet_csv(
        tmp_path / "tp105.csv", [(k / 145.0, reference_pellets()) for k in range(30)]
    )
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)

    tvs = namespace["tvs"]
    assert len(tvs) == 30
    assert (tvs.quality == OK).all()
    expected = np.array([EXPECTED_TV[name] for name in TV_NAMES])
    assert np.allclose(tvs.values, expected, atol=5e-3)


def test_library_use_imports_are_exported():
    imported = re.search(
        r"from tractvar import \((.*?)\)", library_use_block(), re.S
    ).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert names and set(names) <= set(tractvar.__all__)
