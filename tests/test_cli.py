"""Command line tests: exit codes and error reporting."""

import pytest

from bandopt.cli import main
from bandopt.instance import GenParams, Instance, save


@pytest.mark.parametrize("gap", [1e-60, 1e60])
def test_solve_rejects_out_of_range_weights(tmp_path, capsys, gap):
    inst = Instance(
        id="toy",
        seed=0,
        params=GenParams(L=10.0),
        sites=((0.0, 0.0), (gap, 0.0)),
        bonds=frozenset(),
    )
    path = tmp_path / "inst.json"
    save(inst, path)
    out = tmp_path / "result.json"
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: ")
    assert not out.exists()
