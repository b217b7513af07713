"""Command line tests: exit codes and error reporting."""

import json

import pytest

from bandopt import cli
from bandopt.cli import main
from bandopt.exact import STATUS_OPTIMAL, export_lp, load_result
from bandopt.harness import load_report, report_to_csv
from bandopt.instance import (
    GenerationError,
    GenParams,
    Instance,
    generate,
    interaction_matrix,
    load,
    save,
    to_json,
)
from bandopt.metrics import classic_bandwidth, load_ordering, weighted_bandwidth
from bandopt.rcm import rcm_on_instance


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


def test_solve_rejects_one_site_and_anchor(tmp_path, capsys):
    path, out = tmp_path / "inst.json", tmp_path / "result.json"
    doc = json.loads(to_json(generate(6, 1)))
    doc["sites"], doc["bonds"] = doc["sites"][:1], []
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: ")
    assert not out.exists()

    save(generate(6, 1), path)
    for command in ("solve", "lp"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--instance", str(path), "--out", str(out), "--anchor", "0"])
        assert exc.value.code == 2
    assert not out.exists()


def test_rcm_rejects_oversized_param(tmp_path, capsys):
    path, out = tmp_path / "inst.json", tmp_path / "order.json"
    doc = json.loads(to_json(generate(6, 1)))
    doc["params"]["L"] = 10**400  # a JSON integer too large for a float
    path.write_text(json.dumps(doc))
    assert main(["rcm", "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: params ")
    assert not out.exists()


def test_solve_rejects_undecodable_file(tmp_path, capsys):
    path, out = tmp_path / "inst.json", tmp_path / "result.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: not UTF-8")
    assert not out.exists()


def test_solve_rejects_nan_time_limit(tmp_path, capsys):
    path, out = tmp_path / "inst.json", tmp_path / "result.json"
    save(generate(6, 1), path)
    argv = ["solve", "--instance", str(path), "--out", str(out), "--time-limit", "nan"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("bandopt: time_limit")
    assert not out.exists()


@pytest.mark.parametrize("count", [0, -3])
def test_gen_rejects_nonpositive_count(tmp_path, capsys, count):
    out = tmp_path / "suite"
    assert main(["gen", "--n", "8", "--seed", "1", "--count", str(count), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: ")
    assert not out.exists()


def test_gen_rcm_solve_on_one_instance(tmp_path, capsys):
    inst_path, order_path, result_path = (
        tmp_path / name for name in ("inst.json", "order.json", "result.json")
    )
    assert main(["gen", "--n", "8", "--seed", "1", "--out", str(inst_path)]) == 0
    inst = load(inst_path)
    assert inst == generate(8, 1)
    assert capsys.readouterr().out == f"wrote {inst.id} to {inst_path}\n"

    assert main(["rcm", "--instance", str(inst_path), "--out", str(order_path)]) == 0
    ordering = load_ordering(order_path)
    assert ordering == rcm_on_instance(inst)
    U = interaction_matrix(inst)
    wb = weighted_bandwidth(U, ordering).value
    cb = classic_bandwidth(inst, ordering)
    assert capsys.readouterr().out == (
        f"{inst.id}: weighted bandwidth {wb:.12g}, bond bandwidth {cb}\n"
    )

    assert main(["solve", "--instance", str(inst_path), "--out", str(result_path)]) == 0
    result = load_result(result_path)
    assert result.status == STATUS_OPTIMAL
    assert weighted_bandwidth(U, result.ordering).value == result.objective
    assert capsys.readouterr().out.startswith(
        f"{inst.id}: objective {result.objective:.12g} (optimal), {result.nodes_explored} nodes in "
    )


def test_lp_writes_export_lp_model(tmp_path):
    path = tmp_path / "inst.json"
    save(generate(6, 3), path)
    out, ref = tmp_path / "model.lp", tmp_path / "ref.lp"
    assert main(["lp", "--instance", str(path), "--out", str(out)]) == 0
    export_lp(interaction_matrix(load(path)), None, ref)
    assert out.read_bytes() == ref.read_bytes()

    plain = tmp_path / "plain.lp"
    assert main(["lp", "--instance", str(path), "--out", str(plain), "--no-lb", "--no-sym"]) == 0
    full, kept = out.read_text().splitlines(), plain.read_text().splitlines()
    dropped = [line for line in full if line not in kept]
    assert [line.split(":")[0] for line in dropped] == [" lb", " sym"]
    assert [line for line in full if line not in dropped] == kept


def test_bench_writes_report_and_summary(tmp_path):
    plain, ab = tmp_path / "r.csv", tmp_path / "ab.csv"
    assert main(["bench", "--sizes", "5,6", "--per-size", "2", "--out", str(plain)]) == 0
    assert main(
        ["bench", "--sizes", "5,6", "--per-size", "2", "--ab-reinforcements", "--out", str(ab)]
    ) == 0
    for out in (plain, ab):
        report = load_report(out)
        assert report_to_csv(report) == out.read_text()
        assert [row.n for row in report.rows] == [5, 5, 6, 6]
        assert (tmp_path / f"{out.stem}.summary.json").exists()
    assert all(row.nodes_off is None for row in load_report(plain).rows)
    assert all(row.nodes_off is not None for row in load_report(ab).rows)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "5", "--per-size", "1", "--jobs", "2", "--out", str(plain)])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-5", "18446744073709551614"])
def test_gen_batch_checks_every_seed_first(tmp_path, capsys, seed):
    # seed + 0..2 runs past 2**64 - 1 for the second seed
    out = tmp_path / "d"
    assert main(["gen", "--n", "8", "--seed", seed, "--count", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: seed ")
    assert list(tmp_path.iterdir()) == []


def test_gen_batch_failing_first_instance_writes_nothing(tmp_path, capsys):
    out = tmp_path / "d"
    argv = ["gen", "--n", "8", "--seed", "1", "--r-min", "5", "--box-side", "6", "--count", "3"]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: packing infeasible")
    assert list(tmp_path.iterdir()) == []


def test_gen_batch_failing_later_instance_writes_nothing(tmp_path, capsys, monkeypatch):
    def generate_until_third(n, seed, params=None):
        if seed == 3:
            raise GenerationError(f"no instance for seed {seed}")
        return generate(n, seed, params)

    monkeypatch.setattr(cli, "generate", generate_until_third)
    out = tmp_path / "d"
    assert main(["gen", "--n", "6", "--seed", "1", "--count", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: no instance for seed 3")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["1", "3"])
def test_gen_rejects_box_whose_square_overflows(tmp_path, capsys, count):
    out = tmp_path / "x"
    argv = ["gen", "--n", "8", "--seed", "1", "--box-side", "1e200", "--count", count]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: box side 1e+200 ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["1", "3"])
def test_gen_rejects_separation_whose_square_underflows(tmp_path, capsys, count):
    out = tmp_path / "x"
    argv = ["gen", "--n", "20", "--seed", "0", "--box-side", "1e-170", "--r-min", "1e-171"]
    assert main(argv + ["--count", count, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: separation 1e-171 ")
    assert list(tmp_path.iterdir()) == []


def test_gen_batch_writes_every_seed(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen", "--n", "6", "--seed", "4", "--count", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [f"inst-n6-s{s}.json" for s in (4, 5, 6)]
    for s in (4, 5, 6):
        assert load(out / f"inst-n6-s{s}.json") == generate(6, s)


def _never(*args, **kwargs):
    raise AssertionError("the search ran although --out cannot be written")


def test_solve_checks_out_dir_before_searching(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "branch_and_bound", _never)
    path = tmp_path / "inst.json"
    save(generate(8, 1), path)
    # a missing parent; a file as parent; an existing directory
    for out in (tmp_path / "nodir" / "r.json", path / "r.json", tmp_path):
        assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("bandopt: --out ")
    assert list(tmp_path.iterdir()) == [path]


def test_bench_checks_summary_path_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _never)
    (tmp_path / "r.summary.json").mkdir()
    out = tmp_path / "r.csv"
    assert main(["bench", "--sizes", "5", "--per-size", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bandopt: --out ")
    assert not out.exists()


def test_bench_checks_out_dir_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _never)
    for out in (tmp_path / "nodir" / "r.csv", tmp_path):  # a missing parent; a directory
        assert main(["bench", "--sizes", "5", "--per-size", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("bandopt: --out ")
    assert list(tmp_path.iterdir()) == []
