import json

import numpy as np
import pytest

from energylab.cli import main
from energylab.constructors import InstanceSpec
from energylab.setfun import GSet


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden_z7.json"
    path.write_text(json.dumps({"group": [7], "elements": [0, 1, 2]}))
    return str(path)


def test_construct_roundtrip(tmp_path):
    out = tmp_path / "ap.json"
    rc = main(["construct", "--kind", "ap", "--modulus", "101", "--start", "0",
               "--step", "1", "--length", "8", "--out", str(out)])
    assert rc == 0
    loaded = GSet.from_dict(json.loads(out.read_text()))
    assert loaded.members.tolist() == list(range(8))
    # construct -> file -> load -> identical bit array
    again = tmp_path / "ap2.json"
    rc = main(["construct", "--kind", "ap", "--modulus", "101", "--start", "0",
               "--step", "1", "--length", "8", "--out", str(again)])
    assert rc == 0
    assert np.array_equal(GSet.from_dict(json.loads(again.read_text())).mask, loaded.mask)


def test_construct_kinds(tmp_path):
    """Each kind's set file holds the InstanceSpec build of its options."""
    for kind, extra, params, seed in (
        ("subspace", ["--n", "4", "--dim", "2"], {"n": 4, "dim": 2}, 0),
        ("dissociated", ["--n", "5", "--k", "3"], {"n": 5, "k": 3}, 0),
        ("hplusl", ["--n", "6", "--dim", "2", "--k", "4"], {"n": 6, "dim": 2, "K": 4}, 0),
        ("ap", ["--modulus", "31", "--start", "3", "--step", "5", "--length", "7"],
         {"N": 31, "start": 3, "step": 5, "length": 7}, 0),
        ("random", ["--group", "2,3,17", "--density", "0.2", "--seed", "42"],
         {"group": [2, 3, 17], "density": 0.2}, 42),
        ("cosetUnion", ["--n", "6", "--blocks", "2,1,2"], {"n": 6, "dims": [2, 1, 2]}, 0),
    ):
        out = tmp_path / f"{kind}.json"
        assert main(["construct", "--kind", kind, "--out", str(out)] + extra) == 0
        loaded = GSet.from_dict(json.loads(out.read_text()))
        assert loaded == InstanceSpec(kind, params, seed).build(), kind


def test_energy_command(golden_file, capsys):
    assert main(["energy", "--set", golden_file, "--kind", "E", "--k", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == "45"
    assert main(["energy", "--set", golden_file, "--kind", "T", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "19"
    assert main(["energy", "--set", golden_file, "--kind", "sigma", "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1"


@pytest.mark.parametrize("kind", ["T", "sigma"])
@pytest.mark.parametrize("k", ["2.5", "inf", "nan"])
def test_energy_non_integer_order_is_usage_error(golden_file, capsys, kind, k):
    """T_k and sigma_k take an integer k: 2.5 is refused, not truncated to 2."""
    assert main(["energy", "--set", golden_file, "--kind", kind, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"takes an integer --k, not {k}" in captured.err
    # an integral value written as a float is still an integer order
    assert main(["energy", "--set", golden_file, "--kind", kind, "--k", "2.0"]) == 0


def test_energy_restricted(golden_file, tmp_path, capsys):
    restrict = tmp_path / "p.json"
    restrict.write_text(json.dumps({"group": [7], "elements": [0]}))
    assert main(["energy", "--set", golden_file, "--kind", "sigma", "--k", "2",
                 "--restrict", str(restrict)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "3"


def test_gowers_command(golden_file, capsys):
    assert main(["gowers", "--set", golden_file, "--d", "4", "--normalized"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["count"] == "51"
    assert 0 < record["normalized"] < 1


def test_verify_command(golden_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    rc = main(["verify", "--set", golden_file, "--suite", "identity",
               "--out", str(report), "--csv", str(csv_path)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert all(entry["status"] == "pass" for entry in payload)
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",") == ["name", "tag", "lhs", "rhs", "status", "ratio", "note"]


def test_verify_ratio_suite(golden_file, capsys):
    rc = main(["verify", "--set", golden_file, "--suite", "ratio"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert any(entry["tag"] == "ratio.critical_e3" for entry in payload)


def test_extract_command(golden_file, capsys):
    rc = main(["extract", "--algo", "translates", "--set", golden_file])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"]["count"] >= 1
    rc = main(["extract", "--algo", "oracle", "--set", golden_file, "--min-frac", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["doubling"] == pytest.approx(5 / 3)


def test_extract_connected(golden_file, capsys):
    rc = main(["extract", "--algo", "connected", "--set", golden_file,
               "--beta1", "0.5", "--beta2", "1.0", "--rho", "0.25"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["elements"] == [0, 1, 2]
    assert payload["result"]["steps"] == 0


@pytest.mark.parametrize("power", ["15", "16", "20"])
def test_extract_connected_refuses_powers_past_int64(tmp_path, capsys, power):
    """|A| = 16 with (A o A)(0) = 16: at power 15 the kernel fits int64 but its
    energy does not, from 16 on the kernel itself does not (16^16 = 2^64 once
    wrapped to 0).  Both exit 2 and name the bound."""
    path = tmp_path / "r.json"
    assert main(["construct", "--kind", "random", "--group", "101", "--density", "0.2",
                 "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    rc = main(["extract", "--algo", "connected", "--set", str(path), "--power", power])
    assert rc == 2
    captured = capsys.readouterr()
    assert "INT64_SAFE_BOUND" in captured.err and not captured.out
    assert main(["extract", "--algo", "connected", "--set", str(path), "--power", "14"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["steps"] == 0


def test_corpus_command(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = main(["corpus", "--seeds", "1", "--skip-random-family", "--out", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text())
    assert summary["counts"]["fail"] == 0
    assert summary["items"] == 10 + 4
    assert not any(tag.startswith("ratio.e4da") for tag in summary["skips_by_tag"])
    assert sum(summary["skips_by_tag"].values()) == summary["counts"]["skip"]


def test_usage_error_exit_code(golden_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--set", golden_file, "--badflag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["energy", "--set", "/nonexistent.json", "--kind", "E", "--k", "2"]) == 2


@pytest.mark.parametrize("payload", [
    {"group": [7.9], "elements": [1.5, 2]},
    {"group": [7], "elements": [1.5, 2]},
    {"group": [7.0], "elements": [1, 2]},
    {"group": "77", "elements": [1, 2]},
    {"group": [7], "elements": [True, 2]},
    {"group": [7], "elements": "12"},
    {"group": [7], "elements": [1, 2, 2]},
    {"group": [7]},
    [[7], [1, 2]],
], ids=["float-factor-and-elements", "float-element", "float-factor", "string-group",
        "bool-element", "string-elements", "duplicate-element", "missing-elements",
        "top-level-list"])
def test_malformed_set_file_is_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["energy", "--set", str(path), "--kind", "E", "--k", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
