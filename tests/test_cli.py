"""Command-line behavior: exit codes, output formats, and usage errors.

Everything drives cli.main(argv) in-process so stdout/stderr and return codes
can be asserted exactly; one subprocess test covers the installed entry point.
"""

import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nihoperm import cli, families
from nihoperm.gf2n import field_new
from nihoperm.spectra import VerificationReport
from nihoperm.unit_circle import build_unit_circle, complement_coset

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -----------------------------------------------------------------


def test_verify_pp_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "6", "--poly", "1:12,1:19,1:33"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=6 poly=1:12,1:19,1:33 claim=PP"
    assert "engine=brute target=f verdict=true" in lines
    assert "engine=niho target=f verdict=true" in lines
    assert lines[-1] == "result: PP verified"


def test_verify_failing_poly_witness_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--poly", "1:3")
    assert code == 1
    assert "engine=brute target=f verdict=false witness=0x1,0x6" in out
    assert out.splitlines()[-1] == "result: PP FAILED"


def test_verify_engine_selection(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--poly", "1:3", "--engines", "charsum"
    )
    assert code == 1
    assert "engine=charsum" in out and "witness=0x" in out
    code, _, err = run_cli(
        capsys, "verify", "--n", "4", "--poly", "1:3", "--engines", "walrus"
    )
    assert code == 64 and "unknown engine" in err
    code, _, err = run_cli(
        capsys, "verify", "--n", "4", "--poly", "1:3", "--engines", "delta"
    )
    assert code == 64 and "coprime" in err  # no pivot exponent for x^3


def test_verify_skips_delta_when_inapplicable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--poly", "1:3")
    assert code == 1
    assert "engine=delta" not in out and "engine=niho" not in out


def test_verify_cpp_targets(capsys):
    ctx = field_new(6)
    u = complement_coset(build_unit_circle(ctx), 3)[0]
    spec = f"{ctx.inv(u):x}:43"
    code, out, _ = run_cli(capsys, "verify", "--n", "6", "--poly", spec, "--cpp")
    assert code == 0
    assert "target=f " in out and "target=f+x" in out
    assert out.splitlines()[-1] == "result: CPP verified"
    # x permutes but x + x does not
    code, out, _ = run_cli(capsys, "verify", "--n", "6", "--poly", "1:1", "--cpp")
    assert code == 1
    assert "target=f+x verdict=false witness=0x0,0x1" in out


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "6", "--poly", "1:10,7:52", "--format", "json"
    )
    obj = json.loads(out)
    assert code in (0, 1)
    assert obj["field"]["n"] == 6
    assert obj["poly"] == "1:10,7:52"
    assert obj["claim"] == "PP"
    assert obj["engines_agree"] is True
    assert obj["verdict"] == (code == 0)
    for res in obj["results"]:
        assert res["target"] == "f"
        assert "elapsed_ms" not in res["report"]


def test_verify_timing_flag(capsys):
    _, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--poly", "1:1", "--timing"
    )
    assert "elapsed_ms=" in out
    _, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--poly", "1:1", "--format", "json", "--timing"
    )
    assert all("elapsed_ms" in r["report"] for r in json.loads(out)["results"])


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "7", "--poly", "1:1")
    assert code == 64 and "error" in err
    code, _, err = run_cli(capsys, "verify", "--n", "6", "--poly", "xyz")
    assert code == 64
    with pytest.raises(SystemExit) as ei:
        cli.main(["verify", "--poly", "1:1"])  # --n is required
    assert ei.value.code == 64


def test_verify_ignores_niho_perm_max_n(capsys, monkeypatch):
    # 1:5,3:11 takes the full-field delta path
    argv = ("verify", "--n", "6", "--poly", "1:5,3:11")
    want = run_cli(capsys, *argv)
    assert want[0] == 1 and "engine=delta_criterion" in want[1]
    monkeypatch.setenv("NIHO_PERM_MAX_N", "-3")
    assert run_cli(capsys, *argv) == want


def test_verify_rejects_removed_cap_option(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["verify", "--n", "6", "--poly", "1:5,3:11", "--size-cap", "6"])
    out, err = capsys.readouterr()
    assert ei.value.code == 64 and out == ""
    assert "unrecognized arguments: --size-cap 6" in err


def test_verify_default_engines_follow_delta_direct(capsys):
    # Niho-shaped at n = 14: the default delta engine takes the circle path,
    # and the full-field path under --delta-direct
    poly = "1:130,3e8a:16132"
    code, out, _ = run_cli(capsys, "verify", "--n", "14", "--poly", poly)
    assert code == 0 and "engine=niho target=f verdict=true" in out
    code, out, err = run_cli(
        capsys, "verify", "--n", "14", "--poly", poly, "--delta-direct"
    )
    assert code == 0, err
    assert [l for l in out.splitlines() if l.startswith("engine=")] == [
        "engine=brute target=f verdict=true",
        "engine=delta_criterion target=f verdict=true",
    ]
    code, out, err = run_cli(
        capsys, "verify", "--n", "14", "--poly", poly, "--engines", "delta", "--delta-direct"
    )
    assert code == 0, err
    assert "engine=delta_criterion target=f verdict=true" in out


def test_verify_n20_default_and_all_engines(capsys):
    # x^4 + alpha*x, not Niho-shaped: the default adds the full-field delta path
    code, out, _ = run_cli(capsys, "verify", "--n", "20", "--poly", "2:1,1:4")
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("engine=")] == [
        "engine=brute target=f verdict=true",
        "engine=delta_criterion target=f verdict=true",
    ]
    code, out, _ = run_cli(
        capsys, "verify", "--n", "20", "--poly", "1:1,1:3",
        "--engines", "brute,charsum,delta", "--delta-direct", "--format", "json",
    )
    obj = json.loads(out)
    assert code == 1 and obj["verdict"] is False and obj["engines_agree"] is True
    assert [r["report"]["engine"] for r in obj["results"]] == [
        "brute", "charsum", "delta_criterion"
    ]


@pytest.mark.parametrize("poly, witness", [
    # x^d1 + u*x^d2 for theorem-1 exponents with u an r-th power on the circle
    ("6d3e:3074,1:8189", "0x0,0x17"),
    ("c025f:4096,1:9211", "0x0,0x8f"),
    ("1:4096,edeb2:1047556", "0x0,0xf6"),
])
def test_verify_n20_controls_keep_their_brute_witness(capsys, poly, witness):
    code, out, _ = run_cli(capsys, "verify", "--n", "20", "--poly", poly, "--engines", "brute")
    assert code == 1
    assert f"engine=brute target=f verdict=false witness={witness}" in out.splitlines()


def test_verify_cpp_n18_witness_of_f_plus_x(capsys):
    # f = x permutes, and f + x = 0 collides at the first pair
    code, out, _ = run_cli(capsys, "verify", "--n", "18", "--poly", "1:1", "--cpp")
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("engine=")] == [
        "engine=brute target=f verdict=true",
        "engine=brute target=f+x verdict=false witness=0x0,0x1",
    ]


def test_main_builds_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    for _ in range(2):
        assert run_cli(capsys, "verify", "--n", "4", "--poly", "1:7")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_verify_engine_disagreement_exit_code(capsys, monkeypatch):
    fake = VerificationReport("brute", (0, 1), 0.0, {"n": 6})
    monkeypatch.setattr(cli, "is_permutation_brute", lambda poly: fake)
    code, out, _ = run_cli(
        capsys, "verify", "--n", "6", "--poly", "1:1", "--engines", "brute,charsum"
    )
    assert code == 2
    assert out.splitlines()[-1] == "result: PP ENGINE DISAGREEMENT"


# -- generate ----------------------------------------------------------------


def test_generate_thm1_text_with_check(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "thm1", "--m", "3", "--s", "1", "--l", "3", "--e", "3",
        "--check",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[-1] == "instances=6 failures=0"
    assert all(" verified=true" in line for line in lines[:-1])
    assert all("family=THM1 m=3 poly=1:10," in line for line in lines[:-1])


def test_generate_prop1_positional_case(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "prop1", "1", "--m", "3", "--k1", "1", "--k2", "1",
        "--k3", "1",
    )
    assert code == 0
    assert all(line.startswith("family=PROP1_CASE1 ") for line in out.splitlines())
    with pytest.raises(SystemExit) as ei:
        cli.main(["generate", "prop1", "7", "--m", "3", "--k1", "1"])
    assert ei.value.code == 64


def test_generate_text_timing_tail(capsys):
    argv = ["generate", "thm1", "--m", "3", "--s", "1", "--l", "3", "--e", "3", "--check"]
    code, out, _ = run_cli(capsys, *argv, "--timing")
    assert code == 0
    lines = out.splitlines()
    assert all(re.search(r" verified=true elapsed_ms=\d+\.\d{3}$", line) for line in lines[:-1])
    assert lines[-1] == "instances=6 failures=0"
    _, out, _ = run_cli(capsys, *argv)
    assert "elapsed_ms" not in out


def test_generate_cpp_class_negative_k_exits_64(capsys):
    code, out, err = run_cli(capsys, "generate", "cpp-class", "1", "--m", "3", "--k", "-1")
    assert code == 64 and out == ""
    assert "k >= 0, got k=-1" in err


def test_generate_cpp_class_without_k_refuses_k(capsys):
    code, out, err = run_cli(
        capsys, "generate", "cpp-class", "3", "--m", "3", "--k", "5", "--format", "csv"
    )
    assert code == 64 and out == ""
    assert err == "nihoperm: error: class 3 does not depend on k, got k=5\n"


def test_generate_prop1_refuses_k_its_case_does_not_use(capsys):
    # cases 3-6 use k1 alone; k2 and k3 were once accepted and written into the rows
    code, out, err = run_cli(
        capsys, "generate", "prop1", "3", "--m", "3", "--k1", "1", "--k2", "5", "--k3", "2"
    )
    assert code == 64 and out == ""
    assert err == "nihoperm: error: case 3 does not depend on k2, got k2=5\n"


def test_generate_cor2_and_cpp_class(capsys):
    code, out, _ = run_cli(capsys, "generate", "cor2", "--m", "3", "--s", "6", "--check")
    assert code == 0
    assert "claims=CPP" in out and out.splitlines()[-1] == "instances=6 failures=0"
    code, out, _ = run_cli(
        capsys, "generate", "cpp-class", "3", "--m", "3", "--check"
    )
    assert code == 0 and "family=CPP_CLASS3" in out
    code, _, err = run_cli(capsys, "generate", "cpp-class", "3", "--m", "5")
    assert code == 64 and "5 ∤ m" in err


def test_generate_parameter_errors_exit_64(capsys):
    code, _, err = run_cli(
        capsys, "generate", "thm1", "--m", "3", "--s", "1", "--l", "1", "--e", "3"
    )
    assert code == 64 and "condition (i)" in err
    code, _, err = run_cli(capsys, "generate", "conj", "--m", "4")
    assert code == 64 and "odd" in err


def test_generate_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "prop3", "--m", "3", "--s", "6", "--format", "csv",
        "--check",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family_id,m,s,l,e,")
    assert len(lines) == 7
    row = lines[1].split(",")
    assert row[0] == "PROP3" and row[1] == "3" and row[2] == "6"
    assert row[-2] == "true" and row[-1] == ""


def test_generate_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "conj", "--m", "3", "--format", "json", "--check"
    )
    assert code == 0
    objs = json.loads(out)
    assert [o["family_id"] for o in objs] == ["CONJ_F", "CONJ_G"]
    assert all(o["report"]["verdict"] for o in objs)


# -- scan --------------------------------------------------------------------


def test_scan_csv_and_summary(capsys):
    code, out, err = run_cli(capsys, "scan", "--m", "3", "--families", "conj")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family_id,")
    assert len(lines) == 3
    assert err.strip() == "instances=2 failures=0"


def test_scan_output_is_byte_identical_between_runs(capsys):
    args = ("scan", "--m", "3", "--families", "prop3,conj")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_scan_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--m", "3", "--families", "conj", "--format", "jsonl"
    )
    assert code == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert len(objs) == 2 and all(o["report"]["verdict"] for o in objs)


def no_engine(monkeypatch):
    """Make every claim check of the family layer fail the test if it runs."""
    def refused(poly):
        raise AssertionError(f"an engine ran on {poly.to_spec()}")

    monkeypatch.setattr(families, "is_permutation_brute", refused)
    monkeypatch.setattr(families, "is_cpp", refused)


def test_scan_usage_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "scan", "--m", "3", "--m", "3")
    assert code == 64 and "duplicate" in err
    code, _, err = run_cli(capsys, "scan", "--families", "conj")
    assert code == 64 and "at least one --m" in err
    code, _, err = run_cli(capsys, "scan", "--m", "11")
    assert code == 64 and "n=22" in err
    # the field layer refuses m = 11 before m = 3 is scanned
    no_engine(monkeypatch)
    code, out, err = run_cli(capsys, "scan", "--m", "3", "--m", "11")
    assert code == 64 and out == "" and "n=22" in err
    code, _, err = run_cli(capsys, "scan", "--m", "3", "--families", "prop2")
    assert code == 64 and "unknown family group" in err


def test_scan_rejects_budget_and_k_max_below_range(capsys):
    for budget in ("0", "-1"):
        code, out, err = run_cli(capsys, "scan", "--m", "5", "--budget", budget)
        assert code == 64 and "budget must be >= 1" in err and out == ""
    code, out, err = run_cli(capsys, "scan", "--m", "3", "--k-max", "-1")
    assert code == 64 and "k_max must be >= 0" in err and out == ""


# -- conjecture ---------------------------------------------------------------


def test_conjecture_text(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--m", "3,5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m=3 n=6 f exponents=12,19,33 verdict=true"
    assert lines[1] == "m=3 n=6 g exponents=8,15,57 verdict=true"
    assert lines[2].startswith("m=5 n=10 f exponents=36,67,129")
    assert lines[-1] == "all_pp=true"


def test_conjecture_json(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--m", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pp"] is True
    assert [r["family_id"] for r in obj["results"]] == ["CONJ_F", "CONJ_G"]


def test_conjecture_usage_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "conjecture", "--m", "4")
    assert code == 64 and "odd" in err
    code, _, err = run_cli(capsys, "conjecture", "--m", "11")
    assert code == 64 and "n=22" in err
    # every instance is built, and m = 11 refused, before m = 3 is verified
    no_engine(monkeypatch)
    code, out, err = run_cli(capsys, "conjecture", "--m", "3,11")
    assert code == 64 and out == "" and "n=22" in err
    code, _, err = run_cli(capsys, "conjecture", "--m", "3,x")
    assert code == 64 and "comma list" in err


# -- golden digests --------------------------------------------------------------

# sha256 of stdout and the exit code of the family layer's commands; any
# change to these bytes is a change to the CSV, JSON or text output formats.
GOLDEN = [
    ("scan --m 3 --format jsonl", 0,
     "a9aa2179f25d06364934cb4d5a88b64cc491da7110ec9ff989d178e6d04a9302"),
    ("scan --m 5 --budget 200 --seed 7 --format jsonl", 0,
     "4be72666c810014a0e0c0c64bec6e41f6f7235b2a775a2baf854bf89b452b5e3"),
    ("generate thm1 --m 3 --s 1 --l 3 --e 3 --check --format text", 0,
     "2f865678aa35d3d10cf790f772630de566d3a607dbedf2b6c34deed577b70b54"),
    ("generate thm1 --m 3 --s 1 --l 3 --e 3 --check --format csv", 0,
     "e433ee3745d818dfb2b05d78d5d943348de0a26be0eb97e3552f45e4fc1474c9"),
    ("generate thm1 --m 3 --s 1 --l 3 --e 3 --check --format json", 0,
     "c0cf9f73c1e71b66d5230f9a99cd4454ef1a18a018539a1ac4c194db1ff785db"),
    ("generate prop1 1 --m 3 --k1 1 --k2 1 --k3 1 --check --format text", 0,
     "7dea56f59414dd8b7c9fd24a7ebaf7a7ff2c0bd842ff27f7f0e7589fd1b387dd"),
    ("generate prop1 1 --m 3 --k1 1 --k2 1 --k3 1 --check --format csv", 0,
     "3eba542bfc10a97a1ef6b0d1ddcbf41098af0f15711b21623b895b3a5d219422"),
    ("generate prop1 1 --m 3 --k1 1 --k2 1 --k3 1 --check --format json", 0,
     "bc0722cf5eb00ff1bff8b01d273ad8ecda2319439edd08700005e84b9e586fc3"),
    ("generate prop3 --m 5 --s 3 --check --format text", 0,
     "1c3fb911bfb47ba6f169e1fc8d67aaf717ded28118a48489d05a5a3817cb1962"),
    ("generate prop3 --m 5 --s 3 --check --format csv", 0,
     "e2f2e3b1273abe277d0d84846a127f1fc9580c369d1f80123d6ab3dd40e95fe5"),
    ("generate prop3 --m 5 --s 3 --check --format json", 0,
     "c1347bd1bacf3e2fe4c0f549160329d6896b991d2c3940284c6dc64c19c6445f"),
    ("generate cor2 --m 3 --s 6 --check --format text", 0,
     "1cbb78987356dd0b3c4510c792f419f9b60ed38d67ce4623f677c8300b4770df"),
    ("generate cor2 --m 3 --s 6 --check --format csv", 0,
     "36b4d74aa213db90830de179f6100570a80d281471df61bf8a554a1cf063d91b"),
    ("generate cor2 --m 3 --s 6 --check --format json", 0,
     "882e0c4be873d0b792559a7f944032be5555cfc50556e204da3e6e61f44dd567"),
    ("generate cpp-class 3 --m 3 --check --format text", 0,
     "a35ce05c06237ff40ef9f01a32dc844b05315c65b1a33ac6336fefc971c80bb3"),
    ("generate cpp-class 3 --m 3 --check --format csv", 0,
     "e05c7b6b93cf298f2f64f6e998e2e0505cb67e80caa76353731a496337bf9d16"),
    ("generate cpp-class 3 --m 3 --check --format json", 0,
     "cdf8112c044366d3934752fcecdcbcbd7fb3835f9e89a67948472c096d3377fb"),
    ("generate conj --m 5 --check --format text", 0,
     "371fd611c275fe540234d5e207360e53f4959d5db3d8dee09a74441aabcd4d25"),
    ("generate conj --m 5 --check --format csv", 0,
     "e273e628bcd770648e7b6632cad84ccafe529be80bda884cc2b2023d4c2f07f4"),
    ("generate conj --m 5 --check --format json", 0,
     "c8d1bb09b9bc676fec44f8069c528d35d65e7b43dbad1e828a6bbeee83b537c1"),
    ("conjecture --m 3,5", 0,
     "30dbfc95637fdd8defaa7e74e13f88083b70e610d3c74a8d3833881091961244"),
    ("conjecture --m 3,5 --format json", 0,
     "5a452e4949eb126806920c6558542267b26a9c4176b76a7ab9c8c3351ba7da3e"),
    # witnesses brute 0xb,0x38, charsum 0x92 and direct delta 0x153: the two spectrum
    # witnesses differ, and both lie past the first block of 2^m + 1 = 33 deltas
    ("verify --n 10 --poly 12f:523,234:773 --engines brute,charsum,delta --delta-direct", 1,
     "19b365890b59d59bcd8251b6eb2b0045d70efbe1f9e2b85de92967ec688b0d92"),
    ("verify --n 10 --poly 12f:523,234:773 --engines brute,charsum,delta --delta-direct"
     " --format json", 1,
     "3ee36ed5ffce6327b17605d2fe7132aeb2686c14c8354a967325a70c5990eddd"),
    # the niho witness 0x2c also lies past the first block
    ("verify --n 10 --poly 151:615,12d:925 --engines brute,charsum,delta", 1,
     "f8129272c64f62e38be6af5377abb45d874bb4a5657c305dfcb5f041f171b916"),
    ("verify --n 10 --poly 151:615,12d:925 --engines brute,charsum,delta --format json", 1,
     "1d1319e175fcb1bac3867a0200bff529567be0fcc3454772e3ee65fc8cddcd59"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_digest(capsys, command, code, digest):
    got, out, _ = run_cli(capsys, *command.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- parser plumbing ------------------------------------------------------------


def test_no_subcommand_exits_64():
    with pytest.raises(SystemExit) as ei:
        cli.main([])
    assert ei.value.code == 64


def test_help_exits_zero():
    with pytest.raises(SystemExit) as ei:
        cli.main(["--help"])
    assert ei.value.code == 0


def test_readme_cli_block_runs(capsys):
    """Every command of the ```sh block under ## CLI in README.md exits 0."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text.split("\n## CLI\n", 1)[1], re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(lines) >= 10
    for argv in lines:
        assert argv[0] == "nihoperm", argv
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_readme_python_block_runs():
    """The ```python block under ## Quick start in README.md runs, warnings as errors, on
    this checkout's sources, and every polynomial it prints is a PP."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text.split("\n## Quick start\n", 1)[1], re.S)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", block.group(1)],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.endswith("True") for line in lines), proc.stdout


def test_installed_entry_point_runs(monkeypatch):
    """The console script when installed, else the module entry point run
    from this checkout's sources."""
    exe = shutil.which("nihoperm")
    if exe is not None:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "nihoperm.cli"]
        paths = [SRC, os.environ.get("PYTHONPATH", "")]
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        cmd + ["conjecture", "--m", "3"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "all_pp=true"
