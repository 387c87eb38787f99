import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ternrep import certificate, named_form, prover
from ternrep.cli import EXIT_MISMATCH, EXIT_OK, EXIT_UNPROVABLE, EXIT_USAGE, run


def lines_of(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_enum_small_sums_of_squares(capsys):
    rc = run(["enum", "--form", "1,1,1,0,0,0", "--max", "3"])
    assert rc == EXIT_OK
    assert lines_of(capsys) == ["0", "1", "2", "3"]


def test_enum_theta_lines(capsys):
    rc = run(["enum", "--form", "1,1,1,0,0,0", "--max", "3", "--theta"])
    assert rc == EXIT_OK
    assert lines_of(capsys) == ["0:1", "1:6", "2:12", "3:8"]


def test_enum_json_matches_text(capsys):
    rc = run(["enum", "--form", "S4f", "--max", "100"])
    assert rc == EXIT_OK
    text_values = [int(line) for line in lines_of(capsys)]
    rc = run(["enum", "--form", "S4f", "--max", "100", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["represented"] == text_values


def test_enum_has_no_primitive_flag():
    # primitive counts follow from `enum --theta` by Moebius inversion
    assert run(["enum", "--form", "S4f", "--max", "40", "--primitive"]) == EXIT_USAGE


def test_prec_exact_output(capsys):
    rc = run(["prec", "--f", "S4f", "--g", "S4g", "--d", "4", "--a", "0"])
    assert rc == EXIT_OK
    assert lines_of(capsys) == ["PRECEDES: true (16 cosets, 0 bad)"]


def test_prec_counts_without_building_good_cosets(capsys, monkeypatch):
    from ternrep import cli

    real, reports = cli.precedes, []

    def recorded(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "precedes", recorded)
    rc = run(["prec", "--f", "S4f", "--g", "S4g", "--d", "12", "--a", "2"])
    assert rc == EXIT_OK
    assert lines_of(capsys) == ["PRECEDES: false (864 cosets, 32 bad)"]
    # the good coset tuples are a lazy view that only --report needs
    assert "good" not in vars(reports[0])


def test_prec_refuses_a_modulus_above_the_largest_class_modulus(capsys, monkeypatch):
    from ternrep import cli

    seen = []

    def recorded(f, g, cls):
        seen.append(cls.d)
        raise ValueError("stopped before the grids")

    monkeypatch.setattr(cli, "precedes", recorded)
    limit = certificate.MAX_MODULUS
    run(["prec", "--f", "S4f", "--g", "S4g", "--d", str(limit), "--a", "0"])
    capsys.readouterr()
    rc = run(["prec", "--f", "S4f", "--g", "S4g", "--d", str(limit + 1), "--a", "0"])
    assert rc == EXIT_USAGE
    assert seen == [limit]  # the larger modulus never reached precedes
    assert f"{limit + 1} exceeds {limit}" in capsys.readouterr().err


def test_prec_false_with_report(capsys):
    rc = run(["prec", "--f", "S4f", "--g", "S4g", "--d", "12", "--a", "2", "--report"])
    assert rc == EXIT_OK
    out = lines_of(capsys)
    assert out[0] == "PRECEDES: false (864 cosets, 32 bad)"
    assert len([line for line in out if line.startswith("  ")]) == 32


@pytest.mark.parametrize("f, g, d, a, text_sha, json_sha", [
    ("S4f", "S4g", 12, 2, "817d506aa0142751f0b8a865db922e8e87494a5710c3449141cb90eac29b90c6",
     "2300403ace4e4d2d82f9e98d3ba00204a5435db5d52b1713cbab99bf666bcc30"),
    ("S6f", "S6g", 48, 28, "c59d35c2149bb70ccc6549a027a42776bd632d731913c4367b34f86e5a56c9bd",
     "e0a3789a6a6ba4ff10117ff6391baa9bc18ee8986c02bf2135beb3cfedd8a4b2"),
])
def test_prec_report_output_pinned(capsys, f, g, d, a, text_sha, json_sha):
    # the witnesses `prec --report` prints are the first integral transform
    # of each coset, whatever transforms a certificate lists for the class
    for fmt, sha in (("text", text_sha), ("json", json_sha)):
        rc = run(["prec", "--f", f, "--g", g, "--d", str(d), "--a", str(a), "--report", "--format", fmt])
        assert rc == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha, fmt


def test_prec_json_content(capsys):
    rc = run(["prec", "--f", "S4f", "--g", "S4g", "--d", "12", "--a", "2", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["precedes"] is False
    assert payload["total"] == 864 and len(payload["bad"]) == 32


def test_transforms_count(capsys):
    rc = run(["transforms", "--f", "S4f", "--g", "S4g", "--d", "4", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 8
    assert [[4, 2, 2], [0, 4, 2], [0, 0, 2]] in payload["matrices"]


def test_isometric_and_subform(capsys):
    rc = run(["isometric", "--f", "S4f", "--g", "S4g"])
    assert rc == EXIT_OK
    assert lines_of(capsys) == ["NOT ISOMETRIC"]
    rc = run(["subform", "--f", "S4f", "--g", "S4g", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["subform"] is True


def test_prove_writes_checkable_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = run([
        "prove", "--f", "S4f", "--g", "S4g",
        "--classes", "4:0,12:6,12:10,12:2",
        "--max", "20000", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert lines_of(capsys) == [
        "PROVED Q(f) = Q(g) (f via subform, g via cover; sets verified equal up to 20000)",
        f"certificate written to {out}",
    ]
    blob = out.read_bytes()
    proof = prover.prove_pair(named_form("S4f"), named_form("S4g"),
                              classes_g_in_f=[(4, 0), (12, 6), (12, 10), (12, 2)],
                              empirical_bound=20000)
    assert blob == prover.emit(proof) + b"\n"
    assert certificate.check(blob)
    rc = run(["cert", "check", str(out)])
    assert rc == EXIT_OK
    assert lines_of(capsys)[-1] == "ACCEPT"


def test_cert_check_rejects_tampered_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = run([
        "prove", "--f", "S7f", "--g", "S7g", "--max", "5000", "--out", str(out),
    ])
    assert rc == EXIT_OK
    cert = json.loads(out.read_text())
    cert["f_in_g"]["matrix"][0][0] += 1
    # canonical bytes, so that the matrix identity is what rejects the file
    out.write_bytes(certificate.encode(cert))
    rc = run(["cert", "check", str(out)])
    assert rc == EXIT_MISMATCH
    assert lines_of(capsys)[-1].startswith("REJECT at f_in_g.subform_identity")


@pytest.mark.parametrize("text, reason", [
    ("0:0", "modulus d must be a positive integer"),
    ("abc", "invalid literal for int() with base 10: 'abc'"),
    ("", "invalid literal for int() with base 10: ''"),
])
def test_prove_classes_parse_errors_give_the_reason(capsys, text, reason):
    for option in ("--classes", "--classes-rev"):
        assert run(["prove", "--f", "S4f", "--g", "S4g", option, text]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == f"ternrep prove: error: argument {option}: {reason}"


def test_prove_unprovable_pair_exit_code(capsys):
    rc = run(["prove", "--f", "1,1,1,0,0,0", "--g", "1,1,2,0,0,0",
              "--classes", "1:0", "--classes-rev", "1:0", "--max", "100"])
    assert rc == EXIT_UNPROVABLE


def test_prove_refuses_class_moduli_beyond_the_checker_limit(capsys):
    t0 = time.perf_counter()
    rc = run(["prove", "--f", "S4f", "--g", "S4g", "--classes", "4:0,12:2,12:6,64:0"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == EXIT_USAGE
    assert "lcm of class moduli 192 exceeds 144" in capsys.readouterr().err


@pytest.mark.parametrize("blob", [b"\xff", b"[" * 100000 + b"]" * 100000],
                         ids=["bad_utf8", "deep_nesting"])
def test_cert_check_rejects_undecodable_files(tmp_path, capsys, blob):
    path = tmp_path / "cert.json"
    path.write_bytes(blob)
    assert run(["cert", "check", str(path)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out.startswith("REJECT at schema") and not captured.err


def test_prove_post_proof_mismatch_exit_code(monkeypatch, capsys):
    real, g = prover.represented_mask, named_form("S4g")

    def flipped_for_g(form, bound):
        mask = real(form, bound).copy()
        mask[7] ^= form == g
        return mask

    monkeypatch.setattr(prover, "represented_mask", flipped_for_g)
    rc = run(["prove", "--f", "S4f", "--g", "S4g", "--max", "100"])
    assert rc == EXIT_MISMATCH
    assert "MISMATCH" in capsys.readouterr().err


@pytest.mark.parametrize("f, g, kind, reason", [
    ("S12a", "S12b", "NoRationalTransform",
     "det 2M_sub / det 2M_sup = 7/4 is not a rational square: no transform exists at any modulus"),
    ("S9a", "S9b", "CoverIncomplete",
     "classes miss attainable residues (1, 3, 7, 13, 15, 19, 21, 25, 31, 33) mod 36"),
], ids=["no_rational_transform", "cover_incomplete"])
def test_prove_failure_json(capsys, f, g, kind, reason):
    rc = run(["prove", "--f", f, "--g", g, "--format", "json"])
    assert rc == EXIT_UNPROVABLE
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "f": str(named_form(f)), "g": str(named_form(g)),
        "proved": False, "kind": kind, "reason": reason,
    }
    assert captured.err == f"UNPROVABLE: {reason}\n"
    assert run(["prove", "--f", f, "--g", g]) == EXIT_UNPROVABLE
    assert capsys.readouterr().out == ""


def test_prove_mismatch_json(monkeypatch, capsys):
    real, g = prover.represented_mask, named_form("S4g")

    def flipped_for_g(form, bound):
        mask = real(form, bound).copy()
        mask[7] ^= form == g
        return mask

    monkeypatch.setattr(prover, "represented_mask", flipped_for_g)
    rc = run(["prove", "--f", "S4f", "--g", "S4g", "--max", "100", "--format", "json"])
    assert rc == EXIT_MISMATCH
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (payload["proved"], payload["kind"]) == (False, "MismatchAt")
    assert payload["reason"] == "represented sets differ first at 7"
    assert captured.err == "MISMATCH: represented sets differ first at 7\n"


def test_prove_success_json(capsys):
    rc = run(["prove", "--f", "S7f", "--g", "S7g", "--max", "1000", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["proved"] is True and payload["g_in_f"] == "cover"


def test_python_m_ternrep_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "ternrep", "isometric", "--f", "S1a", "--g", "S1b"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK
    assert done.stdout == "NOT ISOMETRIC\n"


@pytest.mark.parametrize("form, bound, message", [
    ("1,1,1,0,0,0", "4000000000000000000", "Unable to allocate"),
    # primitive, so the sumset kernel cannot divide the size out of it
    (",".join(["10000000000000000000"] * 2 + ["10000000000000000001"] + ["0"] * 3), "10",
     "slice values would not fit in int64"),
], ids=["out_of_memory", "int64_overflow"])
def test_enum_bound_too_large_is_a_usage_error(capsys, form, bound, message):
    assert run(["enum", "--form", form, "--max", bound]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ternrep: error: ") and message in err[0]


@pytest.mark.parametrize("argv", [
    ["enum", "--form", "S4f"],
    ["enum", "--form", "S4f", "--theta"],
    ["table", "--set", "S4"],
    ["prove", "--f", "S4f", "--g", "S4g"],
], ids=["enum", "theta", "table", "prove"])
def test_negative_bound_is_a_usage_error(capsys, monkeypatch, argv):
    # prove must refuse the bound before it searches for a proof
    monkeypatch.setattr(prover, "search_cover", mock.Mock(side_effect=AssertionError))
    assert run(argv + ["--max", "-5"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == ["ternrep: error: bound must be nonnegative"]


def test_transforms_modulus_too_large_is_a_usage_error(capsys):
    # the columns would be representations of up to 14 * 10^18; refused before any search
    assert run(["transforms", "--f", "S4f", "--g", "S4g", "--d", "1000000000"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ternrep: error: ")
    assert "would not fit in int64" in err[0]


def test_table_ok(capsys):
    rc = run(["table", "--set", "S13", "--max", "20000"])
    assert rc == EXIT_OK
    out = lines_of(capsys)
    assert out[0].startswith("S13: 4 forms")
    assert "non-isometric: yes" in out[0]


def test_table_json(capsys):
    rc = run(["table", "--set", "S6", "--max", "10000", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["sets"][0]["set"] == "S6"
    assert payload["sets"][0]["non_isometric"] is True


def test_table_mismatch_json(monkeypatch, capsys):
    real, g = prover.represented_mask, named_form("S4g")

    def flipped_for_g(form, bound):
        mask = real(form, bound).copy()
        mask[7] ^= form == g
        return mask

    monkeypatch.setattr(prover, "represented_mask", flipped_for_g)
    # verify_pairwise compares packed keys first: derive them from the flipped masks
    monkeypatch.setattr(prover, "_value_bits", lambda form, bound: (
        1, np.packbits(prover.represented_mask(form, bound), bitorder="little")))
    rc = run(["table", "--set", "S4", "--max", "100", "--format", "json"])
    assert rc == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"bound": 100, "set": "S4", "mismatch_at": 7}
    assert captured.err == "S4: MISMATCH at 7\n"
    assert run(["table", "--set", "S4", "--max", "100"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == ""  # text mode: the stderr line alone


def test_usage_errors(capsys):
    assert run(["bogus"]) == EXIT_USAGE
    assert run(["enum", "--form", "1,2", "--max", "3"]) == EXIT_USAGE
    assert run(["enum", "--max", "3"]) == EXIT_USAGE
    assert run(["table", "--set", "S99"]) == EXIT_USAGE
    assert run(["table", "--set", "S1", "--deep"]) == EXIT_USAGE  # --max sets the bound
    assert run([]) == EXIT_USAGE


def test_key_error_messages_print_without_quotes(capsys):
    # str(KeyError(msg)) is repr(msg): the message must not come out quoted
    assert run(["table", "--set", "S99"]) == EXIT_USAGE
    assert capsys.readouterr().err == "ternrep: error: unknown set id 'S99' (expected 'S1'..'S15')\n"
    assert run(["prove", "--f", "S99a", "--g", "S4g"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "ternrep prove: error: argument --f: unknown form 'S99a': "
        "not a fixture name and not six coefficients")


def test_theta_subcommand(capsys):
    # representation counts come from `enum --theta`; there is no `theta` command
    assert run(["theta", "--form", "S4f", "--max", "10"]) == EXIT_USAGE
    rc = run(["enum", "--theta", "--form", "S4f", "--max", "10", "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["coeffs"][0] == 1 and payload["coeffs"][8] == 2


def test_table_runs_single_threaded_by_default(capsys, monkeypatch):
    def no_thread(self):
        raise AssertionError("table started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert run(["table", "--set", "S4", "--max", "5000"]) == EXIT_OK
