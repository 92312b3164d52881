import json
import os
import subprocess
import sys

import pytest

from germnf.cli import run


EX13 = {
    "schema": 1,
    "n": 2,
    "p": 1,
    "degree": 4,
    "maps": [{"linear_diag": ["-2", "1/2"], "terms": []}],
}

NORMALIZABLE = {
    "schema": 1,
    "n": 2,
    "p": 1,
    "degree": 4,
    "maps": [
        {"linear_diag": ["2", "3"], "terms": [{"component": 1, "exponents": [0, 2], "coeff": "1"}]}
    ],
}

EX34 = {
    "schema": 1,
    "n": 2,
    "p": 2,
    "degree": 4,
    "maps": [
        {"linear_diag": ["2", "4"], "terms": [{"component": 2, "exponents": [2, 0], "coeff": "1"}]},
        {"linear_diag": ["-3", "9"], "terms": []},
    ],
}

ROTATION = {
    "schema": 1,
    "n": 2,
    "p": 1,
    "degree": 4,
    "maps": [{"linear_matrix": [["0", "-1"], ["1", "0"]], "terms": []}],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = run(list(argv) + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestCommands:
    def test_analyze_example_13(self, tmp_path):
        path = _write(tmp_path, "ex13.json", EX13)
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0
        payload = report["payload"]
        assert payload["nondegenerate"]["verdict"] == "yes"
        assert payload["projectively_hyperbolic"]["verdict"] == "yes"
        assert payload["weakly_resonant"]["verdict"] == "yes"
        assert payload["infinitesimal_generators"]["found"] is None
        assert payload["normal_form_hypothesis"]["verdict"] == "yes"
        assert payload["poincare_type"]["verdict"] == "yes"

    def test_normalize(self, tmp_path):
        path = _write(tmp_path, "norm.json", NORMALIZABLE)
        code, report = _run_json(tmp_path, "normalize", path)
        assert code == 0
        payload = report["payload"]
        maps = payload["normalized"]["maps"]
        assert maps[0]["linear_diag"] == ["2", "3"] and maps[0]["terms"] == []
        assert payload["psi"]["terms"] == [
            {"component": 1, "exponents": [0, 2], "coeff": "1/7"}
        ]
        assert payload["certificate"]["ok"] is True

    def test_verify_example_34(self, tmp_path):
        path = _write(tmp_path, "ex34.json", EX34)
        code, report = _run_json(tmp_path, "verify", path)
        assert code == 0
        payload = report["payload"]
        assert payload["pd_normal_form"]["ok"] is True
        assert payload["division"]["ok"] is False
        assert payload["division"]["offenders"][0] == {
            "germ": 1,
            "component": 2,
            "exponents": [2, 0],
        }

    def test_lattice_eigen_input(self, tmp_path):
        path = _write(tmp_path, "eig.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        code, report = _run_json(tmp_path, "lattice", path)
        assert code == 0
        assert report["payload"]["basis"] == [[2, 2]]
        assert report["payload"]["omega_points"] == [[2, 2], [4, 4]]

    def test_first_integrals(self, tmp_path):
        path = _write(tmp_path, "ex13.json", EX13)
        code, report = _run_json(tmp_path, "first-integrals", path, "--degree", "4")
        assert code == 0
        assert report["payload"]["basis"] == [[{"coeff": "1", "exponents": [2, 2]}]]

    def test_generate_and_reuse(self, tmp_path):
        path = _write(tmp_path, "eig.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        code, report = _run_json(tmp_path, "generate", path, "--degree", "5", "--seed", "3")
        assert code == 0
        assert report["payload"]["certificate_ok"] is True
        family_file = _write(tmp_path, "gen.json", report["payload"]["family"])
        code2, report2 = _run_json(tmp_path, "verify", family_file)
        assert code2 == 0 and report2["payload"]["certificate"]["ok"] is True

    def test_realcase(self, tmp_path):
        path = _write(tmp_path, "rot.json", ROTATION)
        code, report = _run_json(tmp_path, "realcase", path)
        assert code == 0
        assert report["payload"]["real_conjugator_is_real"] is True
        assert report["payload"]["pairing"] == [2, 1, 3][:2]


class TestEigenWork:
    P2_EIGEN = {"schema": 1, "mu": [["-1/3", "-1/2", "-3"], ["-3", "1", "3"]]}

    def test_analyze_decomposes_each_eigenvalue_once(self, tmp_path, monkeypatch):
        import germnf.exactnum as exactnum
        import germnf.resonance as resonance

        calls = {}

        def count(module, name):
            func = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return func(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(resonance, "factor_gaussian")
        count(resonance, "relation_lattice")
        count(exactnum, "factor_int")
        count(resonance, "principal_arg_turns")
        path = _write(tmp_path, "p2.json", self.P2_EIGEN)
        distinct = 5  # -1/3, -1/2, -3, 1, 3
        assert _run_json(tmp_path, "analyze", path)[0] in (0, 2)
        assert calls.pop("principal_arg_turns", 0) <= distinct
        once = {"factor_gaussian": distinct, "relation_lattice": 1, "factor_int": 2 * distinct}
        assert calls == once
        # a second run redoes all of it: nothing is kept between runs
        assert _run_json(tmp_path, "analyze", path)[0] in (0, 2)
        assert calls.pop("principal_arg_turns", 0) <= distinct
        assert calls == {name: 2 * count for name, count in once.items()}

    def test_poincare_type_fails_exactly_when_lattice_rank_is_short(self, tmp_path):
        path = _write(tmp_path, "e23.json", {"schema": 1, "mu": [["2", "3"]]})
        _, report = _run_json(tmp_path, "analyze", path)
        assert report["payload"]["poincare_type"] == {
            "verdict": "no",
            "method": "exact",
            "witness": {"lattice_rank": 0, "needed": 1},
        }

    def test_poincare_type_undecided_when_only_enumeration_is_short(self, tmp_path):
        # lattice (1, -1) has rank n - 1 but no nonzero point in N^2
        path = _write(tmp_path, "e22.json", {"schema": 1, "mu": [["2", "2"]]})
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 2
        entry = report["payload"]["poincare_type"]
        assert entry["verdict"] == "indeterminate"
        assert entry["reason"] == "need n-1 = 1 independent first-integral exponents, found 0"


class TestContracts:
    def test_determinism_excluding_timing(self, tmp_path):
        path = _write(tmp_path, "ex13.json", EX13)
        _, r1 = _run_json(tmp_path, "analyze", path)
        _, r2 = _run_json(tmp_path, "analyze", path)
        r1.pop("timing_seconds")
        r2.pop("timing_seconds")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_input_digest_present(self, tmp_path):
        path = _write(tmp_path, "ex13.json", EX13)
        _, report = _run_json(tmp_path, "analyze", path)
        assert len(report["input_digest"]) == 64

    def test_bad_schema_exit_1(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.json", {"schema": 2})
        assert run(["analyze", path]) == 1

    def test_unknown_field_exit_1(self, tmp_path):
        data = dict(EX13, mystery=1)
        path = _write(tmp_path, "bad.json", data)
        assert run(["analyze", path]) == 1

    def test_malformed_json_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["analyze", str(path)]) == 1

    def test_noncommuting_family_exit_1(self, tmp_path):
        data = {
            "schema": 1,
            "n": 2,
            "degree": 3,
            "maps": [
                {"linear_diag": ["2", "1"], "terms": [{"component": 2, "exponents": [2, 0], "coeff": "1"}]},
                {"linear_diag": ["3", "1"], "terms": []},
            ],
        }
        path = _write(tmp_path, "bad.json", data)
        assert run(["analyze", path]) == 1

    def test_text_format_renders_germs(self, tmp_path, capsys):
        path = _write(tmp_path, "norm.json", NORMALIZABLE)
        assert run(["normalize", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "Phi_1 = (2*x, 3*y)" in out

    def test_console_script(self, tmp_path):
        path = _write(tmp_path, "ex13.json", EX13)
        proc = subprocess.run(
            [sys.executable, "-m", "germnf.cli", "lattice", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["payload"]["basis"] == [[2, 2]]

    def test_precision_env_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GERMNF_PRECISION_BITS", "128")
        from germnf.exactnum import precision_cap

        assert precision_cap() == 128
        monkeypatch.setenv("GERMNF_PRECISION_BITS", "99999")
        assert precision_cap() == 1024
        monkeypatch.delenv("GERMNF_PRECISION_BITS")
        assert precision_cap() == 1024
