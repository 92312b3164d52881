import contextlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from germnf.cli import _json_text, run
from germnf.exactnum import GaussianRational as GR
from germnf.germ import (
    CommutationError,
    Family,
    Germ,
    conjugate,
    family_from_json,
    family_to_json,
    invert_germ,
    require_commuting,
)
from germnf.normalform import generate_integrable_nf
from germnf.resonance import EigenData
from germnf.series import TruncatedSeries, UsageError, compose_all

from helpers import (
    RANK_2_P4_MU,
    all_exponents,
    from_term_list,
    nonzero_gaussians,
    random_gaussian,
    random_real_block_family,
    random_tangent_identity,
    triple_rows,
)

ROOT = Path(__file__).resolve().parents[1]


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


def _run_canonical(*argv):
    """The exit code and parsed report of one run, after checking that its
    stdout is byte for byte json.dumps(report, sort_keys=True, indent=2)
    and a newline, so the report writer's layout is pinned as well as the
    parsed values."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    text = out.getvalue()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
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
        assert payload["infinitesimal_generators"]["verdict"] == "no"
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


def _perfbench_golden():
    """perfbench/golden.py, loaded by path so sys.path stays as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_golden", ROOT / "perfbench" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFirstIntegralsCorpus:
    def test_n4_p2_matches_golden_and_is_invariant(self, tmp_path):
        golden = _perfbench_golden()
        manifest, goldens = golden.load("integrals")
        op = next(o for o in manifest["ops"] if o["id"] == "inf_p2_n4-0.first-integrals")
        assert op["args"] == ["--degree", "6"]
        code, report = _run_json(tmp_path, *golden.argv_of(op))
        expected = goldens[op["id"]]
        assert code == expected["exit"]
        assert golden.check(expected, code, json.dumps(report))[0] == []
        payload = report["payload"]
        fam = family_from_json(json.loads((golden.HERE / op["input"]).read_text()))
        d = payload["degree"]
        assert (fam.n, fam.p, d) == (4, 2, 6)
        basis = [from_term_list(terms, fam.n, d) for terms in payload["basis"]]
        assert len(basis) == payload["dimension"] > 0
        for g in fam.germs:
            assert compose_all(basis, [c.truncate(d) for c in g.components]) == basis


class TestRealcaseCorpus:
    def test_real_block_matches_golden_and_never_inverts_p(self, tmp_path, monkeypatch):
        """realcase inverts no germ: the block transformation P is composed
        with its closed-form inverse, and is never the left factor of a
        solve; the only solves are the rounds of the elimination steps,
        each given by a shift h of order >= 2, so its linear part is the
        identity, and no linear part is inverted."""
        import germnf.linalg as linalg
        import germnf.normalform as normalform

        golden = _perfbench_golden()
        manifest, goldens = golden.load("normalize")
        inverted, shifts, inverses = [], [], []
        step, inverse = normalform.conjugate_by_shift, linalg.field_inverse
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "germnf"]:
            if hasattr(module, "invert_germ"):
                monkeypatch.setattr(module, "invert_germ", lambda f: inverted.append(f) or invert_germ(f))
            if hasattr(module, "field_inverse"):
                monkeypatch.setattr(module, "field_inverse", lambda rows: inverses.append(1) or inverse(rows))
        monkeypatch.setattr(normalform, "conjugate_by_shift",
                            lambda germs, psi, h: shifts.append(h) or step(germs, psi, h))

        for op in (o for o in manifest["ops"] if o["command"] == "realcase"):
            shifts.clear()
            code, report = _run_json(tmp_path, *golden.argv_of(op))
            expected = goldens[op["id"]]
            assert code == expected["exit"]
            assert golden.check(expected, code, json.dumps(report))[0] == []
            steps = {rec["degree"] for rec in report["payload"]["eliminations"]}
            assert len(shifts) == len(steps) > 0  # the elimination steps were solved
            assert all(c.order() >= 2 for h in shifts for c in h)  # s = id + h: L = I
            assert inverses == []
        p2_fam, _ = random_real_block_family(random.Random(11), blocks=1, tail=[3], p=2, degree=4)
        inverses.clear()
        cfam, p, _ = normalform.complexify_real_family(p2_fam)
        identity = Germ.identity(p2_fam.n, p2_fam.degree)
        assert normalform.realify_normal_form(cfam, identity, p) == (p2_fam, identity)
        assert inverses == []
        assert inverted == []

    REALCASE_OPS = ["real_block-0.realcase", "real_block-1.realcase", "real_block-2.realcase"]

    def test_corpus_realcase_ops_are_listed(self):
        manifest, _ = _perfbench_golden().load("normalize")
        assert self.REALCASE_OPS == [op["id"] for op in manifest["ops"] if op["command"] == "realcase"]

    @pytest.mark.parametrize("op_id", REALCASE_OPS)
    def test_realness_checked_at_the_ends_only(self, tmp_path, monkeypatch, op_id):
        """No rho-equivariance scan: realness of the input and of the output
        shows it.  P and its inverse are built and checked once."""
        import germnf.normalform as normalform

        assert not hasattr(normalform, "rho_equivariance_offense")
        calls = {"block_transforms": 0}

        def count(name):
            original = getattr(normalform, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(normalform, name, counted)

        for name in calls:
            count(name)
        golden = _perfbench_golden()
        manifest, goldens = golden.load("normalize")
        op = next(o for o in manifest["ops"] if o["id"] == op_id)
        code, report = _run_json(tmp_path, *golden.argv_of(op))
        assert code == 0 and golden.check(goldens[op_id], code, json.dumps(report))[0] == []
        assert report["payload"]["real_conjugator_is_real"] is True
        assert calls == {"block_transforms": 1}

    @pytest.mark.parametrize("target", ["normalized", "psi"])
    def test_normal_form_not_rho_equivariant_exits_3(self, monkeypatch, capsys, target):
        """A normalizer whose Phi' or psi breaks rho-equivariance, on
        commuting real input: the realness check at the end catches it."""
        import germnf.normalform as normalform

        original = normalform.poincare_dulac_normalize

        def broken(fam, eigen):
            result = original(fam, eigen)
            germ = result.psi if target == "psi" else result.normalized.germs[0]
            comps = list(germ.components)  # i x_1^2 in component 1, with no conjugate partner in component 2
            comps[0] = comps[0] + TruncatedSeries.monomial((2,) + (0,) * (fam.n - 1), GR(0, 1), fam.degree)
            if target == "psi":
                return normalform.NormalizationResult(result.normalized, Germ(comps), result.eliminations)
            return normalform.NormalizationResult(Family([Germ(comps), *result.normalized.germs[1:]]), result.psi,
                                                  result.eliminations)

        monkeypatch.setattr(normalform, "poincare_dulac_normalize", broken)
        real = _perfbench_golden().HERE / "corpus" / "normalize" / "real_block-0.json"
        assert run(["realcase", str(real)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        which = "conjugator" if target == "psi" else "germ 1"
        assert captured.err.startswith(f"internal verification failed: realified {which} component ")
        assert "kept an imaginary part" in captured.err


def _holds_verdict(payload) -> bool:
    """Whether some object in a payload has a "verdict" key."""
    if isinstance(payload, dict):
        return "verdict" in payload or any(_holds_verdict(v) for v in payload.values())
    return isinstance(payload, list) and any(_holds_verdict(v) for v in payload)


class TestCorpusGoldens:
    """Every normalize and integrals corpus op, checked against its stored
    golden result, so a report change in the jet layer fails here too.
    Only analyze payloads hold verdicts, so only their walk can give exit 2:
    every other op's payload is checked to hold none, with its exit code."""

    OPS = [
        (workload, op["id"])
        for workload in ("normalize", "integrals")
        for op in json.loads((ROOT / "perfbench" / "corpus" / f"{workload}.json").read_text())["ops"]
    ]

    def test_corpus_has_22_ops(self):
        assert len(self.OPS) == 22

    @pytest.mark.parametrize("workload, op_id", OPS)
    def test_report_matches_golden(self, workload, op_id):
        golden = _perfbench_golden()
        manifest, goldens = golden.load(workload)
        op = next(o for o in manifest["ops"] if o["id"] == op_id)
        expected = goldens[op_id]
        code, report = _run_canonical(*golden.argv_of(op))
        assert code == expected["exit"]
        assert golden.check(expected, code, json.dumps(report))[0] == []
        assert not _holds_verdict(report["payload"])

    EIGEN_OPS = [
        op["id"] for op in json.loads((ROOT / "perfbench" / "corpus" / "eigen.json").read_text())["ops"]
    ]

    def test_eigen_corpus_has_22_ops(self):
        assert len(self.EIGEN_OPS) == 22

    @pytest.mark.parametrize("op_id", EIGEN_OPS)
    def test_eigen_report_matches_golden(self, op_id):
        """Every eigen op is decided.  A golden exit 2 may become exit 0 (its
        indeterminate verdicts became definite); an op without a golden
        (large_p2-0.analyze) is checked for its exit code and shape."""
        golden = _perfbench_golden()
        manifest, goldens = golden.load("eigen")
        op = next(o for o in manifest["ops"] if o["id"] == op_id)
        expected = goldens[op_id]
        code, report = _run_canonical(*golden.argv_of(op))
        problems, found = golden.check(expected, code, json.dumps(report))
        assert problems == [] and found is not None
        assert golden.verdict_counts(found)[0] == 0 and code == 0
        assert _holds_verdict(report["payload"]) == (op["command"] == "analyze")


class TestCorpusGenerator:
    def test_build_reproduces_the_committed_inputs(self, monkeypatch):
        """perfbench/gen.py draws the 27 corpus inputs with the public API
        (EigenData.from_rows, relation_lattice, generate_integrable_nf, Germ,
        conjugate); building them again, in memory, gives the committed
        files byte for byte."""
        monkeypatch.setattr(sys, "path", list(sys.path))  # gen.py prepends src/
        spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        built = {
            f"{workload}/{name}.json": json.dumps(data, sort_keys=True) + "\n"
            for workload, inputs in gen.build(20071063).items()
            for name, data, _ in inputs
        }
        corpus = ROOT / "perfbench" / "corpus"
        committed = {path.relative_to(corpus).as_posix(): path.read_text() for path in corpus.glob("*/*.json")}
        assert len(built) == 27
        assert built == committed


class TestMinorTable:
    def test_analyze_builds_the_minor_table_once(self, tmp_path, monkeypatch):
        """The three hyperbolicity deciders and the normal-form hypothesis
        read one table: one build, one determinant per 2-subset of the
        three columns."""
        import germnf.classify as classify

        builds, dets = [], []
        minors, poly_det = classify._minors, classify.poly_det
        monkeypatch.setattr(classify, "_minors", lambda *a, **k: builds.append(a) or minors(*a, **k))
        monkeypatch.setattr(classify, "poly_det", lambda rows: dets.append(len(rows)) or poly_det(rows))
        path = ROOT / "perfbench" / "corpus" / "eigen" / "small_p2-0.json"
        code, report = _run_json(tmp_path, "analyze", str(path))
        assert code == 0 and report["payload"]["weakly_hyperbolic"]["verdict"] == "yes"
        assert len(builds) == 1
        assert dets.count(2) == 3


EXACT_WEAK_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/src")
from germnf.classify import is_weakly_hyperbolic
from germnf.resonance import EigenData
verdict = is_weakly_hyperbolic(EigenData.from_rows([["2", "1/2", "i"]])).to_json()
print(json.dumps({"verdict": verdict, "mpmath": sorted(m for m in sys.modules if m.split(".")[0] == "mpmath")}))
"""


LAZY_MPMATH_CHILD = """
import contextlib, io, json, sys
root, path = sys.argv[1:]
sys.path.insert(0, root + "/src")
import germnf.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "mpmath")
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = germnf.cli.run(["analyze", path])
payload = json.loads(out.getvalue())["payload"]
print(json.dumps({"at_import": loaded, "code": code, "after_analyze": "mpmath" in sys.modules,
                  "weakly_hyperbolic": payload["weakly_hyperbolic"]}))
"""


class TestStartup:
    def test_mpmath_is_imported_on_the_first_certified_evaluation(self):
        """`import germnf.cli` loads no mpmath module; `analyze` on a p = 2
        eigen file, whose 2 x 2 minors only intervals certify, then loads it
        and works.  A fresh interpreter, so no other test has imported it."""
        path = ROOT / "perfbench" / "corpus" / "eigen" / "small_p2-0.json"
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_MPMATH_CHILD, str(ROOT), str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["at_import"] == []
        assert result["code"] == 0 and result["after_analyze"]
        assert result["weakly_hyperbolic"]["verdict"] == "yes"
        assert result["weakly_hyperbolic"]["method"] == "symbolic+interval"

    def test_exact_weak_hyperbolicity_imports_no_mpmath(self):
        """At p = 1 the minor table holds log forms only, decided exactly: a
        unit-modulus eigenvalue's zero covector is a rational hull point, so
        no interval is evaluated."""
        proc = subprocess.run(
            [sys.executable, "-c", EXACT_WEAK_CHILD, str(ROOT)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["verdict"]["verdict"] == "no" and result["verdict"]["method"] == "exact"
        assert result["verdict"]["witness"] == {"subset": [3], "hull_coefficients": ["1"]}
        assert result["mpmath"] == []


class TestCircuitRule:
    def test_rank_2_subset_of_p4_is_decided(self, tmp_path):
        """The one 4-subset has rank 2, and only the circuit {1, 2, 3}
        decides its hull.  Every verdict is definite: normal_form_hypothesis
        is an exact NO, as n - rank L = 3 < p = 4."""
        path = _write(tmp_path, "p4.json", {"schema": 1, "mu": RANK_2_P4_MU})
        start = time.process_time()
        code, report = _run_json(tmp_path, "analyze", path)
        assert time.process_time() - start < 1.0
        payload = report["payload"]
        weak = payload["weakly_hyperbolic"]
        assert weak["verdict"] == "no" and weak["witness"]["circuit"] == [1, 2, 3]
        assert weak["witness"]["kernel_signs"] == [1, 1, 1]
        assert code == 0
        assert [key for key, value in payload.items() if isinstance(value, dict)
                and value.get("verdict") == "indeterminate"] == []


class TestJetWork:
    @pytest.mark.parametrize("op_id", ["dense_p1-0.normalize", "conj_p2-0.normalize"])
    def test_normalize_division_checks_once(self, tmp_path, monkeypatch, op_id):
        import germnf.normalform as normalform

        original, calls = normalform.division_check, []

        def counted(fam):
            calls.append(fam)
            return original(fam)

        monkeypatch.setattr(normalform, "division_check", counted)
        golden = _perfbench_golden()
        manifest, _ = golden.load("normalize")
        op = next(o for o in manifest["ops"] if o["id"] == op_id)
        code, report = _run_json(tmp_path, *golden.argv_of(op))
        assert code == 0 and "certificate" in report["payload"]
        assert len(calls) == 1

    # Series products per normalize/realcase corpus op, with g o s_l and
    # psi o s_l formed by one Taylor sum per degree from the step's shift
    # and no commutation check where the ok certificate shows it: 1766 in all (2334 when the input and the normal form were each
    # checked pair by pair, 5285 when every monomial of g and psi was
    # substituted, 6453 with the final Phi o psi composition, 9453 when each
    # step was inverted and the dense inverse composed on the left).
    PRODUCTS = {
        "dense_p1-0.normalize": 298,
        "dense_p1-1.normalize": 277,
        "dense_p1-2.normalize": 211,
        "conj_p2-0.normalize": 41,
        "conj_p2-1.normalize": 35,
        "conj_p2-2.normalize": 89,
        "conj_p2-3.normalize": 92,
        "real_block-0.realcase": 283,
        "real_block-1.realcase": 215,
        "real_block-2.realcase": 225,
    }

    def test_product_budget_covers_the_corpus(self):
        golden = _perfbench_golden()
        manifest, _ = golden.load("normalize")
        assert sorted(self.PRODUCTS) == sorted(op["id"] for op in manifest["ops"])
        assert sum(self.PRODUCTS.values()) == 1766

    @pytest.mark.parametrize("op_id", sorted(PRODUCTS))
    def test_conjugation_product_budget(self, tmp_path, monkeypatch, op_id):
        golden = _perfbench_golden()
        manifest, _ = golden.load("normalize")
        op = next(o for o in manifest["ops"] if o["id"] == op_id)
        products = []
        original = TruncatedSeries.__mul__
        monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(1) or original(a, b))
        code, _ = _run_json(tmp_path, *golden.argv_of(op))
        assert code == 0
        assert 0 < len(products) <= self.PRODUCTS[op_id]

    @pytest.mark.parametrize("op_id", sorted(PRODUCTS))
    def test_one_linear_inverse_per_elimination_step(self, tmp_path, monkeypatch, op_id):
        """No step inverts a linear part: each step is id + h_l, given by its
        shift, and its rounds run with L = I."""
        import germnf.linalg as linalg

        golden = _perfbench_golden()
        manifest, _ = golden.load("normalize")
        op = next(o for o in manifest["ops"] if o["id"] == op_id)
        calls, inverse = [], linalg.field_inverse
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "germnf"]:
            if hasattr(module, "field_inverse"):
                monkeypatch.setattr(module, "field_inverse", lambda rows: calls.append(1) or inverse(rows))
        code, report = _run_json(tmp_path, *golden.argv_of(op))
        steps = {rec["degree"] for rec in report["payload"]["eliminations"]}
        assert code == 0 and steps
        assert calls == []

    @pytest.mark.parametrize("op_id", sorted(PRODUCTS))
    def test_one_taylor_sum_per_elimination_degree(self, tmp_path, monkeypatch, op_id):
        """Each degree with an elimination makes one `compose_shifted` call,
        whose targets are the components of every germ and of psi, and its
        shift holds exactly that degree's terms."""
        import germnf.germ as germ

        golden = _perfbench_golden()
        manifest, _ = golden.load("normalize")
        op = next(o for o in manifest["ops"] if o["id"] == op_id)
        calls, original = [], germ.compose_shifted

        def recorded(targets, h):
            targets = list(targets)
            calls.append((len(targets), {sum(e) for c in h for e in c.support()}))
            return original(targets, h)

        monkeypatch.setattr(germ, "compose_shifted", recorded)
        code, report = _run_json(tmp_path, *golden.argv_of(op))
        steps = sorted({rec["degree"] for rec in report["payload"]["eliminations"]})
        fam = family_from_json(json.loads((golden.HERE / op["input"]).read_text()))
        assert code == 0 and steps
        assert calls == [(fam.n * (fam.p + 1), {ell}) for ell in steps]

    def test_first_integrals_one_product_per_column_monomial(self, monkeypatch):
        """Each column monomial's image costs one product; the rows are read
        off the images, so no jet is subtracted and none is constructed per
        column (the only constructor calls build the basis)."""
        import germnf.normalform as normalform

        golden = _perfbench_golden()
        fam = family_from_json(json.loads((golden.HERE / "corpus/integrals/inf_p2_n4-0.json").read_text()))
        calls = {"__mul__": 0, "_combine": 0, "__init__": 0}

        def count(name):
            original = getattr(TruncatedSeries, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(TruncatedSeries, name, counted)

        for name in calls:
            count(name)
        basis = normalform.first_integrals(fam, 6)
        columns = normalform._monomial_columns(fam.n, 6)
        assert basis and len(columns) == 209
        assert 0 < calls["__mul__"] <= fam.p * len(columns)
        assert calls["_combine"] == 0
        assert calls["__init__"] <= len(basis)


class TestScalarWork:
    """Q(i) arithmetic is integer arithmetic on (a + b*i)/d: the field
    kernels build no Fraction, and neither does first-integrals, from
    parsing its input to printing its report."""

    @staticmethod
    def _count_fractions(monkeypatch) -> list:
        built, original = [], Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        return built

    def test_field_kernels_build_no_fraction(self, monkeypatch):
        """The field routines eliminate on integer triples, and so does
        first-integrals: no Fraction and no GaussianRational, whether by the
        public constructor or by `from_parts`, on random rows and on the
        degree-6 first integrals of integrals/inf_p2_n4-0 (2521 `from_parts`
        calls when the rows held scalars)."""
        import germnf.exactnum as exactnum
        from germnf.linalg import field_inverse, field_kernel, field_rref
        from germnf.normalform import first_integrals

        rng = random.Random(12)
        wide = triple_rows([{c: random_gaussian(rng, 9) for c in rng.sample(range(9), 5)} for _ in range(6)])
        square = triple_rows([{c: random_gaussian(rng, 9) for c in range(5)} for _ in range(5)])
        fam = family_from_json(json.loads((ROOT / "perfbench/corpus/integrals/inf_p2_n4-0.json").read_text()))
        built = self._count_fractions(monkeypatch)
        scalars, original = [], exactnum.from_parts
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "germnf"]:
            if getattr(module, "from_parts", None) is original:
                monkeypatch.setattr(module, "from_parts", lambda *t: scalars.append(t) or original(*t))
        monkeypatch.setattr(exactnum.GaussianRational, "__init__", lambda self, *a: scalars.append(a))
        assert len(field_rref(wide)[1]) == 6
        assert len(field_kernel(wide, 9)) == 3
        assert len(field_inverse(square)) == 5
        assert len(first_integrals(fam, 6)) == 9
        assert built == []
        assert scalars == []

    def test_first_integrals_fraction_budget(self, tmp_path, monkeypatch):
        """None on integrals/inf_p2_n4-0: the input is read straight into
        integer triples (96 Fractions when each coefficient was parsed
        through two, 14 441 when each scalar held two)."""
        golden = _perfbench_golden()
        manifest, _ = golden.load("integrals")
        op = next(o for o in manifest["ops"] if o["id"] == "inf_p2_n4-0.first-integrals")
        built = self._count_fractions(monkeypatch)
        code, _ = _run_json(tmp_path, *golden.argv_of(op))
        assert code == 0
        assert built == []

    def test_fraction_counter_sees_a_fraction(self, monkeypatch):
        """Positive control for the budget above: the counter is live."""
        built = self._count_fractions(monkeypatch)
        assert Fraction(1, 2).denominator == 2
        assert built == [1]


class TestEigenWork:
    P2_EIGEN = {"schema": 1, "mu": [["-1/3", "-1/2", "-3"], ["-3", "1", "3"]]}

    @staticmethod
    def _assert_decomposes_once(monkeypatch, argv, distinct, log_moduli=False):
        """One run of the command builds one EigenData and its Gaussian
        coprime base once, and decomposes each of its `distinct` eigenvalues
        over that base once; when it reads log-moduli, it builds the integer
        base once and reads each eigenvalue's log-modulus over it once, else
        neither.  It factors no integer and no Gaussian integer (factor_int
        and factor_gaussian are test oracles only), computes the relation
        lattice once and takes each principal argument at most once; a
        second run redoes all of it, since nothing is kept between runs."""
        import germnf.exactnum as exactnum
        import germnf.resonance as resonance

        calls = {}
        build = resonance.EigenData.__init__

        def counted_build(self, mu):
            calls["EigenData"] = calls.get("EigenData", 0) + 1
            build(self, mu)

        monkeypatch.setattr(resonance.EigenData, "__init__", counted_build)

        def count(module, name):
            func = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return func(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("gaussian_coprime_base", "base_factorization", "integer_coprime_base", "base_log_modulus",
                     "relation_lattice", "principal_arg_turns"):
            count(resonance, name)
        count(exactnum, "factor_int")
        count(exactnum, "factor_gaussian")
        once = {"EigenData": 1, "gaussian_coprime_base": 1, "base_factorization": distinct, "relation_lattice": 1}
        if log_moduli:
            once.update(integer_coprime_base=1, base_log_modulus=distinct)
        for runs in (1, 2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) in (0, 2)
            assert calls.pop("principal_arg_turns", 0) <= distinct
            assert calls == {name: runs * count for name, count in once.items()}

    def test_analyze_decomposes_each_eigenvalue_once(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "p2.json", self.P2_EIGEN)
        self._assert_decomposes_once(monkeypatch, ["analyze", path], 5, log_moduli=True)  # -1/3, -1/2, -3, 1, 3

    @pytest.mark.parametrize("command, name", [
        ("lattice", "eigen/large_p2-0"),
        ("normalize", "normalize/conj_p2-0"),
        ("verify", "integrals/inf_p2_n4-0"),
        ("generate", "eigen/small_p2-0"),
    ])
    def test_each_command_decomposes_each_eigenvalue_once(self, monkeypatch, command, name):
        """The corpus manifests record each input's distinct eigenvalues.
        None of these commands reads a log-modulus."""
        workload, stem = name.split("/")
        manifest = json.loads((ROOT / "perfbench" / "corpus" / f"{workload}.json").read_text())
        distinct = next(op["distinct_eigenvalues"] for op in manifest["ops"] if op["id"].startswith(stem + "."))
        path = ROOT / "perfbench" / "corpus" / f"{name}.json"
        self._assert_decomposes_once(monkeypatch, [command, str(path)], distinct)

    def test_strong_pseudoprime_entry_is_decided_exactly(self, tmp_path):
        """An entry psi_12, the least strong pseudoprime to every base 2..37,
        needs no primality proof over a coprime base: `lattice` gives the
        exact basis and `analyze` decides every hypothesis, with no
        factoring IndeterminateError."""
        psi12 = "318665857834031151167461"
        path = _write(tmp_path, "psi12.json", {"schema": 1, "mu": [[psi12, "2", f"1/{psi12}"]]})
        code, report = _run_json(tmp_path, "lattice", path)
        assert code == 0 and report["payload"]["basis"] == [[1, 0, 1]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0 and err.getvalue() == ""
        payload = report["payload"]
        assert payload["lattice_basis"] == [[1, 0, 1]]
        verdicts = [entry["verdict"] for entry in payload.values() if isinstance(entry, dict) and "verdict" in entry]
        assert len(verdicts) >= 5 and "indeterminate" not in verdicts

    def test_log_scale_names_base_elements(self, tmp_path):
        """A Poincare-type witness writes ln|mu| over the integer coprime
        base: 2 and 3 always occur together in (6, 1/6), so the base has the
        one element 6 and log_scale is 1 * ln 6, exactly re-checked by
        scale_squared = 6^2."""
        path = _write(tmp_path, "six.json", {"schema": 1, "mu": [["6", "1/6"]]})
        code, report = _run_json(tmp_path, "analyze", path)
        witness = report["payload"]["poincare_type"]["witness"]
        assert code == 0 and witness["log_scale"] == [[6, "1"]] and witness["scale_squared"] == "36"

    def test_verify_reads_eigenvalue_powers_from_one_table(self, monkeypatch):
        """Every mu^gamma test of a verify run (PD-NF, Omega support of phi,
        lattice re-check) is a lookup in the EigenData power table, so the
        run makes few Q(i) products: 112 here, where recomputing each
        product made 1460."""
        from germnf.exactnum import GaussianRational

        multiply, calls = GaussianRational.__mul__, []

        def counted(self, other):
            calls.append(1)
            return multiply(self, other)

        monkeypatch.setattr(GaussianRational, "__mul__", counted)
        path = ROOT / "perfbench" / "corpus" / "integrals" / "inf_p2_n4-0.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["verify", str(path)]) == 0
        assert 0 < len(calls) <= 200

    def test_analyze_parses_a_family_once(self, tmp_path, monkeypatch):
        import germnf.cli as cli

        original, calls = cli.family_from_json, []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "family_from_json", counted)
        path = _write(tmp_path, "ex13.json", EX13)
        assert _run_json(tmp_path, "analyze", path)[0] == 0
        assert len(calls) == 1

    def test_p1_analyze_walks_omega_once(self, tmp_path, monkeypatch):
        import germnf.linalg as linalg
        import germnf.resonance as resonance

        walks = []

        def counted(basis, offset, max_sum, max_nodes):
            walks.append((tuple(offset), max_sum))
            return linalg.lattice_points(basis, offset, max_sum, max_nodes)

        monkeypatch.setattr(resonance, "lattice_points", counted)
        path = _write(tmp_path, "e13.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0 and report["payload"]["poincare_type"]["verdict"] == "yes"
        bound = report["config"]["bound_omega"]
        assert walks.count(((0, 0), bound)) == 1

    def test_poincare_type_fails_exactly_when_lattice_rank_is_short(self, tmp_path):
        path = _write(tmp_path, "e23.json", {"schema": 1, "mu": [["2", "3"]]})
        _, report = _run_json(tmp_path, "analyze", path)
        assert report["payload"]["poincare_type"] == {
            "verdict": "no",
            "method": "exact",
            "witness": {"lattice_rank": 0, "needed": 1},
        }

    def test_poincare_type_no_when_omega_spans_rank_0(self, tmp_path):
        """The lattice (1, -1) has rank n - 1 but no nonzero point in N^2, so
        no enumeration is short: Omega spans rank 0, an exact NO whose
        separating vector (1, 1) is >= 0, orthogonal to L and positive on
        both coordinates."""
        path = _write(tmp_path, "e22.json", {"schema": 1, "mu": [["2", "2"]]})
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0
        assert report["payload"]["poincare_type"] == {"verdict": "no", "method": "exact", "witness": {
            "lattice_rank": 1, "needed": 1, "omega_rank": 0, "zero_coordinates": [1, 2],
            "separating_vector": [1, 1]}}


class TestBoundedSearchShortfall:
    """Where a bounded Omega walk once fell short, the Omega cone decides:
    each verdict is the same at every --bound-omega."""

    # Omega's first points, (1, 20, 0) and (1, 19, 1), have degree 21
    FAR_OMEGA = {"schema": 1, "n": 3, "p": 1, "degree": 4,
                 "maps": [{"linear_diag": ["1048576", "1/2", "1/2"], "terms": []}]}

    def test_far_omega_is_decided_at_the_default_bound(self, tmp_path):
        """No walk falls short now: at the default bound, which finds no
        Omega point, both verdicts are YES, and the nondegeneracy witness is
        m_j + v for M's basis m_j and the cone's point v = (21, 20, 400)."""
        path = _write(tmp_path, "far.json", self.FAR_OMEGA)
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0
        assert report["payload"]["nondegenerate"] == {"verdict": "yes", "method": "exact", "witness": {
            "independent_exponents": [[22, 20, 420], [21, 21, 399]]}}
        assert report["payload"]["poincare_type"]["verdict"] == "yes"
        code, wider = _run_json(tmp_path, "analyze", path, "--bound-omega", "21")
        assert code == 0
        for name in ("nondegenerate", "poincare_type", "infinitesimal_generators"):
            assert wider["payload"][name] == report["payload"][name], name

    def test_nondegenerate_fails_exactly_when_lattice_rank_is_short(self, tmp_path):
        data = {"schema": 1, "n": 2, "p": 1, "degree": 4, "maps": [{"linear_diag": ["2", "3"], "terms": []}]}
        _, report = _run_json(tmp_path, "analyze", _write(tmp_path, "e23.json", data))
        assert report["payload"]["nondegenerate"] == {
            "verdict": "no",
            "method": "exact",
            "witness": {"lattice_rank": 0, "needed": 1},
        }

    MU2 = GR(Fraction(3, 5), Fraction(4, 5))

    def test_far_branch_is_the_particular_solution(self, tmp_path):
        """There is no branch box to fall short: all moduli are 1 and the
        lattice basis is (1, 400), the branch row's integer solutions are
        (-59, 0) plus the kernel, and the particular solution is the YES of
        both branch questions.  The lattice row is >= 0, so it spans Omega,
        and the command exits 0."""
        path = _write(tmp_path, "far_branch.json", {"schema": 1, "mu": [[str(self.MU2 ** -400), str(self.MU2)]]})
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0
        assert report["payload"]["normal_form_hypothesis"] == {
            "verdict": "yes", "method": "symbolic+interval",
            "witness": {"route": "weakly_nonresonant_generators", "branch": [[-59, 0]], "minor_columns": [1]}}
        assert report["payload"]["infinitesimal_generators"] == {
            "verdict": "yes", "method": "exact", "witness": {"branch": [[-59, 0]]}}

    def test_particular_solution_far_from_zero_needs_no_box(self, tmp_path):
        """n = 8 with six primes beside the unit-modulus pair: the first box
        around 0 holding a branch would have about 129^6 points, but the
        generators' particular solution is read off one integer solve."""
        mu = [str(self.MU2 ** -400), str(self.MU2), "2", "3", "5", "7", "11", "13"]
        path = _write(tmp_path, "far8.json", {"schema": 1, "mu": [mu]})
        start = time.process_time()
        code, report = _run_json(tmp_path, "analyze", path, "--bound-omega", "401")
        assert time.process_time() - start < 2.0
        assert code == 0
        assert report["payload"]["infinitesimal_generators"] == {
            "verdict": "yes", "method": "exact", "witness": {"branch": [[-59, 0, 0, 0, 0, 0, 0, 0]]}}

    def test_trivial_lattice_gets_a_certified_branch(self, tmp_path):
        """u = 3/5+4/5 i and v = 5/13+12/13 i are independent, so L = 0 and
        every branch is weakly non-resonant: b = 0 gives two equal rows, and
        b = 0 + 1 * (e_1; e_2) = [[1, 0], [0, 1]] independent generators."""
        u, v = str(self.MU2), str(GR(Fraction(5, 13), Fraction(12, 13)))
        path = _write(tmp_path, "uv.json", {"schema": 1, "mu": [[u, v], [u, v]]})
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0
        assert report["payload"]["normal_form_hypothesis"] == {
            "verdict": "yes", "method": "symbolic+interval",
            "witness": {"route": "weakly_nonresonant_generators", "branch": [[1, 0], [0, 1]], "minor_columns": [1, 2]}}

    # unit-modulus pairs u, conj(u): lattice basis e_2k-1 + e_2k, and each
    # branch row's coset b_2k-1 + b_2k = 0 holds 0
    UNIT_PAIRS = [GR(Fraction(a, c), Fraction(b, c))
                  for a, b, c in [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]]

    @pytest.mark.parametrize("pairs, extra", [(4, []), (2, ["--bound-omega", "30"])], ids=["4-extra0", "2-extra1"])
    def test_branch_search_lists_no_full_box(self, tmp_path, monkeypatch, pairs, extra):
        """No branch box is listed at all: the one lattice walk is the Omega
        walk, and both branch questions are decided at the zero branch, the
        particular solution of b_2k-1 + b_2k = 0."""
        import germnf.linalg as linalg
        import germnf.resonance as resonance

        walks = []

        def counted(*args, **kwargs):
            walks.append(1)
            return linalg.lattice_points(*args, **kwargs)

        monkeypatch.setattr(resonance, "lattice_points", counted)
        mu = [str(z) for u in self.UNIT_PAIRS[:pairs] for z in (u, u.conjugate())]
        path = _write(tmp_path, "pairs.json", {"schema": 1, "mu": [mu]})
        code, report = _run_json(tmp_path, "analyze", path, *extra)
        assert code == 0 and len(walks) == 1
        assert report["payload"]["infinitesimal_generators"] == {
            "verdict": "yes", "method": "exact", "witness": {"branch": [[0] * (2 * pairs)]}}
        assert report["payload"]["normal_form_hypothesis"] == {
            "verdict": "yes", "method": "symbolic+interval",
            "witness": {"route": "weakly_nonresonant_generators", "branch": [[0] * (2 * pairs)],
                        "minor_columns": [1]}}

    def test_generators_past_the_bound_are_decided(self, tmp_path):
        """Omega's first points have degree 21, past the bound 8, yet the
        generators are decided on the cone's span, L itself, where K0 = 0:
        every verdict is definite and the command exits 0."""
        path = _write(tmp_path, "far.json", {"schema": 1, "mu": [["1048576", "1/2", "1/2"], ["1", "1", "1"]]})
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0
        assert not any(entry.get("verdict") == "indeterminate" for entry in report["payload"].values()
                       if isinstance(entry, dict))
        assert report["payload"]["infinitesimal_generators"] == {
            "verdict": "yes", "method": "exact", "witness": {"branch": [[0, 0, 0], [0, 0, 0]]}}

    def test_generator_search_that_raises_exits_2(self, tmp_path, monkeypatch):
        """A K0 that no precision certifies makes the generators, not the
        command, indeterminate."""
        import germnf.classify as classify
        from germnf.exactnum import IndeterminateError

        def undecided(*args, **kwargs):
            raise IndeterminateError("precision cap reached")

        monkeypatch.setattr(classify, "_branch_rows", undecided)
        path = ROOT / "perfbench" / "corpus" / "eigen" / "small_p2-2.json"
        code, report = _run_json(tmp_path, "analyze", str(path))
        assert code == 2
        assert report["payload"]["infinitesimal_generators"] == {
            "verdict": "indeterminate", "method": "symbolic+interval", "reason": "precision cap reached"}

    def test_generator_verdict_ignores_the_walk_bound(self, tmp_path):
        """mu = [[mu2^-400, mu2]] again: the lattice (1, 400) has one sign, so
        it spans Omega, and the generator verdict is the same whether the
        walk stops at degree 8, with no point, or reaches (1, 400).  A
        mixed-sign lattice stays vacuous."""
        path = _write(tmp_path, "far_branch.json", {"schema": 1, "mu": [[str(self.MU2 ** -400), str(self.MU2)]]})
        for bound in ("8", "401"):
            code, report = _run_json(tmp_path, "analyze", path, "--bound-omega", bound)
            assert code == 0
            assert report["payload"]["infinitesimal_generators"] == {
                "verdict": "yes", "method": "exact", "witness": {"branch": [[-59, 0]]}}, bound
        path = _write(tmp_path, "mixed.json", {"schema": 1, "mu": [["2", "2"]]})
        _, report = _run_json(tmp_path, "analyze", path)
        assert report["payload"]["infinitesimal_generators"] == {
            "verdict": "yes", "method": "exact", "witness": {"branch": [[0, 0]], "vacuous": True}}

    def test_generators_answer_no_at_every_bound(self, tmp_path):
        """L = <(1, 1, 0, 0), (0, 0, 2, 40)> spans Omega, and K0 is odd on the
        second row, of degree 42: the walk to 8 sees only the first row, yet
        the answer is NO at the default bound as at 42."""
        path = _write(tmp_path, "found.json", {"schema": 1, "mu": [["3/5+4/5*i", "3/5-4/5*i", "-1048576", "1/2"]]})
        for bound in ("8", "42"):
            code, report = _run_json(tmp_path, "analyze", path, "--bound-omega", bound)
            assert code == 0
            assert report["payload"]["infinitesimal_generators"] == {"verdict": "no", "method": "exact", "witness": {
                "germ": 1, "span": [[1, 1, 0, 0], [0, 0, 2, 40]], "rhs": [0, -1], "reason": "no integer solution"}}

    def test_too_few_kernel_rows_is_an_exact_no(self, tmp_path):
        """No candidate cap is left: rank L = 1, so k = 3 < p = 4 and every
        lambda(b) is dependent, an exact NO."""
        path = _write(tmp_path, "p4.json", {"schema": 1, "mu": RANK_2_P4_MU})
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0
        assert report["payload"]["normal_form_hypothesis"] == {
            "verdict": "no", "method": "exact", "witness": {"lattice_rank": 1, "n": 4, "p": 4}}


def _pd_nf_pair(a: int, b: int, degree: int = 5) -> dict:
    """Phi_1 = (2x(1 + a xy), y/2), Phi_2 = (3x, y/3 (1 + b xy)): in PD-NF
    and divisible, with a certificate that is not ok; the pair commutes
    exactly when a b = 0 (the defect sits at degree 5)."""
    return {"schema": 1, "n": 2, "p": 2, "degree": degree, "maps": [
        {"linear_diag": ["2", "1/2"], "terms": [{"component": 1, "exponents": [2, 1], "coeff": str(2 * a)}]},
        {"linear_diag": ["3", "1/3"], "terms": [{"component": 2, "exponents": [1, 2], "coeff": str(Fraction(b, 3))}]},
    ]}


def _run_captured(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


class TestCommutationOnce:
    """`normalize`, `realcase` and `verify` load their family unchecked and
    show commutation once; input that does not commute keeps its error."""

    @pytest.fixture
    def defect_calls(self, monkeypatch):
        import germnf.germ as germ

        calls, original = [], germ.commutativity_defect

        def counted(f, g):
            calls.append((f, g))
            return original(f, g)

        monkeypatch.setattr(germ, "commutativity_defect", counted)
        return calls

    def test_ok_certificate_means_no_check(self, defect_calls):
        corpus = _perfbench_golden().HERE / "corpus"
        for command, name in [("normalize", "normalize/conj_p2-0"), ("verify", "integrals/inf_p2_n3-1"),
                              ("first-integrals", "integrals/inf_p2_n3-1")]:
            defect_calls.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run([command, str(corpus / f"{name}.json")]) == 0
            report = json.loads(out.getvalue())
            if command == "first-integrals":
                assert len(defect_calls) == 1  # p (p - 1) / 2 at load
            else:
                assert report["payload"]["certificate"]["ok"] is True and defect_calls == [], command

    def test_without_a_certificate_one_check_of_the_normal_form(self, tmp_path, defect_calls):
        fam = family_from_json(_pd_nf_pair(1, 0))
        psi = random_tangent_identity(random.Random(4), 2, 5, extra_terms=3)
        conjugated = require_commuting(Family([conjugate(g, psi) for g in fam.germs]))
        path = _write(tmp_path, "conj.json", family_to_json(conjugated))
        defect_calls.clear()
        code, report = _run_json(tmp_path, "normalize", path)
        assert code == 0 and report["payload"]["certificate"]["ok"] is False
        normal = family_from_json(report["payload"]["normalized"])
        assert len(defect_calls) == 1 and list(defect_calls[0]) == list(normal.germs)
        defect_calls.clear()
        code, report = _run_json(tmp_path, "verify", path)
        assert code == 0 and "certificate" not in report["payload"] and len(defect_calls) == 1

    def test_normal_form_defect_raises_the_input_witness(self, tmp_path):
        """Nothing is eliminated from this PD-NF pair, so only the final
        check of Phi' sees the defect; the error is the input's."""
        data = _pd_nf_pair(1, 1)
        with pytest.raises(CommutationError) as err:
            require_commuting(family_from_json(data))
        path = _write(tmp_path, "pair.json", data)
        for command in ("normalize", "verify"):
            assert _run_captured([command, path]) == (1, f"error: bad family input: {err.value}\n")

    def test_normal_form_defect_on_commuting_input_exits_3(self, tmp_path, monkeypatch):
        import germnf.normalform as normalform

        original = normalform.poincare_dulac_normalize

        def broken(fam, eigen):
            result = original(fam, eigen)
            bad = family_from_json(_pd_nf_pair(1, 1))
            return normalform.NormalizationResult(bad, result.psi, result.eliminations)

        monkeypatch.setattr(normalform, "poincare_dulac_normalize", broken)
        path = _write(tmp_path, "pair.json", _pd_nf_pair(1, 0))
        code, err = _run_captured(["normalize", path])
        assert code == 3
        assert err.startswith("internal verification failed: the normal form does not commute, though its input does")

    def test_noncommuting_and_nondiagonal(self, tmp_path):
        data = {"schema": 1, "n": 2, "degree": 3, "maps": [
            {"linear_matrix": [["2", "1"], ["0", "1"]], "terms": [{"component": 2, "exponents": [2, 0], "coeff": "1"}]},
            {"linear_diag": ["3", "1"], "terms": []},
        ]}
        with pytest.raises(CommutationError) as err:
            require_commuting(family_from_json(data))
        path = _write(tmp_path, "bad.json", data)
        for command in ("normalize", "verify", "realcase"):
            assert _run_captured([command, path]) == (1, f"error: bad family input: {err.value}\n"), command
        data["maps"] = [{"linear_matrix": [["2", "1"], ["0", "1"]]}, {"linear_diag": ["3", "3"]}]  # commuting
        path = _write(tmp_path, "nondiag.json", data)
        assert _run_captured(["normalize", path]) == (1, "error: normalization requires diagonal linear parts\n")
        assert _run_captured(["verify", path]) == (1, "error: PD-NF verification requires diagonal linear parts\n")

    PAIR_ROWS = [
        [["2", "1/2"], ["-3", "-1/3"]], [["2", "1/2"], ["3", "1/3"]],
        [["3", "1/3", "2"], ["1/2", "2", "5"]], [["2", "1/2", "1"], ["3", "1/3", "-1"]],
    ]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.booleans(), st.sampled_from(PAIR_ROWS), st.integers(3, 5), st.integers(1, 50), st.data())
    def test_perturbed_pair_error_parity(self, real, rows, degree, seed, data):
        """One term added to a commuting p = 2 pair: each command prints the
        error that `require_commuting` gives on the same family (draws that still
        commute are discarded)."""
        rng = random.Random(seed)
        if real:
            fam, _ = random_real_block_family(rng, 1, [], 2, degree)
            coeff = GR(data.draw(st.fractions(-3, 3, max_denominator=3).filter(bool)))
        else:
            eigen = EigenData.from_rows(rows)
            nf = generate_integrable_nf(eigen, eigen.lattice, degree, seed=seed)
            psi = random_tangent_identity(rng, eigen.n, degree)
            fam = require_commuting(Family([conjugate(g, psi) for g in nf.germs]))
            coeff = data.draw(nonzero_gaussians)
        i, m = data.draw(st.integers(0, 1)), data.draw(st.integers(0, fam.n - 1))
        exp = data.draw(st.sampled_from(list(all_exponents(fam.n, degree, min_degree=2))))
        germs = list(fam.germs)
        comps = list(germs[i].components)
        comps[m] = comps[m] + TruncatedSeries.monomial(exp, coeff, degree)
        germs[i] = Germ(comps)
        try:
            require_commuting(Family(germs))
        except CommutationError as exc:
            expected = f"error: bad family input: {exc}\n"
        else:
            assume(False)
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(Path(tmp), "pair.json", family_to_json(Family(germs)))
            for command in ("normalize", "verify", "realcase"):
                assert _run_captured([command, path]) == (1, expected), command


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

    @pytest.mark.parametrize("schema", [True, 1.0, "1", None, 1], ids=["true", "1.0", "string-1", "null", "int-1"])
    @pytest.mark.parametrize("kind", ["family", "eigen"])
    def test_schema_is_the_int_1(self, tmp_path, kind, schema):
        """true and 1.0 equal 1 in Python, yet both input kinds refuse them
        with exit 1, as any schema but the integer 1."""
        data = dict(NORMALIZABLE if kind == "family" else {"schema": 1, "mu": [["2", "3"]]}, schema=schema)
        code, err = _run_captured(["lattice", _write(tmp_path, "in.json", data)])
        if type(schema) is int:
            assert (code, err) == (0, "")
        else:
            prefix = "bad family input: " if kind == "family" else ""
            assert (code, err) == (1, f"error: {prefix}missing or unsupported schema field (expected 1)\n")

    @pytest.mark.parametrize("field", ["n", "degree", "maps", "component", "exponents", "coeff"])
    def test_missing_field_is_named_exit_1(self, tmp_path, field):
        data = json.loads(json.dumps(NORMALIZABLE))
        term = data["maps"][0]["terms"][0]
        what = "term" if field in term else "family input"
        del (term if field in term else data)[field]
        code, err = _run_captured(["verify", _write(tmp_path, "bad.json", data)])
        assert (code, err) == (1, f"error: bad family input: missing field {field!r} in {what}\n")

    def test_unknown_field_exit_1(self, tmp_path):
        data = dict(EX13, mystery=1)
        path = _write(tmp_path, "bad.json", data)
        assert run(["analyze", path]) == 1

    @pytest.mark.parametrize(
        "data",
        [
            {"schema": 1, "mu": [["2", True]]},  # was read as 1
            {"schema": 1, "mu": [["2", 0.1]], "junk": 3},
            {"schema": 1, "mu": [["2", "3"]], "junk": 3},
            {"schema": 1, "mu": [["2", 0.1]]},  # was read through its binary value
            {"schema": 1, "mu": [["2", 1.5]]},
            {"schema": 1, "mu": [["2", None]]},
            {"schema": 1, "mu": [["2", ["3"]]]},
            {"schema": 1, "mu": [["2", "3x"]]},
            {"schema": 1, "mu": ["2", "3"]},
            {"schema": 1, "mu": "2"},
            ["schema", 1],
        ],
        ids=["data0", "data1", "data2", "data3", "data4", "data5", "data6", "data7", "data8", "data9", "data10"],
    )
    @pytest.mark.parametrize("command", ["lattice", "analyze"])
    def test_strict_eigen_input_exit_1(self, tmp_path, capsys, command, data):
        path = _write(tmp_path, "bad.json", data)
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", ["lattice", "analyze", "generate"])
    def test_more_germs_than_dimension_exit_1(self, tmp_path, capsys, command):
        """p > n eigen input is refused as family input is, instead of
        getting vacuous verdicts from an empty minor table."""
        path = _write(tmp_path, "pn.json", {"schema": 1, "mu": [["2"], ["3"]]})
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad eigen input: family has more germs than the ambient dimension\n"

    def test_bound_torsion_is_gone(self, tmp_path, capsys):
        path = _write(tmp_path, "e13.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        with pytest.raises(SystemExit):
            run(["analyze", path, "--bound-torsion", "64"])
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0 and "bound_torsion" not in report["config"]

    def test_bound_branch_is_gone(self, tmp_path, capsys):
        """The generator branches are decided exactly, with no box to bound."""
        path = _write(tmp_path, "e13.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        with pytest.raises(SystemExit) as exited:
            run(["analyze", path, "--bound-branch", "3"])
        assert exited.value.code == 1 and "unrecognized arguments: --bound-branch 3" in capsys.readouterr().err
        code, report = _run_json(tmp_path, "analyze", path)
        assert code == 0 and "bound_branch" not in report["config"]

    def test_rho_equivariant_is_gone(self, tmp_path, capsys):
        """`realcase` is the one real-case route: `normalize` has no
        rho-equivariance option and family input no `pairing` field."""
        path = _write(tmp_path, "pair.json", NORMALIZABLE)
        with pytest.raises(SystemExit) as exited:
            run(["normalize", path, "--rho-equivariant"])
        assert exited.value.code == 1 and "unrecognized arguments: --rho-equivariant" in capsys.readouterr().err
        for command, data in [("normalize", NORMALIZABLE), ("verify", NORMALIZABLE),
                              ("first-integrals", NORMALIZABLE), ("realcase", ROTATION)]:
            code, report = _run_json(tmp_path, command, _write(tmp_path, "in.json", data))
            assert code == 0 and "rho_equivariant" not in report["config"], command
            paired = _write(tmp_path, "paired.json", {**data, "pairing": [2, 1]})
            assert _run_captured([command, paired]) == (
                1, "error: bad family input: unknown field 'pairing' in family input\n"), command
        eigen = _write(tmp_path, "e13.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        for command in ("lattice", "analyze", "generate"):
            code, report = _run_json(tmp_path, command, eigen)
            assert code == 0 and "rho_equivariant" not in report["config"], command

    @pytest.mark.parametrize("extra", [["--degree", "1"], ["--bound-omega", "0"], ["--bogus"]],
                             ids=["extra0", "extra1", "extra2"])
    def test_usage_error_exits_1(self, tmp_path, capsys, extra):
        path = _write(tmp_path, "e13.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        with pytest.raises(SystemExit) as exited:
            run(["lattice", path, *extra])
        assert exited.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "germnf: error: " in captured.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            run(["--help"])
        assert exited.value.code == 0 and capsys.readouterr().out.startswith("usage: germnf")

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        path = _write(tmp_path, "e13.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        target = tmp_path / "missing" / "out.json"
        assert run(["lattice", path, "--output", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot write output: ")
        assert captured.err.count("\n") == 1 and not target.exists()

    def test_integer_eigenvalues_accepted(self, tmp_path):
        path = _write(tmp_path, "int.json", {"schema": 1, "mu": [[-2, "1/2"]]})
        code, report = _run_json(tmp_path, "lattice", path)
        assert code == 0 and report["payload"]["basis"] == [[2, 2]]

    @pytest.mark.parametrize(
        "place, value",
        [
            ("exponents", [1.5, 1]),  # was truncated to [1, 1]
            ("exponents", [True, 1]),
            ("exponents", "02"),
            ("component", True),
            ("n", 2.0),
            ("degree", True),
            ("p", True),
            ("n", "2"),
            ("degree", 4.0),
            ("coeff", 0.5),
            ("coeff", 2),
            ("coeff", True),
            ("coeff", None),
            ("linear_diag", [2, "3"]),
            ("linear_diag", "23"),  # was read as ["2", "3"]
            ("linear_matrix", ["20", "03"]),  # was read as [["2", "0"], ["0", "3"]]
            ("linear_matrix", "2003"),
        ],
        ids=[
            "exponents-value0", "exponents-value1", "exponents-02", "component-True", "n-2.0", "degree-True",
            "p-True", "n-2", "degree-4.0", "coeff-0.5", "coeff-2", "coeff-True", "coeff-None",
            "linear_diag-value13", "linear_diag-23", "linear_matrix-value15", "linear_matrix-2003",
        ],
    )
    def test_non_integer_field_exit_1(self, tmp_path, capsys, place, value):
        data = json.loads(json.dumps(NORMALIZABLE))
        if place in ("exponents", "component", "coeff"):
            data["maps"][0]["terms"][0][place] = value
        elif place.startswith("linear_"):
            del data["maps"][0]["linear_diag"]
            data["maps"][0][place] = value
        else:
            data[place] = value
        path = _write(tmp_path, "bad.json", data)
        assert run(["verify", path]) == 1
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("place, value", [("maps", 5), ("maps", [5]), ("terms", [5]), ("terms", 5)],
                             ids=["maps-5", "maps-value1", "terms-value2", "terms-5"])
    def test_malformed_maps_exit_1(self, tmp_path, capsys, place, value):
        data = json.loads(json.dumps(NORMALIZABLE))
        if place == "maps":
            data["maps"] = value
        else:
            data["maps"][0]["terms"] = value
        path = _write(tmp_path, "bad.json", data)
        assert run(["verify", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be" in err

    @pytest.mark.parametrize("place, text", [("term", "1/0"), ("linear_diag", "3/0"), ("linear_matrix", "2-5/0*i")])
    @pytest.mark.parametrize("command", ["verify", "normalize", "first-integrals", "analyze"])
    def test_zero_denominator_in_family_exit_1(self, tmp_path, capsys, command, place, text):
        """A zero denominator is an input error with the usual message; it
        used to end in an uncaught ZeroDivisionError."""
        data = json.loads(json.dumps(NORMALIZABLE))
        entry = data["maps"][0]
        if place == "term":
            entry["terms"][0]["coeff"] = text
        elif place == "linear_diag":
            entry["linear_diag"][1] = text
        else:
            del entry["linear_diag"]
            entry["linear_matrix"] = [["2", text], ["0", "3"]]
        path = _write(tmp_path, "bad.json", data)
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad family input: zero denominator in Gaussian rational: {text!r}\n"

    @pytest.mark.parametrize("command", ["lattice", "analyze"])
    def test_zero_denominator_in_mu_exit_1(self, tmp_path, capsys, command):
        path = _write(tmp_path, "bad.json", {"schema": 1, "mu": [["1/0", "2"]]})
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad eigen input: zero denominator in Gaussian rational: '1/0'\n"

    @pytest.mark.parametrize("text", ["\u0661/\u0662", "\uff11\uff12", "\xa01/2", "3\u2003+ i"])
    def test_non_ascii_number_in_family_exit_1(self, tmp_path, capsys, text):
        """The grammar is ASCII: Arabic-Indic or fullwidth digits and Unicode
        spaces are refused, not read as the numbers they look like."""
        data = json.loads(json.dumps(NORMALIZABLE))
        data["maps"][0]["linear_diag"][1] = text
        path = _write(tmp_path, "bad.json", data)
        assert run(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad family input: cannot parse Gaussian rational: {text!r}\n"

    @pytest.mark.parametrize("text", ["\u0661/\u0662", "\uff11\uff12", "\xa01/2", "3\u2003+ i"])
    def test_non_ascii_number_in_mu_exit_1(self, tmp_path, capsys, text):
        path = _write(tmp_path, "bad.json", {"schema": 1, "mu": [[text, "2"]]})
        assert run(["lattice", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad eigen input: cannot parse Gaussian rational: {text!r}\n"

    def test_report_integer_over_str_limit_exit_1(self, tmp_path, capsys):
        """An n = 1, D = 4 family with a 3000-digit x^2 coefficient and its
        reciprocal at x^3 is valid input, but psi has coefficients whose
        digits pass the interpreter's int/str limit, which stays in place:
        one error line names it instead of a traceback."""
        big = "1" + "3" * 2999
        terms = [{"component": 1, "exponents": [2], "coeff": big}, {"component": 1, "exponents": [3], "coeff": "1/" + big}]
        data = {"schema": 1, "n": 1, "p": 1, "degree": 4, "maps": [{"linear_diag": ["2"], "terms": terms}]}
        path = _write(tmp_path, "big.json", data)
        limit = sys.get_int_max_str_digits()
        assert 0 < limit < 6000
        assert run(["verify", path]) == 0
        capsys.readouterr()
        assert run(["normalize", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: an integer exceeds the {limit}-digit int/str limit\n"
        assert sys.get_int_max_str_digits() == limit
        (tmp_path / "long_n.json").write_text('{"schema": 1, "n": 1' + "0" * limit + ', "degree": 3, "maps": []}')
        assert run(["verify", str(tmp_path / "long_n.json")]) == 1  # the same limit met while reading JSON
        assert capsys.readouterr().err == f"error: an integer exceeds the {limit}-digit int/str limit\n"

    @pytest.mark.parametrize("command, task", [
        ("verify", "PD-NF verification"),
        ("normalize", "normalization"),
    ])
    def test_nondiagonal_family_exit_1(self, tmp_path, capsys, command, task):
        path = _write(tmp_path, "rot.json", ROTATION)
        assert run([command, path]) == 1
        assert capsys.readouterr().err == f"error: {task} requires diagonal linear parts\n"

    def test_jet_size_cap_exit_1(self, tmp_path, capsys):
        """n = 10 to degree 10 is C(20, 10) = 184756 monomials per jet:
        refused before any jet is built, where it used to run away."""
        big = {"schema": 1, "n": 10, "degree": 10, "maps": [{"linear_diag": [str(k) for k in range(2, 12)]}]}
        path = _write(tmp_path, "big.json", big)
        started = time.process_time()
        assert run(["first-integrals", path, "--degree", "10"]) == 1
        eigen = _write(tmp_path, "mu.json", {"schema": 1, "mu": [[str(k) for k in range(2, 12)]]})
        assert run(["generate", eigen, "--degree", "10"]) == 1
        assert time.process_time() - started < 1
        err = capsys.readouterr().err
        assert err.count("more than 20000 monomials") == 2
        # n = 4, D = 6 (210 monomials, the largest corpus jet) is unaffected
        small = {**big, "n": 4, "degree": 6, "maps": [{"linear_diag": ["2", "3", "5", "7"]}]}
        path = _write(tmp_path, "small.json", small)
        assert _run_json(tmp_path, "first-integrals", path, "--degree", "6")[0] == 0

    def test_omega_bound_cap_exit_1(self, tmp_path, capsys):
        """An Omega bound above the cap is refused before any walk; at the
        cap the walk still runs (about 0.4 s CPU on this mu)."""
        from germnf.cli import MAX_BOUND_OMEGA

        path = _write(tmp_path, "mu.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        started = time.process_time()
        assert run(["lattice", path, "--bound-omega", "100000"]) == 1
        assert run(["analyze", path, "--bound-omega", str(MAX_BOUND_OMEGA + 1)]) == 1
        assert run(["lattice", path, "--degree", str(MAX_BOUND_OMEGA)]) == 1  # default 2 * degree
        assert time.process_time() - started < 0.5
        err = capsys.readouterr().err
        assert err.count(f"is above the cap {MAX_BOUND_OMEGA}") == 3
        assert "error: Omega bound 100000 is above the cap" in err
        code, report = _run_json(tmp_path, "lattice", path, "--bound-omega", "40")
        assert code == 0 and report["payload"]["bound"] == 40

    def test_omega_walk_cost_cap_exit_1(self, tmp_path, capsys):
        """A full-rank lattice keeps every point of N^n to the bound: on
        mu = [[1, 1, 1]] at bound 60 the walk visits C(64, 3) - 1 = 41 663
        nodes for 39 710 points and, uncapped, prints a 10 MB report.  The
        walk stops at its cap and the command exits 1 at once; bound 53
        (29 259 nodes) still runs."""
        from germnf.resonance import MAX_WALK_NODES

        assert comb(57, 3) - 1 < MAX_WALK_NODES < comb(64, 3) - 1
        path = _write(tmp_path, "ones.json", {"schema": 1, "mu": [["1", "1", "1"]]})
        started = time.process_time()
        assert run(["lattice", path, "--bound-omega", "60"]) == 1
        assert time.process_time() - started < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the lattice walk to degree 60 in 3 variables passed {MAX_WALK_NODES} "
                                "nodes; lower --bound-omega (or --degree)\n")
        code, report = _run_json(tmp_path, "lattice", path, "--bound-omega", "53")
        assert code == 0 and len(report["payload"]["omega_points"]) == comb(56, 3) - 1

    @pytest.mark.parametrize("mu", [["1"] * 6, ["-1"] * 6, ["1"] * 8], ids=["ones_6", "signs_6", "ones_8"])
    @pytest.mark.parametrize("command", ["lattice", "analyze"])
    def test_walk_cap_serves_full_rank_lattices_at_the_default_bound(self, tmp_path, command, mu):
        """The walk visits only points that can end at degree <= bound, so a
        full-rank lattice in up to 8 variables passes the cap at the default
        bound 8: C(17, 8) - 1 = 24 309 nodes for n = 8."""
        path = _write(tmp_path, "mu.json", {"schema": 1, "mu": [mu]})
        code, report = _run_json(tmp_path, command, path)
        assert code in (0, 2) and report["config"]["bound_omega"] == 8
        if command == "lattice":
            n, index = len(mu), 1 if mu[0] == "1" else 2  # the lattice's index in Z^n
            expected = sum(comb(d + n - 1, n - 1) for d in range(1, 9) if d % index == 0)
            assert len(report["payload"]["omega_points"]) == expected

    def test_walk_cap_serves_generate_at_degree_19(self, tmp_path):
        """generate on a full-rank lattice in 4 variables at --degree 19 walks
        Omega to degree 18: C(23, 4) - 1 = 8 854 nodes."""
        path = _write(tmp_path, "ones.json", {"schema": 1, "mu": [["1", "1", "1", "1"]]})
        assert _run_json(tmp_path, "generate", path, "--degree", "19")[0] == 0

    def test_walk_with_a_partly_negative_basis_is_cheap(self, tmp_path):
        """mu = [[2, 3, 2, 3, 5, 5]] has the relation lattice basis (1, 0, -1, 0, 0, 0),
        (0, 1, 0, -1, 0, 0), (0, 0, 0, 0, 1, -1), with no point in N^6 but 0.  The walk
        cuts each coefficient's range by the coordinates it fixes, so at the
        largest bound each of lattice's seven walks visits a handful of nodes,
        not 1001^3 leaves."""
        path = _write(tmp_path, "mu.json", {"schema": 1, "mu": [["2", "3", "2", "3", "5", "5"]]})
        started = time.process_time()
        code, report = _run_json(tmp_path, "lattice", path, "--bound-omega", "1000")
        assert time.process_time() - started < 2
        assert code == 0 and report["payload"]["basis"] == [
            [1, 0, -1, 0, 0, 0], [0, 1, 0, -1, 0, 0], [0, 0, 0, 0, 1, -1]]
        assert report["payload"]["omega_points"] == []

    def test_jet_size_check_is_cheap_at_any_height(self):
        from germnf.series import check_jet_size

        for n, degree in [(10**9, 10**9), (10**9, 2), (2, 10**9)]:
            with pytest.raises(UsageError):
                check_jet_size(n, degree)
        check_jet_size(4, 6)
        check_jet_size(1, 19_999)  # C(20000, 1) = 20000 is at the cap

    def test_config_echoes_the_family_degree(self, tmp_path):
        path = _write(tmp_path, "d8.json", {**NORMALIZABLE, "degree": 8})
        code, report = _run_json(tmp_path, "normalize", path)
        assert code == 0 and report["config"]["degree"] == 8

    def test_config_echoes_the_first_integral_degree(self, tmp_path):
        path = _write(tmp_path, "ex13.json", EX13)
        code, report = _run_json(tmp_path, "first-integrals", path, "--degree", "6")
        assert code == 0
        assert report["config"]["degree"] == report["payload"]["degree"] == 4

    def test_failed_internal_check_exits_3(self, tmp_path, monkeypatch, capsys):
        import germnf.normalform as normalform

        monkeypatch.setattr(normalform, "_scan_nonresonant", lambda work, eigen, ell: [(0, (0, 2))])
        path = _write(tmp_path, "nf.json", NORMALIZABLE)
        assert run(["normalize", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal verification failed: non-resonant terms survived")
        assert "Traceback" not in captured.err

    def test_failed_germ_inversion_exits_3(self, tmp_path, monkeypatch, capsys):
        import germnf.germ as germ

        exact = germ.field_inverse

        def doubled(rows):
            return [{j: (2 * a, 2 * b, d) for j, (a, b, d) in row.items()} for row in exact(rows)]

        with monkeypatch.context() as patched:
            patched.setattr(germ, "field_inverse", doubled)
            message = "germ solve failed verification: L^-1 L is not the identity"
            with pytest.raises(AssertionError, match=re.escape(message)):
                invert_germ(family_from_json(NORMALIZABLE).germs[0])
        # the elimination steps invert no linear part; their rounds check a
        # fixed point, so rounds whose N o Y is corrupted (it also returns
        # the Y it was fed, which breaks the gain of r - 1 degrees a round)
        # are caught at the first step, also on the complexified family of
        # a real block
        compose = germ.compose_all

        def corrupted(targets, comps):
            targets, comps = list(targets), list(comps)
            out = compose(targets, comps)
            if all(t.order() >= 2 for t in targets):  # the N of a rounds loop
                out = [a + b for a, b in zip(out, comps)]
            return out

        monkeypatch.setattr(germ, "compose_all", corrupted)
        message = "germ solve failed verification: f o Y != g (no fixed point)"
        path = _write(tmp_path, "nf.json", NORMALIZABLE)
        assert run(["normalize", path]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"internal verification failed: {message}")
        real = _perfbench_golden().HERE / "corpus" / "normalize" / "real_block-0.json"
        assert run(["realcase", str(real)]) == 3
        assert capsys.readouterr().err.startswith(f"internal verification failed: {message}")

    def test_missing_torsion_order_exits_3(self, tmp_path, monkeypatch, capsys):
        import germnf.classify as classify

        monkeypatch.setattr(classify, "_torsion_order", lambda z: None)
        path = _write(tmp_path, "e13.json", {"schema": 1, "mu": [["-2", "1/2"]]})
        assert run(["analyze", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal verification failed: pair (2,1) has no exact cancelling power")

    def test_solve_stopped_a_round_short_exits_3(self, monkeypatch, capsys):
        """The solve's fixed-point test catches a round too few, so each
        step conjugation is checked where it is made."""
        import germnf.germ as germ

        rounds = germ._round_degrees
        monkeypatch.setattr(germ, "_round_degrees", lambda r, degree: rounds(r, degree)[:-1])
        corpus = _perfbench_golden().HERE / "corpus" / "normalize"
        for command, name in [("normalize", "dense_p1-0"), ("realcase", "real_block-0")]:
            assert run([command, str(corpus / f"{name}.json")]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "internal verification failed: germ solve failed verification: f o Y != g"
            )

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

    def test_text_format_prints_one_line_per_list_item(self, capsys):
        """Each Omega point is one `- [..]` line, each resonant set an item
        of its own, and a list of scalars under a key sits on the key's
        line; the JSON reports are unchanged."""
        path = str(ROOT / "perfbench/corpus/integrals/inf_p2_n3-1.json")
        assert run(["lattice", path, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("omega_points:")
        assert lines[start + 1:start + 3] == ["  - [1, 1, 1]", "  - [2, 2, 2]"]
        sets = lines[lines.index("resonant_sets:") + 1:]
        assert [line for line in sets if line.startswith("  - ")] == [
            "  - bound: 8" for _ in range(3)
        ]
        assert sets[:5] == ["  - bound: 8", "    component: 1", "    points:", "      - [2, 1, 1]", "      - [3, 2, 2]"]
        assert run(["lattice", path]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["omega_points"] == [[1, 1, 1], [2, 2, 2]]
        assert [s["component"] for s in payload["resonant_sets"]] == [1, 2, 3]
        assert run(["first-integrals", path, "--degree", "6", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[lines.index("basis:") + 1:] == [
            "  - - coeff: 1",
            "      exponents: [1, 1, 1]",
            "  - - coeff: 1",
            "      exponents: [2, 2, 2]",
            "degree: 6",
            "dimension: 2",
        ]
        assert run(["first-integrals", path, "--degree", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert [[t["exponents"] for t in f] for f in payload["basis"]] == [[[1, 1, 1]], [[2, 2, 2]]]

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


# strings with what JSON escapes or could misparse: quotes, backslashes,
# control characters, non-ASCII text (astral and lone surrogates too), and
# the separators and brackets of the layout itself
_awkward = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028",
                            "\U0001f600", "\ud800", ",", ":", ": ", "[", "]", "{", "}", "[]", "{}", " "])
_strings = st.one_of(st.text(max_size=6), st.lists(_awkward, max_size=4).map("".join))
_ints = st.one_of(st.integers(-1000, 1000), st.integers(min_value=2**64), st.integers(max_value=-(2**64)))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, st.floats(), _strings, st.lists(_ints, max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_strings, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestReportWriter:
    """The report writer against the json module's indented encoder."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_json_values)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_empty_containers_at_every_depth(self):
        value = {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {"e": []}}], "f": [{}]}
        for _ in range(3):
            assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)
            value = [value, {"g": value, "h": []}]
