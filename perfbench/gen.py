"""Write the benchmark's input corpus: one JSON file per input and one
manifest per workload listing the CLI ops to run on them.

    python3 perfbench/gen.py --seed 20071063

Inputs are drawn from the given seed with the public germnf API and plain
JSON only.  Every draw is kept, however slow it turns out to be: the
benchmark must show slow and failing cases as they are.  After changing the
corpus, regenerate the golden results with `python3 perfbench/golden.py`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus"


def _import_germnf():
    sys.path.insert(0, str(ROOT / "src"))
    import germnf
    from germnf import normalform

    return germnf, normalform


# ---------------------------------------------------------------------------
# plain-JSON draws
# ---------------------------------------------------------------------------


def _rational(rng: random.Random, height: int) -> Fraction:
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value:
            return value


def _gaussian(rng: random.Random, height: int) -> tuple[Fraction, Fraction]:
    while True:
        re = Fraction(rng.randint(-height, height), rng.randint(1, height))
        im = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if re or im:
            return re, im


def _text(z) -> str:
    """The CLI's canonical text for a Gaussian rational (a, b) or a rational."""
    re, im = (z, Fraction(0)) if isinstance(z, Fraction) else z
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def _eigenvalue(rng: random.Random, height: int) -> str:
    """Half real, half non-real eigenvalues of the given height."""
    return _text(_rational(rng, height) if rng.random() < 0.5 else _gaussian(rng, height))


def _exponents(n: int, low: int, high: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(high + 1), repeat=n) if low <= sum(e) <= high]


def _random_terms(rng, n, degree, count, coeff) -> list[dict]:
    pool = _exponents(n, 2, degree)
    return [
        {"component": rng.randint(1, n), "exponents": list(rng.choice(pool)), "coeff": coeff()}
        for _ in range(count)
    ]


def dense_p1(rng: random.Random) -> dict:
    """One map, n=3, D=6, 40 Gaussian terms of height 4."""
    n, degree = 3, 6
    return {
        "schema": 1, "n": n, "p": 1, "degree": degree,
        "maps": [{
            "linear_diag": [_text(_gaussian(rng, 3)) for _ in range(n)],
            "terms": _random_terms(rng, n, degree, 40, lambda: _text(_gaussian(rng, 4))),
        }],
    }


def real_block(rng: random.Random) -> dict:
    """One real map, n=3: a rotation-scaling block and a real tail, D=5."""
    n, degree = 3, 5
    u, v, t = (str(_rational(rng, 3)) for _ in range(3))
    minus_v = str(-Fraction(v))
    return {
        "schema": 1, "n": n, "p": 1, "degree": degree,
        "maps": [{
            "linear_matrix": [[u, minus_v, "0"], [v, u, "0"], ["0", "0", t]],
            "terms": _random_terms(rng, n, degree, 15, lambda: str(_rational(rng, 4))),
        }],
    }


_SMALL = [Fraction(k) for k in (2, 3, 5, 7)] + [Fraction(1, k) for k in (2, 3, 5)]


def _paired_rows(rng: random.Random, p: int, n: int) -> list[list[str]]:
    """Eigenvalue rows with nontrivial relations: (a, 1/a, b, 1/b) for n=4,
    (a, b, 1/(ab)) for n=3, so Omega is non-empty."""
    rows = []
    for _ in range(p):
        if n == 4:
            a, b = rng.choice(_SMALL), rng.choice(_SMALL)
            row = [a, 1 / a, b, 1 / b]
        else:
            a, b = rng.choice(_SMALL), rng.choice(_SMALL)
            row = [a, b, 1 / (a * b)]
        rows.append([str(x) for x in row])
    return rows


def integrable_nf(germnf, normalform, rng: random.Random, p: int, n: int, degree: int):
    eigen = germnf.EigenData.from_rows(_paired_rows(rng, p, n))
    lattice = germnf.relation_lattice(eigen)
    return normalform.generate_integrable_nf(eigen, lattice, degree, rng.randrange(1, 10**6))


def conjugated_p2(germnf, normalform, rng: random.Random, n: int, degree: int) -> dict:
    """An integrable normal form conjugated by a tangent-to-identity germ with
    three Gaussian terms of height 4: a commuting p=2 family that is not in
    normal form."""
    fam = integrable_nf(germnf, normalform, rng, 2, n, degree)
    comps = [germnf.TruncatedSeries.variable(j, n, degree) for j in range(n)]
    pool = _exponents(n, 2, degree)
    for _ in range(3):
        j = rng.randrange(n)
        re, im = _gaussian(rng, 4)
        comps[j] = comps[j] + germnf.TruncatedSeries.monomial(
            rng.choice(pool), germnf.GaussianRational(re, im), degree
        )
    psi = germnf.Germ(comps)
    return germnf.family_to_json(germnf.Family([germnf.conjugate(g, psi) for g in fam.germs]))


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def _gaussian_prime(rng: random.Random) -> tuple[int, int]:
    """a + bi with a^2 + b^2 a rational prime near 10^6."""
    while True:
        q = rng.randrange(900_000, 1_100_000)
        if q % 4 == 1 and _is_prime(q):
            for a in range(1, math.isqrt(q) + 1):
                b = math.isqrt(q - a * a)
                if a * a + b * b == q:
                    return a, b


def large_height_eigen(rng: random.Random, p: int) -> dict:
    """n=4; each entry is a product or quotient of two of four Gaussian
    primes of norm about 10^6."""
    primes = [_gaussian_prime(rng) for _ in range(4)]
    mu = []
    for _ in range(p):
        row = []
        for _ in range(4):
            (a, b), (c, d) = rng.sample(primes, 2)
            if rng.random() < 0.5:
                z = (Fraction(a * c - b * d), Fraction(a * d + b * c))
            else:
                norm = c * c + d * d
                z = (Fraction(a * c + b * d, norm), Fraction(b * c - a * d, norm))
            row.append(_text(z))
        mu.append(row)
    return {"schema": 1, "mu": mu}


def small_height_eigen(rng: random.Random, p: int, n: int, height: int) -> dict:
    return {"schema": 1, "mu": [[_eigenvalue(rng, height) for _ in range(n)] for _ in range(p)]}


def _distinct_eigenvalues(data: dict) -> int:
    """Distinct eigenvalues of an input: mu entries, diagonal linear parts, or
    u +- v*i and the tail of a rotation-scaling linear part."""
    if "mu" in data:
        return len({z for row in data["mu"] for z in row})
    values = set()
    for entry in data["maps"]:
        if "linear_diag" in entry:
            values.update(entry["linear_diag"])
            continue
        mat = [[Fraction(x) for x in row] for row in entry["linear_matrix"]]
        t = 0
        while t < len(mat):
            if t + 1 < len(mat) and mat[t][t + 1]:
                u, v = mat[t][t], mat[t + 1][t]
                values.update({_text((u, v)), _text((u, -v))})
                t += 2
            else:
                values.add(str(mat[t][t]))
                t += 1
    return len(values)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WHY = {
    "normalize": "builds normal forms: germ inversion, composition and conjugation "
                 "over series and Q(i) do the work; factoring and classify do almost none",
    "integrals": "reads and checks normal forms: field_kernel over Q(i) dominates "
                 "first-integrals, verify exercises the certificate; no germ inversion",
    "eigen": "eigenvalue data only, no series work: factoring, HNF and the classify "
             "deciders do everything, including analyze ops that do not finish at the seed",
}


def build(seed: int) -> dict[str, list[tuple[str, dict, list[tuple[str, list[str]]]]]]:
    """{workload: [(input name, input JSON, [(command, extra args)])]}."""
    germnf, normalform = _import_germnf()
    rng = random.Random(seed)
    out: dict[str, list] = {"normalize": [], "integrals": [], "eigen": []}

    for k in range(3):
        out["normalize"].append((f"dense_p1-{k}", dense_p1(rng), [("normalize", [])]))
    for k in range(4):
        n, degree = (4, 6) if k % 2 == 0 else (3, 5)
        fam = conjugated_p2(germnf, normalform, rng, n, degree)
        out["normalize"].append((f"conj_p2-{k}", fam, [("normalize", [])]))
    for k in range(3):
        out["normalize"].append((f"real_block-{k}", real_block(rng), [("realcase", [])]))

    for k in range(6):
        p, n, degree = ((2, 4, 6), (2, 3, 6), (1, 3, 6))[k % 3]
        fam = germnf.family_to_json(integrable_nf(germnf, normalform, rng, p, n, degree))
        ops = [("first-integrals", ["--degree", str(degree)]), ("verify", [])]
        out["integrals"].append((f"inf_p{p}_n{n}-{k}", fam, ops))

    # analyze on the large-height p=2 file does not finish and is killed at its
    # CPU limit in every pass, so there is one such file.  Small heights stay at
    # 3: at heights 5-9 single analyze ops took up to 25 s, and the limit must
    # stay well above the slowest analyze that finishes.
    eigen_ops = [("lattice", []), ("analyze", [])]
    out["eigen"].append(("large_p2-0", large_height_eigen(rng, 2), eigen_ops))
    for k in range(5):
        out["eigen"].append((f"large_p1-{k}", large_height_eigen(rng, 1), eigen_ops))
    for k in range(5):
        out["eigen"].append((f"small_p2-{k}", small_height_eigen(rng, 2, 3, 3), eigen_ops))
    return out


def write(seed: int) -> None:
    if CORPUS.exists():
        shutil.rmtree(CORPUS)
    for workload, inputs in build(seed).items():
        folder = CORPUS / workload
        folder.mkdir(parents=True)
        ops = []
        for name, data, commands in inputs:
            path = folder / f"{name}.json"
            path.write_text(json.dumps(data, sort_keys=True) + "\n")
            for command, args in commands:
                ops.append({
                    "id": f"{name}.{command}",
                    "command": command,
                    "input": path.relative_to(HERE).as_posix(),
                    "args": args,
                    "kind": name.split("-")[0],
                    "distinct_eigenvalues": _distinct_eigenvalues(data),
                })
        manifest = {"workload": workload, "why": WHY[workload], "seed": seed, "ops": ops}
        (CORPUS / f"{workload}.json").write_text(json.dumps(manifest, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    write(parser.parse_args().seed)


if __name__ == "__main__":
    main()
