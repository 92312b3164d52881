"""Command-line front end.

Commands operate on a family JSON file (schema 1) or, where only the
linear data matters, an eigenvalue file {"schema": 1, "mu": [["-2","1/2"]]}.
Reports are canonical JSON: sorted keys and graded-lex term order, so two
runs with the same config produce byte-identical output apart from the
timing field.  Exit codes: 0 definite, 1 usage/input error,
2 indeterminate verdicts present.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .exactnum import DomainError, IndeterminateError
from .germ import CommutationError, Family, family_from_json, family_to_json, germ_to_json
from .resonance import (
    EigenContext,
    EigenData,
    enumerate_omega,
    relation_lattice,
    resonant_set,
    vect_omega_rank,
)
from .series import UsageError
from . import classify
from . import normalform


class _InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read input: {exc}")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _InputError(f"malformed JSON in {path}: {exc}")
    return data, hashlib.sha256(raw).hexdigest()


def _load_family(data) -> Family:
    try:
        return family_from_json(data)
    except (UsageError, DomainError, CommutationError, KeyError, ValueError) as exc:
        raise _InputError(f"bad family input: {exc}")


def _load_eigen(data) -> EigenData:
    if data.get("schema") != 1:
        raise _InputError("missing or unsupported schema field (expected 1)")
    if "mu" not in data:
        raise _InputError("eigen input needs a 'mu' field")
    try:
        return EigenData.from_rows(data["mu"])
    except (UsageError, ValueError) as exc:
        raise _InputError(f"bad eigen input: {exc}")


def _eigen_from_input(data) -> EigenData:
    if "maps" in data:
        fam = _load_family(data)
        if not fam.is_diagonal_linear():
            raise _InputError("this command needs diagonal linear parts")
        return EigenData.from_family(fam)
    return _load_eigen(data)


def _indeterminate_in(payload) -> bool:
    if isinstance(payload, dict):
        if payload.get("verdict") == "indeterminate":
            return True
        return any(_indeterminate_in(v) for v in payload.values())
    if isinstance(payload, list):
        return any(_indeterminate_in(v) for v in payload)
    return False


# ---------------------------------------------------------------------------
# command payloads
# ---------------------------------------------------------------------------


def _cmd_lattice(data, args) -> dict:
    eigen = _eigen_from_input(data)
    ctx = EigenContext(eigen)
    lat = ctx.lattice
    bound = args.bound_omega or 2 * args.degree
    omega = enumerate_omega(ctx, bound)
    rank_enum, rank_lat = vect_omega_rank(lat, bound)
    payload = {
        "basis": lat.to_json(),
        "omega_points": [list(pt) for pt in omega.points],
        "bound": bound,
        "rank_enumerated": rank_enum,
        "rank_lattice": rank_lat,
        "resonant_sets": [
            resonant_set(ctx, m, bound).to_json() for m in range(1, eigen.n + 1)
        ],
    }
    return payload


def _cmd_analyze(data, args) -> dict:
    eigen = _eigen_from_input(data)
    ctx = EigenContext(eigen)
    lat = ctx.lattice
    bound = args.bound_omega or 2 * args.degree
    rank_enum, rank_lat = vect_omega_rank(lat, bound)
    branch, gen_info = None, None
    try:
        branch, gen_info = classify.find_infinitesimal_generators(
            ctx, branch_bound=args.bound_branch, omega_bound=bound
        )
    except IndeterminateError as exc:
        gen_info = {"indeterminate": str(exc)}
    payload = {
        "lattice_basis": lat.to_json(),
        "vect_omega_rank": {"enumerated": rank_enum, "lattice": rank_lat, "bound": bound},
        "projectively_hyperbolic": classify.is_projectively_hyperbolic(ctx).to_json(),
        "weakly_resonant": classify.weak_resonance(ctx).to_json(),
        "infinitesimal_generators": (
            {"found": branch.to_json(), **(gen_info or {})}
            if branch is not None
            else {"found": None, **(gen_info or {})}
        ),
        "hyperbolic": classify.is_hyperbolic(ctx).to_json(),
        "weakly_hyperbolic": classify.is_weakly_hyperbolic(ctx).to_json(),
        "normal_form_hypothesis": classify.normal_form_hypothesis(
            ctx, branch_bound=args.bound_branch
        ).to_json(),
    }
    if "maps" in data:
        fam = _load_family(data)
        payload["nondegenerate"] = classify.is_nondegenerate(
            fam, omega_bound=bound, context=ctx
        ).to_json()
    if eigen.p == 1:
        payload["poincare_type"] = _poincare_type(ctx, bound, args.bound_torsion)
    return payload


def _poincare_type(ctx: EigenContext, bound: int, torsion_bound: int) -> dict:
    """The p = 1 Poincare-type verdict.  Too few independent first-integral
    exponents fail the hypothesis exactly when the relation lattice itself
    has rank below n - 1, and leave it undecided when only the bounded
    enumeration fell short."""
    try:
        verdict = classify.poincare_type_single(
            ctx, enumerate_omega(ctx, bound), torsion_bound=torsion_bound
        )
    except UsageError as exc:
        needed = ctx.eigen.n - 1
        if ctx.lattice.rank < needed:
            return classify.Verdict(
                classify.VerdictValue.NO, {"lattice_rank": ctx.lattice.rank, "needed": needed}
            ).to_json()
        return {"verdict": "indeterminate", "reason": str(exc)}
    entry = verdict.to_json()
    if verdict.yes:
        entry["witness"] = verdict.witness.to_json()
    return entry


def _cmd_normalize(data, args) -> dict:
    fam = _load_family(data)
    pairing = None
    if args.rho_equivariant:
        if "pairing" not in data:
            raise _InputError("--rho-equivariant needs a 'pairing' field (1-based involution)")
        pairing = [int(v) - 1 for v in data["pairing"]]
    result = normalform.poincare_dulac_normalize(fam, rho_pairing=pairing)
    payload = result.to_json()
    eigen = EigenData.from_family(fam)
    lat = relation_lattice(eigen)
    if normalform.division_check(result.normalized).ok:
        payload["certificate"] = normalform.extract_integrable_certificate(
            result.normalized, lat
        ).to_json()
    else:
        payload["certificate"] = {
            "ok": False,
            "division": normalform.division_check(result.normalized).to_json(),
        }
    return payload


def _cmd_first_integrals(data, args) -> dict:
    fam = _load_family(data)
    basis = normalform.first_integrals(fam, min(args.degree, fam.degree))
    return {
        "degree": min(args.degree, fam.degree),
        "basis": [series.to_term_list() for series in basis],
        "dimension": len(basis),
    }


def _cmd_verify(data, args) -> dict:
    fam = _load_family(data)
    offender = normalform.verify_pd_nf(fam)
    division = normalform.division_check(fam)
    payload = {
        "pd_normal_form": {"ok": offender is None},
        "division": division.to_json(),
    }
    if offender is not None:
        payload["pd_normal_form"]["offending"] = {
            "germ": offender[0],
            "component": offender[1],
            "exponents": list(offender[2]),
        }
    if offender is None and division.ok:
        eigen = EigenData.from_family(fam)
        lat = relation_lattice(eigen)
        payload["certificate"] = normalform.extract_integrable_certificate(fam, lat).to_json()
    return payload


def _cmd_generate(data, args) -> dict:
    eigen = _eigen_from_input(data)
    lat = relation_lattice(eigen)
    fam = normalform.generate_integrable_nf(eigen, lat, args.degree, args.seed)
    cert = normalform.extract_integrable_certificate(fam, lat)
    return {
        "family": family_to_json(fam),
        "certificate_ok": cert.ok,
        "seed": args.seed,
    }


def _cmd_realcase(data, args) -> dict:
    fam = _load_family(data)
    complex_fam, p_germ, sigma = normalform.complexify_real_family(fam)
    result = normalform.poincare_dulac_normalize(complex_fam, rho_pairing=sigma)
    realified = normalform.realify_normal_form(result.normalized, sigma)
    from .germ import compose_germ, invert_germ

    conjugator = compose_germ(compose_germ(p_germ, result.psi), invert_germ(p_germ))
    real_ok = all(
        c.im == 0 for comp in conjugator.components for _, c in comp.items()
    )
    return {
        "pairing": [m + 1 for m in sigma],
        "complexified": family_to_json(complex_fam),
        "real_normal_form": family_to_json(realified),
        "real_conjugator": germ_to_json(conjugator),
        "real_conjugator_is_real": real_ok,
        "eliminations": [rec.to_json() for rec in result.eliminations],
    }


_COMMANDS = {
    "analyze": _cmd_analyze,
    "normalize": _cmd_normalize,
    "lattice": _cmd_lattice,
    "first-integrals": _cmd_first_integrals,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
    "realcase": _cmd_realcase,
}


def _family_text(data: dict) -> list[str]:
    fam = family_from_json(data, check_commuting=False)
    return [f"Phi_{i + 1} = {g}" for i, g in enumerate(fam.germs)]


def _render_text(report: dict) -> str:
    lines = [f"germnf {report['version']} — {report['command']}"]

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            if obj.get("schema") == 1 and "maps" in obj:
                for text in _family_text(obj):
                    lines.append(f"{pad}{text}")
                return
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)) and value:
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, (dict, list)):
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}- {value}")

    walk(report["payload"])
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germnf",
        description="Exact normal forms and integrability certificates for commuting germs",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("input", help="input JSON file (family or eigen data)")
    parser.add_argument("--degree", type=int, default=4, help="truncation degree (default 4)")
    parser.add_argument("--bound-omega", type=int, default=None,
                        help="enumeration bound for Omega (default 2*degree)")
    parser.add_argument("--bound-branch", type=int, default=10,
                        help="max |b| entries in branch searches")
    parser.add_argument("--bound-torsion", type=int, default=64,
                        help="torsion order search bound")
    parser.add_argument("--rho-equivariant", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.degree < 2:
        parser.error("--degree must be >= 2")
    for name in ("bound_omega", "bound_branch", "bound_torsion"):
        value = getattr(args, name)
        if value is not None and value < 1:
            parser.error(f"--{name.replace('_', '-')} must be positive")
    started = time.monotonic()
    try:
        data, digest = _load_json(args.input)
        payload = _COMMANDS[args.command](data, args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, DomainError, CommutationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    report = {
        "version": __version__,
        "command": args.command,
        "input_digest": digest,
        "config": {
            "degree": args.degree,
            "bound_omega": args.bound_omega or 2 * args.degree,
            "bound_branch": args.bound_branch,
            "bound_torsion": args.bound_torsion,
            "rho_equivariant": args.rho_equivariant,
            "seed": args.seed,
        },
        "payload": payload,
        "timing_seconds": round(time.monotonic() - started, 6),
    }
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 2 if _indeterminate_in(payload) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
