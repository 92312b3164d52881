"""Command-line front end.

Commands operate on a family JSON file (schema 1) or, where only the
linear data matters, an eigenvalue file {"schema": 1, "mu": [["-2","1/2"]]}.
Reports are canonical JSON: sorted keys and graded-lex term order, so two
runs with the same config produce byte-identical output apart from the
timing field.  One recursive writer, `_json_text`, prints a report as
json.dumps(report, sort_keys=True, indent=2) would, byte for byte, without
the pure-Python encoder that an indent selects: strings go through the C
`encode_basestring_ascii`, ints through `int.__repr__`, and a list of ints
(exponents, lattice vectors) is one join.  Exit codes: 0 definite (and
`--help`), 1 a usage or input error or an unwritable --output, 2 some
verdict of the payload indeterminate, 3 an internal verification failed.

Each command returns its payload and the jet degree it used, which the
report's config echoes: the family's degree for family input, min(--degree,
D) for first-integrals, and --degree for eigen input.

The CLI holds no verdict logic: `analyze` serializes what `classify`
decides.  A command builds one `EigenData` from its input and passes that
one object to every lattice, Omega and decider call, so each distinct
eigenvalue is factored once per command and the relation lattice computed
once; nothing is kept between commands.  `--bound-omega` shapes only the
Omega walk: `lattice`'s listing and `analyze`'s `vect_omega_rank`; no
verdict reads it.  Certified interval evaluation has one precision budget,
GERMNF_PRECISION_BITS (see `exactnum.precision_cap`); there is no option
for it, and an indeterminate rank verdict reports the cap in
`bounds_used.max_bits`.

Commutation is checked once per command: `first-integrals`, `analyze` and
`lattice` check every pair of the input at load (`germ.require_commuting`);
`normalize`, `realcase` and `verify` show it at the end by an ok integrable
certificate or one check of the normal form (for `verify`, the input), see
`_commutation_once`.  `realcase` is the one real-case route: it checks
realness only at its two ends, which shows rho-equivariance in between (see
`normalform.realify_normal_form`); `normalize` knows no real structure.

A process compiles what its command runs.  Importing `cli` loads the
package (`exactnum`, `linalg`, `series`, `germ`, `resonance`), which every
command reads its input with.  `classify` runs on its first use, which only
`analyze` makes; `normalform` on its first use, which `normalize`,
`realcase`, `first-integrals`, `verify` and `generate` make, and `lattice`
and `analyze` never do.  `_on_first_use` puts each one in sys.modules under
importlib's LazyLoader, or returns the module already there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .exactnum import DomainError, IndeterminateError
from .germ import (
    CommutationError,
    Family,
    check_schema,
    family_from_json,
    family_to_json,
    germ_to_json,
    require_commuting,
)
from .resonance import EigenData, enumerate_omega, resonant_set, vect_omega_rank
from .series import UsageError


def _on_first_use(name: str):
    """germnf.<name> as it is in sys.modules, or else put there and on the
    package as import would, to run on its first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


classify = _on_first_use("classify")
normalform = _on_first_use("normalform")


MAX_BOUND_OMEGA = 1000  # the walk's cost grows faster than the bound


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"input must be a JSON object, got {type(data).__name__}")
    return data, hashlib.sha256(raw).hexdigest()


def _load_family(data) -> Family:
    try:
        return family_from_json(data)
    except (UsageError, DomainError, ValueError) as exc:
        raise UsageError(f"bad family input: {exc}")


def _commutation_once(command):
    """Run `command(fam, data, args)` on the loaded family and show
    commutation once.  The command returns its payload and None when an
    integrable certificate is ok, else the family to check: the normal form
    Phi', or for `verify` the input.  On any error, or if that family does
    not commute, the input is checked first, so input that does not commute
    keeps its load error; else the error is re-raised, a failing Phi' as an
    AssertionError.

    Why this suffices.  Conjugation is an automorphism of the group of
    D-jets, so Phi' commutes iff Phi does.  For an ok certificate write
    Phi_jm = mu_jm x_m u_jm, u = 1 + phi.  gamma -> prod_k u_jk^gamma_k is a
    homomorphism into the units mod m^D, trivial on the certificate's basis,
    so on all of the relation lattice L.  Each phi_im is supported on L and
    x^beta o Phi_j = x^beta prod_k u_jk^beta_k, so phi_im o Phi_j = phi_im
    mod m^D and (Phi_i o Phi_j)_m = mu_im mu_jm x_m u_im u_jm mod m^(D+1),
    symmetric in i and j."""
    def checked(data, args):
        fam = _load_family(data)
        try:
            payload, unproven = command(fam, data, args)
            if unproven is not None:
                require_commuting(unproven)
        except Exception as exc:
            require_commuting(fam)  # raises when the input does not commute
            if isinstance(exc, CommutationError):
                raise AssertionError(f"the normal form does not commute, though its input does: {exc}")
            raise
        return payload, fam.degree
    return checked


def _load_eigen(data) -> EigenData:
    """Eigen input is strict: only the keys schema and mu, and each
    eigenvalue a string in GaussianRational.parse form or an integer (not a
    bool); floats and other JSON values are rejected, never converted."""
    check_schema(data)
    for key in data:
        if key not in ("schema", "mu"):
            raise UsageError(f"unknown field {key!r} in eigen input")
    if "mu" not in data:
        raise UsageError("eigen input needs a 'mu' field")
    rows = data["mu"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise UsageError(f"mu must be a list of rows, got {rows!r}")
    for row in rows:
        for z in row:
            if isinstance(z, bool) or not isinstance(z, (int, str)):
                raise UsageError(f"eigenvalue must be a string or an integer, got {z!r}")
    try:
        return EigenData.from_rows(rows)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"bad eigen input: {exc}")


def _eigen_from_input(data) -> tuple[EigenData, Family | None]:
    """The eigen data of a family or eigen file, and the family if it is one."""
    if "maps" in data:
        fam = require_commuting(_load_family(data))
        return _family_eigen(fam, "this command"), fam
    return _load_eigen(data), None


def _family_eigen(fam: Family, task: str) -> EigenData:
    """The command's one EigenData for a family with diagonal linear parts;
    other families are refused with a message naming the task."""
    if not fam.is_diagonal_linear():
        raise UsageError(f"{task} requires diagonal linear parts")
    return EigenData.from_family(fam)


def _omega_bound(args) -> int:
    """--bound-omega (default 2 * --degree), refused above MAX_BOUND_OMEGA."""
    bound = args.bound_omega or 2 * args.degree
    if bound > MAX_BOUND_OMEGA:
        raise UsageError(f"Omega bound {bound} is above the cap {MAX_BOUND_OMEGA}")
    return bound


def _indeterminate_in(payload) -> bool:
    """Does some verdict in the payload read indeterminate?"""
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


def _cmd_lattice(data, args) -> tuple[dict, int]:
    bound = _omega_bound(args)
    eigen, fam = _eigen_from_input(data)
    omega = enumerate_omega(eigen, bound)
    rank_enum, rank_lat = vect_omega_rank(eigen, bound)
    payload = {
        "basis": eigen.lattice.to_json(),
        "omega_points": [list(pt) for pt in omega],
        "bound": bound,
        "rank_enumerated": rank_enum,
        "rank_lattice": rank_lat,
        "resonant_sets": [
            resonant_set(eigen, m, bound).to_json() for m in range(1, eigen.n + 1)
        ],
    }
    return payload, fam.degree if fam else args.degree


def _cmd_analyze(data, args) -> tuple[dict, int]:
    bound = _omega_bound(args)
    eigen, fam = _eigen_from_input(data)
    rank_enum, rank_lat = vect_omega_rank(eigen, bound)
    payload = {
        "lattice_basis": eigen.lattice.to_json(),
        "vect_omega_rank": {"enumerated": rank_enum, "lattice": rank_lat, "bound": bound},
        "projectively_hyperbolic": classify.is_projectively_hyperbolic(eigen).to_json(),
        "weakly_resonant": classify.weak_resonance(eigen).to_json(),
        "infinitesimal_generators": classify.find_infinitesimal_generators(eigen).to_json(),
        "hyperbolic": classify.is_hyperbolic(eigen).to_json(),
        "weakly_hyperbolic": classify.is_weakly_hyperbolic(eigen).to_json(),
        "normal_form_hypothesis": classify.normal_form_hypothesis(eigen).to_json(),
    }
    if fam is not None:
        payload["nondegenerate"] = classify.is_nondegenerate(eigen).to_json()
    if eigen.p == 1:
        payload["poincare_type"] = classify.poincare_type_single(eigen).to_json()
    return payload, fam.degree if fam else args.degree


@_commutation_once
def _cmd_normalize(fam, data, args) -> tuple[dict, Family | None]:
    eigen = _family_eigen(fam, "normalization")
    result = normalform.poincare_dulac_normalize(fam, eigen)
    payload = result.to_json()
    division = normalform.division_check(result.normalized)
    if division.ok:
        payload["certificate"] = normalform.extract_integrable_certificate(result.normalized, eigen).to_json()
    else:
        payload["certificate"] = {"ok": False, "division": division.to_json()}
    return payload, None if payload["certificate"]["ok"] else result.normalized


def _cmd_first_integrals(data, args) -> tuple[dict, int]:
    fam = require_commuting(_load_family(data))
    degree = min(args.degree, fam.degree)
    basis = normalform.first_integrals(fam, degree)
    payload = {
        "degree": degree,
        "basis": [series.to_term_list() for series in basis],
        "dimension": len(basis),
    }
    return payload, degree


@_commutation_once
def _cmd_verify(fam, data, args) -> tuple[dict, Family | None]:
    eigen = _family_eigen(fam, "PD-NF verification")
    offender = normalform.verify_pd_nf(fam, eigen)
    division = normalform.division_check(fam)
    payload = {"pd_normal_form": {"ok": offender is None}, "division": division.to_json()}
    if offender is not None:
        germ, component, exps = offender
        payload["pd_normal_form"]["offending"] = {"germ": germ, "component": component, "exponents": list(exps)}
    if offender is None and division.ok:
        payload["certificate"] = normalform.extract_integrable_certificate(fam, eigen).to_json()
    return payload, None if payload.get("certificate", {}).get("ok") else fam


def _cmd_generate(data, args) -> tuple[dict, int]:
    eigen, _ = _eigen_from_input(data)
    fam = normalform.generate_integrable_nf(eigen, eigen.lattice, args.degree, args.seed)
    cert = normalform.extract_integrable_certificate(fam, eigen)
    return {"family": family_to_json(fam), "certificate_ok": cert.ok, "seed": args.seed}, args.degree


@_commutation_once
def _cmd_realcase(fam, data, args) -> tuple[dict, Family | None]:
    complex_fam, p, sigma = normalform.complexify_real_family(fam)
    result = normalform.poincare_dulac_normalize(complex_fam, EigenData.from_family(complex_fam))
    realified, conjugator = normalform.realify_normal_form(result.normalized, result.psi, p)
    payload = {
        "pairing": [m + 1 for m in sigma],
        "complexified": family_to_json(complex_fam),
        "real_normal_form": family_to_json(realified),
        "real_conjugator": germ_to_json(conjugator),
        "real_conjugator_is_real": True,  # realify_normal_form checked it
        "eliminations": [rec.to_json() for rec in result.eliminations],
    }
    return payload, result.normalized


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
    fam = family_from_json(data)
    return [f"Phi_{i + 1} = {g}" for i, g in enumerate(fam.germs)]


def _render_text(report: dict) -> str:
    lines = [f"germnf {report['version']} — {report['command']}"]

    def flat(value):  # a list with no dict or list inside, as one line [a, b]; else None
        if isinstance(value, list) and not any(isinstance(v, (dict, list)) for v in value):
            return f"[{', '.join(map(str, value))}]"

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            if obj.get("schema") == 1 and "maps" in obj:
                for text in _family_text(obj):
                    lines.append(f"{pad}{text}")
                return
            for key in sorted(obj):
                value = obj[key]
                if (text := flat(value)) is not None:
                    lines.append(f"{pad}{key}: {text}")
                elif isinstance(value, (dict, list)) and value:
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):  # one "- " per item
            for value in obj:
                if (text := flat(value)) is not None:
                    lines.append(f"{pad}- {text}")
                elif isinstance(value, (dict, list)) and value:
                    start = len(lines)
                    walk(value, indent + 1)
                    lines[start] = f"{pad}- {lines[start][len(pad) + 2:]}"
                else:
                    lines.append(f"{pad}- {value}")

    walk(report["payload"])
    return "\n".join(lines) + "\n"


def _json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for JSON data whose
    objects have string keys; newline is the line break and indentation
    that obj's closing bracket sits at.  Short strings and ints in objects,
    most of a report, are written without a call of their own."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            value = obj[key]
            kind = type(value)
            if kind is str:
                text = encode_basestring_ascii(value)
            elif kind is int:
                text = int.__repr__(value)
            else:
                text = _json_text(value, inner)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj)  # null, true, false, a float, or a str or int subclass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, as input errors do: 2 means indeterminate
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="germnf",
        description="Exact normal forms and integrability certificates for commuting germs",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("input", help="input JSON file (family or eigen data)")
    parser.add_argument("--degree", type=int, default=4, help="truncation degree (default 4)")
    parser.add_argument("--bound-omega", type=int, default=None,
                        help="degree bound of lattice's Omega and resonant-set listings and of "
                             "analyze's vect_omega_rank (default 2*degree)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


_PARSER = build_parser()  # built once: building costs more than a small command


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.degree < 2:
        _PARSER.error("--degree must be >= 2")
    if args.bound_omega is not None and args.bound_omega < 1:
        _PARSER.error("--bound-omega must be positive")
    started = time.monotonic()
    try:
        data, digest = _load_json(args.input)
        payload, degree = _COMMANDS[args.command](data, args)
        report = {
            "version": __version__,
            "command": args.command,
            "input_digest": digest,
            "config": {
                "degree": degree,
                "bound_omega": args.bound_omega or 2 * args.degree,
                "seed": args.seed,
            },
            "payload": payload,
            "timing_seconds": round(time.monotonic() - started, 6),
        }
        text = _json_text(report) + "\n" if args.format == "json" else _render_text(report)
    except (UsageError, DomainError, CommutationError) as exc:
        prefix = "bad family input: " if isinstance(exc, CommutationError) else ""  # only the input's gets here
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 1
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal verification failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # an int in the input JSON or a report past the interpreter's digit guard
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an integer exceeds the {sys.get_int_max_str_digits()}-digit int/str limit", file=sys.stderr)
        return 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    # only analyze builds verdicts; the other payloads are not walked
    return 2 if args.command == "analyze" and _indeterminate_in(payload) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
