"""Command-line front end: deterministic, machine-readable pipelines.

Subcommands: rootsys, hess, mc, polybasis, hessdefs, selftest.  Output is
JSON (default), CSV or pretty text; byte-identical across runs for the
same configuration and seed.  Errors are reported as structured JSON on
stdout with a nonzero exit code.  The environment variable MCLAB_MAX_RANK
caps Hessenberg enumeration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction as Q

from . import hessdefs as hd
from . import hessenberg as hb
from . import mcfields as mc
from . import polybasis as pb
from .liealg import (LieAlgebraError, build_sl, build_sp, default_chart,
                     matrix_chart)
from .poly import Poly
from .rootsys import RootSystemError, build_root_system

_ALIASES = "abcd"


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def parse_root_token(rs, token: str) -> int:
    """A positive root, as a coefficient string ('110') or, for rank <= 4,
    an alias expression over the simple roots 'a'-'d' like 'a', 'a+b',
    '2a+b'."""
    token = token.strip()
    if token.isdigit() and len(token) == rs.rank:
        coeffs = tuple(int(ch) for ch in token)
    else:
        coeffs = [0] * rs.rank
        if rs.rank > len(_ALIASES):
            raise CliError(
                f"cannot parse root token {token!r}: root aliases "
                f"a-{_ALIASES[-1]} work up to rank {len(_ALIASES)}; give "
                f"{rs.rank} simple-root coefficients, like {'1' * rs.rank!r}")
        for part in token.replace("-", "+-").split("+"):
            part = part.strip()
            if not part:
                continue
            mult = 1
            while part and (part[0].isdigit() or part[0] == "-"):
                if part[0] == "-":
                    mult = -mult
                    part = part[1:]
                else:
                    mult *= int(part[0])
                    part = part[1:]
            if len(part) != 1 or part not in _ALIASES[:rs.rank]:
                raise CliError(f"cannot parse root token {token!r}")
            coeffs[_ALIASES.index(part)] += mult
        coeffs = tuple(coeffs)
    rid = rs.id_of(coeffs)
    if rid is None or rid >= rs.n_pos:
        raise CliError(f"{token!r} is not a positive root here")
    return rid


def _parse_token(flag: str, token: str, parse):
    """parse(token), or a CliError naming the flag and the token."""
    try:
        return parse(token)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag}: cannot parse {token!r}") from None


def parse_hessenberg_spec(rs, spec: str):
    """'type-p', 'all', or a comma-separated list of positive roots."""
    spec = spec.strip()
    if spec == "all":
        return "all"
    if spec.startswith("type-"):
        p = _parse_token("--hessenberg", spec, lambda t: int(t[5:]))
        return hb.type_p_subset(rs, p)
    ids = {parse_root_token(rs, tok) for tok in spec.split(",") if tok.strip()}
    return hb.validate(rs, ids)


def parse_h_spec(algebra, spec: str):
    """Cartan element: 'standard', diagonal entries, or Cartan coefficients."""
    spec = spec.strip()
    if spec == "standard":
        if algebra.family == "sl" and algebra.param == 4:
            spec = "-1,1/2,-1/2,1"
        else:
            raise CliError("no named default Cartan element for this algebra")
    vals = [_parse_token("--H", tok.strip(), Q)
            for tok in spec.split(",") if tok.strip()]
    if len(vals) == algebra.rank:
        return tuple(vals)
    if algebra.family == "sl" and len(vals) == algebra.param:
        if sum(vals) != 0:
            raise CliError("diagonal entries of an sl element must sum to 0")
        return tuple(sum(vals[:i + 1], Q(0)) for i in range(algebra.rank))
    raise CliError(
        f"Cartan spec needs {algebra.rank} coefficients"
        + (f" or {algebra.param} diagonal entries" if algebra.family == "sl"
           else ""))


def algebra_for(family: str, rank: int):
    family = family.upper()
    if family == "A":
        return build_sl(rank + 1)
    if family == "C":
        return build_sp(rank)
    raise CliError(f"family {family} has no matrix realization here "
                   "(combinatorial commands still apply)")


def max_rank_cap() -> int:
    text = os.environ.get("MCLAB_MAX_RANK", "4")
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise CliError(
            f"MCLAB_MAX_RANK must be a positive integer, got {text!r}")
    return cap


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii
# a list of one of these types is written in one join
_SCALAR_WRITERS = {str: _quote, int: int.__repr__}


def dump_json(value, indent: str = "\n") -> str:
    """``value`` as JSON with sorted keys, a two-space indent, ``","``
    between items and ``": "`` after keys, byte for byte as the standard
    library's encoder writes it with that indent (in pure Python).  It
    writes dicts with string keys, lists, strings, ints, bools and None;
    any other type raises ``TypeError``.  ``indent`` is the line break and
    indentation before the value's closing bracket."""
    t = type(value)
    if t is str:
        return _quote(value)
    if t is dict or t is list:
        if not value:
            return "{}" if t is dict else "[]"
        inner = indent + "  "
        sep = "," + inner
        if t is dict:
            body = sep.join(_quote(k) + ": " + dump_json(value[k], inner)
                            for k in sorted(value))
            return "{" + inner + body + indent + "}"
        first = type(value[0])
        write = _SCALAR_WRITERS.get(first)
        if write is not None and all(type(x) is first for x in value):
            body = sep.join(map(write, value))
        else:
            body = sep.join(dump_json(x, inner) for x in value)
        return "[" + inner + body + indent + "]"
    if value is None:
        return "null"
    if t is bool:
        return "true" if value else "false"
    if t is int:
        return int.__repr__(value)
    raise TypeError(f"cannot write {t.__name__} as JSON")


def emit(payload: dict, fmt: str, out_path: str | None,
         csv_rows=None, pretty_lines=None) -> None:
    """Write the one form ``fmt`` asks for.  ``csv_rows`` and
    ``pretty_lines`` are generator functions of the CSV rows and the
    pretty lines, so only the form written is ever built."""
    if fmt == "json":
        text = dump_json(payload) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise CliError("this subcommand has no CSV form")
        text = "\n".join(",".join(str(c) for c in row)
                         for row in csv_rows())
        text += "\n"
    elif fmt == "pretty":
        lines = (pretty_lines() if pretty_lines is not None
                 else [dump_json(payload)])
        text = "\n".join(lines) + "\n"
    else:
        raise CliError(f"unknown format {fmt!r}")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def config_dict(args, **extra) -> dict:
    cfg = {
        "command": args.command,
        "family": getattr(args, "family", None),
        "rank": getattr(args, "rank", None),
        "format": args.format,
        "seed": getattr(args, "seed", None),
    }
    cfg.update(extra)
    return {k: v for k, v in cfg.items() if v is not None}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rootsys(args) -> dict:
    rs = build_root_system(args.family, args.rank)
    od = rs.omega_decompose()
    payload = {
        "config": config_dict(args),
        "root_system": rs.to_json_dict(),
        "heights": {rs.root_name(r.id): r.height for r in rs.positive_roots},
        "omega": rs.root_name(rs.highest_root.id),
        "decomposition": {
            "sigma_half": [rs.root_name(i) for i in sorted(od.sigma_half)],
            "sigma_0": [rs.root_name(i) for i in sorted(od.sigma0)],
            "sigma_1": [rs.root_name(i) for i in sorted(od.sigma1)],
        },
    }

    def csv_rows():
        yield ("name", "height", "coeffs")
        for r in rs.positive_roots:
            yield (rs.root_name(r.id), r.height,
                   " ".join(str(c) for c in r.coeffs))

    def pretty():
        yield (f"{args.family}{args.rank}: {rs.n_pos} positive roots, "
               f"omega = {rs.root_name(rs.highest_root.id)}")
        for r in rs.positive_roots:
            yield f"  {rs.root_name(r.id)}  ht {r.height}"

    return {"payload": payload, "csv": csv_rows, "pretty": pretty}


def _hess_reports(args, rs):
    spec = parse_hessenberg_spec(rs, args.hessenberg)
    if spec == "all":
        cap = max_rank_cap()
        if rs.rank > cap:
            raise CliError(f"rank {rs.rank} exceeds MCLAB_MAX_RANK={cap}")
        return [hb.analyze(h) for h in hb.enumerate_all(rs, cap)]
    return [hb.analyze(spec)]


def cmd_hess(args) -> dict:
    rs = build_root_system(args.family, args.rank)
    reports = _hess_reports(args, rs)
    payload = {
        "config": config_dict(args, hessenberg=args.hessenberg),
        "reports": [r.to_json_dict() for r in reports],
    }

    def csv_rows():
        yield ("R", "dim_slice", "dim_q", "dim_q_mod_nC", "dim_conjecture",
               "hypothesis_I", "hypothesis_II")
        for r in reports:
            yield (" ".join(rs.root_name(i) for i in sorted(r.hs.R)),
                   r.dims["dim_slice"], r.dims["dim_q"],
                   r.dims["dim_q_mod_nC"], r.dims["dim_conjecture"],
                   r.hypothesis_I, r.hypothesis_II)

    def pretty():
        for r in reports:
            yield "R = {" + ", ".join(rs.root_name(i)
                                      for i in sorted(r.hs.R)) + "}"
            for k, v in sorted(r.dims.items()):
                yield f"  {k} = {v}"
            yield f"  hypotheses: I={r.hypothesis_I} II={r.hypothesis_II}"

    return {"payload": payload, "csv": csv_rows, "pretty": pretty}


def cmd_mc(args) -> dict:
    alg = algebra_for(args.family, args.rank)
    rs = alg.rs
    chart = default_chart(alg)
    spec = parse_hessenberg_spec(rs, args.hessenberg)
    if spec == "all":
        raise CliError("mc needs one Hessenberg set, not 'all'")
    sol = mc.solve_mc(spec, chart, args.degree_bound)
    sol.compute_brackets()
    comparison = mc.compare_with_normalizer(spec, chart, sol)
    payload = {
        "config": config_dict(args, hessenberg=args.hessenberg,
                              degree_bound=sol.degree_bound),
        "solution": sol.to_json_dict(),
        "comparison": comparison.to_json_dict(),
        "algebra_summary": sol.algebra_summary(),
    }

    def csv_rows():
        yield ("field", "label", "polynomial")
        for i, f in enumerate(sol.basis):
            for g, p in sorted(f.components.items()):
                yield (i, rs.root_name(g), p.render(chart.var_names))

    def pretty():
        yield f"dimension {sol.dimension} (stabilized: {sol.stabilized})"
        yield f"normalizer image dimension {comparison.nu_dimension}"
        yield (f"equal: {comparison.equal}; conjecture dimension "
               f"{comparison.conjecture_dimension} "
               f"(matches: {comparison.conjecture_matches})")

    return {"payload": payload, "csv": csv_rows, "pretty": pretty}


def cmd_polybasis(args) -> dict:
    alg = algebra_for(args.family, args.rank)
    basis = pb.build_basis(alg)
    checks = pb.verify_against_oracle(basis)
    payload = {
        "config": config_dict(args),
        "basis": basis.to_json_dict(),
        "oracle_equal": checks,
    }

    def csv_rows():
        yield ("label", "polynomial", "oracle_equal")
        for k, p in sorted(basis.table.items()):
            yield (k, p.render(basis.chart.var_names), checks[k])

    def pretty():
        for k, p in sorted(basis.table.items()):
            yield f"{k}: {p.render(basis.chart.var_names)}"

    return {"payload": payload, "csv": csv_rows, "pretty": pretty}


def cmd_hessdefs(args) -> dict:
    alg = algebra_for(args.family, args.rank)
    rs = alg.rs
    spec = parse_hessenberg_spec(rs, args.hessenberg)
    if spec == "all":
        raise CliError("hessdefs needs one Hessenberg set, not 'all'")
    h_coeffs = None if args.symbolic else parse_h_spec(alg, args.H)
    chart = default_chart(alg)
    eqs = hd.defining_equations(alg, chart, spec, h_coeffs)
    cert = hd.smoothness_certificate(eqs)
    payload = {
        "config": config_dict(args, hessenberg=args.hessenberg,
                              H="symbolic" if args.symbolic else args.H),
        "equations": eqs.to_json_dict(),
        "certificate": cert.to_json_dict(eqs.var_names()),
    }
    if not args.symbolic:
        graph = hd.graph_map(eqs)
        payload["graph_map"] = {
            rs.root_name(a): p.render(chart.var_names)
            for a, p in sorted(graph.items())}
    names = eqs.var_names()

    def csv_rows():
        yield ("equation",) + tuple(chart.var_names)
        for a, row in zip(eqs.order, eqs.jacobian()):
            yield (rs.root_name(a),) + tuple(p.render(names) for p in row)

    def pretty():
        for a, p in sorted(eqs.polynomials.items()):
            yield f"{rs.root_name(a)}: {p.render(names)} = 0"
        yield (f"det = {cert.determinant.render(names)} "
               f"(identity holds: {cert.identity_holds})")
        for k, v in sorted(payload.get("graph_map", {}).items()):
            yield f"graph {k} = {v}"

    return {"payload": payload, "csv": csv_rows, "pretty": pretty}


def cmd_selftest(args) -> dict:
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool]] = []

    rs = build_root_system("A", 3)
    checks.append(("A3 has 6 positive roots", rs.n_pos == 6))
    checks.append(("C2 positive roots are a,b,a+b,2a+b",
                   [r.coeffs for r in build_root_system("C", 2).positive_roots]
                   == [(1, 0), (0, 1), (1, 1), (2, 1)]))

    sp2 = build_sp(2)
    hs = hb.validate(sp2.rs, {0, 1, 2})
    rep = hb.analyze(hs)
    checks.append(("C2 normalizer dims 6 and conjecture 8",
                   rep.dims["dim_q_mod_nC"] == 6
                   and rep.dims["dim_conjecture"] == 8))

    chart = matrix_chart(sp2)
    ok = True
    for _ in range(5):
        pts = [[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
               for _ in range(3)]
        left = chart.multiply(chart.multiply(pts[0], pts[1]), pts[2])
        right = chart.multiply(pts[0], chart.multiply(pts[1], pts[2]))
        ok = ok and left == right
    checks.append(("sp2 group law associativity (random rational points)", ok))

    sol = mc.solve_mc(hs, chart)
    checks.append(("C2 multicontact dimension 8", sol.dimension == 8))

    sl3 = build_sl(3)
    ch3 = matrix_chart(sl3)
    full = hb.validate(sl3.rs, set(range(sl3.rs.n_pos)))
    sol3 = mc.solve_mc(full, ch3)
    checks.append(("sl3 full-slice multicontact dimension 8",
                   sol3.dimension == 8))

    frame = [ch3.frame_field(r) for r in range(ch3.nvars)]
    xy = frame[0].bracket(frame[1]).to_invariant()
    checks.append(("sl3 frame bracket [X,Y] = U",
                   xy.components == {2: Poly.const(3, 1)}))

    payload = {
        "config": config_dict(args),
        "checks": [{"name": n, "passed": p} for n, p in checks],
        "passed": all(p for _, p in checks),
    }

    def csv_rows():
        yield ("check", "passed")
        yield from checks

    def pretty():
        for n, p in checks:
            yield ("PASS " if p else "FAIL ") + n
        yield "all passed" if payload["passed"] else "FAILURES present"

    return {"payload": payload, "csv": csv_rows, "pretty": pretty,
            "failed": not payload["passed"]}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it."""
    ap = argparse.ArgumentParser(
        prog="mclab",
        description="Exact multicontact/Hessenberg computations on split "
                    "semisimple Lie groups")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_rank=True):
        if with_rank:
            p.add_argument("family", choices=list("ABCD") + list("abcd"))
            p.add_argument("rank", type=int)
        p.add_argument("--format", choices=["json", "csv", "pretty"],
                       default="json")
        p.add_argument("--out", default=None, metavar="FILE")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rootsys", help="roots, heights, decomposition")
    common(p)

    p = sub.add_parser("hess", help="Hessenberg reports")
    common(p)
    p.add_argument("--hessenberg", required=True,
                   help="'type-p', 'all', or root list like a,b,a+b or 110,010")

    p = sub.add_parser("mc", help="multicontact solver + normalizer comparison")
    common(p)
    p.add_argument("--hessenberg", required=True)
    p.add_argument("--degree-bound", type=int, default=None)

    p = sub.add_parser("polybasis", help="highest-root component polynomials")
    common(p)

    p = sub.add_parser("hessdefs", help="defining equations and certificate")
    common(p)
    p.add_argument("--hessenberg", required=True)
    p.add_argument("--H", default="standard",
                   help="Cartan element: coefficients, sl diagonal, or "
                        "'standard'")
    p.add_argument("--symbolic", action="store_true",
                   help="keep the Cartan element symbolic")

    p = sub.add_parser("selftest", help="quick deterministic battery")
    common(p, with_rank=False)
    return ap


_HANDLERS = {
    "rootsys": cmd_rootsys,
    "hess": cmd_hess,
    "mc": cmd_mc,
    "polybasis": cmd_polybasis,
    "hessdefs": cmd_hessdefs,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
        # the form is built here, so its errors are reported like the rest
        emit(result["payload"], args.format, args.out,
             csv_rows=result.get("csv"), pretty_lines=result.get("pretty"))
    except (CliError, RootSystemError, LieAlgebraError, hb.HessenbergError,
            mc.McError, pb.PolyBasisError, hd.HessDefError, ValueError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 2
    return 1 if result.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
