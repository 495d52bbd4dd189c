"""Command-line front end.

Subcommands: analyze, rf, generic, relations, closure, verify. Every command
emits an output document {schema_version, command, payload}; --format picks
the rendering (text by default, json for scripting). The two renderings carry
identical payload data.

Exit codes:
  0  success (for `generic`: the semigroup is generic; for `verify`: no
     unexpected failure)
  1  semantic negative (`generic`: not generic; `verify`: a claim failed
     outside the pre-registered fixtures)
  2  invalid generators (gcd != 1, non-positive entries) or usage errors
  3  invalid --pf selection (not a pseudo-Frobenius number), or no PF
     elements are available for the request
  4  verify configuration errors (bad config file, unknown claim,
     oversized grid, unreadable or malformed fixtures file, unusable report
     directory or report file)
  5  RF enumeration exceeds the --max-rf safety cap
  74  stdout could not be written (`arfrf ... > /dev/full`)
  141  stdout closed before the output was written (`arfrf ... | head`)

Each command returns its exit code, payload and text lines; ``main`` alone
writes them and maps every failure to its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import itertools
import json
import os
import sys
from pathlib import Path

from . import verifier
from .errors import ArfrfError, NotPseudoFrobenius, TooManyMatrices
from .intmat import product_determinants
from .lattice import (
    first_row_differences,
    is_generic,
    kernel_lattice,
    lattice_coordinates,
    lattice_index,
    rf_difference_lattice,
    rf_relations,
    row_differences,
)
from .rfmatrix import (
    check_sign_conjecture,
    determinant,
    find_frobenius_det_witness,
    iter_rf_matrices,
    rf_matrices,
    rf_matrix_count,
    rf_rows,
    sign_target,
)
from .semigroup import NumericalSemigroup, from_generators

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# rendering


def render_monomial(exponents) -> str:
    """x1^a*x2^b style; unit exponents suppressed, factors in index order."""
    parts = []
    for i, a in enumerate(exponents, start=1):
        if a == 1:
            parts.append(f"x{i}")
        elif a > 1:
            parts.append(f"x{i}^{a}")
    return "*".join(parts) if parts else "1"


def render_binomial(binomial) -> str:
    plus, minus = binomial
    return f"{render_monomial(plus)} - {render_monomial(minus)}"


def format_matrix(rows) -> list[str]:
    width = max(len(str(x)) for row in rows for x in row)
    return ["  ".join(f"{x:>{width}}" for x in row) for row in rows]


# ---------------------------------------------------------------------------
# payload builders


def semigroup_payload(sg: NumericalSemigroup) -> dict:
    pf = sg.pseudo_frobenius()
    return {
        "generators": list(sg.generators),
        "multiplicity": sg.multiplicity,
        "embedding_dimension": sg.embedding_dimension,
        "frobenius": sg.frobenius,
        "conductor": sg.conductor,
        "genus": sg.genus(),
        "apery": list(sg.apery_table),
        "pseudo_frobenius": list(pf),
        "type": len(pf),
        "is_med": sg.is_med(),
        "is_arf": sg.is_arf(),
    }


def semigroup_lines(payload: dict) -> list[str]:
    return [
        f"S = <{', '.join(map(str, payload['generators']))}>",
        f"multiplicity m        : {payload['multiplicity']}",
        f"embedding dimension e : {payload['embedding_dimension']}",
        f"frobenius F           : {payload['frobenius']}",
        f"conductor c           : {payload['conductor']}",
        f"genus (gap count)     : {payload['genus']}",
        f"apery set (mod m)     : {' '.join(map(str, payload['apery']))}",
        f"pseudo-frobenius      : {' '.join(map(str, payload['pseudo_frobenius'])) or '-'}",
        f"type t                : {payload['type']}",
        f"maximal embedding dim : {'yes' if payload['is_med'] else 'no'}",
        f"arf                   : {'yes' if payload['is_arf'] else 'no'}",
    ]


# ---------------------------------------------------------------------------
# subcommands


def _check_cap(sg: NumericalSemigroup, f: int, cap: int | None) -> None:
    """TooManyMatrices (exit 5) when RF(f) holds more than ``cap`` matrices."""
    if cap is not None and (count := rf_matrix_count(sg, f)) > cap:
        raise TooManyMatrices(count, cap)


def cmd_analyze(args) -> tuple[int, dict, list[str]]:
    payload = semigroup_payload(from_generators(args.generators))
    return 0, payload, semigroup_lines(payload)


def cmd_rf(args) -> tuple[int, dict, list[str]]:
    sg = from_generators(args.generators)
    pf = sg.pseudo_frobenius()
    targets = [args.pf] if args.pf is not None else list(pf)
    blocks = []
    lines = [f"S = {sg}   PF = {list(pf)}"]
    for f in targets:
        count = rf_matrix_count(sg, f)
        block: dict = {"pf_element": f, "count": count}
        lines.append(f"RF({f}): {count} {'matrix' if count == 1 else 'matrices'}")
        if not args.count_only:
            _check_cap(sg, f, args.max_rf)
            matrices = block["matrices"] = rf_matrices(sg, f)
            if args.dets:
                block["determinants"] = list(product_determinants(rf_rows(sg, f)))
            for idx, M in enumerate(matrices):
                suffix = f"   det = {block['determinants'][idx]}" if args.dets else ""
                lines.append(f"  matrix {idx + 1}{suffix}")
                lines.extend("    " + row for row in format_matrix(M))
        blocks.append(block)
    payload: dict = {"generators": list(sg.generators), "pf": list(pf), "rf": blocks}
    if args.witness:
        if sg.frobenius >= 1:  # S = N has no RF(F) to cap
            _check_cap(sg, sg.frobenius, args.max_rf)
        witness = find_frobenius_det_witness(sg)
        sign_found = check_sign_conjecture(sg) is not None
        payload["det_witness"] = witness
        payload["det_witness_value"] = None if witness is None else determinant(witness)
        payload["sign_target"] = sign_target(sg)
        payload["sign_witness_found"] = sign_found
        if witness is None:
            lines.append(f"no RF matrix of F = {sg.frobenius} with |det| = F")
        else:
            lines.append(
                f"witness with |det| = F = {sg.frobenius}: "
                f"det = {payload['det_witness_value']}"
            )
            lines.extend("  " + row for row in format_matrix(witness))
            lines.append(
                f"sign-exact witness (target {payload['sign_target']}): "
                f"{'found' if sign_found else 'absent'}"
            )
    return 0, payload, lines


def cmd_generic(args) -> tuple[int, dict, list[str]]:
    sg = from_generators(args.generators)
    verdict = is_generic(sg)
    witness: dict | str = verdict.describe()
    lines = [f"S = {sg}", f"generic: {'yes' if verdict.generic else 'no'}", f"witness: {witness}"]
    if verdict.nonunique is not None:
        f, m1, m2 = verdict.nonunique
        witness = {"pf_element": f, "matrices": [m1, m2]}
        for m in (m1, m2):
            lines.extend("  " + row for row in format_matrix(m))
            lines.append("")
    elif verdict.column_clash is not None:
        f, matrix, i, i2, j = verdict.column_clash
        witness = {"pf_element": f, "matrix": matrix, "rows": [i + 1, i2 + 1], "column": j + 1}
        lines.extend("  " + row for row in format_matrix(matrix))
    payload = {"generators": list(sg.generators), "generic": verdict.generic, "witness": witness}
    return 0 if verdict.generic else 1, payload, lines


def cmd_relations(args) -> tuple[int, dict, list[str]]:
    sg = from_generators(args.generators)
    if not sg.pseudo_frobenius():
        raise NotPseudoFrobenius(None, ())
    frob = sg.frobenius
    _check_cap(sg, frob, args.max_rf)
    witness = find_frobenius_det_witness(sg)
    note = None
    if witness is None:
        witness = next(iter_rf_matrices(sg, frob))
        note = "no |det| = F witness exists; using the first RF matrix instead"
    V = kernel_lattice(sg)
    W = rf_difference_lattice(witness)  # printed only
    index = lattice_index(lattice_coordinates(first_row_differences(witness), V))
    pairs = list(itertools.combinations(range(sg.embedding_dimension), 2))
    payload = {
        "generators": list(sg.generators),
        "frobenius": frob,
        "matrix": witness,
        "determinant": determinant(witness),
        "row_differences": [
            {"i": i + 1, "j": j + 1, "vector": list(d)}
            for (i, j), d in zip(pairs, row_differences(witness))
        ],
        "relations": [
            {
                "i": i + 1,
                "j": j + 1,
                "plus": list(plus),
                "minus": list(minus),
                "binomial": render_binomial((plus, minus)),
                "full_support": all(p or m for p, m in zip(plus, minus)),
            }
            for (i, j), (plus, minus) in zip(pairs, rf_relations(witness))
        ],
        "kernel_basis": V,
        "difference_basis": W,
        "index": index if index is not None else "infinite",
        "note": note,
    }
    lines = [f"S = {sg}   F = {frob}"]
    if note:
        lines.append(f"note: {note}")
    lines.append(f"RF matrix (det = {payload['determinant']}):")
    lines.extend("  " + row for row in format_matrix(witness))
    lines.append("row differences a_i - a_j (generators of W(S)):")
    for diff in payload["row_differences"]:
        lines.append(f"  a_{diff['i']}{diff['j']} = {tuple(diff['vector'])}")
    lines.append("relations:")
    for rel in payload["relations"]:
        lines.append(f"  phi_{rel['i']}{rel['j']} = {rel['binomial']}")
    lines.append(f"V(S) basis: {list(V)}")
    lines.append(f"W(S) basis: {list(W)}")
    lines.append(f"[V(S) : W(S)] = {payload['index']}")
    return 0, payload, lines


def cmd_closure(args) -> tuple[int, dict, list[str]]:
    sg = from_generators(args.generators)
    closure = sg.arf_closure()
    # the closure keeps the multiplicity m: class i mod m gains w_C(i), w_C(i) + m, ..., w_S(i) - m
    added = sorted(n for low, high in zip(closure.apery_table, sg.apery_table)
                   for n in range(low, high, sg.multiplicity))
    payload = {
        "input_generators": list(sg.generators),
        "was_arf": sg == closure,
        "closure": semigroup_payload(closure),
        "added_elements": added,
    }
    lines = [
        f"input S = {sg}",
        f"already arf: {'yes' if payload['was_arf'] else 'no'}",
        f"closure generators: {', '.join(map(str, closure.generators))}",
        f"added elements below the conductor: {added or '-'}",
    ]
    lines.extend(semigroup_lines(payload["closure"]))
    return 0, payload, lines


def _config_settings(path: str) -> dict:
    """The settings of the config file at ``path``; a file that cannot be read or
    parsed raises ValueError naming it a config error."""
    try:
        return verifier.parse_config_text(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc


def cmd_verify(args) -> tuple[int, dict, list[str]]:
    report_dir = Path(args.report_dir)
    settings: dict = {}
    if args.suite is not None:
        if args.suite not in verifier.SUITES:
            raise ValueError(f"unknown suite {args.suite!r}; known: {sorted(verifier.SUITES)}")
        settings.update(verifier.SUITES[args.suite])
    if args.config is not None:
        settings.update(_config_settings(args.config))
    claim_ids = settings.pop("claims", None)  # VerifyConfig takes no claims
    settings.update((key, value) for key, value in vars(args).items()
                    if key in verifier._CONFIG_INT_KEYS and value is not None)
    config = verifier.VerifyConfig(**settings)
    claim_ids, _ = verifier.check_request(config, args.claim or claim_ids)
    targets = {cid: report_dir / f"{cid}.json" for cid in claim_ids}
    summary_path = report_dir / "summary.json"
    for path in [*targets.values(), summary_path]:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
    report_dir.mkdir(parents=True, exist_ok=True)
    reports = verifier.verify_all(config, claim_ids)
    ok = verifier.aggregate_ok(reports)
    summary = {
        "config": {key: getattr(config, key) for key in verifier._CONFIG_INT_KEYS},
        "claims": [{key: r[key] for key in ("claim_id", "status", "checked")} for r in reports],
        "ok": ok,
    }
    for report in reports:
        targets[report["claim_id"]].write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    lines = [f"{r['claim_id']:20s} {r['status']:24s} checked={r['checked']}" for r in reports]
    lines.append(f"reports written to {report_dir}")
    lines.append("result: " + ("ok" if ok else "FAIL"))
    return 0 if ok else 1, {"summary": summary, "report_dir": str(report_dir)}, lines


# ---------------------------------------------------------------------------
# parser


def _cap(text: str) -> int:
    """argparse type of ``--max-rf``: a non-negative integer (0 is legal)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cap needs an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap must be at least 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``arfrf`` parser, built once per process: a parser is a web of reference
    cycles, which only a full collection would free if each call built one."""
    parser = argparse.ArgumentParser(
        prog="arfrf",
        description="numerical semigroup invariants, RF matrices, genericity, "
        "and the claim verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gens=True):
        if gens:
            p.add_argument("generators", nargs="+", type=int, help="semigroup generators")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="invariants of <generators>")
    add_common(p)

    p = sub.add_parser("rf", help="row-factorization matrices of PF elements")
    add_common(p)
    p.add_argument("--pf", type=int, default=None, help="restrict to one PF element")
    p.add_argument("--dets", action="store_true", help="include determinants")
    p.add_argument("--count-only", action="store_true", help="counts only, no matrices")
    p.add_argument("--witness", action="store_true", help="search determinant witnesses")
    p.add_argument(
        "--max-rf",
        type=_cap,
        default=None,
        help="abort if a PF element has more matrices than this cap "
        "(safety valve for adversarial inputs; no cap by default)",
    )

    p = sub.add_parser("generic", help="genericity of the defining toric ideal")
    add_common(p)

    p = sub.add_parser("relations", help="RF relations, W(S) and [V(S):W(S)]")
    add_common(p)
    p.add_argument("--max-rf", type=_cap, default=None, help="cap on the RF(F) count")

    p = sub.add_parser("closure", help="smallest Arf semigroup containing <generators>")
    add_common(p)

    p = sub.add_parser("verify", help="run registered claim sweeps")
    add_common(p, gens=False)
    p.add_argument("--suite", default=None, help="named suite (default, quick)")
    p.add_argument("--claim", action="append", default=None, help="run one claim id")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--s-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None, dest="med_m_max", metavar="M_MAX",
                   help="largest med-family multiplicity")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None, dest="closure_samples",
                   metavar="SAMPLES", help="closure sample count")
    p.add_argument("--report-dir", default="reports")
    return parser


def _write(lines) -> int:
    """Print ``lines`` and flush stdout: 0, or the exit code of a failed write."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()  # here, so that a write error is not left to the flush at exit
    except OSError as exc:
        # send the rest, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader is gone
            return 141
        print(f"error: {exc}", file=sys.stderr)
        return 74
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:  # what --help prints is kept, for _write to write like any output
        with contextlib.redirect_stdout(io.StringIO()) as shown:
            args = build_parser().parse_args(argv)
    except SystemExit as stop:
        if stop.code:  # a usage error, already on stderr
            raise
        return _write(shown.getvalue().splitlines())
    verify = args.command == "verify"  # its config, request and report errors all exit 4
    caught = (ValueError, ArfrfError, OSError) if verify else (ValueError, ArfrfError)
    try:
        # looked up by name on each call, so a wrapper set on a cmd_* binding runs
        code, payload, lines = globals()[f"cmd_{args.command}"](args)
    except caught as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if verify else {NotPseudoFrobenius: 3, TooManyMatrices: 5}.get(type(exc), 2)
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": argv, "payload": payload}
        lines = [json.dumps(doc, sort_keys=True)]
    return _write(lines) or code


if __name__ == "__main__":
    sys.exit(main())
