"""Brute-force oracles and the claim-sweep harness.

The oracles deliberately re-derive everything from first principles (dynamic
programming, definitional scans, cofactor expansion) so they share no code
with the primary implementations they check.

Claims are rows of the ``CLAIMS`` table, under stable ids. A row names a
grid (the bounds echoed in the report) and a check. The grid is the one
statement of a claim's scope: ``_sources`` reads off it the slices of the one
instance walk, ``_instances``, that the claim sweeps (a multiplicity<=5
variant, the med shapes, the seeded Arf-closure samples or the seeded random
generator sets, in that order). A check takes one instance and returns
``(units checked, problems)``.

``verify_all`` is the one engine; ``verify_claim`` runs it on one claim. It
builds each instance once, runs each distinct check on it once, and folds
the result into every claim that reads its source: problems become
counterexamples or grouped table mismatches. A claim reports "pass",
"fail", or "mismatch-with-details"; the last means every observed
discrepancy matches a pre-registered fixture shipped with the package (two
suspected typos and one single-instance omission in the closed-form tables,
each carrying the enumerated correction). A claim that checked nothing
fails. Reports are deterministic: same config, same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from importlib import resources
from itertools import islice, product
from math import gcd, prod
from pathlib import Path
from typing import Callable

from . import families
from .errors import GridTooLarge, UnknownClaim
from .factorization import count_factorizations, factorization_vectors
from .lattice import is_generic, kernel_lattice, lattice_coordinates, lattice_index
from .rfmatrix import (
    check_sign_conjecture,
    column_zero_pair,
    determinant,
    find_frobenius_det_witness,
    is_rf_matrix,
    iter_rf_matrices,
    rf_row_choices,
    sign_target,
)
from .semigroup import NumericalSemigroup, from_generators

DEFAULT_SEED = 1729
CLOSURE_MULTIPLICITIES = (6, 7, 8)  # of the Arf-closure samples
MAX_GENERATOR = 60  # largest random generator either sampler draws
MAX_EMBEDDING_DIMENSION = 6  # of the random generator sets
VALUE_CAP = 500  # OracleAgreement compares factorization counts up to this value


# ---------------------------------------------------------------------------
# independent oracles


def _reach_table(gens, top: int) -> list[bool]:
    """Reachability of [0, top] as sums of ``gens`` (plain DP, no Apéry data)."""
    table = [False] * (top + 1)
    table[0] = True
    for v in range(1, top + 1):
        for g in gens:
            if g <= v and table[v - g]:
                table[v] = True
                break
    return table


def oracle_membership(gens, n: int) -> bool:
    """Membership by dynamic-programming reachability over [0, n]."""
    if n < 0:
        return False
    return _reach_table(sorted(gens), n)[n]


def oracle_pf(gens) -> tuple[int, ...]:
    """Pseudo-Frobenius numbers by the definitional scan over z in [1, F].

    Self-certifying: once the table shows min(gens) consecutive members,
    everything beyond them is a member too (add multiples of the smallest
    generator), so the Frobenius number is provably inside the table. The
    table doubles until such a window exists.
    """
    gens = sorted(set(gens))
    if gens[0] == 1:
        return ()
    a = gens[0]
    bound = (a - 1) * (gens[-1] - 1) + gens[-1]
    while True:
        table = _reach_table(gens, bound)
        run = 0
        start = None
        for v in range(bound + 1):
            run = run + 1 if table[v] else 0
            if run == a:
                start = v - a + 1
                break
        if start is not None:
            break
        bound *= 2

    def member(x: int) -> bool:
        return x >= start or table[x]

    frob = max(z for z in range(start) if not table[z])
    return tuple(
        z
        for z in range(1, frob + 1)
        if not table[z] and all(member(z + g) for g in gens)
    )


def cofactor_determinant(rows) -> int:
    """Determinant by Laplace expansion along the first row (oracle duty only)."""
    rows = [list(r) for r in rows]
    n = len(rows)

    def rec(row_idx: int, cols: tuple[int, ...]) -> int:
        if not cols:
            return 1
        total = 0
        sign = 1
        for pos, c in enumerate(cols):
            a = rows[row_idx][c]
            if a:
                rest = cols[:pos] + cols[pos + 1 :]
                total += sign * a * rec(row_idx + 1, rest)
            sign = -sign
        return total

    return rec(0, tuple(range(n)))


# ---------------------------------------------------------------------------
# configuration and fixtures


# field: (least, most) a VerifyConfig accepts, None for no bound; below least
# is a ValueError, above most is GridTooLarge. The closure sampler can draw
# only 1,207 closures, so closure_samples stops at 1,000.
_BOUNDS = {"s_max": (1, 1_000), "med_s_factor": (1, None), "med_m_min": (2, None),
           "med_m_max": (None, 16), "closure_samples": (0, 1_000), "oracle_samples": (0, 100_000)}


@dataclass(frozen=True, slots=True)
class VerifyConfig:
    """Grid bounds and seeds for the claim sweeps."""

    s_max: int = 200
    med_m_min: int = 6
    med_m_max: int = 10
    med_s_factor: int = 10
    closure_samples: int = 100
    oracle_samples: int = 1000
    seed: int = DEFAULT_SEED
    fixtures_path: str | None = None

    def __post_init__(self) -> None:
        for name, (least, _) in _BOUNDS.items():
            if least is not None and getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}; got {getattr(self, name)}")
        for name, (_, most) in _BOUNDS.items():
            if most is not None and getattr(self, name) > most:
                cap = "grid cap" if name == "s_max" else "the cap"
                raise GridTooLarge(f"{name} {getattr(self, name)} exceeds {cap} {most}")


_CONFIG_INT_KEYS = {f.name for f in fields(VerifyConfig) if f.type == "int"}


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment. Returns raw settings.

    Recognized keys: the VerifyConfig integers, ``fixtures`` (path), and
    ``claims`` (comma-separated claim ids, or "default", stored as None).
    """
    settings: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _CONFIG_INT_KEYS:
            try:
                settings[key] = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} needs an integer, got {value!r}")
        elif key == "fixtures":
            settings["fixtures_path"] = value
        elif key == "claims":
            ids = [c.strip() for c in value.split(",") if c.strip()]
            if not ids:
                raise ValueError(f"line {lineno}: claims names no claim id, got {value!r}")
            settings["claims"] = None if ids == ["default"] else ids
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    return settings


def load_fixtures(path: str | None = None) -> list[dict]:
    """Pre-registered expected mismatches (shipped data unless overridden)."""
    shipped = resources.files("arfrf").joinpath("data/expected_mismatches.json")
    source = shipped if path is None else Path(path)
    fixtures = json.loads(source.read_text(encoding="utf-8"))
    if not (isinstance(fixtures, list) and all(
            isinstance(f, dict) and isinstance(f.get("variant"), str)
            and isinstance(f.get("pf_label"), str) and type(f.get("s", 0)) is int
            for f in fixtures)):
        raise ValueError(f"fixtures in {source} must be a JSON list of objects, each with a "
                         "string variant, a string pf_label and an optional integer s")
    return fixtures


def _fixture_covers(fixture: dict, mismatch: dict) -> bool:
    same_locus = all(fixture[key] == mismatch[key] for key in ("variant", "pf_label"))
    return same_locus and ("s" not in fixture or mismatch["s_values"] == [fixture["s"]])


# ---------------------------------------------------------------------------
# reports


@dataclass(slots=True)
class ClaimReport:
    claim_id: str
    description: str
    grid: dict
    status: str = "pass"
    checked: int = 0
    mismatches: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_ok(reports) -> bool:
    """True when no report failed outside the pre-registered fixtures."""
    return all(r.status != "fail" for r in reports)


# ---------------------------------------------------------------------------
# sampling


def sample_arf_closures(count: int, multiplicities, seed: int) -> list[NumericalSemigroup]:
    """Deterministic sample of distinct Arf closures with prescribed multiplicities.

    The closure of <m, extras> keeps multiplicity m, so seeding the generator
    sets by multiplicity gives full control of m while the closure supplies
    Arf instances well outside the parametrized families.
    """
    rng = random.Random(seed)
    out: list[NumericalSemigroup] = []
    seen: set = set()
    while len(out) < count:
        m = multiplicities[rng.randrange(len(multiplicities))]
        extras = {rng.randint(m + 1, MAX_GENERATOR) for _ in range(rng.randint(2, 4))}
        gens = sorted({m, *extras})
        if reduce(gcd, gens) != 1:
            continue
        sg = from_generators(gens).arf_closure()
        if sg.generators in seen:
            continue
        seen.add(sg.generators)
        out.append(sg)
    return out


def random_semigroups(count: int, seed: int):
    """Seeded random generator sets with gcd 1 (duplicates allowed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = rng.randint(2, MAX_EMBEDDING_DIMENSION)
        gens = sorted({rng.randint(2, MAX_GENERATOR) for _ in range(e)})
        if len(gens) < 2 or reduce(gcd, gens) != 1:
            continue
        out.append(tuple(gens))
    return out


def _spec_dict(spec: families.FamilySpec) -> dict:
    d = {"variant": spec.variant, "s": spec.s, "k": spec.k,
         "m": spec.m if spec.variant == "med" else None}
    return {key: value for key, value in d.items() if value is not None}


# ---------------------------------------------------------------------------
# the instance walk


def _instances(config: VerifyConfig, sources):
    """Yield ``(source, semigroup, spec, where)`` for each instance of ``sources``, built once.

    In walk order: the multiplicity<=5 variants up to ``s_max``, the med shapes
    <m, s+1, ..., s+m-1> with s in {m, 2m, ..., med_s_factor*m}, the Arf-closure
    samples, and the random generator sets, specified by (generators, 4 probes).
    """
    for variant in families.M_LE_5_VARIANTS:
        if variant in sources:
            for spec in families.family_instances(variant, config.s_max):
                yield variant, families.build_family(spec), spec, {"spec": _spec_dict(spec)}
    if "med" in sources:
        for m in range(config.med_m_min, config.med_m_max + 1):
            s_values = [m * t for t in range(1, config.med_s_factor + 1)]
            for spec in families.med_instances(m, s_values):
                yield "med", families.build_family(spec), spec, {"spec": _spec_dict(spec)}
    if "closure" in sources:
        origin = {"origin": "arf-closure-sample", "seed": config.seed}
        for sg in sample_arf_closures(config.closure_samples, CLOSURE_MULTIPLICITIES, config.seed):
            yield "closure", sg, None, {"semigroup": list(sg.generators), "origin": origin}
    if "random" in sources:
        rng = random.Random(config.seed + 1)
        for gens in random_semigroups(config.oracle_samples, config.seed):
            probes = [rng.randint(0, VALUE_CAP) for _ in range(4)]
            yield "random", from_generators(gens), (gens, probes), {"gens": list(gens)}


def _med_grid(config: VerifyConfig) -> dict:
    return {"med_m": [config.med_m_min, config.med_m_max], "med_s": f"m..{config.med_s_factor}m"}


def _scope_grid(config: VerifyConfig, multiplicities=(2, 3, 4, 5), med=False) -> dict:
    med_grid = _med_grid(config) if med else {}
    return {"multiplicities": list(multiplicities), "s_max": config.s_max, **med_grid}


def _closure_grid(config: VerifyConfig) -> dict:
    return {**_med_grid(config), "closure_samples": config.closure_samples}


def _sources(grid: dict) -> list[str]:
    """The sources of ``_instances`` that a claim with this grid sweeps: ``s_max`` names
    the multiplicity<=5 variants, narrowed by ``variants`` or ``multiplicities``."""
    variants = grid.get("variants", families.M_LE_5_VARIANTS) if "s_max" in grid else ()
    multiplicities = grid.get("multiplicities", (2, 3, 4, 5))
    named = {"med_m": "med", "closure_samples": "closure", "samples": "random"}
    return ([v for v in variants if families.VARIANTS[v].m in multiplicities]
            + [source for key, source in named.items() if key in grid])


# ---------------------------------------------------------------------------
# checks: (semigroup, spec) -> (units checked, problems)
#
# A problem is a dict merged into the instance's ``where`` to form a
# counterexample. A problem carrying a ``locus`` (variant, PF label) is a
# closed-form table mismatch instead; the sweep groups those by locus.


def _check_closed_form(sg, spec):
    if not sg.is_arf():
        return 0, [{"problem": "family instance is not Arf"}]
    pf = sg.pseudo_frobenius()
    table = families.closed_form_table(spec)
    if pf != tuple(table):
        problem = "pseudo-Frobenius set differs from the table"
        return 0, [{"problem": problem, "computed": list(pf), "tabulated": list(table)}]
    problems = []
    for f in pf:
        enum = set(iter_rf_matrices(sg, f))
        closed = set(table[f])
        if enum != closed:
            locus = (spec.variant, families._label(spec, f))
            problems.append({"locus": locus, "f": f, "formula_only": sorted(closed - enum),
                             "enumeration_only": sorted(enum - closed)})
    return len(pf), problems


def _check_det_witness(sg, spec):
    found = find_frobenius_det_witness(sg) is not None
    return 1, [] if found else [{"problem": "no determinant witness"}]


def _check_med_invariants(sg, spec):
    expected_gens = families.family_generators(spec)
    problems = []
    if not sg.is_arf():
        problems.append("not Arf")
    if sg.generators != expected_gens:
        problems.append(f"minimal generators {sg.generators} != {expected_gens}")
    if sg.pseudo_frobenius() != families.closed_form_pf(spec):
        problems.append("pseudo-Frobenius set differs from the table")
    return 1, [{"problem": problems}] if problems else []


def _check_formula_rows(sg, spec):
    table = families.closed_form_table(spec)
    problems = []
    for f, [formula] in table.items():
        choices = rf_row_choices(sg, f)
        for i, row in enumerate(formula):
            if row not in choices[i]:
                problem = f"formula row {i + 1} = {row} is not a valid row factorization"
                problems.append({"f": f, "problem": problem})
                break
    return len(table), problems


def _check_cor_det(sg, spec):
    [matrix] = families.closed_form_rf(spec, spec.s - 1)
    det = determinant(matrix)
    expected = (-1) ** (spec.m - 1) * (spec.s - 1)
    problem = f"det {det} != (-1)^(m-1)(s-1) = {expected}"
    return 1, [] if det == expected else [{"problem": problem}]


def _check_apery_shape(sg, spec):
    m, s = sg.multiplicity, sg.conductor
    sbar = s % m
    w = sg.apery_table
    problems = []
    if sum(1 for g in sg.generators if g >= s) < 3:
        problems.append("fewer than 3 generators reach the conductor")
    if w[(m - 1) % m] != s - sbar + m - 1:
        problems.append(f"w(m-1) = {w[(m - 1) % m]} != {s - sbar + m - 1}")
    if w[1 % m] not in (s + 1, s - sbar + m + 1):
        problems.append(f"w(1) = {w[1 % m]} not in expected pair")
    return 1, [{"problem": problems}] if problems else []


def _check_zero_pairs(sg, spec):
    choices = rf_row_choices(sg, sg.frobenius)
    # pigeonhole: more sure zeros than the e columns put two zeros in one column
    if sum(min(r.count(0) for r in rows) for rows in choices) <= len(choices):
        for checked, matrix in enumerate(product(*choices), start=1):
            if column_zero_pair(matrix) is None:
                return checked, [{"matrix": matrix}]
    return prod(map(len, choices)), []


def _check_index_vs_det(sg, spec):
    V = kernel_lattice(sg)
    f = sg.frobenius
    choices = rf_row_choices(sg, f)
    # Every row has degree f, so r - b lies in V for one base row b, and the
    # coordinates of a_1 - a_j are c(a_1) - c(a_j): one reduction per row choice.
    base = choices[0][0]
    rows = [r for row in choices for r in row]
    coords = dict(zip(rows, lattice_coordinates([[a - b for a, b in zip(r, base)] for r in rows], V)))
    problems = []
    has_det_witness = has_index_one = False
    for matrix in product(*choices):
        det = determinant(matrix)
        first, *rest = map(coords.__getitem__, matrix)
        # list rows, not tuples: freed small tuples linger on CPython's free lists
        idx = lattice_index([[x - y for x, y in zip(first, c)] for c in rest])
        has_det_witness |= abs(det) == f
        has_index_one |= idx == 1
        if (idx or 0) * f != abs(det):  # Thm 5.2: |det| = F * [V : W], 0 on a rank drop
            problems.append(
                {"matrix": matrix, "problem": f"index {idx} inconsistent with det {det}"}
            )
    if has_det_witness != has_index_one:
        problem = f"det witness {has_det_witness} but index-1 witness {has_index_one}"
        problems.append({"problem": problem})
    return 1, problems


def _check_sign_witness(sg, spec):
    problem = f"no RF matrix of {sg.frobenius} has determinant {sign_target(sg)}"
    return 1, [] if check_sign_conjecture(sg) is not None else [{"problem": problem}]


def _check_generic(sg, spec):
    verdict = is_generic(sg)
    return 1, [] if verdict.generic else [{"problem": verdict.describe()}]


def _recheck_nongeneric_witness(sg, verdict) -> str | None:
    """Re-derive a non-generic witness from scratch; None when it checks out.

    Equal entries in column j of rows i and i' are the witness, because the
    relation of those rows then loses x_j from its support.
    """
    if verdict.generic:
        return "reported generic"
    if verdict.nonunique is not None:
        f, m1, m2 = verdict.nonunique
        if m1 == m2:
            return "witness matrices coincide"
        if not (is_rf_matrix(sg, f, m1) and is_rf_matrix(sg, f, m2)):
            return "witness matrix fails RF validity"
        return None
    f, matrix, i, i2, j = verdict.column_clash
    if not is_rf_matrix(sg, f, matrix):
        return "witness matrix fails RF validity"
    if matrix[i][j] != matrix[i2][j]:
        return "witness column entries differ"
    return None


def _check_not_generic(sg, spec):
    problem = _recheck_nongeneric_witness(sg, is_generic(sg))
    return 1, [] if problem is None else [{"problem": problem}]


def _check_oracles(sg, spec):
    gens, probes = spec
    top = sg.conductor + 2 * sg.generators[-1]
    table = _reach_table(list(gens), top)
    bad_n = [n for n in range(top + 1) if table[n] != sg.contains(n)]
    if bad_n:
        return 1, [{"problem": f"membership differs at {bad_n[:5]}"}]
    pf = sg.pseudo_frobenius()
    if oracle_pf(gens) != pf:
        return 1, [{"problem": "pseudo-Frobenius sets differ"}]
    problems = []
    probe_values = {0, 1, sg.multiplicity, sg.conductor, sg.conductor + 1, *probes}
    if sg.frobenius > 0:
        probe_values.add(sg.frobenius)
    for n in sorted(v for v in probe_values if v <= VALUE_CAP):
        if len(factorization_vectors(sg.generators, n)) != count_factorizations(sg, n):
            problems.append({"problem": f"factorization count differs at {n}"})
            break
    if pf and sg.embedding_dimension <= 5:
        for matrix in islice(iter_rf_matrices(sg, pf[-1]), 3):
            if determinant(matrix) != cofactor_determinant(matrix):
                problems.append({"problem": "determinant oracles disagree", "matrix": matrix})
    return 1, problems


# ---------------------------------------------------------------------------
# the claim table and the sweep engine


@dataclass(frozen=True, slots=True)
class Claim:
    """One row of the claim table: its grid, which names what it sweeps, and its check."""

    description: str
    grid: Callable[[VerifyConfig], dict]
    check: Callable[[NumericalSemigroup, object], tuple[int, list[dict]]]


def _closed_form_claim(description: str, variants) -> Claim:
    return Claim(description, lambda c: {"variants": list(variants), "s_max": c.s_max},
                 _check_closed_form)


CLAIMS: dict[str, Claim] = {
    **{
        cid: _closed_form_claim(
            f"closed-form RF tables match enumeration for variants {', '.join(variants)}",
            variants,
        )
        for cid, variants in families.CLAIM_VARIANTS.items()
    },
    "Props3.1-3.12": _closed_form_claim(
        "closed-form RF tables match enumeration for every multiplicity<=5 variant",
        families.M_LE_5_VARIANTS,
    ),
    "Cor3.13": Claim(
        "every multiplicity<=5 family instance has an RF matrix of the Frobenius "
        "number with |det| equal to the Frobenius number",
        _scope_grid, _check_det_witness),
    "Lemma4.1": Claim(
        "generators m, s+1, ..., s+m-1 with m | s give an Arf semigroup with the "
        "expected invariants",
        _med_grid, _check_med_invariants),
    "Prop4.2": Claim(
        "the formula matrix of each PF element of a med-family instance appears "
        "among the enumerated RF matrices",
        _med_grid, _check_formula_rows),
    "Cor4.3": Claim(
        "for med-family instances the k=1 formula matrix of the Frobenius number "
        "has determinant exactly (-1)^(m-1) (s-1)",
        _med_grid, _check_cor_det),
    "Remark4.4": Claim(
        "Arf semigroups with multiplicity above 5: at least three generators reach "
        "the conductor, w(m-1) = s - sbar + m - 1, and w(1) is s+1 or s - sbar + m + 1",
        _closure_grid, _check_apery_shape),
    "Lemma4.5": Claim(
        "for Arf semigroups with multiplicity above 5, every RF matrix of the "
        "Frobenius number has a column with two zero entries",
        _closure_grid, _check_zero_pairs),
    "Thm5.2-equiv": Claim(
        "over every swept Arf instance: some RF matrix of F(S) has |det| = F(S) iff "
        "some RF matrix has [V(S):W(S)] = 1; index and determinant stay consistent "
        "matrix by matrix",
        lambda c: {**_med_grid(c), "s_max": c.s_max}, _check_index_vs_det),
    "Conj5.3": Claim(
        "an RF matrix of F(S) with determinant exactly (-1)^(e+1) F(S) exists",
        lambda c: _scope_grid(c, med=True), _check_sign_witness),
    "Thm5.4.1": Claim(
        "sign-exact determinant witness over the multiplicity<=5 families",
        _scope_grid, _check_sign_witness),
    "Thm5.4.2": Claim(
        "sign-exact determinant witness over the med families",
        _med_grid, _check_sign_witness),
    "Thm5.6": Claim(
        "Arf semigroups with multiplicity 2 or 3 are generic",
        lambda c: _scope_grid(c, (2, 3)), _check_generic),
    "Thm5.7": Claim(
        "Arf semigroups with multiplicity above 3 are not generic, with "
        "re-checkable witnesses",
        lambda c: _scope_grid(c, (4, 5), med=True), _check_not_generic),
    "OracleAgreement": Claim(
        "membership, pseudo-Frobenius, factorization-count and determinant oracles "
        "agree with the primary implementations on seeded random generator sets",
        lambda c: {"samples": c.oracle_samples, "max_generator": MAX_GENERATOR,
                   "max_embedding_dimension": MAX_EMBEDDING_DIMENSION,
                   "value_cap": VALUE_CAP, "seed": c.seed},
        _check_oracles),
}

# every claim in table order, with Props3.1-3.12 standing for its twelve single-claim splits
DEFAULT_SUITE = tuple(cid for cid in CLAIMS if cid not in families.CLAIM_VARIANTS)

SUITES = {
    "default": {},
    "quick": {"s_max": 60, "med_m_max": 8, "closure_samples": 25, "oracle_samples": 100},
}


def _fold(report: ClaimReport, loci: dict, where: dict, spec, checked: int, problems) -> None:
    """Add one instance's check result to a claim's report, changing nothing in the result."""
    report.checked += checked
    for problem in problems:
        if "locus" not in problem:
            report.counterexamples.append({**where, **problem})
            continue
        variant, label = key = problem["locus"]
        example = {**where, **{k: v for k, v in problem.items() if k != "locus"}}
        locus = loci.setdefault(key, {"variant": variant, "pf_label": label, "instances": 0,
                                      "s_values": [], "example": example})
        locus["instances"] += 1
        if spec.s not in locus["s_values"]:
            locus["s_values"].append(spec.s)


def _finish(report: ClaimReport, loci: dict, fixtures: list[dict]) -> None:
    """Group the mismatches, match them to the fixtures and decide the status."""
    report.mismatches = [loci[k] for k in sorted(loci)]
    for m in report.mismatches:
        m["expected"] = any(_fixture_covers(f, m) for f in fixtures)
    if not report.checked:
        # an empty universe proves nothing, so it must not read as a pass
        report.notes.append("checked nothing")
    if (report.counterexamples or not report.checked
            or not all(m["expected"] for m in report.mismatches)):
        report.status = "fail"
    elif report.mismatches:
        report.status = "mismatch-with-details"


def verify_claim(claim_id: str, config: VerifyConfig | None = None) -> ClaimReport:
    """Run one registered claim against the fixtures ``config`` names."""
    return verify_all(config, [claim_id])[0]


def check_request(config: VerifyConfig, claim_ids=None) -> tuple[tuple[str, ...], list[dict]]:
    """The claim ids to run (the default suite when None), each registered, and the
    fixtures ``config`` names; raises before any instance is built."""
    claim_ids = DEFAULT_SUITE if claim_ids is None else tuple(claim_ids)
    for cid in claim_ids:
        if cid not in CLAIMS:
            raise UnknownClaim(f"unknown claim id {cid!r}; known: {sorted(CLAIMS)}")
    return claim_ids, load_fixtures(config.fixtures_path)


def verify_all(config: VerifyConfig | None = None, claim_ids=None) -> list[ClaimReport]:
    """Run a claim list (default suite when None) in one walk; an empty list runs nothing.

    ``check_request`` checks every claim id and the fixtures before the first
    instance is built; the config checked its own bounds when it was built.
    On each instance each distinct check runs once, for every claim whose
    grid names the instance's source, so a claim's report equals that of the
    claim alone.
    """
    config = config or VerifyConfig()
    claim_ids, fixtures = check_request(config, claim_ids)
    claims = [CLAIMS[cid] for cid in claim_ids]
    reports = [ClaimReport(claim_id=cid, description=claim.description, grid=claim.grid(config))
               for cid, claim in zip(claim_ids, claims)]
    loci: list[dict] = [{} for _ in claims]
    readers: dict[str, list[int]] = {}
    for i, report in enumerate(reports):
        for source in _sources(report.grid):
            readers.setdefault(source, []).append(i)
    for source, sg, spec, where in _instances(config, readers):
        results: dict = {}
        for i in readers[source]:
            check = claims[i].check
            if check not in results:
                results[check] = check(sg, spec)
            located = where  # a claim that sweeps closure samples locates med ones alike
            if source == "med" and "closure_samples" in reports[i].grid:
                located = {"semigroup": list(sg.generators), "origin": where["spec"]}
            _fold(reports[i], loci[i], located, spec, *results[check])
    for report, found in zip(reports, loci):
        _finish(report, found, fixtures)
    return reports
