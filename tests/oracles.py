"""Closed-form oracles that the library derives another way, the per-row
walk and the per-row writers that `classify` replaced by its pieces, the
per-monomial record that the `monomials` listing replaced by its blocks, the join
loop that monomial labels replaced by their tables, the `%` rows that
the split at a piece's marks replaced, the full weighted order
test of the four Du Val weight systems (the library runs the one system that
decides existence), the weight bookkeeping of the dissident-point chart, the
degree arithmetic of the toric model that no command reports (the canonical
class of the bundle, its twists, the Gorenstein degree data, the Noether-type
inequality, the split presentation and the relative dualising sheaf), the
monomial count and genus of a weighted hypersurface, the flat csv listing
of a record, the positivity thresholds that `toric.is_nef` and `is_ample`
replaced, and the parameter strategy of the property tests."""

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from hypothesis import strategies as st

from noetherline.bundles import FibrationData, chi_invariants
from noetherline.cli import _IMAGE_LABELS, classify_record
from noetherline.invariants import canonical_image, canonical_ring_rank
from noetherline.linear_system import FibreMonomial
from noetherline.pieces import CSV_CLASSIFY_HEADER, csv_line
from noetherline.singularities import SingularityKind
from noetherline.toric import BundleParams, CrossCheckError, fibre_exponents


@st.composite
def bundle_params(draw, d_max: int = 5000) -> BundleParams:
    """(d, d0) with 0 <= d <= d_max and e = 3d - 2*d0 >= 0, often within one
    step of a boundary of the classification (d0 = d/4, 7d/8 or d)."""
    d = draw(st.integers(0, d_max))
    top = 3 * d // 2
    near_edge = st.sampled_from((d // 4, 7 * d // 8, d)).flatmap(
        lambda k: st.integers(max(0, k - 1), min(top, k + 1))
    )
    return BundleParams(d, draw(st.integers(0, top) | near_edge))


def positivity(params: BundleParams) -> tuple[bool, bool, bool, bool]:
    """The thresholds that `toric.is_nef` and `is_ample` decide for the
    library, in closed form, as (K nef, K ample, K not nef, member class
    nef): K = H - 2F is nef iff min(d, d0) >= 2 and ample iff
    min(d, d0) >= 3, so it fails to be nef, and the canonical image
    degenerates, iff min(d, d0) <= 1; the member class 10(H - d*F) is nef, so
    base point free, iff d0 >= d."""
    m = min(params.d, params.d0)
    return m >= 2, m >= 3, m <= 1, params.d0 >= params.d


def classify_by_e(params: BundleParams) -> tuple[SingularityKind, int | None]:
    """The trichotomy phrased in (d, e), e = 3d - 2*d0, as (kind, count).

    Nonempty iff 2e <= 5d; smooth iff e <= d or 4e = 5d; 5d - 4e terminal
    points iff d < e < 5d/4; otherwise a canonical curve with 5d - 2e
    dissident points.
    """
    d, e = params.d, params.e
    if 2 * e > 5 * d:
        return SingularityKind.NOT_EXISTENT, None
    if e <= d or 4 * e == 5 * d:
        return SingularityKind.SMOOTH, None
    if 4 * e < 5 * d:
        return SingularityKind.TERMINAL_POINTS, 5 * d - 4 * e
    return SingularityKind.CANONICAL_CURVE, 5 * d - 2 * e


def classify_rows(d_min: int, d_max: int, d0: int | None):
    """The records of `classify d_min d_max [--d0 d0]`, every row derived on
    its own by `classify_record`."""
    for d in range(d_min, d_max + 1):
        if d0 is None:
            yield from (classify_record(BundleParams(d, k)) for k in range(0, 3 * d // 2 + 1))
        elif 0 <= d0 <= 3 * d // 2:
            yield classify_record(BundleParams(d, d0))


def advance(first: dict, second: dict, p0: BundleParams, p1: BundleParams):
    """Row i of a piece from its rows 0 and 1, the records of p0 and p1.  A
    field the two rows share is constant; of the others, an int is affine,
    K3 is affine over a common denominator and the image label is affine in
    the image degree.  Any other field that changes raises CrossCheckError."""
    ints, k3, image = [], None, None
    for key, v0 in first.items():
        v1 = second[key]
        if v0 == v1:
            continue
        if type(v0) is int and type(v1) is int:
            ints.append((key, v0, v1 - v0))
        elif key == "K3" and v0 and v1:
            den = math.lcm(v0["den"], v1["den"])
            num = v0["num"] * (den // v0["den"])
            k3 = (num, v1["num"] * (den // v1["den"]) - num, den)
        elif key == "image" and v0 and v1:
            (kind0, e0, _, _), (kind1, e1, _, _) = canonical_image(p0), canonical_image(p1)
            if kind0 is not kind1:
                raise CrossCheckError(f"{p0.label()}, {p1.label()}: two image kinds in one piece")
            image = (_IMAGE_LABELS[kind0].format, e0, e1 - e0)
        else:
            raise CrossCheckError(f"{p0.label()}, {p1.label()}: {key} changes within one piece")

    def row(i: int) -> dict:
        record = first.copy()
        for key, v0, step in ints:
            record[key] = v0 + i * step
        if k3:
            num, step, den = k3
            n = num + i * step
            g = math.gcd(n, den)
            record["K3"] = {"num": n // g, "den": den // g}
        if image:
            label, e, step = image
            record["image"] = label(e + i * step)
        return record

    return row


def piece_rows(pieces):
    """The records of the rows of `pieces.Piece`s, each row on its own: the
    piece's marked record with each changing int set from its column, K3
    from its numerator's column over the marked denominator, as they stand,
    and the image label its prefix and the row's e."""
    for piece in pieces:
        marked, columns = piece.marked, piece.columns
        count, = {len(values) for values in columns.values()} or {1}
        for i in range(count):
            record = dict(marked)
            for key in ("d", "d0", "e", "count", "pg"):
                if key in columns:
                    record[key] = columns[key][i]
            if "K3_num" in columns:
                record["K3"] = {"num": columns["K3_num"][i], "den": marked["K3"]["den"]}
            if "image" in columns:
                record["image"] = f"{marked['image'][:-1]}{record['e']}"
            yield record


def classify_csv_row(record: dict) -> list[str]:
    """A classify record's csv cells, the bytes `_scalar` writes, each
    formatted by its field's type as `classify_record` sets it: ints (pg and
    count may be None) as digits, the flags (bool or None) as true/false, and
    None as "".  No cell is looked up by value, so 1 and True stay apart."""
    k3, pg, count = record["K3"], record["pg"], record["count"]
    ample, nef, noether, mds = record["K_ample"], record["K_nef"], record["noether"], record["mds"]
    return [
        str(record["d"]),
        str(record["d0"]),
        str(record["e"]),
        "" if pg is None else str(pg),
        "" if k3 is None else str(k3["num"]),
        "" if k3 is None else str(k3["den"]),
        record["class"],
        "" if count is None else str(count),
        record["image"] or "",
        "" if ample is None else "true" if ample else "false",
        "" if nef is None else "true" if nef else "false",
        "" if noether is None else "true" if noether else "false",
        "" if mds is None else "true" if mds else "false",
    ]


def classify_text(records) -> list[str]:
    """The csv rows as an aligned table for people, line by line: K3 as p/q,
    flags as yes/no, "-" where empty.  Every row sizes the columns."""
    header = ["d", "d0", "e", "class", "count", "pg", "K3", "image",
              "K_ample", "K_nef", "noether", "mds"]
    yesno = {"true": "yes", "false": "no", "": "-"}
    rows = [header]
    for d, d0, e, pg, num, den, kind, count, image, *flags in map(classify_csv_row, records):
        k3 = num if den == "1" else f"{num}/{den}" if den else "-"
        rows.append([d, d0, e, kind, count or "-", pg or "-", k3, image or "-",
                     *[yesno[f] for f in flags]])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows]


def classify_output(fmt: str, records) -> str:
    """What `classify` writes for these records, row by row: one
    `json.dumps` per row, the csv module's rows, or the text table."""
    if fmt == "json":
        return "".join(json.dumps(record) + "\n" for record in records)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_CLASSIFY_HEADER)
        writer.writerows(map(classify_csv_row, records))
        return out.getvalue()
    return "".join(classify_text(records))


def percent_rows(parts: list[str], columns: list, widths: list[int] | None = None) -> str:
    """The rows of `pieces._rows` by one `%` per row, as the writers wrote
    them before the marks split: the parts joined by a `%d` per column, a
    `%-Nd` where a column is N wide, with every `%` of a part doubled; a
    piece without a column is its one part."""
    if not columns:
        return parts[0]
    fields = [f"%-{width}d" for width in widths] if widths else ["%d"] * len(columns)
    template = parts[0].replace("%", "%%") + "".join(
        field + part.replace("%", "%%") for field, part in zip(fields, parts[1:]))
    return "".join(template % row for row in zip(*columns))


def monomials_record(m: int) -> dict:
    """The record of `monomials m` with one dict per monomial, each built
    with the constructor from `fibre_exponents` and labelled by the join loop
    `monomial_label`: the listing that the CLI writes a block at a time."""
    monos = [FibreMonomial(*exponents) for exponents in fibre_exponents(m)]
    return {
        "degree": m,
        "count": len(monos),
        "ring_rank": canonical_ring_rank(m),
        "monomials": [
            {"a0": x.a0, "a1": x.a1, "a2": x.a2, "a5": x.a5,
             "label": monomial_label(x.a0, x.a1, x.a2, x.a5)}
            for x in monos
        ],
    }


def monomials_output(fmt: str, record: dict):
    """What `monomials` writes for the record of `monomials_record`, in
    parts, monomial by monomial: the parts of `json.dumps(record, indent=2)`
    (`JSONEncoder.iterencode`), `csv_line` per row, or the text lines."""
    if fmt == "json":
        yield from json.JSONEncoder(indent=2).iterencode(record)
        yield "\n"
    elif fmt == "csv":
        header = ["a0", "a1", "a2", "a5", "label"]
        yield csv_line(header)
        for row in record["monomials"]:
            yield csv_line([row[key] for key in header])
    else:
        yield f"degree {record['degree']}: {record['count']} monomials, ring rank {record['ring_rank']}\n"
        for row in record["monomials"]:
            yield f"  {row['label']}\n"


def flat_csv(record) -> str:
    """The flat `field,value` csv listing of a record, under its header: a
    row per scalar leaf, found by a recursive walk, written by the csv
    module.  A dict's key follows its prefix after a dot (the key alone
    where the prefix is empty), a list's index in brackets; a leaf is
    written as true, false, "" for None, or its str."""
    rows = [["field", "value"]]

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list):
            for i, sub in enumerate(value):
                walk(f"{prefix}[{i}]", sub)
        else:
            text = ("" if value is None else "true" if value is True
                    else "false" if value is False else str(value))
            rows.append([prefix, text])

    walk("", record)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def reid_plurigenus(k3, chi_o: int, m: int, basket=()) -> Fraction:
    """Reid's plurigenus formula, m >= 2, for a threefold with canonical
    singularities and nef and big K: m(m-1)(2m-1)/12 K^3 + (1-2m) chi(O),
    plus, for each basket point 1/r(1,-1,b), the sum over j = 1..m-1 of
    b_j(r - b_j)/(2r), b_j = jb mod r (M. Reid, "Young person's guide to
    canonical singularities", 1987)."""
    total = Fraction(m * (m - 1) * (2 * m - 1), 12) * k3 + (1 - 2 * m) * chi_o
    for r, b in basket:
        total += sum(Fraction(j * b % r * (r - j * b % r), 2 * r) for j in range(1, m))
    return total


def monomial_label(a0: int, a1: int, a2: int, a5: int) -> str:
    """The label of x0^a0 x1^a1 y^a2 z^a5, built part by part and joined."""
    parts = []
    for exp, name in ((a0, "x0"), (a1, "x1"), (a2, "y"), (a5, "z")):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return " ".join(parts) if parts else "1"


def base_weight(mono: FibreMonomial, params: BundleParams) -> int:
    """F-degree of the monomial, summed over its variables' divisor classes:
    a0*d0 + a1*(3d - d0) + (2*a2 + 5*a5)*d."""
    d, d0 = params.d, params.d0
    return mono.a0 * d0 + mono.a1 * (3 * d - d0) + (2 * mono.a2 + 5 * mono.a5) * d


@dataclass(frozen=True)
class WeightSystem:
    """Rational weights weights/r on three local coordinates."""

    r: int
    weights: tuple[int, int, int]


DU_VAL_SYSTEMS = (
    WeightSystem(2, (1, 1, 0)),
    WeightSystem(3, (1, 1, 1)),
    WeightSystem(4, (2, 1, 1)),
    WeightSystem(6, (3, 2, 1)),
)

# Assignment carrying the weight 2 of the (2,1,1)/4 system onto z; the order
# test for this single case decides whether the family is nonempty
# (`singularities.order_test`).
Z_GETS_TWO = (1, 2, 0)


def weight_below_one_exists(
    support: frozenset[tuple[int, int, int]] | set[tuple[int, int, int]],
    system: WeightSystem,
    assignment: tuple[int, int, int],
) -> bool:
    """Does some support monomial x^p y^q z^s, given as (p, q, s), have
    weight < 1 under the assigned weights?

    ``assignment[k]`` is the index of the weight carried by the k-th local
    coordinate (x, y, z).  The comparison is exact: weight < 1 iff the
    integer weighted order is below the denominator r.
    """
    w = system.weights
    wx, wy, wz = w[assignment[0]], w[assignment[1]], w[assignment[2]]
    return any(x * wx + y * wy + z * wz < system.r for x, y, z in support)


def duval_test(support: frozenset[tuple[int, int, int]] | set[tuple[int, int, int]]) -> bool:
    """Monomial-support criterion for a rational double point.

    True iff for each of the four weight systems and each of the six
    assignments of its weights to (x, y, z) some support monomial has weight
    below one.  This is the sufficiency direction of the weighted order test,
    evaluated on the given coordinates only.
    """
    return all(
        weight_below_one_exists(support, system, assignment)
        for system in DU_VAL_SYSTEMS
        for assignment in permutations((0, 1, 2))
    )


@dataclass(frozen=True, slots=True)
class ChartMonomial:
    """Exponents of t^a x^p y^q z^s in the blowup chart at a dissident point."""

    t: int
    x: int
    y: int
    z: int


#: Weights of (t, x, y, z) under the substitution x -> t^3 x', y -> t^2 y',
#: z -> t^5 z'.
CHART_WEIGHTS = (1, 3, 2, 5)

#: Support of the dissident-point equation z^2 + y^5 + t*x^3.
DISSIDENT_CHART = frozenset(
    {ChartMonomial(0, 0, 0, 2), ChartMonomial(0, 0, 5, 0), ChartMonomial(1, 3, 0, 0)}
)


@dataclass(frozen=True)
class CrepantChartResult:
    """Whether the blowup substitution divides the equation exactly by t^10."""

    exact: bool
    offenders: tuple[ChartMonomial, ...]

    def __bool__(self) -> bool:
        return self.exact


def crepant_chart_check(
    support: frozenset[ChartMonomial] | set[ChartMonomial],
) -> CrepantChartResult:
    """Check that every support monomial has total weight exactly ten.

    Under (t, x, y, z) -> (1, 3, 2, 5) the monomials z^2, y^5 and t*x^3 all
    have weight ten, so the substitution strips t^10 from the equation and
    leaves z'^2 + y'^5 + x'^3.  Any monomial of a different weight is
    reported as an offender and the check fails.
    """
    wt, wx, wy, wz = CHART_WEIGHTS
    offenders = tuple(
        sorted(
            (
                m
                for m in support
                if m.t * wt + m.x * wx + m.y * wy + m.z * wz != 10
            ),
            key=lambda m: (m.t, m.x, m.y, m.z),
        )
    )
    return CrepantChartResult(not offenders, offenders)


# The degree arithmetic of the toric model that no command reports: the
# library's classes and degrees, derived a second way.


def canonical_class_F(params: BundleParams) -> tuple[int, int]:
    """Canonical class of the ambient bundle: -9H + (10d - 2)F, as (a, b).

    Equals minus the sum of the six coordinate divisor classes.
    """
    return -9, 10 * params.d - 2


def twist(matrix: tuple[tuple[int, ...], tuple[int, ...]], t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Re-present the bundle after twisting its algebra by O(-t) on the base.

    Adds t times the fibre row to the base row of the (base, fibre) rows; the
    underlying variety is unchanged.
    """
    base, fibre = matrix
    return tuple(b + t * w for b, w in zip(base, fibre)), fibre


def tautological_class(params: BundleParams) -> tuple[int, int]:
    """Class H - d*F of the tautological sheaf O(1) of the bundle, as (a, b)."""
    return 1, -params.d


def gorenstein_data(params: BundleParams) -> FibrationData:
    """The degrees of the toric model: genus 0, deg E1 = 3d, deg E2 = 2d."""
    return FibrationData(0, 3 * params.d, 2 * params.d)


@dataclass(frozen=True)
class NoetherCheck:
    lhs: Fraction
    rhs: Fraction
    gap: Fraction
    equality: bool


def noether_check(data: FibrationData, pg: int, q1: int, q2: int) -> NoetherCheck:
    """Evaluate both sides of the Noether-type inequality.

    lhs is K^3 from the degree data, rhs = (4(pg - q2) - 10(1 - q1))/3.  The
    supplied invariants must satisfy q1 = b and chi(omega_X) = pg - q2 + q1 - 1;
    then lhs - rhs = N/6 identically and equality holds iff N = 0.
    """
    _, _, chi_omega, k3 = chi_invariants(data)
    if q1 != data.genus_b:
        raise ValueError(f"q1 = {q1} must equal the base genus {data.genus_b}")
    if pg - q2 + q1 - 1 != chi_omega:
        raise ValueError(
            f"inconsistent invariants: pg - q2 + q1 - 1 = {pg - q2 + q1 - 1} "
            f"but chi(omega_X) = {chi_omega}"
        )
    rhs = Fraction(4 * (pg - q2) - 10 * (1 - q1), 3)
    gap = k3 - rhs
    return NoetherCheck(k3, rhs, gap, gap == 0)


def split_bundle_weight_matrix(
    d0: int, d1: int, d2: int, d5: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Weight matrix of the bundle of a split algebra over the line, as its
    (base, fibre) rows.

    The generators of weights (1, 1, 2, 5) twisted by degrees
    (d0, d1, d2, d5) give base row (1, 1, -d0, -d1, -d2, -d5).  When
    d1 = 3d - d0, d2 = 2d, d5 = 5d this presents the same bundle as the
    normalized matrix: twisting by t = d (adding d times the fibre row)
    recovers it.
    """
    return (1, 1, -d0, -d1, -d2, -d5), (0, 0, 1, 1, 2, 5)


def twist_degrees(
    degrees: tuple[int, int, int, int], t: int
) -> tuple[int, int, int, int]:
    """Degrees of the generators after tensoring the algebra by O(t)."""
    weights = (1, 1, 2, 5)
    return tuple(deg + w * t for deg, w in zip(degrees, weights))


@dataclass(frozen=True)
class DualisingDegrees:
    """Twists of the relative dualising sheaf: O(taut_twist) (x) pullback O(base_twist)."""

    taut_twist: int
    base_twist: int


def relative_dualising_degree(
    weights: tuple[int, ...], char_degrees: tuple[int, ...]
) -> DualisingDegrees:
    """Relative dualising sheaf of a weighted projective bundle.

    For generator weights (a_1, ..., a_n) (listed with multiplicity) and
    characteristic-sheaf summand degrees the sheaf is O(-sum a_i) twisted by
    the pullback of a base line bundle of degree sum(char_degrees).
    """
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    return DualisingDegrees(-sum(weights), sum(char_degrees))


def relative_canonical_class(params: BundleParams) -> tuple[int, int]:
    """Relative canonical class of the toric model, as a divisor class.

    Computed from the normalized presentation with generator degrees
    (d0 - d, 2d - d0, 0, 0): the tautological twist is -9 and the base twist
    is d, giving -9(H - d*F) + d*F = (-9, 10d).  Must differ from the
    absolute canonical class by the pullback of the base canonical class.
    """
    d, d0 = params.d, params.d0
    dual = relative_dualising_degree((1, 1, 2, 5), (d0 - d, 2 * d - d0, 0, 0))
    cls = dual.taut_twist, -dual.taut_twist * d + dual.base_twist
    a, b = canonical_class_F(params)
    if cls != (a, b + 2):
        raise CrossCheckError(f"{params.label()}: K_X/P1 = {cls} is not K_X + 2F")
    return cls


def weighted_monomial_count(weights: tuple[int, ...], degree: int) -> int:
    """Number of monomials of the given weighted degree; 0 for negative degree."""
    if degree < 0:
        return 0
    counts = [1] + [0] * degree
    for w in weights:
        for n in range(w, degree + 1):
            counts[n] += counts[n - w]
    return counts[degree]


@dataclass(frozen=True)
class WpsHypersurface:
    amplitude: int
    pg: int


def wps_hypersurface_basics(
    weights: tuple[int, ...], total_degree: int
) -> WpsHypersurface:
    """Amplitude and geometric genus of a quasismooth weighted hypersurface.

    The amplitude of the canonical class is N - sum(weights) for a degree-N
    hypersurface; its sections are the monomials of that weighted degree.
    """
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if total_degree <= 0:
        raise ValueError("total degree must be positive")
    amplitude = total_degree - sum(weights)
    return WpsHypersurface(amplitude, weighted_monomial_count(tuple(weights), amplitude))
