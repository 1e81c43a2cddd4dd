import io
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecpsim import (
    CavityParams,
    DenominatorConvention,
    DomainError,
    InvalidCoefficientsError,
    ProtocolConfig,
    SweepSpec,
    WCoefficients,
    coefficient_update_alice,
    coefficient_update_charlie,
    p1_round,
    p1_total,
    p2_round,
    p2_simplified,
    p2_total,
    practical_p1,
    practical_p2,
    practical_total,
    pt_one_round,
    run_protocol,
    scatter_coefficients,
    sweep,
)
from ecpsim.analytics import CSV_HEADER, CurvePoint, _round_ones, write_sweep_csv
from reference import lossy_chain_total, reference_round_one, reference_sweep

EQUAL = WCoefficients.symmetric()
SKEWED = WCoefficients(0.8, 0.36, 0.48)

POINTS = [
    EQUAL,
    SKEWED,
    WCoefficients.normalized(0.5, 0.6, 0.75),
    WCoefficients.normalized(0.2, 0.9, 0.3),
    WCoefficients.normalized(0.9, 0.2, 0.5),
]

interior = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
).map(lambda t: WCoefficients.normalized(*t))


# -- independent oracle: iterate the retry maps instead of the closed forms --


def p1_round_by_iteration(k: int, c: WCoefficients) -> float:
    """Chain single-round probabilities through the retry coefficient map."""

    def single(cur: WCoefficients) -> float:
        a1, a2, a3 = cur
        return a1 * a1 * (a3 * a3 + 2 * a2 * a2) / (a1 * a1 + a2 * a2)

    reach, cur = 1.0, c
    for _ in range(k - 1):
        reach *= 1.0 - single(cur)
        cur = coefficient_update_alice(cur)
    return reach * single(cur)


def p2_round_by_iteration(k: int, c: WCoefficients) -> float:
    def single(cur: WCoefficients) -> float:
        _, a2, a3 = cur
        return 3 * a2 * a2 * a3 * a3 / ((a3 * a3 + a2 * a2) * (a3 * a3 + 2 * a2 * a2))

    _, a2, a3 = c
    reach, cur = 1.0, WCoefficients.normalized(a2, a2, a3)
    for _ in range(k - 1):
        reach *= 1.0 - single(cur)
        cur = coefficient_update_charlie(cur)
    return reach * single(cur)


# -- per-round closed forms ----------------------------------------------------


def test_round_one_frozen_values():
    assert p1_round(1, EQUAL) == pytest.approx(0.5, abs=1e-12)
    assert p2_round(1, EQUAL) == pytest.approx(0.5, abs=1e-12)
    assert p1_round(1, SKEWED) == pytest.approx(0.313344 / 0.7696, abs=1e-15)


@pytest.mark.parametrize("c", POINTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_p1_closed_form_equals_iteration(c, k):
    assert p1_round(k, c) == pytest.approx(p1_round_by_iteration(k, c), abs=1e-14)


@pytest.mark.parametrize("c", POINTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_p2_closed_form_equals_iteration(c, k):
    assert p2_round(k, c) == pytest.approx(p2_round_by_iteration(k, c), abs=1e-14)


def test_round_index_domain():
    for bad in (0, -1, 65):
        with pytest.raises(DomainError):
            p1_round(bad, EQUAL)
        with pytest.raises(DomainError):
            p2_round(bad, EQUAL)


def test_rounds_with_an_empty_photon_pair_are_zero():
    # the station's photon pair is (0, 0): no amplitude to herald success
    assert p1_round(1, WCoefficients(0.0, 0.0, 1.0)) == 0.0
    assert p2_round(1, WCoefficients(1.0, 0.0, 0.0)) == 0.0
    assert pt_one_round(WCoefficients(0.0, 0.0, 1.0)) == 0.0


@pytest.mark.parametrize("a2, a3", [(1e-160, 1e-170), (1e-170, 1e-160), (1e-170, 1e-170), (5e-324, 0.0)])
def test_second_station_rounds_where_squares_underflow(a2, a3):
    # p2_round depends on the (a2, a3) pair only through its ratio, so the
    # unit-scale pair gives the same values; at (5e-324, 0) it used to divide 0 by 0
    unit = WCoefficients.normalized(0.0, a2 / max(a2, a3), a3 / max(a2, a3))
    for k in (1, 2, 3):
        expected = pytest.approx(p2_round(k, unit), rel=1e-15, abs=0.0)
        assert p2_round(k, WCoefficients(1.0, a2, a3)) == expected


def test_rounds_survive_extreme_ratio():
    # deep rounds underflow naively (a^(2^k)); grouped ratios must not
    c = WCoefficients.normalized(0.999, 0.01, 0.04)
    for k in (5, 6):
        val = p1_round(k, c)
        assert math.isfinite(val)
        assert 0.0 <= val <= 1.0


# -- totals ---------------------------------------------------------------------


@given(interior)
@settings(max_examples=40, deadline=None)
def test_totals_are_probabilities(c):
    for total in (p1_total, p2_total):
        v = total(c)
        assert 0.0 <= v <= 1.0 + 1e-12


@pytest.mark.parametrize("c", POINTS)
def test_partial_sums_monotone(c):
    for round_fn in (p1_round, p2_round):
        acc, prev = 0.0, -1.0
        for k in range(1, 21):
            acc += round_fn(k, c)
            assert acc >= prev
            prev = acc
        assert acc <= 1.0 + 1e-12


@pytest.mark.parametrize("c", POINTS)
def test_truncation_error_is_negligible(c):
    assert abs(p1_total(c) - p1_total(c, tol=0.0)) < 1e-10
    assert abs(p2_total(c) - p2_total(c, tol=0.0)) < 1e-10


def test_totals_need_a_round():
    for total in (p1_total, p2_total):
        with pytest.raises(DomainError, match="k_max must be at least 1"):
            total(SKEWED, 0)


def test_equal_alpha_totals_converge_to_one():
    assert p1_total(EQUAL) == pytest.approx(1.0, abs=1e-9)
    assert p2_total(EQUAL) == pytest.approx(1.0, abs=1e-9)


# -- one-round joint probability ---------------------------------------------------


def test_pt_frozen_value():
    assert pt_one_round(EQUAL) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("c", POINTS)
def test_pt_factorizes(c):
    assert pt_one_round(c) == pytest.approx(p1_round(1, c) * p2_round(1, c), abs=1e-15)


def _exact_pt(c: WCoefficients) -> Fraction:
    s1, s2, s3 = (Fraction(a) ** 2 for a in c)
    denominator = (s1 + s2) * (s3 + s2)
    return 3 * s1 * s2 * s3 / denominator if denominator else Fraction(0)


def _decades(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


@given(st.tuples(_decades(-300, 0), _decades(-300, 0), _decades(-300, 0)))
@example((1e-100, 1e-100, 1.0))  # numerator 3e-400 underflows; pt is 1.5e-200
@example((1e-80, 1e-90, 1.0))  # pt is 3e-180
@example((1.0, 1e-160, 1e-160))
@settings(max_examples=400, deadline=None)
def test_pt_one_round_where_its_numerator_underflows(triple):
    # The numerator 3 a1^2 a2^2 a3^2 underflows long before the quotient does;
    # where the exact value is a normal float, pt stays within 2e-15 relative.
    c = WCoefficients.normalized(*triple)
    exact = _exact_pt(c)
    pt = pt_one_round(c)
    if exact >= Fraction(sys.float_info.min):
        assert abs(Fraction(pt) - exact) <= Fraction(2e-15) * exact
    else:
        assert abs(Fraction(pt) - exact) <= Fraction(8 * 5e-324) + Fraction(2e-15) * exact
    a1, a2, a3 = c
    numerator = 3.0 * a1 * a1 * a2 * a2 * a3 * a3
    if numerator >= sys.float_info.min:
        # nothing underflowed: the direct expression, bit for bit
        direct = numerator / ((a1 * a1 + a2 * a2) * (a3 * a3 + a2 * a2))
        assert pt.hex() == direct.hex()


# -- practical (lossy) forms ---------------------------------------------------------


def low_leakage():
    return scatter_coefficients(CavityParams(kappa=1.0, kappa_s=0.1, g=0.5, gamma=0.1))


def test_practical_frozen_values():
    sc = low_leakage()
    assert practical_p1(EQUAL, sc) == pytest.approx(0.5 * 0.7779411802037215, abs=1e-13)
    assert practical_p2(EQUAL, sc) == pytest.approx(0.5 * 0.9793666392196709, abs=1e-13)
    assert practical_total(EQUAL, sc) == pytest.approx(0.1904724097916758, abs=1e-13)


@pytest.mark.parametrize("c", POINTS)
def test_practical_total_factorizes(c):
    sc = low_leakage()
    product = practical_p1(c, sc) * practical_p2(c, sc)
    assert abs(practical_total(c, sc) - product) <= 1e-15
    # combined closed form: joint ideal probability times both port fractions
    combined = (
        pt_one_round(c)
        * sc.transmitted_signal_fraction
        * sc.reflected_signal_fraction
    )
    assert practical_total(c, sc) == pytest.approx(combined, abs=1e-15)


# The two routes share only their inputs, so they differ by roundings alone.
# A rounding in a ratio r of two coefficients reaches round k raised to the
# power 2**k (the closed forms take r**(2**k), the retry maps square r once a
# round), so one ulp of r can move a round-12 term by 2**12 ulp; every other
# step on either side sums or multiplies at most a dozen or so positive terms
# of a few ulp each.  Chains of at most 12 rounds therefore agree within
# 2**13 machine epsilons relative to the total (1.8e-12).  The worst seen over
# 8 000 drawn runs and the corners of the ranges was 6.6e-15, 30 epsilons.
LOSSY_CHAIN_REL = 2.0**13 * sys.float_info.epsilon


@given(
    c=interior,
    cavity=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=0.05, max_value=0.2),
    ).map(lambda t: CavityParams(kappa=1.0, kappa_s=t[0], g=t[1], gamma=t[2])),
    convention=st.sampled_from(DenominatorConvention),
    rounds=st.tuples(st.integers(1, 12), st.integers(1, 12)),
)
@settings(max_examples=300, deadline=None)
def test_lossy_chain_matches_its_closed_form(c, cavity, convention, rounds):
    """The tree's as-published lossy chain, its retry booking included, against
    the closed form built from the ideal round terms."""
    cavity = cavity._replace(convention=convention)
    tree = run_protocol(c, ProtocolConfig(*rounds, cavity=cavity)).total_success_probability
    closed = lossy_chain_total(c, scatter_coefficients(cavity), *rounds)
    assert abs(tree - closed) <= LOSSY_CHAIN_REL * closed


# -- fixed-alpha2 slice ------------------------------------------------------------


def test_p2_simplified_matches_general_form():
    limit = math.sqrt(2.0 / 3.0)
    for i in range(1, 200):
        a1 = limit * i / 200
        a3 = math.sqrt(max(0.0, 2.0 / 3.0 - a1 * a1))
        general = p2_round(1, WCoefficients(a1, 1.0 / math.sqrt(3.0), a3))
        assert abs(p2_simplified(a1) - general) <= 1e-14


def test_p2_simplified_endpoints():
    assert p2_simplified(0.0) == pytest.approx(0.5, abs=1e-12)
    assert p2_simplified(math.sqrt(2.0 / 3.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        p2_simplified(-0.1)
    with pytest.raises(DomainError):
        p2_simplified(0.9)


# -- sweeps ---------------------------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec(alpha1_range=(0.5, 0.1))
    with pytest.raises(DomainError):
        SweepSpec(alpha1_range=(0.0, 0.5))  # open interval at zero
    with pytest.raises(DomainError):
        SweepSpec(alpha1_range=(0.1, 0.9))  # exceeds sqrt(1 - alpha2^2)
    with pytest.raises(DomainError):
        SweepSpec(n_points=0)
    with pytest.raises(DomainError):
        SweepSpec(alpha2=1.0)
    with pytest.raises(DomainError, match="n_points must be at most 100000"):
        SweepSpec(n_points=100_001)
    assert SweepSpec(n_points=100_000).n_points == 100_000


def _accepted(a1, a2):
    """Whether WCoefficients accepts the triple the sweep takes at a1 beside a2."""
    try:
        WCoefficients(a1, a2, math.sqrt(max(0.0, 1.0 - a1 * a1 - a2 * a2)))
    except InvalidCoefficientsError:
        return False
    return True


def _edge(a2):
    """The largest a1 whose triple WCoefficients accepts beside a2: one ulp more
    puts a1^2 + a2^2 past its 1e-12 norm tolerance."""
    a1 = math.sqrt(1.0 + 1e-12 - a2 * a2)
    while _accepted(math.nextafter(a1, 2.0), a2):
        a1 = math.nextafter(a1, 2.0)
    while not _accepted(a1, a2):
        a1 = math.nextafter(a1, 0.0)
    return a1


EDGE = _edge(0.6)
assert EDGE == 0.8000000000006249


@st.composite
def edge_ranges(draw):
    """``(a2, lo, hi, n)``: a2 over 300 decades, hi within three ulps of a2's edge,
    lo from 1% of the edge down by 300 decades or up to 99% of it."""
    alpha2 = draw(st.one_of(st.just(0.6), _decades(-300, math.log10(0.99))))
    hi = edge = _edge(alpha2)
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        hi = math.nextafter(hi, math.copysign(1.0, ulps))
    lo = draw(st.one_of(st.floats(0.01, 0.99), _decades(-300, -2))) * edge
    return alpha2, lo, hi, draw(st.integers(1, 300))


def _sweep_points_accepted(alpha2, lo, hi, n):
    """Whether WCoefficients accepts hi's triple and every point's, with each
    point's a1 and a3 taken as the sweep takes them."""
    xs = [hi] + [lo if n == 1 else lo + i * (hi - lo) / (n - 1) for i in range(n)]
    return all(_accepted(x, alpha2) for x in xs)


# The only check that every point of an accepted spec is a triple WCoefficients
# accepts: sweep tests no point itself.
@given(edge_ranges())
@example((0.6, 0.01, EDGE, 8))  # EDGE is accepted, but the last point rounds one ulp past it
@example((0.6, 0.1, math.nextafter(EDGE, 1.0), 2))  # one ulp past EDGE
@settings(max_examples=300, deadline=None)
def test_sweep_spec_accepts_exactly_the_ranges_whose_points_are_accepted(ranges):
    alpha2, lo, hi, n = ranges
    try:
        spec = SweepSpec(alpha2=alpha2, alpha1_range=(lo, hi), n_points=n)
    except DomainError:
        assert not _sweep_points_accepted(alpha2, lo, hi, n)
    else:
        assert _sweep_points_accepted(alpha2, lo, hi, n)
        assert len(sweep(spec)) == n


def _assert_columns_pinned(spec: SweepSpec, pts: list) -> None:
    """Every column, bit for bit, against the k-general closed forms."""
    if spec.cavity is None:
        f1 = f2 = None
    else:
        sc = scatter_coefficients(spec.cavity)
        f1, f2 = sc.transmitted_signal_fraction, sc.reflected_signal_fraction
    for p in pts:
        c = WCoefficients(p.alpha1, p.alpha2, p.alpha3)
        p1, p2, pt = p1_round(1, c), p2_round(1, c), pt_one_round(c)
        assert (p.p1.hex(), p.p2.hex(), p.p_total.hex()) == (p1.hex(), p2.hex(), pt.hex())
        if f1 is None:
            # no cavity: practical columns are the ideal ones
            practical = (p1, p2, pt)
        else:
            practical = (p1 * f1, p2 * f2, pt * f1 * f2)
        assert tuple(v.hex() for v in p[6:]) == tuple(v.hex() for v in practical)


def test_sweep_grid_and_columns():
    spec = SweepSpec(alpha1_range=(0.1, 0.8), n_points=8)
    pts = sweep(spec)
    assert len(pts) == 8
    assert pts[0].alpha1 == pytest.approx(0.1)
    assert pts[-1].alpha1 == pytest.approx(0.8)
    for p in pts:
        assert p.alpha3 == pytest.approx(math.sqrt(1 - p.alpha1**2 - p.alpha2**2), abs=1e-12)
    _assert_columns_pinned(spec, pts)


def test_sweep_with_cavity_applies_fractions():
    cav = CavityParams(kappa=1.0, kappa_s=0.1, g=0.5, gamma=0.1)
    spec = SweepSpec(alpha1_range=(0.3, 0.6), n_points=3, cavity=cav)
    pts = sweep(spec)
    _assert_columns_pinned(spec, pts)
    for p in pts:
        assert p.p_practical == pytest.approx(p.p1_practical * p.p2_practical, abs=1e-15)


cavities = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.5),
    ).map(lambda t: CavityParams(kappa=1.0, kappa_s=t[0], g=t[1], gamma=t[2])),
)


def _in_convention(cavity, convention):
    return None if cavity is None else cavity._replace(convention=convention)


@st.composite
def sweep_specs(draw):
    alpha2 = draw(_decades(-320, math.log10(0.99)))
    hi = draw(st.floats(min_value=1e-3, max_value=1.0)) * math.sqrt(1.0 - alpha2 * alpha2)
    lo = draw(st.floats(min_value=1e-3, max_value=1.0)) * hi
    return SweepSpec(
        alpha2=alpha2,
        alpha1_range=(lo, hi),
        n_points=draw(st.integers(1, 12)),
        cavity=_in_convention(draw(cavities), draw(st.sampled_from(DenominatorConvention))),
    )


# a1 = 1 leaves a3 = 0, so m^2 underflows at a2 = 1e-160 and p2_round scales its
# squares; at a2 = 5e-324 the unscaled denominator would be 0
@given(sweep_specs())
@example(SweepSpec(alpha2=1e-160, alpha1_range=(1.0, 1.0), n_points=1))
@example(SweepSpec(alpha2=5e-324, alpha1_range=(1.0, 1.0), n_points=1))
@example(
    SweepSpec(
        alpha2=1e-160,
        alpha1_range=(0.5, 1.0),
        n_points=3,
        cavity=CavityParams(kappa=1.0, kappa_s=0.1, g=0.5, gamma=0.1, convention=DenominatorConvention.CORRECTED),
    )
)
@settings(max_examples=200, deadline=None)
def test_sweep_columns_equal_the_closed_forms_bit_for_bit(spec):
    _assert_columns_pinned(spec, sweep(spec))


# -- the one-pass sweep against the per-point reference ----------------------------------


def _hex_rows(points) -> list:
    return [tuple(v.hex() for v in p) for p in points]


def _csv_text(points) -> str:
    buf = io.StringIO()
    write_sweep_csv(points, buf)
    return buf.getvalue()


@st.composite
def wide_sweep_specs(draw):
    """Ranges over 300 decades, a2 down to the least subnormal float, and a
    thousand points as well as the one-, two- and three-point grids."""
    alpha2 = draw(st.one_of(st.just(5e-324), _decades(-323, math.log10(0.99))))
    top = math.sqrt(1.0 - alpha2 * alpha2)
    ends = st.one_of(st.just(1.0), _decades(-300, 0)).map(lambda f: f * top)
    return SweepSpec(
        alpha2=alpha2,
        alpha1_range=tuple(sorted(draw(st.tuples(ends, ends)))),
        n_points=draw(st.sampled_from((1, 2, 3, 1000))),
        cavity=_in_convention(draw(cavities), draw(st.sampled_from(DenominatorConvention))),
    )


@given(wide_sweep_specs())
@example(SweepSpec(alpha2=5e-324, alpha1_range=(1e-300, 1.0), n_points=1000))
@example(SweepSpec(alpha2=1e-160, alpha1_range=(1e-170, 1.0), n_points=3))  # ties at a1 = a2 nearby
@example(SweepSpec(alpha2=0.5, alpha1_range=(0.01, 0.84), n_points=1000))
@settings(max_examples=60, deadline=None)
def test_sweep_equals_the_per_point_reference_bit_for_bit(spec):
    # every column by float.hex and every CSV byte, against one reference_round_one
    # call and one WCoefficients per point
    points, expected = sweep(spec), reference_sweep(spec)
    assert _hex_rows(points) == _hex_rows(expected)
    assert _csv_text(points) == _csv_text(expected)


coefficient = st.one_of(st.just(0.0), st.just(-0.0), _decades(-300, 0))


@st.composite
def triples_with_ties(draw):
    a1, a2, a3 = draw(st.tuples(coefficient, coefficient, coefficient))
    tie = draw(st.sampled_from(("none", "a1=a2", "a2=a3", "all")))
    if tie in ("a1=a2", "all"):
        a1 = a2
    if tie in ("a2=a3", "all"):
        a3 = a2
    return a1, a2, a3


@given(triples_with_ties())
@example((1.0, 1.0, 0.0))
@example((0.0, 1.0, 1.0))
@example((-0.0, 0.0, 1.0))
@example((1.0, -0.0, 1.0))
@example((1e-170, 1e-170, 1.0))  # pt's numerator underflows where a1 = a2
@example((1.0, 1e-170, 1e-170))  # m^2 underflows where a2 = a3
@example((1.0, 6.864336754504866e-161, 8.098510160219619e-161))  # subnormal p1: rounds 2 a2^2 once
@settings(max_examples=400, deadline=None)
def test_round_one_kernel_equals_the_reference_bit_for_bit(triple):
    if not any(triple):
        return  # the zero triple is not a state
    c = WCoefficients.normalized(*triple)
    expected = tuple(v.hex() for v in reference_round_one(*c))
    a1, a2, a3 = c
    (row,) = _round_ones(a2, [(a1, a3)])
    assert row[:2] == (a1, a3)
    assert tuple(v.hex() for v in row[2:]) == expected
    assert pt_one_round(c).hex() == expected[2]


def _outcome(build):
    try:
        return build()
    except Exception as exc:  # the refusal, compared by class and message
        return type(exc), str(exc)


NAN, INF = float("nan"), float("inf")


# _replace refuses exactly what SweepSpec refuses, and every spec both accept sweeps
# as the per-point reference does, which builds each point's WCoefficients: no spec
# reaches sweep with a point that is not a state.  a2 = -0.5 beside a1 = 0.5 leaves
# a normalized triple only a2's sign test refuses.
@pytest.mark.parametrize("alpha2", [-0.5, -5e-324, -0.0, 0.0, NAN, INF, -INF, 5e-324, 0.5, 1.0])
def test_sweep_refuses_what_the_per_point_reference_refuses(alpha2):
    base = SweepSpec(alpha2=0.5, alpha1_range=(0.5, 0.5), n_points=1)
    ranges = [
        (0.5, 0.5), (0.1, 0.9), (0.8, 0.8660254037844386), (0.0, 0.0), (-0.0, -0.0),
        (1.0, 1.0), (-0.1, 0.5), (NAN, 0.5), (0.1, NAN), (INF, INF), (0.1, INF), (-INF, 0.5),
    ]
    refused = 0
    for alpha1_range in ranges:
        for n in (0, 1, 3):
            fields = {"alpha2": alpha2, "alpha1_range": alpha1_range, "n_points": n}
            spec = _outcome(lambda: SweepSpec(**fields))
            assert _outcome(lambda: base._replace(**fields)) == spec
            if isinstance(spec, SweepSpec):
                assert _hex_rows(sweep(spec)) == _hex_rows(reference_sweep(spec)), spec
            else:
                refused += 1
    assert refused > 0


def test_csv_output_round_trips():
    pts = sweep(SweepSpec(alpha1_range=(0.2, 0.7), n_points=4))
    buf = io.StringIO()
    write_sweep_csv(pts, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == pts[0].alpha1  # repr round-trip is exact
    assert float(first[5]) == pts[0].p_total


def test_csv_writer_reuses_text_by_identity_only():
    zero, negative_zero = 0.0, float("-0.0")
    half, other_half = 0.5, float("0.5")
    assert other_half is not half and zero == negative_zero
    shared = (0.1, half, 0.2, zero, 0.25, zero)
    rows = [
        CurvePoint(*shared, *shared[3:]),  # practical triple is the ideal one
        CurvePoint(0.3, half, 0.4, zero, 0.25, zero, negative_zero, 0.25, negative_zero),
        CurvePoint(0.5, other_half, 0.6, 0.1, 0.2, 0.3, 0.1, 0.2, 0.3),  # equal, not the same
        CurvePoint(0.7, zero, 0.8, zero, zero, zero, zero, zero, zero),
        CurvePoint(0.9, negative_zero, 0.1, zero, zero, zero, zero, zero, zero),
    ]
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    assert buf.getvalue().split("\n") == [CSV_HEADER, *(",".join(map(repr, row)) for row in rows), ""]
