import io
import math
import sys
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecpsim import (
    CavityParams,
    DenominatorConvention,
    DomainError,
    InvalidCoefficientsError,
    OutcomeClass,
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
from ecpsim.protocol import MAX_ROUNDS
from reference import (
    limit_rounds,
    lossy_chain_total,
    reference_p1_round,
    reference_p2_round,
    reference_round_one,
    reference_sweep,
)

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


# Round 8's numerator 3 m^2 r^256 is subnormal while the round is a normal float;
# formed before the division it was 3.9e-4 off the limit of the repeated protocol.
def test_second_station_round_with_a_subnormal_numerator():
    c = WCoefficients(0.9999999999999967, 5.171145324693072e-09, 8.163546531054125e-08)
    rounds = limit_rounds(c, 8)[1][0]
    assert p2_round(8, c) == pytest.approx(rounds[7], rel=1e-12, abs=0.0)


# Round 11's power r^2048 is itself subnormal, and so is the round: formed as
# 3 m^2 r^2048 before the division, it underflowed to 0.0.
def test_second_station_round_with_a_subnormal_power():
    c = WCoefficients(0.9999999997343003, 1.8872225118494495e-05, 1.3237780725746231e-05)
    rounds = limit_rounds(c, 11)[1][0]
    assert 0.0 < rounds[10] < sys.float_info.min
    assert abs(p2_round(11, c) - rounds[10]) <= 2 * 2.0**-1074


def test_rounds_survive_extreme_ratio():
    # deep rounds underflow naively (a^(2^k)); grouped ratios must not
    c = WCoefficients.normalized(0.999, 0.01, 0.04)
    for k in (5, 6):
        val = p1_round(k, c)
        assert math.isfinite(val)
        assert 0.0 <= val <= 1.0


# -- totals ---------------------------------------------------------------------


# Where a1 = a2 (or a2 = a3) the first (or second) station's limit is exactly
# 1, and the fold of its rounds once read up to 2 ulps above it.
@given(
    st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    st.sampled_from(("free", "a1=a2", "a2=a3")),
    st.integers(1, MAX_ROUNDS),
)
@example((1.0, 1.0, 1.0), "free", MAX_ROUNDS)  # p1_total read 1.0000000000000002
@example((0.27, 0.95, 0.95), "free", MAX_ROUNDS)  # p2_total read 1.0000000000000002
@settings(max_examples=200, deadline=None)
def test_totals_are_probabilities(triple, tie, k_max):
    a1, a2, a3 = triple
    if tie == "a1=a2":
        a1 = a2
    if tie == "a2=a3":
        a3 = a2
    c = WCoefficients.normalized(a1, a2, a3)
    for total in (p1_total, p2_total):
        assert 0.0 <= total(c, k_max) <= 1.0


@pytest.mark.parametrize("c", POINTS)
def test_partial_sums_monotone(c):
    for round_fn in (p1_round, p2_round):
        acc, prev = 0.0, -1.0
        for k in range(1, 21):
            acc += round_fn(k, c)
            assert acc >= prev
            prev = acc
        assert acc <= 1.0 + 1e-12


# The totals stop at MAX_ROUNDS; the next 64 rounds, in the reference form that
# takes any k, add less than 1e-10 (2**-64 at a1 = a2, where rounds halve).
@pytest.mark.parametrize("c", POINTS)
def test_truncation_error_is_negligible(c):
    for reference in (reference_p1_round, reference_p2_round):
        tail = math.fsum(reference(k, c) for k in range(MAX_ROUNDS + 1, 2 * MAX_ROUNDS + 1))
        assert 0.0 <= tail < 1e-10


def test_totals_need_a_round():
    for total in (p1_total, p2_total):
        with pytest.raises(DomainError, match=r"k_max 0 outside 1\.\.64"):
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
# pt's numerator underflows; test_pt_one_round_where_its_numerator_underflows pins pt = 1.5e-200
@example(SweepSpec(alpha2=1e-100, alpha1_range=(1e-100, 1e-100), n_points=1))
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


# At a2 = 1e-160 every point's r^2 = (a2/a3)^2, and so its p2, is subnormal.
# Against the exact round 1, 3yz/((z + 2y)(y + z)) with y, z = a2^2, a3^2, taken
# in fractions from the row's own a2 and a3, so no formula of ``analytics`` is
# shared.  r^2's rounding on the subnormal grid, half a unit of 2^-1074, is
# carried in times at most 3, and the quotient's adds half a unit: 2 units.
# The relative roundings of a2/a3 and of the denominator add at most 8u of the
# value, below 2^-1045.
def test_sweep_keeps_second_station_values_in_the_subnormal_range():
    unit, u = Fraction(2) ** -1074, Fraction(2) ** -53
    points = sweep(SweepSpec(alpha2=1e-160, alpha1_range=(0.01, 0.99999), n_points=5000))
    for point in points:
        assert 0.0 < point.p2 < sys.float_info.min
        y, z = Fraction(point.alpha2) ** 2, Fraction(point.alpha3) ** 2
        exact = 3 * y * z / ((z + 2 * y) * (y + z))
        assert abs(Fraction(point.p2) - exact) <= 2 * unit + 8 * u * exact, point


coefficient = st.one_of(st.just(0.0), st.just(-0.0), _decades(-300, 0))


@st.composite
def triples_with_ties(draw, coefficient=coefficient):
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
@example((1.0, 1e-150, 1e-155))  # p2's numerator 3 m^2 r^2 is subnormal, r^2 is not
@example((1.0, 1e-155, 1e-150))
@example((1.0, 1e-160, 1e-5))  # r^2 is subnormal, and so are p2's numerator and round
@example((1.0, 1e-5, 1e-160))
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


# Every round k of both stations over 150 decades, against the form that rebuilt
# each round's denominator; and each total is the left fold of its rounds, all of
# them, capped at 1: the early stop that once cut p1_total(EQUAL) to 1 - 9.09e-13
# is gone.
@given(triples_with_ties(st.one_of(st.just(0.0), st.just(-0.0), _decades(-150, 0))),
       st.integers(1, MAX_ROUNDS))
@example((1.0, 1.0, 1.0), MAX_ROUNDS)
@example((1.0, 1e-150, 1e-150), MAX_ROUNDS)  # m^2 underflows where a2 = a3
@example((-0.0, 0.0, 1.0), 3)
@example((0.9999999999999967, 5.171145324693072e-09, 8.163546531054125e-08), 8)  # subnormal numerator
@example((1.0, 1e-160, 1e-5), 1)  # r^2 is subnormal from round 1 on
@settings(max_examples=150, deadline=None)
def test_rounds_equal_the_reference_and_totals_fold_every_round(triple, k_max):
    if not any(triple):
        return  # the zero triple is not a state
    c = WCoefficients.normalized(*triple)
    for round_fn, reference, total_fn in ((p1_round, reference_p1_round, p1_total),
                                          (p2_round, reference_p2_round, p2_total)):
        rounds = [round_fn(k, c) for k in range(1, MAX_ROUNDS + 1)]
        assert [v.hex() for v in rounds] == [reference(k, c).hex() for k in range(1, MAX_ROUNDS + 1)]
        folds = list(accumulate(rounds, initial=0.0))  # folds[K]: the sum of rounds 1..K
        assert total_fn(c, k_max).hex() == min(folds[k_max], 1.0).hex()
        assert total_fn(c).hex() == min(folds[MAX_ROUNDS], 1.0).hex()


@st.composite
def near_ties(draw):
    """A triple over ten decades whose pairs are, each at random, apart, equal
    or a relative 1e-15..1e-1 apart, so q runs from 1e-20 to exactly 1."""
    a1, a2, a3 = draw(st.tuples(_decades(-10, 0), _decades(-10, 0), _decades(-10, 0)))
    apart = st.one_of(st.none(), st.just(0.0), _decades(-15, -1))
    if (gap := draw(apart)) is not None:
        a1 = a2 * (1.0 + gap)
    if (gap := draw(apart)) is not None:
        a3 = a2 * (1.0 + gap)
    return draw(st.permutations((a1, a2, a3)))


_U = 2.0**-53  # unit roundoff


def _growth(x):
    """e^x − 1, which bounds the relative error of a product of factors
    1 + δ_i with Σ|δ_i| <= x, since Π(1 + |δ_i|) <= e^x."""
    return math.expm1(min(x, 709.0))


def _round_bound(k):
    """Relative error bound of round k, ``p*_round`` against ``limit_rounds``:
    e^x − 1 for the first-order sum x below, in multiples of the unit
    roundoff u.

    ``analytics``: the pair's ratio r is one rounding, so r^(2^k) carries
    2^k u; the denominator's factors 1 + r^(2^j), j <= k, add at most
    (2^(j-1) + 1.5) u each, 2^k u in all, plus one u per product; with the
    weight, scale and quotient that is (2^(k+1) + 3k + 8) u.  Reference:
    d = 1 − q is within 4u and ln q within 7u relative; a power q^e, taken by
    ``pow`` below q = 1/2 or as exp(e ln q) above, where |e ln q| <= 0.7 e, is
    within 7e u + 4u, so R_k is within (7·2^k + 17) u; the difference
    R_(k-1) − R_k triples that (R_k <= R_(k-1)/2), and the limit L adds 12u:
    (21·2^k + 63) u.  From k = 48 on the bound exceeds 1 and says nothing, as
    it must: one ulp of r moves r^(2^k) by a factor of about e^(2^k u)."""
    return _growth((23 * 2**k + 3 * k + 71) * _U)


# Absolute error of a round where a value leaves the normal range.  ``analytics``
# forms each round as a power r^(2^k) times factors of at most 3 in all, over a
# denominator of at least 1: the first station's power (its other power is
# exactly 1) times its weight, over its running product; the second station's,
# where its numerator 3 m^2 r^(2^k) is subnormal, 3 r^(2^k) over its running
# product relative to m^2 (over m = 1 where m^2 underflows), and elsewhere a
# normal numerator over a denominator of at least m^2.  On the subnormal grid a
# rounding is at most 2^-1075.  The power's is carried in times at most 3, the
# first station's product with its weight adds one and the quotient's one:
# 2.5 · 2^-1074.  3 r^(2^k) is exact wherever it is subnormal, a multiple of
# 2^-1074 below 2^-1021.  The reference rounds its power, quotient, difference
# and product by L on that grid: 4 times 2^-1074 at most.
_SUBNORMAL_ALLOWANCE = 6.5 * 2.0**-1074


# Rounds 1..64 and the totals against the repeated protocol's limit (ROADMAP
# item 8's L_i, q_i and R_K), which shares no formula with ``analytics``: not
# the per-index form the rounds came from, and not their sum.  A relative bound
# holds of whichever of the two values is larger: where a power underflows in
# one route only, the other is the smaller.
@given(near_ties())
@example((1.0, 1.0, 1.0))  # q = 1 at both stations: rounds halve
@example((1.0, 1e-10, 1e-10))  # the second station at q = 1 with m^2 = 1e-20
@example((1e-10, 1.0, 1.0 + 1e-15))
@example((0.0007498942093324567, 10.0**-3.125, 10.0**-7.75))  # round 59: 4.41e-321 against 0.0
@example((0.9999999999999967, 5.171145324693072e-09, 8.163546531054125e-08))  # subnormal numerator
@example((0.9999999997343003, 1.8872225118494495e-05, 1.3237780725746231e-05))  # round 11: subnormal power
@settings(max_examples=200, deadline=None)
def test_rounds_and_totals_match_the_limit_of_the_repeated_protocol(triple):
    c = WCoefficients.normalized(*triple)
    for round_fn, total_fn, (terms, success) in zip(
        (p1_round, p2_round), (p1_total, p2_total), limit_rounds(c, MAX_ROUNDS)
    ):
        larger = []
        for k, term in enumerate(terms, 1):
            got = round_fn(k, c)
            larger.append(max(got, term))
            # below the least normal float the allowance, an absolute bound, leads
            assert abs(got - term) <= _round_bound(k) * larger[-1] + _SUBNORMAL_ALLOWANCE, (k, got, term)
        # The left fold of 64 rounds: each round's own error, one rounding per
        # addition, and the reference's L (1 − R_64), within 16u relative.
        total_bound = (
            math.fsum(v * _growth((2 ** (k + 1) + 3 * k + 8) * _U) for k, v in enumerate(larger, 1))
            + (MAX_ROUNDS + 16) * _U * success
            + MAX_ROUNDS * _SUBNORMAL_ALLOWANCE
        )
        assert abs(total_fn(c) - success) <= total_bound


@st.composite
def drop_free_runs(draw):
    """A :func:`near_ties` triple and round limits (K_A, K_C) up to 64, each drawn
    up to the deepest K at which its station's q^(2^K) >= e^-20.  A retry squares
    the pair's ratio, so through round K a landing's smaller amplitude stays
    near q^(2^(K-1)) of its larger, far above the 1e-12 drop, unless the triple
    itself is spread far enough for a landing to fall below it."""
    c = WCoefficients.normalized(*draw(near_ties()))
    limits = []
    for lo, hi in sorted((c.a1, c.a2)), sorted((c.a2, c.a3)):
        minus_ln_q = -2.0 * math.log(lo / hi)
        deepest = MAX_ROUNDS if minus_ln_q == 0.0 else int(math.log2(20.0 / minus_ln_q))
        limits.append(draw(st.integers(1, min(max(deepest, 1), MAX_ROUNDS))))
    return c, *limits


def _tree_round_exponent(j):
    """x of the tree's relative bound e^x − 1 on a station's round j.

    A retry squares the ratio of the station's pair, so a ratio's error doubles
    per retry, plus its roundings.  The coefficient pair's ratio (2u for the
    second station's seed ``normalized(a2, a2, a3)``, 0 for the first) takes
    2ρ + 4u per retry (two squares, two divisions by one norm), so ρ_i <= 6·2^i u
    after i retries; the photon's, two divisions by one ``hypot``, adds 2u.  A
    post-state's ratio is a state ratio times a photon ratio, with three
    roundings per amplitude (the product, the weight, the division by the norm):
    σ_(i+1) <= σ_i + π_i + 6u, from 8u at the second station (the first
    station's success post-state) and 0 at the first, so σ_i <= (6·2^i + 4i + 2)u.
    A stage probability sums the squares of products of normalized components,
    each within its ratio's error, so it is within 2(π_i + σ_i) + 7u (the
    product, weight and square of each term, two additions, the square root and
    its square), and a retry mass, one addition more, within (24·2^i + 8i + 8)u.
    Round j multiplies j − 1 retry masses and a success with j + 1 roundings:
    (24·2^j + 4j^2 + 5j) u, the first-order sum.  Where 2^j u is not small, the
    bound exceeds 1 and says nothing, as ``_round_bound`` does from k = 48."""
    return (24 * 2**j + 4 * j * j + 5 * j) * _U


_ALICE_STAGE, _CHARLIE_STAGE = ["D1", "D2", "D3", "D4"], ["D5", "D6", "D7", "D8"]


# Tree totals at depths up to (64, 64) against S_1(K_A) S_2(K_C) of the repeated
# protocol's limit, on runs where no 1e-12 drop fired: every stage has its four
# outcomes and every post-state keeps its three terms.  A chain ends before its
# limit only at a stage without its retry outcomes, so every chain then runs to
# its limit, and one that is short all the same fails here.  A success record is
# a first-station round j times a second-station round k, within e^x − 1 of its
# exact value for x the sum of their exponents, so within e^(2x) − 1 of its own
# value.  The left fold of N records adds (N − 1)u of the total.  The
# reference's S_i = L (1 − R_K) is within 46u: L within 12u, R_K within
# (7·2^K + 17)u of R_K <= 2^-K, so 16u absolute and at most 32u of
# 1 − R_K >= 1/2, and the subtraction and product 2u; the product of the two
# stations within 93u.
@given(drop_free_runs())
@example((EQUAL, MAX_ROUNDS, MAX_ROUNDS))  # q = 1 at both stations
@example((SKEWED, 4, 4))
@settings(max_examples=150, deadline=None)
def test_tree_totals_match_the_limit_of_the_repeated_protocol(run):
    c, k_alice, k_charlie = run
    trace = run_protocol(c, ProtocolConfig(max_rounds_alice=k_alice, max_rounds_charlie=k_charlie))
    detectors = [o.detector.value for o in trace.rounds]
    alice_stages = sum(d in _ALICE_STAGE for d in detectors) // 4
    assume(detectors == _ALICE_STAGE * alice_stages + _CHARLIE_STAGE * (len(detectors) // 4 - alice_stages))
    assume(all(all(o.post_state) for o in trace.rounds))
    reference = limit_rounds(c, k_alice)[0][1] * limit_rounds(c, k_charlie)[1][1]
    records = [b for b in trace.branches if b.classification is OutcomeClass.CHARLIE_SUCCESS]
    bound = _growth((len(records) + 93) * _U) * max(trace.total_success_probability, reference)
    for record in records:
        j = [token in ("D3", "D4") for token in record.path].index(True) + 1  # the first station's success
        x = _tree_round_exponent(j) + _tree_round_exponent(len(record.path) - j)
        bound += _growth(2.0 * x) * record.probability
    assert abs(trace.total_success_probability - reference) <= bound


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
