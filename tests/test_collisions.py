import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from limachor import collisions
from limachor.collisions import (
    CERTIFY_TOL,
    SUSPECT_TOL,
    collision_ratios,
    has_collision,
    min_pair_distance,
)
from limachor.kinematics import ChoreoConfig, bodies_at, body_state
from util import admissible_pairs


def pair_distance_closed_form(config, k, t):
    """Oracle from the complex two-phasor form of q_0 - q_k."""
    a, b, p, n = config.a, config.b, config.p, config.N
    w = cmath.exp(1j * math.tau * k / n)
    wp = cmath.exp(1j * math.tau * p * k / n)
    value = (a * (1 - w) * cmath.exp(1j * t)
             + b * (1 - wp) * cmath.exp(1j * p * t))
    return abs(value)


def relative_gaps(config):
    """|A_k - B_k| / (|a| + |b|) for every separation k, from the phasor form."""
    a, b, p, n = config.a, config.b, config.p, config.N
    return [abs(abs(a * (1 - cmath.exp(1j * math.tau * k / n)))
                - abs(b * (1 - cmath.exp(1j * math.tau * p * k / n))))
            / (abs(a) + abs(b)) for k in range(1, n)]


def collision_ratios_quadratic(n, p):
    """collision_ratios' (k, ratio) rows, each new value tested against every accepted one."""
    found = []
    for k in range(1, n // 2 + 1):
        first = math.sin(math.pi * k / n)
        second = 0.0 if (p * k) % n == 0 else math.sin(math.pi * p * k / n)
        if second == 0.0:
            continue
        magnitude = abs(second / first)
        for value in (magnitude, -magnitude):
            if not any(abs(value - ratio) <= 1e-12 for _, ratio in found):
                found.append((k, value))
    return sorted(found)


def ratio_rows(n, p):
    """collision_ratios(n, p)'s two columns as a list of (k, ratio) rows."""
    ks, ratios = collision_ratios(n, p)
    assert (ks.dtype, ratios.dtype, ks.shape) == (np.int64, np.float64, ratios.shape)
    return list(zip(ks.tolist(), ratios.tolist()))


def has_collision_every_k(config):
    """has_collision's (collides, witnesses, suspects) with the oracle run on
    every candidate k, the witnesses as a list sorted by (k, t, bodies),
    and the ks it ran on."""
    n, p = config.N, config.p
    scale = abs(config.a) + abs(config.b)
    witnesses, suspects, calls = [], [], []
    for k in range(1, n):
        first = config.a * math.sin(math.pi * k / n)
        second = 0.0 if (p * k) % n == 0 else config.b * math.sin(math.pi * p * k / n)
        gap = abs(2.0 * abs(first) - 2.0 * abs(second))
        if gap > SUSPECT_TOL * scale or second == 0.0:
            continue
        calls.append(k)
        if min_pair_distance(config, k).min_distance <= CERTIFY_TOL * scale:
            witnesses.extend(collisions.WitnessColumns(*collisions._witnesses_for(config, k)))
        else:
            suspects.append(k)
    witnesses.sort(key=lambda w: (w.k, w.t_star, w.bodies))
    return (bool(witnesses), witnesses, suspects), calls


class TestCollisionRatios:
    def test_four_bodies_p2(self):
        values = sorted(collision_ratios(4, 2)[1].tolist())
        assert values == pytest.approx([-math.sqrt(2), math.sqrt(2)])

    def test_six_bodies_p2_includes_unity(self):
        values = collision_ratios(6, 2)[1].tolist()
        assert any(abs(v - 1.0) <= 1e-12 for v in values)

    def test_sign_symmetry_in_p(self):
        for n, p in [(7, 3), (9, 4), (11, 5)]:
            plus = sorted(np.abs(collision_ratios(n, p)[1]).tolist())
            minus = sorted(np.abs(collision_ratios(n, -p)[1]).tolist())
            assert plus == pytest.approx(minus, abs=1e-12)

    def test_count_bound(self):
        for n in range(4, 21):
            for mag in range(2, 8):
                for p in (mag, -mag):
                    assert len(ratio_rows(n, p)) <= 2 * (n - 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 599), mag=st.integers(2, 12), sign=st.sampled_from([1, -1]))
    def test_bound_mirror_and_distinct_entries(self, n, mag, sign):
        rows = ratio_rows(n, sign * mag)
        assert len(rows) <= 2 * (n - 1)
        assert rows == sorted(rows)
        assert all(k <= n / 2 for k, _ in rows)
        values = sorted(ratio for _, ratio in rows)
        for low, high in zip(values, values[1:]):
            assert high - low > 1e-9 * max(abs(low), abs(high))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 800), mag=st.integers(2, 40), sign=st.sampled_from([1, -1]))
    @example(n=370, mag=11, sign=1)
    @example(n=397, mag=11, sign=1)
    # Neighbours at most 1e-12 apart chain over more than 1e-12 here:
    # two runs of 10 values at (2580, 4391), 96 of up to 150 at (2000, 2000001).
    @example(n=2580, mag=4391, sign=1)
    @example(n=2580, mag=4391, sign=-1)
    @example(n=2000, mag=2000001, sign=1)
    def test_matches_quadratic_reference(self, n, mag, sign):
        assert ratio_rows(n, sign * mag) == collision_ratios_quadratic(n, sign * mag)

    def test_mirror_duplicates_dropped_at_370_11(self):
        # 362 distinct values; separations k and N - k used to add two more.
        assert len(ratio_rows(370, 11)) == 362

    def test_mirror_of_first_separation_dropped_at_397_11(self):
        # k = 396 gives |ratio| 10.986228537980477, 1.3e-12 away from k = 1.
        near = [(k, ratio) for k, ratio in ratio_rows(397, 11)
                if abs(abs(ratio) - 10.986228537979132) <= 1e-9]
        assert near == [(1, -10.986228537979132), (1, 10.986228537979132)]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            collision_ratios(3, 2)
        with pytest.raises(ValueError):
            collision_ratios(6, 1)


class TestHasCollision:
    def test_six_bodies_equal_amplitudes_collide(self):
        report = has_collision(ChoreoConfig(6, 2, 1.0, 1.0))
        assert report.collides
        hit = [w for w in report.witnesses if w.bodies == (2, 4)]
        assert len(hit) == 1
        assert hit[0].t_star == pytest.approx(0.0, abs=1e-12)
        assert hit[0].point == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert hit[0].min_distance <= 1e-10

    def test_four_bodies_equal_amplitudes_do_not(self):
        report = has_collision(ChoreoConfig(4, 2, 1.0, 1.0))
        assert not report.collides
        assert len(report.witnesses) == 0

    def test_nine_bodies_equal_amplitudes_collide(self):
        assert has_collision(ChoreoConfig(9, 2, 1.0, 1.0)).collides

    def test_ratio_hit_at_sqrt_two(self):
        assert has_collision(ChoreoConfig(4, 2, math.sqrt(2), 1.0)).collides

    def test_trefoil_collision(self):
        assert has_collision(ChoreoConfig(6, -2, 1.0, 1.0)).collides

    def test_witnesses_sorted_and_verified(self):
        config = ChoreoConfig(9, 2, 1.0, 1.0)
        report = has_collision(config)
        keys = [(w.k, w.t_star) for w in report.witnesses]
        assert keys == sorted(keys)
        for w in report.witnesses:
            pos_1, _ = body_state(config, w.bodies[0], w.t_star)
            pos_2, _ = body_state(config, w.bodies[1], w.t_star)
            assert float(np.linalg.norm(pos_1 - pos_2)) <= 1e-10

    def test_near_locus_flagged_suspect(self):
        # 1e-9 off the sqrt(2) locus: inside the suspect band, not a
        # certified collision.
        report = has_collision(ChoreoConfig(4, 2, math.sqrt(2) + 1e-9, 1.0))
        assert not report.collides
        assert report.suspects == [1, 3]

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(4, 12), p_mag=st.integers(2, 7), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 10), kind=st.sampled_from(["on", "near", "off"]),
           b=st.floats(0.5, 2.0), sign_a=st.sampled_from([1.0, -1.0]),
           off_ratio=st.floats(0.1, 10.0), exponent=st.floats(-12.0, 6.0))
    def test_verdict_invariant_under_scale_and_p_sign(
            self, n, p_mag, p_sign, k_index, kind, b, sign_a, off_ratio, exponent):
        p = p_sign * p_mag
        ks = [k for k in range(1, n) if (p * k) % n]
        assume(ks)
        k = ks[k_index % len(ks)]
        ratio = abs(math.sin(math.pi * p * k / n) / math.sin(math.pi * k / n))
        if kind == "off":
            ratio = off_ratio
        elif kind == "near":
            ratio += 1e-9 * (ratio + 1.0) / (2.0 * math.sin(math.pi * k / n))
        config = ChoreoConfig(n, p, sign_a * ratio * b, b)
        # Keep clear of the two tolerance edges, where roundoff may decide.
        assume(not any(5e-11 <= g <= 2e-10 or 5e-9 <= g <= 2e-8
                       for g in relative_gaps(config)))
        scale = 10.0 ** exponent
        base = has_collision(config)
        scaled = has_collision(ChoreoConfig(n, p, scale * config.a, scale * b))
        assert (scaled.collides, scaled.suspects, len(scaled.witnesses)) == \
            (base.collides, base.suspects, len(base.witnesses))
        assert has_collision(ChoreoConfig(n, -p, config.a, b)).collides == base.collides

    def test_predicate_agrees_with_oracle(self):
        for p, n in admissible_pairs(5, 10):
            for ab in (0.5, 1.0, math.sqrt(2), 2.0):
                config = ChoreoConfig(n, p, ab, 1.0)
                best = min(min_pair_distance(config, k).min_distance
                           for k in range(1, n))
                assert has_collision(config).collides == (best <= 1e-8)


class TestCollisionSymmetries:
    # Each ratio r puts (a, b) = (r s, s) on the locus of its separation.
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 24), p_mag=st.integers(2, 9), p_sign=st.sampled_from([1, -1]),
           s=st.floats(0.5, 2.0), s_sign=st.sampled_from([1.0, -1.0]))
    def test_every_ratio_collides(self, n, p_mag, p_sign, s, s_sign):
        p = p_sign * p_mag
        for ratio in collision_ratios(n, p)[1].tolist():
            assert has_collision(ChoreoConfig(n, p, ratio * s_sign * s, s_sign * s)).collides

    # (a, b) -> (-a, -b) negates the curve at the same time, and
    # (a, b) -> (-a, (-1)^p b) is the same curve half a period later.
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 24), p_mag=st.integers(2, 9), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 30), offset=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]),
           b=st.floats(0.5, 2.0), sign_a=st.sampled_from([1.0, -1.0]),
           sign_b=st.sampled_from([1.0, -1.0]), mirror=st.booleans())
    def test_report_follows_amplitude_sign_flips(
            self, n, p_mag, p_sign, k_index, offset, b, sign_a, sign_b, mirror):
        p = p_sign * p_mag
        ratios = collision_ratios(n, p)[1].tolist()
        assume(ratios)
        ratio = abs(ratios[k_index % len(ratios)]) * (1.0 + offset)
        a, b = sign_a * ratio * b, sign_b * b
        base = has_collision(ChoreoConfig(n, p, a, b))
        if mirror:
            flipped, shift, sign = ChoreoConfig(n, p, -a, -b), 0.0, -1.0
        else:
            flipped, shift, sign = ChoreoConfig(n, p, -a, (-1) ** p * b), math.pi, 1.0
        other = has_collision(flipped)
        assert (other.collides, other.suspects, len(other.witnesses)) == \
            (base.collides, base.suspects, len(base.witnesses))
        tol = 1e-12 * (abs(a) + abs(b))
        unmatched = list(other.witnesses)
        for w in base.witnesses:
            match = [v for v in unmatched if v.k == w.k and v.bodies == w.bodies
                     and abs(math.remainder(v.t_star + shift - w.t_star, math.tau)) <= 1e-12]
            assert len(match) == 1
            assert np.max(np.abs(match[0].point - sign * w.point)) <= tol
            unmatched.remove(match[0])

    # Bodies 0 and N - k are bodies k and 0 shifted by k in index, so
    # separation N - k collides exactly when k does.
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 24), p_mag=st.integers(2, 9), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 30), offset=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]),
           b=st.floats(0.5, 2.0), sign_a=st.sampled_from([1.0, -1.0]))
    def test_report_closed_under_separation_mirror(
            self, n, p_mag, p_sign, k_index, offset, b, sign_a):
        p = p_sign * p_mag
        ratios = collision_ratios(n, p)[1].tolist()
        assume(ratios)
        ratio = abs(ratios[k_index % len(ratios)]) * (1.0 + offset)
        report = has_collision(ChoreoConfig(n, p, sign_a * ratio * b, b))
        certified = {w.k for w in report.witnesses}
        assert certified == {n - k for k in certified}
        assert set(report.suspects) == {n - k for k in report.suspects}
        for k in certified:
            assert sum(w.k == k for w in report.witnesses) == abs(p - 1) * n


    # The oracle runs once per mirror pair {k, N - k}; the report is the
    # one that running it on every candidate k gives, bit for bit.
    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(2, 12), odd=st.booleans(), p_mag=st.integers(2, 9),
           p_sign=st.sampled_from([1, -1]), k_index=st.integers(0, 30),
           offset=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]), b=st.floats(0.5, 2.0),
           sign_a=st.sampled_from([1.0, -1.0]))
    def test_one_oracle_run_per_mirror_pair(
            self, half, odd, p_mag, p_sign, k_index, offset, b, sign_a):
        n, p = 2 * half + odd, p_sign * p_mag
        ratios = collision_ratios(n, p)[1].tolist()
        assume(ratios)
        ratio = abs(ratios[k_index % len(ratios)]) * (1.0 + offset)
        config = ChoreoConfig(n, p, sign_a * ratio * b, b)
        want, every_k = has_collision_every_k(config)
        calls = []

        def counting(config, k):
            calls.append(k)
            return min_pair_distance(config, k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collisions, "min_pair_distance", counting)
            got = has_collision(config)
        collides, witnesses, suspects = want
        assert sorted(calls) == sorted({min(k, n - k) for k in every_k})
        assert (got.collides, got.suspects) == (collides, suspects)
        assert [(w.k, bits(w.t_star), w.bodies, bits(w.point), bits(w.min_distance))
                for w in got.witnesses] == \
            [(w.k, bits(w.t_star), w.bodies, bits(w.point), bits(w.min_distance))
             for w in witnesses]


def per_event_witnesses(config, k):
    """(k, t, bodies, point, distance) of separation k's events, one event at a time.

    Times come from the closed form (bodies j and j + k meet 2 pi j / N
    before bodies 0 and k); each event takes its own midpoint and
    ``np.linalg.norm`` of its own difference.
    """
    n, p = config.N, config.p
    first = config.a * math.sin(math.pi * k / n)
    second = config.b * math.sin(math.pi * p * k / n)
    phase0 = math.pi if first * second > 0 else 0.0
    base = (phase0 - math.pi * (p - 1) * k / n) / (p - 1)
    roots = (base + math.tau * np.arange(abs(p - 1)) / (p - 1)) % math.tau
    js = np.arange(n)
    times = (roots[:, None] - math.tau * js / n) % math.tau
    pos = bodies_at(config, np.stack((js, (js + k) % n), axis=-1), times[:, :, None])[0]
    events = []
    for t_row, pos_row in zip(times.tolist(), pos):
        for j, (t, (pos_1, pos_2)) in enumerate(zip(t_row, pos_row)):
            events.append((k, t, (j, (j + k) % n), 0.5 * (pos_1 + pos_2),
                           float(np.linalg.norm(pos_1 - pos_2))))
    return events


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_witnesses_bit_identical(config):
    report = has_collision(config)
    assert report.collides
    want = sorted((event for k in sorted({w.k for w in report.witnesses})
                   for event in per_event_witnesses(config, k)),
                  key=lambda e: (e[0], e[1], e[2]))
    assert [(w.k, bits(w.t_star), w.bodies, bits(w.point), bits(w.min_distance))
            for w in report.witnesses] == \
        [(k, bits(t), pair, bits(point), bits(d)) for k, t, pair, point, d in want]
    assert all(type(w.t_star) is float and type(w.min_distance) is float
               for w in report.witnesses)


class TestWitnessBits:
    """Witness fields equal the per-event construction bit for bit.

    ``collide`` prints these fields, so any change in their last bit
    changes its output.
    """

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 32), p_mag=st.integers(2, 9), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 62), b=st.floats(0.5, 2.0),
           sign_a=st.sampled_from([1.0, -1.0]), sign_b=st.sampled_from([1.0, -1.0]))
    def test_on_locus_witnesses_match_per_event_reference(
            self, n, p_mag, p_sign, k_index, b, sign_a, sign_b):
        p = p_sign * p_mag
        ratios = collision_ratios(n, p)[1].tolist()
        assume(ratios)
        ratio = abs(ratios[k_index % len(ratios)])
        assert_witnesses_bit_identical(ChoreoConfig(n, p, sign_a * ratio * b, sign_b * b))

    # On these, a row-wise norm (np.linalg.norm(diff, axis=-1), or
    # sqrt((diff * diff).sum(-1))) differs from the per-event norm in
    # the last bit for some events.
    @pytest.mark.parametrize("n, p, a, b", [
        (6, -2, 1.0, 1.0),
        (7, -6, 0.7 * abs(math.sin(math.pi * -6 / 7) / math.sin(math.pi / 7)), 0.7),
        # 15540 events at a large phase p k: the sign rule in integers
        # against the float product of the two amplitudes.
        (5, -1553, -1.618033988749898, 1.0),
    ])
    def test_pinned_configs(self, n, p, a, b):
        assert_witnesses_bit_identical(ChoreoConfig(n, p, a, b))


class TestMinPairDistance:
    def test_known_collision(self):
        result = min_pair_distance(ChoreoConfig(6, 2, 1.0, 1.0), 2)
        assert result.min_distance <= 1e-10
        # Bodies 0 and 2 meet where the curve crosses itself.
        assert result.argmin_t == pytest.approx(2 * math.pi / 3, abs=1e-6)

    def test_known_separation(self):
        result = min_pair_distance(ChoreoConfig(4, 2, 1.0, 1.0), 1)
        assert result.min_distance >= 0.1

    def test_matches_phasor_magnitude_formula(self):
        # Minimum distance is |A - B| with A = 2|a| sin(pi k/N),
        # B = 2|b sin(pi p k/N)|.
        for p, n in [(2, 5), (3, 7), (4, 9), (-3, 8)]:
            config = ChoreoConfig(n, p, 1.3, 0.8)
            for k in range(1, n):
                a_mag = 2 * abs(1.3 * math.sin(math.pi * k / n))
                b_mag = 2 * abs(0.8 * math.sin(math.pi * p * k / n))
                expected = abs(a_mag - b_mag)
                got = min_pair_distance(config, k).min_distance
                assert got == pytest.approx(expected, abs=1e-9)

    # At 1e-160 the squared distances underflow unless the oracle
    # scales the curve; (2, 6, 1.0000000019999999, 1.0) is just off
    # the locus, a gap of about 1.7e-9.
    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e-160])
    def test_matches_complex_form_at_scale(self, scale):
        for p, n, a, b in [(2, 5, 1.3, 0.8), (-3, 8, 1.3, 0.8), (2, 6, 1.0, 1.0),
                           (2, 6, 1.0000000019999999, 1.0)]:
            config = ChoreoConfig(n, p, a * scale, b * scale)
            size = (abs(a) + abs(b)) * scale
            for k, gap in zip(range(1, n), relative_gaps(config)):
                result = min_pair_distance(config, k)
                assert result.min_distance == pytest.approx(
                    pair_distance_closed_form(config, k, result.argmin_t),
                    abs=1e-12 * size)
                assert result.min_distance == pytest.approx(gap * size, abs=1e-9 * size)

    def test_bad_separation_rejected(self):
        with pytest.raises(IndexError):
            min_pair_distance(ChoreoConfig(4, 2), 4)

    # |q_0 - q_(N-k)| is |q_0 - q_k| shifted in time.
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 24), p_mag=st.integers(2, 9), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 30), kind=st.sampled_from(["on", "near", "off"]),
           b=st.floats(0.5, 2.0), sign_a=st.sampled_from([1.0, -1.0]),
           off_ratio=st.floats(0.1, 10.0))
    def test_mirror_separations_agree(self, n, p_mag, p_sign, k_index, kind, b, sign_a,
                                      off_ratio):
        p = p_sign * p_mag
        ks = [k for k in range(1, n) if (p * k) % n]
        assume(ks)
        k = ks[k_index % len(ks)]
        ratio = abs(math.sin(math.pi * p * k / n) / math.sin(math.pi * k / n))
        if kind == "off":
            ratio = off_ratio
        elif kind == "near":
            ratio += 1e-9 * (ratio + 1.0) / (2.0 * math.sin(math.pi * k / n))
        config = ChoreoConfig(n, p, sign_a * ratio * b, b)
        scale = abs(config.a) + b
        for j in range(1, n // 2 + 1):
            here = min_pair_distance(config, j).min_distance
            mirror = min_pair_distance(config, n - j).min_distance
            assert abs(here - mirror) <= 1e-12 * scale
            assert (here <= CERTIFY_TOL * scale) == (mirror <= CERTIFY_TOL * scale)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, math.tau), st.integers(1, 5))
    def test_distance_function_matches_complex_form(self, t, k):
        config = ChoreoConfig(6, 2, 1.1, 0.4)
        pos_0, _ = body_state(config, 0, t)
        pos_k, _ = body_state(config, k, t)
        direct = float(np.linalg.norm(pos_0 - pos_k))
        assert direct == pytest.approx(
            pair_distance_closed_form(config, k, t), abs=1e-12)


def on_locus_a(n, p, k, b):
    """The a that puts separation k of (n, p) on the collision locus for this b."""
    return b * math.sin(math.pi * p * k / n) / math.sin(math.pi * k / n)


def counted_oracle(patch):
    """Count min_pair_distance calls and their _pair_sq_dist evaluations.

    Returns the list of (calls, evaluations) counters, updated in place,
    and the list of each evaluation's sample times.
    """
    counts, samples = [0, 0], []
    oracle, sq_dist = collisions.min_pair_distance, collisions._pair_sq_dist

    def counting_oracle(config, k):
        counts[0] += 1
        return oracle(config, k)

    def counting_sq_dist(config, k, ts):
        counts[1] += 1
        samples.append(ts.copy())
        return sq_dist(config, k, ts)

    patch.setattr(collisions, "min_pair_distance", counting_oracle)
    patch.setattr(collisions, "_pair_sq_dist", counting_sq_dist)
    return counts, samples


class TestZoom:
    """min_pair_distance's vertex-centred zoom: certification and cost."""

    # The bodies' relative speed grows like |p| |b|; a zoom that stopped
    # at a fixed 1e-12 step in t left its best sample above CERTIFY_TOL
    # at large |p|, as at (5, -1553).
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(4, 64), p_mag=st.integers(2, 10_000),
           p_sign=st.sampled_from([1, -1]), k_index=st.integers(0, 62),
           b=st.floats(0.5, 2.0), sign_b=st.sampled_from([1.0, -1.0]))
    @example(n=5, p_mag=1553, p_sign=-1, k_index=0, b=1.0, sign_b=1.0)
    def test_on_locus_certified(self, n, p_mag, p_sign, k_index, b, sign_b):
        p = p_sign * p_mag
        ks = [k for k in range(1, n) if (p * k) % n]
        assume(ks)
        k = ks[k_index % len(ks)]
        config = ChoreoConfig(n, p, on_locus_a(n, p, k, sign_b * b), sign_b * b)
        scale = abs(config.a) + b
        assert min_pair_distance(config, k).min_distance <= CERTIFY_TOL * scale

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 64), p_mag=st.integers(2, 10_000),
           p_sign=st.sampled_from([1, -1]), k_index=st.integers(0, 62),
           b=st.floats(0.5, 2.0), sign_b=st.sampled_from([1.0, -1.0]))
    def test_near_locus_at_ten_tolerances_never_certified(
            self, n, p_mag, p_sign, k_index, b, sign_b):
        p = p_sign * p_mag
        ks = [k for k in range(1, n) if (p * k) % n]
        assume(ks)
        k = ks[k_index % len(ks)]
        a = on_locus_a(n, p, k, sign_b * b)
        # Widen |a| so separation k's gap is 10 CERTIFY_TOL (|a| + |b|).
        a += math.copysign(10 * CERTIFY_TOL * (abs(a) + b) / (2 * math.sin(math.pi * k / n)), a)
        config = ChoreoConfig(n, p, a, sign_b * b)
        assert min_pair_distance(config, k).min_distance > CERTIFY_TOL * (abs(a) + b)

    # At 2 <= |p| <= 14 the first pass samples 64 (|p| + 1) < 1024
    # points: on-locus draws are still certified in 5 evaluations, and
    # draws 10 CERTIFY_TOL off the locus are not.
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(4, 64), p_mag=st.integers(2, 14), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 62), on=st.booleans(),
           b=st.floats(0.5, 2.0), sign_b=st.sampled_from([1.0, -1.0]))
    def test_sized_grid_certifies_on_locus_only(self, n, p_mag, p_sign, k_index, on, b,
                                                sign_b):
        p = p_sign * p_mag
        ks = [k for k in range(1, n) if (p * k) % n]
        assume(ks)
        k = ks[k_index % len(ks)]
        a = on_locus_a(n, p, k, sign_b * b)
        if not on:
            # Separation k's gap is 10 CERTIFY_TOL (|a| + |b|).
            a += math.copysign(10 * CERTIFY_TOL * (abs(a) + b)
                               / (2 * math.sin(math.pi * k / n)), a)
        config = ChoreoConfig(n, p, a, sign_b * b)
        with pytest.MonkeyPatch.context() as patch:
            counts, _ = counted_oracle(patch)
            result = min_pair_distance(config, k)
        assert (result.min_distance <= CERTIFY_TOL * (abs(a) + b)) is on
        if on:
            assert counts[1] == 5

    # 64 samples per oscillation of the degree-(|p| + 1) squared
    # distance, capped at the 1024-point grid from |p| = 15 on.
    @pytest.mark.parametrize("p", [2, -2, 5, -9, 14, 15, -15, 16, -1553, 10_000])
    def test_first_pass_grid(self, p):
        n, k = 11, 1
        config = ChoreoConfig(n, p, on_locus_a(n, p, k, 1.0), 1.0)
        with pytest.MonkeyPatch.context() as patch:
            _, samples = counted_oracle(patch)
            min_pair_distance(config, k)
        size = min(1024, 64 * (abs(p) + 1))
        grid = np.linspace(0.0, math.tau, size, endpoint=False)
        assert samples[0].tobytes() == grid.tobytes()
        if abs(p) >= 15:
            capped = np.linspace(0.0, math.tau, 1024, endpoint=False)
            assert samples[0].tobytes() == capped.tobytes()

    def test_flat_window_edge_ties_with_interior(self):
        # Far off the locus the narrowed windows are flat to rounding,
        # and np.argmin could pick an edge sample that ties with the best
        # interior one.  Redoing that pass on noise would take 8
        # evaluations.
        config = ChoreoConfig(4, 5, -12.187955345087255, 1.5920475468595336)
        with pytest.MonkeyPatch.context() as patch:
            counts, _ = counted_oracle(patch)
            min_pair_distance(config, 2)
        assert counts[1] == 5

    # The classes of the collision_scan benchmark: on the locus of a
    # drawn separation, 1e-9 off it, or at an arbitrary ratio, where
    # has_collision consults the oracle only for a separation that
    # happens to lie near its locus.  Every call makes at least 5
    # evaluations (the grid, the first pass and three 1024-fold
    # passes), so the total bounds each call; the fixed 32-fold zoom
    # made 8.  |p| up to 20 spans the grid's cap at |p| = 15.
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 32), p_mag=st.integers(2, 20), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 30), kind=st.sampled_from(["on", "near", "off"]),
           b=st.floats(0.5, 2.0), sign_a=st.sampled_from([1.0, -1.0]),
           off_ratio=st.floats(0.1, 10.0))
    def test_five_evaluations_per_oracle_call(self, n, p_mag, p_sign, k_index, kind, b,
                                              sign_a, off_ratio):
        p = p_sign * p_mag
        ks = [k for k in range(1, n) if (p * k) % n]
        assume(ks)
        k = ks[k_index % len(ks)]
        ratio = abs(on_locus_a(n, p, k, 1.0))
        if kind == "off":
            ratio = off_ratio
        elif kind == "near":
            ratio += 1e-9 * (ratio + 1.0) / (2.0 * math.sin(math.pi * k / n))
        config = ChoreoConfig(n, p, sign_a * ratio * b, b)
        with pytest.MonkeyPatch.context() as patch:
            counts, _ = counted_oracle(patch)
            has_collision(config)
            if kind != "off":
                assert counts[0] >= 1
                collisions.min_pair_distance(config, k)
        calls, evaluations = counts
        assert evaluations <= 5 * calls

    def test_edge_fallback(self):
        # At |p| in the tens of thousands the parabola can miss the
        # minimum by more than the narrowed window's half-width; that
        # pass is redone around the edge sample, one spacing either side.
        n, p, k = 10, -32167, 8
        config = ChoreoConfig(n, p, on_locus_a(n, p, k, 1.0), 1.0)
        with pytest.MonkeyPatch.context() as patch:
            counts, samples = counted_oracle(patch)
            result = min_pair_distance(config, k)
        # Grid, first pass, the missed narrowed pass, its redo, then
        # three narrowed passes.
        assert counts[1] == 7
        widths = [float(ts[-1] - ts[0]) for ts in samples]
        assert any(later > earlier for earlier, later in zip(widths[1:], widths[2:]))
        assert result.min_distance <= CERTIFY_TOL * (abs(config.a) + 1.0)


class TestWitnessColumns:
    @pytest.mark.parametrize("config, count", [
        (ChoreoConfig(6, 2, 1.0, 1.0), 2 * 6),  # |p - 1| N events at k = 2 and k = 4
        (ChoreoConfig(4, 2, 1.0, 1.0), 0),
    ])
    def test_column_shapes_and_types(self, config, count):
        witnesses = has_collision(config).witnesses
        assert len(witnesses) == count
        for name, shape, dtype in [("k", (count,), np.int64), ("t", (count,), np.float64),
                                   ("bodies", (count, 2), np.int64),
                                   ("point", (count, 2), np.float64),
                                   ("distance", (count,), np.float64)]:
            column = getattr(witnesses, name)
            assert (column.shape, column.dtype) == (shape, dtype), name
        for w, k, pair in zip(witnesses, witnesses.k.tolist(), witnesses.bodies.tolist()):
            assert (type(w.k), w.k, type(w.bodies), w.bodies) == (int, k, tuple, tuple(pair))

    @pytest.mark.parametrize("p", [5, 2])
    def test_events_beyond_byte_range_name_their_inputs(self, p):
        # |p - 1| N witnesses would need 32 bytes each; refused before
        # anything is allocated.
        n = 2**60 - 2
        with pytest.raises(ValueError) as err:
            collisions._witnesses_for(ChoreoConfig(n, p), 1)
        assert str(err.value) == (
            f"separation k=1 with N={n}, p={p} has |p - 1| N = {abs(p - 1) * n} "
            f"collision events, whose positions ({32 * abs(p - 1) * n} bytes) are "
            f"more than numpy can allocate ({2**63 - 1} bytes)")
