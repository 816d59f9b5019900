import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from limachor.collisions import (
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


class TestCollisionRatios:
    def test_four_bodies_p2(self):
        values = sorted(r.ratio for r in collision_ratios(4, 2))
        assert values == pytest.approx([-math.sqrt(2), math.sqrt(2)])

    def test_six_bodies_p2_includes_unity(self):
        values = [r.ratio for r in collision_ratios(6, 2)]
        assert any(abs(v - 1.0) <= 1e-12 for v in values)

    def test_sign_symmetry_in_p(self):
        for n, p in [(7, 3), (9, 4), (11, 5)]:
            plus = sorted(abs(r.ratio) for r in collision_ratios(n, p))
            minus = sorted(abs(r.ratio) for r in collision_ratios(n, -p))
            assert plus == pytest.approx(minus, abs=1e-12)

    def test_count_bound(self):
        for n in range(4, 21):
            for mag in range(2, 8):
                for p in (mag, -mag):
                    assert len(collision_ratios(n, p)) <= 2 * (n - 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 599), mag=st.integers(2, 12), sign=st.sampled_from([1, -1]))
    def test_bound_mirror_and_distinct_entries(self, n, mag, sign):
        ratios = collision_ratios(n, sign * mag)
        assert len(ratios) <= 2 * (n - 1)
        assert all(r.k <= n / 2 for r in ratios)
        values = sorted(r.ratio for r in ratios)
        for low, high in zip(values, values[1:]):
            assert high - low > 1e-9 * max(abs(low), abs(high))

    def test_mirror_duplicates_dropped_at_370_11(self):
        # 362 distinct values; separations k and N - k used to add two more.
        assert len(collision_ratios(370, 11)) == 362

    def test_mirror_of_first_separation_dropped_at_397_11(self):
        # k = 396 gives |ratio| 10.986228537980477, 1.3e-12 away from k = 1.
        ratios = collision_ratios(397, 11)
        near = [(r.k, r.ratio) for r in ratios
                if abs(abs(r.ratio) - 10.986228537979132) <= 1e-9]
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
        assert report.witnesses == []

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
        for r in collision_ratios(n, p):
            assert has_collision(ChoreoConfig(n, p, r.ratio * s_sign * s, s_sign * s)).collides

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
        ratios = collision_ratios(n, p)
        assume(ratios)
        ratio = abs(ratios[k_index % len(ratios)].ratio) * (1.0 + offset)
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
        ratios = collision_ratios(n, p)
        assume(ratios)
        ratio = abs(ratios[k_index % len(ratios)].ratio) * (1.0 + offset)
        report = has_collision(ChoreoConfig(n, p, sign_a * ratio * b, b))
        certified = {w.k for w in report.witnesses}
        assert certified == {n - k for k in certified}
        assert set(report.suspects) == {n - k for k in report.suspects}
        for k in certified:
            assert sum(w.k == k for w in report.witnesses) == abs(p - 1) * n


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
        ratios = collision_ratios(n, p)
        assume(ratios)
        ratio = abs(ratios[k_index % len(ratios)].ratio)
        assert_witnesses_bit_identical(ChoreoConfig(n, p, sign_a * ratio * b, sign_b * b))

    # On these, a row-wise norm (np.linalg.norm(diff, axis=-1), or
    # sqrt((diff * diff).sum(-1))) differs from the per-event norm in
    # the last bit for some events.
    @pytest.mark.parametrize("n, p, a, b", [
        (6, -2, 1.0, 1.0),
        (7, -6, 0.7 * abs(math.sin(math.pi * -6 / 7) / math.sin(math.pi / 7)), 0.7),
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

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_matches_complex_form_at_scale(self, scale):
        for p, n, a, b in [(2, 5, 1.3, 0.8), (-3, 8, 1.3, 0.8), (2, 6, 1.0, 1.0)]:
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

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, math.tau), st.integers(1, 5))
    def test_distance_function_matches_complex_form(self, t, k):
        config = ChoreoConfig(6, 2, 1.1, 0.4)
        pos_0, _ = body_state(config, 0, t)
        pos_k, _ = body_state(config, k, t)
        direct = float(np.linalg.norm(pos_0 - pos_k))
        assert direct == pytest.approx(
            pair_distance_closed_form(config, k, t), abs=1e-12)
