"""Seeded request pools and output checks for the four benchmark workloads.

A workload turns a seed into a pool of ``limachor`` argument vectors.
The harness cycles through the pool, so every argv repeats within a run
and its stdout can be compared byte for byte.  Every expected result is
derived here from closed forms, never from the code under test.

This module imports only the standard library: importing numpy or
limachor belongs to the measured set-up time.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Collision classes, by the closed-form pair gap |A_k - B_k| relative to
# |a| + |b|.  ON sits on the locus (rounding only), NEAR inside the band
# where the oracle must be consulted but cannot certify, OFF far away.
ON_GAP = 1e-12
NEAR_GAP = 1e-9
NEAR_BAND = (1e-10, 1e-8)
OFF_GAP = 1e-3
# Witness separations and orbit samples must match the closed forms to
# this tolerance, relative to the curve's size.
CLOSED_FORM_TOL = 1e-9

VERIFY_N = range(4, 13)
VERIFY_P = range(2, 8)
LARGE_N = 64
EXPORT_N = 256
EXPORT_STEPS = 128
EXPORT_P = range(2, 10)
COLLIDE_N = range(4, 33)
COLLIDE_P = range(2, 10)

POOL_SIZE = {"verify_sweep": 18, "verify_large": 3, "orbit_export": 6,
             "collision_scan": 96}
ORBIT_SUBSAMPLE = 32


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str                      # verify | orbit | on | near | off
    N: int
    p: int
    a: float
    b: float
    rows: tuple[int, ...] = field(default=())   # orbit rows to recompute


def admissible(p: int, N: int) -> bool:
    """The paper's criterion: |p| >= 2, N >= 4, N divides none of p-1, p, p+1."""
    return abs(p) >= 2 and N >= 4 and all((p + d) % N for d in (-1, 0, 1))


def _amplitude(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


def _signed(rng: random.Random, values) -> int:
    return rng.choice((-1, 1)) * rng.choice(list(values))


def _curve_args(N, p, a, b):
    return ("--N", str(N), "--p", str(p), "--a", repr(a), "--b", repr(b))


def _verify_sweep(rng):
    pool = []
    for i in range(POOL_SIZE["verify_sweep"]):
        # Every N appears equally often, so each seed's pool does the same
        # work and its largest system (which sets peak RSS) is the same.
        N = VERIFY_N[i % len(VERIFY_N)]
        p = rng.choice([p for m in VERIFY_P for p in (m, -m) if admissible(p, N)])
        a, b = _amplitude(rng), _amplitude(rng)
        pool.append(Request(("verify",) + _curve_args(N, p, a, b), "verify", N, p, a, b))
    return pool


def _verify_large(rng):
    pool = []
    for _ in range(POOL_SIZE["verify_large"]):
        p = _signed(rng, VERIFY_P)
        a, b = _amplitude(rng), _amplitude(rng)
        pool.append(Request(("verify",) + _curve_args(LARGE_N, p, a, b),
                            "verify", LARGE_N, p, a, b))
    return pool


def _orbit_export(rng):
    dt = math.tau / EXPORT_STEPS   # one full period
    total_rows = (EXPORT_STEPS + 1) * EXPORT_N
    pool = []
    for _ in range(POOL_SIZE["orbit_export"]):
        p = _signed(rng, EXPORT_P)
        a, b = _amplitude(rng), _amplitude(rng)
        argv = (("simulate",) + _curve_args(EXPORT_N, p, a, b)
                + ("--steps", str(EXPORT_STEPS), "--dt", repr(dt)))
        rows = tuple(sorted(rng.sample(range(total_rows), ORBIT_SUBSAMPLE)))
        pool.append(Request(argv, "orbit", EXPORT_N, p, a, b, rows))
    return pool


def pair_gaps(N: int, p: int, a: float, b: float) -> dict[int, float]:
    """Closed-form gap |A_k - B_k| of every separation k, relative to |a| + |b|.

    A_k = 2|a| sin(pi k / N) and B_k = 2|b sin(pi p k / N)| are the
    phasor magnitudes of q_0 - q_k; the pair meets exactly when they agree.
    """
    scale = abs(a) + abs(b)
    gaps = {}
    for k in range(1, N):
        big_a = 2.0 * abs(a) * math.sin(math.pi * k / N)
        big_b = 0.0 if (p * k) % N == 0 else 2.0 * abs(b * math.sin(math.pi * p * k / N))
        gaps[k] = abs(big_a - big_b) / scale
    return gaps


def _classify(gaps: dict[int, float]) -> str | None:
    worst = min(gaps.values())
    if worst <= ON_GAP:
        return "on"
    if NEAR_BAND[0] < worst < NEAR_BAND[1]:
        return "near"
    if worst >= OFF_GAP:
        return "off"
    return None


def _collide_design(i):
    """(N, p) and the separation index of design point i.

    Collision cost depends on N, p and on how many separations share the
    drawn ratio, so these follow a fixed design that covers every N and
    every p; the seed draws amplitudes, signs, offsets and order.
    """
    N = COLLIDE_N[(11 * i) % len(COLLIDE_N)]
    p = COLLIDE_P[i % len(COLLIDE_P)] * (-1 if (i // len(COLLIDE_P)) % 2 else 1)
    return N, p, 5 * i


def _collide_case(rng, kind, i):
    """Draw (a, b) of one collision class for design point i, |a| + |b| in [1, 2]."""
    N, p, k_index = _collide_design(i)
    ks = [k for k in range(1, N) if (p * k) % N]
    k = ks[k_index % len(ks)]
    for _ in range(100):
        if kind == "off":
            ratio = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        else:
            ratio = (rng.choice((-1.0, 1.0)) * math.sin(math.pi * p * k / N)
                     / math.sin(math.pi * k / N))
        scale = rng.uniform(1.0, 2.0)
        b = rng.choice((-1.0, 1.0)) * scale / (1.0 + abs(ratio))
        a = ratio * b
        if kind == "near":
            # Widen |a| so the gap of separation k becomes NEAR_GAP * scale.
            a += math.copysign(NEAR_GAP * scale / (2.0 * math.sin(math.pi * k / N)), a)
        if _classify(pair_gaps(N, p, a, b)) == kind:
            return N, p, a, b
    raise ValueError(f"no {kind}-locus draw for N={N}, p={p}, k={k}")


def _collision_scan(rng):
    pool = []
    for kind in ("on", "near", "off"):
        for i in range(POOL_SIZE["collision_scan"] // 3):
            N, p, a, b = _collide_case(rng, kind, i)
            pool.append(Request(("collide",) + _curve_args(N, p, a, b), kind, N, p, a, b))
    rng.shuffle(pool)
    return pool


WORKLOADS = {
    "verify_sweep": _verify_sweep,
    "verify_large": _verify_large,
    "orbit_export": _orbit_export,
    "collision_scan": _collision_scan,
}


def build(name: str, seed: int) -> list[Request]:
    """The request pool of workload ``name`` for ``seed``; same seed, same pool."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


# ---------------------------------------------------------------- checks


def _check_verify(req, out):
    payload = json.loads(out)
    if payload.get("ok") is not True or payload.get("failures"):
        return f"verify not ok: failures={payload.get('failures')}"
    if (payload.get("N"), payload.get("p")) != (req.N, req.p):
        return "verify echoed wrong (N, p)"
    return None


def _curve_state(req, theta):
    a, b, p = req.a, req.b, req.p
    c1, s1 = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(p * theta), math.sin(p * theta)
    return (a * c1 + b * cp, a * s1 + b * sp,
            -a * s1 - p * b * sp, a * c1 + p * b * cp)


def _check_orbit(req, out):
    lines = out.split("\n")
    if lines[0] != "t,body,x,y,vx,vy":
        return f"bad CSV header {lines[0]!r}"
    if lines[-1] != "":
        return "CSV does not end with a newline"
    want = (EXPORT_STEPS + 1) * req.N
    if len(lines) - 2 != want:
        return f"CSV has {len(lines) - 2} rows, expected {want}"
    tol = CLOSED_FORM_TOL * (abs(req.a) + abs(req.p * req.b))
    dt = math.tau / EXPORT_STEPS
    for row in req.rows:
        fields = lines[1 + row].split(",")
        sample, body = divmod(row, req.N)
        t = float(fields[0])
        if int(fields[1]) != body or abs(t - sample * dt) > 1e-12:
            return f"row {row} labels (t={t}, body={fields[1]}) out of order"
        want_state = _curve_state(req, t + math.tau * body / req.N)
        got = [float(x) for x in fields[2:]]
        if any(abs(g - w) > tol for g, w in zip(got, want_state)):
            return f"row {row} differs from the closed-form orbit"
    return None


def _ratios(N, p):
    found = []
    for k in range(1, N):
        if (p * k) % N == 0:
            continue
        magnitude = abs(math.sin(math.pi * p * k / N) / math.sin(math.pi * k / N))
        for value in (magnitude, -magnitude):
            if not any(abs(value - r) <= 1e-12 for _, r in found):
                found.append((k, value))
    return sorted(found)


def _check_collide(req, out):
    payload = json.loads(out)
    ratios = [(r["k"], r["ratio"]) for r in payload["ratios"]]
    want = _ratios(req.N, req.p)
    if len(ratios) != len(want) or any(
            k != wk or abs(r - wr) > 1e-12 for (k, r), (wk, wr) in zip(ratios, want)):
        return "dangerous ratios differ from the closed form"
    if req.kind != "on":
        if payload["collides"] or payload["witnesses"]:
            return f"{req.kind}-locus config reported a collision"
        if req.kind == "off" and payload["suspects"]:
            return "off-locus config reported suspects"
        return None
    if not payload["collides"]:
        return "on-locus config reported no collision"
    scale = abs(req.a) + abs(req.b)
    gaps = pair_gaps(req.N, req.p, req.a, req.b)
    on_ks = {k for k, g in gaps.items() if g <= ON_GAP}
    per_k: dict[int, int] = {}
    for w in payload["witnesses"]:
        if w["distance"] > CLOSED_FORM_TOL * scale:
            return f"witness distance {w['distance']} is not near zero"
        j, partner = w["bodies"]
        if partner != (j + w["k"]) % req.N:
            return "witness bodies are not k apart"
        per_k[w["k"]] = per_k.get(w["k"], 0) + 1
    if set(per_k) != on_ks:
        return f"witness separations {sorted(per_k)} != closed-form {sorted(on_ks)}"
    # Bodies j and j+k meet |p - 1| times per period, for each of N values of j.
    if any(count != abs(req.p - 1) * req.N for count in per_k.values()):
        return "witness count per separation is not |p - 1| * N"
    return None


_CHECKS = {"verify": _check_verify, "orbit": _check_orbit,
           "on": _check_collide, "near": _check_collide, "off": _check_collide}


def check(req: Request, code: int, out: str) -> str | None:
    """Why this output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[req.kind](req, out)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"unparsable output: {err!r}"
