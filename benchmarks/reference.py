"""Scalar reference for the synthetic downwash ground truth.

An independent re-statement of the formulas that ``downwash.field`` documents,
written with plain floats so the benchmark can check the package's oracle
without calling it.  Parameters are the YAML mappings of a run config
(``field:`` and ``merge:`` sections), not the package's dataclasses.

Single column, for a neighbour at lateral offset (dn, de) and height
dz = -dd > 0 above the sufferer:

    R(dz)  = core_radius * (1 + expansion_rate * dz)
    g      = exp(-(dn^2 + de^2) / R^2)
    f_d    = peak_force * g * exp(-dz / L) * (1 + expansion_rate * dz)^-2
    t_roll = torque_gain * f_d * de,     t_pitch = -torque_gain * f_d * dn
    f_n    = -lateral_gain * f_d * g * dn / R,   f_e likewise with de
    t_yaw  = 0

and the zero wrench when dz <= 0.  On the axis this is
f_d = peak * e^(-dz/L) * (1 + a*dz)^-2.

Merging: sources higher than 2*core_radius link into single-linkage clusters
when their lateral distance is below merge_radius.  With merged travel
m = max(0, dz - 2*core_radius), each member of a cluster of c > 1 sources is
moved by pull = min(1, contraction_rate * m) toward the cluster's lateral
centroid, advected by advect_gain * m along the unit mean lateral velocity,
and its core radius scaled by (1 + (sqrt(c) - 1) * e^(-m/L)) / sqrt(c).
Singletons are untouched, so K=1 merging equals additive.
"""

from __future__ import annotations

import math

DEFAULT_FIELD = {
    "peak_force": 4.0,
    "core_radius": 0.12,
    "expansion_rate": 0.05,
    "vertical_decay_length": 3.0,
    "torque_gain": 0.2,
    "lateral_gain": 0.1,
}
DEFAULT_MERGE = {"merge_radius": 0.6, "contraction_rate": 0.8, "advect_gain": 0.15}


def column(dn: float, de: float, dd: float, field: dict, core_radius: float | None = None) -> list:
    """Wrench [f_n, f_e, f_d, t_pitch, t_roll, t_yaw] of one column at relative position."""
    dz = -dd
    if dz <= 0.0:
        return [0.0] * 6
    core = field["core_radius"] if core_radius is None else core_radius
    widen = 1.0 + field["expansion_rate"] * dz
    radius = core * widen
    g = math.exp(-(dn * dn + de * de) / (radius * radius))
    f_d = field["peak_force"] * g * math.exp(-dz / field["vertical_decay_length"]) / (widen * widen)
    push = field["lateral_gain"] * f_d * g / radius
    tg = field["torque_gain"]
    return [-push * dn, -push * de, f_d, -tg * f_d * dn, tg * f_d * de, 0.0]


def _canonical(rels: list) -> list:
    # rel = (dn, de, dd, dvn, dve, dvd); order by dD, dN, dE, then velocity.
    return sorted(rels, key=lambda r: (r[2], r[0], r[1], r[3], r[4], r[5]))


def additive(rels: list, field: dict) -> list:
    """Componentwise sum of single columns over relative states (dn, de, dd, dvn, dve, dvd)."""
    total = [0.0] * 6
    for r in _canonical(rels):
        total = [a + b for a, b in zip(total, column(r[0], r[1], r[2], field))]
    return total


def _clusters(rels: list, field: dict, merge: dict) -> list:
    """Connected components of the 'eligible and laterally close' graph, as index lists."""
    n = len(rels)
    eligible = [-r[2] > 2.0 * field["core_radius"] for r in rels]
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or not (eligible[i] and eligible[j]):
                    continue
                if math.hypot(rels[i][0] - rels[j][0], rels[i][1] - rels[j][1]) < merge["merge_radius"]:
                    if label[j] < label[i]:
                        label[i] = label[j]
                        changed = True
    groups = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(i)
    return [groups[key] for key in sorted(groups)]


def merging(rels: list, field: dict, merge: dict) -> list:
    """Merging-rule wrench over relative states (dn, de, dd, dvn, dve, dvd)."""
    rels = _canonical(rels)
    core = field["core_radius"]
    decay = field["vertical_decay_length"]
    total = [0.0] * 6
    for members in _clusters(rels, field, merge):
        c = len(members)
        if c == 1:
            r = rels[members[0]]
            parts = [column(r[0], r[1], r[2], field)]
        else:
            cn = sum(rels[i][0] for i in members) / c
            ce = sum(rels[i][1] for i in members) / c
            vn = sum(rels[i][3] for i in members) / c
            ve = sum(rels[i][4] for i in members) / c
            speed = math.hypot(vn, ve)
            un, ue = (vn / speed, ve / speed) if speed > 0.0 else (0.0, 0.0)
            root_c = math.sqrt(c)
            parts = []
            for i in members:
                dn, de, dd = rels[i][0], rels[i][1], rels[i][2]
                travel = max(0.0, -dd - 2.0 * core)
                pull = min(1.0, merge["contraction_rate"] * travel)
                drift = merge["advect_gain"] * travel
                scale = (1.0 + (root_c - 1.0) * math.exp(-travel / decay)) / root_c
                parts.append(
                    column(
                        dn + pull * (cn - dn) + drift * un,
                        de + pull * (ce - de) + drift * ue,
                        dd,
                        field,
                        core_radius=core * scale,
                    )
                )
        for part in parts:
            total = [a + b for a, b in zip(total, part)]
    return total


def formation_offsets(kind: str, k: int, spacing: float) -> list:
    """Member offsets (n, e, d) about the formation centroid, per the formation docs."""
    mid = (k - 1) / 2.0
    if kind == "side_by_side":
        return [((i - mid) * spacing, 0.0, 0.0) for i in range(k)]
    if kind == "leader_follower":
        return [(0.0, (i - mid) * spacing, 0.0) for i in range(k)]
    if kind == "stack":
        return [((i - mid) * spacing / 2.0, 0.0, (i - mid) * spacing) for i in range(k)]
    if kind == "hybrid3" and k == 3:
        rho = spacing / math.sqrt(3.0)
        return [(rho, 0.0, 0.0), (-rho / 2.0, spacing / 2.0, 0.0), (-rho / 2.0, -spacing / 2.0, 0.0)]
    raise ValueError(f"no reference geometry for {kind} k={k}")


def formation_rels(kind: str, k: int, spacing: float, n: float, e: float, altitude: float, speed: float) -> list:
    """Relative states of a formation centred at (n, e, -altitude) moving along +E,
    seen from a sufferer at rest at the origin."""
    return [
        (n + on, e + oe, -altitude + od, 0.0, speed, 0.0)
        for on, oe, od in formation_offsets(kind, k, spacing)
    ]


def close(value, ref, rel: float = 1e-9) -> bool:
    """True when every component of ``value`` is within ``rel`` of the reference's
    largest magnitude."""
    scale = max(abs(x) for x in ref)
    return all(abs(a - b) <= rel * scale for a, b in zip(value, ref))
