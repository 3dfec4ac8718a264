"""Independent checks of the program's answers, and the result fingerprint.

Nothing here calls hambif: each oracle recomputes what it checks from the
system's own evaluators or from a closed form, with numpy and the stdlib.
A check returns failures as ``(operation, check, detail)``; the operation
is ``"analysis"``, ``"step <i>"`` or ``"call"``.
"""

from __future__ import annotations

import json

import numpy as np

CHAIN_BETA_RTOL = {True: 1e-9, False: 1e-6}  # analytic / finite-difference Hessian
QUINTIC_TOL = 1e-12
PENDULUM_RTOL = 1e-4


def solver_tolerance(z0) -> float:
    """The residual tolerance ``solve_orbit`` promises by default."""
    return 1e-9 * (1.0 + float(np.linalg.norm(z0)))


def elliptic_k(m: float) -> float:
    """Complete elliptic integral K(m), m = k^2, by the arithmetic-geometric mean."""
    a, b = 1.0, float(np.sqrt(1.0 - m))
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
    return float(np.pi / (2.0 * a))


def pendulum_period(energy: float) -> float:
    """Period of ``q'' = -sin q`` at energy ``p^2/2 + 1 - cos q``."""
    return 4.0 * elliptic_k(energy / 2.0)


def satellite_quintic(omega: float, c: float, z0) -> float:
    """Residual of ``omega^2 d^5 - d^2 - 3c`` at the equilibrium distance d = |q0|."""
    d = float(np.linalg.norm(np.asarray(z0)[:3]))
    return omega**2 * d**5 - d**2 - 3.0 * c


def satellite_distance(omega: float, c: float) -> float:
    """The positive real root d of ``omega^2 d^5 - d^2 - 3c``."""
    roots = np.roots([omega**2, 0.0, 0.0, -1.0, 0.0, -3.0 * c])
    return float(max(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0.0))


def satellite_section_degree(hessian, z0) -> int | None:
    """Product of local degrees on the section orthogonal to the SO(2) orbit.

    The section Hessian is nondegenerate at a circular equilibrium, so each
    eigen-direction contributes the sign of its eigenvalue.
    """
    spin = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    generator = np.kron(np.eye(2), spin)
    tangent = generator @ np.asarray(z0, dtype=float)
    q, _ = np.linalg.qr(np.column_stack([tangent, np.eye(6)]))
    section = q[:, 1:6]
    w = np.linalg.eigvalsh(section.T @ np.asarray(hessian, dtype=float) @ section)
    if np.min(np.abs(w)) <= 1e-8 * (1.0 + np.max(np.abs(w))):
        return None
    return int(np.prod(np.sign(w)))


def separable_degree(monomials: str, dim: int) -> int:
    """Degree at 0 of the gradient of a sum of one-variable monomials.

    The gradient splits into one scalar map per variable; each has local
    degree sign(coefficient) when its lowest power is odd and 0 when even.
    """
    lowest: dict = {}
    for part in monomials.split(";"):
        values = part.split()
        coeff, exps = float(values[0]), [int(e) for e in values[1:]]
        used = [i for i, e in enumerate(exps) if e]
        if len(used) != 1:
            raise ValueError(f"monomial {part.strip()!r} is not a power of one variable")
        i = used[0]
        power, dcoeff = exps[i] - 1, coeff * exps[i]
        if i not in lowest or power < lowest[i][0]:
            lowest[i] = (power, dcoeff)
        elif power == lowest[i][0]:
            lowest[i] = (power, lowest[i][1] + dcoeff)
    degree = 1
    for i in range(dim):
        power, dcoeff = lowest.get(i, (0, 0.0))
        degree *= int(np.sign(dcoeff)) if power % 2 == 1 else 0
    return degree


def fourier_curve(a0, a, b, points: int):
    """z(t) and z'(t) of a truncated Fourier series on an equispaced grid."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    t = 2.0 * np.pi * np.arange(points) / points
    k = np.arange(1, a.shape[0] + 1)
    cos, sin = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
    z = np.asarray(a0, dtype=float) + cos @ a + sin @ b
    zdot = cos @ (k[:, None] * b) - sin @ (k[:, None] * a)
    return z, zdot


def orbit_failures(system, z0, a0, a, b, lam, op: str, pendulum: bool = False) -> list:
    """Residual, energy and (for the pendulum) period checks of one orbit."""
    m = np.asarray(a).shape[0]
    z, zdot = fourier_curve(a0, a, b, 4 * m + 1)
    n = z.shape[1] // 2
    grads = np.array([system.gradient(zi) for zi in z])
    flow = np.concatenate([grads[:, n:], -grads[:, :n]], axis=1)
    residual = float(np.max(np.linalg.norm(zdot - lam * flow, axis=1)))
    fails = []
    tol = solver_tolerance(z0)
    if not residual < tol:
        fails.append((op, "orbit_residual", f"residual {residual:.3e} >= tol {tol:.1e}"))
    energies = np.array([float(system.energy(zi)) for zi in z])
    spread = float(np.max(energies) - np.min(energies))
    if spread > 1e-8 * (1.0 + abs(float(np.min(energies)))):
        fails.append((op, "orbit_energy", f"energy varies by {spread:.3e}"))
    if pendulum:
        oracle = pendulum_period(0.5 * float(np.max(energies) + np.min(energies)))
        period = 2.0 * np.pi * lam
        if abs(period - oracle) > PENDULUM_RTOL * oracle:
            fails.append((op, "pendulum_period", f"period {period:.12g}, elliptic oracle {oracle:.12g}"))
    return fails


def analysis_failures(req, out) -> list:
    """Checks of one refine + analyze against the request's expectations."""
    exp, cands, fails = req.expect, out.candidates, []
    if "candidates" in exp and len(cands) != exp["candidates"]:
        fails.append(("analysis", "candidate_count", f"{len(cands)} candidates, expected {exp['candidates']}"))
    expected_degree = exp.get("degree")
    if "satellite" in exp:
        omega, c = exp["satellite"]
        res = satellite_quintic(omega, c, out.eq.z0)
        if abs(res) > QUINTIC_TOL:
            fails.append(("analysis", "satellite_quintic", f"quintic residual {res:.3e}"))
        expected_degree = satellite_section_degree(exp["hessian"](out.eq.z0), out.eq.z0)
    if "monomials" in exp:
        expected_degree = separable_degree(exp["monomials"], req.system.dim)
    if "betas" in exp:
        freqs = np.sort(np.asarray(exp["betas"]))[::-1]
        betas = np.array([c.beta for c in cands])
        rtol = CHAIN_BETA_RTOL[req.system.hessian is not None]
        if betas.shape != freqs.shape or np.max(np.abs(betas - freqs) / freqs) > rtol:
            fails.append(("analysis", "chain_betas", f"betas {np.round(betas, 9).tolist()} != {np.round(freqs, 9).tolist()}"))
    if expected_degree is not None:
        got = sorted({c.degree_on_section for c in cands}, key=str)
        if got != [expected_degree]:
            fails.append(("analysis", "section_degree", f"degree {got}, closed form {expected_degree}"))
    return fails


def request_failures(req, out) -> list:
    """Every failure of one in-process request, by operation."""
    if out.error:
        ops = ["analysis"] + [f"step {i}" for i in range(req.steps if req.kind == "branch" else 0)]
        return [(op, "raised", out.error) for op in ops]
    fails = analysis_failures(req, out)
    if req.kind != "branch":
        return fails
    orbits = out.branch.orbits
    for i, orbit in enumerate(orbits):
        fails += orbit_failures(
            req.system, out.eq.z0, orbit.a0, orbit.a, orbit.b, orbit.lam, f"step {i}",
            pendulum=bool(req.expect.get("pendulum")),
        )
    reason = "; ".join(out.branch.failures) or "branch stopped early"
    for i in range(len(orbits), req.steps):
        fails.append((f"step {i}", "branch_step", reason))
    return fails


def _cli_records(out):
    """Parsed json-lines of a CLI call: (records, orbit records, coefficient records)."""
    records = [json.loads(line) for line in out.output.splitlines() if line.strip()]
    orbit_recs = [r for r in records if "record" not in r]
    coeffs = [r for r in records if r.get("record") == "coefficients"]
    return records, orbit_recs, coeffs


def cli_failures(req, out) -> list:
    """Exit code, parse and content checks of one CLI call."""
    if out.error:
        return [("call", "exit_code", out.error)]
    try:
        records, orbit_recs, coeffs = _cli_records(out)
    except json.JSONDecodeError as exc:
        return [("call", "json_lines", f"output does not parse: {exc}")]
    if req.argv[0] == "analyze":
        if len(records) != req.expect["candidates"]:
            return [("call", "candidate_count", f"{len(records)} candidate records")]
        return []
    if len(orbit_recs) != req.expect["orbits"] or len(coeffs) != len(orbit_recs):
        return [("call", "branch_records", f"{len(orbit_recs)} orbits, {len(coeffs)} coefficient records")]
    omega, c = req.expect["satellite"]
    d = satellite_distance(omega, c)
    z0 = np.array([d, 0.0, 0.0, 0.0, -omega * d, 0.0])  # only |z0| sets the tolerance
    fails = []
    for rec, co in zip(orbit_recs, coeffs):
        fails += orbit_failures(req.system, z0, co["a0"], co["a"], co["b"], rec["lambda"], "call")
    return fails


# ------------------------------------------------------------ fingerprint


def fingerprint(req, out) -> dict:
    """Answers that a speed-up must not change: verdicts, degrees, orbits."""
    if req.kind == "cli":
        return _cli_fingerprint(req, out)
    if out.error:
        return {"error": out.error.split(":")[0]}
    fp = {
        "candidates": len(out.candidates),
        "verdicts": [c.verdict for c in out.candidates],
        "degree": [[c.degree_on_section, c.degree_path] for c in out.candidates[:1]],
    }
    if out.branch is not None:
        orbits = out.branch.orbits
        fp["orbits"] = len(orbits)
        fp["max_modes"] = max((o.m for o in orbits), default=0)
        fp["period_at_smallest"] = f"{orbits[0].period:.12g}" if orbits else None
    return fp


def _cli_fingerprint(req, out) -> dict:
    fp = {"exit_code": out.exit_code}
    try:
        records, orbit_recs, coeffs = _cli_records(out)
    except json.JSONDecodeError:
        return fp
    if req.argv[0] == "analyze":
        fp["candidates"] = len(records)
        fp["verdicts"] = [r.get("verdict") for r in records]
        fp["degree"] = [[r.get("degree"), r.get("degree_path")] for r in records[:1]]
    else:
        fp["orbits"] = len(orbit_recs)
        fp["max_modes"] = max((c["modes"] for c in coeffs), default=0)
        fp["period_at_smallest"] = f"{orbit_recs[0]['period']:.12g}" if orbit_recs else None
    return fp
