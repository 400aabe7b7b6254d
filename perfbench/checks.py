"""Independent checks of one repetition's outputs.

Each check compares a value from ``report.json`` (or a residual of a torus
model computed by ``child.py``) with an analytic constant or with a quantity
recomputed here with numpy.  No check copies an output of the program.
Every function returns a list of ``(name, passed, detail)`` triples, the
same list for every repetition of a workload.
"""

from __future__ import annotations

import math

import numpy as np

CIRCLE_N = 131_072
TOY_N = 1_000_000


def _z(value):
    """A report value: a float, or a complex stored as {"re": .., "im": ..}."""
    if isinstance(value, dict):
        return complex(value["re"], value["im"])
    return complex(value)


def _near(name, value, target, tol):
    gap = abs(value - target)
    return (name, bool(gap <= tol), f"|{value:.12g} - {target:.12g}| = "
                                    f"{gap:.3g} <= {tol:g}")


def _values(records, name):
    return records[name]["values"]


def _circle_weight_mu(N):
    """Singular values of (1 + D^2)^{-1/2} on the modes |k| <= N, sorted."""
    k = np.arange(-N, N + 1, dtype=float)
    return np.sort(1.0 / np.sqrt(1.0 + k * k))[::-1]


def _toy_weight_mu(N):
    """Singular values of (1 + D^2)^{-1/2} for D = diag(k + 1), k < N."""
    d = np.arange(1, N + 1, dtype=float)
    return 1.0 / np.sqrt(1.0 + d * d)


def _quasi_norm(mu):
    return float(np.max((np.arange(mu.size) + 1.0) * mu))


def _lorentz_norm(mu):
    return float(np.max(np.cumsum(mu) / np.log(2.0 + np.arange(mu.size))))


def circle(records, prefix="", N=CIRCLE_N):
    """Circle, c = u* (x) u: Ch(c) = 2 exactly, every slope estimates 2."""
    out = [_near(f"{prefix}chern=2",
                 _z(_values(records, prefix + "chern")["chern"]), 2.0, 1e-9)]
    slopes = [("eigen-sums", "z"), ("heat", "z"), ("dixmier", "z"),
              ("measure", "z_spec"), ("measure", "z_heat"),
              ("concordance", "partial_sum"), ("concordance", "heat"),
              ("concordance", "dixmier")]
    for check, key in slopes:
        if prefix + check in records:
            out.append(_near(f"{prefix}{check}.{key}=2",
                             _z(_values(records, prefix + check)[key]), 2.0,
                             1e-2))
    if prefix + "summability" in records:
        mu = _circle_weight_mu(N)
        qn = _values(records, prefix + "summability")["quasi_norm"]
        out.append(_near(f"{prefix}quasi_norm=numpy", qn, _quasi_norm(mu),
                         1e-12))
        out.append(_near(f"{prefix}quasi_norm=sqrt5", qn, math.sqrt(5.0),
                         1e-12))
    return out


def harmonic(records, prefix=""):
    """V = diag(1/(k+1)): every trace of V is 1, of the sign-alternated V 0."""
    out = []
    vals = _values(records, prefix + "diag-oracles")
    for key in ("dixmier", "heat", "heat_xi"):
        out.append(_near(f"{prefix}diag-oracles.{key}=1", _z(vals[key]), 1.0,
                         0.05))
    for key in ("alt_z_heat", "alt_z_spec"):
        out.append(_near(f"{prefix}diag-oracles.{key}=0", _z(vals[key]), 0.0,
                         0.02))
    return out


def toy(records):
    out = harmonic(records)
    vals = _values(records, "summability")
    out.append(_near("summability.quasi_norm=1", vals["quasi_norm"], 1.0,
                     1e-9))
    ln = _lorentz_norm(_toy_weight_mu(TOY_N))
    out.append(_near("summability.lorentz_norm=numpy", vals["lorentz_norm"],
                     ln, 1e-9 * ln))
    return out


def suite_full(records, models):
    """The full suite: the torus character, parity vanishing, the circle
    and harmonic constants, and the polar relations of every torus model."""
    four_pi = 4.0 * math.pi
    out = [
        # README: the torus partial-sum slope matches -4 pi i within 0.6%
        _near("torus64:measure.z_spec=-4pi*i",
              _z(_values(records, "torus64:measure")["z_spec"]),
              -1j * four_pi, 0.006 * four_pi),
        _near("torus64-parity:measure.chern=0",
              _z(_values(records, "torus64-parity:measure")["chern"]), 0.0,
              1e-8),
    ]
    out += circle(records, prefix="circle2048:", N=2048)
    out += harmonic(records, prefix="diag1e5:")
    out.append(("torus models checked", len(models) >= 1, f"{len(models)}"))
    for i, m in enumerate(models):
        for key, rel in (("f_squared", "F^2=1"), ("f_absd", "F|D|=D"),
                         ("gamma_f", "{Gamma,F}=0")):
            out.append((f"torus model {i} {rel}", m[key] <= 1e-10,
                        f"{m['model']}: {m[key]:.3g} <= 1e-10"))
    return out
