"""Print the polynomial coefficients of the Box-Muller and cos bodies in ``pathkernel.rng``.

The bodies compute cos(2 pi u), sin(2 pi u), log u and cos x from IEEE
basic operations only (see the ``rng`` module docstring), with these
constants:

- ``_COS_COEFFS``: the Taylor coefficients of cos(pi f / 2) in f**2,
  (-1)**k (pi/2)**(2k) / (2k)! for k = 0..10;
- ``_SIN_COEFFS``: those of sin(pi f / 2) / f in f**2,
  (-1)**k (pi/2)**(2k+1) / (2k+1)! for k = 0..10;
- ``_LOG_COEFFS``: 2 / (2k + 1) for k = 1..14, the series of
  (log((1 + s) / (1 - s)) - 2s) / s**3 in s**2;
- ``_LN2_HI``, ``_LN2_LO``: log 2 split into its leading 32 bits, so that
  e * _LN2_HI is exact for every |e| < 2**21, and the double nearest the rest;
- ``_COS_R_COEFFS``: the Taylor coefficients of cos r in r**2,
  (-1)**k / (2k)! for k = 0..8;
- ``_SIN_R_COEFFS``: those of sin r / r in r**2, (-1)**k / (2k+1)! for
  k = 0..8.  On |r| <= pi/4 the first omitted term of either is below
  2**-58;
- ``_TWO_OVER_PI``: the double nearest 2/pi;
- ``_PIO2_HI``, ``_PIO2_LO``: pi/2 split into its leading 33 bits, so that
  k * _PIO2_HI is exact for every |k| <= 2**20, and the double nearest the
  rest (Cody and Waite's split, as fdlibm's ``pio2_1`` and ``pio2_1t``).

Each constant is computed with mpmath at 60 digits and rounded once to the
nearest double.  The output is the Python block that ``rng.py`` holds, as
hex float literals; the test suite runs this script and compares:

    python tools/box_muller_coefficients.py
"""

from __future__ import annotations

import mpmath

TERMS = 11  # of each trigonometric series
LOG_TERMS = 14  # from the s**3 term on
LN2_HI_BITS = 32
R_TERMS = 9  # of each series in r**2
PIO2_HI_BITS = 33


def coefficients():
    """name -> tuple of doubles (a single double for the two parts of log 2)."""
    with mpmath.workdps(60):
        half_pi = mpmath.pi / 2
        cos = tuple(float((-1) ** k * half_pi ** (2 * k) / mpmath.factorial(2 * k)) for k in range(TERMS))
        sin = tuple(float((-1) ** k * half_pi ** (2 * k + 1) / mpmath.factorial(2 * k + 1)) for k in range(TERMS))
        log = tuple(float(mpmath.mpf(2) / (2 * k + 1)) for k in range(1, LOG_TERMS + 1))
        ln2 = mpmath.log(2)
        hi = mpmath.floor(ln2 * 2 ** LN2_HI_BITS) / 2 ** LN2_HI_BITS  # ln2 < 1: 32 fraction bits are 32 bits
        cos_r = tuple(float(mpmath.mpf(-1) ** k / mpmath.factorial(2 * k)) for k in range(R_TERMS))
        sin_r = tuple(float(mpmath.mpf(-1) ** k / mpmath.factorial(2 * k + 1)) for k in range(R_TERMS))
        # pi/2 lies in [1, 2): its leading 33 bits are 32 fraction bits
        pio2_hi = mpmath.floor(half_pi * 2 ** (PIO2_HI_BITS - 1)) / 2 ** (PIO2_HI_BITS - 1)
        return {"_COS_COEFFS": cos, "_SIN_COEFFS": sin, "_LOG_COEFFS": log,
                "_LN2_HI": float(hi), "_LN2_LO": float(ln2 - hi),
                "_COS_R_COEFFS": cos_r, "_SIN_R_COEFFS": sin_r, "_TWO_OVER_PI": float(2 / mpmath.pi),
                "_PIO2_HI": float(pio2_hi), "_PIO2_LO": float(half_pi - pio2_hi)}


def render(values, per_line=4):
    """The constants as Python source, ``per_line`` hex literals a line."""
    lines = []
    for name, value in values.items():
        if isinstance(value, tuple):
            lines.append(f"{name} = tuple(map(float.fromhex, (")
            literals = [f'"{c.hex()}",' for c in value]
            lines.extend("    " + " ".join(literals[i:i + per_line]) for i in range(0, len(literals), per_line))
            lines.append(")))")
        else:
            lines.append(f'{name} = float.fromhex("{value.hex()}")')
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(coefficients()))
