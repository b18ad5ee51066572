"""Rerun the bit-identity kit: six `sct` CLI commands, one run of the
general-D route, one of the one-loop domain grid and one of both elliptic
kernels on their probe grids, whose stdout must hash to the values
recorded in ROADMAP.md's Guardrails.

    python tools/bit_identity.py

Prints, per command, the first 8 hex digits of the sha256 of its stdout
beside the recorded ones, and exits 1 if any differ (or a command fails).
It runs the `src` tree beside this script and writes no file; all nine take
5-10 s on a 2-core machine.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the commands as ROADMAP.md lists them, each with its recorded hash
KIT = [
    ("run --mode=quartic-semiclassical --g=0.5 --dim=1 --tmin=0.1 --tmax=5",
     "c8267ee6"),
    ("run --mode=quartic-semiclassical --g=0.5 --dim=3 --tmin=0.1 --tmax=5",
     "8a4fdb0f"),
    ("run --mode=quartic-semiclassical --g=0.001 --dim=3 --tmin=0.1 --tmax=5",
     "9f0a77a1"),
    ("run --mode=quartic-semiclassical --g=10 --dim=8 --tmin=0.05 --tmax=20 --steps=15",
     "d1d2f060"),
    ("compare --modes=harmonic,quartic-classical,quartic-semiclassical,quartic-wkb "
     "--g=0.2 --dim=1 --tmin=0.1 --tmax=5", "deaaa0ae"),
    ("compare --modes=harmonic,quartic-classical,quartic-wkb --g=0.2 --dim=1 "
     "--tmin=0.1 --tmax=30 --steps=200", "d9b0753d"),
]

# The general-D route at the benchmark's three green-moments gate cases
# (q_t, Theta, D): the variational flow, det_general, the bytes of the
# 8-node Green table and the four-leg Wick moment, from `sct` alone.
GENERAL_D = """
from sct.fluctuations import (
    det_general, flow_matrices, green_table_general, radial_trajectory, wick_moment)
from sct.paths import quartic_path_from_qt, quartic_well
for q_t, Theta, D in ((0.5, 1.0, 1), (1.0, 0.5, 2), (2.0, 1.0, 3)):
    path = quartic_path_from_qt(q_t, Theta)
    flow = flow_matrices(quartic_well(), radial_trajectory(path.position, D), Theta)
    table = green_table_general(flow, n=8)
    legs = [(c, float(table.grid[j])) for c, j in ((0, 2), (D - 1, 3), (0, 4), (D - 1, 5))]
    print(repr(det_general(flow)), table.values.tobytes().hex(),
          repr(wick_moment(table, legs)))
"""
GENERAL_D_HASH = "4bc0f0da"

# The outcome of ln_z2_quartic at each point of the 216-point domain grid:
# "value" (finite), "not finite" or the SctError's class name, with no
# digits, so a declared move in the values keeps the hash and a change of
# outcome moves it.
DOMAIN_GRID = """
import math
import numpy as np
from sct.errors import SctError
from sct.thermo import ln_z2_quartic
for g in np.geomspace(1e-6, 1e6, 6).tolist():
    for D in (1, 3, 30, 1000):
        for Theta in (1e-6, 1e-4, 1e-2, 0.3, 3.0, 30.0, 300.0, 700.0, 1000.0):
            try:
                (lnz,) = ln_z2_quartic(g, D, [Theta])
                outcome = "value" if math.isfinite(lnz) else "not finite"
            except SctError as exc:
                outcome = type(exc).__name__
            print(repr(g), D, repr(Theta), outcome)
"""
DOMAIN_GRID_HASH = "30a56b6b"

# Both elliptic kernels' (sn, cn, dn, epsilon) bytes on two probe grids:
# the ladder's, 600 moduli m1 in [1e-12, 0.999] at u = -0.9, 0.1, 0.5 and
# 0.97 K, and the k -> 1 expansion's, m1 = 0 and 300 moduli in
# [1e-300, 9.99e-13] at 24 u inside min(K, 800).  The one-loop hashes
# reach the scalar kernel only at single paths, and GENERAL_D at q_t >= 0.5.
ELLIPTIC = """
import math
import numpy as np
from sct.elliptic import _agm_ladder, _scalar_sn_cn_dn_eps_k, _sn_cn_dn_eps_k
ladder = [(f * _agm_ladder(m1)[3], m1) for m1 in np.geomspace(1e-12, 0.999, 600).tolist()
          for f in (-0.9, 0.1, 0.5, 0.97)]
near = [(f * min(_agm_ladder(m1)[3] if m1 > 0.0 else math.inf, 800.0), m1)
        for m1 in [0.0, *np.geomspace(1e-300, 9.99e-13, 300).tolist()]
        for f in np.linspace(-1.0, 1.0, 26)[1:-1].tolist()]
for grid in (ladder, near):
    u, m1 = (np.array(x) for x in zip(*grid))
    print(np.array([_scalar_sn_cn_dn_eps_k(*p)[:4] for p in grid]).tobytes().hex())
    print(np.array(_sn_cn_dn_eps_k(u, m1)[:4]).T.tobytes().hex())
"""
ELLIPTIC_HASH = "6521deca"


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = [(["-m", "sct.cli", *command.split()], command, recorded)
            for command, recorded in KIT]
    runs.append((["-c", GENERAL_D], "-c GENERAL_D (the general-D route)", GENERAL_D_HASH))
    runs.append((["-c", DOMAIN_GRID], "-c DOMAIN_GRID (one-loop outcomes)", DOMAIN_GRID_HASH))
    runs.append((["-c", ELLIPTIC], "-c ELLIPTIC (both elliptic kernels)", ELLIPTIC_HASH))
    mismatches = 0
    for args, command, recorded in runs:
        proc = subprocess.run([sys.executable, *args], capture_output=True, env=env)
        got = hashlib.sha256(proc.stdout).hexdigest()[:8]
        ok = proc.returncode == 0 and got == recorded
        mismatches += not ok
        print(f"{got} {recorded} {'ok' if ok else 'MISMATCH'}  {command}")
        if proc.returncode:
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
