#!/usr/bin/env python3
"""Refinement study of the first nonzero eigenvalue on the unit sphere.

Assembles the Newton-coefficient operator on icosphere meshes of increasing
subdivision level and reports the eigenvalue error against the analytic value
mu1 = 2, together with the observed convergence order and the Richardson
extrapolation.
"""

import argparse
import time

import numpy as np

from spectra_bochner import discretize as dz, spectral as spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, nargs="+", default=[3, 4, 5, 6])
    ap.add_argument("--coefficient", choices=["newton1", "metric"],
                    default="newton1")
    args = ap.parse_args()
    if any(b <= a for a, b in zip(args.levels, args.levels[1:])):
        ap.error("--levels must increase")

    provider = (dz.ellipsoid_newton1_coefficient([1.0, 1.0, 1.0])
                if args.coefficient == "newton1" else dz.metric_coefficient())

    print(f"{'subdiv':>6} {'vertices':>9} {'h':>10} {'mu1':>16} "
          f"{'error':>12} {'order':>7} {'secs':>7}")
    mus, hs = [], []
    for sub in args.levels:
        t0 = time.perf_counter()
        mesh = dz.icosphere(sub)
        op = dz.assemble(mesh, provider)
        mu = spec.smallest_nonzero(op, k=1).mu1
        dt = time.perf_counter() - t0
        mus.append(mu)
        hs.append(mesh.mean_edge_length())
        order = ""
        if len(mus) > 1:
            p = (np.log(abs(mus[-2] - 2) / abs(mus[-1] - 2))
                 / np.log(hs[-2] / hs[-1]))
            order = f"{p:7.3f}"
        print(f"{sub:>6} {mesh.num_vertices:>9} {hs[-1]:>10.4e} "
              f"{mu:>16.12f} {mu - 2.0:>12.3e} {order:>7} {dt:>7.1f}")

    if len(mus) >= 2:
        # h halves per level, and the error is O(h^2)
        d = args.levels[-1] - args.levels[-2]
        extrap = mus[-1] + (mus[-1] - mus[-2]) / (4.0 ** d - 1.0)
        print(f"\nRichardson extrapolation: {extrap:.12f} "
              f"(analytic value 2; relative gap {abs(extrap - 2) / 2:.2e})")


if __name__ == "__main__":
    main()
