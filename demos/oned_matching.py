#!/usr/bin/env python3
"""Exact matching of separated one-dimensional curves.

The two curves live on opposite sides of zero, so every distance is the
sum of the two magnitudes. The optimal matching hops between prefix
minima, meets at the globally closest pair, and mirrors the construction
with suffix minima. Greedy forests extend the same idea to many seeds,
and reachability propagation answers which exits a set of entries can
reach under a threshold.
"""
from geofrechet.oned import (Curve1D, GridPoint, build_greedy_forest,
                             closest_pair_1d, frechet_matching_1d,
                             prefix_minima, propagate_reachability)


def main():
    r = Curve1D([-5.0, -3.0, -4.0, -2.0, -1.0])
    b = Curve1D([4.0, 2.0, 6.0, 1.0, 3.0])
    print("R:", [float(v) for v in r.values])
    print("B:", [float(v) for v in b.values])

    print("prefix minima of R:", prefix_minima(r))
    print("prefix minima of B:", prefix_minima(b))
    star = closest_pair_1d(r, b)
    print(f"closest pair: R[{star.i}] with B[{star.j}], "
          f"gap {r.a(star.i) + b.a(star.j):.1f}")

    match = frechet_matching_1d(r, b)
    print(f"\nFrechet distance: {match.cost:.1f}")
    print("matching path:",
          " -> ".join(f"({p.x:g},{p.y:g})" for p in match.waypoints))

    delta = match.cost + 1.0
    seeds = [GridPoint(1, 1), GridPoint(2, 2)]
    forest = build_greedy_forest(r, b, delta, seeds, "horizontal")
    print(f"\ngreedy forest at delta = {delta:.1f}: "
          f"{len(forest.roots)} root(s)")
    for s in seeds:
        path = forest.path_from(s)
        print(f"  from ({s.i},{s.j}): "
              + " -> ".join(f"({x:g},{y:g})" for (x, y) in path))

    S = [GridPoint(1, 1)]
    E = [GridPoint(5, 4), GridPoint(5, 5), GridPoint(4, 5)]
    out = propagate_reachability(r, b, delta, S, E)
    print(f"\nexits reachable from (1,1) at delta = {delta:.1f}: "
          + ", ".join(f"({g.i},{g.j})" for g in out))


if __name__ == "__main__":
    main()
