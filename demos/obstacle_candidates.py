"""Two-sided speed candidates from clipped (obstacle) front dynamics.

A planar wave of speed r acts as an obstacle: the clipped sub-front may
never overtake it, the clipped super-front may never fall behind.  Watching
which waves the oscillatory front detaches from brackets the homogenized
speed from both sides; bisecting over r with shrinking oscillation scale
eps tightens the bracket.  The flatness phi(t) of a run is the running maximum
detachment — identically zero exactly when the wave wins on its side.

Run:  python3 demos/obstacle_candidates.py
"""

from hele_homog.homog1d import (
    Side,
    homogenized_candidates,
    obstacle_front,
)
from hele_homog.medium import builtin_medium, estimate_bounds


def main() -> None:
    g = builtin_medium("pinning")
    bounds = estimate_bounds(g)
    q = 0.75
    print("medium:", g.source)
    print(f"gradient q = {q}; speed band [{bounds.m * q:.3f}, {bounds.M * q:.3f}]")
    print()

    print("detachment phi(T) against waves of different speeds (eps = 0.05):")
    print(f"{'r':>6}  {'side':>6}  {'phi(T)':>10}")
    for r, side in [
        (0.9 * bounds.m * q, Side.SUB),
        (1.0, Side.SUB),
        (1.0, Side.SUPER),
        (1.1 * bounds.M * q, Side.SUPER),
    ]:
        front = obstacle_front(g, q=q, r=r, eps=0.05, side=side, T=1.0)
        print(f"{r:6.3f}  {side.value:>6}  {front.phi[-1]:10.2e}")
    print("  (zero means the front never detaches from that wave)")
    print()

    report = homogenized_candidates(g, q=q)
    print(f"bisected candidates over eps = {list(report.eps_list)}:")
    print(f"  r_lower = {report.r_lower:.4f}")
    print(f"  r_upper = {report.r_upper:.4f}")
    print("Both candidates hug 1: the pinned speed survives the limit.")


if __name__ == "__main__":
    main()
