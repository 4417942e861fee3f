#!/usr/bin/env python3
"""How good is the hard-sphere box approximation?

Scales the van der Waals coefficient upward, which pushes the r^-6 crossover
shell outward relative to the medium, and compares the radius-resolved
integral against the box estimate (whose radius tracks the scaled
interaction, clamped once the sphere fills the medium).  Each row is the
``rydberg-xpm blockade-phase`` payload at the scaled C6."""

import warnings

from rydberg_xpm import defaults
from rydberg_xpm.cli import cmd_blockade_phase
from rydberg_xpm.config import RunConfig
from rydberg_xpm.errors import BlockadeClampWarning


def main() -> None:
    print(f"{'scale':>6} {'R_b (um)':>9} {'integral':>9} {'box':>9} {'rel diff':>9}")
    for scale in (1, 2, 4, 16, 64, 256, 1024):
        c6 = defaults.C6_ATOMIC_UNITS * scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BlockadeClampWarning)
            b = cmd_blockade_phase(RunConfig({"blockade": {"c6_atomic_units": c6}}),
                                   None)["blockade_phase.json"]
        ctrl = b["integral"]["controlled_phase_rad"]
        box = b["hard_sphere_controlled_phase_rad"]
        print(f"{scale:>6} {b['blockade_radius_um']:>9.2f} {ctrl:>9.4f} {box:>9.4f} "
              f"{abs(ctrl - box) / box:>9.2%}")


if __name__ == "__main__":
    main()
