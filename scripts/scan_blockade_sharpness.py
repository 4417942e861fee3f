#!/usr/bin/env python3
"""How good is the hard-sphere box approximation?

Scales the van der Waals coefficient upward, which pushes the r^-6 crossover
shell outward relative to the medium, and compares the radius-resolved
integral against the box estimate (whose radius tracks the scaled
interaction, clamped once the sphere fills the medium)."""

import warnings
from dataclasses import replace

from rydberg_xpm import defaults
from rydberg_xpm.blockade import blockade_radius, hard_sphere_controlled_phase
from rydberg_xpm.cli import medium_response, operating_spectra
from rydberg_xpm.config import RunConfig
from rydberg_xpm.constants import angular_from_mhz
from rydberg_xpm.errors import BlockadeClampWarning


def main() -> None:
    cfg = RunConfig()
    geom, blk = cfg.geometry(), cfg.blockade()
    delta_t = angular_from_mhz(defaults.FEATURE_FWHM_MHZ)

    eit, ref = operating_spectra(cfg)
    phi_eit, phi_ref = float(eit.phase[0]), float(ref.phase[0])

    print(f"{'scale':>6} {'R_b (um)':>9} {'integral':>9} {'box':>9} {'rel diff':>9}")
    for scale in (1, 2, 4, 16, 64, 256, 1024):
        scaled = replace(blk, c6=blk.c6 * scale)
        r_b = blockade_radius(scaled.c6, delta_t)
        _, phi0, _, phi1 = medium_response(cfg, scaled)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BlockadeClampWarning)
            box = hard_sphere_controlled_phase(r_b, geom, phi_ref, phi_eit)
        ctrl = phi1 - phi0
        print(f"{scale:>6} {r_b * 1e6:>9.2f} {ctrl:>9.4f} {box:>9.4f} "
              f"{abs(ctrl - box) / box:>9.2%}")


if __name__ == "__main__":
    main()
