#!/usr/bin/env python3
"""Run the full model chain at the default parameter set and print the
headline numbers: transparency width, blockade radius, hard-sphere estimate,
radius-resolved controlled phase, sign asymmetry, and a simulated tomography
of the stored-excitation phase (the run of ``rydberg-xpm tomography --seed 7``)."""

from dataclasses import replace

from rydberg_xpm.blockade import blockade_radius, hard_sphere_controlled_phase
from rydberg_xpm.cli import medium_response, operating_spectra
from rydberg_xpm.config import RunConfig
from rydberg_xpm.constants import mhz_from_angular
from rydberg_xpm.photostatistics import tally_stokes, truth_stokes
from rydberg_xpm.polarization import balanced_input_state, visibility
from rydberg_xpm.susceptibility import transmission_fwhm


def main() -> None:
    cfg = RunConfig({"statistics": {"rng_seed": 7}})
    geom, blk = cfg.geometry(), cfg.blockade()

    delta_t = transmission_fwhm(cfg.eit_params(), geom)
    r_b = blockade_radius(blk.c6, delta_t)
    eit, ref = operating_spectra(cfg)
    phi_eit, phi_ref = float(eit.phase[0]), float(ref.phase[0])

    print(f"transparency feature width     : {mhz_from_angular(delta_t):.3f} MHz")
    print(f"blockade radius                : {r_b * 1e6:.2f} um")
    print(f"phase at operating point       : {phi_eit:+.3f} rad "
          f"(transmission {float(eit.transmission[0]):.3f})")
    print(f"fully blockaded phase          : {phi_ref:+.3f} rad")
    print(f"two-level minus EIT difference : {phi_ref - phi_eit:.3f} rad")
    print(f"hard-sphere controlled phase   : "
          f"{hard_sphere_controlled_phase(r_b, geom, phi_ref, phi_eit):.3f} rad")

    od0, phi0, od1, phi1 = medium_response(cfg, blk)
    print(f"radius-resolved integral       : {phi1 - phi0:.3f} rad "
          f"(od0 {od0:.3f}, od1 {od1:.3f})")

    _, phi0r, _, phi1r = medium_response(cfg, replace(blk, sign_reversed=True))
    print(f"sign-reversed controlled phase : {abs(phi1r - phi0r):.3f} rad "
          f"(ratio {abs(phi1 - phi0) / abs(phi1r - phi0r):.2f})")

    exp_cfg = cfg.experiment()
    state = balanced_input_state(od1)
    summary = tally_stokes(exp_cfg, (od0, phi0, od1, phi1), state,
                           postselect=cfg.raw["statistics"]["postselect"])
    truth = truth_stokes(exp_cfg, od1, phi1, state)
    print(f"tomography azimuth             : {summary.stokes.phi:+.3f} rad "
          f"(truth {truth.phi:+.3f}, {summary.n_postselected} postselected shots)")
    print(f"tomography visibility          : {visibility(summary.stokes):.3f} "
          f"(coherence factor {exp_cfg.coherence_factor})")


if __name__ == "__main__":
    main()
