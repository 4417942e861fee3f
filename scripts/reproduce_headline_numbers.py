#!/usr/bin/env python3
"""Run the full model chain at the default parameter set and print the
headline numbers: transparency width, blockade radius, hard-sphere estimate,
radius-resolved controlled phase, sign asymmetry, and a simulated tomography
of the stored-excitation phase.  The numbers are those of the CLI payloads of
``rydberg-xpm spectrum``, ``blockade-phase`` and ``tomography --seed 7``."""

from rydberg_xpm.cli import cmd_blockade_phase, cmd_spectrum, cmd_tomography
from rydberg_xpm.config import RunConfig


def main() -> None:
    cfg = RunConfig({"statistics": {"rng_seed": 7}})
    op = cmd_spectrum(cfg, None)["spectrum_summary.json"]
    b = cmd_blockade_phase(cfg, None)["blockade_phase.json"]
    tomo = cmd_tomography(cfg, None)["tomography.json"]
    fwd, rev = b["integral"], b["integral_sign_reversed"]

    print(f"transparency feature width     : {b['delta_t_mhz']:.3f} MHz")
    print(f"blockade radius                : {b['blockade_radius_um']:.2f} um")
    print(f"phase at operating point       : {b['phi_eit_rad']:+.3f} rad "
          f"(transmission {op['transmission_at_operating']:.3f})")
    print(f"fully blockaded phase          : {b['phi_two_level_rad']:+.3f} rad")
    print(f"two-level minus EIT difference : {b['phase_difference_rad']:.3f} rad")
    print(f"hard-sphere controlled phase   : "
          f"{b['hard_sphere_controlled_phase_rad']:.3f} rad")
    print(f"radius-resolved integral       : {fwd['controlled_phase_rad']:.3f} rad "
          f"(od0 {fwd['od0']:.3f}, od1 {fwd['od1']:.3f})")
    print(f"sign-reversed controlled phase : "
          f"{abs(rev['controlled_phase_rad']):.3f} rad "
          f"(ratio {b['forward_to_reversed_ratio']:.2f})")
    print(f"tomography azimuth             : {tomo['azimuth_rad']:+.3f} rad "
          f"(truth {tomo['truth']['azimuth_rad']:+.3f}, "
          f"{tomo['n_postselected']} postselected shots)")
    print(f"tomography visibility          : {tomo['visibility']:.3f} "
          f"(coherence factor {cfg.raw['statistics']['coherence_factor']})")


if __name__ == "__main__":
    main()
