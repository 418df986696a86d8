"""Built-in measurement configurations.

Two presets ship with the package:

``fig2-baseline``
    Both photons of each pair are analyzed directly: fiber interferometers
    on both arms, Alice's InGaAs detector gated by Bob's free-running one.
    Configured for a net visibility of 0.970 with an accidental floor that
    drags the raw visibility to roughly 0.874.

``fig3-transfer``
    Bob's photon passes the wavelength-conversion stage (success
    probability about 4.9 %) before a bulk interferometer and a
    free-running silicon detector.  The pair rate is raised to buy back
    the conversion loss; configured net visibility 0.962.

Values quoted to the component data sheets live in the chain defaults;
what the presets pin down are the operating points: pair rate, collection
duration per phase point, Alice's 8 ns gates, and Bob's detector, whose
background level sets the accidental fraction.  Every field a preset leaves
out keeps its default in ``SimConfig()``, as in any config document.  The
per-point durations are chosen so a 21-point phase sweep collects a few
hundred coincidences per point.
"""

from __future__ import annotations

from .config import SimConfig, sim_config_from_dict

__all__ = ["PRESETS", "PEAK_RATIO_TARGET", "REPORT_TARGETS", "preset_names", "preset_config"]

# Reference targets the report command checks measured values against.
# Visibility intervals are the reproduction tolerances; the fidelity
# interval follows from the net-visibility interval through (1 + v) / 2.
REPORT_TARGETS = {
    "fig2-baseline": {"v_raw": (0.85, 0.90), "v_net": (0.95, 0.99)},
    "fig3-transfer": {
        "v_raw": (0.84, 0.89),
        "v_net": (0.95, 1.00),
        "transfer_probability": (0.0485, 0.0487),
    },
}
PEAK_RATIO_TARGET = (1.90, 2.10)


PRESETS: dict[str, dict] = {
    "fig2-baseline": {
        "visibility": 0.970,
        "duration_s": 240.0,
        "seed": 11,
        "chain": {
            "source": {"pair_rate_per_s": 2000.0},
            "bob_detector": {"quantum_efficiency": 0.10, "dark_prob_per_ns": 3.0e-5},
            "gate_width_ns": 8.0,
        },
    },
    "fig3-transfer": {
        "visibility": 0.962,
        "duration_s": 150.0,
        "seed": 12,
        "chain": {
            "source": {
                # narrow filter on Alice's arm for the transfer measurement
                "alice_filter_bandwidth_nm": 1.5,
                "pair_rate_per_s": 25000.0,
            },
            # bulk optics after the conversion stage
            "bob_interferometer": {"transmission": 0.30},
            "bob_detector": {
                # free-running silicon APD; background level covers dark
                # counts plus leakage from the conversion pump reservoir
                "quantum_efficiency": 0.60,
                "dark_prob_per_ns": 4.9e-5,
            },
            "gate_width_ns": 8.0,
            # the conversion stage at its data-sheet values
            "sfg": {},
        },
    },
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))


def preset_config(name: str) -> SimConfig:
    """Instantiate a named preset; KeyError lists the available names."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return sim_config_from_dict(PRESETS[name])
