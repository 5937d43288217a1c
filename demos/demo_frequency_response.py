"""Compare estimation-error magnitude responses at the worst-case detuning.

For the series benchmark the closed-loop error system (disturbance in,
estimation error out) is evaluated on a log-spaced frequency grid for both
filters with the squeezing-parameter perturbation at its design value.
The coherent-classical filter should sit below the classical one across the
band, and the peak gains reported by the level-set iteration should match
the grid maxima.
"""

import numpy as np

from qre import build_study, hinf_norm, frequency_response, series_benchmark_config


def main():
    study = build_study(series_benchmark_config())
    delta = study.delta_design
    omegas = np.logspace(-2, 2, 60)

    loops = {name: study.closed_loop(name, delta) for name in study.channels}

    print(f"magnitude of the error response at delta = {delta}")
    print(f"{'omega':>10} {'classical':>12} {'coherent':>12}")
    for w in omegas[::6]:
        mags = {
            k: np.abs(frequency_response(ss, np.array([w]))[0]).max()
            for k, ss in loops.items()
        }
        print(f"{w:10.3f} {mags['classical']:12.5f} {mags['coherent']:12.5f}")

    print("\npeak gains (level-set iteration on the bounded-real Hamiltonian):")
    for k, ss in loops.items():
        norm, peak = hinf_norm(ss, allow_unstable=True, return_frequency=True)
        print(f"  {k:10s}: {norm:.5f} at omega = {peak:+.3f} rad/s")


if __name__ == "__main__":
    main()
