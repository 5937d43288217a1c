"""Synthesize the two competing robust estimators for the series benchmark.

A dynamic squeezer plant is monitored either directly (classical filter) or
through a second squeezer acting as a coherent controller ahead of the
homodyne detector (coherent-classical filter).  Both filters are synthesized
for the same attenuation level and the resulting state-space matrices and
diagnostics are printed.
"""

import numpy as np

from qre import build_study, series_benchmark_config

np.set_printoptions(precision=4, suppress=True, linewidth=120)


def show(name, est):
    print(f"\n=== {name} ===")
    print("A_K =\n", est.A_K)
    print("B_K =\n", est.B_K)
    print("C_K =\n", est.C_K)
    print(f"spectral abscissa   : {est.spectral_abscissa:+.4f}")
    print(f"Riccati residual X  : {est.residual_x:.2e}")
    print(f"Riccati residual Y  : {est.residual_y:.2e}")
    print(f"coupling condition  : {est.coupling_condition:.2e}")


def main():
    config = series_benchmark_config()
    study = build_study(config)
    print(
        f"series benchmark: gamma={study.gamma}, "
        f"eps1={study.eps1}, eps2={study.eps2}"
    )
    show("classical filter (homodyne on the plant output)",
         study.estimator("classical"))
    show("coherent-classical filter (controller ahead of the detector)",
         study.estimator("coherent"))


if __name__ == "__main__":
    main()
